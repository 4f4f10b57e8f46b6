"""Pointwise operator algebra of the Cayley deformation operator.

At a calibrated 4-plane the 7-dimensional 2-form summand splits into the
plane's anti-self-dual forms and a rank-4 piece E (the forms vanishing on
the plane); the principal symbol of the deformation operator sends a
normal vector s to ``xi_sharp x s`` in E and satisfies the Clifford
relation.  This module builds that splitting and stores the symbol once
on the four basis covectors (``sigma`` is linear in xi), and builds the
even-form Clifford module on a 3-manifold cross-section, the isomorphism
``h(f, alpha) = f s + s x (star alpha)^sharp`` onto the normal space of an
associative plane, and the two symbol intertwinings that identify the
operator with classical complexes in the reduced-holonomy models.

First-order symbol conventions are pinned as ``sigma(d)(xi) = xi ^ .`` and
``sigma(delta)(xi) = -xi . (contraction)``; symbol comparisons are made up
to one global unit scalar fixed at the probe covector ``e^1``.

Frozen isomorphism normalizations (derived once so the intertwinings hold
exactly, then fixed):

* special Lagrangian: ``Lambda^0 + Lambda^2_+ -> E`` maps ``f`` to
  ``-f omega / 2`` (the Kaehler form has norm 2, so this is a unit
  section) and a 2-form ``beta`` to ``(1/2) sum beta_ij (t_i x J t_j -
  t_j x J t_i)``; the tangent-to-normal map is J.
* coassociative: a plane ASD form ``alpha`` maps to the unique R^7-normal
  ``n`` with ``(n . phi)|_X = alpha`` (coefficient 1), the plane volume
  form maps to the circle direction, and 3-forms map to E through
  ``gamma -> (star gamma)^sharp x dtheta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _linalg, calib, g2 as g2mod, multivec
from .multivec import (PLANE_TOL, KForm, OrientedPlane, Vector, _project_out,
                       blades, divide, exact_sqrt, is_exact, is_zero, scalar, sharp)
from .spin7 import CheckResult, Spin7Model, cross2, cross3, phi0, proj2_7, tau


class NonCayleyPlaneError(ValueError):
    """The plane fails the tau gate; carries the offending norm."""

    def __init__(self, tau_norm):
        self.tau_norm = tau_norm
        super().__init__(f"plane is not Cayley: |tau| = {float(tau_norm):.3e}")


def _two_squares(r: int) -> Optional[Tuple[int, int]]:
    """``(c, d)`` with ``c^2 + d^2 = r >= 0``, or None if none was found.

    Small ``r`` is searched in full, and ``2 s = (u + v)^2 + (u - v)^2``
    when ``s = u^2 + v^2``.  A large odd ``r = 1 (mod 4)`` is tried as a
    prime by Hermite-Serret: Euclid's algorithm on ``(r, x)`` with ``x^2 =
    -1 (mod r)`` stops at the first remainder below ``sqrt(r)``; a
    composite ``r`` may fail the final check.
    """
    if r < 1 << 16:
        c = next((c for c in range(math.isqrt(r), -1, -1)
                  if math.isqrt(r - c * c) ** 2 == r - c * c), None)
        return None if c is None else (c, math.isqrt(r - c * c))
    if r % 2 == 0:
        uv = _two_squares(r // 2)
        return None if uv is None else (uv[0] + uv[1], abs(uv[0] - uv[1]))
    if r % 4 != 1:
        return None
    x = next((x for x in (pow(z, (r - 1) // 4, r) for z in range(2, 64))
              if x * x % r == r - 1), None)
    if x is None:
        return None
    a, b = r, x
    while b * b > r:
        a, b = b, a % b
    d = math.isqrt(r - b * b)
    return (b, d) if b * b + d * d == r else None


def _four_squares(n: int) -> Tuple[int, int, int, int]:
    """Integers ``(a, b, c, d)`` with ``a^2 + b^2 + c^2 + d^2 = n >= 0``.

    Greedy from the largest squares ``a^2`` and ``b^2``, passing over an
    ``a`` whose rest has the form ``4^k (8 j + 7)`` (no sum of three
    squares, by Legendre); the last rest goes to :func:`_two_squares`.
    """
    if n and n % 4 == 0:
        return tuple(2 * x for x in _four_squares(n // 4))
    for a in range(math.isqrt(n), -1, -1):
        rest = odd = n - a * a
        while odd and odd % 4 == 0:
            odd //= 4
        if odd % 8 == 7:
            continue
        for b in range(math.isqrt(rest), -1, -1):
            cd = _two_squares(rest - b * b)
            if cd is not None:
                return (a, b) + cd
    raise AssertionError("unreachable: every n >= 0 is a sum of four squares")


def _normal_frame(m: Spin7Model, plane: OrientedPlane) -> Tuple[Vector, ...]:
    """Orthonormal frame of the normal space of a Cayley 4-plane.

    The plane's :meth:`~cayley8.multivec.OrientedPlane.complement`, unless
    the model and the plane are exact and the complement had to take an
    irrational square root.  Then ``J_k = t_1 x t_k x .`` (k = 2, 3, 4) act
    on the normal space as the unit imaginary quaternions: for the first
    nonzero projection ``w`` of a standard basis vector off the plane (a
    rational normal) the vectors ``w, J_2 w, J_3 w, J_4 w`` are orthogonal
    of length ``|w|``, a rational combination ``n`` of them has length 1 by
    Lagrange's four-square theorem, and ``n, J_2 n, J_3 n, J_4 n`` is an
    exact frame.
    """
    onb = plane.orthonormal_basis
    normal = plane.complement()
    exact_plane = m.exact and is_exact(c for t in onb for c in t.components)
    if not exact_plane or is_exact(c for v in normal for c in v.components):
        return normal
    w = next(w for w in (_project_out(Vector.basis(8, i), onb) for i in range(1, 9))
             if w.norm_sq() != 0)
    q = Fraction(w.norm_sq())
    # sum x_k^2 = n_q d_q / n_q^2 = 1 / q
    x = [Fraction(c, q.numerator) for c in _four_squares(q.numerator * q.denominator)]
    t1 = onb[0]
    quaternion = [w] + [cross3(m, t1, t, w) for t in onb[1:]]
    n = sum((c * v for c, v in zip(x, quaternion)), Vector([0] * 8))
    return (n,) + tuple(cross3(m, t1, t, n) for t in onb[1:])


@dataclass(frozen=True)
class CayleyPointModel:
    """The splitting R^8 = T + N at a Cayley plane with the rank-4 bundle fibre E.

    ``symbols[i]`` is the symbol at the basis covector ``e^(i+1)``: the
    E-coordinates of ``t_(i+1) x n_j`` in column j (exact entries, dtype
    object, when the model and the frames are exact).
    """

    model: Spin7Model
    tangent_frame: Tuple[Vector, ...]
    normal_frame: Tuple[Vector, ...]
    e_basis: Tuple[KForm, ...]
    symbols: Tuple[np.ndarray, ...] = field(compare=False)

    def e_coords(self, form: KForm):
        return [form.inner(ek) for ek in self.e_basis]


def _exact_symbols(cpm: CayleyPointModel) -> bool:
    """The mode of a check at the point: exact iff the stored symbols are."""
    return is_exact(x for s in cpm.symbols for x in s.flat)


def _check_covector(xi: KForm) -> None:
    if xi.dim != 4 or xi.degree != 1:
        raise ValueError("xi must be a 1-form on the 4-dimensional tangent plane")


def _plane_restriction_rows(forms: Sequence[KForm], onb: Sequence[Vector]):
    """Row per 2-blade ``(a, b)`` of the plane: each form on ``(t_a, t_b)``, from its pull-back."""
    pulled = [multivec.pullback(f, onb) for f in forms]
    return [[p.coeffs.get(pair, 0) for p in pulled] for pair in blades(4, 2)]


def build_cayley_model(m: Spin7Model, plane: OrientedPlane) -> CayleyPointModel:
    """Assemble the point model at a Cayley 4-plane.

    E is the kernel of the restriction map on the 7-dimensional 2-form
    summand; its dimension must be 4 and it must coincide with the span of
    the tangent-normal cross products, whose E-coordinates are stored as
    the symbol matrices.  A plane that fails the gate ``calib.TAU_TOL``
    on |tau|, the one gate of :func:`cayley8.calib.cayley_test`, raises
    :class:`NonCayleyPlaneError`.
    """
    if plane.degree != 4 or plane.dim != 8:
        raise ValueError("expected a 4-plane in R^8")
    onb = plane.orthonormal_basis
    tnorm = tau(m, *onb).norm()
    if not is_zero(tnorm, calib.TAU_TOL):
        raise NonCayleyPlaneError(tnorm)

    normal = _normal_frame(m, plane)

    basis2 = blades(8, 2)
    rows = _plane_restriction_rows(m.lambda2_7_forms(), onb)
    if len(_linalg.nullspace(rows, tol=PLANE_TOL)) != 4:
        raise NonCayleyPlaneError(tnorm)

    gens = [cross2(m, t, n) for t in onb for n in normal]
    ortho = _linalg.orthogonalize([[g.coeffs.get(b, 0) for b in basis2] for g in gens],
                                  tol=PLANE_TOL)
    if len(ortho) != 4:
        raise NonCayleyPlaneError(tnorm)
    e_basis = []
    for row in ortho:
        nrm = exact_sqrt(sum(x * x for x in row))
        e_basis.append(KForm(8, 2, {b: divide(c, nrm) for b, c in zip(basis2, row) if c != 0}))

    # cross products must land in the kernel of the restriction
    if not all(is_zero(x, PLANE_TOL) for row in _plane_restriction_rows(gens, onb) for x in row):
        raise NonCayleyPlaneError(tnorm)

    # gens[4 i + j] = t_i x n_j, so symbols[i][k, j] = <t_i x n_j, e_k>
    coords = [[g.inner(ek) for ek in e_basis] for g in gens]
    dtype = object if is_exact(x for c in coords for x in c) else float
    symbols = tuple(np.array(coords[4 * i:4 * i + 4], dtype=dtype).T for i in range(4))
    return CayleyPointModel(model=m, tangent_frame=onb,
                            normal_frame=normal, e_basis=tuple(e_basis),
                            symbols=symbols)


def plane_asd_basis() -> List[KForm]:
    """Intrinsic anti-self-dual 2-forms of an oriented 4-plane (exact)."""
    return [
        KForm(4, 2, {(1, 2): 1, (3, 4): -1}),
        KForm(4, 2, {(1, 3): 1, (2, 4): 1}),
        KForm(4, 2, {(1, 4): 1, (2, 3): -1}),
    ]


def plane_sd_basis() -> List[KForm]:
    """Intrinsic self-dual 2-forms of an oriented 4-plane (exact)."""
    return [
        KForm(4, 2, {(1, 2): 1, (3, 4): 1}),
        KForm(4, 2, {(1, 3): 1, (2, 4): -1}),
        KForm(4, 2, {(1, 4): 1, (2, 3): 1}),
    ]


def embed_plane_form(cpm: CayleyPointModel, alpha: KForm) -> KForm:
    """Extend an intrinsic 2-form of the plane to R^8 by zero contraction."""
    onb = cpm.tangent_frame
    return sum((multivec.flat(onb[a - 1]).wedge(multivec.flat(onb[b - 1])) * c
                for (a, b), c in alpha.coeffs.items()), KForm.zero(8, 2))


def asd_embedding_report(cpm: CayleyPointModel) -> CheckResult:
    """Conformality and orthogonality of ``alpha -> 2 pi7(alpha)`` on plane ASD forms.

    The image lies in the 7-dimensional summand, orthogonal to E, scales
    the Gram matrix by the fixed factor 2 (a sqrt(2)-conformal embedding),
    and restricts back to the original form on the plane; the residual is
    the worst deviation.
    """
    m = cpm.model
    asd = plane_asd_basis()
    images = [2 * proj2_7(m, embed_plane_form(cpm, alpha)) for alpha in asd]
    residuals = [abs(img.inner(ek)) for img in images for ek in cpm.e_basis]
    rows = _plane_restriction_rows(images, cpm.tangent_frame)
    residuals += (abs(x - alpha[pair]) for row, pair in zip(rows, blades(4, 2))
                  for x, alpha in zip(row, asd))
    residuals += (abs(images[i].inner(images[j]) - 2 * ai.inner(aj))
                  for i, ai in enumerate(asd) for j, aj in enumerate(asd))
    return CheckResult.judge("asd-embedding", residuals, _exact_symbols(cpm),
                             "2 pi7 is a sqrt(2)-conformal embedding orthogonal to E")


# -- principal symbol --------------------------------------------------------------


def symbol_D(cpm: CayleyPointModel, xi: KForm) -> np.ndarray:
    """Matrix of ``s -> xi_sharp x s`` from the normal frame to the E basis.

    ``xi`` is an intrinsic covector of the tangent plane (degree 1 on the
    4-dimensional plane).  The symbol is linear in xi, so this is
    ``sum_i xi_i * cpm.symbols[i]`` over the symbols stored on the basis
    covectors; exact entries in exact mode (dtype=object), floats otherwise.
    """
    _check_covector(xi)
    sig = sum(xi.coeffs.get((i + 1,), 0) * s for i, s in enumerate(cpm.symbols))
    if sig.dtype == object and is_exact(sig.flat):
        return sig
    return np.array(sig, dtype=float)


def _covector_set(count: int, seed: int, exact: bool) -> List[KForm]:
    """The four basis covectors, then ``count`` random ones drawn from ``seed``:
    standard normal entries, or in exact mode the integers of
    ``[-DRAW_BOUND, DRAW_BOUND)`` (see :func:`cayley8.multivec.random_form`)."""
    one = scalar(1, exact=exact)
    rng = np.random.default_rng(seed)
    bound = multivec.DRAW_BOUND if exact else None
    return ([KForm(4, 1, {(i,): one}) for i in range(1, 5)]
            + [multivec.random_form(rng, 4, 1, bound) for _ in range(count)])


def clifford_check(cpm: CayleyPointModel, trials: int = 16,
                   seed: int = 0) -> CheckResult:
    """Verify the Clifford relation of the symbol on basis and random covectors.

    ``sigma(xi)^T sigma(xi') + sigma(xi')^T sigma(xi) = 2 <xi, xi'> Id``,
    on exact object arrays at an exact point model.
    """
    exact = _exact_symbols(cpm)
    covs = _covector_set(trials, seed, exact)
    dtype = object if exact else float
    symbols = [np.array(symbol_D(cpm, a), dtype=dtype) for a in covs]
    eye = np.eye(4, dtype=dtype)
    residuals = (abs(sa.T @ sb + sb.T @ sa - 2 * a.inner(b) * eye).max()
                 for a, sa in zip(covs, symbols) for b, sb in zip(covs, symbols))
    return CheckResult.judge("clifford", residuals, exact,
                             "sigma(xi)^T sigma(xi') + sigma(xi')^T sigma(xi) = 2<xi,xi'> Id")


# -- even-form Clifford module on a 3-manifold ---------------------------------------


def bev_clifford(v: Vector, f, alpha: KForm) -> Tuple[object, KForm]:
    """Clifford multiplication on scalars+2-forms of an oriented 3-space.

    ``v . (f, alpha) = (v . star(alpha), -f star(v_flat) - v_flat ^
    star(alpha))``; satisfies ``v . (v . (f, alpha)) = -|v|^2 (f, alpha)``.
    """
    if v.dim != 3 or alpha.dim != 3 or alpha.degree != 2:
        raise ValueError("bev_clifford lives on an oriented 3-space")
    star_alpha = alpha.hodge()
    scalar = star_alpha.evaluate(v)
    vf = multivec.flat(v)
    two = -f * vf.hodge() - vf.wedge(star_alpha)
    return scalar, two


@dataclass(frozen=True)
class AssociativePointModel:
    """Orthonormal frames at an associative 3-plane in R^7 with a unit normal s."""

    g2model: g2mod.G2Model
    tangent_frame: Tuple[Vector, ...]
    normal_frame: Tuple[Vector, ...]
    s: Vector

    def tangent_ambient(self, v: Vector) -> Vector:
        """Intrinsic R^3 coordinates to an ambient R^7 vector."""
        zero = Vector([0] * 7)
        return sum((v[i + 1] * t for i, t in enumerate(self.tangent_frame)), zero)


def build_associative_model(g2m: g2mod.G2Model, plane: OrientedPlane) -> AssociativePointModel:
    """Frames at an associative plane; ``s`` is the first normal."""
    if plane.degree != 3 or plane.dim != 7:
        raise ValueError("expected a 3-plane in R^7")
    onb = plane.orthonormal_basis
    lam = multivec.restrict(g2m.phi3, plane)
    if not is_zero(lam - 1, PLANE_TOL):
        raise ValueError(
            f"plane is not positively associative (phi restricts to {float(lam)})")
    normal = plane.complement()
    return AssociativePointModel(g2model=g2m, tangent_frame=onb,
                                 normal_frame=normal, s=normal[0])


def h_iso(apm: AssociativePointModel, f, alpha: KForm) -> Vector:
    """``h(f, alpha) = f s + s x (star alpha)^sharp`` into the normal space.

    ``alpha`` is an intrinsic 2-form of the plane; the star is the plane's
    own Hodge star.  An exact isometry with ``h(1, 0) = s``.
    """
    if alpha.dim != 3 or alpha.degree != 2:
        raise ValueError("alpha must be a 2-form on the 3-plane")
    w = apm.tangent_ambient(sharp(alpha.hodge()))
    return f * apm.s + g2mod.cross_g2(apm.g2model, apm.s, w)


def h_equivariance_check(apm: AssociativePointModel) -> CheckResult:
    """``h(v . (f, alpha)) = v x h(f, alpha)`` over the full basis sweep.

    The tangent frame and ``s`` set the mode (the G2 forms are exact):
    exact ones give an exact sweep (residual 0); otherwise 8 random vectors
    and sections, drawn from seed 0, extend the sweep.
    """
    g2m = apm.g2model
    exact = is_exact(c for v in apm.tangent_frame + (apm.s,) for c in v.components)
    one = scalar(1, exact=exact)
    pairs = [(one, KForm.zero(3, 2))]
    for blade in ((1, 2), (1, 3), (2, 3)):
        pairs.append((0, KForm(3, 2, {blade: one})))
    vs = [Vector.basis(3, i, exact=exact) for i in range(1, 4)]
    rng = np.random.default_rng(0)
    # in exact mode the basis sweep is already exhaustive and exact
    for _ in range(0 if exact else 8):
        vs.append(multivec.random_vector(rng, 3))
        pairs.append((float(rng.standard_normal()), multivec.random_form(rng, 3, 2)))
    residuals = []
    hs = [h_iso(apm, f, alpha) for f, alpha in pairs]
    for v in vs:
        v_amb = apm.tangent_ambient(v)
        for (f, alpha), h in zip(pairs, hs):
            f_v, alpha_v = bev_clifford(v, f, alpha)
            lhs = h_iso(apm, f_v, alpha_v)
            rhs = g2mod.cross_g2(g2m, v_amb, h)
            residuals += (abs(x) for x in (lhs - rhs).components)
    return CheckResult.judge("h-equivariance", residuals, exact,
                             "h(v.(f,alpha)) = v x h(f,alpha)")


# -- symbol intertwinings ----------------------------------------------------------------


def _intertwine_report(name: str, lhs, rhs, trials: int, seed: int, exact: bool) -> CheckResult:
    """Compare two symbol maps ``xi -> matrix`` up to one global scalar.

    The scalar c minimizing ``|lhs - c rhs|`` (Frobenius) is fixed at the
    probe ``xi = e^1``.  The residuals are ``||c| - 1|`` (c must be a unit)
    and the largest entry of ``|lhs - c rhs|`` on the basis and ``trials``
    random covectors, all judged together in the mode of the point model
    the maps read (``exact``).
    """
    covs = _covector_set(trials, seed, exact=False)
    probe_lhs, probe_rhs = lhs(covs[0]), rhs(covs[0])
    denom = float((probe_rhs * probe_rhs).sum())
    if denom == 0:
        raise ValueError("degenerate probe: target symbol vanishes")
    ratio = float((probe_lhs * probe_rhs).sum()) / denom
    residuals = [abs(abs(ratio) - 1)]
    residuals += (float(abs(lhs(xi) - ratio * rhs(xi)).max()) for xi in covs)
    return CheckResult.judge(name, residuals, exact, f"global scalar {ratio:+.6f}")


def sl_symbol_intertwine(m: Spin7Model, trials: int = 16, seed: int = 0) -> CheckResult:
    """Identify the symbol with the special Lagrangian complex symbol.

    At the plane of real directions in C^4, under J on the normal side and
    the frozen ``(f, beta) -> -f omega/2 + (1/2) sum beta_ij (t_i x J t_j -
    t_j x J t_i)`` on the E side, the symbol corresponds to ``alpha ->
    (-xi . alpha, (xi ^ alpha + star(xi ^ alpha)) / 2)`` up to one global
    unit scalar fixed at the probe ``xi = e^1``.
    """
    if not m.phi.approx_equal(calib.sl_model_form()):
        raise ValueError("model must carry the Calabi-Yau structure form")
    exact = m.exact
    e = [Vector.basis(8, i, exact=exact) for i in range(1, 9)]
    tangent = [e[0], e[2], e[4], e[6]]
    plane = OrientedPlane(tangent)
    cpm = build_cayley_model(m, plane)
    # row i: J t_i in the deterministic normal frame (a signed permutation)
    jcoords = np.array([[calib.complex_structure(t).dot(n) for n in cpm.normal_frame]
                        for t in tangent], dtype=object)
    jmat = np.array(jcoords, dtype=float)

    half = scalar(1, 2, exact=exact)
    # t_i x J t_j has E-coordinates sigma(e^i) (J t_j)
    cols = [cpm.e_coords((-half) * calib.kaehler_form())]
    for beta in plane_sd_basis():
        cols.append(sum(half * c * (cpm.symbols[i - 1] @ jcoords[j - 1]
                                    - cpm.symbols[j - 1] @ jcoords[i - 1])
                        for (i, j), c in beta.coeffs.items()))
    B = np.array(cols, dtype=float).T

    def target_matrix(xi: KForm) -> np.ndarray:
        cols = []
        for a in range(1, 5):
            alpha = KForm(4, 1, {(a,): 1.0})
            f = -float(xi.inner(alpha))
            two = xi.wedge(alpha)
            sd_part = 0.5 * (two + two.hodge()).as_float()
            coords = [f] + [float(sd_part[blade]) for blade in ((1, 2), (1, 3), (1, 4))]
            cols.append(coords)
        return np.array(cols).T

    return _intertwine_report(
        "sl-intertwine", lambda xi: np.array(symbol_D(cpm, xi), dtype=float) @ jmat.T,
        lambda xi: B @ target_matrix(xi), trials, seed, _exact_symbols(cpm))


def coassoc_symbol_intertwine(m: Spin7Model, trials: int = 16,
                              seed: int = 0) -> CheckResult:
    """Identify the symbol with ``(alpha, beta) -> xi ^ alpha - xi . beta``.

    At the product of the circle direction with the standard coassociative
    plane, the normal bundle is matched by interior product with the
    3-form (plane ASD forms) plus the circle direction (plane volume), and
    E is matched with the tangent space through the cross product with the
    circle direction; one global unit scalar is fixed at ``xi = e^1``.
    """
    if not m.phi.approx_equal(phi0()):
        raise ValueError("model must carry the product structure form")
    exact = m.exact
    e = [Vector.basis(8, i, exact=exact) for i in range(1, 9)]
    tangent = [e[4], e[5], e[6], e[7]]
    theta = e[0]
    plane = OrientedPlane(tangent)
    cpm = build_cayley_model(m, plane)

    asd = plane_asd_basis()
    # e_(k+2) is the R^8 normal whose phi-contraction restricts to asd[k]
    amb_for_asd = [e[1], e[2], e[3]]

    nmat_cols = [np.array([float(v.dot(nf)) for nf in cpm.normal_frame])
                 for v in amb_for_asd + [theta]]
    A = np.column_stack(nmat_cols)

    l3 = blades(4, 3)
    # column k: E-coordinates of (star gamma_k)^sharp x theta; A[:, 3] holds theta
    B = np.column_stack([np.array(symbol_D(cpm, KForm(4, 3, {blade: 1}).hodge()), dtype=float)
                         @ A[:, 3] for blade in l3])
    vol4 = KForm.volume(4).as_float()

    def target_matrix(xi: KForm) -> np.ndarray:
        cols = []
        for k in range(4):
            if k < 3:
                out = xi.wedge(asd[k].as_float())
            else:
                out = -1.0 * vol4.contract(sharp(xi))
            cols.append([float(out.coeffs.get(b, 0)) for b in l3])
        return np.array(cols).T

    return _intertwine_report(
        "coassoc-intertwine", lambda xi: np.array(symbol_D(cpm, xi), dtype=float) @ A,
        lambda xi: B @ target_matrix(xi), trials, seed, _exact_symbols(cpm))
