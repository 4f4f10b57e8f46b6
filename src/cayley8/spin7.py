"""The pointwise Spin(7) structure on R^8.

The model 4-form has the 14-term normal form

    e^1234 + e^1256 - e^1278 + e^1357 + e^1368 + e^1458 - e^1467
    - e^2358 + e^2367 + e^2457 + e^2468 - e^3456 + e^3478 + e^5678

in any adapted ("Spin(7)-") frame.  The structure determines a 2-fold and
a 3-fold cross product, a vector-valued 4-form tau whose vanishing on a
4-plane characterizes calibrated (Cayley) 4-planes, and decompositions of
2- and 4-forms into irreducible pieces of dimensions (7, 21) and
(1, 7, 27, 35).

Sign conventions are pinned by the frame identity ``e4 = -e1 x e2 x e3``
together with the first-slot interior product of :mod:`cayley8.multivec`.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING, Dict, List, Tuple

from . import _linalg
from .multivec import (DEFAULT_TOL, PLANE_TOL, KForm, OrientedPlane, Vector,
                       _hodge_table, _positions, _wedge_table, blades, divide, flat,
                       is_exact, is_zero, pullback, scalar, sharp)

if TYPE_CHECKING:  # for an annotation: this module makes no numpy arrays
    import numpy as np

#: Singular-value gate of the floating nullspaces of ``L + 3`` and ``L - 1``
#: that build the two 2-form summand bases; the certificate does not read it.
EIGEN_CLUSTER_TOL = 1e-8

#: Relative gate of the certificate's floating identities: ``|R| / scale``
#: in Frobenius norms (see ``_identities``).  At 1e-12 a passing form has
#: an ``A`` within ``SINGULAR_TOL`` of rank 7 (``|(L + 3) G| / 4`` bounds
#: its eighth singular value) and eigenvalues of ``L`` well inside
#: ``EIGEN_CLUSTER_TOL``, so the bases built on first read have the
#: certified dimensions.
IDENTITY_TOL = 1e-12

#: Residual bound of every floating check judged by ``CheckResult.judge``.
CHECK_TOL = 1e-10

#: The 14 blades of the model form with their signs.
PHI0_TERMS: Dict[Tuple[int, ...], int] = {
    (1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (1, 2, 7, 8): -1,
    (1, 3, 5, 7): 1, (1, 3, 6, 8): 1, (1, 4, 5, 8): 1,
    (1, 4, 6, 7): -1, (2, 3, 5, 8): -1, (2, 3, 6, 7): 1,
    (2, 4, 5, 7): 1, (2, 4, 6, 8): 1, (3, 4, 5, 6): -1,
    (3, 4, 7, 8): 1, (5, 6, 7, 8): 1,
}

#: Expected eigenstructure of a -> star(a ^ phi) on 2-forms: eigenvalue ->
#: multiplicity, which is also the dimension of the eigenspace summand.
LAMBDA2_SPECTRUM = {-3: 7, 1: 21}

#: Expected dimensions of the 4-form summands.
LAMBDA4_DIMS = (1, 7, 27, 35)


class Spin7StructureError(ValueError):
    """A form failed the structure certificate; carries the report."""

    def __init__(self, certificate: "Spin7Certificate"):
        self.certificate = certificate
        failed = ", ".join(c.name for c in certificate.checks if not c.passed)
        super().__init__(f"not a Spin(7) structure form; failed: {failed}")


class FramePreconditionError(ValueError):
    """A frame-completion precondition is violated."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: pass flag, worst residual and detail.

    The package's only check record: the structure certificate, the
    operator checks of :mod:`cayley8.dirac` and the ``verify`` suite all
    report through it; the operator and suite checks hand all of their
    residuals to :meth:`judge`, which folds them and gives the verdict.
    """

    name: str
    passed: bool
    residual: float
    detail: str = ""

    @classmethod
    def judge(cls, name: str, residuals, exact: bool, detail: str,
              per_trial: int = 1) -> "CheckResult":
        """The one verdict rule, on the worst of all of a check's ``residuals``
        (the first largest, or a nan among them; 0.0 for none): an exact check
        passes only at worst 0, a floating one at ``CHECK_TOL`` or below; the
        record keeps a float residual.  A worst that is not finite as a float
        (nan, or beyond float range) fails, recorded as the largest float with
        the reason in its detail.  A failing check of several residuals names
        the worst one's 1-based position, and its trial at ``per_trial`` a trial."""
        at, n, residual = _worst(residuals)
        value = _as_float(residual)
        finite = math.isfinite(value)
        if finite and (residual == 0 if exact else value <= CHECK_TOL):
            return cls(name, True, value, detail)
        trial = f", trial {at // per_trial + 1}" if per_trial > 1 else ""
        parts = ["" if finite else f"residual not finite as a float ({value})", detail,
                 f"worst at residual {at + 1} of {n}{trial}" if n > 1 else ""]
        return cls(name, False, value if finite else sys.float_info.max,
                   "; ".join(filter(None, parts)))

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "detail": self.detail}


def _as_float(x) -> float:
    """``float(x)`` of a residual (never negative), or ``math.inf`` beyond float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _worst(residuals):
    """``(i, n, worst)``: the first largest of the ``n`` ``residuals``, or a nan
    among them, at 0-based index ``i``; ``(-1, n, 0.0)`` when none is above 0.0.

    ``max`` keeps an earlier value over a later nan (``max(0.0, nan)`` is
    0.0), so a fold by ``max`` would hide a nan from ``CheckResult.judge``.
    Otherwise the worst is the value itself, unconverted, so an exact
    residual stays exact and a float keeps its bits.
    """
    out, at, n = 0.0, -1, 0
    for n, x in enumerate(residuals, 1):
        if x > out or x != x:
            out, at = x, n - 1
    return at, n, out


def form_residual(a: KForm):
    """Residual of the form identity ``a == 0``: the largest coefficient size.

    Exact for exact coefficients, so that ``CheckResult.judge`` sees a
    nonzero residual below float range; 0.0 for the zero form.
    """
    return _worst(abs(c) for c in a.coeffs.values())[2]


@dataclass(frozen=True)
class Spin7Certificate:
    """Pass/fail report of the necessary structure conditions.

    The four checks (self-duality, squared norm 14, 2-form spectrum,
    4-form summand dimensions) are necessary for membership in the orbit
    of the model form; sufficiency is not claimed.
    """

    passed: bool
    checks: Tuple[CheckResult, ...]


@dataclass(frozen=True)
class Frame8:
    """An 8-tuple of vectors in R^8, candidate adapted frame."""

    vectors: Tuple[Vector, ...]

    def __post_init__(self):
        if len(self.vectors) != 8 or any(v.dim != 8 for v in self.vectors):
            raise ValueError("Frame8 needs exactly 8 vectors in R^8")

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> Vector:
        """1-based access."""
        return self.vectors[i - 1]


def phi0() -> KForm:
    """The model 4-form on R^8 (14 blades, exact coefficients +-1)."""
    return KForm(8, 4, PHI0_TERMS)


@dataclass(frozen=True)
class Spin7Model:
    """A validated structure form with cached derived operators.

    ``lambda2_op`` is the dense view of ``lambda2_rows``, the matrix of
    ``a -> star(a ^ phi)`` on the 28 lexicographic 2-blades as row lists.  ``bases`` maps
    ``(degree, dim)`` to the basis of that summand of the 2- or 4-forms:
    orthogonal coefficient rows over the lexicographic blade basis in both
    modes, exact scalars in exact mode.  Each basis is built on its first
    read; until then the map holds the function that builds it.  Every model
    of forms with the same coefficients shares the map (see :func:`certify`).
    """

    phi: KForm
    exact: bool
    lambda2_op: object = field(repr=False)
    bases: Dict[Tuple[int, int], object] = field(repr=False)
    lambda4_dims: Tuple[int, ...] = ()

    def _basis(self, degree: int, dim: int) -> list:
        rows = self.bases[degree, dim]
        if callable(rows):
            rows = self.bases[degree, dim] = rows()
        return rows

    @cached_property
    def lambda2_rows(self) -> Dict[Tuple[int, int], tuple]:
        """``L`` sparsely, built from this model's own ``phi`` (see :func:`_lambda2_rows`)."""
        return _lambda2_rows(self.phi)

    def lambda2_eigenvalues(self) -> Dict[float, int]:
        return {float(lam): len(self._basis(2, dim)) for lam, dim in LAMBDA2_SPECTRUM.items()}

    def lambda2_7_forms(self) -> List[KForm]:
        return _rows_to_forms(self._basis(2, 7), 8, 2)

    def lambda2_21_forms(self) -> List[KForm]:
        return _rows_to_forms(self._basis(2, 21), 8, 2)

    def lambda4_forms(self, which: int) -> List[KForm]:
        return _rows_to_forms(self._basis(4, which), 8, 4)


def _rows_to_forms(rows, dim: int, degree: int) -> List[KForm]:
    basis = blades(dim, degree)
    forms = []
    for row in rows:
        coeffs = {b: c for b, c in zip(basis, row) if c != 0}
        forms.append(KForm(dim, degree, coeffs))
    return forms


def _lambda2_rows(phi: KForm) -> Dict[Tuple[int, int], tuple]:
    """``L``, the map ``a -> star(a ^ phi)``, sparsely: ``l -> ((k, c), ...)``
    with ``star(e^l ^ phi) = sum c e^k``, from the kernel tables over
    ``phi``'s blades in ``KForm.wedge``'s order."""
    wedge, four = _wedge_table(8, 2, 4), _positions(8, 4)
    star = [_hodge_table(8, 6)[b] for b in blades(8, 6)]  # by position
    return {l: tuple((star[k][0], star[k][1] * (1 if positive else -1) * c)
                     for b, c in phi.coeffs.items() if wedge[l][four[b]] is not None
                     for k, positive in [wedge[l][four[b]]])
            for l in blades(8, 2)}


def _lambda2_dense(rows: Dict[Tuple[int, int], tuple]) -> List[list]:
    """The dense view of :func:`_lambda2_rows` as row lists over the lexicographic
    2-blades: entry (k, l) is the coefficient of ``e^k`` in ``star(e^l ^ phi)``."""
    cols = [dict(rows[l]) for l in blades(8, 2)]
    return [[col.get(k, 0) for col in cols] for k in blades(8, 2)]


def _shifted(op: List[list], lam) -> List[list]:
    """``op - lam`` times the identity, as row lists."""
    return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(op)]


def _product(a: List[list], b: List[list]) -> List[list]:
    """The matrix product of row lists, summed over the nonzeros of both."""
    bnz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, bnz):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(acc)
    return out


def _sq(rows: List[list]):
    """The squared Frobenius norm of row lists."""
    return sum(sum(map(operator.mul, row, row)) for row in rows)


def _identities(name: str, exact: bool, identities, passed: str) -> CheckResult:
    """One certificate check of identities ``R == 0``, each given as ``(label,
    R, scale_sq)``: ``R`` as row lists and ``scale_sq`` the product of the
    squared Frobenius norms of the factors ``R`` multiplies.

    Exact, an identity holds when every entry of ``R`` is 0.  Floating, when
    ``|R| / scale``, in Frobenius norms, is at most ``IDENTITY_TOL``, so a
    nan or inf entry fails it.  The record keeps the worst ``|R| / scale``
    (the largest float when it is not finite, as :meth:`CheckResult.judge`
    records it), and a failure names each identity that fails.
    """
    rels, failed = [], []
    for label, rows, scale_sq in identities:
        r_sq = _sq(rows)
        rel = math.sqrt(_as_float(divide(r_sq, scale_sq))) if scale_sq else (
            0.0 if r_sq == 0 else math.inf)
        if not (r_sq == 0 if exact else rel <= IDENTITY_TOL):
            failed.append(f"{label} (residual {rel:.3g})")
        rels.append(rel)
    worst = _worst(rels)[2]
    if not failed:
        return CheckResult(name, True, worst, passed)
    return CheckResult(name, False, worst if math.isfinite(worst) else sys.float_info.max,
                       "fails: " + ", ".join(failed))


def _check_lambda2_spectrum(op: List[list], exact: bool):
    """The 2-form check of ``L`` and the builders of its two summand bases.

    ``L`` is symmetric, so ``(L + 3)(L - 1) = 0`` confines its eigenvalues
    to -3 and 1, and ``tr L = 0`` then counts them: -3 seven times and 1
    21 times.  The builders take the kernels of ``L + 3`` and ``L - 1`` (in
    float mode the singular vectors at ``EIGEN_CLUSTER_TOL``) and
    orthogonalize them, on first read.
    """
    plus3, minus1 = _shifted(op, -3), _shifted(op, 1)
    check = _identities("lambda2 spectrum", exact, [
        ("(L+3)(L-1) = 0", _product(plus3, minus1), _sq(plus3) * _sq(minus1)),
        ("tr L = 0", [[sum(row[i] for i, row in enumerate(op))]], len(op) * _sq(op))],
        "eigenvalues (-3 x7, +1 x21)")
    return check, {(2, dim): partial(_summand_kernel, op, lam)
                   for lam, dim in LAMBDA2_SPECTRUM.items()}


def _summand_kernel(op: List[list], lam) -> list:
    """Orthogonal basis of the kernel of ``op - lam``."""
    return _linalg.orthogonalize(_linalg.nullspace(_shifted(op, lam), EIGEN_CLUSTER_TOL))


def _lambda4_7_generators(phi: KForm) -> List[KForm]:
    """Spanning set ``w_flat ^ (v . phi) - v_flat ^ (w . phi)`` over the 28 basis pairs."""
    exact = is_exact(phi.coeffs.values())
    e = [Vector.basis(8, i, exact=exact) for i in range(1, 9)]
    flats, contracted = [flat(v) for v in e], [phi.contract(v) for v in e]
    return [flats[j].wedge(contracted[i]) - flats[i].wedge(contracted[j])
            for i in range(8) for j in range(i + 1, 8)]


@lru_cache(maxsize=1)
def _self_dual_pairs() -> Tuple[Tuple[int, int, int], ...]:
    """The 35 pairs ``(i, j, sign)`` with ``star(e^b_i) = sign e^b_j``, i < j.

    Indices run over the lexicographic 4-blades; each self-dual row is
    ``e_i + sign e_j`` and each anti-self-dual row ``e_i - sign e_j``.
    """
    basis4 = blades(8, 4)
    index = {b: i for i, b in enumerate(basis4)}
    pairs = []
    for i, b in enumerate(basis4):
        [(comp, sign)] = KForm(8, 4, {b: 1}).hodge().coeffs.items()
        if i < index[comp]:
            pairs.append((i, index[comp], sign))
    return tuple(pairs)


def _anti_self_dual_rows(pairs, exact: bool) -> list:
    """Coefficient rows ``e_i - sign e_j`` over the 70 4-blades (orthogonal)."""
    one, zero = scalar(1, exact=exact), scalar(0, exact=exact)
    rows = []
    for i, j, sign in pairs:
        row = [zero] * 70
        row[i], row[j] = one, -sign * one
        rows.append(row)
    return rows


def _lift_self_dual(pairs, constraints) -> List[list]:
    """Orthogonal basis of the self-dual forms orthogonal to every constraint row."""
    # <con, e_i + sign e_j> reads the two nonzeros of each self-dual row
    coords = _linalg.nullspace([[con[i] + sign * con[j] for i, j, sign in pairs]
                                for con in constraints])
    lifted = []
    for vec in coords:
        row = [0] * 70
        for x, (i, j, sign) in zip(vec, pairs):
            row[i], row[j] = x, sign * x
        lifted.append(row)
    return _linalg.orthogonalize(lifted)


def _check_lambda4(phi: KForm, op: List[list], exact: bool):
    """The 4-form check and the builders of the four summand bases.

    ``G`` holds the 28 generators ``A(e_i ^ e_j)`` of
    :func:`_lambda4_7_generators` as rows over the 70 4-blades, and ``c =
    tr(G G^T) / 7``.  ``(L + 3) G = 0`` puts the image of ``A`` in the
    7-dimensional 2-form summand, and ``G G^T = c (1 - L) / 4`` with ``c > 0``
    makes its rank 7: the 7-summand of the 4-forms.  Each generator being
    self-dual and orthogonal to phi leaves the 27 self-dual forms
    orthogonal to phi and to the 7-summand; the anti-self-dual 35 need no
    check.  The builders make the four orthogonal bases on first read.
    """
    basis4 = blades(8, 4)
    phi_row = [phi.coeffs.get(b, 0) for b in basis4]
    gen_rows = [[g.coeffs.get(b, 0) for b in basis4] for g in _lambda4_7_generators(phi)]
    gram = _product(gen_rows, [list(col) for col in zip(*gen_rows)])
    trace = sum(gram[i][i] for i in range(len(gram)))  # also |G|^2
    plus3 = _shifted(op, -3)
    pairs = _self_dual_pairs()
    check = _identities("lambda4 dims", exact, [
        ("(L+3)G = 0", _product(plus3, gen_rows), _sq(plus3) * trace),
        ("28 GG^T = tr(GG^T)(1 - L)",
         [[28 * x + trace * y for x, y in zip(grow, lrow)]
          for grow, lrow in zip(gram, _shifted(op, 1))], (28 * trace) ** 2),
        ("generators self-dual",
         [[g[j] - sign * g[i] for i, j, sign in pairs] for g in gen_rows], trace),
        ("generators orthogonal to phi",
         [[sum(map(operator.mul, g, phi_row))] for g in gen_rows], trace * _sq([phi_row]))],
        "summand dims (1, 7, 27, 35)")
    if not trace > 0:  # then G = 0 and every identity holds
        check = CheckResult(check.name, False, 1.0, "the generators vanish: tr(GG^T) = 0")
    return check, {(4, 1): lambda: [phi_row],
                   (4, 7): partial(_linalg.orthogonalize, gen_rows),
                   (4, 27): partial(_lift_self_dual, pairs, [phi_row] + gen_rows),
                   (4, 35): partial(_anti_self_dual_rows, pairs, exact)}


#: Structure forms whose certificate and model ingredients ``certify`` keeps.
CERTIFY_CACHE_SIZE = 16


def certify(phi: KForm):
    """Run the structure checks; returns (certificate, model ingredients).

    The one entry point of the certificate: results are cached per
    ``(dim, degree, sorted coefficients)``, so a form is certified
    once per process however many forms with its coefficients are checked
    or built.  Exactness is part of the key, because ``1 == 1.0`` hashes
    alike, and the checks run on the form rebuilt from the sorted
    coefficients, so a result depends on the key alone.  The ingredients
    are ``None`` when the certificate fails.
    """
    items = tuple(sorted(phi.coeffs.items()))
    return _certify(phi.dim, phi.degree, items, is_exact(phi.coeffs.values()))


@lru_cache(maxsize=CERTIFY_CACHE_SIZE)
def _certify(dim: int, degree: int, items: tuple, exact: bool):
    checks: List[CheckResult] = []
    if dim != 8 or degree != 4:
        checks.append(CheckResult("shape", False, 1.0, "need a degree-4 form on R^8"))
        return Spin7Certificate(False, tuple(checks)), None
    phi = KForm(dim, degree, dict(items))

    sd_diff = phi.hodge() - phi
    sd_ok = sd_diff.is_zero(DEFAULT_TOL)
    checks.append(CheckResult("self-dual", sd_ok, _as_float(form_residual(sd_diff)),
                              "star(phi) == phi" if sd_ok else "star(phi) != phi"))
    nrm = phi.norm_sq()
    nrm_ok = is_zero(nrm - 14, 100 * DEFAULT_TOL)
    checks.append(CheckResult("norm", nrm_ok, _as_float(abs(nrm - 14)), f"<phi, phi> = {nrm}"))

    op = _lambda2_dense(_lambda2_rows(phi))
    spectrum, bases = _check_lambda2_spectrum(op, exact)
    lambda4, l4_bases = _check_lambda4(phi, op, exact)
    checks += [spectrum, lambda4]

    passed = all(c.passed for c in checks)
    cert = Spin7Certificate(passed, tuple(checks))
    if not passed:
        return cert, None
    return cert, (exact, op, {**bases, **l4_bases})


def is_spin7_form(phi: KForm) -> Spin7Certificate:
    """Certificate of the necessary structure conditions (never raises)."""
    cert, _ = certify(phi)
    return cert


def build_model(phi: KForm) -> Spin7Model:
    """Validate ``phi`` and wrap its derived operators.

    Raises :class:`Spin7StructureError` carrying the certificate when the
    eigenstructure does not match the (7, 21) / (1, 7, 27, 35) pattern.
    Models of forms with the same coefficients share the operators and
    bases that :func:`certify` cached.
    """
    cert, ingredients = certify(phi)
    if ingredients is None:
        raise Spin7StructureError(cert)
    exact, op, bases = ingredients
    return Spin7Model(phi=phi, exact=exact, lambda2_op=op, bases=bases,
                      lambda4_dims=LAMBDA4_DIMS)


def standard_model(exact: bool = True) -> Spin7Model:
    """The model of the 14-term normal form (certified once, see certify),
    built from ``phi0().as_float()`` when ``exact`` is false."""
    phi = phi0()
    return build_model(phi if exact else phi.as_float())


def unchecked_model(phi: KForm) -> Spin7Model:
    """Wrap a 4-form on R^8 without certifying it (for diagnostics and mutation tests).

    Only the operations that read ``phi`` directly (cross products, tau,
    projections; ``lambda2_rows`` too) are usable; the basis map is empty.
    """
    return Spin7Model(phi=phi, exact=is_exact(phi.coeffs.values()), lambda2_op=None,
                      bases={})


# -- projections and cross products ---------------------------------------------


def _minus_l(m: Spin7Model, a: KForm) -> KForm:
    """``a - L a``; ``L a`` is summed in full before the subtraction, so
    every float equals that of ``a - star(a ^ phi)`` bit for bit.  Callers
    divide the result, or a residual built from it, once."""
    la = {}
    for l, cl in a.coeffs.items():
        # a blade of another degree has no row: then the subtraction raises
        for k, c in m.lambda2_rows.get(l, ()):
            la[k] = la.get(k, 0) + c * cl
    return a - KForm._trusted(8, 2, la)


def proj2_7(m: Spin7Model, a: KForm) -> KForm:
    """Projection of a 2-form onto the 7-dimensional summand."""
    return _minus_l(m, a) / 4


def proj2_21(m: Spin7Model, a: KForm) -> KForm:
    """Projection of a 2-form onto the 21-dimensional summand."""
    return a - proj2_7(m, a)


def cross2(m: Spin7Model, v: Vector, w: Vector) -> KForm:
    """2-fold cross product, a 2-form in the 7-dimensional summand.

    ``v x w = (v_flat ^ w_flat - star(v_flat ^ w_flat ^ phi)) / 2``;
    satisfies ``|v x w| = |v ^ w|``.
    """
    return _doubled_cross2(m, v, w) / 2


def _doubled_cross2(m: Spin7Model, v: Vector, w: Vector) -> KForm:
    """``2 (v x w)``, the 2-fold product before its halving."""
    return _minus_l(m, flat(v).wedge(flat(w)))


def cross3(m: Spin7Model, u: Vector, v: Vector, w: Vector) -> Vector:
    """3-fold cross product ``(u . (v . (w . phi)))^sharp``.

    Alternating, with ``|u x v x w| = |u ^ v ^ w|`` and
    ``e1 x e2 x e3 = -e4`` on the standard frame.
    """
    return sharp(m.phi.contract(w).contract(v).contract(u))


def tau(m: Spin7Model, a: Vector, b: Vector, c: Vector, d: Vector) -> KForm:
    """The 4-fold cross product, valued in the 7-dimensional 2-form summand.

    ``tau(a,b,c,d) = -a x (b x c x d) + g(a,b) c x d + g(a,c) d x b
    + g(a,d) b x c``, where the first product pairs the vector ``a`` with
    the vector value ``b x c x d`` through the 2-fold cross product (the
    only typing under which the expression closes).  Vanishing of tau on
    a 4-plane characterizes Cayley planes.  The four terms are summed
    before the halving that each 2-fold product carries, so an exact tau
    is divided once; halving scales a float exactly outside the subnormal
    range, where the floats are those of the sum of the four products.
    """
    result = -1 * _doubled_cross2(m, a, cross3(m, b, c, d))
    gab, gac, gad = a.dot(b), a.dot(c), a.dot(d)
    if gab != 0:
        result = result + gab * _doubled_cross2(m, c, d)
    if gac != 0:
        result = result + gac * _doubled_cross2(m, d, b)
    if gad != 0:
        result = result + gad * _doubled_cross2(m, b, c)
    return result / 2


# -- frames -----------------------------------------------------------------------


def is_spin7_frame(m: Spin7Model, frame: Frame8):
    """True iff phi pulls back through the frame to the normal form within ``PLANE_TOL``.

    Returns (verdict, report) where the report carries the largest
    coefficient deviation.
    """
    diff = pullback(m.phi, frame.vectors) - phi0()
    dev = max((abs(c) for c in diff.coeffs.values()), default=0)
    ok = is_zero(dev, PLANE_TOL)
    return ok, {"max_deviation": dev, "ok": ok}


def complete_frame(m: Spin7Model, e1: Vector, e2: Vector, e3: Vector,
                   e5: Vector) -> Frame8:
    """Complete an admissible quadruple to an adapted frame.

    Preconditions: ``e1, e2, e3`` orthonormal, ``e5`` a unit vector
    orthogonal to them and to ``e1 x e2 x e3``.  The remaining vectors
    are ``e4 = -e1 x e2 x e3``, ``e6 = -e1 x e2 x e5``,
    ``e7 = -e1 x e3 x e5``, ``e8 = e2 x e3 x e5``.
    """
    named = {"e1": e1, "e2": e2, "e3": e3, "e5": e5}
    for name, v in named.items():
        if not is_zero(v.norm_sq() - 1, PLANE_TOL):
            raise FramePreconditionError(f"{name} is not a unit vector")
    pairs = [("e1", "e2"), ("e1", "e3"), ("e2", "e3"),
             ("e1", "e5"), ("e2", "e5"), ("e3", "e5")]
    for na, nb in pairs:
        if not is_zero(named[na].dot(named[nb]), PLANE_TOL):
            raise FramePreconditionError(f"{na} is not orthogonal to {nb}")
    c123 = cross3(m, e1, e2, e3)
    if not is_zero(e5.dot(c123), PLANE_TOL):
        raise FramePreconditionError("e5 is not orthogonal to e1 x e2 x e3")
    e4 = -c123
    e6 = -cross3(m, e1, e2, e5)
    e7 = -cross3(m, e1, e3, e5)
    e8 = cross3(m, e2, e3, e5)
    frame = Frame8((e1, e2, e3, e4, e5, e6, e7, e8))
    ok, report = is_spin7_frame(m, frame)
    if not ok:
        raise FramePreconditionError(
            f"completion failed the frame check (max deviation {report['max_deviation']})")
    return frame


def random_spin7_frame(m: Spin7Model, rng: np.random.Generator) -> Frame8:
    """A random adapted frame: the completion of a random admissible quadruple.

    Draws four standard normal vectors in R^8: ``e1, e2, e3`` are the
    orthonormal basis of the first three, and ``e5`` is the fourth one
    orthonormalized against ``e1, e2, e3, e1 x e2 x e3``, both by
    :class:`~cayley8.multivec.OrientedPlane`.  A Gaussian quadruple is
    admissible with probability one, so there is no retry: a degenerate
    draw raises ``DegeneratePlaneError`` and a failed completion
    :class:`FramePreconditionError`.
    """
    raw = [Vector(float(x) for x in rng.standard_normal(8)) for _ in range(4)]
    e1, e2, e3 = OrientedPlane(raw[:3]).orthonormal_basis
    e5 = OrientedPlane([e1, e2, e3, cross3(m, e1, e2, e3), raw[3]]).orthonormal_basis[4]
    return complete_frame(m, e1, e2, e3, e5)


def infinitesimal_action(phi: KForm, generator: KForm) -> KForm:
    """Derivative of the rotation pullback of ``phi`` along a 2-form generator.

    The generator corresponds to the skew map ``B`` with ``B_ij = beta(e_i,
    e_j)``; the result is ``sum_slots phi(..., B v, ...)``, which equals
    ``sum_k e^k ^ ((B e_k) . phi)``.  It vanishes exactly when the
    generator lies in the 21-dimensional summand (the stabilizer algebra).
    """
    if generator.degree != 2 or generator.dim != phi.dim:
        raise ValueError("generator must be a 2-form on the same space")
    n = phi.dim
    exact = is_exact(phi.coeffs.values()) and is_exact(generator.coeffs.values())
    result = KForm.zero(n, phi.degree)
    if phi.degree == 0:
        return result  # a constant is rotation invariant (and has no contraction)
    B = [[0] * n for _ in range(n)]
    for (i, k), c in generator.coeffs.items():
        B[i - 1][k - 1], B[k - 1][i - 1] = c, -c
    for k in range(1, n + 1):
        column = Vector(row[k - 1] for row in B)  # B e_k
        result = result + flat(Vector.basis(n, k, exact=exact)).wedge(
            phi.contract(column))
    return result
