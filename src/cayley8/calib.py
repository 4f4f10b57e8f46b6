"""Calibration evaluation, Cayley testing, and comass estimation.

The comass of a degree-p form is its maximum over oriented p-planes.  It
is estimated by random restarts of Riemannian gradient ascent on the
orthonormal-frame (Stiefel) manifold: project the Euclidean gradient onto
the tangent space, take a backtracking line-search step, re-orthonormalize
by QR.  All restarts advance together as one stack of frames.  Runs are
deterministic for a fixed seed.

Also hosts the standard Calabi-Yau data on C^4 = R^8 in interleaved
coordinates (x1, y1, ..., x4, y4): the Kaehler 2-form, the holomorphic
volume form, and the complex structure J, normalized so that
``omega^4 = 3/2 Omega ^ conj(Omega)``.

numpy is imported inside the functions that make arrays, as in
``multivec`` and ``_linalg`` (``spin7`` makes none), so importing this
module, and a cold ``cayley8 plane``, loads no numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Tuple

from .multivec import (PLANE_TOL, KForm, OrientedPlane, Vector, blades, divide,
                       is_zero, pullback_to_plane, restrict)
from .index import read_field
from .spin7 import Spin7Model, phi0, tau
from . import g2 as g2mod

if TYPE_CHECKING:  # numpy is imported where arrays are made
    import numpy as np

#: Gate on |tau| below which a 4-plane counts as Cayley: the gate of
#: ``cayley_test`` and of ``dirac.build_cayley_model``.
TAU_TOL = 1e-9

#: Default comass optimizer tolerance, and the tolerance on the Cayley
#: identity value^2 + |tau|^2 = 1 that ties the two Cayley criteria.
COMASS_TOL = 1e-6
AGREEMENT_TOL = 1e-6

#: Iteration cap of one comass restart.
COMASS_MAX_ITER = 500

#: Margin by which a later restart must beat the best value so far to
#: replace it, so near ties keep the earliest restart.
COMASS_TIE_MARGIN = 1e-15

BUILTIN_FORMS = ("spin7", "wirtinger2", "re-omega", "g2-assoc", "g2-coassoc")


@dataclass(frozen=True)
class CalibrationForm:
    """A candidate calibration: a form with a label (pointwise data only)."""

    form: KForm
    name: str = "custom"

    @property
    def dim(self) -> int:
        return self.form.dim

    @property
    def degree(self) -> int:
        return self.form.degree


# -- standard C^4 data (exact) -----------------------------------------------------


def kaehler_form() -> KForm:
    """omega = sum_i dx_i ^ dy_i in interleaved coordinates."""
    return KForm(8, 2, {(2 * i - 1, 2 * i): 1 for i in range(1, 5)})


def _omega_parts() -> Tuple[KForm, KForm]:
    """(Re, Im) of (dx1 + i dy1) ^ ... ^ (dx4 + i dy4)."""
    re: dict = {}
    im: dict = {}
    for ys in itertools.chain.from_iterable(
            itertools.combinations(range(1, 5), k) for k in range(5)):
        blade = tuple(2 * i if i in ys else 2 * i - 1 for i in range(1, 5))
        k = len(ys) % 4
        if k == 0:
            re[blade] = 1
        elif k == 1:
            im[blade] = 1
        elif k == 2:
            re[blade] = -1
        else:
            im[blade] = -1
    return KForm(8, 4, re), KForm(8, 4, im)


def re_omega() -> KForm:
    return _omega_parts()[0]


def im_omega() -> KForm:
    return _omega_parts()[1]


def complex_structure(v: Vector) -> Vector:
    """J in interleaved coordinates: dx_i -> dy_i, dy_i -> -dx_i."""
    if v.dim != 8:
        raise ValueError("J acts on R^8")
    out = []
    for i in range(1, 5):
        x, y = v[2 * i - 1], v[2 * i]
        out.extend((-y, x))
    return Vector(out)


def sl_model_form() -> KForm:
    """The structure form of a Calabi-Yau 4-fold: -omega^2/2 + Re(Omega)."""
    om = kaehler_form()
    return -(om.wedge(om) / 2) + re_omega()


def coassoc_model_form() -> KForm:
    """dtheta ^ phi + psi built from the R^7 slice data (equals the model form)."""
    g2m = g2mod.build_g2()
    return KForm.monomial(8, 1).wedge(g2mod.raise_index_form(g2m.phi3)) \
        + g2mod.raise_index_form(g2m.psi4)


def builtin_form(name: str, exact: bool = True) -> CalibrationForm:
    """Look up a named calibration, built exact and converted with ``as_float``
    when ``exact`` is false; raises ValueError for unknown names."""
    if name == "spin7":
        form = phi0()
    elif name == "wirtinger2":
        om = kaehler_form()
        form = om.wedge(om) / 2
    elif name == "re-omega":
        form = re_omega()
    elif name == "g2-assoc":
        form = g2mod.build_g2().phi3
    elif name == "g2-coassoc":
        form = g2mod.build_g2().psi4
    else:
        raise ValueError(f"unknown builtin form {name!r}; known: {BUILTIN_FORMS}")
    return CalibrationForm(form if exact else form.as_float(), name)


# -- pointwise tests ----------------------------------------------------------------


def calibration_value(c: CalibrationForm, plane: OrientedPlane):
    """The scalar lambda with ``form|_V = lambda vol_V``."""
    return restrict(c.form, plane)


@dataclass(frozen=True)
class CayleyVerdict:
    verdict: str  # "cayley+", "cayley-", "not-cayley"
    tau_norm: float
    value: float
    criteria_agree: bool

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "tau_norm": self.tau_norm,
                "value": self.value, "criteria_agree": self.criteria_agree}


def cayley_test(m: Spin7Model, plane: OrientedPlane) -> CayleyVerdict:
    """Classify a 4-plane by tau-vanishing, with the calibration value as sign.

    The two criteria are tied by the Cayley identity ``value^2 + |tau|^2
    = 1`` on unit 4-planes (Harvey-Lawson 1982); the agreement flag
    checks it within ``AGREEMENT_TOL``.  The verdict gates |tau| at
    ``TAU_TOL``.  Gating |tau| and ||value| - 1| separately would not do:
    near a Cayley plane |tau| is first order in the distance and
    ||value| - 1| second order, so the two gates part.
    """
    if plane.degree != 4 or plane.dim != 8:
        raise ValueError("cayley test expects a 4-plane in R^8")
    onb = plane.orthonormal_basis
    t = tau(m, *onb)
    tnorm = t.norm()
    value = m.phi.evaluate(*onb)
    verdict = "not-cayley"
    if is_zero(tnorm, TAU_TOL):
        verdict = "cayley+" if value > 0 else "cayley-"
    agree = bool(is_zero(value * value + t.norm_sq() - 1, AGREEMENT_TOL))
    return CayleyVerdict(verdict=verdict, tau_norm=float(tnorm),
                         value=float(value), criteria_agree=agree)


def sl_test(plane: OrientedPlane) -> bool:
    """Special Lagrangian: omega and Im(Omega) both restrict to zero (within ``PLANE_TOL``)."""
    if plane.degree != 4 or plane.dim != 8:
        raise ValueError("special Lagrangian test expects a 4-plane in R^8")
    if not pullback_to_plane(kaehler_form(), plane).is_zero(PLANE_TOL):
        return False
    return is_zero(restrict(im_omega(), plane), PLANE_TOL)


def complex_test(plane: OrientedPlane) -> bool:
    """True iff the 4-plane is invariant under the complex structure J
    (``OrientedPlane.contains`` of each ``J u``)."""
    if plane.degree != 4 or plane.dim != 8:
        raise ValueError("complex test expects a 4-plane in R^8")
    return all(plane.contains(complex_structure(u)) for u in plane.orthonormal_basis)


# -- batched Cayley sweep (floating) -------------------------------------------------


class CayleySweep:
    """Vectorized tau-norm and calibration value over batches of 4-planes.

    Every product is a matrix product over outer products of frame vectors
    (``x outer y`` flattened to 64 entries): the 64x64 reshape of the dense
    4-form gives the triple cross product ``p = phi(d, c, b, .)``, and the
    64x28 matrix ``TAU64`` takes ``x outer y`` to the 2-fold cross product
    ``2 pi7(x ^ y)``, so tau is one matrix product.  The calibration value
    is ``<p, a> = phi(d, c, b, a) = phi(a, b, c, d)``: reversing four slots
    is an even permutation.  Agrees with the sparse path to machine
    precision.
    """

    #: Planes per block; bounds the (block, 64) temporaries.
    BLOCK = 1024

    def __init__(self, model: Spin7Model):
        import numpy as np
        self.p7 = 0.25 * (np.eye(28) - np.array(model.lambda2_op, dtype=float))
        self.T4 = model.phi.to_dense()
        self.T64 = self.T4.reshape(64, 64)
        # column k: the 2-blade e^k as a dense 8x8 tensor, so x outer y -> x ^ y
        wedge64 = np.stack([KForm(8, 2, {b: 1.0}).to_dense().reshape(64)
                            for b in blades(8, 2)], axis=1)
        self.TAU64 = wedge64 @ (2.0 * self.p7.T)

    def _block(self, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np
        a, b, c, d = (frames[:, k, :] for k in range(4))
        # (b . (c . (d . phi)))^sharp = phi(d, c, b, .), from d outer c
        dc = (d[:, :, None] * c[:, None, :]).reshape(len(d), 64)
        p = (b[:, None, :] @ (dc @ self.T64).reshape(-1, 8, 8))[:, 0]
        values = np.einsum('Ni,Ni->N', p, a)
        gab, gac, gad = (np.einsum('Ni,Ni->N', a, x)[:, None] for x in (b, c, d))
        # -a outer p + gab c outer d + gac d outer b + gad b outer c, one matmul
        x = np.stack([-a, gab * c, gac * d, gad * b], axis=2)
        y = np.stack([p, d, b, c], axis=1)
        combo64 = (x @ y).reshape(-1, 64)
        return np.linalg.norm(combo64 @ self.TAU64, axis=1), values

    def __call__(self, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """frames: (N, 4, 8) orthonormal rows; returns (tau_norms, values)."""
        import numpy as np
        tau_norms = np.empty(len(frames))
        values = np.empty(len(frames))
        for lo in range(0, len(frames), self.BLOCK):
            hi = lo + self.BLOCK
            tau_norms[lo:hi], values[lo:hi] = self._block(frames[lo:hi])
        return tau_norms, values


def random_orthonormal_frames(rng: np.random.Generator, count: int,
                              degree: int, dim: int) -> np.ndarray:
    """(count, degree, dim) stacks of orthonormalized Gaussian frames."""
    return _retract(rng.standard_normal((count, dim, degree)).swapaxes(1, 2))


# -- comass optimization ---------------------------------------------------------------


@dataclass
class ComassResult:
    value: float
    plane: OrientedPlane
    restarts: int
    best_restart: int
    iterations: int
    converged: bool
    warning: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax": [[c for c in u.components] for u in self.plane.orthonormal_basis],
            "restarts": self.restarts,
            "best_restart": self.best_restart,
            "iterations": self.iterations,
            "converged": self.converged,
            "warning": self.warning,
        }


def _dense_value(T: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Values of a dense p-tensor on a stack of frames, and the trailing chain.

    X: (R, p, n).  ``tails[r]`` for r = p-1, ..., 1 is T contracted with
    rows p-1, ..., r of each frame: one stacked matmul of ``tails[r + 1]``,
    reshaped to (n^r, n) per frame, against row r; ``tails[p]`` is T
    itself, flattened and shared by all frames.  ``tails[1]`` is the
    gradient of row 0 and gives the value.  For p > 2, ``tails[p - 1]`` is
    then contracted with row 0 as well, the first leading step of row
    p-2's gradient, so no entry kept beyond T has more than n^(p-2)
    entries per frame.  Returns (value, grad, tails) with only row 0 of
    ``grad`` filled: a line-search probe needs no more, and
    ``_complete_grad`` fills the other rows from ``tails``.
    """
    import numpy as np
    _, p, n = X.shape
    tails = {p: T.reshape(-1)}
    for r in range(p - 1, 0, -1):
        out = tails[r + 1]
        tails[r] = (out.reshape(*out.shape[:-1], -1, n) @ X[:, r, :, None])[..., 0]
    if p > 2:
        tails[p - 1] = (X[:, 0, None, :] @ tails[p - 1].reshape(len(X), n, -1))[..., 0, :]
    grad = np.empty_like(X)
    grad[:, 0] = tails[1]
    # the dot reads row 0 back from grad, whose strides follow X's layout
    value = (X[:, 0, None, :] @ grad[:, 0, :, None])[:, 0, 0]
    return value, grad, tails


def _complete_grad(X: np.ndarray, grad: np.ndarray, tails: dict) -> None:
    """Fill rows 1..p-1 of ``grad`` in place: ``tails[m + 1]``, then leading rows.

    Row p-2 starts at leading row 1: ``_dense_value`` applied row 0.
    Consumes ``tails``: each entry is dropped once its row starts.
    """
    _, p, n = X.shape
    for m in range(1, p):
        out = tails.pop(m + 1)
        for r in range(1 if m == p - 2 else 0, m):
            out = (X[:, r, None, :] @ out.reshape(*out.shape[:-1], n, -1))[..., 0, :]
        grad[:, m] = out


def _dense_value_grad(T: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and Euclidean gradients of a dense p-tensor on a stack of frames.

    X: (R, p, n).  ``grad[:, m]`` contracts T with every row but row m,
    trailing rows first, then leading rows; each contraction is one stacked
    matmul of the tensor reshaped to a matrix against one row per frame.
    The trailing contractions are shared: ``_dense_value`` computes T with
    rows p-1, ..., r once for each r, which is row 0's gradient at r = 1,
    and row m starts from the chain's entry m + 1.  For p = 4 that is 9
    matmuls per frame, 2 of them on the full tensor.
    Stacked matmul makes one BLAS call per frame, so a restart's values do
    not depend on which other restarts share the stack, and the lowest-index
    tie-break of ``comass_estimate`` sees the same values in any batch.
    """
    value, grad, tails = _dense_value(T, X)
    _complete_grad(X, grad, tails)
    return value, grad


def _retract(X: np.ndarray) -> np.ndarray:
    """Re-orthonormalize the rows of each frame (QR with positive diagonal).

    The sign fix makes a frame depend continuously on its input.
    """
    import numpy as np
    q, r = np.linalg.qr(np.swapaxes(X, -1, -2))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return np.swapaxes(q * signs[..., None, :], -1, -2)


def _ascend(T: np.ndarray, X: np.ndarray, tol: float):
    """Projected gradient ascent with backtracking over a stack of frames.

    X: (R, p, n), one start per restart.  Returns (X, values, iterations,
    converged), one entry per restart.  Each restart keeps its own step
    size and leaves the active set once its gradient norm drops below
    ``tol`` (converged), its line search exhausts 40 step halvings or it
    reaches ``COMASS_MAX_ITER`` iterations (not converged); only restarts
    still searching take another halving.
    The sufficient-increase constant 1/2 rejects overshooting full steps,
    so halving lands near the quadratic-model optimum and the ascent
    converges linearly instead of crawling.
    A line-search probe needs only its value, from the trailing contraction
    chain of ``_dense_value``; the other gradient rows are completed from
    that chain for accepted probes alone.  Every restart's arithmetic
    depends on its own frame only, so ascending the first k frames of a
    stack returns the first k rows of the full run, bit for bit.
    """
    import numpy as np
    X = X.copy(order="K")  # keeps the frame layout of _start_frames
    value, grad = _dense_value_grad(T, X)
    neg = value < 0
    if neg.any():
        X[neg, 0] = -X[neg, 0]
        # a flipped start is evaluated from a row-major copy, as the
        # per-restart reference ascent in tests/test_calib_batched.py does
        value[neg], grad[neg] = _dense_value_grad(T, np.ascontiguousarray(X[neg]))
    R, p, _ = X.shape
    step = np.ones(R)
    iters = np.full(R, COMASS_MAX_ITER)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    for it in range(COMASS_MAX_ITER):
        Xa, ga = X[active], grad[active]
        sym = Xa @ np.swapaxes(ga, -1, -2)
        riem = ga - 0.5 * (sym + np.swapaxes(sym, -1, -2)) @ Xa
        # Frobenius norms as one dot product per frame, like np.linalg.norm
        flat = riem.reshape(len(active), 1, -1)
        gnorm = np.sqrt((flat @ np.swapaxes(flat, -1, -2))[:, 0, 0])
        done = gnorm < tol
        converged[active[done]] = True
        iters[active[done]] = it
        active, riem, gnorm = active[~done], riem[~done], gnorm[~done]
        t = step[active]
        search = np.arange(len(active))
        for _ in range(40):
            if not len(search):
                break
            idx = active[search]
            ts, gs = t[search], gnorm[search]
            Xn = _retract(X[idx] + ts[:, None, None] * riem[search])
            vn, gn, tails = _dense_value(T, Xn)
            ok = vn > value[idx] + 0.5 * ts * gs * gs
            if ok.any():
                won, Xok, gok = idx[ok], Xn[ok], gn[ok]
                tails = {r: tail if r == p else tail[ok]
                         for r, tail in tails.items() if r > 1}
                _complete_grad(Xok, gok, tails)
                X[won], value[won], grad[won] = Xok, vn[ok], gok
                step[won] = np.minimum(2.0 * ts[ok], 1.0)
            del tails  # else a rejected probe's chain outlives the next retraction
            search = search[~ok]
            t[search] *= 0.5
        iters[active[search]] = it + 1
        active = np.delete(active, search)
        if not len(active):
            break
    return X, value, iters, converged


#: The constants of numpy's ``SeedSequence``: its pool size in 32-bit words,
#: the entropy hash (``INIT_A``/``MULT_A``), the output hash and the pool mix.
_SEED_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of ``entropy``.

    ``entropy``: (rows, width) uint32.  A line-for-line port of numpy's
    ``SeedSequence.mix_entropy`` and ``generate_state`` (``bit_generator.pyx``)
    on uint32 columns: the hash constant depends on the step alone, so every
    row shares it.  Returns (rows, 4) uint64.
    """
    import numpy as np
    rows, width = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(rows, dtype=np.uint32)
    with np.errstate(over="ignore"):
        mixer = [hashmix(entropy[:, i] if i < width else zero) for i in range(_SEED_POOL)]
        for i_src in range(_SEED_POOL):
            for i_dst in range(_SEED_POOL):
                if i_src != i_dst:
                    mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
        for i_src in range(_SEED_POOL, width):
            for i_dst in range(_SEED_POOL):
                mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[:, i_src]))
        hash_const = _INIT_B
        state = np.zeros((rows, 8), dtype=np.uint32)  # 4 uint64 words are 8 uint32 ones
        for i_dst in range(8):
            data_val = mixer[i_dst % _SEED_POOL] ^ hash_const
            hash_const = hash_const * _MULT_B & 0xFFFFFFFF
            data_val = data_val * hash_const
            state[:, i_dst] = data_val ^ (data_val >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words:
    """The seed words of one bit generator, computed beforehand by ``_seed_words``.

    A ``numpy.random.bit_generator.ISeedSequence``: ``_start_frames``
    registers it as one, so that importing this module does not import
    ``numpy.random``.  ``PCG64(words)`` asks it for ``generate_state(4,
    np.uint64)`` and seeds itself from the answer, as it does from a
    ``SeedSequence``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype):
        return self.words


def _start_frames(seed: int, restarts: int, p: int, n: int) -> np.ndarray:
    """(restarts, p, n) random starts, restart i drawn from substream [seed, i].

    Each restart draws its own (n, p) Gaussian, exactly as
    ``random_orthonormal_frames(default_rng([seed, i]), 1, p, n)`` does;
    one stacked ``_retract`` then orthonormalizes all of them.  Each frame
    is stored column-major, the layout ``random_orthonormal_frames`` and
    ``_retract`` give a single frame.  BLAS may sum a contraction in an
    order that depends on the stride of a frame row, so with this layout a
    restart reaches bit for bit the values it reaches when ascended alone.
    Substream i is seeded from the uint32 words ``SeedSequence`` reduces
    the list ``[seed, i]`` to: the little-endian 32-bit words of ``seed``
    (at least one), then i.  ``_seed_words`` hashes every restart's words
    in one batch, and each restart's ``PCG64`` takes its seed words from
    that batch, so the draws are those of ``default_rng([seed, i])``
    without a ``SeedSequence`` per restart.
    """
    import numpy as np
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = max(1, -(-seed.bit_length() // 32))
    entropy = np.empty((restarts, words + 1), dtype=np.uint32)
    entropy[:, :words] = np.frombuffer(seed.to_bytes(4 * words, "little"), dtype="<u4")
    entropy[:, words] = np.arange(restarts)
    np.random.bit_generator.ISeedSequence.register(_Words)
    raw = np.stack([np.random.Generator(np.random.PCG64(_Words(w))).standard_normal((n, p))
                    for w in _seed_words(entropy)])
    return _retract(np.swapaxes(raw, 1, 2))


def comass_estimate(c: CalibrationForm, restarts: int = 50,
                    tol: float = COMASS_TOL, seed: int = 0,
                    jobs: int = 1) -> ComassResult:
    """Estimate max over oriented p-planes of the calibration value.

    Random orthonormal starts (one independent substream per restart),
    projected gradient ascent run for all restarts at once over a stack of
    frames, deterministic max-merge with ties broken by the lowest restart
    index.  The ascent runs on the form divided by its largest |coefficient|
    and the value is scaled back, so ``tol`` (a bound on the Riemannian
    gradient norm) is relative to the largest coefficient, and forms near
    the float range converge like any other.  ``tol`` must lie in [0, 1):
    the starting gradient norms of the normalised builtins are 0.45 to
    2.0, so a bound of 1 or more can stop an ascent before its first
    step.  Degrees above n/2 are optimized through the Hodge dual, which
    has the same comass.  A top-degree form ``c vol`` needs no ascent: its
    comass |c| is attained on the standard frame, first vector negated
    when c < 0.  ``jobs`` is accepted for compatibility only and has no
    effect: the restarts are batched, not run concurrently.  Before it
    allocates anything, the ascent raises ``MemoryError`` when its largest
    per-restart stack, ``restarts * n ** (p - 1)`` float64, exceeds
    physical memory.
    """
    import numpy as np
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be a number in [0, 1), got {tol}")
    form = c.form
    if form.degree == 0:
        raise ValueError("a degree-0 form has no comass: an OrientedPlane "
                         "cannot hold a plane with no spanning vectors")
    if form.degree == form.dim:
        coeff = float(form[tuple(range(1, form.dim + 1))])
        frame = np.eye(form.dim)
        frame[0, 0] = -1.0 if coeff < 0 else 1.0
        return ComassResult(value=abs(coeff),
                            plane=OrientedPlane([Vector(float(x) for x in row)
                                                 for row in frame]),
                            restarts=restarts, best_restart=0, iterations=0,
                            converged=True)
    dualized = form.degree > form.dim - form.degree
    p, n = min(form.degree, form.dim - form.degree), form.dim
    need = restarts * n ** (p - 1) * np.dtype(float).itemsize
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise MemoryError(f"the ascent needs {need} bytes, more than the "
                          f"{memory} bytes of physical memory")
    work = form.hodge() if dualized else form
    T = work.to_dense()
    # comass is homogeneous: ascend on the tensor scaled to largest |entry| 1
    scale = float(np.abs(T).max()) or 1.0

    frames, values, iterations, converged = _ascend(
        T / scale, _start_frames(seed, restarts, p, n), tol)

    best_i = 0
    for i in range(1, restarts):
        if values[i] > values[best_i] + COMASS_TIE_MARGIN:
            best_i = i
    X, value = frames[best_i], scale * values[best_i]

    if dualized:
        X = _complement_frame(X)
        check = restrict(form, OrientedPlane([Vector(r) for r in X]))
        if check < 0:
            X = X.copy()
            X[0] = -X[0]
        value = float(abs(check))
    plane = OrientedPlane([Vector(float(x) for x in row) for row in X])
    ok = bool(converged[best_i])
    warning = None
    if not ok:
        # a restart that stops short of the cap ran out of line-search halvings
        warning = ("iteration cap reached before gradient tolerance"
                   if iterations[best_i] >= COMASS_MAX_ITER else
                   "line search exhausted its step halvings before gradient tolerance")
    return ComassResult(value=float(value), plane=plane, restarts=restarts,
                        best_restart=best_i, iterations=int(iterations[best_i]),
                        converged=ok, warning=warning)


def _complement_frame(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the rows of X."""
    import numpy as np
    n = X.shape[1]
    _, _, vh = np.linalg.svd(X)
    return vh[X.shape[0]:n]


# -- JSON interfaces ---------------------------------------------------------------------


def _parse_scalar(x):
    """A JSON coefficient: a finite number, or a string read as an exact rational."""
    if isinstance(x, str):
        try:
            return divide(*Fraction(x).as_integer_ratio())
        except ZeroDivisionError as exc:
            raise ValueError(f"coefficient {x!r} divides by zero") from exc
    if isinstance(x, bool):
        raise ValueError("boolean is not a coefficient")
    if not isinstance(x, (int, float)):
        raise ValueError(f"coefficient {x!r} is not a number")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"coefficient {x!r} is not finite")
    return x


def load_plane(obj: dict) -> OrientedPlane:
    """Plane input: {"dim": n, "degree": p, "vectors": [[...], ...]}.

    Raises ValueError on a non-integer dim or degree, a missing key, or a
    non-finite, non-numeric or beyond-float-range component.
    """
    dim, degree, vectors = _read_header(obj, "plane", "vectors")
    if len(vectors) != degree:
        raise ValueError(f"expected {degree} vectors, got {len(vectors)}")
    rows = []
    for i, row in enumerate(vectors, 1):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"vector {row!r} is not a list of {dim} numbers")
        entries = [_parse_scalar(x) for x in row]
        for j, x in enumerate(entries, 1):
            try:
                math.isfinite(x)  # raises for an int or a rational beyond float range
            except OverflowError:
                raise ValueError(f"vector {i}: entry {j} is beyond float range") from None
        rows.append(Vector(entries))
    return OrientedPlane(rows)


def load_form(obj: dict) -> CalibrationForm:
    """Form input: {"dim": n, "degree": k, "terms": [{"blade": [...], "coeff": ...}]}.

    Raises ValueError on a non-integer dim, degree or blade index, a
    non-finite coefficient, a sum of the coefficients on one blade that is
    not finite or does not fit a float, or a blade that repeats an index
    (such a blade is zero, so it would silently vanish).
    """
    dim, degree, terms = _read_header(obj, "form", "terms")
    coeffs: dict = {}
    for term in terms:
        try:
            blade = tuple(read_field("form term", "blade", i) for i in term["blade"])
            coeff = _parse_scalar(term["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed form term {term!r}: {exc}") from exc
        if len(set(blade)) != len(blade):
            raise ValueError(f"blade {list(blade)} repeats an index")
        coeffs[blade] = coeffs.get(blade, 0) + coeff
    form = KForm.from_terms(dim, degree, coeffs)
    for blade, c in form.coeffs.items():
        # finite terms can sum out of float range, and an exact sum can lie beyond it
        try:
            finite = math.isfinite(c)
        except OverflowError:
            raise ValueError(f"blade {list(blade)}: coefficient is beyond float range") from None
        if not finite:
            raise ValueError(f"blade {list(blade)}: coefficient sum {c!r} is not finite")
    return CalibrationForm(form, str(obj.get("name", "custom")))


def _read_header(obj: dict, what: str, items: str) -> Tuple[int, int, list]:
    """The integer dim and degree of a plane or form object and its item list."""
    if not isinstance(obj, dict) or not {"dim", "degree", items} <= obj.keys():
        raise ValueError(f"malformed {what} object: needs keys dim, degree, {items}")
    if not isinstance(obj[items], list):
        raise ValueError(f"{what}: {items} must be a list, got {obj[items]!r}")
    return (read_field(what, "dim", obj["dim"]),
            read_field(what, "degree", obj["degree"]), obj[items])
