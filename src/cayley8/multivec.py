"""Exterior algebra over R^n (n <= 8) with the Euclidean metric.

A degree-k form is stored sparsely over the lexicographic blade basis:
a map from strictly increasing k-tuples of 1-based indices to
coefficients.  Coefficients may be exact (``int``/``fractions.Fraction``)
or ``float``; arithmetic follows Python's coercion rules, so exact inputs
stay exact through every operation that does not take a square root, and
square roots themselves stay exact when the radicand is a perfect-square
rational.

This module is also the package's one exact/float scalar policy:
:func:`is_exact` decides whether values are exact and :func:`scalar` makes
a constant of the mode's type.  An exact value the package makes is an
``int`` when it is integral and a ``Fraction`` only when it is not
(integer arithmetic is several times cheaper than ``Fraction``
arithmetic); floating values are ``float``.  :func:`divide` and
``KForm / n`` are the exact divisions: the exact quotient of exact
operands, in that type, and ``a / b`` otherwise, so a float divided by a
power of two keeps the bits of the product with its reciprocal.
:func:`exact_sqrt`, the kernel's scalar reductions (``Vector.dot``,
``KForm.inner``) and the normalization of :class:`OrientedPlane` follow
the same rule.  The package's constant forms are built exact
(coefficients +-1, from factors +-1, 2 and +-1/2); a floating caller
converts one once with :meth:`KForm.as_float`.  An exact coefficient
enters a sum or product with a float as ``float(c)``, the value
``as_float`` stores, so an exact constant met by float operands gives the
floats its converted copy gives.

Every kernel operation reads one fixed blade table per shape, built on
first use and never at import: a wedge slot table per ``(dim, p, q)`` (for
each blade ``a``, a slot per degree-``q`` blade ``b``: the position of the
merged blade and its sign, or ``None`` on overlap), and a hodge, a contract
(to positions) and a dense-tensor table per ``(dim, p)``.  Wedge and
contract sum into a list by output position, each sum from its first
term, and key the result in first-touch order, as a running dict would,
so no blade is hashed per term.  Forms the kernel builds skip the blade checks.
The validated boundary is a public ``KForm(...)`` and
:meth:`KForm.from_terms` (which ``calib.load_form`` reads JSON through);
blades are sorted or merged only there, in indexing by a possibly
unsorted blade, and in table construction.

Conventions (fixed for the whole package):

* blades are ordered lexicographically; all signs are explicit
  permutation parities,
* interior product uses the first slot: ``(v . a)(x1, ...) = a(v, x1, ...)``,
* Hodge star satisfies ``a ^ star(b) = <a, b> vol`` for the standard
  orientation ``e^1 ^ ... ^ e^n``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # numpy is imported where arrays are made
    import numpy as np

Blade = Tuple[int, ...]

#: Comparison tolerance for floating coefficients.  Exact coefficients
#: compare exactly.
DEFAULT_TOL = 1e-12

#: Relative pivot tolerance for modified Gram-Schmidt on floating frames:
#: a span vector is dependent when its residual is at most this fraction
#: of its length.
GRAM_SCHMIDT_TOL = 1e-10

#: A floating residual whose squared length is below this fraction of its
#: span vector's is projected a second time: one pass loses orthogonality
#: in proportion to the cancellation, and a second pass restores it
#: ("twice is enough", Giraud, Langou and Rozloznik 2005).
REPROJECT_RATIO = 1e-6

#: Gate of every pointwise plane and frame test: a restriction, a unit
#: norm or an orthogonality is accepted within it, and plane membership
#: within its square (a squared distance).
PLANE_TOL = 1e-9

#: The package's exact draw range: an exact random input draws each entry
#: uniformly from ``[-DRAW_BOUND, DRAW_BOUND)`` (``random_vector(rng, dim,
#: DRAW_BOUND)``), a set of ``2 * DRAW_BOUND`` values.
DRAW_BOUND = 2 ** 62


#: The exact scalar types; every other coefficient is a float.
_EXACT_TYPES = (int, Fraction)


def is_exact(values: Iterable) -> bool:
    """True iff every value is exact (an ``int`` or a ``Fraction``)."""
    return all(isinstance(x, _EXACT_TYPES) for x in values)


def scalar(num: int, den: int = 1, *, exact: bool):
    """The constant ``num / den`` of the mode's type.

    Exact constants are ``int`` when ``den == 1`` and ``Fraction``
    otherwise; floating constants are ``float``.
    """
    if not exact:
        return num / den
    return num if den == 1 else Fraction(num, den)


def divide(a, b):
    """The quotient ``a / b`` under the scalar policy.

    Exact operands give the exact quotient: an ``int`` when it is integral
    (with two ``int`` operands, when ``b`` divides ``a``), a ``Fraction``
    otherwise.  Any other operands give ``a / b``.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if isinstance(a, _EXACT_TYPES) and isinstance(b, _EXACT_TYPES):
        return _integral(Fraction(a) / b)
    return a / b


def _integral(x):
    """An exact ``x`` as an ``int`` when it is integral; anything else as is."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class DimensionError(ValueError):
    """Operands live on different spaces or exceed the supported range."""


class DegreeError(ValueError):
    """A degree precondition is violated (overflow, mismatch, ...)."""


class DegeneratePlaneError(ValueError):
    """Spanning vectors of a plane are linearly dependent."""


def exact_sqrt(x):
    """Square root that stays exact for perfect-square rationals.

    When ``x`` is exact and its numerator and denominator are perfect
    squares, returns the root as an ``int`` if it is integral and as a
    ``Fraction`` otherwise; in every other case ``math.sqrt(x)``.
    """
    if isinstance(x, _EXACT_TYPES):
        if x < 0:
            raise ValueError("negative radicand")
        num, den = x.numerator, x.denominator
        pn, pd = math.isqrt(num), math.isqrt(den)
        if pn * pn == num and pd * pd == den:
            return pn if pd == 1 else Fraction(pn, pd)
    return math.sqrt(x)


def is_zero(x, tol: float = DEFAULT_TOL) -> bool:
    """Zero test: exact for int/Fraction, |x| <= tol for floats."""
    if isinstance(x, _EXACT_TYPES):
        return x == 0
    return abs(x) <= tol


def sort_blade(indices: Sequence[int]) -> Tuple[Blade, int]:
    """Sort indices into a canonical blade, returning (blade, sign).

    The sign is the permutation parity; a repeated index yields sign 0.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_blades(a: Blade, b: Blade) -> Tuple[Blade, int]:
    """Merge two increasing blades, returning (merged, sign); sign 0 on overlap."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return (), 0
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


@functools.lru_cache(maxsize=None)
def blades(dim: int, degree: int) -> Tuple[Blade, ...]:
    """All degree-`degree` blades on R^dim in lexicographic order."""
    return tuple(itertools.combinations(range(1, dim + 1), degree))


@functools.lru_cache(maxsize=None)
def _positions(dim: int, degree: int) -> Dict[Blade, int]:
    """``blade -> its position in blades(dim, degree)``."""
    return {b: k for k, b in enumerate(blades(dim, degree))}


@functools.lru_cache(maxsize=None)
def _wedge_table(dim: int, p: int, q: int) -> Dict[Blade, list]:
    """``a -> row``: ``row[j]`` is ``(k, positive)`` when ``e^a ^ e^b = +-`` the ``k``-th
    degree-``(p + q)`` blade, ``b`` the ``j``-th degree-``q`` blade, else ``None``."""
    inq, out, table = _positions(dim, q), _positions(dim, p + q), {}
    for a in blades(dim, p):
        row = table[a] = [None] * len(inq)
        for b in itertools.combinations([i for i in range(1, dim + 1) if i not in a], q):
            merged, sign = merge_blades(a, b)
            row[inq[b]] = (out[merged], sign > 0)
    return table


@functools.lru_cache(maxsize=None)
def _dense_table(dim: int, p: int) -> Dict[Blade, Tuple[Tuple[Tuple[int, ...], int], ...]]:
    """``blade -> ((0-based permuted indices, sign), ...)`` over its permutations.

    The permutations of a blade come in the order of ``itertools.permutations``
    of its positions, whose signs are computed once per degree.
    """
    orders = tuple(itertools.permutations(range(p)))
    signs = tuple(sort_blade(order)[1] for order in orders)
    return {blade: tuple((tuple(blade[k] - 1 for k in order), sign)
                         for order, sign in zip(orders, signs))
            for blade in blades(dim, p)}


@functools.lru_cache(maxsize=None)
def _hodge_table(dim: int, p: int) -> Dict[Blade, Tuple[Blade, int]]:
    """``blade -> (complement, sign)`` with ``e^blade ^ e^complement = sign vol``."""
    table = {}
    for blade in blades(dim, p):
        comp = tuple(i for i in range(1, dim + 1) if i not in blade)
        table[blade] = (comp, merge_blades(blade, comp)[1])
    return table


@functools.lru_cache(maxsize=None)
def _contract_table(dim: int, p: int) -> Dict[Blade, Tuple[Tuple[int, int, int], ...]]:
    """``blade -> ((slot, k, sign), ...)``: at its ``pos``-th index, ``slot + 1``, ``e^blade``
    contracts to ``sign = (-1)^pos`` times the ``k``-th degree-``(p - 1)`` blade."""
    out = _positions(dim, p - 1)
    return {blade: tuple((i - 1, out[blade[:pos] + blade[pos + 1:]], -1 if pos % 2 else 1)
                         for pos, i in enumerate(blade))
            for blade in blades(dim, p)}


@dataclass(frozen=True)
class Vector:
    """A vector in R^dim with Euclidean metric."""

    components: Tuple

    def __init__(self, components: Iterable):
        object.__setattr__(self, "components", tuple(components))

    @property
    def dim(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int):
        """1-based component access, matching blade indices."""
        return self.components[i - 1]

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self.components, other.components))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.components)

    def __mul__(self, scalar) -> "Vector":
        return Vector(a * scalar for a in self.components)

    __rmul__ = __mul__

    def dot(self, other: "Vector"):
        self._check(other)
        return _integral(sum(a * b for a, b in zip(self.components, other.components)))

    def norm_sq(self):
        return self.dot(self)

    def norm(self):
        return exact_sqrt(self.norm_sq())

    def to_array(self) -> np.ndarray:
        import numpy as np
        return np.array([float(c) for c in self.components])

    def _check(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"vector dims differ: {self.dim} vs {other.dim}")

    @staticmethod
    def basis(dim: int, i: int, exact: bool = True) -> "Vector":
        one, zero = scalar(1, exact=exact), scalar(0, exact=exact)
        return Vector(one if j == i else zero for j in range(1, dim + 1))


@dataclass(frozen=True)
class KForm:
    """A degree-k alternating form on R^dim over the lexicographic blade basis.

    Only blades with strictly increasing indices are stored; absent blades
    are zero.  Values are immutable; all operations return new forms.
    """

    dim: int
    degree: int
    coeffs: Dict[Blade, object] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.dim <= 8:
            raise DimensionError(f"dim must be in 1..8, got {self.dim}")
        if not 0 <= self.degree <= self.dim:
            raise DegreeError(f"degree must be in 0..{self.dim}, got {self.degree}")
        clean = {}
        for blade, c in self.coeffs.items():
            blade = tuple(blade)
            if len(blade) != self.degree:
                raise DegreeError(f"blade {blade} has wrong length for degree {self.degree}")
            if any(not 1 <= i <= self.dim for i in blade):
                raise DimensionError(f"blade {blade} out of range for dim {self.dim}")
            if any(a >= b for a, b in zip(blade, blade[1:])):
                raise ValueError(f"blade {blade} is not strictly increasing")
            if c != 0:
                clean[blade] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, dim: int, degree: int, coeffs: Dict[Blade, object]) -> "KForm":
        """A form over blades the kernel built, from a dict built for it: drops zero
        coefficients (copying only when there is one) and skips ``__post_init__``."""
        if 0 in coeffs.values():
            coeffs = {b: c for b, c in coeffs.items() if c != 0}
        form = object.__new__(cls)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "coeffs", coeffs)
        return form

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int) -> "KForm":
        return KForm(dim, degree, {})

    @staticmethod
    def from_terms(dim: int, degree: int, terms: Dict[Blade, object]) -> "KForm":
        """Build a form from possibly unsorted blades, normalizing signs."""
        coeffs: Dict[Blade, object] = {}
        for blade, c in terms.items():
            sorted_blade, sign = sort_blade(blade)
            if sign == 0 or c == 0:
                continue
            coeffs[sorted_blade] = coeffs.get(sorted_blade, 0) + sign * c
        return KForm(dim, degree, coeffs)

    @staticmethod
    def monomial(dim: int, *indices: int) -> "KForm":
        """The basis blade e^{i1...ik} (indices may be unsorted), coefficient 1."""
        return KForm.from_terms(dim, len(indices), {tuple(indices): 1})

    @staticmethod
    def volume(dim: int) -> "KForm":
        """The exact volume form e^{1...dim}."""
        return KForm(dim, dim, {tuple(range(1, dim + 1)): 1})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        self._check_same_space(other)
        coeffs = dict(self.coeffs)
        for blade, c in other.coeffs.items():
            coeffs[blade] = coeffs.get(blade, 0) + c
        return KForm._trusted(self.dim, self.degree, coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        """``self + (-other)`` without building ``-other`` (``x - c`` is ``x + (-c)``)."""
        self._check_same_space(other)
        coeffs = dict(self.coeffs)
        for blade, c in other.coeffs.items():
            coeffs[blade] = coeffs.get(blade, 0) - c
        return KForm._trusted(self.dim, self.degree, coeffs)

    def __neg__(self) -> "KForm":
        return KForm._trusted(self.dim, self.degree, {b: -c for b, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "KForm":
        return KForm._trusted(self.dim, self.degree,
                              {b: c * scalar for b, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, n) -> "KForm":
        """Every coefficient through :func:`divide` (a float one divided in place,
        as ``divide`` would, without the call)."""
        return KForm._trusted(self.dim, self.degree,
                              {b: c / n if type(c) is float else divide(c, n)
                               for b, c in self.coeffs.items()})

    def __getitem__(self, blade: Sequence[int]):
        """The coefficient of ``blade``: a stored blade is read directly, any
        other (permuted, repeated, absent or not a tuple) through ``sort_blade``."""
        if isinstance(blade, tuple) and blade in self.coeffs:
            return self.coeffs[blade]
        sorted_blade, sign = sort_blade(blade)
        return sign * self.coeffs.get(sorted_blade, 0)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs.values())

    def approx_equal(self, other: "KForm") -> bool:
        return (self - other).is_zero()

    # -- products and duality ------------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        """Exterior product; graded-anticommutative, associative."""
        self._check_same_dim(other)
        if self.degree + other.degree > self.dim:
            raise DegreeError(
                f"wedge degree overflow: {self.degree} + {other.degree} > dim {self.dim}")
        table = _wedge_table(self.dim, self.degree, other.degree)
        at, out = _positions(self.dim, other.degree), blades(self.dim, self.degree + other.degree)
        others = [(at[bb], cb) for bb, cb in other.coeffs.items()]
        acc, order = [None] * len(out), []
        # other.coeffs' order keeps every bit; (-ca) * cb is -(ca * cb) bit for bit
        for ba, ca in self.coeffs.items():
            row, neg = table[ba], -ca
            for j, cb in others:
                hit = row[j]
                if hit is not None:
                    k, positive = hit
                    term, s = (ca if positive else neg) * cb, acc[k]
                    if s is None:
                        acc[k] = term
                        order.append(k)
                    else:
                        acc[k] = s + term
        return KForm._trusted(self.dim, self.degree + other.degree, {out[k]: acc[k] for k in order})

    def hodge(self) -> "KForm":
        """Hodge star for the Euclidean metric and the standard orientation.

        Satisfies ``a ^ star(a) = <a, a> vol`` and ``star(star(a)) =
        (-1)^(k(n-k)) a``.
        """
        table = _hodge_table(self.dim, self.degree)
        coeffs: Dict[Blade, object] = {}
        for blade, c in self.coeffs.items():
            comp, sign = table[blade]
            coeffs[comp] = sign * c
        return KForm._trusted(self.dim, self.dim - self.degree, coeffs)

    def contract(self, v: Vector) -> "KForm":
        """Interior product ``(v . a)(x1, ...) = a(v, x1, ...)`` (first slot)."""
        if v.dim != self.dim:
            raise DimensionError(f"vector dim {v.dim} != form dim {self.dim}")
        if self.degree == 0:
            raise DegreeError("cannot contract a 0-form")
        table, comps = _contract_table(self.dim, self.degree), v.components
        out = blades(self.dim, self.degree - 1)
        acc, order = [None] * len(out), []
        for blade, c in self.coeffs.items():
            for slot, k, sign in table[blade]:
                vi = comps[slot]
                if vi != 0:
                    term, s = sign * vi * c, acc[k]
                    if s is None:
                        acc[k] = term
                        order.append(k)
                    else:
                        acc[k] = s + term
        return KForm._trusted(self.dim, self.degree - 1, {out[k]: acc[k] for k in order})

    def inner(self, other: "KForm"):
        """Euclidean inner product (blades are orthonormal)."""
        self._check_same_space(other)
        small, large = self.coeffs, other.coeffs
        if len(large) < len(small):
            small, large = large, small
        return _integral(sum(c * large[b] for b, c in small.items() if b in large))

    def norm_sq(self):
        return self.inner(self)

    def norm(self):
        return exact_sqrt(self.norm_sq())

    def evaluate(self, *vectors: Vector):
        """Evaluate the form on degree-many vectors."""
        if len(vectors) != self.degree:
            raise DegreeError(f"need {self.degree} vectors, got {len(vectors)}")
        result = self
        for v in vectors:
            result = result.contract(v)
        return result.coeffs.get((), 0)

    # -- numpy bridges ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full antisymmetric evaluation tensor T[i1,...,ik] = a(e_i1,...,e_ik).

        0-based numpy indices; only sensible for small degree (k <= 5).
        """
        import numpy as np
        T = np.zeros((self.dim,) * self.degree)
        table = _dense_table(self.dim, self.degree)
        for blade, c in self.coeffs.items():
            c = float(c)
            for idx, sign in table[blade]:
                T[idx] = sign * c
        return T

    # -- misc ------------------------------------------------------------------

    def map_coeffs(self, fn) -> "KForm":
        return KForm._trusted(self.dim, self.degree,
                              {b: fn(c) for b, c in self.coeffs.items()})

    def as_float(self) -> "KForm":
        """The same form with every coefficient a ``float``."""
        return self.map_coeffs(float)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for blade in sorted(self.coeffs):
            c = self.coeffs[blade]
            name = "e^{" + "".join(str(i) for i in blade) + "}" if blade else "1"
            parts.append(f"{c}*{name}")
        return " + ".join(parts)

    def _check_same_dim(self, other: "KForm") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"form dims differ: {self.dim} vs {other.dim}")

    def _check_same_space(self, other: "KForm") -> None:
        self._check_same_dim(other)
        if self.degree != other.degree:
            raise DegreeError(f"form degrees differ: {self.degree} vs {other.degree}")


def flat(v: Vector) -> KForm:
    """Musical isomorphism: vector to 1-form (Euclidean metric)."""
    if not 1 <= v.dim <= 8:
        raise DimensionError(f"dim must be in 1..8, got {v.dim}")
    return KForm._trusted(v.dim, 1, {(i,): c for i, c in enumerate(v.components, 1)})


def sharp(a: KForm) -> Vector:
    """Musical isomorphism: 1-form to vector (Euclidean metric)."""
    if a.degree != 1:
        raise DegreeError("sharp expects a 1-form")
    return Vector(a.coeffs.get((i,), 0) for i in range(1, a.dim + 1))


def _project_out(w: Vector, basis: Sequence[Vector]) -> Vector:
    """``w`` less its components along the orthonormal ``basis``, one vector
    at a time (modified Gram-Schmidt): the package's one projection."""
    for u in basis:
        w = w - u.dot(w) * u
    return w


def _unit(w: Vector, nsq) -> Vector:
    """``w`` over its length ``sqrt(nsq)``: each component through
    :func:`divide` when the root is exact, else times the reciprocal."""
    root = exact_sqrt(nsq)
    if isinstance(root, float):
        return w * (1 / root)
    return Vector(divide(c, root) for c in w.components)


class OrientedPlane:
    """An oriented p-plane in R^n given by spanning vectors.

    The orientation is the order of the spanning vectors.  Sparse vectors
    are orthonormalized here and nowhere else: an orthonormal basis is
    computed once by modified Gram-Schmidt and cached, and
    :meth:`complement` extends it to an orthonormal basis of R^n.  A
    floating residual is projected again when it is shorter than
    ``REPROJECT_RATIO`` of its span vector (in squared length), and the
    span vector is dependent when it is at most ``GRAM_SCHMIDT_TOL`` of
    that length, so the pivot does not depend on the scale of the spans.
    A floating span vector is first scaled by the power of two that brings
    its largest |component| into [1/2, 1): that keeps every bit, so the
    basis is the same at any scale and no square leaves float range.
    """

    def __init__(self, spans: Sequence[Vector]):
        spans = [v if isinstance(v, Vector) else Vector(v) for v in spans]
        if not spans:
            raise DegeneratePlaneError("empty spanning set")
        dims = {v.dim for v in spans}
        if len(dims) != 1:
            raise DimensionError("spanning vectors have mixed dimensions")
        self.dim = spans[0].dim
        self.degree = len(spans)
        if self.degree > self.dim:
            raise DegeneratePlaneError("more spanning vectors than dimensions")
        self.spans = tuple(spans)
        self._onb = None

    @property
    def orthonormal_basis(self) -> Tuple[Vector, ...]:
        if self._onb is None:
            basis = []
            for v in self.spans:
                if not is_exact(v.components):
                    e = math.frexp(max(map(abs, v.components)))[1]
                    v = Vector(math.ldexp(c, -e) for c in v.components)
                w = _project_out(v, basis)
                nsq, vsq = w.norm_sq(), v.norm_sq()
                if isinstance(nsq, float):
                    if not math.isfinite(nsq):
                        raise ValueError(f"span vector {len(basis) + 1} has a "
                                         f"component that is not finite")
                    if nsq < REPROJECT_RATIO * vsq:
                        w = _project_out(w, basis)
                        nsq = w.norm_sq()
                    degenerate = nsq <= GRAM_SCHMIDT_TOL ** 2 * vsq
                else:
                    degenerate = nsq == 0
                if degenerate:
                    raise DegeneratePlaneError("degenerate plane")
                basis.append(_unit(w, nsq))
            self._onb = tuple(basis)
        return self._onb

    def matrix(self) -> np.ndarray:
        """Orthonormal basis as rows of a (degree x dim) float array."""
        import numpy as np
        return np.array([u.to_array() for u in self.orthonormal_basis])

    def contains(self, v: Vector) -> bool:
        """True iff ``v`` lies within distance ``PLANE_TOL`` of the plane."""
        return is_zero(_project_out(v, self.orthonormal_basis).norm_sq(), PLANE_TOL * PLANE_TOL)

    def complement(self) -> Tuple[Vector, ...]:
        """Orthonormal basis of the orthogonal complement: ``dim - degree`` vectors.

        Sweeps the exact standard basis ``e_1, ..., e_dim`` in order, each
        projected off the plane and the vectors kept so far; a residual is
        kept, normalized, iff its squared length is at least ``1 / (2 dim)``.
        Squared residuals only shrink as the basis grows, and against a basis
        that misses ``k`` dimensions they sum to ``k``; so the skipped ones
        never add up to the 1 that a short sweep would leave, the sweep
        completes, and no short residual is normalized.  A float plane meets
        the exact 0 and 1 as ``float(c)``.
        """
        basis = list(self.orthonormal_basis)
        out = []
        for i in range(1, self.dim + 1):
            if len(basis) == self.dim:
                break
            w = _project_out(Vector.basis(self.dim, i), basis)
            nsq = w.norm_sq()
            if 2 * self.dim * nsq < 1:
                continue
            w = _unit(w, nsq)
            basis.append(w)
            out.append(w)
        return tuple(out)


def restrict(a: KForm, plane: OrientedPlane):
    """The scalar lambda with ``a|_V = lambda vol_V``.

    Evaluates ``a`` on an oriented orthonormal basis of the plane.
    """
    if plane.degree != a.degree:
        raise DegreeError(
            f"plane degree {plane.degree} != form degree {a.degree}")
    if plane.dim != a.dim:
        raise DimensionError(f"plane dim {plane.dim} != form dim {a.dim}")
    return a.evaluate(*plane.orthonormal_basis)


def pullback(a: KForm, vectors: Sequence[Vector]) -> KForm:
    """The form on R^k, k = ``len(vectors)``, with coefficients ``a(v_i, v_j, ...)``.

    The package's one pull-back.  Each coefficient is the :meth:`KForm.evaluate`
    contraction chain, first vector first; blades that share a leading prefix
    share its contractions, so degree 4 through 8 vectors takes 125
    contractions instead of 280.
    """
    coeffs = {}
    chains = {(): a}
    for blade in blades(len(vectors), a.degree):
        for d in range(1, len(blade) + 1):
            if blade[:d] not in chains:
                chains[blade[:d]] = chains[blade[:d - 1]].contract(vectors[blade[d - 1] - 1])
        val = chains[blade].coeffs.get((), 0)
        if val != 0:
            coeffs[blade] = val
    return KForm(len(vectors), a.degree, coeffs)


def pullback_to_plane(a: KForm, plane: OrientedPlane) -> KForm:
    """Pull a form back to the plane's intrinsic coordinates.

    Index i of the result corresponds to the i-th orthonormal basis
    vector of the plane.
    """
    if a.dim != plane.dim:
        raise DimensionError("ambient dimensions differ")
    if a.degree > plane.degree:
        raise DegreeError("form degree exceeds plane dimension")
    return pullback(a, plane.orthonormal_basis)


def random_form(rng: np.random.Generator, dim: int, degree: int,
                bound: Optional[int] = None) -> KForm:
    """Random form, one value per blade in lexicographic order, drawn as
    :func:`random_vector` draws them: standard normal floats, or with
    ``bound`` the ints of ``[-bound, bound)``; zero values are dropped."""
    basis = blades(dim, degree)
    values = random_vector(rng, len(basis), bound).components
    return KForm._trusted(dim, degree, dict(zip(basis, values)))


def random_vector(rng: np.random.Generator, dim: int, bound: Optional[int] = None) -> Vector:
    """Random vector: ``dim`` standard normal floats from one ``standard_normal``
    call, or with ``bound`` the Python ints of ``[-bound, bound)``, uniform, from
    one ``integers`` call: ``2 * bound`` values per entry."""
    if bound is None:
        return Vector(rng.standard_normal(dim).tolist())
    return Vector(rng.integers(-bound, bound, size=dim).tolist())
