"""Exterior algebra core: products, duality, contraction, restriction."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley8 import multivec
from cayley8.multivec import (DegeneratePlaneError, DegreeError,
                              DimensionError, KForm, OrientedPlane, Vector,
                              blades, divide, exact_sqrt, flat, is_exact,
                              merge_blades, random_form, random_vector,
                              restrict, scalar, sharp, sort_blade)
from cayley8.spin7 import PHI0_TERMS, phi0

E = [Vector.basis(8, i) for i in range(1, 9)]


def test_sort_blade_parity():
    assert sort_blade((2, 1)) == ((1, 2), -1)
    assert sort_blade((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_blade((1, 1)) == ((1, 1), 0)


def test_merge_blades_sign():
    assert merge_blades((1, 3), (2, 4)) == ((1, 2, 3, 4), -1)
    assert merge_blades((1, 2), (2, 3)) == ((), 0)


def test_wedge_basis_blades():
    dx1 = KForm.monomial(8, 1)
    dx2 = KForm.monomial(8, 2)
    assert dx1.wedge(dx2).coeffs == {(1, 2): 1}
    dx12 = KForm.monomial(8, 1, 2)
    assert dx12.wedge(dx12).is_zero()


def test_wedge_phi0_squared_is_14_vol():
    # independent oracle: sum the pairings of complementary blades directly
    expected = 0
    for blade_a, ca in PHI0_TERMS.items():
        for blade_b, cb in PHI0_TERMS.items():
            merged, sign = merge_blades(blade_a, blade_b)
            if sign:
                expected += sign * ca * cb
    assert expected == 14
    phi = phi0()
    assert phi.wedge(phi).approx_equal(14 * KForm.volume(8))


def test_wedge_errors():
    with pytest.raises(DimensionError):
        KForm.monomial(8, 1).wedge(KForm.monomial(7, 1))
    with pytest.raises(DegreeError):
        phi0().wedge(KForm.volume(8))


def test_hodge_complementary_blade():
    assert KForm.monomial(8, 1, 2, 3, 4).hodge().coeffs == {(5, 6, 7, 8): 1}


def test_hodge_phi0_self_dual():
    assert phi0().hodge().approx_equal(phi0())


def test_hodge_involution_on_4forms():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_form(rng, 8, 4)
        assert a.hodge().hodge().approx_equal(a)


def test_hodge_isometry():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = random_form(rng, 8, 3, exact=True)
        b = random_form(rng, 8, 3, exact=True)
        assert a.hodge().inner(b.hodge()) == a.inner(b)


def test_contract_basics():
    assert KForm.monomial(8, 1, 2).contract(E[0]).coeffs == {(2,): 1}
    assert KForm.monomial(8, 1, 2, 3, 4).contract(E[4]).is_zero()


def test_contract_phi0_seven_unit_blades():
    c = phi0().contract(E[0])
    assert len(c.coeffs) == 7
    assert all(abs(v) == 1 for v in c.coeffs.values())


def test_contract_antiderivation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = random_vector(rng, 8, exact=True)
        a = random_form(rng, 8, 2, exact=True)
        b = random_form(rng, 8, 3, exact=True)
        lhs = a.wedge(b).contract(v)
        rhs = a.contract(v).wedge(b) + a.wedge(b.contract(v))
        assert lhs.approx_equal(rhs)


def test_contract_degree_zero_errors():
    with pytest.raises(DegreeError):
        KForm(8, 0, {(): 1}).contract(E[0])


def test_contract_adjoint_to_wedge():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = random_vector(rng, 8, exact=True)
        a = random_form(rng, 8, 3, exact=True)
        b = random_form(rng, 8, 2, exact=True)
        assert a.contract(v).inner(b) == a.inner(flat(v).wedge(b))


def test_inner_examples():
    dx12 = KForm.monomial(8, 1, 2)
    assert dx12.inner(dx12) == 1
    assert phi0().inner(phi0()) == 14  # 14 unit blades


def test_musical_roundtrip():
    assert sharp(flat(E[2])).components == E[2].components
    rng = np.random.default_rng(5)
    v = random_vector(rng, 8, exact=True)
    assert sharp(flat(v)).components == v.components


def test_flat_rejects_vectors_outside_dims_1_to_8():
    with pytest.raises(DimensionError):
        flat(Vector([1] * 9))
    with pytest.raises(DimensionError):
        flat(Vector([]))


def test_restrict_examples():
    phi = phi0()
    assert restrict(phi, OrientedPlane(E[:4])) == 1
    assert restrict(phi, OrientedPlane([E[0], E[1], E[2], E[4]])) == 0
    assert restrict(KForm.monomial(8, 1, 2), OrientedPlane([E[1], E[0]])) == -1
    # exact spans never leave float range, however large
    assert restrict(phi, OrientedPlane([v * 10 ** 200 for v in E[:4]])) == 1


def test_restrict_degenerate_plane():
    with pytest.raises(DegeneratePlaneError, match="degenerate"):
        restrict(KForm.monomial(8, 1, 2),
                 OrientedPlane([E[0], E[0]]))


def test_restrict_orientation_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = random_form(rng, 8, 4)
        vs = [random_vector(rng, 8) for _ in range(4)]
        p1 = OrientedPlane(vs)
        p2 = OrientedPlane([vs[1], vs[0], vs[2], vs[3]])
        assert abs(restrict(a, p1) + restrict(a, p2)) < 1e-10


def test_wedge_associative_graded_anticommutative_exact():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = random_form(rng, 8, 2, exact=True, span=5)
        b = random_form(rng, 8, 1, exact=True, span=5)
        c = random_form(rng, 8, 1, exact=True, span=5)
        assert a.wedge(b).wedge(c).approx_equal(a.wedge(b.wedge(c)))
        assert b.wedge(c).approx_equal(-1 * c.wedge(b))
        assert a.wedge(b).approx_equal(b.wedge(a))


def test_exact_mode_stays_exact():
    phi = phi0()
    assert all(type(c) is int for c in phi.coeffs.values())
    c = phi.contract(Vector([Fraction(1, 2)] + [0] * 7))
    assert all(isinstance(v, Fraction) for v in c.coeffs.values())


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert isinstance(exact_sqrt(2), float)


def test_float_mode_agrees_with_exact():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = random_form(rng, 8, 2, exact=True, span=7)
        b = random_form(rng, 8, 2, exact=True, span=7)
        exact_val = a.wedge(b).hodge().inner(a.wedge(b).hodge())
        float_val = (a.as_float().wedge(b.as_float()).hodge()
                     .inner(a.as_float().wedge(b.as_float()).hodge()))
        assert abs(float(exact_val) - float_val) < 1e-12 * max(1.0, abs(float(exact_val)))


def test_hodge_degree_extremes():
    one = KForm(8, 0, {(): 1})
    assert one.hodge().approx_equal(KForm.volume(8))
    assert KForm.volume(8).hodge().coeffs == {(): 1}


def test_kform_validation():
    with pytest.raises(DimensionError):
        KForm(9, 1, {})
    with pytest.raises(DegreeError):
        KForm(8, 9, {})
    with pytest.raises(ValueError, match="strictly increasing"):
        KForm(8, 2, {(2, 1): 1})
    with pytest.raises(ValueError, match="strictly increasing"):
        KForm(8, 2, {(3, 3): 1})
    with pytest.raises(DimensionError):
        KForm(4, 2, {(1, 5): 1})
    with pytest.raises(DimensionError):
        KForm(8, 2, {(0, 1): 1})
    with pytest.raises(DegreeError):
        KForm(8, 2, {(1, 2, 3): 1})


def test_from_terms_normalizes_signs():
    a = KForm.from_terms(8, 2, {(2, 1): 1, (1, 2): 2})
    assert a.coeffs == {(1, 2): 1}
    assert KForm.from_terms(8, 2, {(1, 1): 5}).is_zero()
    b = KForm.from_terms(8, 3, {(3, 1, 2): 2, (2, 1, 4): 5})
    assert b.coeffs == {(1, 2, 3): 2, (1, 2, 4): -5}


@settings(max_examples=60)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.sampled_from([0.0, 1e-9, 1e-6, 1.0]), st.integers(0, 2**32 - 1))
def test_complement_completes_an_orthonormal_basis(shape, tilt, seed):
    # the spans are orthonormal rows, tilt away from the axes by about ``tilt``
    dim, degree = shape
    noise = np.random.default_rng(seed).standard_normal((dim, dim))
    rows, _ = np.linalg.qr(np.eye(dim) + tilt * noise)
    plane = OrientedPlane([Vector(row.tolist()) for row in rows[:degree]])
    comp = plane.complement()
    assert len(comp) == dim - degree
    F = np.array([v.to_array() for v in plane.orthonormal_basis + comp])
    assert np.abs(F @ F.T - np.eye(dim)).max() <= 1e-12


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), min_size=1))))
def test_complement_of_an_exact_coordinate_plane_is_the_other_axes(case):
    dim, axes = case
    comp = OrientedPlane([Vector.basis(dim, i) for i in sorted(axes)]).complement()
    assert [v.components for v in comp] == [
        Vector.basis(dim, i).components for i in range(1, dim + 1) if i not in axes]
    assert is_exact(c for v in comp for c in v.components)


@pytest.mark.parametrize("exact", [True, False])
def test_complement_of_the_hyperplane_orthogonal_to_all_ones(exact):
    # every standard basis vector leaves the squared residual 1/8 off it
    e = [Vector.basis(8, i, exact=exact) for i in range(1, 9)]
    plane = OrientedPlane([e[i] - e[i + 1] for i in range(7)])
    (normal,) = plane.complement()
    assert np.abs(normal.to_array() - 8 ** -0.5).max() <= 1e-12


def test_plane_contains_and_pullback():
    from cayley8.multivec import pullback_to_plane
    plane = OrientedPlane([E[0], E[1], E[2], E[3]])
    assert plane.contains(Vector([1, 2, 0, -1, 0, 0, 0, 0]))
    assert not plane.contains(E[4])
    om = KForm(8, 2, {(1, 2): 1, (5, 6): 3})
    pulled = pullback_to_plane(om, plane)
    assert pulled.coeffs == {(1, 2): 1}  # the (5,6) blade dies on the plane


@pytest.mark.parametrize("degree", range(6))
def test_evaluate_agrees_with_dense_tensor(degree):
    rng = np.random.default_rng(9)
    a = random_form(rng, 8, degree)
    T = a.to_dense()
    for _ in range(20):
        vs = [random_vector(rng, 8) for _ in range(degree)]
        direct = a.evaluate(*vs)
        dense = T
        for v in vs:  # first slot first
            dense = np.tensordot(v.to_array(), dense, axes=(0, 0))
        assert abs(direct - dense) < 1e-10


@pytest.mark.parametrize("dim, degree", [(8, 0), (8, 1), (8, 2), (8, 4), (7, 3), (8, 5)])
def test_dense_table_signs_per_permutation(dim, degree):
    # one parity per permutation of positions, reused for every blade: the
    # table equals the per-blade sort of each permuted index tuple, in order
    ref = {blade: tuple((tuple(i - 1 for i in idx), sort_blade(idx)[1])
                        for idx in itertools.permutations(blade))
           for blade in blades(dim, degree)}
    table = multivec._dense_table(dim, degree)
    assert list(table.items()) == list(ref.items())


def test_scalar_policy():
    assert scalar(1, 2, exact=True) == Fraction(1, 2)
    assert type(scalar(1, exact=True)) is int
    assert type(scalar(1, 2, exact=True)) is Fraction
    assert type(scalar(0, exact=False)) is float
    assert scalar(-1, 4, exact=False) == -0.25
    assert is_exact([1, Fraction(1, 3)]) and not is_exact([1, 0.5])
    assert is_exact(Vector.basis(8, 3).components)
    assert is_exact(KForm.volume(8).coeffs.values())
    assert not is_exact(Vector.basis(8, 3, exact=False).components)


def _typed(values):
    """True iff every value is an ``int`` when integral and a ``Fraction`` otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


def test_exact_division_and_roots_are_int_when_integral():
    assert type(divide(6, 3)) is int and divide(6, 3) == 2
    assert divide(-1, 2) == Fraction(-1, 2) and type(divide(-1, 2)) is Fraction
    assert type(divide(Fraction(3, 2), Fraction(1, 2))) is int
    assert divide(1, 4.0) == 0.25 and divide(1.5, 3) == 0.5
    assert type(exact_sqrt(4)) is int and type(exact_sqrt(Fraction(16, 4))) is int
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    a = KForm(8, 2, {(1, 2): 4, (1, 3): 1, (2, 3): Fraction(2, 3)})
    assert (a / 2).coeffs == {(1, 2): 2, (1, 3): Fraction(1, 2), (2, 3): Fraction(1, 3)}
    assert _typed((a / 2).coeffs.values())


@settings(max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.sampled_from([2, 4]))
def test_float_division_by_a_power_of_two_is_the_reciprocal_product(values, n):
    a = KForm(8, 1, {(i,): x for i, x in enumerate(values, 1)})
    assert list((a / n).coeffs.items()) == list((a * (1 / n)).coeffs.items())


@st.composite
def _pythagorean_frame(draw, dim):
    """Rows of an exact orthogonal matrix, in Fractions: the identity turned
    by drawn rotations with cosine and sine 3/5 and 4/5, rows negated at will."""
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(dim)))[:2]
        c, s = draw(st.sampled_from([(Fraction(3, 5), Fraction(4, 5)),
                                     (Fraction(4, 5), Fraction(3, 5))]))
        rows[i], rows[j] = ([c * x - s * y for x, y in zip(rows[i], rows[j])],
                            [s * x + c * y for x, y in zip(rows[i], rows[j])])
    return [[-x for x in row] if draw(st.booleans()) else row for row in rows]


@settings(max_examples=60)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(_pythagorean_frame(n), st.integers(1, n))),
       st.data())
def test_orthonormal_basis_of_perfect_square_spans_is_exact_and_typed(frame_degree, data):
    # span k is s_k r_k plus integer multiples of the earlier rows, so the
    # residuals have squared norms s_k^2 and the basis is sign(s_k) r_k
    frame, degree = frame_degree
    scales = data.draw(st.lists(st.integers(1, 4) | st.integers(-4, -1),
                                min_size=degree, max_size=degree))
    spans = []
    for k in range(degree):
        mix = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        spans.append(Vector(scales[k] * x + sum(c * frame[i][j] for i, c in enumerate(mix))
                            for j, x in enumerate(frame[k])))
    onb = OrientedPlane(spans).orthonormal_basis
    assert [list(u.components) for u in onb] == [
        [x if s > 0 else -x for x in frame[k]] for k, s in enumerate(scales)]
    assert _typed(c for u in onb for c in u.components)


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9])
def test_orthonormal_basis_of_nearly_dependent_spans_is_orthonormal(eps):
    # one modified Gram-Schmidt pass leaves |F F^T - I| near eps^-1 * 1e-16
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        a, g = rng.standard_normal((2, 8))
        F = OrientedPlane([Vector(a.tolist()), Vector((a + eps * g).tolist())]).matrix()
        worst = max(worst, np.abs(F @ F.T - np.eye(2)).max())
    assert worst <= 1e-15


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1.0, 1e100, 1e150])
def test_degenerate_pivot_does_not_depend_on_the_scale(scale):
    e = [Vector.basis(8, i, exact=False) for i in range(1, 9)]
    F = OrientedPlane([scale * e[0], scale * (e[1] + 2 * e[0])]).matrix()
    assert np.abs(F - np.eye(8)[:2]).max() <= 1e-15
    # a residual of 1e-11 of its span vector is dependent at every scale
    with pytest.raises(DegeneratePlaneError, match="degenerate"):
        OrientedPlane([scale * e[0], scale * (e[0] + 1e-11 * e[1])]).orthonormal_basis


_EXACT_COEFF = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9, max_denominator=12))


def _exact_form(data, dim, degree):
    basis = blades(dim, degree)
    values = data.draw(st.lists(_EXACT_COEFF, min_size=len(basis), max_size=len(basis)))
    return KForm(dim, degree, dict(zip(basis, values)))


def _exact_vector(data, dim):
    return Vector(data.draw(st.lists(_EXACT_COEFF, min_size=dim, max_size=dim)))


def _as_float(x):
    return x.as_float() if isinstance(x, KForm) else Vector(float(c) for c in x.components)


def _l1(x):
    values = x.coeffs.values() if isinstance(x, KForm) else x.components
    return sum(abs(float(c)) for c in values)


def _coeffs(result):
    return result.coeffs if isinstance(result, KForm) else {(): result}


@settings(max_examples=60)
@given(st.data())
def test_exact_kernel_ops_stay_exact_and_match_float(data):
    """Every kernel op keeps exact inputs exact and agrees with float inputs.

    The ops are multilinear with +-1 signs, so the product of the inputs'
    l1 norms bounds every partial sum they form; the float result may
    differ from the exact one by 1e-12 of that bound.
    """
    dim = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(1, dim))
    q = data.draw(st.integers(0, dim - p))
    a, a2 = _exact_form(data, dim, p), _exact_form(data, dim, p)
    b = _exact_form(data, dim, q)
    vs = [_exact_vector(data, dim) for _ in range(p)]
    ops = {
        "wedge": (KForm.wedge, (a, b)),
        "hodge": (KForm.hodge, (a,)),
        "contract": (KForm.contract, (a, vs[0])),
        "evaluate": (KForm.evaluate, (a, *vs)),
        "inner": (KForm.inner, (a, a2)),
    }
    for name, (op, args) in ops.items():
        exact = _coeffs(op(*args))
        assert is_exact(exact.values()), name
        floating = _coeffs(op(*map(_as_float, args)))
        bound = 1e-12 * math.prod(_l1(x) for x in args)
        for blade in set(exact) | set(floating):
            err = abs(float(exact.get(blade, 0)) - floating.get(blade, 0.0))
            assert err <= bound, (name, blade, err, bound)


# -- blade tables against the merge_blades loops they replace -----------------------


def _ref_wedge(a, b):
    coeffs = {}
    for ba, ca in a.coeffs.items():
        for bb, cb in b.coeffs.items():
            merged, sign = merge_blades(ba, bb)
            if sign == 0:
                continue
            coeffs[merged] = coeffs.get(merged, 0) + sign * ca * cb
    return KForm(a.dim, a.degree + b.degree, coeffs)


def _ref_hodge(a):
    n = a.dim
    coeffs = {}
    for blade, c in a.coeffs.items():
        comp = tuple(i for i in range(1, n + 1) if i not in blade)
        _, sign = merge_blades(blade, comp)
        coeffs[comp] = sign * c
    return KForm(n, n - a.degree, coeffs)


def _ref_contract(a, v):
    coeffs = {}
    for blade, c in a.coeffs.items():
        for pos, i in enumerate(blade):
            vi = v[i]
            if vi == 0:
                continue
            rest = blade[:pos] + blade[pos + 1:]
            sign = -1 if pos % 2 else 1
            coeffs[rest] = coeffs.get(rest, 0) + sign * vi * c
    return KForm(a.dim, a.degree - 1, coeffs)


# zeros exercise the dropped coefficients
_FLOAT_COEFF = st.one_of(st.just(0.0), st.floats(-9, 9, allow_nan=False))


def _sparse_form(data, dim, degree, exact):
    """A form whose ``coeffs`` hold up to 24 blades in a drawn order."""
    coeff = st.one_of(st.just(0), _EXACT_COEFF) if exact else _FLOAT_COEFF
    return KForm(dim, degree, data.draw(
        st.dictionaries(st.sampled_from(blades(dim, degree)), coeff, max_size=24)))


def _items(form):
    return [(blade, c, type(c)) for blade, c in form.coeffs.items()]


@settings(max_examples=80)
@given(st.data())
def test_pullback_equals_per_blade_evaluate(data):
    """``pullback`` shares contraction prefixes across blades, yet each
    coefficient is the chain ``evaluate`` runs: the same items, types and
    order, in both modes; ``pullback_to_plane`` is ``pullback`` through the
    plane's orthonormal basis."""
    exact = data.draw(st.booleans())
    dim = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 8))
    degree = data.draw(st.integers(0, min(dim, k)))
    a = _sparse_form(data, dim, degree, exact)
    entry = st.one_of(st.just(0), _EXACT_COEFF) if exact else _FLOAT_COEFF
    vecs = [Vector(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
            for _ in range(k)]
    pulled = multivec.pullback(a, vecs)
    ref = {b: a.evaluate(*(vecs[i - 1] for i in b)) for b in blades(k, degree)}
    assert (pulled.dim, pulled.degree) == (k, degree)
    assert _items(pulled) == [(b, v, type(v)) for b, v in ref.items() if v != 0]
    if k <= dim:
        plane = OrientedPlane(vecs)
        try:
            onb = plane.orthonormal_basis
        except DegeneratePlaneError:
            return
        assert _items(multivec.pullback_to_plane(a, plane)) == _items(multivec.pullback(a, onb))


@settings(max_examples=60)
@given(st.data())
def test_table_ops_equal_merge_blades_references(data):
    """wedge, hodge and contract equal the merge_blades loops, in both modes.

    Coefficients, their types and the order of ``coeffs`` are the same, so
    float sums add their terms in the same order; every result also passes
    re-validation through the public constructor.
    """
    exact = data.draw(st.booleans())
    dim = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(0, dim))
    q = data.draw(st.integers(0, dim - p))
    a, b = _sparse_form(data, dim, p, exact), _sparse_form(data, dim, q, exact)
    pairs = [(a.wedge(b), _ref_wedge(a, b)), (a.hodge(), _ref_hodge(a))]
    if p:
        v = Vector(_sparse_form(data, dim, 1, exact)[(i,)] for i in range(1, dim + 1))
        pairs.append((a.contract(v), _ref_contract(a, v)))
    for result, ref in pairs:
        assert (result.dim, result.degree) == (ref.dim, ref.degree)
        assert _items(result) == _items(ref)
        assert KForm(result.dim, result.degree, dict(result.coeffs)) == result


def test_wedge_table_equals_the_all_pairs_table():
    """Slot rows built from each blade's complement are the all-pairs
    ``merge_blades`` table: one row per degree-p blade in lexicographic
    order, and in it, for each degree-q blade ``b`` in lexicographic order,
    the position of the merged blade among the degree-(p + q) blades and
    whether its sign is +1, or ``None`` where ``a`` and ``b`` overlap; for
    every shape up to R^8."""
    for dim in range(1, 9):
        for p in range(dim + 1):
            for q in range(dim - p + 1):
                out = blades(dim, p + q)
                ref = []
                for a in blades(dim, p):
                    merges = (merge_blades(a, b) for b in blades(dim, q))
                    ref.append((a, [(out.index(merged), sign > 0) if sign else None
                                    for merged, sign in merges]))
                got = multivec._wedge_table(dim, p, q)
                assert [(a, row) for a, row in got.items()] == ref


def test_contract_table_equals_the_all_pairs_table():
    """Contracting ``e^blade`` with ``e_i`` leaves ``sign e^rest`` exactly when
    ``e^i ^ e^rest = sign e^blade``: the table, built from the blade's own
    positions, equals the entries found by merging every ``(i, rest)`` pair,
    slot by slot, with ``rest`` given by its position among the degree-(p - 1)
    blades, for every shape up to R^8."""
    for dim in range(1, 9):
        for p in range(1, dim + 1):
            ref = {blade: [] for blade in blades(dim, p)}
            for k, rest in enumerate(blades(dim, p - 1)):
                for i in range(1, dim + 1):
                    merged, sign = merge_blades((i,), rest)
                    if sign:
                        ref[merged].append((i - 1, k, sign))
            got = multivec._contract_table(dim, p)
            assert list(got) == list(ref)
            assert {blade: list(entries) for blade, entries in got.items()} == {
                blade: sorted(entries) for blade, entries in ref.items()}


# zeros of both signs, +-1 for cancelling sums, and products that underflow
# to signed zeros or overflow to infinities (whose sums give nan)
_BIT_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e200, -1e200]),
                       st.floats(allow_nan=False, allow_infinity=False))


def _bit(c):
    """A coefficient as its ``float.hex`` if it is a float, with its type."""
    return c.hex() if type(c) is float else c, type(c)


def _bits(form):
    """Items in key order, each float as its ``float.hex``."""
    return [(b, *_bit(c)) for b, c in form.coeffs.items()]


@settings(max_examples=150)
@given(st.data())
def test_sub_and_wedge_keep_every_bit(data):
    """``a - b`` is ``a + (-b)``, ``a.wedge(b)`` is the pair walk of
    ``_ref_wedge`` and ``a.contract(v)`` the walk of ``_ref_contract``,
    coefficient by coefficient, in type, bits and key order, and so is the
    ``evaluate`` chain of contractions; for float forms (with cancelling
    pairs, and vectors with zeros of both signs) and exact ones."""
    exact = data.draw(st.booleans())
    coeff = _EXACT_COEFF if exact else _BIT_FLOAT
    dim = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(0, dim))
    q = data.draw(st.integers(0, dim - p))

    def form(degree, like=None):
        coeffs = {}
        for b in data.draw(st.lists(st.sampled_from(blades(dim, degree)), unique=True,
                                    max_size=24)):
            cancel = like is not None and b in like.coeffs and data.draw(st.booleans())
            coeffs[b] = like.coeffs[b] if cancel else data.draw(coeff)
        return KForm(dim, degree, coeffs)

    a, b = form(p), form(q)
    c = form(p, like=a)
    assert _bits(a - c) == _bits(a + (-c))
    assert _bits(a.wedge(b)) == _bits(_ref_wedge(a, b))
    if p:
        entry = st.one_of(st.just(0), coeff) if exact else coeff
        vs = [Vector(data.draw(st.lists(entry, min_size=dim, max_size=dim))) for _ in range(p)]
        assert _bits(a.contract(vs[0])) == _bits(_ref_contract(a, vs[0]))
        ref = a
        for v in vs:
            ref = _ref_contract(ref, v)
        assert _bit(a.evaluate(*vs)) == _bit(ref.coeffs.get((), 0))


@settings(max_examples=100)
@given(st.data())
def test_getitem_equals_sort_blade_reference(data):
    """Indexing reads stored blades directly and sorts every other blade;
    value and type equal ``sign * coeffs.get(sorted blade, 0)`` in both modes."""
    exact = data.draw(st.booleans())
    dim = data.draw(st.integers(1, 8))
    degree = data.draw(st.integers(0, dim))
    form = _sparse_form(data, dim, degree, exact)
    blade = data.draw(st.one_of(
        st.sampled_from(sorted(form.coeffs) or blades(dim, degree)),
        st.lists(st.integers(1, dim), min_size=degree, max_size=degree).map(tuple)))
    blade = data.draw(st.permutations(blade).map(tuple)) if data.draw(st.booleans()) else blade
    if data.draw(st.booleans()):
        blade = list(blade)
    sorted_blade, sign = sort_blade(blade)
    ref = sign * form.coeffs.get(sorted_blade, 0)
    got = form[blade]
    assert got == ref and type(got) is type(ref)


def test_kernel_linear_ops_keep_order_and_drop_zeros():
    a = KForm(4, 2, {(3, 4): 2, (1, 2): Fraction(1, 2)})
    b = KForm(4, 2, {(1, 2): Fraction(-1, 2), (2, 3): 1})
    assert list((a + b).coeffs.items()) == [((3, 4), 2), ((2, 3), 1)]
    assert list((-a).coeffs) == [(3, 4), (1, 2)]
    assert (a * 0).coeffs == {}
    assert a.map_coeffs(lambda c: c - 2).coeffs == {(1, 2): Fraction(-3, 2)}


def test_second_verify_run_merges_no_blades(monkeypatch):
    """After one warm-up run every table exists: no table builder misses its
    cache, and no blade is merged again."""
    from cayley8 import multivec, verify
    builders = {name: fn for name, fn in vars(multivec).items() if hasattr(fn, "cache_info")}
    assert {"blades", "_positions", "_wedge_table", "_contract_table"} <= set(builders)
    verify.run_suite(exact=True, trials=0)
    misses = {name: fn.cache_info().misses for name, fn in builders.items()}
    calls = []
    merge = multivec.merge_blades
    monkeypatch.setattr(multivec, "merge_blades",
                        lambda a, b: calls.append((a, b)) or merge(a, b))
    verify.run_suite(exact=True, trials=0)
    assert {name: fn.cache_info().misses for name, fn in builders.items()} == misses
    assert calls == []


def _ref_random_form(rng, dim, degree, exact, span):
    """One scalar draw per blade, the loop ``random_form`` replaces with one draw."""
    coeffs = {}
    for blade in blades(dim, degree):
        if exact:
            c = int(rng.integers(-span // 2, span // 2 + 1))
        else:
            c = float(rng.standard_normal())
        if c != 0:
            coeffs[blade] = c
    return KForm(dim, degree, coeffs)


def _ref_random_vector(rng, dim, exact):
    if exact:
        return Vector(int(rng.integers(-5, 5)) for _ in range(dim))
    return Vector(float(x) for x in rng.standard_normal(dim))


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_random_draws_keep_the_per_scalar_streams(seed, data):
    """random_form and random_vector draw each value list at once, yet give
    the per-scalar loops' values, in type and order, and leave the generator
    where those loops leave it, so every seeded test and golden keeps its data."""
    dim = data.draw(st.integers(1, 8))
    degree = data.draw(st.integers(0, dim))
    exact = data.draw(st.booleans())
    span = data.draw(st.integers(1, 12))
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_form(got_rng, dim, degree, exact=exact, span=span)
    ref = _ref_random_form(ref_rng, dim, degree, exact, span)
    assert (got.dim, got.degree) == (ref.dim, ref.degree)
    assert [(b, c, type(c)) for b, c in got.coeffs.items()] == \
        [(b, c, type(c)) for b, c in ref.coeffs.items()]
    v, ref_v = random_vector(got_rng, dim, exact=exact), _ref_random_vector(ref_rng, dim, exact)
    assert [(c, type(c)) for c in v.components] == [(c, type(c)) for c in ref_v.components]
    assert got_rng.integers(-5, 5) == ref_rng.integers(-5, 5)
    assert got_rng.standard_normal() == ref_rng.standard_normal()
