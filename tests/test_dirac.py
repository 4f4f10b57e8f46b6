"""Point models, principal symbols, Clifford structure, intertwinings."""

import dataclasses
import sys
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cayley8 import calib, dirac, g2, multivec, spin7
from cayley8.multivec import KForm, OrientedPlane, Vector, is_exact

E = [Vector.basis(8, i) for i in range(1, 9)]
E7 = [Vector.basis(7, i) for i in range(1, 8)]
M = spin7.standard_model(exact=True)
MF = spin7.standard_model(exact=False)
CPM = dirac.build_cayley_model(M, OrientedPlane(E[:4]))
CPM_SL = dirac.build_cayley_model(spin7.build_model(calib.sl_model_form()),
                                  OrientedPlane([E[0], E[2], E[4], E[6]]))


def _symbol_by_cross_products(cpm, xi):
    """Reference symbol: the E-coordinates of ``xi_sharp x n`` for each normal n."""
    xs = sum((xi[(i + 1,)] * t for i, t in enumerate(cpm.tangent_frame)), Vector([0] * 8))
    cols = []
    for n in cpm.normal_frame:
        c2 = spin7.cross2(cpm.model, xs, n)
        cols.append(cpm.e_coords(c2))
    if cpm.model.exact and is_exact(x for col in cols for x in col):
        return np.array(cols, dtype=object).T
    return np.array([[float(x) for x in col] for col in cols]).T


def test_build_cayley_model_standard_plane():
    assert len(CPM.e_basis) == 4
    assert [v.components for v in CPM.normal_frame] == [v.components for v in E[4:]]
    # E is spanned by the tangent-normal cross products e1 x e_j
    for j in range(4, 8):
        c = spin7.cross2(M, E[0], E[j])
        coords = CPM.e_coords(c)
        recon = sum((x * f for x, f in zip(coords, CPM.e_basis)), KForm.zero(8, 2))
        assert recon.approx_equal(c)


def test_build_cayley_model_rejects_non_cayley():
    with pytest.raises(dirac.NonCayleyPlaneError) as err:
        dirac.build_cayley_model(M, OrientedPlane([E[0], E[1], E[2], E[4]]))
    assert float(err.value.tau_norm) > 0.1


def test_asd_embedding_dimension_and_orthogonality():
    report = dirac.asd_embedding_report(CPM)
    assert report.passed, report
    # dimension of the embedded image is 3
    asd = dirac.plane_asd_basis()
    images = [2 * spin7.proj2_7(M, dirac.embed_plane_form(CPM, a)) for a in asd]
    gram = np.array([[float(x.inner(y)) for y in images] for x in images])
    assert np.linalg.matrix_rank(gram) == 3


def test_dim_E_at_random_cayley_planes():
    rng = np.random.default_rng(30)
    for _ in range(5):
        frame = spin7.random_spin7_frame(MF, rng)
        plane = OrientedPlane(list(frame.vectors[:4]))
        cpm = dirac.build_cayley_model(MF, plane)
        assert len(cpm.e_basis) == 4
        assert dirac.asd_embedding_report(cpm).passed


def test_exact_model_at_a_float_plane_is_judged_floating():
    # each check reads its mode from the symbols it compares, not from the model
    frame = spin7.random_spin7_frame(MF, np.random.default_rng(3))
    cpm = dirac.build_cayley_model(M, OrientedPlane(list(frame.vectors[:4])))
    for report in (dirac.clifford_check(cpm, trials=4), dirac.asd_embedding_report(cpm)):
        assert report.passed and 0 < report.residual <= 1e-10, report


def test_cross_products_respect_the_splitting():
    # at the calibrated plane the 3-fold product maps tangent/normal type
    # (T,T,T)->T, (T,T,N)->N, (T,N,N)->T, (N,N,N)->N
    rng = np.random.default_rng(34)

    def component(v, frame):
        return sum(float(v.dot(u)) ** 2 for u in frame)

    for _ in range(20):
        t1, t2 = (sum((float(c) * t for c, t in
                       zip(rng.standard_normal(4), CPM.tangent_frame)),
                      Vector([0.0] * 8)) for _ in range(2))
        n1, n2, n3 = (sum((float(c) * n for c, n in
                           zip(rng.standard_normal(4), CPM.normal_frame)),
                          Vector([0.0] * 8)) for _ in range(3))
        t3 = sum((float(c) * t for c, t in
                  zip(rng.standard_normal(4), CPM.tangent_frame)),
                 Vector([0.0] * 8))
        cases = [((t1, t2, t3), CPM.tangent_frame),
                 ((t1, t2, n1), CPM.normal_frame),
                 ((t1, n1, n2), CPM.tangent_frame),
                 ((n1, n2, n3), CPM.normal_frame)]
        for args, target in cases:
            out = spin7.cross3(M, *args)
            residual = float(out.norm_sq()) - component(out, target)
            assert abs(residual) < 1e-18 or abs(residual) / max(float(out.norm_sq()), 1e-30) < 1e-12


def test_symbol_examples():
    xi = KForm(4, 1, {(1,): Fraction(1)})
    sig = np.array(dirac.symbol_D(CPM, xi), dtype=float)
    # first normal direction maps to e1 x e5, the first E basis vector
    expected = np.array([float(x) for x in
                         CPM.e_coords(spin7.cross2(M, E[0], E[4]))])
    assert np.allclose(sig[:, 0], expected)
    zero = np.array(dirac.symbol_D(CPM, KForm.zero(4, 1)), dtype=float)
    assert np.all(zero == 0)


@settings(max_examples=30)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4), st.booleans())
def test_symbol_matches_cross_products_exact(coeffs, sl_plane):
    cpm = CPM_SL if sl_plane else CPM
    xi = KForm(4, 1, {(i,): c for i, c in enumerate(coeffs, 1)})
    got, ref = dirac.symbol_D(cpm, xi), _symbol_by_cross_products(cpm, xi)
    assert got.dtype == object and ref.dtype == object
    assert got.tolist() == ref.tolist()


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1),
       hnp.arrays(np.float64, 4, elements=st.floats(-4, 4)))
def test_symbol_matches_cross_products_at_random_cayley_planes(seed, raw):
    frame = spin7.random_spin7_frame(MF, np.random.default_rng(seed))
    cpm = dirac.build_cayley_model(MF, OrientedPlane(list(frame.vectors[:4])))
    xi = KForm(4, 1, {(i,): float(x) for i, x in enumerate(raw, 1)})
    got, ref = dirac.symbol_D(cpm, xi), _symbol_by_cross_products(cpm, xi)
    assert got.dtype == float
    assert np.abs(got - ref).max() <= 1e-12


def test_symbol_D_reads_the_stored_symbols(monkeypatch):
    monkeypatch.setattr(dirac, "cross2", lambda *args: pytest.fail("cross2 called"))
    for i, stored in enumerate(CPM.symbols, 1):
        sig = dirac.symbol_D(CPM, KForm(4, 1, {(i,): 1}))
        assert sig.dtype == object and sig.tolist() == stored.tolist()
    with pytest.raises(ValueError):
        dirac.symbol_D(CPM, KForm(4, 2, {}))


def test_symbol_invertible_for_nonzero_covectors():
    rng = np.random.default_rng(31)
    for _ in range(20):
        xi = KForm(4, 1, {(i,): float(x)
                          for i, x in zip(range(1, 5), rng.standard_normal(4))})
        sig = np.array(dirac.symbol_D(CPM, xi), dtype=float)
        norm = float(xi.norm())
        assert abs(abs(np.linalg.det(sig)) - norm ** 4) < 1e-10


def test_clifford_check_basis_cases():
    e1 = KForm(4, 1, {(1,): Fraction(1)})
    e2 = KForm(4, 1, {(2,): Fraction(1)})
    s1 = np.array(dirac.symbol_D(CPM, e1), dtype=float)
    s2 = np.array(dirac.symbol_D(CPM, e2), dtype=float)
    assert np.allclose(s1.T @ s1 + s1.T @ s1, 2 * np.eye(4))
    assert np.allclose(s1.T @ s2 + s2.T @ s1, np.zeros((4, 4)))
    report = dirac.clifford_check(CPM, trials=16, seed=0)
    assert report.passed and report.residual < 1e-10


def test_clifford_check_builds_each_symbol_once(monkeypatch):
    calls = []
    symbol_d = dirac.symbol_D
    monkeypatch.setattr(dirac, "symbol_D",
                        lambda cpm, xi: calls.append(xi) or symbol_d(cpm, xi))
    assert dirac.clifford_check(CPM, trials=8, seed=0).passed
    assert len(calls) == 4 + 8  # the basis covectors and the random trials


def test_symbol_isometry():
    # Gram(sigma(xi)) = |xi|^2 Id is the xi' = xi case of the Clifford relation
    assert dirac.clifford_check(CPM, trials=16, seed=1).passed


def _fails_on_nan(report):
    return (not report.passed and report.residual == sys.float_info.max
            and report.detail.startswith("residual not finite as a float (nan)"))


def test_a_nan_symbol_entry_fails_the_clifford_check():
    # max(0.0, nan) is 0.0: a fold by max would pass this at residual 0
    symbols = [np.array(s, dtype=float) for s in CPM.symbols]
    symbols[2][1, 3] = float("nan")
    cpm = dataclasses.replace(CPM, symbols=tuple(symbols))
    assert _fails_on_nan(dirac.clifford_check(cpm, trials=0))


def test_bev_clifford_examples():
    s, two = dirac.bev_clifford(Vector([1, 0, 0]), 1, KForm.zero(3, 2))
    assert s == 0 and two.coeffs == {(2, 3): -1}
    s, two = dirac.bev_clifford(Vector([0, 0, 0]), 1.5, KForm.monomial(3, 1, 2))
    assert s == 0 and two.is_zero()


def test_bev_clifford_square_is_minus_norm():
    rng = np.random.default_rng(32)
    for _ in range(50):
        v = Vector(float(x) for x in rng.standard_normal(3))
        f = float(rng.standard_normal())
        alpha = KForm(3, 2, {b: float(c) for b, c in
                             zip(((1, 2), (1, 3), (2, 3)), rng.standard_normal(3))})
        s1, t1 = dirac.bev_clifford(v, f, alpha)
        s2, t2 = dirac.bev_clifford(v, s1, t1)
        assert abs(s2 + v.norm_sq() * f) < 1e-12
        assert (t2 + v.norm_sq() * alpha).is_zero(1e-12)


def test_bev_clifford_relation_on_basis_pairs():
    basis = [Vector.basis(3, i) for i in range(1, 4)]
    pairs = [(1, KForm.zero(3, 2))] + [
        (0, KForm.monomial(3, i, j)) for (i, j) in ((1, 2), (1, 3), (2, 3))]
    for v in basis:
        for w in basis:
            for f, alpha in pairs:
                s1, t1 = dirac.bev_clifford(w, f, alpha)
                s1, t1 = dirac.bev_clifford(v, s1, t1)
                s2, t2 = dirac.bev_clifford(v, f, alpha)
                s2, t2 = dirac.bev_clifford(w, s2, t2)
                assert s1 + s2 == -2 * v.dot(w) * f
                assert (t1 + t2 + 2 * v.dot(w) * alpha).is_zero()


APM = dirac.build_associative_model(g2.build_g2(),
                                    OrientedPlane(E7[:3]))


def test_h_iso_examples():
    assert (dirac.h_iso(APM, 1, KForm.zero(3, 2)) - APM.s).norm_sq() == 0
    got = dirac.h_iso(APM, 0, KForm.monomial(3, 2, 3))
    expected = g2.cross_g2(APM.g2model, APM.s, E7[0])
    assert (got - expected).norm_sq() == 0


def test_h_iso_isometry():
    basis = [(1, KForm.zero(3, 2))] + [
        (0, KForm.monomial(3, i, j)) for (i, j) in ((1, 2), (1, 3), (2, 3))]
    gram = [[dirac.h_iso(APM, *a).dot(dirac.h_iso(APM, *b)) for b in basis]
            for a in basis]
    assert gram == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_h_equivariance_exact_and_random_sections():
    report = dirac.h_equivariance_check(APM)
    assert report.passed and report.residual == 0.0
    # the identity persists for every unit normal choice of s; a floating s
    # makes the sweep floating
    rng = np.random.default_rng(33)
    for _ in range(5):
        raw = rng.standard_normal(4)
        raw /= np.linalg.norm(raw)
        s = sum((float(c) * n for c, n in zip(raw, APM.normal_frame)),
                Vector([0.0] * 7))
        assert dirac.h_equivariance_check(dataclasses.replace(APM, s=s)).passed


def test_a_nan_in_s_fails_the_h_equivariance_check():
    s = Vector([0.0, float("nan")] + [float(x) for x in APM.s.components[2:]])
    assert _fails_on_nan(dirac.h_equivariance_check(dataclasses.replace(APM, s=s)))


def test_sl_symbol_intertwine():
    m_sl = spin7.build_model(calib.sl_model_form())
    report = dirac.sl_symbol_intertwine(m_sl, trials=16, seed=2)
    assert report.passed and report.residual < 1e-10
    with pytest.raises(ValueError):
        dirac.sl_symbol_intertwine(M)


def test_intertwine_report_rejects_a_degenerate_probe():
    with pytest.raises(ValueError, match="degenerate probe"):
        dirac._intertwine_report("probe", lambda xi: np.eye(4),
                                 lambda xi: np.zeros((4, 4)), 2, 0, False)


def _diagonal_symbol(xi):
    return np.diag([1.0 + float(xi.coeffs.get((i,), 0)) for i in range(1, 5)])


def test_intertwine_report_fails_on_a_nan_off_the_probe():
    # the probe e^1 fixes the scalar 1; the map is nan on e^2 and beyond
    def lhs(xi):
        return _diagonal_symbol(xi) * (1.0 if xi.coeffs.get((1,)) == 1 else float("nan"))

    report = dirac._intertwine_report("nan", lhs, _diagonal_symbol, 2, 0, False)
    # residuals: the scalar, e^1 to e^4 and 2 random covectors; the last nan is named
    assert report.detail.endswith("global scalar +1.000000; worst at residual 7 of 7")
    assert _fails_on_nan(report)


@pytest.mark.parametrize("exact", [True, False])
def test_intertwine_report_fails_on_a_non_unit_scalar(exact):
    # the maps agree exactly under the scalar 2, so |2| - 1 is the worst residual
    report = dirac._intertwine_report(
        "double", lambda xi: 2 * _diagonal_symbol(xi), _diagonal_symbol, 3, 0, exact)
    assert not report.passed and report.residual == 1.0
    assert report.detail == "global scalar +2.000000; worst at residual 1 of 8"


def test_coassoc_symbol_intertwine():
    report = dirac.coassoc_symbol_intertwine(M, trials=16, seed=3)
    assert report.passed and report.residual < 1e-10
    m_sl = spin7.build_model(calib.sl_model_form())
    with pytest.raises(ValueError):
        dirac.coassoc_symbol_intertwine(m_sl)


def test_coassoc_normals_restrict_to_the_asd_forms():
    # the fixed table of coassoc_symbol_intertwine: (e_(k+2) . phi)|_X = asd[k]
    # at X = span(e5, ..., e8), read in R^7
    g2m = g2.build_g2()
    tangent = [Vector(t.components[1:]) for t in E[4:]]
    for k, alpha in enumerate(dirac.plane_asd_basis()):
        normal = Vector(E[k + 1].components[1:])
        assert multivec.pullback(g2m.phi3.contract(normal), tangent) == alpha


# -- frames at planes near the axes ---------------------------------------------------


def _orthonormality_error(frame):
    F = np.array([v.to_array() for v in frame])
    return np.abs(F @ F.T - np.eye(len(frame))).max()


@pytest.mark.parametrize("eps", [2e-9, 5e-9, 1e-8])
def test_near_axis_cayley_plane_gets_an_orthonormal_normal_frame(eps):
    # tilting e1 toward e5 and e2 toward -e6 keeps the plane Cayley, and
    # leaves e1 and e2 residuals of length about eps off it
    ef = [Vector.basis(8, i, exact=False) for i in range(1, 9)]
    plane = OrientedPlane([ef[0] + eps * ef[4], ef[1] - eps * ef[5], ef[2], ef[3]])
    assert calib.cayley_test(MF, plane).verdict == "cayley+"
    cpm = dirac.build_cayley_model(MF, plane)
    assert _orthonormality_error(cpm.tangent_frame + cpm.normal_frame) <= 1e-12


@pytest.mark.parametrize("eps", [2e-9, 1e-8, 1e-7])
def test_near_axis_associative_plane_gets_an_orthonormal_normal_frame(eps):
    # tilting e1 toward e4 moves phi's restriction only at second order in eps
    ef = [Vector.basis(7, i, exact=False) for i in range(1, 8)]
    plane = OrientedPlane([ef[0] + eps * ef[3], ef[1], ef[2]])
    apm = dirac.build_associative_model(g2.build_g2(), plane)
    assert _orthonormality_error(apm.tangent_frame + apm.normal_frame) <= 1e-12


# -- exact checks at an exact Cayley plane off the axes ------------------------------


def _skew(form):
    B = np.zeros((8, 8), dtype=object)
    B[:] = 0
    for (i, j), c in form.coeffs.items():
        B[i - 1, j - 1], B[j - 1, i - 1] = c, -c
    return B


def _off_axis_exact_cayley_plane(which):
    """The image of e1..e4 under exact rotations in Spin(7).

    A generator ``B`` of the 21-summand with ``B^3 = -B`` has the exact
    rotations ``I + sin(t) B + (1 - cos(t)) B^2``; here sin(t) = 3/5 and
    cos(t) = 4/5, one rotation for each chosen ``B``, applied in order.
    """
    gens = [B for B in map(_skew, M.lambda2_21_forms()) if (B @ B @ B + B == 0).all()]
    assert len(gens) == 7
    eye = np.eye(8, dtype=object)
    R = eye
    for B in (gens[i] for i in which):
        R = (eye + Fraction(3, 5) * B + Fraction(1, 5) * (B @ B)) @ R
    assert (R.T @ R == eye).all()
    return OrientedPlane([Vector(R[:, i]) for i in range(4)])


# the first plane has no unit normal of the standard-basis sweep that is
# rational; at the second the sweep's frame is exact, but products of the
# symbols taken in floats leave 5e-17
@pytest.mark.parametrize("which, nonzero", [((0, 1, 2, 3, 4, 5), 30), ((0, 4, 6), 20)])
def test_symbol_checks_are_exact_at_exact_cayley_planes_off_the_axes(which, nonzero):
    plane = _off_axis_exact_cayley_plane(which)
    onb = plane.orthonormal_basis
    assert sum(c != 0 for t in onb for c in t.components) == nonzero  # of 32
    assert spin7.tau(M, *onb).is_zero(tol=0)
    cpm = dirac.build_cayley_model(M, plane)
    normal = cpm.normal_frame
    assert is_exact(c for n in normal for c in n.components)
    assert [[u.dot(v) for v in normal] for u in normal] == np.eye(4).tolist()
    assert all(t.dot(n) == 0 for t in onb for n in normal)
    assert all(s.dtype == object and is_exact(s.flat) for s in cpm.symbols)
    # trials > 0 adds random covectors, drawn exact in exact mode
    for report in (dirac.clifford_check(cpm, trials=0),
                   dirac.clifford_check(cpm, trials=4, seed=1),
                   dirac.asd_embedding_report(cpm)):
        assert report.passed and report.residual == 0.0, report
        assert type(report.residual) is float


@pytest.mark.parametrize("which", [(0, 1, 2, 3, 4, 5), (0, 4, 6)])
def test_exact_point_model_is_int_when_integral_and_equals_fraction_reference(which):
    """The E basis and the symbols at an exact plane hold exact values equal
    to their Gram-Schmidt and inner-product references taken in Fractions
    alone, each an ``int`` wherever it is integral."""
    cpm = dirac.build_cayley_model(M, _off_axis_exact_cayley_plane(which))
    basis2 = multivec.blades(8, 2)
    gens = [[Fraction(g.coeffs.get(b, 0)) for b in basis2]
            for g in (spin7.cross2(M, t, n) for t in cpm.tangent_frame
                      for n in cpm.normal_frame)]
    ortho = []
    for vec in gens:
        for q in ortho:
            ratio = sum(x * y for x, y in zip(vec, q)) / sum(y * y for y in q)
            vec = [x - ratio * y for x, y in zip(vec, q)]
        if any(vec):
            ortho.append(vec)
    e_ref = [[x / Fraction(multivec.exact_sqrt(sum(y * y for y in q))) for x in q]
             for q in ortho]
    e_got = [[ek.coeffs.get(b, 0) for b in basis2] for ek in cpm.e_basis]
    assert e_got == e_ref
    sym_ref = [[[sum(x * y for x, y in zip(gens[4 * i + j], e_ref[k])) for j in range(4)]
                for k in range(4)] for i in range(4)]
    assert [s.tolist() for s in cpm.symbols] == sym_ref
    values = [x for row in e_got for x in row] + [x for s in cpm.symbols for x in s.flat]
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


@given(st.integers(0, 10 ** 40))
def test_four_squares(n):
    squares = dirac._four_squares(n)
    assert len(squares) == 4 and min(squares) >= 0
    assert sum(x * x for x in squares) == n
