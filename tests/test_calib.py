"""Calibration values, Cayley verdicts, comass optimization, C^4 structures."""

import math
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from cayley8 import calib, dirac, g2, spin7
from cayley8.multivec import (DegeneratePlaneError, KForm, OrientedPlane,
                              Vector, pullback, pullback_to_plane, random_form,
                              sharp)

E = [Vector.basis(8, i) for i in range(1, 9)]
E7 = [Vector.basis(7, i) for i in range(1, 8)]
M = spin7.standard_model(exact=True)
MF = spin7.standard_model(exact=False)
SL_PLANE = OrientedPlane([E[0], E[2], E[4], E[6]])
COMPLEX_PLANE = OrientedPlane(E[:4])


def test_standard_c4_normalization():
    om = calib.kaehler_form()
    re_o, im_o = calib.re_omega(), calib.im_omega()
    om4 = om.wedge(om).wedge(om).wedge(om)
    # omega^4 = 3/2 Omega ^ conj(Omega), whose real expansion is Re^2 + Im^2
    assert om4.approx_equal(Fraction(3, 2) * (re_o.wedge(re_o) + im_o.wedge(im_o)))
    assert om4.approx_equal(24 * KForm.volume(8))


def test_complex_structure_squares_to_minus_one():
    rng = np.random.default_rng(40)
    v = Vector(rng.standard_normal(8))
    J = calib.complex_structure
    assert (J(J(v)) + v).norm_sq() < 1e-20
    # omega(u, v) = g(Ju, v)
    u = Vector(rng.standard_normal(8))
    om = calib.kaehler_form().as_float()
    assert abs(om.evaluate(u, v) - J(u).dot(v)) < 1e-12


def test_calibration_values():
    phi = calib.builtin_form("spin7")
    assert calib.calibration_value(phi, OrientedPlane(E[:4])) == 1
    cy = calib.CalibrationForm(calib.sl_model_form(), "cy4")
    assert calib.calibration_value(cy, COMPLEX_PLANE) == -1
    assert calib.calibration_value(cy, SL_PLANE) == 1
    rng = np.random.default_rng(41)
    for _ in range(100):
        plane = OrientedPlane([Vector(x) for x in rng.standard_normal((4, 8))])
        assert abs(float(calib.calibration_value(phi, plane))) <= 1 + 1e-9


def test_calibration_value_degenerate():
    with pytest.raises(DegeneratePlaneError):
        calib.calibration_value(calib.builtin_form("spin7"),
                                OrientedPlane([E[0], E[0], E[1], E[2]]))


def test_cayley_test_verdicts():
    v = calib.cayley_test(M, OrientedPlane(E[:4]))
    assert v.verdict == "cayley+" and v.tau_norm == 0 and v.value == 1
    assert v.criteria_agree
    v = calib.cayley_test(M, OrientedPlane([E[0], E[1], E[2], E[4]]))
    assert v.verdict == "not-cayley" and v.criteria_agree
    m_sl = spin7.build_model(calib.sl_model_form())
    assert calib.cayley_test(m_sl, SL_PLANE).verdict == "cayley+"
    assert calib.cayley_test(m_sl, COMPLEX_PLANE).verdict == "cayley-"


def test_sl_and_complex_plane_tests():
    assert calib.sl_test(SL_PLANE)
    assert not calib.sl_test(COMPLEX_PLANE)
    assert calib.complex_test(COMPLEX_PLANE)
    assert not calib.complex_test(SL_PLANE)
    # second complex plane: span(e1, Je1, e3, Je3) in interleaved slots
    assert calib.complex_test(OrientedPlane([E[0], E[1], E[4], E[5]]))


def _random_su4_rotation(rng) -> np.ndarray:
    """A real 8x8 rotation from a special-unitary generator, interleaved coords."""
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = (A + A.conj().T) / 2
    H -= np.trace(H) / 4 * np.eye(4)
    from scipy.linalg import expm
    U = expm(1j * H)
    R = np.zeros((8, 8))
    R[0::2, 0::2] = U.real
    R[0::2, 1::2] = -U.imag
    R[1::2, 0::2] = U.imag
    R[1::2, 1::2] = U.real
    return R


def test_special_lagrangian_planes_are_cayley_plus():
    rng = np.random.default_rng(42)
    m_sl = spin7.build_model(calib.sl_model_form().as_float())
    base = SL_PLANE.matrix()
    for _ in range(5):
        R = _random_su4_rotation(rng)
        plane = OrientedPlane([Vector(R @ row) for row in base])
        assert calib.sl_test(plane)
        verdict = calib.cayley_test(m_sl, plane)
        assert verdict.verdict == "cayley+" and verdict.criteria_agree


def test_complex_planes_are_cayley_minus():
    rng = np.random.default_rng(43)
    m_sl = spin7.build_model(calib.sl_model_form().as_float())
    J = calib.complex_structure
    for _ in range(5):
        v = Vector(rng.standard_normal(8))
        w = Vector(rng.standard_normal(8))
        plane = OrientedPlane([v, J(v), w, J(w)])
        assert calib.complex_test(plane)
        verdict = calib.cayley_test(m_sl, plane)
        assert verdict.verdict == "cayley-" and verdict.criteria_agree


def test_product_plane_relations():
    g2m = g2.build_g2()
    rng = np.random.default_rng(44)
    theta = E[0]

    def lift_plane(vectors):
        return OrientedPlane([g2.lift_vector(v) for v in vectors])

    # associative 3-planes lift with the circle direction to Cayley planes
    for _ in range(10):
        u, w = OrientedPlane([Vector(rng.standard_normal(7)),
                              Vector(rng.standard_normal(7))]).orthonormal_basis
        tri = [u, w, g2.cross_g2(g2.build_g2(), u, w)]
        assert g2.is_associative(g2m, OrientedPlane(tri))
        lifted = OrientedPlane([theta] + [g2.lift_vector(v) for v in tri])
        assert calib.cayley_test(MF, lifted).verdict == "cayley+"
    # random 3-planes agree between the two criteria
    for _ in range(50):
        tri = [Vector(x) for x in rng.standard_normal((3, 7))]
        assoc = g2.is_associative(g2m, OrientedPlane(tri))
        lifted = OrientedPlane([theta] + [g2.lift_vector(v) for v in tri])
        cay = calib.cayley_test(MF, lifted).verdict != "not-cayley"
        assert assoc == cay
    # coassociative 4-planes viewed in the theta = const slice are Cayley
    for _ in range(50):
        quad = [Vector(x) for x in rng.standard_normal((4, 7))]
        coassoc = g2.is_coassociative(g2m, OrientedPlane(quad))
        sliced = lift_plane(quad)
        cay = calib.cayley_test(MF, sliced).verdict != "not-cayley"
        assert coassoc == cay
    comp = OrientedPlane(E7[3:])
    assert g2.is_coassociative(g2m, comp)
    assert calib.cayley_test(MF, lift_plane(comp.orthonormal_basis)).verdict == "cayley+"


def test_cayley_sweep_matches_sparse_path():
    sweep = calib.CayleySweep(MF)
    rng = np.random.default_rng(45)
    frames = calib.random_orthonormal_frames(rng, 64, 4, 8)
    tau_norms, values = sweep(frames)
    for k in range(0, 64, 7):
        onb = [Vector(frames[k, i]) for i in range(4)]
        t = spin7.tau(MF, *onb).norm()
        v = MF.phi.evaluate(*onb)
        assert abs(t - tau_norms[k]) < 1e-12
        assert abs(v - values[k]) < 1e-12


def test_criteria_agreement_includes_cayley_planes():
    sweep = calib.CayleySweep(MF)
    rng = np.random.default_rng(46)
    random_frames = calib.random_orthonormal_frames(rng, 2000, 4, 8)
    cayley_frames = np.stack([
        np.array([v.to_array() for v in spin7.random_spin7_frame(MF, rng).vectors[:4]])
        for _ in range(5)])
    frames = np.concatenate([random_frames, cayley_frames])
    tau_norms, values = sweep(frames)
    verdict_tau = tau_norms <= calib.TAU_TOL
    verdict_val = np.abs(np.abs(values) - 1) <= calib.AGREEMENT_TOL
    assert (verdict_tau == verdict_val).all()
    assert verdict_tau[-5:].all()  # the constructed planes are calibrated


def test_comass_spin7_small():
    res = calib.comass_estimate(calib.builtin_form("spin7", exact=False),
                                restarts=10, seed=3)
    assert abs(res.value - 1) < 1e-6 and res.converged


def test_comass_decomposable_form_argmax():
    c = calib.CalibrationForm(KForm.monomial(8, 1, 2, 3, 4).as_float(), "blade")
    res = calib.comass_estimate(c, restarts=8, seed=5)
    assert abs(res.value - 1) < 1e-6
    mat = res.plane.matrix()
    assert np.allclose(mat[:, 4:], 0, atol=1e-5)


def test_comass_never_exceeds_one_plus_tol():
    for name in ("spin7", "wirtinger2", "re-omega", "g2-assoc", "g2-coassoc"):
        res = calib.comass_estimate(calib.builtin_form(name, exact=False),
                                    restarts=8, seed=11)
        assert res.value <= 1 + 1e-6


@pytest.mark.parametrize("pages, refused", [(999, True), (1000, False)])
def test_comass_refuses_restarts_beyond_physical_memory(monkeypatch, pages, refused):
    # 1000 spin7 restarts stack 1000 * 8**3 float64, 1000 pages of 4 KB;
    # the figure of memory is faked, so nothing near it is ever allocated
    monkeypatch.setattr(calib.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.__getitem__)

    def start_frames(*args):
        raise AssertionError("the restarts reached _start_frames")

    monkeypatch.setattr(calib, "_start_frames", start_frames)
    c = calib.builtin_form("spin7", exact=False)
    with pytest.raises(MemoryError if refused else AssertionError) as info:
        calib.comass_estimate(c, restarts=1000)
    if refused:
        assert str(info.value) == ("the ascent needs 4096000 bytes, more than the "
                                   "4091904 bytes of physical memory")


def test_comass_deterministic_and_parallel():
    c = calib.builtin_form("wirtinger2", exact=False)
    r1 = calib.comass_estimate(c, restarts=6, seed=9)
    r2 = calib.comass_estimate(c, restarts=6, seed=9)
    r4 = calib.comass_estimate(c, restarts=6, seed=9, jobs=3)
    assert r1.value == r2.value == r4.value
    assert r1.best_restart == r2.best_restart == r4.best_restart
    assert np.array_equal(r1.plane.matrix(), r4.plane.matrix())


def test_comass_matches_norm_on_decomposable_forms():
    # independent oracle: the comass of a decomposable form is its norm
    rng = np.random.default_rng(47)
    vs = [Vector(x) for x in rng.standard_normal((4, 8))]
    form = KForm.monomial(8, 1).as_float()
    from cayley8.multivec import flat
    form = flat(vs[0]).wedge(flat(vs[1])).wedge(flat(vs[2]).wedge(flat(vs[3])))
    res = calib.comass_estimate(calib.CalibrationForm(form, "decomposable"),
                                restarts=12, seed=8)
    assert abs(res.value - float(form.norm())) < 1e-6
    scaled = calib.CalibrationForm(3.0 * KForm.monomial(8, 1), "3dx1")
    res = calib.comass_estimate(scaled, restarts=4, seed=8)
    assert abs(res.value - 3.0) < 1e-6


def test_comass_dualized_argmax_is_coassociative():
    g2m = g2.build_g2()
    res = calib.comass_estimate(calib.builtin_form("g2-coassoc", exact=False),
                                restarts=12, seed=13)
    assert abs(res.value - 1) < 1e-6
    # the ascent stops near a coassociative plane, and phi3 pulls back to
    # first order in that distance: a looser bound than PLANE_TOL
    assert pullback_to_plane(g2m.phi3, res.plane).is_zero(1e-5)


def test_comass_top_degree_is_abs_coefficient():
    # c vol takes |c| on the standard frame, first vector negated when c < 0
    for dim, c in ((8, -3.0), (4, 2.5), (1, Fraction(-1, 2))):
        form = KForm(dim, dim, {tuple(range(1, dim + 1)): c})
        res = calib.comass_estimate(calib.CalibrationForm(form), restarts=3)
        assert res.value == abs(c) and res.converged and res.iterations == 0
        assert calib.calibration_value(calib.CalibrationForm(form), res.plane) == abs(c)
        assert res.plane.matrix()[0, 0] == (-1 if c < 0 else 1)


@pytest.mark.parametrize("tol", [calib.COMASS_TOL, 1e-13])
def test_ascent_on_a_prefix_of_the_stack_is_bit_identical(tol):
    # each restart's arithmetic depends only on its own frame, so ascending
    # the first k frames of a stack gives the first k rows of the full run;
    # the lowest-index tie-break of comass_estimate relies on it
    T = random_form(np.random.default_rng(84), 8, 4).to_dense()
    T /= np.abs(T).max()
    X0 = calib._start_frames(5, 200, 4, 8)
    full = calib._ascend(T, X0, tol)
    for k in (1, 37, 199):
        part = calib._ascend(T, X0[:k], tol)
        for got, ref in zip(part, full):
            assert np.array_equal(got, ref[:k])


def test_comass_rejects_bad_restarts():
    with pytest.raises(ValueError):
        calib.comass_estimate(calib.builtin_form("spin7", exact=False), restarts=0)


def test_plane_and_form_json_roundtrip():
    plane_obj = {"dim": 8, "degree": 4,
                 "vectors": [[1, 0, 0, 0, 0, 0, 0, 0],
                             ["1/2", "1/2", "1/2", "1/2", 0, 0, 0, 0],
                             [0, 0, 1, 0, 0, 0, 0, 0],
                             [0, 0, 0, 1, 0, 0, 0, 0]]}
    plane = calib.load_plane(plane_obj)
    assert plane.degree == 4 and plane.spans[1][1] == Fraction(1, 2)
    form_obj = {"dim": 8, "degree": 4, "name": "custom",
                "terms": [{"blade": [4, 3, 2, 1], "coeff": "2/3"},
                          {"blade": [1, 2, 3, 4], "coeff": "1/3"}]}
    c = calib.load_form(form_obj)
    assert c.form.coeffs == {(1, 2, 3, 4): Fraction(1)}  # reversal is even here
    with pytest.raises(ValueError):
        calib.load_plane({"dim": 8, "degree": 2, "vectors": [[1] * 8]})
    with pytest.raises(ValueError):
        calib.load_form({"dim": 8, "terms": []})
    with pytest.raises(ValueError, match="repeats an index"):
        calib.load_form({"dim": 8, "degree": 4,
                         "terms": [{"blade": [1, 1, 3, 4], "coeff": 1}]})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            calib.load_form({"dim": 8, "degree": 4,
                             "terms": [{"blade": [1, 2, 3, 4], "coeff": bad}]})
        vectors = [row[:] for row in plane_obj["vectors"]]
        vectors[2][5] = bad
        with pytest.raises(ValueError, match="not finite"):
            calib.load_plane({"dim": 8, "degree": 4, "vectors": vectors})
    with pytest.raises(ValueError, match="divides by zero"):
        calib.load_form({"dim": 8, "degree": 4,
                         "terms": [{"blade": [1, 2, 3, 4], "coeff": "1/0"}]})
    with pytest.raises(ValueError, match="not a number"):
        calib.load_plane({"dim": 8, "degree": 1, "vectors": [[None] * 8]})


def test_rational_strings_follow_the_scalar_policy():
    # an exact value is an int when it is integral, a Fraction otherwise
    form = calib.load_form({"dim": 8, "degree": 4, "terms": [
        {"blade": [1, 2, 3, 4], "coeff": "2"}, {"blade": [1, 2, 3, 5], "coeff": "4/2"},
        {"blade": [1, 2, 3, 6], "coeff": "-1/3"}]}).form
    assert {b: type(c) for b, c in form.coeffs.items()} == {
        (1, 2, 3, 4): int, (1, 2, 3, 5): int, (1, 2, 3, 6): Fraction}
    assert form[(1, 2, 3, 5)] == 2 and form[(1, 2, 3, 6)] == Fraction(-1, 3)


def _near_cayley_plane(eps):
    """A random Cayley plane's frame moved by ``eps`` along a fixed direction."""
    rng = np.random.default_rng(5)
    base = np.array([v.to_array() for v in spin7.random_spin7_frame(MF, rng).vectors[:4]])
    return base + eps * rng.standard_normal((4, 8))


@pytest.mark.parametrize("eps", [1e-11, 1e-7, 1e-5, 1e-3])
def test_criteria_agree_near_cayley_planes(eps):
    # |tau| is first order in eps and ||value| - 1| second order, so gating
    # the two separately parts them for eps near 1e-5; the identity
    # value^2 + |tau|^2 = 1 ties them at every distance
    plane = OrientedPlane([Vector(r) for r in _near_cayley_plane(eps)])
    verdict = calib.cayley_test(MF, plane)
    assert verdict.criteria_agree is True
    assert (verdict.verdict == "cayley+") == (eps < calib.TAU_TOL)
    # the point model of dirac gates on the same |tau| bound
    if verdict.verdict == "not-cayley":
        with pytest.raises(dirac.NonCayleyPlaneError):
            dirac.build_cayley_model(MF, plane)
    else:
        dirac.build_cayley_model(MF, plane)


@pytest.mark.parametrize("rows", [
    [E[0], E[1], E[2], E[3]],                                    # Cayley
    [E[0], E[1], E[2], E[4]],                                    # value 0
    [Fraction(3, 5) * E[0] + Fraction(4, 5) * E[4], E[1], E[2], E[3]],
])
def test_cayley_identity_exact_on_rational_planes(rows):
    onb = OrientedPlane(rows).orthonormal_basis
    value = M.phi.evaluate(*onb)
    assert value * value + spin7.tau(M, *onb).norm_sq() == 1
    assert calib.cayley_test(M, OrientedPlane(rows)).criteria_agree is True


@settings(max_examples=40)
@given(hnp.arrays(np.float64, (8, 4), elements=st.floats(-1, 1, allow_nan=False)))
def test_cayley_identity_on_random_float_planes(raw):
    q, r = np.linalg.qr(raw)
    assume(np.abs(np.diag(r)).min() > 1e-3)
    frame = q.T
    verdict = calib.cayley_test(MF, OrientedPlane([Vector(row) for row in frame]))
    assert abs(verdict.value ** 2 + verdict.tau_norm ** 2 - 1) <= 1e-12
    tau_norms, values = calib.CayleySweep(MF)(frame[None])
    assert abs(values[0] ** 2 + tau_norms[0] ** 2 - 1) <= 1e-12


def _outcome(check, *args):
    """``repr`` of what ``check`` returns or of the ValueError it raises:
    equal reprs are equal bits, signed zeros included."""
    try:
        return repr(check(*args))
    except ValueError as exc:
        return repr(exc)


@settings(max_examples=40)
@given(st.data())
def test_float_plane_tests_give_the_same_bits_at_every_scale(data):
    normal = st.floats(-1, 1, allow_subnormal=False)
    rows8 = data.draw(hnp.arrays(np.float64, (4, 8), elements=normal)).tolist()
    rows7 = data.draw(hnp.arrays(np.float64, (3, 7), elements=normal)).tolist()
    exponents = [math.frexp(x)[1] for row in rows8 + rows7 for x in row if x]
    assume(exponents)
    # the scales 2^k that keep every nonzero component normal
    k = data.draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))
    form = calib.builtin_form("spin7", exact=False)
    g2m = g2.build_g2()

    def outcomes(k):
        p8, p7 = (OrientedPlane([Vector(math.ldexp(x, k) for x in row) for row in rows])
                  for rows in (rows8, rows7))
        return [_outcome(calib.cayley_test, MF, p8), _outcome(calib.calibration_value, form, p8),
                _outcome(calib.sl_test, p8), _outcome(calib.complex_test, p8),
                _outcome(g2.is_associative, g2m, p7)]

    assert outcomes(k) == outcomes(0)


def _numpy_plane(rows):
    return OrientedPlane([Vector(r) for r in rows])


@pytest.mark.parametrize("check", [
    lambda: g2.is_associative(g2.build_g2(), _numpy_plane(np.eye(7)[:3])),
    lambda: g2.is_coassociative(g2.build_g2(), _numpy_plane(np.eye(7)[3:])),
    lambda: calib.sl_test(_numpy_plane(np.eye(8)[[0, 2, 4, 6]])),
    lambda: calib.complex_test(_numpy_plane(np.eye(8)[:4])),
    lambda: calib.cayley_test(MF, _numpy_plane(np.eye(8)[:4])).criteria_agree,
    lambda: spin7.is_spin7_frame(MF, spin7.Frame8(tuple(Vector(r) for r in np.eye(8))))[0],
], ids=["is_associative", "is_coassociative", "sl_test", "complex_test",
        "criteria_agree", "is_spin7_frame"])
def test_predicates_return_bool_on_numpy_components(check):
    # np.float64 components must not leak numpy.bool, which json.dumps rejects
    result = check()
    assert type(result) is bool and result


# -- exact constants against their float copies ---------------------------------------

#: The package's exact constant forms; floating callers convert them with ``as_float``.
EXACT_CONSTANTS = ([calib.builtin_form(name).form for name in calib.BUILTIN_FORMS]
                   + [calib.sl_model_form(), calib.coassoc_model_form(),
                      calib.kaehler_form(), calib.im_omega(), KForm.volume(8)]
                   + dirac.plane_asd_basis())

_ENTRY = st.floats(-1e6, 1e6, allow_nan=False)


def _float_vectors(data, count, dim):
    rows = data.draw(hnp.arrays(np.float64, (count, dim), elements=_ENTRY))
    return [Vector(row.tolist()) for row in rows]


@settings(max_examples=30)
@given(st.data())
def test_exact_constants_pull_back_like_their_float_copies(data):
    for form in EXACT_CONSTANTS:
        vs = _float_vectors(data, data.draw(st.integers(form.degree, form.dim)), form.dim)
        got, want = pullback(form, vs), pullback(form.as_float(), vs)
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is float for c in got.coeffs.values())


@settings(max_examples=30)
@given(st.data())
def test_exact_g2_cross_product_equals_the_float_contraction(data):
    g2m = g2.build_g2()
    u, w = _float_vectors(data, 2, 7)
    got = g2.cross_g2(g2m, u, w)
    want = sharp(g2m.phi3.as_float().contract(u).contract(w))
    # sharp reads an absent coefficient as the int 0 in both
    assert [(type(x), x) for x in got.components] == [(type(x), x) for x in want.components]
