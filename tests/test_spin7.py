"""Structure form, cross products, splittings, frames, certificate."""

import json
import math
import sys
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cayley8 import _linalg, calib, cli, spin7
from cayley8.multivec import (DEFAULT_TOL, DegreeError, DimensionError, KForm,
                              OrientedPlane, Vector, blades, flat, is_exact, is_zero,
                              pullback, random_form, random_vector, scalar, sharp)

E = [Vector.basis(8, i) for i in range(1, 9)]
M = spin7.standard_model(exact=True)
MF = spin7.standard_model(exact=False)


def _lambda4_dims(m):
    """The dimensions of the model's four 4-form summand bases."""
    return tuple(len(m.lambda4_forms(k)) for k in (1, 7, 27, 35))


def _lambda4_check(m):
    """The ``lambda4 dims`` check of the model's own certificate."""
    return next(c for c in spin7.is_spin7_form(m.phi).checks if c.name == "lambda4 dims")


def test_phi0_coefficients():
    phi = spin7.phi0()
    assert phi[(1, 2, 3, 4)] == 1
    assert phi[(1, 2, 7, 8)] == -1
    assert len(phi.coeffs) == 14
    assert all(abs(c) == 1 for c in phi.coeffs.values())


def test_build_model_spectrum_and_dims():
    assert M.lambda2_eigenvalues() == {-3.0: 7, 1.0: 21}
    assert _lambda4_dims(M) == _lambda4_dims(MF) == (1, 7, 27, 35)
    # independent check: trace of the projection pi7 = (id - L)/4 equals 7
    op = np.array([[float(x) for x in row] for row in M.lambda2_op])
    assert abs((np.eye(28) - op).trace() / 4 - 7) < 1e-12
    evals = np.linalg.eigvalsh(op)
    assert np.allclose(sorted(evals)[:7], -3, atol=1e-10)
    assert np.allclose(sorted(evals)[7:], 1, atol=1e-10)


def test_lambda4_summands_pairwise_orthogonal():
    forms = {k: M.lambda4_forms(k) for k in (1, 7, 27, 35)}
    keys = list(forms)
    for i, ki in enumerate(keys):
        for kj in keys[i + 1:]:
            for a in forms[ki]:
                for b in forms[kj]:
                    assert a.inner(b) == 0


def test_build_model_rejects_decomposable_form():
    with pytest.raises(spin7.Spin7StructureError) as err:
        spin7.build_model(KForm.monomial(8, 1, 2, 3, 4))
    failing = [c.name for c in err.value.certificate.checks if not c.passed]
    assert "lambda2 spectrum" in failing


def test_proj2_7_matches_cross2():
    a = KForm.monomial(8, 1, 5)
    assert (2 * spin7.proj2_7(M, a)).approx_equal(
        spin7.cross2(M, E[0], E[4]))


@pytest.mark.parametrize("a, error", [
    (KForm.monomial(8, 1), DegreeError),
    (KForm.monomial(8, 1, 2, 3), DegreeError),
    (KForm.monomial(8, 1, 2, 3, 4), DegreeError),
    (KForm.monomial(7, 1, 2), DimensionError),
])
def test_proj2_7_and_cross2_take_only_2_forms_on_r8(a, error):
    with pytest.raises(error):
        spin7.proj2_7(M, a)
    with pytest.raises(DimensionError):
        spin7.cross2(M, Vector([1, 0, 0, 0, 0, 0, 0]), Vector([0, 1, 0, 0, 0, 0, 0]))


def test_projections_idempotent_and_resolve():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = random_form(rng, 8, 2, bound=5)
        p7 = spin7.proj2_7(M, a)
        p21 = spin7.proj2_21(M, a)
        assert spin7.proj2_7(M, p7).approx_equal(p7)
        assert spin7.proj2_21(M, p21).approx_equal(p21)
        assert (p7 + p21).approx_equal(a)
        assert p7.inner(p21) == 0


def test_cross2_table_all_twelve_equalities():
    table = [
        ((1, 5), [(1, (2, 6)), (1, (3, 7)), (1, (4, 8))]),
        ((1, 6), [(-1, (2, 5)), (1, (3, 8)), (-1, (4, 7))]),
        ((1, 7), [(-1, (2, 8)), (-1, (3, 5)), (1, (4, 6))]),
        ((1, 8), [(1, (2, 7)), (-1, (3, 6)), (-1, (4, 5))]),
    ]
    phi = M.phi
    count = 0
    for (i, j), rhs in table:
        lead = spin7.cross2(M, E[i - 1], E[j - 1])
        for sign, (k, l) in rhs:
            other = spin7.cross2(M, E[k - 1], E[l - 1])
            assert lead.approx_equal(sign * other)
            # sign rule: e_i x e_j = s e_k x e_l iff phi(ei,ej,ek,el) = -s
            assert phi.evaluate(E[i - 1], E[j - 1], E[k - 1], E[l - 1]) == -sign
            count += 1
    assert count == 12


def test_cross2_antisymmetric_and_norm():
    rng = np.random.default_rng(11)
    for _ in range(60):
        v, w = random_vector(rng, 8, bound=5), random_vector(rng, 8, bound=5)
        assert spin7.cross2(M, v, v).is_zero()
        c = spin7.cross2(M, v, w)
        assert c.norm_sq() == flat(v).wedge(flat(w)).norm_sq()


def test_inner_cross2_identity_exact():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a, b, c, d = (random_vector(rng, 8, bound=5) for _ in range(4))
        lhs = spin7.cross2(M, a, b).inner(spin7.cross2(M, c, d))
        rhs = (-M.phi.evaluate(a, b, c, d) + a.dot(c) * b.dot(d)
               - a.dot(d) * b.dot(c))
        assert lhs == rhs


def test_inner_cross2_identity_vectorized_1000():
    sweep = calib.CayleySweep(MF)
    rng = np.random.default_rng(13)
    vs = rng.standard_normal((1000, 4, 8))
    a, b, c, d = (vs[:, k, :] for k in range(4))
    idx_i, idx_j = (np.array([bl[k] - 1 for bl in blades(8, 2)]) for k in (0, 1))

    def wedge2(x, y):
        return x[:, idx_i] * y[:, idx_j] - x[:, idx_j] * y[:, idx_i]

    wab = wedge2(a, b)
    wcd = wedge2(c, d)
    # cross2 = 2 pi7(wedge); pi7 self-adjoint idempotent, so
    # <cross2(a,b), cross2(c,d)> = 4 <pi7 wab, pi7 wcd> = 4 <wab, pi7 wcd>
    lhs = 4 * np.einsum('nk,kl,nl->n', wab, sweep.p7, wcd)
    phi_v = np.einsum('ijkl,ni,nj,nk,nl->n', sweep.T4, a, b, c, d)

    def g(x, y):
        return np.einsum('ni,ni->n', x, y)

    rhs = -phi_v + g(a, c) * g(b, d) - g(a, d) * g(b, c)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_cross3_frame_identities():
    assert (-1 * spin7.cross3(M, E[0], E[1], E[2])).components == E[3].components
    assert spin7.cross3(M, E[0], E[0], E[1]).norm_sq() == 0


def test_cross3_norm_and_alternating():
    rng = np.random.default_rng(14)
    for _ in range(60):
        u, v, w = (random_vector(rng, 8, bound=5) for _ in range(3))
        c = spin7.cross3(M, u, v, w)
        triple = flat(u).wedge(flat(v)).wedge(flat(w))
        assert c.norm_sq() == triple.norm_sq()
        assert (spin7.cross3(M, v, u, w) + c).norm_sq() == 0


def test_tau_examples():
    assert spin7.tau(M, E[0], E[1], E[2], E[3]).is_zero()
    assert not spin7.tau(M, E[0], E[1], E[2], E[4]).is_zero()


def test_tau_alternating_and_inner_identity():
    rng = np.random.default_rng(15)
    for _ in range(40):
        a, b, c, d, v, w = (random_vector(rng, 8, bound=5) for _ in range(6))
        t = spin7.tau(M, a, b, c, d)
        assert (spin7.tau(M, b, a, c, d) + t).is_zero()
        lhs = t.inner(spin7.cross2(M, v, w))
        rhs = (flat(w).wedge(M.phi.contract(v))
               - flat(v).wedge(M.phi.contract(w))).evaluate(a, b, c, d)
        assert lhs == rhs


def test_lambda4_7_generators_self_dual_and_in_summand():
    basis4 = blades(8, 4)
    seven = M.lambda4_forms(7)
    rng = np.random.default_rng(16)
    for _ in range(10):
        v, w = random_vector(rng, 8, bound=5), random_vector(rng, 8, bound=5)
        gen = flat(w).wedge(M.phi.contract(v)) - flat(v).wedge(M.phi.contract(w))
        assert gen.hodge().approx_equal(gen)
        # expansion in the 7-summand basis reproduces the generator
        rows = [[f.coeffs.get(b, 0) for b in basis4] for f in seven]
        target = [gen.coeffs.get(b, 0) for b in basis4]
        grams = [[sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows]
        # the basis rows are orthogonal, so the Gram system is diagonal
        assert all(grams[i][j] == 0 for i in range(7) for j in range(7) if i != j)
        rhs = [sum(x * y for x, y in zip(r, target)) for r in rows]
        coeffs = [Fraction(b) / grams[k][k] for k, b in enumerate(rhs)]
        recon = [sum(c * rows[k][i] for k, c in enumerate(coeffs))
                 for i in range(len(basis4))]
        assert recon == target


def test_cross2_image_has_zero_21_component():
    rng = np.random.default_rng(17)
    for _ in range(40):
        v, w = random_vector(rng, 8, bound=5), random_vector(rng, 8, bound=5)
        assert spin7.proj2_21(M, spin7.cross2(M, v, w)).is_zero()


def test_is_spin7_frame_examples():
    frame = spin7.Frame8(tuple(E))
    assert spin7.is_spin7_frame(M, frame)[0]
    swapped = spin7.Frame8((E[1], E[0]) + tuple(E[2:]))
    assert not spin7.is_spin7_frame(M, swapped)[0]
    scaled = spin7.Frame8((2 * E[0],) + tuple(E[1:]))
    assert not spin7.is_spin7_frame(M, scaled)[0]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("degree", [3, 4])
def test_pullback_through_frame_matches_per_blade_evaluate(exact, degree):
    # shared contraction prefixes give each coefficient the chain that
    # evaluate computes, so the pullback through the eight frame vectors is
    # equal, exact and float alike
    rng = np.random.default_rng(23 + degree)
    phi = random_form(rng, 8, degree, bound=5 if exact else None)
    for _ in range(2):
        vecs = tuple(random_vector(rng, 8, bound=5 if exact else None) for _ in range(8))
        pulled = pullback(phi, spin7.Frame8(vecs).vectors)
        ref = {b: phi.evaluate(*(vecs[i - 1] for i in b)) for b in blades(8, degree)}
        ref = {b: v for b, v in ref.items() if v != 0}
        assert list(pulled.coeffs.items()) == list(ref.items())
        assert all(is_exact([c]) == exact for c in pulled.coeffs.values())


def test_complete_frame_standard():
    frame = spin7.complete_frame(M, E[0], E[1], E[2], E[4])
    for got, expect in zip(frame.vectors, E):
        assert got.components == expect.components


def test_complete_frame_random_admissible():
    rng = np.random.default_rng(18)
    for _ in range(5):
        frame = spin7.random_spin7_frame(MF, rng)
        ok, report = spin7.is_spin7_frame(MF, frame)
        assert ok, report


def test_random_spin7_frame_fails_at_once(monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise spin7.FramePreconditionError("e5 is not orthogonal to e1 x e2 x e3")

    monkeypatch.setattr(spin7, "complete_frame", refuse)
    with pytest.raises(spin7.FramePreconditionError, match="e1 x e2 x e3"):
        spin7.random_spin7_frame(MF, np.random.default_rng(0))
    assert len(calls) == 1


def test_random_spin7_frame_draws_four_normal_vectors():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    spin7.random_spin7_frame(MF, rng)
    for _ in range(4):
        ref.standard_normal(8)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_complete_frame_rejects_bad_e5():
    with pytest.raises(spin7.FramePreconditionError, match="e1 x e2 x e3"):
        spin7.complete_frame(M, E[0], E[1], E[2], E[3])
    with pytest.raises(spin7.FramePreconditionError, match="unit"):
        spin7.complete_frame(M, 2 * E[0], E[1], E[2], E[4])


def test_is_spin7_form_certificates():
    assert spin7.is_spin7_form(spin7.phi0()).passed
    assert spin7.is_spin7_form(calib.sl_model_form()).passed
    assert spin7.is_spin7_form(calib.coassoc_model_form()).passed
    bad = spin7.is_spin7_form(KForm.monomial(8, 1, 2, 3, 4))
    assert not bad.passed


def test_certificate_residuals():
    # exact passes carry residual exactly 0; each failure carries its size
    for check in spin7.is_spin7_form(spin7.phi0()).checks:
        assert check.residual == 0.0 and type(check.residual) is float
    bad = {c.name: c for c in spin7.is_spin7_form(KForm.monomial(8, 1, 2, 3, 4)).checks}
    assert bad["self-dual"].residual == 1.0   # star(e^1234) - e^1234 = e^5678 - e^1234
    assert bad["norm"].residual == 13.0
    # L swaps e^56 with e^78 (and so on) by signs and is 0 on the other 22
    # 2-blades: |(L+3)(L-1)|^2 = 6*4 + 6*4 + 22*9 = 246, |L+3|^2 = 258, |L-1|^2 = 34
    assert bad["lambda2 spectrum"].residual == math.sqrt(246 / (258 * 34))
    # each generator of e^1234 vanishes on the dual of every blade it meets,
    # so the self-dual identity reads |G| / |G| = 1
    assert bad["lambda4 dims"].residual == 1.0
    perturbed = MF.phi + 0.05 * KForm.monomial(8, 1, 2, 3, 5)
    sd = spin7.is_spin7_form(perturbed).checks[0]
    assert not sd.passed and abs(sd.residual - 0.05) < 1e-15
    assert spin7.is_spin7_form(spin7.phi0()).checks[0].as_dict() == {
        "name": "self-dual", "passed": True, "residual": 0.0,
        "detail": "star(phi) == phi"}


#: phi0 pulled back through an SO(8) rotation plus 1.0064e-8 (e^4578 + e^1236),
#: the 70 coefficients in lexicographic blade order.  LAPACK's
#: divide-and-conquer SVD does not converge on its ``L + 3``, so a
#: certificate that read kernel dimensions from SVDs raised on it.
SVD_TRAP = [
    0.0379414684784521, 0.23109849384856737, 0.3752810953191294, -0.16155128283305797,
    0.8821673430676508, -0.716532241582248, 0.5046988808483882, -0.4666634847791282,
    -0.11245542844613171, 0.4158133838258402, 0.49662997780771967, -0.116760129702102,
    0.6105431144205552, 0.2424448019338852, 0.36975957805734516, -0.655051439110109,
    -0.4682874090916581, 0.3926490950275737, 0.44272073336328377, -0.42373534748269054,
    -0.5795145188078985, 0.045960592307677024, 0.6784332699239007, -0.006903846010152294,
    0.15368504136783612, -0.18799128792200798, -0.14872034427035086, -0.0055401948005408,
    -0.39067756658472325, 0.5813916552458168, 0.6732794206831031, -0.10813580654867952,
    -0.774928066424568, 0.619443697341194, 0.051410991076979426, 0.05141099107697937,
    -0.6194436973411936, -0.7749280664245675, 0.10813580654868002, 0.673279420683103,
    -0.5813916552458165, -0.39067756658472313, -0.0055401948005412115, 0.14872034427035108,
    -0.18799128792200828, -0.1536850413678364, -0.006903846010151598, -0.6784332699239013,
    -0.04596059230767651, -0.5795145188078987, 0.42373534748269015, 0.4427207333632831,
    -0.3926490950275737, -0.46828740909165795, 0.6550514391101083, 0.369759578057345,
    -0.2424448019338851, 0.6105431144205559, -0.11676012970210223, -0.4966299778077198,
    0.4158133838258398, 0.1124554284461316, -0.46666348477912867, -0.5046988808483874,
    -0.7165322415822473, 0.8821673430676509, 0.1615512828330577, 0.37528109531912934,
    -0.23109849384856743, 0.0379414684784526,
]


def test_certificate_and_plane_survive_a_form_that_stalls_the_svd(tmp_path, capsys):
    form = KForm(8, 4, dict(zip(blades(8, 4), SVD_TRAP)))
    spin7._certify.cache_clear()
    checks = {c.name: c for c in spin7.is_spin7_form(form).checks}
    # |phi|^2 = 14 + 1.5e-8, and each identity is off by about 1e-9 of its scale
    assert [name for name, c in checks.items() if not c.passed] == [
        "norm", "lambda2 spectrum", "lambda4 dims"]
    form_path, plane_path = tmp_path / "form.json", tmp_path / "plane.json"
    form_path.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": list(b), "coeff": c} for b, c in zip(blades(8, 4), SVD_TRAP)]}))
    plane_path.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": [
        [1 if j == i else 0 for j in range(8)] for i in range(4)]}))
    spin7._certify.cache_clear()
    assert cli.main(["plane", "--form", str(form_path), "--vectors", str(plane_path)]) in (0, 1)
    assert "input error" not in capsys.readouterr().err


def _kernel_dimension_verdict(phi: KForm) -> bool:
    """The certificate as it read kernel dimensions and ranks, kept as the
    SVD reference: self-duality and norm 14 as ``spin7`` checks them, then
    kernels of dimensions 7 and 21 of ``L + 3`` and ``L - 1`` at
    ``EIGEN_CLUSTER_TOL``, rank 7 of the generators and 27 self-dual forms
    orthogonal to phi and to them, at ``SINGULAR_TOL``.  It stops at the
    first failing check, so no SVD runs on a form the first two refuse."""
    if not ((phi.hodge() - phi).is_zero(DEFAULT_TOL)
            and is_zero(phi.norm_sq() - 14, 100 * DEFAULT_TOL)):
        return False
    op = _lambda2_columns(phi, is_exact(phi.coeffs.values()))
    for lam, dim in spin7.LAMBDA2_SPECTRUM.items():
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(op)]
        if len(_linalg.nullspace(shifted, spin7.EIGEN_CLUSTER_TOL)) != dim:
            return False
    basis4 = blades(8, 4)
    rows = [[f.coeffs.get(b, 0) for b in basis4]
            for f in [phi] + spin7._lambda4_7_generators(phi)]
    sd = _linalg.nullspace([[con[i] + sign * con[j] for i, j, sign in spin7._self_dual_pairs()]
                            for con in rows])
    return (70 - len(_linalg.nullspace(rows[1:])), len(sd)) == (7, 27)


def _rotated_phi0(raw) -> KForm:
    """The float phi0 pulled back through the rotation of the QR of ``raw``
    (any orthogonal matrix; a det of -1 is flipped to +1)."""
    q, _ = np.linalg.qr(raw)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return pullback(MF.phi, [Vector(q[:, j]) for j in range(8)])


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (8, 8), elements=st.floats(-1, 1)),
       st.sampled_from(blades(8, 4)), st.booleans(),
       st.sampled_from([0.0, 1e-15, 1e-14, 1e-13, 1e-7, 1e-6, 1e-4, 1e-2]))
def test_identity_and_kernel_certificates_agree_away_from_the_gate(raw, blade, dual, eps):
    # a rotated phi0 passes, and so does a perturbation eps (e^b + star e^b)
    # or eps e^b up to eps = 1e-13; from 1e-7 on, both refuse it
    e = KForm(8, 4, {blade: 1.0})
    form = _rotated_phi0(raw) + eps * (e + e.hodge() if dual else e)
    want = eps <= 1e-13
    assert spin7.is_spin7_form(form).passed is want
    assert _kernel_dimension_verdict(form) is want


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("make", [spin7.phi0, calib.sl_model_form, calib.coassoc_model_form])
def test_model_forms_satisfy_every_identity_exactly(make, exact):
    form = make() if exact else make().as_float()
    spin7._certify.cache_clear()
    cert = spin7.is_spin7_form(form)
    assert cert.passed and [c.residual for c in cert.checks] == [0.0] * 4
    assert _kernel_dimension_verdict(form)


@given(st.sampled_from(sorted(spin7.PHI0_TERMS)), st.booleans())
def test_a_sign_flip_in_phi0_fails_the_identities(blade, with_dual):
    # flipping a blade together with its dual keeps phi self-dual and of
    # norm 14: then the identities alone refuse it
    terms = dict(spin7.PHI0_TERMS)
    for b in [blade, tuple(i for i in range(1, 9) if i not in blade)][:1 + with_dual]:
        terms[b] = -terms[b]
    checks = {c.name: c for c in spin7.is_spin7_form(KForm(8, 4, terms)).checks}
    assert checks["self-dual"].passed is with_dual and checks["norm"].passed
    assert not checks["lambda2 spectrum"].passed and not checks["lambda4 dims"].passed


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(blades(8, 4)),
                       st.floats(allow_nan=False, allow_infinity=False), max_size=70))
def test_the_certificate_never_raises_on_a_finite_form(terms):
    cert = spin7.is_spin7_form(KForm(8, 4, terms))
    assert cert.passed is all(c.passed for c in cert.checks)


@pytest.mark.parametrize("residual, exact, passed", [
    (0, True, True), (0.0, True, True),
    (Fraction(1, 10 ** 20), True, False),   # an exact check passes only at 0
    (1e-11, False, True), (1e-10, False, True), (1e-9, False, False),
    (float("nan"), False, False), (float("nan"), True, False),
    pytest.param(10 ** 400, True, False, id="int-beyond-float-True-False"),
    pytest.param(Fraction(10 ** 400, 3), False, False, id="fraction-beyond-float-False-False"),
    (float("inf"), False, False),
])
def test_judge_is_the_one_verdict_rule(residual, exact, passed):
    report = spin7.CheckResult.judge("check", [residual], exact, "detail")
    assert report.passed is passed and type(report.residual) is float
    assert report.name == "check"
    # nan, or beyond float range: recorded as the largest float, with the reason
    if residual != residual or residual > sys.float_info.max:
        word = "nan" if residual != residual else "inf"
        assert report.residual == sys.float_info.max
        assert report.detail == f"residual not finite as a float ({word}); detail"
    else:
        assert report.detail == "detail"


_RESIDUAL = st.one_of(st.floats(min_value=0, allow_nan=False),
                      st.fractions(min_value=0), st.integers(0, 10 ** 400))


@settings(max_examples=100)
@given(st.lists(_RESIDUAL, max_size=6), st.data())
def test_judge_records_the_max_unless_a_nan_comes(residuals, data):
    try:
        worst = float(max(residuals, default=0.0))
    except OverflowError:
        worst = math.inf
    for exact in (True, False):
        report = spin7.CheckResult.judge("check", residuals, exact, "")
        # the float of the very value max returns, bit for bit; beyond float
        # range, the largest float
        expected = worst if math.isfinite(worst) else sys.float_info.max
        assert report.residual.hex() == expected.hex()
        if exact:
            assert report.passed is (worst == 0)
    assert spin7.CheckResult.judge("check", [], True, "").residual.hex() == (0.0).hex()
    at = data.draw(st.integers(0, len(residuals)))
    with_nan = residuals[:at] + [float("nan")] + residuals[at:]
    for exact in (True, False):
        report = spin7.CheckResult.judge("check", with_nan, exact, "")
        assert not report.passed
        # a check of several residuals names the worst one's position
        where = f"; worst at residual {at + 1} of {len(with_nan)}" if residuals else ""
        assert report.detail == "residual not finite as a float (nan)" + where


def test_a_nan_residual_fails_its_verify_row():
    # 1e200 fits a float, but inner-tau's first left side is inf - inf = nan,
    # which max(worst, nan) used to drop before CheckResult.judge saw it
    from cayley8 import verify
    outcomes, summary = verify.run_suite(exact=True, trials=0,
                                         form=KForm(8, 4, {(1, 2, 3, 4): 1e200}))
    row = next(o for o in outcomes if o.name == "inner-tau")
    assert not row.passed and row.residual == sys.float_info.max
    assert row.detail.startswith("residual not finite as a float (nan)")
    assert "inner-tau" in summary["failed_names"]


def test_an_exact_residual_below_float_range_fails_its_row():
    tiny = Fraction(1, 10 ** 400)
    assert spin7.form_residual(KForm(8, 4, {(1, 2, 3, 5): -tiny})) == tiny
    assert spin7.form_residual(KForm.zero(8, 4)) == 0
    from cayley8 import verify
    form = spin7.phi0() + KForm(8, 4, {(1, 2, 3, 5): tiny})
    outcomes, _ = verify.run_suite(exact=True, trials=0, form=form)
    row = next(o for o in outcomes if o.name == "star(phi) == phi")
    # judged on the exact residual; the record holds its float, 0.0
    assert not row.passed and row.residual == 0.0
    self_dual = spin7.is_spin7_form(form).checks[0]
    assert not self_dual.passed and type(self_dual.residual) is float


@pytest.mark.parametrize("a, b", [
    (np.eye(8)[0], np.eye(8)[1]),                 # unpivoted QR keeps 1 column
    (np.arange(1.0, 9.0), np.eye(8)[3]),          # ... or 2 that miss b
])
def test_orthonormal_columns_is_rank_revealing(a, b):
    q = _linalg.orthonormal_columns(np.column_stack([a, a, b]))
    assert q.shape == (8, 2)
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
    for v in (a, b):
        assert np.linalg.norm(v - q @ (q.T @ v)) < 1e-12 * np.linalg.norm(v)


def test_stabilizer_algebra_annihilates_phi():
    for beta in M.lambda2_21_forms():
        assert spin7.infinitesimal_action(M.phi, beta).is_zero()
    for beta in M.lambda2_7_forms():
        assert not spin7.infinitesimal_action(M.phi, beta).is_zero()


def test_certificate_invariant_under_rotations():
    # the rotation orbit of the structure form stays certified; a small
    # generic perturbation breaks self-duality and must fail
    from scipy.linalg import expm
    rng = np.random.default_rng(77)
    for _ in range(3):
        A = rng.standard_normal((8, 8))
        R = expm(A - A.T)
        pulled = pullback(MF.phi, [Vector(R[:, j]) for j in range(8)])
        cert = spin7.is_spin7_form(pulled)
        assert cert.passed, cert.checks
        model = spin7.build_model(pulled)
        assert _lambda4_dims(model) == (1, 7, 27, 35)
    perturbed = MF.phi + 0.05 * KForm.monomial(8, 1, 2, 3, 5)
    assert not spin7.is_spin7_form(perturbed).passed


def test_stabilizer_rotations_preserve_pullback():
    from scipy.linalg import expm
    rng = np.random.default_rng(19)
    basis21 = MF.lambda2_21_forms()
    for _ in range(5):
        coeffs = rng.standard_normal(len(basis21))
        beta = sum((float(c) * f for c, f in zip(coeffs, basis21)),
                   KForm.zero(8, 2))
        B = np.array([[beta[(i, j)] for j in range(1, 9)] for i in range(1, 9)],
                     dtype=float)
        R = expm(0.3 * B)
        frame = spin7.Frame8(tuple(Vector(R[:, j]) for j in range(8)))
        ok, report = spin7.is_spin7_frame(MF, frame)
        assert ok, report


def _count_exact_certifications(monkeypatch):
    """Clear the certify cache and count exact spectrum checks from now on."""
    spin7._certify.cache_clear()
    calls = []
    check = spin7._check_lambda2_spectrum

    def counting(op, exact):
        if exact:
            calls.append(1)
        return check(op, exact)

    monkeypatch.setattr(spin7, "_check_lambda2_spectrum", counting)
    return calls


def _suite_certify_misses(exact: bool) -> int:
    """Certify-cache misses of one fresh suite that passes."""
    from cayley8 import verify
    spin7._certify.cache_clear()
    outcomes, summary = verify.run_suite(exact=exact, seed=0, trials=2)
    assert summary["failed"] == 0
    return spin7._certify.cache_info().misses


def test_exact_suite_certifies_each_form_once():
    # phi0 and the SL form: the sweep row reads the suite's exact model, so
    # no float copy of phi0 is certified
    assert _suite_certify_misses(exact=True) == 2


def test_float_suite_certifies_each_form_once():
    assert _suite_certify_misses(exact=False) == 2


def test_certify_cache_keys_on_coefficients(monkeypatch):
    calls = _count_exact_certifications(monkeypatch)
    assert spin7.is_spin7_form(spin7.phi0()).passed
    assert _lambda4_dims(spin7.standard_model(exact=True)) == (1, 7, 27, 35)
    # coassoc_model_form builds phi0 from the slice data: same coefficients
    assert spin7.is_spin7_form(calib.coassoc_model_form()).passed
    assert len(calls) == 1
    # equal values in float mode are a different key (1 == 1.0)
    assert not spin7.standard_model(exact=False).exact


def test_failing_form_raises_on_every_call():
    bad = KForm.monomial(8, 1, 2, 3, 4)
    for _ in range(2):
        with pytest.raises(spin7.Spin7StructureError) as err:
            spin7.build_model(bad)
        assert not err.value.certificate.passed
        assert not spin7.is_spin7_form(bad).passed


SUMMANDS = ((2, 7), (2, 21), (4, 1), (4, 7), (4, 27), (4, 35))


def _read_summand(m, degree, dim):
    """One summand's forms through the public accessors."""
    if degree == 2:
        return m.lambda2_7_forms() if dim == 7 else m.lambda2_21_forms()
    return m.lambda4_forms(dim)


def test_summand_bases_are_built_once_on_first_read(monkeypatch):
    orthogonalize = _linalg.orthogonalize
    calls = []

    def counting(rows, *args, **kwargs):
        calls.append(len(rows))
        return orthogonalize(rows, *args, **kwargs)

    monkeypatch.setattr(_linalg, "orthogonalize", counting)
    # a fresh exact certificate reads only dimensions: no Gram-Schmidt
    spin7._certify.cache_clear()
    m = spin7.standard_model(exact=True)
    assert _lambda4_check(m).passed and calls == []
    assert sorted(m.bases) == sorted(SUMMANDS)
    assert all(callable(rows) for rows in m.bases.values())
    # each basis is built on its first read; the phi row and the
    # anti-self-dual rows are orthogonal by construction
    built = {}
    for key in SUMMANDS:
        before = len(calls)
        assert len(_read_summand(m, *key)) == key[1]
        assert len(calls) - before == (0 if key in ((4, 1), (4, 35)) else 1)
        built[key] = m.bases[key]
        assert not callable(built[key])
    # a second read and a second model of the same form rebuild nothing
    again = spin7.build_model(spin7.phi0())
    for key in SUMMANDS:
        assert len(_read_summand(again, *key)) == key[1]
        assert again.bases[key] is built[key]
    assert len(calls) == 4
    monkeypatch.undo()

    got = [[f.coeffs.get(b, 0) for b in blades(8, 4)] for f in m.lambda4_forms(27)]
    # the eager construction: self-dual forms orthogonal to phi and to the
    # 7-summand, from 70-term dot products, lifted and orthogonalised
    basis4 = blades(8, 4)
    sd_rows = []
    for b in basis4:
        [(comp, sign)] = KForm(8, 4, {b: 1}).hodge().coeffs.items()
        if b < comp:
            sd_rows.append([1 if x == b else sign if x == comp else 0 for x in basis4])
    constraints = [[m.phi.coeffs.get(b, 0) for b in basis4]] + [
        [f.coeffs.get(b, 0) for b in basis4] for f in m.lambda4_forms(7)]
    coords = _linalg.nullspace(
        [[sum(c * s for c, s in zip(con, sd)) for sd in sd_rows] for con in constraints])
    eager = _linalg.orthogonalize(
        [[sum(x * sd_rows[k][c] for k, x in enumerate(vec)) for c in range(70)]
         for vec in coords])
    assert got == eager and len(got) == 27
    assert m.lambda4_forms(27) == spin7.standard_model(exact=True).lambda4_forms(27)


@pytest.mark.parametrize("exact", [True, False])
def test_summand_bases_are_orthogonal_rows(exact):
    m = spin7.standard_model(exact=exact)
    for key in SUMMANDS:
        _read_summand(m, *key)
        rows = m.bases[key]
        assert len(rows) == key[1]
        assert exact == is_exact(x for row in rows for x in row)
        for i, a in enumerate(rows):
            assert sum(x * x for x in a) > 0.5
            for b in rows[i + 1:]:
                dot = sum(x * y for x, y in zip(a, b))
                assert dot == 0 if exact else abs(dot) < 1e-12


_UNIT_ENTRY = st.floats(-1, 1, allow_nan=False, allow_infinity=False)


@settings(max_examples=15)
@given(hnp.arrays(np.float64, (8, 8), elements=_UNIT_ENTRY))
def test_certificate_and_cayley_verdicts_invariant_under_so8(raw):
    # Q^T phi0 is certified, and the plane Q^T V is Cayley for it with the
    # verdict V has for phi0; QR of any matrix is orthogonal, det -1 flips
    q, _ = np.linalg.qr(raw)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    pulled = pullback(MF.phi, [Vector(q[:, j]) for j in range(8)])
    assert spin7.is_spin7_form(pulled).passed
    model = spin7.build_model(pulled)
    for idx in ((1, 2, 3, 4), (1, 2, 4, 3), (1, 2, 3, 5), (3, 4, 7, 8), (1, 3, 5, 6)):
        want = calib.cayley_test(MF, OrientedPlane([E[i - 1] for i in idx])).verdict
        plane = OrientedPlane([Vector(q[i - 1]) for i in idx])
        assert calib.cayley_test(model, plane).verdict == want
    perturbed = pulled + 0.05 * KForm.monomial(8, 1, 2, 3, 5)
    assert not spin7.is_spin7_form(perturbed).passed


_SMALL_EXACT = st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=6))


def _random_form(data, degree, exact):
    """A random degree-``degree`` form on R^8; generically not self-dual."""
    coeff = _SMALL_EXACT if exact else _UNIT_ENTRY
    terms = data.draw(st.dictionaries(st.sampled_from(blades(8, degree)), coeff,
                                      max_size=24))
    return KForm(8, degree, terms)


def _lambda2_columns(phi, exact):
    """The operator column by column: column l is star(e^l ^ phi)."""
    basis2 = blades(8, 2)
    cols = [KForm(8, 2, {b: scalar(1, exact=exact)}).wedge(phi).hodge() for b in basis2]
    return [[col.coeffs.get(k, 0) for col in cols] for k in basis2]


@settings(max_examples=30)
@given(st.data(), st.booleans())
def test_lambda2_matrix_matches_column_build(data, exact):
    phi = _random_form(data, 4, exact)
    if data.draw(st.booleans()):
        phi = phi + (spin7.phi0() if exact else spin7.phi0().as_float())
    got = spin7._lambda2_dense(spin7._lambda2_rows(phi))
    assert got == _lambda2_columns(phi, exact)


def _slot_sum(phi, generator):
    """``sum_slots phi(..., B v, ...)`` on every basis blade, one evaluate each."""
    n = phi.dim
    exact = is_exact(phi.coeffs.values()) and is_exact(generator.coeffs.values())
    bcols = [Vector(generator[(i, j)] for i in range(1, n + 1)) for j in range(1, n + 1)]
    coeffs = {}
    for blade in blades(n, phi.degree):
        total = 0
        for pos, i in enumerate(blade):
            vecs = [Vector.basis(n, k, exact=exact) for k in blade]
            vecs[pos] = bcols[i - 1]
            total += phi.evaluate(*vecs)
        if total != 0:
            coeffs[blade] = total
    return KForm(n, phi.degree, coeffs)


@settings(max_examples=25)
@given(st.data(), st.booleans(), st.integers(0, 4))
def test_infinitesimal_action_matches_slot_sum(data, exact, degree):
    phi = _random_form(data, degree, exact)
    generator = _random_form(data, 2, exact)
    got = spin7.infinitesimal_action(phi, generator)
    want = _slot_sum(phi, generator)
    if exact:
        assert got == want
    else:
        assert (got - want).is_zero(1e-12)


def test_infinitesimal_action_sorts_no_blades(monkeypatch):
    """B is read off the generator's stored blades: no blade is sorted."""
    from cayley8 import multivec
    generators = M.lambda2_7_forms() + MF.lambda2_21_forms()[:7]
    calls = []
    sort = multivec.sort_blade
    monkeypatch.setattr(multivec, "sort_blade",
                        lambda idx: calls.append(tuple(idx)) or sort(idx))
    for beta in generators:
        spin7.infinitesimal_action(M.phi, beta)
    assert calls == []


def _greedy_rank_rows(rows):
    """Rows that raise the rank of the rows chosen before them."""
    chosen = []
    for i, row in enumerate(rows):
        trial = np.array([rows[j] for j in chosen] + [row], dtype=float)
        if np.linalg.matrix_rank(trial) > len(chosen):
            chosen.append(i)
    return chosen


@settings(max_examples=80)
@given(st.data())
def test_independent_rows_matches_greedy_rank_increase(data):
    ncols = data.draw(st.integers(1, 5))
    distinct = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols,
                                           max_size=ncols), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.sampled_from(range(len(distinct))), max_size=7))
    rows = [distinct[k] for k in picks]  # repeated rows are dependent
    assert _linalg.independent_rows(rows) == _greedy_rank_rows(rows)


_COEFF_OR_ZERO = {True: st.one_of(st.just(0), _SMALL_EXACT),
                  False: st.one_of(st.just(0.0), _UNIT_ENTRY)}


def _items(form):
    return [(blade, c, type(c)) for blade, c in form.coeffs.items()]


def _wedge_hodge_reference(m, a, den):
    """``(a - star(a ^ phi)) / den`` through the kernel's wedge and hodge."""
    return (a - a.wedge(m.phi).hodge()) / den


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(), st.data())
def test_stored_operator_equals_wedge_hodge_reference(seed, phi_exact, exact, data):
    """proj2_7 and cross2 read the model's stored rows of L, yet equal the
    wedge and hodge reference in value, coefficient type and ``coeffs``
    order, on forms that are not Spin(7) (an unchecked model) and on
    2-forms whose blades come in any order, with zeros among the inputs."""
    rng = np.random.default_rng(seed)
    phi = random_form(rng, 8, 4, bound=5 if phi_exact else None)
    for m in (spin7.unchecked_model(phi), M if phi_exact else MF):
        a = KForm(8, 2, data.draw(st.dictionaries(
            st.sampled_from(blades(8, 2)), _COEFF_OR_ZERO[exact], max_size=28)))
        assert _items(spin7.proj2_7(m, a)) == _items(_wedge_hodge_reference(m, a, 4))
        v, w = (Vector(data.draw(st.lists(_COEFF_OR_ZERO[exact], min_size=8, max_size=8)))
                for _ in range(2))
        vw = flat(v).wedge(flat(w))
        assert _items(spin7.cross2(m, v, w)) == _items(_wedge_hodge_reference(m, vw, 2))


def _typed(values):
    """True iff every value is an ``int`` when integral and a ``Fraction`` otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


_PHI_Q = spin7.phi0().map_coeffs(Fraction)


def _fractions(v):
    return Vector(Fraction(c) for c in v.components)


def _minus_l_reference(a, den):
    """``(a - star(a ^ phi)) / den`` with every coefficient a ``Fraction``."""
    a = a.map_coeffs(Fraction)
    return (a - a.wedge(_PHI_Q).hodge()) * Fraction(1, den)


def _cross2_reference(v, w):
    return _minus_l_reference(flat(_fractions(v)).wedge(flat(_fractions(w))), 2)


def _cross3_reference(u, v, w):
    return sharp(_PHI_Q.contract(_fractions(w)).contract(_fractions(v))
                 .contract(_fractions(u)))


def _tau_reference(a, b, c, d):
    """The defining sum of :func:`spin7.tau` over Fraction-only products."""
    def g(x, y):
        return sum(Fraction(p) * q for p, q in zip(x.components, y.components))
    return (-1 * _cross2_reference(a, _cross3_reference(b, c, d))
            + g(a, b) * _cross2_reference(c, d) + g(a, c) * _cross2_reference(d, b)
            + g(a, d) * _cross2_reference(b, c))


@settings(max_examples=40)
@given(st.data())
def test_exact_products_are_int_when_integral_and_equal_fraction_references(data):
    """On integer inputs every Spin(7) product is exact, equals its reference
    computed in Fractions alone, and holds an ``int`` wherever it is integral."""
    vector = st.lists(st.integers(-3, 3), min_size=8, max_size=8).map(Vector)
    a, b, c, d = (data.draw(vector) for _ in range(4))
    form = KForm(8, 2, data.draw(st.dictionaries(st.sampled_from(blades(8, 2)),
                                                 st.integers(-3, 3), max_size=28)))
    p7 = _minus_l_reference(form, 4)
    pairs = [(spin7.cross2(M, a, b), _cross2_reference(a, b)),
             (spin7.tau(M, a, b, c, d), _tau_reference(a, b, c, d)),
             (spin7.proj2_7(M, form), p7),
             (spin7.proj2_21(M, form), form - p7)]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert _typed(got.coeffs.values())
    c3 = spin7.cross3(M, a, b, c)
    assert c3.components == _cross3_reference(a, b, c).components
    assert _typed(c3.components)


def test_float_tau_equals_the_sum_of_halved_products_bit_for_bit():
    """tau halves once after the sum; halving scales a float exactly, so it
    equals the sum of the four 2-fold products in every bit."""
    rng = np.random.default_rng(40)
    for _ in range(50):
        a, b, c, d = (random_vector(rng, 8) for _ in range(4))
        want = (-1 * spin7.cross2(MF, a, spin7.cross3(MF, b, c, d))
                + a.dot(b) * spin7.cross2(MF, c, d) + a.dot(c) * spin7.cross2(MF, d, b)
                + a.dot(d) * spin7.cross2(MF, b, c))
        assert list(spin7.tau(MF, a, b, c, d).coeffs.items()) == list(want.coeffs.items())
