"""Acceptance gate: one test per criterion, each printing a verdict line.

Criterion 7 asserts the stated example-2 target index (-28); the combined
formula on the derived operands yields -34, so that single assertion is
expected to fail (see the decisions ledger for the blocking analysis).
"""

import time

import numpy as np

from cayley8 import calib, dirac, g2, reproduce, spin7
from cayley8.index import evaluate_index
from cayley8.multivec import KForm, OrientedPlane, Vector, flat, random_vector

E = [Vector.basis(8, i) for i in range(1, 9)]


def _verdict(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}{' - ' + detail if detail else ''}")


def test_criterion_1_exact_identity_suite():
    start = time.monotonic()
    m = spin7.standard_model(exact=True)
    rng = np.random.default_rng(100)
    ok = True

    ok &= m.phi.hodge().approx_equal(m.phi)
    ok &= m.phi.wedge(m.phi).approx_equal(14 * KForm.volume(8))
    ok &= (-1 * spin7.cross3(m, E[0], E[1], E[2])).components == E[3].components

    table = [
        ((1, 5), [(1, (2, 6)), (1, (3, 7)), (1, (4, 8))]),
        ((1, 6), [(-1, (2, 5)), (1, (3, 8)), (-1, (4, 7))]),
        ((1, 7), [(-1, (2, 8)), (-1, (3, 5)), (1, (4, 6))]),
        ((1, 8), [(1, (2, 7)), (-1, (3, 6)), (-1, (4, 5))]),
    ]
    equalities = 0
    for (i, j), rhs in table:
        lead = spin7.cross2(m, E[i - 1], E[j - 1])
        for sign, (k, l) in rhs:
            ok &= lead.approx_equal(sign * spin7.cross2(m, E[k - 1], E[l - 1]))
            equalities += 1
    ok &= equalities == 12

    for _ in range(300):
        a, b, c, d = (random_vector(rng, 8, bound=5) for _ in range(4))
        lhs = spin7.cross2(m, a, b).inner(spin7.cross2(m, c, d))
        rhs = (-m.phi.evaluate(a, b, c, d) + a.dot(c) * b.dot(d)
               - a.dot(d) * b.dot(c))
        ok &= lhs == rhs

    for _ in range(60):
        a, b, c, d, v, w = (random_vector(rng, 8, bound=5) for _ in range(6))
        lhs = spin7.tau(m, a, b, c, d).inner(spin7.cross2(m, v, w))
        rhs = (flat(w).wedge(m.phi.contract(v))
               - flat(v).wedge(m.phi.contract(w))).evaluate(a, b, c, d)
        ok &= lhs == rhs

    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 5.0
    _verdict("1 (exact identity suite)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_splitting_dimensions():
    start = time.monotonic()
    m = spin7.standard_model(exact=True)
    mf = spin7.standard_model(exact=False)
    ok = m.lambda2_eigenvalues() == {-3.0: 7, 1.0: 21}
    ok &= all(len(model.lambda4_forms(k)) == k for model in (m, mf) for k in (1, 7, 27, 35))
    op = np.asarray(mf.lambda2_op, dtype=float)
    evals = np.sort(np.linalg.eigvalsh(op))
    ok &= bool(np.abs(evals[:7] + 3).max() < 1e-8)
    ok &= bool(np.abs(evals[7:] - 1).max() < 1e-8)
    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 5.0
    _verdict("2 (splitting dimensions)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_cayley_criterion_agreement():
    mf = spin7.standard_model(exact=False)
    sweep = calib.CayleySweep(mf)
    rng = np.random.default_rng(101)
    random_frames = calib.random_orthonormal_frames(rng, 10_000, 4, 8)
    cayley_frames = np.stack([
        np.array([v.to_array() for v in
                  spin7.random_spin7_frame(mf, rng).vectors[:4]])
        for _ in range(8)])
    frames = np.concatenate([random_frames, cayley_frames])
    tau_norms, values = sweep(frames)
    tau_says = tau_norms <= 1e-9
    value_says = np.abs(np.abs(values) - 1) <= 1e-6
    disagreements = int((tau_says != value_says).sum())
    ok = disagreements == 0 and bool(tau_says[-8:].all())
    _verdict("3 (cayley criterion agreement)", ok,
             f"{disagreements} disagreements on {len(frames)} planes")
    assert ok


def test_criterion_4_comass_of_the_four_calibrations():
    forms = [
        calib.builtin_form("spin7", exact=False),
        calib.builtin_form("wirtinger2", exact=False),
        calib.builtin_form("re-omega", exact=False),
        calib.CalibrationForm(calib.coassoc_model_form().as_float(),
                              "circle-product"),
    ]
    ok = True
    details = []
    for c in forms:
        start = time.monotonic()
        res = calib.comass_estimate(c, restarts=50, tol=1e-6, seed=2026)
        elapsed = time.monotonic() - start
        good = abs(res.value - 1.0) < 1e-6 and elapsed < 60.0
        ok &= good
        details.append(f"{c.name}={res.value:.9f} ({elapsed:.1f}s)")
    _verdict("4 (comass)", bool(ok), ", ".join(details))
    assert ok


def test_criterion_5_clifford_and_intertwinings():
    m = spin7.standard_model(exact=True)
    cpm = dirac.build_cayley_model(m, OrientedPlane(E[:4]))
    clifford = dirac.clifford_check(cpm, trials=16, seed=5)
    ok = clifford.passed and clifford.residual < 1e-10

    apm = dirac.build_associative_model(
        g2.build_g2(),
        OrientedPlane([Vector.basis(7, i) for i in (1, 2, 3)]))
    heq = dirac.h_equivariance_check(apm)
    ok &= heq.passed and heq.residual == 0.0  # exact in exact mode

    sl = dirac.sl_symbol_intertwine(spin7.build_model(calib.sl_model_form()),
                                    trials=16, seed=6)
    co = dirac.coassoc_symbol_intertwine(m, trials=16, seed=6)
    ok &= sl.passed and sl.residual < 1e-10
    ok &= co.passed and co.residual < 1e-10
    _verdict("5 (clifford/symbol checks)", bool(ok),
             f"clifford {clifford.residual:.1e}, h exact, "
             f"sl {sl.residual:.1e}, coassoc {co.residual:.1e}")
    assert ok


def _run_reproduce_cli(example: int, capsys):
    import json

    from cayley8 import cli
    code = cli.main(["--output", "json", "reproduce", "--example", str(example)])
    payload = json.loads(capsys.readouterr().out)
    return code, payload["results"]["values"]


def test_criterion_6_worked_example_1(capsys):
    code, values = _run_reproduce_cli(1, capsys)
    expected = {"chi_K": -12, "b1_K": 13, "genus_Z": 3, "chi_X": 48,
                "sigma_X": -16, "euler_normal": 24, "index": -22}
    mismatches = {k: (values.get(k), v) for k, v in expected.items()
                  if values.get(k) != v}
    ok = not mismatches and code == 0
    _verdict("6 (worked example 1)", ok, str(mismatches) if mismatches else "")
    assert ok


def test_criterion_7_worked_example_2_assembly(capsys):
    _, values = _run_reproduce_cli(2, capsys)
    expected = {"chi_Xbar": 44, "sigma_Xbar": -16, "euler_normal": 48,
                "chi_X": 72}
    mismatches = {k: (values.get(k), v) for k, v in expected.items()
                  if values.get(k) != v}
    ok = not mismatches
    _verdict("7 (worked example 2: assembly)", ok,
             str(mismatches) if mismatches else "chi/sigma/euler all exact")
    assert ok


def test_criterion_7_worked_example_2_index(capsys):
    code, values = _run_reproduce_cli(2, capsys)
    ok = values["index"] == -28 and code == 0
    _verdict("7 (worked example 2: index)", ok,
             f"combined formula on the derived operands gives {values['index']}; "
             "the stated target -28 contradicts them (see decisions ledger)")
    assert ok, (
        "stated target index -28 is unattainable: the combined formula on the "
        f"derived operands (chi 72, sigma -16, euler 48, b-terms -12, dimH0 4) "
        f"gives {values['index']}; the source's own displayed sum is inconsistent")


def test_criterion_8_formula_consistency_web():
    rng = np.random.default_rng(103)
    failures = 0
    for _ in range(1000):
        sigma, e, b0, b1 = (int(x) for x in rng.integers(-30, 31, size=4))
        b0, b1 = abs(b0), abs(b1)
        chi = 2 * int(rng.integers(-30, 31)) + (sigma + b0 + b1) % 2
        eta = float(rng.integers(-9, 10))
        lhs = evaluate_index({"formula": "eta", "fields": {
            "chi": chi, "sigma": sigma, "euler_normal": e, "dim_ker_Dtilde": b0 + b1,
            "eta_Dtilde": eta, "eta_Bev": eta}}).index
        rhs = evaluate_index({"formula": "parallel_section", "fields": {
            "chi": chi, "sigma": sigma, "rel_euler": e, "b0_Y": b0, "b1_Y": b1}}).index
        failures += lhs != rhs
    for _ in range(1000):
        chi_bar, sigma_bar, self_int, chi_c = (
            int(x) for x in rng.integers(-30, 31, size=4))
        dim_h0 = 2 * int(rng.integers(0, 12)) + (chi_bar - sigma_bar - chi_c) % 2
        lhs = evaluate_index({
            "formula": "complex_cross_section",
            "fields": {"chi": chi_bar - chi_c, "sigma": sigma_bar,
                       "rel_euler": self_int, "dimH0": dim_h0},
            "orientation": "complex"}).index
        rhs = evaluate_index({
            "formula": "complex_surface",
            "fields": {"chi_bar": chi_bar, "sigma_bar": sigma_bar,
                       "self_intersection_bar": self_int, "chi_C": chi_c,
                       "dimH0": dim_h0}}).index
        failures += lhs != rhs
    ok = failures == 0
    _verdict("8 (formula consistency web)", ok, f"{failures} failures in 2000 trials")
    assert ok
