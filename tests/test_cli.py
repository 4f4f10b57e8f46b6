"""Command-line surface: reports, schemas, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cayley8 import calib, cli, dirac, reproduce, spin7, verify
from cayley8.spin7 import PHI0_TERMS


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_exact_passes(capsys):
    code, out = run_cli(capsys, "--exact", "verify", "--trials", "10")
    assert code == 0
    assert "failures: 0" in out


def test_verify_float_reports_residuals(capsys):
    code, out = run_cli(capsys, "--output", "json", "verify", "--trials", "20",
                        "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["summary"]["max_residual"] < 1e-10
    # one record for every check; the JSON renderer sorts keys, so the
    # order is read from the records the report is built from
    outcomes, _ = verify.run_suite(exact=False, seed=1, trials=2)
    assert all(list(o.as_dict()) == ["name", "passed", "residual", "detail"]
               for o in outcomes)
    for check in payload["results"]["checks"]:
        assert sorted(check) == ["detail", "name", "passed", "residual"]
        assert type(check["passed"]) is bool and type(check["residual"]) is float


def test_verify_corrupted_form_fails_named_identity(tmp_path, capsys):
    terms = [{"blade": list(b), "coeff": str(-c if b == (1, 2, 3, 4) else c)}
             for b, c in PHI0_TERMS.items()]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps({"dim": 8, "degree": 4, "terms": terms}))
    code, out = run_cli(capsys, "--exact", "--output", "json", "verify",
                        "--form", str(path))
    assert code == 1
    payload = json.loads(out)
    failed = payload["results"]["summary"]["failed_names"]
    assert "star(phi) == phi" in failed


def test_comass_builtin(capsys):
    code, out = run_cli(capsys, "--output", "json", "comass", "--form",
                        "builtin:spin7", "--restarts", "8", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["comass"] - 1) < 1e-6


def test_comass_byte_identical_json(capsys):
    args = ("--output", "json", "comass", "--form", "builtin:wirtinger2",
            "--restarts", "5", "--seed", "9")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_comass_default_tol_is_1e_6(capsys):
    # the parser leaves --tol unset and cmd_comass reads calib.COMASS_TOL;
    # the payload, inputs digest included, is that of an explicit 1e-6
    args = ("--output", "json", "comass", "--form", "builtin:spin7",
            "--restarts", "5", "--seed", "1")
    code, default = run_cli(capsys, *args)
    assert code == 0
    assert run_cli(capsys, *args, "--tol", "1e-6") == (code, default)


def test_help_exits_0_for_every_subcommand(capsys):
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "subcommand")
    assert sorted(subparsers.choices) == ["comass", "index", "plane",
                                          "reproduce", "surgery", "verify"]
    for name in [None, *subparsers.choices]:
        with pytest.raises(SystemExit) as exit_:
            cli.main([name, "--help"] if name else ["--help"])
        assert exit_.value.code == 0
        assert "usage: cayley8" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", str(-2 ** 70)])
def test_comass_negative_seed_is_input_error(seed, capsys):
    code = cli.main(["comass", "--form", "builtin:spin7", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: expected non-negative integer" in captured.err


@pytest.mark.parametrize("command", [["verify"], ["comass", "--form", "builtin:spin7"]],
                         ids=["verify", "comass"])
def test_negative_seed_names_the_option(command, capsys):
    code = cli.main(command + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: expected non-negative integer for --seed, got -1" in captured.err


def test_comass_not_converged_exit_1(capsys):
    code, out = run_cli(capsys, "--output", "json", "comass", "--form",
                        "builtin:spin7", "--restarts", "2", "--tol", "0")
    payload = json.loads(out)
    assert payload["results"]["converged"] is False
    assert payload["failures"] == 1
    assert code == 1
    # the best restart stopped short of the iteration cap: its line search
    # ran out of halvings, and the warning names that cause
    assert payload["results"]["iterations"] < calib.COMASS_MAX_ITER
    assert "line search" in payload["results"]["warning"]


def test_comass_scales_coefficients_near_float_range(tmp_path, capsys):
    # comass is homogeneous; the ascent runs on the form scaled to largest
    # coefficient 1, so 1e308 (e^1234 + e^5678) has comass 1e308, converges
    # and raises no floating-point overflow on the way
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": [1, 2, 3, 4], "coeff": 1e308},
        {"blade": [5, 6, 7, 8], "coeff": 1e308}]}))
    with np.errstate(over="raise", invalid="raise"):
        code, out = run_cli(capsys, "--output", "json", "comass", "--form", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["results"]["converged"] is True
    assert abs(payload["results"]["comass"] / 1e308 - 1) < 1e-6


def test_comass_rejects_exact_mode(capsys):
    # comass is a floating-point estimate; --exact would be silently ignored
    code = cli.main(["--exact", "comass", "--form", "builtin:spin7", "--restarts", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: comass is a floating-point estimate" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["comass", "--form", "builtin:spin7", "--restarts", "20"], 0),
    (["reproduce", "--example", "2"], 1),  # the target mismatch kept by design
])
def test_closed_stdout_exits_quietly_with_the_payload_code(argv, code):
    # like `cayley8 ... | true`: the reader is gone before the payload is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    try:
        proc = subprocess.run([sys.executable, "-m", "cayley8", "--output", "json", *argv],
                              env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr
    assert proc.returncode == code


def test_comass_unknown_builtin(capsys):
    code, _ = run_cli(capsys, "comass", "--form", "builtin:unknown")
    assert code == 2


def test_comass_file_form(tmp_path, capsys):
    path = tmp_path / "blade.json"
    path.write_text(json.dumps({
        "dim": 8, "degree": 4, "name": "blade",
        "terms": [{"blade": [1, 2, 3, 4], "coeff": 1}]}))
    code, out = run_cli(capsys, "--output", "json", "comass", "--form",
                        str(path), "--restarts", "6", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["comass"] - 1) < 1e-6
    argmax = payload["results"]["argmax"]
    assert all(abs(x) < 1e-5 for row in argmax for x in row[4:])


def test_comass_rejects_non_finite_coefficient(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "dim": 8, "degree": 4,
        "terms": [{"blade": [1, 2, 3, 4], "coeff": float("nan")}]}))
    code = cli.main(["comass", "--form", str(path), "--restarts", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["comass", "plane", "verify"])
@pytest.mark.parametrize("second", [[1, 2, 3, 4], [2, 1, 4, 3]])
def test_form_whose_summed_coefficient_leaves_float_range_exit_2(tmp_path, capfd,
                                                                command, second):
    # each coefficient is finite; their sum on e^1234 is not.  capfd, not
    # capsys: LAPACK writes its DLASCL complaints straight to file descriptor 1
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": [1, 2, 3, 4], "coeff": 1e308}, {"blade": second, "coeff": 1e308}]}))
    argv = [command, "--form", str(form)]
    if command == "plane":
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": [
            [int(i == j) for i in range(8)] for j in range(4)]}))
        argv += ["--vectors", str(plane)]
    code = cli.main(argv)
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert "blade [1, 2, 3, 4]" in captured.err and "not finite" in captured.err
    assert "DLASCL" not in captured.out + captured.err


@pytest.mark.parametrize("argv", [["comass"], ["plane"], ["verify"], ["--exact", "verify"]])
@pytest.mark.parametrize("coeff", [10 ** 400, "1e400"], ids=["int", "string"])
def test_form_coefficient_beyond_float_range_exit_2(tmp_path, capsys, argv, coeff):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": [1, 2, 3, 4], "coeff": coeff}]}))
    argv = argv + ["--form", str(form)]
    if "plane" in argv:
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": [
            [int(i == j) for i in range(8)] for j in range(4)]}))
        argv += ["--vectors", str(plane)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "blade [1, 2, 3, 4]: coefficient is beyond float range" in captured.err


def _plane_with(vector, entry, value, float_first=False):
    """The plane of e1..e4 with ``value`` at (``vector``, ``entry``), 1-based."""
    rows = [[int(i == j) for i in range(8)] for j in range(4)]
    if float_first:
        rows[0][0] = 1e300
    rows[vector - 1][entry - 1] = value
    return {"dim": 8, "degree": 4, "vectors": rows}


@pytest.mark.parametrize("mode", [[], ["--exact"]])
@pytest.mark.parametrize("plane, named", [
    (_plane_with(1, 2, 10 ** 400, float_first=True), "vector 1: entry 2"),
    (_plane_with(3, 4, 10 ** 400), "vector 3: entry 4"),
    (_plane_with(2, 8, "-1e400"), "vector 2: entry 8"),
], ids=["float-plane", "integer-plane", "rational-string"])
def test_plane_entry_beyond_float_range_exit_2(tmp_path, capsys, mode, plane, named):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane))
    code = cli.main(mode + ["plane", "--form", "builtin:spin7", "--vectors", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input error: {named} is beyond float range" in captured.err


def test_comass_restarts_beyond_memory_exit_2(capsys):
    # 10**15 restarts need 4 EiB for the ascent's stack, beyond any physical
    # memory, so comass refuses the count before allocating.  Never try a
    # count whose arrays could fit: filling them would exhaust the machine.
    code = cli.main(["comass", "--form", "builtin:spin7", "--restarts", str(10 ** 15)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input error: --restarts {10 ** 15}: too many restarts" in captured.err


def test_comass_restarts_beyond_physical_memory_exit_2(monkeypatch, capsys):
    # 1000 restarts stack 4 MB; with 1 MB of physical memory faked, the
    # count is refused before anything is allocated
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf",
                        lambda name: 256 if name == "SC_PHYS_PAGES" else sysconf(name))
    code = cli.main(["comass", "--form", "builtin:spin7", "--restarts", "1000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: --restarts 1000: too many restarts" in captured.err
    assert "bytes of physical memory" in captured.err


@pytest.mark.parametrize("restarts", [2 ** 62, 10 ** 19], ids=["bytes", "dimension"])
def test_comass_restarts_beyond_numpy_shapes_exit_2(restarts, capsys):
    # counts whose seed-word shapes numpy would reject outright (2**62 rows
    # overflow the byte count, 10**19 exceed the largest dimension) are
    # refused earlier, against physical memory
    code = cli.main(["comass", "--form", "builtin:spin7", "--restarts", str(restarts)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input error: --restarts {restarts}: too many restarts" in captured.err


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("mode", [[], ["--exact"]])
@pytest.mark.parametrize("coeff", [10 ** 200, 1e200], ids=["int", "float"])
def test_verify_residual_beyond_float_range_fails_its_row(tmp_path, capsys, mode, coeff):
    # the coefficient fits a float but <phi, phi> = 1e400 does not: the row
    # fails under its own name, and the payload holds no NaN or Infinity
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": [1, 2, 3, 4], "coeff": coeff}]}))
    code, out = run_cli(capsys, *mode, "--output", "json", "verify", "--form", str(form))
    assert code == 1
    results = json.loads(out, parse_constant=_no_constant)["results"]
    assert "<phi, phi> == 14" in results["summary"]["failed_names"]
    row = next(c for c in results["checks"] if c["name"] == "<phi, phi> == 14")
    assert not row["passed"] and row["residual"] == sys.float_info.max
    assert row["detail"] == "residual not finite as a float (inf)"


@pytest.mark.parametrize("mode", [[], ["--exact"]])
def test_verify_fails_a_wrong_intertwining_normalization(monkeypatch, capsys, mode):
    # one side of the special Lagrangian intertwining doubled: the residual
    # under the fitted scalar 2 is 0, and the unit-scalar condition fails
    report = dirac._intertwine_report

    def doubled(name, lhs, *rest):
        if name == "sl-intertwine":
            return report(name, lambda xi: 2 * lhs(xi), *rest)
        return report(name, lhs, *rest)

    monkeypatch.setattr(dirac, "_intertwine_report", doubled)
    code, out = run_cli(capsys, *mode, "--output", "json", "verify", "--trials", "2")
    assert code == 1
    summary = json.loads(out)["results"]["summary"]
    assert summary["failed_names"] == ["special Lagrangian symbol intertwining"]


def test_comass_rejects_repeated_index_blade(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "dim": 8, "degree": 4,
        "terms": [{"blade": [1, 1, 3, 4], "coeff": 1}]}))
    code = cli.main(["comass", "--form", str(path), "--restarts", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "repeats an index" in captured.err


def test_plane_report(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "dim": 8, "degree": 4,
        "vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]}))
    code, out = run_cli(capsys, "--exact", "--output", "json", "plane",
                        "--form", "builtin:spin7", "--vectors", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["value"] == 1.0
    assert payload["results"]["cayley"]["verdict"] == "cayley+"
    assert payload["results"]["cayley"]["tau_norm"] == 0.0
    assert payload["results"]["complex"] is True


def test_plane_near_cayley_plane_exits_0(tmp_path, capsys):
    # 1e-5 off a Cayley plane: |tau| ~ 5e-5 says not Cayley while |value|
    # is 1 to within 2e-9; the Cayley identity still holds, so no failure
    mf = spin7.standard_model(exact=False)
    rng = np.random.default_rng(5)
    base = np.array([v.to_array() for v in spin7.random_spin7_frame(mf, rng).vectors[:4]])
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": (
        base + 1e-5 * rng.standard_normal((4, 8))).tolist()}))
    code, out = run_cli(capsys, "--output", "json", "plane",
                        "--form", "builtin:spin7", "--vectors", str(path))
    cayley = json.loads(out)["results"]["cayley"]
    assert code == 0
    assert cayley["verdict"] == "not-cayley" and cayley["criteria_agree"] is True
    assert abs(cayley["value"]) > 1 - calib.AGREEMENT_TOL


def test_plane_pivot_is_relative_to_the_span_length(tmp_path, capsys):
    # 1e-150 e1 spans the line of e1: the plane is the coordinate Cayley plane
    path = tmp_path / "plane.json"
    vectors = [[float(i == j) for i in range(8)] for j in range(4)]
    vectors[0][0] = 1e-150
    path.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": vectors}))
    code, out = run_cli(capsys, "--output", "json", "plane",
                        "--form", "builtin:spin7", "--vectors", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["value"] - 1) <= 1e-15
    assert results["cayley"]["verdict"] == "cayley+"


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_plane_results_do_not_depend_on_the_scale(tmp_path, capsys, scale):
    # a float span is brought to unit scale by a power of two before it is
    # squared, so scale * e_j neither overflows nor underflows
    results = []
    for s in (scale, 1.0):
        argv, document, _ = _plane("", scale=s)
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, "--output", "json", *argv, str(path))
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]


def test_plane_report_g2(tmp_path, capsys):
    path = tmp_path / "plane7.json"
    path.write_text(json.dumps({
        "dim": 7, "degree": 3,
        "vectors": [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0, 0]]}))
    code, out = run_cli(capsys, "--exact", "--output", "json", "plane",
                        "--form", "builtin:g2-assoc", "--vectors", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["value"] == 1.0
    assert payload["results"]["associative"] is True


def test_plane_schema_violation(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": [[1, 0]]}))
    code, _ = run_cli(capsys, "plane", "--form", "builtin:spin7",
                      "--vectors", str(path))
    assert code == 2


def test_index_command(tmp_path, capsys):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "formula": "combined_example",
        "fields": {"chi": 48, "sigma": -16, "euler_normal": 24, "sigma_X4": 0,
                   "sigma_X4tilde": 0, "b0_Y": 1, "b1_Y": 13, "b0_Ytilde": 1,
                   "b1_Ytilde": 25, "dimH0": 4}}))
    code, out = run_cli(capsys, "--output", "json", "index", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["index"] == -22


def test_index_parity_violation_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "formula": "closed",
        "fields": {"chi": 3, "sigma": 0, "self_intersection": 0}}))
    code, out = run_cli(capsys, "index", "--input", str(path))
    assert code == 1
    assert "non-integer" in out


def test_index_schema_violation_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"formula": "closed", "fields": {"chi": 0}}))
    code, _ = run_cli(capsys, "index", "--input", str(path))
    assert code == 2


_INDEX_FIELDS = {
    "closed": {"chi": 24, "sigma": -16, "self_intersection": 9},
    "eta": {"chi": 48, "sigma": -16, "euler_normal": 24, "dim_ker_Dtilde": 0,
            "eta_Dtilde": 0.0, "eta_Bev": 0.0}}


def _index(formula, field, value):
    return ["index", "--input"], {
        "formula": formula,
        "fields": dict(_INDEX_FIELDS[formula], **{field: value})}, repr(field)


def _leaf(**invariants):
    return {"op": "leaf",
            "invariants": dict({"dim": 4, "chi": 3, "sigma": 1}, **invariants)}


def _surgery(tree, named):
    return ["surgery", "--input"], tree, named


def _plane(named, scale=1, **fields):
    vectors = [[scale * (i == j) for i in range(8)] for j in range(4)]
    return (["plane", "--form", "builtin:spin7", "--vectors"],
            dict({"dim": 8, "degree": 4, "vectors": vectors}, **fields), named)


def _form(named, **fields):
    return (["comass", "--form"],
            dict({"dim": 8, "degree": 4,
                  "terms": [{"blade": [1, 2, 3, 4], "coeff": 1}]}, **fields), named)


@pytest.mark.parametrize("argv, document, named", [
    pytest.param(*_index("closed", "chi", "3"), id="string"),
    pytest.param(*_index("closed", "chi", True), id="bool"),
    pytest.param(*_index("closed", "self_intersection", 0.5), id="real-integer-field"),
    pytest.param(*_index("eta", "eta_Dtilde", float("inf")), id="inf"),
    pytest.param(*_index("eta", "eta_Dtilde", float("nan")), id="nan"),
    pytest.param(*_index("eta", "eta_Bev", "0.5"), id="string-eta"),
    pytest.param(["index", "--input"],
                 {"formula": "closed",
                  "fields": [["chi", 24], ["sigma", -16], ["self_intersection", 9]]},
                 "'fields'", id="index-fields-not-object"),
    pytest.param(*_surgery(_leaf(chi=1.5), "'chi'"), id="surgery-float-chi"),
    pytest.param(*_surgery(_leaf(chi=True), "'chi'"), id="surgery-bool-chi"),
    pytest.param(*_surgery(_leaf(sigma=2.5), "'sigma'"), id="surgery-float-sigma"),
    pytest.param(*_surgery(_leaf(dim=-3, sigma="n/a"), "'dim'"), id="surgery-negative-dim"),
    pytest.param(*_surgery(_leaf(dim=1, chi=0, sigma="n/a", betti=[1.5, 1.5]),
                           "'betti[0]'"), id="surgery-float-betti"),
    pytest.param(*_surgery(_leaf(chi="abc"), "'chi'"), id="surgery-string-chi"),
    pytest.param(*_surgery(_leaf(sigma="x"), "'sigma'"), id="surgery-string-sigma"),
    pytest.param(["surgery", "--input"],
                 '{"op": "leaf", "invariants": {"dim": 4, "chi": 1e400}}', "'chi'",
                 id="surgery-chi-beyond-float-range"),
    pytest.param(*_surgery({"op": "leaf", "invariants": 5}, "invariants"),
                 id="surgery-non-object-invariants"),
    pytest.param(*_surgery({"op": "glue", "parts": [_leaf(), _leaf()],
                            "along": {"dim": 3, "chi": 0}, "novikov_ok": "false"},
                           "novikov_ok"), id="surgery-string-novikov"),
    pytest.param(*_surgery({"op": "glue", "parts": [_leaf(), _leaf()]}, "'along'"),
                 id="surgery-missing-key"),
    pytest.param(["comass", "--form", "builtin:spin7", "--restarts", "0"], None,
                 "restarts", id="comass-zero-restarts"),
    pytest.param(["comass", "--form", "builtin:spin7", "--restarts", "1",
                  "--tol", "nan"], None, "tol", id="comass-nan-tol"),
    pytest.param(["comass", "--form", "builtin:spin7", "--restarts", "1",
                  "--tol", "1e300"], None, "tol must be a number in [0, 1)",
                 id="comass-huge-tol"),
    pytest.param(["verify", "--trials", "-3"], None, "trials",
                 id="verify-negative-trials"),
    pytest.param(*_plane("'dim'", dim="8"), id="plane-string-dim"),
    pytest.param(*_plane("'dim'", dim=8.7), id="plane-float-dim"),
    pytest.param(*_plane("vectors", vectors=5), id="plane-non-list-vectors"),
    pytest.param(*_form("'degree'", degree=True), id="form-bool-degree"),
    pytest.param(*_form("degree-0", degree=0, terms=[{"blade": [], "coeff": 2}]),
                 id="comass-degree-0"),
])
def test_index_malformed_field_exit_2(tmp_path, capsys, argv, document, named):
    """Every rejected input of every command exits 2 naming its cause.

    ``document`` (JSON, or raw JSON text) is written to the file the last
    flag of ``argv`` names.
    """
    if document is not None:
        path = tmp_path / "bad.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        argv = [*argv, str(path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_index_eta_sum_beyond_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"formula": "eta", "fields": {
        "chi": 0, "sigma": 0, "euler_normal": 0, "dim_ker_Dtilde": 0,
        "eta_Dtilde": 1e308, "eta_Bev": -1e308}}))
    code = cli.main(["index", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "float range" in captured.err


def test_surgery_command(tmp_path, capsys):
    path = tmp_path / "surgery.json"
    path.write_text(json.dumps({
        "op": "connected_sum",
        "parts": [
            {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": 1,
                                          "label": "CP2"}},
            {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": -1,
                                          "label": "CP2bar"}}]}))
    code, out = run_cli(capsys, "--output", "json", "surgery", "--input",
                        str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["result"]["chi"] == 4
    assert len(payload["results"]["derivation"]) == 3


def test_surgery_compactification_assembly(tmp_path, capsys):
    # the example-1 compactification as an expression tree: the cylinder
    # component, two null-cobordism caps, the blown-up surface piece, and
    # the exceptional component, glued along chi-zero 3-manifolds
    def leaf(chi, sigma, label):
        return {"op": "leaf", "invariants": {"dim": 4, "chi": chi,
                                             "sigma": sigma, "label": label}}

    blown_up = leaf(2, 1, "surface piece")
    for _ in range(16):
        blown_up = {"op": "connected_sum",
                    "parts": [blown_up, leaf(3, -1, "reversed plane")]}
    tree = blown_up
    for piece in (leaf(24, 0, "cylinder component"),
                  leaf(-12, 0, "cap"), leaf(-12, 0, "cap"),
                  leaf(2, -1, "exceptional component")):
        tree = {"op": "glue", "parts": [tree, piece],
                "along": {"dim": 3, "chi": 0, "label": "3-manifold"}}
    path = tmp_path / "xbar.json"
    path.write_text(json.dumps(tree))
    code, out = run_cli(capsys, "--output", "json", "surgery", "--input",
                        str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["result"]["chi"] == 20
    assert payload["results"]["result"]["sigma"] == -16


def test_reproduce_example_1(capsys):
    code, out = run_cli(capsys, "--output", "json", "reproduce", "--example", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["index"] == -22
    assert payload["results"]["matches_expected"] is True
    rows = payload["results"]["derivation"]
    assert rows[-1]["step"] == "index" and rows[-1]["value"] == -22


def test_reproduce_example_2_reports_ledgered_mismatch(capsys):
    # the derivation is internally consistent but the stated target index
    # (-28) contradicts the combined formula on these operands (ledgered)
    code, out = run_cli(capsys, "--output", "json", "reproduce", "--example", "2")
    assert code == 1
    payload = json.loads(out)
    values = payload["results"]["values"]
    assert values["chi_Xbar"] == 44 and values["sigma_Xbar"] == -16
    assert values["euler_normal"] == 48 and values["chi_X"] == 72
    assert payload["results"]["mismatched_fields"] == ["index"]


def test_reproduce_reads_its_fixture_once(capsys, monkeypatch):
    calls = []
    load = reproduce.load_fixture

    def counting(example):
        calls.append(example)
        return load(example)

    monkeypatch.setattr(reproduce, "load_fixture", counting)
    code, out = run_cli(capsys, "--output", "json", "reproduce", "--example", "1")
    assert code == 0 and calls == [1]
    assert json.loads(out)["results"]["description"] == load(1)["description"]


def test_reproduce_unknown_example(capsys):
    code, _ = run_cli(capsys, "reproduce", "--example", "3")
    assert code == 2


def test_text_and_json_agree_on_numbers(tmp_path, capsys):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "formula": "closed",
        "fields": {"chi": 24, "sigma": -16, "self_intersection": 9}}))
    _, text = run_cli(capsys, "index", "--input", str(path))
    _, raw = run_cli(capsys, "--output", "json", "index", "--input", str(path))
    payload = json.loads(raw)
    assert payload["results"]["index"] == 11
    assert "index: 11" in text
