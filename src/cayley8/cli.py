"""Command-line front end.

Subcommands: ``verify`` (identity suites), ``comass`` (Grassmannian
optimization), ``plane`` (pointwise plane tests), ``index`` (index
formulas from a JSON input), ``surgery`` (invariant bookkeeping from a
JSON expression tree), ``reproduce`` (the two worked index derivations).

Exit codes: 0 success, 1 verification/assertion/parity failure or a
comass estimate that did not converge, 2 input error.  Reports render
from one payload dict, as text or canonical JSON (`--output json`); JSON
output is byte-identical for identical inputs and seeds.  Wall time goes
to stderr so it never perturbs the payload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Optional

from . import (calib, g2 as g2mod, index as index_mod, reproduce, spin7,
               surgery, verify)
from .index import ParityError
from .multivec import DegeneratePlaneError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _render(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    print(f"command: {payload['command']}")
    print(f"inputs digest: {payload['inputs_digest']}")
    for key, value in payload["results"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for row in value:
                cells = "  ".join(f"{k}={_fmt(v)}" for k, v in row.items())
                print(f"  {cells}")
        elif isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {_fmt(v)}")
        else:
            print(f"{key}: {_fmt(value)}")
    print(f"passes: {payload['passes']}  failures: {payload['failures']}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _report(command: str, digest: str, results: dict, passes: int,
            failures: int) -> dict:
    return {"command": command, "inputs_digest": digest, "results": results,
            "passes": passes, "failures": failures}


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _resolve_form(spec: str, exact: bool) -> calib.CalibrationForm:
    if spec.startswith("builtin:"):
        try:
            return calib.builtin_form(spec.split(":", 1)[1], exact=exact)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
    try:
        return calib.load_form(_load_json_file(spec))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_verify(args) -> int:
    form = None
    digest_parts = [f"seed={args.seed}", f"trials={args.trials}",
                    f"exact={args.exact}"]
    if args.form:
        form = _resolve_form(args.form, args.exact).form
        if form.dim != 8 or form.degree != 4:
            raise InputError("the injected form must be a degree-4 form on R^8")
        digest_parts.append(json.dumps(sorted(
            (list(b), str(c)) for b, c in form.coeffs.items())))
    outcomes, summary = verify.run_suite(exact=args.exact, seed=args.seed,
                                         trials=args.trials, form=form)
    results = {
        "summary": summary,
        "checks": [o.as_dict() for o in outcomes],
    }
    payload = _report("verify", _digest(*digest_parts), results,
                      summary["passed"], summary["failed"])
    _render(payload, args.output)
    return EXIT_OK if summary["failed"] == 0 else EXIT_FAIL


def cmd_comass(args) -> int:
    c = _resolve_form(args.form, exact=False)
    result = calib.comass_estimate(c, restarts=args.restarts, tol=args.tol,
                                   seed=args.seed, jobs=args.jobs)
    rounded = {
        "form": c.name,
        "degree": c.degree,
        "dim": c.dim,
        "comass": round(result.value, 12),
        "argmax": [[round(float(x), 12) for x in row.components]
                   for row in result.plane.orthonormal_basis],
        "restarts": result.restarts,
        "best_restart": result.best_restart,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if result.warning:
        rounded["warning"] = result.warning
    digest = _digest(args.form, str(args.restarts), f"{args.tol}", str(args.seed))
    payload = _report("comass", digest, rounded,
                      1 if result.converged else 0,
                      0 if result.converged else 1)
    _render(payload, args.output)
    return EXIT_OK if result.converged else EXIT_FAIL


def cmd_plane(args) -> int:
    c = _resolve_form(args.form, exact=args.exact)
    try:
        plane = calib.load_plane(_load_json_file(args.vectors))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    results: dict = {"form": c.name, "dim": plane.dim, "degree": plane.degree}
    failures = 0
    try:
        results["value"] = float(calib.calibration_value(c, plane))
    except DegeneratePlaneError as exc:
        raise InputError(str(exc)) from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if c.dim == 8 and c.degree == 4 and plane.degree == 4:
        cert = spin7.is_spin7_form(c.form)
        if cert.passed:
            model = spin7.build_model(c.form)
            verdict = calib.cayley_test(model, plane)
            results["cayley"] = verdict.as_dict()
            if not verdict.criteria_agree:
                failures += 1
        results["special_lagrangian"] = calib.sl_test(plane)
        results["complex"] = calib.complex_test(plane)
    if plane.dim == 7 and plane.degree in (3, 4):
        g2m = g2mod.build_g2(exact=args.exact)
        if plane.degree == 3:
            results["associative"] = g2mod.is_associative(g2m, plane)
        else:
            results["coassociative"] = g2mod.is_coassociative(g2m, plane)
    digest = _digest(args.form, json.dumps(_load_json_file(args.vectors),
                                           sort_keys=True))
    payload = _report("plane", digest, results, 1 - failures, failures)
    _render(payload, args.output)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_index(args) -> int:
    obj = _load_json_file(args.input)
    try:
        result = index_mod.evaluate_index(obj)
    except ParityError as exc:
        payload = _report("index", _digest(json.dumps(obj, sort_keys=True)),
                          {"error": str(exc)}, 0, 1)
        _render(payload, args.output)
        return EXIT_FAIL
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    results = result.as_dict()
    digest = _digest(json.dumps(obj, sort_keys=True))
    payload = _report("index", digest, results, 1, 0)
    _render(payload, args.output)
    return EXIT_OK


def cmd_surgery(args) -> int:
    obj = _load_json_file(args.input)
    try:
        root, rows = surgery.evaluate_surgery(obj)
    except (surgery.SurgeryError, KeyError, TypeError) as exc:
        raise InputError(f"bad surgery input: {exc}") from exc
    results = {"result": root.as_dict(), "derivation": rows}
    digest = _digest(json.dumps(obj, sort_keys=True))
    payload = _report("surgery", digest, results, 1, 0)
    _render(payload, args.output)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    try:
        derivation = reproduce.run_example(args.example)
    except reproduce.UnknownExampleError as exc:
        raise InputError(str(exc)) from exc
    results = {
        "description": reproduce.load_fixture(args.example)["description"],
        "derivation": list(derivation.rows),
        "values": derivation.values,
        "expected": derivation.expected,
        "index": derivation.index,
        "matches_expected": derivation.matches_expected,
    }
    mismatches = [k for k, v in derivation.expected.items()
                  if derivation.values.get(k) != v]
    if mismatches:
        results["mismatched_fields"] = mismatches
    payload = _report("reproduce", _digest(f"example={args.example}"), results,
                      len(derivation.expected) - len(mismatches), len(mismatches))
    _render(payload, args.output)
    return EXIT_OK if derivation.matches_expected else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley8",
        description="Pointwise Spin(7)/G2 calibrated geometry toolkit")
    parser.add_argument("--output", choices=("text", "json"), default="text",
                        help="report rendering (default text)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="exact", action="store_true",
                      help="exact rational arithmetic")
    mode.add_argument("--float", dest="exact", action="store_false",
                      help="floating arithmetic (default)")
    parser.set_defaults(exact=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--form", default=None,
                   help="builtin:<name> or a form JSON file to inject")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("comass", help="estimate the comass of a form")
    p.add_argument("--form", required=True, help="builtin:<name> or a JSON file")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--tol", type=float, default=calib.COMASS_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored, kept for compatibility: restarts run as "
                        "one batched ascent")
    p.set_defaults(fn=cmd_comass)

    p = sub.add_parser("plane", help="test a plane against a calibration")
    p.add_argument("--form", required=True, help="builtin:<name> or a JSON file")
    p.add_argument("--vectors", required=True, help="plane JSON file")
    p.set_defaults(fn=cmd_plane)

    p = sub.add_parser("index", help="evaluate an index formula")
    p.add_argument("--input", required=True, help="index input JSON file")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("surgery", help="evaluate a surgery expression tree")
    p.add_argument("--input", required=True, help="surgery JSON file")
    p.set_defaults(fn=cmd_surgery)

    p = sub.add_parser("reproduce", help="derive a worked index example")
    p.add_argument("--example", type=int, required=True)
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        print(f"# wall time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
