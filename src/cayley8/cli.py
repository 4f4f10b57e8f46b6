"""Command-line front end.

Subcommands: ``verify`` (identity suites), ``comass`` (Grassmannian
optimization), ``plane`` (pointwise plane tests), ``index`` (index
formulas from a JSON input), ``surgery`` (invariant bookkeeping from a
JSON expression tree), ``reproduce`` (the two worked index derivations).

Each ``cmd_*`` returns ``(inputs digest, results, passes, failures)`` and
:func:`main` is the one boundary: it builds the payload, serialises it
once as canonical JSON (never NaN or Infinity), renders it as text or as
that JSON (`--output json`) and picks the exit code.  Exit codes: 1 iff
the payload counts a failure (a verification, assertion or parity
failure, or a comass estimate that did not converge), 2 for any rejected
input, reported as ``input error: ...`` on stderr with nothing on stdout:
every ``ValueError`` a command raises, including a result that leaves
float range, and a ``comass --restarts`` count whose arrays numpy cannot
allocate; 0 otherwise.  JSON output is byte-identical for identical
inputs and seeds.  Wall time goes to stderr so it never perturbs the
payload.  A reader that closes stdout early does not change the exit code.

Importing this module loads no other module of the package: each
handler imports what its command runs.  ``index`` loads ``index`` alone
(not even ``fractions``), ``surgery`` loads ``surgery`` and ``index``,
and ``reproduce`` loads those two and ``reproduce``; none of the three
loads numpy or ``dataclasses``.  ``plane`` loads the geometry modules
but not numpy, in either mode and for any form.  ``verify`` and
``comass`` load the geometry stack with numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Tuple

try:  # the interpreter's own SHA-256; hashlib would load OpenSSL at every cold start
    from _sha256 import sha256
except ImportError:  # not built, or renamed (Python 3.12 calls it _sha2)
    from hashlib import sha256

if TYPE_CHECKING:
    from .calib import CalibrationForm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

#: What every ``cmd_*`` returns: (inputs digest, results, passes, failures).
Report = Tuple[str, dict, int, int]


class InputError(ValueError):
    pass


def _digest(*parts: str) -> str:
    h = sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _render_text(payload: dict) -> str:
    lines = [f"command: {payload['command']}",
             f"inputs digest: {payload['inputs_digest']}"]
    for key, value in payload["results"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            lines.extend("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items())
                         for row in value)
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {_fmt(v)}" for k, v in value.items())
        else:
            lines.append(f"{key}: {_fmt(value)}")
    lines.append(f"passes: {payload['passes']}  failures: {payload['failures']}")
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise InputError(f"expected non-negative integer for --seed, got {seed}")


def _resolve_form(spec: str, exact: bool) -> CalibrationForm:
    from . import calib
    if spec.startswith("builtin:"):
        return calib.builtin_form(spec.split(":", 1)[1], exact=exact)
    return calib.load_form(_load_json_file(spec))


def cmd_verify(args) -> Report:
    _check_seed(args.seed)
    from . import verify
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
    return _digest(*digest_parts), results, summary["passed"], summary["failed"]


def cmd_comass(args) -> Report:
    if args.exact:
        raise InputError("comass is a floating-point estimate; --exact does not apply")
    _check_seed(args.seed)
    from . import calib
    tol = calib.COMASS_TOL if args.tol is None else args.tol
    c = _resolve_form(args.form, exact=False)
    try:
        result = calib.comass_estimate(c, restarts=args.restarts, tol=tol,
                                       seed=args.seed, jobs=args.jobs)
    except MemoryError as exc:  # the arrays that hold every restart do not fit
        raise InputError(f"--restarts {args.restarts}: too many restarts to hold "
                         f"in memory ({exc})") from exc
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
    digest = _digest(args.form, str(args.restarts), f"{tol}", str(args.seed))
    return digest, rounded, int(result.converged), int(not result.converged)


def cmd_plane(args) -> Report:
    from . import calib, g2 as g2mod, spin7
    c = _resolve_form(args.form, exact=args.exact)
    obj = _load_json_file(args.vectors)
    plane = calib.load_plane(obj)
    results: dict = {"form": c.name, "dim": plane.dim, "degree": plane.degree,
                     "value": float(calib.calibration_value(c, plane))}
    failures = 0
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
        g2m = g2mod.build_g2()
        if plane.degree == 3:
            results["associative"] = g2mod.is_associative(g2m, plane)
        else:
            results["coassociative"] = g2mod.is_coassociative(g2m, plane)
    digest = _digest(args.form, json.dumps(obj, sort_keys=True))
    return digest, results, 1 - failures, failures


def cmd_index(args) -> Report:
    from . import index
    obj = _load_json_file(args.input)
    digest = _digest(json.dumps(obj, sort_keys=True))
    try:
        return digest, index.evaluate_index(obj).as_dict(), 1, 0
    except index.ParityError as exc:
        return digest, {"error": str(exc)}, 0, 1


def cmd_surgery(args) -> Report:
    from . import surgery
    obj = _load_json_file(args.input)
    root, rows = surgery.evaluate_surgery(obj)
    results = {"result": root.as_dict(), "derivation": rows}
    return _digest(json.dumps(obj, sort_keys=True)), results, 1, 0


def cmd_reproduce(args) -> Report:
    from . import reproduce
    derivation = reproduce.run_example(args.example)
    results = {
        "description": derivation.description,
        "derivation": list(derivation.rows),
        "values": derivation.values,
        "expected": derivation.expected,
        "index": derivation.index,
        "matches_expected": derivation.matches_expected,
    }
    mismatches = derivation.mismatched_fields
    if mismatches:
        results["mismatched_fields"] = list(mismatches)
    return (_digest(f"example={args.example}"), results,
            len(derivation.expected) - len(mismatches), len(mismatches))


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
    p.add_argument("--trials", type=int, default=60,
                   help="random trials of each floating row (default 60); exact rows "
                        "run the trials that their stated false-pass bound needs")
    p.add_argument("--form", default=None,
                   help="builtin:<name> or a form JSON file to inject")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("comass", help="estimate the comass of a form")
    p.add_argument("--form", required=True, help="builtin:<name> or a JSON file")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--tol", type=float, default=None,
                   help="relative gradient-norm bound in [0, 1) "
                        "(default calib.COMASS_TOL)")
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
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        digest, results, passes, failures = args.fn(args)
        payload = {"command": args.subcommand, "inputs_digest": digest,
                   "results": results, "passes": passes, "failures": failures}
        out = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        if args.output == "text":
            out = _render_text(payload)
    except (ValueError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        print(f"# wall time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the interpreter's
        # final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_FAIL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
