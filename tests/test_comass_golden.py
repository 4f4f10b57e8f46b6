"""Replay comass estimates and CLI payloads bit for bit against a golden.

``goldens/comass.json`` holds, for each case below, the full-precision
value, argmax, best restart, iterations, converged flag and warning of
``comass_estimate``, plus the stdout of a few ``cayley8 comass`` calls.
The builtin forms have one or two nonzero coefficients per tensor row, so
only the dense random forms catch a contraction that sums in a new order.
Regenerate the file with ``PYTHONPATH=src python tests/test_comass_golden.py``
only when a change of the numbers is intended.
"""

import json
import os
import sys

import numpy as np
import pytest

from cayley8 import calib, cli
from cayley8.multivec import random_form

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "comass.json")

TOLS = (1e-6, 1e-13)
#: (dim, degree) of the dense random forms; (8, 5) runs through its Hodge dual
DENSE = ((8, 4), (8, 3), (8, 5), (7, 3))

CASES = {
    **{f"{name}/tol={tol}": (name, tol) for name in calib.BUILTIN_FORMS for tol in TOLS},
    **{f"dense{n}.{p}/tol={tol}": ((n, p), tol) for n, p in DENSE for tol in TOLS},
}

CLI_CASES = (
    ("comass", "--form", "builtin:spin7", "--restarts", "20", "--seed", "4294967296"),
    ("comass", "--form", "builtin:g2-assoc", "--restarts", "20",
     "--seed", str(2 ** 64 + 1)),
)


def _form(spec) -> calib.CalibrationForm:
    if isinstance(spec, str):
        return calib.builtin_form(spec, exact=False)
    n, p = spec
    return calib.CalibrationForm(random_form(np.random.default_rng(10 * n + p), n, p),
                                 f"dense{n}.{p}")


def _estimate(key: str) -> dict:
    spec, tol = CASES[key]
    restarts = 200 if isinstance(spec, str) else 50
    return calib.comass_estimate(_form(spec), restarts=restarts, seed=0, tol=tol).as_dict()


if os.path.exists(GOLDEN):
    with open(GOLDEN) as _fh:
        GOLDENS = json.load(_fh)
else:
    GOLDENS = {"estimates": {}, "cli": {}}


def test_golden_covers_every_case():
    assert sorted(GOLDENS["estimates"]) == sorted(CASES)
    assert sorted(GOLDENS["cli"]) == sorted(" ".join(a) for a in CLI_CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_comass_estimate_matches_golden(key):
    # floats compare with ==: JSON keeps the shortest repr, which round-trips
    assert _estimate(key) == GOLDENS["estimates"][key]


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda a: a[-1])
def test_comass_cli_matches_golden(argv, capsys):
    assert cli.main(["--output", "json", *argv]) == 0
    assert capsys.readouterr().out == GOLDENS["cli"][" ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    cli_out = {}
    for argv in CLI_CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["--output", "json", *argv]) == 0
        cli_out[" ".join(argv)] = buf.getvalue()
    data = {"estimates": {key: _estimate(key) for key in sorted(CASES)}, "cli": cli_out}
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write(f"wrote {len(CASES)} estimates and {len(cli_out)} CLI payloads\n")
