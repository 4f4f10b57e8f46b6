"""Capture the stdout and exit code of every cli_cold command as goldens.

    python3 perfbench/capture_goldens.py

The committed goldens were captured from the package as it stood when the
benchmark was added.  Recapture only for an intended change of CLI output,
and say so in the change.  ``reproduce --example 2`` exits 1 by design
(its stated target index contradicts the derived one); that is part of the
golden.
"""

from __future__ import annotations

import json
import os
import sys

import run
from inputs import cli_script


def main() -> int:
    goldens = {}
    for key, argv in cli_script(os.path.join(run.OUT, "cli-inputs")):
        _, code, out = run.cli_process(argv)
        goldens[key] = {"exit": code, "stdout": out}
        print(f"{key}: exit {code}", file=sys.stderr)
    os.makedirs(os.path.dirname(run.GOLDENS), exist_ok=True)
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
