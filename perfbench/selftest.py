"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced at smoke sizes, and
checks that every metric of BENCHMARK.json is emitted with its unit, that
per-layer counts repeat exactly for a fixed seed, and that the oracle can
fail: a sign-flipped model form must fail identities, and a tampered
golden must fail the CLI comparison.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import inputs
import run


def _check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def _units(record: dict) -> dict:
    return {name: m["unit"] for name, m in record["result"]["metrics"].items()}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    _check({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json names the four workloads")

    for workload in run.WORKLOADS:
        plain = run.run_workload(workload, 7, 1, False, inputs.SMOKE)
        _check(plain["result"]["correct"], f"{workload}: smoke outputs pass the oracle")
        _check(_units(plain) == end_to_end, f"{workload}: every end-to-end metric emitted")
        traced = [run.run_workload(workload, 7, 1, True, inputs.SMOKE) for _ in range(2)]
        _check(all(t["result"]["correct"] for t in traced),
               f"{workload}: traced outputs equal untraced ones")
        _check(_units(traced[0]) == per_layer, f"{workload}: every per-layer metric emitted")
        counts = [{n: m["value"] for n, m in t["result"]["metrics"].items()
                   if m["unit"] == "count"} for t in traced]
        _check(counts[0] == counts[1], f"{workload}: per-layer counts repeat")

    sys.path.insert(0, run.SRC)
    from cayley8.spin7 import PHI0_TERMS

    flipped = [[list(b), -c if b == (1, 2, 3, 4) else c] for b, c in PHI0_TERMS.items()]
    bad = run.run_workload("exact_identity", 7, 1, False, inputs.SMOKE, form_terms=flipped)
    _check(bad["result"]["failed"] > 0 and bad["result"]["metrics"]["pass_ratio"]["value"] < 1,
           "sign-flipped phi0 fails the identity oracle")

    goldens = copy.deepcopy(run.load_goldens())
    first = inputs.cli_script(os.path.join(run.OUT, "cli-inputs"))[0][0]
    goldens[first]["stdout"] += " "
    bad = run.run_workload("cli_cold", 7, 1, False, inputs.SMOKE, goldens=goldens)
    _check(bad["result"]["failed"] > 0 and bad["result"]["metrics"]["pass_ratio"]["value"] < 1,
           "a tampered golden fails the CLI oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
