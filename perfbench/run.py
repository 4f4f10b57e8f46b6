"""Benchmark of the cayley8 package: four workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the machine, the pinned environment and the workload's detailed
numbers, which is also written to ``.perfbench/results/``.

Workloads (one fresh worker process at a time, OpenBLAS/OMP pinned to one
thread, so ``jobs=2`` never oversubscribes a 2-core machine):

* ``exact_identity``: ``verify.run_suite(exact=True, trials=60)`` in a fresh
  interpreter per pass (the ``cayley8 --exact verify`` path, so the cached
  standard model is rebuilt every pass).
* ``float_identity``: the same suite with float coefficients.
* ``float_batch``: ``CayleySweep`` over 1e4 planted and random planes, then
  ``comass_estimate`` on the five builtins at 200 restarts with ``jobs=1``
  and with ``jobs=2``.
* ``cli_cold``: a fixed 18-command script of fresh ``cayley8 --output json``
  processes, shuffled by the seed.

Every workload emits the same end-to-end metrics: ``setup_s`` (median of
the run's set-ups: interpreter start, import and input generation up to
the first timed operation; one per pass for the verify workloads, five
otherwise), ``pass_ref`` (the wall time of one pass of the workload's
unit of work in units of ``refloop``, a fixed stdlib loop timed just
before and just after each pass in the process that times the pass: the
run's median pass seconds over its median loop seconds; for float_batch
a pass is the sum of the medians of the sweep call and of every
builtin's comass call at each ``jobs``, and the loop brackets each
round), ``peak_rss_mb`` (largest peak RSS of any worker) and
``pass_ratio`` (outputs that pass the oracle over outputs checked).

Every pass of a run does the same work, yet on a shared 2-vCPU host the
speed of a vCPU drifts by up to half over minutes, and the median pass
seconds of ten 30 s runs spread up to 23% (IQR over median); the fastest
pass follows the same drift.  The loop slows down with the host, not
with the package, so ``pass_ref`` cancels most of the drift.  The pass
seconds (with their median), the loop seconds and the workload's own
figures (verify seconds, sweep planes/s, comass restarts/s at each
``jobs``, CLI call and script seconds) go to the detail record.

With ``--trace 1`` a fixed amount of work runs untraced, traced, traced
and untraced; the per-layer metrics of ``spans.LAYER_METRICS`` come from
a traced copy, and ``trace.overhead_ratio`` is traced over untraced wall
time.

``perfbench/baseline/`` holds one untraced and one traced record per
workload (seed 201), measured on a 2-vCPU VM on the package as it stood
when the benchmark was added.  ``perfbench/selftest.py`` smoke-tests the
benchmark and its oracle; ``perfbench/capture_goldens.py`` made the CLI
goldens.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402  (after pinning the BLAS threads)

import inputs  # noqa: E402
import refloop  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDENS = os.path.join(HERE, "goldens", "cli.json")

WORKLOADS = ("exact_identity", "float_identity", "float_batch", "cli_cold")
#: checks in a full verify suite; the one floating check of exact mode
VERIFY_CHECKS = 32
FLOATING_CHECK = "restrict orientation equivariance"
FLOAT_TOL = 1e-10
#: a pass or call that takes longer than this is a hang
CHILD_TIMEOUT_S = 150
#: set-ups per untraced run of float_batch and cli_cold (setup_s is their
#: median; the verify workloads set up once per pass)
SETUPS = 5
#: float_batch workers that also measure (one round each at least)
BATCH_WORKERS = 1


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


class Tally:
    """Outputs checked against the oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# -- fresh-interpreter workers ---------------------------------------------------


class Worker:
    """A ``worker.py`` process; ``setup_s`` runs from start to ``ready``."""

    def __init__(self, request: dict, gen_s: float = 0.0):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            ready = self._read_line().strip()
        except BaseException:
            self.close()
            raise
        if ready != "ready":
            self.close()
            raise RuntimeError("worker failed during set-up")
        self.setup_s = gen_s + time.perf_counter() - t0

    def run(self) -> dict:
        try:
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
            line = self._read_line()
            if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
                raise RuntimeError("worker failed")
            return json.loads(line)
        finally:
            self.close()

    def _read_line(self) -> str:
        if not select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            raise RuntimeError(f"worker silent for {CHILD_TIMEOUT_S} s")
        return self.proc.stdout.readline()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout):
            fh.close()


#: order of the untraced (False) and traced (True) copies of a traced run;
#: the mirrored order cancels a linear drift of machine speed in the ratio
TRACE_ORDER = (False, True, True, False)


def _traced_run(once):
    """Run ``once(traced) -> (seconds, result)`` in TRACE_ORDER.

    Returns the tracing overhead ratio and the results of every copy.
    """
    seconds = {False: 0.0, True: 0.0}
    results = []
    for traced in TRACE_ORDER:
        secs, result = once(traced)
        seconds[traced] += secs
        results.append(result)
    return seconds[True] / seconds[False], results


def _verify_oracle(result: dict, exact: bool, tally: Tally) -> None:
    failed = max(0, VERIFY_CHECKS - len(result["outcomes"]))
    for name, passed, residual in result["outcomes"]:
        if exact and name != FLOATING_CHECK:
            ok = passed and residual == 0
        else:
            ok = passed and residual < FLOAT_TOL
        failed += not ok
    tally.add(max(VERIFY_CHECKS, len(result["outcomes"])), failed)


def run_verify(exact: bool, seed: int, seconds: float, trace: bool,
               sizes: inputs.Sizes, tally: Tally, form_terms=None) -> dict:
    def request(traced):
        return {"kind": "verify", "exact": exact, "verify_seed": inputs.VERIFY_SEED,
                "trials": sizes.trials, "form_terms": form_terms, "trace": traced,
                "spans_path": os.path.join(OUT, f"spans-verify-{exact}-{seed}.jsonl.gz")}

    if trace:
        def once(traced):
            result = Worker(request(traced)).run()
            _verify_oracle(result, exact, tally)
            return result["pass_s"], result

        ratio, results = _traced_run(once)
        tally.add(1, int(any(r["outcomes"] != results[0]["outcomes"] for r in results)))
        return {"layers": [results[TRACE_ORDER.index(True)]["layers"]],
                "import_s": [], "overhead_ratio": ratio}

    setups, passes, refs = [], [], []
    start = time.perf_counter()
    while True:
        worker = Worker(request(False))
        setups.append(worker.setup_s)
        result = worker.run()
        passes.append(result["pass_s"])
        refs.append(result["ref_s"])
        _verify_oracle(result, exact, tally)
        # another pass, set-up and loop gauges included, only if it fits
        elapsed = time.perf_counter() - start
        if len(passes) >= 3 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    name = "exact_verify_s" if exact else "float_verify_s"
    return {"setup": setups,
            "pass_ref": statistics.median(passes) / statistics.median(refs),
            "detail": {name: statistics.median(passes), "passes": passes, "ref_s": refs}}


def run_batch(seed: int, seconds: float, trace: bool, sizes: inputs.Sizes,
              tally: Tally) -> dict:
    path = os.path.join(OUT, f"batch-{seed}.npz")

    def start(budget, max_rounds, traced):
        t0 = time.perf_counter()
        np.savez(path, **inputs.plane_batch(seed, sizes))
        req = {"kind": "batch", "inputs": path, "seconds": budget,
               "max_rounds": max_rounds,
               "restarts": sizes.restarts, "comass_seed": inputs.COMASS_SEED,
               "trace": traced, "spans_path": os.path.join(OUT, f"spans-batch-{seed}.jsonl.gz")}
        return Worker(req, gen_s=time.perf_counter() - t0)

    def round_s(result):
        return (statistics.median(result["sweep_s"])
                + sum(statistics.median(v) for jobs in result["comass_s"].values()
                      for v in jobs.values()))

    if trace:
        def once(traced):
            result = start(0, 1, traced).run()
            tally.add(result["attempted"], result["failed"])
            return round_s(result), result

        ratio, results = _traced_run(once)
        outputs = [(r["digest"], r["comass_values"]) for r in results]
        tally.add(1, int(any(o != outputs[0] for o in outputs)))
        return {"layers": [results[TRACE_ORDER.index(True)]["layers"]],
                "import_s": [], "overhead_ratio": ratio}

    setups, results = [], []
    for i in range(SETUPS):
        worker = start(seconds / BATCH_WORKERS, 0, False)
        setups.append(worker.setup_s)
        if i < SETUPS - BATCH_WORKERS:
            worker.close()  # a set-up sample only
            continue
        results.append(worker.run())
        tally.add(results[-1]["attempted"], results[-1]["failed"])
    merged = {"ref_s": [t for r in results for t in r["ref_s"]],
              "sweep_s": [t for r in results for t in r["sweep_s"]],
              "comass_s": {jobs: {name: [t for r in results for t in r["comass_s"][jobs][name]]
                                  for name in results[0]["comass_s"][jobs]}
                           for jobs in ("1", "2")}}
    planes = results[0]["planes"]
    restarts = sizes.restarts * len(merged["comass_s"]["1"])
    detail = {
        "sweep_planes_per_s": planes / statistics.median(merged["sweep_s"]),
        "comass_restarts_per_s": restarts / sum(
            statistics.median(v) for v in merged["comass_s"]["1"].values()),
        "comass_restarts_per_s_jobs2": restarts / sum(
            statistics.median(v) for v in merged["comass_s"]["2"].values()),
        "sweep_calls": len(merged["sweep_s"]),
        "pass_s": round_s(merged),
        "ref_s": merged["ref_s"],
        "plane_mix": {kind: share for kind, share, _, _ in inputs.PLANE_MIX},
    }
    return {"setup": setups,
            "pass_ref": detail["pass_s"] / statistics.median(merged["ref_s"]),
            "detail": detail}


# -- the cold CLI ------------------------------------------------------------------


def cli_process(argv, result_path=None):
    """One cold CLI process; returns (seconds, exit code, stdout)."""
    if result_path is None:
        cmd = [sys.executable, "-m", "cayley8.cli", "--output", "json", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "clirun.py"), result_path,
               "--output", "json", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout.decode()


def _script_pass(script, order, goldens, tally, trace_dir=None):
    """Run the script once in ``order``; returns (pass seconds, call seconds)."""
    calls = []
    t0 = time.perf_counter()
    for i in order:
        key, argv = script[i]
        result_path = None if trace_dir is None else os.path.join(trace_dir, key + ".json")
        seconds, code, out = cli_process(argv, result_path)
        calls.append(seconds)
        golden = goldens[key]
        tally.add(1, int(code != golden["exit"] or out != golden["stdout"]))
    return time.perf_counter() - t0, calls


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run_cli(seed: int, seconds: float, trace: bool, sizes: inputs.Sizes,
            tally: Tally, goldens=None) -> dict:
    goldens = load_goldens() if goldens is None else goldens
    workdir = os.path.join(OUT, "cli-inputs")

    def setup():
        t0 = time.perf_counter()
        script = inputs.cli_script(workdir)
        if sizes.cli_commands:
            script = script[:sizes.cli_commands]
        code = subprocess.run([sys.executable, os.path.join(HERE, "clirun.py"), "-"],
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        if code != 0:
            raise RuntimeError("importing cayley8.cli failed")
        return script, time.perf_counter() - t0

    setups = []
    for _ in range(1 if trace else SETUPS):
        script, setup_s = setup()
        setups.append(setup_s)
    orders = inputs.script_order(seed, len(script), 64)

    if trace:
        trace_dir = os.path.join(OUT, f"cli-trace-{seed}")
        os.makedirs(trace_dir, exist_ok=True)
        ratio, _ = _traced_run(lambda traced: (_script_pass(
            script, orders[0], goldens, tally, trace_dir if traced else None)[0], None))
        parts = []
        for key, _ in script:
            with open(os.path.join(trace_dir, key + ".json")) as fh:
                parts.append(json.load(fh))
        return {"layers": [p["layers"] for p in parts],
                "import_s": [p["import_s"] for p in parts],
                "overhead_ratio": ratio}

    passes, calls, refs = [], [], []
    # the loop gauge runs in this process and the CLI in its children: keep
    # them on one CPU (children inherit it), so the gauge sees the speed of
    # the CPU the calls run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for order in orders:
            before = refloop.ref_s()
            pass_s, call_s = _script_pass(script, order, goldens, tally)
            refs.append((before + refloop.ref_s()) / 2)
            passes.append(pass_s)
            calls.extend(call_s)
            if len(passes) >= 2 and sum(passes) + statistics.median(passes) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    detail = {"cli_call_s": statistics.median(calls),
              "cli_script_s": statistics.median(passes), "passes": passes,
              "ref_s": refs}
    return {"setup": setups,
            "pass_ref": statistics.median(passes) / statistics.median(refs),
            "detail": detail}


# -- entry point -------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "pinned_env": PINNED_ENV}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: inputs.Sizes = inputs.FULL, form_terms=None,
                 goldens=None) -> dict:
    """Run one workload; returns the result line plus a detail record."""
    tally = Tally()
    os.makedirs(OUT, exist_ok=True)
    if workload in ("exact_identity", "float_identity"):
        res = run_verify(workload == "exact_identity", seed, seconds, trace,
                         sizes, tally, form_terms)
    elif workload == "float_batch":
        res = run_batch(seed, seconds, trace, sizes, tally)
    else:
        res = run_cli(seed, seconds, trace, sizes, tally, goldens)
    if trace:
        metrics = spans.layer_metrics(spans.merge(res["layers"]), res["import_s"],
                                      res["overhead_ratio"])
        detail = {}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "pass_ref": {"value": res["pass_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "pass_ratio": {"value": (tally.attempted - tally.failed) / max(tally.attempted, 1),
                           "unit": "ratio"},
        }
        detail = dict(res["detail"], setups=res["setup"])
    line = {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(), "detail": detail,
              "result": line}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cayley8", "__init__.py")):
        print(f"no cayley8 sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import compileall
    compileall.compile_dir(os.path.join(SRC, "cayley8"), quiet=1)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
