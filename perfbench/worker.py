"""One fresh-interpreter worker of the verify and float_batch workloads.

Protocol on stdin/stdout, one JSON line each way: ``run.py`` sends the
request, the worker imports the package and sets up, prints ``ready``,
waits for ``go``, runs the timed work, checks its outputs and prints the
result.  ``run.py`` times set-up from process start to ``ready``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import refloop
import spans
from inputs import PLANE_MIX, KINDS


def _verify(req, tracer):
    from cayley8 import verify

    form = None
    if req.get("form_terms"):
        from cayley8.multivec import KForm
        form = KForm.from_terms(8, 4, {tuple(b): c for b, c in req["form_terms"]})
    yield
    before = refloop.ref_s()
    t0 = time.perf_counter()
    outcomes, _ = verify.run_suite(exact=req["exact"], seed=req["verify_seed"],
                                         trials=req["trials"], form=form)
    pass_s = time.perf_counter() - t0
    yield {"pass_s": pass_s, "ref_s": (before + refloop.ref_s()) / 2,
           "outcomes": [[o.name, bool(o.passed), o.residual] for o in outcomes]}


def _assemble_planes(model, raw):
    """Planted and random planes from the raw batch randomness (see inputs)."""
    from cayley8 import spin7

    rng = np.random.default_rng(int(raw["frame_seed"]))
    bases = np.array([[v.to_array() for v in spin7.random_spin7_frame(model, rng).vectors[:4]]
                      for _ in range(int(raw["frames"]))])
    planes = raw["rotation"] @ bases[raw["base"]]
    direction = raw["direction"]
    direction = direction - direction @ np.transpose(planes, (0, 2, 1)) @ planes
    direction /= np.linalg.norm(direction, axis=(1, 2))[:, None, None]
    moved = planes + raw["eps"][:, None, None] * direction
    q, r = np.linalg.qr(np.transpose(moved, (0, 2, 1)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    planes = np.transpose(q, (0, 2, 1))
    is_random = raw["kind"] == KINDS.index("random")
    planes[is_random] = raw["random_frames"][is_random]
    return np.ascontiguousarray(planes)


def _verdicts(tau_norms, values, tau_tol):
    cayley = tau_norms <= tau_tol
    return np.where(cayley, np.where(values > 0, "cayley+", "cayley-"), "not-cayley")


def _batch(req, tracer):
    from cayley8 import calib, spin7
    from cayley8.multivec import OrientedPlane, Vector

    raw = dict(np.load(req["inputs"]))
    model = spin7.standard_model(exact=False)
    sweep = calib.CayleySweep(model)
    planes = _assemble_planes(model, raw)
    forms = [calib.builtin_form(name, exact=False) for name in calib.BUILTIN_FORMS]
    expected = np.full(len(planes), "", dtype=object)
    for k, (_, _, _, verdict) in enumerate(PLANE_MIX):
        if verdict == "cayley":
            sel = raw["kind"] == k
            signs = np.linalg.det(raw["rotation"][sel])
            expected[sel] = np.where(signs > 0, "cayley+", "cayley-")
        elif verdict is not None:
            expected[raw["kind"] == k] = verdict
    planted = expected != ""
    yield

    out = {"ref_s": [], "sweep_s": [], "comass_s": {"1": {}, "2": {}}, "attempted": 0,
           "failed": 0, "comass_values": {}, "digest": 0.0}
    start = time.perf_counter()
    rounds = 0
    # after the first round, another starts only if it fits the budget
    while rounds == 0 or (
            time.perf_counter() - start) * (rounds + 1) / rounds <= req["seconds"]:
        before = refloop.ref_s()
        t0 = time.perf_counter()
        tau_norms, values = sweep(planes)
        out["sweep_s"].append(time.perf_counter() - t0)
        got = _verdicts(tau_norms, values, calib.TAU_TOL)
        out["attempted"] += int(planted.sum())
        out["failed"] += int((got[planted] != expected[planted]).sum())
        out["digest"] = float(tau_norms.sum() + values.sum())
        for jobs in ("1", "2"):
            for c in forms:
                t0 = time.perf_counter()
                res = calib.comass_estimate(c, restarts=req["restarts"],
                                            seed=req["comass_seed"], jobs=int(jobs))
                out["comass_s"][jobs].setdefault(c.name, []).append(
                    time.perf_counter() - t0)
                out["comass_values"][f"{c.name}/{jobs}"] = res.value
                out["attempted"] += 1
                out["failed"] += int(abs(res.value - 1.0) > 1e-6)
        out["ref_s"].append((before + refloop.ref_s()) / 2)
        rounds += 1
        if req["max_rounds"] and rounds >= req["max_rounds"]:
            break

    # the sparse path is the reference for a fixed sample, near-gate planes included
    if tracer is not None:
        tracer.enabled = False
    sample = raw["sample"]
    for i in sample:
        ref = calib.cayley_test(model, OrientedPlane([Vector(row) for row in planes[i]]))
        ok = (abs(ref.tau_norm - tau_norms[i]) <= 1e-12
              and abs(ref.value - values[i]) <= 1e-12
              and ref.verdict == got[i])
        out["attempted"] += 1
        out["failed"] += int(not ok)
    out["planes"] = len(planes)
    yield out


def main() -> int:
    req = json.loads(sys.stdin.readline())
    tracer = None
    if req["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    steps = (_verify if req["kind"] == "verify" else _batch)(req, tracer)
    next(steps)  # set-up
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2
    result = next(steps)
    if tracer is not None:
        tracer.enabled = False
        tracer.write(req["spans_path"])
        result["layers"] = tracer.aggregate()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
