"""Inputs of every workload, made from the workload seed.

The package only ever sees what is made here: the seeds of its own
randomness, the raw randomness of the plane batch, and the fixed CLI
script (whose order the seed shuffles; its inputs are fixed so that stdout
can be compared byte for byte with goldens).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

#: Plane kinds of the float_batch sweep and their share of a batch.  The
#: adapted-frame planes are Cayley; a det -1 in-plane rotation reverses the
#: orientation (calibration value -1).  Perturbed planes move the plane by
#: eps along a unit out-of-plane direction; tau grows like (0.3..1.6) eps,
#: so "inside" stays below the 1e-9 tau gate, "outside" lands far above it
#: and "near" straddles it (its verdict is checked against the sparse
#: ``calib.cayley_test``).  Random Gaussian planes are never Cayley.
PLANE_MIX = (
    # kind, share, log10 eps range (None: no perturbation), expected verdict
    ("cayley+", 0.10, None, "cayley"),
    ("cayley-", 0.10, None, "cayley"),
    ("inside", 0.10, (-13.0, -11.0), "cayley"),
    ("near", 0.10, (-9.5, -8.5), None),
    ("outside", 0.10, (-6.0, -5.0), "not-cayley"),
    ("random", 0.50, None, "not-cayley"),
)
KINDS = tuple(k[0] for k in PLANE_MIX)

#: Seeds of the package's own randomness in the verify suite and in comass:
#: the CLI defaults, so the verify workloads time ``cayley8 [--exact] verify``
#: as users run it.  The cost of a verify pass or of 200 comass restarts
#: moves by 6-10% from one seed to another, which would swamp run-to-run
#: noise; fixed seeds keep every pass timing the same work.  The workload
#: seed drives the plane batch and the CLI script order.
VERIFY_SEED = 0
COMASS_SEED = 0


@dataclass(frozen=True)
class Sizes:
    trials: int          # verify trials per pass
    frames: int          # adapted Spin(7) frames made in float_batch setup
    batch: int           # planes per sweep call
    sample_per_kind: int  # planes per kind re-checked with the sparse path
    restarts: int        # comass restarts per builtin
    cli_commands: int    # commands of the CLI script to run (0: all)


FULL = Sizes(trials=60, frames=12, batch=10_000, sample_per_kind=6,
             restarts=200, cli_commands=0)
SMOKE = Sizes(trials=6, frames=2, batch=600, sample_per_kind=2,
              restarts=8, cli_commands=4)


def _orthogonal(rng, count: int, n: int, dets) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    flip = np.linalg.det(q) * dets < 0
    q[flip, 0, :] *= -1
    return q


def plane_batch(seed: int, sizes: Sizes) -> dict:
    """Raw randomness of one sweep batch; the worker assembles the planes.

    Arrays (length = batch): kind index, base frame index, in-plane
    rotation (4x4, det +-1), out-of-plane direction (4x8) and eps for the
    planted planes, plus orthonormal Gaussian frames for the random ones.
    """
    rng = np.random.default_rng([seed, 0xBA7C])
    n = sizes.batch
    counts = [int(round(share * n)) for _, share, _, _ in PLANE_MIX]
    counts[-1] = n - sum(counts[:-1])
    kind = np.repeat(np.arange(len(PLANE_MIX)), counts)
    rng.shuffle(kind)
    dets = np.where(kind == KINDS.index("cayley-"), -1.0,
                    rng.choice([-1.0, 1.0], size=n))
    dets[kind == KINDS.index("cayley+")] = 1.0
    log_eps = np.zeros(n)
    for k, (_, _, span, _) in enumerate(PLANE_MIX):
        if span is not None:
            sel = kind == k
            log_eps[sel] = rng.uniform(span[0], span[1], size=int(sel.sum()))
    q, r = np.linalg.qr(rng.standard_normal((n, 8, 4)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    sample = np.concatenate([
        rng.choice(np.flatnonzero(kind == k),
                   size=sizes.sample_per_kind * (4 if KINDS[k] == "near" else 1),
                   replace=False)
        for k in range(len(PLANE_MIX))])
    return {
        "frame_seed": np.array(int(rng.integers(0, 2**31 - 1))),
        "frames": np.array(sizes.frames),
        "kind": kind,
        "base": rng.integers(0, sizes.frames, size=n),
        "rotation": _orthogonal(rng, n, 4, dets),
        "direction": rng.standard_normal((n, 4, 8)),
        "eps": np.where(log_eps != 0, 10.0 ** log_eps, 0.0),
        "random_frames": np.transpose(q, (0, 2, 1)),
        "sample": np.sort(sample),
    }


# -- the cold CLI script -----------------------------------------------------------

_INDEX_FIELDS = {
    "closed": {"chi": 24, "sigma": -16, "self_intersection": 9},
    "eta": {"chi": 48, "sigma": -16, "euler_normal": 24, "dim_ker_Dtilde": 0,
            "eta_Dtilde": 0.0, "eta_Bev": 0.0},
    "spectral_flow": {"chi": 24, "sigma": -16, "rel_euler": 3, "SF": 2,
                      "dim_ker_Dtilde": 0},
    "parallel_section": {"chi": 4, "sigma": 0, "rel_euler": 0, "b0_Y": 1,
                         "b1_Y": 3},
    "parallel_section_lift": {"chi": 48, "sigma_X": 0, "sigma_Xtilde": 0,
                              "rel_euler_lift": 96, "b0_Y": 14, "b1_Y": 0,
                              "b0_Ytilde": 26, "b1_Ytilde": 0},
    "complex_cross_section": {"chi": 4, "sigma": 0, "rel_euler": 0, "dimH0": 2},
    "combined_example": {"chi": 48, "sigma": -16, "euler_normal": 24,
                         "sigma_X4": 0, "sigma_X4tilde": 0, "b0_Y": 1,
                         "b1_Y": 13, "b0_Ytilde": 1, "b1_Ytilde": 25,
                         "dimH0": 4},
    "special_lagrangian": {"chi": 2, "sigma": 0, "b0_Y": 1, "b1_Y": 1},
    "coassociative": {"chi": 2, "sigma": 0, "b0_Y": 1, "b1_Y": 1},
    "complex_surface": {"chi_bar": 24, "sigma_bar": -16,
                        "self_intersection_bar": 9, "chi_C": 4, "dimH0": 2},
    "associative": {"dimH0": 4},
}


def _surgery_tree() -> dict:
    """The worked-example-1 compactification as a surgery expression tree."""
    def leaf(chi, sigma, label):
        return {"op": "leaf", "invariants": {"dim": 4, "chi": chi,
                                             "sigma": sigma, "label": label}}

    tree = leaf(2, 1, "surface piece")
    for _ in range(16):
        tree = {"op": "connected_sum",
                "parts": [tree, leaf(3, -1, "reversed plane")]}
    for piece in (leaf(24, 0, "cylinder component"), leaf(-12, 0, "cap"),
                  leaf(-12, 0, "cap"), leaf(2, -1, "exceptional component")):
        tree = {"op": "glue", "parts": [tree, piece],
                "along": {"dim": 3, "chi": 0, "label": "3-manifold"}}
    return tree


def _plane(indices) -> dict:
    vectors = [[1 if j == i else 0 for j in range(1, 9)] for i in indices]
    return {"dim": 8, "degree": 4, "vectors": vectors}


def cli_script(workdir: str) -> list:
    """The fixed CLI script as (key, argv) pairs; writes its input files.

    Every command runs as ``cayley8 --output json <argv>``.
    """
    files = {f"index-{name}.json": {"formula": name, "fields": fields}
             for name, fields in _INDEX_FIELDS.items()}
    files["index-closed-complex.json"] = {
        "formula": "closed", "orientation": "complex",
        "fields": {"chi": 24, "sigma": 16, "self_intersection": 9}}
    files["surgery-compactification.json"] = _surgery_tree()
    files["plane-cayley.json"] = _plane((1, 2, 3, 4))
    files["plane-not-cayley.json"] = _plane((1, 2, 3, 5))
    os.makedirs(workdir, exist_ok=True)
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(obj, fh)

    def path(name):
        return os.path.join(workdir, name)

    script = [("reproduce-1", ["reproduce", "--example", "1"]),
              ("reproduce-2", ["reproduce", "--example", "2"])]
    for name in sorted(n for n in files if n.startswith("index-")):
        script.append((name[:-5], ["index", "--input", path(name)]))
    script.append(("surgery-compactification",
                   ["surgery", "--input", path("surgery-compactification.json")]))
    for name in ("plane-cayley", "plane-not-cayley"):
        script.append((name, ["plane", "--form", "builtin:spin7",
                              "--vectors", path(name + ".json")]))
    script.append(("comass-spin7", ["comass", "--form", "builtin:spin7",
                                    "--restarts", "50", "--seed", "3"]))
    return script


def script_order(seed: int, count: int, passes: int) -> list:
    """One seeded permutation of the script per pass."""
    rng = np.random.default_rng([seed, 0xC11])
    return [[int(i) for i in rng.permutation(count)] for _ in range(passes)]
