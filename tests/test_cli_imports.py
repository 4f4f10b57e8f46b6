"""The arithmetic commands never import the geometry stack.

``cayley8.cli`` imports only ``index``, ``surgery`` and ``reproduce`` with
itself; ``verify``, ``comass`` and ``plane`` import what they need inside
their handlers.  Each case runs in a fresh interpreter, because the test
process has long since imported everything, and lists which of the
geometry modules the command left in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

GEOMETRY = ("numpy", "numpy.random", "cayley8.multivec", "cayley8.spin7", "cayley8.calib",
            "cayley8.g2", "cayley8.dirac", "cayley8.verify")

_PROBE = """
import contextlib, io, json, sys
from cayley8 import cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    code = 0
print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""


def _loaded_after(argv):
    """Exit code of ``cli.main(argv)`` and the geometry modules loaded by then.

    An empty ``argv`` only imports ``cayley8.cli``.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(GEOMETRY)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.fixture
def inputs(tmp_path):
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"formula": "closed", "fields": {
        "chi": 24, "sigma": -16, "self_intersection": 9}}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"op": "connected_sum", "parts": [
        {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": 1}},
        {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": -1}}]}))
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"dim": 8, "degree": 4, "vectors": [
        [1 if j == i else 0 for j in range(8)] for i in range(4)]}))
    return {"index": str(index), "tree": str(tree), "plane": str(plane)}


def test_importing_the_cli_loads_no_geometry_module():
    assert _loaded_after([]) == (0, [])


@pytest.mark.parametrize("argv, code", [
    (["index", "--input", "{index}"], 0),
    (["surgery", "--input", "{tree}"], 0),
    (["reproduce", "--example", "1"], 0),
    (["reproduce", "--example", "2"], 1),  # the target mismatch kept by design
])
def test_arithmetic_commands_load_no_geometry_module(inputs, argv, code):
    argv = [a.format(**inputs) for a in argv]
    assert _loaded_after(argv) == (code, [])


@pytest.mark.parametrize("argv", [
    ["plane", "--form", "builtin:spin7", "--vectors", "{plane}"],
    ["comass", "--form", "builtin:spin7", "--restarts", "2", "--seed", "1"],
])
def test_plane_and_comass_load_neither_dirac_nor_verify(inputs, argv):
    code, loaded = _loaded_after([a.format(**inputs) for a in argv])
    assert code == 0
    assert "cayley8.calib" in loaded
    assert "cayley8.dirac" not in loaded and "cayley8.verify" not in loaded


def test_calib_and_plane_leave_numpy_random_unloaded(inputs):
    """numpy imports ``numpy.random`` on first use, and calib uses it only
    to seed comass restarts, so neither importing calib nor ``plane`` pays
    for that import."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "import sys, cayley8.calib; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    code, loaded = _loaded_after(["plane", "--form", "builtin:spin7",
                                  "--vectors", inputs["plane"]])
    assert code == 0 and "cayley8.calib" in loaded
    assert "numpy.random" not in loaded


def test_python_m_cayley8_runs_the_cli_without_numpy(inputs):
    """``python -m cayley8`` is the ``cayley8`` command; ``-X importtime``
    lists on stderr every module the process imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["-X", "importtime", "-m", "cayley8", "--output", "json",
            "index", "--input", inputs["index"]]
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "index"
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "cayley8.cli" in imported
    assert not {"numpy", "cayley8.multivec"} & imported
