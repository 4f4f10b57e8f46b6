"""A cold command imports only what it runs.

Importing ``cayley8.cli`` loads no other module of the package, nor
``dataclasses``: each handler imports what its command needs.  The
arithmetic commands (``index``, ``surgery``, ``reproduce``) never load
the geometry stack or ``dataclasses``, and ``index`` loads neither
``fractions`` nor the other two arithmetic modules.  ``plane`` loads the
geometry modules but not numpy, in float and exact mode, for a builtin or
a JSON form and for a form that fails the structure certificate:
importing ``cayley8.calib`` loads no numpy, and the certificate decides
by polynomial identities.  ``verify`` and ``comass`` load numpy.  Each
case runs in a fresh interpreter, because the test process has long
since imported everything, and lists which of the watched modules the
probe added to ``sys.modules`` after start-up, so a module that a
``site`` hook preloads never counts.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from cayley8.spin7 import PHI0_TERMS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

GEOMETRY = ("numpy", "numpy.random", "cayley8.multivec", "cayley8.spin7", "cayley8.calib",
            "cayley8.g2", "cayley8.dirac", "cayley8.verify")

#: what a cold ``index`` call leaves unloaded
LEAN = ("dataclasses", "fractions", "cayley8.surgery", "cayley8.reproduce")

#: the cold ``plane`` calls: float and exact mode, builtin and JSON form, and
#: a degree-4 form on R^8 that fails the structure certificate
PLANES = {f"{mode}-{form}": [*(["--exact"] if mode == "exact" else []), "plane",
                             "--form", "builtin:spin7" if form == "builtin" else "{form}",
                             "--vectors", "{plane}"]
          for mode in ("float", "exact") for form in ("builtin", "json")}
PLANES["float-not-spin7"] = ["plane", "--form", "builtin:wirtinger2", "--vectors", "{plane}"]

_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from cayley8 import cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    code = 0
added = [m for m in json.loads(sys.argv[2]) if m in sys.modules and m not in before]
print(json.dumps([code, added]))
"""


def _loaded_after(argv, watched=GEOMETRY):
    """Exit code of ``cli.main(argv)`` and the ``watched`` modules it loaded.

    An empty ``argv`` only imports ``cayley8.cli``.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(watched)],
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
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 8, "degree": 4, "terms": [
        {"blade": list(b), "coeff": c} for b, c in PHI0_TERMS.items()]}))
    return {"index": str(index), "tree": str(tree), "plane": str(plane), "form": str(form)}


def test_importing_the_cli_loads_no_geometry_module():
    assert _loaded_after([]) == (0, [])


@pytest.mark.parametrize("argv, runs, absent", [
    ([], None, ("cayley8.index",) + LEAN),
    (["index", "--input", "{index}"], "cayley8.index", LEAN),
    (["surgery", "--input", "{tree}"], "cayley8.surgery", ("dataclasses", "cayley8.reproduce")),
    (["reproduce", "--example", "1"], "cayley8.reproduce", ("dataclasses",)),
], ids=["import", "index", "surgery", "reproduce"])
def test_a_cold_command_loads_only_what_it_runs(inputs, argv, runs, absent):
    watched = absent + ((runs,) if runs else ())
    code, loaded = _loaded_after([a.format(**inputs) for a in argv], watched)
    assert code == 0
    assert loaded == ([runs] if runs else [])


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
    PLANES["float-builtin"],
    ["comass", "--form", "builtin:spin7", "--restarts", "2", "--seed", "1"],
])
def test_plane_and_comass_load_neither_dirac_nor_verify(inputs, argv):
    code, loaded = _loaded_after([a.format(**inputs) for a in argv])
    assert code == 0
    assert "cayley8.calib" in loaded
    assert "cayley8.dirac" not in loaded and "cayley8.verify" not in loaded


def test_importing_calib_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys; before = set(sys.modules); import cayley8.calib; "
             "print(sorted({'numpy', 'numpy.random'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("case", sorted(PLANES))
def test_plane_loads_no_numpy(inputs, case):
    code, loaded = _loaded_after([a.format(**inputs) for a in PLANES[case]])
    assert code == 0 and "cayley8.calib" in loaded and "cayley8.spin7" in loaded
    assert "numpy" not in loaded and "numpy.random" not in loaded


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["comass", "--form", "builtin:spin7", "--restarts", "2", "--seed", "1"],
], ids=["verify", "comass"])
def test_verify_and_comass_load_numpy(argv):
    assert "numpy" in _loaded_after(argv)[1]


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
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    # a module is listed once its own imports are done, so whatever ``site``
    # (and any hook it runs) imported comes before it
    if "site" in imported:
        imported = imported[imported.index("site") + 1:]
    assert "cayley8.cli" in imported
    unused = {"numpy", "cayley8.multivec", "inspect", *LEAN}
    if importlib.util.find_spec("_sha256"):  # the inputs digest needs no OpenSSL
        unused.add("_hashlib")
    assert not unused & set(imported)
