"""The benchmark's span wrappers find every package name they wrap.

``perfbench/spans.py`` wraps package callables by name, so renaming or
deleting one of them makes ``install`` raise and would break traced
benchmark runs.  ``install`` replaces package attributes, so it runs in
a fresh interpreter; ``perfbench/`` is only read here.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_spans_install_finds_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(ROOT, d) for d in ("src", "perfbench")))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
