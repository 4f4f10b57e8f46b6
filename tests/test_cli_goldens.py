"""Replay the benchmark's cold CLI script and exact verify against goldens.

``perfbench/inputs.py`` writes the script's input files and
``perfbench/goldens/cli.json`` holds the stdout and exit code of every
command; both are only read here.  ``goldens/verify_exact.json`` and
``goldens/verify_float.json`` hold the stdout of ``cayley8 [--exact]
--output json verify --seed N`` per seed, which must stay byte-identical.
"""

import importlib.util
import json
import os
import sys

import pytest

from cayley8 import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

with open(os.path.join(PERFBENCH, "goldens", "cli.json")) as _fh:
    GOLDENS = json.load(_fh)

with open(os.path.join(os.path.dirname(__file__), "goldens", "verify_exact.json")) as _fh:
    VERIFY_EXACT = json.load(_fh)

with open(os.path.join(os.path.dirname(__file__), "goldens", "verify_float.json")) as _fh:
    VERIFY_FLOAT = json.load(_fh)


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(PERFBENCH, "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


INPUTS = _load_inputs()


def test_script_covers_every_golden(tmp_path):
    keys = [key for key, _ in INPUTS.cli_script(str(tmp_path))]
    assert sorted(keys) == sorted(GOLDENS) and len(keys) == 18


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_cli_output_matches_golden(key, tmp_path, capsys):
    argv = dict(INPUTS.cli_script(str(tmp_path)))[key]
    code = cli.main(["--output", "json", *argv])
    out = capsys.readouterr().out
    assert code == GOLDENS[key]["exit"]
    assert out == GOLDENS[key]["stdout"]


@pytest.mark.parametrize("seed", sorted(VERIFY_EXACT))
def test_exact_verify_matches_golden(seed, capsys):
    code = cli.main(["--exact", "--output", "json", "verify", "--seed", seed])
    assert code == 0
    assert capsys.readouterr().out == VERIFY_EXACT[seed]


@pytest.mark.parametrize("seed", sorted(VERIFY_FLOAT))
def test_float_verify_matches_golden(seed, capsys):
    code = cli.main(["--output", "json", "verify", "--seed", seed])
    assert code == 0
    assert capsys.readouterr().out == VERIFY_FLOAT[seed]
