"""End-to-end derivations of the two worked examples."""

import pytest

from cayley8 import reproduce


def test_example_1_full_derivation():
    d = reproduce.run_example(1)
    assert d.values["chi_K"] == -12
    assert d.values["b1_K"] == 13
    assert d.values["genus_S"] == 13
    assert d.values["genus_Z"] == 3
    assert d.values["chi_X1"] == 24
    assert d.values["chi_Xbar"] == 20
    assert d.values["sigma_Xbar"] == -16
    assert d.values["chi_X"] == 48
    assert d.values["sigma_X"] == -16
    assert d.values["euler_normal"] == 24
    assert d.index == -22
    assert d.matches_expected
    assert d.rows[-1] == {"step": "index", "value": -22}


def test_example_2_assembly_values():
    d = reproduce.run_example(2)
    assert d.values["chi_K"] == -12
    assert d.values["b1_K"] == 13
    assert d.values["chi_X5"] == 12
    assert d.values["chi_Xbar"] == 44
    assert d.values["sigma_Xbar"] == -16
    assert d.values["chi_X"] == 72
    assert d.values["sigma_X"] == -16
    assert d.values["euler_normal"] == 48


def test_example_2_index_contradiction_is_surfaced():
    # the stated target (-28) is not what the combined formula yields on the
    # derived operands; the pipeline must say so rather than fudge (ledgered)
    d = reproduce.run_example(2)
    assert d.index == -34
    assert not d.matches_expected
    assert d.expected["index"] == -28


def test_unknown_example():
    with pytest.raises(reproduce.UnknownExampleError):
        reproduce.run_example(5)


def test_unknown_euler_normal_mode_is_named(monkeypatch):
    # the fixture's own mode picks the glued component; one it does not know
    # must stop the derivation, not fall through to either worked example
    fix = reproduce.load_fixture(1)
    fix["euler_normal"]["mode"] = "triple_cover"
    monkeypatch.setattr(reproduce, "load_fixture", lambda example: fix)
    with pytest.raises(ValueError, match="triple_cover"):
        reproduce.run_example(1)


def test_closed_model_cross_check_guards_fixtures():
    # both fixtures carry a homeomorphism model whose invariants must match
    # the assembled ones; run_example would raise if they drifted
    for example in (1, 2):
        d = reproduce.run_example(example)
        labels = [r["step"] for r in d.rows]
        assert any("closed model" in s for s in labels)
