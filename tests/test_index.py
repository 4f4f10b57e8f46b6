"""Index formulas: worked values, parity gates, consistency web, coefficients."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley8 import index
from cayley8.index import ParityError, evaluate_index


def _index(formula, **fields):
    return evaluate_index({"formula": formula, "fields": fields})


def _zeros(formula, **fields):
    """``formula`` on ``fields``, with every field not given set to 0."""
    return _index(formula, **dict(dict.fromkeys(index.FIELDS[formula], 0), **fields))


def test_index_closed():
    assert _zeros("closed").index == 0
    assert _index("closed", chi=24, sigma=-16, self_intersection=9).index == 11
    assert _zeros("closed", chi=3, sigma=1).index == 1
    with pytest.raises(ParityError):
        _zeros("closed", chi=3)


def test_index_eta():
    assert _zeros("eta", eta_Dtilde=0.0, eta_Bev=0.0).index == 0
    assert _zeros("eta", chi=48, sigma=-16, euler_normal=24,
                  eta_Dtilde=0.0, eta_Bev=0.0).index == 8
    res = _zeros("eta", chi=1, eta_Dtilde=1.0, eta_Bev=0.0)
    assert res.warning is None and res.index == 1  # eta terms restore integrality
    res = _zeros("eta", chi=1, eta_Dtilde=0.3, eta_Bev=0.0)
    assert res.warning is not None


def test_index_spectral_flow():
    assert _zeros("spectral_flow", SF=5).index == 5
    # moving the section changes rel_euler and SF together, not the output
    base = _zeros("spectral_flow", chi=24, sigma=-16, rel_euler=3, SF=2).index
    shifted = _zeros("spectral_flow", chi=24, sigma=-16, rel_euler=3 + 7, SF=2 + 7).index
    assert base == shifted
    with pytest.raises(ParityError):
        _zeros("spectral_flow", chi=1)


def _parallel(chi, sigma, rel_euler, b0, b1):
    return _index("parallel_section", chi=chi, sigma=sigma, rel_euler=rel_euler,
                  b0_Y=b0, b1_Y=b1).index


def test_index_parallel_section():
    assert _parallel(4, 0, 0, 1, 3) == 0
    # special Lagrangian specialization: rel_euler = chi
    chi, sigma, b0, b1 = 6, 2, 1, 3
    sl = _parallel(chi, sigma, chi, b0, b1)
    assert sl == -chi // 2 - sigma // 2 - (b0 + b1) // 2
    # coassociative specialization: rel_euler = 0
    co = _parallel(chi, sigma, 0, b0, b1)
    assert co == chi // 2 - sigma // 2 - (b0 + b1) // 2


def test_index_parallel_section_lift():
    def lift(**fields):
        return _zeros("parallel_section_lift", **fields).index

    assert lift() == 0
    assert lift(chi=48, rel_euler_lift=96, b0_Y=14, b0_Ytilde=26) == -30
    # the sigma pair contributes (sigma_X - sigma_Xt)/2; zero pair drops out
    a = lift(chi=10, rel_euler_lift=4, b0_Y=2, b0_Ytilde=2)
    b = lift(chi=10, sigma_X=2, sigma_Xtilde=4, rel_euler_lift=4, b0_Y=2, b0_Ytilde=2)
    assert a - b == -(2 - 4) // 2


def test_index_complex():
    assert _zeros("complex_cross_section", chi=4, dimH0=2).index == 1


def test_index_combined_example_rows():
    example_1 = {"chi": 48, "sigma": -16, "euler_normal": 24, "b0_Y": 1, "b1_Y": 13,
                 "b0_Ytilde": 1, "b1_Ytilde": 25, "dimH0": 4}
    assert _zeros("combined_example", **example_1).index == -22
    assert _zeros("combined_example").index == 0
    # the formula value on the second worked row; the source text displays
    # these operands yet claims -28, which they do not sum to (ledgered)
    example_2 = dict(example_1, chi=72, euler_normal=48)
    assert _zeros("combined_example", **example_2).index == -34


def test_index_special_variants():
    assert _index("associative", dimH0=4).index == -2
    assert _index("special_lagrangian", chi=2, sigma=0, b0_Y=1, b1_Y=1).index == -2
    assert _index("coassociative", chi=2, sigma=0, b0_Y=1, b1_Y=1).index == 0
    with pytest.raises(ParityError, match="even"):
        _index("associative", dimH0=3)
    with pytest.raises(ValueError):
        _index("nope")


def test_consistency_eta_vs_parallel_section():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        sigma, e, b0, b1 = (int(x) for x in rng.integers(-20, 21, size=4))
        b0, b1 = abs(b0), abs(b1)
        chi = int(rng.integers(-20, 21)) * 2 + (sigma + b0 + b1) % 2
        eta = float(rng.integers(-5, 6))
        lhs = _index("eta", chi=chi, sigma=sigma, euler_normal=e, dim_ker_Dtilde=b0 + b1,
                     eta_Dtilde=eta, eta_Bev=eta).index
        assert lhs == _parallel(chi, sigma, e, b0, b1)


def test_consistency_complex_vs_complex_surface():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        chi_bar, sigma_bar, self_int, chi_c = (int(x) for x in
                                               rng.integers(-20, 21, size=4))
        dim_h0 = 2 * int(rng.integers(0, 10)) + (chi_bar - sigma_bar - chi_c) % 2
        via_complex = evaluate_index({
            "formula": "complex_cross_section",
            "fields": {"chi": chi_bar - chi_c, "sigma": sigma_bar,
                       "rel_euler": self_int, "dimH0": dim_h0},
            "orientation": "complex"})
        via_surface = evaluate_index({
            "formula": "complex_surface",
            "fields": {"chi_bar": chi_bar, "sigma_bar": sigma_bar,
                       "self_intersection_bar": self_int, "chi_C": chi_c,
                       "dimH0": dim_h0}})
        assert via_complex.index == via_surface.index


H = Fraction(1, 2)

#: frozen affine coefficient vectors in positional field order (constant
#: term is 0 for every formula)
COEFFS = {
    "closed": {"chi": H, "sigma": -H, "self_intersection": -1},
    "eta": {"chi": H, "sigma": -H, "euler_normal": -1, "dim_ker_Dtilde": -H,
            "eta_Dtilde": H, "eta_Bev": -H},
    "spectral_flow": {"chi": H, "sigma": -H, "rel_euler": -1, "SF": 1,
                      "dim_ker_Dtilde": -H},
    "parallel_section": {"chi": H, "sigma": -H, "rel_euler": -1, "b0_Y": -H,
                         "b1_Y": -H},
    "parallel_section_lift": {"chi": H, "sigma_X": H, "sigma_Xtilde": -H,
                              "rel_euler_lift": -H, "b0_Y": H, "b1_Y": H,
                              "b0_Ytilde": -H, "b1_Ytilde": -H},
    "complex_cross_section": {"chi": H, "sigma": -H, "rel_euler": -1,
                              "dimH0": -H},
    "combined_example": {"chi": H, "sigma": H, "euler_normal": -1,
                         "sigma_X4": 1, "sigma_X4tilde": -H, "b0_Y": 1,
                         "b1_Y": 1, "b0_Ytilde": -1, "b1_Ytilde": -1,
                         "dimH0": -H},
    "special_lagrangian": {"chi": -H, "sigma": -H, "b0_Y": -H, "b1_Y": -H},
    "coassociative": {"chi": H, "sigma": -H, "b0_Y": -H, "b1_Y": -H},
    "complex_surface": {"chi_bar": H, "sigma_bar": H,
                        "self_intersection_bar": -1, "chi_C": -H,
                        "dimH0": -H},
    "associative": {"dimH0": -H},
}


def test_affine_coefficient_vectors():
    assert sorted(COEFFS) == sorted(index.FORMULAS)
    for name, coeffs in COEFFS.items():
        assert index.FIELDS[name] == tuple(coeffs)
        zero = dict.fromkeys(coeffs, 0)
        assert evaluate_index({"formula": name, "fields": zero}).index == 0
        for field, expected in coeffs.items():
            # doubling keeps every parity gate satisfied
            fields = dict(zero, **{field: 2})
            res = evaluate_index({"formula": name, "fields": fields})
            assert Fraction(res.index, 2) == expected


@given(st.sampled_from(sorted(COEFFS)), st.data())
def test_parity_error_iff_combination_is_not_integer(name, data):
    coeffs = COEFFS[name]
    fields = {f: data.draw(st.integers(-10**6, 10**6), label=f) for f in coeffs}
    expected = sum(c * fields[f] for f, c in coeffs.items())
    payload = {"formula": name, "fields": fields}
    if expected.denominator == 1:
        res = evaluate_index(payload)
        assert res.index == expected and type(res.index) is int
        assert res.warning is None
    elif name == "eta":  # the eta invariants are real: a warning, not an error
        res = evaluate_index(payload)
        assert res.index == float(expected) and res.warning is not None
    else:
        with pytest.raises(ParityError, match="non-integer"):
            evaluate_index(payload)


def test_evaluate_index_driver_errors():
    with pytest.raises(ValueError, match="unknown formula"):
        evaluate_index({"formula": "nope", "fields": {}})
    with pytest.raises(ValueError, match="missing fields"):
        evaluate_index({"formula": "closed", "fields": {"chi": 0}})
    with pytest.raises(ValueError, match="unexpected fields"):
        evaluate_index({"formula": "closed",
                        "fields": {"chi": 0, "sigma": 0,
                                   "self_intersection": 0, "bogus": 1}})
    with pytest.raises(ValueError, match="orientation"):
        evaluate_index({"formula": "closed",
                        "fields": {"chi": 0, "sigma": 0, "self_intersection": 0},
                        "orientation": "sideways"})


def test_evaluate_index_orientation_flip():
    res = evaluate_index({"formula": "closed",
                          "fields": {"chi": 10, "sigma": 4, "self_intersection": 0},
                          "orientation": "complex"})
    assert res.index == 5 + 2  # sigma negated before the formula
    assert "negate sigma" in res.derivation[0]["term"]


def _fraction_reference(name, fields):
    """``index._evaluate`` with every integer term a ``Fraction``, added by
    ``sum`` in term order: (index, row values, warning)."""
    reported, terms = index.FORMULAS[name]
    values = []
    for _, divisor, combo in terms:
        parts = [coeff * fields[field] for field, coeff in combo]
        value = sum(parts[1:], parts[0])
        values.append(value / divisor if isinstance(value, float)
                      else Fraction(value, divisor))
    total = sum(values)
    rows = [float(v) if isinstance(v, float) or v.denominator != 1 else int(v)
            for v in values]
    if isinstance(total, float):
        near = round(total)
        if abs(total - near) <= index.NEAR_INTEGER_TOL:
            return int(near), rows, None
    elif total.denominator == 1:
        return int(total), rows, None
    elif not index.REAL_FIELDS.intersection(index.FIELDS[name]):
        raise ParityError(f"{reported}: non-integer index {total} "
                          "(the halved terms must have an even sum)")
    return float(total), rows, "non-integer value (eta terms are external reals)"


def _outcome(evaluate):
    """The repr of what ``evaluate()`` returns, or the type and text of its error."""
    try:
        return repr(evaluate())
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


INTEGERS = st.one_of(st.integers(-10**6, 10**6),
                     st.sampled_from([10**400, -10**400, 2**53 + 1, 3 * 2**1023]))


REALS = st.one_of(INTEGERS, st.floats(-1e3, 1e3),
                  st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400)
@given(st.sampled_from(sorted(index.FORMULAS)), st.booleans(), st.data())
def test_halves_evaluator_matches_a_fraction_reference(name, reverse, data):
    # the same values, types and signed zeros, and the same error text on
    # a sum beyond float range, as exact Fraction terms give; reversed
    # terms put the real eta term ahead of the integer ones
    fields = {f: data.draw(REALS if f in index.REAL_FIELDS else INTEGERS, label=f)
              for f in index.FIELDS[name]}
    reported, terms = index.FORMULAS[name]

    def evaluate():
        res = index._evaluate(name, fields)
        return res.index, [row["value"] for row in res.derivation], res.warning

    with mock.patch.dict(index.FORMULAS, {name: (reported, terms[::-1] if reverse else terms)}):
        assert _outcome(evaluate) == _outcome(lambda: _fraction_reference(name, fields))
