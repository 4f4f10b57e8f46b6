"""Index formulas: worked values, parity gates, consistency web, coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cayley8 import index
from cayley8.index import ParityError, evaluate_index


def test_index_closed():
    assert index.index_closed(0, 0, 0).index == 0
    assert index.index_closed(24, -16, 9).index == 11
    assert index.index_closed(3, 1, 0).index == 1
    with pytest.raises(ParityError):
        index.index_closed(3, 0, 0)


def test_index_eta():
    assert index.index_eta(0, 0, 0, 0, 0.0, 0.0).index == 0
    assert index.index_eta(48, -16, 24, 0, 0.0, 0.0).index == 8
    res = index.index_eta(1, 0, 0, 0, 1.0, 0.0)
    assert res.warning is None and res.index == 1  # eta terms restore integrality
    res = index.index_eta(1, 0, 0, 0, 0.3, 0.0)
    assert res.warning is not None


def test_index_spectral_flow():
    assert index.index_spectral_flow(0, 0, 0, 5, 0).index == 5
    # moving the section changes rel_euler and SF together, not the output
    base = index.index_spectral_flow(24, -16, 3, 2, 0).index
    shifted = index.index_spectral_flow(24, -16, 3 + 7, 2 + 7, 0).index
    assert base == shifted
    with pytest.raises(ParityError):
        index.index_spectral_flow(1, 0, 0, 0, 0)


def test_index_parallel_section():
    assert index.index_parallel_section(4, 0, 0, 1, 3).index == 0
    # special Lagrangian specialization: rel_euler = chi
    chi, sigma, b0, b1 = 6, 2, 1, 3
    sl = index.index_parallel_section(chi, sigma, chi, b0, b1).index
    assert sl == -chi // 2 - sigma // 2 - (b0 + b1) // 2
    # coassociative specialization: rel_euler = 0
    co = index.index_parallel_section(chi, sigma, 0, b0, b1).index
    assert co == chi // 2 - sigma // 2 - (b0 + b1) // 2


def test_index_parallel_section_lift():
    assert index.index_parallel_section_lift(0, 0, 0, 0, 0, 0, 0, 0).index == 0
    assert index.index_parallel_section_lift(48, 0, 0, 96, 14, 0, 26, 0).index == -30
    # the sigma pair contributes (sigma_X - sigma_Xt)/2; zero pair drops out
    a = index.index_parallel_section_lift(10, 0, 0, 4, 2, 0, 2, 0).index
    b = index.index_parallel_section_lift(10, 2, 4, 4, 2, 0, 2, 0).index
    assert a - b == -(2 - 4) // 2


def test_index_complex():
    assert index.index_complex(4, 0, 0, 2).index == 1


def test_index_combined_example_rows():
    assert index.index_combined_example(48, -16, 24, 0, 0, 1, 13, 1, 25, 4).index == -22
    assert index.index_combined_example(0, 0, 0, 0, 0, 0, 0, 0, 0, 0).index == 0
    # the formula value on the second worked row; the source text displays
    # these operands yet claims -28, which they do not sum to (ledgered)
    assert index.index_combined_example(72, -16, 48, 0, 0, 1, 13, 1, 25, 4).index == -34


def test_index_special_variants():
    def special(formula, **fields):
        return evaluate_index({"formula": formula, "fields": fields})

    assert special("associative", dimH0=4).index == -2
    assert special("special_lagrangian", chi=2, sigma=0, b0_Y=1, b1_Y=1).index == -2
    assert special("coassociative", chi=2, sigma=0, b0_Y=1, b1_Y=1).index == 0
    with pytest.raises(ParityError, match="even"):
        special("associative", dimH0=3)
    with pytest.raises(ValueError):
        special("nope")


def test_consistency_eta_vs_parallel_section():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        sigma, e, b0, b1 = (int(x) for x in rng.integers(-20, 21, size=4))
        b0, b1 = abs(b0), abs(b1)
        chi = int(rng.integers(-20, 21)) * 2 + (sigma + b0 + b1) % 2
        eta = float(rng.integers(-5, 6))
        lhs = index.index_eta(chi, sigma, e, b0 + b1, eta, eta).index
        rhs = index.index_parallel_section(chi, sigma, e, b0, b1).index
        assert lhs == rhs


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
