"""Index formulas of the Cayley deformation operator from topological inputs.

Every formula is affine in its integer inputs with half-integer
coefficients, so each one is a row of ``FORMULAS`` and one evaluator
computes them all; a non-integer total is a hard error, never a
rounding.  Spectral data (eta invariants, spectral flow, kernel
dimensions) are raw inputs: this module never computes them.  Only the
two eta invariants may be real numbers.

The orientation flag "complex" negates the sigma input before a formula
is applied (complex surfaces are calibrated with the opposite
orientation); the combined worked-example formula already carries the
complex-orientation sign on sigma, so its canonical inputs use
orientation "standard".
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple


class ParityError(ValueError):
    """The formula value is not an integer for the given inputs."""


class IndexResult(NamedTuple):
    formula: str
    index: object  # int, or float for the eta variant with real inputs
    derivation: Tuple[dict, ...]
    warning: Optional[str] = None

    def as_dict(self) -> dict:
        return {"formula": self.formula, "index": self.index,
                "derivation": [dict(r) for r in self.derivation],
                "warning": self.warning}


_CHI = ("chi/2", 2, (("chi", 1),))
_MINUS_SIGMA = ("-sigma/2", 2, (("sigma", -1),))
_MINUS_REL_EULER = ("-rel_euler", 1, (("rel_euler", -1),))
_MINUS_EULER = ("-euler_normal", 1, (("euler_normal", -1),))
_MINUS_DIM_KER = ("-dim_ker/2", 2, (("dim_ker_Dtilde", -1),))
_MINUS_B_Y = ("-(b0+b1)/2", 2, (("b0_Y", -1), ("b1_Y", -1)))
_MINUS_DIMH0 = ("-dimH0/2", 2, (("dimH0", -1),))

#: CLI formula name -> (reported name, ordered terms).  A term is a
#: derivation row (label, divisor, ((field, integer coefficient), ...)) whose
#: value is the integer combination of the fields over the divisor, 1 or 2.
FORMULAS: Dict[str, Tuple[str, tuple]] = {
    # closed calibrated 4-manifold
    "closed": ("closed", (_CHI, _MINUS_SIGMA,
                          ("-[X].[X]", 1, (("self_intersection", -1),)))),
    # cylindrical ends with the eta invariants as external real inputs
    "eta": ("eta", (
        _CHI, _MINUS_SIGMA, _MINUS_EULER, _MINUS_DIM_KER,
        ("(eta_D - eta_B)/2", 2, (("eta_Dtilde", 1), ("eta_Bev", -1))))),
    "spectral_flow": ("spectral_flow", (
        _CHI, _MINUS_SIGMA, _MINUS_REL_EULER,
        ("+SF", 1, (("SF", 1),)), _MINUS_DIM_KER)),
    "parallel_section": ("parallel_section", (
        _CHI, _MINUS_SIGMA, _MINUS_REL_EULER, _MINUS_B_Y)),
    # double cover, with the section odd under the involution
    "parallel_section_lift": ("parallel_section_lift", (
        _CHI,
        ("+sigma_X/2", 2, (("sigma_X", 1),)),
        ("-sigma_Xtilde/2", 2, (("sigma_Xtilde", -1),)),
        ("-rel_euler_lift/2", 2, (("rel_euler_lift", -1),)),
        ("+(b0Y+b1Y)/2", 2, (("b0_Y", 1), ("b1_Y", 1))),
        ("-(b0Yt+b1Yt)/2", 2, (("b0_Ytilde", -1), ("b1_Ytilde", -1))))),
    # circle-invariant section
    "complex_cross_section": ("complex_cross_section", (
        _CHI, _MINUS_SIGMA, _MINUS_REL_EULER, _MINUS_DIMH0)),
    # the worked examples; +sigma/2 encodes their complex orientation
    "combined_example": ("combined_example", (
        _CHI,
        ("+sigma/2", 2, (("sigma", 1),)),
        _MINUS_EULER,
        ("+(2 sigma_X4 - sigma_X4t)/2", 2,
         (("sigma_X4", 2), ("sigma_X4tilde", -1))),
        ("+(b0Y+b1Y-b0Yt-b1Yt)", 1, (("b0_Y", 1), ("b1_Y", 1),
                                     ("b0_Ytilde", -1), ("b1_Ytilde", -1))),
        _MINUS_DIMH0)),
    # reduced-holonomy specializations
    "special_lagrangian": ("special_sl", (
        ("-chi/2", 2, (("chi", -1),)), _MINUS_SIGMA, _MINUS_B_Y)),
    "coassociative": ("special_coassoc", (_CHI, _MINUS_SIGMA, _MINUS_B_Y)),
    "complex_surface": ("special_complex_surface", (
        ("chi_bar/2", 2, (("chi_bar", 1),)),
        ("+sigma_bar/2", 2, (("sigma_bar", 1),)),
        ("-[Xbar].[Xbar]", 1, (("self_intersection_bar", -1),)),
        ("-chi_C/2", 2, (("chi_C", -1),)),
        _MINUS_DIMH0)),
    # dimH0 is twice a complex dimension
    "associative": ("special_associative", (_MINUS_DIMH0,)),
}

#: formula name -> its ordered field names
FIELDS: Dict[str, Tuple[str, ...]] = {
    name: tuple(dict.fromkeys(f for _, _, combo in terms for f, _ in combo))
    for name, (_, terms) in FORMULAS.items()}

#: a real total within this distance of an integer is that integer
NEAR_INTEGER_TOL = 1e-9

#: the only fields that may be real; a formula that reads one may return a
#: non-integer index (with a warning) instead of raising ParityError
REAL_FIELDS = frozenset({"eta_Dtilde", "eta_Bev"})

#: fields negated by the "complex" orientation flag
_SIGMA_FIELDS = ("sigma", "sigma_bar")


def _evaluate(name: str, fields: dict) -> IndexResult:
    """Evaluate formula ``name`` on ``fields`` (every field present).

    Every divisor is 1 or 2, so an integer term is held exactly as its
    count of halves.  A term that reads a real field is a float, and from
    the first one on the total is the float sum of the terms in order.
    """
    reported, terms = FORMULAS[name]
    values = []
    for _, divisor, combo in terms:
        parts = [coeff * fields[field] for field, coeff in combo]
        # no int 0 start: 0 + -0.0 would lose the sign of a -0.0 eta term
        value = sum(parts[1:], parts[0])
        values.append(value / divisor if isinstance(value, float)
                      else value * (2 // divisor))
    halves, total = 0, None
    for v in values:
        if isinstance(v, float):
            total = (halves / 2 if total is None else total) + v
        elif total is None:
            halves += v
        else:
            total += v / 2
    rows = tuple(
        {"term": label,
         "value": v if isinstance(v, float) else v // 2 if v % 2 == 0 else v / 2}
        for (label, _, _), v in zip(terms, values))
    if total is not None:
        near = round(total)
        if abs(total - near) <= NEAR_INTEGER_TOL:
            return IndexResult(reported, int(near), rows)
    elif halves % 2 == 0:
        return IndexResult(reported, halves // 2, rows)
    elif not REAL_FIELDS.intersection(FIELDS[name]):
        raise ParityError(f"{reported}: non-integer index {halves}/2 "
                          "(the halved terms must have an even sum)")
    else:
        total = halves / 2
    return IndexResult(reported, total, rows,
                       "non-integer value (eta terms are external reals)")


def read_field(owner: str, field: str, value, *, real: bool = False,
               minimum: Optional[int] = None):
    """Return the JSON number ``value`` of ``field`` once it is checked.

    An integer field takes an ``int`` that is not a ``bool`` and, when
    ``minimum`` is given, not below it; a ``real`` field takes any finite
    ``int`` or ``float``.  Anything else raises ValueError naming ``owner``
    and ``field``.  Every JSON number the package reads goes through here.
    """
    if (isinstance(value, bool)
            or not isinstance(value, (int, float) if real else int)
            or isinstance(value, float) and not math.isfinite(value)):
        kind = "a finite number" if real else "an integer"
        raise ValueError(f"{owner}: field {field!r} must be {kind}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{owner}: field {field!r} must be >= {minimum}, got {value!r}")
    return value


def evaluate_index(payload: dict) -> IndexResult:
    """Evaluate {"formula": name, "fields": {...}, "orientation": ...}.

    Every field is an integer except the eta invariants, which may be any
    finite number.  With orientation "complex" the sigma input is negated
    before the formula is applied (explicitly recorded in the derivation).
    """
    try:
        name = payload["formula"]
        fields = payload["fields"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed index input: {exc}") from exc
    if not isinstance(fields, dict):
        raise ValueError(f"malformed index input: 'fields' must be a JSON object, "
                         f"got {type(fields).__name__}")
    fields = dict(fields)
    orientation = payload.get("orientation", "standard")
    if orientation not in ("standard", "complex"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if not isinstance(name, str) or name not in FORMULAS:
        raise ValueError(f"unknown formula {name!r}; known: {sorted(FORMULAS)}")
    arg_names = FIELDS[name]
    missing = [a for a in arg_names if a not in fields]
    if missing:
        raise ValueError(f"missing fields for {name}: {missing}")
    extra = [a for a in fields if a not in arg_names]
    if extra:
        raise ValueError(f"unexpected fields for {name}: {extra}")
    for field in arg_names:
        read_field(name, field, fields[field], real=field in REAL_FIELDS)
    flipped = [k for k in _SIGMA_FIELDS if k in fields and orientation == "complex"]
    for key in flipped:
        fields[key] = -fields[key]
    try:
        result = _evaluate(name, fields)
    except OverflowError as exc:  # finite inputs whose sum leaves float range
        raise ValueError(f"{name}: index out of float range ({exc})") from exc
    if flipped:
        row = {"term": f"orientation complex: negate {', '.join(flipped)}", "value": 0}
        result = result._replace(derivation=(row,) + result.derivation)
    return result
