"""End-to-end derivations of the two worked index computations.

Each example drives the surgery moves from primitive fixture data (cell
counts, quotient orders, branch data, invariants of the closed building
blocks) through the Euler-characteristic/signature assembly to the final
index value of the combined formula: -22 for example 1 and -28 for
example 2.  Fixtures live under ``fixtures/`` as versioned JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Tuple

from . import index, surgery

EXAMPLES = (1, 2)


class UnknownExampleError(ValueError):
    pass


@dataclass(frozen=True)
class Derivation:
    """One worked example's derivation; ``description`` is the fixture's, and
    ``mismatched_fields`` names the expected values it does not reproduce."""

    example: int
    rows: Tuple[dict, ...]
    values: Dict[str, int]
    index: int
    expected: Dict[str, int]
    mismatched_fields: Tuple[str, ...]
    description: str

    @property
    def matches_expected(self) -> bool:
        return not self.mismatched_fields


def load_fixture(example: int) -> dict:
    if example not in EXAMPLES:
        raise UnknownExampleError(f"unknown example {example}; known: {EXAMPLES}")
    ref = resources.files("cayley8").joinpath(f"fixtures/example{example}.json")
    return json.loads(ref.read_text())


def _kaehler_surface_invariants(h20: int, h11: int) -> Tuple[int, int]:
    """(chi, sigma) of a simply-connected compact complex surface."""
    b2 = 2 * h20 + h11
    chi = 2 + b2
    sigma = (2 * h20 + 1) - (h11 - 1)
    return chi, sigma


def _common_cross_section(fix: dict, rows: List[dict], values: Dict[str, int]):
    """The quotient complex, its double, the genus-13 surface, and the curve Z."""
    cw = surgery.Graph(fix["link_complex"]["vertices"], fix["link_complex"]["edges"])
    k = surgery.graph_quotient(cw, fix["cross_section_quotient_order"])
    kd = surgery.graph_quotient(cw, fix["double_cover_quotient_order"])
    rows.append({"step": f"quotient complex K: ({k.vertices}, {k.edges}) cells",
                 "value": k.chi})
    rows.append({"step": "b1(K) (cross-section Y is b1 copies of S1 x S2)",
                 "value": k.b1})
    rows.append({"step": f"double complex: ({kd.vertices}, {kd.edges}) cells",
                 "value": kd.chi})
    rows.append({"step": "b1 of the double (cross-section Ytilde)", "value": kd.b1})
    genus_s = surgery.closed_double_genus(k.b1)
    chi_s = 2 - 2 * genus_s
    rows.append({"step": "genus of the separating surface S", "value": genus_s})
    bc = fix["branched_cover"]
    chi_z = surgery.riemann_hurwitz(bc["degree"], bc["chi_base"], bc["branch_points"])
    genus_z = surgery.surface_genus(chi_z)
    rows.append({"step": "chi(Z) by the branched-cover count", "value": chi_z})
    rows.append({"step": "genus of the curve Z", "value": genus_z})
    values.update({"chi_K": k.chi, "b1_K": k.b1, "b1_Ktilde": kd.b1,
                   "genus_S": genus_s, "chi_S": chi_s, "genus_Z": genus_z,
                   "chi_Z": chi_z})


def _half_pieces(rows: List[dict], values: Dict[str, int]):
    """chi of the retracting half piece and its complement against the lens space."""
    chi_x4 = values["chi_K"]
    rows.append({"step": "chi(X4) = chi(K) (deformation retract)", "value": chi_x4})
    # X4 u_Y X5 is a cylinder over the lens space: chi = 0, and chi(Y) = 0
    chi_x5 = 0 + 0 - chi_x4
    rows.append({"step": "chi(X5) from chi(X4 u X5) = chi(lens cylinder) = 0",
                 "value": chi_x5})
    values.update({"chi_X4": chi_x4, "chi_X5": chi_x5})
    return chi_x4, chi_x5


def _null_cobordism(fix: dict, values: Dict[str, int]) -> surgery.TopInvariants:
    b0 = fix["null_cobordism"]["b0"]
    b1 = values["b1_K"]
    return surgery.TopInvariants(dim=4, chi=b0 - b1, sigma=0,
                                 label=fix["null_cobordism"]["label"])


def _closed_model(fix: dict, rows: List[dict]) -> surgery.TopInvariants:
    cp2 = surgery.TopInvariants(dim=4, chi=3, sigma=1, label="CP2")
    cp2bar = surgery.TopInvariants(dim=4, chi=3, sigma=-1, label="CP2bar")
    model = surgery.connected_sum_many([
        (fix["closed_model"]["cp2_count"], cp2),
        (fix["closed_model"]["cp2bar_count"], cp2bar)])
    rows.append({"step": f"closed model {fix['closed_model']['label']}: chi",
                 "value": model.chi})
    rows.append({"step": f"closed model {fix['closed_model']['label']}: sigma",
                 "value": model.sigma})
    return model


def run_example(example: int) -> Derivation:
    """Drive one worked example end to end; raises for unknown numbers."""
    fix = load_fixture(example)
    rows: List[dict] = []
    values: Dict[str, int] = {}
    _common_cross_section(fix, rows, values)
    chi_x4, chi_x5 = _half_pieces(rows, values)
    chi_s = values["chi_S"]
    chi_z = values["chi_Z"]
    x13 = _null_cobordism(fix, values)

    if example == 1:
        chi_x1 = chi_x4 + chi_x5 - chi_s
        sigma_x1 = fix["cylinder_component"]["sigma"]
        rows.append({"step": "chi(X1) = chi(X4) + chi(X5) - chi(S)", "value": chi_x1})
        rows.append({"step": "sigma(X1) (orientation-reversing diffeomorphism)",
                     "value": sigma_x1})
        values["chi_X1"] = chi_x1
        chi_bar = chi_x1 + 2 * x13.chi
        sigma_bar = sigma_x1 + 2 * x13.sigma
        euler_piece = 2 * chi_x1
        euler_normal = euler_piece // 2 + fix["euler_normal"]["self_intersection"]
        euler_rows = [
            {"step": "relative Euler number of the double-cover component",
             "value": euler_piece}]
    elif example == 2:
        chi_glued = 2 * chi_x5 - chi_s
        sigma_glued = fix["glued_halves"]["sigma"]
        rows.append({"step": "chi(X5 u X5) glued along S", "value": chi_glued})
        h = fix["complex_surface_piece"]
        chi_v, sigma_v = _kaehler_surface_invariants(h["hodge_h20"], h["hodge_h11"])
        chi_v -= h["punctures"]
        rows.append({"step": "chi of the punctured complex surface piece",
                     "value": chi_v})
        rows.append({"step": "sigma of the complex surface piece", "value": sigma_v})
        chi_bar = chi_glued + 2 * x13.chi + chi_v
        sigma_bar = sigma_glued + sigma_v
        euler_normal = chi_glued + fix["euler_normal"]["self_intersection"]
        euler_rows = []
    else:  # pragma: no cover - guarded by load_fixture
        raise UnknownExampleError(str(example))

    for piece in fix["closed_pieces"]:
        corr = piece.get("chi_correction", 0)
        chi_bar += piece["count"] * (piece["chi"] + corr)
        sigma_bar += piece["count"] * piece["sigma"]
    rows.append({"step": "chi of the compactification Xbar", "value": chi_bar})
    rows.append({"step": "sigma(Xbar) by Novikov additivity", "value": sigma_bar})
    rows.extend(euler_rows)
    rows.append({"step": "Euler number of the normal bundle", "value": euler_normal})

    model = _closed_model(fix, rows)
    if (model.chi, model.sigma) != (chi_bar, sigma_bar):
        raise RuntimeError(
            f"closed model ({model.chi}, {model.sigma}) disagrees with the "
            f"assembled invariants ({chi_bar}, {sigma_bar})")

    chi_cap = chi_z  # disc times Z deformation-retracts onto Z
    chi_x = chi_bar - 2 * x13.chi - chi_cap
    sigma_x = sigma_bar - 2 * x13.sigma - 0
    rows.append({"step": "chi(X) = chi(Xbar) - 2 chi(X13) - chi(D2 x Z)",
                 "value": chi_x})
    rows.append({"step": "sigma(X) by Novikov additivity", "value": sigma_x})

    b0_y, b1_y = fix["null_cobordism"]["b0"], values["b1_K"]
    b0_yt, b1_yt = fix["null_cobordism"]["b0"], values["b1_Ktilde"]
    dim_h0 = fix["normal_holomorphic_sections"]
    result = index.evaluate_index({"formula": "combined_example", "fields": {
        "chi": chi_x, "sigma": sigma_x, "euler_normal": euler_normal,
        "sigma_X4": fix["half_piece"]["sigma"],
        "sigma_X4tilde": fix["half_piece"]["sigma_double"],
        "b0_Y": b0_y, "b1_Y": b1_y, "b0_Ytilde": b0_yt, "b1_Ytilde": b1_yt,
        "dimH0": dim_h0}})
    for row in result.derivation:
        rows.append({"step": f"index term {row['term']}", "value": row["value"]})
    rows.append({"step": "index", "value": result.index})

    values.update({"chi_Xbar": chi_bar, "sigma_Xbar": sigma_bar,
                   "chi_X": chi_x, "sigma_X": sigma_x,
                   "euler_normal": euler_normal, "index": result.index})
    expected = fix["expected"]
    return Derivation(example=example, rows=tuple(rows), values=values,
                      index=result.index, expected=expected,
                      mismatched_fields=tuple(k for k, v in expected.items()
                                              if values.get(k) != v),
                      description=fix["description"])
