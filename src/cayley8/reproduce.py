"""End-to-end derivations of the two worked index computations.

Each example drives the surgery moves from primitive fixture data (cell
counts, quotient orders, branch data, invariants of the closed building
blocks) through the Euler-characteristic/signature assembly to the final
index value of the combined formula: -22 for example 1 and -28 for
example 2.  Both take one derivation path, and the fixture's own
``euler_normal.mode`` picks the glued component: X1 = X4 u X5 or X5 u X5.
Fixtures live under ``fixtures/`` as versioned JSON.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List, NamedTuple, Tuple

from . import index, surgery

EXAMPLES = (1, 2)


class UnknownExampleError(ValueError):
    pass


class Derivation(NamedTuple):
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
    """(chi, sigma) of a simply-connected compact complex surface; b2 = 2 h20 + h11."""
    return 2 + 2 * h20 + h11, (2 * h20 + 1) - (h11 - 1)


def run_example(example: int) -> Derivation:
    """Drive one worked example end to end; raises for unknown numbers.

    The fixture's ``euler_normal.mode`` picks the glued component:
    ``half_double_cover`` glues X1 = X4 u X5 along S, ``glued_halves`` glues
    X5 u X5, and any other mode is a ``ValueError`` that names it.  The
    complex surface piece enters only when the fixture has one.
    """
    fix = load_fixture(example)
    rows: List[dict] = []
    values: Dict[str, int] = {}

    def step(label: str, value: int) -> int:
        rows.append({"step": label, "value": value})
        return value

    # the quotient complex, its double, the separating surface S and the curve Z
    cw = surgery.Graph(fix["link_complex"]["vertices"], fix["link_complex"]["edges"])
    k = surgery.graph_quotient(cw, fix["cross_section_quotient_order"])
    kd = surgery.graph_quotient(cw, fix["double_cover_quotient_order"])
    step(f"quotient complex K: ({k.vertices}, {k.edges}) cells", k.chi)
    step("b1(K) (cross-section Y is b1 copies of S1 x S2)", k.b1)
    step(f"double complex: ({kd.vertices}, {kd.edges}) cells", kd.chi)
    step("b1 of the double (cross-section Ytilde)", kd.b1)
    genus_s = step("genus of the separating surface S", surgery.closed_double_genus(k.b1))
    chi_s = 2 - 2 * genus_s
    bc = fix["branched_cover"]
    chi_z = step("chi(Z) by the branched-cover count",
                 surgery.riemann_hurwitz(bc["degree"], bc["chi_base"], bc["branch_points"]))
    genus_z = step("genus of the curve Z", surgery.surface_genus(chi_z))
    chi_x4 = step("chi(X4) = chi(K) (deformation retract)", k.chi)
    # X4 u_Y X5 is a cylinder over the lens space: chi = 0, and chi(Y) = 0
    chi_x5 = step("chi(X5) from chi(X4 u X5) = chi(lens cylinder) = 0", 0 + 0 - chi_x4)
    values.update(chi_K=k.chi, b1_K=k.b1, b1_Ktilde=kd.b1, genus_S=genus_s,
                  chi_S=chi_s, genus_Z=genus_z, chi_Z=chi_z, chi_X4=chi_x4,
                  chi_X5=chi_x5)
    x13 = surgery.TopInvariants(dim=4, chi=fix["null_cobordism"]["b0"] - k.b1, sigma=0,
                                label=fix["null_cobordism"]["label"])

    mode = fix["euler_normal"]["mode"]
    euler_rows = []
    if mode == "half_double_cover":
        chi_glued = values["chi_X1"] = step("chi(X1) = chi(X4) + chi(X5) - chi(S)",
                                            chi_x4 + chi_x5 - chi_s)
        sigma_glued = step("sigma(X1) (orientation-reversing diffeomorphism)",
                           fix["cylinder_component"]["sigma"])
        euler_rows.append({"step": "relative Euler number of the double-cover component",
                           "value": 2 * chi_glued})
    elif mode == "glued_halves":
        chi_glued = step("chi(X5 u X5) glued along S", 2 * chi_x5 - chi_s)
        sigma_glued = fix["glued_halves"]["sigma"]
    else:
        raise ValueError(f"example {example}: unknown euler_normal mode {mode!r}; "
                         "known: 'half_double_cover', 'glued_halves'")
    chi_bar = chi_glued + 2 * x13.chi
    sigma_bar = sigma_glued + 2 * x13.sigma
    if "complex_surface_piece" in fix:
        h = fix["complex_surface_piece"]
        chi_v, sigma_v = _kaehler_surface_invariants(h["hodge_h20"], h["hodge_h11"])
        chi_bar += step("chi of the punctured complex surface piece", chi_v - h["punctures"])
        sigma_bar += step("sigma of the complex surface piece", sigma_v)
    for piece in fix["closed_pieces"]:
        chi_bar += piece["count"] * (piece["chi"] + piece.get("chi_correction", 0))
        sigma_bar += piece["count"] * piece["sigma"]
    step("chi of the compactification Xbar", chi_bar)
    step("sigma(Xbar) by Novikov additivity", sigma_bar)
    rows.extend(euler_rows)
    euler_normal = step("Euler number of the normal bundle",
                        chi_glued + fix["euler_normal"]["self_intersection"])

    cm = fix["closed_model"]
    model = surgery.connected_sum_many([
        (cm["cp2_count"], surgery.TopInvariants(dim=4, chi=3, sigma=1, label="CP2")),
        (cm["cp2bar_count"], surgery.TopInvariants(dim=4, chi=3, sigma=-1, label="CP2bar"))])
    step(f"closed model {cm['label']}: chi", model.chi)
    step(f"closed model {cm['label']}: sigma", model.sigma)
    if (model.chi, model.sigma) != (chi_bar, sigma_bar):
        raise RuntimeError(
            f"closed model ({model.chi}, {model.sigma}) disagrees with the "
            f"assembled invariants ({chi_bar}, {sigma_bar})")

    # the cap D2 x Z deformation-retracts onto Z
    chi_x = step("chi(X) = chi(Xbar) - 2 chi(X13) - chi(D2 x Z)", chi_bar - 2 * x13.chi - chi_z)
    sigma_x = step("sigma(X) by Novikov additivity", sigma_bar - 2 * x13.sigma - 0)

    b0 = fix["null_cobordism"]["b0"]
    result = index.evaluate_index({"formula": "combined_example", "fields": {
        "chi": chi_x, "sigma": sigma_x, "euler_normal": euler_normal,
        "sigma_X4": fix["half_piece"]["sigma"],
        "sigma_X4tilde": fix["half_piece"]["sigma_double"],
        "b0_Y": b0, "b1_Y": k.b1, "b0_Ytilde": b0, "b1_Ytilde": kd.b1,
        "dimH0": fix["normal_holomorphic_sections"]}})
    for row in result.derivation:
        step(f"index term {row['term']}", row["value"])
    step("index", result.index)

    values.update(chi_Xbar=chi_bar, sigma_Xbar=sigma_bar, chi_X=chi_x, sigma_X=sigma_x,
                  euler_normal=euler_normal, index=result.index)
    expected = fix["expected"]
    return Derivation(example=example, rows=tuple(rows), values=values,
                      index=result.index, expected=expected,
                      mismatched_fields=tuple(key for key, v in expected.items()
                                              if values.get(key) != v),
                      description=fix["description"])
