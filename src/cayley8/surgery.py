"""Integer bookkeeping of topological invariants under cut-and-paste moves.

Tracks Euler characteristic, signature, and (optionally) Betti numbers
through gluing, connected sums, branched double covers, free graph
quotients, and products with a circle.  Signatures add under gluing by
Novikov additivity, which the caller asserts (the interface-homology
hypothesis is recorded, not checked).  Euler characteristics of
non-compact pieces must be supplied explicitly.
"""

from __future__ import annotations

from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .index import read_field


class SurgeryError(ValueError):
    """Unsupported move or violated precondition."""


class _Invariants(NamedTuple):
    dim: int
    chi: int
    sigma: Optional[int] = None
    betti: Optional[Tuple[int, ...]] = None
    label: str = ""


class TopInvariants(_Invariants):
    """Integer invariants of a piece: chi always, sigma when meaningful.

    A Betti list is stored as a tuple and must have ``dim + 1`` entries
    whose alternating sum is chi.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        inv = super().__new__(cls, *args, **kwargs)
        if inv.betti is None:
            return inv
        betti = tuple(inv.betti)
        if len(betti) != inv.dim + 1:
            raise SurgeryError(f"betti needs {inv.dim + 1} entries for dim {inv.dim}")
        if sum((-1) ** k * b for k, b in enumerate(betti)) != inv.chi:
            raise SurgeryError("betti numbers contradict chi")
        return inv._replace(betti=betti)

    def as_dict(self) -> dict:
        out = {"dim": self.dim, "chi": self.chi, "label": self.label}
        out["sigma"] = self.sigma if self.sigma is not None else "n/a"
        if self.betti is not None:
            out["betti"] = list(self.betti)
        return out


class _Cells(NamedTuple):
    vertices: int
    edges: int


class Graph(_Cells):
    """A finite connected graph carrying only the counts that matter for chi."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        graph = super().__new__(cls, *args, **kwargs)
        if graph.vertices < 1:
            raise SurgeryError("a connected graph needs at least one vertex")
        return graph

    @property
    def chi(self) -> int:
        return self.vertices - self.edges

    @property
    def b1(self) -> int:
        return 1 - self.chi


def glue(a: TopInvariants, b: TopInvariants, along: TopInvariants,
         novikov_ok: bool = True) -> TopInvariants:
    """Glue two pieces along an interface.

    chi adds with the interface chi subtracted; sigma adds when the caller
    asserts Novikov additivity applies (otherwise the result has no
    sigma).  The interface is either one dimension lower or an interface
    piece of the same dimension whose chi is subtracted as given.
    """
    if a.dim != b.dim:
        raise SurgeryError(f"cannot glue dim {a.dim} to dim {b.dim}")
    if along.dim not in (a.dim - 1, a.dim):
        raise SurgeryError(
            f"interface dim {along.dim} incompatible with piece dim {a.dim}")
    chi = a.chi + b.chi - along.chi
    sigma = None
    if novikov_ok and a.sigma is not None and b.sigma is not None:
        sigma = a.sigma + b.sigma
    label = f"({a.label or '?'} u {b.label or '?'})"
    return TopInvariants(dim=a.dim, chi=chi, sigma=sigma, label=label)


def connected_sum(a: TopInvariants, b: TopInvariants) -> TopInvariants:
    """Connected sum of closed 4-manifolds: chi adds minus 2, sigma adds."""
    if a.dim != 4 or b.dim != 4:
        raise SurgeryError("connected sum supported for dim 4 only")
    if a.sigma is None or b.sigma is None:
        raise SurgeryError("connected sum needs sigma on both pieces")
    return TopInvariants(dim=4, chi=a.chi + b.chi - 2, sigma=a.sigma + b.sigma,
                         label=f"({a.label or '?'} # {b.label or '?'})")


def connected_sum_many(pieces: Sequence[Tuple[int, TopInvariants]]) -> TopInvariants:
    """n-fold connected sums, e.g. ``[(13, CP2), (29, CP2bar)]``."""
    total = None
    for count, piece in pieces:
        for _ in range(count):
            total = piece if total is None else connected_sum(total, piece)
    if total is None:
        raise SurgeryError("empty connected sum")
    return total


def riemann_hurwitz(degree: int, chi_base: int, branch_points: int) -> int:
    """chi of a branched cover of a surface with simple branch points.

    Supports unbranched covers of any degree and branched double covers:
    ``chi = degree * chi_base - branch_points``.
    """
    if branch_points < 0:
        raise SurgeryError("negative branch point count")
    if branch_points > 0 and degree != 2:
        raise SurgeryError("branched covers supported for degree 2 only")
    return degree * chi_base - branch_points


def surface_genus(chi: int) -> int:
    """Genus of the closed orientable surface with the given chi."""
    if chi > 2 or chi % 2 != 0:
        raise SurgeryError(f"no closed orientable surface has chi = {chi}")
    return (2 - chi) // 2


def graph_quotient(g: Graph, group_order: int) -> Graph:
    """Quotient of a graph by a free action: counts divide exactly."""
    if group_order < 1:
        raise SurgeryError("group order must be positive")
    if g.vertices % group_order or g.edges % group_order:
        raise SurgeryError("action cannot be free: counts not divisible")
    return Graph(vertices=g.vertices // group_order, edges=g.edges // group_order)


def product_with_circle(a: TopInvariants) -> TopInvariants:
    """Cross with a circle: chi vanishes; Betti numbers by the Kuenneth rule."""
    betti = None
    if a.betti is not None:
        old = (0,) + a.betti + (0,)
        betti = tuple(old[k] + old[k + 1] for k in range(a.dim + 2))
    return TopInvariants(dim=a.dim + 1, chi=0, sigma=None, betti=betti,
                         label=f"S1 x {a.label or '?'}")


def closed_double_genus(b1_half: int) -> int:
    """Genus of the closed double of a piece with first Betti number b1_half.

    The double's boundary has first Betti number ``2 b1_half``, so it is
    the closed orientable surface of genus ``b1_half``.
    """
    if b1_half < 0:
        raise SurgeryError("negative Betti number")
    return b1_half


# -- surgery expression trees ---------------------------------------------------------


def _get(node, key: str, what: str):
    """``node[key]`` of a JSON object, or a SurgeryError naming what is wrong."""
    if not isinstance(node, dict):
        raise SurgeryError(f"{what} must be an object, got {node!r}")
    if key not in node:
        raise SurgeryError(f"{what} has no {key!r}")
    return node[key]


def _leaf_from_dict(obj) -> TopInvariants:
    """Invariants from JSON: dim >= 0, chi, sigma (unless absent or "n/a")
    and every Betti number >= 0 are integers."""
    read = partial(read_field, "surgery invariants")
    dim = read("dim", _get(obj, "dim", "invariants"), minimum=0)
    chi = read("chi", _get(obj, "chi", "invariants"))
    sigma, betti = obj.get("sigma"), obj.get("betti")
    if betti is not None and not isinstance(betti, list):
        raise SurgeryError(f"betti must be a list, got {betti!r}")
    return TopInvariants(
        dim=dim, chi=chi,
        sigma=None if sigma in (None, "n/a") else read("sigma", sigma),
        betti=None if betti is None else tuple(
            read(f"betti[{k}]", b, minimum=0) for k, b in enumerate(betti)),
        label=str(obj.get("label", "")))


def _parts(node: dict, count: int) -> list:
    """The child nodes of an operation node that takes ``count`` parts."""
    parts = _get(node, "parts", f"{node['op']} node")
    if not isinstance(parts, list) or len(parts) != count:
        raise SurgeryError(f"{node['op']} takes a list of exactly {count} parts")
    return parts


def evaluate_surgery(tree: dict) -> Tuple[TopInvariants, List[dict]]:
    """Evaluate a surgery expression tree bottom-up.

    Nodes: {"op": "leaf", "invariants": {...}} |
           {"op": "glue", "parts": [a, b], "along": {...}, "novikov_ok": bool} |
           {"op": "connected_sum", "parts": [a, b]} |
           {"op": "product_s1", "parts": [a]}.
    Returns the root invariants and a derivation table, one row per node.
    A node that is not an object or misses a key raises SurgeryError, an
    invariant that is not an integer ValueError.
    """
    rows: List[dict] = []

    # map() costs one Python frame per tree level (a list comprehension adds
    # a second), so every tree that json can parse fits the recursion limit
    def walk(node) -> TopInvariants:
        op = _get(node, "op", "surgery node")
        if op == "leaf":
            result = _leaf_from_dict(_get(node, "invariants", "leaf node"))
        elif op == "glue":
            a, b = map(walk, _parts(node, 2))
            along = _leaf_from_dict(_get(node, "along", "glue node"))
            novikov_ok = node.get("novikov_ok", True)
            if not isinstance(novikov_ok, bool):
                raise SurgeryError(f"novikov_ok must be a boolean, got {novikov_ok!r}")
            result = glue(a, b, along, novikov_ok=novikov_ok)
        elif op == "connected_sum":
            result = connected_sum(*map(walk, _parts(node, 2)))
        elif op == "product_s1":
            result = product_with_circle(*map(walk, _parts(node, 1)))
        else:
            raise SurgeryError(f"unknown op {op!r}")
        rows.append({"op": op, **result.as_dict()})
        return result

    root = walk(tree)
    return root, rows
