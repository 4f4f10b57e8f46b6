"""Invariant bookkeeping: gluing, sums, covers, quotients, products."""

import numpy as np
import pytest

from cayley8 import surgery
from cayley8.surgery import Graph, SurgeryError, TopInvariants


def test_glue_along_surface_interface():
    lens = TopInvariants(4, 0, 0, label="lens cylinder")
    ycyl = TopInvariants(4, 0, 0, label="Y cylinder")
    interface = TopInvariants(4, -24, 0, label="I x S (genus 13)")
    assert surgery.glue(lens, ycyl, interface).chi == 24


def test_glue_sigma_novikov():
    total = TopInvariants(4, 0, 0)
    pieces = [0, 0, 1] + [-1] * 16 + [-1]
    for s in pieces:
        total = surgery.glue(total, TopInvariants(4, 0, s),
                             TopInvariants(3, 0, None))
    assert total.sigma == -16


def test_glue_along_closed_3_manifold_adds_chi():
    a = TopInvariants(4, 5, 0)
    b = TopInvariants(4, 7, 0)
    assert surgery.glue(a, b, TopInvariants(3, 0, None)).chi == 12


def test_glue_without_novikov_clears_sigma():
    a = TopInvariants(4, 2, 3)
    b = TopInvariants(4, 2, 4)
    out = surgery.glue(a, b, TopInvariants(3, 0, None), novikov_ok=False)
    assert out.sigma is None


def test_glue_dimension_mismatch():
    with pytest.raises(SurgeryError):
        surgery.glue(TopInvariants(4, 0, 0), TopInvariants(3, 0, None),
                     TopInvariants(3, 0, None))


def test_connected_sum_examples():
    cp2 = TopInvariants(4, 3, 1, label="CP2")
    cp2bar = TopInvariants(4, 3, -1, label="CP2bar")
    m = surgery.connected_sum_many([(1, cp2), (17, cp2bar)])
    assert (m.chi, m.sigma) == (20, -16)
    m = surgery.connected_sum_many([(13, cp2), (29, cp2bar)])
    assert (m.chi, m.sigma) == (44, -16)
    s4 = TopInvariants(4, 2, 0, label="S4")
    m = surgery.connected_sum(cp2, s4)
    assert (m.chi, m.sigma) == (3, 1)


def test_connected_sum_requires_dim4():
    with pytest.raises(SurgeryError):
        surgery.connected_sum(TopInvariants(3, 0, None), TopInvariants(3, 0, None))


def test_riemann_hurwitz():
    assert surgery.riemann_hurwitz(2, 2, 8) == -4
    assert surgery.surface_genus(-4) == 3
    assert surgery.riemann_hurwitz(2, 2, 0) == 4
    assert surgery.riemann_hurwitz(2, -2, 2) == -6
    with pytest.raises(SurgeryError):
        surgery.riemann_hurwitz(3, 2, 4)


def test_graph_quotients():
    g = Graph(16, 64)
    q4 = surgery.graph_quotient(g, 4)
    assert (q4.vertices, q4.edges, q4.chi, q4.b1) == (4, 16, -12, 13)
    q2 = surgery.graph_quotient(g, 2)
    assert (q2.chi, q2.b1) == (-24, 25)
    assert surgery.graph_quotient(Graph(4, 4), 1) == Graph(4, 4)
    with pytest.raises(SurgeryError, match="free"):
        surgery.graph_quotient(Graph(16, 63), 4)


def test_product_with_circle():
    sigma3 = TopInvariants(2, -4, None, betti=(1, 6, 1), label="Sigma3")
    s1x = surgery.product_with_circle(sigma3)
    assert s1x.chi == 0 and s1x.dim == 3
    assert s1x.betti == (1, 7, 7, 1)
    assert s1x.betti[0] + s1x.betti[1] == 8
    point = TopInvariants(0, 1, None, betti=(1,), label="pt")
    circle = surgery.product_with_circle(point)
    assert circle.betti == (1, 1)


def test_closed_double_genus():
    assert surgery.closed_double_genus(13) == 13
    assert surgery.closed_double_genus(0) == 0
    assert surgery.closed_double_genus(3) == 3


def test_betti_consistency_enforced():
    with pytest.raises(SurgeryError):
        TopInvariants(2, 0, None, betti=(1, 6, 1))


def test_glue_and_sum_commute_on_invariants():
    rng = np.random.default_rng(50)
    for _ in range(100):
        chis = rng.integers(-9, 10, size=3)
        sigs = rng.integers(-9, 10, size=3)
        a = TopInvariants(4, int(chis[0]), int(sigs[0]))
        b = TopInvariants(4, int(chis[1]), int(sigs[1]))
        c = TopInvariants(4, int(chis[2]), int(sigs[2]))
        i3 = TopInvariants(3, 0, None)
        ab = surgery.connected_sum(a, b)
        ba = surgery.connected_sum(b, a)
        assert (ab.chi, ab.sigma) == (ba.chi, ba.sigma)
        abc1 = surgery.connected_sum(surgery.connected_sum(a, b), c)
        abc2 = surgery.connected_sum(a, surgery.connected_sum(b, c))
        assert (abc1.chi, abc1.sigma) == (abc2.chi, abc2.sigma)
        g1 = surgery.glue(surgery.glue(a, b, i3), c, i3)
        g2 = surgery.glue(a, surgery.glue(b, c, i3), i3)
        assert (g1.chi, g1.sigma) == (g2.chi, g2.sigma)


def test_expression_tree_evaluation():
    tree = {
        "op": "glue",
        "parts": [
            {"op": "leaf", "invariants": {"dim": 4, "chi": 24, "sigma": 0,
                                          "label": "X1"}},
            {"op": "connected_sum", "parts": [
                {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": 1,
                                              "label": "CP2"}},
                {"op": "leaf", "invariants": {"dim": 4, "chi": 3, "sigma": -1,
                                              "label": "CP2bar"}}]},
        ],
        "along": {"dim": 3, "chi": 0, "sigma": "n/a", "label": "lens"},
    }
    root, rows = surgery.evaluate_surgery(tree)
    assert (root.chi, root.sigma) == (28, 0)
    assert len(rows) == 5  # one row per node (three leaves, two ops)
    assert rows[-1]["op"] == "glue"
    with pytest.raises(SurgeryError):
        surgery.evaluate_surgery({"op": "warp", "parts": []})
    # a 450-level tree, near the deepest that json parses, stays within the
    # recursion limit
    deep = {"op": "leaf", "invariants": {"dim": 0, "chi": 1}}
    for _ in range(450):
        deep = {"op": "product_s1", "parts": [deep]}
    assert surgery.evaluate_surgery(deep)[0].dim == 450
