"""Slice 3-form geometry on R^7: cross product, associator, plane tests."""

import numpy as np
import pytest

from cayley8 import g2
from cayley8.multivec import KForm, OrientedPlane, Vector, random_vector, restrict

M = g2.build_g2()
E7 = [Vector.basis(7, i) for i in range(1, 8)]


def test_slice_form_blades():
    assert len(M.phi3.coeffs) == 7
    assert all(abs(c) == 1 for c in M.phi3.coeffs.values())
    # ambient slots 2,3,4 map to 1,2,3
    assert M.phi3.evaluate(E7[0], E7[1], E7[2]) == 1


def test_psi_is_hodge_dual_and_norm():
    assert M.psi4.approx_equal(M.phi3.hodge())
    assert M.phi3.norm_sq() == 7


def test_cross_g2_basis_and_antisymmetry():
    c = g2.cross_g2(M, E7[0], E7[1])
    assert c.components == E7[2].components
    assert g2.cross_g2(M, E7[2], E7[2]).norm_sq() == 0


def test_cross_g2_norm_identity():
    rng = np.random.default_rng(20)
    for _ in range(100):
        v, w = random_vector(rng, 7, bound=5), random_vector(rng, 7, bound=5)
        assert (g2.cross_g2(M, v, w).norm_sq()
                == v.norm_sq() * w.norm_sq() - v.dot(w) ** 2)


def test_cross_g2_is_metric_dual_of_phi():
    rng = np.random.default_rng(22)
    for _ in range(50):
        u, v, w = (random_vector(rng, 7, bound=5) for _ in range(3))
        assert u.dot(g2.cross_g2(M, v, w)) == M.phi3.evaluate(u, v, w)


def test_associator_alternating():
    rng = np.random.default_rng(21)
    for _ in range(60):
        u, v, w = (random_vector(rng, 7, bound=5) for _ in range(3))
        a = g2.associator(M, u, v, w)
        assert (g2.associator(M, v, u, w) + a).norm_sq() == 0
        assert (g2.associator(M, u, w, v) + a).norm_sq() == 0
        assert g2.associator(M, u, u, w).norm_sq() == 0


def test_standard_planes():
    assert g2.is_associative(M, OrientedPlane(E7[:3]))
    assert g2.is_coassociative(M, OrientedPlane(E7[3:]))
    assert not g2.is_coassociative(M, OrientedPlane(E7[:4]))
    assert not g2.is_associative(M, OrientedPlane([E7[0], E7[1], E7[3]]))


def test_random_three_planes_bounded_by_one():
    rng = np.random.default_rng(22)
    hits = 0
    for _ in range(300):
        plane = OrientedPlane([Vector(x) for x in rng.standard_normal((3, 7))])
        lam = abs(float(restrict(M.phi3, plane)))
        assert lam <= 1 + 1e-9
        if lam > 1 - 1e-6:
            hits += 1
    assert hits == 0  # equality is measure-zero for random draws


def test_cross_closed_planes_are_associative():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u, w = OrientedPlane([Vector(rng.standard_normal(7)),
                              Vector(rng.standard_normal(7))]).orthonormal_basis
        plane = OrientedPlane([u, w, g2.cross_g2(M, u, w)])
        assert g2.is_associative(M, plane)


def test_tangent_normal_cross_identity():
    # v x (s x w) = g(v,w) s - s x (v x w) on the standard associative plane
    for s in E7[3:]:
        for v in E7[:3]:
            for w in E7[:3]:
                lhs = g2.cross_g2(M, v, g2.cross_g2(M, s, w))
                rhs = v.dot(w) * s - g2.cross_g2(M, s, g2.cross_g2(M, v, w))
                assert (lhs - rhs).norm_sq() == 0


def test_plane_hodge_matches_cross():
    # (star3(v^w))# = v x w inside the associative plane
    pairs = [((0, 1), (2, 1)), ((0, 2), (1, -1)), ((1, 2), (0, 1))]
    for (i, j), (k, sign) in pairs:
        got = g2.cross_g2(M, E7[i], E7[j])
        assert (got - sign * E7[k]).norm_sq() == 0


def test_index_shifts():
    form = 3 * KForm.monomial(8, 2, 5)
    lowered = g2.lower_index_form(form)
    assert lowered.coeffs == {(1, 4): 3}
    assert g2.raise_index_form(lowered).coeffs == {(2, 5): 3}
    with pytest.raises(ValueError):
        g2.lower_index_form(KForm.monomial(8, 1, 2))
    v = Vector([1, 2, 3, 4, 5, 6, 7])
    assert g2.lift_vector(v).components == (0,) + v.components
