"""The pointwise G2 structure on R^7 induced by slicing the model 4-form.

Splitting R^8 = R e_1 + R^7 (ambient slots 2..8 mapped to 1..7, the single
index convention shared by the whole package) and contracting the model
4-form with e_1 yields the associative 3-form

    phi = e^123 + e^145 - e^167 + e^246 + e^257 + e^347 - e^356

whose Hodge dual is the coassociative 4-form psi.  The model 4-form then
factors as ``dtheta ^ phi + psi`` with theta the first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from .multivec import (PLANE_TOL, KForm, OrientedPlane, Vector, is_exact,
                       is_zero, pullback_to_plane, restrict, scalar, sharp)
from .spin7 import phi0


class G2ConsistencyError(RuntimeError):
    """Internal slice consistency failed (must not occur)."""


def lower_index_form(a: KForm) -> KForm:
    """Reindex a form on R^8 not involving slot 1 to R^7 (slots 2..8 to 1..7)."""
    coeffs = {}
    for blade, c in a.coeffs.items():
        if 1 in blade:
            raise ValueError(f"blade {blade} involves the dropped slot 1")
        coeffs[tuple(i - 1 for i in blade)] = c
    return KForm(7, a.degree, coeffs)


def raise_index_form(a: KForm) -> KForm:
    """Reindex a form on R^7 to R^8 (slots 1..7 to 2..8), skipping slot 1."""
    coeffs = {}
    for blade, c in a.coeffs.items():
        coeffs[tuple(i + 1 for i in blade)] = c
    return KForm(8, a.degree, coeffs)


def lift_vector(v: Vector) -> Vector:
    """Embed an R^7 vector into R^8 with a zero of its own mode in slot 1."""
    return Vector((scalar(0, exact=is_exact(v.components)),) + v.components)


@dataclass(frozen=True)
class G2Model:
    """The slice 3-form and its dual 4-form on R^7, exact coefficients +-1."""

    phi3: KForm
    psi4: KForm


def build_g2() -> G2Model:
    """Extract the 3- and 4-form from the model 4-form by slicing.

    Verifies ``psi = star_7(phi)`` and ``<phi, phi> = 7``; failure of
    either is an internal error.
    """
    big = phi0()
    e1_part = big.contract(Vector.basis(8, 1))
    phi3 = lower_index_form(e1_part)
    psi4 = lower_index_form(big - KForm.monomial(8, 1).wedge(e1_part))
    if psi4 != phi3.hodge():
        raise G2ConsistencyError("psi != star_7(phi)")
    if phi3.norm_sq() != 7:
        raise G2ConsistencyError("<phi, phi> != 7")
    return G2Model(phi3=phi3, psi4=psi4)


def cross_g2(m: G2Model, v: Vector, w: Vector) -> Vector:
    """Cross product on R^7, defined metrically: ``g(u, v x w) = phi(u, v, w)``.

    ``phi(u, v, w) = phi(v, w, u)``, so ``v x w = (w . (v . phi))^sharp``.
    """
    if v.dim != 7 or w.dim != 7:
        raise ValueError("cross_g2 expects vectors in R^7")
    return sharp(m.phi3.contract(v).contract(w))


def associator(m: G2Model, u: Vector, v: Vector, w: Vector) -> Vector:
    """The vector-valued 3-form ``-u x (v x w) - g(u,v) w + g(u,w) v``.

    Alternating; vanishes exactly on associative triples.
    """
    return -1 * cross_g2(m, u, cross_g2(m, v, w)) - u.dot(v) * w + u.dot(w) * v


def is_associative(m: G2Model, plane: OrientedPlane) -> bool:
    """True iff the 3-form restricts to +-volume on the 3-plane (within ``PLANE_TOL``)."""
    if plane.degree != 3 or plane.dim != 7:
        raise ValueError("associative test expects a 3-plane in R^7")
    lam = restrict(m.phi3, plane)
    return bool(is_zero(abs(lam) - 1, PLANE_TOL))


def is_coassociative(m: G2Model, plane: OrientedPlane) -> bool:
    """True iff the 3-form pulls back to zero on the 4-plane (within ``PLANE_TOL``)."""
    if plane.degree != 4 or plane.dim != 7:
        raise ValueError("coassociative test expects a 4-plane in R^7")
    return pullback_to_plane(m.phi3, plane).is_zero(PLANE_TOL)
