"""Small exact/floating linear algebra helpers shared by spin7 and dirac.

Exact paths run Gaussian elimination over Fractions; floating paths defer
to numpy.  Matrices are lists of lists (exact) or numpy arrays (float).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np


def rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Fractions; returns (rref, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace(rows: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis of the exact kernel of the matrix (rows = equations)."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def independent_rows(rows: Sequence[Sequence]) -> List[int]:
    """Indices of a maximal linearly independent subset of rows (exact).

    Each row outside the span of the rows before it, that is, the pivot
    columns of the transpose.
    """
    return rref([list(col) for col in zip(*rows)])[1]


def orthogonalize(rows: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact Gram-Schmidt without normalization; drops dependent rows."""
    basis: List[List[Fraction]] = []
    norms: List[Fraction] = []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for b, bb in zip(basis, norms):
            vb = sum(x * y for x, y in zip(vec, b))
            if vb != 0:
                ratio = vb / bb
                vec = [x - ratio * y for x, y in zip(vec, b)]
        if any(x != 0 for x in vec):
            basis.append(vec)
            norms.append(sum(x * x for x in vec))
    return basis


def orthonormal_columns(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span (floating, rank-revealing SVD).

    Keeps the left singular vectors whose singular values exceed ``tol``,
    so a column that repeats an earlier one never hides a later one.
    """
    if mat.size == 0:
        return mat
    u, svals, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, svals > tol]


def complement_in_span(span_cols: np.ndarray, sub_cols: np.ndarray,
                       tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of (span of span_cols) minus (span of sub_cols)."""
    q = orthonormal_columns(span_cols, tol)
    s = orthonormal_columns(sub_cols, tol)
    proj = q - s @ (s.T @ q) if s.size else q
    return orthonormal_columns(proj, tol)
