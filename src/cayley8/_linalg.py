"""Small exact/floating linear algebra helpers shared by spin7 and dirac.

The one place that decides how to eliminate in each mode: ``nullspace``
and ``orthogonalize`` read the mode from their entries with
:func:`cayley8.multivec.is_exact`, so no caller forks on it.  Exact
entries run Gaussian elimination and Gram-Schmidt over Fractions; float
entries run one SVD whose singular values are compared with ``tol``.
``orthogonalize`` returns orthogonal rows in both modes (orthonormal in
float mode).  Matrices are sequences of rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .multivec import is_exact


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
                # structure rows are sparse: skip the zero entries of the pivot row
                mat[i] = [x - f * y if y else x for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _exact(rows: Sequence[Sequence]) -> bool:
    return is_exact(x for row in rows for x in row)


def _svd(rows: Sequence[Sequence]):
    """Singular values and the full square ``vh`` of a float matrix."""
    _, svals, vh = np.linalg.svd(np.array(rows, dtype=float))
    return svals, vh


def nullspace(rows: Sequence[Sequence], tol: float = 1e-10) -> list:
    """Basis of the kernel of the matrix (rows = equations).

    Exact: the free-column basis of the rref, exact entries.  Float: the
    right singular vectors whose singular values are at most ``tol``
    (orthonormal numpy rows).
    """
    if len(rows) == 0:
        return []
    if not _exact(rows):
        svals, vh = _svd(rows)
        return list(vh[int((svals > tol).sum()):])
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


def orthogonalize(rows: Sequence[Sequence], tol: float = 1e-10) -> list:
    """Orthogonal basis of the row span; dependent rows are dropped.

    Exact: Gram-Schmidt without normalization, exact entries.  Float: the
    right singular vectors whose singular values exceed ``tol``
    (orthonormal numpy rows).
    """
    if len(rows) and not _exact(rows):
        svals, vh = _svd(rows)
        return [vh[i] for i in range(len(svals)) if svals[i] > tol]
    basis: List[List[Fraction]] = []
    norms: List[Fraction] = []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for b, bb in zip(basis, norms):
            # structure rows are sparse: skip the zero products
            vb = sum(x * y for x, y in zip(vec, b) if x and y)
            if vb != 0:
                ratio = vb / bb
                vec = [x - ratio * y if y else x for x, y in zip(vec, b)]
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
