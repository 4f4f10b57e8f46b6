"""Small exact/floating linear algebra helpers shared by spin7 and dirac.

The one place that decides how to eliminate in each mode: ``nullspace``
and ``orthogonalize`` read the mode from their entries with
:func:`cayley8.multivec.is_exact`, so no caller forks on it.  Exact
entries are eliminated in integer rows (fraction-free, as in Bareiss's
integer-preserving Gaussian elimination): each row is scaled by the lcm
of its denominators, combined with other rows by integer row operations
and divided by the gcd of its entries, so a row keeps one denominator,
applied only when a value is read out through
:func:`cayley8.multivec.divide` (an ``int`` when integral).  Float
entries run one SVD whose singular values are compared with ``tol``.
``orthogonalize`` returns orthogonal rows in both modes (orthonormal in
float mode).  Matrices are sequences of rows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .multivec import divide, is_exact

if TYPE_CHECKING:  # numpy is imported where arrays are made
    import numpy as np

#: the default rank gate of the float SVD: a singular value at most this is zero
SINGULAR_TOL = 1e-10


def _int_row(row: Sequence) -> Tuple[List[int], int]:
    """An exact row as integers over one denominator: ``(ints, den)``."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive(row: List[int]) -> Tuple[List[int], int]:
    """``row`` divided by the gcd of its entries, and that gcd (0 for a zero row)."""
    g = math.gcd(*row)
    return (row if g <= 1 else [x // g for x in row]), g


def _nonzeros(row: List[int]) -> List[Tuple[int, int]]:
    # structure rows are sparse: row operations touch only these entries
    return [(j, y) for j, y in enumerate(row) if y]


def _eliminate(row: List[int], coeff: int, other: List[Tuple[int, int]]) -> List[int]:
    """``row - coeff * other`` for ``other`` given by its nonzeros."""
    row = list(row)
    for j, y in other:
        row[j] -= coeff * y
    return row


def _echelon(rows: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form in integer rows; returns (rows, pivot columns).

    Row ``r`` is a primitive integer row whose first nonzero is at column
    ``pivots[r]`` and which is zero in every other pivot column, so the
    rref row is row ``r`` over that entry.  Rows past the rank are dropped.
    """
    mat = [_primitive(_int_row(row)[0])[0] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        prow = _nonzeros(mat[r])
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f:
                # (pv / g) row_i - (f / g) row_r clears column c in integers
                g = math.gcd(pv, f)
                scale = pv // g
                row = mat[i] if scale == 1 else [scale * x for x in mat[i]]
                mat[i] = _primitive(_eliminate(row, f // g, prow))[0]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _exact(rows: Sequence[Sequence]) -> bool:
    return is_exact(x for row in rows for x in row)


def _svd(rows: Sequence[Sequence]):
    """Singular values and the full square ``vh`` of a float matrix."""
    import numpy as np
    _, svals, vh = np.linalg.svd(np.array(rows, dtype=float))
    return svals, vh


def nullspace(rows: Sequence[Sequence], tol: float = SINGULAR_TOL) -> list:
    """Basis of the kernel of the matrix (rows = equations).

    Exact: the free-column basis of the rref, exact entries, each read
    from the integer echelon row through ``divide``.  Float: the right
    singular vectors whose singular values are at most ``tol``
    (orthonormal numpy rows).
    """
    if len(rows) == 0:
        return []
    if not _exact(rows):
        svals, vh = _svd(rows)
        return list(vh[int((svals > tol).sum()):])
    ncols = len(rows[0])
    ech, pivots = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(ech, pivots):
            if row[fc]:
                vec[pc] = divide(-row[fc], row[pc])
        basis.append(vec)
    return basis


def independent_rows(rows: Sequence[Sequence]) -> List[int]:
    """Indices of a maximal linearly independent subset of rows (exact).

    Each row outside the span of the rows before it, that is, the pivot
    columns of the transpose.
    """
    return _echelon([list(col) for col in zip(*rows)])[1]


def orthogonalize(rows: Sequence[Sequence], tol: float = SINGULAR_TOL) -> list:
    """Orthogonal basis of the row span; dependent rows are dropped.

    Exact: Gram-Schmidt without normalization, exact entries.  Each
    residual is kept as a primitive integer row times one rational scale
    and read out through ``divide``.  Float: the right singular vectors
    whose singular values exceed ``tol`` (orthonormal numpy rows).
    """
    if len(rows) and not _exact(rows):
        svals, vh = _svd(rows)
        return [vh[i] for i in range(len(svals)) if svals[i] > tol]
    basis: List[Tuple[List[Tuple[int, int]], int]] = []  # (nonzeros, squared norm)
    out = []
    for row in rows:
        # the residual is vec * num / den
        vec, den = _int_row(row)
        num = 1
        for b, bb in basis:
            vb = sum(vec[j] * y for j, y in b)
            if vb:
                # vec - (vb / bb) b = ((bb / g) vec - (vb / g) b) / (bb / g)
                g = math.gcd(bb, vb)
                scale = bb // g
                vec, content = _primitive(_eliminate(
                    vec if scale == 1 else [scale * x for x in vec], vb // g, b))
                num, den = num * content, den * scale
        vec, content = _primitive(vec)
        if content:
            num *= content
            nz = _nonzeros(vec)
            basis.append((nz, sum(y * y for _, y in nz)))
            out.append([divide(x * num, den) if x else 0 for x in vec])
    return out


def orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (floating, rank-revealing SVD).

    Keeps the left singular vectors whose singular values exceed ``SINGULAR_TOL``,
    so a column that repeats an earlier one never hides a later one.
    """
    import numpy as np
    if mat.size == 0:
        return mat
    u, svals, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, svals > SINGULAR_TOL]
