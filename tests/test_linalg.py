"""The two-mode kernels and spans of ``_linalg`` on matrices of planted rank."""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from cayley8 import _linalg

# integers in [-2, 2] and halves and thirds, so rows carry denominators
_SMALL = st.one_of(st.integers(-2, 2),
                   st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 3])))


@st.composite
def planted_rank_matrix(draw):
    """``P (L R) Q`` of exact rank r: L = [I; *] is m x r, R = [I | *] is r x n."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    r = draw(st.integers(0, min(m, n)))

    def free(size):
        return draw(st.lists(_SMALL, min_size=size, max_size=size))

    left = [[int(i == k) for k in range(r)] if i < r else free(r) for i in range(m)]
    right = [[int(j == k) for j in range(r)] + free(n - r) for k in range(r)]
    rows = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
    rows = draw(st.permutations(rows))
    cols = draw(st.permutations(range(n)))
    return [[row[j] for j in cols] for row in rows], r


def _rref(rows):
    """Gauss-Jordan elimination over Fractions (the reference)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def _rank(rows):
    return len(_rref(rows)[1])


def _nullspace(rows):
    """The free-column kernel basis of the reference rref."""
    mat, pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(len(rows[0]))]
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _typed(values):
    """True iff every value is an ``int`` when integral and a ``Fraction`` otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


def _gram_schmidt(rows):
    """Exact Gram-Schmidt over every product, zeros included (the reference)."""
    basis = []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for b in basis:
            ratio = sum(x * y for x, y in zip(vec, b)) / sum(y * y for y in b)
            vec = [x - ratio * y for x, y in zip(vec, b)]
        if any(vec):
            basis.append(vec)
    return basis


@settings(max_examples=60, deadline=None)
@given(planted_rank_matrix())
def test_nullspace_and_orthogonalize_agree_across_modes(planted):
    rows, r = planted
    n = len(rows[0])
    floats = [[float(x) for x in row] for row in rows]
    mat = np.array(floats)

    kernel, fkernel = _linalg.nullspace(rows), _linalg.nullspace(floats)
    assert kernel == _nullspace(rows)
    assert len(kernel) == len(fkernel) == n - r
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows for vec in kernel)
    assert _typed(x for vec in kernel for x in vec)
    if fkernel:
        k = np.array(fkernel)
        assert np.abs(k @ k.T - np.eye(n - r)).max() < 1e-12
        assert np.abs(mat @ k.T).max() < 1e-12

    span, fspan = _linalg.orthogonalize(rows), _linalg.orthogonalize(floats)
    assert span == _gram_schmidt(rows)
    assert _typed(x for vec in span for x in vec)
    assert len(span) == len(fspan) == r
    for i, a in enumerate(span):
        assert all(sum(x * y for x, y in zip(a, b)) == 0 for b in span[i + 1:])
    # the input rows lie in the span: adding them raises no rank
    assert _rank(span) == _rank(span + rows) == r
    if fspan:
        q = np.array(fspan)
        assert np.abs(q @ q.T - np.eye(r)).max() < 1e-12
        assert np.abs(mat - (mat @ q.T) @ q).max() < 1e-9
