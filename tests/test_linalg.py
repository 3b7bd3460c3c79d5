from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtorus.linalg import PRIMES31, frac_det, frac_inverse, inverse_mod, kernel_of_columns, matvec_mod


def test_matvec_mod_refuses_too_many_columns():
    with pytest.raises(OverflowError):
        matvec_mod(np.zeros((1, 70_000), dtype=np.int64), np.zeros(70_000, dtype=np.int64), PRIMES31[0])


def test_matvec_mod_refuses_wide_primes():
    with pytest.raises(OverflowError):
        matvec_mod(np.ones((1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), (1 << 40) + 15)


def test_mod_inverse_refuses_wide_primes():
    with pytest.raises(OverflowError):
        inverse_mod(np.ones((1, 1), dtype=np.int64), (1 << 32) + 15)


def _sign(perm):
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def _leibniz(matrix):
    """Determinant as the sum over permutations, with no elimination."""
    m = len(matrix)
    total = 0
    for perm in permutations(range(m)):
        term = _sign(perm)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def _rank(matrix):
    """Size of the largest square submatrix with a nonzero Leibniz determinant."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if _leibniz([[matrix[r][c] for c in cs] for r in rs]):
                    return size
    return 0


ENTRY = st.integers(-5, 5)


def square_matrices():
    return st.integers(0, 4).flatmap(
        lambda m: st.lists(st.lists(ENTRY, min_size=m, max_size=m), min_size=m, max_size=m)
    )


def rect_matrices():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(ENTRY, min_size=shape[0], max_size=shape[0]),
            min_size=shape[1],
            max_size=shape[1],
        )
    )


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_frac_det_matches_leibniz(matrix):
    assert frac_det(matrix) == _leibniz(matrix)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_frac_inverse_exactly_when_det_nonzero(matrix):
    inv = frac_inverse(matrix)
    if _leibniz(matrix) == 0:
        assert inv is None
        return
    m = len(matrix)
    product = [
        [sum(matrix[i][s] * inv[s][j] for s in range(m)) for j in range(m)] for i in range(m)
    ]
    assert product == [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_kernel_of_columns_annihilates_and_has_full_size(vectors):
    kernel = kernel_of_columns(vectors)
    length = len(vectors[0])
    for c in kernel:
        assert all(sum(c[i] * v[j] for i, v in enumerate(vectors)) == 0 for j in range(length))
    rows = [[v[j] for v in vectors] for j in range(length)]
    assert len(kernel) == len(vectors) - _rank(rows)
    assert _rank(kernel) == len(kernel)
