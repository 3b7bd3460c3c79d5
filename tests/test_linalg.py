import numpy as np
import pytest

from smtorus.linalg import PRIMES31, matvec_mod
from smtorus.straighten import _mod_inverse_matrix


def test_matvec_mod_refuses_too_many_columns():
    with pytest.raises(OverflowError):
        matvec_mod(np.zeros((1, 70_000), dtype=np.int64), np.zeros(70_000, dtype=np.int64), PRIMES31[0])


def test_matvec_mod_refuses_wide_primes():
    with pytest.raises(OverflowError):
        matvec_mod(np.ones((1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), (1 << 40) + 15)


def test_mod_inverse_refuses_wide_primes():
    with pytest.raises(OverflowError):
        _mod_inverse_matrix(np.ones((1, 1), dtype=np.int64), (1 << 32) + 15)
