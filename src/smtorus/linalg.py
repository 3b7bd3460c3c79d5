"""Exact linear algebra over the rationals, with a modular fast path.

``Span`` is the package's one exact elimination: it keeps a row space over
``fractions.Fraction`` in fully reduced row echelon form, and every rational
rank, membership test, kernel, determinant, inverse and content-class solve
adds rows to a ``Span`` and reads the answer off its pivot rows.  Large
interpolation solves instead run modulo 31-bit primes on int64 numpy arrays,
whose word-size bounds are checked here; callers verify reconstructed answers
exactly afterwards.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "Span",
    "kernel_of_columns",
    "frac_det",
    "frac_inverse",
    "PRIMES31",
    "matvec_mod",
    "inverse_mod",
    "crt",
    "symmetric_mod",
]

PRIMES31 = (2147483647, 2147483629, 2147483587)


class Span:
    """Incrementally maintained row space over the rationals.

    ``pivots`` maps each pivot column to its row of the reduced row echelon
    form: the row is 1 at its own column and 0 at every other pivot column.
    The dict keeps the columns in the order their rows were added.
    """

    def __init__(self, length: int):
        self.length = length
        self.pivots: dict[int, list[Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for col, row in self.pivots.items():
            c = v[col]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> Fraction:
        """Insert vec; returns its pivot entry before normalizing.

        The entry is nonzero exactly when vec enlarged the span, and
        ``Fraction(0)`` otherwise.
        """
        v = self._reduce(vec)
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            return Fraction(0)
        pivot = v[col]
        row = [x / pivot for x in v]
        for j, other in self.pivots.items():
            c = other[col]
            if c:
                self.pivots[j] = [a - c * b for a, b in zip(other, row)]
        self.pivots[col] = row
        return pivot


def kernel_of_columns(vectors):
    """Basis of {c : sum_i c_i v_i = 0} for column vectors v_i of equal length.

    One basis vector per free column of the reduced echelon form of the
    matrix whose columns are the v_i, in column order.
    """
    m = len(vectors)
    span = Span(m)
    for row in zip(*vectors):
        span.add(row)
    basis = []
    for free in range(m):
        if free in span.pivots:
            continue
        vec = [Fraction(0)] * m
        vec[free] = Fraction(1)
        for col, row in span.pivots.items():
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def frac_det(matrix) -> Fraction:
    """Determinant: the product of the pivot entries, signed by the pivot order.

    Each added row is reduced only by combinations of earlier rows, so the
    reduced rows have the same determinant; each is zero at the earlier pivot
    columns, so permuting the columns into pivot order makes them upper
    triangular with the pivot entries on the diagonal.
    """
    span = Span(len(matrix))
    det = Fraction(1)
    for row in matrix:
        det *= span.add(row)
        if not det:
            return det
    order = list(span.pivots)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -det if inversions % 2 else det


def frac_inverse(matrix):
    """Inverse as a list of Fraction rows, or None when the matrix is singular.

    Reduces ``[M | I]``; M is singular exactly when a pivot lands in the
    identity half, and otherwise the reduced form is ``[I | M^-1]``.
    """
    m = len(matrix)
    span = Span(2 * m)
    for r, row in enumerate(matrix):
        span.add(list(row) + [int(i == r) for i in range(m)])
    if any(col >= m for col in span.pivots):
        return None
    return [span.pivots[j][m:] for j in range(m)]


def matvec_mod(mat, vec, p):
    """mat @ vec mod p without int64 overflow (16-bit limb split of vec).

    With entries below p <= 2^32, both limbs are below 2^16, so each limb
    product sums to less than columns * p * 2^16, and recombining adds one
    more p * 2^16.
    """
    if p > 1 << 32 or (mat.shape[1] + 1) * p << 16 >= 1 << 63:
        raise OverflowError(f"{mat.shape[1]} columns mod {p} overflow int64")
    vec = np.asarray(vec, dtype=np.int64) % p
    lo = vec & 0xFFFF
    hi = vec >> 16
    return (((mat @ hi) % p << 16) + (mat @ lo)) % p


def inverse_mod(mat, p):
    """Inverse of a square int64 matrix mod p by Gauss-Jordan, or None if singular."""
    if p * p >= 1 << 63:
        raise OverflowError(f"products mod {p} overflow int64")
    m = mat.shape[0]
    a = np.concatenate([mat % p, np.eye(m, dtype=np.int64)], axis=1)
    for col in range(m):
        nz = np.nonzero(a[col:, col])[0]
        if len(nz) == 0:
            return None
        piv = col + int(nz[0])
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        inv = pow(int(a[col, col]), p - 2, p)
        a[col] = (a[col] * inv) % p
        coeffs = a[:, col].copy()
        coeffs[col] = 0
        a = (a - np.outer(coeffs, a[col])) % p
    return a[:, m:]


def crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> tuple[int, int]:
    inv = pow(mod_a % mod_b, mod_b - 2, mod_b)
    t = ((res_b - res_a) * inv) % mod_b
    return res_a + mod_a * t, mod_a * mod_b


def symmetric_mod(a: int, m: int) -> int:
    a %= m
    return a - m if a > m // 2 else a
