"""Exact linear algebra over the rationals, with a modular fast path.

Rank and kernel computations that feed theorem-level claims run over
``fractions.Fraction``.  Large interpolation solves may run modulo a few
31-bit primes and reconstruct; callers are expected to verify reconstructed
answers exactly afterwards.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "Span",
    "kernel_of_columns",
    "frac_det",
    "PRIMES31",
    "matvec_mod",
    "crt",
    "symmetric_mod",
]

PRIMES31 = (2147483647, 2147483629, 2147483587)


class Span:
    """Incrementally maintained row space over the rationals."""

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
                for j in range(self.length):
                    v[j] -= c * row[j]
        return v

    def residual(self, vec):
        """The part of vec outside the current span (coefficients not tracked)."""
        return self._reduce(vec)

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the span."""
        v = self._reduce(vec)
        for col in range(self.length):
            if v[col]:
                inv = Fraction(1) / v[col]
                row = [x * inv for x in v]
                for other in self.pivots.values():
                    c = other[col]
                    if c:
                        for j in range(self.length):
                            other[j] -= c * row[j]
                self.pivots[col] = row
                return True
        return False


def kernel_of_columns(vectors):
    """Basis of {c : sum_i c_i v_i = 0} for column vectors v_i of equal length."""
    m = len(vectors)
    if m == 0:
        return []
    length = len(vectors[0])
    a = [[Fraction(vectors[i][j]) for i in range(m)] for j in range(length)]
    pivot_of_col: dict[int, int] = {}
    row_at = 0
    for col in range(m):
        piv = next((r for r in range(row_at, length) if a[r][col]), None)
        if piv is None:
            continue
        a[row_at], a[piv] = a[piv], a[row_at]
        inv = Fraction(1) / a[row_at][col]
        a[row_at] = [x * inv for x in a[row_at]]
        for r in range(length):
            if r != row_at and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[row_at])]
        pivot_of_col[col] = row_at
        row_at += 1
    basis = []
    free = [c for c in range(m) if c not in pivot_of_col]
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for col, r in pivot_of_col.items():
            vec[col] = -a[r][fc]
        basis.append(tuple(vec))
    return basis


def frac_det(matrix) -> Fraction:
    a = [[Fraction(x) for x in row] for row in matrix]
    m = len(a)
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, m):
            if a[r][col]:
                c = a[r][col] * inv
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return det


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


def crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> tuple[int, int]:
    inv = pow(mod_a % mod_b, mod_b - 2, mod_b)
    t = ((res_b - res_a) * inv) % mod_b
    return res_a + mod_a * t, mod_a * mod_b


def symmetric_mod(a: int, m: int) -> int:
    a %= m
    return a - m if a > m // 2 else a
