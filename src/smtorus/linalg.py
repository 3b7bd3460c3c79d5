"""Exact linear algebra over the rationals, with modular kernels for integer solves and interpolation.

``Span`` is the package's one exact elimination: it keeps a row space over
``fractions.Fraction`` in fully reduced row echelon form, each pivot row a
sparse dict of its nonzero entries, and every rank, membership test, kernel
and determinant adds rows to a ``Span`` and reads the answer off its pivot
rows.  Straightened product rows are sparse, so generation ranks stay exact
and cheap.  ``_pivot`` is the one elimination mod a prime:
``integer_solution`` reads content-class solves off its reduced rows, and
``inverse_mod`` applies its pivots in blocks for interpolation.  Primes are
below 2^21: every product of residues goes through BLAS in chunks whose sums
stay below 2^53, so each chunk is exact and needs one reduction.  The
word-size bounds are checked here; answers mod p are checked exactly, here or
by the caller.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

import numpy as np

__all__ = [
    "Span",
    "kernel_of_columns",
    "frac_det",
    "PRIMES",
    "matvec_mod",
    "inverse_mod",
    "products_mod",
    "integer_solution",
    "crt",
    "symmetric_mod",
]

# below 2^21, so that float64 products of residues are exact (see _chunk, _reduce)
PRIMES = (2097143, 2097133, 2097131)


class Span:
    """Incrementally maintained row space over the rationals, stored sparsely.

    ``pivots`` maps each pivot column to its row of the reduced row echelon
    form, as a dict ``{column: value}`` holding the nonzero entries only: the
    row is 1 at its own column and 0 at every other pivot column.  The dict
    keeps the columns in the order their rows were added.  ``add`` and
    ``contains`` take a dense sequence or a mapping ``{column: value}``.
    """

    def __init__(self, length: int):
        self.length = length
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec) -> dict[int, Fraction]:
        """vec's nonzero entries after clearing every pivot column.

        A pivot row is 0 at the other pivot columns, so clearing one pivot
        column touches no other: the columns to clear are the pivot columns
        where vec itself is nonzero.
        """
        items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
        v = {j: Fraction(x) for j, x in items if x}
        for col in [j for j in v if j in self.pivots]:
            c = v.pop(col)
            for j, x in self.pivots[col].items():
                if j != col:
                    _axpy(v, j, -c * x)
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> Fraction:
        """Insert vec; returns its pivot entry before normalizing.

        The entry is nonzero exactly when vec enlarged the span, and
        ``Fraction(0)`` otherwise.
        """
        v = self._reduce(vec)
        if not v:
            return Fraction(0)
        col = min(v)
        pivot = v[col]
        row = {j: x / pivot for j, x in v.items()}
        for other in self.pivots.values():
            c = other.get(col)
            if c:
                for j, x in row.items():
                    _axpy(other, j, -c * x)
        self.pivots[col] = row
        return pivot


def _axpy(row: dict, j: int, x: Fraction) -> None:
    """row[j] += x in a sparse row, dropping the entry if it becomes 0."""
    y = row.get(j, 0) + x
    if y:
        row[j] = y
    else:
        row.pop(j, None)


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
            vec[col] = -row.get(free, Fraction(0))
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


def _chunk(p) -> int:
    """Largest k with k * (p - 1)^2 + p < 2^53.

    A float64 sum of k products of residues mod p plus one residue is then an
    exact integer; for the primes in ``PRIMES``, k = 2048.
    """
    k = ((1 << 53) - p) // ((p - 1) * (p - 1))
    if k < 1:
        raise OverflowError(f"products mod {p} are not exact in float64")
    return k


def _reduce(x, p) -> None:
    """x mod p in place, for a float64 array of integers with |x| + p <= 2^53.

    ``x - floor(x / p) * p`` is then exact.  Half an ulp of the quotient
    q = x / p is at most |q| * 2^-53 < 1/p, and a non-integer q lies at least
    1/p from the nearest integer, so rounding cannot carry q across one and
    the floor is the true quotient; its product with p and the difference are
    integers below 2^53.  For the primes in ``PRIMES`` and the sums that
    ``_chunk`` allows, |q| < 2^32: half an ulp is at most 2^-22, and 1/p > 2^-21.
    """
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q


def _matmul_mod(a, b, p):
    """a @ b mod p as float64, for residues in [0, p) of any dtype.

    The inner dimension is split into chunks of ``_chunk(p)``; each chunk is one
    BLAS product added to the reduced running sum, followed by one reduction.
    """
    k = _chunk(p)
    out = np.zeros((a.shape[0], b.shape[1]))
    for s in range(0, a.shape[1], k):
        out += np.asarray(a[:, s : s + k], dtype=np.float64) @ np.asarray(
            b[s : s + k], dtype=np.float64
        )
        _reduce(out, p)
    return out


def matvec_mod(mat, vec, p):
    """mat @ vec mod p for a residue matrix, as int64."""
    vec = np.asarray(vec, dtype=np.int64) % p
    return _matmul_mod(mat, vec[:, None], p)[:, 0].astype(np.int64)


_BLOCK = 128


def _pivot(a, ncols, p):
    """Gauss-Jordan with row pivoting on the first ncols columns of a, in place.

    a is a float64 residue matrix.  A column with no nonzero entry among the
    rows not yet used is skipped.  Returns the row swaps: step r swapped rows r
    and swaps[r], after which row r is 1 at its pivot column and every other
    row is 0 there.  So ``len(swaps)`` is the rank mod p of those columns, the
    top ``len(swaps)`` rows are their reduced row echelon form, and the rows
    below are 0 on them.
    """
    swaps = []
    for j in range(ncols):
        r = len(swaps)
        nz = np.flatnonzero(a[r:, j])
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        swaps.append(piv)
        a[[r, piv]] = a[[piv, r]]
        a[r] *= pow(int(a[r, j]), p - 2, p)
        _reduce(a[r], p)
        coeffs = a[:, j].copy()
        coeffs[r] = 0
        a -= np.outer(coeffs, a[r])
        _reduce(a, p)
    return swaps


def inverse_mod(mat, p):
    """Inverse of a square integer matrix mod a prime p, as int64, or None if singular.

    Blocked Gauss-Jordan on the float64 matrix ``[M | I]``.  For each panel of
    ``_BLOCK`` columns, a small pivoting loop on the panel's remaining rows
    picks independent pivot rows, which are swapped into place; another
    inverts their square block B.  Then one product applies the whole panel:
    with P the panel columns and E the identity on the pivot rows,
    ``A -= ((P - E) B^-1) @ pivot_rows`` turns the panel into identity
    columns.  M is singular exactly when some panel has too few pivots.
    Raises OverflowError unless a block's products are exact in float64,
    which takes p <= 2^23.
    """
    if _chunk(p) < _BLOCK:
        raise OverflowError(f"block products mod {p} are not exact in float64")
    m = mat.shape[0]
    a = np.zeros((m, 2 * m))
    a[:, :m] = np.asarray(mat, dtype=np.int64) % p
    a[np.arange(m), m + np.arange(m)] = 1
    for c0 in range(0, m, _BLOCK):
        w = min(_BLOCK, m - c0)
        swaps = _pivot(a[c0:, c0 : c0 + w].copy(), w, p)
        if len(swaps) < w:
            return None
        for j, piv in enumerate(swaps):
            a[[c0 + j, c0 + piv]] = a[[c0 + piv, c0 + j]]
        rows = slice(c0, c0 + w)
        block = np.concatenate([a[rows, rows], np.eye(w)], axis=1)
        _pivot(block, w, p)
        panel = a[:, rows].copy()
        panel[np.arange(c0, c0 + w), np.arange(w)] -= 1
        factor = _matmul_mod(panel % p, block[:, w:], p)
        # w <= _BLOCK <= _chunk(p), so the product and the difference are exact
        a[:, c0:] -= factor @ a[rows, c0:]
        _reduce(a[:, c0:], p)
    return a[:, m:].astype(np.int64)


def products_mod(qmat, idx, p):
    """Row-wise products of q-values mod p as int64, one column per monomial.

    Column j multiplies the columns ``idx[j]`` of qmat; entries are residues,
    so each partial product is below p^2.
    """
    if p * p >= 1 << 63:
        raise OverflowError(f"products mod {p} overflow int64")
    vals = qmat[:, idx[:, 0]].copy()
    for col in range(1, idx.shape[1]):
        vals = (vals * qmat[:, idx[:, col]]) % p
    return vals


def _dense(equations, width):
    """Sparse rows ``{column: coeff}`` as an int64 matrix of their first width columns."""
    a = np.zeros((len(equations), width), dtype=np.int64)
    for i, equation in enumerate(equations):
        for j, c in equation.items():
            if j < width:
                a[i, j] = c
    return a


def integer_solution(equations, k, width):
    """The integer matrix X with L X + R = 0, as int64, or None if no prime yields it.

    The equations are sparse integer rows ``{column: coeff}`` of ``[L | R]``,
    with the k unknowns in columns ``0..k-1``.  For each prime p, ``_pivot``
    reduces ``[L | R]`` mod p on the first 3k equations, or else on all, until
    L has rank k; its top k rows are then ``[I | -X]`` mod p.  Those rows are
    L_S^-1 [L_S | R_S] for k equations S whose L_S is invertible mod p, so its
    determinant is a nonzero integer and L X + R = 0 has at most one rational
    solution: a lift of X is returned once it satisfies every equation
    exactly.  Each prime's residues are lifted to (-p/2, p/2] alone, so one
    wrong prime cannot spoil the next, and then combined by ``crt`` with every
    earlier prime's and lifted into the symmetric range of their product, so
    an entry above p/2 is found once the product of the primes is large enough.
    """
    combined = None
    for p in PRIMES:
        for count in sorted({min(3 * k, len(equations)), len(equations)}):
            a = (_dense(equations[:count], width) % p).astype(np.float64)
            if len(_pivot(a, k, p)) == k:
                break
        else:
            continue
        residues = (-a[:k, k:] % p).astype(np.int64)
        x = _symmetric_lift(residues, p)
        if _satisfies(equations, x, k):
            return x
        if combined is None:
            combined = residues, p
            continue
        combined = crt(combined[0].astype(object), combined[1], residues, p)
        x = _symmetric_lift(*combined)
        # the lift of a system with no integer solution spreads over the whole
        # range; one too wide for the int64 check is skipped, not checked
        widest = max(sum(map(abs, eq.values())) for eq in equations)
        if widest * int(np.abs(x).max(initial=1)) < 1 << 63 and _satisfies(equations, x, k):
            return x
    return None


def _symmetric_lift(residues, m):
    """Residues mod m lifted to (-m/2, m/2], as int64 (m < 2^63)."""
    return np.where(residues > m // 2, residues - m, residues).astype(np.int64)


def _satisfies(equations, x, k) -> bool:
    """Whether L X + R = 0 for every equation, in int64 with its bound checked."""
    # a row's absolute sum times max(1, max |X|) bounds each partial sum of its product
    top = max(1, int(np.abs(x).max(initial=0)))
    for s in range(0, len(equations), _BLOCK):
        chunk = equations[s : s + _BLOCK]
        if max(sum(map(abs, eq.values())) for eq in chunk) * top >= 1 << 63:
            raise OverflowError("the exact check L X + R = 0 overflows int64")
        block = _dense(chunk, k + x.shape[1])
        if (block[:, :k] @ x + block[:, k:]).any():
            return False
    return True


def crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> tuple[int, int]:
    inv = pow(mod_a % mod_b, mod_b - 2, mod_b)
    t = ((res_b - res_a) * inv) % mod_b
    return res_a + mod_a * t, mod_a * mod_b


def symmetric_mod(a: int, m: int) -> int:
    a %= m
    return a - m if a > m // 2 else a
