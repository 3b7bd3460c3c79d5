"""Exact Pfaffians of rational skew-symmetric matrices and the subset exchange identity.

Sub-Pfaffians P(I) are taken on principal submatrices indexed by a subset I,
with P(empty) = 1 and P(I) = 0 for odd |I|.  The sign convention is the
first-row expansion Pf = sum_j (-1)^j a_{1j} Pf(rest); it is the convention
under which the alternating exchange sums built here vanish identically, and
it is pinned by golden tests on the rank-4 straightening identity.

The dictionary between Grassmannian index vectors and subsets (the "dual
pair") makes each transversal index vector i with evenly many entries above n
a coordinate function q_i = P(B) on the space of skew matrices.  A skew
point keeps integer numerators over one common denominator den (den = 1 for
a point of integers, whose entries are kept as they are), so the Pfaffian
recursion runs on Python ints and a sub-Pfaffian on 2m members is its integer
numerator over den^m.  Sub-Pfaffians on two, four and six members take closed
forms; only eight or more members recurse.  Products and sums are formed on
those integers too: a product of coordinates on 2h members in all is one
integer over den^h, and terms are added per power of den, so each result
divides once.
`schubert_point` draws rational points of a Schubert variety in the chart
around e_1..e_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from random import Random

from .linalg import frac_det
from .weyl import IndexVector

__all__ = [
    "PfaffianError",
    "NotFullFlagIndexError",
    "AsymmetricDualPairError",
    "EvenCardinalityError",
    "SkewPoint",
    "skew_point",
    "random_skew_point",
    "schubert_point",
    "skew_determinant",
    "pfaffian",
    "sub_pfaffian",
    "matching_sum_pfaffian",
    "dual_pair",
    "index_from_bset",
    "q_eval",
    "PfaffianRelation",
    "exchange_relation",
    "evaluate_relation",
]

Subset = tuple[int, ...]


class PfaffianError(ValueError):
    pass


class NotFullFlagIndexError(PfaffianError):
    pass


class AsymmetricDualPairError(PfaffianError):
    pass


class EvenCardinalityError(PfaffianError):
    pass


@dataclass
class SkewPoint:
    """A rational skew-symmetric matrix given by its strictly upper entries.

    `upper` holds the rational entries (`int` or `Fraction`); `entry` reads
    them as Fractions.  `num` holds their integer numerators over one positive
    common denominator `den`, so a sub-Pfaffian on 2m members is the Pfaffian
    of the numerators over ``den**m``; the recursion and its memo `_cache`
    hold Python ints only.  A point whose entries are all `int` keeps
    ``den = 1`` and its entries as `num`, with no lcm taken.
    """

    n: int
    upper: dict[tuple[int, int], int | Fraction]
    _cache: dict[Subset, int] = field(default_factory=dict, repr=False)
    num: dict[tuple[int, int], int] = field(init=False, repr=False)
    den: int = field(init=False, repr=False)

    def __post_init__(self):
        if all(type(v) is int for v in self.upper.values()):
            self.den, self.num = 1, dict(self.upper)
            return
        self.den = lcm(*(v.denominator for v in self.upper.values()))
        self.num = {key: v.numerator * (self.den // v.denominator) for key, v in self.upper.items()}

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return Fraction(self.upper.get((i, j), 0))
        return -Fraction(self.upper.get((j, i), 0))


def skew_point(n: int, upper) -> SkewPoint:
    """A skew point from its strictly upper entries; `int` entries stay ints.

    Every other entry (`Fraction`, `float`, `bool`) is taken exactly as a
    `Fraction`.

    >>> pt = skew_point(4, {(1, 2): 3, (3, 4): Fraction(1, 2)})
    >>> pt.den, pt.num
    (2, {(1, 2): 6, (3, 4): 1})
    """
    clean = {}
    for (i, j), v in dict(upper).items():
        if not (1 <= i < j <= n):
            raise PfaffianError(f"bad upper index ({i}, {j}) for size {n}")
        clean[(i, j)] = v if type(v) is int else Fraction(v)
    return SkewPoint(n, clean)


def random_skew_point(n: int, rng: Random, low: int = 1, high: int = 10**6) -> SkewPoint:
    return skew_point(
        n, {(i, j): rng.randint(low, high) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    )


def _borel_rows(w: IndexVector, n: int, rng: Random) -> list[list[int]]:
    """Basis rows of b.e_w for a random b = prod (I + t E_beta) in the Borel subgroup.

    The product runs over the n(n-1) positive-root vectors of the orthogonal
    group of the form pairing e_i with e_{2n+1-i}: E_{i,j} - E_{2n+1-j,2n+1-i}
    and E_{i,2n+1-j} - E_{j,2n+1-i} for i < j <= n, each with t in [1, 10^6].
    Every such vector squares to zero and is upper triangular, so each factor
    is an upper unipotent isometry, and the row space is a point of the
    Schubert cell of w.  The rows are columns w_1..w_n of b.
    """
    m = 2 * n
    cols = [[int(r == c - 1) for r in range(m)] for c in w]
    roots = [(i, j, m + 1 - j, m + 1 - i) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    roots += [(i, m + 1 - j, j, m + 1 - i) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # b.e_w = F_1 (F_2 (... F_k e_w)): apply the last factor first; no row
    # that a factor reads is also one it writes, so each update is in place
    for a, b, c, d in reversed(roots):
        t = rng.randint(1, 10**6)
        for col in cols:
            col[a - 1] += t * col[b - 1]
            col[c - 1] -= t * col[d - 1]
    return cols


def _chart(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Integer X and d != 0 with [I | X/d] row-equivalent to the n x 2n matrix [L | R].

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays a
    minor of the input, each division is exact, and the matrix ends as
    [d I | adj(L) R] with d = +-det L.  Row swaps permute L and R alike,
    so X/d = L^{-1} R.
    """
    a = [list(r) for r in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise PfaffianError("the point lies off the chart around e_1..e_n")
        a[k], a[piv] = a[piv], a[k]
        top, akk = a[k], a[k][k]
        for i in range(n):
            if i != k:
                row, aik = a[i], a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(row, top)]
        prev = akk
    return [r[n:] for r in a], prev


def schubert_point(w: IndexVector, n: int, rng: Random) -> SkewPoint:
    """A random rational point of the Schubert variety X(w), as a skew matrix.

    The point b.e_w (see `_borel_rows`) lies in the cell around e_1..e_n,
    which meets X(w) densely; reduced to [I | M] it is the skew matrix
    A_{t,s} = M_{t,2n+1-s}.  Standard monomial theory then gives
    q_tau(A) = 0 exactly when tau is not below w.

    >>> pt = schubert_point((2, 4, 6, 8), 4, Random(0))
    >>> q_eval((3, 4, 7, 8), pt), q_eval((2, 4, 6, 8), pt) != 0
    (Fraction(0, 1), True)
    """
    x, d = _chart(_borel_rows(tuple(w), n, rng))
    # column 2n+1-s of [I | M] is column n-s (from 0) of X
    upper = {}
    for t in range(1, n + 1):
        for s in range(t, n + 1):
            a, b = x[t - 1][n - s], x[s - 1][n - t]
            if a != -b:
                raise PfaffianError(f"b.e_{tuple(w)} is not isotropic")
            if s > t:
                upper[(t, s)] = Fraction(a, d)
    return skew_point(n, upper)


def skew_determinant(point: SkewPoint, members=None) -> Fraction:
    members = tuple(sorted(members)) if members is not None else tuple(range(1, point.n + 1))
    return frac_det([[point.entry(i, j) for j in members] for i in members])


def sub_pfaffian(point: SkewPoint, members) -> Fraction:
    """Pfaffian of the principal submatrix on `members`; 1 on empty, 0 on odd.

    >>> p = skew_point(4, {(1, 2): 3, (3, 4): 5})
    >>> sub_pfaffian(p, (1, 2))
    Fraction(3, 1)
    >>> sub_pfaffian(p, ())
    Fraction(1, 1)
    """
    num, half = _sub_numerator(point, members)
    return Fraction(num, point.den**half)


def _sub_numerator(point: SkewPoint, members) -> tuple[int, int]:
    """The sub-Pfaffian on `members` as (integer numerator, m) over den**m."""
    s = tuple(sorted(members))
    if any(not 1 <= v <= point.n for v in s) or len(set(s)) != len(s):
        raise PfaffianError(f"subset {s} not within 1..{point.n}")
    return _pf(point.num, s, point._cache), len(s) // 2


def _pf(upper, members: Subset, cache: dict, p: int | None = None):
    """Pfaffian on the sorted `members` by first-row expansion, memoized in `cache`.

    `upper` maps (i, j) with i < j to an integer entry; a missing key is 0.
    With a modulus p the entries are residues mod p and so is the value.  Two
    and four members take the closed forms a_12 and
    Pf(1234) = a_12 a_34 - a_13 a_24 + a_14 a_23, and six members the 15-term
    first-row expansion into five such four-member forms,
    a_12 Pf(3456) - a_13 Pf(2456) + a_14 Pf(2356) - a_15 Pf(2346) + a_16 Pf(2345).
    None of them is memoized: only eight or more members recurse and fill
    `cache`.
    """
    size = len(members)
    if size % 2:
        return 0
    if size <= 6:
        if not size:
            return 1
        get = upper.get
        if size == 2:
            val = get(members, 0)
        elif size == 4:
            i, j, k, m = members
            val = (
                get((i, j), 0) * get((k, m), 0)
                - get((i, k), 0) * get((j, m), 0)
                + get((i, m), 0) * get((j, k), 0)
            )
        else:
            i, j, k, m, r, s = members
            jk, jm, jr, js = get((j, k), 0), get((j, m), 0), get((j, r), 0), get((j, s), 0)
            km, kr, ks = get((k, m), 0), get((k, r), 0), get((k, s), 0)
            mr, ms, rs = get((m, r), 0), get((m, s), 0), get((r, s), 0)
            val = (
                get((i, j), 0) * (km * rs - kr * ms + ks * mr)
                - get((i, k), 0) * (jm * rs - jr * ms + js * mr)
                + get((i, m), 0) * (jk * rs - jr * ks + js * kr)
                - get((i, r), 0) * (jk * ms - jm * ks + js * km)
                + get((i, s), 0) * (jk * mr - jm * kr + jr * km)
            )
        return val if p is None else val % p
    val = cache.get(members)
    if val is not None:
        return val
    first, rest = members[0], members[1:]
    total = 0
    for k, j in enumerate(rest):
        a = upper.get((first, j))
        if a:
            term = a * _pf(upper, rest[:k] + rest[k + 1 :], cache, p)
            total += -term if k % 2 else term
    if p is not None:
        total %= p
    cache[members] = total
    return total


def _over_den_powers(totals: dict[int, int], den: int, scale: int = 1) -> Fraction:
    """The sum over h of totals[h] / (scale * den**h): one division per power of den."""
    return sum((Fraction(t, scale * den**h) for h, t in totals.items()), Fraction(0))


def pfaffian(point: SkewPoint) -> Fraction:
    """Pfaffian of the full matrix (0 when the size is odd).

    >>> pfaffian(skew_point(2, {(1, 2): 7}))
    Fraction(7, 1)
    """
    return sub_pfaffian(point, range(1, point.n + 1))


def matching_sum_pfaffian(point: SkewPoint, members=None) -> Fraction:
    """Independent oracle: sum over perfect matchings with crossing-parity signs."""
    s = tuple(sorted(members)) if members is not None else tuple(range(1, point.n + 1))
    if len(s) % 2 == 1:
        return Fraction(0)

    def go(rem, pairs):
        if not rem:
            crossings = 0
            for a in range(len(pairs)):
                for b in range(a + 1, len(pairs)):
                    (i1, j1), (i2, j2) = pairs[a], pairs[b]
                    if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
                        crossings += 1
            val = Fraction(1) if crossings % 2 == 0 else Fraction(-1)
            for i, j in pairs:
                val *= point.entry(i, j)
            return val
        first = rem[0]
        total = Fraction(0)
        for idx in range(1, len(rem)):
            total += go(rem[1:idx] + rem[idx + 1 :], pairs + [(first, rem[idx])])
        return total

    return go(s, [])


def dual_pair(iv: IndexVector, n: int) -> tuple[Subset, Subset]:
    """Subsets (A, B) translating a full-flag index to the opposite cell.

    >>> dual_pair((1, 4, 6, 7), 4)
    ((2, 3), (2, 3))
    >>> dual_pair((2, 3, 5, 8), 4)
    ((1, 4), (1, 4))
    """
    iv = tuple(iv)
    if len(iv) != n or any(a >= b for a, b in zip(iv, iv[1:])) or not all(
        1 <= v <= 2 * n for v in iv
    ):
        raise NotFullFlagIndexError(f"{iv} is not a strictly increasing n-tuple in 1..{2 * n}")
    r = sum(1 for v in iv if v <= n)
    aset = tuple(2 * n + 1 - v for v in reversed(iv[r:]))
    bset = tuple(sorted(set(range(1, n + 1)) - set(iv[:r])))
    return aset, bset


def index_from_bset(bset, n: int) -> IndexVector:
    """The unique symmetric-dual-pair index whose B-subset is `bset`.

    >>> index_from_bset((2, 3), 4)
    (1, 4, 6, 7)
    >>> index_from_bset((), 4)
    (1, 2, 3, 4)
    """
    bset = tuple(sorted(bset))
    comp = tuple(v for v in range(1, n + 1) if v not in set(bset))
    return comp + tuple(2 * n + 1 - v for v in reversed(bset))


_BSET_MEMO: dict[tuple[IndexVector, int], Subset] = {}


def _symmetric_bset(iv: IndexVector, n: int) -> Subset:
    """The B-subset of the symmetric dual pair of iv, memoized per (iv, n).

    Raises as `dual_pair` does, or `AsymmetricDualPairError`, on every call:
    only a validated row is stored, and only when its B-subset is even.  An
    odd B-subset is returned unstored, since q_iv then vanishes identically
    and callers that need a coordinate reject it.
    """
    iv = tuple(iv)
    bset = _BSET_MEMO.get((iv, n))
    if bset is None:
        aset, bset = dual_pair(iv, n)
        if aset != bset:
            raise AsymmetricDualPairError(f"{iv} has dual pair A={aset}, B={bset}")
        if len(bset) % 2 == 0:
            _BSET_MEMO[(iv, n)] = bset
    return bset


def _q_numerator(iv: IndexVector, point: SkewPoint) -> tuple[int, int]:
    """q_iv at a skew point as (integer numerator, h): its value is num / den**h.

    `_symmetric_bset` validates the row on every call; h is half the size of
    its B-subset.
    """
    bset = _symmetric_bset(iv, point.n)
    return _pf(point.num, bset, point._cache), len(bset) // 2


def q_eval(iv: IndexVector, point: SkewPoint) -> Fraction:
    """Value of the Pfaffian coordinate q_iv at a skew point: `_q_numerator` over den**h."""
    num, half = _q_numerator(iv, point)
    return Fraction(num, point.den**half)


@dataclass(frozen=True)
class PfaffianRelation:
    """An alternating sum of sub-Pfaffian products that vanishes identically."""

    terms: tuple[tuple[int, Subset, Subset], ...]


def exchange_relation(i_set, j_set) -> PfaffianRelation:
    """The alternating exchange sum over the symmetric difference of two odd subsets.

    Term tau carries sign (-1)^tau and the pair of subsets obtained by toggling
    the tau-th element of the symmetric difference in each input.
    """
    i_set, j_set = tuple(sorted(i_set)), tuple(sorted(j_set))
    if len(i_set) % 2 == 0 or len(j_set) % 2 == 0:
        raise EvenCardinalityError("both subsets must have odd cardinality")
    diff = sorted(set(i_set) ^ set(j_set))
    terms = []
    for tau, x in enumerate(diff, start=1):
        left = tuple(sorted(set(i_set) ^ {x}))
        right = tuple(sorted(set(j_set) ^ {x}))
        terms.append((-1 if tau % 2 else 1, left, right))
    return PfaffianRelation(tuple(terms))


def evaluate_relation(rel: PfaffianRelation, point: SkewPoint) -> Fraction:
    """The relation's value at a skew point, summed on integer numerators.

    Each term toggles one element in each of two odd subsets, so every term of
    an exchange relation shares |left| + |right| and the sum is one integer
    over one power of den; terms are still added per power, so a hand-built
    relation stays exact.
    """
    totals: dict[int, int] = {}
    for sign, left, right in rel.terms:
        a, ha = _sub_numerator(point, left)
        b, hb = _sub_numerator(point, right)
        totals[ha + hb] = totals.get(ha + hb, 0) + sign * a * b
    return _over_den_powers(totals, point.den)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
