"""Rewriting products of Pfaffian coordinates into the standard monomial basis.

A monomial is a multiset of coordinate rows; it is standard when the rows can
be sorted into a componentwise chain.  An incomparable pair is expanded over
standard pairs through the alternating sub-Pfaffian exchange sums in which it
appears with unit coefficient: the recursion prefers relations whose
nonstandard companions strictly descend in the (larger row, smaller row)
order, and the handful of pairs admitting no descending relation (exchanges
preserve the symmetric difference of the two B-subsets, so fully complementary
pairs cannot drop) are resolved by solving all exchange relations of their
content class at once, modulo a prime, with the lifted integer answer checked
exactly against every relation.  The resulting pair expansions obey the
two-sided straightening bounds, so substituting them into longer monomials
strictly lowers the smallest row and the rewriting loop terminates.

A product restricted to a Schubert variety X(w) is straightened on X(w)
itself, inside the pair recursion: an exchange-relation companion with a row
not below w is dropped before the descent test, so only the surviving
companions must descend, and a restricted pair with no descending restricted
rewrite restricts its full-space expansion instead.  This equals rewriting
over the whole space and then restricting: restriction to X(w) is a ring map
that kills exactly the coordinates of rows not below w, and the restricted
standard monomials are a basis of the coordinate ring of X(w)
(Lakshmibai-Seshadri), so the restricted expansion is unique.
``expand_product`` takes this route only.

Three process-wide memos hold finished exact results only: ``_PAIR_MEMO``
keyed by (n, pair) for the whole space and by (n, pair, w) on X(w),
``_PRODUCT_MEMO`` keyed by (n, sorted rows, shape, w) in ``expand_product``,
and ``pfaffian._BSET_MEMO`` from (row, n) to its validated B-subset.  Standard
monomials are a basis, so each product has exactly one expansion and the
order in which products are first expanded cannot change any result.
``straighten_rows`` itself is not memoized: its ``fuel`` tripwire and the
direct callers (the CLI's ``straighten`` command, the interpolation
cross-checks) see a full rewrite.

The test oracle, ``expand_by_interpolation``, runs no rewriting: the standard
monomials sharing the content of the product are evaluated at random points
and the coordinates solved for modulo primes below 2^21 (``linalg.PRIMES``,
whose residue products are exact in float64); the reconstructed expansion is
then re-verified by exact evaluation at fresh points.  A restricted product is
interpolated on the Schubert variety X(w) itself, at
``pfaffian.schubert_point``s, over the restricted standard monomials only (22
for a degree-2 product on X(W6) at rank 8); only an unrestricted product takes
the whole space, at random skew matrices, where the rank-8 degree-2 class
needs a dense 1162x1162 inverse.  The two routes share no restriction step, so
comparing them checks restriction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import numpy as np

from . import linalg
from .pfaffian import (
    _over_den_powers,
    _pf,
    _q_numerator,
    _symmetric_bset,
    AsymmetricDualPairError,
    SkewPoint,
    index_from_bset,
    exchange_relation,
    random_skew_point,
    schubert_point,
)
from .tableau import Tableau, standard_chains
from .weyl import IndexVector, bruhat_leq, minimal_coset_reps_alpha_n, top_coset_rep

__all__ = [
    "StraightenError",
    "NotAPfaffianIndexError",
    "ComputationError",
    "FuelExhaustedError",
    "SingularEvaluationMatrixError",
    "BasisMismatchError",
    "ContentClassError",
    "Expansion",
    "sort_rows",
    "is_standard_rows",
    "first_violation",
    "straighten_pair",
    "straighten_rows",
    "restrict_expansion",
    "content_of",
    "expand_product",
    "expand_by_interpolation",
    "evaluate_rows",
    "evaluate_expansion",
    "expansion_to_json",
    "expansion_from_json",
]

Rows = tuple[IndexVector, ...]
Expansion = dict[Rows, Fraction]


class StraightenError(ValueError):
    pass


class NotAPfaffianIndexError(StraightenError):
    pass


class ComputationError(StraightenError):
    """The input was valid, but a computation or an embedded cross-check failed."""


class FuelExhaustedError(ComputationError):
    pass


class SingularEvaluationMatrixError(ComputationError):
    pass


class BasisMismatchError(ComputationError):
    pass


class ContentClassError(ComputationError):
    pass


def sort_rows(rows) -> Rows:
    return tuple(sorted(tuple(r) for r in rows))


def _comparable(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))


def first_violation(rows: Rows):
    """Index i of the first adjacent incomparable pair in lex-sorted rows, or None."""
    for i in range(len(rows) - 1):
        if not _comparable(rows[i], rows[i + 1]):
            return i
    return None


def is_standard_rows(rows) -> bool:
    return first_violation(sort_rows(rows)) is None


def _bset(row, n):
    try:
        bset = _symmetric_bset(row, n)
    except AsymmetricDualPairError:
        bset = None
    if bset is None or len(bset) % 2:
        raise NotAPfaffianIndexError(f"{row} is not a nonzero Pfaffian coordinate index")
    return bset


def _candidate_rewrites(pair, n, w=None):
    """Exchange rewrites of an incomparable pair, best candidates first.

    Toggling an element x of the symmetric difference of the two B-subsets
    yields a relation containing the target product with coefficient +-1; the
    remaining terms rewrite it.  Standard companions are sinks; a candidate is
    preferred when each nonstandard companion is strictly smaller than the
    target in the (larger row, smaller row) order, which makes the recursion
    descend along a well-founded order instead of backtracking.  With w given,
    a companion with a row not below w vanishes on X(w) and is dropped before
    the descent test, so only the surviving companions must descend.
    """
    s1, s2 = _bset(pair[0], n), _bset(pair[1], n)
    target = tuple(sorted((s1, s2)))
    pair_key = (pair[1], pair[0])
    for x in sorted(set(s1) ^ set(s2)):
        merged = _merged_relation(s1, s2, x)
        c0 = merged.get(target, 0)
        if abs(c0) != 1:
            continue
        companions = []
        descending = True
        for key, c in merged.items():
            if key == target or c == 0:
                continue
            g = sort_rows((index_from_bset(key[0], n), index_from_bset(key[1], n)))
            if w is not None and not (bruhat_leq(g[0], w) and bruhat_leq(g[1], w)):
                continue
            if not _comparable(g[0], g[1]) and not (g[1], g[0]) < pair_key:
                descending = False
                break
            companions.append((Fraction(-c, c0), g))
        if descending:
            yield companions


def _merged_relation(s1, s2, x):
    """Exchange relation for toggling x, merged over unordered subset pairs."""
    rel = exchange_relation(
        tuple(sorted(set(s1) ^ {x})), tuple(sorted(set(s2) ^ {x}))
    )
    merged: dict[tuple, int] = {}
    for sign, left, right in rel.terms:
        key = tuple(sorted((left, right)))
        merged[key] = merged.get(key, 0) + sign
    return merged


def _content_class_pairs(content, n):
    """All unordered coordinate-row pairs realizing the given value counts.

    Each row takes one value of every mirror pair {t, 2n+1-t}, and an even
    number of values above n: a value counted twice goes in both rows, and a
    mirror pair counted once each is split between them.
    """
    both, splits = [], []
    for t in range(1, n + 1):
        mirror = 2 * n + 1 - t
        counts = (content.get(t, 0), content.get(mirror, 0))
        if counts == (1, 1):
            splits.append((t, mirror))
        elif counts in ((2, 0), (0, 2)):
            both.append(t if counts[0] else mirror)
        else:
            return []
    pairs = set()
    for picks in product(*splits):
        rows = (sorted(both + list(picks)), sorted(both + [2 * n + 1 - v for v in picks]))
        if all(sum(v > n for v in r) % 2 == 0 for r in rows):
            pairs.add(sort_rows(rows))
    return sorted(pairs)


def _solve_content_class(pair, n) -> None:
    """Express every nonstandard pair of a content class over the standard ones.

    Used for the few exceptional pairs with no strictly descending rewrite.
    Exchanges preserve the content, so the exchange relations of the class
    involve only its pairs, and ``linalg.integer_solution`` solves them all at
    once.  Standard monomials are a basis over the integers (Lakshmibai-
    Seshadri), so each unknown pair has exactly one expansion, with integer
    coefficients; the modular answer is memoized only after an exact check
    against every relation, and a class that fails it raises
    ``ContentClassError``.
    """
    cls = _content_class_pairs(content_of(pair, n), n)
    unknowns = [p for p in cls if not _comparable(p[0], p[1])]
    standards = [p for p in cls if _comparable(p[0], p[1])]
    k = len(unknowns)
    # columns keyed like the merged relations' terms, by sorted B-subset pair
    col = {
        tuple(sorted((_bset(p[0], n), _bset(p[1], n)))): i
        for i, p in enumerate(unknowns + standards)
    }
    equations = []
    for p in unknowns:
        s1, s2 = _bset(p[0], n), _bset(p[1], n)
        for x in sorted(set(s1) ^ set(s2)):
            # distinct subset pairs are distinct row pairs, so no column repeats
            merged = _merged_relation(s1, s2, x)
            equations.append({col[key]: c for key, c in merged.items() if c})
    x = linalg.integer_solution(equations, k, len(col))
    if x is None:
        raise ContentClassError(
            f"no prime solves the {k}-unknown content class of {pair} exactly"
        )
    for j, row in enumerate(x.tolist()):
        _PAIR_MEMO[(n, unknowns[j])] = {standards[i]: Fraction(c) for i, c in enumerate(row) if c}


_PAIR_MEMO: dict = {}


def _pair_expansion(pair, n, w=None):
    """Standard expansion of a sorted pair, on X(w) when w is given.

    A restricted pair has both rows below w (callers drop the others, which
    vanish on X(w)); its expansion is memoized under (n, pair, w), a
    full-space one under (n, pair).  A restricted pair with no descending
    restricted rewrite falls back to its restricted full-space expansion.
    """
    if _comparable(pair[0], pair[1]):
        return {pair: Fraction(1)}
    key = (n, pair) if w is None else (n, pair, w)
    done = _PAIR_MEMO.get(key)
    if done is not None:
        return done
    for companions in _candidate_rewrites(pair, n, w):
        total: Expansion = {}
        for c, g in companions:
            for rows, v in _pair_expansion(g, n, w).items():
                total[rows] = total.get(rows, Fraction(0)) + c * v
        total = {rows: v for rows, v in total.items() if v}
        _PAIR_MEMO[key] = total
        return total
    if w is None:
        _solve_content_class(pair, n)
    else:
        _PAIR_MEMO[key] = restrict_expansion(_pair_expansion(pair, n), w)
    return _PAIR_MEMO[key]


def straighten_pair(b1, b2, n) -> Expansion:
    """Standard expansion of a quadratic product of Pfaffian coordinates.

    >>> e = straighten_pair((1, 4, 6, 7), (2, 3, 5, 8), 4)
    >>> e[((1, 2, 3, 4), (5, 6, 7, 8))], e[((1, 2, 5, 6), (3, 4, 7, 8))]
    (Fraction(1, 1), Fraction(-1, 1))
    """
    pair = sort_rows((b1, b2))
    for r in pair:
        _bset(r, n)
    return _pair_expansion(pair, n)


def restrict_expansion(exp: Expansion, w) -> Expansion:
    """Drop every term containing a row not below w."""
    w = tuple(w)
    return {
        rows: c for rows, c in exp.items() if all(bruhat_leq(r, w) for r in rows)
    }


def _proper_index(w, n):
    """w as a tuple, or None for the whole space (w None or the top index)."""
    if w is None or tuple(w) == top_coset_rep(n):
        return None
    return tuple(w)


def straighten_rows(rows, n, w=None, fuel=None) -> Expansion:
    """Standard-basis expansion of a product of coordinate rows, on X(w) if w is given.

    Each step substitutes the standard expansion of the first incomparable
    pair; the expansion's terms drop strictly below the pair's smaller row, so
    the monomial multiset decreases and the loop terminates.  With w given
    (the top index means the whole space), a product with a row not below w
    is 0, and every substituted pair expansion is already restricted to X(w),
    so no term with a row not below w ever appears.
    """
    rows = sort_rows(rows)
    for r in rows:
        _bset(r, n)
    w = _proper_index(w, n)
    if fuel is None:
        # a tripwire, not a semantic bound: an unrestricted product of two
        # rank-8 degree-1 basis tableaux takes up to 6,161 substitutions
        fuel = 1000 * n * max(1, len(rows) // 2)
    work: Expansion = {rows: Fraction(1)}
    if w is not None:
        work = restrict_expansion(work, w)
    steps = 0
    while True:
        pick = None
        for key in sorted(work):
            i = first_violation(key)
            if i is not None:
                pick = (key, i)
                break
        if pick is None:
            return work
        steps += 1
        if steps > fuel:
            raise FuelExhaustedError(f"straightening exceeded {fuel} steps")
        key, i = pick
        coeff = work.pop(key)
        rest = key[:i] + key[i + 2 :]
        for pair, c in _pair_expansion(key[i : i + 2], n, w).items():
            new_key = sort_rows(rest + pair)
            new_val = work.get(new_key, Fraction(0)) + coeff * c
            if new_val:
                work[new_key] = new_val
            else:
                work.pop(new_key, None)


def content_of(rows, n) -> dict[int, int]:
    counts = {v: 0 for v in range(1, 2 * n + 1)}
    for r in rows:
        for v in r:
            counts[v] += 1
    return counts


def _rows_numerator(rows, point) -> tuple[int, int]:
    """The product of the rows' coordinates as (integer numerator, h) over den**h.

    Every row is validated, also after a factor that vanishes.
    """
    product, half = 1, 0
    for r in rows:
        num, h = _q_numerator(r, point)
        product *= num
        half += h
    return product, half


def evaluate_rows(rows, point) -> Fraction:
    """The product of the rows' coordinates at a skew point, divided once by den**h."""
    num, half = _rows_numerator(rows, point)
    return Fraction(num, point.den**half)


def evaluate_expansion(exp: Expansion, point) -> Fraction:
    """An expansion's value at a skew point, summed on integer numerators.

    The coefficients are brought to one common denominator, and the terms are
    added per power of den and divided once per power.  Every term of a
    straightened expansion shares one power, since the content fixes how many
    entries exceed n; a hand-built expansion that mixes powers stays exact.
    """
    scale = lcm(*(c.denominator for c in exp.values()))
    totals: dict[int, int] = {}
    for rows, c in exp.items():
        num, half = _rows_numerator(rows, point)
        totals[half] = totals.get(half, 0) + c.numerator * (scale // c.denominator) * num
    return _over_den_powers(totals, point.den, scale)


class _Interpolator:
    """Evaluation-basis context for one (rank, content, X(w)) class, reused per seed.

    With w None the class lives on the whole space: every coordinate row is
    evaluated at random integer skew matrices.  Otherwise it lives on X(w):
    the points are `schubert_point`s, only the rows below w are evaluated, and
    the basis is the restricted standard monomials, which are a basis of the
    coordinate ring of X(w) (Lakshmibai-Seshadri).
    """

    def __init__(self, n, num_rows, content, seed, w):
        self.n, self.w = n, w
        self.qrows = [
            r for r in minimal_coset_reps_alpha_n(n) if w is None or bruhat_leq(r, w)
        ]
        self.row_index = {r: i for i, r in enumerate(self.qrows)}
        self.bsets = [_bset(r, n) for r in self.qrows]
        self.basis = standard_chains(n, num_rows, content, w or top_coset_rep(n))
        if not self.basis:
            raise BasisMismatchError("no standard monomials with the product's content")
        place = "" if w is None else f":{w}"
        self.rng = Random(f"interp:{seed}:{n}:{num_rows}:{sorted(content.items())}{place}")
        self.chain_idx = np.array(
            [[self.row_index[r] for r in chain] for chain in self.basis], dtype=np.int64
        )
        # reconstructed coefficients are small, so one prime normally suffices;
        # failed verification escalates to further primes over the same points,
        # skipping any prime the evaluation matrix is singular for
        for _ in range(5):
            self.points = [self._draw_point() for _ in self.basis]
            self.next_prime, self.primes, self.mod_inverses, self.mod_qmats = 0, [], [], []
            if self._add_prime():
                return
        raise SingularEvaluationMatrixError(
            f"singular evaluation matrix after 5 resamples ({len(self.basis)} monomials)"
        )

    def _draw_point(self) -> SkewPoint:
        if self.w is None:
            return random_skew_point(self.n, self.rng)
        return schubert_point(self.w, self.n, self.rng)

    def _q_vector_mod(self, point, p):
        """The evaluated rows mod p, or None when p divides the point's denominator."""
        if point.den % p == 0:
            return None
        entries = {k: v % p for k, v in point.num.items()}
        scale = [pow(point.den, -m, p) for m in range(self.n // 2 + 1)]
        cache: dict = {}
        return [_pf(entries, b, cache, p) * scale[len(b) // 2] % p for b in self.bsets]

    def _add_prime(self) -> bool:
        """Invert the evaluation matrix modulo the next prime it is regular for."""
        while self.next_prime < len(linalg.PRIMES):
            p = linalg.PRIMES[self.next_prime]
            self.next_prime += 1
            rows = [self._q_vector_mod(point, p) for point in self.points]
            if None in rows:
                continue
            qmat = np.array(rows, dtype=np.int64)
            inv = linalg.inverse_mod(linalg.products_mod(qmat, self.chain_idx, p), p)
            if inv is not None:
                self.primes.append(p)
                self.mod_inverses.append(inv)
                self.mod_qmats.append(qmat)
                return True
        return False

    def _solve(self, rows) -> Expansion:
        idx = np.array([[self.row_index[r] for r in rows]], dtype=np.int64)
        residues = []
        for p, inv, qmat in zip(self.primes, self.mod_inverses, self.mod_qmats):
            rhs = linalg.products_mod(qmat, idx, p)[:, 0]
            residues.append(linalg.matvec_mod(inv, rhs, p))
        coeffs = []
        for i in range(len(self.basis)):
            r, mod = int(residues[0][i]), self.primes[0]
            for k in range(1, len(self.primes)):
                r, mod = linalg.crt(r, mod, int(residues[k][i]), self.primes[k])
            coeffs.append(Fraction(linalg.symmetric_mod(r, mod)))
        return {self.basis[i]: c for i, c in enumerate(coeffs) if c}

    def expand(self, rows) -> Expansion:
        rows = sort_rows(rows)
        while True:
            exp = self._solve(rows)
            if self._verify(rows, exp):
                return exp
            if not self._add_prime():
                raise SingularEvaluationMatrixError(
                    "interpolated expansion failed exact re-evaluation"
                )

    def _verify(self, rows, exp: Expansion, trials: int = 3) -> bool:
        for _ in range(trials):
            pt = self._draw_point()
            if evaluate_rows(rows, pt) != evaluate_expansion(exp, pt):
                return False
        return True


_INTERP_CACHE: dict = {}


def _interpolator(n, num_rows, content, seed, w) -> _Interpolator:
    key = (n, num_rows, tuple(sorted(content.items())), seed, w)
    ctx = _INTERP_CACHE.get(key)
    if ctx is None:
        ctx = _Interpolator(n, num_rows, content, seed, w)
        _INTERP_CACHE[key] = ctx
    return ctx


def expand_by_interpolation(rows, n, seed=0, w=None) -> Expansion:
    """Standard expansion by exact evaluation, on the Schubert variety X(w) if w is given.

    Restricted to X(w), the expansion is the full-space one less its terms
    with a row not below w, since those rows vanish on X(w) and the
    restricted standard monomials are independent there; a product with
    such a row is 0.
    """
    rows = sort_rows(rows)
    for r in rows:
        _bset(r, n)
    w = _proper_index(w, n)
    if w is not None and not all(bruhat_leq(r, w) for r in rows):
        return {}
    return _interpolator(n, len(rows), content_of(rows, n), seed, w).expand(rows)


def _factor_rows(factors):
    rows = []
    shape = None
    n = None
    for f in factors:
        if isinstance(f, Tableau):
            shape = shape or f.shape
            if f.shape != shape:
                raise BasisMismatchError("mixed tableau shapes in a product")
            n = f.n
            rows.extend(f.rows)
        else:
            rows.extend(tuple(r) for r in f)
    return sort_rows(rows), shape, n


_PRODUCT_MEMO: dict = {}


def expand_product(factors, w=None) -> Expansion:
    """Coordinates of a product of standard tableaux over the standard basis.

    `factors` may be Tableau objects or bare row collections.  Single-column
    products multiply by merging; grid products are rewritten exactly by
    ``straighten_rows``, restricted to X(w) when w is given.  A finished grid
    expansion is memoized for the process under (n, sorted rows, shape, w),
    and every call returns a fresh copy of it.  Standard monomials are a
    basis, so the product has exactly one expansion and no call order can
    change what a later call returns.
    """
    rows, shape, n = _factor_rows(factors)
    if not rows:
        return {(): Fraction(1)}
    if shape == "omega_1":
        return {rows: Fraction(1)}
    if n is None:
        raise BasisMismatchError("cannot infer rank; pass Tableau factors")
    key = (n, rows, shape, None if w is None else tuple(w))
    exp = _PRODUCT_MEMO.get(key)
    if exp is None:
        exp = _PRODUCT_MEMO[key] = straighten_rows(rows, n, w=w)
    return dict(exp)


def expansion_to_json(exp: Expansion) -> list:
    return [
        {"coeff": str(c), "rows": [list(r) for r in rows]}
        for rows, c in sorted(exp.items())
    ]


def expansion_from_json(obj) -> Expansion:
    return {
        tuple(tuple(int(v) for v in r) for r in item["rows"]): Fraction(item["coeff"])
        for item in obj
    }


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
