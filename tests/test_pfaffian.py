from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtorus import families
from smtorus.linalg import PRIMES, Span
from smtorus.pfaffian import (
    _borel_rows,
    _chart,
    _pf,
    AsymmetricDualPairError,
    EvenCardinalityError,
    NotFullFlagIndexError,
    PfaffianError,
    SkewPoint,
    dual_pair,
    evaluate_relation,
    exchange_relation,
    index_from_bset,
    matching_sum_pfaffian,
    pfaffian,
    q_eval,
    random_skew_point,
    schubert_point,
    skew_determinant,
    skew_point,
    sub_pfaffian,
)
from smtorus.weyl import bruhat_leq, minimal_coset_reps_alpha_n, top_coset_rep


def test_two_by_two_base_case():
    assert pfaffian(skew_point(2, {(1, 2): Fraction(7, 3)})) == Fraction(7, 3)


def test_generic_four_by_four():
    y = {(i, j): Fraction((i + 1) * (j + 2)) for i in range(1, 5) for j in range(i + 1, 5)}
    pt = skew_point(4, y)
    expected = y[(1, 2)] * y[(3, 4)] - y[(1, 3)] * y[(2, 4)] + y[(1, 4)] * y[(2, 3)]
    assert pfaffian(pt) == expected


def test_block_matrix_normalization_sign():
    # The sign convention is pinned by the quadratic straightening identity;
    # under it the block matrix with ones on the n/2 off-diagonal evaluates to
    # (-1)^(m(m-1)/2), m = n/2, not to +1 for every n.
    values = {}
    for n in (2, 4, 6, 8):
        blk = skew_point(n, {(i, i + n // 2): 1 for i in range(1, n // 2 + 1)})
        values[n] = pfaffian(blk)
    assert values == {2: 1, 4: -1, 6: -1, 8: 1}


def test_odd_sizes_vanish():
    rng = Random(1)
    for n in (3, 5, 7):
        assert pfaffian(random_skew_point(n, rng, 1, 99)) == 0


def test_square_equals_determinant_random():
    rng = Random(2)
    for n in range(2, 9):
        for _ in range(20):
            pt = random_skew_point(n, rng, 1, 10**6)
            pf = pfaffian(pt)
            assert pf * pf == skew_determinant(pt)


def test_matching_sum_oracle_agreement():
    rng = Random(3)
    for n in range(2, 9):
        for _ in range(3):
            pt = random_skew_point(n, rng, 1, 500)
            assert matching_sum_pfaffian(pt) == pfaffian(pt)
            sub = tuple(sorted(rng.sample(range(1, n + 1), n - n % 2)))
            assert matching_sum_pfaffian(pt, sub) == sub_pfaffian(pt, sub)


# the recursion reduces Python ints, so it takes primes wider than linalg's too
@pytest.mark.parametrize("p", [PRIMES[0], (1 << 31) - 1, 101])
def test_mod_p_pfaffian_matches_oracle(p):
    """The shared recursion mod p against the matching sum reduced mod p."""
    rng = Random(5)
    for n in (6, 8):
        for _ in range(3):
            upper = {
                (i, j): rng.randint(-(10**12), 10**12)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            }
            pt = skew_point(n, upper)
            residues = {key: v % p for key, v in upper.items()}
            subsets = [s for size in range(0, n + 1, 2) for s in combinations(range(1, n + 1), size)]
            cache: dict = {}
            for sub in rng.sample(subsets, 12) + [tuple(range(1, n + 1))]:
                assert _pf(residues, sub, cache, p) == matching_sum_pfaffian(pt, sub) % p


@pytest.mark.parametrize("p", [None, PRIMES[0], 101])
def test_pf_on_sparse_points_matches_oracle(p):
    """Missing keys, zero entries and entries divisible by p, on every even subset.

    The two- and four-member closed forms then meet zero residues, which the
    dense points above never give them.
    """
    rng = Random(f"sparse:{p}")
    n = 8
    subsets = [s for size in range(0, n + 1, 2) for s in combinations(range(1, n + 1), size)]
    for _ in range(4):
        upper = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                kind = rng.randrange(4)
                if kind == 1:
                    upper[(i, j)] = 0
                elif kind == 2:
                    upper[(i, j)] = (p or 101) * rng.randint(-(10**6), 10**6)
                elif kind == 3:
                    upper[(i, j)] = rng.randint(-(10**9), 10**9)
        pt = skew_point(n, upper)
        entries = upper if p is None else {key: v % p for key, v in upper.items()}
        cache: dict = {}
        for sub in subsets:
            want = matching_sum_pfaffian(pt, sub)
            assert _pf(entries, sub, cache, p) == (want if p is None else want % p), sub


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=15, max_size=15))
def test_pfaffian_square_property(entries):
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    pt = skew_point(6, dict(zip(pairs, entries)))
    assert pfaffian(pt) ** 2 == skew_determinant(pt)


def test_sub_pfaffian_empty_and_odd():
    pt = random_skew_point(6, Random(4))
    assert sub_pfaffian(pt, ()) == 1
    assert sub_pfaffian(pt, (1, 2, 5)) == 0
    assert sub_pfaffian(pt, tuple(range(1, 7))) == pfaffian(pt)


def test_dual_pair_examples():
    assert dual_pair((1, 4, 6, 7), 4) == ((2, 3), (2, 3))
    assert dual_pair((2, 3, 5, 8), 4) == ((1, 4), (1, 4))
    assert dual_pair((1, 2, 3, 4), 4) == ((), ())


def test_dual_pair_rejects_short_index():
    with pytest.raises(NotFullFlagIndexError):
        dual_pair((1, 2, 3), 4)


def test_index_from_bset_examples():
    assert index_from_bset((2, 3), 4) == (1, 4, 6, 7)
    assert index_from_bset((), 4) == (1, 2, 3, 4)


def test_dual_pair_roundtrips_exhaustive():
    for n in (2, 3, 4):
        for r in range(0, n + 1, 2):
            for bset in combinations(range(1, n + 1), r):
                iv = index_from_bset(bset, n)
                aset, bset2 = dual_pair(iv, n)
                assert aset == bset2 == bset
        # and back: every symmetric index comes from its B-subset
        from smtorus.weyl import minimal_coset_reps_alpha_n

        for iv in minimal_coset_reps_alpha_n(n):
            _, bset = dual_pair(iv, n)
            assert index_from_bset(bset, n) == iv


def test_q_eval_examples():
    pt = skew_point(4, {(1, 2): 2, (1, 3): 3, (1, 4): 7, (2, 3): 5, (2, 4): 11, (3, 4): 13})
    assert q_eval((1, 2, 3, 4), pt) == 1
    assert q_eval((1, 4, 6, 7), pt) == 5  # the (2,3) sub-Pfaffian is y_23
    rng = Random(6)
    for _ in range(10):
        p2 = random_skew_point(4, rng, 1, 999)
        v = q_eval((1, 4, 6, 7), p2)
        assert v * v == skew_determinant(p2, (2, 3))


def test_q_eval_rejects_asymmetric_index():
    pt = random_skew_point(4, Random(7))
    with pytest.raises(AsymmetricDualPairError):
        q_eval((1, 2, 4, 5), pt)


def test_q_eval_vanishes_on_odd_symmetric_index():
    pt = random_skew_point(4, Random(17))
    assert q_eval((1, 2, 3, 5), pt) == 0


def test_exchange_relation_rejects_even_sets():
    with pytest.raises(EvenCardinalityError):
        exchange_relation((1, 2), (3,))


def test_exchange_relation_worked_instance():
    rel = exchange_relation((1, 2, 4), (3,))
    assert rel.terms == (
        (-1, (2, 4), (1, 3)),
        (1, (1, 4), (2, 3)),
        (-1, (1, 2, 3, 4), ()),
        (1, (1, 2), (3, 4)),
    )
    rng = Random(8)
    for _ in range(20):
        assert evaluate_relation(rel, random_skew_point(4, rng)) == 0


def test_exchange_relation_identical_sets_vanish_termwise():
    rel = exchange_relation((1, 2, 3), (1, 2, 3))
    assert rel.terms == ()


def test_exchange_relations_vanish_at_random_points():
    rng = Random(9)
    for _ in range(50):
        n = rng.randint(2, 8)
        sizes = [k for k in range(1, n + 1, 2)]
        i_set = tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
        j_set = tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
        rel = exchange_relation(i_set, j_set)
        for _ in range(20):
            assert evaluate_relation(rel, random_skew_point(n, rng, 1, 10**4)) == 0


def test_skew_point_derives_its_numerators_from_upper():
    upper = {(1, 2): Fraction(1, 3), (1, 4): Fraction(-5, 6), (2, 3): Fraction(7), (3, 4): 2}
    pt = SkewPoint(4, upper)
    assert pt.den == 6 and pt.num == {(1, 2): 2, (1, 4): -5, (2, 3): 42, (3, 4): 12}
    assert pfaffian(pt) == matching_sum_pfaffian(pt) == Fraction(1, 3) * 2 - Fraction(5, 6) * 7


def test_integer_points_keep_their_entries_over_den_one():
    """All-int entries skip the lcm: den 1 and num the entries; entry() stays a Fraction."""
    upper = {(1, 2): 3, (1, 3): -7, (2, 4): 0, (3, 4): 10**20}
    pt = skew_point(4, upper)
    assert pt.den == 1 and pt.num == upper and pt.upper == upper
    assert all(type(v) is int for v in pt.num.values())
    for (i, j), want in [((1, 2), 3), ((4, 3), -(10**20)), ((1, 4), 0), ((2, 2), 0)]:
        got = pt.entry(i, j)
        assert type(got) is Fraction and got == want
    assert pfaffian(pt) == matching_sum_pfaffian(pt) == 3 * 10**20
    assert SkewPoint(4, dict(upper)).num == upper
    for bad in ({(1, 2): 3, (2, 5): 1}, {(2, 1): 3}, {(0, 1): 3}):
        with pytest.raises(PfaffianError):
            skew_point(4, bad)


def test_mixed_points_take_the_exact_lcm_denominator():
    """Fraction, float and bool entries are taken exactly; an int among them stays an int."""
    pt = skew_point(
        4, {(1, 2): Fraction(1, 2), (1, 3): 0.25, (2, 3): True, (3, 4): Fraction(2, 3), (1, 4): 5}
    )
    assert pt.den == 12
    assert pt.num == {(1, 2): 6, (1, 3): 3, (2, 3): 12, (3, 4): 8, (1, 4): 60}
    assert all(type(pt.upper[key]) is Fraction for key in [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert pt.upper[(1, 3)] == Fraction(1, 4) and pt.upper[(2, 3)] == 1
    assert pfaffian(pt) == matching_sum_pfaffian(pt) == Fraction(1, 2) * Fraction(2, 3) + 5 * 1


def _rational_points(max_n, min_n=2):
    """Skew points of size min_n..max_n whose entries are a / b with mixed and negative b."""
    ratio = st.builds(
        Fraction,
        st.integers(-60, 60),
        st.integers(-15, 15).filter(bool),
    )
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            ratio, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(
            lambda vals: skew_point(
                n,
                dict(zip([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], vals)),
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(_rational_points(8))
def test_integer_numerators_match_rational_oracles(pt):
    """The integer recursion against Fraction matchings and a Span determinant.

    Up to six members `_pf` takes closed forms; size 8 reaches the memoized
    recursion above them.
    """
    n = pt.n
    assert pt.den > 0
    assert all(Fraction(pt.num[key], pt.den) == v for key, v in pt.upper.items())
    assert all(type(v) is int for v in pt.num.values())
    for size in range(0, n + 1):
        for sub in combinations(range(1, n + 1), size):
            assert sub_pfaffian(pt, sub) == matching_sum_pfaffian(pt, sub)
    assert pfaffian(pt) ** 2 == skew_determinant(pt)
    assert all(type(v) is int for v in pt._cache.values())


def _fraction_chart(rows):
    """The right block of the reduced row echelon form, by Span's Fraction elimination."""
    n = len(rows)
    span = Span(2 * n)
    for r in rows:
        span.add(r)
    assert list(span.pivots) == list(range(n))
    return [[span.pivots[k].get(j, 0) for j in range(n, 2 * n)] for k in range(n)]


W6 = families.family_index(6, 2)
SCHUBERT_CASES = [
    (4, (1, 2, 3, 4)),
    (4, (2, 4, 6, 8)),
    (4, (3, 4, 7, 8)),
    (4, top_coset_rep(4)),
    (8, tuple(range(1, 9))),
    (8, families.family_index(1, 2)),
    (8, W6),
    (8, top_coset_rep(8)),
]


@pytest.mark.parametrize("n, w", SCHUBERT_CASES)
def test_borel_rows_and_chart(n, w):
    """b.e_w is an isotropic point of the cell of w; its chart is skew and exact."""
    rng = Random(f"borel:{n}:{w}")
    rows = _borel_rows(w, n, rng)
    m = 2 * n
    for k, (row, c) in enumerate(zip(rows, w)):
        # column c of an upper unipotent matrix
        assert row[c - 1] == 1 and not any(row[c:])
        for other in rows[k:]:
            assert sum(row[i] * other[m - 1 - i] for i in range(m)) == 0
    x, den = _chart(rows)
    assert [[Fraction(v, den) for v in r] for r in x] == _fraction_chart(rows)
    # A_{t,s} = M_{t,2n+1-s} is skew
    a = [[Fraction(x[t][n - 1 - s], den) for s in range(n)] for t in range(n)]
    assert all(a[t][s] == -a[s][t] for t in range(n) for s in range(n))


@pytest.mark.parametrize("n, w", SCHUBERT_CASES)
def test_schubert_point_is_cut_out_by_the_rows_not_below_w(n, w):
    """q_tau vanishes at a point of X(w) exactly when tau is not below w."""
    rng = Random(f"schubert:{n}:{w}")
    for _ in range(2):
        pt = schubert_point(w, n, rng)
        assert pt.den > 0 and len(pt.upper) == n * (n - 1) // 2
        for tau in minimal_coset_reps_alpha_n(n):
            assert (q_eval(tau, pt) == 0) == (not bruhat_leq(tau, w)), tau
