from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtorus import families, pfaffian, straighten, weyl
from smtorus.cli import main
from smtorus.pfaffian import (
    AsymmetricDualPairError,
    NotFullFlagIndexError,
    dual_pair,
    index_from_bset,
    matching_sum_pfaffian,
    q_eval,
    random_skew_point,
    schubert_point,
    skew_point,
    sub_pfaffian,
)
from smtorus.straighten import (
    FuelExhaustedError,
    NotAPfaffianIndexError,
    evaluate_expansion,
    evaluate_rows,
    expand_by_interpolation,
    expand_product,
    expansion_from_json,
    expansion_to_json,
    first_violation,
    is_standard_rows,
    restrict_expansion,
    sort_rows,
    straighten_pair,
    straighten_rows,
)
from smtorus.tableau import Tableau

from test_linalg import _span_solution
from test_pfaffian import _rational_points

G1, G2, G3 = families.SPIN8_DEG1_ROWS
W6 = families.family_index(6, 2)
X = {i: families.x_tableau(i, 2) for i in range(1, 7)}
Y = {j: families.y_tableau(j, 2) for j in range(1, 5)}
Z = {l: families.z_tableau(l, 2) for l in (1, 2)}


def incomparable_pairs(n):
    reps = weyl.minimal_coset_reps_alpha_n(n)
    return [(a, b) for a, b in combinations(reps, 2) if not is_standard_rows((a, b))]


def test_worked_identity_signs():
    exp = straighten_pair((1, 4, 6, 7), (2, 3, 5, 8), 4)
    assert exp == {G1: Fraction(1), G2: Fraction(-1), G3: Fraction(1)}


def test_already_standard_pair_is_fixed():
    exp = straighten_pair((1, 2, 3, 4), (5, 6, 7, 8), 4)
    assert exp == {G1: Fraction(1)}
    # order of arguments is irrelevant
    assert straighten_pair((5, 6, 7, 8), (1, 2, 3, 4), 4) == exp


def test_rejects_non_coordinate_rows():
    with pytest.raises(NotAPfaffianIndexError):
        straighten_pair((1, 2, 3, 5), (1, 2, 3, 4), 4)


def test_first_violation_and_sorting():
    rows = sort_rows(((2, 3, 5, 8), (1, 4, 6, 7)))
    assert rows == ((1, 4, 6, 7), (2, 3, 5, 8))
    assert first_violation(rows) == 0
    assert first_violation((G1[0], G1[1])) is None


def test_rank8_quadratic_relations_restricted():
    e45 = straighten_rows(X[4].rows + X[5].rows, 8, w=W6)
    assert e45 == {
        Y[1].rows: Fraction(1),
        Y[2].rows: Fraction(-1),
        sort_rows(X[3].rows + X[6].rows): Fraction(1),
    }
    e25 = straighten_rows(X[2].rows + X[5].rows, 8, w=W6)
    assert e25 == {
        Y[1].rows: Fraction(1),
        Y[3].rows: Fraction(-1),
        sort_rows(X[1].rows + X[6].rows): Fraction(1),
    }
    e23 = straighten_rows(X[2].rows + X[3].rows, 8, w=W6)
    assert e23 == {
        Y[1].rows: Fraction(1),
        Y[4].rows: Fraction(-1),
        sort_rows(X[1].rows + X[4].rows): Fraction(1),
    }


def test_restriction_drops_terms_of_unrestricted_expansion():
    full = straighten_rows(X[4].rows + X[5].rows, 8)
    restricted = restrict_expansion(full, W6)
    assert restricted == straighten_rows(X[4].rows + X[5].rows, 8, w=W6)
    assert len(full) > len(restricted)
    dropped = set(full) - set(restricted)
    for rows in dropped:
        assert any(not weyl.bruhat_leq(r, W6) for r in rows)


def test_restriction_by_top_is_identity():
    exp = straighten_rows(X[4].rows + X[5].rows, 8)
    assert restrict_expansion(exp, weyl.top_coset_rep(8)) == exp


def test_restriction_by_bottom_kills_everything():
    w1 = families.family_index(1, 2)
    exp = straighten_rows(X[4].rows + X[5].rows, 8, w=w1)
    assert exp == {}
    assert expand_by_interpolation(X[4].rows + X[5].rows, 8, w=w1) == {}


def test_degree3_products_collapse_to_single_tableaux():
    assert straighten_rows(X[2].rows + Y[1].rows, 8, w=W6) == {Z[1].rows: Fraction(1)}
    assert straighten_rows(X[2].rows + Y[2].rows, 8, w=W6) == {Z[2].rows: Fraction(1)}


def test_degree_preserved_and_terms_standard():
    for b1, b2 in incomparable_pairs(4):
        exp = straighten_pair(b1, b2, 4)
        for rows in exp:
            assert len(rows) == 2
            assert is_standard_rows(rows)


def test_straightening_law_bounds_rank8():
    for b1, b2 in incomparable_pairs(8):
        for a1, a2 in straighten_pair(b1, b2, 8):
            for b in (b1, b2):
                assert all(x <= y for x, y in zip(a1, b)) and a1 != b
                assert all(x >= y for x, y in zip(a2, b)) and a2 != b


def test_evaluation_soundness_rank8_sample():
    rng = Random(11)
    pairs = incomparable_pairs(8)
    for b1, b2 in Random(12).sample(pairs, 40):
        exp = straighten_pair(b1, b2, 8)
        for _ in range(3):
            pt = random_skew_point(8, rng, 1, 999983)
            assert evaluate_rows((b1, b2), pt) == evaluate_expansion(exp, pt)


def test_evaluation_soundness_20_points_rank4():
    rng = Random(13)
    exp = straighten_pair((1, 4, 6, 7), (2, 3, 5, 8), 4)
    for _ in range(20):
        pt = random_skew_point(4, rng)
        assert evaluate_rows(((1, 4, 6, 7), (2, 3, 5, 8)), pt) == evaluate_expansion(exp, pt)


def test_fuel_exhaustion_is_loud():
    with pytest.raises(FuelExhaustedError):
        straighten_rows(((1, 4, 6, 7), (2, 3, 5, 8)), 4, fuel=0)


def test_default_fuel_covers_a_product_of_two_rank8_basis_tableaux():
    """This product takes 1,644 substitutions, just above 100 * n per row pair."""
    rows = (
        (1, 2, 5, 6, 7, 8, 13, 14),
        (3, 4, 9, 10, 11, 12, 15, 16),
        (1, 3, 4, 6, 9, 10, 12, 15),
        (2, 5, 7, 8, 11, 13, 14, 16),
    )
    exp = straighten_rows(rows, 8)
    assert all(is_standard_rows(key) for key in exp)
    pt = random_skew_point(8, Random(5), 1, 999983)
    assert evaluate_rows(rows, pt) == evaluate_expansion(exp, pt)


def test_path_independence_rank4_all_quadratics():
    reps = weyl.minimal_coset_reps_alpha_n(4)
    for b1, b2 in combinations_with_replacement(reps, 2):
        assert expand_by_interpolation((b1, b2), 4, seed=0) == straighten_rows((b1, b2), 4)


def test_interpolation_higher_degree_rank4():
    rows = G3 + G3 + G2
    assert expand_by_interpolation(rows, 4, seed=1) == straighten_rows(rows, 4)


def test_expand_product_merges_columns():
    from smtorus.tableau import column_tableau

    a = column_tableau(4, (1, 1, 8, 8))
    b = column_tableau(4, (2, 2, 7, 7))
    exp = expand_product([a, b])
    (rows, coeff), = exp.items()
    assert coeff == 1
    assert tuple(v for r in rows for v in r) == (1, 1, 2, 2, 7, 7, 8, 8)


def test_expand_product_empty_is_unit():
    assert expand_product([]) == {(): Fraction(1)}


def test_expand_product_standard_product_stays_standard():
    # a product of standard invariant tableaux that happens to be standard
    exp = expand_product([X[3], X[6]], w=W6)
    assert exp == {sort_rows(X[3].rows + X[6].rows): Fraction(1)}


def test_expansion_json_roundtrip():
    exp = straighten_pair((1, 4, 6, 7), (2, 3, 5, 8), 4)
    assert expansion_from_json(expansion_to_json(exp)) == exp


def test_product_of_comparable_standard_tableaux_is_itself():
    from smtorus.tableau import grid_tableau

    exp = expand_product([grid_tableau(4, G2), grid_tableau(4, G3)], w=(3, 4, 7, 8))
    assert exp == {sort_rows(G2 + G3): Fraction(1)}


def test_printed_odd_row_pair_straightens_to_three_terms():
    # the top two rows of the degree-2 product of the fourth and fifth
    # degree-1 tableaux, before any Schubert restriction
    b1, b2 = X[5].rows[0], X[4].rows[0]
    exp = straighten_pair(b1, b2, 8)
    x6r1, x3r1 = families.x_tableau(6, 2).rows[0], families.x_tableau(3, 2).rows[0]
    assert exp == {
        (Y[1].rows[0], Y[1].rows[1]): Fraction(1),
        (Y[2].rows[0], Y[2].rows[1]): Fraction(-1),
        sort_rows((x6r1, x3r1)): Fraction(1),
    }


def test_w6_relations_vanish_off_the_schubert_locus():
    """The three quadratic relations are identities of sections of the largest
    member: their full-space expansions carry only rows not below its index."""
    from random import Random

    combos = [
        [(1, X[4].rows + X[5].rows), (-1, X[3].rows + X[6].rows),
         (1, Y[2].rows), (-1, Y[1].rows)],
        [(1, X[2].rows + X[5].rows), (-1, X[1].rows + X[6].rows),
         (1, Y[3].rows), (-1, Y[1].rows)],
        [(1, X[2].rows + X[3].rows), (-1, X[1].rows + X[4].rows),
         (1, Y[4].rows), (-1, Y[1].rows)],
    ]
    rng = Random(21)
    for combo in combos:
        total = {}
        for c, rows in combo:
            for key, v in straighten_rows(rows, 8).items():
                total[key] = total.get(key, Fraction(0)) + c * v
        total = {k: v for k, v in total.items() if v}
        assert restrict_expansion(total, W6) == {}
        # and the unrestricted combination still evaluates consistently
        for _ in range(5):
            pt = random_skew_point(8, rng, 1, 9973)
            lhs = sum(c * evaluate_rows(rows, pt) for c, rows in combo)
            assert lhs == evaluate_expansion(total, pt)


def test_rank6_pairs_straighten_soundly():
    reps6 = weyl.minimal_coset_reps_alpha_n(6)
    rng = Random(31)
    pairs = [(a, b) for a, b in combinations(reps6, 2) if not is_standard_rows((a, b))]
    for b1, b2 in pairs:
        exp = straighten_pair(b1, b2, 6)
        for rows in exp:
            assert is_standard_rows(rows)
        pt = random_skew_point(6, rng, 1, 99991)
        assert evaluate_rows((b1, b2), pt) == evaluate_expansion(exp, pt)


def _content_class_by_scan(content, n):
    """The pairs realizing a content, found by scanning every row for its complement."""
    reps = weyl.minimal_coset_reps_alpha_n(n)
    rows = set(reps)
    pairs = set()
    for u in reps:
        remaining = dict(content)
        for v in u:
            remaining[v] -= 1
        rest = tuple(sorted(v for v, c in remaining.items() if c))
        if all(c in (0, 1) for c in remaining.values()) and rest in rows:
            pairs.add(sort_rows((u, rest)))
    return sorted(pairs)


def test_content_classes_match_a_scan_over_all_rows():
    """Each class built from its content equals the scan over every row."""
    # every pair content at ranks 4-7 (1,472) and 300 of the 3,153 at rank 8,
    # where scanning them all takes 3 s
    for n in range(4, 9):
        contents = sorted({
            tuple(sorted(straighten.content_of(pair, n).items()))
            for pair in combinations_with_replacement(weyl.minimal_coset_reps_alpha_n(n), 2)
        })
        if n == 8:
            contents = Random(n).sample(contents, 300)
        for content in contents:
            got = straighten._content_class_pairs(dict(content), n)
            assert got and got == _content_class_by_scan(dict(content), n)
    # a value counted three times, or a mirror pair counted (2, 2), has no class
    assert straighten._content_class_pairs({1: 3, 2: 1, 3: 0, 4: 0}, 2) == []
    assert straighten._content_class_pairs({1: 2, 2: 2, 3: 0, 4: 2}, 2) == []


def test_contradictory_exchange_relation_is_an_error(monkeypatch):
    """An equation among standard pairs alone contradicts their independence."""
    original = straighten._merged_relation
    calls = []

    def standard_terms_first(s1, s2, x):
        merged = original(s1, s2, x)
        calls.append(x)
        if len(calls) > 1:
            return merged
        kept = {
            key: c
            for key, c in merged.items()
            if is_standard_rows((index_from_bset(key[0], 4), index_from_bset(key[1], 4)))
        }
        assert any(kept.values())
        return kept

    monkeypatch.setattr(straighten, "_merged_relation", standard_terms_first)
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    with pytest.raises(straighten.StraightenError):
        straighten._solve_content_class(sort_rows(((1, 4, 6, 7), (2, 3, 5, 8))), 4)


RANK4_PAIR = sort_rows(((1, 4, 6, 7), (2, 3, 5, 8)))
# the content class that the rank-8 pairs of the benchmark's interpolate pool reach
RANK8_PAIR = sort_rows(((1, 4, 6, 7, 9, 12, 14, 15), (2, 3, 5, 8, 10, 11, 13, 16)))
# the first of the three content classes that `reproduce spin8n --n 3` solves
RANK12_PAIR = sort_rows(
    (
        (1, 5, 6, 7, 10, 12, 14, 16, 17, 21, 22, 23),
        (2, 3, 4, 8, 11, 12, 15, 16, 18, 19, 20, 24),
    )
)


@pytest.mark.parametrize("pair, n", [(RANK4_PAIR, 4), (RANK8_PAIR, 8)])
def test_content_class_solve_matches_exact_elimination(monkeypatch, pair, n):
    real = straighten.linalg.integer_solution
    solved = []

    def recording(equations, k, width):
        x = real(equations, k, width)
        solved.append((equations, k, width, x))
        return x

    monkeypatch.setattr(straighten.linalg, "integer_solution", recording)
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    straighten._solve_content_class(pair, n)
    ((equations, k, width, x),) = solved
    assert x.tolist() == _span_solution(equations, k, width)
    memo = straighten._PAIR_MEMO
    assert len(memo) == k and (n, pair) in memo
    assert all(type(c) is Fraction and c for exp in memo.values() for c in exp.values())
    if n == 4:
        assert memo[(4, pair)] == {G1: 1, G2: -1, G3: 1}


def test_rank12_content_class_evaluates_exactly(monkeypatch):
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    straighten._solve_content_class(RANK12_PAIR, 12)
    rng = Random(12)
    solved = sorted(pair for _, pair in straighten._PAIR_MEMO)
    for pair in [RANK12_PAIR] + rng.sample(solved, 2):
        exp = straighten._PAIR_MEMO[(12, pair)]
        assert all(is_standard_rows(rows) for rows in exp)
        pt = random_skew_point(12, rng, 1, 99991)
        assert evaluate_rows(pair, pt) == evaluate_expansion(exp, pt)


@pytest.mark.parametrize("wrong", [1, 3])
def test_content_class_rejects_a_wrong_modular_answer(monkeypatch, wrong):
    """A wrong reduction at the first primes fails the exact check."""
    primes = straighten.linalg.PRIMES
    pivot = straighten.linalg._pivot
    used = []

    def wrong_at_first_primes(a, ncols, p):
        used.append(p)
        swaps = pivot(a, ncols, p)
        if p in primes[:wrong]:
            # doubles -X in the rows [I | -X] that integer_solution reads
            a[:ncols, ncols:] = 2 * a[:ncols, ncols:] % p
        return swaps

    monkeypatch.setattr(straighten.linalg, "_pivot", wrong_at_first_primes)
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    if wrong == len(primes):
        with pytest.raises(straighten.ContentClassError, match="content class"):
            straighten._solve_content_class(RANK4_PAIR, 4)
        assert list(dict.fromkeys(used)) == list(primes) and straighten._PAIR_MEMO == {}
        return
    straighten._solve_content_class(RANK4_PAIR, 4)
    assert list(dict.fromkeys(used)) == [primes[0], primes[1]]
    assert straighten._PAIR_MEMO[(4, RANK4_PAIR)] == {G1: 1, G2: -1, G3: 1}


def test_interpolation_skips_a_singular_prime_when_escalating(monkeypatch):
    """A failed verification moves on to the next prime the matrix is regular for."""
    # rank 6, every value twice: 70 standard monomials
    rows = sort_rows(
        ((1, 2, 7, 8, 9, 10), (1, 4, 5, 6, 10, 11), (2, 3, 7, 8, 9, 12), (3, 4, 5, 6, 11, 12))
    )
    primes = straighten.linalg.PRIMES
    inverse_mod = straighten.linalg.inverse_mod
    verify = straighten._Interpolator._verify
    verified = []

    def singular_at_second_prime(mat, p):
        return None if p == primes[1] else inverse_mod(mat, p)

    def fail_first(self, rows, exp, trials=3):
        verified.append(rows)
        return len(verified) > 1 and verify(self, rows, exp, trials)

    monkeypatch.setattr(straighten.linalg, "inverse_mod", singular_at_second_prime)
    monkeypatch.setattr(straighten._Interpolator, "_verify", fail_first)
    monkeypatch.setattr(straighten, "_INTERP_CACHE", {})
    assert expand_by_interpolation(rows, 6) == straighten_rows(rows, 6)
    (ctx,) = straighten._INTERP_CACHE.values()
    assert ctx.primes == [primes[0], primes[2]]


def test_restricted_interpolation_lives_on_the_schubert_variety(monkeypatch):
    """On X(W6) the class has 22 monomials and evaluates only the rows below W6."""
    monkeypatch.setattr(straighten, "_INTERP_CACHE", {})
    rows = X[4].rows + X[5].rows
    assert expand_by_interpolation(rows, 8, w=W6) == straighten_rows(rows, 8, w=W6)
    ((key, ctx),) = straighten._INTERP_CACHE.items()
    assert key[-1] == W6 and len(ctx.basis) == 22
    assert ctx.qrows == [r for r in weyl.minimal_coset_reps_alpha_n(8) if weyl.bruhat_leq(r, W6)]
    assert all(pt.den > 1 for pt in ctx.points)
    # the top index is the whole space: the full-space route, keyed as such
    top = weyl.top_coset_rep(4)
    assert expand_by_interpolation(G2 + G3, 4, w=top) == expand_by_interpolation(G2 + G3, 4)
    assert [key[-1] for key in straighten._INTERP_CACHE] == [W6, None]


def _residue(value: Fraction, p: int) -> int:
    return value.numerator * pow(value.denominator, -1, p) % p


RANK4_CONTEXT = straighten._Interpolator(4, 2, straighten.content_of(G1, 4), 0, None)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-99, 99), st.integers(-40, 40).filter(bool)),
        min_size=6,
        max_size=6,
    ),
    st.sampled_from(straighten.linalg.PRIMES + (101, 7)),
)
def test_q_vector_mod_reduces_the_exact_values(entries, p):
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    pt = skew_point(4, dict(zip(pairs, entries)))
    got = RANK4_CONTEXT._q_vector_mod(pt, p)
    if pt.den % p == 0:
        assert got is None
    else:
        assert got == [_residue(q_eval(r, pt), p) for r in RANK4_CONTEXT.qrows]


def test_a_prime_dividing_a_point_denominator_is_skipped(monkeypatch):
    """A point with den = 0 mod p gives no residues mod p; the next prime is used."""
    p = straighten.linalg.PRIMES[0]
    pt = skew_point(4, {(1, 2): Fraction(1, p), (3, 4): 5})
    assert RANK4_CONTEXT._q_vector_mod(pt, p) is None
    assert RANK4_CONTEXT._q_vector_mod(pt, straighten.linalg.PRIMES[1]) is not None

    draw = straighten._Interpolator._draw_point
    drawn = []

    def first_over_p(self):
        point = draw(self)
        drawn.append(point)
        if len(drawn) > 1:
            return point
        return skew_point(self.n, {key: v / p for key, v in point.upper.items()})

    monkeypatch.setattr(straighten._Interpolator, "_draw_point", first_over_p)
    monkeypatch.setattr(straighten, "_INTERP_CACHE", {})
    rows = sort_rows(((1, 4, 6, 7), (2, 3, 5, 8)))
    w = (3, 4, 7, 8)
    assert expand_by_interpolation(rows, 4, w=w) == straighten_rows(rows, 4, w=w)
    (ctx,) = straighten._INTERP_CACHE.values()
    assert ctx.points[0].den % p == 0
    assert ctx.primes == [straighten.linalg.PRIMES[1]]


def test_memoized_products_match_fresh_rewriting(tmp_path, monkeypatch):
    """Every product `reproduce spin8n --n 2` expands equals a rewrite from empty memos."""
    monkeypatch.setattr(straighten, "_PRODUCT_MEMO", {})
    assert main(["reproduce", "spin8n", "--n", "2", "--out", str(tmp_path / "report.json")]) == 0
    memo = dict(straighten._PRODUCT_MEMO)
    assert len(memo) > 10

    def product(key):
        n, rows, shape, w = key
        return expand_product([Tableau(n, shape, rows)], w=w)

    memoized = {key: product(key) for key in memo}
    assert straighten._PRODUCT_MEMO == memo  # every call above was a hit
    # a caller that changes its copy leaves the next call's result alone
    key = next(key for key, exp in memoized.items() if exp)
    mine = product(key)
    mine.clear()
    assert product(key) == memoized[key]

    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    monkeypatch.setattr(straighten, "_PRODUCT_MEMO", {})
    monkeypatch.setattr(pfaffian, "_BSET_MEMO", {})
    for (n, rows, shape, w), exp in memoized.items():
        assert exp == straighten_rows(rows, n, w=w)


@pytest.mark.parametrize(
    "row, q_error, rows_error",
    [
        ((2, 1, 3, 4), NotFullFlagIndexError, NotFullFlagIndexError),  # not increasing
        ((1, 2, 3, 9), NotFullFlagIndexError, NotFullFlagIndexError),  # out of range
        ((1, 2, 4, 5), AsymmetricDualPairError, NotAPfaffianIndexError),  # asymmetric
        ((1, 2, 3, 5), None, NotAPfaffianIndexError),  # odd B-subset: q vanishes
    ],
)
def test_bad_rows_raise_on_every_call_and_stay_unmemoized(monkeypatch, row, q_error, rows_error):
    monkeypatch.setattr(pfaffian, "_BSET_MEMO", {})
    pt = random_skew_point(4, Random(5))
    for _ in range(2):
        if q_error is None:
            assert q_eval(row, pt) == 0
        else:
            with pytest.raises(q_error):
                q_eval(row, pt)
        with pytest.raises(rows_error):
            straighten_rows((row,), 4)
        for evaluate in (
            lambda: evaluate_rows((row, row), pt),
            lambda: evaluate_expansion({(row,): Fraction(2)}, pt),
        ):
            if q_error is None:
                assert evaluate() == 0
            else:
                with pytest.raises(q_error):
                    evaluate()
    assert pfaffian._BSET_MEMO == {}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_q_eval_is_the_sub_pfaffian_on_the_b_subset(monkeypatch, n):
    monkeypatch.setattr(pfaffian, "_BSET_MEMO", {})
    rng = Random(n)
    rows = weyl.minimal_coset_reps_alpha_n(n)
    for _ in range(3):  # the first point fills the memo, the others read it
        pt = random_skew_point(n, rng, -999, 999)
        for row in rows:
            assert q_eval(row, pt) == sub_pfaffian(pt, dual_pair(row, n)[1])
    assert len(pfaffian._BSET_MEMO) == len(rows)


def _full_then_restrict(rows, n, w):
    """Rewriting with full-space pair expansions, dropping each substituted
    term with a row not below w: the route taken before restriction moved
    into the pair recursion."""

    def below(rs):
        return all(weyl.bruhat_leq(r, w) for r in rs)

    work = {rows: Fraction(1)} if below(rows) else {}
    while True:
        pick = None
        for key in sorted(work):
            i = first_violation(key)
            if i is not None:
                pick = (key, i)
                break
        if pick is None:
            return work
        key, i = pick
        coeff = work.pop(key)
        for pair, c in straighten._pair_expansion(key[i : i + 2], n).items():
            if below(pair):
                new_key = sort_rows(key[:i] + key[i + 2 :] + pair)
                work[new_key] = work.get(new_key, Fraction(0)) + coeff * c
                if not work[new_key]:
                    del work[new_key]


@pytest.mark.parametrize(
    "preset, products",
    [("spin8", 37), ("spin8n --n 2", 331), ("spin8n --n 3", 331)],
)
def test_restricted_rewriting_matches_full_then_restrict(tmp_path, monkeypatch, preset, products):
    """Every restricted product a preset expands, against full-space pair expansions."""
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    monkeypatch.setattr(straighten, "_PRODUCT_MEMO", {})
    out = str(tmp_path / "report.json")
    assert main(["reproduce", *preset.split(), "--out", out]) == 0
    restricted = [key for key in straighten._PRODUCT_MEMO if key[3] is not None]
    assert len(restricted) == products
    for n, rows, shape, w in restricted:
        assert expand_product([Tableau(n, shape, rows)], w=w) == _full_then_restrict(rows, n, w)


def _restricted_pair(n, w):
    """The first incomparable pair of rows below w."""
    below = [r for r in weyl.minimal_coset_reps_alpha_n(n) if weyl.bruhat_leq(r, w)]
    return next(sort_rows(p) for p in combinations(below, 2) if not is_standard_rows(p))


@pytest.mark.parametrize("n, w", [(4, families.SPIN8_W1), (8, W6)])
def test_restricted_pair_without_a_restricted_rewrite_restricts_the_full_expansion(
    monkeypatch, n, w
):
    real = straighten._candidate_rewrites

    def full_space_only(pair, n, w=None):
        return iter(()) if w is not None else real(pair, n)

    monkeypatch.setattr(straighten, "_candidate_rewrites", full_space_only)
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    pair = _restricted_pair(n, w)
    got = straighten._pair_expansion(pair, n, w)
    assert got == restrict_expansion(straighten._pair_expansion(pair, n), w)
    assert straighten._PAIR_MEMO[(n, pair, w)] == got
    if n == 4:
        assert pair == RANK4_PAIR and got == {G3: 1}


def test_restricted_pair_entries_never_answer_a_full_space_lookup(monkeypatch):
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    rows = X[2].rows + X[5].rows
    on_w6 = straighten_rows(rows, 8, w=W6)
    assert any(len(key) == 3 for key in straighten._PAIR_MEMO)
    full = straighten_rows(rows, 8)
    assert len(on_w6) == 3 and len(full) > 3
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    assert full == straighten_rows(rows, 8)


def _oracle_rows(rows, pt):
    """The product by matching sums on each row's B-subset: no recursion, no memo."""
    val = Fraction(1)
    for r in rows:
        val *= matching_sum_pfaffian(pt, dual_pair(r, pt.n)[1])
    return val


def _oracle_expansion(exp, pt):
    return sum((c * _oracle_rows(rows, pt) for rows, c in exp.items()), Fraction(0))


def _mixed_expansion(n, w=None):
    """A hand-built expansion whose terms carry den to the powers 0, 1 and 3."""
    by_size = {}
    for r in weyl.minimal_coset_reps_alpha_n(n):
        if w is None or weyl.bruhat_leq(r, w):
            by_size.setdefault(len(dual_pair(r, n)[1]), r)
    return {
        (by_size[0],): Fraction(3, 2),
        (by_size[2],): Fraction(-2, 5),
        sort_rows((by_size[2], by_size[4])): Fraction(7),
    }


def _check_evaluation_against_oracle(pt, expansions, w=None):
    n = pt.n
    odd = index_from_bset((n,), n)  # a one-element B-subset: q vanishes
    mixed = _mixed_expansion(n, w)
    with_odd = dict(mixed)
    with_odd[sort_rows((odd, odd))] = Fraction(5)
    for exp in expansions + [mixed, with_odd, {}]:
        assert evaluate_expansion(exp, pt) == _oracle_expansion(exp, pt)
        for rows in exp:
            assert evaluate_rows(rows, pt) == _oracle_rows(rows, pt)
    assert evaluate_rows((odd,), pt) == 0
    assert evaluate_rows(next(iter(mixed)) + (odd,), pt) == 0


def _straightened(n, w=None):
    """A few pair expansions and one degree-3 expansion from straighten_rows."""
    reps = [r for r in weyl.minimal_coset_reps_alpha_n(n) if w is None or weyl.bruhat_leq(r, w)]
    pairs = [(a, b) for a, b in combinations(reps, 2) if not is_standard_rows((a, b))]
    picked = pairs[:: max(1, len(pairs) // 4)][:4]
    products = picked + [picked[0] + (reps[len(reps) // 2],)]
    return [straighten_rows(rows, n, w=w) for rows in products]


@settings(max_examples=30, deadline=None)
@given(_rational_points(6, min_n=4))
def test_evaluation_matches_matching_sums_at_rational_points(pt):
    """Integer products over den**h against Fraction matching sums, ranks 4-6."""
    _check_evaluation_against_oracle(pt, _straightened(pt.n))


def test_evaluation_matches_matching_sums_at_schubert_points():
    """The same at points of X(W6) at rank 8, whose denominators exceed 1."""
    rng = Random("evaluation-oracle")
    expansions = _straightened(8, W6) + [straighten_rows(RANK8_PAIR, 8)]
    assert all(expansions)
    for _ in range(2):
        pt = schubert_point(W6, 8, rng)
        assert pt.den > 1
        _check_evaluation_against_oracle(pt, expansions, W6)
