"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion together with its runtime; every check is exact, and each criterion
asserts its stated wall-clock budget.
"""

import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

from smtorus import families, ring, tableau, weyl
from smtorus.pfaffian import (
    evaluate_relation,
    exchange_relation,
    index_from_bset,
    dual_pair,
    pfaffian,
    random_skew_point,
    skew_determinant,
)
from smtorus.rewrite import (
    check_confluence,
    normal_form_count,
    overlaps,
    veronese_p1_system,
    veronese_p2_system,
    veronese_p3_system,
)
from smtorus.ring import RingSpec
from smtorus.straighten import (
    evaluate_expansion,
    evaluate_rows,
    expand_by_interpolation,
    expand_product,
    restrict_expansion,
    straighten_pair,
    straighten_rows,
)

G1, G2, G3 = families.SPIN8_DEG1_ROWS
W6 = families.family_index(6, 2)
X = {i: families.x_tableau(i, 2) for i in range(1, 7)}
Y = {j: families.y_tableau(j, 2) for j in range(1, 5)}
Z = {l: families.z_tableau(l, 2) for l in (1, 2)}


def _finish(number, label, t0, budget):
    elapsed = time.time() - t0
    print(f"PASS criterion-{number} ({label}) in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_straightening_identity():
    t0 = time.time()
    exp = straighten_pair((1, 4, 6, 7), (2, 3, 5, 8), 4)
    assert exp == {G1: Fraction(1), G2: Fraction(-1), G3: Fraction(1)}
    _finish(1, "quadratic straightening identity with signs +1,-1,+1", t0, 1)


def test_criterion_2_full_space_rank4():
    t0 = time.time()
    spec = RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=3)
    h = ring.hilbert(spec)
    assert h == [1, 3, 6, 10]
    gen = ring.check_generation(RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=4), 1)
    assert gen.generated
    assert ring.identify_projective_space(h) == (2, 1)
    _finish(2, "rank-4 full space: Hilbert, degree-1 generation, (P^2, O(1))", t0, 5)


def test_criterion_3_rank4_schubert_corollaries():
    t0 = time.time()
    point = RingSpec("omega_n", 4, (2, 4, 6, 8), max_degree=4)
    assert ring.hilbert(point) == [1, 1, 1, 1, 1]
    line = RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=3)
    assert ring.hilbert(line) == [1, 2, 3, 4]
    assert ring.relations_in_degree(RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=2), 2).dimension == 0
    assert ring.identify_projective_space(ring.hilbert(line)) == (1, 1)
    _finish(3, "rank-4 Schubert quotients: point and (P^1, O(1))", t0, 5)


def test_criterion_4_rank8_largest_member():
    t0 = time.time()
    spec = RingSpec("omega_n", 8, W6, max_degree=4)

    basis1 = tableau.enumerate_basis_omega_n(8, W6, 1)
    assert len(basis1) == 6
    assert sorted(t.rows for t in basis1) == sorted(X[i].rows for i in range(1, 7))

    basis2 = tableau.enumerate_basis_omega_n(8, W6, 2)
    index2 = {t.rows: i for i, t in enumerate(basis2)}
    from smtorus.linalg import Span

    span = Span(len(basis2))
    for a, b in combinations_with_replacement(range(1, 7), 2):
        exp = expand_product([X[a], X[b]], w=W6)
        vec = [Fraction(0)] * len(basis2)
        for rows, c in exp.items():
            vec[index2[rows]] = c
        span.add(vec)
    outside = []
    for t in basis2:
        vec = [Fraction(0)] * len(basis2)
        vec[index2[t.rows]] = Fraction(1)
        if not span.contains(vec):
            outside.append(t.rows)
    assert sorted(outside) == sorted(Y[j].rows for j in range(1, 5))

    rel = ring.relations_in_degree(spec, 2)
    assert rel.dimension == 3
    gen_rows = {t.rows: i for i, (_, t) in enumerate(rel.generators)}

    def vec_of(terms):
        v = [Fraction(0)] * len(rel.products)
        for coeff, factors in terms:
            ms = tuple(sorted(gen_rows[f.rows] for f in factors))
            v[rel.products.index(ms)] += coeff
        return v

    printed = [
        [(1, (X[4], X[5])), (-1, (X[3], X[6])), (1, (Y[2],)), (-1, (Y[1],))],
        [(1, (X[2], X[5])), (-1, (X[1], X[6])), (1, (Y[3],)), (-1, (Y[1],))],
        [(1, (X[2], X[3])), (-1, (X[1], X[4])), (1, (Y[4],)), (-1, (Y[1],))],
    ]
    assert all(rel.contains(vec_of(t)) for t in printed)
    # the degree-3 product identities, with the printed signs
    assert expand_product([X[2], Y[1]], w=W6) == {Z[1].rows: Fraction(1)}
    assert expand_product([X[2], Y[2]], w=W6) == {Z[2].rows: Fraction(1)}

    gen1 = ring.check_generation(spec, 1)
    assert not gen1.generated and gen1.per_degree[2][3] is False
    gen2 = ring.check_generation(spec, 2)
    assert gen2.generated
    _finish(4, "rank-8 largest member: bases, relations, generation in degree 2", t0, 120)


def test_criterion_5_rank8_quotient_identifications():
    t0 = time.time()
    targets = {1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (3, 2), 5: (2, 2)}
    for i in range(1, 6):
        spec = RingSpec("omega_n", 8, families.family_index(i, 2), max_degree=6)
        hev = ring.hilbert_even(spec, 3)
        m, e = targets[i]
        assert hev == ring.veronese_hilbert(m, e if m else 1, 3), (i, hev)
        assert ring.identify_projective_space(hev) == (m, e)
    _finish(5, "rank-8 members 1..5: point, (P^1,O(2)) x2, (P^3,O(2)), (P^2,O(2))", t0, 120)


def test_criterion_6_diamond_lemma_certificates():
    t0 = time.time()
    p1, p2, p3 = veronese_p1_system(), veronese_p2_system(), veronese_p3_system()
    for sys_ in (p1, p2, p3):
        assert check_confluence(sys_).confluent
    assert overlaps(p2) == sorted(
        [(0, 1, 2), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (1, 2, 3), (1, 2, 4)]
    )
    rep = check_confluence(p2)
    ways = dict(rep.resolutions)[(0, 1, 2)]
    assert {tuple(trace) for _, trace, _ in ways} == {
        ((0, 1, 2), (2, 3, 3), (3, 4, 5)),
        ((0, 1, 2), (1, 4, 4), (3, 4, 5)),
        ((0, 1, 2), (0, 5, 5), (3, 4, 5)),
    }
    ways3 = dict(check_confluence(p3).resolutions)[(0, 1, 2)]
    assert {tuple(trace) for _, trace, _ in ways3} == {
        ((0, 1, 2), (2, 4, 4), (4, 5, 7)),
        ((0, 1, 2), (1, 5, 5), (4, 5, 7)),
        ((0, 1, 2), (0, 7, 7), (4, 5, 7)),
    }
    assert len(overlaps(p3)) == 54
    for sys_, (m, e) in ((p1, (1, 2)), (p2, (2, 2)), (p3, (3, 2))):
        counts = [normal_form_count(sys_, k, assume_confluent=True) for k in range(5)]
        assert counts == ring.veronese_hilbert(m, e, 4)
    _finish(6, "diamond-lemma certificates for the three quotient presentations", t0, 30)


def test_criterion_7_first_node_families():
    t0 = time.time()
    for n in range(4, 9):
        spec = RingSpec("omega_1", n, None, "D", max_degree=4)
        assert ring.hilbert(spec) == ring.veronese_hilbert(n - 2, 1, 4)
        assert ring.check_generation(spec, 1).generated
    for n in range(2, 9):
        spec = RingSpec("omega_1", n, None, "C", max_degree=4)
        assert ring.hilbert(spec) == ring.veronese_hilbert(n - 1, 1, 4)
        assert ring.check_generation(spec, 1).generated
    _finish(7, "first-node families: degree-1 generation and projective-space Hilbert", t0, 30)


def test_criterion_8_property_suite():
    t0 = time.time()
    rng = Random(20260809)

    # squared Pfaffians equal determinants, 20 trials per size
    for n in range(2, 9):
        for _ in range(20):
            pt = random_skew_point(n, rng)
            pf = pfaffian(pt)
            assert pf * pf == skew_determinant(pt)

    # exchange sums vanish: 50 random odd-set pairs, 20 points each
    for _ in range(50):
        n = rng.randint(2, 8)
        sizes = [k for k in range(1, n + 1, 2)]
        i_set = tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
        j_set = tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
        rel = exchange_relation(i_set, j_set)
        for _ in range(20):
            assert evaluate_relation(rel, random_skew_point(n, rng, 1, 10**4)) == 0

    # path agreement: every quadratic product at rank 4
    reps4 = weyl.minimal_coset_reps_alpha_n(4)
    for b1, b2 in combinations_with_replacement(reps4, 2):
        assert expand_by_interpolation((b1, b2), 4, seed=0) == straighten_rows((b1, b2), 4)

    # ...and every product that `reproduce spin8` expands: degrees 1-4 of the
    # degree-1 basis on each of its three Schubert varieties (52 products)
    spin8_products = 0
    for w in (families.SPIN8_TOP, families.SPIN8_W1, families.SPIN8_W2):
        basis1 = tableau.enumerate_basis_omega_n(4, w, 1)
        for k in range(1, 5):
            for factors in combinations_with_replacement(basis1, k):
                rows = tuple(r for t in factors for r in t.rows)
                assert expand_by_interpolation(rows, 4, seed=0, w=w) == expand_product(factors, w=w)
                spin8_products += 1
    assert spin8_products == 52

    # path agreement: every quadratic product of the degree-1 basis, interpolated
    # on X(W6) itself (22 restricted standard monomials per product)
    for i, j in combinations_with_replacement(range(1, 7), 2):
        rows = X[i].rows + X[j].rows
        assert expand_by_interpolation(rows, 8, seed=0, w=W6) == straighten_rows(rows, 8, w=W6)

    # ...and one of them on the whole space (the 1162-monomial class), then restricted
    rows = X[2].rows + X[5].rows
    full = expand_by_interpolation(rows, 8, seed=0)
    assert len(full) > 3
    restricted = straighten_rows(rows, 8, w=W6)
    assert len(restricted) == 3
    assert restrict_expansion(full, W6) == expand_by_interpolation(rows, 8, seed=0, w=W6)
    assert restrict_expansion(full, W6) == restricted

    # path agreement at ranks 12 and 16, where the full-space class is too large
    # to interpolate
    for m in (3, 4):
        w6 = families.family_index(6, m)
        xm = {i: families.x_tableau(i, m) for i in range(1, 7)}
        for i, j in combinations_with_replacement(range(1, 7), 2):
            rows = xm[i].rows + xm[j].rows
            assert expand_by_interpolation(rows, 4 * m, seed=0, w=w6) == straighten_rows(
                rows, 4 * m, w=w6
            )

    # dual-pair dictionaries round-trip exhaustively through rank 4
    for n in (2, 3, 4):
        for r in range(0, n + 1, 2):
            for bset in combinations(range(1, n + 1), r):
                iv = index_from_bset(bset, n)
                aset, bset2 = dual_pair(iv, n)
                assert aset == bset2 == tuple(bset)
        for iv in weyl.minimal_coset_reps_alpha_n(n):
            assert index_from_bset(dual_pair(iv, n)[1], n) == iv

    # evaluation soundness of a sample of rank-8 straightenings, 20 points each
    pairs = list(combinations(weyl.minimal_coset_reps_alpha_n(8), 2))
    sample = Random(7).sample(pairs, 10)
    for b1, b2 in sample:
        exp = straighten_rows((b1, b2), 8)
        for _ in range(20):
            pt = random_skew_point(8, rng, 1, 999983)
            assert evaluate_rows((b1, b2), pt) == evaluate_expansion(exp, pt)

    print(
        "note: general-rank family statements are exercised at rank 8 (the smallest "
        "family parameter); larger ranks are covered by this property suite"
    )
    _finish(8, "property suite: Pfaffian identities, path agreement, round trips", t0, 30)
