from fractions import Fraction

import pytest

from smtorus import families, ring, tableau
from smtorus.ring import (
    AmbiguousMatchError,
    RingSpec,
    basis,
    check_generation,
    check_generation_chain,
    dim_graded_piece,
    has_semistable,
    hilbert,
    hilbert_even,
    identify_projective_space,
    new_generators,
    relations_in_degree,
    veronese_hilbert,
)
from smtorus.straighten import BasisMismatchError

FULL4 = RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=4)


def test_hilbert_full_rank4():
    assert hilbert(RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=3)) == [1, 3, 6, 10]


def test_hilbert_point_and_line():
    assert hilbert(RingSpec("omega_n", 4, (2, 4, 6, 8), max_degree=5)) == [1] * 6
    assert hilbert(RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=3)) == [1, 2, 3, 4]


def test_hilbert_none_w_means_full_space():
    assert hilbert(RingSpec("omega_n", 4, None, max_degree=3)) == [1, 3, 6, 10]


def test_hilbert_omega_1():
    for n in range(4, 9):
        spec = RingSpec("omega_1", n, None, "D", max_degree=4)
        assert hilbert(spec) == veronese_hilbert(n - 2, 1, 4)
    for n in range(2, 9):
        spec = RingSpec("omega_1", n, None, "C", max_degree=4)
        assert hilbert(spec) == veronese_hilbert(n - 1, 1, 4)


def test_generation_full_rank4_degree1():
    rep = check_generation(FULL4, 1)
    assert rep.generated
    assert [r[1] for r in rep.per_degree] == [1, 3, 6, 10, 15]
    assert all(r[1] == r[2] for r in rep.per_degree)


def test_generation_with_max_degree_generators_is_trivially_surjective():
    spec = RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=3)
    assert check_generation(spec, 3).generated


def test_generation_monotone_in_max_degree():
    for K in (2, 3, 4):
        spec = RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=K)
        assert check_generation(spec, 1).generated


def test_generation_omega_1_degree1():
    for gt, n in (("D", 5), ("C", 3)):
        spec = RingSpec("omega_1", n, None, gt, max_degree=4)
        assert check_generation(spec, 1).generated


def test_generation_with_explicit_generators():
    # only the two degree-1 elements on the line: still generates
    spec = RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=3)
    gens = basis(spec, 1)
    assert check_generation(spec, 1, generators=gens).generated
    # a single generator does not generate the line's ring
    assert not check_generation(spec, 1, generators=gens[:1]).generated


def test_relations_zero_at_rank4():
    assert relations_in_degree(FULL4, 2).dimension == 0
    assert relations_in_degree(RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=2), 2).dimension == 0


def test_relations_rejects_degree_one():
    with pytest.raises(ring.RingError):
        relations_in_degree(FULL4, 1)


def test_new_generators_rank4_stop_at_degree1():
    gens = new_generators(FULL4, 3)
    assert [d for d, _ in gens] == [1, 1, 1]


def test_new_generators_w6_include_the_four_extra_tableaux():
    spec = RingSpec("omega_n", 8, families.family_index(6, 2), max_degree=2)
    gens = new_generators(spec, 2)
    got = sorted(t.rows for d, t in gens if d == 2)
    assert got == sorted(families.y_tableau(j, 2).rows for j in range(1, 5))


def test_veronese_values():
    assert veronese_hilbert(2, 1, 3) == [1, 3, 6, 10]
    assert veronese_hilbert(1, 2, 3) == [1, 3, 5, 7]
    assert veronese_hilbert(3, 2, 2) == [1, 10, 35]
    assert veronese_hilbert(2, 2, 3) == [1, 6, 15, 28]


def test_identify_examples():
    assert identify_projective_space((1, 3, 6, 10)) == (2, 1)
    assert identify_projective_space((1, 6, 15, 28)) == (2, 2)
    assert identify_projective_space((1, 2, 3, 4)) == (1, 1)
    assert identify_projective_space((1, 1, 1, 1)) == (0, 1)
    assert identify_projective_space((1, 5, 17, 500)) is None


def test_identify_matches_veronese_inverse():
    for m in range(0, 5):
        for e in range(1, 4):
            h = veronese_hilbert(m, e, 3)
            got = identify_projective_space(h)
            assert got == ((m, e) if m else (0, 1))


def test_identify_requires_enough_degrees():
    with pytest.raises(AmbiguousMatchError):
        identify_projective_space((1, 3, 6))


def test_semistable_full_space():
    rep = has_semistable(FULL4)
    assert rep.first_invariant_degree == 1
    assert rep.weight_nonpositive is True


def test_semistable_family_members_rank8():
    for i in range(1, 7):
        spec = RingSpec("omega_n", 8, families.family_index(i, 2), max_degree=2)
        rep = has_semistable(spec)
        assert rep.first_invariant_degree == 1
        assert rep.weight_nonpositive is True


def test_semistable_absent_on_bottom_cell():
    spec = RingSpec("omega_n", 4, (1, 2, 3, 4), max_degree=6)
    rep = has_semistable(spec)
    assert rep.first_invariant_degree is None
    assert rep.weight_nonpositive is False


def test_semistable_omega_1_has_no_weight_verdict():
    rep = has_semistable(RingSpec("omega_1", 4, None, "D", max_degree=3))
    assert rep.first_invariant_degree == 1
    assert rep.weight_nonpositive is None


def test_hilbert_even_grading():
    spec = RingSpec("omega_n", 4, (3, 4, 7, 8))
    assert hilbert_even(spec, 3) == [1, 3, 5, 7]


def test_dim_matches_enumeration_rank4():
    for w in ((5, 6, 7, 8), (3, 4, 7, 8), (2, 4, 6, 8), (1, 4, 6, 7)):
        spec = RingSpec("omega_n", 4, w)
        for k in (1, 2, 3):
            assert dim_graded_piece(spec, k) == len(basis(spec, k))


def test_memoized_bases_match_fresh_listing(monkeypatch):
    """Each piece is listed once, whatever max_degree, and every caller gets its own list."""
    listed = []

    def spy(n, w, k):
        listed.append((n, w, k))
        return tableau.enumerate_basis_omega_n(n, w, k)

    monkeypatch.setattr(ring, "_BASIS_MEMO", {})
    monkeypatch.setattr(ring, "enumerate_basis_omega_n", spy)
    w6 = families.family_index(6, 2)
    for k in range(1, 5):
        basis(RingSpec("omega_n", 8, w6, max_degree=2), k).clear()
        assert basis(RingSpec("omega_n", 8, w6, max_degree=4), k) == (
            tableau.enumerate_basis_omega_n(8, w6, k)
        )
    # None and the top index name the same piece
    assert basis(RingSpec("omega_n", 4, None), 2) == basis(FULL4, 2)
    assert listed == [(8, w6, k) for k in range(1, 5)] + [(4, (5, 6, 7, 8), 2)]


def test_generation_by_minimal_set_on_largest_member():
    from smtorus import families

    spec = RingSpec("omega_n", 8, families.family_index(6, 2), max_degree=4)
    gens = [families.x_tableau(i, 2) for i in range(1, 7)] + [families.y_tableau(1, 2)]
    assert check_generation(spec, 2, generators=gens).generated
    # dropping Y_1 reproduces the degree-2 failure
    assert not check_generation(spec, 2, generators=gens[:6]).generated


SPEC6 = RingSpec("omega_n", 8, families.family_index(6, 2), max_degree=4)


def _dense_rank(rows):
    """Rank of dense rows by Fraction elimination, sharing no code with linalg.Span.

    Each row is reduced by the echelon rows found so far, column by column; a
    rank equal to the width cannot grow, so the remaining rows are skipped.
    """
    width = len(rows[0]) if rows else 0
    echelon = {}  # leading column -> row, 1 there and 0 before it
    for row in rows:
        if len(echelon) == width:
            break
        v = [Fraction(x) for x in row]
        for j in range(width):
            if v[j] and j in echelon:
                c = v[j]
                v = [x - c * y for x, y in zip(v, echelon[j])]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            echelon[lead] = [x / v[lead] for x in v]
    return len(echelon)


def _span_per_degree(spec, gens):
    """check_generation's rows, ranked by dense elimination of every product."""
    degrees = [t.degree for t in gens]
    rows = []
    for k in range(spec.max_degree + 1):
        bas = basis(spec, k)
        index = {t.rows: i for i, t in enumerate(bas)}
        products = [
            ring._coordinates(ring._expand([gens[j] for j in ms], spec), index)
            for ms in ring._degree_multisets(degrees, k)
        ]
        rank = _dense_rank(products)
        rows.append((k, len(bas), rank, rank == len(bas)))
    return tuple(rows)


def test_generation_ranks_dependent_products_exactly():
    """Repeated generators give dependent rows, fewer than the basis."""
    x1, x2 = families.x_tableau(1, 2), families.x_tableau(2, 2)
    gens = [x1, x1, x2]
    rep = check_generation(SPEC6, 1, generators=gens)
    assert rep.per_degree == _span_per_degree(SPEC6, gens)
    assert not rep.generated


def test_generation_ranks_on_the_largest_member_match_exact_elimination():
    for max_gen_degree in (1, 2):
        gens = [t for d in range(1, max_gen_degree + 1) for t in basis(SPEC6, d)]
        rep = check_generation(SPEC6, max_gen_degree)
        assert rep.per_degree == _span_per_degree(SPEC6, gens)


W6_RANK12 = RingSpec("omega_n", 12, families.family_index(6, 3), max_degree=4)


@pytest.mark.parametrize("spec", [SPEC6, W6_RANK12], ids=["rank8", "rank12"])
def test_generation_chain_matches_exact_elimination_set_by_set(spec):
    basis1, basis2 = basis(spec, 1), basis(spec, 2)
    n = spec.n // 4
    sets = [basis1, basis1 + [families.y_tableau(1, n)], basis1 + basis2]
    reports = check_generation_chain(spec, sets)
    assert [rep.per_degree for rep in reports] == [_span_per_degree(spec, gens) for gens in sets]
    assert [rep.generated for rep in reports] == [False, True, True]


def test_generation_chain_refuses_sets_that_are_not_nested():
    basis1, basis2 = basis(SPEC6, 1), basis(SPEC6, 2)
    with pytest.raises(ring.RingError):
        check_generation_chain(SPEC6, [basis2, basis1])
    x1 = families.x_tableau(1, 2)
    # a multiset: one copy of x1 does not contain two
    with pytest.raises(ring.RingError):
        check_generation_chain(SPEC6, [[x1, x1], [x1] + basis2])


def test_generation_chain_ranks_repeated_generators_exactly():
    x1, x2 = families.x_tableau(1, 2), families.x_tableau(2, 2)
    sets = [[x1], [x1, x1], [x1, x1, x2]]
    reports = check_generation_chain(SPEC6, sets)
    assert [rep.per_degree for rep in reports] == [_span_per_degree(SPEC6, gens) for gens in sets]


def test_generation_chain_checks_every_product_once_the_span_is_full(monkeypatch):
    """Rows past a full span are not reduced, but each is still expanded and checked."""
    expanded = []
    real = ring._expand

    def spy(factors, spec):
        expanded.append(tuple(t.rows for t in factors))
        if len(expanded) == 4:
            return {((1, 2, 3, 4),): Fraction(1)}  # one row: no degree-1 basis tableau
        return real(factors, spec)

    monkeypatch.setattr(ring, "_expand", spy)
    spec = RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=1)
    # the empty product, then the two line generators fill the 2-dimensional
    # degree-1 piece; the last product, of the repeated generator, comes after
    gens = basis(spec, 1)
    with pytest.raises(BasisMismatchError):
        check_generation_chain(spec, [gens, gens + gens[:1]])
    assert expanded[-1] == (gens[0].rows,)
