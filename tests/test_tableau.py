from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtorus import families, tableau, weyl
from smtorus.tableau import (
    column_tableau,
    enumerate_basis_omega_1,
    enumerate_basis_omega_n,
    find_factor,
    grid_tableau,
    is_shape_standard,
    is_standard,
    is_t_invariant,
    parse_tableau,
    format_tableau,
    schubert_chain_count,
    schubert_chains,
    standard_chains,
    tableau_from_json,
    tableau_to_json,
    weight,
)

G1, G2, G3 = families.SPIN8_DEG1_ROWS


def test_is_standard_examples():
    assert is_standard(grid_tableau(4, G1))
    assert not is_standard(grid_tableau(4, families.SPIN8_NONSTANDARD_PAIR))
    assert is_standard(grid_tableau(4, [(1, 2, 3, 4)]))


def test_is_standard_rejects_ragged():
    with pytest.raises(tableau.MalformedShapeError):
        is_standard(grid_tableau(4, [(1, 2, 3, 4), (5, 6, 7)]))


def test_weight_examples():
    assert weight(grid_tableau(4, G1)) == (0, 0, 0, 0)
    assert weight(grid_tableau(4, [(1, 2, 3, 4)])) == tuple([Fraction(1, 2)] * 4)
    assert weight(column_tableau(4, (2, 2, 7, 7))) == (0, 0, 0, 0)


def test_weight_rejects_out_of_range():
    with pytest.raises(tableau.EntryOutOfRangeError):
        weight(grid_tableau(4, [(1, 2, 3, 9)]))


def test_t_invariance_examples():
    assert is_t_invariant(grid_tableau(4, G2))
    assert not is_t_invariant(grid_tableau(4, [(1, 2, 3, 4)]))
    assert is_t_invariant(families.x_tableau(1, 2))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(weyl.minimal_coset_reps_alpha_n(4)), min_size=1, max_size=5))
def test_zero_weight_iff_invariant(rows):
    t = grid_tableau(4, rows)
    assert (weight(t) == (0, 0, 0, 0)) == is_t_invariant(t)


def test_enumerate_omega_n_full_space_degree1():
    tabs = enumerate_basis_omega_n(4, (5, 6, 7, 8), 1)
    assert [t.rows for t in tabs] == [G1, G2, G3]


def test_enumerate_omega_n_degree1_on_smaller_indices():
    assert [t.rows for t in enumerate_basis_omega_n(4, (2, 4, 6, 8), 1)] == [G3]
    assert [t.rows for t in enumerate_basis_omega_n(4, (3, 4, 7, 8), 1)] == [G2, G3]


def test_enumerate_omega_n_degree2_count():
    assert len(enumerate_basis_omega_n(4, (5, 6, 7, 8), 2)) == 6


def test_enumerate_omega_n_validity_of_output():
    for k in (1, 2, 3):
        for t in enumerate_basis_omega_n(4, (5, 6, 7, 8), k):
            assert is_shape_standard(t) and is_t_invariant(t)
            for row in t.rows:
                assert row in weyl.minimal_coset_reps_alpha_n(4)
                assert weyl.bruhat_leq(row, (5, 6, 7, 8))


def test_enumerate_omega_n_rejects_bad_index():
    with pytest.raises(tableau.InvalidSchubertIndexError):
        enumerate_basis_omega_n(4, (1, 2, 3, 5), 1)


def test_counts_monotone_along_family_lattice():
    """Counts never decrease going up the six-member lattice at rank 8."""
    order = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)]
    dims = {}
    for i in range(1, 7):
        w = families.family_index(i, 2)
        dims[i] = [
            schubert_chain_count(8, 2 * k, {v: k for v in range(1, 17)}, w)
            for k in (1, 2, 3)
        ]
    for lo, hi in order:
        assert all(a <= b for a, b in zip(dims[lo], dims[hi])), (lo, hi)


def _uniform(n, k):
    return {v: k for v in range(1, 2 * n + 1)}


def _brute_force_chains(n, w, num_rows, content):
    """Chains below w with the given content, by checking every row multiset.

    Multisets are grown in lex order and cut off only when they overshoot the
    content; standardness is checked on each finished multiset.
    """
    allowed = sorted(r for r in weyl.minimal_coset_reps_alpha_n(n) if weyl.bruhat_leq(r, w))
    left = {v: content.get(v, 0) for v in range(1, 2 * n + 1)}
    out = []

    def go(start, rows):
        if len(rows) == num_rows:
            if not any(left.values()) and is_standard(grid_tableau(n, rows)):
                out.append(tuple(rows))
            return
        for i in range(start, len(allowed)):
            row = allowed[i]
            if all(left[v] for v in row):
                for v in row:
                    left[v] -= 1
                go(i, rows + [row])
                for v in row:
                    left[v] += 1

    go(0, [])
    return sorted(out)


def test_profile_count_matches_enumeration():
    """Counting, listing and brute force agree on every rank-4 index."""
    for w in weyl.minimal_coset_reps_alpha_n(4):
        for k in (1, 2, 3):
            listed = standard_chains(4, 2 * k, _uniform(4, k), w)
            assert listed == _brute_force_chains(4, w, 2 * k, _uniform(4, k)), (w, k)
            assert schubert_chain_count(4, 2 * k, _uniform(4, k), w) == len(listed)


def test_count_matches_listing_ranks_3_to_7():
    cases = 0
    for n in range(3, 8):
        for w in weyl.minimal_coset_reps_alpha_n(n):
            for k in (1, 2) if n == 7 else (1, 2, 3):
                content = _uniform(n, k)
                assert schubert_chain_count(n, 2 * k, content, w) == len(
                    schubert_chains(n, 2 * k, content, w)
                ), (n, w, k)
                cases += 1
    assert cases == 308


def test_count_matches_listing_on_rank8_family():
    for i in range(1, 7):
        w = families.family_index(i, 2)
        for k in (1, 2, 3, 4):
            content = _uniform(8, k)
            assert schubert_chain_count(8, 2 * k, content, w) == len(
                schubert_chains(8, 2 * k, content, w)
            ), (i, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(weyl.minimal_coset_reps_alpha_n(5)), min_size=1, max_size=5),
    st.sampled_from(weyl.minimal_coset_reps_alpha_n(5)),
)
def test_count_matches_listing_for_any_content(rows, w):
    content = {v: 0 for v in range(1, 11)}
    for row in rows:
        for v in row:
            content[v] += 1
    listed = schubert_chains(5, len(rows), content, w)
    assert listed == _brute_force_chains(5, w, len(rows), content)
    assert schubert_chain_count(5, len(rows), content, w) == len(listed)


def test_count_matches_listing_below_any_sign_vector():
    """Bounds from vectors with an odd number of negations reach the last step."""
    from itertools import product

    for signs in product((False, True), repeat=5):
        w = tuple(sorted(11 - t if neg else t for t, neg in zip(range(1, 6), signs)))
        for k in (1, 2):
            content = _uniform(5, k)
            assert schubert_chain_count(5, 2 * k, content, w) == len(
                schubert_chains(5, 2 * k, content, w)
            ), (w, k)


def test_count_without_rows():
    assert schubert_chain_count(4, 0, {}, (5, 6, 7, 8)) == 1
    assert schubert_chain_count(4, 0, {1: 1}, (5, 6, 7, 8)) == 0
    assert schubert_chain_count(4, 2, {1: 2}, (5, 6, 7, 8)) == 0


def _basis_rows(n, w, k):
    return [t.rows for t in enumerate_basis_omega_n(n, w, k)]


def test_brute_force_hilbert_oracle_rank4():
    """Brute force over row multisets agrees with the enumerator."""
    for w in ((5, 6, 7, 8), (3, 4, 7, 8), (2, 4, 6, 8)):
        for k in (1, 2, 3):
            assert _basis_rows(4, w, k) == _brute_force_chains(4, w, 2 * k, _uniform(4, k))


def test_brute_force_hilbert_oracle_rank5():
    for w in weyl.minimal_coset_reps_alpha_n(5):
        for k in (1, 2):
            brute = _brute_force_chains(5, w, 2 * k, _uniform(5, k))
            assert brute == _basis_rows(5, w, k), (w, k)
            assert len(brute) == schubert_chain_count(5, 2 * k, _uniform(5, k), w), (w, k)


@pytest.mark.parametrize(
    "w",
    [(2, 4, 7, 8, 10, 12), (2, 6, 8, 9, 10, 12), (3, 6, 8, 9, 11, 12), (4, 6, 8, 10, 11, 12)],
)
def test_brute_force_hilbert_oracle_rank6(w):
    for k in (1, 2):
        brute = _brute_force_chains(6, w, 2 * k, _uniform(6, k))
        assert brute == _basis_rows(6, w, k)
        assert len(brute) == schubert_chain_count(6, 2 * k, _uniform(6, k), w)


def test_w6_basis_at_rank8_degree8():
    """The largest family member's degree-8 basis: 1,897 valid, distinct chains."""
    w = families.family_index(6, 2)
    chains = schubert_chains(8, 16, _uniform(8, 8), w)
    assert len(chains) == len(set(chains)) == 1897
    assert chains == sorted(chains)
    for chain in chains:
        t = grid_tableau(8, chain)
        assert is_shape_standard(t) and is_t_invariant(t)
    assert all(weyl.bruhat_leq(row, w) for row in {row for chain in chains for row in chain})


def test_enumerate_omega_1_examples():
    d = enumerate_basis_omega_1("D", 4, 1)
    assert [t.entries for t in d] == [(1, 1, 8, 8), (2, 2, 7, 7), (3, 3, 6, 6)]
    c = enumerate_basis_omega_1("C", 2, 1)
    assert [t.entries for t in c] == [(1, 1, 4, 4), (2, 2, 3, 3)]
    assert len(enumerate_basis_omega_1("D", 4, 2)) == 6


def test_enumerate_omega_1_validity():
    for gt, n in (("D", 5), ("C", 3)):
        for t in enumerate_basis_omega_1(gt, n, 2):
            assert is_shape_standard(t) and is_t_invariant(t)


def test_omega_1_type_d_excludes_middle_values():
    t = column_tableau(4, (4, 4, 5, 5), "D")
    assert not is_shape_standard(t)
    assert is_shape_standard(column_tableau(4, (4, 4, 5, 5), "C"))


def test_enumerate_omega_1_rank_guard():
    with pytest.raises(tableau.UnsupportedRankError):
        enumerate_basis_omega_1("D", 3, 1)
    with pytest.raises(tableau.UnsupportedRankError):
        enumerate_basis_omega_1("C", 1, 1)


def test_find_factor_degree2_always_splits_at_rank4():
    for t in enumerate_basis_omega_n(4, (5, 6, 7, 8), 2):
        got = find_factor(t, 1)
        assert got is not None
        part, rest = got
        assert is_shape_standard(part) and is_t_invariant(part)
        assert is_shape_standard(rest) and is_t_invariant(rest)
        assert sorted(part.rows + rest.rows) == sorted(t.rows)


def test_find_factor_trivial_split():
    t = grid_tableau(4, G1)
    part, rest = find_factor(t, 1)
    assert part == t and rest.rows == ()


def test_find_factor_none_for_y_tableaux():
    for j in range(1, 5):
        assert find_factor(families.y_tableau(j, 2), 1) is None


def test_find_factor_none_for_z_tableaux():
    for l in (1, 2):
        assert find_factor(families.z_tableau(l, 2), 2) is None


def test_find_factor_omega_1():
    t = column_tableau(4, (1, 1, 2, 2, 7, 7, 8, 8))
    part, rest = find_factor(t, 1)
    assert part.entries == (1, 1, 8, 8)
    assert rest.entries == (2, 2, 7, 7)


def test_text_roundtrip():
    t = grid_tableau(4, G2)
    text = format_tableau(t)
    assert text.splitlines()[0] == "n=4 k=1 shape=omega_n"
    assert parse_tableau(text) == t


def test_text_header_mismatch():
    bad = "n=4 k=2 shape=omega_n\n1,2,3,4\n5,6,7,8"
    with pytest.raises(tableau.MalformedShapeError):
        parse_tableau(bad)


def test_json_roundtrip():
    for t in (grid_tableau(4, G3), column_tableau(3, (1, 1, 6, 6), "C")):
        assert tableau_from_json(tableau_to_json(t)) == t


def test_family_tableaux_are_valid_at_higher_rank():
    for i in range(1, 7):
        t = families.x_tableau(i, 3)
        assert is_shape_standard(t) and is_t_invariant(t)
    for j in range(1, 5):
        t = families.y_tableau(j, 3)
        assert is_shape_standard(t) and is_t_invariant(t)
    for l in (1, 2):
        t = families.z_tableau(l, 3)
        assert is_shape_standard(t) and is_t_invariant(t)


def test_family_words_match_indices_at_n3():
    for i in range(1, 7):
        el = weyl.word_to_one_line(families.family_word(i, 3), "D", 12)
        assert el.one_line[:12] == families.family_index(i, 3)


def test_find_factor_union_property_omega_1():
    for t in enumerate_basis_omega_1("C", 3, 3):
        got = find_factor(t, 1)
        assert got is not None  # single columns always split off a pair block
        part, rest = got
        assert sorted(part.entries + rest.entries) == sorted(t.entries)
