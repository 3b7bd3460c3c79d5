import operator
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtorus import linalg
from smtorus.linalg import (
    PRIMES,
    Span,
    frac_det,
    integer_solution,
    inverse_mod,
    kernel_of_columns,
    matvec_mod,
    products_mod,
)

B = linalg._BLOCK
# a prime whose square already breaks the float64 bound of 2^53
WIDE = (1 << 31) - 1


def test_matvec_mod_refuses_wide_primes():
    with pytest.raises(OverflowError):
        matvec_mod(np.ones((1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), WIDE)


def test_mod_inverse_refuses_wide_primes():
    with pytest.raises(OverflowError):
        inverse_mod(np.ones((1, 1), dtype=np.int64), WIDE)


def test_mod_inverse_refuses_primes_too_wide_for_a_block():
    p = 16777213  # below 2^24: one product is exact, a block's sum is not
    assert 1 <= linalg._chunk(p) < B
    with pytest.raises(OverflowError):
        inverse_mod(np.ones((1, 1), dtype=np.int64), p)


def test_integer_solution_refuses_an_int64_overflow():
    """x = 4 fails 2^62 x = 0, but the int64 product 2^64 would wrap to 0."""
    equations = [{0: 1, 1: -4}, {0: 1 << 62}]
    with pytest.raises(OverflowError):
        integer_solution(equations, 1, 2)


def test_products_mod_refuses_wide_primes():
    with pytest.raises(OverflowError):
        products_mod(np.ones((1, 1), dtype=np.int64), np.zeros((1, 2), dtype=np.int64), (1 << 32) + 15)


@pytest.mark.parametrize("columns", [1, 2048, 2049, 6000])
@pytest.mark.parametrize("p", PRIMES)
def test_matvec_mod_is_exact_at_the_largest_residues(p, columns):
    """Every product is (p-1)^2, the worst case for a chunk's float64 sum."""
    mat = np.full((2, columns), p - 1, dtype=np.int64)
    mat[1, ::3] = 1
    vec = np.full(columns, p - 1, dtype=np.int64)
    expected = [sum(int(a) * int(b) for a, b in zip(row, vec)) % p for row in mat]
    assert matvec_mod(mat, vec, p).tolist() == expected


@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("p", PRIMES)
def test_inverse_mod_times_matrix_is_identity(p, size):
    """M * inverse_mod(M) == I, multiplied out in Python ints."""
    rng = np.random.default_rng(size)
    mat = rng.integers(0, p, size=(size, size))
    # a zero corner makes the first panel take its pivots from lower rows
    mat[: size // 2, : size // 2] = 0
    inv = inverse_mod(mat, p)
    assert inv is not None and inv.dtype == np.int64
    assert 0 <= inv.min() and inv.max() < p
    product = (mat.astype(object) @ inv.astype(object)) % p
    assert (product == np.eye(size, dtype=np.int64)).all()


def test_inverse_mod_finds_a_repeated_column_in_the_second_panel():
    p = PRIMES[0]
    mat = np.random.default_rng(0).integers(0, p, size=(2 * B + 1, 2 * B + 1))
    mat[:, B + 7] = mat[:, B + 3]
    assert inverse_mod(mat, p) is None


def _sign(perm):
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def _leibniz(matrix):
    """Determinant as the sum over permutations, with no elimination."""
    m = len(matrix)
    total = 0
    for perm in permutations(range(m)):
        term = _sign(perm)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def _rank(matrix):
    """Size of the largest square submatrix with a nonzero Leibniz determinant."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if _leibniz([[matrix[r][c] for c in cs] for r in rs]):
                    return size
    return 0


ENTRY = st.integers(-5, 5)


def square_matrices():
    return st.integers(0, 4).flatmap(
        lambda m: st.lists(st.lists(ENTRY, min_size=m, max_size=m), min_size=m, max_size=m)
    )


def rect_matrices():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(ENTRY, min_size=shape[0], max_size=shape[0]),
            min_size=shape[1],
            max_size=shape[1],
        )
    )


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_frac_det_matches_leibniz(matrix):
    assert frac_det(matrix) == _leibniz(matrix)


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_kernel_of_columns_annihilates_and_has_full_size(vectors):
    kernel = kernel_of_columns(vectors)
    length = len(vectors[0])
    for c in kernel:
        assert all(sum(c[i] * v[j] for i, v in enumerate(vectors)) == 0 for j in range(length))
    rows = [[v[j] for v in vectors] for j in range(length)]
    assert len(kernel) == len(vectors) - _rank(rows)
    assert _rank(kernel) == len(kernel)


@settings(max_examples=200, deadline=None)
@given(square_matrices().filter(len))
def test_inverse_mod_is_none_exactly_when_leibniz_vanishes_mod_p(matrix):
    p = 101
    inv = inverse_mod(np.array(matrix, dtype=np.int64), p)
    assert (inv is None) == (_leibniz(matrix) % p == 0)
    if inv is not None:
        m = len(matrix)
        product = (np.array(matrix, dtype=object) @ inv.astype(object)) % p
        assert (product == np.eye(m, dtype=np.int64)).all()


P = 7


def _rref_mod(rows, p):
    """Reduced row echelon form mod p of integer rows, by plain row operations."""
    rows = [[x % p for x in row] for row in rows]
    out = []
    for j in range(len(rows[0]) if rows else 0):
        piv = next((row for row in rows if row[j]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[j], -1, p)
        piv = [x * inv % p for x in piv]
        out = [[(x - row[j] * y) % p for x, y in zip(row, piv)] for row in out]
        rows = [[(x - row[j] * y) % p for x, y in zip(row, piv)] for row in rows]
        out.append(piv)
    return out


def _with_copies(drawn):
    """Rows from columns, where 'zero' and 'repeat' become a zero or the previous column."""
    m, columns = drawn
    cols = []
    for col in columns:
        if col == "zero":
            col = [0] * m
        elif col == "repeat":
            col = cols[-1] if cols else [0] * m
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def residue_matrices():
    """(rows, ncols): tall or wide residue matrices mod P, some columns zero or repeated."""
    matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]),
            st.lists(
                st.one_of(
                    st.lists(st.integers(0, P - 1), min_size=shape[0], max_size=shape[0]),
                    st.sampled_from(["zero", "repeat"]),
                ),
                min_size=shape[1],
                max_size=shape[1],
            ),
        ).map(_with_copies)
    )
    return matrices.flatmap(lambda rows: st.tuples(st.just(rows), st.integers(0, len(rows[0]))))


@settings(max_examples=300, deadline=None)
@given(residue_matrices())
def test_pivot_gives_the_rank_and_reduced_rows_of_its_columns(drawn):
    rows, ncols = drawn
    a = np.array(rows, dtype=np.float64)
    swaps = linalg._pivot(a, ncols, P)
    reduced = _rref_mod([row[:ncols] for row in rows], P)
    rank = len(swaps)
    assert rank == len(reduced)
    assert a[:rank, :ncols].tolist() == reduced
    assert not a[rank:, :ncols].any()
    assert ((a >= 0) & (a < P)).all()
    # only row operations: the rows span what they spanned before
    assert len(_rref_mod(rows + a.astype(np.int64).tolist(), P)) == len(_rref_mod(rows, P))
    # the swapped-in rows are independent on the pivoted columns
    order = list(range(len(rows)))
    for r, piv in enumerate(swaps):
        order[r], order[piv] = order[piv], order[r]
    assert len(_rref_mod([rows[i][:ncols] for i in order[:rank]], P)) == rank


def _span_solution(equations, k, width):
    """X with L X + R = 0 by exact elimination of every equation, or None."""
    span = Span(width)
    for equation in equations:
        span.add([equation.get(j, 0) for j in range(width)])
    if sorted(span.pivots) != list(range(k)):
        return None
    return [[-span.pivots[j].get(c, 0) for c in range(k, width)] for j in range(k)]


def integer_systems():
    """(L, X): small coefficients L, and unknowns X with up to six digits."""
    return st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(ENTRY, min_size=shape[0], max_size=shape[0]),
                min_size=shape[0] + shape[2],
                max_size=shape[0] + shape[2],
            ),
            st.lists(
                st.lists(st.integers(-(10**6), 10**6), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
        )
    )


@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_integer_solution_matches_exact_elimination(system):
    lhs, x = system
    k, r = len(x), len(x[0])
    equations = []
    for row in lhs:
        rhs = [-sum(a * x[i][c] for i, a in enumerate(row)) for c in range(r)]
        equations.append({j: a for j, a in enumerate(row + rhs) if a})
    reference = _span_solution(equations, k, k + r)
    got = integer_solution(equations, k, k + r)
    assert (got is None) == (reference is None)
    if got is not None:
        assert got.dtype == np.int64 and got.shape == (k, r)
        assert got.tolist() == reference == x


def test_integer_solution_combines_the_primes_past_half_a_prime():
    """X = 1048580 is above p/2 for every prime: only the combined residues lift to it."""
    assert all(1048580 > p // 2 for p in PRIMES)
    assert integer_solution([{0: 1, 1: -1048580}], 1, 2).tolist() == [[1048580]]
    assert integer_solution([{0: 1, 1: 1048580}], 1, 2).tolist() == [[-1048580]]


def test_integer_solution_without_an_integer_answer_is_none():
    """2 X = 1: the combined lift of 1/2 is too wide to check, and is skipped."""
    assert integer_solution([{0: 2, 1: -1}], 1, 2) is None


def test_integer_solution_widens_past_the_first_3k_equations():
    equations = [{1: 0}] * 3 + [{0: 2, 1: -6}]
    assert integer_solution(equations, 1, 2).tolist() == [[3]]


def test_integer_solution_checks_equations_past_the_first_block():
    """Every equation is checked, not only the pivot rows or the first chunk."""
    equations = [{0: 1, 1: -3}] * (2 * B) + [{0: 1, 1: -4}]
    assert integer_solution(equations, 1, 2) is None
    assert integer_solution(equations[:-1], 1, 2).tolist() == [[3]]


def _dense_rref(rows, length):
    """(pivot columns, reduced rows, determinant) by dense Fraction Gauss-Jordan, with no Span.

    The determinant, meaningful for a square matrix, is the product of the
    pivots with one sign flip per row swap, and 0 once a column has no pivot.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    cols, det = [], Fraction(1)
    for j in range(length):
        r = len(cols)
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][j]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                a[i] = [x - a[i][j] * y for x, y in zip(a[i], a[r])]
        cols.append(j)
    return cols, a[: len(cols)], det


def _dense_kernel(vectors):
    """Kernel of the columns vectors, one vector per free column of the dense RREF."""
    m = len(vectors)
    cols, reduced, _ = _dense_rref(list(zip(*vectors)), m)
    basis = []
    for free in (j for j in range(m) if j not in cols):
        vec = [Fraction(0)] * m
        vec[free] = Fraction(1)
        for col, row in zip(cols, reduced):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def _with_combination(drawn):
    matrix, a, b = drawn
    if not a:
        return matrix
    return matrix + [[a * x + b * y for x, y in zip(matrix[0], matrix[-1])]]


def dependent_matrices():
    """Small integer rows, sometimes followed by a combination of the first and last."""
    return st.tuples(rect_matrices(), st.integers(-2, 2), st.integers(-2, 2)).map(_with_combination)


def many_row_matrices():
    """More than twice as many rows as columns, so that most rows are dependent.

    The rows combine up to three rows of entries in [-5, 5] with coefficients
    in [-1, 1], so the entries stay below 16 in absolute value.
    """
    base = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(ENTRY, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
    return base.flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-1, 1), min_size=len(rows), max_size=len(rows)),
            min_size=2 * len(rows[0]) + 1,
            max_size=3 * len(rows[0]) + 1,
        ).map(lambda coeffs: [[sum(map(operator.mul, cs, col)) for col in zip(*rows)] for cs in coeffs])
    )


def _as_input(row, form):
    """A dense row as Span input: a list, a dict of its nonzeros, or a dict with every zero."""
    if form == "list":
        return list(row)
    if form == "sparse":
        return {j: x for j, x in enumerate(row) if x}
    return {j: Fraction(x) for j, x in enumerate(row)}


INPUT_FORMS = st.sampled_from(["list", "sparse", "dict with zeros"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(dependent_matrices(), many_row_matrices()), st.data())
def test_span_prefix_ranks_and_rows_match_dense_elimination(matrix, data):
    """After each row the sparse Span holds the dense RREF of the prefix, whatever the input form."""
    length = len(matrix[0])
    span = Span(length)
    for b, row in enumerate(matrix, 1):
        before = span.dim
        pivot = span.add(_as_input(row, data.draw(INPUT_FORMS)))
        cols, reduced, _ = _dense_rref(matrix[:b], length)
        assert span.dim == len(cols)
        assert bool(pivot) == (span.dim > before)
        assert span.pivots == {
            col: {j: x for j, x in enumerate(r) if x} for col, r in zip(cols, reduced)
        }
        assert all(type(x) is Fraction for r in span.pivots.values() for x in r.values())


@settings(max_examples=200, deadline=None)
@given(st.one_of(dependent_matrices(), many_row_matrices()))
def test_certified_rank_matches_exact_elimination(matrix):
    """The rank of sparse rows, as generation ranks are taken, is the dense Fraction rank."""
    length = len(matrix[0])
    span = Span(length)
    for row in matrix:
        span.add(_as_input(row, "sparse"))
    assert span.dim == len(_dense_rref(matrix, length)[0])


@settings(max_examples=200, deadline=None)
@given(st.one_of(dependent_matrices(), many_row_matrices()), st.data())
def test_certified_ranks_of_stream_prefixes_match_exact_elimination(matrix, data):
    """Rows cut into 1-4 streams, some empty, fed to one Span: each prefix's dim is its dense rank."""
    length = len(matrix[0])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(matrix)), max_size=3)))
    span = Span(length)
    for a, b in zip([0] + cuts, cuts + [len(matrix)]):
        for row in matrix[a:b]:
            span.add(_as_input(row, "sparse"))
        assert span.dim == len(_dense_rref(matrix[:b], length)[0])


@settings(max_examples=200, deadline=None)
@given(st.one_of(dependent_matrices(), many_row_matrices()), st.data())
def test_span_dim_and_rows_do_not_depend_on_row_order(matrix, data):
    length = len(matrix[0])
    spans = []
    for rows in (matrix, data.draw(st.permutations(matrix))):
        span = Span(length)
        for row in rows:
            span.add(_as_input(row, data.draw(INPUT_FORMS)))
        spans.append(span)
    assert spans[0].dim == spans[1].dim
    assert spans[0].pivots == spans[1].pivots


@settings(max_examples=200, deadline=None)
@given(dependent_matrices(), st.data())
def test_span_contains_matches_dense_rank(matrix, data):
    """A probe is in the span exactly when appending it leaves the dense rank unchanged."""
    length = len(matrix[0])
    span = Span(length)
    for row in matrix:
        span.add(_as_input(row, data.draw(INPUT_FORMS)))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(matrix), max_size=len(matrix)))
    combination = [sum(c * row[j] for c, row in zip(coeffs, matrix)) for j in range(length)]
    other = data.draw(st.lists(ENTRY, min_size=length, max_size=length))
    rank = len(_dense_rref(matrix, length)[0])
    for probe in (combination, other, [0] * length):
        expected = len(_dense_rref(matrix + [probe], length)[0]) == rank
        assert span.contains(_as_input(probe, data.draw(INPUT_FORMS))) == expected
    assert span.contains(_as_input(combination, "list"))


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_kernel_of_columns_matches_dense_elimination(vectors):
    assert kernel_of_columns(vectors) == _dense_kernel(vectors)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_frac_det_matches_dense_elimination(matrix):
    assert frac_det(matrix) == _dense_rref(matrix, len(matrix))[2]
