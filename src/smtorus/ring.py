"""Graded rings of torus-invariant sections on Schubert varieties.

For a Schubert index w the degree-k piece has the torus-invariant standard
tableaux as a basis, so Hilbert values come from chain counting, generation
questions become exact rank computations over product expansions, and a
quotient is recognized as a polarized projective space by matching Hilbert
values of Veronese embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from . import linalg
from .straighten import BasisMismatchError, Expansion, expand_product
from .tableau import (
    Tableau,
    enumerate_basis_omega_1,
    enumerate_basis_omega_n,
    schubert_chain_count,
)
from .weyl import (
    IndexVector,
    coset_rep_to_weyl,
    apply_to_weight,
    is_dominant_nonpositive,
    top_coset_rep,
    two_omega_n,
)

__all__ = [
    "RingError",
    "AmbiguousMatchError",
    "RingSpec",
    "basis",
    "dim_graded_piece",
    "hilbert",
    "hilbert_even",
    "GenerationReport",
    "check_generation",
    "check_generation_chain",
    "RelationSpace",
    "new_generators",
    "relations_in_degree",
    "veronese_hilbert",
    "identify_projective_space",
    "SemistableReport",
    "has_semistable",
]


class RingError(ValueError):
    pass


class AmbiguousMatchError(RingError):
    pass


@dataclass(frozen=True)
class RingSpec:
    """Which invariant ring to analyze and how far.

    kind "omega_n" is the last-node family on the Schubert variety X(w) (w None
    means the full space); kind "omega_1" is the first-node family on the full
    space for the given group type.
    """

    kind: str
    n: int
    w: IndexVector | None = None
    group_type: str = "D"
    max_degree: int = 4

    def resolved_w(self) -> IndexVector:
        if self.w is not None:
            return tuple(self.w)
        return top_coset_rep(self.n)


_BASIS_MEMO: dict = {}


def basis(spec: RingSpec, k: int) -> list[Tableau]:
    """Standard-monomial basis of the degree-k piece.

    Each piece is listed once per process, memoized under (kind, n, resolved
    w, group type, k); ``max_degree`` does not change it.  Every call returns
    a fresh list of the (frozen) tableaux.
    """
    key = (spec.kind, spec.n, spec.resolved_w(), spec.group_type, k)
    bas = _BASIS_MEMO.get(key)
    if bas is None:
        bas = _BASIS_MEMO[key] = _list_basis(spec, k)
    return list(bas)


def _list_basis(spec: RingSpec, k: int) -> list[Tableau]:
    if k == 0:
        return [Tableau(spec.n, spec.kind, (), spec.group_type)]
    if spec.kind == "omega_n":
        return enumerate_basis_omega_n(spec.n, spec.resolved_w(), k)
    if spec.kind == "omega_1":
        return enumerate_basis_omega_1(spec.group_type, spec.n, k)
    raise RingError(f"unknown ring kind {spec.kind!r}")


def dim_graded_piece(spec: RingSpec, k: int) -> int:
    if k == 0:
        return 1
    if spec.kind == "omega_n":
        content = {v: k for v in range(1, 2 * spec.n + 1)}
        return schubert_chain_count(spec.n, 2 * k, content, spec.resolved_w())
    if spec.kind == "omega_1":
        top = spec.n - 1 if spec.group_type == "D" else spec.n
        return comb(k + top - 1, k)
    raise RingError(f"unknown ring kind {spec.kind!r}")


def hilbert(spec: RingSpec) -> list[int]:
    """Dimensions of the graded pieces for k = 0..max_degree.

    >>> hilbert(RingSpec("omega_n", 4, (5, 6, 7, 8), max_degree=3))
    [1, 3, 6, 10]
    """
    return [dim_graded_piece(spec, k) for k in range(spec.max_degree + 1)]


def hilbert_even(spec: RingSpec, half_max: int) -> list[int]:
    """Dimensions of the even pieces R_{2k}, the doubled-polarization grading."""
    return [dim_graded_piece(spec, 2 * k) for k in range(half_max + 1)]


def _expand(factors, spec: RingSpec) -> Expansion:
    w = spec.resolved_w() if spec.kind == "omega_n" else None
    return expand_product(factors, w=w)


def _positions(exp: Expansion, index: dict) -> dict[int, Fraction]:
    """The expansion as a sparse row ``{basis position: coefficient}``."""
    row = {}
    for rows, c in exp.items():
        pos = index.get(rows)
        if pos is None:
            raise BasisMismatchError(f"expansion term {rows} outside the basis")
        row[pos] = c
    return row


def _coordinates(exp: Expansion, index: dict) -> list[Fraction]:
    vec = [Fraction(0)] * len(index)
    for pos, c in _positions(exp, index).items():
        vec[pos] = c
    return vec


def _degree_multisets(degrees, total):
    """Index multisets (non-increasing) whose generator degrees sum to total."""
    out = []

    def go(i, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for j in range(i, len(degrees)):
            if degrees[j] <= remaining:
                acc.append(j)
                go(j, remaining - degrees[j], acc)
                acc.pop()

    go(0, total, [])
    return out


@dataclass(frozen=True)
class GenerationReport:
    max_gen_degree: int
    per_degree: tuple  # (degree, dim, span_dim, surjective)
    generated: bool
    generator_degrees: tuple


def check_generation(spec: RingSpec, max_gen_degree: int, generators=None) -> GenerationReport:
    """Do products of low-degree elements span every graded piece up to max_degree?

    Generators default to the full standard basis in degrees 1..max_gen_degree;
    an explicit list of tableaux may be supplied instead.  This is
    ``check_generation_chain`` on that one set.
    """
    if generators is None:
        generators = [t for d in range(1, max_gen_degree + 1) for t in basis(spec, d)]
    (report,) = check_generation_chain(spec, [generators])
    return replace(report, max_gen_degree=max_gen_degree)


def _new_positions(prev, cur) -> list[int]:
    """Positions in cur left over once each tableau of prev has taken the first free equal one."""
    new = list(range(len(cur)))
    for t in prev:
        j = next((j for j in new if cur[j] == t), None)
        if j is None:
            raise RingError("each generator set must contain the previous one")
        new.remove(j)
    return new


def check_generation_chain(spec: RingSpec, generator_sets) -> list[GenerationReport]:
    """``check_generation`` for nested lists of tableaux, in one pass per degree.

    Each list must contain the previous one as a multiset.  Per degree, stream
    0 holds the first set's products and stream i the products of set i that
    use one of its generators left over from set i - 1, so streams 0..i hold
    every product of set i, repeats included.  One exact ``linalg.Span`` grows
    stream by stream, and the rank of set i is its dimension after stream i.
    Every product is expanded and checked against the basis; once the span is
    the whole piece, a product is no longer reduced.  One report per set, in
    order.
    """
    sets = [list(gens) for gens in generator_sets]
    degrees = [[t.degree for t in gens] for gens in sets]
    fresh = [None] + [set(_new_positions(prev, cur)) for prev, cur in zip(sets, sets[1:])]
    rows = [[] for _ in sets]
    for k in range(spec.max_degree + 1):
        bas = basis(spec, k)
        index = {t.rows: i for i, t in enumerate(bas)}
        span = linalg.Span(len(bas))
        for gens, degs, new, per_degree in zip(sets, degrees, fresh, rows):
            for ms in _degree_multisets(degs, k):
                if new is not None and new.isdisjoint(ms):
                    continue
                row = _positions(_expand([gens[j] for j in ms], spec), index)
                if span.dim < len(bas):
                    span.add(row)
            per_degree.append((k, len(bas), span.dim, span.dim == len(bas)))
    return [
        GenerationReport(
            max_gen_degree=max(degs, default=0),
            per_degree=tuple(per_degree),
            generated=all(r[3] for r in per_degree),
            generator_degrees=tuple(degs),
        )
        for degs, per_degree in zip(degrees, rows)
    ]


@dataclass(frozen=True)
class RelationSpace:
    """Kernel of multiplication from formal degree-k generator products."""

    degree: int
    generators: tuple  # (degree, Tableau)
    products: tuple  # index multisets into generators
    kernel: tuple  # kernel basis vectors over the products

    @property
    def dimension(self) -> int:
        return len(self.kernel)

    def contains(self, vector) -> bool:
        """Exact membership of a product-coefficient vector in the kernel."""
        span = linalg.Span(len(self.products))
        for v in self.kernel:
            span.add(v)
        return span.contains(vector)

    def product_index(self, multiset) -> int:
        return self.products.index(tuple(sorted(multiset)))


def new_generators(spec: RingSpec, up_to: int):
    """Per degree, every basis element outside the span of lower-degree products.

    The result need not be a minimal generating set (two new elements may
    differ by something in the product span); it is the degree-wise list of
    standard monomials that are not products, the natural formal generators
    for presenting relations.
    """
    gens: list[tuple[int, Tableau]] = [(1, t) for t in basis(spec, 1)]
    for d in range(2, up_to + 1):
        bas = basis(spec, d)
        index = {t.rows: i for i, t in enumerate(bas)}
        span = linalg.Span(len(bas))
        degrees = [g for g, _ in gens]
        for ms in _degree_multisets(degrees, d):
            span.add(_positions(_expand([gens[j][1] for j in ms], spec), index))
        gens += [(d, t) for i, t in enumerate(bas) if not span.contains({i: 1})]
    return gens


def relations_in_degree(spec: RingSpec, k: int, generators=None) -> RelationSpace:
    """Kernel basis of the multiplication map in degree k.

    >>> sp = RingSpec("omega_n", 4, (3, 4, 7, 8), max_degree=2)
    >>> relations_in_degree(sp, 2).dimension
    0
    """
    if k < 2:
        raise RingError("relations live in degree at least 2")
    if generators is None:
        gens = new_generators(spec, k)
    else:
        gens = [(t.degree, t) for t in generators]
    degrees = [d for d, _ in gens]
    bas = basis(spec, k)
    index = {t.rows: i for i, t in enumerate(bas)}
    products = _degree_multisets(degrees, k)
    vectors = [
        _coordinates(_expand([gens[j][1] for j in ms], spec), index)
        for ms in products
    ]
    kernel = linalg.kernel_of_columns(vectors)
    return RelationSpace(
        degree=k,
        generators=tuple(gens),
        products=tuple(products),
        kernel=tuple(kernel),
    )


def veronese_hilbert(m: int, e: int, max_degree: int) -> list[int]:
    """Hilbert values of projective m-space polarized by degree e.

    >>> veronese_hilbert(2, 1, 3)
    [1, 3, 6, 10]
    >>> veronese_hilbert(1, 2, 3)
    [1, 3, 5, 7]
    """
    return [comb(e * k + m, m) for k in range(max_degree + 1)]


def identify_projective_space(h) -> tuple[int, int] | None:
    """The unique (m, e) whose Veronese Hilbert values match h, if any.

    Requires values through degree 3; a constant sequence is the point (0, 1).

    >>> identify_projective_space((1, 3, 6, 10))
    (2, 1)
    >>> identify_projective_space((1, 10, 35, 84))
    (3, 2)
    """
    h = list(h)
    if len(h) < 4:
        raise AmbiguousMatchError("need Hilbert values through degree 3")
    if h[0] != 1:
        return None
    if h[1] == 1:
        return (0, 1) if all(v == 1 for v in h) else None
    matches = []
    for m in range(1, h[1]):
        for e in range(1, h[1] + 1):
            if comb(e + m, m) > h[1]:
                break
            if all(comb(e * k + m, m) == h[k] for k in range(len(h))):
                matches.append((m, e))
    if not matches:
        return None
    if len(matches) > 1:
        raise AmbiguousMatchError(f"multiple polarized matches: {matches}")
    return matches[0]


@dataclass(frozen=True)
class SemistableReport:
    first_invariant_degree: int | None
    weight_nonpositive: bool | None


def has_semistable(spec: RingSpec) -> SemistableReport:
    """Smallest degree with invariants, plus the weight criterion for omega_n."""
    first = next(
        (k for k in range(1, spec.max_degree + 1) if dim_graded_piece(spec, k) > 0),
        None,
    )
    verdict = None
    if spec.kind == "omega_n":
        w = coset_rep_to_weyl(spec.resolved_w(), spec.n, "D")
        verdict = is_dominant_nonpositive(apply_to_weight(w, two_omega_n(spec.n)), "D")
    return SemistableReport(first, verdict)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
