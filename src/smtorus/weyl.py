"""Weyl group combinatorics for Spin(2n) and Sp(2n) in the symmetric S_{2n} embedding.

Group elements are signed permutations written in one-line notation over
{1, ..., 2n}, subject to the mirror symmetry a_i = 2n+1 - a_{2n+1-i}; type D
additionally requires an even number of "negated" slots among the first n.
Minimal coset representatives of the maximal parabolic killing the last node
are encoded as strictly increasing n-tuples (Grassmannian index vectors),
ordered componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

__all__ = [
    "WeylError",
    "NotPermutationError",
    "SymmetryViolatedError",
    "OddNegativeCountError",
    "IndexOutOfRangeError",
    "LengthMismatchError",
    "RankMismatchError",
    "WeylElement",
    "parse_one_line",
    "identity",
    "simple_reflection",
    "word_to_one_line",
    "parse_word",
    "format_word",
    "inversions",
    "negated_slot_count",
    "length",
    "reduced_word",
    "bruhat_leq",
    "minimal_coset_reps_alpha_n",
    "coset_rep_to_weyl",
    "top_coset_rep",
    "two_omega_n",
    "apply_to_weight",
    "nonpositivity_certificate",
    "is_dominant_nonpositive",
]

IndexVector = tuple[int, ...]
Weight = tuple[Fraction, ...]


class WeylError(ValueError):
    """Base class for invalid Weyl-group data."""


class NotPermutationError(WeylError):
    pass


class SymmetryViolatedError(WeylError):
    pass


class OddNegativeCountError(WeylError):
    pass


class IndexOutOfRangeError(WeylError):
    pass


class LengthMismatchError(WeylError):
    pass


class RankMismatchError(WeylError):
    pass


@dataclass(frozen=True)
class WeylElement:
    """A type-D or type-C Weyl group element in one-line notation over {1..2n}."""

    n: int
    group_type: str  # "D" or "C"
    one_line: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.n


def parse_one_line(seq, group_type: str, n: int) -> WeylElement:
    """Validate a one-line sequence and return the corresponding element.

    >>> parse_one_line((5, 6, 7, 8, 1, 2, 3, 4), "D", 4).one_line[:4]
    (5, 6, 7, 8)
    """
    if group_type not in ("D", "C"):
        raise WeylError(f"unknown group type {group_type!r}")
    seq = tuple(int(a) for a in seq)
    if len(seq) != 2 * n:
        raise NotPermutationError(f"expected {2 * n} entries, got {len(seq)}")
    if sorted(seq) != list(range(1, 2 * n + 1)):
        raise NotPermutationError(f"{seq} is not a permutation of 1..{2 * n}")
    for i in range(2 * n):
        if seq[i] != 2 * n + 1 - seq[2 * n - 1 - i]:
            raise SymmetryViolatedError(
                f"slot {i + 1}: {seq[i]} != {2 * n + 1} - {seq[2 * n - 1 - i]}"
            )
    if group_type == "D" and negated_slot_count(seq, n) % 2 != 0:
        raise OddNegativeCountError(f"{seq} has an odd number of entries > n among the first n")
    return WeylElement(n, group_type, seq)


def identity(group_type: str, n: int) -> WeylElement:
    return WeylElement(n, group_type, tuple(range(1, 2 * n + 1)))


def simple_reflection(i: int, group_type: str, n: int) -> tuple[int, ...]:
    """One-line notation of the simple reflection s_i inside S_{2n}.

    For i < n this swaps slots (i, i+1) and the mirrored pair; s_n is the
    reflection in e_{n-1} + e_n for type D and in 2 e_n for type C.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRangeError(f"reflection index {i} out of 1..{n}")
    perm = list(range(1, 2 * n + 1))

    def swap(a, b):
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]

    if i < n:
        swap(i, i + 1)
        swap(2 * n - i, 2 * n + 1 - i)
    elif group_type == "C":
        swap(n, n + 1)
    else:
        swap(n - 1, n + 1)
        swap(n, n + 2)
    return tuple(perm)


def _compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    # (u v)(x) = u(v(x))
    return tuple(u[v[x] - 1] for x in range(len(v)))


def word_to_one_line(word, group_type: str, n: int) -> WeylElement:
    """Product of simple reflections, leftmost factor applied last.

    >>> word_to_one_line((4, 2, 3, 1, 2, 4), "D", 4).one_line[:4]
    (5, 6, 7, 8)
    """
    perm = tuple(range(1, 2 * n + 1))
    for i in reversed(tuple(word)):
        perm = _compose(simple_reflection(i, group_type, n), perm)
    return parse_one_line(perm, group_type, n)


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a space-separated reduced word such as "4 2 3 1 2 4"."""
    return tuple(int(tok) for tok in text.split())


def format_word(word) -> str:
    return " ".join(str(i) for i in word)


def inversions(seq) -> int:
    seq = tuple(seq)
    return sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])


def negated_slot_count(one_line, n: int) -> int:
    """Number of slots i <= n with a_i > n (written m_w elsewhere)."""
    return sum(1 for a in one_line[:n] if a > n)


def length(w: WeylElement) -> int:
    """Coxeter length, computed from the inversion count of the S_{2n} lift.

    >>> length(word_to_one_line((4, 2, 3, 1, 2, 4), "D", 4))
    6
    """
    inv = inversions(w.one_line)
    m = negated_slot_count(w.one_line, w.n)
    if w.group_type == "D":
        return (inv - m) // 2
    return (inv + m) // 2


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word found by greedy left-descent removal."""
    word = []
    cur = w
    while length(cur) > 0:
        for i in range(1, w.n + 1):
            nxt = parse_one_line(
                _compose(simple_reflection(i, w.group_type, w.n), cur.one_line),
                w.group_type,
                w.n,
            )
            if length(nxt) < length(cur):
                word.append(i)
                cur = nxt
                break
        else:  # pragma: no cover - would indicate a broken length function
            raise WeylError(f"no descent found for {cur.one_line}")
    return tuple(word)


def bruhat_leq(u: IndexVector, v: IndexVector) -> bool:
    """Componentwise order on Grassmannian index vectors.

    >>> bruhat_leq((2, 4, 6, 8), (3, 4, 7, 8))
    True
    >>> bruhat_leq((3, 4, 7, 8), (2, 4, 6, 8))
    False
    """
    if len(u) != len(v):
        raise LengthMismatchError(f"length {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def minimal_coset_reps_alpha_n(n: int) -> list[IndexVector]:
    """All index vectors of minimal coset representatives for the last-node parabolic, type D.

    Each representative picks exactly one of {t, 2n+1-t} for every t <= n, with
    an even number of picks above n; returned in lexicographic order.

    >>> minimal_coset_reps_alpha_n(2)
    [(1, 2), (3, 4)]
    >>> len(minimal_coset_reps_alpha_n(4))
    8
    """
    if n < 2:
        raise WeylError("rank must be at least 2")
    reps = []
    for r in range(0, n + 1, 2):
        for neg in combinations(range(1, n + 1), r):
            negset = set(neg)
            entries = [t for t in range(1, n + 1) if t not in negset]
            entries += [2 * n + 1 - t for t in neg]
            reps.append(tuple(sorted(entries)))
    return sorted(reps)


def coset_rep_to_weyl(iv: IndexVector, n: int, group_type: str = "D") -> WeylElement:
    """Lift an index vector to the minimal coset representative in one-line notation."""
    rest = sorted(set(range(1, 2 * n + 1)) - set(iv))
    return parse_one_line(tuple(iv) + tuple(rest), group_type, n)


def top_coset_rep(n: int) -> IndexVector:
    """The Bruhat-maximal representative (the full space as a Schubert variety)."""
    if n % 2 == 0:
        return tuple(range(n + 1, 2 * n + 1))
    return (n,) + tuple(range(n + 2, 2 * n + 1))


def two_omega_n(n: int) -> Weight:
    """Twice the last fundamental weight of type D: e_1 + ... + e_n."""
    return tuple(Fraction(1) for _ in range(n))


def apply_to_weight(w: WeylElement, weight) -> Weight:
    """Apply w to a weight in e-coordinates.

    Slot i holding a value a <= n sends e_i to e_a; a value a > n sends e_i to
    -e_{2n+1-a}.

    >>> w = parse_one_line((5, 6, 7, 8, 1, 2, 3, 4), "D", 4)
    >>> apply_to_weight(w, two_omega_n(4))
    (Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1))
    """
    n = w.n
    if len(weight) != n:
        raise RankMismatchError(f"weight has {len(weight)} coordinates, rank is {n}")
    out = [Fraction(0)] * n
    for i in range(n):
        c = Fraction(weight[i])
        a = w.one_line[i]
        if a <= n:
            out[a - 1] += c
        else:
            out[2 * n - a] -= c
    return tuple(out)


def nonpositivity_certificate(mu, group_type: str):
    """Express -mu over the simple roots; return (ok, coefficients_or_reason).

    ok is True when every coefficient is a nonnegative integer, i.e. mu <= 0 in
    the root order.
    """
    n = len(mu)
    if n < 2:
        raise RankMismatchError("rank must be at least 2")
    v = [Fraction(-x) for x in mu]
    coeffs = [Fraction(0)] * n
    if group_type == "D":
        run = Fraction(0)
        for i in range(n - 2):
            run += v[i]
            coeffs[i] = run
        prev = coeffs[n - 3] if n >= 3 else Fraction(0)
        s = v[n - 2] + prev
        coeffs[n - 1] = (s + v[n - 1]) / 2
        coeffs[n - 2] = (s - v[n - 1]) / 2
    elif group_type == "C":
        run = Fraction(0)
        for i in range(n - 1):
            run += v[i]
            coeffs[i] = run
        coeffs[n - 1] = (v[n - 1] + coeffs[n - 2]) / 2
    else:
        raise WeylError(f"unknown group type {group_type!r}")
    for c in coeffs:
        if c.denominator != 1:
            return False, f"non-integral combination: {tuple(coeffs)}"
        if c < 0:
            return False, f"negative coefficient: {tuple(coeffs)}"
    return True, tuple(coeffs)


def is_dominant_nonpositive(mu, group_type: str) -> bool:
    """True iff -mu is a nonnegative integral combination of the simple roots.

    >>> is_dominant_nonpositive((-1, -1, -1, -1), "D")
    True
    >>> is_dominant_nonpositive((1, 0, 0, 0), "D")
    False
    """
    ok, _ = nonpositivity_certificate(mu, group_type)
    return ok


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
