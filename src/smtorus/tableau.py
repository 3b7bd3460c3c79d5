"""Standard Young tableaux carrying torus-invariant sections.

Two shapes appear.  The "omega_n" shape for degree k is a grid of 2k rows of
length n whose rows are Pfaffian coordinate indices (one of {t, 2n+1-t} per t,
evenly many entries above n) forming a componentwise non-decreasing chain.
The "omega_1" shape is a single column of 4k entries, non-decreasing, grouped
into equal adjacent pairs; in type D the two middle values n, n+1 are excluded.
A tableau is torus-invariant exactly when each value t occurs as often as its
mirror 2n+1-t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .weyl import IndexVector, Weight

__all__ = [
    "TableauError",
    "MalformedShapeError",
    "EntryOutOfRangeError",
    "InvalidSchubertIndexError",
    "UnsupportedRankError",
    "Tableau",
    "grid_tableau",
    "column_tableau",
    "is_coordinate_row",
    "is_standard",
    "is_shape_standard",
    "weight_counts",
    "weight",
    "is_t_invariant",
    "standard_chains",
    "schubert_chain_count",
    "schubert_chains",
    "enumerate_basis_omega_n",
    "enumerate_basis_omega_1",
    "find_factor",
    "format_tableau",
    "parse_tableau",
    "tableau_to_json",
    "tableau_from_json",
]

Rows = tuple[IndexVector, ...]


class TableauError(ValueError):
    pass


class MalformedShapeError(TableauError):
    pass


class EntryOutOfRangeError(TableauError):
    pass


class InvalidSchubertIndexError(TableauError):
    pass


class UnsupportedRankError(TableauError):
    pass


@dataclass(frozen=True)
class Tableau:
    """A filled Young diagram; omega_1 columns are stored as rows of length 1."""

    n: int
    shape: str  # "omega_n" or "omega_1"
    rows: Rows = ()
    group_type: str = "D"

    @property
    def degree(self) -> int:
        if self.shape == "omega_n":
            return len(self.rows) // 2
        return len(self.rows) // 4

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)


def grid_tableau(n: int, rows) -> Tableau:
    return Tableau(n, "omega_n", tuple(tuple(r) for r in rows))


def column_tableau(n: int, entries, group_type: str = "D") -> Tableau:
    return Tableau(n, "omega_1", tuple((int(v),) for v in entries), group_type)


def is_coordinate_row(row, n: int) -> bool:
    """Whether a length-n row indexes a Pfaffian coordinate.

    >>> is_coordinate_row((1, 4, 6, 7), 4)
    True
    >>> is_coordinate_row((1, 2, 3, 5), 4)
    False
    """
    if len(row) != n:
        return False
    seen = set(row)
    if len(seen) != n:
        return False
    for t in range(1, n + 1):
        if (t in seen) == (2 * n + 1 - t in seen):
            return False
    return sum(1 for v in row if v > n) % 2 == 0


def _check_entries(t: Tableau) -> None:
    for v in t.entries:
        if not 1 <= v <= 2 * t.n:
            raise EntryOutOfRangeError(f"entry {v} outside 1..{2 * t.n}")


def is_standard(t: Tableau) -> bool:
    """Rows strictly increase left to right, columns never decrease top to bottom.

    >>> is_standard(grid_tableau(4, [(1, 2, 3, 4), (5, 6, 7, 8)]))
    True
    >>> is_standard(grid_tableau(4, [(1, 4, 6, 7), (2, 3, 5, 8)]))
    False
    """
    rows = t.rows
    if len({len(r) for r in rows}) > 1:
        raise MalformedShapeError("ragged tableau")
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for top, bottom in zip(rows, rows[1:]):
        if any(a > b for a, b in zip(top, bottom)):
            return False
    return True


def is_shape_standard(t: Tableau) -> bool:
    """Standard plus the shape-specific row or pairing conditions."""
    _check_entries(t)
    if not is_standard(t):
        return False
    if t.shape == "omega_n":
        if len(t.rows) % 2 != 0:
            return False
        return all(is_coordinate_row(row, t.n) for row in t.rows)
    if t.shape == "omega_1":
        e = t.entries
        if len(e) % 4 != 0:
            return False
        if any(e[2 * i] != e[2 * i + 1] for i in range(len(e) // 2)):
            return False
        if t.group_type == "D" and any(v in (t.n, t.n + 1) for v in e):
            return False
        return True
    raise MalformedShapeError(f"unknown shape {t.shape!r}")


def weight_counts(t: Tableau) -> dict[int, int]:
    """Occurrence counts c(v) for every value 1..2n."""
    counts = {v: 0 for v in range(1, 2 * t.n + 1)}
    for v in t.entries:
        if v not in counts:
            raise EntryOutOfRangeError(f"entry {v} outside 1..{2 * t.n}")
        counts[v] += 1
    return counts


def weight(t: Tableau) -> Weight:
    """Torus weight: half the mirrored count differences, in e-coordinates.

    >>> weight(grid_tableau(4, [(1, 2, 3, 4)]))
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    """
    c = weight_counts(t)
    n = t.n
    return tuple(Fraction(c[j] - c[2 * n + 1 - j], 2) for j in range(1, n + 1))


def is_t_invariant(t: Tableau) -> bool:
    """True iff each value occurs as often as its mirror.

    >>> is_t_invariant(grid_tableau(4, [(1, 2, 3, 4), (5, 6, 7, 8)]))
    True
    >>> is_t_invariant(grid_tableau(4, [(1, 2, 3, 4)]))
    False
    """
    c = weight_counts(t)
    n = t.n
    return all(c[j] == c[2 * n + 1 - j] for j in range(1, n + 1))


class _ProfileDP:
    """Transfer walk over mirror-pair positions for chains below a fixed index.

    A coordinate row with negated set S has profile a_v = |S intersect [1..v]|,
    and rows compare componentwise exactly when their profiles do.  Processing
    positions t = 1..n, the state is the list of blocks of rows sharing the
    same negated prefix, ordered by dominance, each with its number of slots
    (rows).  One successor generator serves both walks: `count` runs it on
    block lengths alone and never lists a chain, and `walk` runs it on the
    same lengths, then gives each piece its negated set back.  The exact count prunes the listing, so every branch `walk`
    enters ends in at least one chain.  The count memo lives on the instance,
    so each query starts empty.
    """

    def __init__(self, n, num_rows, content, w):
        self.n = n
        self.num_rows = num_rows
        w_set = set(w)
        self.w_prefix = []
        acc = 0
        for t in range(1, n + 1):
            if 2 * n + 1 - t in w_set:
                acc += 1
            self.w_prefix.append(acc)
        self.h = [content.get(2 * n + 1 - t, 0) for t in range(1, n + 1)]
        self.counts: dict = {}

    def _row(self, negated):
        neg = set(negated)
        return tuple(
            sorted(
                [v for v in range(1, self.n + 1) if v not in neg]
                + [2 * self.n + 1 - v for v in neg]
            )
        )

    def walk(self):
        out: list = []
        self._walk(0, (((), self.num_rows),), out)
        return sorted(out)

    def _walk(self, t, blocks, out):
        if t == self.n:
            chain = []
            for neg, k in blocks:
                chain += [self._row(neg)] * k
            out.append(tuple(chain))
            return
        lens = tuple((len(neg), k) for neg, k in blocks)
        for nxt in self._successors(t, lens):
            if t + 1 < self.n:
                live = self._count(t + 1, nxt)
            else:
                live = not any(a % 2 for a, _ in nxt)
            if live:
                self._walk(t + 1, self._sets(t, blocks, nxt), out)

    @staticmethod
    def _sets(t, blocks, pieces):
        """Give each length piece after step t the negated set of its block.

        A block's pieces come in order and use up its slots; its kept piece
        has the block's length and its promoted piece one more, so the length
        alone tells which of them gained t + 1.
        """
        out = []
        it = iter(pieces)
        for neg, left in blocks:
            while left:
                a, k = next(it)
                out.append((neg if a == len(neg) else neg + (t + 1,), k))
                left -= k
        return tuple(out)

    def count(self) -> int:
        """Number of chains `walk` lists, counted without listing them.

        The count is memoized on (t, ((len(S), slots) for each block)), which
        forgets the negated sets themselves.  Parity needs no entry of its
        own: every row of a block has negated exactly the block's prefix so
        far, so the parity of its |S|, which must come out even, is the parity
        of the block's length, and the slots of a block all share it.  Nor
        are the sets needed: at step t a promoted block gains t + 1, larger
        than every element already in any negated set.  So among the pieces one step produces, a block's kept
        piece sits below its own promoted piece and below every piece of the
        next block, a promoted piece sits below the next block's promoted
        piece, and a promoted piece of length a + 1 sits below the next
        block's kept piece of length b exactly when a + 1 <= b.  Every
        dominance test, now and at every later step, is a test on lengths.
        Pieces from different blocks never have equal negated sets, so they
        never merge: the key holds one entry per block of `walk`, and
        adjacent blocks of equal length stay separate in it.
        """
        return self._count(0, ((0, self.num_rows),))

    def _count(self, t, blocks) -> int:
        if t == self.n - 1:
            return self._last_step(blocks)
        key = (t, blocks)
        val = self.counts.get(key)
        if val is None:
            val = sum(self._count(t + 1, nxt) for nxt in self._successors(t, blocks))
            self.counts[key] = val
        return val

    def _last_step(self, blocks) -> int:
        """Count (0 or 1) for the last step, which has one candidate choice.

        Every |S| must come out even, so the last step promotes exactly the
        blocks of odd length.  Blocks of equal length all promote or all keep
        and stay in order; only the number of odd slots and the bound for
        X(w) remain to check.
        """
        bound = self.w_prefix[-1]
        return int(
            sum(k for a, k in blocks if a % 2) == self.h[-1]
            and all(a < bound for a, _ in blocks if a % 2)
        )

    def _successors(self, t, blocks):
        """Length blocks after step t, built from valid promotion choices only.

        A choice is cut off as soon as a kept piece would follow a longer
        piece, or the blocks left cannot hold the promotions still owed.  That
        capacity counts only blocks below the bound for X(w); lengths never
        decrease along the blocks, so the blocks at the bound come last, and
        the capacity check alone keeps every one of them from promoting.
        """
        bound = self.w_prefix[t]
        cap = [0] * (len(blocks) + 1)
        for i in range(len(blocks) - 1, -1, -1):
            a, k = blocks[i]
            cap[i] = cap[i + 1] + (k if a < bound else 0)
        out = []
        pieces = []

        def go(i, remaining, prev):
            if remaining > cap[i]:
                return
            if i == len(blocks):
                out.append(tuple(pieces))
                return
            a, k = blocks[i]
            for promoted in range(min(k, remaining) + 1):
                kept = k - promoted
                if kept and prev > a:
                    continue
                depth = len(pieces)
                if kept:
                    pieces.append((a, kept))
                if promoted:
                    pieces.append((a + 1, promoted))
                go(i + 1, remaining - promoted, a + 1 if promoted else a)
                del pieces[depth:]

        go(0, self.h[t], 0)
        return out


def _validated_content(n, num_rows, content):
    for t in range(1, n + 1):
        if content.get(t, 0) + content.get(2 * n + 1 - t, 0) != num_rows:
            return False
    return True


def schubert_chain_count(n, num_rows, content, w) -> int:
    """Number of chains of coordinate rows below w with the given value counts.

    Counted by the memoized transfer walk, without listing the chains.
    """
    if num_rows == 0:
        return 0 if any(content.values()) else 1
    if not _validated_content(n, num_rows, content):
        return 0
    return _ProfileDP(n, num_rows, content, w).count()


def schubert_chains(n, num_rows, content, w):
    """All chains of coordinate rows below w with the given counts, lex order."""
    if num_rows == 0:
        return [()] if not any(content.values()) else []
    if not _validated_content(n, num_rows, content):
        return []
    return _ProfileDP(n, num_rows, content, w).walk()


def standard_chains(n, num_rows, content, w):
    """All chains of coordinate rows below the index w with the given value counts.

    `content` maps each value 1..2n to its required number of occurrences; the
    counts of a mirror pair must sum to `num_rows` for a chain to exist.  The
    chains are produced in lexicographic order; pass ``top_coset_rep(n)`` as w
    for the whole space.
    """
    return schubert_chains(n, num_rows, content, w)


def enumerate_basis_omega_n(n, w, k) -> list[Tableau]:
    """Degree-k torus-invariant standard basis on the Schubert variety indexed by w.

    >>> [t.rows for t in enumerate_basis_omega_n(4, (2, 4, 6, 8), 1)]
    [((1, 3, 5, 7), (2, 4, 6, 8))]
    """
    w = tuple(w)
    if not is_coordinate_row(w, n):
        raise InvalidSchubertIndexError(f"{w} is not a minimal coset representative index")
    content = {v: k for v in range(1, 2 * n + 1)}
    return [grid_tableau(n, chain) for chain in schubert_chains(n, 2 * k, content, w)]


def enumerate_basis_omega_1(group_type, n, k) -> list[Tableau]:
    """Degree-k torus-invariant single-column basis for the first-node parabolic.

    >>> [t.entries for t in enumerate_basis_omega_1("C", 2, 1)]
    [(1, 1, 4, 4), (2, 2, 3, 3)]
    """
    if group_type == "D":
        if n < 4:
            raise UnsupportedRankError("type D single-column basis needs rank >= 4")
        top = n - 1
    elif group_type == "C":
        if n < 2:
            raise UnsupportedRankError("type C single-column basis needs rank >= 2")
        top = n
    else:
        raise TableauError(f"unknown group type {group_type!r}")
    out = []
    for ms in combinations_with_replacement(range(1, top + 1), k):
        entries = []
        for j in ms:
            entries += [j, j]
        for j in reversed(ms):
            entries += [2 * n + 1 - j, 2 * n + 1 - j]
        out.append(column_tableau(n, entries, group_type))
    return sorted(out, key=lambda t: t.entries)


def _balanced(entries, n) -> bool:
    counts = {}
    for v in entries:
        counts[v] = counts.get(v, 0) + 1
    return all(counts.get(t, 0) == counts.get(2 * n + 1 - t, 0) for t in range(1, n + 1))


def find_factor(t: Tableau, d: int):
    """Split off a torus-invariant subtableau of degree at most d, if one exists.

    Returns ``(factor, complement)`` or None.  Subsets of a chain are chains, so
    only the balance condition needs searching.
    """
    if t.degree <= d:
        return t, Tableau(t.n, t.shape, (), t.group_type)
    if t.shape == "omega_n":
        rows = t.rows
        for size in range(2, 2 * d + 1, 2):
            for idx in combinations(range(len(rows)), size):
                part = [rows[i] for i in idx]
                if _balanced([v for r in part for v in r], t.n):
                    rest = [rows[i] for i in range(len(rows)) if i not in set(idx)]
                    return grid_tableau(t.n, part), grid_tableau(t.n, rest)
        return None
    pairs = [t.entries[2 * i] for i in range(len(t.entries) // 2)]
    for size in range(2, 2 * d + 1, 2):
        for idx in combinations(range(len(pairs)), size):
            part = [pairs[i] for i in idx]
            if _balanced(part, t.n):
                rest = [pairs[i] for i in range(len(pairs)) if i not in set(idx)]
                factor = column_tableau(t.n, [v for p in part for v in (p, p)], t.group_type)
                comp = column_tableau(t.n, [v for p in rest for v in (p, p)], t.group_type)
                return factor, comp
    return None


def format_tableau(t: Tableau) -> str:
    """Text form: a header line then one comma-separated row per line."""
    header = f"n={t.n} k={t.degree} shape={t.shape}"
    lines = [header] + [",".join(str(v) for v in row) for row in t.rows]
    return "\n".join(lines)


def parse_tableau(text: str, group_type: str = "D") -> Tableau:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise MalformedShapeError("missing header line 'n=<n> k=<k> shape=<shape>'")
    fields = dict(tok.split("=", 1) for tok in lines[0].split())
    n = int(fields["n"])
    shape = fields.get("shape", "omega_n")
    rows = tuple(tuple(int(v) for v in ln.split(",")) for ln in lines[1:])
    t = Tableau(n, shape, rows, group_type)
    if "k" in fields and t.degree != int(fields["k"]):
        raise MalformedShapeError(f"header claims degree {fields['k']}, rows give {t.degree}")
    return t


def tableau_to_json(t: Tableau) -> dict:
    return {
        "n": t.n,
        "shape": t.shape,
        "group_type": t.group_type,
        "rows": [list(row) for row in t.rows],
    }


def tableau_from_json(obj) -> Tableau:
    return Tableau(
        int(obj["n"]),
        obj["shape"],
        tuple(tuple(int(v) for v in row) for row in obj["rows"]),
        obj.get("group_type", "D"),
    )


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
