"""Permutations in one-line notation.

Everything downstream (diagrams, determinantal ideals, pipe dreams) is built
on the combinatorics in this module: Rothe diagrams, essential sets, pattern
containment, Bruhat order by sorted prefixes, and Demazure (0-Hecke) products.
Positions and values are 1-based throughout, matching the usual conventions
for matrix coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le
from typing import Iterable, Iterator, Sequence

Cell = tuple[int, int]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored in one-line notation.

    >>> w = Permutation((2, 1, 5, 4, 3))
    >>> len(w), w(1), w(5)
    (5, 2, 3)
    """

    one_line: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.one_line)
        object.__setattr__(self, "one_line", entries)
        n = len(entries)
        if n == 0:
            raise ValueError("permutation must have at least one entry")
        seen = set()
        for v in entries:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry {v!r} is not an integer")
            if not 1 <= v <= n:
                raise ValueError(f"entry out of range: {v} not in 1..{n}")
            if v in seen:
                raise ValueError(f"duplicate entry: {v}")
            seen.add(v)

    def __len__(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        """Value w(i) at a 1-based position."""
        if not 1 <= i <= len(self.one_line):
            raise IndexError(f"position {i} outside 1..{len(self.one_line)}")
        return self.one_line[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.one_line)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.one_line)
        for i, v in enumerate(self.one_line):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for p in itertools.permutations(range(1, n + 1)):
        yield Permutation(p)


def pad(w: Permutation, n: int) -> Permutation:
    """Extend w with fixed points so it lives in S_n."""
    if n < len(w):
        raise ValueError(f"cannot pad a permutation of {len(w)} down to {n}")
    return Permutation(w.one_line + tuple(range(len(w) + 1, n + 1)))


def _trim(w: Permutation) -> Permutation:
    """w without its trailing fixed points."""
    n = max((i for i, v in enumerate(w, 1) if v != i), default=1)
    return Permutation(w.one_line[:n])


def coxeter_length(w: Permutation) -> int:
    """Number of inversions of w.

    >>> coxeter_length(Permutation((2, 1, 4, 3)))
    2
    """
    return sum(lehmer_code(w))


def descents(w: Permutation) -> tuple[int, ...]:
    """Positions i with w(i) > w(i+1), ascending."""
    line = w.one_line
    return tuple(i + 1 for i in range(len(line) - 1) if line[i] > line[i + 1])


def lehmer_code(w: Permutation) -> tuple[int, ...]:
    """code(w)_i = #{j > i : w(j) < w(i)}."""
    line = w.one_line
    return tuple(
        sum(1 for j in range(i + 1, len(line)) if line[j] < line[i])
        for i in range(len(line))
    )


def is_dominant(w: Permutation) -> bool:
    """True when the Lehmer code is weakly decreasing (Rothe diagram is a Young diagram)."""
    code = lehmer_code(w)
    return all(code[i] >= code[i + 1] for i in range(len(code) - 1))


def rothe_diagram(w: Permutation) -> tuple[Cell, ...]:
    """Cells (i, j) with w(i) > j and w^(-1)(j) > i, in row-major order.

    >>> rothe_diagram(Permutation((3, 2, 1)))
    ((1, 1), (1, 2), (2, 1))
    """
    inv = w.inverse()
    n = len(w)
    return tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if w(i) > j and inv(j) > i
    )


def essential_set(w: Permutation) -> tuple[Cell, ...]:
    """Maximally-southeast cells of the Rothe diagram, in row-major order."""
    cells = set(rothe_diagram(w))
    return tuple(
        sorted((i, j) for (i, j) in cells if (i + 1, j) not in cells and (i, j + 1) not in cells)
    )


def contains_pattern(w: Permutation, pattern: Permutation) -> bool:
    """Does some subsequence of w have the same relative order as the pattern?

    Depth-first search over position choices, pruning branches that cannot
    reach the pattern length.

    >>> contains_pattern(Permutation((2, 1, 5, 4, 3)), Permutation((2, 1, 4, 3)))
    True
    """
    line, pat = w.one_line, pattern.one_line
    n, k = len(line), len(pat)
    if k > n:
        return False

    def extend(start: int, chosen: tuple[int, ...]) -> bool:
        depth = len(chosen)
        if depth == k:
            return True
        for pos in range(start, n - (k - depth) + 1):
            v = line[pos]
            fits = all((u < v) == (pat[prev] < pat[depth]) for prev, u in enumerate(chosen))
            if fits and extend(pos + 1, chosen + (v,)):
                return True
        return False

    return extend(0, ())


def avoids_all_patterns(w: Permutation, patterns: Iterable[Permutation]) -> bool:
    """True when w contains none of the given patterns (vacuously true for none).
    A single pattern goes to the pruned search of `contains_pattern`.  For
    several, each k-subsequence of w, for each pattern length k, is
    standardized and looked up among them: one pass for all of a length."""
    lines = {p.one_line: p for p in patterns}
    if len(lines) == 1:
        return not contains_pattern(w, *lines.values())
    for k in {len(p) for p in lines}:
        for sub in itertools.combinations(w.one_line, k):
            if tuple(map(sorted((0,) + sub).index, sub)) in lines:  # ranks from 1
                return False
    return True


VEXILLARY_PATTERNS = (Permutation((2, 1, 4, 3)),)

CDG_PATTERNS = tuple(
    Permutation(p)
    for p in (
        (1, 3, 2, 5, 4),
        (2, 1, 5, 4, 3),
        (2, 1, 4, 6, 3, 5),
        (2, 1, 5, 3, 6, 4),
        (2, 1, 5, 6, 3, 4),
        (2, 4, 1, 6, 3, 5),
        (3, 1, 5, 2, 6, 4),
        (4, 2, 6, 1, 7, 3, 5),
    )
)

CARTWRIGHT_STURMFELS_PATTERNS = tuple(
    Permutation(p)
    for p in (
        (1, 2, 5, 4, 3),
        (1, 3, 2, 5, 4),
        (1, 3, 5, 2, 4),
        (1, 3, 5, 4, 2),
        (2, 1, 5, 4, 3),
        (1, 2, 5, 3, 6, 4),
        (1, 2, 5, 6, 3, 4),
        (2, 1, 5, 3, 6, 4),
        (2, 1, 5, 6, 3, 4),
        (3, 1, 5, 2, 6, 4),
        (3, 1, 5, 6, 2, 4),
        (3, 1, 5, 6, 4, 2),
    )
)

PERMUTATION_CLASSES = {
    "vexillary": VEXILLARY_PATTERNS,
    "cdg": CDG_PATTERNS,
    "cartwright-sturmfels": CARTWRIGHT_STURMFELS_PATTERNS,
}


def class_membership(w: Permutation, cls: str) -> bool:
    """Membership in a pattern-avoidance class ("vexillary", "cdg", "cartwright-sturmfels")."""
    try:
        patterns = PERMUTATION_CLASSES[cls]
    except KeyError:
        raise ValueError(f"unknown permutation class: {cls!r}") from None
    return avoids_all_patterns(w, patterns)


def is_cdg(w: Permutation) -> bool:
    return class_membership(w, "cdg")


def _tableau(line: Sequence[int]) -> list[int]:
    """The sorted first k entries of a one-line word, for k < n, put end to
    end.  The tableau criterion: u <= w in Bruhat order iff u's lie
    entrywise below w's."""
    return [v for k in range(1, len(line)) for v in sorted(line[:k])]


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order by the tableau criterion of `_tableau`.

    Inputs of different sizes are padded with fixed points first.
    """
    n = max(len(u), len(w))
    # padded as tuples: `pad` would build and validate two Permutations
    a, b = (v.one_line + tuple(range(len(v) + 1, n + 1)) for v in (u, w))
    return all(map(le, _tableau(a), _tableau(b)))


def times_transposition(w: Permutation, q: int, r: int) -> Permutation:
    """Right multiplication by the transposition t_{qr}: swap positions q and r."""
    line = list(w.one_line)
    line[q - 1], line[r - 1] = line[r - 1], line[q - 1]
    return Permutation(tuple(line))


def demazure_product(word: Sequence[int], n: int | None = None) -> Permutation:
    """0-Hecke product of the simple generators s_i in the given word.

    Folding rule: u * s_i = u s_i when that increases length, else u.

    >>> demazure_product((1, 1)).one_line
    (2, 1)
    >>> demazure_product((1, 3, 5)).one_line
    (2, 1, 4, 3, 6, 5)
    """
    if word and min(word) < 1:
        raise ValueError(f"letter {min(word)} is below 1")
    if n is None:
        n = max(word) + 1 if word else 1
    if word and max(word) + 1 > n:
        raise ValueError(f"letter {max(word)} does not fit in S_{n}")
    return Permutation(_hecke(tuple(range(1, n + 1)), word))


def _hecke(line: tuple[int, ...], word: Iterable[int]) -> tuple[int, ...]:
    """line * s_a * s_b * ... in the 0-Hecke monoid, in one-line notation."""
    out = list(line)
    for i in word:
        if out[i - 1] < out[i]:
            out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def cells_to_text(cells: Iterable[Cell]) -> str:
    """Render a cell set as {(1,1),(3,4)} in row-major order."""
    return "{" + ",".join(f"({i},{j})" for i, j in sorted(cells)) + "}"


def cells_to_json(cells: Iterable[Cell]) -> list[list[int]]:
    return [list(c) for c in cells]


def perm_from_text(text: str) -> Permutation:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return Permutation(entries)


def perm_to_json(w: Permutation) -> list[int]:
    return list(w.one_line)


def perm_from_json(data: Sequence[int]) -> Permutation:
    return Permutation(tuple(int(v) for v in data))
