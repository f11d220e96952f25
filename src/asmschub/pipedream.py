"""Pipe dreams: staircase fillings of crosses and elbows.

A pipe dream on n strands is a set of crosses in the staircase region
{(i, j) : i + j <= n}; everything below the main antidiagonal is an
elbow.  Reading the crosses row by row from the top, right to left
within each row, gives a word in the simple transpositions whose
Demazure product is the permutation of the dream.  Reduced pipe dreams
of w index the minimal primes of the antidiagonal initial ideal of the
rank-condition ideal of w, with the facets of the associated
Stanley-Reisner complex appearing as cross-set complements.

`pipe_dreams` closes the bottom dream under ladder moves on cross masks
and keeps the dreams of PIPE_DREAM_CACHE permutations, since ASM
components repeat: 3,000 seeded 6x6 ASMs ask 10,825 times for 674
permutations.  By tracemalloc, all of S_6 holds 1.8 MiB, 720 entries of
S_7 about 6 MiB and 120 of S_8 4.6 MiB, so 720 of S_8 about 28 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .asm import _unchecked
from .monomial import _STATS, _count
from .perm import Permutation, cells_to_json, lehmer_code
from .poly import Var, z_

Cell = tuple[int, int]

PIPE_DREAM_LIMIT = 8
PIPE_DREAM_CACHE = 720  # permutations whose dreams `pipe_dreams` keeps: all of S_6


@dataclass(frozen=True)
class PipeDream:
    size: int
    crosses: tuple[Cell, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("pipe dream size must be positive")
        seen = set()
        for (i, j) in self.crosses:
            if i < 1 or j < 1 or i + j > self.size:
                raise ValueError(
                    f"cross ({i},{j}) lies outside the staircase region"
                )
            seen.add((i, j))
        if len(seen) != len(self.crosses) or tuple(sorted(seen)) != self.crosses:
            raise ValueError("crosses must be sorted and distinct")


def pipe_dream(size: int, crosses) -> PipeDream:
    """Canonicalizing constructor; accepts any iterable of cells."""
    return PipeDream(size, tuple(sorted(set(map(tuple, crosses)))))


def reading_order(cells: Sequence[Cell]) -> list[tuple[int, int]]:
    """(position in `cells`, letter) of each cell, in reading order: rows
    top to bottom, right to left within a row, and cell (i, j) read as
    s_{i+j-1}."""
    return [(k, i - nj - 1) for i, nj, k in sorted([(i, -j, k) for k, (i, j) in enumerate(cells)])]


def bottom_pipe_dream(w: Permutation) -> PipeDream:
    """Left-justified crosses: row i holds columns 1..code(w)_i."""
    code = lehmer_code(w)
    cells = [
        (i, j)
        for i, c in enumerate(code, start=1)
        for j in range(1, c + 1)
    ]
    return pipe_dream(len(w), cells)


def pipe_dreams(w: Permutation) -> tuple[PipeDream, ...]:
    """All reduced pipe dreams of w, sorted by their cross sets.

    Ladder moves (Bergeron and Billey, 1993) reach every reduced dream
    of w from the bottom one and no other, so their closure is exact.  It
    runs on cross masks, cell (i, j) at bit (i - 1) * n + j - 1: a cross
    of ``D & ~(D >> 1)`` (none east) walks up the pairs ``D >> (r - 1) *
    n + j - 1 & 3`` past doubled crosses and moves to (r, j + 1) if the
    first other pair is empty and in the staircase.  The test suite
    checks it against brute force and the minimal primes of J.  The
    result is kept in a memo of PIPE_DREAM_CACHE permutations, so a
    repeated w returns the same tuple; `collect_stats` counts those calls
    as `dream_hits`.
    """
    n = len(w)
    if n > PIPE_DREAM_LIMIT:
        raise ValueError(
            f"pipe dream enumeration is limited to n <= {PIPE_DREAM_LIMIT}"
        )
    if _STATS.get() is None:  # nobody counts the hits
        return _pipe_dreams_memo(w)
    hits = _pipe_dreams_memo.cache_info().hits
    dreams = _pipe_dreams_memo(w)
    _count(dream_hits=_pipe_dreams_memo.cache_info().hits - hits)
    return dreams


@lru_cache(maxsize=PIPE_DREAM_CACHE)
def _pipe_dreams_memo(w: Permutation) -> tuple[PipeDream, ...]:
    n = len(w)
    start = sum(1 << (i - 1) * n + j - 1 for i, j in bottom_pipe_dream(w).crosses)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for D in frontier:
            movable = D & ~(D >> 1)  # crosses with no cross east; column n holds none
            while movable:
                b = (movable & -movable).bit_length() - 1
                movable &= movable - 1
                r, c = divmod(b, n)
                for s in range(r - 1, -1, -1):  # up the pair of columns c, c + 1
                    pair = D >> s * n + c & 3
                    if pair != 3:
                        if not pair and s + c + 3 <= n and (E := D ^ 1 << b | 2 << s * n + c) not in seen:
                            seen.add(E)
                            nxt.append(E)
                        break
        frontier = nxt
    cell = [(b // n + 1, b % n + 1) for b in range(n * n)]  # one tuple per cell, shared by the dreams
    crosses = sorted(tuple(cell[b] for b in range(D.bit_length()) if D >> b & 1) for D in seen)
    return tuple(_unchecked(PipeDream, size=n, crosses=c) for c in crosses)  # staircase cells, row-major


def subword_complex_facets(w: Permutation) -> tuple[tuple[Var, ...], ...]:
    """Cross-set complements inside the full n x n grid, one per dream."""
    n = len(w)
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    facets = []
    for D in pipe_dreams(w):
        crosses = set(D.crosses)
        facets.append(
            tuple(z_(i, j) for (i, j) in grid if (i, j) not in crosses)
        )
    return tuple(facets)


def render_pipe_dream(D: PipeDream) -> str:
    crosses = set(D.crosses)
    return "\n".join(
        "".join("+" if (i, j) in crosses else "/" for j in range(1, D.size + 1))
        for i in range(1, D.size + 1)
    )


def pipe_dream_from_text(text: str) -> PipeDream:
    lines = [line for line in text.strip().splitlines()]
    n = len(lines)
    cells = []
    for i, line in enumerate(lines, start=1):
        row = line.strip()
        if len(row) != n:
            raise ValueError("pipe dream rendering must be a square grid")
        for j, ch in enumerate(row, start=1):
            if ch == "+":
                cells.append((i, j))
            elif ch != "/":
                raise ValueError(f"unexpected tile {ch!r} in pipe dream text")
    return pipe_dream(n, cells)


def pipe_dream_to_json(D: PipeDream) -> dict:
    return {"size": D.size, "crosses": cells_to_json(D.crosses)}


def pipe_dream_from_json(data: dict) -> PipeDream:
    return pipe_dream(data["size"], [tuple(c) for c in data["crosses"]])
