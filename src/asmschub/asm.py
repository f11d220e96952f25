"""Partial alternating sign matrices and their rank tables.

A partial ASM is a rectangular {-1,0,1} matrix whose row and column
prefix sums all lie in {0,1}.  A (full) ASM is a square partial ASM
whose rows and columns each sum to 1.  Rank tables are the double
prefix sums; they form a lattice under entrywise min/max, which is what
makes sums of matrix Schubert varieties tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .perm import Permutation

ENUM_LIMIT = 7
DRAW_LIMIT = 100_000


def _as_grid(matrix: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    grid = tuple(tuple(row) for row in matrix)
    if not grid or not grid[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("matrix rows must all have the same length")
    return grid


@dataclass(frozen=True)
class PartialASM:
    """A validated partial alternating sign matrix.

    >>> PartialASM(((0, 1, 0), (1, -1, 0))).is_asm
    False
    >>> PartialASM(((1,),)).is_asm
    True
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = _as_grid(self.rows)
        object.__setattr__(self, "rows", grid)
        for i, row in enumerate(grid, start=1):
            s = 0
            for j, e in enumerate(row, start=1):
                if e not in (-1, 0, 1):
                    raise ValueError(f"entry {e!r} at ({i},{j}) not in -1,0,1")
                s += e
                if s not in (0, 1):
                    raise ValueError(f"row {i} prefix sum {s} at column {j}")
        for j in range(len(grid[0])):
            s = 0
            for i, row in enumerate(grid, start=1):
                s += row[j]
                if s not in (0, 1):
                    raise ValueError(f"column {j + 1} prefix sum {s} at row {i}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_asm(self) -> bool:
        if self.nrows != self.ncols:
            return False
        if any(sum(row) != 1 for row in self.rows):
            return False
        return all(sum(row[j] for row in self.rows) == 1 for j in range(self.ncols))

    def __call__(self, i: int, j: int) -> int:
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"position ({i},{j}) outside 1..{self.nrows} x 1..{self.ncols}")
        return self.rows[i - 1][j - 1]


def _unchecked(cls, **fields):
    """A frozen dataclass with its fields set to values valid by construction, not checked again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def make_partial_asm(matrix: Iterable[Iterable[int]]) -> PartialASM:
    return PartialASM(matrix)


@dataclass(frozen=True)
class RankTable:
    """Double prefix sums of a partial ASM.

    Validity means both discrete partials take values in {0,1}; every
    such table is the rank table of exactly one partial ASM.
    """

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = _as_grid(self.values)
        object.__setattr__(self, "values", grid)
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                up = grid[i - 1][j] if i > 0 else 0
                left = row[j - 1] if j > 0 else 0
                if v - up not in (0, 1):
                    raise ValueError(
                        f"vertical increment {v - up} at ({i + 1},{j + 1})"
                    )
                if v - left not in (0, 1):
                    raise ValueError(
                        f"horizontal increment {v - left} at ({i + 1},{j + 1})"
                    )

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def ncols(self) -> int:
        return len(self.values[0])

    def __call__(self, i: int, j: int) -> int:
        # zero on row and column 0, the grid's northwest edge, handy for corner sums
        if not (0 <= i <= self.nrows and 0 <= j <= self.ncols):
            raise IndexError(f"position ({i},{j}) outside 0..{self.nrows} x 0..{self.ncols}")
        if i == 0 or j == 0:
            return 0
        return self.values[i - 1][j - 1]


def rank_table(A: PartialASM) -> RankTable:
    """Rank table of a partial ASM: rk(a,b) = sum of A over the NW a x b corner.

    >>> rank_table(PartialASM(((0, 1, 0), (1, -1, 0)))).values
    ((0, 1, 1), (1, 1, 1))
    """
    out = []
    col_acc = [0] * A.ncols
    for row in A.rows:
        acc = 0
        line = []
        for j, e in enumerate(row):
            col_acc[j] += e
            acc += col_acc[j]
            line.append(acc)
        out.append(tuple(line))
    return _unchecked(RankTable, values=tuple(out))  # A has checked these row and column prefix sums


def rank_table_to_asm(T: RankTable) -> PartialASM:
    """Inverse of rank_table: inclusion-exclusion on the corner sums."""
    rows = []
    for i in range(1, T.nrows + 1):
        rows.append(
            tuple(
                T(i, j) - T(i - 1, j) - T(i, j - 1) + T(i - 1, j - 1)
                for j in range(1, T.ncols + 1)
            )
        )
    return PartialASM(tuple(rows))


def rank_table_from_matrix(matrix: Iterable[Iterable[int]]) -> RankTable:
    """Greatest valid rank table lying entrywise below the given grid.

    Valid tables below a fixed grid are closed under entrywise max, so
    the greatest one exists.  Two passes reach it: from the south-east,
    each entry drops to the entries below and to its right; then from
    the north-west, to 1 + the entries above and to its left.  Acting on
    a table that is already valid changes nothing.

    >>> rank_table_from_matrix([[0, 1, 2], [0, 4, 1], [8, 2, 4]]).values
    ((0, 1, 1), (0, 1, 1), (1, 2, 2))
    """
    grid = _as_grid(matrix)
    m, n = len(grid), len(grid[0])
    if any(v < 0 for row in grid for v in row):
        raise ValueError("matrix entries must be nonnegative")
    # a row and a column of m + n close both ends: index -1 reads them too
    r = [[min(v, i + 1, j + 1) for j, v in enumerate(row)] + [m + n] for i, row in enumerate(grid)] + [[m + n] * (n + 1)]
    for i in reversed(range(m)):
        for j in reversed(range(n)):
            r[i][j] = min(r[i][j], r[i + 1][j], r[i][j + 1])
    for i in range(m):
        for j in range(n):
            r[i][j] = min(r[i][j], r[i - 1][j] + 1, r[i][j - 1] + 1)
    return RankTable(tuple(tuple(row[:n]) for row in r[:m]))


def entrywise_extreme_rank_table(
    tables: Sequence[RankTable], mode: str
) -> RankTable:
    """Entrywise min or max of rank tables of equal shape.

    Both operations preserve validity: if each argument has 0/1
    increments, so does the pointwise extreme.
    """
    if not tables:
        raise ValueError("need at least one rank table")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    shape = (tables[0].nrows, tables[0].ncols)
    if any((t.nrows, t.ncols) != shape for t in tables):
        raise ValueError("rank tables must share dimensions")
    pick = min if mode == "min" else max
    vals = tuple(
        tuple(pick(t.values[i][j] for t in tables) for j in range(shape[1]))
        for i in range(shape[0])
    )
    return RankTable(vals)


def _fill(A: PartialASM, k: int) -> PartialASM:
    """A as the NW corner of a k x k ASM, for k >= ncols + the number z of
    rows of A summing to 0: each such row takes a 1 in the next new column,
    then each column summing to 0 (a 1 and a -1 may cancel) one in the next
    new row.  A's rows sum to m - z and its columns to n - c0, so the
    c0 + k - n - z zero columns meet the k - m new rows one to one."""
    m, n = A.nrows, A.ncols
    rows = [list(row) + [0] * (k - n) for row in A.rows] + [[0] * k for _ in range(k - m)]
    for j, row in enumerate((row for row in rows[:m] if sum(row) == 0), start=n):
        row[j] = 1
    new_rows = iter(rows[m:])
    for j in range(k):
        if sum(row[j] for row in rows) == 0:
            next(new_rows)[j] = 1
    return PartialASM(tuple(map(tuple, rows)))


def complete_asm(A: PartialASM) -> PartialASM:
    """The smallest ASM with A as its NW corner: `_fill` at ncols + z.

    No completion is smaller: in a k x k one the new-column entries of A's
    rows sum to z, and a new column holds at most 1 of that, as its prefix
    sums lie in {0, 1}; so k >= ncols + z.

    >>> complete_asm(PartialASM(((0,),))).rows
    ((0, 1), (1, 0))
    """
    if A.is_asm:
        return A
    return _fill(A, A.ncols + sum(sum(row) == 0 for row in A.rows))


def pad_asm(A: PartialASM, n: int) -> PartialASM:
    """Pad a full ASM to size n: `_fill` puts the new 1s on the new diagonal."""
    if not A.is_asm:
        raise ValueError("can only pad a full ASM")
    if n < A.nrows:
        raise ValueError(f"target size {n} smaller than matrix size {A.nrows}")
    return _fill(A, n)


def _common_square(matrices: Sequence[PartialASM]) -> list[PartialASM]:
    """Each matrix completed, then all padded to the largest completed size."""
    completed = [complete_asm(A) for A in matrices]
    size = max(A.nrows for A in completed)
    return [pad_asm(A, size) for A in completed]


def asm_sum(asms: Sequence[PartialASM]) -> PartialASM:
    """ASM whose rank table is the entrywise min of the summands' tables,
    taken over their `_common_square` shapes."""
    if not asms:
        raise ValueError("need at least one summand")
    tables = [rank_table(A) for A in _common_square(asms)]
    return rank_table_to_asm(entrywise_extreme_rank_table(tables, "min"))


def permutation_matrix(w: Permutation) -> PartialASM:
    cols = range(1, len(w) + 1)
    return _unchecked(PartialASM, rows=tuple(tuple(int(j == v) for j in cols) for v in w.one_line))


def as_permutation(A: PartialASM) -> Permutation | None:
    """The permutation of a permutation matrix, else None, in one pass: a partial
    ASM is one when it is square and every row holds a 1 and no -1, as its
    column prefix sums then allow at most one 1 per column."""
    if A.nrows != A.ncols:
        return None
    line = []
    for row in A.rows:
        if -1 in row or 1 not in row:
            return None
        line.append(row.index(1) + 1)
    return _unchecked(Permutation, one_line=tuple(line))


def _transitions(n: int) -> dict[tuple[int, ...], list]:
    """Column-sum state -> [(row, next state)], rows in lexicographic order.

    A state is the tuple of running column sums, each 0 or 1; a row grows
    an entry at a time, keeping its prefix sums and the column sums in {0, 1}.
    """
    table: dict[tuple[int, ...], list] = {}
    todo = [(0,) * n]
    while todo:
        state = todo.pop()
        if state in table:
            continue
        moves = [((), 0)]
        for c in state:
            moves = [(row + (e,), s + e) for row, s in moves for e in (-1, 0, 1) if s + e in (0, 1) and c + e in (0, 1)]
        table[state] = [(row, tuple(c + e for c, e in zip(state, row))) for row, s in moves if s == 1]
        todo.extend(nxt for _, nxt in table[state])
    return table


@lru_cache(maxsize=1)
def _enumerate(n: int) -> tuple[PartialASM, ...]:
    # every row sums to 1, so after n rows the n column sums are all 1:
    # each path of length n through the table is an ASM, none dead-ends: none is validated again
    table = _transitions(n)
    out: list[PartialASM] = []

    def place(chosen: tuple, state: tuple[int, ...]):
        if len(chosen) == n:
            out.append(_unchecked(PartialASM, rows=chosen))
            return
        for row, nxt in table[state]:
            place(chosen + (row,), nxt)

    place((), (0,) * n)
    return tuple(out)


def enumerate_asms(n: int, force: bool = False) -> list[PartialASM]:
    """All n x n ASMs in row-major lexicographic order on entries.

    Sizes above 7 are refused unless force is set.  Only the most
    recent size is kept in memory.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_LIMIT and not force:
        raise ValueError(f"n = {n} exceeds the enumeration guard ({ENUM_LIMIT}); pass force to override")
    return list(_enumerate(n))


def random_asms(n: int, m: int, seed: int, replace: bool = True) -> list[PartialASM]:
    """m ASMs of size n drawn uniformly from the full enumeration.

    Sizes and counts that no draw can take, and counts above DRAW_LIMIT,
    are refused before anything is allocated.
    """
    if n > ENUM_LIMIT:
        raise ValueError(f"n = {n} exceeds the enumeration guard ({ENUM_LIMIT})")
    if m < 0:
        raise ValueError(f"count m = {m} must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if m > DRAW_LIMIT:
        raise ValueError(f"count m = {m} exceeds the draw guard ({DRAW_LIMIT})")
    pool = enumerate_asms(n)
    rng = random.Random(seed)
    if replace:
        return [pool[rng.randrange(len(pool))] for _ in range(m)]
    if m > len(pool):
        raise ValueError(
            f"count m = {m} exceeds the {len(pool)} ASMs of size {n};"
            " draw with replacement"
        )
    return rng.sample(pool, m)


def matrix_from_text(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows of space-separated integers, separated by newlines or by ';'.

    >>> matrix_from_text("0 1 0;1 -1 1")
    ((0, 1, 0), (1, -1, 1))
    """
    try:
        rows = [
            tuple(int(tok) for tok in line.split())
            for line in text.replace(";", "\n").splitlines()
            if line.strip()
        ]
    except ValueError:
        raise ValueError(
            "cannot parse matrix: expected rows of space-separated "
            "integers, separated by newlines or by ';'"
        ) from None
    return _as_grid(rows)


def asm_to_json(A: PartialASM) -> list[list[int]]:
    return [list(row) for row in A.rows]


def asm_from_json(data: Sequence[Sequence[int]]) -> PartialASM:
    return PartialASM(data)


def rank_table_to_json(T: RankTable) -> list[list[int]]:
    return [list(row) for row in T.values]


def rank_table_from_json(data: Sequence[Sequence[int]]) -> RankTable:
    return RankTable(data)
