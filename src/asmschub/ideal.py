"""Schubert determinantal ideals and ASM ideals from rank conditions.

The generators attached to a partial alternating sign matrix are the
minors coming from its essential boxes: for each maximally-southeast
cell (i, j) of the diagram with rank bound r, all (r+1)-minors of the
northwest i x j submatrix of the generic matrix.  The boxes are read off
row masks, bit j for column j + 1: a partial ASM's column prefix sums are
0 or 1, so each row's nonzero mask flips them.  The antidiagonal
initial ideal is read off combinatorially (the generators form a
Groebner basis under any antidiagonal order).  The three diagonal
initial ideals are read off too for permutations that avoid the CDG
patterns (Klein's theorem), each minor's lead memoized by the order, its
size and its zero count per row, as rank-0 cells form a northwest shape.
Both build J on grid masks.  All else goes through the Buchberger engine,
fed the minors packed straight into its ring; for a permutation the run
is driven by the Hilbert function of its antidiagonal initial ideal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Union

from .asm import PartialASM, as_permutation, make_partial_asm, permutation_matrix
from .groebner import DEFAULT_BUDGET, Ideal, _buchberger, _leads, _packed
from .monomial import _STATS, MonomialIdeal, _count, _packed_ideal, codim as monomial_codim
from .perm import Permutation, is_cdg
from .poly import LEIBNIZ_CACHE, Polynomial, TermOrder, _collect, _leibniz, _Ring, generic_minor, lead_monomial, z_, z_grid

Schubertable = Union[PartialASM, Permutation]


@dataclass(frozen=True)
class EssentialBox:
    cell: tuple[int, int]
    rank_bound: int


def as_partial_asm(A: Schubertable) -> PartialASM:
    if isinstance(A, Permutation):
        return permutation_matrix(A)
    if isinstance(A, PartialASM):
        return A
    rows = list(A)
    if rows and isinstance(rows[0], int):
        # flat sequence of ints: one-line permutation notation
        return permutation_matrix(Permutation(tuple(rows)))
    return make_partial_asm(rows)


def asm_diagram(A: Schubertable) -> tuple[tuple[int, int], ...]:
    """Cells whose row and column prefix sums both vanish, row-major."""
    A = as_partial_asm(A)
    cells = []
    col_sums = [0] * A.ncols
    for i, row in enumerate(A.rows, start=1):
        row_sum = 0
        for j, a in enumerate(row):
            row_sum += a
            col_sums[j] += a
            if row_sum == col_sums[j] == 0:
                cells.append((i, j + 1))
    return tuple(cells)


ROW_MASK_CACHE = 512  # rows whose masks `asm_essential_boxes` keeps; every row of width 1 to 8 makes 510


@lru_cache(maxsize=ROW_MASK_CACHE)
def _row_masks(row: tuple[int, ...]) -> tuple[int, int]:
    """Masks of a row's nonzero entries and of its nonzero prefix sums, bit j for column j + 1."""
    nonzero = prefix = s = 0
    for j, a in enumerate(row):
        s += a
        nonzero |= (a != 0) << j
        prefix |= s << j
    return nonzero, prefix


def _essential_masks(A: PartialASM) -> list[tuple[int, int]]:
    """Per row, top down, the mask of its essential boxes and the mask of its
    column sums, off `_row_masks`: column prefix sums are 0 or 1, so ``cols ^=
    nonzero`` steps them and diagram row i is ``d_i = full & ~prefix & ~cols``;
    with 0 below the last row, row i's boxes are ``d_i & ~d_{i+1} & ~(d_i >>
    1)`` (no cell south or east), and (i, j)'s rank counts the 1s of ``cols``
    up to j."""
    full, cols, rows = (1 << A.ncols) - 1, 0, []
    for row in A.rows:
        nonzero, prefix = _row_masks(row)
        cols ^= nonzero
        rows.append((full & ~prefix & ~cols, cols))
    rows.append((0, 0))
    return [(d & ~below & ~(d >> 1), sums) for (d, sums), (below, _) in zip(rows, rows[1:])]


def asm_essential_boxes(A: Schubertable) -> tuple[EssentialBox, ...]:
    """Maximally-southeast diagram cells with their rank bounds, row-major, off
    `_essential_masks`."""
    boxes = []
    for i, (corners, sums) in enumerate(_essential_masks(as_partial_asm(A)), start=1):
        while corners:
            j = (corners & -corners).bit_length()
            boxes.append(EssentialBox((i, j), (sums & (1 << j) - 1).bit_count()))
            corners &= corners - 1
    return tuple(boxes)


def _minor_indices(box: EssentialBox) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Row and column index sets of the (rank+1)-minors at one box, lex."""
    (i, j), r = box.cell, box.rank_bound
    size = r + 1
    if size > min(i, j):
        return
    for rows in itertools.combinations(range(1, i + 1), size):
        for cols in itertools.combinations(range(1, j + 1), size):
            yield rows, cols


def fulton_generators(A: Schubertable) -> tuple[Polynomial, ...]:
    """All defining minors, boxes row-major, minors lex by index sets."""
    gens = [
        generic_minor(rows, cols)
        for box in asm_essential_boxes(A)
        for rows, cols in _minor_indices(box)
    ]
    return tuple(dict.fromkeys(gens))


def schubert_determinantal_ideal(A: Schubertable) -> Ideal:
    A = as_partial_asm(A)
    I = Ideal(fulton_generators(A), (A.nrows, A.ncols))
    I.cache["asm"] = A
    return I


ANTI_DIAGONAL_CACHE = 256  # boxes (i, j, size, ncols) whose masks `anti_diag_init` keeps; a 6x6 grid has 91


@lru_cache(maxsize=ANTI_DIAGONAL_CACHE)
def _anti_diagonals(i: int, j: int, size: int, ncols: int) -> tuple[int, ...]:
    """Grid masks, `ncols` columns wide, of the antidiagonals of the size-minors of the north-west i x j corner."""
    right_to_left = list(itertools.combinations(range(j - 1, -1, -1), size))
    rows = itertools.combinations(range(0, i * ncols, ncols), size)
    return tuple(sum(1 << r + c for r, c in zip(R, C)) for R in rows for C in right_to_left)


def anti_diag_init(A: Schubertable) -> MonomialIdeal:
    """Antidiagonal terms of the defining minors, minimalized.

    No Groebner computation: the generators are already a basis for
    any antidiagonal order, so their lead terms generate the initial
    ideal.  J is built on grid masks: cell (r, c) is bit (r - 1) * ncols
    + c - 1, the place of z[r,c] in `z_grid`, which is J's bit for z[r,c];
    each box's masks, kept by `_anti_diagonals`, pass to J as they are.
    """
    A = as_partial_asm(A)
    n = A.ncols
    masks = [m for box in asm_essential_boxes(A) for m in _anti_diagonals(*box.cell, box.rank_bound + 1, n)]
    return _packed_ideal(z_grid(A.nrows, n), 1, masks)


DEGENERATION_CACHE = 16  # ASMs whose J the Schubert homology calls share


@lru_cache(maxsize=DEGENERATION_CACHE)
def _degeneration_memo(M: PartialASM) -> MonomialIdeal:
    return anti_diag_init(M)  # by name, so a traced anti_diag_init sees each build


def _degeneration(M: PartialASM) -> MonomialIdeal:
    """`anti_diag_init(M)`, its primes and its certificate, built once per ASM."""
    if _STATS.get() is None:  # nobody counts the hits
        return _degeneration_memo(M)
    hits = _degeneration_memo.cache_info().hits
    J = _degeneration_memo(M)
    _count(memo_hits=_degeneration_memo.cache_info().hits - hits)
    return J


def schubert_codim(A: Schubertable) -> int:
    """Diagram size for a permutation, else the initial-ideal codimension."""
    M = as_partial_asm(A)
    if as_permutation(M) is not None:
        return len(asm_diagram(M))
    J = anti_diag_init(M)
    return 0 if J.is_zero else monomial_codim(J)


DIAG_VARIANTS = ("LexSE", "LexNW", "RevLex")


def diag_order(variant: str, m: int, n: int) -> TermOrder:
    """Term orders whose lead term on every minor is its diagonal."""
    if variant == "LexSE":
        return TermOrder("lex", z_grid(m, n)[::-1])
    if variant == "LexNW":
        return TermOrder("lex", z_grid(m, n))
    if variant == "RevLex":
        # most-penalized variable z[m,1]; within each row the western
        # entries are cheaper, rows from the top are dearer
        return TermOrder("grevlex", [z_(i, j) for i in range(1, m + 1) for j in range(n, 0, -1)])
    raise ValueError(f"unknown diagonal variant {variant!r}")


LOCAL_LEAD_CACHE = 1024  # (variant, k, mu) keys; all of S_7 under the three orders makes 546


@lru_cache(maxsize=LOCAL_LEAD_CACHE)
def _local_lead(variant: str, k: int, mu: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
    """0-based cells of the lead, or None, of a k x k minor under `variant`
    with the first mu[a] cells of each row a set to 0.  Exact for a minor on
    rows R and columns C: rank-0 cells form a northwest shape lambda, so its
    zero cells are the first mu_a = #{c in C : c <= lambda_R[a]} of each
    local row a, and each diagonal order ranks cells monotonically by row
    and by column, so on R x C it is the k x k order on local indices.  The
    minor is the shared Leibniz map less its products through a zero cell,
    as a determinant's products never cancel."""
    w = k.bit_length()
    zero = sum(1 << (a * k + b) * w for a, m in enumerate(mu) for b in range(m))
    f = _collect({m: c for m, c in _leibniz(k).items() if not m & zero}, z_grid(k, k), w)
    return None if f.is_zero else tuple((v[1] - 1, v[2] - 1) for v, _ in lead_monomial(f, diag_order(variant, k, k)))


def _cdg_init(M: PartialASM, variant: str) -> MonomialIdeal:
    """Lead terms of the CDG generators of a permutation matrix on grid masks,
    as in `anti_diag_init`: a bit per rank-0 cell (row i has the first
    min(w(1), ..., w(i)) - 1), and per Fulton minor its `_local_lead`."""
    n = M.ncols
    shape = list(itertools.accumulate((row.index(1) for row in M.rows), min))
    masks = [1 << i * n + j for i, width in enumerate(shape) for j in range(width)]
    for box in asm_essential_boxes(M):
        for rows, cols in _minor_indices(box) if box.rank_bound else ():  # rank 0: zero cells
            lead = _local_lead(variant, len(rows), tuple(bisect_right(cols, shape[r - 1]) for r in rows))
            if lead is not None:
                masks.append(sum(1 << (rows[a] - 1) * n + cols[b] - 1 for a, b in lead))
    return _packed_ideal(z_grid(M.nrows, n), 1, masks)


@lru_cache(maxsize=LEIBNIZ_CACHE)
def _leibniz_cells(k: int) -> tuple[tuple[int, itemgetter, int], ...]:
    """Each product of `_leibniz(k)`, k > 1, as its packed int, the getter of
    its k cells (row-major indices) and its sign."""
    w = k.bit_length()
    return tuple((m, itemgetter(*(at for at in range(k * k) if m >> at * w & 1)), sign) for m, sign in _leibniz(k).items())


def _fulton_entries(ring: _Ring, boxes: tuple[EssentialBox, ...]) -> list:
    """The Fulton generators as monic entries of `ring`: a variable per cell
    of a rank-0 box, then each other minor once, boxes row-major and minors
    lex, as the products of the shared Leibniz map that avoid those cells,
    each the sum of its cells' ring bits."""
    zero = {(r, c) for box in boxes if not box.rank_bound
            for r in range(1, box.cell[0] + 1) for c in range(1, box.cell[1] + 1)}
    entries = [(1 << ring.shift[z_(r, c)] | 1 << ring.deg, ()) for r, c in sorted(zero)]
    seen = set()
    for box in boxes:
        for rows, cols in _minor_indices(box) if box.rank_bound else ():
            if (rows, cols) in seen:
                continue
            seen.add((rows, cols))
            k = len(rows)
            w, cells = k.bit_length(), [(r, c) for r in rows for c in cols]
            bits = [1 << ring.shift[z_(*cell)] for cell in cells]
            off, degree = sum(1 << at * w for at, cell in enumerate(cells) if cell in zero), k << ring.deg
            if kept := {sum(get(bits)) | degree: c for m, get, c in _leibniz_cells(k) if not m & off}:
                entries.append(ring.monic(kept))
    return entries


def _fulton_init(M: PartialASM, order: TermOrder, budget: int, target: tuple[int, ...] | None) -> MonomialIdeal:
    """The initial ideal of M's Fulton ideal by `groebner._buchberger` on
    `_fulton_entries`, driven by `target` when one is given."""
    boxes, grid = asm_essential_boxes(M), z_grid(M.nrows, M.ncols)
    used = {z_(r, c) for box in boxes if box.rank_bound < min(box.cell)  # the boxes with minors
            for r in range(1, box.cell[0] + 1) for c in range(1, box.cell[1] + 1)}

    def run(ring: _Ring) -> MonomialIdeal:
        return _buchberger(ring, _fulton_entries(ring, boxes), budget,
                           lambda ring, minimal, meter: _leads(grid, ring, [lead for lead, _ in minimal]), target)

    return _packed(order, used, run)


def diag_init(
    A: Schubertable, variant: str, budget: int = DEFAULT_BUDGET
) -> MonomialIdeal:
    """Initial ideal under `diag_order(variant, ...)`, by one of two routes.

    A permutation or permutation matrix avoiding `perm.CDG_PATTERNS` takes
    `_cdg_init` and spends no `budget`: Klein, "Diagonal degenerations of
    matrix Schubert varieties" (Algebraic Combinatorics, 2023), proves the
    Conca-De Negri-Gorla conjecture that its CDG generators are a Groebner
    basis under every diagonal order.  All else (other permutations, ASMs,
    partial ASMs) runs `groebner._buchberger` under `budget` on
    `_fulton_entries`, built in its ring: a variable per rank-0 cell, which
    leaves before any pair is formed, and each other minor once, as the
    Leibniz products that avoid those cells, made monic once.

    A permutation's run is Hilbert-driven, with the K-polynomial numerator
    of J = `anti_diag_init(w)` as its target: R/I_w and R/J share a Hilbert
    series (Knutson and Miller, "Groebner geometry of Schubert polynomials",
    Annals 2005, Theorem B), so in each degree, once the leads' Hilbert
    function meets J's, the remaining pairs are skipped.  ASMs and partial
    ASMs keep the plain run, as no theorem stated here gives their Hilbert
    series.
    """
    M = as_partial_asm(A)
    if variant not in DIAG_VARIANTS:
        raise ValueError(f"unknown diagonal variant {variant!r}")
    w = A if isinstance(A, Permutation) else as_permutation(M)
    if w is not None and is_cdg(w):
        _count(route_cdg=1)
        return _cdg_init(M, variant)
    target = None if w is None else anti_diag_init(M)._numerator
    return _fulton_init(M, diag_order(variant, M.nrows, M.ncols), budget, target)
