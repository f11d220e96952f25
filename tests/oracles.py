"""Slow reference routes that the tests compare the library against.

The library does not call any of these.  Each answers a question the
library answers faster by another route, and exists to cross-check it:

- `perm_set_brute_force` scans all of S_n in Bruhat order, against
  `perm_set_of_asm` (a search over rows that keeps each lower cover
  broken);
- `perm_set_by_top_primes` folds out every minimal prime of the
  antidiagonal initial ideal J and reads each top-justified one through
  `_top_dream`, the route `perm_set_of_asm` took before its row search,
  against that search, order and sizes included;
- `complete_asm_by_search` tries a greedy fill at each size from
  max(m, n), or from a given size, up to m + n and keeps the first ASM
  it gives, against the one size of `complete_asm` and the new diagonal
  of `pad_asm`, both filled by `_fill`;
- `rank_table_by_fixpoint` lowers every entry to its neighbours' bounds
  until nothing changes, against the two passes of
  `rank_table_from_matrix`;
- `components_by_primes` lists the minimal primes as variable tuples and
  takes the Demazure product of each, against `schubert_decompose`,
  which reads prime masks and builds one `Permutation` per component;
- `vertex_decomposition_h` searches afresh for a pure vertex
  decomposition on each call, against the search a `MonomialIdeal`
  keeps for `vertex_decomposition_reg`;
- `determinantal_ideal_from_cells` takes the minors at every given
  cell, against the essential-box generators;
- `essential_boxes_by_definition` reads the maximally southeast cells
  off the whole diagram and the rank table, and `essential_boxes_by_scan`
  scans the rows entry by entry, against the row masks of
  `asm_essential_boxes`;
- `reisner_is_cm` recurses over vertex links, against the Betti-table
  test `is_cm_quotient`;
- `collapse_points_by_rescan` recomputes every incidence after each
  deletion and rescans from the first point, against the scan of
  `_collapse_points`, which resumes at the lowest point of a mask that
  went, and `transpose` swaps points and sets to give it families of
  another shape;
- `plain_gf2_ranks` reduces every row of every boundary map, against
  the cleared GF(2) ranks of `_boundary_ranks`;
- `int_rank` is integer elimination on unit pivots, and
  `plain_exact_ranks` ranks every map of `signed_boundary_rows` with it,
  no row cleared, against the rational top-column elimination and
  clearing of `_pivots` and `_boundary_ranks`;
- `family_rank_key`, `dense_display_sort` and `nested_term_key` spell
  out the variable, term and term-order comparisons that plain tuple
  order and the packed ring key now give the library;
- `substitute`, `map_variables` and `swap_variables` evaluate a
  polynomial term by term, against the divided differences and the
  y-free parts of double Schubert polynomials;
- `anti_diag_init_by_tuples` builds one monomial tuple per minor and
  passes them to `monomial_ideal_by_exponents`, which minimalizes by
  pairwise exponent divisibility and builds the support masks from the
  kept tuples, against `anti_diag_init` and `monomial_ideal` on grid
  masks and packed ints; `cover_masks_all_pairs` compares each extension
  with every old cover, against the single-bit test of `_cover_masks`;
- `initial_ideal_by_reduced_basis` computes the reduced basis, without
  touching the ideal's cache, and decodes the lead of each member with
  `lead_monomial`, against `initial_ideal`, which moves the packed leads
  of the minimal basis, or of a reduced basis in the ideal's cache, to
  their grid fields undecoded;
- `minor_lead_by_expansion` expands a minor with some cells set to 0
  term by term and takes the largest monomial by `nested_term_key`,
  and `cdg_init_by_matchings` runs it on every Fulton minor with its own
  rows, columns and the rank-0 cells of the rank table (the minor's
  monomials are the row-column matchings off those cells), against
  `_cdg_init`, which reads each lead off the `_local_lead` memo, whose
  leads come off the masked Leibniz map and the ring key;
- `radical` and `intersect_monomial_ideals` build those monomial
  ideals from generators, which the library never needs:
  `minimal_primes` reads the radical off support masks, and ideals are
  intersected through Groebner bases by `intersect_ideals`;
- `sorted_product` multiplies term by term through `monomial`'s
  sort-and-merge, against the sums of packed ints in
  `Polynomial.__mul__`;
- `mono_mul`, `pair_difference` and `pair_display_sort` are the kernels
  of pair-tuple monomials that `Polynomial` used before it packed its
  monomials into ints: a product monomial is one merge of two sorted
  pair tuples, a divided difference splices new x_i, x_{i+1} pairs into
  each monomial after one bisection, and the display order sorts by the
  reversed pair tuples, then stably by degree.  They are checked against
  `*`, `+`, `-`, `divided_difference`, `isobaric_divided_difference` and
  `terms`;
- `mono_divides`, `mono_div` and `mono_lcm` work on monomials as
  tuples of pairs, against the packed-int divisibility, quotient and
  lcm inside `groebner`;
- `minimal_generators_by_rebuild` computes the basis of the generators
  kept so far afresh before every candidate, against `minimal_generators`,
  which computes it once per kept generator;
- `bruhat_leq_by_ranks` compares the northwest rank tables of two
  permutations, against the sorted prefixes of `bruhat_leq`;
- `pipe_dreams_non_reduced` lists every subset of the staircase and keeps
  those whose Demazure product is w, and `grothendieck_by_brute_force`
  sums their signed weights, against the 0-Hecke state sum of
  `grothendieck_polynomial(w, "PipeDream")`;
- `double_schuberts_by_reduced_dreams` sums x_i - y_j over the crosses of
  reduced pipe dreams, against the divided differences of
  `double_schubert_polynomial`, y terms included;
- `double_staircase_by_factors` multiplies the product of (x_i - y_j)
  over i + j <= n one factor at a time, top row first, against the row
  products of `_double_staircase`, multiplied from the bottom row up.

The rest are small readers that only the tests need: `walks` (seeded
ASMs of any size, rows drawn through the transition table),
`lower_covers` (the lower covers of a one-line word in Bruhat order),
`longest_element`,
`reading_word` and `permutation_of` (a dream's letters in reading order
and their Demazure product), `is_reduced`, `cross_monomial` (the weight x^D of a pipe dream),
`maximal_masks` (the maximal sets of a family, which the homology kernel
takes), `reduced_homology_ranks` (the homology kernel on a simplicial complex),
`pdim_quotient` (read off a full Betti table), `betti_to_text` and
`betti_to_json`, and `matrix_to_text` and `perm_to_text`, which write
what `matrix_from_text` and `perm_from_text` read back.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import le
from typing import Iterable, Iterator, Mapping

from asmschub.asm import (
    PartialASM,
    _transitions,
    as_permutation,
    complete_asm,
    make_partial_asm,
    permutation_matrix,
    rank_table,
)
from asmschub.decomp import _top_dream
from asmschub.groebner import DEFAULT_BUDGET, Ideal, _Meter, buchberger, canonical_order, normal_form
from asmschub.ideal import (
    EssentialBox,
    Schubertable,
    _minor_indices,
    anti_diag_init,
    as_partial_asm,
    asm_diagram,
    asm_essential_boxes,
)
from asmschub.monomial import (
    DEFAULT_FACE_LIMIT,
    MonomialIdeal,
    SimplicialComplex,
    _count,
    _homology_of_union,
    _minimal_sets,
    _require_squarefree,
    _vd_search,
    betti_numbers,
    minimal_primes,
    monomial_ideal,
)
from asmschub.perm import Permutation, all_permutations, coxeter_length, demazure_product, pad
from asmschub.pipedream import PipeDream, reading_order
from asmschub.poly import (
    ONE,
    ZERO,
    Monomial,
    Polynomial,
    TermOrder,
    Var,
    constant,
    generic_minor,
    lead_monomial,
    monomial,
    mono_degree,
    mono_support,
    term,
    var_to_text,
    variable,
    x_,
    y_,
    z_,
)


@lru_cache(maxsize=8)
def _flat_rank_tables(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The rank table of each permutation of S_n, rows concatenated."""
    return {w.one_line: sum(rank_table(permutation_matrix(w)).values, ()) for w in all_permutations(n)}


def lower_covers(line: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """w t_ij for each inversion i < j of w with no value of w between
    w(j) and w(i) at the positions between them: one inversion fewer."""
    for i, j in combinations(range(len(line)), 2):
        if line[i] > line[j] and not any(line[j] < line[k] < line[i] for k in range(i + 1, j)):
            yield line[:i] + (line[j],) + line[i + 1 : j] + (line[i],) + line[j + 1 :]


def walks(n: int, count: int, seed: int) -> list[PartialASM]:
    """`count` n x n ASMs, each a walk of n rows through `_transitions(n)`
    drawn by `random.Random(seed)`: every path of n rows is an ASM, though
    the draw is not uniform.  They reach sizes `random_asms` refuses."""
    rng, table = random.Random(seed), _transitions(n)
    out = []
    for _ in range(count):
        rows, state = [], (0,) * n
        for _ in range(n):
            row, state = rng.choice(table[state])
            rows.append(row)
        out.append(make_partial_asm(rows))
    return out


def perm_set_brute_force(A: PartialASM, max_size: int = 5) -> list[Permutation]:
    """Bruhat-minimal permutations whose rank table is bounded by A's.

    Exhaustive scan of S_n, so the completed size must stay at most
    `max_size`.  A larger permutation in Bruhat order has smaller ranks,
    so the bounded permutations form an up-set, and one of them is
    minimal when none of its lower covers is bounded.
    """
    B = complete_asm(A)
    n = B.nrows
    if n > max_size:
        raise ValueError(f"brute force limited to n <= {max_size}, got {n}")
    bound = sum(rank_table(B).values, ())
    above = {w for w, t in _flat_rank_tables(n).items() if all(map(le, t, bound))}
    minimal = [w for w in above if not any(u in above for u in lower_covers(w))]
    return [Permutation(w) for w in sorted(minimal)]


def perm_set_by_top_primes(A: Schubertable) -> tuple[Permutation, ...]:
    """The components of an ASM read off J = `anti_diag_init`: a prime mask p
    of J is top-justified when ``not p >> ncols & ~p`` (no cross below a
    non-cross), each component has one such prime, its top pipe dream, and
    `_top_dream` reads w, its least size and the prime's sort key off it."""
    M = as_partial_asm(A)
    if (w := as_permutation(M)) is not None:
        return (w,)
    J, m, n = anti_diag_init(M), M.nrows, M.ncols
    tops = sorted((_top_dream(p, m, n) for p in J._primes if not p >> n & ~p), key=lambda top: top[2])
    N = max(size for _, size, _ in tops)
    return tuple(w if size == N else pad(w, N) for w, size, _ in tops)


def complete_asm_by_search(A: PartialASM, start: int | None = None) -> PartialASM:
    """The first k x k ASM, k from `start` (default max(m, n)) up, whose NW
    corner is A, by a greedy fill: rows of A summing to 0 take a 1 in the
    first unused new column, then columns summing to 0 in the first unused
    new row, and a size where either runs out is skipped."""
    m, n = A.nrows, A.ncols
    start = max(m, n) if start is None else start
    for k in range(start, max(start, m + n) + 1):
        grid = [[A(i + 1, j + 1) if i < m and j < n else 0 for j in range(k)] for i in range(k)]
        next_col = n
        for i in range(m):
            if sum(grid[i]) == 0 and next_col < k:
                grid[i][next_col] = 1
                next_col += 1
        free_rows = [i for i in range(m, k) if sum(grid[i]) == 0]
        for j in range(k):
            if sum(grid[i][j] for i in range(k)) == 0 and free_rows:
                grid[free_rows.pop(0)][j] = 1
        done = PartialASM(tuple(tuple(row) for row in grid))
        if done.is_asm:
            return done
    raise ValueError(f"no completion of size {start} to {max(start, m + n)}")


def rank_table_by_fixpoint(grid: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The greatest valid rank table below a nonnegative grid, by lowering
    entries to their neighbours' bounds until nothing changes."""
    m, n = len(grid), len(grid[0])
    r = [[min(grid[i][j], i + 1, j + 1) for j in range(n)] for i in range(m)]
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(n):
                v = r[i][j]
                if i > 0:
                    v = min(v, r[i - 1][j] + 1)
                if j > 0:
                    v = min(v, r[i][j - 1] + 1)
                if i + 1 < m:
                    v = min(v, r[i + 1][j])
                if j + 1 < n:
                    v = min(v, r[i][j + 1])
                if v < r[i][j]:
                    r[i][j] = v
                    changed = True
    return tuple(map(tuple, r))


def components_by_primes(J: MonomialIdeal) -> tuple[Permutation, ...]:
    """The components of `schubert_decompose(J)`, read one minimal prime
    at a time: the Demazure product of the prime's cells in reading order
    (rows down, right to left), first occurrences kept."""
    grid = max((max(v[1], v[2]) for v in J.variables), default=1)
    if J.is_zero:
        return (Permutation(tuple(range(1, grid + 1))),)
    primes = minimal_primes(J)
    n = max(grid, max(v[1] + v[2] - 1 for P in primes for v in P) + 1)
    out: list[Permutation] = []
    for P in primes:
        cells = sorted(((v[1], v[2]) for v in P), key=lambda c: (c[0], -c[1]))
        w = demazure_product(tuple(i + j - 1 for (i, j) in cells), n)
        if w not in out:
            out.append(w)
    return tuple(out)


def determinantal_ideal_from_cells(
    A: Schubertable, cells: Iterable[tuple[int, int]]
) -> Ideal:
    """Ideal of all (rank+1)-minors at the given cells; used to certify
    that the essential boxes lose nothing."""
    A = as_partial_asm(A)
    T = rank_table(A)
    gens = [
        generic_minor(rows, cols)
        for (i, j) in cells
        for rows, cols in _minor_indices(EssentialBox((i, j), T(i, j)))
    ]
    return Ideal(tuple(dict.fromkeys(gens)), (A.nrows, A.ncols))


def essential_boxes_by_definition(A: Schubertable) -> tuple[EssentialBox, ...]:
    """The diagram cells with no diagram cell just south or just east,
    row-major, each with its entry of the rank table."""
    A = as_partial_asm(A)
    cells = set(asm_diagram(A))
    T = rank_table(A)
    return tuple(
        EssentialBox((i, j), T(i, j))
        for (i, j) in sorted(cells)
        if (i + 1, j) not in cells and (i, j + 1) not in cells
    )


def essential_boxes_by_scan(A: Schubertable) -> tuple[EssentialBox, ...]:
    """The boxes in one pass over the rows, entry by entry: a row's diagram
    flags and corner sums wait for the flags below, and below the last row
    comes one whose prefix sums are not 0."""
    A = as_partial_asm(A)
    n = A.ncols
    cols, ranks, above, boxes = [0] * n, [0] * n, [False] * (n + 1), []
    for i, row in enumerate((*A.rows, (1,) * n)):
        s, flags = 0, [False] * (n + 1)
        for j, a in enumerate(row):
            s += a
            cols[j] += a
            flags[j] = s == cols[j] == 0
            if above[j] and not flags[j] and not above[j + 1]:
                boxes.append(EssentialBox((i, j + 1), ranks[j]))
            ranks[j] += s
        above = flags
    return tuple(boxes)


def reisner_is_cm(K: SimplicialComplex) -> bool:
    """Reisner's criterion by recursion over vertex links.

    A complex is Cohen-Macaulay over the rationals iff its reduced
    homology vanishes below the top dimension and every vertex link is
    again Cohen-Macaulay.
    """
    pos = {v: i for i, v in enumerate(K.vertices)}
    masks = [sum(1 << pos[v] for v in f) for f in K.facets]
    memo: dict[frozenset, bool] = {}

    def check(family: tuple[int, ...], npoints: int) -> bool:
        family = tuple(maximal_masks(family))
        key = frozenset(family)
        if key in memo:
            return memo[key]
        dim = max(bin(m).count("1") for m in family) - 1
        hom = _homology_of_union(list(family), DEFAULT_FACE_LIMIT)
        ok = all(d == dim for d in hom)
        if ok and dim > 0:
            used = 0
            for m in family:
                used |= m
            for u in range(npoints):
                bit = 1 << u
                if not used & bit:
                    continue
                link = [m & ~bit for m in family if m & bit]
                if not check(tuple(link), npoints):
                    ok = False
                    break
        memo[key] = ok
        return ok

    if not masks:
        return True
    return check(tuple(masks), len(K.vertices))


def radical(J: MonomialIdeal) -> MonomialIdeal:
    return monomial_ideal(
        (tuple((v, 1) for v in mono_support(m)) for m in J.generators),
        J.variables,
    )


def intersect_monomial_ideals(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    ambient = set(I.variables) | set(J.variables)
    return monomial_ideal(
        (mono_lcm(f, g) for f in I.generators for g in J.generators), ambient
    )


def minimalize_by_exponents(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The minimal monomials by pairwise exponent divisibility, sorted."""
    monos = set(monos)
    return tuple(sorted(m for m in monos if not any(o != m and mono_divides(o, m) for o in monos)))


def monomial_ideal_by_exponents(
    monos: Iterable[Monomial], variables: Iterable[Var] | None = None
) -> tuple[tuple[Monomial, ...], tuple[Var, ...], tuple[int, ...]]:
    """What `monomial_ideal` holds, through exponent tuples alone: the minimal
    monomials by pairwise divisibility, sorted; the sorted ambient variables,
    by default those the minimal ones use; and the support masks over the
    ambient, bit k for the k-th, in the order of the exponent vectors read
    from the last variable down, which is the order of the packed ints."""
    monos = list(monos)
    gens = minimalize_by_exponents(monos)
    used = {v for m in (gens if variables is None else monos) for v in mono_support(m)}
    ambient = tuple(sorted(used if variables is None else set(variables)))
    if not used <= set(ambient):
        raise ValueError("generators use variables outside the ambient set")
    by_int = sorted(gens, key=lambda m: [dict(m).get(v, 0) for v in reversed(ambient)])
    return gens, ambient, tuple(sum(1 << ambient.index(v) for v in mono_support(m)) for m in by_int)


def antidiagonal_monomial(rows: tuple[int, ...], cols: tuple[int, ...]) -> Monomial:
    # rows ascend, so the pairs are already in monomial order
    return tuple((z_(r, c), 1) for r, c in zip(rows, reversed(cols)))


def anti_diag_init_by_tuples(A: Schubertable) -> tuple:
    """The antidiagonal initial ideal from one monomial tuple per minor."""
    A = as_partial_asm(A)
    monos = [antidiagonal_monomial(rows, cols) for box in asm_essential_boxes(A) for rows, cols in _minor_indices(box)]
    return monomial_ideal_by_exponents(monos, [z_(i, j) for i in range(1, A.nrows + 1) for j in range(1, A.ncols + 1)])


def initial_ideal_by_reduced_basis(I: Ideal, order: TermOrder, budget: int = DEFAULT_BUDGET) -> MonomialIdeal:
    """The leads of the reduced basis of I's generators, as a monomial ideal
    in I's ambient grid; I's cache is neither read nor filled."""
    m, n = I.ambient
    basis = buchberger(list(I.generators), order, budget)
    return monomial_ideal((lead_monomial(g, order) for g in basis), [z_(i, j) for i in range(1, m + 1) for j in range(1, n + 1)])


def minor_lead_by_expansion(rows, cols, zero, order: TermOrder) -> Monomial | None:
    """The largest monomial, by `nested_term_key`, of the minor on rows and
    cols with the `zero` cells set to 0, or None when no term is left."""
    monos = [m for m, _ in generic_minor(rows, cols).terms if not any(v[1:] in zero for v, _ in m)]
    return max(monos, key=lambda m: nested_term_key(order, m), default=None)


def cdg_init_by_matchings(M: PartialASM, order: TermOrder) -> tuple:
    """The variables at rank-0 cells, and the lead of every Fulton minor
    with those cells set to 0, each through `minor_lead_by_expansion` afresh."""
    T = rank_table(M)
    cells = [(i, j) for i in range(1, M.nrows + 1) for j in range(1, M.ncols + 1)]
    zero = {cell for cell in cells if T(*cell) == 0}
    leads = [minor_lead_by_expansion(rows, cols, zero, order) for box in asm_essential_boxes(M) for rows, cols in _minor_indices(box)]
    gens = [((z_(*cell), 1),) for cell in zero] + [m for m in leads if m is not None]
    return monomial_ideal_by_exponents(gens, [z_(*cell) for cell in cells])


def cover_masks_all_pairs(supports: Iterable[int]) -> list[int]:
    """Berge multiplication that compares each extension with every cover
    that already hits the new support; each round's covers are sorted by
    size through a set copy, so callers compare them sorted."""
    covers = [0]
    for s in _minimal_sets(supports):
        grown, old = set(), []
        for c in covers:
            if c & s:
                grown.add(c)
                old.append(c)
            else:
                bits = s
                while bits:
                    bit = bits & -bits
                    grown.add(c | bit)
                    bits &= bits - 1
        covers = [m for m in sorted(set(grown), key=int.bit_count) if m in old or not any(m & o == o for o in old)]
    return covers


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks of the family that lie in no other, largest first."""
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m | o == o for o in out):
            out.append(m)
    return out


def collapse_points_by_rescan(masks: list[int], npoints: int) -> tuple[list[int], int]:
    """Strong collapses that rebuild every incidence after each deletion
    and rescan the points from the first."""
    while True:
        used = 0
        for m in masks:
            used |= m
        points = [u for u in range(npoints) if used >> u & 1]
        incidence = {
            u: sum(1 << i for i, m in enumerate(masks) if m >> u & 1)
            for u in points
        }
        victim = None
        for u in points:
            for u2 in points:
                if u2 == u:
                    continue
                if not incidence[u] & ~incidence[u2]:
                    victim = u
                    break
            if victim is not None:
                break
        if victim is None:
            remap = {u: k for k, u in enumerate(points)}
            out = []
            for m in masks:
                nm = 0
                for u in points:
                    if m >> u & 1:
                        nm |= 1 << remap[u]
                out.append(nm)
            return maximal_masks(out), len(points)
        keep = ~(1 << victim)
        masks = maximal_masks([m & keep for m in masks])


def transpose(masks: list[int], npoints: int) -> tuple[list[int], int]:
    """The maximal sets of the family with points and sets swapped: set k
    of the result holds the masks that contain point k."""
    flipped = [sum(1 << i for i, m in enumerate(masks) if m >> u & 1) for u in range(npoints)]
    return maximal_masks(flipped), len(masks)


def plain_gf2_ranks(by_size: dict[int, list[int]]) -> dict[int, int]:
    """GF(2) rank of every boundary map, each row reduced in full."""
    ranks: dict[int, int] = {}
    for k, faces in by_size.items():
        if k == 0:
            continue
        below = {m: i for i, m in enumerate(by_size.get(k - 1, []))}
        pivots: dict[int, int] = {}
        for m in faces:
            r = 0
            sub = m
            while sub:
                bit = sub & -sub
                r |= 1 << below[m & ~bit]
                sub &= sub - 1
            while r:
                top = r.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    pivots[top] = r
                    break
                r ^= p
        ranks[k] = len(pivots)
    return ranks


def int_rank(rows: list[dict[int, int]]) -> int:
    """Rational rank of integer rows {column: entry}.  Each step takes the
    shortest row with a unit entry (else the shortest row) as the pivot,
    at its least unit column, eliminates that column from the other rows
    fraction-free, and divides each new row by the gcd of its entries."""
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        best = min(
            range(len(rows)),
            key=lambda k: (not any(abs(v) == 1 for v in rows[k].values()), len(rows[k])),
        )
        pivot_row = rows.pop(best)
        unit_cols = [c for c, v in pivot_row.items() if abs(v) == 1]
        col = min(unit_cols) if unit_cols else min(pivot_row)
        pv = pivot_row[col]
        rank += 1
        new_rows = []
        for r in rows:
            v = r.get(col)
            if v is None:
                new_rows.append(r)
                continue
            merged = {}
            for c, a in r.items():
                merged[c] = a * pv
            for c, b in pivot_row.items():
                s = merged.get(c, 0) - b * v
                if s:
                    merged[c] = s
                else:
                    merged.pop(c, None)
            if merged:
                g = 0
                for a in merged.values():
                    g = gcd(g, a)
                if g > 1:
                    merged = {c: a // g for c, a in merged.items()}
                new_rows.append(merged)
        rows = new_rows
    return rank


def signed_boundary_rows(by_size: dict[int, list[int]]) -> dict[int, list[dict[int, int]]]:
    """Every boundary map, by face size, as rows {column: +-1}, none
    cleared.  The row of a face has sign (-1)^s at the facet missing its
    s-th point."""
    maps = {}
    for k, faces in by_size.items():
        if k:
            below = {m: i for i, m in enumerate(by_size.get(k - 1, []))}
            points = [[u for u in range(m.bit_length()) if m >> u & 1] for m in faces]
            maps[k] = [{below[m ^ 1 << u]: (-1) ** s for s, u in enumerate(us)} for m, us in zip(faces, points)]
    return maps


def plain_exact_ranks(by_size: dict[int, list[int]]) -> dict[int, int]:
    """Rational rank of every boundary map by `int_rank`, no row cleared."""
    return {k: int_rank(rows) for k, rows in signed_boundary_rows(by_size).items()}


FAMILY_RANK = {"x": 0, "y": 1, "z": 2, "t": 3}


def family_rank_key(v: Var) -> tuple:
    """Variables by family x < y < z < t, then by index."""
    return (FAMILY_RANK[v[0]],) + tuple(v[1:])


def dense_display_sort(
    terms: Iterable[tuple[Monomial, Fraction]],
) -> tuple[tuple[Monomial, Fraction], ...]:
    """Terms by descending degree, then reverse-lex read off dense
    exponent vectors over the variables present."""
    terms = list(terms)
    vs = sorted({v for m, _ in terms for v, _ in m}, key=family_rank_key)
    pos = {v: k for k, v in enumerate(vs)}

    def key(item):
        m, _ = item
        vec = [0] * len(vs)
        for v, e in m:
            vec[pos[v]] = e
        return (mono_degree(m), tuple(-e for e in reversed(vec)))

    terms.sort(key=key, reverse=True)
    return tuple(terms)


def nested_term_key(order: TermOrder, m: Monomial) -> tuple:
    """Lex: the exponent vector over the priority; grevlex: degree, then
    the negated reversed vector as a nested tuple."""
    pos = {v: k for k, v in enumerate(order.priority)}
    vec = [0] * len(order.priority)
    for v, e in m:
        vec[pos[v]] = e
    if order.kind == "lex":
        return tuple(vec)
    return (sum(vec), tuple(-e for e in reversed(vec)))


def substitute(f: Polynomial, values: Mapping[Var, Polynomial]) -> Polynomial:
    """f with each variable in `values` replaced by its polynomial."""
    out = ZERO
    for m, c in f.terms:
        piece = constant(c)
        for v, e in m:
            base = values.get(v)
            piece = piece * (base**e if base is not None else term(1, [(v, e)]))
        out = out + piece
    return out


def map_variables(f: Polynomial, mapping: Mapping[Var, Var]) -> Polynomial:
    """f with each variable v renamed to mapping.get(v, v); terms that
    meet are added."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in f.terms:
        nm = monomial((mapping.get(v, v), e) for v, e in m)
        acc[nm] = acc.get(nm, Fraction(0)) + c
    return Polynomial.from_dict(acc)


def swap_variables(f: Polynomial, i: int) -> Polynomial:
    """f with x[i] and x[i+1] exchanged."""
    return map_variables(f, {x_(i): x_(i + 1), x_(i + 1): x_(i)})


def sorted_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g with every product monomial rebuilt by `monomial`, which
    sorts and merges the pairs of both factors, and Fraction sums."""
    acc: dict[Monomial, Fraction] = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            m = monomial(m1 + m2)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return Polynomial.from_dict(acc)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials by one merge of their sorted pairs."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def plain_map(acc: Mapping[Monomial, int | Fraction]) -> dict[Monomial, int | Fraction]:
    """acc without zeros, whole Fractions as ints."""
    return {m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in acc.items() if c}


def pair_difference(coeffs: Mapping[Monomial, int | Fraction], i: int, shifts) -> dict:
    """Sum over (k, sign) in shifts of sign * partial_i(x_{i+1}^k f), on a
    map of pair-tuple monomials.  One bisection splits each monomial into
    (head, x_i^a, x_{i+1}^b, tail); each monomial of partial_i(x_i^a
    x_{i+1}^b) is spliced between head and tail."""
    u, v = x_(i), x_(i + 1)
    acc: dict[Monomial, int | Fraction] = {}
    for m, c in coeffs.items():
        k = bisect_left(m, (u,))
        a = m[k][1] if k < len(m) and m[k][0] == u else 0
        j = k + (a > 0)
        b = m[j][1] if j < len(m) and m[j][0] == v else 0
        head, tail = m[:k], m[j + (b > 0):]
        for shift, sign in shifts:
            bk = b + shift
            if a == bk:
                continue
            lo, hi, s = (bk, a, sign * c) if a > bk else (a, bk, -sign * c)
            for p in range(lo, hi):
                q = a + bk - 1 - p
                nm = head + (((u, p),) if p else ()) + (((v, q),) if q else ()) + tail
                acc[nm] = acc.get(nm, 0) + s
    return plain_map(acc)


def pair_product(f: Mapping[Monomial, int | Fraction], g: Mapping[Monomial, int | Fraction]) -> dict:
    """f * g on maps of pair-tuple monomials, through `mono_mul`."""
    acc: dict[Monomial, int | Fraction] = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return plain_map(acc)


def pair_display_sort(coeffs: Mapping[Monomial, int | Fraction]) -> tuple[tuple[Monomial, Fraction], ...]:
    """Terms by degree descending, then reverse-lex: ascending reversed
    pair tuples, which first differ where dense exponent vectors read
    from the top variable down would."""
    monos = sorted(coeffs, key=lambda m: m[::-1])
    monos.sort(key=mono_degree, reverse=True)
    return tuple((m, Fraction(coeffs[m])) for m in monos)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    bd = dict(b)
    return all(bd.get(v, 0) >= e for v, e in a)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, defined only when b divides a."""
    bd = dict(b)
    out = []
    for v, e in a:
        r = e - bd.pop(v, 0)
        if r < 0:
            raise ValueError("inexact monomial division")
        if r:
            out.append((v, r))
    if bd:
        raise ValueError("inexact monomial division")
    return tuple(out)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    acc = dict(a)
    for v, e in b:
        acc[v] = max(acc.get(v, 0), e)
    return tuple(sorted(acc.items()))


def minimal_generators_by_rebuild(I: Ideal, budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, ...]:
    """The greedy minimal generating set of `minimal_generators`, with a
    fresh basis of the kept generators before every candidate."""
    order = canonical_order(I.ambient)
    meter = _Meter(budget)
    chosen: list[Polynomial] = []
    for g in sorted(
        dict.fromkeys(I.generators),
        key=lambda f: (f.degree(), nested_term_key(order, lead_monomial(f, order))),
    ):
        if chosen:
            g = normal_form(g, buchberger(chosen, order, budget), order, meter)
        if not g.is_zero:
            lc = g.coefficient(lead_monomial(g, order))
            chosen.append(Polynomial.from_dict({m: c / lc for m, c in g.terms}))
    return tuple(chosen)


def bruhat_leq_by_ranks(u: Permutation, w: Permutation) -> bool:
    """Bruhat order by rank tables: u <= w iff, after padding both to one
    size, #{a <= i : u(a) <= j} >= #{a <= i : w(a) <= j} at every (i, j)."""
    n = max(len(u), len(w))
    u, w = pad(u, n), pad(w, n)

    def rank(v: Permutation, i: int, j: int) -> int:
        return sum(1 for a in range(1, i + 1) if v(a) <= j)

    return all(rank(u, i, j) >= rank(w, i, j) for i in range(1, n + 1) for j in range(1, n + 1))


def cross_monomial(D: PipeDream) -> Monomial:
    """The weight x^D, one x_i for every cross in row i."""
    return monomial((x_(i), 1) for (i, j) in D.crosses)


def pipe_dreams_non_reduced(w: Permutation) -> tuple[PipeDream, ...]:
    """Every staircase cross set whose Demazure product is w, found among
    all 2^(n(n-1)/2) subsets of the staircase."""
    n = len(w)
    cells = [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]
    found = [
        D
        for size in range(len(cells) + 1)
        for D in (PipeDream(n, combo) for combo in combinations(cells, size))
        if permutation_of(D) == w
    ]
    return tuple(sorted(found, key=lambda D: D.crosses))


def grothendieck_by_brute_force(w: Permutation) -> Polynomial:
    """The sum of (-1)^(|D| - l(w)) x^D over `pipe_dreams_non_reduced(w)`."""
    acc: dict[Monomial, int] = {}
    for D in pipe_dreams_non_reduced(w):
        m = cross_monomial(D)
        acc[m] = acc.get(m, 0) + (-1) ** (len(D.crosses) - coxeter_length(w))
    return Polynomial.from_dict(acc)


def double_schuberts_by_reduced_dreams(n: int) -> dict[tuple[int, ...], Polynomial]:
    """Every double Schubert polynomial of S_n, keyed by one-line notation,
    as the sum over reduced pipe dreams of the product of x_i - y_j over
    their crosses (i, j).

    One state sum over the staircase cells in reading order serves all of
    S_n.  A state is the product of the crosses so far, and a cell takes a
    cross only where its letter makes that product longer."""
    states = {tuple(range(1, n + 1)): ONE}
    for i in range(1, n):
        for j in range(n - i, 0, -1):
            k, weight = i + j - 1, variable(x_(i)) - variable(y_(j))
            nxt = dict(states)  # every state may take an elbow
            for u, f in states.items():
                if u[k - 1] < u[k]:
                    v = u[: k - 1] + (u[k], u[k - 1]) + u[k + 1 :]
                    nxt[v] = nxt.get(v, ZERO) + f * weight
            states = nxt
    return states


def double_staircase_by_factors(n: int) -> Polynomial:
    """The product of (x_i - y_j) over i + j <= n, one factor at a time,
    rows top down and j ascending in each."""
    out = ONE
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            out = out * (variable(x_(i)) - variable(y_(j)))
    return out


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation n, n-1, ..., 1."""
    return Permutation(tuple(range(n, 0, -1)))


def reading_word(D: PipeDream) -> tuple[int, ...]:
    """The letters of the crosses in reading order."""
    return tuple(a for _, a in reading_order(D.crosses))


def permutation_of(D: PipeDream) -> Permutation:
    """The Demazure product of the dream's reading word."""
    return demazure_product(reading_word(D), D.size)


def is_reduced(D: PipeDream) -> bool:
    return len(D.crosses) == coxeter_length(permutation_of(D))


def reduced_homology_ranks(K: SimplicialComplex) -> tuple[int, ...]:
    """Ranks of rational reduced homology in degrees -1 .. dim K."""
    if not K.facets:
        return ()
    pos = {v: i for i, v in enumerate(K.vertices)}
    masks = [sum(1 << pos[v] for v in f) for f in K.facets]
    hom = _homology_of_union(maximal_masks(masks), DEFAULT_FACE_LIMIT)
    top = K.dim
    return tuple(hom.get(d, 0) for d in range(-1, top + 1))


def vertex_decomposition_h(J: MonomialIdeal) -> tuple[int, ...] | None:
    """h-vector (h_0, ..., h_s) of the quotient by a squarefree J when a
    vertex decomposition of its Stanley-Reisner complex certifies R/J
    Cohen-Macaulay (Provan and Billera, 1980); then reg(R/J) = s (Bruns
    and Herzog, ch. 4).  Else None, counted as a hand-over if J is unmixed.
    """
    _require_squarefree(J)
    if len({p.bit_count() for p in J._primes}) > 1:
        return None
    h = _vd_search(J)
    _count(route_vd=h is not None, vd_handovers=h is None)
    return h


def pdim_quotient(J: MonomialIdeal, **kw) -> int:
    return max(i for i, _ in betti_numbers(J, **kw))


def betti_to_text(betti: dict[tuple[int, tuple[Var, ...]], int]) -> str:
    rows = []
    for i in sorted({i for i, _ in betti}):
        entries = [
            (sigma, r) for (j, sigma), r in sorted(betti.items()) if j == i
        ]
        body = ", ".join(
            "{" + ",".join(var_to_text(v) for v in sigma) + "} -> " + str(r)
            for sigma, r in entries
        )
        rows.append(f"{i}: {body}")
    return "\n".join(rows)


def betti_to_json(betti: dict[tuple[int, tuple[Var, ...]], int]) -> list[dict]:
    return [
        {"i": i, "multidegree": [list(v) for v in sigma], "rank": r}
        for (i, sigma), r in sorted(betti.items())
    ]


def matrix_to_text(rows) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in rows)


def perm_to_text(w: Permutation) -> str:
    return ",".join(str(v) for v in w.one_line)
