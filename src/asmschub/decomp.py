"""Decomposition of rank-condition ideals into permutation components.

An ASM variety is a union of matrix Schubert varieties X_w, one per
Bruhat-minimal w whose ranks the ASM's essential boxes bound (Weigandt,
"Prism tableaux for alternating sign matrix varieties", 2018; Fulton,
Duke 1992).  `perm_set_of_asm` finds those w by a search over rows on
column masks, with no ideal and no prime: only the leftmost free column
of each block between essential columns is tried, and each lower cover
must break a bound, so every finished path is a component.  Each is
named by its top pipe dream, the least minimal prime of the antidiagonal
initial ideal J among its reduced pipe dreams (Knutson and Miller,
Annals 2005; Bergeron and Billey, "RC-graphs and Schubert polynomials",
1993, transposed), read through a bounded memo.  An ideal's primes are
each read as a word.
From the component list one can reconstitute the ASM (via entrywise-extreme
rank tables), recognize whether an arbitrary ideal is an ASM ideal, form
sums and intersections, and test Cohen-Macaulayness through the degeneration.

Unions are recognized by rank tables alone: an ASM variety is the union
of the matrix Schubert varieties of its permutation set, so that
`union_asm` needs no Groebner basis, unlike `is_asm_ideal`.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache, reduce
from operator import itemgetter, or_

from .asm import (
    PartialASM,
    _common_square,
    _unchecked,
    as_permutation,
    asm_sum,
    entrywise_extreme_rank_table,
    permutation_matrix,
    rank_table,
    rank_table_to_asm,
)
from .groebner import (
    DEFAULT_BUDGET,
    Ideal,
    buchberger,
    canonical_order,
    ideal_equals,
    initial_ideal,
    intersect_ideals,
)
from .ideal import Schubertable, _degeneration, _essential_masks, as_partial_asm, schubert_determinantal_ideal
from .monomial import MonomialIdeal, _count, is_cm_quotient, vertex_decomposition_reg
from .perm import Permutation, _trim, bruhat_leq, pad
from .poly import var_to_text

Decomposable = MonomialIdeal | Ideal | Schubertable


_prime_order = cmp_to_key(lambda p, q: -1 if p & (d := p ^ q) & -d else 1)  # the canonical order of prime masks

ROW_SCAN_CACHE = 16  # variable tuples whose row masks and letters `schubert_decompose` keeps


@lru_cache(maxsize=ROW_SCAN_CACHE)
def _row_scan(variables: tuple) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Grid size, row masks top down and letter i + j - 1 of each bit of sorted z-variables."""
    rows: dict[int, int] = {}
    for k, (_, i, _) in enumerate(variables):
        rows[i] = rows.get(i, 0) | 1 << k
    return max((max(v[1:]) for v in variables), default=1), tuple(rows.values()), tuple(i + j - 1 for _, i, j in variables)


def schubert_decompose(
    I: Decomposable, budget: int = DEFAULT_BUDGET
) -> tuple[Permutation, ...]:
    """Permutations labeling the components of the initial ideal.

    An ASM or permutation goes to `perm_set_of_asm`.  Else each minimal
    prime mask of J is read in one row scan, row masks top down and each
    from its highest bit, which is reading order, folding the 0-Hecke swap
    of each cell's letter into a one-line list.  Components follow their
    least prime in the canonical minimal-prime order, ascending bit lists:
    the smaller of two primes holds their lowest differing bit.
    """
    if isinstance(I, MonomialIdeal):
        J = I
        for v in J.variables:
            if v[0] != "z" or len(v) != 3:
                raise ValueError(f"variable {var_to_text(v)} is not a z[i,j]")
    elif isinstance(I, Ideal):
        J = initial_ideal(I, canonical_order(I.ambient), budget)
    else:
        return perm_set_of_asm(I)
    grid, rows, letters = _row_scan(J.variables)
    if J.is_zero:
        return (Permutation(tuple(range(1, grid + 1))),)
    if J.is_unit:
        raise ValueError("unit ideal has no minimal primes")
    held = reduce(or_, J._primes)  # the cells that some prime holds
    line = range(1, max(grid, max(letters[(held & r).bit_length() - 1] for r in rows if held & r) + 1) + 1)
    least: dict[tuple[int, ...], int] = {}
    for p in J._primes:
        out = list(line)
        for r in rows:
            q = p & r
            while q:
                a = letters[k := q.bit_length() - 1]
                if out[a - 1] < out[a]:
                    out[a - 1], out[a] = out[a], out[a - 1]
                q ^= 1 << k
        if (o := least.get(w := tuple(out))) is None or p & (d := p ^ o) & -d:
            least[w] = p
    ranked = sorted(least, key=lambda w: _prime_order(least[w]))
    return tuple(_unchecked(Permutation, one_line=w) for w in ranked)  # Hecke products of the identity


TOP_DREAM_CACHE = 1024  # (p, nrows, ncols) keys of the components `perm_set_of_asm` finds; 6x6 ASMs have 720 top dreams, S_7 5,040


@lru_cache(maxsize=TOP_DREAM_CACHE)
def _top_dream(p: int, nrows: int, ncols: int) -> tuple[Permutation, int, int]:
    """The component w whose top dream is the grid mask p, at its least size
    N_p (the grid's, or 1 + the largest letter p holds), that N_p, and p's
    sort key: minus the reversal of p's nrows * ncols bits.  The lowest bit
    where two masks differ is the highest where their reversals do, so
    ascending keys give `_prime_order`."""
    column = sum(1 << i * ncols for i in range(nrows))
    code = [(p >> j & column).bit_count() for j in range(ncols)]
    N = max(nrows, ncols, *(j + c for j, c in enumerate(code, 1)))
    free, w = list(range(1, N + 1)), [0] * N
    for i, c in enumerate(code + [0] * (N - ncols), 1):
        w[free.pop(c) - 1] = i  # w^-1(i) is the free value with c smaller free ones
    return _unchecked(Permutation, one_line=tuple(w)), N, -int(f"{p:0{nrows * ncols}b}"[::-1], 2)


LAYOUT_CACHE = 64  # (nrows, ncols) grid shapes whose packing `perm_set_of_asm` keeps


@lru_cache(maxsize=LAYOUT_CACHE)
def _layout(m: int, n: int) -> tuple[int, int, int, int, dict[int, int], tuple[int, ...]]:
    """The packing of one row of ranks on an m x n grid, one field per column:
    the field width f (n's bit length and a guard bit), a 1 in every field,
    the guard bits, every field at its largest value, per column bit what
    taking that column adds (1 in its field and every field right of it), and
    per c the top dream of column 1 holding c crosses (its first c rows)."""
    f = n.bit_length() + 1
    ones = sum(1 << j * f for j in range(n))
    column = sum(1 << r * n for r in range(m))
    return (f, ones, ones << f - 1, ones * ((1 << f - 1) - 1),
            {1 << k: ones >> k * f << k * f for k in range(n + m)}, tuple(column & (1 << c * n) - 1 for c in range(m + 1)))


def _search_plan(M: PartialASM, f: int, ones: int, guard: int, top: int) -> tuple[list, int]:
    """Bottom up from `_essential_masks`, per row down to the last one with an
    essential box: its limits (the least bound of a box at or south-east of
    each cell, one field per column, guard bits set), its boxes (field
    shift, column bit, bound) and the essential columns of the rows below
    it; and the mask of every essential column."""
    plan, lim, below = [], top, 0
    for corners, sums in reversed(_essential_masks(M)):
        boxes, later = [], below
        while corners:
            bit = corners & -corners
            corners ^= bit
            k, r = bit.bit_length() - 1, (sums & (bit << 1) - 1).bit_count()
            boxes.append((k * f, bit, r))
            cap = ones & (1 << (k + 1) * f) - 1  # r in the fields of columns 1 to k + 1
            cap = r * cap | top & ~(cap * ((1 << f) - 1))
            wider = (((lim | guard) - cap) & guard) >> f - 1  # the fields where lim >= cap
            wider *= (1 << f) - 1
            lim = cap & wider | lim & ~wider
            below |= bit
        if plan or boxes:
            plan.append((lim | guard, boxes, later))
    plan.reverse()
    return plan, below


def _component_dreams(M: PartialASM, m: int, n: int) -> list[int]:
    """The top dream masks of the Bruhat-minimal permutations w whose ranks
    r_w(i, j) = |{k <= i : w(k) <= j}| the essential boxes of M bound, found
    row by row.  See `perm_set_of_asm` for the rules and why each is exact."""
    f, ones, guard, top, stairs, dreams = _layout(m, n)
    field = (1 << f - 1) - 1
    plan, essential = _search_plan(M, f, ones, guard, top)
    # a path: columns taken S, their packed ranks, the dream so far, the
    # columns the next row may not take, and each earlier row's interval
    # [lo, w(k)) of them, as (lo, w(k)) bits; column v holds c crosses of
    # the dream, c the columns of S right of v, as dreams[c] * v
    paths, states, tried = [(0, 0, 0, 0, ())], 0, 0
    for L, boxes, later in plan:
        ok = ~((1 << later.bit_length()) - 1)  # past the columns a box below can still free
        out = []
        append = out.append
        for S, R, p, F, spans in paths:
            cand = ~S & ((S | essential) << 1 | 1)  # the leftmost free column of each block
            tried += cand.bit_count()
            cand &= ~F
            while cand:
                v = cand & -cand
                cand ^= v
                R2 = R + stairs[v]
                if (L - R2) & guard != guard:
                    continue
                S2, tight = S | v, 0
                for shift, bit, r in boxes:
                    if R2 >> shift & field == r:
                        tight |= bit
                if tight:
                    kept, F2 = [], 0
                    for lo, w in (*spans, (1, v)):
                        if (x := tight & w - 1) and 1 << x.bit_length() > lo:
                            lo = 1 << x.bit_length()
                        if x := (w - 1) & ~S2 & -lo:
                            if not later & w - (1 << x.bit_length() - 1):
                                break  # no box below sits in [max x, w): x stays forbidden
                            kept.append((lo, w))
                            F2 |= x
                    else:
                        append((S2, R2, p | dreams[(S & -v).bit_count()] * v, F2, tuple(kept)))
                elif not (F2 := (F | v - 1) & ~S2) & ok:
                    append((S2, R2, p | dreams[(S & -v).bit_count()] * v, F2, (*spans, (1, v)) if (v - 1) & ~S2 else spans))
        states += len(out)
        paths = out
    _count(dp_states=states, dp_dropped=tried - states)
    tops = []
    for S, _, p, _, _ in paths:  # the free columns below max S follow in increasing rows
        free = ~S & (1 << S.bit_length()) - 1
        while free:
            v = free & -free
            free ^= v
            p |= dreams[(S & -v).bit_count()] * v
        tops.append(p)
    return tops


def perm_set_of_asm(A: Schubertable) -> tuple[Permutation, ...]:
    """Bruhat-minimal permutations above the ASM in the rank order: (w,) for
    a permutation matrix of w, as X_w is irreducible, else each w whose ranks
    r_w(i, j) = #{k <= i : w(k) <= j} M's essential boxes bound (Fulton,
    Duke 1992; Weigandt 2018), the rows past M's and the columns past its
    unconstrained, found by a search over rows.  A path is the columns w(1),
    ..., w(i) as a set S with its ranks at row i packed one guarded field per
    column, as `MonomialIdeal` packs exponents: taking column v adds 1 to the
    fields from v on, and one subtraction tests them all against the row's
    limits, the least bound at or south-east of each cell, as ranks grow
    down the rows and along them.  Four rules keep the search to the
    components, each exact:

    - Column blocks.  Columns between two consecutive essential columns,
      and all past the last, lie on one side of every essential column, so
      sorting a block's columns into increasing rows keeps every bound and
      only raises ranks.  A minimal w takes each block left to right: only the leftmost
      free column of a block is tried.
    - Lower covers.  The valid w are an up-set in Bruhat order, so w is
      minimal when each lower cover w t_kl (k < l, w(k) > w(l)) breaks a
      bound.  The swap raises the ranks of rows k to l - 1 in columns w(l)
      to w(k) - 1 by one, so it breaks one exactly when a box there is
      tight, and a row's tightness is final once it is placed.  Each row k
      keeps the columns [lo, w(k)) that a later row may not take, lo just
      above the highest tight column under w(k) in rows k on; a path
      takes no column in their union F.  So rows without a box ascend: the
      rows above the first essential row take block-prefix sets in
      increasing order, and past the last all free columns follow in
      increasing rows.  Every finished path is a component, and two paths
      to one S never compare: the lower one would hold a lower cover within
      its rows that keeps every bound so far.
    - Rescue.  A free column x in [lo, w(k)) can only be freed by a tight box
      in a later row at a column in [x, w(k)), so a path is dropped when the
      highest such x has no box below it in that range, or when F holds a
      free column right of every box below.
    - Limits.  Ranks only grow down the rows, so a path over a row's limit
      can never meet the box that set it; a path within them can always
      continue, by the leftmost column past the blocks, which adds to no
      field.

    Each component's top dream p (column j holds #{k > j : w^-1(k) <
    w^-1(j)} crosses, in its first rows) grows with its path and is read by
    `_top_dream`: components come in the order of `schubert_decompose`,
    padded to their largest size."""
    M = as_partial_asm(A)
    if (w := as_permutation(M)) is not None:
        return (w,)
    m, n = len(M.rows), len(M.rows[0])
    tops = sorted([_top_dream(p, m, n) for p in _component_dreams(M, m, n)], key=itemgetter(2))
    N = max([size for _, size, _ in tops])
    return tuple([w if size == N else pad(w, N) for w, size, _ in tops])


def _asm_from_permutations(perms, n: int) -> PartialASM:
    tables = [rank_table(permutation_matrix(pad(w, n))) for w in perms]
    # an entrywise max of valid rank tables is valid
    return rank_table_to_asm(entrywise_extreme_rank_table(tables, "max"))


def is_asm_ideal(I: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Recognize I as the ideal of an ASM; caches the matrix on success."""
    buchberger(I, canonical_order(I.ambient), budget)  # cached for schubert_decompose and ideal_equals
    perms = schubert_decompose(I, budget)
    A = _asm_from_permutations(perms, len(perms[0]))
    if (A.nrows, A.ncols) != I.ambient or not ideal_equals(I, schubert_determinantal_ideal(A), budget):
        return False
    I.cache["asm"] = A
    return True


def get_asm(I: Ideal) -> PartialASM:
    if "asm" not in I.cache:
        raise ValueError("no ASM attached")
    return I.cache["asm"]


def _shaped(xs) -> list[PartialASM]:
    """The inputs as partial ASMs, brought to their `_common_square` shape
    when their shapes differ."""
    matrices = [as_partial_asm(x) for x in xs]
    if len({(A.nrows, A.ncols) for A in matrices}) > 1:
        return _common_square(matrices)
    return matrices


def union_asm(xs) -> PartialASM | None:
    """The ASM whose variety is the union of the inputs' varieties, or None:
    the union is one when its shape is square, and the Bruhat-minimal labels
    of the inputs (trimmed) fit in it and are the permutation set of the ASM
    built from them.  Inputs are brought to one shape by `_shaped`."""
    matrices = _shaped(xs)
    if not matrices:
        raise ValueError("need at least one permutation")
    labels = {_trim(w) for A in matrices for w in perm_set_of_asm(A)}
    minimal = {w for w in labels if not any(u != w and bruhat_leq(u, w) for u in labels)}
    n = matrices[0].nrows
    if n != matrices[0].ncols or any(len(w) > n for w in minimal):
        return None
    A = _asm_from_permutations(minimal, n)
    return A if {_trim(w) for w in perm_set_of_asm(A)} == minimal else None


def is_asm_union(xs) -> bool:
    """Is the union of the varieties of permutations or partial ASMs of any shapes an ASM variety?"""
    return union_asm(xs) is not None


def schubert_add(summands) -> Ideal:
    """Ideal sum of ASM ideals: entrywise-min rank table of the summands."""
    A = asm_sum([as_partial_asm(x) for x in summands])
    return schubert_determinantal_ideal(A)


def schubert_intersect(factors, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Generator-level intersection of the rank-condition ideals of the `_shaped` inputs."""
    matrices = _shaped(factors)
    if not matrices:
        raise ValueError("need at least one factor")
    return reduce(lambda I, J: intersect_ideals(I, J, budget), map(schubert_determinantal_ideal, matrices))


def is_schubert_cm(A: Schubertable, **guards) -> bool:
    """Cohen-Macaulayness of the rank-condition quotient.

    Permutation matrices short-circuit to True.  Else the antidiagonal
    degeneration J, shared with `schubert_regularity`, is CM if unmixed
    with a vertex decomposition (Provan-Billera; Knutson-Miller: subword
    complexes have one).  Else `is_cm_quotient` answers a mixed J by its
    height gate, before any search, or walks the smaller lcm lattice, of
    J or of its Alexander dual (Eagon-Reiner).
    """
    M = as_partial_asm(A)
    if as_permutation(M) is not None:
        return True
    J = _degeneration(M)
    return vertex_decomposition_reg(J, pure=True) is not None or is_cm_quotient(J, **guards)
