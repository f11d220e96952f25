"""Decomposition of rank-condition ideals into permutation components.

An ASM variety is a union of matrix Schubert varieties; the minimal
primes of its squarefree antidiagonal initial ideal J are the reduced
pipe dreams of its components (Knutson and Miller, Annals 2005), each
reached by chute moves from its one top-justified dream (Bergeron and
Billey, "RC-graphs and Schubert polynomials", 1993, transposed), off which
`perm_set_of_asm` reads it through a bounded memo.  An ideal's primes are
each read as a word.
From the component list one can reconstitute the ASM (via entrywise-extreme
rank tables), recognize whether an arbitrary ideal is an ASM ideal, form
sums and intersections, and test Cohen-Macaulayness through the degeneration.

Unions are recognized by rank tables alone: an ASM variety is the union
of the matrix Schubert varieties of its permutation set (Weigandt,
"Prism tableaux for alternating sign matrix varieties", 2018), so that
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
from .ideal import Schubertable, _degeneration, anti_diag_init, as_partial_asm, schubert_determinantal_ideal
from .monomial import MonomialIdeal, is_cm_quotient, vertex_decomposition_reg
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


TOP_DREAM_CACHE = 1024  # (p, nrows, ncols) keys `perm_set_of_asm` keeps; 6x6 ASMs have 720 top dreams, S_7 5,040


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


def perm_set_of_asm(A: Schubertable) -> tuple[Permutation, ...]:
    """Bruhat-minimal permutations above the ASM in the rank order: (w,) for
    a permutation matrix of w, as X_w is irreducible, else each w read off its
    top pipe dream p by `_top_dream`: ``not p >> n & ~p`` on J's grid masks
    (cell (i, j) at bit (i - 1) * n + j - 1; no cross below a non-cross), and
    p's column counts are the Lehmer code of w^-1.  A chute move takes a
    cross down a row, so p is w's least prime and the components come in
    the order of `schubert_decompose`, padded to their largest size."""
    M = as_partial_asm(A)
    if (w := as_permutation(M)) is not None:
        return (w,)
    J, m, n = anti_diag_init(M), M.nrows, M.ncols
    tops = sorted((_top_dream(p, m, n) for p in J._primes if not p >> n & ~p), key=itemgetter(2))  # J = 0 has the prime 0
    N = max(size for _, size, _ in tops)
    return tuple(w if size == N else pad(w, N) for w, size, _ in tops)


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
