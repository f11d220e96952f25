"""Decomposition of rank-condition ideals into permutation components.

An ASM variety is a union of matrix Schubert varieties; the minimal
primes of its squarefree antidiagonal initial ideal are coordinate
subspaces whose variable indices spell reduced words, one permutation
per prime, read straight off the prime masks the ideal keeps.  From the
component list one can reconstitute the ASM (via entrywise-extreme rank
tables), recognize whether an arbitrary ideal is an ASM ideal, form sums
and intersections, and test Cohen-Macaulayness through the degeneration.
"""

from __future__ import annotations

from .asm import (
    PartialASM,
    as_permutation,
    asm_sum,
    complete_asm,
    entrywise_extreme_rank_table,
    pad_asm,
    permutation_matrix,
    rank_table,
    rank_table_to_asm,
)
from .groebner import (
    DEFAULT_BUDGET,
    Ideal,
    canonical_order,
    ideal_equals,
    initial_ideal,
    intersect_ideals,
)
from .ideal import Schubertable, _degeneration, anti_diag_init, as_partial_asm, schubert_determinantal_ideal
from .monomial import MonomialIdeal, is_cm_quotient, vertex_decomposition_reg
from .perm import Permutation, _hecke, bruhat_leq, pad
from .pipedream import reading_order

Decomposable = MonomialIdeal | Ideal | Schubertable


def schubert_decompose(
    I: Decomposable, budget: int = DEFAULT_BUDGET
) -> tuple[Permutation, ...]:
    """Permutations labeling the components of the initial ideal.

    Each minimal prime mask of J is read as a word, its cells in
    `reading_order`, and its 0-Hecke product is taken on one-line tuples.
    Components follow the canonical minimal-prime order: by their least
    prime, compared as ascending bit lists.
    """
    if isinstance(I, MonomialIdeal):
        J = I
    elif isinstance(I, Ideal):
        J = initial_ideal(I, canonical_order(I.ambient), budget)
    else:
        J = anti_diag_init(as_partial_asm(I))
    grid = max((max(v[1], v[2]) for v in J.variables), default=1)
    if J.is_zero:
        return (Permutation(tuple(range(1, grid + 1))),)
    if J.is_unit:
        raise ValueError("unit ideal has no minimal primes")
    letters = [(1 << k, a) for k, a in reading_order([v[1:] for v in J._supports[0]])]
    primes = sorted(J._primes, key=lambda p: [k for k in range(p.bit_length()) if p >> k & 1])
    words = [[a for b, a in letters if p & b] for p in primes]
    line = tuple(range(1, max(grid, max(map(max, words)) + 1) + 1))
    return tuple(map(Permutation, dict.fromkeys(_hecke(line, word) for word in words)))


def perm_set_of_asm(A: Schubertable) -> tuple[Permutation, ...]:
    """Bruhat-minimal permutations above the ASM in the rank order."""
    return schubert_decompose(as_partial_asm(A))


def _asm_from_permutations(perms) -> PartialASM:
    n = max(len(w) for w in perms)
    tables = [rank_table(permutation_matrix(pad(w, n))) for w in perms]
    # an entrywise max of valid rank tables is valid
    return rank_table_to_asm(entrywise_extreme_rank_table(tables, "max"))


def is_asm_ideal(I: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Recognize I as the ideal of an ASM; caches the matrix on success."""
    perms = schubert_decompose(I, budget)
    A = _asm_from_permutations(perms)
    if (A.nrows, A.ncols) != I.ambient:
        return False
    if ideal_equals(I, schubert_determinantal_ideal(A), budget):
        I.cache["asm"] = A
        return True
    return False


def get_asm(I: Ideal) -> PartialASM:
    if "asm" not in I.cache:
        raise ValueError("no ASM attached")
    return I.cache["asm"]


def is_asm_union(perms) -> bool:
    """Is the union of the matrix Schubert varieties an ASM variety?"""
    perms = [w if isinstance(w, Permutation) else Permutation(tuple(w)) for w in perms]
    if not perms:
        raise ValueError("need at least one permutation")
    n = max(len(w) for w in perms)
    padded = [pad(w, n) for w in perms]
    minimal = [
        w
        for w in padded
        if not any(u != w and bruhat_leq(u, w) for u in padded)
    ]
    A = _asm_from_permutations(minimal)
    return set(perm_set_of_asm(A)) == set(minimal)


def schubert_add(summands) -> Ideal:
    """Ideal sum of ASM ideals: entrywise-min rank table of the summands."""
    A = asm_sum([as_partial_asm(x) for x in summands])
    return schubert_determinantal_ideal(A)


def schubert_intersect(factors, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Generator-level intersection of the rank-condition ideals."""
    matrices = [as_partial_asm(x) for x in factors]
    if not matrices:
        raise ValueError("need at least one factor")
    shapes = {(A.nrows, A.ncols) for A in matrices}
    if len(shapes) > 1:
        size = max(max(s) for s in shapes)
        matrices = [pad_asm(complete_asm(A), size) for A in matrices]
    ideals = [schubert_determinantal_ideal(A) for A in matrices]
    out = ideals[0]
    for J in ideals[1:]:
        out = intersect_ideals(out, J, budget)
    return out


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
