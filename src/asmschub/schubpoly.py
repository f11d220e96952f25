"""Schubert, double Schubert, and Grothendieck polynomials.

All three families start from the staircase monomial of the longest
element of the least S_n that holds w (each is stable under S_n in
S_{n+1}) and descend through (isobaric) divided differences; the
transition recursion and the signed pipe-dream sum provide independent
routes to the same polynomials.  The pipe-dream sum runs over 0-Hecke
(Demazure product) states and never lists the dreams themselves.  The
Rajchgot index, the degree of the Grothendieck polynomial, yields the
regularity of the rank-condition quotient ring: raj(w) - length(w) for
a permutation, and the graded Betti table of the antidiagonal
degeneration in general.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from operator import le, mul

from .asm import as_permutation
from .ideal import Schubertable, _degeneration, as_partial_asm
from .monomial import reg_quotient, vertex_decomposition_reg
from .perm import (
    Permutation,
    _hecke,
    _tableau,
    _trim,
    coxeter_length,
    descents,
    is_dominant,
    lehmer_code,
    times_transposition,
)
from .pipedream import PIPE_DREAM_LIMIT, reading_order
from .poly import (
    ONE,
    Polynomial,
    divided_difference,
    isobaric_divided_difference,
    monomial,
    variable,
    x_,
    y_,
)

# entries per memo: the three _descend families over all of S_6 fit
CACHE_SIZE = 3 * 720


def _staircase(n: int) -> Polynomial:
    return Polynomial.from_dict(
        {monomial((x_(i), n - i) for i in range(1, n)): 1}
    )


def _last_ascent(w: Permutation) -> int:
    line = w.one_line
    for i in range(len(line) - 1, 0, -1):
        if line[i - 1] < line[i]:
            return i
    return 0


@lru_cache(maxsize=CACHE_SIZE)
def _descend(w: Permutation, base, step) -> Polynomial:
    """Shared recursion: climb to the longest element, apply step down."""
    i = _last_ascent(w)
    if i == 0:
        return base(len(w))
    return step(_descend(times_transposition(w, i, i + 1), base, step), i)


def schubert_polynomial(w: Permutation, algorithm: str = "DividedDifference") -> Polynomial:
    if algorithm == "DividedDifference":
        return _descend(_trim(w), _staircase, divided_difference)
    if algorithm == "Transition":
        return _transition(w)
    raise ValueError(f"unknown Schubert algorithm {algorithm!r}")


def _double_staircase(n: int) -> Polynomial:
    """The product of (x_i - y_j) over i + j <= n, rows first: each row's
    product over j, then the rows from the bottom up, i = n - 1 to 1."""
    out = ONE
    for i in range(n - 1, 0, -1):
        out = out * reduce(mul, (variable(x_(i)) - variable(y_(j)) for j in range(1, n + 1 - i)), ONE)
    return out


def double_schubert_polynomial(w: Permutation) -> Polynomial:
    """Divided differences act on the x variables; y ride along."""
    return _descend(_trim(w), _double_staircase, divided_difference)


GROTHENDIECK_ALGORITHMS = ("DividedDifference", "PipeDream")


def grothendieck_polynomial(w: Permutation, algorithm: str = "DividedDifference") -> Polynomial:
    if algorithm == "DividedDifference":
        return _descend(_trim(w), _staircase, isobaric_divided_difference)
    if algorithm == "PipeDream":
        if len(w) > PIPE_DREAM_LIMIT:
            raise ValueError(f"pipe dream formula is limited to n <= {PIPE_DREAM_LIMIT}")
        return _pipe_dream_sum(w)
    raise ValueError(f"unknown Grothendieck algorithm {algorithm!r}")


def _pipe_dream_sum(w: Permutation) -> Polynomial:
    """The sum of (-1)^(|D| - l(w)) x^D over the non-reduced pipe dreams D of w.

    Reads the staircase cells in reading order, keeping for each Demazure
    product u of the crosses so far the signed weights of the dreams that
    reach it.  An elbow leaves u; a cross at (i, j) applies s_{i+j-1} in
    the 0-Hecke monoid with weight -x_i, and as x_i is the largest
    variable yet, only a monomial's last pair changes.  A state is kept
    while u <= w <= u * (the letters still unread), by the tableau
    criterion of `bruhat_leq` (`_tableau`).
    """
    n = len(w)
    cells = [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]
    order = reading_order(cells)
    word = [k for _, k in order]
    top = _tableau(w.one_line)
    states = {tuple(range(1, n + 1)): Counter({(): (-1) ** coxeter_length(w)})}
    for t, (p, k) in enumerate(order):
        xi, nxt = x_(cells[p][0]), {}
        for u, sums in states.items():
            crossed = {
                m[:-1] + ((xi, m[-1][1] + 1),) if m and m[-1][0] == xi else m + ((xi, 1),): -c
                for m, c in sums.items()
            }
            nxt.setdefault(u, Counter()).update(sums)
            nxt.setdefault(_hecke(u, (k,)), Counter()).update(crossed)
        states = {
            u: sums
            for u, sums in nxt.items()
            if all(map(le, _tableau(u), top)) and all(map(le, top, _tableau(_hecke(u, word[t + 1:]))))
        }
    return Polynomial.from_dict(states[w.one_line])


@lru_cache(maxsize=CACHE_SIZE)
def _transition(w: Permutation) -> Polynomial:
    if is_dominant(w):
        # dominant permutations are fixed points of the recursion
        out = Polynomial.from_dict(
            {monomial((x_(i + 1), c) for i, c in enumerate(lehmer_code(w))): 1}
        )
    else:
        r = descents(w)[-1]
        line = w.one_line
        s = max(t for t in range(r + 1, len(line) + 1) if line[t - 1] < line[r - 1])
        v = times_transposition(w, r, s)
        target = coxeter_length(w)
        out = variable(x_(r)) * _transition(v)
        for q in range(1, r):
            u = times_transposition(v, q, r)
            if coxeter_length(u) == target:
                out = out + _transition(u)
    return out


def raj_index(w: Permutation) -> int:
    """Sum over i of (suffix length) - (longest increasing run from w(i)).

    Dynamic programming from the right: best[i] = 1 + max best[j] over
    j > i with w(j) > w(i).
    """
    line = w.one_line
    n = len(line)
    best = [1] * n
    for i in range(n - 2, -1, -1):
        tails = [best[j] for j in range(i + 1, n) if line[j] > line[i]]
        if tails:
            best[i] = 1 + max(tails)
    return sum((n - i) - best[i] for i in range(n))


def schubert_regularity(A: Schubertable, **guards) -> int:
    """Regularity of the rank-condition quotient.

    Permutations (and permutation matrices) go through the Rajchgot
    index.  Else the antidiagonal degeneration J, shared with
    `is_schubert_cm`, takes reg from a vertex decomposition, pure or not
    (`vertex_decomposition_reg`), or else `reg_quotient` walks the smaller
    lcm lattice: Terai's pdim(R/J^v) - 1 on the dual J^v, max{|sigma| - i}
    over the Betti numbers of R/J on J's side.
    """
    M = as_partial_asm(A)
    w = as_permutation(M)
    if w is not None:
        return raj_index(w) - coxeter_length(w)
    J = _degeneration(M)
    reg = vertex_decomposition_reg(J)
    return reg if reg is not None else reg_quotient(J, **guards)
