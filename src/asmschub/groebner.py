"""Buchberger engine over exact rationals.

Small and deliberate: S-pairs are taken by the total degree of their
lcm, then by the term order, smallest first; the coprimality and chain
criteria prune them; tail reduction gives the unique reduced basis; and
a hard work budget makes a runaway computation fail loudly instead of
hanging.  Built for determinantal ideals on modest grids, not for
general-purpose computation.

Inside the engine a basis is a list of monic entries ``(lead, g)``: g
has lead coefficient 1 and ``lead`` is its lead monomial, computed once
by `_monic` when g enters the basis.  `_monic` is the only reader of a
lead coefficient.

The budget bounds both the S-pairs a computation pops and its reduction
work.  A reduction step costs one unit per term of the reducer, times
the squared size in 64-bit words of the multiplier, so coefficient swell
over the rationals is charged as the work it is; a basis computation
may spend ``WORK_PER_PAIR`` units per unit of budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .monomial import MonomialIdeal, _count, monomial_ideal
from .poly import (
    Monomial,
    Polynomial,
    TermOrder,
    antidiagonal_order,
    lead_monomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    term,
    z_,
)

DEFAULT_BUDGET = 200_000
WORK_PER_PAIR = 50

Entry = tuple[Monomial, Polynomial]  # (lead monomial, monic polynomial)


class GroebnerBudgetError(RuntimeError):
    """Raised when a basis computation exceeds its work budget."""


class _Meter:
    """Pairs and reduction work spent by one basis computation."""

    def __init__(self, budget: int):
        self.budget = budget
        self.pairs = 0
        self.work = 0
        self.work_limit = budget * WORK_PER_PAIR

    def pair(self, basis_size: int) -> None:
        self.pairs += 1
        if self.pairs > self.budget:
            raise GroebnerBudgetError(
                f"Groebner basis pair budget exceeded: {self.pairs} pairs spent"
                f" against a budget of {self.budget}, basis size {basis_size}"
            )

    def reduce(self, terms: int, factor: Fraction) -> None:
        words = 1 + ((factor.numerator.bit_length() + factor.denominator.bit_length()) >> 6)
        self.work += terms * words * words
        if self.work > self.work_limit:
            raise GroebnerBudgetError(
                f"Groebner basis reduction budget exceeded: {self.work} units"
                f" spent against {self.work_limit} ({WORK_PER_PAIR} per unit"
                f" of a budget of {self.budget}), {self.pairs} pairs spent"
            )


@dataclass(frozen=True)
class Ideal:
    """Ideal in the coordinate ring of an m x n matrix of z-variables.

    The cache carries expensive attachments (the ASM, Groebner bases
    keyed by term order) and never affects equality.
    """

    generators: tuple[Polynomial, ...]
    ambient: tuple[int, int]
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        m, n = self.ambient
        for g in self.generators:
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
            for v in g.variables():
                if v[0] != "z" or not (1 <= v[1] <= m and 1 <= v[2] <= n):
                    raise ValueError(
                        f"variable outside the {m}x{n} ambient grid"
                    )


def normal_form(
    f: Polynomial,
    basis: list[Entry],
    order: TermOrder,
    meter: _Meter,
) -> Polynomial:
    """Fully reduce f modulo monic entries ``(lead, g)``: no term of the
    result is divisible by any lead.  The meter is charged for every
    reduction step."""
    coeffs: dict[Monomial, Fraction] = dict(f.terms)
    heap = [(tuple(-a for a in order.key(m)), m) for m in coeffs]
    heapq.heapify(heap)
    out: dict[Monomial, Fraction] = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, None)
        if not c:
            continue
        hit = next((e for e in basis if mono_divides(e[0], m)), None)
        if hit is None:
            out[m] = c
            continue
        lead, g = hit
        quot = mono_div(m, lead)
        meter.reduce(len(g.terms), c)
        for gm, gc in g.terms:
            if gm == lead:
                continue
            mm = mono_mul(gm, quot)
            prev = coeffs.get(mm)
            if prev is None:
                coeffs[mm] = -c * gc
                heapq.heappush(heap, (tuple(-a for a in order.key(mm)), mm))
            else:
                coeffs[mm] = prev - c * gc
    return Polynomial.from_dict(out)


def _monic(f: Polynomial, order: TermOrder) -> Entry:
    """The entry ``(lead, f / lc)`` of a nonzero f."""
    lead, lc = max(f.terms, key=lambda t: order.key(t[0]))
    if lc != 1:
        f = Polynomial.from_dict({m: c / lc for m, c in f.terms})
    return lead, f


def _spoly(e: Entry, h: Entry) -> Polynomial:
    (lf, f), (lg, g) = e, h
    lcm = mono_lcm(lf, lg)
    return term(1, mono_div(lcm, lf)) * f - term(1, mono_div(lcm, lg)) * g


def buchberger(
    I: Ideal | list[Polynomial] | tuple[Polynomial, ...],
    order: TermOrder,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis, sorted by increasing lead term."""
    if isinstance(I, Ideal):
        cached = I.cache.get(("gb", order))
        if cached is not None:
            return cached
        gens = I.generators
    else:
        gens = tuple(I)
    G = list(dict.fromkeys(_monic(g, order) for g in gens if not g.is_zero))
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pair(i: int, j: int):
        lcm = mono_lcm(G[i][0], G[j][0])
        pending.add((i, j))
        heapq.heappush(heap, (mono_degree(lcm), order.key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push_pair(i, j)

    meter = _Meter(budget)
    coprime = chain = zeros = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        meter.pair(len(G))
        li, lj = G[i][0], G[j][0]
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            coprime += 1
            continue
        if any(
            k != i
            and k != j
            and mono_divides(G[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            chain += 1
            continue
        r = normal_form(_spoly(G[i], G[j]), G, order, meter)
        zeros += r.is_zero
        if not r.is_zero:
            G.append(_monic(r, order))
            for k in range(len(G) - 1):
                push_pair(k, len(G) - 1)

    # minimalize: drop members whose lead is divisible by another lead
    minimal = [
        (lead, g)
        for idx, (lead, g) in enumerate(G)
        if not any(
            k != idx and mono_divides(other, lead) and (other != lead or k < idx)
            for k, (other, _) in enumerate(G)
        )
    ]
    # tail-reduce each member against the others; no other lead divides
    # its lead, so the lead and its coefficient 1 stay
    reduced = [
        (lead, normal_form(g, minimal[:idx] + minimal[idx + 1 :], order, meter))
        for idx, (lead, g) in enumerate(minimal)
    ]
    reduced.sort(key=lambda e: order.key(e[0]))
    result = tuple(g for _, g in reduced)
    _count(pairs=meter.pairs, pairs_coprime=coprime, pairs_chain=chain, zero_reductions=zeros,
           basis_size=len(result), reduction_units=meter.work)
    if isinstance(I, Ideal):
        I.cache[("gb", order)] = result
    return result


def initial_ideal(
    I: Ideal, order: TermOrder, budget: int = DEFAULT_BUDGET
) -> MonomialIdeal:
    """Minimal monomial generators of the lead terms of the reduced basis."""
    basis = buchberger(I, order, budget)
    m, n = I.ambient
    ambient_vars = [z_(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return monomial_ideal(
        (lead_monomial(g, order) for g in basis), ambient_vars
    )


def canonical_order(ambient: tuple[int, int]) -> TermOrder:
    return antidiagonal_order(*ambient)


def ideal_equals(I: Ideal, J: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Mathematical equality via reduced bases in a shared canonical order."""
    if I.ambient != J.ambient:
        raise ValueError("ideals live on different ambient grids")
    order = canonical_order(I.ambient)
    return buchberger(I, order, budget) == buchberger(J, order, budget)


def ideal_contains(
    I: Ideal, f: Polynomial, budget: int = DEFAULT_BUDGET
) -> bool:
    """Is f in I?  The reduction of f is charged to a budget of its own."""
    order = canonical_order(I.ambient)
    basis = [_monic(g, order) for g in buchberger(I, order, budget)]
    return normal_form(f, basis, order, _Meter(budget)).is_zero


_T = ("t", 0)


def intersect_ideals(I: Ideal, J: Ideal, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Intersection by elimination: t*I + (1-t)*J, then drop t-terms.

    The auxiliary variable ranks above the whole grid in a Lex block,
    so basis members free of it generate the intersection.
    """
    if I.ambient != J.ambient:
        raise ValueError("ideals live on different ambient grids")
    m, n = I.ambient
    t = Polynomial.from_dict({((_T, 1),): 1})
    one_minus_t = Polynomial.from_dict({((_T, 1),): -1, (): 1})
    gens = [t * f for f in I.generators] + [one_minus_t * g for g in J.generators]
    grid_priority = canonical_order(I.ambient).priority
    order = TermOrder("lex", (_T,) + grid_priority)
    basis = buchberger(gens, order, budget)
    kept = tuple(g for g in basis if _T not in g.variables())
    return Ideal(kept, I.ambient)


def minimal_generators(
    I: Ideal, budget: int = DEFAULT_BUDGET
) -> tuple[Polynomial, ...]:
    """A minimal generating set, greedily by increasing degree.

    Each candidate is replaced by its monic remainder against the
    generators already kept, so redundant tails drop out (a minor whose
    diagonal term lies in the span of earlier generators comes back as
    the surviving monomial, for instance).  Those reductions share one
    budget, apart from the budgets of the bases they reduce against.
    """
    order = canonical_order(I.ambient)
    meter = _Meter(budget)
    chosen: list[Polynomial] = []
    for g in sorted(
        dict.fromkeys(I.generators),
        key=lambda f: (f.degree(), order.key(lead_monomial(f, order))),
    ):
        if chosen:
            basis = [_monic(b, order) for b in buchberger(chosen, order, budget)]
            g = normal_form(g, basis, order, meter)
        if not g.is_zero:
            chosen.append(_monic(g, order)[1])
    return tuple(chosen)
