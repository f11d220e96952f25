"""Buchberger engine over exact rationals.

Small and deliberate: normal pair selection with the coprimality and
chain criteria, full tail reduction to the unique reduced basis, and a
hard work budget so a runaway computation fails loudly instead of
hanging.  Built for determinantal ideals on modest grids, not for
general-purpose computation.

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
    lead_coefficient,
    lead_monomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    z_,
)

DEFAULT_BUDGET = 200_000
WORK_PER_PAIR = 50


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
    basis: list[Polynomial] | tuple[Polynomial, ...],
    order: TermOrder,
    meter: _Meter | None = None,
) -> Polynomial:
    """Fully reduce f modulo the basis: no term of the result is
    divisible by any basis lead term.  A meter, when given, is charged
    for every reduction step."""
    leads = [(lead_monomial(g, order), lead_coefficient(g, order), g) for g in basis]
    coeffs: dict[Monomial, Fraction] = dict(f.terms)
    heap = [(tuple(-a for a in order.key(m)), m) for m in coeffs]
    heapq.heapify(heap)
    out: dict[Monomial, Fraction] = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, None)
        if not c:
            continue
        hit = next((lg for lg in leads if mono_divides(lg[0], m)), None)
        if hit is None:
            out[m] = c
            continue
        lead, lc, g = hit
        quot = mono_div(m, lead)
        factor = c / lc
        if meter is not None:
            meter.reduce(len(g.terms), factor)
        for gm, gc in g.terms:
            if gm == lead:
                continue
            mm = mono_mul(gm, quot)
            prev = coeffs.get(mm)
            if prev is None:
                coeffs[mm] = -factor * gc
                heapq.heappush(heap, (tuple(-a for a in order.key(mm)), mm))
            else:
                coeffs[mm] = prev - factor * gc
    return Polynomial.from_dict(out)


def _monic(f: Polynomial, order: TermOrder) -> Polynomial:
    lc = lead_coefficient(f, order)
    if lc == 1:
        return f
    return Polynomial.from_dict({m: c / lc for m, c in f.terms})


def _spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf, lg = lead_monomial(f, order), lead_monomial(g, order)
    lcm = mono_lcm(lf, lg)
    a = Polynomial.from_dict({mono_div(lcm, lf): Fraction(1) / lead_coefficient(f, order)})
    b = Polynomial.from_dict({mono_div(lcm, lg): Fraction(1) / lead_coefficient(g, order)})
    return a * f - b * g


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
    G: list[Polynomial] = []
    for g in gens:
        if not g.is_zero:
            G.append(_monic(g, order))
    G = list(dict.fromkeys(G))
    leads = [lead_monomial(g, order) for g in G]
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pair(i: int, j: int):
        lcm = mono_lcm(leads[i], leads[j])
        pending.add((i, j))
        heapq.heappush(heap, (mono_degree(lcm), order.key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push_pair(i, j)

    meter = _Meter(budget)
    coprime = chain = zeros = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        meter.pair(len(G))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            coprime += 1
            continue
        if any(
            k != i
            and k != j
            and mono_divides(leads[k], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            chain += 1
            continue
        r = normal_form(_spoly(G[i], G[j], order), G, order, meter)
        zeros += r.is_zero
        if not r.is_zero:
            G.append(_monic(r, order))
            leads.append(lead_monomial(G[-1], order))
            t = len(G) - 1
            for k in range(t):
                push_pair(k, t)

    # minimalize: drop members whose lead is divisible by another lead
    keep = []
    for idx, lm in enumerate(leads):
        if not any(
            other != idx
            and mono_divides(leads[other], lm)
            and (leads[other] != lm or other < idx)
            for other in range(len(G))
        ):
            keep.append(idx)
    minimal = [G[idx] for idx in keep]
    # tail-reduce each member against the others
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(_monic(normal_form(g, others, order, meter), order))
    reduced.sort(key=lambda g: order.key(lead_monomial(g, order)))
    result = tuple(reduced)
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
    return normal_form(f, buchberger(I, order, budget), order, _Meter(budget)).is_zero


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
            basis = buchberger(chosen, order, budget)
            g = normal_form(g, basis, order, meter)
        if not g.is_zero:
            chosen.append(_monic(g, order))
    return tuple(chosen)
