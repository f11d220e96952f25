"""Buchberger engine over exact rationals.

Small and deliberate: the variable generators (monic, with a lead of
degree 1 and no tail) leave before any pair is formed, and every other
generator drops its terms through them; S-pairs of the rest are taken by
the total degree of their lcm, then by the term order, smallest first;
the coprimality and chain criteria prune them; the variables rejoin the
basis before it is minimalized; tail reduction gives the unique reduced
basis; and a hard work budget makes a runaway computation fail loudly
instead of hanging.  The split is exact: for the set Z of those
variables, I = <Z> + <g with its Z-terms deleted>, and a variable's lead
is coprime to every lead free of Z, so its pairs would all be pruned and
it never reduces a Z-free term.  Built for determinantal ideals on
modest grids, not for general-purpose computation.

Monomials are the ints of a `poly._Ring`, which packs them with one
guarded field per variable and one for the degree, so that an int's key
is the term order.  A product is a sum, a quotient a difference, ``a``
divides ``b`` when ``((b | G) - a) & G == G`` for the guard mask G, and
the same guard bits pick the field-wise max of an lcm.  Every packed
input, product and lcm is checked against the guards (a quotient cannot
overflow); on an overflow `_packed` restarts the computation with fields twice as
wide, from `MIN_WIDTH`, and with the meter and the `collect_stats`
counters as they were at its start, so the width never changes a basis,
a counter or a budget trip.  A basis is a list of monic entries
``(lead, tail)``, the tail holding the other ``(monomial, coefficient)``
pairs, with coefficients kept as ints while their denominator is 1.  One
kernel, `_reduce`, reduces S-polynomials, basis tails, the candidates of
`minimal_generators` and, through `normal_form`, outside polynomials.
Each computation stays in one ring and unpacks only what it returns.
An initial ideal takes packed leads undecoded, of the minimal basis
(tail reduction keeps every lead) or of a cached reduced basis, their
fields moved by `poly._mover` straight to their grid fields.
`ideal.diag_init` builds its Fulton minors straight in a ring and hands
`_buchberger` the entries, with no `Polynomial` in between.

Given the K-polynomial numerator of the initial ideal of homogeneous
entries, `_buchberger` runs Hilbert-driven (Traverso, 1996): once the
leads' Hilbert function meets the target's in the degree at hand, the
rest of that degree's pairs would reduce to zero, so they are popped and
charged but neither tested nor reduced.  The basis, the pairs and a pair
budget trip stay those of the plain run.  Only `diag_init` gives a
target, for permutations, whose Hilbert series is their antidiagonal
initial ideal's (Knutson and Miller, Annals 2005, Theorem B).

The budget bounds both the S-pairs a computation pops and its reduction
work.  A reduction step costs one unit per term of the reducer, times
the squared size in 64-bit words of the multiplier, so coefficient swell
over the rationals is charged as the work it is, and a node of the
Hilbert numerator recursion costs one unit; a basis computation may
spend ``WORK_PER_PAIR`` units per unit of budget.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .monomial import _STATS, MonomialIdeal, _count, _k_numerator, _packed_ideal, _polarizer
from .poly import Polynomial, TermOrder, _Overflow, _Ring, _mover, antidiagonal_order, z_grid

DEFAULT_BUDGET = 200_000
WORK_PER_PAIR = 50
MIN_WIDTH = 8  # bits per packed exponent field before any overflow


class GroebnerBudgetError(RuntimeError):
    """Raised when a basis computation exceeds its work budget."""


class _Meter:
    """Pairs, reduction work and Hilbert numerator nodes spent by one basis
    computation; the work and the nodes share one limit."""

    def __init__(self, budget: int):
        self.budget = budget
        self.pairs = 0
        self.work = 0
        self.nodes = 0
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
        self._check()

    def node(self) -> None:
        self.nodes += 1
        self._check()

    def _check(self) -> None:
        if self.work + self.nodes > self.work_limit:
            nodes = f" ({self.nodes} Hilbert numerator nodes)" if self.nodes else ""
            raise GroebnerBudgetError(
                f"Groebner basis reduction budget exceeded: {self.work + self.nodes} units{nodes}"
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
                    raise ValueError(f"variable outside the {m}x{n} ambient grid")


def _reduce(ring: _Ring, coeffs: dict, basis: list, meter: _Meter) -> dict:
    """Fully reduce packed coeffs (consumed) modulo monic packed entries,
    each term by the first entry whose lead divides it, charging the meter
    for every step."""
    G, flip = ring.guard, ring.flip
    heap = [-(m ^ flip) for m in coeffs]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heapq.heappop(heap) ^ flip
        c = coeffs.pop(m)
        if not c:
            continue
        mg = m | G
        for lead, tail in basis:
            if (mg - lead) & G == G:
                break
        else:
            out[m] = c
            continue
        q = m - lead
        meter.reduce(len(tail) + 1, c)
        for gm, gc in tail:
            mm = gm + q
            if mm & G:
                raise _Overflow
            prev = coeffs.get(mm)
            if prev is None:
                coeffs[mm] = -c * gc
                heapq.heappush(heap, -(mm ^ flip))
            else:
                coeffs[mm] = prev - c * gc
    return out


def _used(polys) -> set:
    return set().union(*(g.variables() for g in polys))


def _packed(order: TermOrder, used: set, run, meter: _Meter | None = None):
    """run(ring) over the variables `used`, with fields twice as wide
    after each overflow.  A wider attempt starts from the meter's and the
    `collect_stats` counters' values at entry, so an overflowed attempt
    charges and counts nothing."""
    stats = _STATS.get() or {}
    counted, spent = dict(stats), meter and meter.work
    width = MIN_WIDTH
    while True:
        try:
            return run(_Ring(order, used, width))
        except _Overflow:
            width *= 2
            stats.update(counted)
            if meter:
                meter.work = spent


def normal_form(f: Polynomial, basis: tuple[Polynomial, ...], order: TermOrder, meter: _Meter) -> Polynomial:
    """Fully reduce f modulo the basis polynomials, each made monic: no
    term of the result is divisible by the lead of any of them.  The meter
    is charged for every reduction step."""

    def run(ring: _Ring) -> Polynomial:
        return ring.unpack(_reduce(ring, ring.pack(f), [ring.monic(ring.pack(g)) for g in basis], meter).items())

    return _packed(order, _used([f, *basis]), run, meter)


class _Hilbert:
    """The Hilbert function of R/L, L the ideal of a run's leads, against a
    target's, from K-polynomial numerators: HF(d) is the sum of K_i *
    C(d - i + n - 1, n - 1) over n variables.  The leads are kept as
    polarized masks; a lead m added to L changes K by -t^deg(m) K(L : m),
    and the colon is one mask difference per lead."""

    def __init__(self, ring: _Ring, leads: list, target: tuple[int, ...], meter: _Meter):
        self.polar, self.varmask = _polarizer(ring.width, ring.guard.bit_length()), ring.varmask
        self.n, self.target, self.node = len(ring.shift), target, meter.node
        self.leads = [self.polar(lead & ring.varmask) for lead in leads]
        self.K, self.fresh = _k_numerator(self.leads, self.node), []

    def add(self, lead: int) -> None:
        self.fresh.append(self.polar(lead & self.varmask))

    def excess(self, d: int) -> int:
        """HF_L(d) - HF_target(d), the leads added since the last call
        taken into K first."""
        for m in self.fresh:
            for i, c in enumerate(_k_numerator([lead & ~m for lead in self.leads], self.node), start=m.bit_count()):
                self.K += [0] * (i + 1 - len(self.K))
                self.K[i] -= c
            self.leads.append(m)
        self.fresh = []
        diff = [a - b for a, b in itertools.zip_longest(self.K, self.target, fillvalue=0)]
        excess = sum(c * comb(d - i + self.n - 1, self.n - 1) for i, c in enumerate(diff[:d + 1]))
        if excess < 0:
            raise ArithmeticError(f"the leads' Hilbert function fell below the target's in degree {d}")
        return excess


def _buchberger(ring: _Ring, entries: list, budget: int, finish, target: tuple[int, ...] | None = None):
    """finish(ring, minimal, meter) of the minimal basis of monic packed
    entries; a finished run is counted.

    The variable generators (a lead of degree 1 and no tail) leave before
    any pair is formed.  With Z the union of their whole exponent fields
    (z^2 + 1 meets the field of z, and leaves 1),
    I = <Z> + <g with its Z-terms deleted>, and a variable's lead is
    coprime to every Z-free lead, so the pairs and reductions run among
    the nonzero Z-free entries alone.  The variables rejoin them for the
    minimalization, which drops them if a constant survived, and count
    in the basis size that a pair budget error reports.

    A `target`, the K-polynomial numerator of the initial ideal of homogeneous
    entries, drives the run by its Hilbert function (Traverso, "Hilbert
    functions and the Buchberger algorithm", J. Symbolic Comput., 1996).
    Pairs go by lcm degree, so when degree d begins the leads span the
    initial ideal below d, and excess = HF_leads(d) - HF_target(d) counts
    the degree-d monomials of the initial ideal that no lead divides yet.
    Each new member has degree d and a lead no other lead divides, so it
    lowers excess by exactly 1, and once excess is 0 every further degree-d
    pair reduces to zero: it is popped and charged, but neither tested
    nor reduced.  So the basis, the pairs and a pair budget trip are those
    of the plain run.  A negative excess raises, as the target is wrong.
    The numerator's recursion nodes are charged to the meter."""
    deg, top, flip, guard = ring.deg, ring.field, ring.flip, ring.guard
    variables, rest = [], []
    for lead, tail in dict.fromkeys(entries):
        (rest if tail or lead >> deg & top != 1 else variables).append((lead, tail))
    Z = sum(lead & ring.varmask for lead, _ in variables) * top  # distinct bits, each filling its field
    G = list(dict.fromkeys(ring.monic(kept) for lead, tail in rest
                           if (kept := {m: c for m, c in ((lead, 1), *tail) if not m & Z})))
    pending: dict[tuple[int, int], int] = {}  # pair -> lcm of its leads
    heap: list = []

    def push_pair(i: int, j: int):
        lcm = pending[i, j] = ring.lcm(G[i][0], G[j][0])
        heapq.heappush(heap, (lcm >> deg & top, lcm ^ flip, i, j))

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push_pair(i, j)

    meter = _Meter(budget)
    coprime = chain = zeros = skipped = 0
    if target is not None:
        hilbert, degree = _Hilbert(ring, [lead for lead, _ in G + variables], target, meter), None
    while heap:
        d, _, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j))
        meter.pair(len(G) + len(variables))
        if target is not None:
            if d != degree:
                degree, excess = d, hilbert.excess(d)
            if not excess:
                skipped += 1
                continue
        (li, ti), (lj, tj) = G[i], G[j]
        if lcm == li + lj:
            coprime += 1
            continue
        lg = lcm | guard
        if any(
            k != i and k != j and (lg - G[k][0]) & guard == guard
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            chain += 1
            continue
        qi, qj = lcm - li, lcm - lj  # the S-polynomial, whose leads cancel
        coeffs = {m + qi: c for m, c in ti}
        for m, c in tj:
            m += qj
            coeffs[m] = coeffs.get(m, 0) - c
        if any(m & guard for m in coeffs):
            raise _Overflow
        r = _reduce(ring, coeffs, G, meter)
        zeros += not r
        if r:
            G.append(ring.monic(r))
            for k in range(len(G) - 1):
                push_pair(k, len(G) - 1)
            if target is not None:
                hilbert.add(G[-1][0])
                excess -= 1

    # minimalize: drop members whose lead is divisible by another lead
    G += variables
    minimal = [
        (lead, tail)
        for idx, (lead, tail) in enumerate(G)
        if not any(
            k != idx and ((lead | guard) - other) & guard == guard and (other != lead or k < idx)
            for k, (other, _) in enumerate(G)
        )
    ]
    result = finish(ring, minimal, meter)
    _count(pairs=meter.pairs, pairs_coprime=coprime, pairs_chain=chain, pairs_hilbert=skipped,
           hilbert_nodes=meter.nodes, zero_reductions=zeros, basis_size=len(minimal),
           reduction_units=meter.work, split_variables=len(variables))
    return result


def _groebner(order: TermOrder, gens, budget: int, finish):
    """`_buchberger` on the nonzero gens, with fields widened after each overflow."""
    gens = [g for g in gens if not g.is_zero]
    return _packed(order, _used(gens), lambda ring: _buchberger(ring, [ring.monic(ring.pack(g)) for g in gens], budget, finish))


def _reduced(ring: _Ring, minimal: list, meter: _Meter) -> list:
    """The minimal basis tail-reduced, monic and sorted by lead.  No other
    lead divides a member's lead, so the lead and its coefficient 1 stay."""
    return sorted((ring.monic(_reduce(ring, {lead: 1, **dict(tail)}, minimal[:idx] + minimal[idx + 1 :], meter))
                   for idx, (lead, tail) in enumerate(minimal)), key=lambda e: e[0] ^ ring.flip)


def _unpacked(ring: _Ring, entries) -> tuple[Polynomial, ...]:
    return tuple(ring.unpack(((lead, 1), *tail)) for lead, tail in entries)


def buchberger(I: Ideal | list[Polynomial] | tuple[Polynomial, ...], order: TermOrder,
               budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis, sorted by increasing lead term,
    kept in an `Ideal`'s cache under ("gb", order)."""
    gens, cache = (I.generators, I.cache) if isinstance(I, Ideal) else (I, {})
    if ("gb", order) not in cache:
        cache["gb", order] = _groebner(order, gens, budget, lambda ring, minimal, meter: _unpacked(ring, _reduced(ring, minimal, meter)))
    return cache["gb", order]


def _leads(grid: tuple, ring: _Ring, packed) -> MonomialIdeal:
    """The ideal over `grid` of packed leads, moved straight to their grid fields, undecoded."""
    move = _mover([(at, grid.index(v) * (ring.width + 1)) for v, at in ring.shift.items()], ring.width)
    return _packed_ideal(grid, ring.width, map(move, packed))


def initial_ideal(I: Ideal, order: TermOrder, budget: int = DEFAULT_BUDGET) -> MonomialIdeal:
    """Minimal monomial generators of the lead terms of a Groebner basis: the
    reduced basis in I's cache, or else the packed minimal basis (tail
    reduction keeps every lead), by `_leads`."""
    grid = z_grid(*I.ambient)
    if (basis := I.cache.get(("gb", order))) is not None:
        return _packed(order, _used(basis), lambda ring: _leads(grid, ring, [ring.lead(ring.pack(g)) for g in basis]))
    return _groebner(order, I.generators, budget, lambda ring, minimal, meter: _leads(grid, ring, [lead for lead, _ in minimal]))


def canonical_order(ambient: tuple[int, int]) -> TermOrder:
    return antidiagonal_order(*ambient)


def ideal_equals(I: Ideal, J: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Mathematical equality via reduced bases in a shared canonical order."""
    if I.ambient != J.ambient:
        raise ValueError("ideals live on different ambient grids")
    order = canonical_order(I.ambient)
    return buchberger(I, order, budget) == buchberger(J, order, budget)


def ideal_contains(I: Ideal, f: Polynomial, budget: int = DEFAULT_BUDGET) -> bool:
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
    t = Polynomial.from_dict({((_T, 1),): 1})
    one_minus_t = Polynomial.from_dict({((_T, 1),): -1, (): 1})
    gens = [t * f for f in I.generators] + [one_minus_t * g for g in J.generators]
    grid_priority = canonical_order(I.ambient).priority
    order = TermOrder("lex", (_T,) + grid_priority)
    basis = buchberger(gens, order, budget)
    kept = tuple(g for g in basis if _T not in g.variables())
    return Ideal(kept, I.ambient)


def minimal_generators(I: Ideal, budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, ...]:
    """A minimal generating set, greedily by increasing degree.

    Each candidate is replaced by its monic remainder against the basis
    of the generators already kept, built when a candidate first needs
    it, so redundant tails drop out (a minor whose diagonal term lies in
    the span of earlier generators comes back as the surviving monomial,
    for instance).  Those reductions share one budget, apart from the
    budgets of the bases they reduce against.
    """
    gens = list(dict.fromkeys(I.generators))
    meter = _Meter(budget)

    def run(ring: _Ring) -> tuple[Polynomial, ...]:
        kept: list = []
        basis: list | None = []  # None once kept has outgrown it
        for coeffs in sorted(map(ring.pack, gens), key=lambda c: (max(m >> ring.deg & ring.field for m in c), ring.lead(c) ^ ring.flip)):
            if basis is None:
                basis = _buchberger(ring, kept, budget, _reduced)
            r = _reduce(ring, coeffs, basis, meter)
            if r:
                kept.append(ring.monic(r))
                basis = None
        return _unpacked(ring, kept)

    return _packed(canonical_order(I.ambient), _used(gens), run, meter)
