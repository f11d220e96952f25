"""Squarefree monomial ideals and Stanley-Reisner combinatorics.

A `MonomialIdeal` holds one packed int per minimal generator over its
ambient variables, a support mask when squarefree; tuples decode on read.
It keeps the numerator K(t) of its quotient's Hilbert series, computed by
Bigatti's pivot recursion on squarefree masks, powers polarized; the
Groebner engine drives a run by it.

Minimal primes are minimal vertex covers of the generator supports,
Stanley-Reisner facets are their complements, and graded Betti numbers
of the quotient come from Hochster's formula.  Rather than restricting
the (large) Stanley-Reisner complex to each multidegree, we use the
Alexander dual inside the multidegree: for a squarefree multidegree s,

    beta_{i,s}(R/J) = rank of reduced homology in degree i-2 of the
                      union of simplices {s minus supp(g)} over the
                      generators g dividing x^s,

which is a union of few explicitly-known simplices.  One pass of strong
collapses shrinks that union to its core before any boundary matrix is
built, so the lattice sweep stays cheap.  Nothing shrinks a core further:
its transpose is again a core (Barmak and Minian, 2012).

pdim and reg swap under Alexander duality.  With J^v = (x^p : p a
minimal prime of J), whose dual is J again, reg(R/J) = pdim(R/J^v) - 1
and pdim(R/J) = reg(R/J^v) + 1 (Terai, 1999).  For J unmixed of height
c, R/J is Cohen-Macaulay exactly when pdim(R/J) = c, that is, when
reg(R/J^v) = c - 1 (Eagon and Reiner, 1998).  So one bounded walk over
the Betti numbers, scoring i for pdim or |sigma| - i for reg, answers
both questions, on the smaller lcm lattice, of J or of J^v, with a tie
going to J.

All homology is rational and exact.  Boundary ranks are taken over
GF(2) first, which certifies the rational answer whenever the GF(2)
homology is zero or sits in a single degree: rational Betti numbers
never exceed the GF(2) ones and both have the same Euler
characteristic.  Homology spread over two or more degrees is recomputed
over the rationals.  Both fields run one elimination, each row reduced
at its top column, from the largest face size down with clearing (the
"twist" of Chen and Kerber, 2011), which is valid over any field: the
row of a face that was a pivot one size up reduces to zero, so it is
skipped.  Building a row is all that differs between the two.  The
unit-pivot integer elimination this replaced is the test oracle in
`tests/oracles.py`.  `collect_stats` counts this work.

The Schubert calls first try a certificate, kept by the ideal: a vertex
decomposition, pure or not, is a shelling whose largest restriction is
reg(R/J) (Bjorner-Wachs; Herzog-Hibi-Zheng); a pure one makes R/J
Cohen-Macaulay (Provan-Billera).  Subword complexes have one (Knutson-Miller).
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .poly import Monomial, Var, _mover, monomial, mono_to_text, poly_from_text, var_to_text

DEFAULT_LATTICE_LIMIT = 50_000
DEFAULT_FACE_LIMIT = 1 << 20


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal in the sorted ambient `variables`: one packed int per
    minimal generator, ascending, over all of them, whether a generator uses
    them or not.  `_width` is the bit length of the largest exponent.  Up
    to 1, the ints are support masks, bit k for `variables[k]`; else each
    variable has a `_width`-bit field topped by a guard bit, so that a
    divides b when ``((b | G) - a) & G == G`` for the guard mask G.  Equal
    ideals hold equal fields.  `generators`, the (variable, exponent)
    tuples in tuple order, is decoded on first read and kept."""

    variables: tuple[Var, ...]
    _width: int
    _packed: tuple[int, ...]

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(sorted(tuple((self.variables[k], e) for k, e in _fields(m, self._width)) for m in self._packed))

    @cached_property
    def _supports(self) -> tuple[int, ...]:
        """The support of each generator as a mask over `variables`."""
        if self.is_squarefree:
            return self._packed
        return tuple(sum(1 << k for k, _ in _fields(m, self._width)) for m in self._packed)

    @cached_property
    def _primes(self) -> tuple[int, ...]:
        """Minimal primes as masks over `variables`, ascending."""
        supports = sorted(self._packed, key=int.bit_count) if self.is_squarefree else _minimal_sets(self._supports)
        return tuple(_cover_masks(supports))

    # the search `vertex_decomposition_reg` reads, made once per ideal
    _shelling = cached_property(lambda self: _vd_search(self))

    @cached_property
    def _numerator(self) -> tuple[int, ...]:
        """K(t), coefficients from t^0 up to its degree, with Hilbert series
        K(t) / (1 - t)^n of R/J over any n variables holding J; its
        recursion nodes are counted."""
        nodes = itertools.count()
        span = _layout(self._width)[0] * len(self.variables)
        K = _k_numerator(map(_polarizer(self._width, span), self._packed), nodes.__next__)
        _count(hilbert_nodes=next(nodes))
        while len(K) > 1 and not K[-1]:
            K.pop()
        return tuple(K)

    @property
    def is_zero(self) -> bool:
        return not self._packed

    @property
    def is_unit(self) -> bool:
        return self._packed == (0,)  # the monomial 1, which divides all others

    @property
    def is_squarefree(self) -> bool:
        return self._width < 2


def _layout(width: int) -> tuple[int, int]:  # (bits per variable, field mask)
    return (width + 1, (1 << width) - 1) if width > 1 else (1, 1)


def _fields(m: int, width: int) -> Iterator[tuple[int, int]]:
    """(k, exponent) of each nonzero field of a packed int, lowest first, each cleared once read."""
    step, field = _layout(width)
    while m:
        k = ((m & -m).bit_length() - 1) // step
        yield k, m >> k * step & field
        m &= ~(field << k * step)


def monomial_ideal(
    monos: Iterable[Monomial], variables: Iterable[Var] | None = None
) -> MonomialIdeal:
    """The ideal of `monos` in `variables`, by default those its minimal generators use."""
    monos = set(map(monomial, monos))  # canonical, no negative exponent
    used = {v for m in monos for v, _ in m}
    ambient = tuple(sorted(used if variables is None else set(variables)))
    if missing := used.difference(ambient):
        raise ValueError("generators use variables outside the ambient set: " + ", ".join(sorted(map(var_to_text, missing))))
    width = max((e for m in monos for _, e in m), default=0).bit_length()
    at = {v: k * _layout(width)[0] for k, v in enumerate(ambient)}
    J = _packed_ideal(ambient, width, [sum(e << at[v] for v, e in m) for m in monos])
    if variables is None and reduce(or_, J._supports, 0).bit_count() < len(ambient):
        return monomial_ideal(J.generators)  # a dropped generator used more variables
    return J


def _minimal_sets(masks: Iterable[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(map((~m).__and__, out)):  # each kept mask has a bit outside m
            out.append(m)
    return out


def _packed_ideal(variables: tuple[Var, ...], width: int, packed: Iterable[int]) -> MonomialIdeal:
    """The ideal in the sorted ambient `variables` of the ints packed over
    them with `width` as in `MonomialIdeal`: the minimal ones, ascending,
    narrowed to the width they need.  Field k stays `variables[k]`."""
    if width < 2:
        kept = sorted(_minimal_sets(packed))
        return MonomialIdeal(variables, int(any(kept)), tuple(kept))
    step, field = _layout(width)
    guard = sum(1 << k * step + width for k in range(len(variables)))
    kept = []
    for m in sorted(set(packed)):  # a proper divisor is a smaller int
        if not any(((m | guard) - o) & guard == guard for o in kept):
            kept.append(m)
    used, fields = reduce(or_, kept, 0), range(len(variables))
    top = max((used >> k * step & field for k in fields), default=0).bit_length()
    if top < width:  # fields keep their order, and so the ints keep theirs
        kept = list(map(_mover([(k * step, k * _layout(top)[0]) for k in fields], top), kept))
    return MonomialIdeal(variables, top, tuple(kept))


def _cover_masks(supports: Iterable[int]) -> list[int]:
    """Minimal vertex covers of an antichain of support masks (fewest bits
    first, as `MonomialIdeal._primes` passes them), ascending as ints.

    Berge multiplication folds the supports s in one at a time.  One partition
    pass splits the covers into those that hit s, which stay minimal, and those
    that miss it, and collects the rest o ^ bit of each o that meets s in a single
    bit.  Only a c that misses s is extended, by each bit of s: c | bit contains
    an old cover o exactly when o & s is that bit and its rest lies inside c, so
    only those rests are tested.  No two kept extensions coincide.
    """
    covers = [0]
    for s in supports:
        hit, miss, rests = [], [], []
        for o in covers:
            (hit if (meet := o & s) else miss).append(o)
            if meet and not meet & (meet - 1):
                rests.append((o ^ meet, meet))
        for c in miss:  # none when every cover hits s, which is then skipped
            free = s  # the bits whose extensions of c contain no old cover
            for r, bit in rests:
                if not r & ~c:
                    free &= ~bit
            while free:
                hit.append(c | free & -free)
                free &= free - 1
        covers = hit
    return sorted(covers)


def minimal_primes(J: MonomialIdeal) -> tuple[tuple[Var, ...], ...]:
    """Minimal vertex covers of the generator supports, canonically sorted.

    Non-squarefree input is replaced by its radical first.
    """
    if J.is_unit:
        raise ValueError("unit ideal has no minimal primes")
    return tuple(sorted(tuple(J.variables[i] for i in range(c.bit_length()) if c >> i & 1) for c in J._primes))


def codim(J: MonomialIdeal) -> int:
    if J.is_unit:
        raise ValueError("unit ideal has no minimal primes")
    return min(p.bit_count() for p in J._primes)


# -- Hilbert series numerators ----------------------------------------------


def _polarizer(width: int, span: int):
    """The map from ints packed with `width` as in `MonomialIdeal`, fields
    below bit `span`, to squarefree masks: x^e in the field at bit b becomes
    bits b, b + span, ..., b + (e - 1) * span.  Polarization keeps the
    K-polynomial, and a squarefree int is its own mask."""
    if width < 2:
        return int
    step = _layout(width)[0]
    low = sum(1 << b for b in range(0, span, step))

    def polar(m: int) -> int:
        if not m & ~low:
            return m
        return sum(((1 << e * span) - 1) // ((1 << span) - 1) << k * step for k, e in _fields(m, width))

    return polar


def _times_one_minus(p: list[int], d: int) -> list[int]:
    """p * (1 - t^d)."""
    out = p + [0] * d
    for i, c in enumerate(p):
        out[i + d] -= c
    return out


def _k_numerator(masks: Iterable[int], node) -> list[int]:
    """K(t) of the ideal of squarefree `masks`, coefficients from t^0, by
    Bigatti's pivot recursion ("Computation of Hilbert-Poincare series",
    J. Pure Appl. Algebra, 1997) on its most frequent variable x:
    K(I) = (1 - t) K(I without x) + t K(I : x).  Variables and pairwise
    coprime generators are read off as factors 1 - t^deg.  node() is
    called once per recursion node."""

    def k(gens: list[int]) -> list[int]:
        node()
        if gens and not gens[0]:
            return [0]  # the unit ideal
        single = [g for g in gens if not g & (g - 1)]  # variables, which meet no other minimal generator
        if single:
            gens = [g for g in gens if g & (g - 1)]
        union = total = 0
        for g in gens:
            union |= g
            total += g.bit_count()
        if total == union.bit_count():  # pairwise coprime
            p = [1]
            for g in gens:
                p = _times_one_minus(p, g.bit_count())
        else:
            counts: dict[int, int] = {}
            for g in gens:
                while g:
                    b = g & -g
                    counts[b] = counts.get(b, 0) + 1
                    g ^= b
            x = max(counts, key=counts.__getitem__)
            p = _times_one_minus(k([g for g in gens if not g & x]), 1)
            for i, c in enumerate(k(_minimal_sets(g & ~x for g in gens)), start=1):
                if i < len(p):
                    p[i] += c
                else:
                    p.append(c)
        for _ in single:
            p = _times_one_minus(p, 1)
        return p

    return k(_minimal_sets(masks))


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet description of a simplicial complex on ordered vertices."""

    vertices: tuple[Var, ...]
    facets: tuple[tuple[Var, ...], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        for f in self.facets:
            if not set(f) <= vs:
                raise ValueError("facet uses a vertex outside the complex")
        sets = [frozenset(f) for f in self.facets]
        for a, b in itertools.combinations(sets, 2):
            if a <= b or b <= a:
                raise ValueError("facets must not contain one another")

    @property
    def dim(self) -> int:
        if not self.facets:
            return -2  # void complex, no faces at all
        return max(len(f) for f in self.facets) - 1


def stanley_reisner_complex(J: MonomialIdeal) -> SimplicialComplex:
    """Facets are complements of the minimal primes in the ambient set."""
    if J.is_unit:
        raise ValueError("unit ideal has no Stanley-Reisner complex")
    facets = tuple(tuple(v for v in J.variables if v not in p) for p in minimal_primes(J))
    return SimplicialComplex(J.variables, facets)


# -- work counters ----------------------------------------------------------


STAT_NAMES = (
    "route_gate",
    "route_primal",
    "route_dual",
    "lattice",
    "complexes",
    "faces",
    "gf2_ranks",
    "rows_cleared",
    "exact_fallbacks",
    "route_vd", "route_vd_nonpure", "vd_nodes", "vd_handovers", "memo_hits", "dream_hits",
    "route_cdg",
    "pairs", "pairs_coprime", "pairs_chain", "pairs_hilbert", "hilbert_nodes",
    "zero_reductions", "basis_size", "reduction_units", "split_variables",
    "dp_states", "dp_dropped",
)

_STATS: ContextVar[dict[str, int] | None] = ContextVar("work_stats", default=None)


class collect_stats:
    """Context manager that counts the homology and Groebner work of the
    calls made inside its block, in a dict keyed by STAT_NAMES.

    `route_gate` counts answers the unmixedness gate decided alone;
    `route_primal` and `route_dual` count lcm-lattice walks over J and
    over its Alexander dual, and `lattice` the lcms those walks visited.
    `complexes` counts homology computations, one per multidegree, and
    `faces` the faces built after collapses.  `gf2_ranks` counts boundary
    maps reduced over GF(2), `rows_cleared` the rows clearing skipped and
    `exact_fallbacks` the complexes recomputed by integer elimination.
    `route_vd` and `route_vd_nonpure` count answers certified by a vertex
    decomposition of a pure and of a nonpure complex, `vd_nodes` the
    complexes searched, `vd_handovers` the answers left to the walk and
    `memo_hits` the Schubert calls that found their ASM's J already built.
    `dream_hits` counts the `pipe_dreams` calls answered from its memo.

    `route_cdg` counts diagonal initial ideals read off CDG generators.
    Each Buchberger run adds the S-pairs it popped, those pruned as
    coprime or by the chain criterion, those a Hilbert-driven run skipped
    (`pairs_hilbert`), its reductions to zero, its minimal basis size, the
    reduction units charged to its budget and the variable generators it
    split off before forming pairs.  `hilbert_nodes` counts the nodes of
    the K-polynomial numerator recursion, of a driven run's leads and of
    each `MonomialIdeal` whose numerator is computed.
    `dp_states` counts the partial paths the row search of `perm_set_of_asm`
    kept, summed over its rows, and `dp_dropped` the leftmost free columns
    of blocks it tried and cut: by a rank limit, by a lower cover that keeps
    every bound, or as no box below could free a forbidden column.
    `route_*`, `vd_handovers`, `memo_hits` and `dream_hits` count per
    call; the rest count work done, which a kept J or search does not
    repeat.

    >>> with collect_stats() as s:
    ...     _ = reg_quotient(monomial_ideal([((("x", 1), 1),), ((("x", 2), 1),)]))
    >>> s["route_dual"], s["lattice"], s["complexes"]
    (1, 1, 0)
    """

    def __enter__(self) -> dict[str, int]:
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        self.token = _STATS.set(self.stats)
        return self.stats

    def __exit__(self, *exc) -> None:
        _STATS.reset(self.token)


def _count(**work: int) -> None:
    stats = _STATS.get()
    if stats is not None:
        for name, n in work.items():
            stats[name] += n


# -- homology of a union of simplices -------------------------------------
#
# A family of bitmasks over a point set stands for the downward closure
# of the given simplices.  Strong collapses (a point whose incident
# maximal sets all contain some other point may be deleted) preserve
# homotopy type, so reduced homology is read off a much smaller core.
# Swapping points and sets preserves it too, but gains nothing there:
# the transpose of a core is a core, with the two counts swapped.


def _collapse_points(masks: list[int]) -> list[int]:
    """Strong collapses of a family of distinct maximal masks, by a scan.

    The live points are scanned upward, and the first whose holding masks
    meet in more than that point is deleted: each mask holding it drops
    it, and a shrunk mask that lies inside a mask without the point goes
    (it cannot lie in another shrunk one), so the live masks stay
    distinct and maximal.  The live masks are returned in input order, on
    the input's points.  Below the deleted point a meet is unchanged or
    loses that point, unless a mask holding it went, so the scan resumes
    at the lowest point of a mask that went, or just past the deletion.
    """
    cur, bit = list(masks), 1
    while True:
        rest = reduce(or_, cur, 0) & -bit  # the live points from bit up
        while rest:
            bit = rest & -rest
            meet = -1
            for m in cur:
                if m & bit:
                    meet &= m
            if meet != bit:
                break
            rest ^= bit
        else:
            return cur
        without = [o for o in cur if not o & bit]
        kept, resume = [], bit << 1
        for m in cur:
            if m & bit:
                m ^= bit
                for o in without:
                    if m & o == m:  # m goes
                        resume = min(resume, m & -m)
                        break
                else:
                    kept.append(m)
                continue
            kept.append(m)
        cur, bit = kept, resume


def _enumerate_faces(masks: Sequence[int], limit: int) -> dict[int, list[int]]:
    """Faces of the downward closure of distinct maximal masks, by size.

    Sizes run from the largest down, and each size is built once from the
    one above.  The guard trips when the (limit + 1)-th face is added.
    """
    tops: dict[int, list[int]] = {}
    for m in masks:
        tops.setdefault(m.bit_count(), []).append(m)
    size = max(tops)
    level = set(tops[size])
    done = 0
    by_size: dict[int, list[int]] = {}
    while done + len(level) <= limit:
        done += len(level)
        by_size[size] = sorted(level)
        if not size:
            return by_size
        size -= 1
        below = set(tops.get(size, ()))
        for f in level:
            sub = f
            while sub:
                bit = sub & -sub
                below.add(f ^ bit)
                sub ^= bit
            if done + len(below) > limit:
                break
        level = below
    raise ValueError(
        "simplicial complex too large after collapses:"
        f" {limit + 1} faces against max_faces = {limit}"
    )


def _pivots(rows: list, exact: bool) -> set[int]:
    """Top columns of the reduced rows, one for each unit of rank.

    Each row is reduced at its top column by the row kept there, until it
    is zero or its top column is new.  Over GF(2) rows are bitmasks; over
    the rationals they are dicts {column: entry}, reduced by `Fraction`s.
    """
    kept: dict = {}
    for r in rows:
        while r:
            top = max(r) if exact else r.bit_length() - 1
            p = kept.get(top)
            if p is None:
                kept[top] = r
                break
            if exact:
                f = Fraction(r[top], p[top])
                r = {c: v for c in r.keys() | p.keys() if (v := r.get(c, 0) - f * p.get(c, 0))}
            else:
                r ^= p
    return set(kept)


def _boundary_ranks(by_size: dict[int, list[int]], exact: bool) -> dict[int, int]:
    """Rank of the boundary map from faces of size k to faces of size k-1,
    for each k; over the rationals when exact, else over GF(2).

    Ranks go from the largest size down with clearing, which is valid over
    any field: a face that is a pivot of the map one size up has a row that
    reduces to zero, so that row is skipped and every rank is unchanged.
    """
    ranks: dict[int, int] = {}
    cleared: Iterable[int] = ()  # indices of faces that were pivots one size up
    for k in sorted(by_size, reverse=True):
        if k == 0:
            continue
        below = {m: i for i, m in enumerate(by_size[k - 1])}
        rows = []
        for index, m in enumerate(by_size[k]):
            if index in cleared:
                continue
            row = {} if exact else 0
            sign = 1
            sub = m
            while sub:
                bit = sub & -sub
                if exact:
                    row[below[m ^ bit]] = sign
                    sign = -sign
                else:
                    row |= 1 << below[m ^ bit]
                sub ^= bit
            rows.append(row)
        cleared = _pivots(rows, exact)
        ranks[k] = len(cleared)
    return ranks


def _homology_from_ranks(by_size: dict[int, list[int]], ranks: dict[int, int]) -> dict[int, int]:
    out = {}
    for k, faces in by_size.items():
        h = len(faces) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def _homology_of_union(masks: Sequence[int], limit: int) -> dict[int, int]:
    """Reduced rational homology ranks {degree: rank} of a simplex union,
    given by a nonempty antichain of masks (its maximal simplices).

    Ranks are taken over GF(2) first.  Rational Betti numbers are at most
    the GF(2) ones in every degree and share their Euler characteristic,
    so GF(2) homology in at most one degree is the rational homology;
    otherwise the ranks are recomputed over the rationals.
    """
    masks = _collapse_points(masks)
    if len(masks) == 1:
        _count(complexes=1)
        return {-1: 1} if masks[0] == 0 else {}
    by_size = _enumerate_faces(masks, limit)
    ranks = _boundary_ranks(by_size, exact=False)
    hom = _homology_from_ranks(by_size, ranks)
    spread = len(hom) > 1
    if spread:
        hom = _homology_from_ranks(by_size, _boundary_ranks(by_size, exact=True))
    # each pivot of the map from size k skipped one row of the map below
    _count(
        complexes=1,
        faces=sum(len(faces) for faces in by_size.values()),
        gf2_ranks=len(ranks),
        rows_cleared=sum(r for k, r in ranks.items() if k > 1),
        exact_fallbacks=spread,
    )
    return hom


# -- Betti numbers, Cohen-Macaulayness and regularity ---------------------
#
# Generators and minimal primes are bitmasks over the sorted variables of
# J.  A multidegree sigma is a mask too, and the simplices at sigma, their
# core and its faces keep those bits: sigma ^ g is sigma minus supp(g).


def _require_squarefree(J: MonomialIdeal) -> None:
    """Reject the unit ideal and non-squarefree ideals."""
    if J.is_unit:
        raise ValueError("unit ideal has no Betti table")
    if not J.is_squarefree:
        raise ValueError("Betti numbers require a squarefree ideal")


def _lcms(gens: Sequence[int], cap: int) -> set[int] | None:
    """The lcms of all sets of generators, the empty lcm 0 included, or
    None as soon as there are more than `cap`."""
    lcms = {0}
    for g in gens:
        lcms |= {s | g for s in lcms}
        if len(lcms) > cap:
            return None
    return lcms


def _lattice_guard(max_lattice: int) -> ValueError:
    # the guard trips when the (max_lattice + 1)-th lcm is found
    return ValueError(
        "lcm lattice exceeds the size guard:"
        f" {max_lattice + 1} lcms against max_lattice = {max_lattice}"
    )


def _walk(lcms: set[int], dual: bool) -> list[int]:
    """The nonempty lcms in increasing order, counted as one walk."""
    _count(lattice=len(lcms) - 1, route_dual=int(dual), route_primal=int(not dual))
    return sorted(lcms - {0})


def _smaller_lattice(gens: Sequence[int], primes: Sequence[int], max_lattice: int) -> tuple[bool, list[int]]:
    """Whether the Alexander dual has the smaller lcm lattice (a tie goes
    to J), and that lattice.

    The side with fewer generators is built first, and the other is given
    up once it outgrows it.  The guard trips only when both outgrow it.
    """
    dual_first = len(primes) < len(gens)
    first, second = (primes, gens) if dual_first else (gens, primes)
    built = _lcms(first, max_lattice)
    # the dual has to be strictly smaller to be taken
    cap = max_lattice if built is None else len(built) - (not dual_first)
    other = _lcms(second, cap)
    if other is not None:
        return not dual_first, _walk(other, not dual_first)
    if built is None:
        raise _lattice_guard(max_lattice)
    return dual_first, _walk(built, dual_first)


def _betti_at(sigma: int, divisors: list[int], max_faces: int) -> dict[int, int]:
    """Betti numbers {i: rank} in multidegree sigma of the quotient by the
    squarefree generators `divisors`, which are those dividing x^sigma."""
    hom = _homology_of_union([sigma ^ g for g in divisors], max_faces)
    return {d + 2: r for d, r in hom.items()}


def _divisors(sigma: int, gens: Sequence[int]) -> list[int]:
    return [g for g in gens if not g & ~sigma]


def betti_numbers(
    J: MonomialIdeal,
    max_lattice: int = DEFAULT_LATTICE_LIMIT,
    max_faces: int = DEFAULT_FACE_LIMIT,
) -> dict[tuple[int, tuple[Var, ...]], int]:
    """Graded Betti numbers of the quotient by a squarefree ideal.

    Keys are (homological degree, sorted multidegree support).
    """
    _require_squarefree(J)
    variables, gens = J.variables, J._supports
    betti = {(0, ()): 1}
    lcms = _lcms(gens, max_lattice)
    if lcms is None:
        raise _lattice_guard(max_lattice)
    for sigma in _walk(lcms, False):
        verts = tuple(variables[u] for u in range(sigma.bit_length()) if sigma >> u & 1)
        for i, r in _betti_at(sigma, _divisors(sigma, gens), max_faces).items():
            betti[(i, verts)] = r
    return betti


def _betti_walk(gens: Sequence[int], lattice: list[int], best: int, pdim: bool, max_faces: int) -> int:
    """pdim (with `pdim`) or reg of the quotient by the squarefree generators
    `gens`, with lcm lattice `lattice`, known to be at least `best`: the
    largest i, or |sigma| - i, over its Betti numbers beta_{i,sigma}.

    beta_{i,sigma} needs i <= |sigma| and i <= k, when k generators divide
    x^sigma, and i >= 2 off the generators, whose beta_{1,g} = 1 the caller
    counts in `best`.  Multidegrees are visited by the bound this puts on
    the score, min(|sigma|, k) or |sigma| - 2, largest first in a stable
    sort, until it cannot beat the best.
    """
    walk = []
    for sigma in lattice:
        divisors = _divisors(sigma, gens)
        size = sigma.bit_count()
        walk.append((min(size, len(divisors)) if pdim else size - 2, size, sigma, divisors))
    walk.sort(key=lambda t: t[0], reverse=True)
    for bound, size, sigma, divisors in walk:
        if bound <= best:
            break
        for i in _betti_at(sigma, divisors, max_faces):
            best = max(best, i if pdim else size - i)
    return best


def reg_quotient(
    J: MonomialIdeal,
    max_lattice: int = DEFAULT_LATTICE_LIMIT,
    max_faces: int = DEFAULT_FACE_LIMIT,
) -> int:
    """Castelnuovo-Mumford regularity of the quotient by a squarefree ideal.

    The walk takes the smaller lcm lattice, of J or of its Alexander dual
    J^v.  pdim and reg swap under Alexander duality, so on the dual side
    the answer is Terai's reg(R/J) = pdim(R/J^v) - 1; on J's side it is
    max{|sigma| - i} over the Betti numbers of R/J.
    """
    _require_squarefree(J)
    gens, primes = J._supports, J._primes  # the minimal primes generate the dual
    dual, lattice = _smaller_lattice(gens, primes, max_lattice)
    # beta_{1,g} = 1 for every generator g, so reg(R/J) >= deg g - 1
    top = max((g.bit_count() for g in gens), default=1)
    if dual:
        return _betti_walk(primes, lattice, top, True, max_faces) - 1
    return _betti_walk(gens, lattice, top - 1, False, max_faces)


def is_cm_quotient(
    J: MonomialIdeal,
    max_lattice: int = DEFAULT_LATTICE_LIMIT,
    max_faces: int = DEFAULT_FACE_LIMIT,
) -> bool:
    """Is pdim equal to codim for the quotient by a squarefree ideal?

    Cohen-Macaulay implies unmixed, so minimal primes of more than one
    height give False before any homology.  When every height is c, the
    route walks the smaller lcm lattice, of J or of its Alexander dual
    J^v.  pdim and reg swap under Alexander duality, so on the dual side
    R/J is Cohen-Macaulay exactly when reg(R/J^v) = c - 1 (Eagon-Reiner);
    on J's side, exactly when pdim(R/J) = c.
    """
    _require_squarefree(J)
    gens, primes = J._supports, J._primes  # the minimal primes generate the dual
    heights = {p.bit_count() for p in primes}
    if len(heights) > 1:
        _count(route_gate=1)
        return False
    (c,) = heights
    dual, lattice = _smaller_lattice(gens, primes, max_lattice)
    if dual:
        return _betti_walk(primes, lattice, c - 1, False, max_faces) == c - 1
    return _betti_walk(gens, lattice, c, True, max_faces) == c


VD_NODE_LIMIT = 10_000


def _vd_h(facets: frozenset[int], memo: dict) -> tuple[int, ...] | None:
    """Restriction counts (h_0, h_1, ...) of the shelling from a vertex
    decomposition of the complex on the facet masks, pure or not (then the
    h-vector), or None.  A shedding vertex v, tried highest first, has each
    F - v in a facet without v; then h = h_del + t * h_link, for its nonempty
    deletion {F : v not in F} and link {F - v : v in F} decomposed in turn,
    so only a v in some facet and not all is tried: no unused bit or cone
    point.  Past VD_NODE_LIMIT complexes in `memo` none is opened."""
    if len(facets) == 1:
        return (1,)
    if facets in memo or len(memo) >= VD_NODE_LIMIT:
        return memo.get(facets)
    memo[facets] = None
    free = reduce(or_, facets) & ~reduce(and_, facets)
    for u in reversed([u for u in range(free.bit_length()) if free >> u & 1]):
        link = frozenset(F ^ 1 << u for F in facets if F >> u & 1)
        rest = frozenset(F for F in facets if not F >> u & 1)
        if all(any(G & ~H == 0 for H in rest) for G in link):
            h_link = _vd_h(link, memo)
            h_del = h_link and _vd_h(rest, memo)
            if h_del:
                pairs = itertools.zip_longest(h_del, (0, *h_link), fillvalue=0)
                memo[facets] = tuple(a + b for a, b in pairs)
                break
    return memo[facets]


def _vd_search(J: MonomialIdeal) -> tuple[int, ...] | None:
    """`_vd_h` of J's Stanley-Reisner complex, its primes' complements in the ambient, nodes counted."""
    memo: dict = {}
    h = _vd_h(frozenset(((1 << len(J.variables)) - 1) ^ p for p in J._primes), memo)
    _count(vd_nodes=len(memo))
    return h


def vertex_decomposition_reg(J: MonomialIdeal, pure: bool = False) -> int | None:
    """reg(R/J) = deg h of `_vd_h`, kept by J, if the Stanley-Reisner complex
    of a squarefree J has a vertex decomposition, a shelling (Bjorner-Wachs),
    so that J^v has linear quotients (Herzog-Hibi-Zheng).  Else None, a
    hand-over.  With `pure`, a mixed J gets None before any search."""
    _require_squarefree(J)
    mixed = len({p.bit_count() for p in J._primes}) > 1
    if pure and mixed:
        return None
    h = J._shelling
    _count(route_vd=h is not None and not mixed, route_vd_nonpure=h is not None and mixed, vd_handovers=h is None)
    return None if h is None else len(h) - 1


def monomial_ideal_to_json(J: MonomialIdeal) -> list[str]:
    """Generators in the text form of mono_to_text, canonical order."""
    return [mono_to_text(m) for m in J.generators]


def monomial_ideal_from_json(
    data: Sequence[str], variables: Iterable[Var] | None = None
) -> MonomialIdeal:
    monos = []
    for text in data:
        terms = poly_from_text(text).terms
        if len(terms) != 1 or terms[0][1] != 1:
            raise ValueError(f"generator {text!r} is not a monic monomial")
        monos.append(terms[0][0])
    return monomial_ideal(monos, variables)


def monomial_ideal_to_text(J: MonomialIdeal) -> str:
    """Macaulay2 notation, `monomialIdeal (a, b)`; the zero ideal is
    `monomialIdeal ()`."""
    return "monomialIdeal (" + ", ".join(monomial_ideal_to_json(J)) + ")"


def monomial_ideal_from_text(text: str, variables: Iterable[Var] | None = None) -> MonomialIdeal:
    s = text.strip()
    if not (s.startswith("monomialIdeal (") and s.endswith(")")):
        raise ValueError("expected monomialIdeal (...)")
    inner = s[len("monomialIdeal (") : -1]
    return monomial_ideal_from_json(inner.split(", ") if inner else [], variables)
