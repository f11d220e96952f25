"""Squarefree monomial ideals and Stanley-Reisner combinatorics.

Minimal primes are minimal vertex covers of the generator supports,
Stanley-Reisner facets are their complements, and graded Betti numbers
of the quotient come from Hochster's formula.  Rather than restricting
the (large) Stanley-Reisner complex to each multidegree, we use the
Alexander dual inside the multidegree: for a squarefree multidegree s,

    beta_{i,s}(R/J) = rank of reduced homology in degree i-2 of the
                      union of simplices {s minus supp(g)} over the
                      generators g dividing x^s,

which is a union of few explicitly-known simplices.  Strong collapses
and Dowker flips shrink that union before any boundary matrix is
built, so the lattice sweep stays cheap.  All homology is rational and
exact.  Boundary ranks are taken over GF(2) first, which certifies the
rational answer whenever the GF(2) homology is zero or sits in a single
degree: rational Betti numbers never exceed the GF(2) ones and both
have the same Euler characteristic.  Homology spread over two or more
degrees is recomputed with exact integer elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .poly import (
    Monomial,
    Var,
    mono_divides,
    mono_lcm,
    mono_support,
    poly_from_text,
    var_to_text,
)

DEFAULT_LATTICE_LIMIT = 50_000
DEFAULT_FACE_LIMIT = 1 << 20


def _minimalize(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    uniq = list(dict.fromkeys(monos))
    kept = [
        m
        for m in uniq
        if not any(other != m and mono_divides(other, m) for other in uniq)
    ]
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal with minimalized, canonically sorted generators."""

    generators: tuple[Monomial, ...]
    variables: tuple[Var, ...]

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(m == () for m in self.generators)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for m in self.generators for _, e in m)


def monomial_ideal(
    monos: Iterable[Monomial], variables: Iterable[Var] | None = None
) -> MonomialIdeal:
    gens = _minimalize(monos)
    support = {v for m in gens for v in mono_support(m)}
    if variables is None:
        ambient = tuple(sorted(support))
    else:
        ambient = tuple(sorted(set(variables)))
        missing = support - set(ambient)
        if missing:
            names = ", ".join(sorted(var_to_text(v) for v in missing))
            raise ValueError(f"generators use variables outside the ambient set: {names}")
    return MonomialIdeal(gens, ambient)


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


def _minimal_sets(masks: Iterable[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=lambda x: bin(x).count("1")):
        if not any(m & o == o for o in out):
            out.append(m)
    return out


def minimal_primes(J: MonomialIdeal) -> tuple[tuple[Var, ...], ...]:
    """Minimal vertex covers of the generator supports, canonically sorted.

    Computed by Berge multiplication: fold the supports in one at a
    time, extending each partial cover that misses the new support and
    discarding non-minimal results each round.  Non-squarefree input is
    replaced by its radical first.
    """
    if J.is_unit:
        raise ValueError("unit ideal has no minimal primes")
    variables = sorted({v for m in J.generators for v in mono_support(m)})
    pos = {v: i for i, v in enumerate(variables)}
    supports = _minimal_sets(
        sum(1 << pos[v] for v in mono_support(m)) for m in J.generators
    )
    supports.sort(key=lambda s: bin(s).count("1"))
    covers = [0]
    for s in supports:
        grown = set()
        for c in covers:
            if c & s:
                grown.add(c)
            else:
                bits = s
                while bits:
                    bit = bits & -bits
                    grown.add(c | bit)
                    bits &= bits - 1
        covers = _minimal_sets(grown)
    primes = [
        tuple(variables[i] for i in range(len(variables)) if c >> i & 1)
        for c in covers
    ]
    primes.sort()
    return tuple(primes)


def codim(J: MonomialIdeal) -> int:
    if J.is_zero:
        return 0
    return min(len(p) for p in minimal_primes(J))


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
    if J.is_zero:
        return SimplicialComplex(J.variables, (J.variables,))
    ambient = set(J.variables)
    facets = [tuple(sorted(ambient - set(p))) for p in minimal_primes(J)]
    return SimplicialComplex(J.variables, tuple(facets))


# -- homology of a union of simplices -------------------------------------
#
# A family of bitmasks over a point set stands for the downward closure
# of the given simplices.  Strong collapses (a point whose incident
# maximal sets all contain some other point may be deleted) and Dowker
# flips (swap the roles of points and sets) both preserve homotopy
# type, so reduced homology can be read off a much smaller core.


def _maximal_masks(masks: Sequence[int]) -> list[int]:
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m | o == o for o in out):
            out.append(m)
    return out


def _flip(masks: Sequence[int], npoints: int) -> tuple[list[int], int]:
    flipped = []
    for u in range(npoints):
        bit = 1 << u
        flipped.append(sum(1 << i for i, m in enumerate(masks) if m & bit))
    return _maximal_masks(flipped), len(masks)


def _collapse_points(masks: list[int], npoints: int) -> tuple[list[int], int]:
    # returns masks over a (possibly) reduced, re-indexed point set
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
            return _maximal_masks(out), len(points)
        keep = ~(1 << victim)
        masks = _maximal_masks([m & keep for m in masks])


def _enumerate_faces(masks: Sequence[int], limit: int) -> dict[int, list[int]]:
    seen: set[int] = set()
    stack = list(masks)
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        if len(seen) > limit:
            raise ValueError(
                "simplicial complex too large after collapses:"
                f" {len(seen)} faces against max_faces = {limit}"
            )
        sub = m
        while sub:
            bit = sub & -sub
            child = m & ~bit
            if child not in seen:
                stack.append(child)
            sub &= sub - 1
    by_size: dict[int, list[int]] = {}
    for m in seen:
        by_size.setdefault(m.bit_count(), []).append(m)
    for v in by_size.values():
        v.sort()
    return by_size


def _int_rank(rows: list[dict[int, int]]) -> int:
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


def _boundary_ranks(by_size: dict[int, list[int]], exact: bool) -> dict[int, int]:
    # rank of the boundary map from faces of size k to faces of size k-1,
    # over the rationals when exact, else over GF(2)
    ranks: dict[int, int] = {}
    for k, faces in by_size.items():
        if k == 0:
            continue
        below = {m: i for i, m in enumerate(by_size.get(k - 1, []))}
        rows = []
        for m in faces:
            cols = []
            sub = m
            while sub:
                bit = sub & -sub
                cols.append(below[m & ~bit])
                sub &= sub - 1
            if exact:
                rows.append({c: -1 if j & 1 else 1 for j, c in enumerate(cols)})
            else:
                rows.append(sum(1 << c for c in cols))
        ranks[k] = _int_rank(rows) if exact else _gf2_rank(rows)
    return ranks


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return len(pivots)


def _homology_from_ranks(by_size: dict[int, list[int]], ranks: dict[int, int]) -> dict[int, int]:
    out = {}
    for k, faces in by_size.items():
        h = len(faces) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def _homology_of_union(masks: Sequence[int], npoints: int, limit: int) -> dict[int, int]:
    """Reduced rational homology ranks {degree: rank} of a simplex union.

    Ranks are taken over GF(2) first.  Rational Betti numbers are at most
    the GF(2) ones in every degree and share their Euler characteristic,
    so GF(2) homology in at most one degree is the rational homology;
    otherwise the ranks are recomputed exactly with `_int_rank`.
    """
    masks = _maximal_masks(masks)
    if not masks:
        return {}
    for _ in range(12):
        masks, npoints = _collapse_points(masks, npoints)
        if len(masks) <= 1:
            break
        flipped, fpoints = _flip(masks, npoints)
        flipped, fpoints = _collapse_points(flipped, fpoints)
        if len(flipped) < len(masks) or fpoints < npoints:
            masks, npoints = flipped, fpoints
        else:
            break
    if len(masks) == 1:
        return {-1: 1} if masks[0] == 0 else {}
    by_size = _enumerate_faces(masks, limit)
    hom = _homology_from_ranks(by_size, _boundary_ranks(by_size, exact=False))
    if len(hom) > 1:
        hom = _homology_from_ranks(by_size, _boundary_ranks(by_size, exact=True))
    return hom


def reduced_homology_ranks(K: SimplicialComplex) -> tuple[int, ...]:
    """Ranks of rational reduced homology in degrees -1 .. dim K."""
    if not K.facets:
        return ()
    pos = {v: i for i, v in enumerate(K.vertices)}
    masks = [sum(1 << pos[v] for v in f) for f in K.facets]
    hom = _homology_of_union(masks, len(K.vertices), DEFAULT_FACE_LIMIT)
    top = K.dim
    return tuple(hom.get(d, 0) for d in range(-1, top + 1))


def _squarefree_supports(J: MonomialIdeal) -> list[frozenset]:
    if J.is_unit:
        raise ValueError("unit ideal has no Betti table")
    if not J.is_squarefree:
        raise ValueError("Betti numbers require a squarefree ideal")
    return [frozenset(mono_support(m)) for m in J.generators]


def _betti_entries(
    supports: list[frozenset], max_lattice: int, max_faces: int, more_than: int
) -> dict[tuple[int, tuple[Var, ...]], int]:
    """Betti numbers at the lcm-lattice multidegrees with more than
    `more_than` variables; the whole lattice is walked and guarded."""
    lattice: set[frozenset] = set()
    frontier: set[frozenset] = {frozenset()}
    seen = {frozenset()}
    while frontier:
        new: set[frozenset] = set()
        for s in frontier:
            for g in supports:
                u = s | g
                if u not in seen:
                    seen.add(u)
                    new.add(u)
                    if len(seen) > max_lattice:
                        raise ValueError(
                            "lcm lattice exceeds the size guard:"
                            f" {len(seen)} lcms against max_lattice = {max_lattice}"
                        )
        lattice |= new
        frontier = new
    betti: dict[tuple[int, tuple[Var, ...]], int] = {}
    for sigma in lattice:
        if len(sigma) <= more_than:
            continue
        verts = sorted(sigma)
        pos = {v: i for i, v in enumerate(verts)}
        full = (1 << len(verts)) - 1
        masks = [
            full & ~sum(1 << pos[v] for v in g)
            for g in supports
            if g <= sigma
        ]
        hom = _homology_of_union(masks, len(verts), max_faces)
        for d, r in hom.items():
            betti[(d + 2, tuple(verts))] = r
    return betti


def betti_numbers(
    J: MonomialIdeal,
    max_lattice: int = DEFAULT_LATTICE_LIMIT,
    max_faces: int = DEFAULT_FACE_LIMIT,
) -> dict[tuple[int, tuple[Var, ...]], int]:
    """Graded Betti numbers of the quotient by a squarefree ideal.

    Keys are (homological degree, sorted multidegree support).
    """
    supports = _squarefree_supports(J)
    return {(0, ()): 1, **_betti_entries(supports, max_lattice, max_faces, 0)}


def pdim_quotient(J: MonomialIdeal, **kw) -> int:
    return max(i for i, _ in betti_numbers(J, **kw))


def reg_quotient(J: MonomialIdeal, **kw) -> int:
    return max(len(sigma) - i for i, sigma in betti_numbers(J, **kw))


def is_cm_quotient(
    J: MonomialIdeal,
    max_lattice: int = DEFAULT_LATTICE_LIMIT,
    max_faces: int = DEFAULT_FACE_LIMIT,
) -> bool:
    """Is pdim equal to codim for the quotient by a squarefree ideal?

    Cohen-Macaulay implies unmixed, so minimal primes of more than one
    height give False before any homology.  When every height is c, the
    quotient is Cohen-Macaulay exactly when no Betti number sits in
    homological degree above c; such a number needs a multidegree with
    more than c variables, so only those are computed.
    """
    supports = _squarefree_supports(J)
    heights = {len(p) for p in minimal_primes(J)}
    if len(heights) > 1:
        return False
    (c,) = heights
    return all(i <= c for i, _ in _betti_entries(supports, max_lattice, max_faces, c))


def mono_to_text(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(var_to_text(v) + (f"^{e}" if e > 1 else "") for v, e in m)


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
