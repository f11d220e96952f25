"""Tests for squarefree monomial ideals and Stanley-Reisner homology.

The production Betti engine works through Alexander duality with
collapsing, so the oracles here are deliberately naive and primal: a
dense Fraction-based Gaussian elimination for homology, a full 2^V
Hochster scan for Betti numbers, and a full subset scan for minimal
covers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from asmschub import monomial as mi
from asmschub.asm import as_permutation, enumerate_asms, make_partial_asm
from asmschub.decomp import is_schubert_cm
from asmschub.ideal import _degeneration_memo, anti_diag_init
from asmschub.poly import monomial, mono_support, x_, z_
from asmschub.schubpoly import schubert_regularity
from oracles import (
    betti_to_json,
    betti_to_text,
    collapse_points_by_rescan,
    cover_masks_all_pairs,
    int_rank,
    intersect_monomial_ideals,
    maximal_masks,
    mono_divides,
    monomial_ideal_by_exponents,
    pdim_quotient,
    plain_exact_ranks,
    plain_gf2_ranks,
    radical,
    reduced_homology_ranks,
    reisner_is_cm,
    signed_boundary_rows,
    transpose,
    vertex_decomposition_h,
)


def sqfree(*names):
    return monomial([(v, 1) for v in names])


X = [x_(i) for i in range(1, 9)]


# -- independent naive homology oracle -------------------------------------


def fraction_rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def naive_homology(faces: set[tuple]) -> dict[int, int]:
    """Reduced rational homology of an explicit face set (incl. ())."""
    by_size: dict[int, list[tuple]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    for v in by_size.values():
        v.sort()
    ranks: dict[int, int] = {}
    for k, fs in by_size.items():
        if k == 0:
            continue
        below = {f: i for i, f in enumerate(by_size.get(k - 1, []))}
        mat = []
        for f in fs:
            row = [Fraction(0)] * len(below)
            for t in range(k):
                sub = f[:t] + f[t + 1 :]
                row[below[sub]] = Fraction((-1) ** t)
            mat.append(row)
        ranks[k] = fraction_rank(mat)
    out = {}
    for k, fs in by_size.items():
        h = len(fs) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k - 1] = h
    return out


def oracle_betti(J: mi.MonomialIdeal) -> dict:
    """Primal Hochster formula over every squarefree multidegree."""
    supports = [frozenset(mono_support(g)) for g in J.generators]
    out = {(0, ()): 1}
    V = sorted({v for s in supports for v in s})
    for r in range(1, len(V) + 1):
        for sigma in itertools.combinations(V, r):
            faces = {
                f
                for k in range(r + 1)
                for f in itertools.combinations(sigma, k)
                if not any(s <= set(f) for s in supports)
            }
            hom = naive_homology(faces)
            for i in range(1, r + 1):
                h = hom.get(r - i - 1, 0)
                if h:
                    out[(i, sigma)] = h
    return out


def oracle_minimal_covers(J: mi.MonomialIdeal):
    supports = [set(mono_support(g)) for g in J.generators]
    V = sorted({v for s in supports for v in s})
    assert len(V) <= 14
    covers = [
        set(c)
        for r in range(len(V) + 1)
        for c in itertools.combinations(V, r)
        if all(s & set(c) for s in supports)
    ]
    minimal = [c for c in covers if not any(o < c for o in covers)]
    primes = sorted(tuple(sorted(p)) for p in minimal)
    return tuple(primes)


def ideals(max_vars=6, max_gens=4):
    vs = st.integers(1, max_vars)
    gen = st.sets(vs, min_size=1, max_size=3).map(
        lambda s: sqfree(*(x_(i) for i in s))
    )
    return st.lists(gen, min_size=1, max_size=max_gens).map(mi.monomial_ideal)


def powers(max_vars=4, max_exp=3):
    exps = st.dictionaries(st.integers(1, max_vars), st.integers(1, max_exp), max_size=3)
    return exps.map(lambda d: monomial([(x_(i), e) for i, e in d.items()]))


class TestMonomialIdeal:
    def test_minimalization_and_sort(self):
        J = mi.monomial_ideal(
            [sqfree(X[0], X[1]), sqfree(X[0]), sqfree(X[0], X[1], X[2])]
        )
        assert J.generators == (sqfree(X[0]),)
        J2 = mi.monomial_ideal([sqfree(X[2]), sqfree(X[0])])
        assert J2.generators == (sqfree(X[0]), sqfree(X[2]))

    # supports may nest where exponents do not divide: x1^3 and x1^2*x2
    @given(st.lists(powers(), max_size=6))
    @example([monomial([(X[0], 3)]), monomial([(X[0], 2), (X[1], 1)])])
    @example([monomial([(X[0], 3)]), monomial([(X[0], 2), (X[1], 2)])])
    @settings(max_examples=150, deadline=None)
    def test_minimalization_against_divisibility(self, monos):
        want = {m for m in monos if not any(o != m and mono_divides(o, m) for o in monos)}
        assert mi.monomial_ideal(monos).generators == tuple(sorted(want))

    # lists of squarefree monomials take the mask route, lists with a
    # power the exponent route
    @given(st.lists(st.one_of(powers(), st.sets(st.integers(1, 6), max_size=3).map(
        lambda s: sqfree(*(x_(i) for i in s)))), max_size=7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_mask_route_against_exponents(self, monos, ambient):
        variables = X[:6] if ambient else None
        got, want = mi.monomial_ideal(monos, variables), monomial_ideal_by_exponents(monos, variables)
        assert (got.generators, got.variables, got._supports) == want
        assert got._primes == tuple(sorted(cover_masks_all_pairs(want[2])))
        # the same ideal through wider exponent fields (each m^2 is redundant),
        # and through both codecs: one packed form, so equal and equally hashed
        for same in (
            mi.monomial_ideal(monos + [monomial(m + m) for m in monos], variables),
            mi.monomial_ideal_from_json(mi.monomial_ideal_to_json(got), variables),
            mi.monomial_ideal_from_text(mi.monomial_ideal_to_text(got), variables),
        ):
            assert same == got and hash(same) == hash(got)
        # ambient variables that no generator uses change no invariant
        if got.is_squarefree and not got.is_unit:
            wide, used = mi.monomial_ideal(monos, X[:6]), mi.monomial_ideal(monos)
            for invariant in (mi.minimal_primes, mi.codim, lambda J: set(mi.betti_numbers(J)),
                              mi.reg_quotient, mi.is_cm_quotient, mi.vertex_decomposition_reg):
                assert invariant(wide) == invariant(used)

    def test_flags(self):
        assert mi.monomial_ideal([]).is_zero
        assert mi.monomial_ideal([()]).is_unit
        assert mi.monomial_ideal([sqfree(X[0])]).is_squarefree
        assert not mi.monomial_ideal([monomial([(X[0], 2)])]).is_squarefree

    def test_ambient_validation(self):
        with pytest.raises(ValueError, match="outside the ambient"):
            mi.monomial_ideal([sqfree(X[0])], [X[1]])
        # every generator is checked, and the default ambient is that of the minimal ones
        with pytest.raises(ValueError, match=r"outside the ambient set: x\[2\]$"):
            mi.monomial_ideal([sqfree(X[0]), sqfree(X[0], X[1])], [X[0]])
        assert mi.monomial_ideal([sqfree(X[0]), sqfree(X[0], X[1])]).variables == (X[0],)
        with pytest.raises(ValueError, match=r"negative exponent -1 on x\[1\]"):
            mi.monomial_ideal([((X[0], -1),)])
        # generator tuples are read as monomial() reads them
        assert mi.monomial_ideal([((X[0], 1), (X[0], 1))]).generators == (monomial([(X[0], 2)]),)

    def test_radical(self):
        J = mi.monomial_ideal([monomial([(X[0], 2), (X[1], 3)])])
        assert radical(J).generators == (sqfree(X[0], X[1]),)

    def test_intersection(self):
        I = mi.monomial_ideal([sqfree(X[0])])
        J = mi.monomial_ideal([sqfree(X[1])])
        assert intersect_monomial_ideals(I, J).generators == (
            sqfree(X[0], X[1]),
        )

    def test_text_roundtrip(self):
        J = mi.monomial_ideal([sqfree(z_(1, 1)), sqfree(z_(1, 3), z_(2, 2), z_(3, 1))])
        text = mi.monomial_ideal_to_text(J)
        assert text == "monomialIdeal (z[1,1], z[1,3]*z[2,2]*z[3,1])"
        assert mi.monomial_ideal_from_text(text, J.variables) == J
        assert mi.monomial_ideal_to_text(mi.monomial_ideal([])) == "monomialIdeal ()"

    def test_text_rejects_other_forms(self):
        with pytest.raises(ValueError, match="expected monomialIdeal"):
            mi.monomial_ideal_from_text("monomialIdeal(z[1,1])")
        for inner in ("z[1,1] + z[1,2]", "2*z[1,1]"):
            with pytest.raises(ValueError, match="not a monic monomial"):
                mi.monomial_ideal_from_text(f"monomialIdeal ({inner})")

    def test_json_roundtrip(self):
        J = mi.monomial_ideal(
            [sqfree(z_(1, 1))], [z_(i, j) for i in (1, 2) for j in (1, 2)]
        )
        data = mi.monomial_ideal_to_json(J)
        assert data == ["z[1,1]"]
        assert mi.monomial_ideal_from_json(data, J.variables) == J


class TestMinimalPrimes:
    def test_principal(self):
        J = mi.monomial_ideal([sqfree(X[0], X[1])])
        assert mi.minimal_primes(J) == ((X[0],), (X[1],))

    def test_unit_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            mi.minimal_primes(mi.monomial_ideal([()]))

    def test_eight_generator_example(self):
        # two covers of size six: take rows 1-2 plus either column block
        z = z_
        J = mi.monomial_ideal(
            [
                sqfree(z(1, 1)),
                sqfree(z(1, 2)),
                sqfree(z(2, 1)),
                sqfree(z(2, 2)),
                sqfree(z(1, 3), z(3, 1)),
                sqfree(z(1, 3), z(3, 2)),
                sqfree(z(2, 3), z(3, 1)),
                sqfree(z(2, 3), z(3, 2)),
            ]
        )
        primes = mi.minimal_primes(J)
        assert mi.codim(J) == 6
        assert set(primes) == {
            tuple(sorted([z(1, 1), z(1, 2), z(2, 1), z(2, 2), z(1, 3), z(2, 3)])),
            tuple(sorted([z(1, 1), z(1, 2), z(2, 1), z(2, 2), z(3, 1), z(3, 2)])),
        }

    def test_codim_zero_ideal(self):
        assert mi.codim(mi.monomial_ideal([])) == 0

    def test_codim_unit_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            mi.codim(mi.monomial_ideal([()]))

    @given(ideals())
    @settings(max_examples=60, deadline=None)
    def test_against_cover_oracle(self, J):
        assert mi.minimal_primes(J) == oracle_minimal_covers(J)

    # the covers in the order the homology walks read, nested supports included
    @given(st.lists(st.integers(0, (1 << 10) - 1), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_single_bit_test_against_all_pairs(self, supports):
        assert mi._cover_masks(supports) == sorted(cover_masks_all_pairs(supports))

    def test_radical_applied_first(self):
        J = mi.monomial_ideal([monomial([(X[0], 2)])])
        assert mi.minimal_primes(J) == ((X[0],),)


class TestSimplicialComplex:
    def test_facet_containment_rejected(self):
        with pytest.raises(ValueError, match="contain"):
            mi.SimplicialComplex((X[0], X[1]), ((X[0], X[1]), (X[0],)))

    def test_foreign_vertex_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            mi.SimplicialComplex((X[0],), ((X[1],),))

    def test_stanley_reisner_zero_ideal(self):
        J = mi.monomial_ideal([], [X[0], X[1]])
        K = mi.stanley_reisner_complex(J)
        assert K.facets == ((X[0], X[1]),)

    def test_stanley_reisner_facets_complement_primes(self):
        J = mi.monomial_ideal([sqfree(X[0]), sqfree(X[1], X[2])])
        K = mi.stanley_reisner_complex(J)
        primes = mi.minimal_primes(J)
        ambient = set(J.variables)
        assert [set(f) for f in K.facets] == [ambient - set(p) for p in primes]


class TestHomology:
    def test_circle(self):
        K = mi.SimplicialComplex(
            (X[0], X[1], X[2]), ((X[0], X[1]), (X[1], X[2]), (X[0], X[2]))
        )
        assert reduced_homology_ranks(K) == (0, 0, 1)

    def test_point(self):
        K = mi.SimplicialComplex((X[0],), ((X[0],),))
        assert reduced_homology_ranks(K) == (0, 0)

    def test_two_points(self):
        K = mi.SimplicialComplex((X[0], X[1]), ((X[0],), (X[1],)))
        assert reduced_homology_ranks(K) == (0, 1)

    def test_empty_complex(self):
        K = mi.SimplicialComplex((), ((),))
        assert reduced_homology_ranks(K) == (1,)

    def test_boundary_of_four_simplex(self):
        verts = tuple(X[:5])
        K = mi.SimplicialComplex(verts, tuple(itertools.combinations(verts, 4)))
        assert reduced_homology_ranks(K) == (0, 0, 0, 0, 1)

    def test_two_spheres_wedge_like(self):
        # two disjoint hollow triangles: two circles plus a connectedness gap
        vs = tuple(X[:6])
        facets = tuple(itertools.combinations(X[:3], 2)) + tuple(
            itertools.combinations(X[3:6], 2)
        )
        K = mi.SimplicialComplex(vs, facets)
        assert reduced_homology_ranks(K) == (0, 1, 2)

    @given(
        st.lists(
            st.sets(st.integers(1, 6), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_against_naive_oracle(self, facet_sets):
        verts = sorted({i for f in facet_sets for i in f})
        faces = {
            f
            for s in facet_sets
            for k in range(len(s) + 1)
            for f in itertools.combinations(sorted(s), k)
        }
        expected = naive_homology(faces)
        keep = [
            s
            for s in facet_sets
            if not any(o != s and s <= o for o in facet_sets)
        ]
        seen = set()
        facets = []
        for s in keep:
            t = tuple(x_(i) for i in sorted(s))
            if t not in seen:
                seen.add(t)
                facets.append(t)
        K = mi.SimplicialComplex(tuple(x_(i) for i in verts), tuple(facets))
        got = reduced_homology_ranks(K)
        assert {d: r for d, r in zip(range(-1, len(got)), got) if r} == expected


# the 6-vertex real projective plane: rational homology vanishes, but over
# GF(2) it is nonzero in degrees 1 and 2
RP2 = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)


def exact_homology(masks: list[int]) -> dict[int, int]:
    """Reduced homology of the uncollapsed union, ranks by `int_rank`."""
    by_size = mi._enumerate_faces(maximal_masks(masks), mi.DEFAULT_FACE_LIMIT)
    return mi._homology_from_ranks(by_size, plain_exact_ranks(by_size))


def gf2_homology(masks: list[int]) -> dict[int, int]:
    by_size = mi._enumerate_faces(maximal_masks(masks), mi.DEFAULT_FACE_LIMIT)
    return mi._homology_from_ranks(by_size, mi._boundary_ranks(by_size, exact=False))


def random_unions(seed: int, count: int = 300):
    """Seeded families of masks on 4-8 points.  Every other one is a graph,
    so that some have homology in two degrees (several components and a
    cycle)."""
    rng = random.Random(seed)
    for k in range(count):
        npoints = rng.randint(4, 8)
        top = 2 if k % 2 else 4
        masks = [
            sum(1 << u for u in rng.sample(range(npoints), rng.randint(1, top)))
            for _ in range(rng.randint(1, 14))
        ]
        yield masks, npoints


@pytest.fixture
def exact_rank_calls(monkeypatch):
    calls = []
    pivots = mi._pivots

    def counted(rows, exact):
        if exact:
            calls.append(len(rows))
        return pivots(rows, exact)

    monkeypatch.setattr(mi, "_pivots", counted)
    return calls


class TestCertifiedHomology:
    def test_rp2_takes_the_exact_fallback(self, exact_rank_calls):
        verts = tuple(X[:6])
        K = mi.SimplicialComplex(verts, tuple(tuple(verts[i] for i in t) for t in RP2))
        masks = [sum(1 << i for i in t) for t in RP2]
        assert gf2_homology(masks) == {1: 1, 2: 1}
        assert not exact_rank_calls
        assert reduced_homology_ranks(K) == (0, 0, 0, 0)
        assert exact_rank_calls

    def test_sphere_is_certified_without_fallback(self, exact_rank_calls):
        verts = tuple(X[:5])
        K = mi.SimplicialComplex(verts, tuple(itertools.combinations(verts, 4)))
        assert reduced_homology_ranks(K) == (0, 0, 0, 0, 1)
        assert not exact_rank_calls

    def test_random_unions_match_exact_ranks(self, exact_rank_calls):
        fallbacks = 0
        for masks, npoints in maximal_unions(2024):
            expected = exact_homology(masks)
            spread = len(gf2_homology(masks)) > 1
            before = len(exact_rank_calls)
            assert mi._homology_of_union(masks, mi.DEFAULT_FACE_LIMIT) == expected
            # the certificate fails exactly when GF(2) homology is spread
            # over two or more degrees, and only then do exact ranks run
            assert (len(exact_rank_calls) > before) == spread
            fallbacks += spread
        assert fallbacks >= 10


class TestExactRanks:
    """The rational top-column elimination of `_pivots`, with and without
    clearing, against the unit-pivot integer elimination `int_rank`."""

    def test_sparse_matrices_whose_fields_disagree(self):
        rng = random.Random(19)
        disagree = 0
        for _ in range(400):
            ncols = rng.randint(1, 9)
            rows = [
                {c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in rng.sample(range(ncols), rng.randint(0, min(4, ncols)))}
                for _ in range(rng.randint(1, 9))
            ]
            rank = len(mi._pivots(rows, exact=True))
            assert rank == int_rank(rows)
            odd = [sum(1 << c for c, v in r.items() if v % 2) for r in rows]
            disagree += len(mi._pivots(odd, exact=False)) != rank
        assert disagree >= 50

    def test_every_boundary_map_of_random_unions(self):
        for masks, _ in maximal_unions(2024):
            by_size = mi._enumerate_faces(masks, mi.DEFAULT_FACE_LIMIT)
            for rows in signed_boundary_rows(by_size).values():
                assert len(mi._pivots(rows, exact=True)) == int_rank(rows)
            # clearing over the rationals keeps every rank
            assert mi._boundary_ranks(by_size, exact=True) == plain_exact_ranks(by_size)

    def test_rp2(self):
        by_size = mi._enumerate_faces([sum(1 << i for i in t) for t in RP2], mi.DEFAULT_FACE_LIMIT)
        for rows in signed_boundary_rows(by_size).values():
            assert len(mi._pivots(rows, exact=True)) == int_rank(rows)
        exact = mi._boundary_ranks(by_size, exact=True)
        assert exact == plain_exact_ranks(by_size)
        assert exact != mi._boundary_ranks(by_size, exact=False)


def maximal_unions(seed: int, count: int = 300):
    """The families of random_unions, reduced to their maximal masks."""
    for masks, npoints in random_unions(seed, count):
        yield maximal_masks(masks), npoints


def points_used(masks: list[int]) -> int:
    used = 0
    for m in masks:
        used |= m
    return used.bit_length()


def relabelled(masks: list[int]) -> list[int]:
    """The masks with the points they use renumbered 0, 1, ... in order,
    sorted: the core `_collapse_points` keeps on the input's points, in
    the labels of the rescan oracle."""
    used = [u for u in range(points_used(masks)) if any(m >> u & 1 for m in masks)]
    return sorted(sum(1 << k for k, u in enumerate(used) if m >> u & 1) for m in masks)


def spread(m: int) -> int:
    """Point u moved to 3u + 1."""
    return sum(1 << 3 * u + 1 for u in range(m.bit_length()) if m >> u & 1)


def walk_families(monkeypatch) -> list[list[int]]:
    """The families `_homology_of_union` receives from both walks on the
    6x6 hand-overs, items no vertex decomposition certifies, in a seeded
    slice of 300 items: 7 hand-overs, 697 families of up to 54 masks."""
    families: list[list[int]] = []
    homology = mi._homology_of_union

    def recorded(masks, limit):
        families.append(list(masks))
        return homology(masks, limit)

    with monkeypatch.context() as patched:
        patched.setattr(mi, "_homology_of_union", recorded)
        for A in random.Random(61).sample(non_permutation_asms(6), 300):
            J = anti_diag_init(A)
            if mi.vertex_decomposition_reg(J) is None:
                mi.is_cm_quotient(J)
                mi.reg_quotient(J)
    return families


class TestKernel:
    def test_collapse_matches_rescan(self, monkeypatch):
        shrunk = 0
        for masks, npoints in maximal_unions(7):
            want, wpoints = collapse_points_by_rescan(masks, npoints)
            assert relabelled(mi._collapse_points(masks)) == sorted(want)
            assert points_used(want) == wpoints
            # transposes feed the collapse families of another shape
            tmasks, tpoints = transpose(masks, npoints)
            want, wpoints = collapse_points_by_rescan(tmasks, tpoints)
            assert relabelled(mi._collapse_points(tmasks)) == sorted(want)
            assert points_used(want) == wpoints
            shrunk += wpoints < tpoints
        assert shrunk >= 30
        # the walks feed it larger families, where the scan resumes often
        families = walk_families(monkeypatch)
        assert (len(families), max(map(len, families))) == (697, 54)
        for masks in families:
            want, wpoints = collapse_points_by_rescan(masks, points_used(masks))
            assert relabelled(mi._collapse_points(masks)) == sorted(want)
            assert points_used(want) == wpoints

    def test_transposed_core_does_not_collapse(self):
        # why one collapse is enough: the transpose of a core is a core,
        # so the transpose never gives a smaller complex
        for masks, _ in maximal_unions(7):
            core = relabelled(mi._collapse_points(masks))
            tmasks, tpoints = transpose(core, points_used(core))
            assert (len(tmasks), tpoints) == (points_used(core), len(core))
            again = mi._collapse_points(tmasks)
            assert sorted(again) == sorted(tmasks)
            assert points_used(again) == tpoints

    def test_spread_points_change_nothing(self):
        # the kernel works on the input's points: gaps between them change
        # neither the homology nor the core, which keeps those points
        for masks, _ in maximal_unions(29):
            spread_masks = [spread(m) for m in masks]
            limit = mi.DEFAULT_FACE_LIMIT
            assert mi._homology_of_union(spread_masks, limit) == mi._homology_of_union(masks, limit)
            core = mi._collapse_points(masks)
            spread_core = mi._collapse_points(spread_masks)
            assert relabelled(spread_core) == relabelled(core)
            assert sorted(spread_core) == sorted(map(spread, core))

    def test_cleared_ranks_match_plain(self):
        cleared = 0
        for masks, npoints in maximal_unions(11):
            by_size = mi._enumerate_faces(masks, mi.DEFAULT_FACE_LIMIT)
            ranks = mi._boundary_ranks(by_size, exact=False)
            assert ranks == plain_gf2_ranks(by_size)
            cleared += sum(r for k, r in ranks.items() if k > 1)
        assert cleared >= 300

    def test_faces_are_the_downward_closure(self):
        for masks, npoints in maximal_unions(13, 60):
            faces = {f for m in masks for f in range(1 << npoints) if not f & ~m}
            by_size = mi._enumerate_faces(masks, mi.DEFAULT_FACE_LIMIT)
            assert sorted(by_size) == list(range(max(by_size) + 1))
            assert all(v == sorted(v) and len(set(v)) == len(v) for v in by_size.values())
            assert {f for v in by_size.values() for f in v} == faces
            assert all(f.bit_count() == k for k, v in by_size.items() for f in v)

    def test_face_guard_counts_the_whole_complex(self):
        # the boundary of a tetrahedron has 15 faces with the empty one
        masks = [0b1110, 0b1101, 0b1011, 0b0111]
        assert sum(map(len, mi._enumerate_faces(masks, 15).values())) == 15
        with pytest.raises(ValueError, match=r" 15 faces against max_faces = 14$"):
            mi._enumerate_faces(masks, 14)


BULGE = make_partial_asm(
    [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, -1, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ]
)


def uses_dual_route(J: mi.MonomialIdeal) -> bool:
    variables, gens, primes = J.variables, J._supports, J._primes
    assert sorted(tuple(v for u, v in enumerate(variables) if p >> u & 1) for p in primes) == list(
        mi.minimal_primes(J)
    )
    return mi._smaller_lattice(gens, primes, mi.DEFAULT_LATTICE_LIMIT)[0]


def table_regularity(J: mi.MonomialIdeal) -> int:
    return max(len(sigma) - i for i, sigma in mi.betti_numbers(J))


class TestDualityRoutes:
    """Both routes against the full Betti table of J itself."""

    @given(ideals())
    @settings(max_examples=80, deadline=None)
    def test_routes_match_the_betti_table(self, J):
        assert mi.reg_quotient(J) == table_regularity(J)
        assert mi.is_cm_quotient(J) == (pdim_quotient(J) == mi.codim(J))

    def test_seeded_5x5_slice_takes_both_routes(self):
        pool = [A for A in enumerate_asms(5) if as_permutation(A) is None]
        ideals_ = [anti_diag_init(A) for A in random.Random(6).sample(pool, 14) + [BULGE]]
        routes = [uses_dual_route(J) for J in ideals_]
        assert 0 < sum(routes) < len(routes)
        for J in ideals_:
            assert mi.reg_quotient(J) == table_regularity(J)
            assert mi.is_cm_quotient(J) == (pdim_quotient(J) == mi.codim(J))
        # BULGE is unmixed and not Cohen-Macaulay
        assert not mi.is_cm_quotient(ideals_[-1])

    def test_small_ideals_on_both_sides(self):
        cases = [
            # (x1, x2): one prime, Koszul on the dual side
            ([sqfree(X[0]), sqfree(X[1])], True, 0),
            # x1*x2, x2*x3, x3*x4: primes (x1,x3), (x2,x3), (x2,x4)
            ([sqfree(X[0], X[1]), sqfree(X[1], X[2]), sqfree(X[2], X[3])], True, 1),
            # two disjoint edges: four primes, on J's side, a complete
            # intersection of two quadrics
            ([sqfree(X[0], X[1]), sqfree(X[2], X[3])], True, 2),
            # the 4-cycle: two primes and four generators, not CM
            (
                [sqfree(X[0], X[1]), sqfree(X[1], X[2]), sqfree(X[2], X[3]), sqfree(X[0], X[3])],
                False,
                1,
            ),
        ]
        for gens, cm, reg in cases:
            J = mi.monomial_ideal(gens)
            assert mi.is_cm_quotient(J) is cm
            assert mi.reg_quotient(J) == reg == table_regularity(J)

    def test_unmixed_non_cm_on_js_side(self):
        # J's lattice is the smaller and its primes all have height 2, so
        # both answers come from J's table: pdim above 2, and max |sigma| - i
        J = mi.monomial_ideal(
            [
                sqfree(X[0], X[1], X[4]),
                sqfree(X[0], X[2]),
                sqfree(X[1], X[3], X[4]),
                sqfree(X[2], X[3], X[4]),
            ]
        )
        assert not uses_dual_route(J)
        assert {len(p) for p in mi.minimal_primes(J)} == {2}
        assert not mi.is_cm_quotient(J) and pdim_quotient(J) > 2
        with mi.collect_stats() as s:
            assert mi.reg_quotient(J) == 2
        assert (s["route_primal"], s["route_dual"]) == (1, 0)
        assert table_regularity(J) == 2

    def test_mixed_j_stays_on_the_smaller_lattice(self):
        # (x1*x2, x1*x3, x4*x5*x6, x7*x8*x9) has 16 lcms, the empty one
        # included; its 18 primes, of heights 3 and 4, have 148
        x = [x_(i) for i in range(1, 10)]
        J = mi.monomial_ideal(
            [sqfree(x[0], x[1]), sqfree(x[0], x[2]), sqfree(*x[3:6]), sqfree(*x[6:9])]
        )
        assert {len(p) for p in mi.minimal_primes(J)} == {3, 4}
        with mi.collect_stats() as s:
            assert mi.reg_quotient(J, max_lattice=16) == 5
        assert table_regularity(J) == 5
        assert (s["route_primal"], s["route_dual"], s["lattice"]) == (1, 0, 15)
        with pytest.raises(ValueError, match=r"^lcm lattice exceeds the size guard: 16 lcms"):
            mi.reg_quotient(J, max_lattice=15)


class TestStats:
    def test_routes_are_counted(self):
        # (x1, x2): the dual (x1*x2) has one lcm against J's three
        dual = mi.monomial_ideal([sqfree(X[0]), sqfree(X[1])])
        with mi.collect_stats() as s:
            assert mi.is_cm_quotient(dual)
        assert (s["route_dual"], s["route_primal"], s["lattice"]) == (1, 0, 1)
        # (x1, x2*x3) and its dual (x1*x2, x1*x3) both have three lcms, and
        # a tie stays on J's side
        tie = mi.monomial_ideal([sqfree(X[0]), sqfree(X[1], X[2])])
        with mi.collect_stats() as s:
            assert mi.is_cm_quotient(tie)
        assert (s["route_dual"], s["route_primal"], s["lattice"]) == (0, 1, 3)
        # two disjoint edges: J's lattice is the smaller, so the regularity
        # of the complete intersection is read from J's own table
        edges = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[2], X[3])])
        assert uses_dual_route(edges) is False
        mixed = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])
        with mi.collect_stats() as s:
            assert not mi.is_cm_quotient(mixed)
        assert (s["route_gate"], s["route_dual"], s["route_primal"], s["complexes"]) == (1, 0, 0, 0)
        # a mixed J walks the smaller lattice too, here J's on a tie
        with mi.collect_stats() as s:
            assert mi.reg_quotient(mixed) == 1
        assert (s["route_gate"], s["route_dual"], s["route_primal"]) == (0, 0, 1)
        with mi.collect_stats() as s:
            assert mi.reg_quotient(edges) == 2
        assert (s["route_dual"], s["route_primal"]) == (0, 1)

    def test_lattice_guard_needs_both_sides_to_outgrow_it(self):
        # J = (x1, .., x4) has 15 lcms; its dual (x1*x2*x3*x4) has one
        J = mi.monomial_ideal([sqfree(x) for x in X[:4]])
        assert mi.reg_quotient(J, max_lattice=3) == 0
        assert mi.is_cm_quotient(J, max_lattice=3)
        with pytest.raises(ValueError, match=r"^lcm lattice exceeds the size guard: 1 lcms against max_lattice = 0$"):
            mi.is_cm_quotient(J, max_lattice=0)

    def test_homology_work_is_counted(self):
        J = mi.monomial_ideal([sqfree(x) for x in X[:4]])
        with mi.collect_stats() as s:
            mi.betti_numbers(J)
        assert (s["route_primal"], s["lattice"], s["complexes"]) == (1, 15, 15)
        # the boundary of a tetrahedron, which no collapse shrinks: 15
        # faces, boundary ranks 3, 3 and 1 from the top down, and the 3 + 3
        # pivots of the two upper maps clear rows of the maps below them
        with mi.collect_stats() as s:
            hom = mi._homology_of_union([0b1110, 0b1101, 0b1011, 0b0111], 100)
        assert hom == {2: 1}
        assert (s["complexes"], s["faces"], s["gf2_ranks"], s["rows_cleared"], s["exact_fallbacks"]) == (1, 15, 3, 6, 0)

    def test_exact_fallback_is_counted(self):
        verts = tuple(X[:6])
        K = mi.SimplicialComplex(verts, tuple(tuple(verts[i] for i in t) for t in RP2))
        with mi.collect_stats() as s:
            reduced_homology_ranks(K)
        assert s["exact_fallbacks"] == 1 and s["complexes"] == 1

    def test_nothing_is_counted_outside_a_block(self):
        J = mi.monomial_ideal([sqfree(x) for x in X[:3]])
        with mi.collect_stats() as s:
            pass
        mi.betti_numbers(J)
        assert s == dict.fromkeys(mi.STAT_NAMES, 0)


def standard_counts(J: mi.MonomialIdeal, top: int) -> list[int]:
    """The monomials of each degree up to top that no generator divides, by enumeration."""
    counts = [0] * (top + 1)
    gens = [dict(g) for g in J.generators]
    for exps in itertools.product(range(top + 1), repeat=len(J.variables)):
        m = dict(zip(J.variables, exps))
        if sum(exps) <= top and not any(all(m[v] >= e for v, e in g.items()) for g in gens):
            counts[sum(exps)] += 1
    return counts


def hilbert_function(K: tuple[int, ...], n: int, top: int) -> list[int]:
    """HF(d) of a series K(t) / (1 - t)^n, for d up to top."""
    return [sum(c * comb(d - i + n - 1, n - 1) for i, c in enumerate(K[:d + 1])) for d in range(top + 1)]


class TestHilbertNumerator:
    """`MonomialIdeal._numerator` against a count of standard monomials per degree."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(powers(), max_size=5))
    @example([monomial([(x_(1), 3)]), monomial([(x_(1), 1), (x_(2), 2)])])
    @example([monomial([])])
    def test_against_standard_monomials(self, monos):
        J = mi.monomial_ideal(monos, [x_(i) for i in range(1, 5)])
        assert hilbert_function(J._numerator, 4, 7) == standard_counts(J, 7)
        assert J._numerator[-1] or J._numerator == (0,)  # no trailing zero

    def test_pinned_numerators(self):
        # (x1^3): 1 - t^3; (x1*x2, x1*x3): 1 - 2t^2 + t^3; the unit ideal: 0
        assert mi.monomial_ideal([monomial([(x_(1), 3)])])._numerator == (1, 0, 0, -1)
        assert mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])._numerator == (1, 0, -2, 1)
        assert mi.monomial_ideal([monomial([])])._numerator == (0,)

    def test_nodes_are_counted(self):
        # (x1*x2, x2*x3, x3*x1) pivots once on its most frequent variable,
        # and both branches, (x3*x1) and (x1, x3), are read off as factors
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[1], X[2]), sqfree(X[2], X[0])])
        with mi.collect_stats() as s:
            assert J._numerator == (1, 0, -3, 2)
        assert s["hilbert_nodes"] == 3
        with mi.collect_stats() as s:
            J._numerator  # kept
        assert s["hilbert_nodes"] == 0


class TestBettiNumbers:
    def test_koszul(self):
        J = mi.monomial_ideal([sqfree(X[0]), sqfree(X[1])])
        assert mi.betti_numbers(J) == {
            (0, ()): 1,
            (1, (X[0],)): 1,
            (1, (X[1],)): 1,
            (2, (X[0], X[1])): 1,
        }
        assert pdim_quotient(J) == 2
        assert mi.reg_quotient(J) == 0
        assert mi.is_cm_quotient(J)

    def test_path_ideal(self):
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[1], X[2])])
        b = mi.betti_numbers(J)
        totals = {}
        for (i, _), r in b.items():
            totals[i] = totals.get(i, 0) + r
        assert totals == {0: 1, 1: 2, 2: 1}
        assert pdim_quotient(J) == 2
        assert mi.codim(J) == 1
        assert not mi.is_cm_quotient(J)

    def test_zero_ideal(self):
        J = mi.monomial_ideal([], [X[0]])
        assert mi.betti_numbers(J) == {(0, ()): 1}
        assert pdim_quotient(J) == 0
        assert mi.reg_quotient(J) == 0
        assert mi.is_cm_quotient(J)

    def test_unit_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            mi.betti_numbers(mi.monomial_ideal([()]))

    def test_cm_test_rejects_unit_and_non_squarefree(self):
        with pytest.raises(ValueError, match="^unit ideal has no Betti table$"):
            mi.is_cm_quotient(mi.monomial_ideal([()]))
        with pytest.raises(ValueError, match="^Betti numbers require a squarefree ideal$"):
            mi.is_cm_quotient(mi.monomial_ideal([monomial([(X[0], 2)])]))

    def test_mixed_heights_decided_without_homology(self, monkeypatch):
        # x1 * (x2, x3): primes (x1) and (x2, x3) have heights 1 and 2
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])
        monkeypatch.setattr(mi, "_homology_of_union", None)
        assert not mi.is_cm_quotient(J)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError, match="squarefree"):
            mi.betti_numbers(mi.monomial_ideal([monomial([(X[0], 2)])]))

    def test_lattice_guard(self):
        J = mi.monomial_ideal([sqfree(x) for x in X[:4]])
        with pytest.raises(ValueError, match="guard"):
            mi.betti_numbers(J, max_lattice=3)

    def test_lattice_guard_reports_size(self):
        J = mi.monomial_ideal([sqfree(x) for x in X[:4]])
        with pytest.raises(
            ValueError,
            match=r"^lcm lattice exceeds the size guard: 4 lcms against max_lattice = 3$",
        ):
            mi.betti_numbers(J, max_lattice=3)

    def test_face_guard_reports_size(self):
        # at the top multidegree the Alexander dual is the boundary of a
        # tetrahedron, which no collapse shrinks: 14 faces plus the empty one
        J = mi.monomial_ideal([sqfree(x) for x in X[:4]])
        with pytest.raises(
            ValueError,
            match=r"^simplicial complex too large after collapses:"
            r" 11 faces against max_faces = 10$",
        ):
            mi.betti_numbers(J, max_faces=10)

    def test_first_betti_counts_generators(self):
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[2], X[3])])
        b = mi.betti_numbers(J)
        ones = [(s, r) for (i, s), r in b.items() if i == 1]
        assert sorted(ones) == [
            ((X[0], X[1]), 1),
            ((X[2], X[3]), 1),
        ]

    @given(ideals())
    @settings(max_examples=50, deadline=None)
    def test_against_full_scan_oracle(self, J):
        assert mi.betti_numbers(J) == oracle_betti(J)

    @given(ideals())
    @settings(max_examples=40, deadline=None)
    def test_pdim_at_least_codim(self, J):
        pd = pdim_quotient(J)
        cd = mi.codim(J)
        assert pd >= cd
        assert mi.is_cm_quotient(J) == (pd == cd)

    @given(ideals())
    @settings(max_examples=30, deadline=None)
    def test_reisner_matches_betti_cm(self, J):
        K = mi.stanley_reisner_complex(J)
        assert reisner_is_cm(K) == mi.is_cm_quotient(J)


class TestReisner:
    def test_circle_is_cm(self):
        K = mi.SimplicialComplex(
            (X[0], X[1], X[2]), ((X[0], X[1]), (X[1], X[2]), (X[0], X[2]))
        )
        assert reisner_is_cm(K)

    def test_disjoint_edges_not_cm(self):
        K = mi.SimplicialComplex(
            tuple(X[:4]), ((X[0], X[1]), (X[2], X[3]))
        )
        assert not reisner_is_cm(K)

    def test_edge_plus_point_not_cm(self):
        K = mi.SimplicialComplex(tuple(X[:3]), ((X[0], X[1]), (X[2],)))
        assert not reisner_is_cm(K)

    def test_simplex_is_cm(self):
        K = mi.SimplicialComplex(tuple(X[:3]), ((X[0], X[1], X[2]),))
        assert reisner_is_cm(K)


def non_permutation_asms(n: int) -> list:
    return [A for A in enumerate_asms(n) if as_permutation(A) is None]


class TestVertexDecomposition:
    def test_small_complexes(self):
        # the boundary of a triangle, J = (x1 x2 x3): h = 1 + t + t^2
        with mi.collect_stats() as s:
            assert vertex_decomposition_h(mi.monomial_ideal([sqfree(*X[:3])])) == (1, 1, 1)
        assert (s["route_vd"], s["vd_handovers"]) == (1, 0) and s["vd_nodes"] > 0
        # two disjoint edges are pure but not connected, so not Cohen-Macaulay
        J = mi.monomial_ideal([sqfree(a, b) for a in X[:2] for b in X[2:4]])
        with mi.collect_stats() as s:
            assert vertex_decomposition_h(J) is None
        assert (s["route_vd"], s["vd_handovers"]) == (0, 1)
        # a mixed ideal gives None before any search
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])
        with mi.collect_stats() as s:
            assert vertex_decomposition_h(J) is None
        assert s == dict.fromkeys(mi.STAT_NAMES, 0)
        # the zero ideal is a simplex
        assert vertex_decomposition_h(mi.monomial_ideal([], X[:2])) == (1,)

    def test_node_limit_hands_over(self, monkeypatch):
        J = anti_diag_init(make_partial_asm([[0, 1, 0, 0], [1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]))
        assert vertex_decomposition_h(J) == (1, 3, 1)
        monkeypatch.setattr(mi, "VD_NODE_LIMIT", 0)
        with mi.collect_stats() as s:
            assert vertex_decomposition_h(J) is None
        assert (s["route_vd"], s["vd_nodes"], s["vd_handovers"]) == (0, 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(ideals(max_vars=7, max_gens=5))
    def test_certificate_agrees_with_the_walk(self, J):
        h = vertex_decomposition_h(J)
        if h is not None:
            assert mi.is_cm_quotient(J) and len(h) - 1 == mi.reg_quotient(J)
            assert sum(h) == len(mi.minimal_primes(J))

    # every 5x5 item and a seeded slice of 150 of the 6,716 6x6 items
    def test_differential_on_asms(self):
        pool6 = non_permutation_asms(6)
        items = non_permutation_asms(5) + random.Random(11).sample(pool6, 150)
        certified = 0
        for A in items:
            J = anti_diag_init(A)
            h = vertex_decomposition_h(J)
            if h is None:
                continue
            certified += 1
            primes = mi.minimal_primes(J)
            assert len({len(p) for p in primes}) == 1, A
            assert min(h) >= 0 and sum(h) == len(primes), A
            assert mi.is_cm_quotient(J) and len(h) - 1 == mi.reg_quotient(J), A
        # every Cohen-Macaulay item: 208 of the 5x5 ones and 60 of the slice
        assert certified == 208 + 60


def mixed(J: mi.MonomialIdeal) -> bool:
    return len({len(p) for p in mi.minimal_primes(J)}) > 1


class TestNonpureCertificate:
    """One vertex-decomposition search, pure or not, certifies reg(R/J) as
    its largest shelling restriction; the walk stays the oracle."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _degeneration_memo.cache_clear()

    def test_small_complexes(self):
        # J = x1 (x2, x3): a point and an edge, reg 1
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])
        with mi.collect_stats() as s:
            assert mi.vertex_decomposition_reg(J, pure=True) is None
        assert s == dict.fromkeys(mi.STAT_NAMES, 0)
        with mi.collect_stats() as s:
            assert mi.vertex_decomposition_reg(J) == 1 == mi.reg_quotient(J)
        assert (s["route_vd"], s["route_vd_nonpure"], s["vd_handovers"]) == (0, 1, 0)
        # the search is kept: a second call counts the answer, not the work
        with mi.collect_stats() as s:
            assert mi.vertex_decomposition_reg(J) == 1
        assert (s["route_vd_nonpure"], s["vd_nodes"]) == (1, 0)
        # a pure certificate gives deg h
        J = mi.monomial_ideal([sqfree(*X[:3])])
        assert mi.vertex_decomposition_reg(J, pure=True) == 2

    def test_node_limit_hands_over(self, monkeypatch):
        monkeypatch.setattr(mi, "VD_NODE_LIMIT", 0)
        J = mi.monomial_ideal([sqfree(X[0], X[1]), sqfree(X[0], X[2])])
        with mi.collect_stats() as s:
            assert mi.vertex_decomposition_reg(J) is None
        assert (s["route_vd_nonpure"], s["vd_nodes"], s["vd_handovers"]) == (0, 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(ideals(max_vars=7, max_gens=5).filter(mixed))
    def test_mixed_certificate_agrees_with_the_walk(self, J):
        reg = mi.vertex_decomposition_reg(J)
        assert reg in (None, mi.reg_quotient(J))

    # every 5x5 item and a seeded slice of 150 of the 6,716 6x6 items
    def test_differential_on_asms(self):
        pool6 = non_permutation_asms(6)
        items = non_permutation_asms(5) + random.Random(12).sample(pool6, 150)
        certified = []
        for A in items:
            J = anti_diag_init(A)
            cm, reg = mi.is_cm_quotient(J), mi.reg_quotient(J)
            assert (is_schubert_cm(A), schubert_regularity(A)) == (cm, reg), A
            cert = mi.vertex_decomposition_reg(J)
            assert cert in (None, reg), A
            certified.append((mixed(J), cert is not None))
        # all but BULGE of the 5x5 items, mixed ones included
        assert sum(c for _, c in certified[:309]) == 308
        assert sum(m and c for m, c in certified[:309]) == 100
        # the slice has 82 mixed items, and one of them is left to the walk
        assert sum(c for _, c in certified[309:]) == 149
        assert sum(m and c for m, c in certified[309:]) == 81


class TestCoversOnce:
    """An ideal finds its minimal primes once, however many routes read them."""

    @pytest.fixture
    def cover_calls(self, monkeypatch):
        # the Schubert calls keep recent degenerations, primes included
        _degeneration_memo.cache_clear()
        calls = []
        covers = mi._cover_masks

        def counted(supports):
            calls.append(1)
            return covers(supports)

        monkeypatch.setattr(mi, "_cover_masks", counted)
        return calls

    def test_unmixed_item_without_a_certificate(self, cover_calls):
        # BULGE is unmixed with no vertex decomposition, so the certificate
        # and the walk both read its primes
        with mi.collect_stats() as s:
            assert not is_schubert_cm(BULGE)
        assert (s["vd_handovers"], s["route_primal"] + s["route_dual"]) == (1, 1)
        assert len(cover_calls) == 1

    def test_mixed_item(self, cover_calls):
        # a mixed ideal is certified by a nonpure vertex decomposition
        A = next(
            A
            for A in non_permutation_asms(5)
            if len({len(p) for p in mi.minimal_primes(anti_diag_init(A))}) > 1
        )
        reg = table_regularity(anti_diag_init(A))
        cover_calls.clear()
        with mi.collect_stats() as s:
            assert schubert_regularity(A) == reg
        assert s["vd_nodes"] > 0 and (s["route_vd_nonpure"], s["route_primal"] + s["route_dual"]) == (1, 0)
        assert len(cover_calls) == 1

    def test_betti_numbers_find_no_covers(self, cover_calls):
        mi.betti_numbers(anti_diag_init(BULGE))
        assert cover_calls == []


class TestRenders:
    def test_betti_text(self):
        J = mi.monomial_ideal([sqfree(X[0]), sqfree(X[1])])
        text = betti_to_text(mi.betti_numbers(J))
        lines = text.splitlines()
        assert lines[0] == "0: {} -> 1"
        assert lines[1] == "1: {x[1]} -> 1, {x[2]} -> 1"
        assert lines[2] == "2: {x[1],x[2]} -> 1"

    def test_betti_json(self):
        J = mi.monomial_ideal([sqfree(X[0])])
        data = betti_to_json(mi.betti_numbers(J))
        assert {"i": 0, "multidegree": [], "rank": 1} in data
        assert {"i": 1, "multidegree": [["x", 1]], "rank": 1} in data
