"""Tests for rank-condition determinantal ideals and their initial ideals.

The essential-box generators are certified against the full grid of
rank conditions (every northwest cell, not just the corners), and the
combinatorial antidiagonal initial ideal is certified against an
actual Buchberger run.  Small diagrams and generator lists are pinned
from hand computations.
"""

from __future__ import annotations

import random
from math import comb

import pytest

from asmschub.groebner import GroebnerBudgetError, buchberger, ideal_equals, initial_ideal
from asmschub.ideal import (
    ANTI_DIAGONAL_CACHE,
    DEGENERATION_CACHE,
    DIAG_VARIANTS,
    LOCAL_LEAD_CACHE,
    ROW_MASK_CACHE,
    _anti_diagonals,
    _cdg_init,
    _degeneration,
    _fulton_init,
    _degeneration_memo,
    _local_lead,
    _minor_indices,
    _row_masks,
    anti_diag_init,
    as_partial_asm,
    asm_diagram,
    asm_essential_boxes,
    diag_init,
    diag_order,
    fulton_generators,
    schubert_codim,
    schubert_determinantal_ideal,
)
from asmschub.asm import as_permutation, enumerate_asms, make_partial_asm, permutation_matrix, rank_table
from asmschub.monomial import codim as monomial_codim, collect_stats, mono_to_text, monomial_ideal
from asmschub.perm import (
    Permutation,
    all_permutations,
    class_membership,
    coxeter_length,
    essential_set,
    identity,
    rothe_diagram,
)
from asmschub.schubpoly import grothendieck_polynomial
from asmschub.poly import (
    antidiagonal_order,
    generic_minor,
    lead_monomial,
    monomial,
    poly_from_text,
    z_,
    z_grid,
)
from oracles import (
    anti_diag_init_by_tuples,
    cdg_init_by_matchings,
    cover_masks_all_pairs,
    determinantal_ideal_from_cells,
    essential_boxes_by_definition,
    essential_boxes_by_scan,
    initial_ideal_by_reduced_basis,
    minor_lead_by_expansion,
)

FULCRUM = make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])


def mono_texts(J):
    return [mono_to_text(g) for g in J.generators]


class TestDiagram:
    def test_permutation_diagram_matches_rothe(self):
        for w in all_permutations(4):
            assert asm_diagram(w) == rothe_diagram(w)
            cells = [b.cell for b in asm_essential_boxes(w)]
            assert tuple(cells) == essential_set(w)

    def test_small_asm(self):
        assert asm_diagram(FULCRUM) == ((1, 1), (2, 2))
        boxes = asm_essential_boxes(FULCRUM)
        assert [(b.cell, b.rank_bound) for b in boxes] == [((1, 1), 0), ((2, 2), 1)]

    def test_partial_permutation_matrix(self):
        A = make_partial_asm([[0, 1, 0], [0, 0, 0]])
        assert asm_diagram(A) == ((1, 1), (2, 1), (2, 3))
        boxes = asm_essential_boxes(A)
        assert [(b.cell, b.rank_bound) for b in boxes] == [((2, 1), 0), ((2, 3), 1)]

    def test_identity_has_empty_diagram(self):
        assert asm_diagram(identity(4)) == ()
        assert asm_essential_boxes(identity(4)) == ()


def random_partial_asm(rng: random.Random, m: int, n: int):
    """A partial ASM filled cell by cell, each entry drawn among those that
    keep its row and column prefix sums in {0, 1}, then widened by an
    all-zero row and an all-zero column at random places half the time
    each, which keeps every prefix sum in {0, 1}."""
    rows, cols = [], [0] * n
    for _ in range(m):
        row, s = [], 0
        for j in range(n):
            e = rng.choice([e for e in (-1, 0, 1) if s + e in (0, 1) and cols[j] + e in (0, 1)])
            row.append(e)
            s, cols[j] = s + e, cols[j] + e
        rows.append(row)
    if rng.random() < 0.5:
        rows.insert(rng.randint(0, m), [0] * n)
    if rng.random() < 0.5:
        k = rng.randint(0, n)
        rows = [row[:k] + [0] + row[k:] for row in rows]
    return make_partial_asm(rows)


class TestEssentialBoxesByDefinition:
    """`asm_essential_boxes` reads the boxes in one pass over the rows; the
    oracle reads them off the whole diagram and the rank table."""

    def test_every_asm_through_size_five(self):
        for n in range(1, 6):
            for A in enumerate_asms(n):
                assert asm_essential_boxes(A) == essential_boxes_by_definition(A), A.rows

    def test_seeded_6x6_sample(self):
        for A in random.Random(30).sample(enumerate_asms(6), 300):
            assert asm_essential_boxes(A) == essential_boxes_by_definition(A), A.rows

    def test_seeded_rectangular_partial_asms(self):
        rng = random.Random(30)
        matrices = [random_partial_asm(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)]
        zero_row = [A for A in matrices if not all(map(any, A.rows))]
        zero_col = [A for A in matrices if not all(map(any, zip(*A.rows)))]
        assert len(zero_row) > 50 and len(zero_col) > 50
        assert any(A.nrows != A.ncols for A in matrices)
        for A in matrices:
            assert asm_essential_boxes(A) == essential_boxes_by_definition(A), A.rows


class TestEssentialBoxesByScan:
    """`asm_essential_boxes` reads the boxes off row masks; the oracle scans
    the rows entry by entry."""

    def test_every_asm_through_size_five(self):
        for n in range(1, 6):
            for A in enumerate_asms(n):
                assert asm_essential_boxes(A) == essential_boxes_by_scan(A), A.rows

    def test_seeded_corners_of_6x6_asms(self):
        # north-west corners of every shape, 1 x n and n x 1 among them
        rng = random.Random(36)
        corners = {
            tuple(row[:n] for row in A.rows[:m])
            for A in rng.sample(enumerate_asms(6), 200)
            for m, n in [(1, rng.randint(1, 6)), (rng.randint(1, 6), 1), (rng.randint(1, 6), rng.randint(1, 6))]
        }
        shapes = {(len(rows), len(rows[0])) for rows in corners}
        assert {(1, 6), (6, 1)} <= shapes and len(corners) > 150
        for rows in sorted(corners):
            C = make_partial_asm(rows)
            assert asm_essential_boxes(C) == essential_boxes_by_scan(C), rows

    def test_row_memo_is_bounded_and_unchanged(self):
        assert _row_masks.cache_info().maxsize == ROW_MASK_CACHE
        # 1 -1 1 0: nonzero in columns 1 to 3, prefix sums 1 0 1 1
        assert _row_masks((1, -1, 1, 0)) == (0b0111, 0b1101)
        asms = random.Random(36).sample(enumerate_asms(6), 100)
        first = [asm_essential_boxes(A) for A in asms]
        rows = {row for A in asms for row in A.rows}
        assert all(_row_masks(row) == _row_masks.__wrapped__(row) for row in rows)
        assert [asm_essential_boxes(A) for A in asms] == first


class TestFultonGenerators:
    def test_one_descent(self):
        w = Permutation((3, 1, 4, 2))
        gens = fulton_generators(w)
        expected = (
            poly_from_text("z[1,1]"),
            poly_from_text("z[1,2]"),
            generic_minor((1, 2), (1, 2)),
            generic_minor((1, 3), (1, 2)),
            generic_minor((2, 3), (1, 2)),
        )
        assert gens == expected

    def test_shared_minors_listed_once(self):
        # both essential boxes of the longest element contribute z[1,1]
        gens = fulton_generators(Permutation((3, 2, 1)))
        assert gens == (
            poly_from_text("z[1,1]"),
            poly_from_text("z[1,2]"),
            poly_from_text("z[2,1]"),
        )

    def test_asm_generators(self):
        gens = fulton_generators(FULCRUM)
        assert gens == (
            poly_from_text("z[1,1]"),
            generic_minor((1, 2), (1, 2)),
        )

    def test_identity_generates_zero_ideal(self):
        assert fulton_generators(identity(3)) == ()
        I = schubert_determinantal_ideal(identity(3))
        assert I.generators == ()

    def test_rectangular_ambient(self):
        A = make_partial_asm([[0, 1, 0], [0, 0, 0]])
        I = schubert_determinantal_ideal(A)
        assert I.ambient == (2, 3)
        assert len(I.generators) == 5

    def test_ideal_caches_rank_data(self):
        I = schubert_determinantal_ideal(FULCRUM)
        assert I.cache["asm"] == FULCRUM


class TestEssentialBoxesSuffice:
    """The corner rank conditions generate the same ideal as all of them."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive(self, n):
        grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for w in all_permutations(n):
            I = schubert_determinantal_ideal(w)
            J = determinantal_ideal_from_cells(w, grid)
            assert ideal_equals(I, J)

    @pytest.mark.parametrize(
        "entries", [(2, 1, 4, 3), (1, 4, 2, 3), (3, 1, 4, 2), (4, 2, 1, 3)]
    )
    def test_sampled_degree_four(self, entries):
        w = Permutation(entries)
        grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        assert ideal_equals(
            schubert_determinantal_ideal(w),
            determinantal_ideal_from_cells(w, grid),
        )

    def test_asm_case(self):
        grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        assert ideal_equals(
            schubert_determinantal_ideal(FULCRUM),
            determinantal_ideal_from_cells(FULCRUM, grid),
        )


class TestAntiDiagInit:
    def test_matches_buchberger_for_all_degree_four(self):
        for w in all_permutations(4):
            I = schubert_determinantal_ideal(w)
            combinatorial = anti_diag_init(w)
            computed = initial_ideal(I, antidiagonal_order(4, 4))
            assert combinatorial.generators == computed.generators
            assert combinatorial.is_squarefree

    def test_pinned_small_example(self):
        J = anti_diag_init(Permutation((3, 1, 4, 2)))
        assert mono_texts(J) == ["z[1,1]", "z[1,2]", "z[2,2]*z[3,1]"]

    def test_two_descents(self):
        # corner (3,3) carries rank bound 2, so a single 3x3 determinant
        J = anti_diag_init(Permutation((2, 1, 4, 3)))
        assert mono_texts(J) == ["z[1,1]", "z[1,3]*z[2,2]*z[3,1]"]

    def test_asm_initial_ideal(self):
        J = anti_diag_init(FULCRUM)
        assert mono_texts(J) == ["z[1,1]", "z[1,2]*z[2,1]"]

    def test_zero_for_identity(self):
        assert anti_diag_init(identity(3)).is_zero


def assert_same_as_tuple_route(A):
    J, want = anti_diag_init(A), anti_diag_init_by_tuples(A)
    assert "generators" not in J.__dict__  # built on grid masks, no tuple decoded
    assert (J.generators, J.variables, J._supports) == want, A
    # J holds the grid masks themselves, z[r,c] at bit (r - 1) * ncols + c - 1
    n = as_partial_asm(A).ncols
    assert J._packed == tuple(sorted(sum(1 << (v[1] - 1) * n + v[2] - 1 for v, _ in m) for m in want[0])), A
    assert J._primes == tuple(sorted(cover_masks_all_pairs(want[2]))), A


class TestAntiDiagInitOnMasks:
    """The grid-mask route against one monomial tuple per minor, the
    order of the generators, supports and primes included."""

    def test_every_4x4_and_5x5_asm(self):
        for A in enumerate_asms(4) + enumerate_asms(5):
            assert_same_as_tuple_route(A)

    def test_seeded_6x6_sample(self):
        for A in random.Random(21).sample(enumerate_asms(6), 500):
            assert_same_as_tuple_route(A)

    def test_rectangular_corners(self):
        # northwest corners of ASMs are partial ASMs; on a grid of n
        # columns, z[r,c] sits n bits above z[r-1,c]
        shapes = ((2, 5), (5, 2), (3, 6), (6, 3), (4, 5), (5, 4))
        corners = {
            tuple(row[:n] for row in A.rows[:m])
            for A in random.Random(7).sample(enumerate_asms(6), 80)
            for m, n in shapes
        }
        assert len(corners) > 200
        for rows in sorted(corners):
            assert_same_as_tuple_route(make_partial_asm(rows))

    def test_three_constructors_agree(self):
        # grid masks, generator tuples and the packed leads of a Buchberger
        # run give one packed form over the grid, equal and equally hashed
        asms = enumerate_asms(4) + random.Random(29).sample(enumerate_asms(5), 30)
        corners = [make_partial_asm([row[:n] for row in A.rows[:m]]) for A in asms[-6:] for m, n in ((3, 5), (5, 2))]
        for A in asms + corners:
            M = as_partial_asm(A)
            masks = anti_diag_init(M)
            tuples = monomial_ideal(anti_diag_init_by_tuples(M)[0], z_grid(M.nrows, M.ncols))
            leads = initial_ideal(schubert_determinantal_ideal(M), antidiagonal_order(M.nrows, M.ncols))
            assert masks == tuples == leads and hash(masks) == hash(tuples) == hash(leads), M


class TestAntiDiagonalMemo:
    """`anti_diag_init` concatenates each box's masks from `_anti_diagonals`."""

    def test_memo_is_bounded_and_shared(self):
        assert _anti_diagonals.cache_info().maxsize == ANTI_DIAGONAL_CACHE
        # FULCRUM's boxes: (1,1) with rank 0 and (2,2) with rank 1 of 3 columns
        assert [(b.cell, b.rank_bound) for b in asm_essential_boxes(FULCRUM)] == [((1, 1), 0), ((2, 2), 1)]
        masks = _anti_diagonals(2, 2, 2, 3)  # z[1,2] z[2,1]: bits 1 and 3
        assert masks == (1 << 1 | 1 << 3,) and _anti_diagonals(2, 2, 2, 3) is masks
        # 1342 has one box, (3,2) with rank 1: the 2-minors of the north-west
        # 3 x 2 corner of a 4-column grid, read twice from one tuple
        box = _anti_diagonals(3, 2, 2, 4)
        kept = list(box)
        assert anti_diag_init(Permutation((1, 3, 4, 2))) == anti_diag_init(Permutation((1, 3, 4, 2)))
        assert _anti_diagonals(3, 2, 2, 4) is box and list(box) == kept and len(box) == 3

    def test_boxes_of_a_6x6_grid(self):
        # every box of every 6x6 ASM is one key: at most sum(min(i, j)) = 91 of them
        _anti_diagonals.cache_clear()
        for A in random.Random(35).sample(enumerate_asms(6), 300):
            anti_diag_init(A)
        assert _anti_diagonals.cache_info().currsize <= 91 == sum(min(i, j) for i in range(1, 7) for j in range(1, 7))


class TestDegenerationMemo:
    def test_hits_are_counted(self):
        _degeneration_memo.cache_clear()
        assert _degeneration_memo.cache_info().maxsize == DEGENERATION_CACHE
        first = _degeneration(FULCRUM)
        assert _degeneration(FULCRUM) is first  # a hit that nobody collects
        with collect_stats() as s:
            assert _degeneration(FULCRUM) is first
            assert _degeneration(make_partial_asm([[0, 1], [1, 0]])) is not first
            assert _degeneration(FULCRUM) is first
        assert s["memo_hits"] == 2
        assert _degeneration_memo.cache_info().hits == 3


class TestCodim:
    def test_permutations_use_diagram_size(self):
        for w in all_permutations(4):
            assert schubert_codim(w) == coxeter_length(w)
            assert schubert_codim(permutation_matrix(w)) == coxeter_length(w)

    def test_asm_goes_through_initial_ideal(self):
        assert schubert_codim(FULCRUM) == 2
        assert monomial_codim(anti_diag_init(FULCRUM)) == 2

    def test_identity(self):
        assert schubert_codim(identity(5)) == 0


class TestDiagonalOrders:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown diagonal variant"):
            diag_order("LexNE", 3, 3)

    def test_lead_term_of_a_minor_is_its_diagonal(self):
        f = generic_minor((1, 2, 3), (1, 2, 3))
        from asmschub.poly import lead_monomial, monomial

        diag = monomial([(z_(1, 1), 1), (z_(2, 2), 1), (z_(3, 3), 1)])
        for variant in DIAG_VARIANTS:
            order = diag_order(variant, 3, 3)
            assert lead_monomial(f, order) == diag

    def test_southeast_equals_revlex_on_small_group(self):
        for w in all_permutations(3):
            se = diag_init(w, "LexSE")
            assert se.generators == diag_init(w, "RevLex").generators

    def test_codimension_preserved_by_degeneration(self):
        for w in all_permutations(3):
            length = coxeter_length(w)
            for variant in DIAG_VARIANTS:
                J = diag_init(w, variant)
                assert (0 if J.is_zero else monomial_codim(J)) == length


class TestDiagonalDegreeSixPins:
    """Three diagonal initial ideals of the 21 43 65 pattern.

    Only two distinct ideals arise, with the two southeast flavors
    agreeing, and they differ from the antidiagonal one.
    """

    W = Permutation((2, 1, 4, 3, 6, 5))

    SE = {
        "z[1,1]",
        "z[1,2]*z[2,1]*z[3,3]",
        "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,2]^2*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,3]*z[2,1]*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    }
    NW = {
        "z[1,1]",
        "z[1,2]*z[2,1]*z[3,3]",
        "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,2]*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,3]*z[2,1]^2*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    }

    def test_southeast_lex(self):
        assert set(mono_texts(diag_init(self.W, "LexSE"))) == self.SE

    def test_northwest_lex(self):
        assert set(mono_texts(diag_init(self.W, "LexNW"))) == self.NW

    def test_revlex_agrees_with_southeast(self):
        assert (
            diag_init(self.W, "RevLex").generators
            == diag_init(self.W, "LexSE").generators
        )

    def test_antidiagonal_differs(self):
        adi = set(mono_texts(anti_diag_init(self.W)))
        assert adi == {
            "z[1,1]",
            "z[1,3]*z[2,2]*z[3,1]",
            "z[1,5]*z[2,4]*z[3,3]*z[4,2]*z[5,1]",
        }
        assert adi != self.SE and adi != self.NW


def buchberger_diag(w, variant):
    """The diagonal initial ideal through Buchberger, whatever the class of w."""
    n = len(w)
    return initial_ideal(schubert_determinantal_ideal(w), diag_order(variant, n, n))


def cdg_sample(n, count, seed, cdg=True):
    """`count` distinct permutations of S_n avoiding the CDG patterns, or
    else containing one, drawn uniformly by seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        if class_membership(w, "cdg") == cdg and w not in out:
            out.append(w)
    return out


class TestCdgShortcut:
    """Klein's theorem: for a permutation avoiding the CDG patterns, the
    lead terms of its CDG generators generate every diagonal initial
    ideal.  Buchberger stays as the differential test of the shortcut."""

    CDG_S5 = [w for w in all_permutations(5) if class_membership(w, "cdg")]

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_every_cdg_permutation_of_s5(self, variant):
        assert len(self.CDG_S5) == 118
        for w in self.CDG_S5:
            with collect_stats() as s:
                J = diag_init(w, variant)
            assert (s["route_cdg"], s["pairs"]) == (1, 0)
            assert J == buchberger_diag(w, variant), w

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_seeded_cdg_slice_of_s7(self, variant):
        # seed 3 keeps the six Buchberger runs per order near 0.6 s
        for w in cdg_sample(7, 6, seed=3):
            assert diag_init(w, variant) == buchberger_diag(w, variant), w

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_seeded_non_cdg_slice_of_s7(self, variant):
        # the Hilbert-driven run against the plain one: the same ideal,
        # pairs and basis, and fewer reductions
        for w in cdg_sample(7, 8, seed=40, cdg=False):
            with collect_stats() as driven:
                got = diag_init(w, variant)
            with collect_stats() as plain:
                assert got == buchberger_diag(w, variant), w
            assert [driven[k] for k in DRIVEN_SAME] == [plain[k] for k in DRIVEN_SAME], w
            assert driven["zero_reductions"] <= plain["zero_reductions"] and driven["pairs_hilbert"] > 0, w

    @pytest.mark.parametrize("entries", [(1, 3, 2, 5, 4), (2, 1, 5, 4, 3)])
    def test_cdg_patterns_keep_buchberger(self, entries):
        w = Permutation(entries)
        assert not class_membership(w, "cdg")
        for variant in DIAG_VARIANTS:
            want = buchberger_diag(w, variant)
            assert _cdg_init(as_partial_asm(w), variant) != want
            with collect_stats() as s:
                assert diag_init(w, variant) == want
            assert s["route_cdg"] == 0 and s["pairs"] > 0

    # per order, (pairs, coprime, chain, zero reductions, basis size,
    # reduction units, pairs the Hilbert function skipped, numerator nodes),
    # and the plain run's first six, which no order changes
    @pytest.mark.parametrize(
        "entries, counters",
        [((1, 3, 2, 5, 4), ({v: (6, 0, 0, 0, 3, 8, 4, 4) for v in DIAG_VARIANTS}, (6, 1, 2, 1, 3, 40))),
         ((2, 1, 5, 4, 3), ({"LexSE": (28, 0, 9, 0, 9, 10, 18, 19), "LexNW": (28, 0, 0, 0, 9, 10, 27, 19),
                             "RevLex": (28, 0, 3, 0, 9, 10, 24, 19)}, (28, 3, 14, 10, 9, 142)))],
    )
    def test_buchberger_counters_are_pinned(self, entries, counters):
        driven, plain = counters
        names = ("pairs", "pairs_coprime", "pairs_chain", "zero_reductions", "basis_size",
                 "reduction_units", "pairs_hilbert", "hilbert_nodes")
        for variant in DIAG_VARIANTS:
            with collect_stats() as s:
                diag_init(Permutation(entries), variant)
            assert tuple(s[k] for k in names) == driven[variant], variant
            with collect_stats() as s:
                buchberger_diag(Permutation(entries), variant)
            assert tuple(s[k] for k in names) == plain + (0, 0), variant

    def test_shortcut_spends_no_budget(self):
        asm = make_partial_asm([[0, 1, 0, 0], [1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        with pytest.raises(GroebnerBudgetError, match="budget of 1"):
            diag_init(asm, "LexSE", budget=1)
        w = Permutation((2, 1, 4, 3))  # CDG but not vexillary
        for variant in DIAG_VARIANTS:
            assert diag_init(w, variant, budget=0) == buchberger_diag(w, variant)
            assert diag_init(permutation_matrix(w), variant, budget=0) == buchberger_diag(w, variant)


DRIVEN_SAME = ("pairs", "basis_size", "split_variables")


def grothendieck_at_one_minus_t(w):
    """G_w(1 - t, ..., 1 - t), coefficients from t^0 up to its degree."""
    K = [0]
    for m, c in grothendieck_polynomial(w).terms:
        d = sum(e for _, e in m)
        K += [0] * (d + 1 - len(K))
        for i in range(d + 1):
            K[i] += c * (-1) ** i * comb(d, i)
    while len(K) > 1 and not K[-1]:
        K.pop()
    return tuple(K)


class TestHilbertNumerator:
    """The target the diagonal route stops on.  R/I_w and R/J, J =
    `anti_diag_init(w)`, share a Hilbert series (Knutson and Miller, Annals
    2005, Theorem B), whose numerator is G_w(1 - t, ..., 1 - t): J's
    numerator is checked against the Grothendieck polynomial, an independent
    route, and every diagonal initial ideal against J."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_antidiagonal_numerator_is_the_grothendieck_polynomial(self, n):
        for w in all_permutations(n):
            assert anti_diag_init(w)._numerator == grothendieck_at_one_minus_t(w), w

    def test_seeded_slice_of_s6(self):
        for w in random.Random(41).sample(list(all_permutations(6)), 60):
            assert anti_diag_init(w)._numerator == grothendieck_at_one_minus_t(w), w

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_diagonal_initial_ideals_share_it(self, variant):
        for w in all_permutations(5):
            assert diag_init(w, variant)._numerator == anti_diag_init(w)._numerator, w

    def test_pinned_numerators(self):
        # 2,1: (z11) has K = 1 - t; 1,3,2: one 2-minor, 1 - t^2; the identity: 1
        assert anti_diag_init(Permutation((2, 1)))._numerator == (1, -1)
        assert anti_diag_init(Permutation((1, 3, 2)))._numerator == (1, 0, -1)
        assert anti_diag_init(identity(3))._numerator == (1,)

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_asms_keep_the_plain_run(self, variant):
        # no theorem in the code gives an ASM's Hilbert series, so ASMs and
        # partial ASMs take the packed input alone, and every counter is the
        # plain run's
        rng = random.Random(42)
        asms = [A for A in enumerate_asms(4) if as_permutation(A) is None]
        asms += rng.sample([A for A in enumerate_asms(5) if as_permutation(A) is None], 24)
        asms += [random_partial_asm(rng, rng.randint(2, 5), rng.randint(2, 5)) for _ in range(16)]
        for A in asms:
            M = as_partial_asm(A)
            with collect_stats() as got:
                J = diag_init(A, variant)
            with collect_stats() as want:
                assert J == initial_ideal(schubert_determinantal_ideal(M), diag_order(variant, M.nrows, M.ncols)), A
            assert got == want and got["pairs_hilbert"] == got["hilbert_nodes"] == 0, A

    def test_a_target_never_met_never_stops_the_run(self):
        # the unit ideal's numerator 0 keeps every excess positive, so the
        # run is the plain one but for the numerator's nodes
        w = Permutation((2, 1, 5, 4, 3))
        for variant in DIAG_VARIANTS:
            order = diag_order(variant, 5, 5)
            with collect_stats() as got:
                J = _fulton_init(as_partial_asm(w), order, 10_000, (0,))
            with collect_stats() as want:
                assert J == buchberger_diag(w, variant)
            assert {**got, "hilbert_nodes": 0} == want and got["hilbert_nodes"] > 0

    def test_a_wrong_target_raises(self):
        # the zero ideal's numerator 1 lies above every lead's Hilbert function
        M = as_partial_asm(Permutation((1, 3, 2, 5, 4)))
        with pytest.raises(ArithmeticError, match="fell below the target's in degree 4"):
            _fulton_init(M, diag_order("LexSE", 5, 5), 10_000, (1,))


def memo_population():
    """All of S_5, CDG or not, and seeded slices of S_6 and S_7."""
    rng = random.Random(24)
    s6 = rng.sample(list(all_permutations(6)), 60)
    s7 = [Permutation(tuple(rng.sample(range(1, 8), 7))) for _ in range(12)]
    return list(all_permutations(5)) + s6 + s7


class TestLocalLeadMemo:
    """`_cdg_init` reads each minor's lead off `_local_lead`, keyed by the
    variant, the size and the zero counts of the minor's rows."""

    POPULATION = memo_population()

    def test_population_mixes_cdg_and_not(self):
        cdg = sum(class_membership(w, "cdg") for w in self.POPULATION)
        assert 0 < cdg < len(self.POPULATION) == 192

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_every_minor_against_its_own_matching_lead(self, variant):
        for w in self.POPULATION:
            n = len(w)
            T = rank_table(permutation_matrix(w))
            zero = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if T(i, j) == 0}
            order = diag_order(variant, n, n)
            for box in asm_essential_boxes(w):
                for rows, cols in _minor_indices(box):
                    local = {(a, b) for a, r in enumerate(rows) for b, c in enumerate(cols) if (r, c) in zero}
                    mu = tuple(sum((a, b) in local for b in range(len(cols))) for a in range(len(rows)))
                    # the zero cells of the minor are a prefix of each of its rows
                    assert local == {(a, b) for a, m in enumerate(mu) for b in range(m)}
                    lead = _local_lead(variant, len(rows), mu)
                    got = None if lead is None else monomial((z_(rows[a], cols[b]), 1) for a, b in lead)
                    assert got == minor_lead_by_expansion(rows, cols, zero, order), (w, rows, cols)

    @pytest.mark.parametrize("k", [6, 7])
    def test_large_minors_against_the_expansion(self, k):
        # seeded northwest shapes, as a rank table gives, with mu[a] <= k - 1 - a
        # so that a matching is left, and a mask that zeroes the wrong
        # cells of a row shows
        rng = random.Random(31 + k)
        cells = range(1, k + 1)
        for _ in range(6):
            mu = tuple(sorted((rng.randint(0, k - a) for a in cells), reverse=True))
            zero = {(a, b) for a, m in zip(cells, mu) for b in range(1, m + 1)}
            for variant in DIAG_VARIANTS:
                lead = _local_lead(variant, k, mu)
                got = None if lead is None else monomial((z_(a + 1, b + 1), 1) for a, b in lead)
                assert got == minor_lead_by_expansion(cells, cells, zero, diag_order(variant, k, k)), (variant, mu)

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_whole_ideal_against_matchings(self, variant):
        for w in self.POPULATION:
            M = as_partial_asm(w)
            J = _cdg_init(M, variant)
            want = cdg_init_by_matchings(M, diag_order(variant, len(w), len(w)))
            assert (J.generators, J.variables, J._supports) == want, w

    def test_memo_is_bounded_and_keyed_by_variant(self):
        assert _local_lead.cache_info().maxsize == LOCAL_LEAD_CACHE
        # The three orders give equal leads on every key the population
        # meets, but the exactness argument is made per order, so one key
        # must not serve two variants.
        _local_lead.cache_clear()
        leads = {_local_lead(v, 3, (2, 1, 0)) for v in DIAG_VARIANTS}
        assert leads == {((0, 2), (1, 1), (2, 0))}
        assert _local_lead.cache_info().currsize == len(DIAG_VARIANTS)
        assert _local_lead("LexSE", 2, (2, 0)) is None


COUNTERS = ("pairs", "pairs_coprime", "pairs_chain", "zero_reductions", "basis_size")


class TestLeadsOffMinimalBasis:
    """`initial_ideal` decodes the leads of the packed minimal basis alone,
    against `initial_ideal_by_reduced_basis`, which decodes the lead of each
    member of the reduced basis; both spend the same pair loop."""

    def check(self, A, variant):
        M = as_partial_asm(A)
        I, order = schubert_determinantal_ideal(M), diag_order(variant, M.nrows, M.ncols)
        with collect_stats() as leads:
            got = initial_ideal(I, order)
        with collect_stats() as reduced:
            want = initial_ideal_by_reduced_basis(I, order)
        assert got == want and hash(got) == hash(want), (M, variant)
        assert [leads[k] for k in COUNTERS] == [reduced[k] for k in COUNTERS], (M, variant)
        assert ("gb", order) not in I.cache  # no basis was reduced for I

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_all_of_s5(self, variant):
        for w in all_permutations(5):
            self.check(w, variant)

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_seeded_non_cdg_slice_of_s6(self, variant):
        rest = [w for w in all_permutations(6) if not class_membership(w, "cdg")]
        for w in random.Random(25).sample(rest, 12):
            self.check(w, variant)

    @pytest.mark.parametrize("variant", DIAG_VARIANTS)
    def test_4x4_asms_off_permutations(self, variant):
        asms = [A for A in enumerate_asms(4) if as_permutation(A) is None]
        assert len(asms) == 18
        for A in asms:
            self.check(A, variant)

    def test_a_cached_basis_is_read(self):
        # all of S_4, the six non-squarefree diagonal ideals of S_6 and one
        # more: the packed leads of the minimal basis, then those of the
        # cached reduced basis, must give one packed form, equal and
        # equally hashed
        cases = [(w, v) for w in all_permutations(4) for v in DIAG_VARIANTS]
        cases += [(Permutation(w), v) for w in [(2, 1, 4, 3, 6, 5), (3, 2, 1, 6, 5, 4)] for v in DIAG_VARIANTS]
        cases.append((Permutation((1, 3, 2, 5, 4)), "RevLex"))
        for w, variant in cases:
            I, order = schubert_determinantal_ideal(w), diag_order(variant, len(w), len(w))
            packed = initial_ideal(I, order)
            buchberger(I, order)
            with collect_stats() as s:
                got = initial_ideal(I, order)
            assert s["pairs"] == s["basis_size"] == 0
            assert got == packed == initial_ideal_by_reduced_basis(I, order), (w, variant)
            assert hash(got) == hash(packed) and got.is_squarefree == (len(w) < 6), (w, variant)


class TestCoercion:
    def test_passthrough(self):
        assert as_partial_asm(FULCRUM) is FULCRUM

    def test_permutation_becomes_its_matrix(self):
        w = Permutation((2, 1))
        assert as_partial_asm(w) == permutation_matrix(w)

    def test_raw_rows(self):
        assert as_partial_asm([[1, 0], [0, 1]]) == make_partial_asm([[1, 0], [0, 1]])
