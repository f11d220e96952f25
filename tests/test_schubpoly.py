"""Tests for Schubert/Grothendieck polynomials and regularity.

Three independent routes to the same polynomials (divided differences,
transition, signed pipe-dream sums) are played against each other, and
the Rajchgot-index formula is gated by the degree of the Grothendieck
polynomial before anything trusts it.
"""

from __future__ import annotations

import random

import pytest

from asmschub.asm import make_partial_asm, permutation_matrix
from asmschub.ideal import anti_diag_init
from asmschub.monomial import reg_quotient
from asmschub.perm import (
    Permutation,
    all_permutations,
    coxeter_length,
    identity,
    pad,
)
from asmschub.pipedream import pipe_dreams
from asmschub import schubpoly
from asmschub.poly import Polynomial, divided_difference, isobaric_divided_difference, mono_degree, poly_to_text
from oracles import (
    cross_monomial,
    double_schuberts_by_reduced_dreams,
    double_staircase_by_factors,
    grothendieck_by_brute_force,
    longest_element,
    substitute,
)
from asmschub.schubpoly import (
    double_schubert_polynomial,
    grothendieck_polynomial,
    raj_index,
    schubert_polynomial,
    schubert_regularity,
)

REG_ASM = make_partial_asm(
    [[0, 0, 1, 0], [0, 1, -1, 1], [1, -1, 1, 0], [0, 1, 0, 0]]
)


class TestSchubertPolynomial:
    def test_pinned_value(self):
        f = schubert_polynomial(Permutation((2, 1, 4, 3)))
        assert poly_to_text(f) == "x[1]^2 + x[1]*x[2] + x[1]*x[3]"

    def test_identity_is_one(self):
        assert poly_to_text(schubert_polynomial(identity(4))) == "1"

    def test_longest_element_is_staircase_monomial(self):
        f = schubert_polynomial(longest_element(4))
        assert poly_to_text(f) == "x[1]^3*x[2]^2*x[3]"

    def test_transition_agrees_on_degree_five(self):
        for w in all_permutations(5):
            assert schubert_polynomial(w, "Transition") == schubert_polynomial(w)

    def test_pipe_dream_positivity(self):
        for w in all_permutations(4):
            total = Polynomial.from_dict(
                {cross_monomial(D): 1 for D in pipe_dreams(w)}
            )
            f = schubert_polynomial(w)
            assert f == total
            assert all(c > 0 and c.denominator == 1 for _, c in f.terms)

    def test_stable_under_padding(self):
        for w in all_permutations(3):
            assert schubert_polynomial(pad(w, 5)) == schubert_polynomial(w)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown Schubert algorithm"):
            schubert_polynomial(identity(3), "Magic")

    def test_memos_are_bounded_and_hit(self):
        for memo in (schubpoly._descend, schubpoly._transition):
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and maxsize >= 3 * 720
        w = Permutation((1, 3, 2, 5, 4))
        first = schubert_polynomial(w)
        hits = schubpoly._descend.cache_info().hits
        assert schubert_polynomial(w) is first
        assert schubpoly._descend.cache_info().hits == hits + 1


class TestTrimmedClimb:
    """Each family climbs from the longest element of the least S_n that
    holds w.  All three are stable under S_n in S_{n+1}, so the climb from
    the longest element of S_6 gives the same polynomials."""

    @pytest.mark.parametrize(
        "family, base, step",
        [
            (schubert_polynomial, schubpoly._staircase, divided_difference),
            (double_schubert_polynomial, schubpoly._double_staircase, divided_difference),
            (grothendieck_polynomial, schubpoly._staircase, isobaric_divided_difference),
        ],
    )
    def test_trimmed_against_untrimmed_on_s6(self, family, base, step):
        for w in all_permutations(6):
            assert family(w) == schubpoly._descend(w, base, step), w


class TestDoubleSchubert:
    def test_pinned_value(self):
        f = double_schubert_polynomial(Permutation((2, 1, 4, 3)))
        assert poly_to_text(f) == (
            "x[1]^2 + x[1]*x[2] + x[1]*x[3] - 2*x[1]*y[1] - x[2]*y[1]"
            " - x[3]*y[1] + y[1]^2 - x[1]*y[2] + y[1]*y[2] - x[1]*y[3]"
            " + y[1]*y[3]"
        )

    def test_identity_is_one(self):
        assert poly_to_text(double_schubert_polynomial(identity(3))) == "1"

    def test_specializing_y_to_zero(self):
        zero = Polynomial.from_dict({})
        for w in all_permutations(4):
            f = double_schubert_polynomial(w)
            ys = {v for m, _ in f.terms for v, _ in m if v[0] == "y"}
            single = substitute(f, {v: zero for v in ys})
            assert single == schubert_polynomial(w)

    def test_reduced_pipe_dream_sum_through_degree_five(self):
        # y terms included: the only route to them besides divided differences
        for n in (4, 5):
            by_dreams = double_schuberts_by_reduced_dreams(n)
            for w in all_permutations(n):
                assert by_dreams[w.one_line] == double_schubert_polynomial(w), w

    @pytest.mark.parametrize("n", range(1, 8))
    def test_staircase_rows_against_factors(self, n):
        # the row products from the bottom up give the map that one factor
        # at a time gives, layout and packed ints alike
        f, want = schubpoly._double_staircase(n), double_staircase_by_factors(n)
        assert (f._alphabet, f._width, f._packed) == (want._alphabet, want._width, want._packed)


class TestGrothendieck:
    def test_pinned_value(self):
        f = grothendieck_polynomial(Permutation((2, 1, 4, 3)))
        assert poly_to_text(f) == (
            "x[1]^2*x[2]*x[3] - x[1]^2*x[2] - x[1]^2*x[3] - x[1]*x[2]*x[3]"
            " + x[1]^2 + x[1]*x[2] + x[1]*x[3]"
        )

    def test_identity_is_one(self):
        assert poly_to_text(grothendieck_polynomial(identity(5))) == "1"

    def test_pipe_dream_formula_agrees_on_degree_four(self):
        for w in all_permutations(4):
            assert grothendieck_polynomial(w, "PipeDream") == grothendieck_polynomial(w)

    def test_lowest_degree_part_is_schubert(self):
        for w in all_permutations(4):
            g = grothendieck_polynomial(w)
            bottom = coxeter_length(w)
            part = Polynomial.from_dict(
                {m: c for m, c in g.terms if mono_degree(m) == bottom}
            )
            assert part == schubert_polynomial(w)

    def test_size_guard_on_pipe_dream_path(self):
        with pytest.raises(ValueError, match="n <= 8"):
            grothendieck_polynomial(identity(9), "PipeDream")

    def test_pipe_dream_sum_matches_brute_force_through_degree_five(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert grothendieck_polynomial(w, "PipeDream") == grothendieck_by_brute_force(w), w

    def test_pipe_dream_sum_matches_divided_differences_past_the_brute_force(self):
        items = list(all_permutations(6))[::5]
        items += random.Random(7).sample(list(all_permutations(7)), 50)
        items += [Permutation((1, 2, 3, 8, 7, 6, 5, 4)), Permutation((2, 1, 7, 8, 6, 5, 4, 3)), longest_element(8)]
        for w in items:
            assert grothendieck_polynomial(w, "PipeDream") == grothendieck_polynomial(w), w

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown Grothendieck algorithm"):
            grothendieck_polynomial(identity(3), "Degree")


class TestRajIndex:
    def test_identity(self):
        assert raj_index(identity(6)) == 0

    def test_longest_element(self):
        for n in (2, 3, 4, 5):
            assert raj_index(longest_element(n)) == n * (n - 1) // 2

    def test_pinned_values(self):
        assert raj_index(Permutation((2, 1, 4, 3))) == 4
        assert raj_index(Permutation((1, 2, 3, 9, 8, 4, 5, 6, 7))) == 15

    def test_degree_oracle_on_degree_five(self):
        for w in all_permutations(5):
            assert raj_index(w) == grothendieck_polynomial(w).degree()

    def test_stable_under_padding(self):
        for w in all_permutations(4):
            assert raj_index(pad(w, 6)) == raj_index(w)


class TestRegularity:
    def test_long_permutation(self):
        assert schubert_regularity(Permutation((1, 2, 3, 9, 8, 4, 5, 6, 7))) == 6

    def test_grassmannian_pattern(self):
        assert schubert_regularity(Permutation((2, 1, 4, 3))) == 2

    def test_dominant_is_zero(self):
        assert schubert_regularity(longest_element(5)) == 0

    def test_permutation_matrix_delegates(self):
        w = Permutation((3, 1, 4, 2))
        assert schubert_regularity(permutation_matrix(w)) == schubert_regularity(w)

    def test_betti_route_agrees_on_degree_four(self):
        for w in all_permutations(4):
            assert schubert_regularity(w) == reg_quotient(anti_diag_init(w))

    def test_four_by_four_asm(self):
        assert schubert_regularity(REG_ASM) == 1

    def test_small_asm_complete_intersection(self):
        A = make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
        assert schubert_regularity(A) == 1
        assert schubert_regularity(A) == reg_quotient(anti_diag_init(A))
