"""Tests for pipe dream enumeration, reading words, and rendering.

The ladder-move closure on cross masks is certified against brute force
(every staircase subset of the right size whose reading word multiplies
to w) and against the minimal primes of the antidiagonal initial ideal.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from asmschub.ideal import anti_diag_init
from asmschub.monomial import collect_stats, minimal_primes, stanley_reisner_complex
from asmschub.perm import (
    Permutation,
    all_permutations,
    coxeter_length,
    identity,
    lehmer_code,
)
from asmschub.pipedream import (
    PIPE_DREAM_CACHE,
    PipeDream,
    _pipe_dreams_memo,
    bottom_pipe_dream,
    pipe_dream,
    pipe_dream_from_json,
    pipe_dream_from_text,
    pipe_dream_to_json,
    pipe_dreams,
    render_pipe_dream,
    subword_complex_facets,
)
from asmschub.poly import monomial, x_, z_
from oracles import cross_monomial, is_reduced, longest_element, permutation_of, pipe_dreams_non_reduced, reading_word


def brute_force_dreams(w):
    n = len(w)
    cells = [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]
    out = []
    for combo in itertools.combinations(cells, coxeter_length(w)):
        D = PipeDream(n, combo)
        if permutation_of(D) == w:
            out.append(D)
    return tuple(sorted(out, key=lambda D: D.crosses))


class TestPipeDreamType:
    def test_rejects_cross_below_antidiagonal(self):
        with pytest.raises(ValueError, match="staircase"):
            pipe_dream(3, [(2, 2)])

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(ValueError, match="staircase"):
            pipe_dream(3, [(0, 1)])

    def test_raw_constructor_requires_canonical_tuple(self):
        with pytest.raises(ValueError, match="sorted and distinct"):
            PipeDream(4, ((1, 2), (1, 1)))

    def test_factory_sorts_and_dedupes(self):
        D = pipe_dream(4, [(2, 1), (1, 1), (2, 1)])
        assert D.crosses == ((1, 1), (2, 1))


class TestReading:
    def test_row_major_right_to_left(self):
        D = pipe_dream(3, [(1, 1), (1, 2), (2, 1)])
        assert reading_word(D) == (2, 1, 2)
        assert permutation_of(D) == Permutation((3, 2, 1))

    def test_six_strand_example(self):
        D = pipe_dream(6, [(1, 1), (1, 3), (1, 5)])
        assert permutation_of(D) == Permutation((2, 1, 4, 3, 6, 5))

    def test_empty_dream_is_identity(self):
        assert permutation_of(pipe_dream(4, [])) == identity(4)

    def test_repeated_effect_cross_is_not_reduced(self):
        # both crosses read as the same generator
        D = pipe_dream(3, [(1, 2), (2, 1)])
        assert reading_word(D) == (2, 2)
        assert permutation_of(D) == Permutation((1, 3, 2))
        assert not is_reduced(D)

    def test_reduced_examples(self):
        assert is_reduced(pipe_dream(6, [(1, 1), (1, 3), (1, 5)]))
        assert is_reduced(pipe_dream(2, []))


class TestBottomDream:
    def test_left_justified_code(self):
        assert bottom_pipe_dream(Permutation((2, 1, 4, 3))).crosses == (
            (1, 1),
            (3, 1),
        )

    def test_identity_is_empty(self):
        assert bottom_pipe_dream(identity(5)).crosses == ()

    def test_longest_element_fills_staircase(self):
        D = bottom_pipe_dream(longest_element(4))
        assert set(D.crosses) == {
            (i, j) for i in range(1, 4) for j in range(1, 4 - i + 1)
        }

    def test_always_reduced_with_correct_permutation(self):
        for w in all_permutations(5):
            D = bottom_pipe_dream(w)
            assert is_reduced(D)
            assert permutation_of(D) == w


def top_justified(D: PipeDream) -> bool:
    crosses = set(D.crosses)
    return all((i - 1, j) in crosses for i, j in crosses if i > 1)


class TestTopDream:
    """The least dream of w by cross set is its one top-justified dream,
    with the Lehmer code of w^-1 for column counts; `perm_set_of_asm`
    reads each component of an ASM off it."""

    def assert_top(self, w):
        dreams = pipe_dreams(w)
        assert [top_justified(D) for D in dreams].count(True) == 1 and top_justified(dreams[0]), w
        columns = [j for _, j in dreams[0].crosses]
        assert tuple(map(columns.count, range(1, len(w) + 1))) == lehmer_code(w.inverse()), w

    def test_every_permutation_through_six(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                self.assert_top(w)

    def test_seeded_seven_slice(self):
        for w in random.Random(35).sample(list(all_permutations(7)), 300):
            self.assert_top(w)


class TestEnumeration:
    def test_identity_has_one_dream(self):
        assert pipe_dreams(identity(3)) == (pipe_dream(3, []),)

    def test_first_dream_of_six_strand_example(self):
        dreams = pipe_dreams(Permutation((2, 1, 4, 3, 6, 5)))
        assert dreams[0].crosses == ((1, 1), (1, 3), (1, 5))
        assert len(dreams) == 15

    def test_three_dreams_for_2143(self):
        dreams = pipe_dreams(Permutation((2, 1, 4, 3)))
        assert [D.crosses for D in dreams] == [
            ((1, 1), (1, 3)),
            ((1, 1), (2, 2)),
            ((1, 1), (3, 1)),
        ]

    def test_matches_brute_force_up_to_degree_five(self):
        for n in (2, 3, 4, 5):
            for w in all_permutations(n):
                assert pipe_dreams(w) == brute_force_dreams(w)

    def test_every_dream_is_reduced_for_its_permutation(self):
        w = Permutation((3, 1, 5, 2, 4))
        for D in pipe_dreams(w):
            assert is_reduced(D)
            assert permutation_of(D) == w

    def test_cross_sets_are_the_minimal_primes(self):
        # Knutson-Miller: the reduced pipe dreams of w are the minimal primes
        # of its antidiagonal initial ideal, read as cross sets
        def agree(w):
            primes = {frozenset(v[1:] for v in P) for P in minimal_primes(anti_diag_init(w))}
            return {frozenset(D.crosses) for D in pipe_dreams(w)} == primes

        assert all(agree(w) for w in all_permutations(6))
        assert all(agree(w) for w in random.Random(36).sample(list(all_permutations(7)), 300))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 8"):
            pipe_dreams(identity(9))


class TestMemo:
    def test_repeated_call_returns_the_same_tuple(self):
        w = Permutation((3, 1, 5, 2, 4))
        assert pipe_dreams(w) is pipe_dreams(w)
        assert pipe_dreams(w) == brute_force_dreams(w)

    def test_memo_is_bounded(self):
        assert _pipe_dreams_memo.cache_info().maxsize == PIPE_DREAM_CACHE == 720

    def test_hits_are_counted(self):
        _pipe_dreams_memo.cache_clear()
        w = Permutation((2, 1, 4, 3, 6, 5))
        with collect_stats() as s:
            first = pipe_dreams(w)
            assert pipe_dreams(w) is first and pipe_dreams(identity(4)) == (pipe_dream(4, []),)
        assert s["dream_hits"] == 1

    def test_size_guard_comes_before_the_memo(self):
        before = _pipe_dreams_memo.cache_info()
        with pytest.raises(ValueError, match=r"^pipe dream enumeration is limited to n <= 8$"):
            pipe_dreams(identity(9))
        assert _pipe_dreams_memo.cache_info() == before


class TestNonReduced:
    def test_identity_only_empty(self):
        assert pipe_dreams_non_reduced(identity(3)) == (pipe_dream(3, []),)

    def test_two_strands(self):
        assert pipe_dreams_non_reduced(Permutation((2, 1))) == (
            pipe_dream(2, [(1, 1)]),
        )

    def test_includes_reduced_dreams(self):
        w = Permutation((1, 3, 2))
        dreams = pipe_dreams_non_reduced(w)
        reduced = set(pipe_dreams(w))
        assert reduced <= set(dreams)
        # the doubled cross over s2 also lands here
        assert pipe_dream(3, [(1, 2), (2, 1)]) in set(dreams)

    def test_counts_by_size_are_unsigned_grothendieck_support(self):
        w = Permutation((2, 1, 4, 3))
        sizes = sorted(len(D.crosses) for D in pipe_dreams_non_reduced(w))
        assert sizes[0] == coxeter_length(w)
        assert all(s >= coxeter_length(w) for s in sizes)


class TestSubwordFacets:
    def test_2143_facets(self):
        facets = subword_complex_facets(Permutation((2, 1, 4, 3)))
        grid = {(i, j) for i in range(1, 5) for j in range(1, 5)}
        omitted = [grid - {(v[1], v[2]) for v in F} for F in facets]
        assert omitted == [
            {(1, 1), (1, 3)},
            {(1, 1), (2, 2)},
            {(1, 1), (3, 1)},
        ]

    def test_facet_count_35(self):
        assert len(subword_complex_facets(Permutation((2, 1, 6, 3, 5, 4)))) == 35

    def test_identity_single_full_facet(self):
        facets = subword_complex_facets(identity(3))
        assert len(facets) == 1
        assert len(facets[0]) == 9

    def test_matches_stanley_reisner_complex(self):
        perms = list(all_permutations(4)) + [Permutation((2, 1, 4, 3, 6, 5))]
        for w in perms:
            K = stanley_reisner_complex(anti_diag_init(w))
            assert subword_complex_facets(w) == K.facets


class TestRendering:
    def test_six_strand_layout(self):
        D = pipe_dream(6, [(1, 1), (1, 3), (1, 5)])
        assert render_pipe_dream(D) == "\n".join(["+/+/+/"] + ["//////"] * 5)

    def test_empty_two_strands(self):
        assert render_pipe_dream(pipe_dream(2, [])) == "//\n//"

    def test_parse_rejects_bad_tile(self):
        with pytest.raises(ValueError, match="unexpected tile"):
            pipe_dream_from_text("+x\n//")

    def test_parse_rejects_ragged_grid(self):
        with pytest.raises(ValueError, match="square"):
            pipe_dream_from_text("+//\n//")


class TestWeights:
    def test_row_multiplicities(self):
        D = pipe_dream(4, [(1, 1), (1, 3), (2, 1)])
        assert cross_monomial(D) == monomial([(x_(1), 2), (x_(2), 1)])

    def test_empty_weight_is_one(self):
        assert cross_monomial(pipe_dream(3, [])) == ()


staircase_dreams = st.integers(2, 6).flatmap(
    lambda n: st.builds(
        lambda cells: pipe_dream(n, cells),
        st.lists(
            st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).filter(
                lambda c: c[0] + c[1] <= n
            ),
            max_size=6,
        ),
    )
)


@settings(max_examples=50, deadline=None)
@given(staircase_dreams)
def test_render_parse_roundtrip(D):
    assert pipe_dream_from_text(render_pipe_dream(D)) == D


@settings(max_examples=50, deadline=None)
@given(staircase_dreams)
def test_json_roundtrip(D):
    assert pipe_dream_from_json(pipe_dream_to_json(D)) == D
