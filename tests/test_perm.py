"""Permutation combinatorics, checked against small brute-force oracles."""

import itertools

import pytest
from hypothesis import given, strategies as st

from asmschub import perm
from asmschub.perm import Permutation
from oracles import bruhat_leq_by_ranks, longest_element, perm_to_text


def brute_length(w):
    # inversion count straight from the definition
    line = w.one_line
    return sum(
        1
        for i, j in itertools.combinations(range(len(line)), 2)
        if line[i] > line[j]
    )


def brute_contains(w, p):
    # check every subsequence of the right length for order-isomorphism
    line, pat = w.one_line, p.one_line
    for sub in itertools.combinations(line, len(pat)):
        if all(
            (sub[a] < sub[b]) == (pat[a] < pat[b])
            for a, b in itertools.combinations(range(len(pat)), 2)
        ):
            return True
    return False


def brute_bruhat_leq(u, w):
    # subword characterization over one fixed reduced word of w
    word = reduced_word(w)
    n = max(len(u), len(w))
    u = perm.pad(u, n)
    reachable = set()
    for k in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), k):
            sub = [word[i] for i in positions]
            v = ordinary_product(sub, n)
            if perm.coxeter_length(v) == len(sub):
                reachable.add(v.one_line)
    return u.one_line in reachable


def ordinary_product(word, n):
    line = list(range(1, n + 1))
    for i in word:
        line[i - 1], line[i] = line[i], line[i - 1]
    return Permutation(tuple(line))


def reduced_word(w):
    # peel descents greedily
    word = []
    line = list(w.one_line)
    while True:
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                word.append(i + 1)
                line[i], line[i + 1] = line[i + 1], line[i]
                break
        else:
            break
    word.reverse()
    return word


perms_up_to_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestConstruction:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate entry"):
            perm.Permutation((2, 2, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            perm.Permutation((1, 2, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            perm.Permutation(())

    def test_call_is_one_based(self):
        w = Permutation((2, 3, 1))
        assert (w(1), w(3)) == (2, 1)
        for i in (0, -1, 4):
            with pytest.raises(IndexError, match=f"position {i} outside 1..3"):
                w(i)

    def test_roundtrip_text(self):
        w = Permutation((2, 1, 5, 4, 3))
        assert perm.perm_from_text(perm_to_text(w)) == w

    def test_roundtrip_json(self):
        w = Permutation((3, 1, 4, 2))
        assert perm.perm_from_json(perm.perm_to_json(w)) == w


class TestLengthAndDescents:
    def test_length_2143(self):
        assert perm.coxeter_length(Permutation((2, 1, 4, 3))) == 2

    def test_length_identity(self):
        assert perm.coxeter_length(perm.identity(4)) == 0

    def test_length_longest(self):
        assert perm.coxeter_length(longest_element(5)) == 10

    def test_length_matches_diagram_size(self):
        for w in perm.all_permutations(4):
            assert perm.coxeter_length(w) == len(perm.rothe_diagram(w))

    def test_descents_21543(self):
        assert perm.descents(Permutation((2, 1, 5, 4, 3))) == (1, 3, 4)

    @given(perms_up_to_5)
    def test_length_oracle(self, line):
        w = Permutation(tuple(line))
        assert perm.coxeter_length(w) == brute_length(w)


class TestDiagrams:
    def test_rothe_21543(self):
        w = Permutation((2, 1, 5, 4, 3))
        assert perm.rothe_diagram(w) == ((1, 1), (3, 3), (3, 4), (4, 3))

    def test_rothe_321(self):
        assert perm.rothe_diagram(Permutation((3, 2, 1))) == ((1, 1), (1, 2), (2, 1))

    def test_rothe_identity_empty(self):
        assert perm.rothe_diagram(perm.identity(3)) == ()

    def test_essential_21543(self):
        w = Permutation((2, 1, 5, 4, 3))
        assert perm.essential_set(w) == ((1, 1), (3, 4), (4, 3))

    def test_essential_321(self):
        assert perm.essential_set(Permutation((3, 2, 1))) == ((1, 2), (2, 1))

    def test_essential_subset_of_diagram(self):
        for w in perm.all_permutations(4):
            assert set(perm.essential_set(w)) <= set(perm.rothe_diagram(w))

    def test_diagram_transpose_inverse(self):
        # D(w^-1) is the transpose of D(w)
        for w in perm.all_permutations(4):
            transposed = sorted((j, i) for (i, j) in perm.rothe_diagram(w))
            assert list(perm.rothe_diagram(w.inverse())) == transposed


class TestPatterns:
    def test_contains_2143_in_21543(self):
        assert perm.contains_pattern(
            Permutation((2, 1, 5, 4, 3)), Permutation((2, 1, 4, 3))
        )

    def test_identity_avoids(self):
        assert not perm.contains_pattern(perm.identity(5), Permutation((2, 1, 4, 3)))

    def test_pattern_longer_than_host(self):
        assert not perm.contains_pattern(Permutation((2, 1)), Permutation((2, 1, 4, 3)))

    def test_self_containment(self):
        w = Permutation((4, 2, 6, 1, 7, 3, 5))
        assert not perm.avoids_all_patterns(w, [w])

    def test_avoids_empty_list(self):
        assert perm.avoids_all_patterns(Permutation((2, 1)), [])

    def test_oracle_on_s5(self):
        patterns = [Permutation(p) for p in ((2, 1, 4, 3), (1, 3, 2), (3, 1, 2))]
        for w in perm.all_permutations(5):
            for p in patterns:
                assert perm.contains_pattern(w, p) == brute_contains(w, p)

    @pytest.mark.parametrize("n", [4, 7])
    def test_classes_against_the_search(self, n):
        # the subsequence lookup of every class on all of S_n (S_4: patterns
        # longer than w) against the depth-first search, once per pattern
        for w in perm.all_permutations(n):
            for cls, patterns in perm.PERMUTATION_CLASSES.items():
                searched = not any(perm.contains_pattern(w, p) for p in patterns)
                assert perm.class_membership(w, cls) == searched, (w, cls)

    def test_vexillary_pinned_values(self):
        assert not perm.class_membership(Permutation((7, 2, 5, 8, 1, 3, 6, 4)), "vexillary")
        assert perm.class_membership(Permutation((1, 6, 9, 2, 4, 7, 3, 5, 8)), "vexillary")

    def test_cdg_pinned_values(self):
        assert not perm.is_cdg(Permutation((5, 7, 2, 1, 6, 4, 3)))
        assert perm.is_cdg(Permutation((1, 3, 5, 7, 2, 4, 6)))

    def test_cartwright_sturmfels_pinned_values(self):
        assert not perm.class_membership(Permutation((3, 1, 2, 6, 5, 4)), "cartwright-sturmfels")
        assert perm.class_membership(Permutation((6, 3, 5, 2, 1, 4)), "cartwright-sturmfels")

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown permutation class"):
            perm.class_membership(perm.identity(2), "grassmannian")

    def test_cs_implies_cdg(self):
        for n in range(1, 8):
            for w in perm.all_permutations(n):
                if perm.class_membership(w, "cartwright-sturmfels"):
                    assert perm.is_cdg(w)

    def test_cdg_does_not_imply_vexillary(self):
        # The avoidance classes are not nested: every CDG pattern has at
        # least five letters, so 2143 is vacuously CDG yet not vexillary.
        w = Permutation((2, 1, 4, 3))
        assert perm.is_cdg(w)
        assert not perm.class_membership(w, "vexillary")


class TestBruhat:
    def test_312_less_than_321(self):
        assert perm.bruhat_leq(Permutation((3, 1, 2)), Permutation((3, 2, 1)))

    def test_312_incomparable_231(self):
        assert not perm.bruhat_leq(Permutation((3, 1, 2)), Permutation((2, 3, 1)))
        assert not perm.bruhat_leq(Permutation((2, 3, 1)), Permutation((3, 1, 2)))

    def test_reflexive(self):
        for w in perm.all_permutations(3):
            assert perm.bruhat_leq(w, w)

    def test_oracle_s4(self):
        s4 = list(perm.all_permutations(4))
        for u in s4:
            for w in s4:
                assert perm.bruhat_leq(u, w) == brute_bruhat_leq(u, w)

    def test_padding(self):
        assert perm.bruhat_leq(Permutation((2, 1)), Permutation((3, 2, 1)))

    def test_rank_tables_s5(self):
        s5 = list(perm.all_permutations(5))
        for u in s5:
            for w in s5:
                assert perm.bruhat_leq(u, w) == bruhat_leq_by_ranks(u, w), (u, w)

    def test_rank_tables_across_sizes(self):
        for m, n in ((1, 3), (2, 4), (3, 4), (3, 5)):
            for u in perm.all_permutations(m):
                for w in perm.all_permutations(n):
                    assert perm.bruhat_leq(u, w) == bruhat_leq_by_ranks(u, w), (u, w)
                    assert perm.bruhat_leq(w, u) == bruhat_leq_by_ranks(w, u), (w, u)


class TestDemazure:
    def test_single_repeated_letter(self):
        assert perm.demazure_product((1, 1)) == Permutation((2, 1))

    def test_commuting_letters(self):
        assert perm.demazure_product((1, 3, 5)) == Permutation((2, 1, 4, 3, 6, 5))

    def test_empty_word(self):
        assert perm.demazure_product(()) == perm.identity(1)

    def test_staircase_word(self):
        assert perm.demazure_product((2, 1, 2)) == Permutation((3, 2, 1))

    @pytest.mark.parametrize("word,n", [((-1,), 3), ((0,), None), ((-1,), None)])
    def test_letters_below_one_rejected(self, word, n):
        # -1 would index from the end and act as s_{n-1}
        with pytest.raises(ValueError, match=f"letter {word[0]} is below 1"):
            perm.demazure_product(word, n)

    def test_reduced_words_multiply_ordinarily(self):
        for w in perm.all_permutations(4):
            word = reduced_word(w)
            assert perm.demazure_product(tuple(word), 4) == w

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=10))
    def test_idempotent_extension(self, word):
        # appending a letter never shortens the product
        base = perm.demazure_product(tuple(word), 5)
        for i in range(1, 5):
            longer = perm.demazure_product(tuple(word) + (i,), 5)
            assert perm.coxeter_length(longer) >= perm.coxeter_length(base)


class TestHelpers:
    def test_cells_to_text(self):
        assert perm.cells_to_text([(3, 4), (1, 1)]) == "{(1,1),(3,4)}"

    def test_pad(self):
        assert perm.pad(Permutation((2, 1)), 4) == Permutation((2, 1, 3, 4))

    def test_dominant(self):
        assert perm.is_dominant(Permutation((3, 2, 1)))
        assert perm.is_dominant(perm.identity(3))
        assert not perm.is_dominant(Permutation((2, 1, 4, 3)))

    def test_times_transposition(self):
        w = Permutation((2, 1, 5, 4, 3))
        assert perm.times_transposition(w, 1, 3) == Permutation((5, 1, 2, 4, 3))
