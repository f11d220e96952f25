import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmschub import asm, perm
from asmschub.asm import PartialASM, RankTable
from asmschub.perm import Permutation
from oracles import complete_asm_by_search, matrix_to_text, perm_set_brute_force, rank_table_by_fixpoint


def brute_rank_table(A: PartialASM):
    # direct double summation, no prefix tricks
    return tuple(
        tuple(
            sum(A.rows[a][b] for a in range(i + 1) for b in range(j + 1))
            for j in range(A.ncols)
        )
        for i in range(A.nrows)
    )


def brute_partial_asms(m, n):
    out = []
    for entries in itertools.product((-1, 0, 1), repeat=m * n):
        rows = tuple(entries[i * n : (i + 1) * n] for i in range(m))
        try:
            out.append(PartialASM(rows))
        except ValueError:
            continue
    return out


def brute_full_asms(n):
    # row-product oracle, independent of the backtracking enumerator
    rows = [
        r
        for r in itertools.product((-1, 0, 1), repeat=n)
        if sum(r) == 1
        and all(sum(r[: k + 1]) in (0, 1) for k in range(n))
    ]
    out = []
    for combo in itertools.product(rows, repeat=n):
        try:
            A = PartialASM(combo)
        except ValueError:
            continue
        if A.is_asm:
            out.append(A)
    return out


small_grids = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestConstruction:
    def test_rectangular_partial(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 0]])
        assert not A.is_asm
        assert (A.nrows, A.ncols) == (2, 3)

    def test_one_by_one(self):
        assert PartialASM(((1,),)).is_asm

    def test_negative_singleton_rejected(self):
        with pytest.raises(ValueError, match="prefix sum -1"):
            PartialASM(((-1,),))

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="not in -1,0,1"):
            PartialASM(((2, -1),))

    def test_prefix_sum_two_rejected(self):
        with pytest.raises(ValueError, match="prefix sum"):
            PartialASM(((1, 1),))

    def test_column_prefix_rejected(self):
        with pytest.raises(ValueError, match="column 1 prefix sum"):
            PartialASM(((1,), (1,)))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            asm.make_partial_asm([[0, 1], [1]])

    def test_is_asm_flag(self):
        assert PartialASM(((0, 1), (1, 0))).is_asm
        assert not PartialASM(((1, 0), (0, 0))).is_asm

    def test_text_roundtrip(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 0]])
        text = matrix_to_text(A.rows)
        assert text == "0 1 0\n1 -1 0"
        assert asm.matrix_from_text(text) == A.rows

    def test_json_roundtrip(self):
        A = asm.make_partial_asm([[0, 1], [1, 0]])
        assert asm.asm_from_json(asm.asm_to_json(A)) == A

    def test_call_is_one_based(self):
        A = PartialASM(((0, 1, 0), (1, -1, 0)))
        assert A(1, 2) == 1 and A(2, 3) == 0
        for i, j in ((0, 1), (1, 0), (-1, 2), (3, 1), (1, 4)):
            with pytest.raises(IndexError, match=rf"position \({i},{j}\) outside 1..2 x 1..3"):
                A(i, j)


class TestRankTable:
    def test_rectangular_rank_table(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 0]])
        assert asm.rank_table(A).values == ((0, 1, 1), (1, 1, 1))

    def test_zero_matrix(self):
        assert asm.rank_table(PartialASM(((0,),))).values == ((0,),)

    def test_2143_rank_table(self):
        T = asm.rank_table(asm.permutation_matrix(Permutation((2, 1, 4, 3))))
        assert T.values == ((0, 1, 1, 1), (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 4))

    def test_matches_brute_force(self):
        for A in brute_partial_asms(2, 3):
            assert asm.rank_table(A).values == brute_rank_table(A)

    def test_built_tables_pass_validation(self):
        # rank_table skips RankTable's increment check; every table it
        # builds from an ASM or a partial ASM must pass that check
        for A in [*asm.enumerate_asms(5), *brute_partial_asms(2, 3), *brute_partial_asms(3, 2)]:
            T = asm.rank_table(A)
            assert RankTable(T.values) == T

    def test_invalid_increment_rejected(self):
        with pytest.raises(ValueError, match="increment"):
            RankTable(((0, 2),))
        with pytest.raises(ValueError, match="increment"):
            RankTable(((1, 1), (0, 1)))

    def test_call_reads_zero_on_the_northwest_edge(self):
        T = asm.rank_table(PartialASM(((0, 1, 0), (1, -1, 0))))
        assert T(0, 0) == T(0, 3) == T(2, 0) == 0
        assert T(2, 3) == 1
        for i, j in ((-1, 1), (1, -1), (3, 1), (1, 4)):
            with pytest.raises(IndexError, match=rf"position \({i},{j}\) outside 0..2 x 0..3"):
                T(i, j)

    def test_pinned_to_asm(self):
        T = RankTable(((0, 1, 1), (0, 1, 1), (1, 2, 2)))
        assert asm.rank_table_to_asm(T).rows == ((0, 1, 0), (0, 0, 0), (1, 0, 0))

    def test_staircase_gives_identity(self):
        T = RankTable(tuple(tuple(min(i, j) for j in range(1, 4)) for i in range(1, 4)))
        assert asm.rank_table_to_asm(T) == asm.permutation_matrix(perm.identity(3))

    def test_roundtrip_all_small(self):
        for n in (1, 2, 3, 4):
            for A in asm.enumerate_asms(n):
                assert asm.rank_table_to_asm(asm.rank_table(A)) == A
        for shape in ((2, 3), (3, 2)):
            for A in brute_partial_asms(*shape):
                assert asm.rank_table_to_asm(asm.rank_table(A)) == A

    def test_min_max_closure(self):
        tables = [asm.rank_table(A) for A in asm.enumerate_asms(4)]
        for t1, t2 in itertools.product(tables[:20], tables[-20:]):
            for mode in ("min", "max"):
                asm.entrywise_extreme_rank_table([t1, t2], mode)  # must not raise

    def test_extreme_rejects_empty_and_mismatch(self):
        with pytest.raises(ValueError, match="at least one"):
            asm.entrywise_extreme_rank_table([], "min")
        t2 = asm.rank_table(asm.permutation_matrix(perm.identity(2)))
        t3 = asm.rank_table(asm.permutation_matrix(perm.identity(3)))
        with pytest.raises(ValueError, match="dimensions"):
            asm.entrywise_extreme_rank_table([t2, t3], "min")
        with pytest.raises(ValueError, match="mode"):
            asm.entrywise_extreme_rank_table([t2], "sup")


class TestRankTableFromMatrix:
    def test_pinned_normalization(self):
        T = asm.rank_table_from_matrix([[0, 1, 2], [0, 4, 1], [8, 2, 4]])
        assert T.values == ((0, 1, 1), (0, 1, 1), (1, 2, 2))

    def test_identity_on_valid_tables(self):
        for A in asm.enumerate_asms(3):
            T = asm.rank_table(A)
            assert asm.rank_table_from_matrix(T.values).values == T.values

    def test_large_entries_give_staircase(self):
        T = asm.rank_table_from_matrix([[9] * 3] * 3)
        assert T.values == tuple(tuple(min(i, j) for j in range(1, 4)) for i in range(1, 4))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            asm.rank_table_from_matrix([[-1]])

    def test_two_passes_reach_the_fixpoint(self):
        # every grid up to 3x3: both routes first lower the entry at (i, j)
        # to min(i, j), 1-indexed (pinned by the staircase test above), so
        # an entry past that bound acts as the bound
        for m, n in itertools.product(range(1, 4), repeat=2):
            bounds = [range(min(i, j) + 1) for i in range(1, m + 1) for j in range(1, n + 1)]
            for entries in itertools.product(*bounds):
                grid = [entries[i * n : (i + 1) * n] for i in range(m)]
                assert asm.rank_table_from_matrix(grid).values == rank_table_by_fixpoint(grid), grid

    @settings(max_examples=60)
    @given(small_grids)
    def test_result_below_input_and_idempotent(self, grid):
        T = asm.rank_table_from_matrix(grid)
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                assert T.values[i][j] <= v
        assert asm.rank_table_from_matrix(T.values).values == T.values

    @settings(max_examples=40)
    @given(small_grids)
    def test_monotone(self, grid):
        bumped = [[v + 1 for v in row] for row in grid]
        lo = asm.rank_table_from_matrix(grid).values
        hi = asm.rank_table_from_matrix(bumped).values
        assert all(
            lo[i][j] <= hi[i][j] for i in range(len(grid)) for j in range(len(grid[0]))
        )


class TestCompletion:
    def test_identity_on_asms(self):
        for A in asm.enumerate_asms(3):
            assert asm.complete_asm(A) is A

    def test_zero_singleton(self):
        assert asm.complete_asm(PartialASM(((0,),))).rows == ((0, 1), (1, 0))

    def test_rectangular_completion(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 0]])
        done = asm.complete_asm(A)
        assert done.is_asm
        assert all(done(i, j) == A(i, j) for i in (1, 2) for j in (1, 2, 3))
        assert done.rows == ((0, 1, 0, 0), (1, -1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))

    def test_all_small_partials_complete(self):
        for shape in ((2, 3), (3, 2), (1, 3)):
            for A in brute_partial_asms(*shape):
                done = asm.complete_asm(A)
                assert done.is_asm
                assert all(
                    done(i, j) == A(i, j)
                    for i in range(1, A.nrows + 1)
                    for j in range(1, A.ncols + 1)
                )

    def test_matches_search(self):
        # the one fill against the size search, on every partial ASM of at
        # most 9 cells and every NW corner of a 5x5 ASM; padding by 2 against
        # the search started 2 sizes up
        small = [A for m in range(1, 10) for n in range(1, 9 // m + 1) for A in brute_partial_asms(m, n)]
        corners = {
            PartialASM(tuple(row[:n] for row in B.rows[:m]))
            for B in asm.enumerate_asms(5)
            for m in range(1, 6)
            for n in range(1, 6)
        }
        for A in [*small, *corners]:
            done = asm.complete_asm(A)
            assert done == complete_asm_by_search(A), A
            assert asm.pad_asm(done, done.nrows + 2) == complete_asm_by_search(A, done.nrows + 2), A

    def test_least_size(self):
        # each NW corner with m + n <= 6 of the ASMs up to size 6 first
        # occurs in an ASM of its completed size
        least = {}
        for size in range(1, 7):
            for B in asm.enumerate_asms(size):
                for m in range(1, min(size, 5) + 1):
                    for n in range(1, min(size, 6 - m) + 1):
                        least.setdefault(tuple(row[:n] for row in B.rows[:m]), size)
        assert len(least) == 204
        for rows, size in least.items():
            assert asm.complete_asm(PartialASM(rows)).nrows == size, rows

    def test_pad(self):
        A = asm.permutation_matrix(Permutation((2, 1)))
        assert asm.pad_asm(A, 4) == asm.permutation_matrix(Permutation((2, 1, 3, 4)))
        with pytest.raises(ValueError, match="smaller"):
            asm.pad_asm(A, 1)
        with pytest.raises(ValueError, match="full ASM"):
            asm.pad_asm(asm.make_partial_asm([[0, 1, 0], [1, -1, 0]]), 4)


class TestASMSum:
    M = [[0, 1, 0], [1, -1, 0]]
    N = [[1, 0, 0], [0, 0, 1]]

    def test_pinned_min_table(self):
        tables = []
        for rows in (self.M, self.N):
            A = asm.complete_asm(asm.make_partial_asm(rows))
            tables.append(asm.rank_table(asm.pad_asm(A, 4)))
        T = asm.entrywise_extreme_rank_table(tables, "min")
        assert T.values == ((0, 1, 1, 1), (1, 1, 1, 2), (1, 2, 2, 3), (1, 2, 3, 4))

    def test_pinned_sum(self):
        S = asm.asm_sum([asm.make_partial_asm(self.M), asm.make_partial_asm(self.N)])
        assert S.rows == ((0, 1, 0, 0), (1, -1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))

    def test_singleton(self):
        A = asm.make_partial_asm(self.M)
        assert asm.asm_sum([A]) == asm.complete_asm(A)

    def test_identity_absorbed(self):
        for A in asm.enumerate_asms(3):
            assert asm.asm_sum([asm.permutation_matrix(perm.identity(3)), A]) == A

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            asm.asm_sum([])


class TestEnumeration:
    def test_counts_small(self):
        for n, count in ((1, 1), (2, 2), (3, 7), (4, 42), (5, 429), (6, 7436)):
            assert len(asm.enumerate_asms(n)) == count

    def test_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            assert asm.enumerate_asms(n) == sorted(
                brute_full_asms(n), key=lambda A: A.rows
            )

    def test_lexicographic_order(self):
        for n in (4, 5, 6):
            out = asm.enumerate_asms(n)
            assert out == sorted(out, key=lambda A: A.rows)

    def test_enumerated_matrices_pass_validation(self):
        # `enumerate_asms` skips the checks, so each matrix must equal the
        # one the validating constructor builds from its rows
        for n in range(1, 6):
            for A in asm.enumerate_asms(n):
                B = PartialASM(A.rows)
                assert A == B and hash(A) == hash(B) and A.rows == B.rows and A.is_asm

    def test_permutation_matrix_count(self):
        for n in (1, 2, 3, 4):
            perms = [A for A in asm.enumerate_asms(n) if asm.as_permutation(A)]
            assert len(perms) == len(list(perm.all_permutations(n)))

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            asm.enumerate_asms(8)
        with pytest.raises(ValueError, match="positive"):
            asm.enumerate_asms(0)

    def test_random_deterministic(self):
        a = asm.random_asms(3, 5, seed=11)
        b = asm.random_asms(3, 5, seed=11)
        assert a == b
        assert all(A.is_asm for A in a)

    def test_random_without_replacement(self):
        drawn = asm.random_asms(3, 7, seed=2, replace=False)
        assert sorted(drawn, key=lambda A: A.rows) == asm.enumerate_asms(3)

    def test_random_size_one(self):
        assert asm.random_asms(1, 3, seed=0) == [PartialASM(((1,),))] * 3

    def test_random_negative_count(self):
        with pytest.raises(ValueError, match="count m = -5"):
            asm.random_asms(3, -5, seed=0)
        assert asm.random_asms(3, 0, seed=0) == []

    def test_random_without_replacement_past_pool(self):
        with pytest.raises(ValueError, match=r"count m = 8 exceeds the 7 ASMs of size 3"):
            asm.random_asms(3, 8, seed=0, replace=False)


class TestPermSet:
    def test_split_asm(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
        found = perm_set_brute_force(A)
        assert set(w.one_line for w in found) == {(2, 3, 1), (3, 1, 2)}

    def test_permutation_matrix(self):
        for w in perm.all_permutations(3):
            assert perm_set_brute_force(asm.permutation_matrix(w)) == [w]

    def test_guard(self):
        w = perm.identity(6)
        with pytest.raises(ValueError, match="n <= 5"):
            perm_set_brute_force(asm.permutation_matrix(w))


class TestPermutationMatrices:
    def test_roundtrip(self):
        for w in perm.all_permutations(5):
            assert asm.as_permutation(asm.permutation_matrix(w)) == w

    def test_non_permutation(self):
        A = asm.make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
        assert asm.as_permutation(A) is None
        assert asm.as_permutation(asm.make_partial_asm([[0, 1], [1, 0], [0, 0]])) is None

    def test_one_pass_cases(self):
        # a square partial permutation matrix with an empty row
        assert asm.as_permutation(asm.make_partial_asm([[0, 1, 0], [0, 0, 0], [1, 0, 0]])) is None
        # a non-square partial permutation matrix with a 1 in every row
        assert asm.as_permutation(asm.make_partial_asm([[0, 1, 0], [1, 0, 0]])) is None
        # a -1, whether or not the matrix is square
        assert asm.as_permutation(asm.make_partial_asm([[0, 1], [1, -1]])) is None
        assert asm.as_permutation(asm.make_partial_asm([[0, 1, 0], [1, -1, 1]])) is None

    def test_agrees_with_the_asm_test(self):
        # a permutation matrix is an ASM with no -1
        corners = {tuple(row[:n] for row in A.rows[:m]) for A in asm.enumerate_asms(4) for m in range(1, 5) for n in range(1, 5)}
        for rows in corners:
            A = asm.make_partial_asm(rows)
            w = asm.as_permutation(A)
            assert (w is not None) == (A.is_asm and all(-1 not in row for row in rows)), rows
            assert w is None or asm.permutation_matrix(w) == A
