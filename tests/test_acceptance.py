"""End-to-end acceptance checks, one test per criterion.

Every test computes its values fresh, asserts exact equality against
the frozen expectations, asserts the stated wall-clock budget, and
prints a single `criterion NN <label>: PASS (time)` line (visible with
`pytest -s` or in the captured output).  Sub-millisecond budgets time a
warmed call so they measure the computation, not interpreter startup.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from asmschub.asm import (
    RankTable,
    as_permutation,
    enumerate_asms,
    make_partial_asm,
    permutation_matrix,
    rank_table,
    rank_table_from_matrix,
    rank_table_to_asm,
)
from asmschub.decomp import (
    get_asm,
    is_asm_ideal,
    is_schubert_cm,
    perm_set_of_asm,
    schubert_add,
    schubert_decompose,
    schubert_intersect,
)
from asmschub.groebner import ideal_equals, initial_ideal, minimal_generators
from asmschub.ideal import anti_diag_init, diag_init, schubert_determinantal_ideal
from asmschub.monomial import (
    codim,
    collect_stats,
    is_cm_quotient,
    minimal_primes,
    mono_to_text,
    monomial_ideal,
    reg_quotient,
)
from asmschub.perm import (
    Permutation,
    all_permutations,
    class_membership,
    coxeter_length,
    essential_set,
    rothe_diagram,
)
from asmschub.pipedream import pipe_dreams, render_pipe_dream, subword_complex_facets
from asmschub.poly import antidiagonal_order, poly_from_text
from asmschub.schubpoly import (
    grothendieck_polynomial,
    raj_index,
    schubert_polynomial,
    schubert_regularity,
)
from oracles import cross_monomial, pdim_quotient, perm_set_brute_force

SPLIT = make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])

MEET = make_partial_asm([[0, 0, 1, 0], [0, 1, 0, 0], [1, -1, 0, 1], [0, 1, 0, 0]])

BULGE = make_partial_asm(
    [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, -1, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ]
)

REG4 = make_partial_asm([[0, 0, 1, 0], [0, 1, -1, 1], [1, -1, 1, 0], [0, 1, 0, 0]])

REG8 = make_partial_asm(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, -1, 1, 0],
        [0, 0, 0, 1, -1, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
)


def timed(budget: float, fn, warm: bool = False):
    if warm:
        fn()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    assert dt < budget, f"{dt:.4f}s exceeds the {budget:g}s budget"
    return out, dt


def report(num: int, label: str, dt: float):
    print(f"criterion {num:02d} {label}: PASS ({dt:.3f}s)")


def test_criterion_01_diagram_suite():
    w = Permutation((2, 1, 5, 4, 3))
    trio = lambda: (rothe_diagram(w), essential_set(w), coxeter_length(w))
    (diagram, essential, length), dt = timed(0.001, trio, warm=True)
    assert diagram == ((1, 1), (3, 3), (3, 4), (4, 3))
    assert essential == ((1, 1), (3, 4), (4, 3))
    assert length == 4
    report(1, "diagram suite", dt)


def test_criterion_02_fulton_generators():
    w = Permutation((3, 1, 4, 2))
    from asmschub.ideal import fulton_generators

    gens, dt = timed(0.010, lambda: fulton_generators(w), warm=True)
    expected = {
        "z[1,1]",
        "z[1,2]",
        "-z[1,2]*z[2,1] + z[1,1]*z[2,2]",
        "-z[1,2]*z[3,1] + z[1,1]*z[3,2]",
        "-z[2,2]*z[3,1] + z[2,1]*z[3,2]",
    }
    from asmschub.poly import poly_to_text

    assert {poly_to_text(g) for g in gens} == expected
    report(2, "Fulton generators", dt)


def test_criterion_03_antidiagonal_initial_ideal():
    A = make_partial_asm([[0, 0, 1, 0], [1, 0, -1, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    J, dt = timed(0.010, lambda: anti_diag_init(A), warm=True)
    assert [mono_to_text(m) for m in J.generators] == [
        "z[1,1]",
        "z[1,2]",
        "z[1,3]*z[2,1]",
        "z[1,3]*z[2,2]",
        "z[2,2]*z[3,1]",
    ]
    report(3, "antidiagonal initial ideal", dt)


def test_criterion_04_rank_table_suite():
    M = make_partial_asm([[0, 1, 0], [1, -1, 0]])
    t1, d1 = timed(0.010, lambda: rank_table(M), warm=True)
    assert t1.values == ((0, 1, 1), (1, 1, 1))

    t2, d2 = timed(
        0.010,
        lambda: rank_table_to_asm(RankTable(((0, 1, 1), (0, 1, 1), (1, 2, 2)))),
        warm=True,
    )
    assert t2.rows == ((0, 1, 0), (0, 0, 0), (1, 0, 0))

    t3, d3 = timed(
        0.010,
        lambda: rank_table_from_matrix([[0, 1, 2], [0, 4, 1], [8, 2, 4]]),
        warm=True,
    )
    assert t3.values == ((0, 1, 1), (0, 1, 1), (1, 2, 2))

    N = make_partial_asm([[1, 0, 0], [0, 0, 1]])
    I, d4 = timed(0.010, lambda: schubert_add([M, N]), warm=True)
    A = get_asm(I)
    assert A.rows == ((0, 1, 0, 0), (1, -1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    assert rank_table(A).values == (
        (0, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 2, 2, 3),
        (1, 2, 3, 4),
    )
    report(4, "rank table suite", d1 + d2 + d3 + d4)


def test_criterion_05_pattern_suite():
    cases = [
        ((7, 2, 5, 8, 1, 3, 6, 4), "vexillary", False),
        ((1, 6, 9, 2, 4, 7, 3, 5, 8), "vexillary", True),
        ((5, 7, 2, 1, 6, 4, 3), "cdg", False),
        ((1, 3, 5, 7, 2, 4, 6), "cdg", True),
        ((3, 1, 2, 6, 5, 4), "cartwright-sturmfels", False),
        ((6, 3, 5, 2, 1, 4), "cartwright-sturmfels", True),
    ]
    total = 0.0
    for one_line, cls, expected in cases:
        w = Permutation(one_line)
        got, dt = timed(0.001, lambda: class_membership(w, cls), warm=True)
        assert got == expected, (one_line, cls)
        total += dt
    report(5, "pattern suite", total)


def test_criterion_06_regularity_suite():
    w = Permutation((1, 2, 3, 9, 8, 4, 5, 6, 7))
    r1, d1 = timed(0.010, lambda: schubert_regularity(w), warm=True)
    assert r1 == 6
    r2, d2 = timed(1.0, lambda: schubert_regularity(REG4))
    assert r2 == 1
    r3, d3 = timed(60.0, lambda: schubert_regularity(REG8))
    assert r3 == 8
    report(6, "regularity suite", d1 + d2 + d3)


def test_criterion_07_polynomial_suite():
    w = Permutation((2, 1, 4, 3))
    f1, d1 = timed(0.1, lambda: schubert_polynomial(w), warm=True)
    assert f1 == poly_from_text("x[1]^2 + x[1]*x[2] + x[1]*x[3]")

    from asmschub.schubpoly import double_schubert_polynomial

    f2, d2 = timed(0.1, lambda: double_schubert_polynomial(w), warm=True)
    assert f2 == poly_from_text(
        "x[1]^2 + x[1]*x[2] + x[1]*x[3] - 2*x[1]*y[1] - x[2]*y[1] - x[3]*y[1]"
        " + y[1]^2 - x[1]*y[2] + y[1]*y[2] - x[1]*y[3] + y[1]*y[3]"
    )

    f3, d3 = timed(0.1, lambda: grothendieck_polynomial(w), warm=True)
    assert f3 == poly_from_text(
        "x[1]^2*x[2]*x[3] - x[1]^2*x[2] - x[1]^2*x[3] - x[1]*x[2]*x[3]"
        " + x[1]^2 + x[1]*x[2] + x[1]*x[3]"
    )
    report(7, "polynomial suite", d1 + d2 + d3)


def test_criterion_08_decomposition_suite():
    expected = {Permutation((3, 1, 2)), Permutation((2, 3, 1))}
    perms, d1 = timed(1.0, lambda: perm_set_of_asm(SPLIT))
    assert set(perms) == expected
    comps, d2 = timed(1.0, lambda: schubert_decompose(schubert_determinantal_ideal(SPLIT)))
    assert set(comps) == expected
    report(8, "decomposition suite", d1 + d2)


def test_criterion_09_asm_recognition_suite():
    def recognize():
        I = schubert_intersect([Permutation((3, 4, 1, 2)), Permutation((3, 2, 4, 1))])
        assert is_asm_ideal(I)
        return get_asm(I)

    A, dt = timed(30.0, recognize)
    assert A == MEET
    report(9, "ASM recognition suite", dt)


def test_criterion_10_cohen_macaulay_suite():
    def suite():
        assert is_schubert_cm(MEET)
        assert not is_schubert_cm(BULGE)
        return minimal_generators(schubert_determinantal_ideal(BULGE))

    trimmed, dt = timed(30.0, suite)
    assert {mono_to_text(g.terms[0][0]) for g in trimmed} == {
        "z[1,1]",
        "z[1,2]",
        "z[2,1]",
        "z[2,2]",
        "z[1,3]*z[3,1]",
        "z[1,3]*z[3,2]",
        "z[2,3]*z[3,1]",
        "z[2,3]*z[3,2]",
    }
    report(10, "Cohen-Macaulay suite", dt)


def test_criterion_11_subword_suite():
    def facet_run():
        small = subword_complex_facets(Permutation((2, 1, 4, 3)))
        count = len(subword_complex_facets(Permutation((2, 1, 6, 3, 5, 4))))
        return small, count

    (small, count), dt = timed(5.0, facet_run)
    grid = {(i, j) for i in range(1, 5) for j in range(1, 5)}
    omitted = [grid - {(v[1], v[2]) for v in F} for F in small]
    assert omitted == [{(1, 1), (1, 3)}, {(1, 1), (2, 2)}, {(1, 1), (3, 1)}]
    assert count == 35
    report(11, "subword suite", dt)


def test_criterion_12_pipe_dream_suite():
    w = Permutation((2, 1, 4, 3, 6, 5))

    def run():
        D = pipe_dreams(w)[0]
        return render_pipe_dream(D), D.crosses, minimal_primes(anti_diag_init(w))

    (picture, crosses, primes), dt = timed(1.0, run)
    assert picture == "+/+/+/\n//////\n//////\n//////\n//////\n//////"
    assert crosses == ((1, 1), (1, 3), (1, 5))
    prime_sets = {frozenset(P) for P in primes}
    assert frozenset({("z", 1, 1), ("z", 1, 3), ("z", 1, 5)}) in prime_sets
    assert frozenset(("z", i, j) for i, j in crosses) in prime_sets
    report(12, "pipe dream suite", dt)


def test_criterion_13_diagonal_order_suite():
    # the two southeast-heaviest orders coincide on this input; the
    # northwest lex order differs from both in two generators
    w = Permutation((2, 1, 4, 3, 6, 5))

    def run():
        return (
            diag_init(w, "LexSE"),
            diag_init(w, "LexNW"),
            diag_init(w, "RevLex"),
        )

    (se, nw, rv), dt = timed(60.0, run)
    assert {mono_to_text(m) for m in se.generators} == {
        "z[1,1]",
        "z[1,2]*z[2,1]*z[3,3]",
        "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,2]^2*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,3]*z[2,1]*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    }
    assert {mono_to_text(m) for m in nw.generators} == {
        "z[1,1]",
        "z[1,2]*z[2,1]*z[3,3]",
        "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,2]*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
        "z[1,3]*z[2,1]^2*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    }
    assert rv == se
    report(13, "diagonal order suite", dt)


def test_criterion_14_enumeration_suite():
    def run():
        counts = [len(enumerate_asms(n)) for n in range(1, 6)]
        perm_counts = [
            sum(1 for A in enumerate_asms(n) if as_permutation(A) is not None)
            for n in range(1, 6)
        ]
        non_perm = [A for A in enumerate_asms(4) if as_permutation(A) is None]
        cm = [A for A in non_perm if is_schubert_cm(A)]
        non_cm = [A for A in non_perm if not is_schubert_cm(A)]
        return counts, perm_counts, non_perm, cm, non_cm

    (counts, perm_counts, non_perm, cm, non_cm), dt = timed(120.0, run)
    assert counts == [1, 2, 7, 42, 429]
    assert perm_counts == [1, 2, 6, 24, 120]
    assert len(cm) + len(non_cm) == len(non_perm) == 18
    assert not set(map(id, cm)) & set(map(id, non_cm))
    assert all((A in cm) != (A in non_cm) for A in non_perm)
    assert len(non_cm) == 3
    report(14, "enumeration suite", dt)


def test_criterion_15_property_gates():
    t0 = time.perf_counter()

    for w in all_permutations(4):
        I = schubert_determinantal_ideal(permutation_matrix(w))
        assert anti_diag_init(w) == initial_ideal(I, antidiagonal_order(4, 4))

    for w in all_permutations(5):
        assert raj_index(w) == grothendieck_polynomial(w).degree()

    for w in all_permutations(5):
        assert schubert_polynomial(w, algorithm="Transition") == schubert_polynomial(w)

    from asmschub.poly import Polynomial

    for w in all_permutations(4):
        total = Polynomial.from_dict({cross_monomial(D): 1 for D in pipe_dreams(w)})
        assert total == schubert_polynomial(w)

    for A in enumerate_asms(3):
        I = schubert_determinantal_ideal(A)
        assert ideal_equals(I, schubert_intersect(perm_set_of_asm(A)))

    for n in (1, 2, 3, 4):
        for A in enumerate_asms(n):
            assert set(perm_set_of_asm(A)) == set(perm_set_brute_force(A))

    dt = time.perf_counter() - t0
    assert dt < 600.0, f"{dt:.1f}s exceeds the 600s budget"
    report(15, "property gates", dt)


def test_criterion_16_cohen_macaulay_split_5x5():
    pool = [A for A in enumerate_asms(5) if as_permutation(A) is None]
    flags, dt = timed(10.0, lambda: [is_schubert_cm(A) for A in pool])
    assert len(pool) == 309
    assert flags.count(True) == 208 and flags.count(False) == 101
    # the unmixedness gate and the restricted Betti entries agree with
    # pdim == codim read off the full Betti table; BULGE is the one
    # unmixed 5x5 ASM that is not Cohen-Macaulay
    for A in random.Random(16).sample(pool, 15) + [BULGE]:
        J = anti_diag_init(A)
        assert is_cm_quotient(J) == (pdim_quotient(J) == codim(J))
    with pytest.raises(ValueError, match="unit ideal"):
        is_cm_quotient(monomial_ideal([()]))
    assert is_cm_quotient(monomial_ideal([], [("z", 1, 1)]))
    report(16, "Cohen-Macaulay split of the 5x5 ASMs", dt)


# (is_schubert_cm, schubert_regularity) of random.Random(17).sample(pool, 18)
# over the non-permutation 6x6 ASMs in enumeration order, recorded with the
# full Betti table route that predates the Alexander-dual routes (30.8 s on
# a 2-vCPU x86-64 VM; about 0.4 s with them)
SLICE_6X6 = (
    (True, 4), (False, 3), (False, 3), (True, 2), (True, 3), (True, 3),
    (False, 5), (True, 7), (False, 3), (True, 4), (False, 1), (False, 4),
    (True, 2), (False, 4), (True, 3), (False, 4), (False, 3), (True, 6),
)


def test_criterion_17_cohen_macaulay_6x6_slice():
    pool = [A for A in enumerate_asms(6) if as_permutation(A) is None]
    assert len(pool) == 6716
    items = random.Random(17).sample(pool, len(SLICE_6X6))
    got, dt = timed(10.0, lambda: [(is_schubert_cm(A), schubert_regularity(A)) for A in items])
    assert tuple(got) == SLICE_6X6
    # the certificate answers every item, so the walk is asked directly:
    # it agrees, and some items walk only J's lcm lattice, some only the dual's
    walks = []
    for A, (_, reg) in zip(items, SLICE_6X6):
        with collect_stats() as s:
            assert reg_quotient(anti_diag_init(A)) == reg
        walks.append((s["route_primal"], s["route_dual"]))
    assert any(p and not d for p, d in walks) and any(d and not p for p, d in walks)
    report(17, "Cohen-Macaulayness and regularity of a 6x6 slice", dt)
