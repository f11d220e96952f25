"""Tests for the Buchberger engine and ideal arithmetic.

Pinned answers are classical triangularizations that can be checked by
hand (symmetric-function elimination, the twisted cubic).  Everything
else is certified by postconditions that characterize a reduced
Groebner basis without trusting the code that produced it: every
S-polynomial reduces to zero, no term of a basis element is divisible
by another lead term, input generators are members, and the result is
invariant under shuffling the input.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from asmschub.groebner import (
    DEFAULT_BUDGET,
    GroebnerBudgetError,
    Ideal,
    _Meter,
    _Overflow,
    _Ring,
    buchberger,
    canonical_order,
    ideal_contains,
    ideal_equals,
    initial_ideal,
    intersect_ideals,
    minimal_generators,
    normal_form,
)
from asmschub.monomial import collect_stats, mono_to_text
from asmschub.poly import (
    Polynomial,
    TermOrder,
    antidiagonal_order,
    lead_monomial,
    lex_order,
    mono_degree,
    monomial,
    poly_from_text,
    variable,
    z_,
)
from oracles import initial_ideal_by_reduced_basis, mono_div, mono_divides, mono_lcm, mono_mul, nested_term_key

X, Y, Z = z_(1, 1), z_(1, 2), z_(1, 3)
LEX = lex_order([X, Y, Z])
GREVLEX = TermOrder("grevlex", (X, Y, Z))


def P(text: str) -> Polynomial:
    return poly_from_text(text)


def spoly(f, g, order):
    lf, lg = lead_monomial(f, order), lead_monomial(g, order)
    lcm = mono_lcm(lf, lg)
    a = Polynomial.from_dict({mono_div(lcm, lf): Fraction(1) / f.coefficient(lf)})
    b = Polynomial.from_dict({mono_div(lcm, lg): Fraction(1) / g.coefficient(lg)})
    return a * f - b * g


def reduce(f, basis, order):
    """normal_form of f against the polynomials of basis."""
    return normal_form(f, tuple(basis), order, _Meter(DEFAULT_BUDGET))


def assert_reduced_groebner(gens, basis, order):
    """Postconditions that pin down THE reduced Groebner basis."""
    assert basis, "basis of a nonzero ideal must be nonempty"
    leads = [lead_monomial(g, order) for g in basis]
    for g in basis:
        assert g.coefficient(lead_monomial(g, order)) == 1
    # pairwise reduced: no term divisible by another lead
    for i, g in enumerate(basis):
        for m, _ in g.terms:
            for j, lt in enumerate(leads):
                if i != j:
                    assert not mono_divides(lt, m)
    # Buchberger criterion on the output
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            rem = reduce(spoly(basis[i], basis[j], order), basis, order)
            assert rem.is_zero
    # the input lives inside the output's ideal
    for f in gens:
        assert reduce(f, basis, order).is_zero
    # sorted ascending by lead term
    keys = [nested_term_key(order, lt) for lt in leads]
    assert keys == sorted(keys)


class TestBuchbergerPinned:
    def test_linear_triangularization(self):
        gens = [P("z[1,1] - z[1,2]"), P("z[1,2] - z[1,3]")]
        basis = buchberger(gens, LEX)
        assert set(basis) == {P("z[1,1] - z[1,3]"), P("z[1,2] - z[1,3]")}

    def test_single_generator_made_monic(self):
        basis = buchberger([P("3*z[1,1]^2*z[1,2]")], LEX)
        assert basis == (P("z[1,1]^2*z[1,2]"),)

    def test_symmetric_functions_of_cube_roots(self):
        # e1, e2, e3 - 1 triangularizes by back-substitution
        gens = [
            P("z[1,1] + z[1,2] + z[1,3]"),
            P("z[1,1]*z[1,2] + z[1,2]*z[1,3] + z[1,1]*z[1,3]"),
            P("z[1,1]*z[1,2]*z[1,3] - 1"),
        ]
        basis = buchberger(gens, LEX)
        assert set(basis) == {
            P("z[1,1] + z[1,2] + z[1,3]"),
            P("z[1,2]^2 + z[1,2]*z[1,3] + z[1,3]^2"),
            P("z[1,3]^3 - 1"),
        }
        assert_reduced_groebner(gens, basis, LEX)

    def test_twisted_cubic_grevlex(self):
        gens = [P("z[1,1]^2 - z[1,2]"), P("z[1,1]^3 - z[1,3]")]
        basis = buchberger(gens, GREVLEX)
        assert set(basis) == {
            P("z[1,1]^2 - z[1,2]"),
            P("z[1,1]*z[1,2] - z[1,3]"),
            P("z[1,2]^2 - z[1,1]*z[1,3]"),
        }
        assert_reduced_groebner(gens, basis, GREVLEX)

    def test_twisted_cubic_lex_eliminates_first_variable(self):
        gens = [P("z[1,1]^2 - z[1,2]"), P("z[1,1]^3 - z[1,3]")]
        basis = buchberger(gens, LEX)
        assert_reduced_groebner(gens, basis, LEX)
        free_of_x = [g for g in basis if X not in g.variables()]
        assert free_of_x == [P("z[1,2]^3 - z[1,3]^2")]

    def test_zero_ideal(self):
        assert buchberger([], LEX) == ()

    @pytest.mark.parametrize("order", [LEX, GREVLEX])
    def test_constants_give_the_unit_ideal(self, order):
        assert buchberger([P("2"), P("3")], order) == (P("1"),)


def split_run(gens, order):
    """The reduced basis of gens and the counters of its one run."""
    with collect_stats() as s:
        basis = buchberger(gens, order)
    return basis, s


class TestVariableSplit:
    """Variable generators leave the pair loop, and every other generator
    loses its terms through them first."""

    def test_a_constant_left_by_the_split_gives_the_unit_ideal(self):
        # z[1,2]^2 meets the whole field of z[1,2], not just its lead bit
        basis, s = split_run([P("z[1,2]"), P("z[1,2]^2 + 1")], LEX)
        assert basis == (P("1"),)
        assert (s["split_variables"], s["pairs"], s["basis_size"]) == (1, 0, 1)

    def test_a_diagonal_lead_through_a_split_variable_changes(self):
        minor = P("z[1,1]*z[2,2] - z[1,2]*z[2,1]")
        order = lex_order([z_(1, 1), z_(1, 2), z_(2, 1), z_(2, 2)])
        assert lead_monomial(minor, order) == monomial([(z_(1, 1), 1), (z_(2, 2), 1)])
        basis, s = split_run([P("z[1,1]"), minor], order)
        assert basis == (P("z[1,2]*z[2,1]"), P("z[1,1]"))
        assert (s["split_variables"], s["pairs"], s["basis_size"]) == (1, 0, 2)

    def test_a_generator_with_only_split_terms_is_dropped(self):
        basis, s = split_run([P("z[1,1]"), P("z[1,1]*z[1,2] + z[1,1]^2")], LEX)
        assert basis == (P("z[1,1]"),)
        assert (s["split_variables"], s["pairs"], s["basis_size"]) == (1, 0, 1)

    def test_a_repeated_variable_is_split_once(self):
        basis, s = split_run([P("z[1,2]"), P("3*z[1,2]"), P("z[1,1]^2 - z[1,2]*z[1,3]")], LEX)
        assert basis == (P("z[1,2]"), P("z[1,1]^2"))
        assert (s["split_variables"], s["pairs"], s["basis_size"]) == (1, 0, 2)

    def test_a_degree_one_binomial_stays_in_the_pair_loop(self):
        basis, s = split_run([P("z[1,1] - z[1,2]"), P("z[1,2]^2")], LEX)
        assert basis == (P("z[1,2]^2"), P("z[1,1] - z[1,2]"))
        assert (s["split_variables"], s["pairs"], s["basis_size"]) == (0, 1, 2)


class TestPackedOverflow:
    """Exponents past the first packed field width restart the computation
    with wider fields instead of wrapping into the next field."""

    def test_lex_basis_outgrows_its_input(self):
        # neither z[1,2]^20000 nor z[1,2]^40000 fits the first fields
        basis = buchberger([P("z[1,1] - z[1,2]^20000"), P("z[1,1]^2")], LEX)
        assert set(basis) == {P("z[1,2]^40000"), P("z[1,1] - z[1,2]^20000")}

    def test_lex_basis_outgrows_the_first_width(self):
        # the input fits the first 8-bit fields, z[1,2]^400 does not
        basis = buchberger([P("z[1,1] - z[1,2]^200"), P("z[1,1]^2")], LEX)
        assert set(basis) == {P("z[1,2]^400"), P("z[1,1] - z[1,2]^200")}

    def test_grevlex_input_outgrows_the_first_width(self):
        basis = buchberger([P("z[1,1]^40000 - z[1,2]"), P("z[1,2]^2")], GREVLEX)
        assert set(basis) == {P("z[1,2]^2"), P("z[1,1]^40000 - z[1,2]")}

    def test_normal_form_outgrows_the_first_width(self):
        meter = _Meter(DEFAULT_BUDGET)
        basis = (P("z[1,1] - z[1,2]^200"),)
        assert normal_form(P("z[1,1]^2"), basis, LEX, meter) == P("z[1,2]^400")
        # two steps by a two-term reducer; the attempt that overflowed on
        # the second step is not charged
        assert meter.work == 4


def width_draws() -> list[tuple[list[Polynomial], Polynomial]]:
    """150 seeded ideals over z[1,1], z[1,2] and z[2,1], exponents up to 300,
    each with one more polynomial to reduce."""
    rng, variables = random.Random(7), (z_(1, 1), z_(1, 2), z_(2, 1))

    def draw() -> Polynomial:
        return Polynomial.from_dict({
            tuple((v, e) for v in variables if (e := rng.choice((0, rng.randint(1, 300))))): rng.choice((1, -1, 2, 3))
            for _ in range(rng.randint(1, 3))
        })

    return [([g for g in (draw() for _ in range(rng.randint(2, 3))) if not g.is_zero], draw()) for _ in range(150)]


class TestFieldWidth:
    """Fields of 8 bits, widened after each overflow, against fields of 64
    bits, which these exponents never overflow: the same answers, budget
    messages and `collect_stats` counters, and the same charges to a
    caller's meter.  All 150 draws take about 50 s; the slice holds a
    draw where a restart that kept the meter's charges shows (69), and one
    where a restart that kept the counters of a finished basis shows (129)."""

    BUDGET = 2_000
    ORDER = canonical_order((2, 2))

    def outcomes(self, gens: list[Polynomial], f: Polynomial) -> list:
        budget, order = self.BUDGET, self.ORDER

        def cached():
            I = Ideal(tuple(gens), (2, 2))
            buchberger(I, order, budget)
            return initial_ideal(I, order)

        def reduced():
            meter = _Meter(budget)
            return normal_form(f, buchberger(gens, order, budget), order, meter), meter.work

        calls = (
            lambda: minimal_generators(Ideal(tuple(gens), (2, 2)), budget),
            lambda: buchberger(gens, order, budget),
            lambda: initial_ideal(Ideal(tuple(gens), (2, 2)), order, budget),
            cached,
            reduced,
        )
        out = []
        for call in calls:
            with collect_stats() as stats:
                try:
                    got = call()
                except GroebnerBudgetError as e:
                    got = str(e)
            out.append((got, stats))
        return out

    def test_width_changes_nothing(self, monkeypatch):
        draws = width_draws()
        draws = draws[67:75] + draws[122:130]
        assert max(g.degree() for gens, _ in draws for g in gens) > 255  # past the first fields
        narrow = [self.outcomes(*d) for d in draws]
        monkeypatch.setattr("asmschub.groebner.MIN_WIDTH", 64)
        assert [self.outcomes(*d) for d in draws] == narrow


class TestNormalForm:
    def test_remainder_uses_no_lead_divisible_terms(self):
        basis = buchberger([P("z[1,1]^2 - z[1,2]"), P("z[1,1]*z[1,2] - z[1,3]")], GREVLEX)
        f = P("z[1,1]^4 + z[1,1]*z[1,2]^2 + z[1,2]")
        r = reduce(f, basis, GREVLEX)
        leads = [lead_monomial(g, GREVLEX) for g in basis]
        for m, _ in r.terms:
            assert not any(mono_divides(lt, m) for lt in leads)
        assert reduce(f - r, basis, GREVLEX).is_zero

    def test_linearity_against_a_groebner_basis(self):
        basis = buchberger(
            [P("z[1,1]^2 - z[1,3]"), P("z[1,2]^2 - 2*z[1,3]")], GREVLEX
        )
        f, g = P("z[1,1]^3*z[1,2] + 1"), P("z[1,2]^3 - z[1,1]")
        nf = lambda h: reduce(h, basis, GREVLEX)
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(nf(f)) == nf(f)

    def test_empty_basis_is_identity(self):
        f = P("z[1,1]^2 - 5")
        assert reduce(f, (), LEX) == f


class TestIdealClass:
    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError, match="nonzero"):
            Ideal((Polynomial.from_dict({}),), (2, 2))

    def test_rejects_variable_outside_grid(self):
        with pytest.raises(ValueError, match="outside the 2x2 ambient grid"):
            Ideal((variable(z_(3, 1)),), (2, 2))

    def test_groebner_basis_is_cached_per_order(self):
        I = Ideal((P("z[1,1]*z[2,2] - z[1,2]*z[2,1]"),), (2, 2))
        order = canonical_order((2, 2))
        b1 = buchberger(I, order)
        assert I.cache[("gb", order)] == b1
        assert buchberger(I, order) is b1

    def test_equality_ignores_cache(self):
        I = Ideal((P("z[1,1]"),), (1, 1))
        J = Ideal((P("z[1,1]"),), (1, 1))
        buchberger(I, canonical_order((1, 1)))
        assert I == J


class TestIdealPredicates:
    def test_equals_differing_generating_sets(self):
        I = Ideal((P("z[1,1]"), P("z[1,2]")), (1, 2))
        J = Ideal((P("z[1,1] + z[1,2]"), P("z[1,1] - z[1,2]")), (1, 2))
        assert ideal_equals(I, J)

    def test_equals_is_not_fooled_by_scaling(self):
        I = Ideal((P("2*z[1,1] - 4*z[1,2]"),), (1, 2))
        J = Ideal((P("z[1,1] - 2*z[1,2]"),), (1, 2))
        assert ideal_equals(I, J)

    def test_not_equal(self):
        I = Ideal((P("z[1,1]"),), (1, 2))
        J = Ideal((P("z[1,2]"),), (1, 2))
        assert not ideal_equals(I, J)

    def test_mismatched_ambient_raises(self):
        I = Ideal((P("z[1,1]"),), (1, 1))
        J = Ideal((P("z[1,1]"),), (2, 2))
        with pytest.raises(ValueError, match="different ambient grids"):
            ideal_equals(I, J)

    def test_contains(self):
        I = Ideal((P("z[1,1]^2 - z[1,2]"),), (1, 2))
        assert ideal_contains(I, P("z[1,1]^4 - z[1,2]^2"))
        assert not ideal_contains(I, P("z[1,1]"))


class TestIntersection:
    def test_principal_times_principal(self):
        I = Ideal((P("z[1,1]"),), (1, 2))
        J = Ideal((P("z[1,2]"),), (1, 2))
        K = intersect_ideals(I, J)
        assert ideal_equals(K, Ideal((P("z[1,1]*z[1,2]"),), (1, 2)))

    def test_self_intersection(self):
        I = Ideal((P("z[1,1]*z[2,2] - z[1,2]*z[2,1]"), P("z[1,1]^2")), (2, 2))
        assert ideal_equals(intersect_ideals(I, I), I)

    def test_nested_ideals(self):
        I = Ideal((P("z[1,1]"), P("z[1,2]")), (1, 2))
        J = Ideal((P("z[1,1] + z[1,2]"),), (1, 2))
        assert ideal_equals(intersect_ideals(I, J), J)

    def test_no_elimination_variable_leaks(self):
        I = Ideal((P("z[1,1]"),), (1, 2))
        J = Ideal((P("z[1,1] - z[1,2]"),), (1, 2))
        K = intersect_ideals(I, J)
        for g in K.generators:
            for v in g.variables():
                assert v[0] == "z"


class TestInitialIdeal:
    def test_depends_on_order(self):
        I = Ideal((P("z[1,1]^2 - z[1,2]"),), (1, 2))
        assert [mono_to_text(g) for g in initial_ideal(I, LEX).generators] == [
            "z[1,1]^2"
        ]
        rev = lex_order([Y, X])
        assert [mono_to_text(g) for g in initial_ideal(I, rev).generators] == [
            "z[1,2]"
        ]

    def test_generators_are_minimalized(self):
        I = Ideal((P("z[1,1]"), P("z[1,1]*z[1,2] - z[1,1]")), (1, 2))
        init = initial_ideal(I, LEX)
        assert [mono_to_text(g) for g in init.generators] == ["z[1,1]"]


class TestBudget:
    def test_budget_exceeded(self):
        gens = [
            P("z[1,1] + z[1,2] + z[1,3]"),
            P("z[1,1]*z[1,2] + z[1,2]*z[1,3] + z[1,1]*z[1,3]"),
            P("z[1,1]*z[1,2]*z[1,3] - 1"),
        ]
        with pytest.raises(GroebnerBudgetError):
            buchberger(gens, LEX, budget=1)

    def test_budget_error_reports_spend(self):
        gens = [
            P("z[1,1] + z[1,2] + z[1,3]"),
            P("z[1,1]*z[1,2] + z[1,2]*z[1,3] + z[1,1]*z[1,3]"),
            P("z[1,1]*z[1,2]*z[1,3] - 1"),
        ]
        with pytest.raises(
            GroebnerBudgetError,
            match=r"^Groebner basis pair budget exceeded: 3 pairs spent"
            r" against a budget of 2, basis size 5$",
        ):
            buchberger(gens, LEX, budget=2)
        # a variable split off before the pairs still counts in the basis
        order = lex_order([X, Y, Z, z_(2, 1)])
        with pytest.raises(GroebnerBudgetError, match=r" against a budget of 2, basis size 6$"):
            buchberger(gens + [P("z[2,1]")], order, budget=2)

    def test_reduction_work_is_budgeted(self):
        # A lex elimination whose coefficients swell to hundreds of
        # thousands of bits within a hundred pairs: the pair count stays
        # far below the budget, so only the reduction work can stop it.
        I = Ideal((P("z[1,1]^2*z[2,1] - 3*z[1,1] - 1"),), (2, 2))
        J = Ideal(
            (P("-2*z[1,1]*z[1,2]^2 + 3*z[1,2]"), P("2*z[1,2]^2*z[2,1]^2 + 2*z[1,1] + 2")),
            (2, 2),
        )
        with pytest.raises(
            GroebnerBudgetError,
            match=r"^Groebner basis reduction budget exceeded: \d+ units spent"
            r" against 2000000 \(50 per unit of a budget of 40000\), \d+ pairs spent$",
        ):
            intersect_ideals(I, J, budget=40_000)

    def test_reduction_work_spares_determinantal_bases(self):
        # every 2x2 minor of a generic 3x3 matrix: a budget of 81 pairs
        # allows 4,050 reduction units, more than this basis needs
        minors = [
            P(f"z[{a},{c}]*z[{b},{d}] - z[{a},{d}]*z[{b},{c}]")
            for a, b in ((1, 2), (1, 3), (2, 3))
            for c, d in ((1, 2), (1, 3), (2, 3))
        ]
        order = antidiagonal_order(3, 3)
        basis = buchberger(minors, order)
        assert buchberger(minors, order, budget=len(minors) ** 2) == basis

    def test_default_budget_is_generous(self):
        assert DEFAULT_BUDGET >= 10_000

    def test_membership_and_minimal_generators_meter_their_reductions(self):
        # neither basis pops a pair or reduces a term; only the reductions
        # made after it can exceed a budget of 0
        spent = r"^Groebner basis reduction budget exceeded: [12] units spent against 0 "
        with pytest.raises(GroebnerBudgetError, match=spent):
            ideal_contains(Ideal((P("z[1,1]"),), (1, 1)), P("z[1,1]^2"), budget=0)
        gens = (P("z[1,1] + z[1,2]"), P("z[1,1]^2 + z[1,1]*z[1,2]"))
        with pytest.raises(GroebnerBudgetError, match=spent):
            minimal_generators(Ideal(gens, (1, 2)), budget=0)
        assert ideal_contains(Ideal((P("z[1,1]"),), (1, 1)), P("z[1,1]^2"), budget=1)
        assert minimal_generators(Ideal(gens, (1, 2)), budget=1) == (P("z[1,1] + z[1,2]"),)


class TestMinimalGenerators:
    def test_drops_multiples(self):
        gens = (P("z[1,1]"), P("z[1,1]*z[1,2]"), P("z[1,1]^2 + z[1,1]"))
        kept = minimal_generators(Ideal(gens, (1, 2)))
        assert kept == (P("z[1,1]"),)

    def test_keeps_independent_generators(self):
        gens = (P("z[1,1] + z[1,2]"), P("z[1,1]"))
        kept = minimal_generators(Ideal(gens, (1, 2)))
        assert len(kept) == 2

    def test_lead_coefficient_two_is_divided_exactly(self):
        # z[1,2] leads with coefficient 2; coeffs stores it as an int, so
        # a plain c / lc would divide int by int into a float
        z11, z12 = monomial([(z_(1, 1), 1)]), monomial([(z_(1, 2), 1)])
        kept = minimal_generators(Ideal((Polynomial.from_dict({z11: 1, z12: 2}),), (1, 2)))
        assert kept == (P("1/2*z[1,1] + z[1,2]"),)
        assert (z11, Fraction(1, 2)) in kept[0].terms
        assert not any(type(c) is float for g in kept for c in g.coeffs.values())


# -- packed monomials --------------------------------------------------------

GRID = [z_(i, j) for i in range(1, 4) for j in range(1, 4)]
grid_monomials = st.builds(
    monomial, st.lists(st.tuples(st.sampled_from(GRID), st.integers(1, 9)), max_size=4)
)


@settings(max_examples=300, deadline=None)
@given(grid_monomials, grid_monomials, st.sampled_from(["lex", "grevlex"]), st.integers(3, 8), st.randoms())
def test_packed_monomials_agree_with_the_tuple_oracles(a, b, kind, width, rng):
    order = TermOrder(kind, tuple(rng.sample(GRID, len(GRID))))
    assume(max(mono_degree(a), mono_degree(b)) < 1 << width)
    ring = _Ring(order, Polynomial.from_dict({a: 1, b: 2}).variables(), width)

    def pack_mono(m):
        (p,) = ring.pack(Polynomial.from_dict({m: 1}))
        return p

    def unpack_mono(p):
        ((m, _),) = ring.unpack([(p, 1)]).terms
        return m

    pa, pb = pack_mono(a), pack_mono(b)
    assert unpack_mono(pa) == a and unpack_mono(pb) == b
    # the key order is the term order
    assert (pa ^ ring.flip < pb ^ ring.flip) == (nested_term_key(order, a) < nested_term_key(order, b))
    assert (pa == pb) == (a == b)
    G = ring.guard
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        divides = ((py | G) - px) & G == G
        assert divides == mono_divides(x, y)
        if divides:
            assert unpack_mono(py - px) == mono_div(y, x)
    # a product overflows exactly when its degree does not fit a field
    fits = mono_degree(a) + mono_degree(b) <= ring.field
    assert ((pa + pb) & G == 0) == fits
    if fits:
        assert unpack_mono(pa + pb) == mono_mul(a, b)
    lcm = mono_lcm(a, b)
    if mono_degree(lcm) <= ring.field:
        assert ring.lcm(pa, pb) == pack_mono(lcm)
    else:
        with pytest.raises(_Overflow):
            ring.lcm(pa, pb)


# -- randomized certification ----------------------------------------------

VARS = [z_(1, 1), z_(1, 2), z_(2, 1), z_(2, 2)]

small_monomials = st.builds(
    monomial,
    st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 2)), max_size=2),
)
small_polys = st.builds(
    Polynomial.from_dict,
    st.dictionaries(small_monomials, st.integers(-3, 3).map(Fraction), min_size=1, max_size=3),
)
orders = st.sampled_from(
    [
        lex_order(VARS),
        TermOrder("grevlex", tuple(VARS)),
        antidiagonal_order(2, 2),
        lex_order(list(reversed(VARS))),
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), orders, st.randoms())
def test_random_bases_are_reduced_groebner(gens, order, rng):
    gens = [g for g in gens if not g.is_zero]
    basis = buchberger(gens, order, budget=20_000)
    if not gens:
        assert basis == ()
        return
    assert_reduced_groebner(gens, basis, order)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    assert buchberger(shuffled, order, budget=20_000) == basis


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, max_size=3), st.sets(st.sampled_from(VARS), min_size=1), orders)
def test_random_variable_splits(gens, split, order):
    # I + <Z> is <Z> plus the gens with their Z-terms deleted
    gens = [g for g in gens if not g.is_zero]
    zs = [variable(v) for v in split]
    deleted = [Polynomial.from_dict({m: c for m, c in g.terms if not any(v in split for v, _ in m)}) for g in gens]
    try:
        basis = buchberger(gens + zs, order, budget=20_000)
        rest = buchberger([h for h in deleted if not h.is_zero], order, budget=20_000)
    except GroebnerBudgetError:
        return
    assert_reduced_groebner(gens + zs, basis, order)
    if rest == (P("1"),):
        assert basis == rest
    else:
        assert basis == tuple(sorted(zs + list(rest), key=lambda g: nested_term_key(order, lead_monomial(g, order))))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), orders)
def test_random_initial_ideals_read_the_minimal_leads(gens, order):
    # inhomogeneous inputs under lex and grevlex: the leads of the packed
    # minimal basis against those of the reduced basis, after the same
    # pair loop.  Tail reduction may outrun a budget the leads keep to.
    gens = tuple(g for g in gens if not g.is_zero)
    assume(gens)
    I = Ideal(gens, (2, 2))
    names = ("pairs", "pairs_coprime", "pairs_chain", "zero_reductions", "basis_size")
    try:
        with collect_stats() as leads:
            got = initial_ideal(I, order, budget=20_000)
        with collect_stats() as reduced:
            want = initial_ideal_by_reduced_basis(I, order, budget=20_000)
    except GroebnerBudgetError:
        return
    assert got == want
    assert [leads[k] for k in names] == [reduced[k] for k in names]


@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=2), st.lists(small_polys, min_size=1, max_size=2))
def test_random_intersections_contain_products(f_gens, g_gens):
    f_gens = [f for f in f_gens if not f.is_zero]
    g_gens = [g for g in g_gens if not g.is_zero]
    if not f_gens or not g_gens:
        return
    I = Ideal(tuple(f_gens), (2, 2))
    J = Ideal(tuple(g_gens), (2, 2))
    try:
        K = intersect_ideals(I, J, budget=40_000)
    except GroebnerBudgetError:
        return
    # products land in the intersection, and members of K lie in both
    for f in f_gens:
        for g in g_gens:
            assert ideal_contains(K, f * g, budget=40_000)
    for h in K.generators:
        assert ideal_contains(I, h, budget=40_000)
        assert ideal_contains(J, h, budget=40_000)
