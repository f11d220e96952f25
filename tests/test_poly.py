import dataclasses
import itertools
import json
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmschub import poly, schubpoly
from asmschub.groebner import GroebnerBudgetError, buchberger
from asmschub.monomial import monomial_ideal_from_text
from asmschub.perm import Permutation
from asmschub.poly import (
    ONE,
    ZERO,
    Polynomial,
    antidiagonal_order,
    constant,
    divided_difference,
    generic_minor,
    isobaric_divided_difference,
    lead_monomial,
    lex_order,
    monomial,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
    term,
    variable,
    x_,
    y_,
    z_,
)
from asmschub.ideal import _minor_indices, asm_essential_boxes, fulton_generators
from asmschub.monomial import monomial_ideal
from oracles import (
    dense_display_sort,
    family_rank_key,
    map_variables,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    nested_term_key,
    pair_difference,
    pair_display_sort,
    pair_product,
    plain_map,
    sorted_product,
    substitute,
    swap_variables,
)


def perm_sum_det(rows, cols):
    # independent determinant oracle
    out = ZERO
    for sigma in itertools.permutations(range(len(cols))):
        inversions = sum(
            1
            for a in range(len(sigma))
            for b in range(a + 1, len(sigma))
            if sigma[a] > sigma[b]
        )
        prod = constant((-1) ** inversions)
        for i, k in enumerate(sigma):
            prod = prod * variable(z_(rows[i], cols[k]))
        out = out + prod
    return out


# x[5], y and z sort after every x[i], x[i+1] pair that a divided
# difference splits at; denominators 2 and 3 keep Fraction sums running
# beside the integer ones
VARIABLES = [x_(1), x_(2), x_(3), x_(4), x_(5), y_(1), y_(2), z_(1, 1)]
monomials = st.builds(
    monomial,
    st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 3)), max_size=3),
)
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
polys = st.builds(
    Polynomial.from_dict,
    st.dictionaries(monomials, coefficients, max_size=4),
)


class TestArithmetic:
    def test_square_of_sum(self):
        f = variable(x_(1)) + variable(x_(2))
        assert poly_to_text(f * f) == "x[1]^2 + 2*x[1]*x[2] + x[2]^2"

    def test_zero_and_one(self):
        f = term(3, [(x_(1), 2)])
        assert f + ZERO == f
        assert f * ONE == f
        assert f - f == ZERO
        assert (f * ZERO).is_zero

    def test_int_coercion(self):
        f = variable(x_(1))
        assert 2 * f + 1 == f + f + ONE

    def test_fraction_coefficients(self):
        f = term(Fraction(1, 2), [(x_(1), 1)])
        assert (f + f) == variable(x_(1))

    def test_pow(self):
        f = variable(x_(1)) - 1
        assert f**0 == ONE
        assert f**2 == f * f
        with pytest.raises(ValueError):
            f ** (-1)

    def test_degree(self):
        assert ZERO.degree() == -1
        assert ONE.degree() == 0
        assert term(1, [(x_(1), 2), (y_(3), 1)]).degree() == 3

    @settings(max_examples=50)
    @given(polys, polys, polys)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60)
    @given(polys, polys)
    def test_product_against_sort_and_merge(self, f, g):
        assert f * g == sorted_product(f, g)

    @settings(max_examples=40)
    @given(polys, polys, st.integers(1, 4))
    def test_stored_coefficients_are_fractions(self, f, g, i):
        # an int in terms would turn the c / lc of a caller such as
        # groebner.minimal_generators into a float
        for h in (f * g, divided_difference(f, i), isobaric_divided_difference(f, i)):
            assert all(type(c) is Fraction for _, c in h.terms)


class TestOrdersAndLead:
    def test_lead_constant(self):
        order = lex_order([x_(1)])
        f = constant(5)
        assert lead_monomial(f, order) == ()
        assert f.coefficient(()) == 5

    def test_lead_lex(self):
        order = lex_order([x_(1), x_(2)])
        f = variable(x_(1)) + variable(x_(2))
        lead = lead_monomial(f, order)
        assert lead == monomial([(x_(1), 1)])
        assert f.coefficient(lead) == 1

    def test_z_grid_is_one_kept_tuple_per_shape(self):
        assert poly.z_grid.cache_info().maxsize == poly.Z_GRID_CACHE
        assert poly.z_grid(2, 3) is poly.z_grid(2, 3) != poly.z_grid(3, 2)
        assert poly.z_grid(2, 3) == tuple(sorted(z_(i, j) for i in (1, 2) for j in (1, 2, 3)))

    def test_lead_of_minor_antidiagonal(self):
        f = generic_minor([1, 2], [1, 2])
        lead = lead_monomial(f, antidiagonal_order(2, 2))
        assert lead == monomial([(z_(1, 2), 1), (z_(2, 1), 1)])
        assert f.coefficient(lead) == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            lead_monomial(ZERO, lex_order([x_(1)]))

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            lead_monomial(variable(y_(1)), lex_order([x_(1)]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown order"):
            poly.TermOrder("weight", (x_(1),))

    def test_antidiagonal_property_exhaustive(self):
        # every minor of sizes 1..4 in a 5x5 generic matrix leads with
        # the product along its antidiagonal
        order = antidiagonal_order(5, 5)
        for k in range(1, 5):
            for rows in itertools.combinations(range(1, 6), k):
                for cols in itertools.combinations(range(1, 6), k):
                    f = generic_minor(rows, cols)
                    anti = monomial(
                        (z_(rows[i], cols[k - 1 - i]), 1) for i in range(k)
                    )
                    assert poly.lead_monomial(f, order) == anti

    @pytest.mark.parametrize("kind", ["lex", "grevlex"])
    def test_lead_of_wide_exponents(self, kind):
        # exponents and degrees past 255 need fields wider than a byte
        x1, x2, y1 = variable(x_(1)), variable(x_(2)), variable(y_(1))
        wide = [x1 ** 300 + x1 ** 299 * x2, (x1 ** 130 + x2 ** 2 * y1) * (x1 * x2 ** 127 + y1 ** 130)]
        assert wide[1].degree() == 260
        for priority in ([x_(1), x_(2), y_(1)], [y_(1), x_(2), x_(1)]):
            order = poly.TermOrder(kind, tuple(priority))
            for f in wide:
                assert lead_monomial(f, order) == max(f.coeffs, key=lambda m: nested_term_key(order, m))
        assert lead_monomial(wide[0], lex_order([x_(2), x_(1)])) == ((x_(1), 299), (x_(2), 1))

    def test_grevlex_vs_lex_disagree(self):
        # x1^2 beats x1*x2*x3 in lex but loses on degree in grevlex
        order_l = lex_order([x_(1), x_(2), x_(3)])
        order_g = poly.TermOrder("grevlex", (x_(1), x_(2), x_(3)))
        f = term(1, [(x_(1), 2)]) + term(1, [(x_(1), 1), (x_(2), 1), (x_(3), 1)])
        assert poly.lead_monomial(f, order_l) == monomial([(x_(1), 2)])
        assert poly.lead_monomial(f, order_g) == monomial(
            [(x_(1), 1), (x_(2), 1), (x_(3), 1)]
        )


class TestMinors:
    def test_single_entry(self):
        assert generic_minor([1], [1]) == variable(z_(1, 1))

    def test_two_by_two_display(self):
        # antidiagonal term first, as the canonical order ranks it higher
        assert poly_to_text(generic_minor([1, 2], [1, 2])) == "-z[1,2]*z[2,1] + z[1,1]*z[2,2]"

    def test_against_permutation_sum(self):
        for k in (1, 2, 3, 4):
            rows = tuple(range(1, k + 1))
            cols = tuple(range(2, k + 2))
            assert generic_minor(rows, cols) == perm_sum_det(rows, cols)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_minors_of_one_size_share_one_map(self, k):
        # the packed Leibniz map is built once per size and shared; no
        # arithmetic, pickling or decoding of one minor may touch another's
        f = generic_minor(range(1, k + 1), range(1, k + 1))
        g = generic_minor(range(2, k + 2), range(3, k + 3))
        assert f._packed is g._packed and poly._leibniz.cache_info().maxsize == poly.LEIBNIZ_CACHE
        before = dict(g._packed), hash(g), g.terms
        for h in (f, g):
            assert pickle.loads(pickle.dumps(h)) == h == -(-h) == (h + h) - h == (h + 1) - 1
            assert h * h == h ** 2 and 3 * h - h * 2 == h == h * Fraction(1, 2) + h * Fraction(1, 2)
            assert dict(h.coeffs) == dict(h.terms) and (f + g) - g == f and (f * g).degree() == 2 * k
            assert lead_monomial(h, lex_order(sorted(h.variables()))) in h.coeffs
        fresh = generic_minor(range(2, k + 2), range(3, k + 3))
        assert (dict(g._packed), hash(g), g.terms) == before == (dict(fresh._packed), hash(fresh), fresh.terms)
        assert fresh == perm_sum_det(tuple(range(2, k + 2)), tuple(range(3, k + 3)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="equal size"):
            generic_minor([1, 2], [1])
        with pytest.raises(ValueError, match="distinct"):
            generic_minor([1, 1], [1, 2])


class TestDividedDifference:
    def test_simple_values(self):
        x1, x2 = variable(x_(1)), variable(x_(2))
        assert divided_difference(x1, 1) == ONE
        assert divided_difference(x1 * x2, 1) == ZERO
        assert divided_difference(x1**2, 1) == x1 + x2

    def test_constant_killed(self):
        assert divided_difference(constant(7), 2) == ZERO

    def test_bad_index(self):
        with pytest.raises(ValueError, match="positive"):
            divided_difference(ONE, 0)

    @settings(max_examples=40)
    @given(polys, st.integers(1, 3))
    def test_definition(self, f, i):
        # partial_i(f) * (x_i - x_{i+1}) == f - swap_i(f)
        lhs = divided_difference(f, i) * (variable(x_(i)) - variable(x_(i + 1)))
        assert lhs == f - swap_variables(f, i)

    @settings(max_examples=40)
    @given(polys, st.integers(1, 3))
    def test_square_zero(self, f, i):
        assert divided_difference(divided_difference(f, i), i) == ZERO

    @settings(max_examples=25)
    @given(polys, st.integers(1, 2))
    def test_braid(self, f, i):
        a = divided_difference(
            divided_difference(divided_difference(f, i), i + 1), i
        )
        b = divided_difference(
            divided_difference(divided_difference(f, i + 1), i), i + 1
        )
        assert a == b


class TestIsobaric:
    def test_fixes_one(self):
        assert isobaric_divided_difference(ONE, 1) == ONE

    def test_single_variable(self):
        # the operator returns 1 here, which is what makes the
        # Grothendieck recursion terminate at the identity
        assert isobaric_divided_difference(variable(x_(1)), 1) == ONE

    def test_square(self):
        x1, x2 = variable(x_(1)), variable(x_(2))
        assert isobaric_divided_difference(x1**2, 1) == x1 + x2 - x1 * x2

    @settings(max_examples=40)
    @given(polys, st.integers(1, 4))
    def test_against_its_definition(self, f, i):
        g = f - variable(x_(i + 1)) * f
        assert isobaric_divided_difference(f, i) == divided_difference(g, i)

    @settings(max_examples=20)
    @given(polys, st.integers(1, 3))
    def test_idempotent(self, f, i):
        once = isobaric_divided_difference(f, i)
        assert isobaric_divided_difference(once, i) == once


class TestTextAndJson:
    def test_render_grothendieck_shape(self):
        x1, x2, x3 = (variable(x_(i)) for i in (1, 2, 3))
        g = (
            x1**2 * x2 * x3
            - x1**2 * x2
            - x1**2 * x3
            - x1 * x2 * x3
            + x1**2
            + x1 * x2
            + x1 * x3
        )
        assert poly_to_text(g) == (
            "x[1]^2*x[2]*x[3] - x[1]^2*x[2] - x[1]^2*x[3] - x[1]*x[2]*x[3]"
            " + x[1]^2 + x[1]*x[2] + x[1]*x[3]"
        )

    def test_families_sorted(self):
        f = term(1, [(z_(1, 2), 1), (x_(2), 1), (y_(1), 1)])
        assert poly_to_text(f) == "x[2]*y[1]*z[1,2]"

    def test_zero_render(self):
        assert poly_to_text(ZERO) == "0"
        assert poly_from_text("0") == ZERO

    def test_negative_leading(self):
        f = -variable(x_(1)) + 1
        assert poly_to_text(f) == "-x[1] + 1"
        assert poly_from_text(poly_to_text(f)) == f

    def test_coefficient_render(self):
        f = term(Fraction(3, 2), [(x_(1), 1)]) - constant(2)
        assert poly_to_text(f) == "3/2*x[1] - 2"
        assert poly_from_text(poly_to_text(f)) == f

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            poly_from_text("")
        with pytest.raises(ValueError, match="factor"):
            poly_from_text("x[1] + q[2]")
        with pytest.raises(ValueError, match="bad variable|factor"):
            poly_from_text("z[1]")

    def test_elimination_variable_roundtrip(self):
        # intersect_ideals multiplies generators by t = ("t", 0) and by 1 - t
        f = (ONE - variable(("t", 0))) * generic_minor((1, 2), (1, 2))
        assert poly_to_text(f) == "t[0]*z[1,2]*z[2,1] - t[0]*z[1,1]*z[2,2] - z[1,2]*z[2,1] + z[1,1]*z[2,2]"
        assert poly_from_text(poly_to_text(f)) == f
        with pytest.raises(ValueError, match="bad variable"):
            poly_from_text("t[0,1]")

    # a dangling or doubled sign used to be dropped, and 1/0 raised ZeroDivisionError
    @pytest.mark.parametrize("text", ["x[1]-", "--x[1]", "x[1]++x[2]", "1/0", "x[1]*1/00"])
    def test_malformed_text_names_the_text(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            poly_from_text(text)
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            monomial_ideal_from_text(f"monomialIdeal ({text})")

    @settings(max_examples=40)
    @given(polys)
    def test_text_roundtrip(self, f):
        assert poly_from_text(poly_to_text(f)) == f

    @settings(max_examples=40)
    @given(polys)
    def test_json_roundtrip(self, f):
        assert poly_from_json(poly_to_json(f)) == f

    def test_json_shape(self):
        f = term(Fraction(-1, 3), [(z_(2, 1), 2)])
        assert json.dumps(poly_to_json(f)) == '[{"coefficient": "-1/3", "exponents": [["z", 2, 1, 2]]}]'


class TestSubstitution:
    def test_map_variables(self):
        f = variable(x_(1)) * variable(x_(2))
        g = map_variables(f, {x_(1): y_(1)})
        assert g == variable(y_(1)) * variable(x_(2))

    def test_merge_on_collision(self):
        f = variable(x_(1)) + variable(x_(2))
        g = map_variables(f, {x_(2): x_(1)})
        assert g == 2 * variable(x_(1))

    def test_substitute(self):
        f = variable(x_(1)) ** 2 + 1
        g = substitute(f, {x_(1): variable(y_(1)) + 1})
        y1 = variable(y_(1))
        assert g == y1**2 + 2 * y1 + 2


class TestMonomialHelpers:
    def test_lcm_div(self):
        a = monomial([(x_(1), 2), (x_(2), 1)])
        b = monomial([(x_(2), 3), (x_(3), 1)])
        l = mono_lcm(a, b)
        assert l == monomial([(x_(1), 2), (x_(2), 3), (x_(3), 1)])
        assert mono_divides(a, l) and mono_divides(b, l)
        assert mono_mul(mono_div(l, a), a) == l

    def test_inexact_division_rejected(self):
        a = monomial([(x_(1), 1)])
        b = monomial([(x_(2), 1)])
        with pytest.raises(ValueError, match="inexact"):
            mono_div(a, b)


class TestCanonicalOrder:
    """Tuple order on variables reproduces the family-rank order."""

    VARS = [x_(i) for i in range(1, 5)] + [y_(i) for i in range(1, 5)] + [
        z_(i, j) for i in range(1, 4) for j in range(1, 4)
    ]

    def random_dict(self, rng):
        d = {}
        for _ in range(rng.randint(1, 8)):
            pairs = [(rng.choice(self.VARS), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
            d[monomial(pairs)] = rng.randint(-3, 3)
        return d

    def test_seeded_random_polynomials(self):
        rng = random.Random(20231)
        priority = list(self.VARS)
        for _ in range(400):
            d = self.random_dict(rng)
            f = Polynomial.from_dict(d)
            nonzero = [(m, Fraction(c)) for m, c in d.items() if c]
            assert f.terms == dense_display_sort(nonzero)
            for m, _ in f.terms:
                assert [v for v, _ in m] == sorted((v for v, _ in m), key=family_rank_key)
            assert sorted(f.variables()) == sorted(f.variables(), key=family_rank_key)
            gens = monomial_ideal(d).generators
            assert list(gens) == sorted(
                gens, key=lambda m: tuple((family_rank_key(v), e) for v, e in m)
            )
            rng.shuffle(priority)
            for order in (lex_order(priority), poly.TermOrder("grevlex", tuple(priority))):
                # the ring key, the library's one comparison of monomials
                ring = poly._Ring(order, f.variables(), max(f.degree(), 1).bit_length())
                ranked = sorted(ring.pack(f), key=lambda m: m ^ ring.flip)
                assert [ring.unpack([(m, 1)]).terms[0][0] for m in ranked] == sorted(
                    (m for m, _ in f.terms), key=lambda m: nested_term_key(order, m)
                )


def assert_canonical(h):
    """Nonzero coeffs, ints where whole, and terms in display order."""
    assert all(c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
               for c in h.coeffs.values())
    assert h.terms == dense_display_sort((m, Fraction(c)) for m, c in h.coeffs.items())


class TestCoefficientMap:
    """coeffs is the stored map; terms is its display order, read once."""

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, st.integers(1, 4), st.integers(1, 3))
    def test_every_kernel_reads_in_display_order(self, f, g, i, k):
        kernels = [f * g, f + g, f - g, -f, divided_difference(f, i),
                   isobaric_divided_difference(f, i), generic_minor(range(1, k + 1), range(2, k + 2))]
        kernels.append(Polynomial.from_dict({m: Fraction(c) for m, c in f.coeffs.items()}))
        try:
            kernels += buchberger([f, g], poly.TermOrder("grevlex", tuple(VARIABLES)), budget=50)
        except GroebnerBudgetError:
            pass
        for h in kernels:
            assert_canonical(h)

    @settings(max_examples=60)
    @given(polys, st.randoms())
    def test_shuffled_and_whole_fractions_compare_equal(self, f, rng):
        items = [(m, Fraction(c)) for m, c in f.coeffs.items()]
        rng.shuffle(items)
        g = Polynomial.from_dict(dict(items))
        assert g == f and hash(g) == hash(f)
        assert g.coeffs == f.coeffs
        assert_canonical(g)

    def test_int_and_fraction_coefficients_hash_alike(self):
        m, n = monomial([(x_(1), 2)]), monomial([(y_(1), 1)])
        f = Polynomial.from_dict({m: 3, n: Fraction(1, 2)})
        g = Polynomial.from_dict({n: Fraction(1, 2), m: Fraction(6, 2)})
        assert f == g and hash(f) == hash(g)
        assert type(g.coeffs[m]) is int
        assert f.terms == g.terms == ((m, Fraction(3)), (n, Fraction(1, 2)))

    def test_immutable(self):
        f = variable(x_(1)) + 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.coeffs = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.terms = ()
        with pytest.raises(TypeError):
            f.coeffs[()] = 5
        assert f == variable(x_(1)) + 2
        assert pickle.loads(pickle.dumps(f)) == f

    def test_rejects_inexact_coefficients(self):
        with pytest.raises(TypeError, match="0.5"):
            Polynomial.from_dict({(): 0.5})
        # and negative exponents, as monomial() does
        for d in ({((x_(1), -1), (x_(2), 1)): 1}, {((x_(1), 1),): 1, ((x_(1), -1),): 1}):
            with pytest.raises(ValueError, match=re.escape("negative exponent -1 on x[1]")):
                Polynomial.from_dict(d)

    def test_double_schubert_sorts_once(self, monkeypatch):
        # the staircase's 20 products (15 into its rows, 5 of rows), its 15
        # x_i - y_j and 11 divided differences would each sort their result
        # if terms were stored
        calls = []

        def counting(h):
            calls.append(h)
            return decoder(h)

        decoder = poly._decoder
        monkeypatch.setattr(poly, "_decoder", counting)
        schubpoly._descend.cache_clear()
        f = schubpoly.double_schubert_polynomial(Permutation((1, 4, 3, 2, 6, 5)))
        poly_to_text(f)
        assert calls == [f]


# every family, the auxiliary ("t", 0) of intersect_ideals among them, and
# exponents up to 9, so layouts of several alphabets and widths meet; with
# x[6], a divided difference opens x[5] or x[6] on top and sorts it below y
MIXED = VARIABLES + [x_(6), ("t", 0), y_(4), z_(2, 3), z_(3, 1)]
mixed_polys = st.builds(
    Polynomial.from_dict,
    st.dictionaries(
        st.builds(monomial, st.lists(st.tuples(st.sampled_from(MIXED), st.integers(1, 9)), max_size=4)),
        coefficients,
        max_size=6,
    ),
)


def typed(coeffs):
    return {m: (type(c), c) for m, c in coeffs.items()}


def assert_matches(h, want):
    """h's coefficient map, with its coefficient types, and its display
    order are the pair-tuple kernels'."""
    assert typed(h.coeffs) == typed(want)
    assert h.terms == pair_display_sort(want)


class TestPackedAgainstPairKernels:
    """The packed-int kernels against the pair-tuple kernels they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_polys, st.integers(1, 5))
    def test_divided_differences(self, f, i):
        coeffs = dict(f.coeffs)
        assert_matches(divided_difference(f, i), pair_difference(coeffs, i, ((0, 1),)))
        assert_matches(isobaric_divided_difference(f, i), pair_difference(coeffs, i, ((0, 1), (1, -1))))

    @settings(max_examples=80, deadline=None)
    @given(mixed_polys, mixed_polys)
    def test_ring_operations(self, f, g):
        a, b = dict(f.coeffs), dict(g.coeffs)
        total = dict(a)
        for m, c in b.items():
            total[m] = total.get(m, 0) + c
        difference = dict(a)
        for m, c in b.items():
            difference[m] = difference.get(m, 0) - c
        assert_matches(f * g, pair_product(a, b))
        assert_matches(f + g, plain_map(total))
        assert_matches(f - g, plain_map(difference))

    @settings(max_examples=80, deadline=None)
    @given(mixed_polys, st.sampled_from(["lex", "grevlex"]), st.randoms())
    def test_lead_monomial(self, f, kind, rng):
        if f.is_zero:
            return
        order = poly.TermOrder(kind, tuple(rng.sample(MIXED, len(MIXED))))
        assert lead_monomial(f, order) == max(f.coeffs, key=lambda m: nested_term_key(order, m))

    def test_descent_from_the_staircase(self):
        # whole double Schubert and Grothendieck chains of S_5, every step
        # checked; some steps open x_{i+1} and keep it, some drop x_i
        opened = vanished = 0
        for f, op, shifts in ((schubpoly._double_staircase(5), divided_difference, ((0, 1),)),
                              (schubpoly._staircase(5), isobaric_divided_difference, ((0, 1), (1, -1)))):
            for i in (4, 3, 2, 1, 4, 3, 2, 4, 3, 4):
                want = pair_difference(dict(f.coeffs), i, shifts)
                g = op(f, i)
                assert_matches(g, want)
                opened += x_(i + 1) not in f.variables() and x_(i + 1) in g.variables()
                vanished += x_(i) in f.variables() and x_(i) not in g.variables()
                f = g
            assert f == ONE
        assert opened and vanished


def assert_canonical(h):
    """h is packed over the sorted variables it uses, with fields as wide
    as the bit length of its degree, read off its decoded terms."""
    degree = max((sum(e for _, e in m) for m in h.coeffs), default=0)
    alphabet = tuple(sorted({v for m in h.coeffs for v, _ in m}))
    assert (h._alphabet, h._width) == (alphabet, degree.bit_length())
    pos = {v: k * h._width for k, v in enumerate(alphabet)}
    assert h._packed == {sum(e << pos[v] for v, e in m): c for m, c in h.coeffs.items()}


class TestLayout:
    """Equal polynomials are equal and hash alike whatever built them."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_polys, mixed_polys, st.integers(1, 5), coefficients)
    def test_every_kernel_keeps_the_layout_canonical(self, f, g, i, c):
        # g * swap(g) is symmetric in x_i and x_{i+1}, so a divided
        # difference cancels its terms, which may hold the top degree;
        # adding g * g and taking it away again cancels the top degree too
        s = g * swap_variables(g, i)
        outputs = [
            Polynomial.from_dict(dict(f.coeffs)),
            f + g, f * g, constant(c) * constant(c), constant(c) + constant(c),
            (f + g * g) - g * g, (f - constant(c)) + constant(c),
        ]
        for h in (f, f + s):
            outputs += [divided_difference(h, i), isobaric_divided_difference(h, i)]
        for h in outputs:
            assert_canonical(h)
        assert (f + s) - s == f
        assert divided_difference(f + s, i) == divided_difference(f, i)

    def test_a_difference_narrows_past_a_power_of_two(self):
        # x1^8 packs 4-bit fields; its divided difference, of degree 7,
        # needs 3, and no accumulated int has the 4th bit of its degree set
        x1, x2 = variable(x_(1)), variable(x_(2))
        assert (x1**8)._width == 4
        h = divided_difference(x1**8, 1)
        assert_canonical(h)
        assert (h._width, h.degree(), len(h._packed)) == (3, 7, 8)
        assert_matches(h, pair_difference(dict((x1**8).coeffs), 1, ((0, 1),)))
        # pi_1(1) = 1 is collected from a 1-bit layout, and narrows to width 0
        assert isobaric_divided_difference(ONE, 1)._width == 0 and isobaric_divided_difference(ONE, 1) == ONE

    def test_a_cancelling_difference_keeps_no_spare_table(self):
        # pi_3 of G_12543 cancels terms and keeps the layout, so its map is
        # built afresh rather than left with the table the cancelled terms sized
        g = schubpoly.grothendieck_polynomial(Permutation((1, 2, 5, 4, 3)))
        h = isobaric_divided_difference(g, 3)
        assert h == schubpoly.grothendieck_polynomial(Permutation((1, 2, 4, 5, 3)))
        assert (len(h._packed), h._alphabet, h._width) == (11, g._alphabet, g._width)
        assert sys.getsizeof(h._packed) == sys.getsizeof(dict(h._packed))

    def test_an_inhomogeneous_isobaric_output(self):
        # pi_1(x1^4) = partial_1(x1^4) - partial_1(x1^4 x2): the degree-3
        # terms are accumulated first, and only the degree-4 terms set bit 2
        x1, x2 = variable(x_(1)), variable(x_(2))
        h = isobaric_divided_difference(x1**4, 1)
        assert_canonical(h)
        assert (h._width, h.degree(), len(h._packed)) == (3, 4, 7)
        assert h == divided_difference(x1**4, 1) - x1 * x2 * divided_difference(x1**3, 1)
        assert_matches(h, pair_difference(dict((x1**4).coeffs), 1, ((0, 1), (1, -1))))

    @settings(max_examples=60, deadline=None)
    @given(mixed_polys, st.integers(1, 5))
    def test_routes_agree(self, f, i):
        x = variable(x_(i))
        for h in (f, divided_difference(f, i), isobaric_divided_difference(f, i)):
            routes = [
                poly_from_text(poly_to_text(h)),
                poly_from_json(poly_to_json(h)),
                h * ONE,
                ONE * h,
                (h + x) - x,
                -(-h),
                h + ZERO,
                Polynomial.from_dict(dict(h.coeffs)),
                pickle.loads(pickle.dumps(h)),
            ]
            for g in routes:
                assert g == h and hash(g) == hash(h)
                assert g.terms == h.terms

    def test_cancellation_narrows_the_layout(self):
        x1, x2 = variable(x_(1)), variable(x_(2))
        h = divided_difference(x1**2 * x2**6, 1) + divided_difference(x1**6 * x2**2, 1)
        assert h == ZERO and hash(h) == hash(ZERO)
        # x2 drops out, and the degree falls from 7 to 1
        k = (x1**6 * x2 + x1) - x1**6 * x2
        assert k == x1 and hash(k) == hash(x1) and k.variables() == {x_(1)}

    def test_dedupe_in_fulton_generators(self):
        # the essential boxes of 4321 share minors: 10 listed, 6 distinct,
        # and dict.fromkeys keeps one of each by equality and hash
        w = Permutation((4, 3, 2, 1))
        listed = [generic_minor(r, c) for box in asm_essential_boxes(w) for r, c in _minor_indices(box)]
        gens = fulton_generators(w)
        assert (len(listed), len(gens)) == (10, 6)
        assert list(dict.fromkeys(listed)) == list(gens)
        rebuilt = [poly_from_text(poly_to_text(g)) for g in reversed(listed)]
        assert set(rebuilt) == set(gens) and len(dict.fromkeys(rebuilt + listed)) == 6

    def test_exponents_past_the_first_width(self):
        x1, x2, y1 = variable(x_(1)), variable(x_(2)), variable(y_(1))
        f = x1**300 * x2
        assert poly_to_text(f) == "x[1]^300*x[2]"
        assert f.degree() == 301 and f.coefficient(monomial([(x_(1), 300), (x_(2), 1)])) == 1
        assert f == poly_from_text("x[1]^300*x[2]") and hash(f) == hash(poly_from_text("x[1]^300*x[2]"))
        # x1 * x2 is symmetric, so it passes through the divided difference
        assert divided_difference(f, 1) == x1 * x2 * divided_difference(x1**299, 1)
        assert_matches(divided_difference(f, 1), pair_difference(dict(f.coeffs), 1, ((0, 1),)))
        # x[2]^7 fills its 3-bit field below y[1], and the isobaric shift
        # lifts it to 8; without x[1], x[1] opens on top of y[1]
        for h in (poly_from_text("x[2]^7 + x[1]*y[1]"), poly_from_text("x[2]^7 - y[1]")):
            assert h._width == 3
            assert_matches(isobaric_divided_difference(h, 1), pair_difference(dict(h.coeffs), 1, ((0, 1), (1, -1))))
        g = (x1 + y1) ** 40
        assert len(g.terms) == 41 and g.degree() == 40
        assert g.coefficient(monomial([(x_(1), 20), (y_(1), 20)])) == 137846528820
        assert g == sorted_product((x1 + y1) ** 20, (x1 + y1) ** 20)
        assert g.terms == pair_display_sort(g.coeffs)
        assert_matches(divided_difference(g, 1), pair_difference(dict(g.coeffs), 1, ((0, 1),)))

    def test_mixed_families(self):
        t, z = ("t", 0), z_(2, 3)
        f = Polynomial.from_dict({((t, 1),): 1, ((x_(2), 1), (z, 2)): -3, (): Fraction(1, 2)})
        assert f.variables() == {t, x_(2), z}
        assert poly_to_text(f * f) == poly_to_text(sorted_product(f, f))
        assert [m for m, _ in f.terms] == [((x_(2), 1), (z, 2)), ((t, 1),), ()]
        assert lead_monomial(f, lex_order([t, x_(2), z])) == ((t, 1),)
        assert f.coefficient(((t, 1),)) == 1 and f.coefficient(((t, 2),)) == 0
        assert f.coefficient(((y_(1), 1),)) == 0
        # dropping t leaves the z and x terms in a smaller alphabet
        assert f - variable(t) == Polynomial.from_dict({((x_(2), 1), (z, 2)): -3, (): Fraction(1, 2)})

    def test_pickle_keeps_the_layout(self):
        f = poly_from_text("x[1]^5*y[2] - 1/3*z[1,2] + 7")
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and g.terms == f.terms
        assert g.coeffs == f.coeffs and g.degree() == 6
        assert pickle.loads(pickle.dumps(ZERO)) == ZERO

    def test_views_are_read_only(self):
        f = poly_from_text("x[1]^2 - y[1]")
        with pytest.raises(TypeError):
            f.coeffs[()] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.coeffs = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.terms = ()
        assert isinstance(f.terms, tuple)
        # the views are decoded once and kept
        assert f.coeffs is f.coeffs and f.terms is f.terms
