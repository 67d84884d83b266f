"""Parsing and printing of bivariate polynomials."""

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgerm import (
    BivarPoly,
    EmptyInputError,
    NegativeExponentError,
    ParseError,
    X,
    Y,
    format_poly,
    gq,
    parse_poly,
)
from qhgerm.polyio import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_PRODUCT_WORK,
    MODE_EXACT,
    MODE_NUMERIC,
    _power,
    power_table,
)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=10)
scalars = st.builds(gq, fractions, fractions)
exponents = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
polys = st.dictionaries(exponents, scalars, min_size=0, max_size=5).map(
    BivarPoly.from_terms
)


class TestParsing:
    def test_difference_of_powers(self):
        poly = parse_poly("Y^2 - X^3")
        assert poly.terms == {(0, 2): gq(1), (3, 0): gq(-1)}

    def test_product_expansion(self):
        poly = parse_poly("(Y^2-X^3)*(Y^2-2*X^3)")
        assert poly == parse_poly("Y^4 - 3*X^3*Y^2 + 2*X^6")

    def test_power_of_parenthesized(self):
        assert parse_poly("(Y-X^2)^3") == parse_poly(
            "Y^3 - 3*X^2*Y^2 + 3*X^4*Y - X^6"
        )

    def test_fractional_coefficient(self):
        poly = parse_poly("3/4*X*Y")
        assert poly.coeff(1, 1) == gq(Fraction(3, 4))

    def test_imaginary_unit(self):
        assert parse_poly("i*X*Y").coeff(1, 1) == gq(0, 1)
        assert parse_poly("3*i*X").coeff(1, 0) == gq(0, 3)
        assert parse_poly("2i*Y").coeff(0, 1) == gq(0, 2)

    def test_digit_symbol_juxtaposition(self):
        assert parse_poly("2X") == parse_poly("2*X")

    def test_unary_signs(self):
        assert parse_poly("-X^2 + Y") == parse_poly("Y - X^2")
        assert parse_poly("+Y") == parse_poly("Y")

    def test_repeated_difference(self):
        poly = parse_poly("X - Y - X")
        assert poly == parse_poly("-Y")

    def test_whitespace_insensitive(self):
        assert parse_poly("  Y ^ 2-X ^ 3 ") == parse_poly("Y^2 - X^3")


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_poly("   ")

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError):
            parse_poly("X^-2")

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            parse_poly("X +")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_poly("(Y - X")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_poly("Y^2 - Z")

    def test_adjacent_symbols_rejected(self):
        for bad in ("X Y", "X^2Y", "(Y-X)(Y+X)", "2(X+Y)"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0*X")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("X @ Y")
        assert err.value.position == 2

    @pytest.mark.parametrize("value", [None, 5, [0], ["Y^2", "-X^3"], b"Y^2-X^3"])
    def test_non_string_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="polynomial text must be a string, got "):
            parse_poly(value)

    def test_double_caret(self):
        with pytest.raises(ParseError):
            parse_poly("X^^2")

    def test_degree_up_to_the_limit_parses(self):
        assert parse_poly(f"X^{MAX_DEGREE}") == BivarPoly.monomial(MAX_DEGREE, 0)
        assert parse_poly("X^500*Y^500") == BivarPoly.monomial(500, 500)
        assert parse_poly(f"(X^10+Y)^{MAX_DEGREE // 10}").terms[(MAX_DEGREE, 0)] == gq(1)
        assert parse_poly(f"(2)^{MAX_DEGREE}") == BivarPoly.constant(2**MAX_DEGREE)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            (f"Y^{MAX_DEGREE + 1}", f"exponent {MAX_DEGREE + 1}", 2),
            (f"Y - (2)^{MAX_DEGREE + 1}", f"exponent {MAX_DEGREE + 1}", 8),
            (f"Y - i^{MAX_DEGREE + 1}", f"exponent {MAX_DEGREE + 1}", 6),
            ("Y^2 - X^600*Y^401", f"degree {MAX_DEGREE + 1}", 6),
            ("Y + 3X^501*Y^500", f"degree {MAX_DEGREE + 1}", 4),
            ("Y^2 - (X^10+Y)^101", "degree 1010", 6),
            ("(X+Y)^2 * X^999", f"degree {MAX_DEGREE + 1}", 0),
        ],
    )
    def test_degree_over_the_limit_is_a_parse_error(self, text, message, position):
        with pytest.raises(ParseError, match=f"{message} exceeds the limit") as err:
            parse_poly(text)
        assert err.value.position == position

    def test_coefficients_up_to_the_limit_parse(self):
        top = 2**MAX_COEFF_BITS - 1
        assert parse_poly(f"{top}*X").terms == {(1, 0): gq(top)}
        assert parse_poly(f"1/{top}*X - {top}").coeff(1, 0) == gq(Fraction(1, top))
        assert parse_poly("((2)^1000)^4") == BivarPoly.constant(2**4000)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            (f"{2**MAX_COEFF_BITS}*X", f"coefficient of {MAX_COEFF_BITS + 1} bits", 0),
            (f"X - 1/{2**MAX_COEFF_BITS}", f"coefficient of {MAX_COEFF_BITS + 1} bits", 0),
            (f"1/3*X + 1/{2**(MAX_COEFF_BITS - 1)}*X",
             f"sum with coefficients of {MAX_COEFF_BITS + 1} bits", 8),
            ("X - 1" + "0" * 1400, "number of 1401 digits", 4),
            ("X - 0." + "1" * 1400, "number of 1400 digits", 6),
            ("Y^" + "9" * 5000, "number of 5000 digits", 2),
            ("Y^2 - ((2)^1000)^1000*X^3", "power with coefficients of up to 1002000 bits", 6),
            ("(2)^1000*" * 5 + "X", "product with coefficients of 5001 bits", 0),
            # each product is checked, so a long one stops at its fifth factor
            ("(2)^1000*" * 1000 + "Y^2 - X^3", "product with coefficients of 5001 bits", 0),
            ("Y^2 - " + "1.1*" * 2000 + "X^3", "product with coefficients of 4100 bits", 6),
            # a product that a later term cancels is refused all the same
            ("(2)^1000*" * 5 + "X - " + "(2)^1000*" * 5 + "X + Y^2 - X^3",
             "product with coefficients of 5001 bits", 0),
        ],
    )
    def test_coefficient_over_the_limit_is_a_parse_error(self, text, message, position):
        with pytest.raises(ParseError, match=f"{message} exceeds the limit {MAX_COEFF_BITS}") \
                as err:
            parse_poly(text)
        assert err.value.position == position

    def test_sum_whose_denominators_grow_is_a_parse_error(self):
        text = " + ".join(f"1/{k}" for k in range(3, 3000, 2)) + " + Y^2 - X^3"
        with pytest.raises(ParseError, match="sum with coefficients of 409[7-9] bits") as err:
            parse_poly(text)
        assert text[err.value.position - 3:err.value.position] == " + "

    def test_products_up_to_the_work_limit_parse(self):
        side = isqrt(MAX_PRODUCT_WORK)
        xs = " + ".join(f"X^{k}" for k in range(side))
        ys = " + ".join(f"Y^{k}" for k in range(MAX_PRODUCT_WORK // side))
        assert len(parse_poly(f"({xs})*({ys})").terms) == side * (MAX_PRODUCT_WORK // side)
        # the products inside a power are bounded alike
        assert len(parse_poly("(X+Y+1)^40").terms) == 861

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("(X+Y+1)^1000", "product of 561 by 561 terms", 0),
            ("Y^2 - (X+Y+1)^120", "product of 325 by 561 terms", 6),
            ("Y + 2*(X+Y+1)^32*(X+Y+1)^32", "product of 561 by 561 terms", 4),
        ],
    )
    def test_product_over_the_work_limit_is_a_parse_error(self, text, message, position):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"{message} exceeds the limit "
                           f"{MAX_PRODUCT_WORK} term pairs") as err:
            parse_poly(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == position

    def test_work_is_checked_before_multiplying(self, monkeypatch):
        side = isqrt(MAX_PRODUCT_WORK)
        xs = " + ".join(f"X^{k}" for k in range(side + 1))
        ys = " + ".join(f"Y^{k}" for k in range(MAX_PRODUCT_WORK // side))
        products = []
        monkeypatch.setattr(BivarPoly, "__mul__", lambda a, b: products.append(b))
        with pytest.raises(ParseError, match=f"product of {side + 1} by "
                           f"{MAX_PRODUCT_WORK // side} terms") as err:
            parse_poly(f"Y - ({xs})*({ys})")
        assert err.value.position == 4
        assert products == []

    def test_deep_nesting_is_a_parse_error(self):
        assert parse_poly("(" * MAX_NESTING + "X" + ")" * MAX_NESTING) == X
        with pytest.raises(ParseError, match="nesting too deep") as err:
            parse_poly("(" * 3000 + "X" + ")" * 3000)
        assert err.value.position == MAX_NESTING


class TestModes:
    def test_exact_by_default(self):
        assert parse_poly("Y^2 - X^3").mode == MODE_EXACT

    def test_decimal_literal_marks_numeric(self):
        poly = parse_poly("0.5*X")
        assert poly.mode == MODE_NUMERIC
        assert poly.coeff(1, 0) == gq(Fraction(1, 2))

    def test_decimal_value_is_exact_base_ten(self):
        assert parse_poly("0.125*Y").coeff(0, 1) == gq(Fraction(1, 8))

    def test_mode_is_contagious_through_arithmetic(self):
        mixed = parse_poly("0.5*X") + parse_poly("Y")
        assert mixed.mode == MODE_NUMERIC


class TestPrinting:
    def test_x_ascending_order(self):
        poly = parse_poly("2*X^3*Y + X*Y^3 - 3*X^2*Y^2")
        assert format_poly(poly) == "X*Y^3 - 3*X^2*Y^2 + 2*X^3*Y"

    def test_leading_negative(self):
        assert format_poly(parse_poly("-X^3 + Y^2")) == "Y^2 - X^3"

    def test_unit_coefficients_suppressed(self):
        assert format_poly(parse_poly("X + Y")) == "Y + X"

    def test_complex_coefficient_parenthesized(self):
        assert format_poly(parse_poly("i*X*Y - 3*Y^2")) == "-3*Y^2 + (0+1i)*X*Y"

    def test_zero(self):
        assert format_poly(BivarPoly.zero()) == "0"

    def test_constant(self):
        assert format_poly(parse_poly("5/3")) == "5/3"

    @given(polys)
    def test_round_trip(self, poly):
        assert parse_poly(format_poly(poly)) == poly


class TestArithmetic:
    @given(polys, polys, scalars, scalars)
    def test_product_evaluates_pointwise(self, f, g, x, y):
        assert (f * g).evaluate(x, y) == f.evaluate(x, y) * g.evaluate(x, y)

    @given(polys, polys, scalars, scalars)
    def test_sum_evaluates_pointwise(self, f, g, x, y):
        assert (f + g).evaluate(x, y) == f.evaluate(x, y) + g.evaluate(x, y)

    @given(polys)
    def test_substituting_the_identity(self, f):
        assert f.substitute(X, Y) == f

    @given(polys, scalars, scalars)
    def test_substituting_constants_evaluates(self, f, x, y):
        image = f.substitute(BivarPoly.constant(x), BivarPoly.constant(y))
        value = f.evaluate(x, y)
        if value.is_zero:
            assert image.is_zero
        else:
            assert image == BivarPoly.constant(value)

    @given(scalars, st.sets(st.integers(min_value=0, max_value=40), max_size=6))
    def test_power_table_matches_pow(self, z, exponents):
        assert power_table(z, exponents) == {e: z**e for e in exponents}

    def test_power_table_steps_by_the_gap(self):
        calls = []

        class Counted(int):
            def __pow__(self, e):
                return Counted(int(self) ** e)

            def __mul__(self, other):
                calls.append(other)
                return Counted(int(self) * other)

        assert power_table(Counted(2), [5, 8, 14, 11]) == {5: 32, 8: 256, 11: 2048, 14: 16384}
        assert calls == [8, 8, 8]

    def test_pow_repeated_product(self):
        f = parse_poly("X + Y")
        assert f**3 == f * f * f

    @settings(max_examples=20)
    @given(polys)
    def test_pow_equals_the_repeated_product(self, f):
        product = BivarPoly.constant(1)
        for e in range(10):
            assert f**e == product
            product = product * f

    @pytest.mark.parametrize("exponent", [0, 1, 2, 3, 8, 9, 64, 1000])
    def test_power_squares_only_for_bits_still_to_use(self, exponent):
        products = []

        def multiply(a, b):
            products.append(a is b)
            return a * b

        assert _power(X, exponent, multiply) == BivarPoly.monomial(exponent, 0)
        # one product per set bit, one square per bit after the lowest
        assert products.count(False) == bin(exponent).count("1")
        assert products.count(True) == max(exponent.bit_length() - 1, 0)

    def test_scale(self):
        assert X.scale(gq(3)) == parse_poly("3*X")
