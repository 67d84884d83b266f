"""Parsing and printing of bivariate polynomials."""

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, reject, seed, settings
from hypothesis import strategies as st

from conftest import coprime_denominators
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
from qhgerm.exact import GaussianRational, UniPoly, power
from qhgerm.polyio import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_PRODUCT_WORK,
    MODE_EXACT,
    MODE_NUMERIC,
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

    def test_any_unicode_space_is_whitespace(self):
        assert parse_poly("Y^2\u00a0-\u2003X^3\u3000") == parse_poly("Y^2 - X^3")

    @pytest.mark.parametrize(
        "text, same",
        [("Y**2 - X**3", "Y^2 - X^3"), ("X ** 2", "X^2"), ("(X+1)**2", "(X+1)^2"),
         ("2i**3*Y", "2i^3*Y")],
    )
    def test_double_star_is_a_power(self, text, same):
        assert parse_poly(text) == parse_poly(same)

    def test_double_star_exponent_cannot_be_negative(self):
        with pytest.raises(NegativeExponentError) as err:
            parse_poly("X**-1")
        assert err.value.position == 3

    def test_decimal_digits_of_any_script_are_digits(self):
        # U+0663 and U+0969 are the Arabic-Indic and Devanagari digit three
        assert parse_poly("Y^\u0663 - \u0969/2*X") == parse_poly("Y^3 - 3/2*X")

    @pytest.mark.parametrize("text", ["X^\u00b2", "\u00b2", "Y - 2\u00b3", "1/\u2460",
                                      "1.\u00b9", "X^1\u00b2"])
    def test_superscripts_and_other_non_decimal_digits_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)


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

    _ANY = "expected 'X', 'Y', 'i', a number, or '(', got"

    @pytest.mark.parametrize(
        "text, cls, message, position",
        [
            ("", EmptyInputError, "empty input", 0),
            (" \t\n ", EmptyInputError, "empty input", 0),
            ("3 X", ParseError, "unexpected input 'X'", 2),
            ("X2", ParseError, "unexpected input '2'", 1),
            ("2^3", ParseError, "unexpected input '^'", 1),
            ("(X)(Y)", ParseError, "unexpected input '('", 3),
            ("1/2/3", ParseError, "unexpected input '/'", 3),
            ("1.5.3", ParseError, "unexpected input '.'", 3),
            ("X)", ParseError, "unexpected input ')'", 1),
            ("(X+Y", ParseError, "expected ')'", 4),
            ("(2^3)", ParseError, "expected ')'", 2),
            ("X +", ParseError, "unexpected end of input", 3),
            ("X*", ParseError, "unexpected end of input", 2),
            ("(", ParseError, "unexpected end of input", 1),
            ("+-X", ParseError, f"{_ANY} '-'", 1),
            ("X*+Y", ParseError, f"{_ANY} '+'", 2),
            ("2**3", ParseError, f"{_ANY} '*'", 2),
            ("X***2", ParseError, "expected an unsigned integer exponent", 3),
            ("X^\u00b2", ParseError, "expected an unsigned integer exponent", 2),
            ("\u00b3*X", ParseError, f"{_ANY} '\u00b3'", 0),
            ("1\u00b9", ParseError, "unexpected input '\u00b9'", 1),
            ("1/\u1369", ParseError, "expected a denominator", 2),
            ("X^-2", NegativeExponentError, "negative exponents are not allowed", 2),
            ("X ^ -2", NegativeExponentError, "negative exponents are not allowed", 4),
            ("X^^2", ParseError, "expected an unsigned integer exponent", 2),
            ("X^", ParseError, "expected an unsigned integer exponent", 2),
            ("X^ Y", ParseError, "expected an unsigned integer exponent", 3),
            ("(X)^", ParseError, "expected an unsigned integer exponent", 4),
            ("1/X", ParseError, "expected a denominator", 2),
            ("1/", ParseError, "expected a denominator", 2),
            ("1/0", ParseError, "zero denominator", 2),
            ("3/00*X", ParseError, "zero denominator", 2),
            ("1.", ParseError, "expected digits after the decimal point", 2),
            ("1. 5", ParseError, "expected digits after the decimal point", 2),
        ],
    )
    def test_error_class_message_and_position(self, text, cls, message, position):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert type(err.value) is cls
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

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
            # a number's product is checked before the symbol juxtaposed to it
            ("(2)^1000*" * 4 + "9" * 300 + "X^-1", "product with coefficients of 4997 bits", 0),
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

    def test_product_of_wide_coprime_denominators_stays_narrow(self):
        # every coefficient 1/(p*q) of the product has under MAX_COEFF_BITS
        # bits, and each of the 4,096 coefficient products works on numbers
        # that wide; a common denominator of all 64 p, or of all 64 q,
        # would be 64 times as wide
        dens = coprime_denominators(128, 1800)
        assert 2 * dens[-1].bit_length() <= MAX_COEFF_BITS
        xs = " + ".join(f"1/{d}*X^{k}" for k, d in enumerate(dens[:64], 1))
        ys = " + ".join(f"1/{d}*Y^{k}" for k, d in enumerate(dens[64:], 1))
        start = time.perf_counter()
        product = parse_poly(f"({xs})*({ys})")
        assert time.perf_counter() - start < 2
        assert len(product.terms) == 64 * 64
        assert product.coeff(3, 5) == gq(Fraction(1, dens[2] * dens[68]))

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

    @pytest.mark.parametrize("text, sizes, position", [
        ("Y - 2*{}", (1, MAX_PRODUCT_WORK + 1), 4),
        ("{}*X", (MAX_PRODUCT_WORK + 1, 1), 0),
    ])
    def test_group_over_the_work_limit_times_a_monomial(self, text, sizes, position):
        side = isqrt(MAX_PRODUCT_WORK)
        xs = " + ".join(f"X^{k}" for k in range(side))
        ys = " + ".join(f"Y^{k}" for k in range(MAX_PRODUCT_WORK // side))
        group = f"(({xs})*({ys}) + X^600)"
        with pytest.raises(ParseError, match=f"product of {sizes[0]} by {sizes[1]} terms") \
                as err:
            parse_poly(text.format(group))
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


# Expression trees rendered to text, each with its value under BivarPoly
# arithmetic and whether it holds a decimal literal: (text, value, decimal).
_SPACE = st.sampled_from(["", " ", "\t", "\u00a0"])
_UNITS = {"X": X, "Y": Y, "i": BivarPoly.constant(gq(0, 1))}
# a product of more term pairs is rejected, which keeps the expected values
# cheap and every product of the parse far under MAX_PRODUCT_WORK
_ORACLE_WORK = 2000


def _times(a, b):
    if len(a.terms) * len(b.terms) > _ORACLE_WORK:
        reject()
    return a * b


def _power_of(base, e):
    return power(base, e, BivarPoly.constant(1), _times)


@st.composite
def _literal(draw):
    whole = draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(["integer", "fraction", "decimal"]))
    if kind == "integer":
        return str(whole), BivarPoly.constant(whole), False
    if kind == "fraction":
        den = draw(st.integers(min_value=1, max_value=12))
        return f"{whole}/{den}", BivarPoly.constant(Fraction(whole, den)), False
    digits = draw(st.text("0123456789", min_size=1, max_size=3))
    value = Fraction(int(f"{whole}{digits}"), 10 ** len(digits))
    return f"{whole}.{digits}", BivarPoly.constant(value), True


@st.composite
def _exponent(draw):
    """(text, e) of an optional power '^e' or '**e', e <= 4."""
    if draw(st.booleans()):
        return "", 1
    e = draw(st.integers(min_value=0, max_value=4))
    return f"{draw(_SPACE)}{draw(st.sampled_from(['^', '**']))}{draw(_SPACE)}{e}", e


@st.composite
def _factor(draw, depth):
    kind = draw(st.sampled_from(["literal", "symbol", "group"] if depth else
                                ["literal", "symbol"]))
    if kind == "group":
        text, value, decimal = draw(_sum(depth - 1))
        power, e = draw(_exponent())
        return f"({draw(_SPACE)}{text}{draw(_SPACE)}){power}", _power_of(value, e), decimal
    symbol = draw(st.sampled_from("XYi"))
    power, e = draw(_exponent())
    unit = _power_of(_UNITS[symbol], e)
    if kind == "symbol":
        return symbol + power, unit, False
    text, value, decimal = draw(_literal())
    if draw(st.booleans()):
        # juxtaposition: the symbol written right after the number
        return text + symbol + power, _times(value, unit), decimal
    return text, value, decimal


@st.composite
def _term(draw, depth):
    text, value, decimal = draw(_factor(depth))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        f_text, f_value, f_decimal = draw(_factor(depth))
        text = f"{text}{draw(_SPACE)}*{draw(_SPACE)}{f_text}"
        value, decimal = _times(value, f_value), decimal or f_decimal
    return text, value, decimal


@st.composite
def _sum(draw, depth=2):
    sign = draw(st.sampled_from(["", "+", "-"]))
    text, value, decimal = draw(_term(depth))
    text = f"{sign}{draw(_SPACE)}{text}"
    value = -value if sign == "-" else value
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from("+-"))
        t_text, t_value, t_decimal = draw(_term(depth))
        text = f"{text}{draw(_SPACE)}{op}{draw(_SPACE)}{t_text}"
        value = value + t_value if op == "+" else value - t_value
        decimal = decimal or t_decimal
    return text, value, decimal


# Text that is mostly near the grammar: its pieces, digits that are no
# decimal digits (superscripts, circled, Ethiopic), decimal digits of other
# scripts, and Unicode spaces, mixed with arbitrary characters.
_PIECES = ["X", "Y", "i", "^", "**", "*", "+", "-", "/", ".", "(", ")", " ", "0", "1",
           "7", "12", "1.5", "1/3", "X^2", "\u00b2", "\u00b3", "\u00b9", "\u2460",
           "\u1369", "\u0663", "\u00a0", "\u2003", "\u3000", "\n", "\t"]
_NEAR_GRAMMAR = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
    st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=24).map("".join),
    st.text(max_size=30),
)


class TestParserProperties:
    @seed(20261019)
    @settings(max_examples=250, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(_sum())
    def test_parse_equals_the_tree_evaluated(self, tree):
        text, value, decimal = tree
        poly = parse_poly(text)
        assert poly == value
        assert poly.mode == (MODE_NUMERIC if decimal else MODE_EXACT)

    @seed(20261020)
    @settings(max_examples=1000, deadline=None, database=None)
    @given(_NEAR_GRAMMAR)
    def test_any_text_parses_or_is_a_parse_error(self, text):
        try:
            poly = parse_poly(text)
        except ParseError:
            return
        assert isinstance(poly, BivarPoly)


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

    def test_str_is_the_printed_form(self):
        poly = parse_poly("Y^2 - 3*X^3 + (1+2i)*X*Y")
        assert str(poly) == format_poly(poly) == "Y^2 + (1+2i)*X*Y - 3*X^3"

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
    def test_power_squares_only_for_bits_still_to_use(self, exponent, monkeypatch):
        cases = [
            (gq(3), GaussianRational(3**exponent)),
            (UniPoly.monomial(1, 2), UniPoly.monomial(exponent, 2**exponent)),
            (X, BivarPoly.monomial(exponent, 0)),
        ]
        for base, expected in cases:
            cls = type(base)
            products = []
            plain = cls.__mul__

            def multiply(a, b, plain=plain, products=products):
                products.append(a is b)
                return plain(a, b)

            with monkeypatch.context() as patch:
                patch.setattr(cls, "__mul__", multiply)
                assert base**exponent == expected
            # one product per set bit, one square per bit after the lowest
            assert products.count(False) == bin(exponent).count("1"), cls.__name__
            assert products.count(True) == max(exponent.bit_length() - 1, 0), cls.__name__

    def test_scale(self):
        assert X.scale(gq(3)) == parse_poly("3*X")
