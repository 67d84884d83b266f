"""Bivariate polynomials over Q(i): representation, parsing, printing.

Grammar accepted by parse_poly (whitespace allowed between terms and around
'+', '-', '*'):

    poly       := sign? term (('+'|'-') term)*
    term       := factor ('*' factor | juxt)*
    juxt       := ('X'|'Y'|'i') exponent?     immediately after a number factor
    factor     := base exponent?
    base       := 'X' | 'Y' | 'i' | number | '(' poly ')'
    exponent   := '^' uint
    number     := uint ('/' uint | '.' digits)?

Juxtaposition is only read directly after a numeric literal ("2X", "3i",
"1/2i"); parenthesized groups always need '*' and nest at most
MAX_NESTING deep. Exponents, and the total degree of every product and
power, are at most MAX_DEGREE; numerators and denominators have at most
MAX_COEFF_BITS bits; no product, in a power too, multiplies more than
MAX_PRODUCT_WORK pairs of terms. Decimal literals are exact
("0.3" is 3/10) but flag the polynomial as numeric-mode, recording that the
user did not supply symbolic data. The leading optional sign is a strict
superset of the documented form so that every printed polynomial re-parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import EmptyInputError, NegativeExponentError, ParseError
from .exact import GQ_ONE, GQ_ZERO, GaussianRational, format_terms, power_str

MODE_EXACT = "exact"
MODE_NUMERIC = "numeric"

# Each parenthesis level takes three parser frames; 200 levels stay well
# inside Python's default recursion limit of 1000 frames.
MAX_NESTING = 200

# Bound on every exponent and on the total degree of every product and
# power, checked before expanding; the cost of expansion and of the ladder
# grows with the degree, while the largest degree in the tests and the
# benchmark corpora is 74.
MAX_DEGREE = 1000

# Bound on the bits of every numerator and denominator, checked on each
# digit string, before expanding each power, after each product and sum,
# and on the parsed result, so no step works on longer numbers than twice
# the bound (and a power's estimate). A
# ladder coefficient is the ratio of two input coefficients, so it stays
# under 8192 bits (2467 digits), inside Python's default limit of 4300
# digits for converting an int to text.
MAX_COEFF_BITS = 4096

# Bound on the work of every product, len(a.terms) * len(b.terms) coefficient
# products, checked before multiplying, also inside a power; the degree
# bound alone lets a dense power such as (X+Y+1)^1000 run for hours.
MAX_PRODUCT_WORK = 1 << 16


def _coeff_bits(coeffs) -> int:
    # the bit length of an OR is that of its largest operand
    top = 0
    for c in coeffs:
        top |= abs(c.a) | abs(c.b) | c.d
    return top.bit_length()


def _join_mode(a: str, b: str) -> str:
    return MODE_NUMERIC if MODE_NUMERIC in (a, b) else MODE_EXACT


@dataclass(frozen=True, slots=True)
class BivarPoly:
    """Sparse polynomial in X, Y with Gaussian rational coefficients.

    terms maps (x_exponent, y_exponent) to a nonzero coefficient. Equality
    compares term maps only; the mode flag is bookkeeping, not algebra.
    """

    terms: dict
    mode: str = field(default=MODE_EXACT, compare=False)

    @staticmethod
    def from_terms(terms, mode: str = MODE_EXACT) -> "BivarPoly":
        clean = {}
        for (i, j), c in dict(terms).items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            c = GaussianRational.of(c)
            if not c.is_zero:
                clean[(int(i), int(j))] = c
        return BivarPoly(clean, mode)

    @staticmethod
    def zero(mode: str = MODE_EXACT) -> "BivarPoly":
        return BivarPoly({}, mode)

    @staticmethod
    def constant(c, mode: str = MODE_EXACT) -> "BivarPoly":
        return BivarPoly.from_terms({(0, 0): GaussianRational.of(c)}, mode)

    @staticmethod
    def monomial(i: int, j: int, c=GQ_ONE, mode: str = MODE_EXACT) -> "BivarPoly":
        return BivarPoly.from_terms({(i, j): GaussianRational.of(c)}, mode)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> list:
        """Exponent pairs with nonzero coefficient, sorted."""
        return sorted(self.terms)

    def coeff(self, i: int, j: int) -> GaussianRational:
        return self.terms.get((i, j), GQ_ZERO)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, GQ_ZERO) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return BivarPoly(out, _join_mode(self.mode, other.mode))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -c for k, c in self.terms.items()}, self.mode)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, GQ_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return BivarPoly(out, _join_mode(self.mode, other.mode))

    def __pow__(self, exponent: int) -> "BivarPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        return _power(self, exponent, BivarPoly.__mul__)

    def scale(self, c) -> "BivarPoly":
        c = GaussianRational.of(c)
        if c.is_zero:
            return BivarPoly({}, self.mode)
        return BivarPoly({k: v * c for k, v in self.terms.items()}, self.mode)

    def evaluate(self, x, y) -> GaussianRational:
        """Exact evaluation at a point of Q(i)^2."""
        xp = power_table(GaussianRational.of(x), {i for i, _ in self.terms})
        yp = power_table(GaussianRational.of(y), {j for _, j in self.terms})
        acc = GQ_ZERO
        for (i, j), c in self.terms.items():
            acc = acc + c * xp[i] * yp[j]
        return acc

    def substitute(self, x_image: "BivarPoly", y_image: "BivarPoly") -> "BivarPoly":
        """Ring substitution X -> x_image, Y -> y_image."""
        max_i = max((i for i, _ in self.terms), default=0)
        max_j = max((j for _, j in self.terms), default=0)
        xp = _poly_powers(x_image, max_i)
        yp = _poly_powers(y_image, max_j)
        acc = BivarPoly.zero(self.mode)
        for (i, j), c in self.terms.items():
            acc = acc + (xp[i] * yp[j]).scale(c)
        return acc

    def __str__(self) -> str:
        return format_poly(self)


def power_table(z, exponents) -> dict:
    """{e: z**e for e in exponents}, for any z with ** and *.

    Starts from z**low, the lowest exponent, and steps by z**gap, where gap
    is the gcd of the differences to low: one multiplication per exponent
    on a weighted line.
    """
    exps = sorted(set(exponents))
    low = exps[0] if exps else 0
    gap = 0
    for e in exps:
        gap = gcd(gap, e - low)
    power, step, at = z**low, z**gap, low
    table = {}
    for e in exps:
        while at < e:
            power, at = power * step, at + gap
        table[e] = power
    return table


def _power(base: BivarPoly, exponent: int, multiply) -> BivarPoly:
    """base**exponent by repeated squaring, each product by multiply(a, b)."""
    result = BivarPoly.constant(1, base.mode)
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        # no square after the last bit: it is the largest product, unused
        if exponent:
            base = multiply(base, base)
    return result


def _poly_powers(p: BivarPoly, top: int) -> list:
    powers = [BivarPoly.constant(1, p.mode)]
    for _ in range(top):
        powers.append(powers[-1] * p)
    return powers


X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.saw_decimal = False

    def fail(self, message: str, position: int | None = None):
        raise ParseError(message, self.pos if position is None else position)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> BivarPoly:
        self.skip_ws()
        if self.pos == len(self.text):
            raise EmptyInputError()
        result = self.poly()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected input {self.text[self.pos]!r}")
        self.limit_bits(_coeff_bits(result.terms.values()), "coefficient of", 0)
        mode = MODE_NUMERIC if self.saw_decimal else MODE_EXACT
        return BivarPoly(result.terms, mode)

    def poly(self) -> BivarPoly:
        self.skip_ws()
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.peek() == "-"
            self.pos += 1
            self.skip_ws()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                break
            self.pos += 1
            self.skip_ws()
            start = self.pos
            t = self.term()
            size = len(acc.terms) + len(t.terms)
            acc = acc + t if op == "+" else acc - t
            if len(acc.terms) < size:
                # t shares a monomial with acc: check the coefficients it changed
                bits = _coeff_bits(acc.coeff(i, j) for i, j in t.terms)
                self.limit_bits(bits, "sum with coefficients of", start)
        return acc

    def limit_degree(self, degree: int, what: str, position: int):
        if degree > MAX_DEGREE:
            self.fail(f"{what} {degree} exceeds the limit {MAX_DEGREE}", position)

    def limit_bits(self, bits: int, what: str, position: int):
        if bits > MAX_COEFF_BITS:
            self.fail(f"{what} {bits} bits exceeds the limit {MAX_COEFF_BITS} bits", position)

    def product(self, a: BivarPoly, b: BivarPoly, position: int) -> BivarPoly:
        work = len(a.terms) * len(b.terms)
        if work > MAX_PRODUCT_WORK:
            self.fail(f"product of {len(a.terms)} by {len(b.terms)} terms exceeds "
                      f"the limit {MAX_PRODUCT_WORK} term pairs", position)
        return a * b

    def term(self) -> BivarPoly:
        start = self.pos
        acc, was_number, degree = self.factor()
        while True:
            if was_number and self.peek() in ("X", "Y", "i"):
                (f, f_degree), was_number, symbol = self.symbol_factor(), False, True
            else:
                save = self.pos
                self.skip_ws()
                if self.peek() != "*":
                    self.pos = save
                    return acc
                self.pos += 1
                self.skip_ws()
                symbol = self.peek() in ("X", "Y", "i")
                f, was_number, f_degree = self.factor()
            degree += f_degree
            self.limit_degree(degree, "degree", start)
            acc = self.product(acc, f, start)
            # a unit monomial (X^a, Y^b, i^c) leaves coefficient sizes alone
            if not symbol:
                bits = _coeff_bits(acc.terms.values())
                self.limit_bits(bits, "product with coefficients of", start)

    def factor(self) -> tuple[BivarPoly, bool, int]:
        """A factor, whether it is a number literal, and its total degree."""
        ch = self.peek()
        if ch == "(":
            start = self.pos
            if self.depth == MAX_NESTING:
                self.fail("nesting too deep")
            self.depth += 1
            self.pos += 1
            inner = self.poly()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            e = self.maybe_exponent()
            degree = max(map(sum, inner.terms), default=0)
            if e is None:
                return inner, False, degree
            self.limit_degree(degree * e, "degree", start)
            # estimate: a coefficient of inner**e sums at most terms**e
            # products of e coefficients of inner
            bits = e * (_coeff_bits(inner.terms.values()) + len(inner.terms).bit_length())
            self.limit_bits(bits, "power with coefficients of up to", start)
            return _power(inner, e, lambda a, b: self.product(a, b, start)), False, degree * e
        if ch in ("X", "Y", "i"):
            f, degree = self.symbol_factor()
            return f, False, degree
        if ch.isdigit():
            return self.number(), True, 0
        if ch == "":
            self.fail("unexpected end of input")
        self.fail(f"expected 'X', 'Y', 'i', a number, or '(', got {ch!r}")

    def symbol_factor(self) -> tuple[BivarPoly, int]:
        ch = self.peek()
        self.pos += 1
        e = self.maybe_exponent()
        e = 1 if e is None else e
        if ch == "X":
            return BivarPoly({(e, 0): GQ_ONE}), e
        if ch == "Y":
            return BivarPoly({(0, e): GQ_ONE}), e
        return BivarPoly.constant(GaussianRational(Fraction(0), Fraction(1)) ** e), 0

    def maybe_exponent(self) -> int | None:
        save = self.pos
        self.skip_ws()
        if self.peek() != "^":
            self.pos = save
            return None
        self.pos += 1
        self.skip_ws()
        if self.peek() == "-":
            raise NegativeExponentError(self.pos)
        if not self.peek().isdigit():
            self.fail("expected an unsigned integer exponent")
        start = self.pos
        e = self.uint()
        self.limit_degree(e, "exponent", start)
        return e

    def uint(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        # past its first digit a number gains over 3 bits a digit: refuse a
        # longer string unconverted (the result check sees the rest)
        if self.pos - start > MAX_COEFF_BITS // 3:
            self.fail(f"number of {self.pos - start} digits exceeds the limit "
                      f"{MAX_COEFF_BITS} bits", start)
        return int(self.text[start : self.pos])

    def number(self) -> BivarPoly:
        start = self.pos
        whole = self.uint()
        if self.peek() == "/":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected a denominator")
            dpos = self.pos
            den = self.uint()
            if den == 0:
                self.fail("zero denominator", dpos)
            return BivarPoly.constant(Fraction(whole, den))
        if self.peek() == ".":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected digits after the decimal point")
            fstart = self.pos
            fraction = self.uint()
            self.saw_decimal = True
            scale = 10 ** (self.pos - fstart)
            value = Fraction(whole * scale + fraction, scale)
            return BivarPoly.constant(value)
        return BivarPoly.constant(whole)


def parse_poly(text: str) -> BivarPoly:
    """Parse polynomial text into a BivarPoly, expanding all products."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be a string, got {type(text).__name__}")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _monomial_str(i: int, j: int) -> str:
    return "*".join(filter(None, (power_str("X", i), power_str("Y", j))))


def format_poly(poly: BivarPoly) -> str:
    """Deterministic rendering; parse_poly(format_poly(P)) == P.

    Terms print with X-exponent ascending, then Y-exponent ascending, the
    order the golden outputs use ("Y^2 - X^3", "X*Y^3 - 3*X^2*Y^2 + ...").
    """
    return format_terms((poly.terms[k], _monomial_str(*k)) for k in sorted(poly.terms))
