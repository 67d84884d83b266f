"""Bivariate polynomials over Q(i): representation, parsing, printing.

Grammar accepted by parse_poly:

    poly       := sign? term (('+'|'-') term)*
    term       := factor ('*' factor | juxt)*
    juxt       := symbol                      immediately after a number factor
    factor     := symbol | number | '(' poly ')' exponent?
    symbol     := ('X'|'Y'|'i') exponent?
    exponent   := ('^'|'**') digits
    number     := digits ('/' digits | '.' digits)?

A number literal takes no exponent (write "(2)^3", not "2^3"), and '**' is
'^'. Whitespace, any character for which str.isspace() holds, may stand
between tokens, but not inside a number or a '**', nor between a number and
its juxtaposed symbol. Digits are decimal digits (str.isdecimal(), the ones
int() reads): "Y^\u0663" is Y^3, but a superscript "\u00b2" is no digit.

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

import operator
import re
from math import gcd, lcm

from .errors import EmptyInputError, NegativeExponentError, ParseError
from .exact import (GQ_I, GQ_ONE, GQ_ZERO, GaussianRational, Record, _integral, _make,
                    format_terms, power, power_str)

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


class BivarPoly(Record):
    """Sparse polynomial in X, Y with Gaussian rational coefficients.

    terms maps (x_exponent, y_exponent) to a nonzero coefficient. Equality
    compares term maps only; the mode flag is bookkeeping, not algebra.
    """

    __slots__ = ("terms", "mode")

    def __init__(self, terms: dict, mode: str = MODE_EXACT):
        _set_terms(self, terms)
        _set_mode(self, mode)

    def _key(self) -> tuple:
        return (self.terms,)

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
        """The product, term by term in GaussianRational arithmetic.

        Each coefficient product and sum is reduced as it is made, so its
        numbers stay as wide as the coefficients it combines. The parser
        multiplies input from outside the program here, and bounds each
        product's result (MAX_COEFF_BITS); a common denominator of an
        operand's terms could be far wider.
        """
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
        return power(self, exponent, BivarPoly.constant(1, self.mode))

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
        """Ring substitution X -> x_image, Y -> y_image.

        It runs over Z[i]. The images are cleared of denominators by their
        lcms, A/dx and B/dy, and the terms of self are split into runs over
        a common denominator D (_denominator_runs). The image of a run
        (sum f_ij X^i Y^j)/D is (sum f_ij dx^(I-i) dy^(J-j) A^i B^j)/L with
        L = D*dx^I*dy^J, I and J the run's top exponents of X and Y: the
        power tables of A and B and every product and sum are
        Gaussian-integer term dicts. Where the images of several runs meet
        on a term, they add over the lcm of their L. Each coefficient of
        the result is reduced once. The result's mode joins the three
        modes; the zero polynomial keeps its own.
        """
        if not self.terms:
            return BivarPoly({}, self.mode)
        x_den, x_ints = _integral_terms(x_image.terms)
        y_den, y_ints = _integral_terms(y_image.terms)
        xp = power_table(x_ints, {i for i, _ in self.terms}, _gi_power, _gi_mul)
        yp = power_table(y_ints, {j for _, j in self.terms}, _gi_power, _gi_mul)
        out = {}
        for run in _denominator_runs(self.terms):
            den, ints = _integral_terms(run)
            top_i = max(i for i, _ in ints)
            top_j = max(j for _, j in ints)
            image = {}
            for (i, j), (a, b) in ints.items():
                # the missing powers of the image denominators
                lift = x_den ** (top_i - i) * y_den ** (top_j - j)
                _add_product(image, xp[i], yp[j], a * lift, b * lift)
            den *= x_den**top_i * y_den**top_j
            for key, (x, y) in image.items():
                if key not in out:
                    out[key] = x, y, den
                    continue
                x0, y0, d0 = out[key]
                common = lcm(d0, den)
                u, v = common // d0, common // den
                out[key] = x0 * u + x * v, y0 * u + y * v, common
        mode = _join_mode(_join_mode(self.mode, x_image.mode), y_image.mode)
        return BivarPoly({k: _make(x, y, d) for k, (x, y, d) in out.items() if x or y}, mode)

    def __str__(self) -> str:
        return format_poly(self)


_set_terms = BivarPoly.terms.__set__
_set_mode = BivarPoly.mode.__set__


def _integral_terms(terms: dict) -> tuple[int, dict]:
    """(D, {(i, j): (x, y)}) with terms[(i, j)] = (x + y*i)/D, D the lcm of the denominators."""
    den, ints = _integral(terms.values())
    return den, dict(zip(terms, ints))


def _denominator_runs(terms: dict) -> list[dict]:
    """terms split, in order, into runs whose denominators have a narrow lcm.

    A run grows while the lcm of its denominators has at most w + 64 bits,
    w the bits of the widest denominator in terms. Denominators that share
    their factors, as those of the benchmark germs do, form one run; n
    pairwise coprime wide ones form n runs, instead of one run whose lcm
    is n times as wide as each of them.
    """
    limit = max(c.d for c in terms.values()).bit_length() + 64
    runs, run, den = [], {}, 1
    for key, c in terms.items():
        den = lcm(den, c.d)
        if den.bit_length() > limit:
            runs.append(run)
            run, den = {}, c.d
        run[key] = c
    runs.append(run)
    return runs


def _add_product(out: dict, a: dict, b: dict, x: int = 1, y: int = 0) -> dict:
    """out plus (x + y*i)*a*b, over Gaussian-integer term dicts {(i, j): (re, im)}.

    Adds into out and returns it; a sum that cancels stays as (0, 0).
    """
    get = out.get
    for (i1, j1), (p, q) in a.items():
        p, q = x * p - y * q, x * q + y * p
        for (i2, j2), (r, s) in b.items():
            key = (i1 + i2, j1 + j2)
            old = get(key)
            if old is None:
                out[key] = (p * r - q * s, p * s + q * r)
            else:
                out[key] = (old[0] + p * r - q * s, old[1] + p * s + q * r)
    return out


def _gi_mul(a: dict, b: dict) -> dict:
    return _add_product({}, a, b)


_GI_ONE = {(0, 0): (1, 0)}


def _gi_power(a: dict, n: int) -> dict:
    return power(a, n, _GI_ONE, _gi_mul)


def power_table(z, exponents, raise_to=pow, mul=operator.mul) -> dict:
    """{e: z**e for e in exponents}, for any z with ** and *, or with
    raise_to(z, n) for z**n and mul(u, v) for u * v.

    Starts from z**low, the lowest exponent, and steps by z**gap, where gap
    is the gcd of the differences to low: one multiplication per exponent
    on a weighted line.
    """
    exps = sorted(set(exponents))
    low = exps[0] if exps else 0
    gap = 0
    for e in exps:
        gap = gcd(gap, e - low)
    power, step, at = raise_to(z, low), raise_to(z, gap), low
    table = {}
    for e in exps:
        while at < e:
            power, at = mul(power, step), at + gap
        table[e] = power
    return table


X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# One token after optional whitespace (\s is exactly str.isspace()): a
# number (\d is exactly the decimal digits int() reads) with its '/den' or
# '.digits' part and the symbol written right after it, a symbol or ')', any
# other character, or nothing at the end of the text. After a symbol or ')'
# it also takes the power '^' or '**' and the digits of the exponent. The
# groups: 1 token, 2 whole, 3 denominator, 4 decimals, 5 juxtaposed symbol,
# 6 exponent. A token is only checked when it is used, so the first error in
# text order is the one reported.
_TOKEN = re.compile(
    r"\s*((\d+)(?:/(\d*)|\.(\d*))?([XYi])?|[XYi)]|.|)"
    r"(?:(?<=[XYi)])\s*(?:\^|\*\*)\s*(\d*))?"
)

_I_POWERS = (GQ_ONE, GQ_I, -GQ_ONE, -GQ_I)


def _times(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return a if b is GQ_ONE else b if a is GQ_ONE else a * b


def _size(value) -> int:
    """Number of terms of a term value: a dict, or a monomial (c, i, j)."""
    if type(value) is dict:
        return len(value)
    return 0 if value[0].is_zero else 1


def _as_value(terms: dict):
    """A term value: the monomial (c, i, j) when terms has at most one entry."""
    if len(terms) > 1:
        return terms
    for (i, j), c in terms.items():
        return c, i, j
    return GQ_ZERO, 0, 0


class _Parser:
    """Recursive descent over _TOKEN matches, one token read ahead.

    A term is carried as one monomial (c, i, j) while its factors are
    monomials; only a parenthesized group of more than one term makes it a
    dict {(i, j): c}. The terms of a sum are added into one dict.
    """

    def __init__(self, text: str):
        self.text = text
        self.depth = 0
        self.saw_decimal = False
        self.tok = _TOKEN.match(text)

    def advance(self):
        self.tok = _TOKEN.match(self.text, self.tok.end())

    def parse(self) -> BivarPoly:
        if not self.tok[1]:
            raise EmptyInputError()
        terms = self.poly()
        tok = self.tok
        if tok[1]:
            raise ParseError(f"unexpected input {tok[1][0]!r}", tok.start(1))
        self.limit_bits(_coeff_bits(terms.values()), "coefficient of", 0)
        return BivarPoly(terms, MODE_NUMERIC if self.saw_decimal else MODE_EXACT)

    def poly(self) -> dict:
        op = self.tok[1]
        negate = op == "-"
        if negate or op == "+":
            self.advance()
        terms = {}
        while True:
            start = self.tok.start(1)
            self.add(terms, start, self.term(), negate)
            op = self.tok[1]
            if op != "+" and op != "-":
                return terms
            negate = op == "-"
            self.advance()

    def add(self, terms: dict, start: int, value, negate: bool):
        if type(value) is dict:
            items = value.items()
        elif value[0].is_zero:
            return
        else:
            items = (((value[1], value[2]), value[0]),)
        shared = False
        for key, c in items:
            if negate:
                c = -c
            old = terms.get(key)
            if old is None:
                terms[key] = c
                continue
            shared = True
            s = old + c
            if s.is_zero:
                del terms[key]
            else:
                terms[key] = s
        if shared:
            # the term shares a monomial with the sum: check the coefficients it changed
            bits = _coeff_bits(terms.get(key, GQ_ZERO) for key, _ in items)
            self.limit_bits(bits, "sum with coefficients of", start)

    def limit_degree(self, degree: int, what: str, position: int):
        if degree > MAX_DEGREE:
            raise ParseError(f"{what} {degree} exceeds the limit {MAX_DEGREE}", position)

    def limit_bits(self, bits: int, what: str, position: int):
        if bits > MAX_COEFF_BITS:
            raise ParseError(f"{what} {bits} bits exceeds the limit {MAX_COEFF_BITS} bits",
                             position)

    def limit_work(self, a: int, b: int, position: int):
        if a * b > MAX_PRODUCT_WORK:
            raise ParseError(f"product of {a} by {b} terms exceeds "
                             f"the limit {MAX_PRODUCT_WORK} term pairs", position)

    def product(self, a: BivarPoly, b: BivarPoly, position: int) -> BivarPoly:
        self.limit_work(len(a.terms), len(b.terms), position)
        return a * b

    def term(self):
        start = self.tok.start(1)
        value, degree, _, juxt = self.factor()
        while True:
            if juxt is not None:
                # a symbol written right after a number literal
                f, f_degree = self.symbol(juxt[5], juxt)
                symbol, juxt = True, None
            elif self.tok[1] == "*":
                self.advance()
                f, f_degree, symbol, juxt = self.factor()
            else:
                return value
            degree += f_degree
            self.limit_degree(degree, "degree", start)
            value = self.multiply(value, f, start)
            # a unit monomial (X^a, Y^b, i^c) leaves coefficient sizes alone
            if not symbol:
                coeffs = value.values() if type(value) is dict else (value[0],)
                self.limit_bits(_coeff_bits(coeffs), "product with coefficients of", start)

    def multiply(self, a, b, position: int):
        if type(a) is tuple and type(b) is tuple:
            return _times(a[0], b[0]), a[1] + b[1], a[2] + b[2]
        self.limit_work(_size(a), _size(b), position)
        if type(a) is dict and type(b) is dict:
            return _as_value((BivarPoly(a) * BivarPoly(b)).terms)
        (c, di, dj), poly = (b, a) if type(b) is tuple else (a, b)
        if c.is_zero:
            return GQ_ZERO, 0, 0
        return {(i + di, j + dj): _times(v, c) for (i, j), v in poly.items()}

    def factor(self):
        """(value, total degree, whether a symbol, the token of a juxtaposed symbol)."""
        tok = self.tok
        ch = tok[1]
        if tok[2] is not None:
            self.advance()
            return (self.number(tok), 0, 0), 0, False, tok if tok[5] else None
        if ch == "X" or ch == "Y" or ch == "i":
            self.advance()
            value, degree = self.symbol(ch, tok)
            return value, degree, True, None
        if ch == "(":
            start = tok.start(1)
            if self.depth == MAX_NESTING:
                raise ParseError("nesting too deep", start)
            self.depth += 1
            self.advance()
            inner = self.poly()
            tok = self.tok
            if tok[1] != ")":
                raise ParseError("expected ')'", tok.start(1))
            self.depth -= 1
            self.advance()
            e = self.exponent(tok)
            value = _as_value(inner)
            degree = max(map(sum, inner), default=0)
            if e is None:
                return value, degree, False, None
            self.limit_degree(degree * e, "degree", start)
            # estimate: a coefficient of inner**e sums at most terms**e
            # products of e coefficients of inner
            bits = e * (_coeff_bits(inner.values()) + len(inner).bit_length())
            self.limit_bits(bits, "power with coefficients of up to", start)
            if type(value) is tuple:
                c, i, j = value
                value = c**e, i * e, j * e
            else:
                expanded = power(BivarPoly(inner), e, BivarPoly.constant(1),
                                 lambda a, b: self.product(a, b, start))
                value = _as_value(expanded.terms)
            return value, degree * e, False, None
        if not ch:
            raise ParseError("unexpected end of input", tok.start(1))
        raise ParseError(f"expected 'X', 'Y', 'i', a number, or '(', got {ch!r}",
                         tok.start(1))

    def symbol(self, ch: str, tok) -> tuple:
        """The monomial of X, Y or i with the exponent of tok, and its degree."""
        e = self.exponent(tok)
        e = 1 if e is None else e
        if ch == "X":
            return (GQ_ONE, e, 0), e
        if ch == "Y":
            return (GQ_ONE, 0, e), e
        return (_I_POWERS[e % 4], 0, 0), 0

    def exponent(self, tok) -> int | None:
        digits = tok[6]
        if digits is None:
            return None
        start = tok.start(6)
        if not digits:
            if self.text.startswith("-", start):
                raise NegativeExponentError(start)
            raise ParseError("expected an unsigned integer exponent", start)
        e = self.uint(digits, start)
        self.limit_degree(e, "exponent", start)
        return e

    def uint(self, digits: str, start: int) -> int:
        # past its first digit a number gains over 3 bits a digit: refuse a
        # longer string unconverted (the result check sees the rest)
        if len(digits) > MAX_COEFF_BITS // 3:
            raise ParseError(f"number of {len(digits)} digits exceeds the limit "
                             f"{MAX_COEFF_BITS} bits", start)
        return int(digits)

    def number(self, tok) -> GaussianRational:
        whole = self.uint(tok[2], tok.start(2))
        den = tok[3]
        if den is not None:
            start = tok.start(3)
            if not den:
                raise ParseError("expected a denominator", start)
            den = self.uint(den, start)
            if den == 0:
                raise ParseError("zero denominator", start)
            return _make(whole, 0, den)
        decimals = tok[4]
        if decimals is not None:
            start = tok.start(4)
            if not decimals:
                raise ParseError("expected digits after the decimal point", start)
            fraction = self.uint(decimals, start)
            self.saw_decimal = True
            scale = 10 ** len(decimals)
            return _make(whole * scale + fraction, 0, scale)
        return _make(whole, 0, 1)


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
