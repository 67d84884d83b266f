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

The parser is a recursive descent, but it reads each flat term of a sum
(_FLAT: an optional number or Gaussian group "(r + s*i)", then X^a and
Y^b, followed by the end of the sum) with one match, to the monomial the
descent would read. Every other term, and every flat term over a limit or
in error, goes through the descent, so the errors, their messages and
positions are those of the descent alone.
"""

from __future__ import annotations

import operator
import re
from itertools import accumulate, repeat
from math import gcd, lcm

from .errors import EmptyInputError, NegativeExponentError, ParseError
from .exact import (GQ_I, GQ_ONE, GQ_ZERO, GaussianRational, Record, _gaussian_mul, _integral,
                    _make, _taylor_shift, format_terms, power, power_str)

MODE_EXACT = "exact"
MODE_NUMERIC = "numeric"

# Each parenthesis level takes three parser frames; 200 levels stay well
# inside Python's default recursion limit of 1000 frames.
MAX_NESTING = 200

# Bound on every exponent and on the total degree of every product and
# power, checked before expanding; the cost of expansion and of the ladder
# grows with the degree, while the largest degree is 74 in the benchmark
# corpora and 300 in the tests, apart from those of the limits.
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

        It runs over Z[i], on the terms of self split into runs over a
        common denominator D (_denominator_runs), in one of two ways:

        - weighted images, X -> alpha*X and Y -> beta*Y + gamma*X^q with q
          >= 1 and any of alpha, beta, gamma zero, the images of witnesses
          and shears: one weighted line i + q*j = w of a run at a time
          (_substitute_weighted), by a Taylor shift of the line by gamma;
        - any other images: each term expanded into the products of the
          images' powers (_substitute_general).

        Where the images of several runs meet on a term, they add over the
        lcm of their denominators. Each coefficient of the result is
        reduced once. The result's mode joins the three modes; the zero
        polynomial keeps its own.
        """
        if not self.terms:
            return BivarPoly({}, self.mode)
        weighted = _weighted_images(x_image.terms, y_image.terms)
        if weighted is None:
            out = _substitute_general(self.terms, x_image.terms, y_image.terms)
        else:
            out = _substitute_weighted(self.terms, *weighted)
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


def _add_fraction(out: dict, key, x: int, y: int, den: int):
    """Add (x + y*i)/den to out[key], a triple (x0, y0, d0), over the lcm of d0 and den."""
    old = out.get(key)
    if old is None:
        out[key] = x, y, den
        return
    x0, y0, d0 = old
    common = lcm(d0, den)
    u, v = common // d0, common // den
    out[key] = x0 * u + x * v, y0 * u + y * v, common


def _substitute_general(terms: dict, x_terms: dict, y_terms: dict) -> dict:
    """{(i, j): (x, y, den)}, the image of terms under X -> x_terms, Y -> y_terms.

    The images are cleared of denominators by their lcms, A/dx and B/dy.
    The image of a run (sum f_ij X^i Y^j)/D is (sum f_ij dx^(I-i) dy^(J-j)
    A^i B^j)/L with L = D*dx^I*dy^J, I and J the run's top exponents of X
    and Y: the power tables of A and B and every product and sum are
    Gaussian-integer term dicts.
    """
    x_den, x_ints = _integral_terms(x_terms)
    y_den, y_ints = _integral_terms(y_terms)
    xp = power_table(x_ints, {i for i, _ in terms}, _gi_power, _gi_mul)
    yp = power_table(y_ints, {j for _, j in terms}, _gi_power, _gi_mul)
    out = {}
    for run in _denominator_runs(terms):
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
            _add_fraction(out, key, x, y, den)
    return out


def _weighted_images(x_terms: dict, y_terms: dict):
    """(alpha, beta, gamma, q) for images X -> alpha*X, Y -> beta*Y +
    gamma*X^q with q >= 1 (1 when gamma is 0), else None."""
    if not x_terms.keys() <= {(1, 0)}:
        return None
    shear = [key for key in y_terms if key != (0, 1)]
    if len(shear) > 1:
        return None
    q, j = shear[0] if shear else (1, 0)
    if j or not q:
        return None
    return (x_terms.get((1, 0), GQ_ZERO), y_terms.get((0, 1), GQ_ZERO),
            y_terms.get((q, 0), GQ_ZERO), q)


def _substitute_weighted(terms: dict, alpha: GaussianRational, beta: GaussianRational,
                         gamma: GaussianRational, q: int) -> dict:
    """{(i, j): (x, y, den)}, the image of terms under X -> alpha*X, Y ->
    beta*Y + gamma*X^q, one weighted line of a run at a time.

    X^i*(beta*Y + gamma*X^q)^j lies on the line i + q*j = w of X^i*Y^j.
    With s = Y/X^q, a line's terms sum_j c_j X^(w - q*j) Y^j, c_j =
    f_ij*alpha^i, map to X^w*P(beta*s + gamma), P(t) = sum c_j t^j. With
    P(t + gamma) = sum s_k t^k, that is the sum of s_k*beta^k X^(w - q*k)
    Y^k. So a line is scaled term by term by alpha^i, Taylor-shifted by
    gamma (exact._taylor_shift; no shift when gamma is 0) and scaled at
    t^k by beta^k, and the lines of a run meet on no term.

    Over Z[i], with the run's ints F_ij/D, alpha = a/da, beta = b/db and
    gamma = u/v: P = (sum F_ij a^i da^(I-i) t^j)/L, L = D*da^I and I the
    line's top exponent of X, and the coefficient of X^(w - q*k) Y^k is
    s_k*b^k/(L*v^(n-k)*db^k), n the line's top exponent of Y. A scalar 1
    is not multiplied by.
    """
    a_pow = None
    if alpha != GQ_ONE:
        a_pow = power_table((alpha.a, alpha.b), {i for i, _ in terms}, _gaussian_power,
                            _gaussian_mul)
    b_pow = db_pow = None
    if beta != GQ_ONE:
        top_j = max(j for _, j in terms)
        b_pow = list(accumulate(repeat((beta.a, beta.b), top_j), _gaussian_mul, initial=(1, 0)))
        db_pow = list(accumulate(repeat(beta.d, top_j), operator.mul, initial=1))
    shear = not gamma.is_zero
    out = {}
    for run in _denominator_runs(terms):
        den, ints = _integral_terms(run)
        lines = {}
        for (i, j), z in ints.items():
            lines.setdefault(i + q * j, {})[j] = z
        for w, line in lines.items():
            # {j: c_j} over L
            line_den = den
            if a_pow is not None:
                top = w - q * min(line)
                line_den *= alpha.d**top
                for j, (x, y) in line.items():
                    (ar, ai), lift = a_pow[w - q * j], alpha.d ** (top - w + q * j)
                    line[j] = (x * ar - y * ai) * lift, (x * ai + y * ar) * lift
            if shear:
                n = max(line)
                shifted, v_pow = _taylor_shift([line.get(j, (0, 0)) for j in range(n, -1, -1)],
                                               gamma)
                image = [(k, x, y, line_den * v_pow[n - k])
                         for k, (x, y) in enumerate(shifted) if x or y]
            else:
                image = [(j, x, y, line_den) for j, (x, y) in line.items()]
            for k, x, y, d in image:
                if b_pow is not None:
                    (br, bi), d = b_pow[k], d * db_pow[k]
                    x, y = x * br - y * bi, x * bi + y * br
                _add_fraction(out, (w - q * k, k), x, y, d)
    return out


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


def _gaussian_power(z: tuple, n: int) -> tuple:
    return power(z, n, (1, 0), _gaussian_mul)


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

# A flat term, matched where a term starts and only when the next token ends
# the sum ('+', '-', ')' or the end of the text): an optional coefficient,
# then X^a and Y^b, each optional, with '*' between the parts present. The
# coefficient is a number or a Gaussian group "(r + s*i)" or "(r+si)", the
# forms that bench/corpus.py and format_coefficient print. The groups:
# 1 (c) coefficient, 2-4 number (whole, denominator, decimals), 5 sign of r,
# 6-8 r, 9 sign of s, 10-12 s, 13 (x) X, 14 a, 15 Y, 16 b.
_NUMBER = r"(\d+)(?:/(\d+)|\.(\d+))?"
_POWER = r"(?:\s*(?:\^|\*\*)\s*(\d+))?"
_FLAT = re.compile(
    rf"(?=[\d(XY])(?P<c>{_NUMBER}|\(\s*(?:([-+])\s*)?{_NUMBER}\s*([-+])\s*{_NUMBER}"
    r"(?:\s*\*\s*)?i\s*\))?"
    rf"(?:(?(c)\s*\*\s*)(?P<x>X){_POWER})?"
    rf"(?:(?(c)\s*\*\s*|(?(x)\s*\*\s*))(Y){_POWER})?"
    r"(?=\s*(?:[-+)]|\Z))"
)

# past its first digit a number gains over 3 bits a digit: a longer digit
# string is refused unconverted (the result check sees the rest)
_MAX_DIGITS = MAX_COEFF_BITS // 3
# an exponent string this wide can hold MAX_DEGREE
_EXPONENT_DIGITS = len(str(MAX_DEGREE))

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


def _ratio(whole: str, den: str | None, decimals: str | None):
    """(numerator, denominator) of a number literal; None where _Parser.number would raise."""
    if len(whole) > _MAX_DIGITS:
        return None
    if den is not None:
        d = len(den) <= _MAX_DIGITS and int(den)
        return (int(whole), d) if d else None
    if decimals is None:
        return int(whole), 1
    if len(decimals) > _MAX_DIGITS:
        return None
    scale = 10 ** len(decimals)
    return int(whole) * scale + int(decimals), scale


class _Parser:
    """Recursive descent over _TOKEN matches, one token read ahead.

    A term is carried as one monomial (c, i, j) while its factors are
    monomials; only a parenthesized group of more than one term makes it a
    dict {(i, j): c}. The terms of a sum are added into one dict; flat()
    reads a term first, and term() the terms it declines.
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
            self.add(terms, start, self.flat(start) or self.term(), negate)
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

    def flat(self, start: int):
        """The monomial (c, i, j) of a flat term (_FLAT) at start, read as
        term() reads it, with the tokens after it; None, having read
        nothing, where the term is not flat or term() would raise on it."""
        m = _FLAT.match(self.text, start)
        if m is None:
            return None
        _, n, nd, nf, rs, r, rd, rf, ss, s, sd, sf, x, a, y, b = m.groups()
        if r is not None:
            # the group's sum as poly() adds it: r, then s*i
            real, imag = _ratio(r, rd, rf), _ratio(s, sd, sf)
            if real is None or imag is None or self.depth == MAX_NESTING:
                return None
            (p, q), (u, v) = real, imag
            c = _make(-p * v if rs == "-" else p * v, -u * q if ss == "-" else u * q, q * v)
        elif n is not None:
            ratio = _ratio(n, nd, nf)
            if ratio is None:
                return None
            c = _make(ratio[0], 0, ratio[1])
        else:
            c = GQ_ONE
        if len(a or "") > _EXPONENT_DIGITS or len(b or "") > _EXPONENT_DIGITS:
            return None
        i = 0 if x is None else 1 if a is None else int(a)
        j = 0 if y is None else 1 if b is None else int(b)
        if i + j > MAX_DEGREE or _coeff_bits((c,)) > MAX_COEFF_BITS:
            return None
        if nf is not None or rf is not None or sf is not None:
            self.saw_decimal = True
        self.tok = _TOKEN.match(self.text, m.end())
        return c, i, j

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
        if len(digits) > _MAX_DIGITS:
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
