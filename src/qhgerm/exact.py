"""Exact arithmetic kernel: Gaussian rationals and univariate polynomials.

A Gaussian rational is stored as three ints (a, b, d) meaning (a + b*i)/d,
normalized so that d > 0 and gcd(a, b, d) = 1; equal values therefore have
equal triples. Each arithmetic result is reduced with one gcd of its three
ints (none when d = 1), so no fractions.Fraction is built on the arithmetic
path. The real and imaginary parts are read back as reduced Fractions.
Everything in this module is immutable and pure.

UniPoly.squarefree_parts runs Yun's method modulo primes p = 1 (mod 4),
where i maps to either square root of -1 mod p, and rebuilds the factors
over Q(i) by CRT and rational reconstruction. It returns them only once
their product equals the input exactly, a check over Z[i] that certifies
the split; no Euclidean gcd over Q(i) is taken.

The exact route's k-th roots are here too, on integers only: integer_root,
_complex_root (one branch, mpmath's rule, in Gaussian fixed point), and on
them _exact_root and _gaussian_roots, which find Gaussian-rational roots,
and _is_radical_product, which proves that a Gaussian rational equals a
product of powers of such roots (the certificate of radical witnesses);
its one side effect is on the cache of roots its caller passes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import atan2, cos, floor, gcd, hypot, isqrt, lcm, ldexp, log2, sin, tau
from operator import mul

from .errors import ZeroPolynomialError


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_set = object.__setattr__


class Record:
    """Immutable record whose fields are the __slots__ of its class.

    A record is built from its fields, positionally or by keyword. Two
    records are equal when they are of the same class and their keys (the
    tuple of all fields, unless a class compares fewer) are equal, and a
    record hashes as its key. Pickling and copying rebuild it from its fields.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            # the keyword fields in field order; one missing leaves args short
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    # the fields that equality and hashing compare; a class may compare fewer
    _key = _fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        return f"{type(self).__name__}(" + ", ".join(f"{n}={v!r}" for n, v in pairs) + ")"


class GaussianRational(Record):
    """An element (a + b*i)/d of the field Q(i), with d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        ra, rd = _ratio(re)
        ia, id_ = _ratio(im)
        if rd == id_:
            d = rd
        else:
            # d = lcm of the reduced denominators; gcd(a, b, d) is then 1
            d = rd // gcd(rd, id_) * id_
            ra *= d // rd
            ia *= d // id_
        _set_a(self, ra)
        _set_b(self, ia)
        _set_d(self, d)

    @staticmethod
    def of(value, im: int | Fraction = 0) -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational; optional imaginary part."""
        if isinstance(value, GaussianRational):
            if im:
                raise ValueError("cannot add an imaginary part to a GaussianRational")
            return value
        return GaussianRational(value, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        return not self.b

    def __reduce__(self):
        return _make, (self.a, self.b, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def conjugate(self) -> "GaussianRational":
        return _new_triple(self.a, -self.b, self.d)

    def norm_sq(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _make(a * d, -b * d, n)

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _make(self.a - other.a, self.b - other.b, d)
        return _make(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return _new_triple(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            return _make(a * c, 0, self.d * other.d)
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, GQ_ONE)

    def __str__(self) -> str:
        if not self.b:
            return str(self.re)
        im = self.im
        if not self.a:
            return f"{im}i"
        sign = "+" if im >= 0 else "-"
        return f"{self.re}{sign}{abs(im)}i"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__
_new = object.__new__


def _new_triple(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already normalized."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced by the one gcd of the triple."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _new_triple(a, b, d)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _new_triple(x, 0, 1)
    if isinstance(x, Fraction):
        return _new_triple(x.numerator, 0, x.denominator)
    return NotImplemented


GQ_ZERO = GaussianRational()
GQ_ONE = GaussianRational(1)
GQ_I = GaussianRational(0, 1)


def gq(re, im: int | Fraction = 0) -> GaussianRational:
    """Shorthand constructor, accepting ints and Fractions."""
    return GaussianRational.of(re, im)


def power(base, exponent: int, one, multiply=mul):
    """base**exponent for exponent >= 0 by repeated squaring from one.

    Each product is multiply(a, b), a * b by default.
    """
    result = one
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        # no square after the last bit: it is the largest product, unused
        if exponent:
            base = multiply(base, base)
    return result


def integer_root(n: int, k: int) -> int | None:
    """The k-th root of n >= 0 when n is the k-th power of an integer, else None."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
    if n < 2:
        return n
    if k >= n.bit_length():
        # 1 < n < 2^k lies strictly between two consecutive k-th powers
        return None
    x = _floor_root(n, k)
    return x if x**k == n else None


def _floor_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's iteration on integers.

    From any start at or above the root, x -> ((k-1)*x + n // x^(k-1)) // k
    falls to the floor of the k-th root and stops there (Cohen, section
    1.7.1). A root of up to 40 bits starts from 2^(log2(n)/k) in floating
    point, raised by 2^-20 of itself and by 2, more than its rounding error.
    A larger one starts from (floor(m^(1/k)) + 1)*2^s, m = n >> k*s, for s
    half its bits: that is above the root by a relative 2^-s or so, so a
    few steps at full size finish it.
    """
    bits = n.bit_length()
    if (bits - 1) // k >= 40:
        s = ((bits - 1) // k + 1) // 2
        x = (_floor_root(n >> k * s, k) + 1) << s
    else:
        shift = max(bits - 64, 0)
        x = int(2.0 ** ((log2(n >> shift) + shift) / k))
        x += (x >> 20) + 2
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _complex_root(a: int, b: int, d: int, k: int, branch: int, prec: int) -> tuple[int, int]:
    """The branch-th k-th root r of (a + b*i)/d != 0, times 2^prec, as two
    ints within distance 1 of 2^prec*r, for d >= 1 and 1 <= k < 2^40.

    Branch b has argument (Arg + 2*pi*b)/k, Arg in (-pi, pi], as mpmath's
    root. With 2^(e-1) <= |r| < 2^(e+1), a point z = r*(1 + h) is held as
    a Gaussian integer in units 2^(e - p) at precision p, and Newton's step
    z -> z + (t/z^(k-1) - z)/k for z^k = t takes |h| = eps to at most
    2*k*eps^2 + 2^(3-p): 2*k*eps^2 when k*eps <= 1/4, and 3 units of floor
    rounding, as z^(k-1) is kept to 13 bits more than p (its 2*k.bit_length()
    truncating multiplies err by 2^-(p+4) or less). So eps <= 2^-a before a
    step at precision p <= 2*a - k.bit_length() + 2 gives eps <= 2^(4-p)
    after it. The start, from doubles with e read off the bit lengths, has
    eps <= 2^-44, and the precision about doubles from step to step up to
    P = prec + e + 8, where 2^(4-P)*|r| is 1/8 unit of 2^-prec; rounding
    away the 8 bits adds at most 1/sqrt(2).
    """
    kbits = k.bit_length()
    if kbits > 40:
        raise ValueError("_complex_root needs k < 2^40")
    # log2|t| = shift + log2(hypot(a_, b_)/d_), with a_, b_ and d_ the top
    # 60 bits, and e = floor(log2|t|/k) kept apart from the fraction
    s = max(max(a.bit_length(), b.bit_length()) - 60, 0)
    sd = max(d.bit_length() - 60, 0)
    shift = s - sd
    x = (shift % k + log2(hypot(a >> s, b >> s)) - log2(d >> sd)) / k
    e = shift // k + floor(x)
    size = 2.0 ** (x - floor(x))
    # floor shifts keep a negative b below zero, so Arg stays on its side of the cut
    angle = (atan2(b >> s, a >> s) + tau * branch) / k
    precs = [max(prec + e + 8, 48)]
    while precs[-1] > 90 - kbits:
        precs.append((precs[-1] + kbits + 7) // 2)
    precs.reverse()
    zre, zim = int(ldexp(size * cos(angle), precs[0])), int(ldexp(size * sin(angle), precs[0]))
    for last, p in zip(precs[:1] + precs, precs):
        zre, zim = zre << p - last, zim << p - last

        # (re + im*i)*2^exp triples, cut back to p + 13 bits
        def multiply(u, v, width=p + 13):
            re, im = u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]
            cut = max(re.bit_length(), im.bit_length()) - width
            return (re >> cut, im >> cut, u[2] + v[2] + cut) if cut > 0 else (re, im, u[2] + v[2])

        wre, wim, we = power((zre, zim, e - p), k - 1, (1, 0, 0), multiply)
        # t/z^(k-1) in units 2^(e - p)
        nre, nim, den = a * wre + b * wim, b * wre - a * wim, d * (wre * wre + wim * wim)
        up = p - e - we
        if up >= 0:
            nre, nim = nre << up, nim << up
        else:
            den <<= -up
        zre += (nre // den - zre) // k
        zim += (nim // den - zim) // k
    cut = p - e - prec
    half = 1 << cut - 1
    return (zre + half) >> cut, (zim + half) >> cut


def _exact_root(
    value: GaussianRational, k: int, first: int, count: int = 1
) -> GaussianRational | None:
    """The first Gaussian-rational k-th root of value on branches first,
    first + 1, ..., first + count - 1, or None. Zero is its own root.

    Norm test: a root g has N(g)^k = N(value), so the numerator and the
    denominator of the reduced norm (a^2 + b^2)/d^2 must both be k-th powers
    of integers. When one is not, no branch holds a root, and no root is
    computed.

    Write value = A/n with A in Z[i] and n = value.d. A root g has
    (g*n)^k = A*n^(k-1) in Z[i], and Z[i] is integrally closed, so g*n is a
    Gaussian integer: the numeric root times n, rounded, is the only
    candidate, and an exact k-th power decides it. The precision comes from
    the value alone: |g*n| < 2^bits, and prec = bits + 64 + k.bit_length().

    Branch scan in fixed point: z = root*n and the step e^(2*pi*i/k) are
    Gaussian integers scaled by 2^prec. _complex_root gives the root at
    prec - lift bits, |root| < 2^lift, to within 1 unit; times n*2^lift, z is
    within n*2^lift <= 2^bits units of 2^prec*root*n. It gives the step to
    within 1 unit. Each step multiplies by the scaled step and shifts back
    by prec bits with rounding: the step's error times |z| < 2^bits, plus
    the rounding, adds less than 2^(bits+1) units. Over the
    count <= k < 2^k.bit_length() candidates the error stays below
    (2*k + 1)*2^bits units, that is 2^-62, far below 2^-32: a true root lies
    within 2^-32 of its rounding, so none is missed, and a farther candidate
    is rejected unpowered.
    """
    if value.is_zero:
        return value
    norm = value.norm_sq()
    if integer_root(norm.numerator, k) is None or integer_root(norm.denominator, k) is None:
        return None
    n = value.d
    top = max(abs(value.a).bit_length(), abs(value.b).bit_length()) + 1
    lift = -(-top // k)
    bits = lift + n.bit_length()
    prec = bits + 64 + k.bit_length()
    re, im = _complex_root(value.a, value.b, n, k, first, prec - lift)
    re, im = (re * n) << lift, (im * n) << lift
    sre, sim = _complex_root(1, 0, 1, k, 1, prec) if count > 1 else (1 << prec, 0)
    half = 1 << (prec - 1)
    near = 1 << 2 * (prec - 32)
    for _ in range(count):
        gre, gim = (re + half) >> prec, (im + half) >> prec
        dre, dim = re - (gre << prec), im - (gim << prec)
        if dre * dre + dim * dim <= near:
            g = _make(gre, gim, n)
            if g**k == value:
                return g
        re, im = (re * sre - im * sim + half) >> prec, (re * sim + im * sre + half) >> prec
    return None


def _gaussian_roots(value: GaussianRational, k: int) -> list:
    """All Gaussian-rational k-th roots of value, in branch order.

    Two such roots differ by a k-th root of unity in Q(i), that is by a unit
    u of Z[i] with u^k = 1: 1 alone for odd k, +-1 for k = 2 mod 4, all four
    units for k = 0 mod 4. Multiplying by a unit moves a root k/count
    branches on, so the first k/count branches hold the lowest rational
    root if there is one, and its unit multiples follow in branch order.
    """
    if k == 1:
        return [value]
    count = 4 if k % 4 == 0 else 2 if k % 2 == 0 else 1
    g = _exact_root(value, k, 0, k // count)
    if g is None:
        return []
    return [g * u for u in (GQ_ONE, GQ_I, -GQ_ONE, -GQ_I)[:: 4 // count]]


def _unit_root(base: GaussianRational, k: int, branch: int, bits: int) -> tuple[int, int, int]:
    """(re, im, s) for the branch-th k-th root rho of base != 0: re + im*i is
    within distance 1 of 2^bits*x, where x = 2^s*rho and 1 <= |x| < 2^4.

    With M the larger bit length of base's parts and n that of its
    denominator, M - 1 - n < log2|base| < M - n + 3/2. So s = -floor((M - 1
    - n)/k) puts log2|x| = log2|base|/k + s in (0, 1 + 5/(2k)), and
    2^bits*x = 2^(bits + s)*rho is _complex_root's at bits + s.
    """
    a, b, d = base.a, base.b, base.d
    s = -((max(abs(a).bit_length(), abs(b).bit_length()) - 1 - d.bit_length()) // k)
    return (*_complex_root(a, b, d, k, branch, bits + s), s)


def _is_radical_product(r: GaussianRational, factors, bits: int, roots: dict) -> bool:
    """Whether r = prod rho^e over factors ((base, k, branch), e), rho the
    branch-th k-th root of a Gaussian rational base (k = 1 for base itself);
    a proof, with no tolerance.

    A factor with e = 0 is 1. A zero rho makes the product 0 for e > 0 and
    undefined for e < 0. Otherwise rho^e = base^(e // k)*rho^(e % k): the
    whole powers move onto r, and 0 <= e < k is left. If no factor is left,
    r must be 1. Else, with L = lcm(k), rho^L = base^(L/k) gives the
    identity r^L = prod base^(e*L/k), checked over Z[i] with denominators
    cleared; it holds iff r/prod rho^e is an L-th root of unity zeta.

    The pin proves zeta = 1. Distinct L-th roots of unity lie 2*sin(pi/L)
    >= 4/L apart (L >= 2). _unit_root gives each x = 2^s*rho, |x| >= 1, at
    b >= bits bits, with 2^b > 2*E*L, E = sum(e): each to a relative 2^-b,
    so P = prod z^e is 2^(b*E)*prod x^e to a relative (1 + 2^-b)^E - 1 <=
    2*E*2^-b < 1/L. With T = r*2^(sum e*s) = zeta*prod x^e, |T*2^(b*E) - P|
    is below |T|*2^(b*E)/L when zeta = 1 and above 3*|T|*2^(b*E)/L when not;
    the test is against twice that. roots caches the enclosures by
    (base, k, branch, b), so one b for all of a witness's checks (bits)
    takes each root once.
    """
    live = [(rho, e) for rho, e in factors if e]
    if any(base.is_zero for (base, _, _), _ in live):
        return r.is_zero and all(e > 0 for (base, _, _), e in live if base.is_zero)
    if r.is_zero:
        return False
    kept = []
    for (base, k, branch), e in live:
        whole, e = divmod(e, k)
        if whole:
            r = r / base**whole
        if e:
            kept.append((base, k, branch, e))
    if not kept:
        return r == GQ_ONE
    order = lcm(*(k for _, k, _, _ in kept))
    left, right = power((r.a, r.b), order, (1, 0), _gaussian_mul), (r.d**order, 0)
    for base, k, _, e in kept:
        f = e * order // k
        den = base.d**f
        left = (left[0] * den, left[1] * den)
        right = _gaussian_mul(right, power((base.a, base.b), f, (1, 0), _gaussian_mul))
    if left != right:
        return False
    total = sum(e for *_, e in kept)
    bits = max(bits, (2 * total * order).bit_length())
    pre, pim, shift = 1, 0, bits * total
    for base, k, branch, e in kept:
        key = (base, k, branch, bits)
        if key not in roots:
            roots[key] = _unit_root(base, k, branch, bits)
        zre, zim, s = roots[key]
        pre, pim = _gaussian_mul((pre, pim), power((zre, zim), e, (1, 0), _gaussian_mul))
        shift += e * s
    # T*2^(b*E) = (r.a + r.b*i)*2^shift/r.d against P, both times r.d
    ta, tb = r.a, r.b
    pre, pim = pre * r.d, pim * r.d
    if shift >= 0:
        ta, tb = ta << shift, tb << shift
    else:
        pre, pim = pre << -shift, pim << -shift
    return order * order * ((ta - pre) ** 2 + (tb - pim) ** 2) <= 4 * (ta * ta + tb * tb)


class UniPoly(Record):
    """Univariate polynomial over Q(i), coefficients stored degree-descending.

    The leading coefficient is nonzero; the zero polynomial is the empty
    tuple. coeffs[i] is the coefficient i levels below the top, which is
    the quantity the equivalence matchers work with directly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple = ()):
        _set_coeffs(self, coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "UniPoly":
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[0].is_zero:
            cs.pop(0)
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((GQ_ONE,))

    @staticmethod
    def monomial(degree: int, coeff=GQ_ONE) -> "UniPoly":
        c = GaussianRational.of(coeff)
        if c.is_zero:
            return UniPoly(())
        return UniPoly((c,) + (GQ_ZERO,) * degree)

    @staticmethod
    def from_roots(roots: Iterable) -> "UniPoly":
        """Monic polynomial with the given roots (with multiplicity)."""
        acc = UniPoly.one()
        for r in roots:
            acc = acc * UniPoly((GQ_ONE, -GaussianRational.of(r)))
        return acc

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def coeff_of_power(self, k: int) -> GaussianRational:
        """Coefficient of w^k."""
        d = self.degree
        if k < 0 or k > d:
            return GQ_ZERO
        return self.coeffs[d - k]

    def coeff_from_top(self, i: int) -> GaussianRational:
        """Coefficient i levels below the leading term, i.e. of w^(degree-i)."""
        if i < 0 or i >= len(self.coeffs):
            return GQ_ZERO
        return self.coeffs[i]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = (GQ_ZERO,) * (n - len(self.coeffs)) + self.coeffs
        b = (GQ_ZERO,) * (n - len(other.coeffs)) + other.coeffs
        return UniPoly.from_coeffs(x + y for x, y in zip(a, b))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly(())
        out = [GQ_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly.from_coeffs(out)

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        return power(self, exponent, UniPoly.one())

    def scale(self, c) -> "UniPoly":
        c = GaussianRational.of(c)
        if c.is_zero:
            return UniPoly(())
        return UniPoly(tuple(a * c for a in self.coeffs))

    def monic(self) -> tuple["UniPoly", GaussianRational]:
        """Split into (monic polynomial, leading coefficient)."""
        lead = self.leading
        return self.scale(lead.inverse()), lead

    def eval(self, z) -> GaussianRational:
        """Horner evaluation at an exact point."""
        z = GaussianRational.of(z)
        acc = GQ_ZERO
        for c in self.coeffs:
            acc = acc * z + c
        return acc

    def derivative(self) -> "UniPoly":
        d = self.degree
        if d <= 0:
            return UniPoly(())
        return UniPoly.from_coeffs(
            c * GaussianRational.of(d - i) for i, c in enumerate(self.coeffs[:-1])
        )

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Long division; coefficients live in a field so this is exact."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return UniPoly(()), self
        inv_lead = other.leading.inverse()
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [GQ_ZERO] * (dq + 1)
        for k in range(dq + 1):
            c = rem[k] * inv_lead
            if c.is_zero:
                continue
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return UniPoly.from_coeffs(quo), UniPoly.from_coeffs(rem[dq + 1 :])

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def squarefree_parts(self) -> list[tuple["UniPoly", int]]:
        """Split into [(factor, multiplicity)] with square-free monic factors.

        Pairwise-coprime factors, one per multiplicity level that actually
        occurs, in increasing multiplicity order; the product of
        factor**multiplicity is the monic part f of the polynomial. Root
        finding runs on the factors, where every root is simple.

        Yun's method runs modulo primes p = 1 (mod 4) that exceed the degree
        and divide no denominator of f, once for each of the two embeddings
        i -> s and i -> -s (s^2 = -1 mod p), whose images give the real and
        imaginary parts mod p. A gcd(f, f') of degree 0 mod p proves f
        square-free. Otherwise the images of the primes with the least gcd
        degree are combined by CRT and each real and imaginary part is
        rebuilt by rational reconstruction; a prime with a larger gcd degree
        merges roots (unlucky) and is dropped. A candidate is returned only
        when its product equals f exactly (_is_product), and that proves it:
        its factors reduce to Yun's output mod p, which is square-free and
        pairwise coprime, so they are too (von zur Gathen & Gerhard, Modern
        Computer Algebra, ch. 5-6, 14; Yun 1976).
        """
        if self.degree < 1:
            return []
        f, _ = self.monic()
        den, ints = _integral(f.coeffs)
        modulus, kept = 1, None
        for p, s in _primes():
            if den % p == 0:
                continue  # f has no image mod p
            inv = pow(den, -1, p)
            up = [(x + y * s) * inv % p for x, y in ints]
            gcd_degree, parts_up = _yun_mod(up, p)
            if not gcd_degree:
                return [(f, 1)]
            down = [(x - y * s) * inv % p for x, y in ints]
            parts_down = parts_up if down == up else _yun_mod(down, p)[1]
            # the shape fixes the gcd degree, so both embeddings share it
            shape = [(k, len(g)) for k, g in parts_up]
            if shape != [(k, len(g)) for k, g in parts_down]:
                continue  # unlucky: the two embeddings merge different roots
            if kept is None or gcd_degree < kept[0]:
                modulus, kept = 1, (gcd_degree, shape)
            elif gcd_degree > kept[0] or shape != kept[1]:
                continue  # unlucky: roots merge mod p
            # re = (up + down)/2 and im = (up - down)/(2s) mod p, coefficientwise
            half, half_s = (p + 1) // 2, pow(2 * s, -1, p)
            images = [
                ((u + v) * half % p, (u - v) * half_s % p)
                for (_, a), (_, b) in zip(parts_up, parts_down)
                for u, v in zip(a, b)
            ]
            if modulus == 1:
                residues = images
            else:
                # CRT: lift is 0 mod the old modulus and 1 mod p
                lift = modulus * pow(modulus, -1, p)
                residues = [
                    (x + (u - x) * lift, y + (v - y) * lift)
                    for (x, y), (u, v) in zip(residues, images)
                ]
            modulus *= p
            residues = [(x % modulus, y % modulus) for x, y in residues]
            candidate = _reconstruct(shape, residues, modulus)
            if candidate is not None and _is_product(candidate, den, ints):
                return candidate

    def shift(self, c) -> "UniPoly":
        """Taylor shift: the polynomial w -> P(w + c), computed exactly.

        It runs over Z[i]. With P = (sum P_k w^k)/D and c = u/v, u a
        Gaussian integer and v the denominator of c, R(t) = D*v^n*P(t/v) =
        sum P_k v^(n-k) t^k has Gaussian-integer coefficients, and
        R(t + u) = sum s_k t^k equals D*v^n*P(w + c) at t = v*w. Repeated
        synthetic division by u finds the s_k in integers, and the
        coefficient of w^k is s_k*v^k/(D*v^n) = s_k/(D*v^(n-k)), reduced
        once.
        """
        c = GaussianRational.of(c)
        if self.is_zero or c.is_zero:
            return self
        den, ints = _integral(self.coeffs)
        v, ur, ui = c.d, c.a, c.b
        # R degree-descending: the coefficient k levels below the top gains v^k
        powers = [1]
        for _ in ints[1:]:
            powers.append(powers[-1] * v)
        work = [(x * p, y * p) for (x, y), p in zip(ints, powers)]
        step = lambda s, x: (s[0] * ur - s[1] * ui + x[0], s[0] * ui + s[1] * ur + x[1])
        # pass k runs Horner's rule by u over the quotient that pass k - 1
        # left, and its last value, the remainder, is s_k
        shifted = []
        while work:
            work = list(accumulate(work, step))
            shifted.append(work.pop())
        # s_k, the coefficient of t^k, gives s_k/(D*v^(n-k)) for w^k
        coeffs = [_make(x, y, den * p) for (x, y), p in zip(shifted, reversed(powers))]
        return UniPoly.from_coeffs(reversed(coeffs))

    def __str__(self) -> str:
        return format_unipoly(self)


_set_coeffs = UniPoly.coeffs.__set__


def _integral(coeffs) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(x, y), ...]): coefficient k is (x_k + y_k*i)/D, D the lcm of the denominators.

    coeffs is read twice: a sequence or a dict view, not an iterator.
    """
    den = lcm(*[c.d for c in coeffs])
    return den, [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]


# Miller-Rabin with these bases decides primality of every n < 2^64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Whether the odd n, 37 < n < 2^64, is prime (deterministic Miller-Rabin)."""
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime(k: int) -> tuple[int, int]:
    """The k-th prime p = 1 (mod 4) below 2^62, counting down, and a square root of -1 mod p.

    Found on first use. Each exceeds the degree of any polynomial that fits
    in memory, so Yun's method is valid mod p.
    """
    p = _prime(k - 1)[0] - 4 if k else (1 << 62) - 3
    while not _is_prime(p):
        p -= 4
    c = 2  # the least quadratic nonresidue c gives c^((p-1)/4), a root of -1
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return p, pow(c, (p - 1) // 4, p)


def _primes():
    """(p, s) for the primes of _prime in order, without end."""
    k = 0
    while True:
        yield _prime(k)
        k += 1


def _divmod_mod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by the monic b over GF(p), coefficients degree-descending.

    The remainder keeps len(b) - 1 coefficients, not yet reduced mod p.
    """
    n = len(a) - len(b) + 1
    if n <= 0:
        return [], a
    r, tail = a[:], b[1:]
    m = len(tail)
    for k in range(n):
        c = r[k] = r[k] % p
        if c:
            r[k + 1 : k + 1 + m] = [x - c * y for x, y in zip(r[k + 1 : k + 1 + m], tail)]
    return r[:n], r[n:]


def _monic_mod(a: list, p: int) -> list:
    """a over GF(p) without its leading zeros, divided by its leading coefficient; [] for 0."""
    for k, x in enumerate(a):
        x %= p
        if x:
            inv = pow(x, -1, p)
            return [y * inv % p for y in a[k:]]
    return []


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p) of the monic a and any b (Euclid)."""
    b = _monic_mod(b, p)
    while b:
        a, b = b, _monic_mod(_divmod_mod(a, b, p)[1], p)
    return a


def _strip(a: list) -> list:
    """a without its leading zeros."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:]


def _derivative_mod(a: list, p: int) -> list:
    """The derivative over GF(p) of the monic a; p > deg a keeps its degree at deg a - 1."""
    n = len(a) - 1
    return [c * (n - k) % p for k, c in enumerate(a[:-1])]


def _minus_mod(a: list, b: list, p: int) -> list:
    """a - b over GF(p), without leading zeros."""
    n = len(a) - len(b)
    a, b = ([0] * -n + a, b) if n < 0 else (a, [0] * n + b)
    return _strip([(x - y) % p for x, y in zip(a, b)])


def _yun_mod(f: list, p: int) -> tuple[int, list]:
    """deg gcd(f, f') and the square-free parts [(k, g_k)] of the monic f over GF(p).

    p must exceed deg f. The g_k are monic, square-free and pairwise
    coprime with f = prod g_k^k; only the nonconstant ones are listed.
    """
    df = _derivative_mod(f, p)
    a = _gcd_mod(f, df, p)
    if len(a) == 1:
        return 0, [(1, f)]
    b = _divmod_mod(f, a, p)[0]
    d = _minus_mod(_divmod_mod(df, a, p)[0], _derivative_mod(b, p), p)
    parts = []
    k = 1
    while len(b) > 1:
        g = _gcd_mod(b, d, p)
        if len(g) > 1:
            parts.append((k, g))
        b = _divmod_mod(b, g, p)[0]
        d = _minus_mod(_divmod_mod(d, g, p)[0], _derivative_mod(b, p), p)
        k += 1
    return len(a) - 1, parts


def _rational(u: int, m: int) -> tuple[int, int] | None:
    """(n, d) with n = u*d (mod m), |n| and 0 < d at most sqrt(m/2), gcd(d, m) = 1; or None.

    Wang's rational reconstruction: the extended Euclidean sequence of
    (m, u) stops at the first remainder within the bound. Such a fraction
    is unique when it exists.
    """
    bound = isqrt(m >> 1)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(t1, m) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(shape: list, residues: list, m: int) -> list | None:
    """[(g_k, k)] over Q(i) from the (re, im) residues mod m of their coefficients, or None.

    shape lists (k, number of coefficients of g_k); the residues run
    through the coefficients of g_k in that order.
    """
    coeffs = []
    for x, y in residues:
        re, im = _rational(x, m), _rational(y, m)
        if re is None or im is None:
            return None
        d = lcm(re[1], im[1])
        coeffs.append(_make(re[0] * (d // re[1]), im[0] * (d // im[1]), d))
    parts, start = [], 0
    for k, size in shape:
        parts.append((UniPoly(tuple(coeffs[start : start + size])), k))
        start += size
    return parts


def _gaussian_mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _is_product(parts: list, den: int, ints: list) -> bool:
    """Whether prod g**k over parts [(g, k)] is exactly F/den, F given by _integral.

    Cleared of denominators (g = G/D_g), the claim is that the polynomial
    P = den * prod G^k - F * prod D_g^k over Z[i] is zero. Each
    coefficient of P has real and imaginary parts below
    B = den * prod |G|_1^k + max |F_j|_1 * prod D_g^k, where |.|_1 sums
    |x| + |y| over coefficients, so for 2^K > B, P(2^K) = 0 only when P = 0:
    the lowest nonzero coefficient of P would be a multiple of 2^K. Both
    sides are evaluated at 2^K as Gaussian integers.
    """
    cleared = [(_integral(g.coeffs), k) for g, k in parts]
    left_bound, right_bound = den, max(abs(x) + abs(y) for x, y in ints)
    for (d, coeffs), k in cleared:
        left_bound *= sum(abs(x) + abs(y) for x, y in coeffs) ** k
        right_bound *= d**k
    shift = (left_bound + right_bound).bit_length()
    left, scale = (den, 0), 1
    for (d, coeffs), k in cleared:
        left = _gaussian_mul(left, power(_at_power_of_two(coeffs, shift), k, (1, 0), _gaussian_mul))
        scale *= d**k
    right = _at_power_of_two(ints, shift)
    return left == (right[0] * scale, right[1] * scale)


def _at_power_of_two(coeffs: list, shift: int) -> tuple[int, int]:
    """The polynomial with Gaussian-integer coefficients (x, y), degree-descending, at 2^shift."""
    re = im = 0
    for x, y in coeffs:
        re = (re << shift) + x
        im = (im << shift) + y
    return re, im


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), a and b nonnegative."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    return old_r, old_x, old_y


def gcd_bezout(indices: Sequence[int]) -> tuple[int, list[int]]:
    """gcd of a nonempty list of positive ints plus Bezout coefficients.

    Returns (d, coeffs) with sum(coeffs[t] * indices[t]) == d.
    """
    if not indices:
        raise ValueError("gcd_bezout needs a nonempty index list")
    for n in indices:
        if not isinstance(n, int) or n < 1:
            raise ValueError("indices must be positive integers")
    g = indices[0]
    coeffs = [1]
    for n in indices[1:]:
        g2, x, y = _ext_gcd(g, n)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


def format_coefficient(c: GaussianRational) -> str:
    """Render a coefficient the way the bivariate printer does.

    Rational values print bare ("3", "-1/2"); anything with an imaginary
    part prints in parenthesized re+im form ("(1+1i)", "(0-2/3i)") so that
    the result re-parses unambiguously.
    """
    if c.is_rational:
        return str(c.re)
    sign = "+" if c.im >= 0 else "-"
    return f"({c.re}{sign}{abs(c.im)}i)"


def power_str(var: str, k: int) -> str:
    """The power var^k as printed: "" for k = 0, bare var for k = 1."""
    if k == 0:
        return ""
    return var if k == 1 else f"{var}^{k}"


def format_terms(terms: Iterable) -> str:
    """Join (coefficient, monomial) pairs into "3*w^2 - w + 1/2" style text.

    Rational coefficients carry the sign between terms and a unit
    coefficient is left out in front of a monomial; others print through
    format_coefficient. No terms at all print as "0".
    """
    parts = []
    for c, mono in terms:
        if c.is_rational:
            neg = c.re < 0
            mag = abs(c.re)
            body = str(mag) if (mag != 1 or not mono) else ""
        else:
            neg = False
            body = format_coefficient(c)
        text = f"{body}*{mono}" if (body and mono) else (body or mono)
        if not parts:
            parts.append(("-" if neg else "") + text)
        else:
            parts.append(("- " if neg else "+ ") + text)
    return " ".join(parts) or "0"


def format_unipoly(poly: UniPoly) -> str:
    """Deterministic degree-descending rendering in w, e.g. "w^2 - 3*w + 2"."""
    d = poly.degree
    return format_terms(
        (c, power_str("w", d - i)) for i, c in enumerate(poly.coeffs) if not c.is_zero
    )
