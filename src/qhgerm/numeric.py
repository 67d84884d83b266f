"""Arbitrary-precision numeric kernel.

Provides simultaneous root finding (Aberth-Ehrlich iteration), single-linkage
root clustering with an explicit unsafe-regime guard, brute-force multiset
matchers used as the independent oracle for the exact engine, and batched
bivariate evaluation. Nothing here mutates mpmath's global precision.
find_roots, refine_roots, eval_bivar and _identify_branch scope their own
working precision; cluster_roots, numeric_match, nth_root and to_mpc compute
at the caller's precision. nth_root holds the one branch rule, mpmath's, and
_identify_branch inverts it.

find_roots polishes its roots in integer fixed point: Gaussian dyadic
points, Horner on integers with an explicit bound on its rounding, for
every input, including roots past the double range. mpmath only builds the
mpc and mpf values it returns and _bound's error bounds. eval_bivar
multiplies and adds in integers too, on (mantissa, exponent) pairs, each
result rounded once, half-even, by mpf_add's rule (_dyadic_sum and
_dyadic_mul), so its values have mpmath's bits at a fraction of mpmath's
cost. cluster_roots, numeric_match and _nearest_clusters decide each
distance test in doubles first, through the filtered comparison of
_double_filter, and compute it in mpmath only where the doubles do not
settle it; nth_root computes in mpmath.

mpmath is imported by each function that does mpmath arithmetic, on entry,
not by this module: the exact route never needs it, so a process that
decides exact input does not pay for loading it.
"""

from __future__ import annotations

import cmath
import math

from .errors import AmbiguousClusteringError, InternalInconsistencyError, NonConvergenceError
from .exact import GaussianRational, Record, UniPoly, _integral
from .polyio import BivarPoly, power_table

# typing.TYPE_CHECKING without loading typing; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from mpmath import mpc

DEFAULT_PRECISION = 128
DEFAULT_TOL = 1e-9
_FLOAT_SWEEPS = 200
_POLISH_SWEEPS = 600


class ComplexApprox(Record):
    """A complex value (mpc) with an error bound (mpf)."""

    __slots__ = ("value", "err")


class RootCluster(Record):
    """A group of nearby numeric roots standing for one true root (center mpc)."""

    __slots__ = ("center", "multiplicity")


class NumericMatch(Record):
    """A scale (and optional shift) mapping one root multiset onto another."""

    __slots__ = ("scale", "shift")


def _gaussian_mpc(value: GaussianRational, prec: int) -> tuple:
    """value as an mpmath mpc tuple at prec bits: each part's numerator and
    the denominator, reduced by their gcd, are rounded to nearest and then
    divided with rounding to nearest, the bits of mpf(num) / mpf(den)."""
    from mpmath.libmp import from_int, mpf_div, round_nearest

    def part(num):
        g = math.gcd(num, value.d)
        return mpf_div(from_int(num // g, prec, round_nearest),
                       from_int(value.d // g, prec, round_nearest), prec, round_nearest)

    return part(value.a), part(value.b)


def to_mpc(value) -> mpc:
    """Convert a GaussianRational (or number) to mpc at the current precision,
    a GaussianRational by _gaussian_mpc, as eval_bivar rounds coefficients."""
    from mpmath import mp, mpc
    if isinstance(value, GaussianRational):
        return mp.make_mpc(_gaussian_mpc(value, mp.prec))
    return mpc(value)


def nth_root(value, index: int, branch: int = 0) -> mpc:
    """The branch-th of the index-th roots, principal first.

    Branch k has argument (Arg(value) + 2*pi*k)/index with the principal
    argument in (-pi, pi].
    """
    from mpmath import mp, mpc
    if index < 1:
        raise ValueError("root index must be positive")
    z = to_mpc(value)
    if z == 0:
        return mpc(0)
    return mp.root(z, index, branch % index)


def _identify_branch(base: GaussianRational, index: int, target: mpc) -> int:
    """Which index-th root of base equals target.

    Branch b has argument (Arg(base) + 2*pi*b)/index, so index*arg(target)
    - Arg(base) is 2*pi*b up to a multiple of 2*pi*index. Neighbouring
    roots lie 2*pi/index apart in argument, so index.bit_length() bits tell
    them apart, whatever the size of base; 64 more are the guard margin.
    """
    from mpmath import mp, mpf
    with mp.workprec(index.bit_length() + 64):
        z = to_mpc(base)
        branch = int(mp.nint((index * mp.arg(target) - mp.arg(z)) / (2 * mp.pi))) % index
        if index > 1:
            root = nth_root(z, index, branch)
            if abs(root - target) > abs(root) * mp.sinpi(mpf(1) / index) / 2:
                raise InternalInconsistencyError(
                    "radical branch identification failed: no root is close enough"
                )
    return branch


def _horner(coeffs, z):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _log_abs(c: GaussianRational):
    """log |c| as a float, or None for 0, read from the integer parts of c,
    which math.log takes at any size."""
    return None if c.is_zero else math.log(c.a * c.a + c.b * c.b) / 2 - math.log(c.d)


def _newton_polygon_starts(coeffs) -> list:
    """Aberth starting points read off the Newton polygon of the coefficients.

    The upper convex hull of (k, log|a_k|) has one edge per band of root
    moduli: an edge from k to l holds l - k roots of modulus about
    (|a_k| / |a_l|)^(1/(l - k)), so that many points go on a circle of that
    radius (Bini 1996). Angles are offset from one circle to the next. The
    hull is taken in hardware floats. Each point is a pair (c, e) standing
    for c * 2^e: e is 0 while the radius is well inside the double range,
    and past that it takes the radius's power of two.
    """
    n = len(coeffs) - 1
    points = [(n - i, y) for i, y in enumerate(map(_log_abs, coeffs)) if y is not None]
    hull = []
    for k, y in reversed(points):
        while len(hull) >= 2:
            (k1, y1), (k2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (k - k1) > (y - y1) * (k2 - k1):
                break
            hull.pop()
        hull.append((k, y))
    starts = []
    for (k, yk), (l, yl) in zip(hull, hull[1:]):
        count = l - k
        log_radius = (yk - yl) / count
        e = 0 if abs(log_radius) < 700 else round(log_radius / math.log(2))
        radius = math.exp(log_radius - e * math.log(2))
        offset = 2 * math.pi * len(starts) / n + 0.4
        for j in range(count):
            starts.append((radius * cmath.rect(1, 2 * math.pi * j / count + offset), e))
    return starts


def _aberth(coeffs, points) -> bool:
    """Aberth-Ehrlich sweeps on hardware complex points, in place.

    A point is settled once |p(z)| <= n * 2^-51 * sum |a_k| |z|^k for degree
    n; a settled point never moves again, so it is not evaluated again. A
    zero derivative nudges the point by 1e-3, and a coincident neighbour
    counts at distance 1e-30. Stops after _FLOAT_SWEEPS sweeps, or when no
    point moves; returns False as soon as a point turns NaN (the iteration
    left the double range), else True.
    """
    n = len(points)
    limit = n * 2.0**-51
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    abs_coeffs = [abs(c) for c in coeffs]
    settled = [False] * n
    for _ in range(_FLOAT_SWEEPS):
        moved = False
        for k in range(n):
            if settled[k]:
                continue
            z = points[k]
            val = _horner(coeffs, z)
            if abs(val) <= limit * _horner(abs_coeffs, abs(z)):
                settled[k] = True
                continue
            dval = _horner(deriv, z)
            if dval == 0:
                points[k] = z + 1e-3
                moved = True
                continue
            newton = val / dval
            acc = 0
            for j in range(n):
                if j != k:
                    acc += 1 / ((z - points[j]) or 1e-30)
            denom = 1 - newton * acc
            points[k] = z - (newton if denom == 0 else newton / denom)
            if points[k] != points[k]:
                return False
            moved = True
        if not moved:
            break
    return True


def _float_starts(coeffs, starts):
    """Refine starting points (c, e) in hardware complex arithmetic, or None.

    Runs only when every start has e = 0 and every coefficient (a
    GaussianRational) is a finite double that is zero exactly when the
    coefficient is. Returns the refined points as pairs (z, 0), or None when
    they leave the double range, so the caller keeps the unrefined starts.
    """
    if any(e for _, e in starts):
        return None
    try:
        fcoeffs = [complex(c.a / c.d, c.b / c.d) for c in coeffs]
    except OverflowError:
        return None
    if not all((f == 0) == c.is_zero for f, c in zip(fcoeffs, coeffs)):
        return None
    points = [c for c, _ in starts]
    try:
        finite = _aberth(fcoeffs, points)
    except (OverflowError, ZeroDivisionError):
        return None
    if not finite or not all(cmath.isfinite(z) for z in points):
        return None
    return [(z, 0) for z in points]


def _bound(val, dval, lead, n):
    """The error bound of a root approximation z of a degree-n polynomial.

    val bounds |p(z)| from above and dval |p'(z)| from below (0 when no
    positive lower bound is known); lead is the modulus of the leading
    coefficient. The Newton radius n*val/dval, or (val/lead)^(1/n) without a
    derivative bound: either way the disc about z of that radius holds a
    root of p (Bini & Robol, JCAM 272 (2014), section 4).
    """
    from mpmath import mpf
    if dval > 0:
        return n * val / dval
    return (val / lead) ** (mpf(1) / n)


def _shift(x: int, bits: int) -> int:
    """x / 2^bits rounded toward zero, for bits >= 0."""
    return x >> bits if x >= 0 else -(-x >> bits)


def _chop(x: int, bits: int) -> int:
    """x rounded toward zero to at most bits significant bits."""
    excess = abs(x).bit_length() - bits
    return x if excess <= 0 else _shift(x, excess) << excess


def _to_float(m: int, exp: int) -> float:
    """m * 2^exp as a double, through integers; OverflowError past the double range."""
    excess = m.bit_length() - 64
    if excess > 0:
        m, exp = m >> excess, exp + excess
    return math.ldexp(m, exp)


def _fixed(x: float, frac: int) -> int:
    """x * 2^frac rounded down, exactly."""
    num, den = x.as_integer_ratio()
    return (num << frac) // den


def _normalize(wr: int, wi: int, e: int, frac: int):
    """The point (wr + i*wi) * 2^(e - frac) as (wr', wi', e') with
    |w| = |wr' + i*wi'| / 2^frac < 1, and |w| >= 1/2 up to the rounding
    toward zero of a right shift; 0 as (0, 0, e), at the scale it had."""
    size = (wr * wr + wi * wi).bit_length()
    if not size:
        return 0, 0, e
    t = (size - 2 * frac + 1) // 2
    if t > 0:
        return _shift(wr, t), _shift(wi, t), e + t
    return wr << -t, wi << -t, e + t


def _scaled_coeffs(ints, e: int, frac: int):
    """The coefficients of p(2^e * w) * D / 2^s in fixed point, and s.

    ints are the Gaussian integers D*a_k, degree-descending. s puts the
    largest real or imaginary part in [1/2, 1); each coefficient is the pair
    of integers 2^frac times its parts, rounded down, so off by less than
    sqrt(2) units. Returns (pairs, mags, s), mags the moduli as floats.
    """
    n = len(ints) - 1
    s = max(max(abs(a), abs(b)).bit_length() + e * (n - k)
            for k, (a, b) in enumerate(ints) if a or b)
    pairs = []
    for k, (a, b) in enumerate(ints):
        bits = e * (n - k) - s + frac
        pairs.append((a << bits, b << bits) if bits >= 0 else (a >> -bits, b >> -bits))
    mags = [math.hypot(_to_float(a, -frac), _to_float(b, -frac)) for a, b in pairs]
    return pairs, mags, s


def _horner_fixed(pairs, wr: int, wi: int, frac: int):
    """2^frac times p(w) and p'(w), by Horner with one rounding shift per step.

    pairs are fixed-point coefficients with frac fractional bits and w is
    (wr + i*wi) / 2^frac with |w| <= 1. Each shift rounds down, off by less
    than sqrt(2) units, so with the coefficients' own rounding p(w) is off
    by less than 3(n + 1) units and p'(w) by less than 2(n + 1)^2.
    """
    (hr, hi), dr, di = pairs[0], 0, 0
    for a, b in pairs[1:]:
        dr, di = ((dr * wr - di * wi) >> frac) + hr, ((dr * wi + di * wr) >> frac) + hi
        hr, hi = ((hr * wr - hi * wi) >> frac) + a, ((hr * wi + hi * wr) >> frac) + b
    return hr, hi, dr, di


def _dyadic_sum(m: int, e: int, n: int, f: int, prec: int):
    """m * 2^e + n * 2^f rounded half-even to prec bits, as (mantissa, exponent),
    the mantissa odd or 0: the rounding and the canonical form of mpf_add.

    The sum is exact and rounded once, with mpf_add's one exception: when
    the lowest bits lie over 100 apart and one operand's top bit lies more
    than prec + 4 bits below the other's, the smaller enters as a sticky
    +-1 at prec + 4 bits below the larger's lowest bit. The work then grows
    with the operands' lengths, not with the gap between them.
    """
    if not n:
        if not m:
            return 0, 0
    elif not m:
        m, e = n, f
    else:
        if e < f:
            m, e, n, f = n, f, m, e
        gap = e - f
        if gap > 100 and m.bit_length() + gap - n.bit_length() > prec + 4:
            m, e = (m << (prec + 4)) + (1 if n > 0 else -1), e - prec - 4
        else:
            m, e = (m << gap) + n, f
            if not m:
                return 0, 0
    excess = m.bit_length() - prec
    if excess > 0:
        # floor((m + half - 1 + kept lowest bit) / 2^excess): half-even, either sign
        m = (m + (1 << (excess - 1)) - 1 + ((m >> excess) & 1)) >> excess
        e += excess
    if m & 1:
        return m, e
    low = (m & -m).bit_length() - 1
    return m >> low, e + low


def _dyadic_mul(z, w, prec: int):
    """The product of two Gaussian dyadics (re, re_exp, im, im_exp): ac - bd
    and ad + bc exact, each rounded once by _dyadic_sum, as mpc_mul does."""
    a, ea, b, eb = z
    c, ec, d, ed = w
    return (_dyadic_sum(a * c, ea + ec, -b * d, eb + ed, prec)
            + _dyadic_sum(a * d, ea + ed, b * c, eb + ec, prec))


def _dyadic_diff(a, b, frac: int) -> complex:
    """The difference of two fixed-point points (wr, wi, e), exactly, then as
    a complex in units of 2^e of the first."""
    low = min(a[2], b[2])
    re = (a[0] << (a[2] - low)) - (b[0] << (b[2] - low))
    im = (a[1] << (a[2] - low)) - (b[1] << (b[2] - low))
    return complex(_to_float(re, low - a[2] - frac), _to_float(im, low - a[2] - frac))


def _polish_fixed(coeffs, starts, precision):
    """Aberth polishing on Gaussian dyadic points in integer arithmetic.

    starts are pairs (c, e) for the points c * 2^e (c a double or mpc), and
    each becomes (wr + i*wi) * 2^(e - frac) with 1/2 <= |w| < 1, exactly:
    the power of two of c goes into e, so any point keeps its bits. frac is
    precision + 40 + n + 8 fractional bits, so Horner's rounding stays far
    below the stop. Before each evaluation a point is chopped to
    precision + 40 bits, so a settled point is exactly the mpc returned.
    The Newton quotient is one integer division; the Aberth factor
    1/(1 - N*S) is taken in hardware floats from float copies of the w:
    point k scales each other copy by 2^(e_j - e_k), exactly, to sum S in
    units of its own 2^e, or takes the exact difference where two copies
    are too close. A zero derivative moves the point by 2^-10 of its scale,
    as _aberth moves one by 1e-3; a neighbour that coincides exactly is left
    out of the sum, and a factor past the double range gives a plain Newton
    step. Raises NonConvergenceError when a point does not settle within
    the sweep budget.
    """
    from mpmath import mp, mpc, mpf
    n = len(coeffs) - 1
    work = precision + 40
    frac = work + n + 8
    den, ints = _integral(coeffs)
    # the stop |p| <= 2^-(precision+20) * mag in units of 2^-frac
    stop = frac - precision - 20
    tables = {}
    state = []
    for c, e in starts:
        if isinstance(c, mpc):  # its parts are integers times 2^low
            low = min(c.real.man_exp[1], c.imag.man_exp[1])
            state.append(_normalize(int(mp.ldexp(c.real, -low)), int(mp.ldexp(c.imag, -low)),
                                    e + low + frac, frac))
            continue
        top = math.frexp(max(abs(c.real), abs(c.imag)))[1]
        state.append(_normalize(_fixed(math.ldexp(c.real, -top), frac),
                                _fixed(math.ldexp(c.imag, -top), frac), e + top, frac))
    floats = [complex(_to_float(wr, -frac), _to_float(wi, -frac)) for wr, wi, _ in state]
    settled = [None] * n
    for _ in range(_POLISH_SWEEPS):
        moved = False
        for k in range(n):
            if settled[k] is not None:
                continue
            wr, wi, e = state[k]
            wr, wi = _chop(wr, work), _chop(wi, work)
            state[k] = (wr, wi, e)
            if e not in tables:
                tables[e] = _scaled_coeffs(ints, e, frac)
            pairs, mags, s = tables[e]
            hr, hi, dr, di = _horner_fixed(pairs, wr, wi, frac)
            size = abs(complex(_to_float(wr, -frac), _to_float(wi, -frac)))
            limit = int(math.ldexp(_horner(mags, size), stop))
            if hr * hr + hi * hi <= limit * limit:
                settled[k] = (s, hr, hi, dr, di)
                continue
            norm = dr * dr + di * di
            if norm:
                nr = ((hr * dr + hi * di) << frac) // norm
                ni = ((hi * dr - hr * di) << frac) // norm
                total = 0j
                for j in range(n):
                    if j != k:
                        try:
                            diff = floats[k] - floats[j] * 2.0 ** (state[j][2] - e)
                        except OverflowError:
                            continue  # |z_j| > 2^1000 |z_k|: a term below 2^-1000
                        if abs(diff) < 2.0**-40 * abs(floats[k]):
                            diff = _dyadic_diff(state[k], state[j], frac)
                        if diff:
                            total += 1 / diff
                try:
                    ns = complex(_to_float(nr, -frac), _to_float(ni, -frac)) * total
                    g = 0j if ns == 1 else ns / (1 - ns)
                    # W - N * (1 + g), with g to 62 fractional bits
                    gr, gi = int(math.ldexp(g.real, 62)), int(math.ldexp(g.imag, 62))
                except (OverflowError, ValueError):
                    gr = gi = 0  # N * S past the double range: a plain Newton step
                fr = gr + (1 << 62)
                step_r, step_i = (nr * fr - ni * gi) >> 62, (nr * gi + ni * fr) >> 62
            else:
                step_r, step_i = -(1 << (frac - 10)), 0  # p'(w) = 0: move off by 2^-10
            wr, wi, e = state[k] = _normalize(wr - step_r, wi - step_i, e, frac)
            floats[k] = complex(_to_float(wr, -frac), _to_float(wi, -frac))
            moved = True
        if not moved:
            break
    if not all(settled):
        raise NonConvergenceError("root iteration did not reach the backward-error target")
    out = []
    with mp.workprec(work):
        lead = abs(to_mpc(coeffs[0]))
        for (wr, wi, e), (s, hr, hi, dr, di) in zip(state, settled):
            val = mp.ldexp(mpf(math.isqrt(hr * hr + hi * hi) + 1 + 3 * (n + 1)), s - frac) / den
            low = math.isqrt(dr * dr + di * di) - 2 * (n + 1) ** 2
            dval = mp.ldexp(mpf(low), s - e - frac) / den if low > 0 else mpf(0)
            value = mpc(mpf((wr, e - frac)), mpf((wi, e - frac)))
            out.append(ComplexApprox(value, _bound(val, dval, lead, n)))
    return out


def find_roots(poly: UniPoly, precision: int = DEFAULT_PRECISION) -> list:
    """All complex roots of a univariate polynomial, with error bounds.

    Runs the Aberth-Ehrlich simultaneous iteration from Newton-polygon
    starting points: first in hardware floats to bring the starts close,
    when they and the coefficients fit doubles and the points stay in the
    double range, then on Gaussian dyadic points in integer fixed point,
    from the float stage's points or else the raw starts, until every root
    meets the backward-error stop |p(z)| <= 2^-(precision+20) * sum |a_k|
    |z|^k, so that multiple roots terminate as tight clusters instead of
    stalling. Each err is the Newton radius n*|p(z)|/|p'(z)|, from an upper
    bound on |p(z)| and a lower bound on |p'(z)| that carry the fixed-point
    rounding, or (|p(z)|/|a_n|)^(1/n) where no positive lower bound on
    |p'(z)| is known. mpmath only builds the returned values and bounds.
    Raises NonConvergenceError when a root does not meet the stop; zero
    roots are split off first and returned exactly.
    """
    return refine_roots(poly, None, precision)


def refine_roots(poly: UniPoly, roots: list | None, precision: int) -> list:
    """find_roots(poly, precision) polished from roots, which find_roots or
    refine_roots gave for poly, or from the Newton polygon for roots None."""
    from mpmath import mpc, mpf
    coeffs = list(poly.coeffs)
    if len(coeffs) < 2:
        return []
    out = []
    while coeffs[-1].is_zero:
        out.append(ComplexApprox(mpc(0), mpf(0)))
        coeffs.pop()
    if len(coeffs) == 1:
        return out
    if roots is None:
        starts = _newton_polygon_starts(coeffs)
        starts = _float_starts(coeffs, starts) or starts
    else:
        starts = [(r.value, 0) for r in roots if r.value != 0]
    out += _polish_fixed(coeffs, starts, precision)
    out.sort(key=lambda r: _root_order(r.value))
    return out


def _root_order(z) -> tuple:
    """Roots and cluster centers sort by real part, then imaginary part."""
    return z.real, z.imag


def _double_filter(values):
    """Double copies of mpc values and a certified distance test, or None.

    A filtered predicate (Shewchuk, Discrete Comput. Geom. 18, 1997): a
    comparison of an mpc distance with a threshold is decided in doubles
    when the double result clears an error margin, and is left to the
    caller's mpc expression otherwise. Returns None when the working
    precision P = mp.prec is below 16 bits, or when a part of some value
    exceeds 2^200 in modulus (inf and nan included). Else returns (points,
    compare): the values as complex, and compare(x, y, bound), which is 1
    when D > T surely holds, -1 when D <= T surely holds, and 0 when the
    doubles do not settle it.

    D is the caller's mpc distance |X - Y|, its subtraction and abs rounded
    at P, and T is the mpf threshold it is compared with. x, y and bound
    stand in for X, Y and T within |x - X| <= 16w|x| + h,
    |y - Y| <= 16w|y| + h and |bound - T| <= 16w*bound + h, where
    w = 2^(1 - min(P, 53)) bounds the relative error of one rounding in
    doubles (2^-53) or in mpc at P (2^(1-P), in any rounding mode) and
    h = 2^-1070 takes the absolute error of an underflow. A point copied
    here has each part within 2^-53 of it relatively, plus 2^-1074 for a
    subnormal, so it lies within w/2*|x| + h of its value.

    The margin. D = |X - Y|(1 + a) with |a| <= 3w: one rounding per part of
    the subtraction, one in the sum of squares at P + 4 bits, one in the
    square root. The double d = abs(x - y) is |x - y|(1 + b) with
    |b| <= 2w, give or take 2^-1073 when a part underflows. With
    |x - y| <= |x| + |y| and S = |x| + |y| + bound, these give
    |(D - T) - (d - bound)| <= 32w*S + 4h, since P >= 16 keeps the terms in
    w^2 below w*S. The slack s = 64w*S + 2^-1000, formed in doubles with
    relative error below 3w, is at least 63w*S + 2^-1000. When the double
    d - s exceeds bound, d - bound > s - w/2*bound >= 32w*S + 4h, so D > T;
    when d + s falls below bound, D <= T the same way. An infinite bound or
    a sum past the double range makes s infinite, and compare gives 0.
    """
    from mpmath import mp
    if mp.prec < 16:
        return None
    points = [complex(v) for v in values]
    if not all(abs(z.real) <= 2.0**200 and abs(z.imag) <= 2.0**200 for z in points):
        return None
    rel = 2.0 ** (7 - min(mp.prec, 53))

    def compare(x, y, bound):
        d = abs(x - y)
        slack = rel * (abs(x) + abs(y) + bound) + 2.0**-1000
        if d - slack > bound:
            return 1
        if d + slack < bound:
            return -1
        return 0

    return points, compare


def cluster_roots(roots: list, tol: float, weights: list) -> list:
    """Single-linkage clustering of numeric roots at distance tol.

    roots are the ComplexApprox values find_roots returns, and each counts
    for its weight's number of roots: a cluster's multiplicity is the sum of
    its members' weights, and its center their weighted mean.
    Approximations also merge when their error disks overlap: a root of
    multiplicity k is only located to about the k-th root of the backward
    error, so its copies can scatter wider than tol while still being one
    true root, and the per-root bounds carry exactly that information.
    Raises AmbiguousClusteringError when the configuration sits in the
    unsafe band: an inter-cluster gap below 2*tol, or a cluster whose
    diameter exceeds tol/2, either of which means the tolerance cannot be
    trusted to separate true roots from approximation scatter.
    Each pair is tested in doubles first, by _double_filter: its mpc
    distance is computed only where the doubles do not prove it farther
    than both 2*tol and its error disks' reach, and for the diameter only
    where they do not prove it within tol/2; clusters and messages are
    those of the mpc tests alone.
    """
    from mpmath import mpf
    if not roots:
        return []
    if len(weights) != len(roots):
        raise ValueError("weights must match roots one for one")
    values = [r.value for r in roots]
    errs = [r.err for r in roots]
    t = mpf(tol)
    if t <= 0:
        raise ValueError("tol must be positive")
    n = len(values)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # each distance is measured once and kept when below 2*tol, the only
    # ones a gap check can fail on; a longer one within a cluster fails the
    # diameter check, which measures it again for its message. A pair the
    # doubles prove farther apart than both 2*tol and its error disks'
    # reach is not measured
    filt = _double_filter(values)
    if filt:
        points, compare = filt
        ftol = float(t)
        ferrs = [float(e) for e in errs]
    close = {}
    for a in range(n):
        for b in range(a + 1, n):
            if filt:
                x, y, reach = points[a], points[b], ferrs[a] + ferrs[b]
                if compare(x, y, max(2 * ftol, reach)) > 0:
                    continue
            d = abs(values[a] - values[b])
            if d < 2 * t:
                close[a, b] = d
            if d <= max(t, errs[a] + errs[b]):
                union(a, b)
    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    out = []
    for idxs in groups.values():
        pairs = [(a, b) for a in idxs for b in idxs if a < b]
        if filt:
            # the mpc maximum is taken over the pairs the doubles do not
            # prove within tol/2, the only ones that can exceed it
            pairs = [(a, b) for a, b in pairs if compare(points[a], points[b], ftol / 2) >= 0]
        diameter = max((close.get((a, b)) or abs(values[a] - values[b]) for a, b in pairs),
                       default=mpf(0))
        if diameter > t / 2:
            raise AmbiguousClusteringError(
                f"cluster diameter {diameter} exceeds half the tolerance {t}"
            )
        total = sum(weights[a] for a in idxs)
        out.append(RootCluster(sum(values[a] * weights[a] for a in idxs) / total, total))
    # the first pair of clusters with members closer than 2*tol, least first
    cid = {a: k for k, idxs in enumerate(groups.values()) for a in idxs}
    gaps = sorted((min(cid[a], cid[b]), max(cid[a], cid[b]), d)
                  for (a, b), d in close.items() if cid[a] != cid[b])
    if gaps:
        raise AmbiguousClusteringError(
            f"inter-cluster gap {gaps[0][2]} is below twice the tolerance {t}"
        )
    out.sort(key=lambda cl: _root_order(cl.center))
    return out


def _nearest_clusters(clusters: list, values: list) -> list:
    """For each mpc value, the index of the cluster center nearest it by mpc
    distance, the first on a tie. _double_filter's doubles decide it where
    they prove that one center lies below, and every other above, the
    midpoint of the two least double distances."""
    centers = [cl.center for cl in clusters]
    filt = _double_filter(centers + values)
    if filt:
        points, compare = filt
        fcenters = points[:len(centers)]

    def nearest(j, z):
        if filt:
            x = points[len(centers) + j]
            ds = [abs(x - c) for c in fcenters]
            near = sorted(ds)[:2] + [math.inf]
            k, bound = ds.index(near[0]), (near[0] + near[1]) / 2
            if all(compare(x, c, bound) == (-1 if i == k else 1) for i, c in enumerate(fcenters)):
                return k
        return min(range(len(centers)), key=lambda i: abs(centers[i] - z))

    return [nearest(j, z) for j, z in enumerate(values)]


def _greedy_pairing(mapped, targets, tol) -> bool:
    """Whether each mapped cluster pairs with an unused equal-multiplicity target."""
    used = [False] * len(targets)
    for z, mult in mapped:
        best = None
        best_d = None
        for tdx, tcl in enumerate(targets):
            if used[tdx] or tcl.multiplicity != mult:
                continue
            d = abs(z - tcl.center)
            if best is None or d < best_d:
                best, best_d = tdx, d
        if best is None or best_d > tol * (1 + abs(targets[best].center)):
            return False
        used[best] = True
    return True


def numeric_match(mode: str, side_a, side_b, tol: float = DEFAULT_TOL):
    """Brute-force multiset matcher over root clusters.

    mode "linear" tries the scales a = cb/ca, row by row over pairs of
    nonzero clusters of equal multiplicity, for a*A = B; "affine" reduces
    to it after centering both sides on their multiplicity weighted
    centroids. Returns the first NumericMatch the greedy pairing accepts,
    or None. A scale is first tried in doubles, by _double_filter: when it
    maps some cluster of A surely farther than tol*(1 + |c|) from every B
    cluster c of its multiplicity, no greedy pass can accept it, and it is
    dropped before its mpc quotient is formed. The oracle for the exact
    matcher, it shares no code with it.
    """
    from mpmath import mpc, mpf
    if mode not in ("linear", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    a_cl = sorted(side_a, key=lambda c: _root_order(c.center))
    b_cl = sorted(side_b, key=lambda c: _root_order(c.center))
    if sorted(c.multiplicity for c in a_cl) != sorted(c.multiplicity for c in b_cl):
        return None
    t = mpf(tol)
    if mode == "affine":
        total = sum(c.multiplicity for c in a_cl)
        cen_a = sum((c.center * c.multiplicity for c in a_cl), mpc(0)) / total
        cen_b = sum((c.center * c.multiplicity for c in b_cl), mpc(0)) / total
        shifted_a = [RootCluster(c.center - cen_a, c.multiplicity) for c in a_cl]
        shifted_b = [RootCluster(c.center - cen_b, c.multiplicity) for c in b_cl]
        inner = numeric_match("linear", shifted_a, shifted_b, tol)
        if inner is None:
            return None
        a = inner.scale
        b = cen_b - a * cen_a
        mapped = [(a * c.center + b, c.multiplicity) for c in a_cl]
        return NumericMatch(a, b) if _greedy_pairing(mapped, b_cl, t) else None
    nonzero_a = [k for k, c in enumerate(a_cl) if abs(c.center) > t]
    nonzero_b = [k for k, c in enumerate(b_cl) if abs(c.center) > t]
    if len(nonzero_a) != len(nonzero_b):
        return None
    if not nonzero_a:
        mapped = [(c.center, c.multiplicity) for c in a_cl]
        return NumericMatch(mpc(1), None) if _greedy_pairing(mapped, b_cl, t) else None
    # a scale that maps some cluster of A, in doubles, surely farther than
    # tol*(1 + |c|) from every B cluster c of its multiplicity fails the
    # greedy pass whatever it has used. |ca|, |cb| > tol >= 2^-200 and parts
    # up to 2^200 keep the double quotient q and each q*x in range and
    # within 8w of the exact values (Smith's quotient, then one product);
    # the mpc ones at P are within 3w, and each bound within 6w of the mpc
    # threshold, inside the 16w _double_filter allows
    ftol = float(t)
    filt = _double_filter([c.center for c in a_cl + b_cl]) if ftol >= 2.0**-200 else None
    if filt:
        points, compare = filt
        fa, fb = points[:len(a_cl)], points[len(a_cl):]
        targets = {}
        for c, y in zip(b_cl, fb):
            targets.setdefault(c.multiplicity, []).append((y, ftol * (1 + abs(y))))
    for ka in nonzero_a:
        for kb in nonzero_b:
            ca, cb = a_cl[ka], b_cl[kb]
            if ca.multiplicity != cb.multiplicity:
                continue
            if filt:
                q = fb[kb] / fa[ka]
                if any(all(compare(q * x, y, bound) > 0 for y, bound in targets[c.multiplicity])
                       for c, x in zip(a_cl, fa)):
                    continue
            a = cb.center / ca.center
            mapped = ((a * c.center, c.multiplicity) for c in a_cl)
            if _greedy_pairing(mapped, b_cl, t):
                return NumericMatch(a, None)
    return None


def eval_bivar(poly: BivarPoly, points, precision: int = DEFAULT_PRECISION) -> list:
    """Evaluate a bivariate polynomial at each (x, y) of points.

    Returns one mpc per point, with the bits of mpmath's mpc arithmetic 20
    bits finer than precision. _gaussian_mpc rounds the coefficients, once
    per call, as to_mpc does; mpmath converts the coordinates and gives the
    seeds z^low and z^gap of power_table. The steps, the products
    c * x^i * y^j and the running sum are _dyadic_mul and _dyadic_sum on
    integers, which round as mpmath does, so the bits are the same. A germ
    on a weighted line costs O(terms) multiplications per point.

    Raises ValueError naming the point when a coordinate is infinite or nan.
    """
    from mpmath import mp, mpc
    from mpmath.libmp import mpc_pow_int, round_nearest

    prec = precision + 20

    def dyadic(z):
        (re_sign, re, re_exp, _), (im_sign, im, im_exp, _) = z
        return -re if re_sign else re, re_exp, -im if im_sign else im, im_exp

    def mpf_part(m, e):
        return (int(m < 0), abs(m), e, m.bit_length()) if m else (0, 0, 0, 0)

    def seed(z, n):
        return dyadic(mpc_pow_int(z, n, prec, round_nearest))

    def mul(z, w):
        return _dyadic_mul(z, w, prec)

    terms = [(i, j, dyadic(_gaussian_mpc(c, prec))) for (i, j), c in poly.terms.items()]
    x_exps = {i for i, _, _ in terms}
    y_exps = {j for _, j, _ in terms}
    points = list(points)
    with mp.workprec(prec):
        coords = [(mpc(x)._mpc_, mpc(y)._mpc_) for x, y in points]
    out = []
    for point, (x, y) in zip(points, coords):
        if not all(man or not exp for _, man, exp, _ in x + y):
            raise ValueError(f"eval_bivar needs finite coordinates, got the point {point!r}")
        xp = power_table(x, x_exps, seed, mul)
        yp = power_table(y, y_exps, seed, mul)
        re, re_exp, im, im_exp = 0, 0, 0, 0
        for i, j, c in terms:
            tr, tr_exp, ti, ti_exp = _dyadic_mul(_dyadic_mul(c, xp[i], prec), yp[j], prec)
            re, re_exp = _dyadic_sum(re, re_exp, tr, tr_exp, prec)
            im, im_exp = _dyadic_sum(im, im_exp, ti, ti_exp, prec)
        value = object.__new__(mpc)
        value._mpc_ = (mpf_part(re, re_exp), mpf_part(im, im_exp))
        out.append(value)
    return out
