"""Arbitrary-precision numeric kernel.

Provides simultaneous root finding (Aberth-Ehrlich iteration), single-linkage
root clustering with an explicit unsafe-regime guard, brute-force multiset
matchers used as the independent oracle for the exact engine, and batched
bivariate evaluation. Nothing here mutates mpmath's global precision.
find_roots, refine_roots and eval_bivar scope their own working precision;
cluster_roots, numeric_match, nth_root and to_mpc compute at the caller's
precision. nth_root holds the one numeric branch rule, mpmath's.

find_roots polishes its roots in integer fixed point: Gaussian dyadic
points, Horner on integers with an explicit bound on its rounding, for
every input, including roots past the double range; mpmath.libmp forms
each value and error bound it returns once, from those integers. eval_bivar
is the plain mpc loop, its coefficients rounded by to_mpc.
cluster_roots, numeric_match and _nearest_clusters decide each distance,
nonzero and nearest-center test in doubles first, through the filtered
comparison of _double_filter, and compute it in mpmath only where the
doubles do not settle it; nth_root computes in mpmath.

mpmath is imported by each function that does mpmath arithmetic, on entry,
not by this module: the exact route never needs it, so a process that
decides exact input does not pay for loading it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import AmbiguousClusteringError, NonConvergenceError
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


def to_mpc(value) -> mpc:
    """Convert a GaussianRational, a Fraction or another number to mpc at the
    current precision. Each part of a rational is mpf(numerator) /
    mpf(denominator) of its reduced Fraction: both are rounded to the
    precision, then their quotient is."""
    from mpmath import mpc, mpf
    if isinstance(value, Fraction):
        value = GaussianRational(value)
    if isinstance(value, GaussianRational):
        return mpc(*(mpf(part.numerator) / mpf(part.denominator) for part in (value.re, value.im)))
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


def _bound(val, dval, lead, n, prec):
    """The error bound of a root approximation z of a degree-n polynomial.

    val bounds |p(z)| from above and dval |p'(z)| from below (0 when no
    positive lower bound is known); lead is the modulus of the leading
    coefficient, all three mpf tuples. The Newton radius (n*val)/dval, or
    (val/lead)^(1/n) without a derivative bound, rounded as mpf arithmetic
    at prec rounds it: either way the disc about z of that radius holds a
    root of p (Bini & Robol, JCAM 272 (2014), section 4).
    """
    from mpmath.libmp import fone, from_int, mpf_div, mpf_mul_int, mpf_pow, round_nearest
    if dval:
        return mpf_div(mpf_mul_int(val, n, prec, round_nearest), dval, prec, round_nearest)
    return mpf_pow(mpf_div(val, lead, prec, round_nearest),
                   mpf_div(fone, from_int(n), prec, round_nearest), prec, round_nearest)


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
    from mpmath import mp, mpc
    from mpmath.libmp import from_int, from_man_exp, mpc_abs, mpf_div, mpf_shift, round_nearest
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
    with mp.workprec(work):
        lead = mpc_abs(to_mpc(coeffs[0])._mpc_, work, round_nearest)

    def quotient(m, k):  # mpf(m) * 2^k / den, as mpf arithmetic at work rounds it
        return mpf_div(mpf_shift(from_int(m, work, round_nearest), k), from_int(den), work,
                       round_nearest)

    out = []
    for (wr, wi, e), (s, hr, hi, dr, di) in zip(state, settled):
        val = quotient(math.isqrt(hr * hr + hi * hi) + 1 + 3 * (n + 1), s - frac)
        low = math.isqrt(dr * dr + di * di) - 2 * (n + 1) ** 2
        dval = quotient(low, s - e - frac) if low > 0 else 0
        value = mp.make_mpc((from_man_exp(wr, e - frac, work, round_nearest),
                             from_man_exp(wi, e - frac, work, round_nearest)))
        out.append(ComplexApprox(value, mp.make_mpf(_bound(val, dval, lead, n, work))))
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
    """Roots and cluster centers sort by real part, then imaginary part; a
    part's double decides unless it ties, as rounding keeps order."""
    re, im = z.real, z.imag
    return float(re), re, float(im), im


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
    for its weight's number of roots, a positive int: a cluster's
    multiplicity is the sum of its members' weights, and its center their
    weighted mean. Approximations also merge when their error disks overlap: a root of
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
    from mpmath import mp, mpf
    from mpmath.libmp import mpc_pos, round_nearest
    if not roots:
        return []
    if len(weights) != len(roots):
        raise ValueError("weights must match roots one for one")
    if not all(isinstance(w, int) and not isinstance(w, bool) and w > 0 for w in weights):
        raise ValueError("weights must be positive integers")
    values = [r.value for r in roots]
    errs = [r.err for r in roots]
    t = mpf(tol)
    if not t > 0:  # nan too
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
                       default=None)
        if diameter is not None and diameter > t / 2:
            raise AmbiguousClusteringError(
                f"cluster diameter {diameter} exceeds half the tolerance {t}"
            )
        total = sum(weights[a] for a in idxs)
        # a lone weight-1 member's mean sum(v * 1) / 1 is v rounded once
        center = (mp.make_mpc(mpc_pos(values[idxs[0]]._mpc_, mp.prec, round_nearest)) if total == 1
                  else sum(values[a] * weights[a] for a in idxs) / total)
        out.append(RootCluster(center, total))
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


def _nearest(x, points, compare):
    """The index of the point nearest x by mpc distance, or None where the
    doubles do not prove it: the only point, or the one that compare puts
    below, and every other point above, the midpoint of the two least."""
    if len(points) == 1:
        return 0
    ds = [abs(x - c) for c in points]
    near = sorted(ds)[:2]
    k, bound = ds.index(near[0]), (near[0] + near[1]) / 2
    if all(compare(x, c, bound) == (-1 if i == k else 1) for i, c in enumerate(points)):
        return k
    return None


def _nearest_clusters(clusters: list, values: list) -> list:
    """For each mpc value, the index of the cluster center nearest it by mpc
    distance, the first on a tie: _nearest's doubles decide it where they
    can, and the mpc distances elsewhere."""
    centers = [cl.center for cl in clusters]
    filt = _double_filter(centers + values)
    out = []
    for j, z in enumerate(values):
        k = filt and _nearest(filt[0][len(centers) + j], filt[0][:len(centers)], filt[1])
        out.append(min(range(len(centers)), key=lambda i: abs(centers[i] - z)) if k is None else k)
    return out


def _greedy_pairing(side, targets, tol, scale, doubles) -> bool:
    """Whether side, each center z mapped to scale*z (z for scale None),
    pairs with targets: in side's order each takes the nearest unused target
    of its multiplicity by mpc distance, the first on a tie, and fails
    unless it lies within tol*(1 + |c|) of its center c. doubles is None or
    (xs, ys, bounds, compare): the mapped and target centers and those
    bounds in doubles, and _double_filter's compare, which decide each step
    where they can; its mpc center and distances are formed only elsewhere.
    """
    used = [False] * len(targets)
    xs, ys, bounds, compare = doubles or (None,) * 4
    for k, mult in enumerate(c.multiplicity for c in side):
        free = [i for i, c in enumerate(targets) if not used[i] and c.multiplicity == mult]
        if not free:
            return False
        pick = doubles and _nearest(xs[k], [ys[i] for i in free], compare)
        best = None if pick is None else free[pick]
        sure = 0 if best is None else compare(xs[k], ys[best], bounds[best])
        if not sure:
            z = side[k].center if scale is None else scale * side[k].center
            dist = {i: abs(z - targets[i].center) for i in (free if best is None else [best])}
            best = min(dist, key=dist.get)
            sure = dist[best] > tol * (1 + abs(targets[best].center))
        if sure > 0:
            return False
        used[best] = True
    return True


def numeric_match(mode: str, side_a, side_b, tol: float = DEFAULT_TOL):
    """Brute-force multiset matcher over root clusters.

    mode "linear" tries the scales a = cb/ca, row by row over pairs of
    nonzero clusters (|c| > tol > 0) of equal multiplicity, for a*A = B;
    "affine" reduces to it after centering both sides on their multiplicity
    weighted centroids. Returns the first NumericMatch the greedy pairing
    accepts, or None. The nonzero tests and the greedy steps are decided in
    doubles by _double_filter where they can be, and in mpc elsewhere. A
    scale that maps some cluster of A, in doubles, surely farther than
    tol*(1 + |c|) from every B cluster c of its multiplicity is dropped
    before its mpc quotient is formed. The oracle for the exact matcher, it
    shares no code with it.
    """
    from mpmath import mpc, mpf
    if mode not in ("linear", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    t = mpf(tol)
    if not t > 0:  # nan too
        raise ValueError("tol must be positive")
    a_cl = sorted(side_a, key=lambda c: _root_order(c.center))
    b_cl = sorted(side_b, key=lambda c: _root_order(c.center))
    if sorted(c.multiplicity for c in a_cl) != sorted(c.multiplicity for c in b_cl):
        return None
    # the doubles of mapped A centers and of B's centers, B's bounds and
    # compare. |ca|, |cb| > tol >= 2^-200 and parts up to 2^200 keep the
    # double quotient q and each q*x in range and within 8w of the exact
    # values (Smith's quotient, then one product); the mpc ones at P are
    # within 3w, and each bound within 6w of the mpc threshold, inside the
    # 16w _double_filter allows
    ftol = float(t)

    def filtered(centers):
        filt = _double_filter(centers + [c.center for c in b_cl]) if ftol >= 2.0**-200 else None
        if not filt:
            return None
        points, compare = filt
        ys = points[len(centers):]
        return points[:len(centers)], ys, [ftol * (1 + abs(y)) for y in ys], compare

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
        mapped = [RootCluster(a * c.center + b, c.multiplicity) for c in a_cl]
        doubles = filtered([c.center for c in mapped])
        return NumericMatch(a, b) if _greedy_pairing(mapped, b_cl, t, None, doubles) else None
    filt = filtered([c.center for c in a_cl])
    fa, fb, bounds, compare = filt or (None,) * 4

    def nonzero(side, fs):
        sure = [compare(y, 0j, ftol) for y in fs] if filt else [0] * len(side)
        return [k for k, c in enumerate(side) if sure[k] > 0 or not sure[k] and abs(c.center) > t]

    nonzero_a, nonzero_b = nonzero(a_cl, fa), nonzero(b_cl, fb)
    if len(nonzero_a) != len(nonzero_b):
        return None
    if not nonzero_a:
        return NumericMatch(mpc(1), None) if _greedy_pairing(a_cl, b_cl, t, None, filt) else None
    if filt:
        targets = {}
        for c, y, bound in zip(b_cl, fb, bounds):
            targets.setdefault(c.multiplicity, []).append((y, bound))
    for ka in nonzero_a:
        for kb in nonzero_b:
            ca, cb = a_cl[ka], b_cl[kb]
            if ca.multiplicity != cb.multiplicity:
                continue
            doubles = None
            if filt:
                # a scale that maps some cluster of A, in doubles, surely
                # farther than tol*(1 + |c|) from every B cluster c of its
                # multiplicity fails the greedy pass whatever it has used
                q = fb[kb] / fa[ka]
                xs = [q * x for x in fa]
                if any(all(compare(x, y, bound) > 0 for y, bound in targets[c.multiplicity])
                       for c, x in zip(a_cl, xs)):
                    continue
                doubles = xs, fb, bounds, compare
            a = cb.center / ca.center
            if _greedy_pairing(a_cl, b_cl, t, a, doubles):
                return NumericMatch(a, None)
    return None


def eval_bivar(poly: BivarPoly, points, precision: int = DEFAULT_PRECISION) -> list:
    """Evaluate a bivariate polynomial at each (x, y) of points.

    Returns one mpc per point, in mpc arithmetic 20 bits finer than
    precision, an int of at least 1: the sum, in term order, of each term
    to_mpc(c) * x^i * y^j, with the powers from power_table. A germ on a
    weighted line costs O(terms) multiplications per point.

    Raises ValueError for a precision that is not such an int, and naming
    the point when a coordinate is infinite or nan.
    """
    if not isinstance(precision, int) or isinstance(precision, bool):
        raise ValueError(f"precision must be an int, got {type(precision).__name__}")
    if precision < 1:
        raise ValueError("precision must be at least 1 bit")
    from mpmath import mp, mpc
    with mp.workprec(precision + 20):
        terms = [(i, j, to_mpc(c)) for (i, j), c in poly.terms.items()]
        x_exps = {i for i, _, _ in terms}
        y_exps = {j for _, j, _ in terms}
        out = []
        for point in points:
            x, y = map(mpc, point)
            if not (mp.isfinite(x) and mp.isfinite(y)):
                raise ValueError(f"eval_bivar needs finite coordinates, got the point {point!r}")
            xp, yp = power_table(x, x_exps), power_table(y, y_exps)
            acc = mpc(0)
            for i, j, c in terms:
                acc += c * xp[i] * yp[j]
            out.append(acc)
    return out
