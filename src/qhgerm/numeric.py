"""Arbitrary-precision numeric kernel.

Provides simultaneous root finding (Aberth-Ehrlich iteration), single-linkage
root clustering with an explicit unsafe-regime guard, brute-force multiset
matchers used as the independent oracle for the exact engine, and batched
bivariate evaluation. Nothing here mutates mpmath's global precision.
find_roots and eval_bivar scope their own working precision; cluster_roots,
numeric_match, nth_root and to_mpc compute at the caller's precision.

find_roots polishes its roots in integer fixed point: Gaussian dyadic
points, Horner on integers with an explicit bound on its rounding. mpmath
gives it only the mpc and mpf values it returns, the error bounds, radii
past the double range, and the mpc iteration that serves starts out of
the double range and points the fixed point does not settle. Clustering,
matching, nth_root and eval_bivar compute in mpmath.

mpmath is imported by each function that does mpmath arithmetic, on entry,
not by this module: the exact route never needs it, so a process that
decides exact input does not pay for loading it.
"""

from __future__ import annotations

import cmath
import math

from .errors import AmbiguousClusteringError, NonConvergenceError
from .exact import GaussianRational, Record, UniPoly
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
    """Convert a GaussianRational (or number) to mpc at the current precision."""
    from mpmath import mpc, mpf
    if isinstance(value, GaussianRational):
        re = mpf(value.re.numerator) / mpf(value.re.denominator)
        im = mpf(value.im.numerator) / mpf(value.im.denominator)
        return mpc(re, im)
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


def _log_abs(c):
    """log |c| as a float, or None for 0; c is a GaussianRational or an mpmath number.

    A GaussianRational's is read from its integer parts, which math.log
    takes at any size, so it needs no mpmath.
    """
    if isinstance(c, GaussianRational):
        return None if c.is_zero else math.log(c.a * c.a + c.b * c.b) / 2 - math.log(c.d)
    from mpmath import mp
    return None if c == 0 else float(mp.log(abs(c)))


def _newton_polygon_starts(coeffs) -> list:
    """Aberth starting points read off the Newton polygon of the coefficients.

    The upper convex hull of (k, log|a_k|) has one edge per band of root
    moduli: an edge from k to l holds l - k roots of modulus about
    (|a_k| / |a_l|)^(1/(l - k)), so that many points go on a circle of that
    radius (Bini 1996). Angles are offset from one circle to the next. The
    hull is taken in hardware floats; a radius past the double range is an
    mpmath mpf, so the points on its circle are mpc.
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
        if abs(log_radius) < 700:
            radius = math.exp(log_radius)
        else:
            from mpmath import mp
            radius = mp.exp(log_radius)
        offset = 2 * math.pi * len(starts) / n + 0.4
        for j in range(count):
            starts.append(radius * cmath.rect(1, 2 * math.pi * j / count + offset))
    return starts


def _aberth(coeffs, points, limit, max_sweeps):
    """Aberth-Ehrlich sweeps on points, in place, in the points' own arithmetic.

    Serves Python complex and mpmath mpc alike. A point is settled once
    |p(z)| <= limit * sum |a_k| |z|^k; a settled point never moves again, so
    it is not evaluated again. Returns per point the pair (|p(z)|,
    sum |a_k| |z|^k) from the evaluation that settled it, None where
    unsettled; or None when a point turns NaN (hardware floats out of range).
    """
    n = len(points)
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    abs_coeffs = [abs(c) for c in coeffs]
    settled = [None] * n
    for _ in range(max_sweeps):
        moved = False
        for k in range(n):
            if settled[k] is not None:
                continue
            z = points[k]
            val = _horner(coeffs, z)
            if abs(val) <= limit * (mag := _horner(abs_coeffs, abs(z))):
                settled[k] = (abs(val), mag)
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
                    diff = z - points[j]
                    if diff == 0:
                        diff = 1e-30
                    acc += 1 / diff
            denom = 1 - newton * acc
            points[k] = z - (newton if denom == 0 else newton / denom)
            if points[k] != points[k]:
                return None
            moved = True
        if not moved:
            break
    return settled


def _float_starts(coeffs, starts):
    """Refine starting points in hardware complex arithmetic, or None.

    Runs only when every coefficient (a GaussianRational) is a finite double
    that is zero exactly when the coefficient is; returns None when the
    points leave the double range, so the caller keeps the unrefined starts.
    """
    try:
        fcoeffs = [complex(c.a / c.d, c.b / c.d) for c in coeffs]
    except OverflowError:
        return None
    if not all((f == 0) == c.is_zero for f, c in zip(fcoeffs, coeffs)):
        return None
    points = [complex(z) for z in starts]
    try:
        settled = _aberth(fcoeffs, points, len(points) * 2.0**-51, _FLOAT_SWEEPS)
    except (OverflowError, ZeroDivisionError):
        return None
    if settled is None or not all(cmath.isfinite(z) for z in points):
        return None
    return points


def _bound(val, dval, lead, n):
    """The error bound of a root approximation z of a degree-n polynomial.

    val bounds |p(z)| from above and dval |p'(z)| from below (0 when no
    positive lower bound is known); lead is the modulus of the leading
    coefficient. The Newton radius n*val/dval, or (val/lead)^(1/n) without a
    derivative bound, but never below the floor val/(1 + lead*n).
    """
    from mpmath import mpf
    floor = val / (1 + lead * n)
    if dval > 0:
        return mpf(max(n * val / dval, floor))
    return mpf(max((val / lead) ** (mpf(1) / n), floor))


def _polish_mp(coeffs, points, precision):
    """Aberth polishing in mpc at precision + 40 bits, with error bounds.

    Serves starting points out of the double range and inputs the
    fixed-point stage cannot settle. The computed |p(z)| can round to 0 at a
    root that is not exact, so val adds Horner's rounding bound
    gamma_2n * sum |a_k| |z|^k (Higham, Accuracy and Stability, 5.1), with
    the unit roundoff doubled for complex products.
    """
    from mpmath import mpc, mpf
    work = precision + 40
    mcoeffs = [to_mpc(c) for c in coeffs]
    points = [mpc(z) for z in points]
    settled = _aberth(mcoeffs, points, mpf(2) ** (-(precision + 20)), _POLISH_SWEEPS)
    if settled is None or not all(settled):
        raise NonConvergenceError("root iteration did not reach the backward-error target")
    n = len(mcoeffs) - 1
    lead = abs(mcoeffs[0])
    deriv = [c * (n - i) for i, c in enumerate(mcoeffs[:-1])]
    u = mpf(2) ** (1 - work)
    gamma = 2 * n * u / (1 - 2 * n * u)
    return [ComplexApprox(mpc(z), _bound(pval + gamma * mag, abs(_horner(deriv, z)), lead, n))
            for z, (pval, mag) in zip(points, settled)]


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
    toward zero of a right shift; None for 0."""
    size = (wr * wr + wi * wi).bit_length()
    if not size:
        return None
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
    """The difference of two fixed-point points (wr, wi, e), exactly, then as a complex."""
    low = min(a[2], b[2])
    re = (a[0] << (a[2] - low)) - (b[0] << (b[2] - low))
    im = (a[1] << (a[2] - low)) - (b[1] << (b[2] - low))
    return complex(_to_float(re, low - frac), _to_float(im, low - frac))


def _polish_fixed(coeffs, points, precision):
    """Aberth polishing on Gaussian dyadic points in integer arithmetic.

    points are the hardware-float stage's, and each becomes
    (wr + i*wi) * 2^(e - frac) with 1/2 <= |w| < 1 for w = z / 2^e; frac
    is precision + 40 + n + 8 fractional bits, which keeps the rounding of
    the fixed-point Horner below Higham's bound gamma * sum |a_k| |z|^k of
    the mpc stage. Before each evaluation a point is chopped to
    precision + 40 bits, so a settled point is exactly the mpc returned.
    The Newton quotient is one integer division; the Aberth factor
    1/(1 - N*S) is taken in hardware floats from float copies of the
    points, or from the exact difference where two copies are too close.
    Returns the ComplexApprox list, or None when a point does not settle
    within the sweep budget or the iteration leaves the double range.
    """
    from mpmath import mp, mpc, mpf
    n = len(coeffs) - 1
    work = precision + 40
    frac = work + n + 8
    den = math.lcm(*(c.d for c in coeffs))
    ints = [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]
    # the stop |p| <= 2^-(precision+20) * mag in units of 2^-frac
    stop = frac - precision - 20
    tables = {}
    try:
        state = [_normalize(_fixed(z.real, frac), _fixed(z.imag, frac), 0, frac)
                 for z in points]
        if None in state:
            return None
        floats = list(points)
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
                mag = 0.0
                for m in mags:
                    mag = mag * size + m
                limit = int(math.ldexp(mag, stop))
                if hr * hr + hi * hi <= limit * limit:
                    settled[k] = (s, hr, hi, dr, di)
                    continue
                norm = dr * dr + di * di
                if not norm:
                    return None
                nr = ((hr * dr + hi * di) << frac) // norm
                ni = ((hi * dr - hr * di) << frac) // norm
                total = 0j
                for j in range(n):
                    if j != k:
                        diff = floats[k] - floats[j]
                        if abs(diff) < 2.0**-40 * abs(floats[k]):
                            diff = _dyadic_diff(state[k], state[j], frac)
                            if not diff:
                                return None
                        total += 1 / diff
                ns = complex(_to_float(nr, e - frac), _to_float(ni, e - frac)) * total
                g = 0j if ns == 1 else ns / (1 - ns)
                # W - N * (1 + g), with g to 62 fractional bits
                gr, gi = int(math.ldexp(g.real, 62)), int(math.ldexp(g.imag, 62))
                fr = gr + (1 << 62)
                state[k] = _normalize(wr - ((nr * fr - ni * gi) >> 62),
                                      wi - ((nr * gi + ni * fr) >> 62), e, frac)
                if state[k] is None:
                    return None
                wr, wi, e = state[k]
                floats[k] = complex(_to_float(wr, e - frac), _to_float(wi, e - frac))
                moved = True
            if not moved:
                break
    except (OverflowError, ValueError):
        return None
    if not all(settled):
        return None
    lead = abs(to_mpc(coeffs[0]))
    out = []
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
    then on Gaussian dyadic points in integer fixed point until every root
    meets the backward-error stop |p(z)| <= 2^-(precision+20) * sum |a_k|
    |z|^k, so that multiple roots terminate as tight clusters instead of
    stalling. Each err is the Newton radius n*|p(z)|/|p'(z)|, from an upper
    bound on |p(z)| and a lower bound on |p'(z)| that carry the fixed-point
    rounding, and at least |p(z)|/(1 + |a_n|*n). Starts out of the double
    range, and points the fixed-point stage cannot settle, take the same
    iteration in mpmath mpc at precision + 40 bits instead, with Horner's
    rounding bound. Only roots that pass the stop are returned; zero roots
    are split off first and returned exactly.
    """
    from mpmath import mp, mpc, mpf
    coeffs = list(poly.coeffs)
    if len(coeffs) < 2:
        return []
    out = []
    while coeffs[-1].is_zero:
        out.append(ComplexApprox(mpc(0), mpf(0)))
        coeffs.pop()
    if len(coeffs) == 1:
        return out
    with mp.workprec(precision + 40):
        starts = _newton_polygon_starts(coeffs)
        refined = _float_starts(coeffs, starts)
        polished = None if refined is None else _polish_fixed(coeffs, refined, precision)
        if polished is None:
            polished = _polish_mp(coeffs, starts if refined is None else refined, precision)
    out += polished
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out


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

    # each distance is measured once and kept when below 2*tol, the only
    # ones a gap check can fail on; a longer one within a cluster fails the
    # diameter check, which measures it again for its message
    close = {}
    for a in range(n):
        for b in range(a + 1, n):
            d = abs(values[a] - values[b])
            if d < 2 * t:
                close[a, b] = d
            if d <= max(t, errs[a] + errs[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    out = []
    for idxs in groups.values():
        total = sum(weights[a] for a in idxs)
        center = sum(values[a] * weights[a] for a in idxs) / total
        diameter = max((close.get((a, b)) or abs(values[a] - values[b])
                        for a in idxs for b in idxs if a < b), default=mpf(0))
        if diameter > t / 2:
            raise AmbiguousClusteringError(
                f"cluster diameter {diameter} exceeds half the tolerance {t}"
            )
        out.append(RootCluster(center, total))
    # the first pair of clusters with members closer than 2*tol, least first
    cid = {a: k for k, idxs in enumerate(groups.values()) for a in idxs}
    gaps = sorted((min(cid[a], cid[b]), max(cid[a], cid[b]), d)
                  for (a, b), d in close.items() if cid[a] != cid[b])
    if gaps:
        raise AmbiguousClusteringError(
            f"inter-cluster gap {gaps[0][2]} is below twice the tolerance {t}"
        )
    out.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return out


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
    or None. The oracle for the exact matcher, it shares no code with it.
    """
    from mpmath import mpc, mpf
    if mode not in ("linear", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    a_cl = sorted(side_a, key=lambda c: (c.center.real, c.center.imag))
    b_cl = sorted(side_b, key=lambda c: (c.center.real, c.center.imag))
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
    nonzero_a = [c for c in a_cl if abs(c.center) > t]
    nonzero_b = [c for c in b_cl if abs(c.center) > t]
    if len(nonzero_a) != len(nonzero_b):
        return None
    if not nonzero_a:
        mapped = [(c.center, c.multiplicity) for c in a_cl]
        return NumericMatch(mpc(1), None) if _greedy_pairing(mapped, b_cl, t) else None
    candidates = (cb.center / ca.center for ca in nonzero_a for cb in nonzero_b
                  if ca.multiplicity == cb.multiplicity)
    for a in candidates:
        mapped = ((a * c.center, c.multiplicity) for c in a_cl)
        if _greedy_pairing(mapped, b_cl, t):
            return NumericMatch(a, None)
    return None


def eval_bivar(poly: BivarPoly, points, precision: int = DEFAULT_PRECISION) -> list:
    """Evaluate a bivariate polynomial at each (x, y) of points.

    Returns one mpc per point, computed 20 bits finer than precision; the
    coefficients become mpc once per call. The powers of x and y come from
    power_table, stepped through only the exponents that occur, so a germ on
    a weighted line costs O(terms) multiplications per point.
    """
    from mpmath import mp, mpc
    with mp.workprec(precision + 20):
        terms = [(i, j, to_mpc(c)) for (i, j), c in poly.terms.items()]
        x_exps = {i for i, _, _ in terms}
        y_exps = {j for _, j, _ in terms}
        out = []
        for x, y in points:
            xp, yp = power_table(mpc(x), x_exps), power_table(mpc(y), y_exps)
            acc = mpc(0)
            for i, j, c in terms:
                acc += c * xp[i] * yp[j]
            out.append(acc)
        return out
