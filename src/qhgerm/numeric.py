"""Arbitrary-precision numeric kernel built on mpmath.

Provides simultaneous root finding (Aberth-Ehrlich iteration), single-linkage
root clustering with an explicit unsafe-regime guard, brute-force multiset
matchers used as the independent oracle for the exact engine, and batched
bivariate evaluation. Nothing here mutates mpmath's global precision.
find_roots and eval_bivar scope their own working precision; cluster_roots,
numeric_match, nth_root and to_mpc compute at the caller's precision.

mpmath is imported by each function that does mpmath arithmetic, on entry,
not by this module: the exact route never needs it, so a process that
decides exact input does not pay for loading it.
"""

from __future__ import annotations

import cmath

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
_MP_SWEEPS = 600


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


def _newton_polygon_starts(coeffs) -> list:
    """Aberth starting points read off the Newton polygon of the coefficients.

    The upper convex hull of (k, log|a_k|) has one edge per band of root
    moduli: an edge from k to l holds l - k roots of modulus about
    (|a_k| / |a_l|)^(1/(l - k)), so that many points go on a circle of that
    radius (Bini 1996). Angles are offset from one circle to the next.
    """
    from mpmath import mp, mpf
    n = len(coeffs) - 1
    points = [(n - i, float(mp.log(abs(c)))) for i, c in enumerate(coeffs) if c != 0]
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
        radius = mp.exp(mpf(yk - yl) / count)
        offset = 2 * mp.pi * len(starts) / n + mpf(2) / 5
        for j in range(count):
            starts.append(radius * mp.expj(2 * mp.pi * j / count + offset))
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

    Runs only when every coefficient is a finite double that is zero exactly
    when the coefficient is; returns None when the points leave the double
    range, so the caller keeps the unrefined starts.
    """
    fcoeffs = [complex(c) for c in coeffs]
    if not all(cmath.isfinite(f) and (f == 0) == (c == 0) for f, c in zip(fcoeffs, coeffs)):
        return None
    points = [complex(z) for z in starts]
    try:
        settled = _aberth(fcoeffs, points, len(points) * 2.0**-51, _FLOAT_SWEEPS)
    except (OverflowError, ZeroDivisionError):
        return None
    if settled is None or not all(cmath.isfinite(z) for z in points):
        return None
    return points


def find_roots(poly: UniPoly, precision: int = DEFAULT_PRECISION) -> list:
    """All complex roots of a univariate polynomial, with error bounds.

    Runs the Aberth-Ehrlich simultaneous iteration from Newton-polygon
    starting points: first in hardware floats to bring the starts close, then
    at precision + 40 bits until every root meets the backward-error stop
    |p(z)| <= 2^-(precision+20) * sum |a_k| |z|^k, so that multiple roots
    terminate as tight clusters instead of stalling. Only roots that pass
    the stop at full precision are returned.
    """
    from mpmath import mp, mpc, mpf
    work = precision + 40
    with mp.workprec(work):
        coeffs = [to_mpc(c) for c in poly.coeffs]
        if len(coeffs) < 2:
            return []
        zeros_out = []
        while abs(coeffs[-1]) == 0:
            zeros_out.append(ComplexApprox(mpc(0), mpf(0)))
            coeffs.pop()
        n = len(coeffs) - 1
        if n == 0:
            return zeros_out
        starts = _newton_polygon_starts(coeffs)
        refined = _float_starts(coeffs, starts)
        points = starts if refined is None else [mpc(z) for z in refined]
        settled = _aberth(coeffs, points, mpf(2) ** (-(precision + 20)), _MP_SWEEPS)
        if settled is None or not all(settled):
            raise NonConvergenceError("root iteration did not reach the backward-error target")
        lead = coeffs[0]
        deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
        # the computed |p(z)| can round to 0 at a root that is not exact; add
        # Horner's rounding bound gamma_2n * sum |a_k| |z|^k (Higham, Accuracy
        # and Stability, 5.1), with the unit roundoff doubled for complex
        # products, so that every bound below encloses a true root
        u = mpf(2) ** (1 - work)
        gamma = 2 * n * u / (1 - 2 * n * u)
        out = list(zeros_out)
        for z, (pval, mag) in zip(points, settled):
            val = pval + gamma * mag
            dval = abs(_horner(deriv, z))
            floor = val / (1 + abs(lead) * n)
            if dval > 0:
                bound = max(n * val / dval, floor)
            else:
                bound = max((val / abs(lead)) ** (mpf(1) / n), floor)
            out.append(ComplexApprox(mpc(z), mpf(bound)))
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
