"""Oracles for the numeric route: each kernel function against a plain
reference that recomputes its answer the long way.

- find_roots: every err holds the Newton radius n*|p(z)|/|p'(z)|, computed
  in exact rationals at the returned dyadic value, and is at most twice the
  mpc bound formula (Higham's rounding term in |p(z)|, then the Newton
  radius) recomputed from scratch at that value; so is every err of
  refine_roots, polishing the 128-bit roots at 256 and 1024 bits. On
  ladders built from known roots, the fixed-point polishing agrees with the
  mpc polishing it replaced, kept here as reference_find_roots: the same
  root count, every true root in a returned disc, and the same clusters.
- cluster_roots: a brute-force single linkage (adjacency matrix, depth-first
  components, every distance measured where it is read) gives the same
  clusters or the same exception.
- numeric_match: the all-pairs candidate search over every pair of nonzero
  clusters gives the same scale and shift, or None alike.
- eval_bivar: its integer kernel gives the same bits as the mpc loop it
  replaced, kept here as reference_eval_bivar, on drawn polynomials and
  points and on cases built to reach each rounding decision.
- verify_witness on radical witnesses: the exact certificate proves every
  witness of the radical corpora and of the branch-completeness pairs, and
  refutes each corrupted witness, except a moved branch that is a witness
  again; the sampled check it replaced, kept here as
  reference_sampled_check, confirms those and a sample of the refuted ones
  at 1024 bits.
- to_mpc and eval_bivar's coefficients: one rounding of Q(i) to binary
  with the bits of the Fraction division it replaced, kept here as
  reference_to_mpc.

Inputs are seeded and include root sets r * (roots of unity), zero roots or
clusters, and mixed multiplicities.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from qhgerm import (AmbiguousClusteringError, BivarPoly, NonConvergenceError, UniPoly,
                    build_witness, cluster_roots, decide_equivalence, eval_bivar, find_roots,
                    gq, numeric_match, parse_poly, verify_witness)
from qhgerm import engine, numeric
from qhgerm.numeric import ComplexApprox, NumericMatch, RootCluster, to_mpc
from qhgerm.polyio import power_table

from conftest import rand_gq


def horner(coeffs, z):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def reference_bound(poly: UniPoly, z: mpc, precision: int) -> mpf:
    """The mpc stage's bound at z, with every sum evaluated afresh."""
    work = precision + 40
    with mp.workprec(work):
        coeffs = [to_mpc(c) for c in poly.coeffs]
        while abs(coeffs[-1]) == 0:
            coeffs.pop()
        n = len(coeffs) - 1
        lead = coeffs[0]
        deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
        u = mpf(2) ** (1 - work)
        gamma = 2 * n * u / (1 - 2 * n * u)
        val = abs(horner(coeffs, z)) + gamma * horner([abs(c) for c in coeffs], abs(z))
        dval = abs(horner(deriv, z))
        if dval > 0:
            return n * val / dval
        return (val / abs(lead)) ** (mpf(1) / n)


def exact(x: mpf) -> Fraction:
    man, exp = x.man_exp  # man is the modulus of the mantissa
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


def newton_radius_sq(poly: UniPoly, z: mpc) -> Fraction:
    """(n |p(z)| / |p'(z)|)^2 in exact rationals at the dyadic point z."""
    point = gq(exact(z.real), exact(z.imag))
    return (poly.degree ** 2 * poly.eval(point).norm_sq()
            / poly.derivative().eval(point).norm_sq())


def random_ladder(rng) -> UniPoly:
    """(w^k - c)^e * prod (w - r)^mult * w^zeros, some factors left out.

    w^k - c has the roots c^(1/k) times the k-th roots of unity.
    """
    poly = UniPoly.from_coeffs([gq(1)])
    if rng.random() < 0.7:
        k = rng.randint(2, 8)
        c = rand_gq(rng, 9, nonzero=True)
        symmetric = UniPoly.from_coeffs([gq(1)] + [gq(0)] * (k - 1) + [-c])
        poly = poly * symmetric ** rng.choice((1, 1, 2))
    for _ in range(rng.randint(0 if poly.degree else 1, 3)):
        poly = poly * UniPoly.from_roots([rand_gq(rng, 12)]) ** rng.randint(1, 3)
    zeros = rng.choice((0, 0, 1, 2))
    return poly * UniPoly.from_coeffs([gq(1)] + [gq(0)] * zeros)


@pytest.mark.parametrize("seed", range(40))
def test_find_roots_err_is_the_bound_at_the_returned_value(seed):
    # find_roots at the drawn precision, and refine_roots from the 128-bit
    # roots to 256 and to 1024 bits
    rng = random.Random(f"find-roots-oracle-{seed}")
    poly = random_ladder(rng)
    precision = rng.choice((128, 128, 192, 256))
    first = find_roots(poly, 128)
    outputs = [(find_roots(poly, precision), precision)] + [
        (numeric.refine_roots(poly, first, target), target) for target in (256, 1024)]
    stripped = UniPoly(tuple(poly.coeffs[:max(k for k, c in enumerate(poly.coeffs)
                                              if not c.is_zero) + 1]))
    trailing = len(poly.coeffs) - max(k for k, c in enumerate(poly.coeffs) if not c.is_zero) - 1
    for roots, prec in outputs:
        assert len(roots) == poly.degree
        exact_zeros = 0
        for approx in roots:
            if approx.value == 0 and approx.err == 0:
                exact_zeros += 1
                continue
            assert newton_radius_sq(stripped, approx.value) <= exact(approx.err) ** 2
            assert approx.err <= 2 * reference_bound(poly, approx.value, prec)
        assert exact_zeros == trailing


def mpc_aberth(coeffs, points, limit):
    """Aberth-Ehrlich sweeps on mpc points, in place, until each point has
    |p(z)| <= limit * sum |a_k| |z|^k; a settled point never moves again.
    Raises NonConvergenceError when one does not settle in 600 sweeps."""
    n = len(points)
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    abs_coeffs = [abs(c) for c in coeffs]
    settled = [False] * n
    for _ in range(600):
        moved = False
        for k in range(n):
            if settled[k]:
                continue
            z = points[k]
            val = horner(coeffs, z)
            if abs(val) <= limit * horner(abs_coeffs, abs(z)):
                settled[k] = True
                continue
            dval = horner(deriv, z)
            if dval == 0:
                points[k] = z + mpf(1e-3)
                moved = True
                continue
            newton = val / dval
            acc = sum(1 / ((z - points[j]) or mpf(1e-30)) for j in range(n) if j != k)
            denom = 1 - newton * acc
            points[k] = z - (newton if denom == 0 else newton / denom)
            moved = True
        if not moved:
            break
    if not all(settled):
        raise NonConvergenceError("root iteration did not reach the backward-error target")


def reference_find_roots(poly: UniPoly, precision: int) -> list:
    """find_roots with every root polished in mpc, as before the fixed-point
    stage: the same starts and hardware-float stage, then the same Aberth
    iteration in mpc at precision + 40 bits, each err the bound formula of
    reference_bound (Horner's rounding term by Higham) at the settled point."""
    coeffs = list(poly.coeffs)
    out = []
    while coeffs[-1].is_zero:
        out.append(ComplexApprox(mpc(0), mpf(0)))
        coeffs.pop()
    starts = numeric._newton_polygon_starts(coeffs)
    refined = numeric._float_starts(coeffs, starts) or starts
    with mp.workprec(precision + 40):
        points = [mpc(mp.ldexp(c.real, e), mp.ldexp(c.imag, e)) for c, e in refined]
        mpc_aberth([to_mpc(c) for c in coeffs], points, mpf(2) ** -(precision + 20))
    out += [ComplexApprox(z, reference_bound(poly, z, precision)) for z in points]
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out


_SMALL_ROOT = st.builds(
    lambda a, d, im: gq(Fraction(a, d), im),
    st.integers(-30, 30), st.integers(1, 30),
    st.just(Fraction(0)) | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
)


@st.composite
def ladders_from_roots(draw):
    """(poly, its distinct roots, precision): a product of (w - r)^m, times a
    constant, with a near-coincident pair 1 and 1 + 10^-k, the wide moduli
    10^20, -3 and 10^-15, or zero roots added at times."""
    mults = {}
    for r, m in draw(st.lists(st.tuples(_SMALL_ROOT, st.integers(1, 3)), min_size=1, max_size=4)):
        mults[r] = mults.get(r, 0) + m
    extra = draw(st.sampled_from(["none", "near", "wide", "zeros"]))
    if extra == "near":
        added = [gq(1), gq(1 + Fraction(1, 10 ** draw(st.integers(3, 25))))]
    elif extra == "wide":
        added = [gq(10**20), gq(-3), gq(Fraction(1, 10**15))]
    else:
        added = [gq(0)] * draw(st.integers(1, 2)) if extra == "zeros" else []
    for r in added:
        mults[r] = mults.get(r, 0) + 1
    lead = draw(st.sampled_from([gq(1), gq(3), gq(Fraction(-2, 7), 1)]))
    poly = UniPoly.from_roots([r for r, m in mults.items() for _ in range(m)]).scale(lead)
    small = [8192] if poly.degree <= 4 else []
    return poly, list(mults), draw(st.sampled_from([128, 192, 256, 1024] + small))


def chopped(z: mpc, precision: int) -> mpc:
    """z without components below 2^-precision * |z|, as the CLI prints it."""
    floor = abs(z) * mpf(2) ** -precision
    return mpc(z.real if abs(z.real) > floor else 0, z.imag if abs(z.imag) > floor else 0)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ladder=ladders_from_roots())
@example(ladder=(UniPoly.from_roots([gq(1), gq(1 + Fraction(1, 10**20)), gq(-3)]),
                 [gq(1), gq(1 + Fraction(1, 10**20)), gq(-3)], 8192))
@example(ladder=(UniPoly.from_roots([gq(10**20), gq(-3), gq(Fraction(1, 10**15)), gq(0)]),
                 [gq(10**20), gq(-3), gq(Fraction(1, 10**15)), gq(0)], 1024))
# roots that the mpc stage alone served until the fixed-point stage took
# starts of any size: out of the double range, and below its fixed point
@example(ladder=(UniPoly.from_roots([gq(10**200), gq(-3), gq(Fraction(1, 10**150))]),
                 [gq(10**200), gq(-3), gq(Fraction(1, 10**150))], 128))
@example(ladder=(UniPoly.from_roots([gq(10**400), gq(-3), gq(Fraction(1, 10**350))]),
                 [gq(10**400), gq(-3), gq(Fraction(1, 10**350))], 128))
@example(ladder=(UniPoly.from_roots([gq(Fraction(1, 10**60)), gq(1), gq(2)]),
                 [gq(Fraction(1, 10**60)), gq(1), gq(2)], 128))
def test_find_roots_agrees_with_the_mpc_polishing(ladder):
    poly, true_roots, precision = ladder
    got = find_roots(poly, precision)
    want = reference_find_roots(poly, precision)
    assert len(got) == len(want) == poly.degree
    with mp.workprec(precision + 100):
        for r in true_roots:
            assert any(abs(a.value - to_mpc(r)) <= a.err for a in got)
    # clustered at the caller's 53 bits, as the numeric route does
    tol = 1e-9
    got_cl = outcome(cluster_roots, got, tol, [1] * len(got))
    want_cl = outcome(cluster_roots, want, tol, [1] * len(want))
    if isinstance(want_cl, tuple) or isinstance(got_cl, tuple):
        assert type(got_cl) is type(want_cl)
        return
    assert len(got_cl) == len(want_cl)
    paired = set()
    for w in want_cl:
        g = min(got_cl, key=lambda c: abs(c.center - w.center))
        assert id(g) not in paired and g.multiplicity == w.multiplicity
        paired.add(id(g))
        # each member lies within its err of a true root, so both centers lie
        # within the largest member err of the members' mean root. Members
        # lie within tol/2 of their exact mean, and the 53-bit center, a sum
        # of m members over m, within (m + 1) * 2^-53 * |center| of it
        near = tol + w.multiplicity * abs(w.center) * mpf(2) ** -52
        slack = max(a.err for a in got + want if abs(a.value - w.center) <= near)
        if slack <= abs(w.center) * mpf(2) ** -precision:
            assert chopped(g.center, precision) == chopped(w.center, precision)
        else:
            assert abs(g.center - w.center) <= 2 * slack + abs(w.center) * mpf(2) ** -52


def reference_clusters(roots, tol, weights):
    """Single linkage by brute force, then the same diameter and gap checks."""
    values = [r.value if isinstance(r, ComplexApprox) else mpc(r) for r in roots]
    errs = [r.err if isinstance(r, ComplexApprox) else mpf(0) for r in roots]
    t = mpf(tol)
    n = len(values)
    linked = [[a != b and abs(values[a] - values[b]) <= max(t, errs[min(a, b)] + errs[max(a, b)])
               for b in range(n)] for a in range(n)]
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], stack, members = True, [start], []
        while stack:
            a = stack.pop()
            members.append(a)
            for b in range(n):
                if linked[a][b] and not seen[b]:
                    seen[b] = True
                    stack.append(b)
        groups.append(sorted(members))
    for idxs in groups:
        diameter = max((abs(values[a] - values[b]) for a in idxs for b in idxs if a < b),
                       default=mpf(0))
        if diameter > t / 2:
            raise AmbiguousClusteringError(
                f"cluster diameter {diameter} exceeds half the tolerance {t}")
    for x, first in enumerate(groups):
        for second in groups[x + 1:]:
            gap = min(abs(values[a] - values[b]) for a in first for b in second)
            if gap < 2 * t:
                raise AmbiguousClusteringError(
                    f"inter-cluster gap {gap} is below twice the tolerance {t}")
    out = []
    for idxs in groups:
        total = sum(weights[a] for a in idxs)
        center = sum(values[a] * weights[a] for a in idxs) / total
        out.append(RootCluster(center, total))
    out.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except AmbiguousClusteringError as exc:
        return ("raises", str(exc))


def synthetic_roots(rng):
    """Points in groups around grid centers: tight, wide (over tol/2), or
    next to a neighbour inside the 2*tol guard band; some carry error disks."""
    tol = 1e-9
    roots = []
    for _ in range(rng.randint(1, 6)):
        center = mpc(rng.randint(-20, 20), rng.randint(-20, 20)) * mpf(10) ** -rng.choice((0, 3, 6))
        spread = rng.choice((1e-13, 1e-13, 3e-10, 8e-10))
        for _ in range(rng.randint(1, 3)):
            z = center + mpc(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            err = mpf(rng.choice((0, 0, 1e-12, 2e-9)))
            roots.append(ComplexApprox(z, err))
        if rng.random() < 0.15:
            roots.append(ComplexApprox(center + mpc(1.5 * tol), mpf(0)))
    rng.shuffle(roots)
    return roots


@pytest.mark.parametrize("seed", range(60))
def test_cluster_roots_is_brute_force_single_linkage(seed):
    rng = random.Random(f"cluster-oracle-{seed}")
    if seed % 3 == 0:
        roots = find_roots(random_ladder(rng), 128)
    else:
        roots = synthetic_roots(rng)
    weights = [rng.randint(1, 3) for _ in roots]
    with mp.workprec(168):
        got = outcome(cluster_roots, roots, 1e-9, weights)
        want = outcome(reference_clusters, roots, 1e-9, weights)
    assert got == want


def test_pair_linked_by_error_disks_beyond_2tol_fails_the_diameter_check():
    # 3e-9 apart, linked by errors of 2e-9 each: a distance that is not kept
    # for the gap checks still sets the diameter
    roots = [ComplexApprox(mpc(1), mpf(2e-9)), ComplexApprox(mpc(1 + 3e-9), mpf(2e-9))]
    with mp.workprec(168):
        got = outcome(cluster_roots, roots, 1e-9, [1, 1])
        assert got == outcome(reference_clusters, roots, 1e-9, [1, 1])
    assert got[1].startswith("cluster diameter 0.0000000030000")


def test_cluster_oracle_meets_both_exceptions_and_clean_cases():
    kinds = set()
    for seed in range(60):
        rng = random.Random(f"cluster-oracle-{seed}")
        roots = find_roots(random_ladder(rng), 128) if seed % 3 == 0 else synthetic_roots(rng)
        weights = [rng.randint(1, 3) for _ in roots]
        with mp.workprec(168):
            got = outcome(reference_clusters, roots, 1e-9, weights)
        kinds.add(got[1].split()[0] if isinstance(got, tuple) else "clusters")
    assert kinds == {"clusters", "cluster", "inter-cluster"}


def reference_greedy_pairing(mapped, targets, tol) -> bool:
    """_greedy_pairing as it was before its steps were decided in doubles:
    the mpc loop over (mapped mpc center, multiplicity) pairs."""
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


def all_pairs_match(mode, side_a, side_b, tol=1e-9):
    """The matcher that tries cb / ca for every equal-multiplicity pair."""
    a_cl = sorted(side_a, key=lambda c: (c.center.real, c.center.imag))
    b_cl = sorted(side_b, key=lambda c: (c.center.real, c.center.imag))
    if sorted(c.multiplicity for c in a_cl) != sorted(c.multiplicity for c in b_cl):
        return None
    if len(a_cl) != len(b_cl):
        return None
    t = mpf(tol)
    if mode == "affine":
        total = sum(c.multiplicity for c in a_cl)
        cen_a = sum((c.center * c.multiplicity for c in a_cl), mpc(0)) / total
        cen_b = sum((c.center * c.multiplicity for c in b_cl), mpc(0)) / total
        shifted_a = [RootCluster(c.center - cen_a, c.multiplicity) for c in a_cl]
        shifted_b = [RootCluster(c.center - cen_b, c.multiplicity) for c in b_cl]
        inner = all_pairs_match("linear", shifted_a, shifted_b, tol)
        if inner is None:
            return None
        a = inner.scale
        b = cen_b - a * cen_a
        mapped = [(a * c.center + b, c.multiplicity) for c in a_cl]
        return NumericMatch(a, b) if reference_greedy_pairing(mapped, b_cl, t) else None
    nonzero_a = [c for c in a_cl if abs(c.center) > t]
    nonzero_b = [c for c in b_cl if abs(c.center) > t]
    if len(nonzero_a) != len(nonzero_b):
        return None
    if not nonzero_a:
        mapped = [(c.center, c.multiplicity) for c in a_cl]
        return NumericMatch(mpc(1), None) if reference_greedy_pairing(mapped, b_cl, t) else None
    candidates = [cb.center / ca.center for ca in nonzero_a for cb in nonzero_b
                  if ca.multiplicity == cb.multiplicity]
    for a in candidates:
        if reference_greedy_pairing([(a * c.center, c.multiplicity) for c in a_cl], b_cl, t):
            return NumericMatch(a, None)
    return None


def random_side(rng):
    """Clusters of r * (k-th roots of unity), free points and maybe 0."""
    centers = []
    if rng.random() < 0.7:
        k = rng.randint(2, 8)
        r = mpc(rng.uniform(0.2, 3), rng.uniform(-1, 1))
        mult = rng.randint(1, 2)
        centers += [(r * mp.expjpi(mpf(2 * j) / k), mult) for j in range(k)]
    for _ in range(rng.randint(0 if centers else 1, 3)):
        centers.append((mpc(rng.randint(-8, 8), rng.randint(-8, 8)) / 2, rng.randint(1, 3)))
    if rng.random() < 0.3:
        centers.append((mpc(0), rng.randint(1, 3)))
    elif rng.random() < 0.3:
        # a cluster just past the zero threshold: a scale read off it is off
        # by a large factor, so only another row's scale may pair the rest
        centers.append((mpc(rng.uniform(2e-9, 5e-9), rng.uniform(-2e-9, 2e-9)), 1))
    distinct = []
    for z, mult in centers:
        if all(abs(z - w) > 1e-3 for w, _ in distinct):
            distinct.append((z, mult))
    return [RootCluster(z, mult) for z, mult in distinct]


def related_side(rng, side, affine):
    """The image of side under a scale (and shift), maybe moved within tol,
    or a near miss."""
    scale = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
    shift = mpc(rng.randint(-4, 4), rng.randint(-4, 4)) / 4 if affine else mpc(0)
    image = [RootCluster(scale * c.center + shift, c.multiplicity) for c in side]
    nonzero = [k for k, c in enumerate(side) if abs(c.center) > 1e-9]
    if nonzero and rng.random() < 0.4:
        # move the image of the first nonzero cluster within tol: the scale
        # read off it errs by that over its modulus, times |c| elsewhere
        k = min(nonzero, key=lambda k: (side[k].center.real, side[k].center.imag))
        offset = rng.choice((-0.9e-9, 0.9e-9)) * (1 + abs(image[k].center))
        image[k] = RootCluster(image[k].center + offset, image[k].multiplicity)
    roll = rng.random()
    if roll < 0.25:
        slot = rng.randrange(len(image))
        moved = image[slot].center + mpc(rng.choice((5e-10, 2e-9, 1e-7, 0.3, 1)), 0)
        image[slot] = RootCluster(moved, image[slot].multiplicity)
    elif roll < 0.35 and len(image) > 1:
        first, last = image[0], image[-1]
        image[0] = RootCluster(first.center, last.multiplicity)
        image[-1] = RootCluster(last.center, first.multiplicity)
    rng.shuffle(image)
    return image


@pytest.mark.parametrize("mode", ["linear", "affine"])
def test_numeric_match_equals_the_all_pairs_search(mode):
    found = missed = 0
    for seed in range(150):
        rng = random.Random(f"match-oracle-{mode}-{seed}")
        side_a = random_side(rng)
        side_b = related_side(rng, side_a, mode == "affine")
        if rng.random() < 0.1:
            side_b = random_side(rng)
        got = numeric_match(mode, side_a, side_b)
        want = all_pairs_match(mode, side_a, side_b)
        assert got == want, seed
        found, missed = found + (got is not None), missed + (got is None)
    assert found > 60 and missed > 20


@pytest.mark.parametrize("mode", ["linear", "affine"])
@pytest.mark.parametrize("side_a, side_b", [
    ([3e-9, 1], [3.5e-9, 1]),
    ([0.001, 10], [0.001 + 5e-10, 10]),
])
def test_match_within_tol_that_the_first_row_misses(mode, side_a, side_b):
    # the scale read off the first nonzero cluster is off by |c|/|first|
    # times its error elsewhere; a later row's scale pairs every cluster
    a = [RootCluster(mpc(z), 1) for z in side_a]
    b = [RootCluster(mpc(z), 1) for z in side_b]
    got = numeric_match(mode, a, b)
    assert got is not None and got == all_pairs_match(mode, a, b)


def test_numeric_match_all_zero_and_symmetric_corners():
    zero = [RootCluster(mpc(0), 3)]
    assert numeric_match("linear", zero, zero) == all_pairs_match("linear", zero, zero)
    # a hexagon matched onto its own rotation: the anchor has six candidates
    hexagon = [RootCluster(mp.expjpi(mpf(j) / 3), 1) for j in range(6)]
    turned = [RootCluster(c.center * mp.expjpi(mpf(1) / 3) * 2, 1) for c in hexagon]
    got = numeric_match("linear", hexagon, turned)
    assert got is not None and got == all_pairs_match("linear", hexagon, turned)


# The double-precision filter of cluster_roots and numeric_match decides a
# distance test in doubles only outside a proven margin. Cases 2^-50 of the
# threshold away on either side, at working precisions below, at and above
# 53 bits, must come out as the brute-force oracles say; so must values and
# bounds past the double range, which leave every test to mpc.

TOL = 1e-9
NEAR = (1 - mpf(2) ** -50, 1 + mpf(2) ** -50)
PRECISIONS = (30, 53, 168)


def boundary_root_sets(precision):
    """Root sets with a distance, or the reach of two error disks, at
    (1 +- 2^-50) times the threshold cluster_roots compares it with."""
    with mp.workprec(precision):
        t = +mpf(TOL)  # the tolerance as cluster_roots rounds it
    rng = random.Random(f"cluster-boundary-{precision}")
    sets = []
    with mp.workprec(300):
        for _ in range(12):
            base = mpc(rng.uniform(-9, 9), rng.uniform(-9, 9)) * rng.choice((1, 1, 1e-6, 1e3))
            turn = mp.expjpi(mpf(rng.random()) * 2)
            for f in NEAR:
                zero = mpf(0)
                # a gap at 2*tol*f: inside or just outside the guard band
                sets.append([ComplexApprox(base, zero),
                             ComplexApprox(base + 2 * t * f * turn, zero)])
                # 3*tol apart, error disks reaching 3*tol*f in all
                reach = 3 * t * f / 2
                sets.append([ComplexApprox(base, reach),
                             ComplexApprox(base + 3 * t * turn, reach)])
                # one cluster of diameter tol/2*f
                sets.append([ComplexApprox(base, zero),
                             ComplexApprox(base + t / 4 * turn, zero),
                             ComplexApprox(base + t / 2 * f * turn, zero)])
                # error disks join points far apart; two longest pairs 2^-50
                # apart in length set the diameter in the message
                far = rng.uniform(0.5, 5) * turn
                sets.append([ComplexApprox(base - far, mpf(20)),
                             ComplexApprox(base + far, mpf(20)),
                             ComplexApprox(base - far + 2 * far * f * mp.expj(0.3), mpf(20)),
                             ComplexApprox(base + far / 3, mpf(20))])
    return sets


@pytest.mark.parametrize("precision", PRECISIONS)
def test_cluster_filter_at_the_margin_agrees_with_brute_force(precision):
    kinds = set()
    for roots in boundary_root_sets(precision):
        weights = list(range(1, len(roots) + 1))
        with mp.workprec(precision):
            got = outcome(cluster_roots, roots, TOL, weights)
            want = outcome(reference_clusters, roots, TOL, weights)
        assert got == want
        kinds.add(got[1].split()[0] if isinstance(got, tuple) else len(got))
    # at 30 bits a distance 2^-50 off 2*tol rounds to 2*tol, which is no gap
    assert {"cluster", 1, 2} | ({"inter-cluster"} if precision > 30 else set()) <= kinds


def test_cluster_filter_falls_back_past_the_double_range():
    with mp.workprec(168):
        big, tiny, huge = mpf(10) ** 400, mpf(10) ** -350, mpf("1e309")
        cases = [
            # 10^400 is past the double range: no filter at all
            ([big, big + mpf(1.5 * TOL), big + 3, 2], [0] * 4, TOL),
            ([big * 1j, big * 1j + mpf(0.1 * TOL), -big], [0] * 3, TOL),
            # 10^-350 converts to 0.0, and each distance falls to mpc
            ([tiny, 2 * tiny, 5 * tiny * 1j], [0] * 3, TOL),
            ([mpc(0), tiny, 500 * tiny, 3 * tiny * 1j], [0] * 4, mpf(10) ** -349),
            # errs past 1e308 are infinite as doubles
            ([mpc(1), mpc(2), mpc(1 + 3 * TOL)], [huge, huge, 0], TOL),
            ([mpc(1), mpc(1 + 3 * TOL)], [huge, 0], TOL),
        ]
        for values, errs, tol in cases:
            roots = [ComplexApprox(mpc(v), mpf(e)) for v, e in zip(values, errs)]
            weights = [1] * len(roots)
            got = outcome(cluster_roots, roots, tol, weights)
            assert got == outcome(reference_clusters, roots, tol, weights)
        assert numeric._double_filter([mpc(1), big]) is None
        assert numeric._double_filter([mpc(1, big)]) is None
        points, compare = numeric._double_filter([mpc(1), mpc(3)])
        assert compare(*points, float(huge)) == 0
        assert compare(*points, 1.0) == 1 and compare(*points, 3.0) == -1
    with mp.workprec(15):
        assert numeric._double_filter([mpc(1)]) is None


def boundary_sides(precision):
    """Sides A and B = s*A with one cluster of B moved radially so that the
    scale s read off the others maps A's cluster (1 +- 2^-50), (1 +- 2^-52)
    or (1 +- 2^(2-precision)) times tol*(1 + |target|) from its target;
    then the undecided cases of tie_and_zero_sides."""
    with mp.workprec(precision):
        t = +mpf(TOL)
    rng = random.Random(f"match-boundary-{precision}")
    pairs = []
    with mp.workprec(300):
        ulps = [1 + k * mpf(2) ** e for k in (-1, 1) for e in (-52, 2 - precision)]
        for _ in range(12):
            scale = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            anchor = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            # the scale read off the small moved cluster misses the others
            moved = mpc(rng.uniform(-9, 9), rng.uniform(-9, 9)) * rng.choice((1e-2, 1e-3))
            others = [mpc(rng.randint(8, 80), rng.randint(-80, 80)) / 4 for _ in range(2)]
            for f in NEAR + tuple(ulps):
                m = abs(scale * moved)
                rho = t * f * (1 + m) / (m * (1 - t * f))
                side_a = [RootCluster(anchor, 1), RootCluster(moved, 2)]
                side_b = [RootCluster(scale * anchor, 1), RootCluster(scale * moved * (1 + rho), 2)]
                side_a += [RootCluster(z, 3) for z in others]
                side_b += [RootCluster(scale * z, 3) for z in others]
                pairs.append((side_a, side_b))
    return pairs + tie_and_zero_sides(precision)


def tie_and_zero_sides(precision):
    """Sides whose tests the doubles cannot settle.

    A tie: the scale -2 maps -1.5 to 3, which lies 2^-28 from the target
    3 - 2^-28 and 2^-28 - delta from 3 + 2^-28 - delta. With delta = 0 the
    first target wins, and -1.5 + 2^-29 is left the second, 2^-27 away, too
    far; delta = 2^-100 makes the second target nearer at any precision
    that tells the two apart, and the pairing succeeds. In doubles both
    distances are 2^-28.

    The nonzero test: a cluster of modulus within an ulp of tol, at 53 bits
    or at precision, on each side, above or below it.
    """
    with mp.workprec(precision):
        t = +mpf(TOL)
    pairs = []
    with mp.workprec(300):
        d = mpf(2) ** -28
        for delta in (0, mpf(2) ** -100):
            side_a = [RootCluster(mpc(-4), 1), RootCluster(mpc(-1.5), 2),
                      RootCluster(mpc(-1.5) + d / 2, 2)]
            side_b = [RootCluster(mpc(8), 1), RootCluster(mpc(3) - d, 2),
                      RootCluster(mpc(3) + d - delta, 2)]
            pairs.append((side_a, side_b))
        turn = mp.expjpi(mpf(0.3))
        edges = [t * (1 + k * mpf(2) ** e) for k in (-1, 1) for e in (-52, 1 - precision)]
        for tiny_a in edges:
            for tiny_b in edges:
                others = [mpc(1), mpc(-2, 3), mpc(4, 1)]
                side_a = [RootCluster(tiny_a * turn, 2)] + [RootCluster(z, 1) for z in others]
                side_b = [RootCluster(tiny_b * turn, 2)] + [RootCluster(1.5 * z, 1) for z in others]
                pairs.append((side_a, side_b))
    return pairs


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("mode", ["linear", "affine"])
def test_match_filter_at_the_margin_agrees_with_all_pairs(precision, mode):
    found = missed = 0
    for side_a, side_b in boundary_sides(precision):
        with mp.workprec(precision):
            got = numeric_match(mode, side_a, side_b)
            assert got == all_pairs_match(mode, side_a, side_b)
        found, missed = found + (got is not None), missed + (got is None)
    if mode == "linear":
        assert found and missed


def test_match_filter_falls_back_past_the_double_range():
    with mp.workprec(168):
        big = mpf(10) ** 400
        # 2^201 is a double, but past the 2^200 the filter takes
        for side in ([big, 1], [big * 1j, -big], [mpf(10) ** -350, 1, 2],
                     [mpf(2) ** 201, 1], [mpc(3, mpf(2) ** 201), -1, 1j]):
            side_a = [RootCluster(mpc(z), 1) for z in side]
            for shift in (0, mpf(1.5 * TOL), 1):
                side_b = [RootCluster(2 * c.center + (shift if k == 0 else 0), 1)
                          for k, c in enumerate(side_a)]
                for mode in ("linear", "affine"):
                    assert numeric_match(mode, side_a, side_b) == all_pairs_match(
                        mode, side_a, side_b)
        # a tolerance below 2^-200 turns the filter off; one past the double
        # range makes each of its bounds infinite
        side_a = [RootCluster(mpc(1), 1), RootCluster(mpc(3), 1)]
        side_b = [RootCluster(mpc(2), 1), RootCluster(mpc(6) + mpf(10) ** -70, 1)]
        for tol in (mpf(10) ** -80, mpf(10) ** -65, mpf(10) ** 400):
            assert numeric_match("linear", side_a, side_b, tol) == all_pairs_match(
                "linear", side_a, side_b, tol)
    # below 16 bits there is no filter, and every test is an mpc one
    for side_a, side_b in tie_and_zero_sides(15):
        with mp.workprec(15):
            for mode in ("linear", "affine"):
                assert numeric_match(mode, side_a, side_b) == all_pairs_match(mode, side_a, side_b)


RECORDED = Path(__file__).resolve().parent / "data" / "numeric_pairs_seed7.jsonl"


def test_numeric_route_tries_few_scales_and_keeps_every_verdict(monkeypatch):
    # the 72 pairs of bench/corpus.numeric_pairs(7, 8), with the verdicts
    # and printed scales and shifts recorded before the filter existed
    # (1,094 greedy passes then): a greedy pass runs for at most two
    # scales per pair, every verdict and scale repeats to the bit, and the
    # doubles settle every test of numeric_match (3,152 mpc moduli before
    # its nonzero tests and greedy steps were decided in doubles)
    records = [json.loads(line) for line in RECORDED.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 72
    passes, moduli, inside = [], [], []
    real = numeric._greedy_pairing
    monkeypatch.setattr(numeric, "_greedy_pairing", lambda *args: passes.append(1) or real(*args))
    real_match, real_abs = engine.numeric_match, mpc.__abs__

    def counting_match(*args):
        inside.append(1)
        try:
            return real_match(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(engine, "numeric_match", counting_match)
    monkeypatch.setattr(mpc, "__abs__", lambda z: (inside and moduli.append(1)) or real_abs(z))
    for rec in records:
        verdict = decide_equivalence(parse_poly(rec["first"]), parse_poly(rec["second"]))
        match = verdict.match
        got = {"status": verdict.status, "mode": verdict.mode, "reason": verdict.reason,
               "scale": None if match is None else repr(match.scale),
               "shift": None if match is None else repr(match.shift)}
        assert got == {key: rec[key] for key in got}
    assert len(passes) <= 2 * len(records)
    assert len(moduli) == 0


BITS = Path(__file__).resolve().parent / "data" / "numeric_pairs_bits.jsonl"
BIT_RECORDS = [json.loads(line) for line in BITS.read_text(encoding="utf-8").splitlines()]


def mpc_parts(z) -> list:
    """The mpf tuples of an mpc's parts, as the lists the bits file holds."""
    return [list(part) for part in z._mpc_]


@pytest.mark.parametrize("precision", [128, 512])
@pytest.mark.parametrize("seed", [3, 11, 13])
def test_numeric_route_keeps_the_bits_recorded_before_the_double_tests(
        monkeypatch, seed, precision):
    # the 18 pairs of bench/corpus.numeric_pairs(seed, 2), decided at 53
    # bits with find_roots at precision, recorded before find_roots formed
    # its values and bounds in libmp tuples and before numeric_match and the
    # root order decided in doubles: every root value and error bound,
    # cluster center and multiplicity, and match scale and shift repeats to
    # the bit
    records = [r for r in BIT_RECORDS if (r["seed"], r["precision"]) == (seed, precision)]
    assert len(records) == 18
    seen = {}

    def spy(name, key, bits):
        real_fn = getattr(engine, name)

        def recording(*args):
            got = real_fn(*args)
            seen[key].append(bits(got))
            return got

        monkeypatch.setattr(engine, name, recording)

    def root_bits(roots):
        return [[mpc_parts(r.value), list(r.err._mpf_)] for r in roots]

    spy("find_roots", "roots", root_bits)
    spy("refine_roots", "roots", root_bits)
    spy("cluster_roots", "clusters", lambda got: [[mpc_parts(c.center), c.multiplicity]
                                                  for c in got])
    for rec in records:
        seen.update(roots=[], clusters=[])
        with mp.workprec(53):
            verdict = decide_equivalence(parse_poly(rec["first"]), parse_poly(rec["second"]),
                                         precision=precision)
        match = verdict.match
        scale = None if match is None else mpc_parts(match.scale)
        shift = None if match is None or match.shift is None else mpc_parts(match.shift)
        assert (verdict.status, seen["roots"], seen["clusters"], scale, shift) == (
            rec["status"], rec["roots"], rec["clusters"], rec["scale"], rec["shift"]), rec["id"]


_REACH = (0, 0.5, 1 - 2.0**-50, 1 - 2.0**-52, 1, 1 + 2.0**-52, 1 + 2.0**-50, 3)


@st.composite
def pairings(draw):
    """A side, a scale (None for the identity) and targets: each image of a
    side cluster moved radially to f*tol*(1 + |target|) from it, f at and
    around 1, some mirrored into a second target at the same distance, and
    maybe two multiplicities swapped; at precisions on both sides of 16 and
    53 bits, and at a tolerance below the filter's 2^-200."""
    precision = draw(st.sampled_from([12, 30, 53, 168]))
    with mp.workprec(precision):
        t = +mpf(draw(st.sampled_from([TOL, TOL, 2.0**-30, 1e-80])))
    scale = draw(st.sampled_from([None, mpc(2), mpc(-2), mpc(0, 1), mpc(-1.5, 0.25), mpc(1, 1) / 3]))
    side, targets = [], []
    with mp.workprec(300):
        for _ in range(draw(st.integers(1, 5))):
            center = mpc(draw(st.integers(-40, 40)), draw(st.integers(-40, 40))) / 8
            mult = draw(st.integers(1, 3))
            side.append(RootCluster(center, mult))
            image = center if scale is None else scale * center
            f, m = draw(st.sampled_from(_REACH)), abs(image)
            # |image*rho| = f*t*(1 + m*(1 + rho)); for image 0, |d| = f*t*(1 + |d|)
            step = image * f * t * (1 + m) / (m * (1 - f * t)) if m else f * t / (1 - f * t)
            targets.append(RootCluster(image + step, mult))
            if draw(st.booleans()):
                targets.append(RootCluster(image - step, mult))
    if len(targets) > 1 and draw(st.booleans()):
        first, last = targets[0], targets[-1]
        targets[0] = RootCluster(first.center, last.multiplicity)
        targets[-1] = RootCluster(last.center, first.multiplicity)
    order = draw(st.permutations(range(len(targets))))
    return precision, t, side, scale, [targets[k] for k in order]


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=pairings())
def test_greedy_pairing_has_the_outcome_of_the_mpc_loop(case):
    # with doubles as numeric_match forms them (a double scale times the
    # double centers) and without
    precision, t, side, scale, targets = case
    with mp.workprec(precision):
        mapped = [(c.center if scale is None else scale * c.center, c.multiplicity) for c in side]
        want = reference_greedy_pairing(mapped, targets, t)
        assert numeric._greedy_pairing(side, targets, t, scale, None) == want
        ftol = float(t)
        filt = numeric._double_filter([c.center for c in side + targets])
        if filt and ftol >= 2.0**-200:
            points, compare = filt
            q = 1 if scale is None else complex(scale)
            ys = points[len(side):]
            doubles = [q * x for x in points[:len(side)]], ys, [ftol * (1 + abs(y)) for y in ys], compare
            assert numeric._greedy_pairing(side, targets, t, scale, doubles) == want


def reference_eval_bivar(poly, points, precision: int = 128) -> list:
    """eval_bivar as it was before its integer kernel: the mpc loop."""
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


def assert_same_bits(poly, points, precision):
    got = eval_bivar(poly, points, precision)
    assert all(type(v) is mpc for v in got)
    assert [v._mpc_ for v in got] == [v._mpc_ for v in reference_eval_bivar(poly, points, precision)]


def dyadic(man: int, exp: int) -> mpf:
    """man * 2^exp as an mpf, exactly, however many bits man has."""
    with mp.workprec(max(man.bit_length(), 1)):
        return mpf((man, exp))


def exact_mpc(re: mpf, im: mpf) -> mpc:
    """re + i*im as an mpc, neither part rounded to mpmath's precision."""
    z = mpc()
    z._mpc_ = (re._mpf_, im._mpf_)
    return z


_PART = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
_WEIGHTS = [(1, 1), (1, 2), (2, 3), (3, 4), (2, 7), (3, 5), (1, 9)]


@st.composite
def bivariate_polys(draw):
    """At most 8 terms with exponents up to 64, anywhere or on a weighted
    line p*i + q*j = nu, with coefficients whose parts round at any precision."""
    if draw(st.booleans()):
        exps = draw(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)),
                             min_size=1, max_size=8, unique=True))
    else:
        p, q = draw(st.sampled_from(_WEIGHTS))
        nu = draw(st.integers(1, 64))
        line = [(i, (nu - p * i) // q) for i in range(nu // p + 1) if (nu - p * i) % q == 0]
        assume(line)
        exps = draw(st.lists(st.sampled_from(line), min_size=1, max_size=8, unique=True))
    coeff = st.builds(gq, _PART, st.just(Fraction(0)) | _PART)
    return BivarPoly.from_terms({e: draw(coeff) for e in exps})


def coordinates(precision: int):
    """mpc values with parts up to 40 bits finer than the working precision,
    Python floats, complex numbers and ints, small and past the precision."""
    work = precision + 20
    part = st.builds(dyadic, st.integers(-2 ** (work + 40), 2 ** (work + 40)),
                     st.integers(-work - 60, 4))
    small = st.floats(-2, 2, allow_nan=False)
    return st.one_of(
        st.builds(exact_mpc, part, part),
        small,
        st.builds(complex, small, small),
        st.integers(-8, 8) | st.integers(-2 ** (work + 30), 2 ** (work + 30)),
    )


@st.composite
def evaluations(draw):
    precision = draw(st.sampled_from([53, 128, 1024]))
    coord = coordinates(precision)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3))
    return draw(bivariate_polys()), points, precision


def hensel_sqrt(c: int, bits: int) -> int:
    """An odd x with x^2 = c mod 2^bits, for c = 1 mod 8."""
    x = 1
    for k in range(3, bits):
        if (x * x - c) % (1 << (k + 1)):
            x += 1 << (k - 1)
    return x


def square_sticky_point(work: int) -> mpc:
    """A point a + b*i whose square's real part a^2 - b^2 takes mpf_sub's
    sticky rule in mpc_square, where it rounds up and the exact difference
    rounds down: a has work bits and a^2 lies one unit above a tie at work
    bits; b^2, with its top 9 bits above a^2's lowest and its lowest 120
    below, is far more than that unit but under 2^-(work + 4) of a^2."""
    for excess in (work - 1, work):
        root = hensel_sqrt((1 << (excess - 1)) + 1, excess)
        for a in (r + (k << excess) for r in (root, (1 << excess) - root) for k in range(4)):
            if a.bit_length() == work and (a * a).bit_length() == work + excess:
                b = (1 << 64) + 1
                point = exact_mpc(dyadic(a, -work), dyadic(b, -work - 60))
                with mp.workprec(4 * work):
                    p, q = point.real ** 2, point.imag ** 2
                    assert mp.mag(p) - mp.mag(q) > work + 4
                    assert q.man_exp[1] + 100 < p.man_exp[1] < mp.mag(q)
                return point
    raise AssertionError("no such point")


def seed_cases(precision: int) -> list:
    """(poly, points, precision) whose seeds z^low and z^gap reach each
    branch of mpc_pow_int: exponents 0, 1, 2 and more, points on the real
    and imaginary axes and at 0, an exact power past 10000 bits (parts
    2^-5000 apart, cubed), a square's sticky rounding, and coefficients
    whose numerator or denominator is wider than the working precision;
    the generic points include one whose parts are a bit wider than it,
    which the conversion to mpc rounds."""
    work = precision + 20
    generic = [(mpc(0.3125, -0.21875), mpc(-0.4375, 0.15625)),
               (exact_mpc(dyadic(2 ** work // 3, -work), dyadic(-(2 ** work // 5), -work)),
                exact_mpc(dyadic(-(2 ** work // 7), -work), dyadic(2 ** work // 11, -work))),
               (exact_mpc(dyadic(2 ** work + 1, -work), dyadic(-(2 ** work + 3), -work - 1)),
                exact_mpc(dyadic(2 ** work + 5, -work - 2), dyadic(2 ** work - 1, -work)))]
    axes = [(mpc(0.3, 0), mpc(0, -0.7)), (mpc(0, 0.45), mpc(-0.55, 0)), (0, 0), (mpc(0, -1), 0)]
    far = exact_mpc(dyadic(1, 0), dyadic(1, -5000))
    wide = BivarPoly.from_terms({
        (3, 1): gq(Fraction(2 ** (work + 80) + 1, 3 ** (work // 2)),
                   Fraction(-(3 ** work), 2 ** (work + 90) + 7)),
        (1, 4): gq(Fraction(5 ** work + 2, 7 ** work)),
        (0, 2): gq(0, Fraction(1, 2 ** (work + 30) - 1)),
    })
    return [
        # x: low 1, gap 2; y: low 0, gap 2
        (parse_poly("X*Y^2 + X^3*Y^4 + (2 - i)*X^5"), generic + axes, precision),
        # low and gap 3 and 4
        (parse_poly("X^3*Y^7 + (1/3 + 2/5*i)*X^7*Y^3 - X^11*Y^11"), generic + axes, precision),
        # a lone exponent: gap 0, and x^2 as a seed
        (parse_poly("(1/7 - i)*X^2*Y^6"), generic + axes, precision),
        (parse_poly("X^3*Y + X^6 + X^2*Y^2"), [(far, mpc(0.5, 0.25)), (mpc(0.5, 0.25), far)],
         precision),
        (parse_poly("X^2 + X^4*Y + Y^2"), [(square_sticky_point(work), square_sticky_point(work))],
         precision),
        (wide, generic + axes[:2], precision),
    ]


def with_seed_cases(test):
    """test with every case of seed_cases at 53, 128 and 1024 bits as an example."""
    for precision in (53, 128, 1024):
        for case in seed_cases(precision):
            test = example(case=case)(test)
    return test


@seed(20261020)
@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=evaluations())
@with_seed_cases
def test_eval_bivar_has_the_bits_of_the_mpc_loop(case):
    assert_same_bits(*case)


def test_square_sticky_point_rounds_apart_from_the_exact_square():
    # the case is one where mpc_square's real part is not the exact
    # a^2 - b^2 rounded once, so a seed x^2 formed that way has other bits
    for work in (73, 148, 1044):
        z = square_sticky_point(work)
        with mp.workprec(work):
            got = (z ** 2).real
        with mp.workprec(8 * work):
            exact = z.real ** 2 - z.imag ** 2
        assert got != mpf(exact, prec=work)


def reference_to_mpc(value) -> mpc:
    """to_mpc as it was before its rounding moved into _gaussian_mpc: each
    part an mpf division of the reduced Fraction's numerator and denominator."""
    re = mpf(value.re.numerator) / mpf(value.re.denominator)
    im = mpf(value.im.numerator) / mpf(value.im.denominator)
    return mpc(re, im)


_WIDE_PART = st.builds(Fraction, st.integers(-2**4096, 2**4096), st.integers(1, 2**4096))


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(re=_WIDE_PART, im=st.just(Fraction(0)) | _WIDE_PART,
       precision=st.sampled_from([53, 128, 1024]))
@example(re=Fraction(6, 4), im=Fraction(0), precision=53)
@example(re=Fraction(-1, 2), im=Fraction(1, 3), precision=53)
@example(re=Fraction(1, 3), im=Fraction(-1, 10**30 + 1), precision=53)
@example(re=Fraction(0), im=Fraction(-6, 4), precision=128)
@example(re=Fraction(-10, 6), im=Fraction(0), precision=1024)
@example(re=Fraction(-(2**4096) + 1, 3), im=Fraction(2**4095, 2**4096 - 1), precision=53)
@example(re=Fraction(0), im=Fraction(0), precision=128)
def test_rational_rounding_is_the_fraction_division(re, im, precision):
    # to_mpc at precision, and eval_bivar's coefficient at its working
    # precision (precision - 20 + 20), have the bits of the division of the
    # reduced Fractions, which the reference rounds at precision. A
    # GaussianRational keeps one denominator, so 1/3 beside 1/(10^30 + 1)
    # has the real part (10^30 + 1)/(3 * (10^30 + 1)), whose two roundings
    # to 53 bits without the gcd give another quotient
    value = gq(re, im)
    with mp.workprec(precision):
        want = reference_to_mpc(value)._mpc_
        assert to_mpc(value)._mpc_ == want
    constant = BivarPoly.constant(value)
    assert eval_bivar(constant, [(1, 1)], precision - 20)[0]._mpc_ == want


def sticky_cases(work: int) -> list:
    """(poly, point) pairs whose real part ac - bd takes mpf_add's sticky
    rule, ac with more than work bits and bd over work + 4 bits below it.

    - ac = 3X, work + 1 bits: a tie that bd's sign decides, with the kept
      lowest bit even and odd, so dropping the sticky bit changes one;
    - ac = M*X, M the mantissa of 5/7, one unit above a tie, bd larger than
      that unit: the sticky rounds up where the exact ac - bd rounds down.
    """
    cases = []
    tiny = dyadic(1, -work - 200)
    start = 2 ** work // 3 + 1
    for x in (x for x in range(start, start + 4) if x % 2):
        assert (3 * x).bit_length() == work + 1
        for c in ("3 + i", "3 - i"):
            cases.append((f"({c})*X", (exact_mpc(dyadic(x, -work), tiny), mpc(1))))
    with mp.workprec(work):
        _, m, _, _ = (mpf(5) / 7)._mpf_
    for bits in range(2 * work, work, -1):
        n = bits - work
        # x = base + k*2^n has m*x = (tie + 1) mod 2^n; keep one that is
        # work bits long at most, with m*x bits bits long
        base = pow(m, -1, 1 << n) * ((1 << (n - 1)) + 1) % (1 << n)
        fit = [x for x in (base + (k << n) for k in range(8))
               if x.bit_length() <= work and (m * x).bit_length() == bits]
        if fit:
            break
    y = (1 << (work - 1)) + 1
    # in units of ac's lowest bit, bd = m*y*2^y_exp lies in [2^2, 2^4)
    y_exp = 4 - 2 * work
    point = exact_mpc(dyadic(fit[0], 0), dyadic(y, y_exp))
    p_top, q_top = bits, (m * y).bit_length() + y_exp
    assert y_exp < -100 and work + 4 < p_top - q_top and q_top >= 2
    cases.append(("(5/7 + 5/7*i)*X", (point, mpc(1))))
    return cases


def explicit_cases(precision: int) -> list:
    """(poly text, points) that reach each rounding decision of the kernel
    at work = precision + 20 bits."""
    work = precision + 20
    one, half_ulp = dyadic(1, 0), dyadic(1, -work)
    odd = dyadic((1 << (work - 1)) + 1, 1 - work)  # 1 + 2^(1 - work), kept lowest bit odd
    cases = [
        # half-ulp ties in the running sum, kept lowest bit even and odd, either sign
        ("X + Y", [(one, half_ulp), (odd, half_ulp), (-one, -half_ulp), (-odd, -half_ulp)]),
        # exact cancellation: in a product ((1+i)^2, ac = bd), in a square, in the sum
        ("(1 + i)*X", [(mpc(1, 1), 0), (mpc(5, 3), 2)]),
        ("(3 + 5*i)*X", [(mpc(5, 3), 1)]),
        ("X^2 + 2*i*Y", [(mpc(1, 1), -1), (mpc(1, -1), 1)]),
        ("X - Y", [(mpc(1, 2), mpc(1, 2)), (0.1, 0.1)]),
        # zero real or imaginary parts, in points and coefficients
        ("2*X*Y + 3*i*Y^2 - X^3", [(mpc(0, 1.5), mpc(2, 0)), (0, 0), (mpc(0), 1j), (2, -3)]),
        # a seed power past mpc_pow_int's exact_size < 10000: 50 * (200 + 1)
        ("X^50 + (2 - i)*X^60*Y^3", [(exact_mpc(one, dyadic(1, -200)), mpc(0.5, 0.25))]),
    ]
    # exponent gaps at the sticky threshold and far past it, in sums and products
    for gap in (work + 3, work + 4, work + 5, 10**6):
        small = dyadic(1, -gap)
        cases.append(("X + Y", [(one, small), (one, -small), (dyadic(3, 0), -small),
                                (odd, small), (-odd, small)]))
        cases.append(("(1 + i)*X + (1/3 + 1/5*i)*Y",
                      [(exact_mpc(one, small), exact_mpc(small, -one)),
                       (exact_mpc(odd, -small), exact_mpc(dyadic(3, 0), small))]))
    cases += [(poly, [point]) for poly, point in sticky_cases(work)]
    return cases


@pytest.mark.parametrize("precision", [53, 128, 1024])
def test_eval_bivar_has_the_bits_of_the_mpc_loop_at_each_rounding_decision(precision):
    for text, points in explicit_cases(precision):
        assert_same_bits(parse_poly(text), points, precision)


def test_sticky_case_rounds_as_mpmath_not_as_the_exact_difference():
    # the last sticky case is one where mpc_mul is not correctly rounded;
    # eval_bivar has mpmath's bits there, one unit away from the exact ones
    text, (x, y) = sticky_cases(148)[-1]
    got = eval_bivar(parse_poly(text), [(x, y)], 128)[0]
    with mp.workprec(148):
        c = mpf(5) / 7
    with mp.workprec(800):
        exact_re = c * x.real - c * x.imag
        nearest = mpf(exact_re, prec=148)
        assert nearest < exact_re < got.real
        assert got.real - nearest == mpf(2) ** (mp.mag(nearest) - 148)


def test_eval_bivar_is_quick_at_an_exponent_gap_of_a_million_bits():
    tiny = dyadic(1, -10**6)
    poly = parse_poly("(1+2i)*X^5*Y^3 + 3*X*Y^7 - X^9 + 1/3*Y^11 + X*Y")
    points = [(exact_mpc(mpf(1), tiny), mpc(0.25, 0.5)),
              (exact_mpc(tiny, mpf(-1)), exact_mpc(mpf(0.25), tiny))]
    start = time.perf_counter()
    got = eval_bivar(poly, points, 128)
    assert time.perf_counter() - start < 1.0
    assert [v._mpc_ for v in got] == [v._mpc_ for v in reference_eval_bivar(poly, points, 128)]


RADICAL_REPORTS = Path(__file__).resolve().parent / "data" / "radical_reports_seed7.jsonl"


def test_verify_witness_repeats_the_recorded_radical_reports():
    # the 40 radical pairs of bench/corpus.witness_pairs(7, 4, radical=True),
    # with the reports the sampled check gave, at 3 precisions and 2 seeds
    # each: every one passed, and the certificate proves every witness at
    # each recorded precision
    records = [json.loads(line)
               for line in RADICAL_REPORTS.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 40
    for rec in records:
        first, second = parse_poly(rec["first"]), parse_poly(rec["second"])
        witness = build_witness(first, second, decide_equivalence(first, second))
        for want in rec["reports"]:
            assert want["passed"]
            report = verify_witness(first, second, witness, want["precision"])
            assert report == engine.VerificationReport(True, True, "0", "0", 0,
                                                       want["precision"])


def reference_sampled_check(first, second, witness, precision: int, seed: int,
                            evaluate=eval_bivar):
    """The sampled check verify_witness made before its certificate, on mpc
    values, verbatim: (worst, bound) as mpf values, and the report it gave.
    evaluate stands for eval_bivar, which reference_eval_bivar can replace;
    then only to_mpc's rounding of the coefficients is shared with the
    kernel. At 1024 bits its bound is 2^-976, so it is an independent
    high-precision check of a witness."""
    q = witness.weights.q
    with mp.workprec(precision + 20):
        alpha_num, beta_num, gamma_num = engine.witness_to_mpc(witness, precision)
        bound = mpf(2) ** (48 - precision)
        rng = random.Random(seed)
        points, images = [], []
        for _ in range(8):
            x = mpc(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
            y = mpc(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
            py = beta_num * y
            if gamma_num is not None:
                py = py + gamma_num * x**q
            points.append((x, y))
            images.append((alpha_num * x, py))
        worst = mpf(0)
        lefts = evaluate(first, images, precision)
        for left, right in zip(lefts, evaluate(second, points, precision)):
            residual = abs(left - right)
            scale = 1 + max(abs(left), abs(right))
            worst = max(worst, residual / scale)
        report = engine.VerificationReport(worst <= bound, False, mp.nstr(worst, 8),
                                           mp.nstr(bound, 8), 8, precision)
        return worst, bound, report


# p = 1 pairs whose witness has an irrational shear, a ShearTerm
SHEAR_PAIRS = [("Y*(Y-X^2)", "Y^2 - 2*X^2*Y + 1/2*X^4"),
               ("(Y-X^2)*(Y-3*X^2)", "Y^2 - 5*X^2*Y + 5*X^4"),
               ("Y*(Y-X^3)", "Y^2 - 2*X^3*Y + 1/3*X^6")]
# both germs times 2^-300: the witness is the unscaled pair's
SMALL = f"(1/{2**300})*"


def radical_witnesses() -> list:
    """(first, second, witness, symmetric) with a radical scalar: every
    branch of the pairs of conftest.branch_completeness_pairs(), whose
    germs are power-symmetric, SHEAR_PAIRS, whose germs are even or odd
    in X (symmetric True for both), and the radical pairs of
    bench/corpus.witness_pairs(s, 4, radical=True) for s = 3, 7 and 11,
    as they are and with both germs times 2^-300."""
    from conftest import branch_completeness_pairs
    corpus = pytest.importorskip("corpus")
    out = []
    for first, second, verdict in branch_completeness_pairs():
        if verdict.status == "Equivalent":
            out += [(first, second, build_witness(first, second, verdict, branch=k), True)
                    for k in range(engine.witness_branch_count(verdict))]
    pairs = [(p["first_text"], p["second_text"]) for s in (3, 7, 11)
             for p in corpus.witness_pairs(s, 4, radical=True) if p["truth"] == "Equivalent"]
    pairs += [(f"{SMALL}({first})", f"{SMALL}({second})") for first, second in pairs]
    for pair in pairs + SHEAR_PAIRS:
        first, second = map(parse_poly, pair)
        out.append((first, second, build_witness(first, second), pair in SHEAR_PAIRS))
    return [(f, s, w, sym) for f, s, w, sym in out
            if not all(x is None or isinstance(x, engine.GaussianRational)
                       for x in (w.alpha, w.beta, w.gamma))]


@pytest.fixture(scope="module")
def witnesses(monkeypatch_module):
    return radical_witnesses()


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        yield patch


def test_certificate_proves_every_radical_witness(witnesses):
    # every form of gamma: none (p > 1), a ShearTerm, one radical of beta
    # or of alpha^q, and 0
    assert len(witnesses) > 450
    kinds = {type(w.gamma).__name__ for _, _, w, _ in witnesses}
    assert kinds == {"NoneType", "ShearTerm", "RadicalScalar", "GaussianRational"}
    for first, second, witness, _ in witnesses:
        report = verify_witness(first, second, witness)
        assert report == engine.VerificationReport(True, True, "0", "0", 0, 128)


def corrupted(witness) -> list:
    """(wrong, moved) witnesses made from a right one: a radical scalar on
    the next branch (moved True), alpha and beta swapped where they differ,
    and a ShearTerm with its beta coefficient negated."""
    out = []
    for name in ("alpha", "beta", "gamma"):
        scalar = getattr(witness, name)
        if isinstance(scalar, engine.RadicalScalar):
            moved = engine.RadicalScalar(scalar.base, scalar.index,
                                         (scalar.branch + 1) % scalar.index)
            out.append((engine.Witness(*(moved if field == name else getattr(witness, field)
                                         for field in engine.Witness.__slots__)), True))
    if witness.alpha != witness.beta:
        out.append((engine.Witness(witness.beta, witness.alpha, witness.gamma, witness.scale,
                                   witness.weights, witness.branch, witness.shears), False))
    if isinstance(witness.gamma, engine.ShearTerm):
        shear = engine.ShearTerm(witness.gamma.alpha_coeff, -witness.gamma.beta_coeff)
        out.append((engine.Witness(witness.alpha, witness.beta, shear, witness.scale,
                                   witness.weights, witness.branch, witness.shears), False))
    return out


def test_corrupted_witnesses_fail_with_the_reports_of_the_mpc_loop(witnesses):
    # the certificate refutes each corrupted witness at 53, 128 and 512
    # bits alike. A symmetric germ has witnesses on other branches, so a
    # scalar moved to the next branch may be right again there: such a
    # witness must be proved, and pass the mpc loop's check at 1024 bits
    # too, and so must every 25th refuted witness fail that check
    fails = total = 0
    for first, second, witness, symmetric in witnesses:
        for wrong, moved in corrupted(witness):
            passed = verify_witness(first, second, wrong, 53).passed
            for precision in (53, 128, 512):
                report = verify_witness(first, second, wrong, precision)
                assert report == engine.VerificationReport(passed, True, "0", "0", 0,
                                                           precision)
            if passed or fails % 25 == 0:
                _, _, reference = reference_sampled_check(first, second, wrong, 1024, 0)
                assert reference.passed == passed
            assert symmetric and moved or not passed
            fails += not passed
            total += 1
    assert total > len(witnesses) and total // 2 < fails < total


def random_part(rng, prec: int, long: bool):
    """A signed odd mantissa and an exponent: 1 to 3*prec bits, or up to
    6*prec bits when long, the exponent within a few lengths of 0."""
    bits = rng.choice([1, 2, 3, 53, prec - 1, prec, prec + 1, prec + 5, 2 * prec, 3 * prec]
                      + ([5 * prec, 6 * prec] if long else []))
    man = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
    exp = rng.randint(-4 * prec, 4 * prec) - bits
    return -man if rng.random() < 0.5 else man, exp


def sticky_shapes(rng, prec: int, slack: int):
    """(m, e, n, f): a long m and an n whose top lies more than prec + slack
    bits below m's, reaching above m's lowest bit or wholly below it, with
    the lowest bits 100 apart give or take a few: the shapes where mpf_add's
    sticky rule decides, and where it does not."""
    m = rng.getrandbits(3 * prec) | 1 | (1 << (3 * prec - 1))
    below = prec + slack + rng.randint(1, 2 * prec)
    n_bits = rng.randint(1, 2 * prec)
    n = rng.getrandbits(n_bits) | 1 | (1 << (n_bits - 1))
    f = 3 * prec - below - n_bits
    if rng.random() < 0.5:
        f = rng.randint(-110, -90) - (n_bits if rng.random() < 0.5 else 0)
        below = 3 * prec - n_bits - f
    return (-m if rng.random() < 0.5 else m), 0, (-n if rng.random() < 0.5 else n), f


def trailing_zero_cases(prec: int) -> list:
    """(m, e, n, f, s, t): m * 2^e, 3*prec bits one unit above a tie at
    prec bits, plus n * 2^f, below it by more than prec + 4 bits but over 2
    units in size, so that mpf_add's sticky rule rounds up where the exact
    sum rounds down; written with s and t trailing zero bits, which move
    the lowest bits across the rule's 100-bit gap one way or the other."""
    m = (((1 << (prec - 1)) + 1) << (2 * prec)) + (1 << (2 * prec - 1)) + 1
    return [(m, 0, -((1 << 152) + 1), -150, 60, 0),  # gap 150, 90 as written
            (m, 0, -((1 << 92) + 1), -90, 0, 20)]  # gap 90, 110 as written


def test_dyadic_sum_has_the_bits_of_mpf_add_on_any_representation():
    # operands with trailing zero bits stand for the same numbers as their
    # normalized forms, and the sum has mpf_add's bits on those, sticky
    # rule included, whichever operand comes first
    from mpmath.libmp import from_man_exp, mpf_add, round_nearest

    rng = random.Random(20261022)
    cases = [case for prec in (53, 73, 148) for case in trailing_zero_cases(prec)]
    for k in range(6000 + len(cases)):
        prec = rng.choice([21, 53, 73, 148, 532])
        s, t = rng.randint(0, 40), rng.randint(0, 40)
        if k >= 6000:
            m, e, n, f, s, t = cases[k - 6000]
            prec = (m.bit_length() + 2) // 3
        elif k % 3:
            (m, e), (n, f) = random_part(rng, prec, True), random_part(rng, prec, True)
            if rng.random() < 0.1:
                n = 0
        else:
            m, e, n, f = sticky_shapes(rng, prec, 4)
        want = mpf_add(from_man_exp(m, e), from_man_exp(n, f), prec, round_nearest)
        got = numeric._dyadic_sum(m << s, e - s, n << t, f - t, prec)
        assert numeric._mpf_tuple(*got) == want, (m, e, n, f, prec)
        got = numeric._dyadic_sum(n << t, f - t, m << s, e - s, prec)
        assert numeric._mpf_tuple(*got) == want, (m, e, n, f, prec)
