"""Numeric kernel: root finding, clustering, matching, evaluation."""

import importlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from qhgerm import (
    AmbiguousClusteringError,
    BivarPoly,
    NonConvergenceError,
    UniPoly,
    cluster_roots,
    eval_bivar,
    find_roots,
    gq,
    nth_root,
    numeric_match,
    parse_poly,
    to_mpc,
)
from qhgerm import engine, numeric
from qhgerm.numeric import ComplexApprox, RootCluster
from qhgerm.polyio import power_table

from conftest import rand_gq

BENCH = Path(__file__).resolve().parent.parent / "bench"


def exact_residual(poly: UniPoly, z: mpc, workprec: int = 360) -> mpf:
    with mp.workprec(workprec):
        acc = mpc(0)
        for k in range(poly.degree, -1, -1):
            acc = acc * z + to_mpc(poly.coeff_from_top(poly.degree - k))
        return abs(acc)


def clusters_of(values, tol=1e-9):
    """Clusters of exact approximations (error 0) of weight 1 each."""
    return cluster_roots([ComplexApprox(mpc(v), mpf(0)) for v in values], tol,
                         [1] * len(values))


class TestFindRoots:
    def test_distinct_integer_roots(self):
        poly = UniPoly.from_roots([gq(1), gq(2), gq(3)])
        roots = find_roots(poly, precision=128)
        assert len(roots) == 3
        for approx, expect in zip(roots, (1, 2, 3)):
            assert abs(approx.value - expect) < mpf(2) ** -100

    def test_error_bound_is_honest(self):
        rng = random.Random(5)
        for _ in range(25):
            coeffs = [rand_gq(rng, 9) for _ in range(rng.randint(2, 7))]
            if coeffs[0].is_zero:
                coeffs[0] = gq(1)
            poly = UniPoly.from_coeffs(coeffs)
            n = poly.degree
            if n == 0:
                continue
            lead_abs = abs(to_mpc(poly.leading))
            for approx in find_roots(poly, precision=128):
                residual = exact_residual(poly, approx.value)
                assert residual <= approx.err * (1 + lead_abs * n) + mpf(2) ** -140

    def test_multiple_root_clusters_tightly(self):
        poly = UniPoly.from_roots([gq(1)] * 4 + [gq(-2)])
        roots = find_roots(poly, precision=128)
        clusters = cluster_roots(roots, 1e-9, [1] * len(roots))
        mults = sorted(c.multiplicity for c in clusters)
        assert mults == [1, 4]
        centers = sorted(c.center.real for c in clusters)
        assert abs(centers[0] + 2) < 1e-12
        # a multiplicity-4 root only pins its cluster down to about the
        # fourth root of the backward error, so the center is looser
        assert abs(centers[1] - 1) < 1e-9

    def test_zero_roots_are_exact(self):
        poly = UniPoly.from_roots([gq(0), gq(0), gq(0), gq(1)])
        roots = find_roots(poly, precision=128)
        exact_zeros = [r for r in roots if r.value == 0 and r.err == 0]
        assert len(exact_zeros) == 3

    def test_leading_scale_does_not_matter(self):
        roots = find_roots(UniPoly.from_coeffs([gq(3), gq(0), gq(-3)]), 128)
        values = sorted(r.value.real for r in roots)
        assert abs(values[0] + 1) < 1e-30 and abs(values[1] - 1) < 1e-30

    def test_dense_integer_spread(self):
        poly = UniPoly.from_roots([gq(k) for k in range(1, 13)])
        roots = find_roots(poly, precision=128)
        assert len(roots) == 12
        for approx in roots:
            nearest = min(range(1, 13), key=lambda k: abs(approx.value - k))
            assert abs(approx.value - nearest) < 1e-20

    def test_constant_has_no_roots(self):
        assert find_roots(UniPoly.from_coeffs([gq(7)]), 128) == []

    @pytest.mark.parametrize("degree", [24, 32])
    def test_wilkinson_ladder_converges(self, degree):
        true_roots = [2 * k for k in range(1, degree + 1)]
        roots = find_roots(UniPoly.from_roots([gq(r) for r in true_roots]), 128)
        assert len(roots) == degree
        for r in true_roots:
            assert any(abs(a.value - r) <= a.err for a in roots)

    @pytest.mark.parametrize("true_roots", [
        [Fraction(10**200), Fraction(-3), Fraction(1, 10**150)],
        [Fraction(10**400), Fraction(-3), Fraction(1, 10**350)],
        [Fraction(10**160), Fraction(-10**160)],
        [Fraction(1, 10**165), Fraction(-1, 10**165)],
    ], ids=["200-150", "400-350", "coefficient-overflow", "coefficient-underflow"])
    def test_out_of_double_range_starts_in_fixed_point(self, monkeypatch, true_roots):
        # 10^200 overflows the hardware-float sweep (z^2), and 10^400 puts
        # the coefficients and the starts themselves out of double range.
        # The starts of w^2 - 10^320 and w^2 - 10^-330 lie in double range,
        # but the coefficient 10^320 is past it and 10^-330 rounds to 0.0.
        # Each way the fixed-point stage starts from the Newton-polygon
        # points
        refined = []
        float_starts = numeric._float_starts

        def spy(coeffs, starts):
            refined.append(float_starts(coeffs, starts))
            return refined[-1]

        monkeypatch.setattr(numeric, "_float_starts", spy)
        roots = find_roots(UniPoly.from_roots([gq(r) for r in true_roots]), 128)
        assert refined == [None]
        assert len(roots) == len(true_roots)
        # the computed |p(z)| can round to 0 at the approximation of a tiny
        # root, so only the fixed-point rounding term keeps its bound above 0
        assert all(a.err > 0 for a in roots)
        with mp.workprec(4096):
            for r in true_roots:
                exact = mpf(r.numerator) / r.denominator
                nearest = min(roots, key=lambda a: abs(a.value - exact))
                assert abs(nearest.value - exact) <= abs(exact) * mpf(2) ** -100
                assert abs(nearest.value - exact) <= nearest.err

    def test_tiny_root_is_polished_from_the_float_stage(self, monkeypatch):
        # 10^-60 lies below 2^-(precision + 48 + n) at 128 bits: its refined
        # point enters the fixed-point stage through its own power of two,
        # not as a fixed-point 0 that once made that stage give up
        refined, polished = [], []
        float_starts, polish_fixed = numeric._float_starts, numeric._polish_fixed

        def spy(coeffs, starts):
            refined.append(float_starts(coeffs, starts))
            return refined[-1]

        def polish_spy(*args):
            polished.append(polish_fixed(*args))
            return polished[-1]

        monkeypatch.setattr(numeric, "_float_starts", spy)
        monkeypatch.setattr(numeric, "_polish_fixed", polish_spy)
        true_roots = [Fraction(1, 10**60), Fraction(1), Fraction(2)]
        roots = find_roots(UniPoly.from_roots([gq(r) for r in true_roots]), 128)
        assert len(refined) == 1 and refined[0] is not None
        assert len(polished) == 1 and polished[0] is not None
        assert len(roots) == 3
        with mp.workprec(1024):
            for r in true_roots:
                exact = mpf(r.numerator) / r.denominator
                nearest = min(roots, key=lambda a: abs(a.value - exact))
                assert abs(nearest.value - exact) <= abs(exact) * mpf(2) ** -100
                assert abs(nearest.value - exact) <= nearest.err

    @pytest.mark.parametrize("spec", [
        [(gq(2), 3), (gq(-1, 1), 3), (gq(Fraction(1, 3)), 3), (gq(Fraction(-3, 2)), 2),
         (gq(0, 2), 2), (gq(Fraction(5, 4), Fraction(-1, 2)), 2), (gq(1), 1), (gq(-5), 1),
         (gq(3, 2), 1)],
        [(gq(3), 3), (gq(Fraction(-1, 2)), 3), (gq(1, -2), 3), (gq(0, 4), 2),
         (gq(Fraction(-7, 3)), 2), (gq(Fraction(1, 4)), 1), (gq(-2, 1), 1), (gq(5), 1),
         (gq(0, -3), 1)],
    ], ids=["degree-18", "degree-17"])
    def test_fixed_point_settles_from_the_raw_starts(self, monkeypatch, spec):
        # the float stage can turn NaN on polynomials with several triple
        # roots; then the fixed-point stage starts from the Newton-polygon
        # points and finds the clusters of the refined starts
        poly = UniPoly.from_roots([r for r, m in spec for _ in range(m)])
        want = find_roots(poly, 128)
        monkeypatch.setattr(numeric, "_float_starts", lambda coeffs, starts: None)
        got = find_roots(poly, 128)
        assert len(got) == len(want) == poly.degree
        with mp.workprec(228):
            for r, _ in spec:
                assert any(abs(a.value - to_mpc(r)) <= a.err for a in got)
        got_cl = cluster_roots(got, 1e-9, [1] * len(got))
        want_cl = cluster_roots(want, 1e-9, [1] * len(want))
        assert sorted(c.multiplicity for c in want_cl) == sorted(m for _, m in spec)
        assert len(got_cl) == len(want_cl)
        for w in want_cl:
            g = min(got_cl, key=lambda c: abs(c.center - w.center))
            assert g.multiplicity == w.multiplicity
            # both centers lie within the largest member err of the true root
            slack = max(a.err for a in got + want if abs(a.value - w.center) <= 1e-9)
            assert abs(g.center - w.center) <= 2 * slack + abs(w.center) * mpf(2) ** -52

    def test_fixed_point_stage_leaves_critical_and_coincident_points(self):
        # p'(0) = 0 for w^3 - 1, and two starts coincide: the fixed-point
        # stage moves the first off, leaves the twin out of the Aberth sum,
        # and still finds the three cube roots of unity
        coeffs = [gq(1), gq(0), gq(0), gq(-1)]
        starts = [(0j, 0), (0.5 + 0.5j, 0), (0.5 + 0.5j, 0)]
        roots = numeric._polish_fixed(coeffs, starts, 128)
        with mp.workprec(300):
            for r in (mpc(1), mpc(-0.5, mp.sqrt(3) / 2), mpc(-0.5, -mp.sqrt(3) / 2)):
                assert any(abs(a.value - r) <= a.err for a in roots)

    def test_fixed_point_stage_takes_a_newton_step_past_the_double_range(self, monkeypatch):
        # at 2^-1001, far below the roots of w^2 + 2^-600 w - 1, the Newton
        # quotient is about 2^1600 times the point, past the double range of
        # the Aberth factor, so the point takes a plain Newton step
        overflows = []
        to_float = numeric._to_float

        def spy(m, exp):
            try:
                return to_float(m, exp)
            except OverflowError:
                overflows.append(exp)
                raise

        monkeypatch.setattr(numeric, "_to_float", spy)
        coeffs = [gq(1), gq(Fraction(1, 2**600)), gq(-1)]
        roots = numeric._polish_fixed(coeffs, [(0.5, -1000), (0.5j, 600)], 2048)
        assert overflows
        with mp.workprec(2400):
            b = mpf(2) ** -600
            for r in ((-b + mp.sqrt(b * b + 4)) / 2, (-b - mp.sqrt(b * b + 4)) / 2):
                assert any(abs(a.value - r) <= a.err for a in roots)

    @pytest.mark.parametrize("start", [1.0, 3j])
    def test_fixed_point_stage_raises_when_a_point_does_not_settle(self, start):
        # from 2^-1001 the Aberth factor, taken in doubles, cancels the step
        # that should bring the point up to the roots of w^2 + 2^-600 w - 1,
        # and the point cycles until the sweep budget runs out
        coeffs = [gq(1), gq(Fraction(1, 2**600)), gq(-1)]
        with pytest.raises(NonConvergenceError):
            numeric._polish_fixed(coeffs, [(0.5, -1000), (start, 0)], 2048)

    def test_refined_roots_settle_where_far_starts_cycle(self):
        # refine_roots starts from the 128-bit roots of w^2 + 2^-600 w - 1,
        # next to the roots, not from a point far below them as above, so
        # the 2048-bit polish settles and each disc holds a true root
        poly = UniPoly.from_coeffs([gq(1), gq(Fraction(1, 2**600)), gq(-1)])
        roots = numeric.refine_roots(poly, find_roots(poly, 128), 2048)
        assert len(roots) == 2
        with mp.workprec(2400):
            b = mpf(2) ** -600
            true_roots = ((-b + mp.sqrt(b * b + 4)) / 2, (-b - mp.sqrt(b * b + 4)) / 2)
            for a in roots:
                assert any(abs(a.value - r) <= a.err for r in true_roots)
                assert a.err < mpf(2) ** -2000

    def test_double_root_takes_the_radius_without_a_derivative_bound(self, monkeypatch):
        # both points start exactly on the double root of (w - 1)^2, where
        # p'(w) = 0: no positive lower bound on |p'| is known, and each err
        # is (|p(z)|/|a_n|)^(1/2), a disc that still holds the root
        dvals = []
        bound = numeric._bound

        def spy(val, dval, lead, n, prec):
            dvals.append(dval)
            return bound(val, dval, lead, n, prec)

        monkeypatch.setattr(numeric, "_bound", spy)
        coeffs = list(UniPoly.from_roots([gq(1), gq(1)]).coeffs)
        roots = numeric._polish_fixed(coeffs, [(1.0, 0), (1.0, 0)], 128)
        assert dvals == [0, 0]
        with mp.workprec(200):
            for r in roots:
                assert 1e-27 < r.err < 1e-25
                assert abs(r.value - 1) <= r.err

    def test_float_stage_moves_a_critical_point(self):
        # p'(0) = 0 for w^2 - 1: the point at 0 is nudged off, and both
        # points still reach the roots -1 and 1
        points = [0j, 0.5 + 0.5j]
        assert numeric._aberth([1, 0, -1], points)
        assert sorted(points, key=lambda z: z.real) == pytest.approx([-1, 1], abs=1e-12)

    def test_newton_polygon_starts_follow_the_root_moduli(self):
        true_roots = [gq(1), gq(100), gq(0, 100), gq(-100), gq(10**4), gq(10**6)]
        coeffs = UniPoly.from_roots(true_roots).coeffs
        starts = [c * 2.0**e for c, e in numeric._newton_polygon_starts(coeffs)]
        assert len(starts) == 6
        moduli = sorted(abs(z) for z in starts)
        assert 0.5 < moduli[0] < 2
        assert all(50 < r < 200 for r in moduli[1:4])
        assert 5e3 < moduli[4] < 2e4
        assert 5e5 < moduli[5] < 2e6
        gaps = [abs(a - b) for i, a in enumerate(starts) for b in starts[i + 1:]]
        assert min(gaps) > 1

    def test_newton_polygon_starts_past_the_double_range(self):
        # radii 10^400 and 10^-350 carry their power of two in e
        coeffs = UniPoly.from_roots([gq(10**400), gq(-3), gq(Fraction(1, 10**350))]).coeffs
        starts = numeric._newton_polygon_starts(coeffs)
        log2_moduli = sorted(math.log2(abs(c)) + e for c, e in starts)
        expected = [-350 * math.log2(10), math.log2(3), 400 * math.log2(10)]
        assert all(abs(got - want) < 1 for got, want in zip(log2_moduli, expected))
        assert all(0.5 <= abs(c) < 2 for c, e in starts if e)

    def test_roots_closer_than_double_resolution_stay_apart(self):
        near = 1 + Fraction(1, 10**20)
        roots = find_roots(UniPoly.from_roots([gq(1), gq(near)]), 128)
        assert len(roots) == 2
        with mp.workprec(200):
            for r, approx in zip((Fraction(1), near), roots):
                assert abs(approx.value - mpf(r.numerator) / r.denominator) <= approx.err
            assert abs(roots[0].value - roots[1].value) > roots[0].err + roots[1].err

    @pytest.mark.skipif(not (BENCH / "corpus.py").is_file(), reason="bench/corpus.py is absent")
    def test_numeric_ladder_corpus_polishes_in_fixed_point(self, monkeypatch):
        # the pairs of a 15-second numeric_ladder run at seed 7: the float
        # stage refines every start, and every root settles in the
        # fixed-point stage at the requested precision
        monkeypatch.syspath_prepend(str(BENCH))
        corpus = importlib.import_module("corpus")
        refined, precisions = [], []
        float_starts, find = numeric._float_starts, engine.find_roots

        def recording_float_starts(coeffs, starts):
            refined.append(float_starts(coeffs, starts))
            return refined[-1]

        def recording_find(poly, precision):
            precisions.append(precision)
            return find(poly, precision)

        monkeypatch.setattr(numeric, "_float_starts", recording_float_starts)
        monkeypatch.setattr(engine, "find_roots", recording_find)
        for pair in corpus.numeric_pairs(7, 8):
            verdict = engine.decide_equivalence(parse_poly(pair["first_text"]),
                                                parse_poly(pair["second_text"]))
            assert (verdict.mode, verdict.status) == ("numeric", pair["truth"])
        assert set(precisions) == {engine.DEFAULT_PRECISION}
        assert refined and None not in refined


class TestClusterRoots:
    def test_clean_singletons(self):
        clusters = clusters_of([0, 1, 2])
        assert [c.multiplicity for c in clusters] == [1, 1, 1]
        assert [c.center for c in clusters] == [0, 1, 2]

    def test_tight_pair_counts_once(self):
        clusters = clusters_of([1, 1 + 1e-12, 5])
        assert sorted(c.multiplicity for c in clusters) == [1, 2]

    def test_gap_inside_guard_band_raises(self):
        with pytest.raises(AmbiguousClusteringError):
            clusters_of([0, 1e-10, 1.5e-9])

    def test_chained_cluster_too_wide_raises(self):
        with pytest.raises(AmbiguousClusteringError):
            clusters_of([0, 0.6e-9, 1.2e-9])

    @pytest.mark.parametrize("big, tiny", [(200, 150), (20, 15)])
    def test_wide_moduli_cluster_apart(self, big, tiny):
        # each error disc scales with its root: the disc of 10^big leaves
        # -3 and 10^-tiny outside, and that of -3 is far below tol
        true_roots = [Fraction(10**big), Fraction(-3), Fraction(1, 10**tiny)]
        roots = find_roots(UniPoly.from_roots([gq(r) for r in true_roots]), 128)
        clusters = cluster_roots(roots, 1e-9, [1] * 3)
        assert [c.multiplicity for c in clusters] == [1, 1, 1]
        assert min(roots, key=lambda a: abs(a.value + 3)).err < mpf(2) ** -100
        for cluster, r in zip(clusters, sorted(true_roots)):
            exact = mpf(r.numerator) / r.denominator
            assert abs(cluster.center - exact) <= abs(exact) * mpf(2) ** -50

    def test_empty(self):
        assert cluster_roots([], 1e-9, []) == []

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            cluster_roots([ComplexApprox(mpc(0), mpf(0))], 0.0, [1])
        with pytest.raises(ValueError, match="tol must be positive"):
            cluster_roots([ComplexApprox(mpc(0), mpf(0))], float("nan"), [1])

    @pytest.mark.parametrize("weights", [[1], [1, 1, 1]])
    def test_rejects_weights_of_another_length(self, weights):
        roots = [ComplexApprox(mpc(0), mpf(0)), ComplexApprox(mpc(1), mpf(0))]
        with pytest.raises(ValueError, match="one for one"):
            cluster_roots(roots, 1e-9, weights)

    @pytest.mark.parametrize("weight", [0, -1, 1.5, True, mpf(1)])
    def test_rejects_weights_that_are_not_positive_integers(self, weight):
        # a weight counts roots: 0 divided by zero, -1 and 1.5 gave clusters
        # of multiplicity -1 and 1.5
        roots = [ComplexApprox(mpc(1), mpf(0)), ComplexApprox(mpc(5), mpf(0))]
        with pytest.raises(ValueError, match="weights must be positive integers"):
            cluster_roots(roots, 1e-9, [1, weight])

    def test_centers_sharing_a_double_real_part_sort_by_the_exact_part(self):
        # 2^60 and 2^60 + 1 are one double: the imaginary parts must not
        # decide, the exact real parts do
        with mp.workprec(128):
            base = mpf(2) ** 60
            roots = [ComplexApprox(mpc(base + 1, 3), mpf(0)), ComplexApprox(mpc(base, 5), mpf(0))]
            assert float(roots[0].value.real) == float(roots[1].value.real)
            clusters = cluster_roots(roots, 1e-9, [1, 2])
            assert [(c.center, c.multiplicity) for c in clusters] == [
                (roots[1].value, 2), (roots[0].value, 1)]
            keys = [numeric._root_order(c.center) for c in clusters]
            assert keys == sorted(keys) and keys[0] < keys[1]


class TestNthRoot:
    def test_branches_of_unity(self):
        expected = [mpc(1), mpc(0, 1), mpc(-1), mpc(0, -1)]
        for k, want in enumerate(expected):
            got = nth_root(mpc(1), 4, k)
            assert abs(got - want) < 1e-30

    def test_branch_wraps(self):
        assert abs(nth_root(mpc(1), 4, 5) - nth_root(mpc(1), 4, 1)) < 1e-30

    def test_negative_real_principal(self):
        with mp.workprec(128):
            got = nth_root(mpc(-8), 3, 0)
            assert abs(got - mpc(1, mp.sqrt(3))) < 1e-25

    def test_all_branches_are_roots(self):
        with mp.workprec(128):
            for b in range(3):
                got = nth_root(mpc(-8), 3, b)
                assert abs(got**3 + 8) < 1e-25

    def test_zero(self):
        assert nth_root(mpc(0), 5, 2) == 0

    @pytest.mark.parametrize("index", [0, -2])
    def test_rejects_nonpositive_index(self, index):
        with pytest.raises(ValueError, match="root index must be positive"):
            nth_root(mpc(8), index)


class TestNumericMatch:
    def test_linear_scale(self):
        match = numeric_match("linear", clusters_of([1, 2]), clusters_of([3, 6]))
        assert match is not None
        assert abs(match.scale - 3) < 1e-12
        assert match.shift is None

    def test_linear_mismatch(self):
        assert numeric_match("linear", clusters_of([1, 2]), clusters_of([3, 5])) is None

    def test_multiplicity_multisets_gate(self):
        side_a = [RootCluster(mpc(0), 2), RootCluster(mpc(1), 1)]
        side_b = [RootCluster(mpc(0), 1), RootCluster(mpc(1), 2)]
        match = numeric_match("linear", side_a, side_b)
        assert match is None

    def test_affine_shift(self):
        match = numeric_match("affine", clusters_of([0, 1, 2]), clusters_of([5, 7, 9]))
        assert match is not None
        assert abs(match.scale - 2) < 1e-12
        assert abs(match.shift - 5) < 1e-12

    def test_affine_mismatch(self):
        assert (
            numeric_match("affine", clusters_of([0, 1, 2]), clusters_of([0, 1, 3]))
            is None
        )

    def test_all_zero_corner(self):
        match = numeric_match("linear", clusters_of([0]), clusters_of([0]))
        assert match is not None
        assert match.scale == mpc(1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            numeric_match("projective", [], [])

    @pytest.mark.parametrize("mode", ["linear", "affine"])
    @pytest.mark.parametrize("tol", [0.0, -1, mpf(-1e-9), float("nan")])
    def test_rejects_nonpositive_tolerance(self, mode, tol):
        # with tol = -1 every nonempty input used to give None, and with nan
        # {1, 2} matched {3, 6} at scale 1
        with pytest.raises(ValueError, match="tol must be positive"):
            numeric_match(mode, clusters_of([1, 2]), clusters_of([3, 6]), tol)


def dyadic_points(rng, count, scale):
    """Points (x, y) of Gaussian rationals with parts k/16, |k| <= scale.

    Dyadic parts convert to mpc without rounding, so a bound reported for
    the mpc point must cover the whole drift from the exact value.
    """
    def part():
        return Fraction(rng.randint(-scale, scale), 16)

    return [(gq(part(), part()), gq(part(), part())) for _ in range(count)]


def eval_bound(poly, point, precision=128):
    """The error bound of eval_bivar at one point, by the rule it follows.

    2^(2-precision) * ops * sum(|re| + |im|) over the terms, where ops counts
    the roundings a term and the sum can take (2i for x^i, 2j for y^j, two
    products and an addition) and the terms are formed as eval_bivar forms
    them, 20 bits finer than precision.
    """
    with mp.workprec(precision + 20):
        terms = [(i, j, to_mpc(c)) for (i, j), c in poly.terms.items()]
        x_exps = {i for i, _, _ in terms}
        y_exps = {j for _, j, _ in terms}
        ops = len(terms) + 2 * (max(x_exps, default=0) + max(y_exps, default=0)) + 4
        unit = mpf(2) ** (2 - precision) * ops
        xp, yp = power_table(mpc(point[0]), x_exps), power_table(mpc(point[1]), y_exps)
        mag = mpf(0)
        for i, j, c in terms:
            t = c * xp[i] * yp[j]
            mag += abs(t.real) + abs(t.imag)
        return mag * unit


def assert_eval_within_bound(poly, points):
    """eval_bivar at 128 bits stays within its error bound + 2^-140 of exact evaluation."""
    mpc_points = [(to_mpc(x), to_mpc(y)) for x, y in points]
    values = eval_bivar(poly, mpc_points, precision=128)
    assert len(values) == len(points)
    for value, point, (x, y) in zip(values, mpc_points, points):
        with mp.workprec(320):
            drift = abs(value - to_mpc(poly.evaluate(x, y)))
        assert drift <= eval_bound(poly, point) + mpf(2) ** -140


class TestEvalBivar:
    def test_error_bound_against_exact(self):
        rng = random.Random(17)
        for _ in range(25):
            terms = {
                (rng.randint(0, 5), rng.randint(0, 5)): rand_gq(rng, 7)
                for _ in range(rng.randint(1, 6))
            }
            # dyadic sample points convert to mpc without rounding, so the
            # bound must cover the whole numeric drift
            x = gq(Fraction(rng.randint(-31, 31), 16), Fraction(rng.randint(-31, 31), 16))
            y = gq(Fraction(rng.randint(-31, 31), 16), Fraction(rng.randint(-31, 31), 16))
            assert_eval_within_bound(BivarPoly.from_terms(terms), [(x, y)])

    def test_zero_polynomial(self):
        assert eval_bivar(parse_poly("X") - parse_poly("X"), [(mpc(2), mpc(3))], 128) == [0]

    def test_no_points_and_many_points(self):
        zero = parse_poly("X") - parse_poly("X")
        assert eval_bivar(zero, [], 128) == []
        assert eval_bivar(parse_poly("Y^2 - X^3"), [], 128) == []
        values = eval_bivar(zero, [(mpc(2), mpc(3)), (mpc(0), mpc(1, -1)), (1, 2)], 128)
        assert values == [0] * 3

    def test_sparse_exponents_up_to_64(self):
        rng = random.Random(23)
        for _ in range(30):
            terms = {
                (rng.randint(0, 64), rng.randint(0, 64)): rand_gq(rng, 7)
                for _ in range(rng.randint(1, 6))
            }
            assert_eval_within_bound(BivarPoly.from_terms(terms), dyadic_points(rng, 3, 24))

    def test_uneven_gaps(self):
        poly = parse_poly("3*X^64*Y + (1-2i)*X^3*Y^17 - X^10 + 1/3*Y^64 + 5*X*Y^2")
        assert_eval_within_bound(poly, dyadic_points(random.Random(5), 6, 24))

    def test_weighted_line(self):
        rng = random.Random(31)
        for _ in range(20):
            p, q = rng.choice([(1, 2), (2, 3), (3, 4), (2, 7), (3, 5), (1, 9)])
            nu = p * q * rng.randint(1, 8)
            line = [(i, (nu - p * i) // q) for i in range(nu // p + 1) if (nu - p * i) % q == 0]
            chosen = rng.sample(line, rng.randint(1, len(line)))
            terms = {(i, j): rand_gq(rng, 9) for i, j in chosen}
            assert_eval_within_bound(BivarPoly.from_terms(terms), dyadic_points(rng, 4, 24))

    def test_points_outside_the_unit_bidisk(self):
        rng = random.Random(41)
        poly = parse_poly("Y^7 - 2*X^5*Y^4 + (3+1/2i)*X^10*Y + X^15")
        points = dyadic_points(rng, 8, 64)
        assert any(abs(to_mpc(x)) > 1 for x, _ in points)
        assert any(abs(to_mpc(y)) > 1 for _, y in points)
        assert_eval_within_bound(poly, points)

    @pytest.mark.parametrize("bad", [mpc(mpf("inf"), 1), mpc(0, mpf("nan")), float("-inf"),
                                     complex(1, float("nan")), mpf("inf")])
    def test_non_finite_coordinate_raises_naming_the_point(self, bad):
        # also where the coordinate's exponent is 0, which gave a number before
        for poly in (parse_poly("X^2*Y + Y^3"), parse_poly("Y^2"), parse_poly("X") - parse_poly("X")):
            for point in ((bad, mpc(1, 2)), (mpc(1, 2), bad)):
                with pytest.raises(ValueError, match="finite coordinates") as info:
                    eval_bivar(poly, [(mpc(2), mpc(3)), point], 128)
                assert repr(point) in str(info.value)

    @pytest.mark.parametrize("precision", [0, -1, -20, -30, 128.0, 53.5, True, "128", None])
    def test_precision_must_be_a_positive_int(self, precision):
        # at -20 and below the working precision is 0 or less, where mpmath's
        # from_int never returns, and a float failed inside the kernel with
        # a TypeError; each is refused before any work
        poly = parse_poly("X^2*Y + (1/3 + i)*Y^3")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="precision must be"):
            eval_bivar(poly, [(mpc(0.25, 0.5), mpc(-0.75, 0.125))], precision)
        assert time.perf_counter() - start < 1.0

    def test_precision_of_one_bit_is_the_least(self):
        # 21 working bits: 1/3 + i rounded there, the point exact
        poly = parse_poly("(1/3 + i)*X")
        (value,) = eval_bivar(poly, [(mpc(1), mpc(1))], 1)
        with mp.workprec(21):
            assert value == to_mpc(gq(Fraction(1, 3), 1))

    def test_batch_matches_one_point_calls(self):
        rng = random.Random(43)
        poly = parse_poly("X*Y^6 + (-4+7/9i)*X^13*Y^3 + (-12-14/3i)*X^25")
        points = [(to_mpc(x), to_mpc(y)) for x, y in dyadic_points(rng, 8, 40)]
        batch = eval_bivar(poly, points, 128)
        assert len(batch) == len(points)
        assert eval_bivar(poly, iter(points), 128) == batch
        for value, point in zip(batch, points):
            assert eval_bivar(poly, [point], 128) == [value]


class TestToMpc:
    def test_exact_dyadic(self):
        assert to_mpc(gq(3, -2)) == mpc(3, -2)

    def test_thirds_are_tight(self):
        from fractions import Fraction

        with mp.workprec(160):
            z = to_mpc(gq(Fraction(1, 3)))
            assert abs(z * 3 - 1) < mpf(2) ** -150
