"""Equivalence decisions, witness construction, and the quartic demo."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from qhgerm import (
    MIN_PRECISION,
    BranchOutOfRangeError,
    DegenerateConfigurationError,
    NonConvergenceError,
    NotEquivalentVerdictError,
    NotQuasihomogeneousError,
    RadicalScalar,
    ScaleClass,
    ShearTerm,
    UniPoly,
    VerificationReport,
    Witness,
    affine_multiset_match,
    analyze_germ,
    build_witness,
    cross_ratio,
    decide_equivalence,
    gq,
    j_from_cross_ratio,
    ladder_roots,
    linear_multiset_match,
    parse_poly,
    scalar_to_mpc,
    verify_witness,
    whitney_compare,
    whitney_configuration,
    whitney_quartic,
    witness_branch_count,
)

from qhgerm import engine, exact, numeric
from qhgerm.errors import InternalInconsistencyError
from qhgerm.exact import _make, integer_root
from qhgerm.numeric import find_roots, nth_root, to_mpc

from conftest import apply_change, rand_germ, synthesize_equivalent

PAIR_FIRST = "(Y^2-X^3)*(Y^2-2*X^3)"
PAIR_SECOND = "(Y^2-3*X^3)*(Y^2-6*X^3)"

# a germ with a shear (p = 1) and a change with Gaussian alpha, beta and gamma
GAUSSIAN_SHEAR_GERM = "Y*(Y-X^2)*(Y-3*X^2)"
GAUSSIAN_CHANGE = (gq(Fraction(2, 3), 1), gq(-1, 2), gq(Fraction(1, 5), 1))


def replace(record, **changes):
    """record rebuilt from its fields, with the named ones changed."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def ladder(*coeffs):
    return UniPoly.from_coeffs([gq(c) if not isinstance(c, Fraction) else gq(c) for c in coeffs])


class TestLinearMatch:
    def test_shifted_pair(self):
        match = linear_multiset_match(ladder(1, -3, 2), ladder(1, -9, 18))
        assert match == ScaleClass(1, gq(3), (1, 2), None)

    def test_rejects_wrong_multiset(self):
        assert linear_multiset_match(ladder(1, -3, 2), ladder(1, -3, 1)) is None

    def test_even_ladder_two_branches(self):
        match = linear_multiset_match(ladder(1, 0, -1), ladder(1, 0, -4))
        assert match == ScaleClass(2, gq(4), (2,), None)

    def test_ratio_consistency_needs_common_scale(self):
        match = linear_multiset_match(ladder(1, 0, 1, 0, 1), ladder(1, 0, 1, 0, -1))
        assert match is None

    def test_free_class_for_pure_powers(self):
        match = linear_multiset_match(ladder(1, 0), ladder(1, 0))
        assert match is not None and not match.indices
        assert match.d == 1

    def test_support_pattern_gate(self):
        assert linear_multiset_match(ladder(1, 0, -1), ladder(1, -1, -1)) is None

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            linear_multiset_match(ladder(2, 0, -1), ladder(1, 0, -1))

    @pytest.mark.parametrize("first, second", [
        (UniPoly.zero(), ladder(1, -1)),
        (ladder(1, -1), UniPoly.zero()),
    ])
    def test_requires_nonzero(self, first, second):
        with pytest.raises(ValueError, match="nonzero"):
            linear_multiset_match(first, second)

    def test_degree_mismatch(self):
        assert linear_multiset_match(ladder(1, -1), ladder(1, -2, 1)) is None


class TestAffineMatch:
    def test_shift_and_scale(self):
        first = UniPoly.from_roots([gq(0), gq(1), gq(2)])
        second = UniPoly.from_roots([gq(5), gq(7), gq(9)])
        match = affine_multiset_match(first, second)
        assert match is not None
        assert match.centers == (gq(1), gq(7))
        assert match.d == 2
        assert match.base == gq(4)

    def test_rejects_non_affine_configurations(self):
        first = UniPoly.from_roots([gq(0), gq(1), gq(2)])
        second = UniPoly.from_roots([gq(0), gq(1), gq(3)])
        assert affine_multiset_match(first, second) is None

    def test_pure_translation(self):
        first = UniPoly.from_roots([gq(0), gq(2)])
        second = UniPoly.from_roots([gq(5), gq(7)])
        match = affine_multiset_match(first, second)
        assert match is not None
        assert match.base == gq(1)

    def test_degree_mismatch(self):
        assert affine_multiset_match(ladder(1, -1), ladder(1, -2, 1)) is None

    def test_constant_ladders_match_freely(self):
        match = affine_multiset_match(ladder(1), ladder(1))
        assert match == ScaleClass(1, gq(1), (), (gq(0), gq(0)))


class TestDecide:
    def test_equivalent_cusp_products(self):
        verdict = decide_equivalence(parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND))
        assert verdict.status == "Equivalent"
        assert verdict.mode == "exact"
        assert verdict.match == ScaleClass(1, gq(3), (1, 2), None)
        assert verdict.invariants["first"] == {
            "p": 2,
            "q": 3,
            "nu": 12,
            "class": "NonHomogeneousQH",
            "m": 0,
            "m0": 0,
            "ladderDegree": 2,
            "ord0": 4,
        }

    def test_homogeneous_input_not_applicable(self):
        verdict = decide_equivalence(
            whitney_quartic(gq(Fraction(3, 10))), whitney_quartic(gq(Fraction(2, 5)))
        )
        assert verdict.status == "NotApplicable"
        assert "non-homogeneous" in verdict.reason

    def test_monomial_like_not_applicable(self):
        verdict = decide_equivalence(parse_poly("(Y-X^2)^3"), parse_poly("Y^2-X^3"))
        assert verdict.status == "NotApplicable"

    def test_weight_type_gate(self):
        verdict = decide_equivalence(parse_poly("Y^2-X^3"), parse_poly("Y^2-X^5"))
        assert verdict.status == "NotApplicable"
        assert "weight types differ" in verdict.reason

    def test_weighted_degree_gate(self):
        verdict = decide_equivalence(
            parse_poly("Y^2-X^3"), parse_poly("(Y^2-X^3)^2")
        )
        assert verdict.status == "Inequivalent"
        assert "weighted degrees differ" in verdict.reason

    def test_x_multiplicity_gate(self):
        verdict = decide_equivalence(
            parse_poly("X^3*(Y^2-X^3)"), parse_poly("(Y^2-X^3)*(Y^2-2*X^3)")
        )
        assert verdict.status == "Inequivalent"
        assert "X-axis" in verdict.reason

    def test_y_multiplicity_gate(self):
        verdict = decide_equivalence(
            parse_poly("Y^2*(Y^2-X^3)"), parse_poly("(Y^2-X^3)*(Y^2-2*X^3)")
        )
        assert verdict.status == "Inequivalent"
        assert "Y-axis" in verdict.reason

    def test_root_configuration_gate(self):
        verdict = decide_equivalence(
            parse_poly("(Y-X^2)*Y*(Y-2*X^2)"), parse_poly("(Y-X^2)*Y*(Y-3*X^2)")
        )
        assert verdict.status == "Inequivalent"
        assert "not related" in verdict.reason

    def test_non_quasihomogeneous_raises(self):
        with pytest.raises(NotQuasihomogeneousError):
            decide_equivalence(parse_poly("X^2+Y^3+X*Y"), parse_poly("Y^2-X^3"))

    def test_exact_mode_refuses_decimals(self):
        with pytest.raises(ValueError):
            decide_equivalence(
                parse_poly("0.5*Y^2-X^3"), parse_poly("Y^2-X^3"), mode="exact"
            )

    def test_decimal_input_switches_to_numeric(self):
        verdict = decide_equivalence(
            parse_poly("0.5*Y^2-X^3"), parse_poly("Y^2-2*X^3")
        )
        assert verdict.mode == "numeric"
        assert verdict.status == "Equivalent"

    def test_numeric_mode_on_exact_input(self):
        verdict = decide_equivalence(
            parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND), mode="numeric"
        )
        assert verdict.status == "Equivalent"
        assert verdict.mode == "numeric"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            decide_equivalence(parse_poly("Y-X"), parse_poly("Y-X"), mode="fast")

    def test_bool_weights_rejected(self):
        with pytest.raises(ValueError, match="weights must be integers"):
            decide_equivalence(parse_poly("Y^2-X^4"), parse_poly("Y^2-4*X^4"),
                               weights=(True, 2))

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            decide_equivalence(parse_poly("Y^2-X^3"), parse_poly("Y^2-X^3"), tol=0.0)

    def test_from_text(self):
        verdict = decide_equivalence(parse_poly("Y^2-X^3"), parse_poly("Y^2-5*X^3"))
        assert verdict.status == "Equivalent"


class TestNumericRetry:
    def test_non_convergence_retried_at_higher_precision(self, monkeypatch):
        calls = []
        find_roots = engine.find_roots

        def fails_once_at_128(poly, precision=128):
            calls.append(precision)
            if precision == 128 and calls.count(128) == 1:
                raise NonConvergenceError("stub failure")
            return find_roots(poly, precision)

        monkeypatch.setattr(engine, "find_roots", fails_once_at_128)
        verdict = decide_equivalence(
            parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND), mode="numeric"
        )
        assert verdict.status == "Equivalent"
        assert 256 in calls

    def test_non_convergence_reraised_at_the_cap(self, monkeypatch):
        calls = []

        def never_converges(poly, precision=128):
            calls.append(precision)
            raise NonConvergenceError("stub failure")

        monkeypatch.setattr(engine, "find_roots", never_converges)
        with pytest.raises(NonConvergenceError):
            decide_equivalence(
                parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND), mode="numeric"
            )
        assert calls == [128, 256, 512, 1024]


class TestBranchCount:
    def test_single_branch(self):
        verdict = decide_equivalence(parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND))
        assert witness_branch_count(verdict) == 1

    def test_two_branches(self):
        verdict = decide_equivalence(parse_poly("Y^2-X^4"), parse_poly("Y^2-4*X^4"))
        assert witness_branch_count(verdict) == 2

    def test_needs_exact_match_data(self):
        verdict = decide_equivalence(
            parse_poly("Y^2-X^3"), parse_poly("(Y^2-X^3)^2")
        )
        with pytest.raises(ValueError):
            witness_branch_count(verdict)


_PART = st.integers(-(2**128), 2**128)
_DEN = st.integers(1, 2**128)
_NONZERO_GQ = st.builds(
    lambda a, b, d, e: gq(Fraction(a, d), Fraction(b, e)), _PART, _PART, _DEN, _DEN
).filter(lambda g: not g.is_zero)


def _branch_of(value, k, root):
    """Index of the nth_root branch of value nearest to root, by scanning all k."""
    z = to_mpc(root)
    return min(range(k), key=lambda b: abs(nth_root(value, k, b) - z))


class TestExactRoots:
    @settings(max_examples=200, deadline=None)
    @given(g=_NONZERO_GQ, k=st.integers(1, 24))
    def test_roots_are_the_unit_multiples_in_branch_order(self, g, k):
        value = g**k
        roots = engine._gaussian_roots(value, k)
        units = [u for u in (gq(1), gq(0, 1), gq(-1), gq(0, -1)) if u**k == gq(1)]
        assert len(roots) == len(units)
        assert set(roots) == {g * u for u in units}
        with mp.workprec(64):
            branches = [_branch_of(value, k, r) for r in roots]
        assert branches == sorted(set(branches))

    @pytest.mark.parametrize("root,k", [
        (gq(0, -1), 3), (gq(0, -3), 5), (gq(-3, 2), 6), (gq(1, 1), 8)])
    def test_lowest_root_on_the_last_scanned_branch(self, root, k):
        # e.g. -i is branch 2 of the cube roots of i, and the scan covers 0..2
        found = engine._gaussian_roots(root**k, k)
        assert found[0] == root
        with mp.workprec(64):
            assert _branch_of(root**k, k, root) == k // len(found) - 1

    @settings(max_examples=60, deadline=None)
    @given(g=_NONZERO_GQ, k=st.integers(2, 24))
    def test_three_times_a_power_has_no_root(self, g, k):
        # 3 is a Gaussian prime, so 3*g^k has 3-adic valuation 1 mod k
        assert engine._gaussian_roots(3 * g**k, k) == []

    @settings(max_examples=60, deadline=None)
    @given(base=_NONZERO_GQ, e=st.integers(1, 24), data=st.data())
    def test_identify_branch_inverts_nth_root(self, base, e, data):
        b = data.draw(st.integers(0, e - 1))
        with mp.workprec(128):
            assert engine._identify_branch(base, e, nth_root(base, e, b)) == b

    def test_identify_branch_rejects_a_point_between_roots(self):
        with mp.workprec(128):
            between = mp.expjpi(mpf(1) / 4)  # halfway between 1 and i
            with pytest.raises(InternalInconsistencyError):
                engine._identify_branch(gq(1), 4, between)

    @pytest.mark.parametrize("base, index, branch, want", [
        # no lower index: sqrt(2) stays (2)^(1/2) on the branch given, no call
        (gq(2), 2, 1, (gq(2), 2, 1, 0)),
        # (4)^(1/4) branch 2 is -sqrt(2), that is (2)^(1/2) branch 1: one call
        (gq(4), 4, 2, (gq(2), 2, 1, 1)),
    ])
    def test_simplify_scalar_identifies_each_radical_once(self, monkeypatch, base, index,
                                                          branch, want):
        calls = []
        identify = engine._identify_branch

        def counted(*args):
            calls.append(args)
            return identify(*args)

        monkeypatch.setattr(engine, "_identify_branch", counted)
        with mp.workprec(128):
            got = engine._simplify_scalar(base, index, nth_root(base, index, branch), branch)
        assert (got.base, got.index, got.branch, len(calls)) == want

    def test_root_precision_comes_from_the_value(self):
        # 1 + 2^-300 needs about 300 bits to tell from 1; the caller's 53 do not
        g = gq(1) + gq(Fraction(1, 2**300))
        with mp.workprec(53):
            assert engine._gaussian_roots(g**7, 7) == [g]
            assert engine._gaussian_roots(g**7 + gq(Fraction(1, 2**2200)), 7) == []


def _mpmath_scan_root(value, k, first, count=1):
    """The branch scan as it was done in mpmath arithmetic, kept as an oracle.

    No norm test: every call computes the root and steps from branch to
    branch with mpmath multiplies, rounding each candidate to the nearest
    point of Z[i]/n.
    """
    n = value.d
    top = max(abs(value.a).bit_length(), abs(value.b).bit_length()) + 1
    bits = -(-top // k) + n.bit_length()
    with mp.workprec(bits + 64 + k.bit_length()):
        z = mp.root(to_mpc(value), k, first) * n
        step = mp.expjpi(mpf(2) / k) if count > 1 else 1
        for _ in range(count):
            re, im = int(mp.nint(z.real)), int(mp.nint(z.imag))
            g = _make(re, im, n)
            if abs(z - mpc(re, im)) <= mpf(2) ** -32 and g**k == value:
                return g
            z *= step
    return None


_UNITS = (gq(1), gq(0, 1), gq(-1), gq(0, -1))


@st.composite
def _root_problems(draw):
    """(value, k): a k-th power, a unit or small multiple of one, or a near miss."""
    k = draw(st.integers(1, 40))
    g = draw(_NONZERO_GQ)
    kind = draw(st.sampled_from(["power", "unit", "multiple", "near"]))
    if kind == "power":
        value = g**k
    elif kind == "unit":
        value = g**k * draw(st.sampled_from(_UNITS))
    elif kind == "multiple":
        value = g**k * draw(st.builds(gq, st.integers(-9, 9), st.integers(-9, 9)).filter(
            lambda c: not c.is_zero))
    else:
        # (i/2)^2 + 1/4 is 0, which has no roots to compare
        value = g**k + gq(Fraction(1, 2 ** draw(st.integers(1, 300))))
        assume(not value.is_zero)
    return value, k


class TestExactRootLayer:
    """The norm test and the fixed-point branch scan of _exact_root."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_unit_norm_quotient_has_no_root(self, k):
        # (2+i)/(2-i) has norm 1, a k-th power for every k, but no k-th root:
        # 2+i and 2-i are distinct Gaussian primes, each to the power +-1
        value = gq(2, 1) / gq(2, -1)
        assert value.norm_sq() == 1
        assert engine._gaussian_roots(value, k) == []
        assert engine._exact_root(value, k, 0, k) is None

    @pytest.mark.parametrize("value", [2, 3, 5])
    def test_square_norm_integer_has_no_square_root(self, value):
        # norms 4, 9 and 25 are squares; 2 = -i*(1+i)^2, 3 and 5 = (2+i)(2-i)
        # are no squares in Q(i)
        assert gq(value).norm_sq() == value * value
        assert engine._gaussian_roots(gq(value), 2) == []
        assert engine._exact_root(gq(value), 2, 0, 2) is None

    def test_large_root_on_the_last_scanned_branch(self):
        # the last of the k branches is the sector of arguments
        # (-3*pi/k, -pi/k], so the root has a small negative argument and its
        # larger part is at least k/(3*pi); with k = 1001 the parts of the
        # value are about 6,700 bits, and the scan takes all 1001 steps
        k = 1001
        g = gq(107, -1) / 3
        value = g**k
        assert min(value.a.bit_length(), value.b.bit_length()) > 6700
        assert engine._gaussian_roots(value, k) == [g]
        assert engine._exact_root(value, k, 0, k) == g
        assert engine._exact_root(value, k, 0, k - 1) is None
        assert engine._exact_root(value, k, k - 1) == g
        with mp.workprec(64):
            assert _branch_of(value, k, g) == k - 1

    def test_norm_test_rejects_before_any_root(self, monkeypatch):
        calls = []
        root = exact._complex_root

        def counting_root(*args):
            calls.append(args[:5])
            return root(*args)

        monkeypatch.setattr(exact, "_complex_root", counting_root)
        # norm 4 is no cube, and 4/9 is no fifth power
        assert engine._exact_root(gq(2), 3, 0, 3) is None
        assert engine._exact_root(gq(Fraction(2, 3)), 5, 0, 5) is None
        assert calls == []
        # a value that passes the test takes one root and one step for the
        # whole scan: the branch-0 cube root of i, and the branch-1 cube root of 1
        assert engine._exact_root(gq(0, -1) ** 3, 3, 0, 3) == gq(0, -1)
        assert calls == [(0, 1, 1, 3, 0), (1, 0, 1, 3, 1)]

    @settings(max_examples=300, deadline=None)
    @given(problem=_root_problems(), data=st.data())
    def test_matches_the_mpmath_scan(self, problem, data):
        value, k = problem
        first = data.draw(st.integers(0, k - 1))
        count = data.draw(st.integers(1, k - first))
        assert engine._exact_root(value, k, first, count) == _mpmath_scan_root(
            value, k, first, count)
        units = 4 if k % 4 == 0 else 2 if k % 2 == 0 else 1
        lowest = _mpmath_scan_root(value, k, 0, k // units) if k > 1 else value
        expected = [] if lowest is None else [lowest * u for u in _UNITS[:: 4 // units]]
        assert engine._gaussian_roots(value, k) == expected


class TestWitness:
    def test_planted_shear_recovered_exactly(self):
        first = parse_poly("(Y-X^2)*(Y-2*X^2)")
        second = parse_poly("Y*(Y-X^2)")
        witness = build_witness(first, second)
        assert (witness.alpha, witness.beta, witness.gamma) == (gq(1), gq(1), gq(1))
        report = verify_witness(first, second, witness)
        assert report.passed and report.exact

    def test_scale_only_witness(self):
        first = parse_poly(PAIR_FIRST)
        second = parse_poly(PAIR_SECOND)
        witness = build_witness(first, second)
        assert witness.gamma is None
        assert witness.scale == gq(3)
        assert isinstance(witness.alpha, RadicalScalar)
        assert witness.alpha.base == gq(3)
        assert witness.alpha.index == 3
        assert witness.beta == gq(1)
        report = verify_witness(first, second, witness)
        assert report == VerificationReport(True, True, "0", "0", 0, 128)

    def test_both_branches_of_an_even_class(self):
        first = parse_poly("Y^2-X^4")
        second = parse_poly("Y^2-4*X^4")
        seen = set()
        for branch in range(2):
            witness = build_witness(first, second, branch=branch)
            assert witness.branch == branch
            report = verify_witness(first, second, witness)
            assert report.passed
            seen.add(str(witness.alpha))
        assert len(seen) == 2

    def test_branch_out_of_range(self):
        first = parse_poly("Y^2-X^4")
        second = parse_poly("Y^2-4*X^4")
        with pytest.raises(BranchOutOfRangeError):
            build_witness(first, second, branch=2)

    def test_no_witness_from_negative_verdict(self):
        with pytest.raises(NotEquivalentVerdictError):
            build_witness(parse_poly("Y^2-X^3"), parse_poly("(Y^2-X^3)^2"))

    def test_numeric_verdict_without_exact_match_gives_no_witness(self):
        first = parse_poly("(Y^2-X^3)*(Y^2-1.0000000001*X^3)")
        second = parse_poly("(Y^2-X^3)^2")
        verdict = decide_equivalence(first, second)
        assert (verdict.status, verdict.mode) == ("Equivalent", "numeric")
        with pytest.raises(NotEquivalentVerdictError, match="the exact matcher finds no witness"):
            build_witness(first, second, verdict)

    def test_numeric_verdict_with_exact_match_gets_a_witness(self):
        first = parse_poly("(Y-1.5*X^2)*(Y-2*X^2)*(Y+X^2)")
        second = parse_poly("(Y-3.0*X^2)*(Y-4*X^2)*(Y+2*X^2)")
        verdict = decide_equivalence(first, second)
        assert verdict.mode == "numeric"
        witness = build_witness(first, second, verdict)
        assert verify_witness(first, second, witness).passed

    @pytest.mark.parametrize("first_text, second_text, rational", [
        ("(Y-X^2)*(Y-2*X^2)", "Y*(Y-X^2)", True),
        (PAIR_FIRST, PAIR_SECOND, False),
    ])
    def test_decision_is_analyzed_once(self, monkeypatch, first_text, second_text, rational):
        calls = []
        original = engine.analyze_germ

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "analyze_germ", counting)
        first, second = parse_poly(first_text), parse_poly(second_text)
        verdict = decide_equivalence(first, second)
        witness = build_witness(first, second, verdict)
        assert len(calls) == 2
        assert isinstance(witness.alpha, RadicalScalar) != rational
        build_witness(first, second, verdict, branch=0)
        assert len(calls) == 2

    def test_verdict_carries_both_analyses(self):
        first, second = parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND)
        verdict = decide_equivalence(first, second)
        assert verdict.first == analyze_germ(first)
        assert verdict.second == analyze_germ(second)
        assert verdict.invariants["second"]["ladderDegree"] == 2

    def test_irrational_shear_uses_scalar_pair(self):
        first = parse_poly("Y*(Y-X^2)")
        second = parse_poly("Y^2 - 2*X^2*Y + 1/2*X^4")
        verdict = decide_equivalence(first, second)
        assert verdict.status == "Equivalent"
        witness = build_witness(first, second, verdict)
        assert isinstance(witness.gamma, ShearTerm)
        report = verify_witness(first, second, witness)
        assert report.passed and report.exact

    def test_centered_image_gets_radical_shear(self):
        first = parse_poly("Y^2 - 2*X^2*Y + 1/2*X^4")
        second = parse_poly("Y^2 - 1/4*X^4")
        verdict = decide_equivalence(first, second)
        assert verdict.status == "Equivalent"
        witness = build_witness(first, second, verdict)
        assert witness.gamma is not None
        report = verify_witness(first, second, witness)
        assert report.passed

    def test_synthesized_pairs_round_trip(self):
        rng = random.Random(23)
        for _ in range(15):
            parts = rand_germ(rng, max_roots=3, max_mult=2)
            image, _ = synthesize_equivalent(rng, parts)
            verdict = decide_equivalence(parts.poly, image)
            assert verdict.status == "Equivalent"
            witness = build_witness(parts.poly, image, verdict)
            report = verify_witness(parts.poly, image, witness)
            assert report.passed

    def test_radical_certificate_evaluates_nothing(self, monkeypatch):
        # the certificate is exact: no point is evaluated and no numeric root
        # taken, and the precision is only checked
        def refuse(*args):
            raise AssertionError("numeric call")

        for first_text, second_text in (("Y^2-X^3", "Y^2-3*X^3"),
                                        ("Y*(Y-X^2)", "Y^2 - 2*X^2*Y + 1/2*X^4"),
                                        ("Y^2 - 2*X^2*Y + 1/2*X^4", "Y^2 - 1/4*X^4")):
            first, second = parse_poly(first_text), parse_poly(second_text)
            witness = build_witness(first, second)
            with monkeypatch.context() as patch:
                for name in ("eval_bivar", "nth_root", "to_mpc"):
                    patch.setattr(engine, name, refuse)
                for precision in (MIN_PRECISION, 160, 8192):
                    report = verify_witness(first, second, witness, precision)
                    assert report == VerificationReport(True, True, "0", "0", 0, precision)

    def test_radical_certificate_imports_neither_mpmath_nor_random(self):
        # 2^(1/4) and (1/2)^(1/8) map X*Y^2 - X^4 to X*Y^2 - 2*X^4, and alpha on
        # another branch does not; the witnesses are given by hand, so nothing
        # before verify_witness can load either module
        code = (
            "import sys\n"
            "from qhgerm import WeightSignature, Witness, RadicalScalar, gq, parse_poly\n"
            "from qhgerm import verify_witness\n"
            "loaded = 'random' in sys.modules\n"
            "first, second = parse_poly('X*Y^2 - X^4'), parse_poly('X*Y^2 - 2*X^4')\n"
            "beta = RadicalScalar(gq(1) / 2, 8, 0, '')\n"
            "for branch, passed in ((0, True), (1, False)):\n"
            "    alpha = RadicalScalar(gq(2), 4, branch, '')\n"
            "    w = Witness(alpha, beta, None, gq(2), WeightSignature(2, 3, 8), None, None)\n"
            "    report = verify_witness(first, second, w)\n"
            "    assert (report.passed, report.exact) == (passed, True), report\n"
            "assert 'mpmath' not in sys.modules\n"
            "assert loaded or 'random' not in sys.modules\n"
        )
        src = Path(engine.__file__).resolve().parent.parent
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_check_needs_a_sample(self, samples):
        # radical witnesses are certified, not sampled, so no caller can ask
        # for a number of sample points; the wrong target still fails
        first, second = parse_poly("Y^2-X^3"), parse_poly("Y^2-3*X^3")
        wrong = parse_poly("Y^2-5*X^3")
        witness = build_witness(first, second)
        assert isinstance(witness.alpha, RadicalScalar)
        assert not verify_witness(first, wrong, witness).passed
        with pytest.raises(TypeError, match="samples"):
            verify_witness(first, wrong, witness, samples=samples)
        assert verify_witness(first, second, witness).passed

    def test_sampled_check_refuses_low_precision(self):
        # verify_witness refuses a precision below the CLI's 53-bit floor; at
        # the floor the certificate refutes the wrong targets and proves the
        # right one
        first, second = parse_poly("Y^2-X^3"), parse_poly("Y^2-3*X^3")
        witness = build_witness(first, second)
        for wrong in (parse_poly("Y^2-5*X^3"), parse_poly("X^7")):
            assert not verify_witness(first, wrong, witness, precision=MIN_PRECISION).passed
            for precision in (MIN_PRECISION - 1, 50, 40):
                with pytest.raises(ValueError, match="at least 53 bits"):
                    verify_witness(first, wrong, witness, precision=precision)
        assert verify_witness(first, second, witness, precision=MIN_PRECISION).passed

    @pytest.mark.parametrize("precision", [128.0, 53.5, True, "128", None])
    def test_sampled_check_refuses_a_precision_that_is_not_an_int(self, precision):
        # verify_witness's input check: 128.0 once failed inside the check
        # with a TypeError; bool is not taken for an int either
        first, second = parse_poly("Y^2-X^3"), parse_poly("Y^2-3*X^3")
        witness = build_witness(first, second)
        with pytest.raises(ValueError, match="precision must be an int"):
            verify_witness(first, second, witness, precision=precision)

    def test_tampered_witness_fails_verification(self):
        first = parse_poly("(Y-X^2)*(Y-2*X^2)")
        second = parse_poly("Y*(Y-X^2)")
        witness = build_witness(first, second)
        bad = Witness(
            gq(2),
            witness.beta,
            witness.gamma,
            witness.scale,
            witness.weights,
            witness.branch,
            witness.shears,
        )
        assert not verify_witness(first, second, bad).passed

    @pytest.mark.parametrize(
        "first, second, field",
        [
            ("Y^2 - X^3", "5*Y^2 - 5*X^3", "alpha"),
            ("Y^2 - X^3", "5*Y^2 - 5*X^3", "beta"),
            ("Y*(Y-X^2)", "Y^2 - 2*X^2*Y + 1/2*X^4", "gamma"),
        ],
    )
    def test_nudged_radical_witness_fails_sampling(self, first, second, field):
        # one scalar off by a relative 2^-50: the certificate of a radical
        # witness refutes it exactly, as the substitution does a rational one
        first, second = parse_poly(first), parse_poly(second)
        witness = build_witness(first, second)
        assert verify_witness(first, second, witness).passed
        nudge = gq(1 + Fraction(1, 2**50))
        scalar = getattr(witness, field)
        if isinstance(scalar, ShearTerm):
            bad = replace(scalar, alpha_coeff=scalar.alpha_coeff * nudge)
        else:
            assert isinstance(scalar, RadicalScalar)
            bad = replace(scalar, base=scalar.base * nudge)
        report = verify_witness(first, second, replace(witness, **{field: bad}))
        assert report == VerificationReport(False, True, "0", "0", 0, 128)

    @pytest.mark.parametrize(
        "first, change, field, nudge",
        [
            (GAUSSIAN_SHEAR_GERM, GAUSSIAN_CHANGE, "alpha", "relative"),
            (GAUSSIAN_SHEAR_GERM, GAUSSIAN_CHANGE, "beta", "relative"),
            (GAUSSIAN_SHEAR_GERM, GAUSSIAN_CHANGE, "gamma", "relative"),
            ("Y^2 - X^3", (gq(1), gq(Fraction(3, 2**60)), None), "beta", "denominator"),
        ],
    )
    def test_nudged_rational_witness_fails_exactly(self, first, change, field, nudge):
        # one scalar off by a relative 2^-60 (or 1/(2^60 + 1), where only
        # its denominator moves): the exact substitution must see it
        first = parse_poly(first)
        second = apply_change(first, analyze_germ(first).weights.q, *change)
        witness = build_witness(first, second)
        report = verify_witness(first, second, witness)
        assert report.passed and report.exact
        scalar = getattr(witness, field)
        if nudge == "relative":
            bad = scalar * gq(1 + Fraction(1, 2**60))
        else:
            assert scalar.d == 2**60
            bad = _make(scalar.a, scalar.b, scalar.d + 1)
            assert (bad.a, bad.b) == (scalar.a, scalar.b)
        report = verify_witness(first, second, replace(witness, **{field: bad}))
        assert report.exact and not report.passed

    def test_scalar_to_mpc_round_trip(self):
        witness = build_witness(parse_poly(PAIR_FIRST), parse_poly(PAIR_SECOND))
        with mp.workprec(160):
            alpha = scalar_to_mpc(witness.alpha, 128)
            assert abs(alpha**3 - 3) < 1e-30

    def test_scalar_to_mpc_refuses_a_shear_term(self):
        # a ShearTerm needs the witness's alpha and beta: see witness_to_mpc
        with pytest.raises(TypeError, match="cannot evaluate ShearTerm on its own"):
            scalar_to_mpc(ShearTerm(gq(1), gq(-1)), 128)


class TestLadderRoots:
    def test_exact_and_approximate_roots_with_multiplicity(self):
        entries = ladder_roots(UniPoly.from_roots([1, 1, 3]) * ladder(1, 0, -2), 128, 1e-9)
        assert sorted((str(v), mult) for v, mult, exact in entries if exact) == [
            ("1", 2), ("3", 1)]
        approx = sorted(float(v.real) for v, mult, exact in entries if not exact)
        assert approx == pytest.approx([-2**0.5, 2**0.5])

    def test_empty_ladder_has_no_roots(self):
        assert ladder_roots(UniPoly.one(), 128, 1e-9) == []

    @pytest.mark.parametrize("poly", [
        UniPoly.from_roots([1, 1, 3, gq(2, 1), gq(-5, 7)]) * ladder(1, 0, -2),
        # one cluster: no second center to prove the nearest against
        UniPoly.from_roots([gq(1), gq(1 + Fraction(1, 10**10))]),
        # a root past 2^200 leaves the whole search to mpc
        UniPoly.from_roots([gq(10**70), gq(1), gq(-2)]),
    ], ids=["mixed", "one-cluster", "past-2^200"])
    def test_nearest_center_in_doubles_is_the_mpc_nearest(self, poly, monkeypatch):
        entries = ladder_roots(poly, 128, 1e-9)
        monkeypatch.setattr(numeric, "_double_filter", lambda values: None)
        assert ladder_roots(poly, 128, 1e-9) == entries

    @pytest.mark.parametrize("root", [
        gq(Fraction(1, 10**13 + 1)),
        gq(Fraction(1, 10**12 + 3), Fraction(2, 10**12 + 3)),
        gq(Fraction(-7, 9999999999971), Fraction(10**13, 9999999999971)),
    ])
    def test_thirteen_digit_denominators_are_exact(self, root):
        entries = ladder_roots(UniPoly.from_roots([root, gq(1)]), 128, 1e-9)
        assert sorted((str(v), mult, exact) for v, mult, exact in entries) == sorted(
            [(str(root), 1, True), ("1", 1, True)])

    def test_denominator_past_the_center_precision_is_exact(self):
        # the monic ladder has denominators up to 81^10, about 2^63: the
        # precision must rise until each error disc is below 1/(4 * 81^10)
        # before 81^10 * z rounds to 81^10 times the root
        roots = [gq(Fraction(4096 + 7 * k, 81)) for k in range(10)]
        entries = ladder_roots(UniPoly.from_roots(roots), 128, 1e-9)
        assert sorted(str(v) for v, _, exact in entries if exact) == sorted(map(str, roots))

    def test_irrational_root_within_tol_of_a_candidate_stays_approximate(self):
        # the root 10^-12 makes L = 10^12, so round(L*sqrt(2))/L lies within
        # 10^-12 of sqrt(2) and only the exact evaluation rejects it
        poly = UniPoly.from_roots([gq(Fraction(1, 10**12))]) * ladder(1, 0, -2)
        entries = ladder_roots(poly, 128, 1e-9)
        assert sorted((mult, exact) for _, mult, exact in entries) == [
            (1, False), (1, False), (1, True)]

    def test_merged_roots_are_not_one_exact_root(self):
        # 1 and 1 + 10^-10 fall into one cluster of multiplicity 2; neither
        # is a double root, so the cluster stays approximate
        entries = ladder_roots(UniPoly.from_roots([gq(1), gq(1 + Fraction(1, 10**10))]),
                               128, 1e-9)
        assert [(mult, exact) for _, mult, exact in entries] == [(2, False)]

    @pytest.mark.parametrize("big", [10**4, 10**8, 10**12])
    def test_irrational_root_beside_a_large_integer_root_stays_approximate(self, big):
        # (w - N)((w - N + 13)^2 - 170): N + sqrt(170) - 13 lies 0.0384 from
        # the integer root N, and L = 1, so the rounding of its Newton limit
        # is N, a root of the same part; it is not this cluster's root
        a = 13 - big
        poly = UniPoly.from_roots([gq(big)]) * ladder(1, 2 * a, a * a - 170)
        entries = ladder_roots(poly, 128, 1e-9)
        assert [str(v) for v, _, exact in entries if exact] == [str(big)]
        approx = sorted(float(v.real - big) for v, _, exact in entries if not exact)
        assert approx == pytest.approx([-13 - 170**0.5, 170**0.5 - 13], abs=1e-3)

    def test_irrational_neighbour_does_not_repeat_the_integer_root(self):
        # den = 1, so the disc about N + sqrt(170) - 13, 0.0384 from N, also
        # rounds to N: the root N is a candidate twice and is returned once,
        # and ladder_roots gives it to its own cluster only
        big = 10**8
        a = 13 - big
        part = UniPoly.from_roots([gq(big)]) * ladder(1, 2 * a, a * a - 170)
        assert engine._rational_roots(part, 1, find_roots(part, 128)) == [gq(big)]
        entries = ladder_roots(part, 128, 1e-9)
        assert [exact for _, _, exact in entries] == [False, True, False]
        assert entries[1][0] == gq(big)
        assert float(entries[2][0].real) - big == pytest.approx(170**0.5 - 13, abs=1e-6)

    @pytest.mark.parametrize("roots", [
        [1 + Fraction(k, 10**8) for k in range(10)],
        [10**6 + Fraction(k, 3) for k in range(12)],
    ], ids=["1+k/10^8", "10^6+k/3"])
    def test_clustered_roots_are_exact(self, roots):
        # sum |a_k| |z|^k dwarfs |p'(z)| at these roots, so the error discs
        # at 128 bits are far wider than 1/(4*den) and the precision rises
        roots = [gq(r) for r in roots]
        entries = ladder_roots(UniPoly.from_roots(roots), 128, 1e-9)
        assert [(v, mult, exact) for v, mult, exact in entries] == [
            (r, 1, True) for r in roots]

    def test_precision_rises_until_the_discs_fit_the_denominator(self, monkeypatch):
        # den = 10^60 + 7, about 2^199: at 128 bits 4*den*err is far above 1,
        # and each raise polishes the roots found at 128 bits
        find, refine, seen = engine.find_roots, engine.refine_roots, []

        def find_spy(poly, precision):
            seen.append(("find", precision))
            return find(poly, precision)

        def refine_spy(poly, roots, precision):
            seen.append(("refine", precision))
            return refine(poly, roots, precision)

        monkeypatch.setattr(engine, "find_roots", find_spy)
        monkeypatch.setattr(engine, "refine_roots", refine_spy)
        root = gq(Fraction(1, 10**60 + 7))
        entries = ladder_roots(UniPoly.from_roots([root, gq(1)]), 128, 1e-9)
        assert entries == [(root, 1, True), (gq(1), 1, True)]
        assert seen[0] == ("find", 128) and max(prec for _, prec in seen) > 128
        assert all(kind == "refine" for kind, _ in seen[1:])

    def test_raise_keeps_every_bit_of_roots_closer_than_doubles_resolve(self):
        # r and r + 10^-28 lie 2^-108 apart relative to r: den = 49 * 10^28
        # makes the precision rise after the 128-bit roots cluster, and the
        # raise polishes those roots with all their bits; rounded to doubles
        # the two points would collapse onto one and the polish would stall
        r = Fraction(315197, 7)
        entries = ladder_roots(UniPoly.from_roots([gq(r), gq(r + Fraction(1, 10**28))]),
                               128, 1e-9)
        assert [(mult, exact) for _, mult, exact in entries] == [(2, False)]

    def test_each_part_is_solved_once(self, monkeypatch):
        # the rational roots start from the roots the clustering found, so
        # no square-free part goes to find_roots twice at one precision
        real, seen = engine.find_roots, []

        def spy(poly, precision):
            seen.append((poly.degree, precision))
            return real(poly, precision)

        monkeypatch.setattr(engine, "find_roots", spy)
        poly = UniPoly.from_roots([1, 1, 3]) * ladder(1, 0, -2)
        entries = ladder_roots(poly, 128, 1e-9)
        assert seen == [(3, 128), (1, 128)]
        assert sorted((str(v), mult) for v, mult, exact in entries if exact) == [
            ("1", 2), ("3", 1)]

    @pytest.mark.parametrize("precision", [128, 256])
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_entries_are_the_constructed_roots(self, seed, precision):
        # Gaussian rationals with denominators up to 10^20, at least 10^-6
        # apart, of multiplicity 1 to 3, times w^2 - c for a rational c
        # that is not a square, so that +-sqrt(c) is not in Q(i)
        rng = random.Random(f"ladder-roots-{seed}")
        while True:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(2, 99), rng.randint(1, 99))
            if integer_root(abs(c.numerator) * c.denominator, 2) is None:
                break
        irrational = [s * complex(c) ** 0.5 for s in (1, -1)]
        roots, points = [], list(irrational)
        while len(roots) < 3:
            d = rng.randint(1, 10**20)
            re = Fraction(rng.randint(-4 * d, 4 * d), d)
            im = Fraction(rng.randint(-4 * d, 4 * d), d) if rng.random() < 0.5 else Fraction(0)
            if min(abs(complex(re, im) - z) for z in points) >= 1e-6:
                roots.append((gq(re, im), rng.randint(1, 3)))
                points.append(complex(re, im))
        poly = ladder(1, 0, -c)
        for root, mult in roots:
            poly = poly * UniPoly.from_roots([root] * mult)
        entries = ladder_roots(poly, precision, 1e-9)
        assert sorted((str(v), mult) for v, mult, exact in entries if exact) == sorted(
            (str(r), mult) for r, mult in roots)
        approx = [(complex(v), mult) for v, mult, exact in entries if not exact]
        assert len(approx) == 2 and all(mult == 1 for _, mult in approx)
        for z in irrational:
            assert min(abs(v - z) for v, _ in approx) < 1e-12


class TestQuarticDemo:
    def test_expansion(self):
        poly = whitney_quartic(gq(2))
        assert poly == parse_poly("X*Y^3 - 3*X^2*Y^2 + 2*X^3*Y")

    def test_degenerate_parameters_rejected(self):
        for bad in (gq(0), gq(1)):
            with pytest.raises(DegenerateConfigurationError):
                whitney_quartic(bad)
            with pytest.raises(DegenerateConfigurationError):
                whitney_configuration(bad)

    def test_configuration_slopes(self):
        t = gq(Fraction(3, 10))
        assert whitney_configuration(t) == (None, gq(0), gq(1), t)

    def test_cross_ratio_with_infinity(self):
        lam = cross_ratio(gq(0), gq(1), gq(2), None)
        assert lam == gq(2)
        assert j_from_cross_ratio(lam) == gq(1728)

    def test_cross_ratio_needs_distinct_points(self):
        with pytest.raises(DegenerateConfigurationError):
            cross_ratio(gq(0), gq(0), gq(1), gq(2))
        with pytest.raises(DegenerateConfigurationError):
            cross_ratio(None, None, gq(1), gq(2))

    def test_j_is_ordering_invariant(self):
        from itertools import permutations

        points = (None, gq(0), gq(1), gq(Fraction(3, 10)))
        values = {j_from_cross_ratio(cross_ratio(*p)) for p in permutations(points)}
        assert len(values) == 1

    def test_compare_distinct_parameters(self):
        result = whitney_compare(gq(Fraction(3, 10)), gq(Fraction(2, 5)))
        assert result["first"]["j"] == gq(Fraction(31554496, 11025))
        assert result["second"]["j"] == gq(Fraction(438976, 225))
        assert result["jEqual"] is False

    def test_j_against_symbolic_recomputation(self):
        for t in (Fraction(3, 10), Fraction(2, 5), Fraction(7, 3), Fraction(-5, 2)):
            mine = j_from_cross_ratio(cross_ratio(None, gq(0), gq(1), gq(t)))
            lam = sympy.Rational(t.numerator, t.denominator)
            oracle = 256 * (lam**2 - lam + 1) ** 3 / (lam**2 * (lam - 1) ** 2)
            assert mine.im == 0
            assert sympy.Rational(mine.re.numerator, mine.re.denominator) == oracle

    def test_equal_parameters_share_j(self):
        result = whitney_compare(gq(Fraction(3, 10)), gq(Fraction(3, 10)))
        assert result["jEqual"] is True
