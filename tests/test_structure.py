"""Weight inference, canonical decomposition, and germ classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhgerm import (
    NotQuasihomogeneousError,
    UniPoly,
    WeightMismatchError,
    ZeroPolynomialError,
    analyze_germ,
    gq,
    infer_weights,
    parse_poly,
    validate_weights,
)
from qhgerm import structure
from qhgerm.structure import (
    HOMOGENEOUS,
    MONOMIAL_LIKE,
    NON_HOMOGENEOUS_QH,
    CanonicalForm,
    WeightSignature,
    _classify_from_form,
)

from conftest import germ_from_parts, rand_germ


class TestInferWeights:
    def test_cusp_pair(self):
        assert infer_weights(parse_poly("Y^2 - X^3")) == WeightSignature(2, 3, 6)

    def test_parabola_pair(self):
        poly = parse_poly("(Y-X^2)*(Y-2*X^2)")
        assert infer_weights(poly) == WeightSignature(1, 2, 4)

    def test_homogeneous_line(self):
        poly = parse_poly("X*Y*(Y-X)*(Y-2*X)")
        assert infer_weights(poly) == WeightSignature(1, 1, 4)

    def test_single_monomial_placeholder(self):
        assert infer_weights(parse_poly("X^3*Y^4")) == WeightSignature(1, 1, 7)

    def test_off_line_support_rejected(self):
        with pytest.raises(NotQuasihomogeneousError) as err:
            infer_weights(parse_poly("X^2 + Y^3 + X*Y"))
        assert "falls off" in str(err.value)

    def test_swapped_orientation_gets_a_hint(self):
        with pytest.raises(NotQuasihomogeneousError) as err:
            infer_weights(parse_poly("X^2 - Y^3"))
        assert "swap the variables" in str(err.value)

    def test_positive_slope_rejected(self):
        with pytest.raises(NotQuasihomogeneousError):
            infer_weights(parse_poly("1 + X*Y"))

    def test_shared_exponent_rejected(self):
        with pytest.raises(NotQuasihomogeneousError):
            infer_weights(parse_poly("X + X^2"))

    def test_zero_polynomial_rejected(self):
        from qhgerm import BivarPoly

        with pytest.raises(ZeroPolynomialError):
            infer_weights(BivarPoly.zero())


class TestValidateWeights:
    def test_accepts_matching_line(self):
        sig = validate_weights(parse_poly("Y^2 - X^3"), 2, 3)
        assert sig == WeightSignature(2, 3, 6)

    def test_rejects_off_line_points(self):
        with pytest.raises(WeightMismatchError) as err:
            validate_weights(parse_poly("Y^2 - X^3"), 1, 2)
        assert str(err.value) == "support points [(3, 0)] are off the weighted line 1*i + 2*j = 4"

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            validate_weights(parse_poly("Y^2 - X^3"), 2, 4)

    def test_rejects_reversed_weights(self):
        with pytest.raises(ValueError):
            validate_weights(parse_poly("Y^2 - X^3"), 3, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            validate_weights(parse_poly("Y^2 - X^3"), 0, 3)

    @pytest.mark.parametrize("text, p, q", [
        ("Y^2 - X^4", True, 2),
        ("Y^2 - X^2", 1, True),
    ])
    def test_rejects_bool_weights(self, text, p, q):
        # bool is an int subclass; True would otherwise stand for 1
        with pytest.raises(ValueError, match="weights must be integers"):
            validate_weights(parse_poly(text), p, q)


class TestCanonicalDecomposition:
    def test_two_cusp_product(self):
        a = analyze_germ(parse_poly("(Y^2-X^3)*(Y^2-2*X^3)"))
        assert a.weights == WeightSignature(2, 3, 12)
        assert a.canonical.c0 == gq(1)
        assert (a.canonical.m, a.canonical.m0) == (0, 0)
        assert a.canonical.ladder == UniPoly.from_roots([gq(1), gq(2)])

    def test_axis_factors_split_off(self):
        a = analyze_germ(parse_poly("3*X*Y*(Y^2-X^3)^2"))
        assert a.canonical.c0 == gq(3)
        assert (a.canonical.m, a.canonical.m0) == (1, 1)
        assert a.canonical.ladder == UniPoly.from_roots([gq(1), gq(1)])
        assert a.ord_at_origin == 6

    def test_unit_weight_keeps_zero_roots_in_ladder(self):
        a = analyze_germ(parse_poly("5*Y*(Y-X^2)"))
        assert a.weights == WeightSignature(1, 2, 4)
        assert a.canonical.m0 is None
        assert a.canonical.c0 == gq(5)
        assert a.canonical.ladder == UniPoly.from_roots([gq(0), gq(1)])

    def test_monomial(self):
        a = analyze_germ(parse_poly("X^3*Y^4"))
        assert a.germ_class == MONOMIAL_LIKE
        assert a.canonical.m == 3
        assert a.canonical.ladder.degree == 4
        assert a.ord_at_origin == 7

    def test_asserted_weights_respected(self):
        a = analyze_germ(parse_poly("Y^2 - X^3"), weights=(2, 3))
        assert a.weights == WeightSignature(2, 3, 6)

    def test_asserted_weights_checked(self):
        with pytest.raises(WeightMismatchError):
            analyze_germ(parse_poly("Y^2 - X^3"), weights=(1, 3))

    @pytest.mark.parametrize("weights", [(2,), (2, 3, 6), 2, (0, 3), (2, "3")])
    def test_weights_must_be_two_positive_integers(self, weights):
        with pytest.raises(ValueError):
            analyze_germ(parse_poly("Y^2 - X^3"), weights=weights)


class TestWeightedLineCheckedOnce:
    """analyze_germ checks the support against the weighted line once."""

    @staticmethod
    def _count_checks(monkeypatch, weights):
        calls = {"infer_weights": 0, "validate_weights": 0}
        for name in calls:
            original = getattr(structure, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(structure, name, counting)
        analyze_germ(parse_poly("(Y^2-X^3)*(Y^2-2*X^3)"), weights)
        return calls

    def test_explicit_weights_validated_once(self, monkeypatch):
        assert self._count_checks(monkeypatch, (2, 3)) == {
            "infer_weights": 0, "validate_weights": 1}

    def test_inferred_weights_not_validated_again(self, monkeypatch):
        assert self._count_checks(monkeypatch, None) == {
            "infer_weights": 1, "validate_weights": 0}


class TestClassification:
    def test_four_lines_homogeneous(self):
        a = analyze_germ(parse_poly("X*Y*(Y-X)*(Y-2*X)"))
        assert a.germ_class == HOMOGENEOUS

    def test_cusp_is_in_scope(self):
        assert analyze_germ(parse_poly("Y^2 - X^3")).germ_class == NON_HOMOGENEOUS_QH

    def test_single_parabola_power_is_monomial_like(self):
        a = analyze_germ(parse_poly("(Y-X^2)^3"))
        assert a.germ_class == MONOMIAL_LIKE

    def test_shifted_single_root_with_axis_power(self):
        a = analyze_germ(parse_poly("X^2*(Y-5*X^3)^2"))
        assert a.germ_class == MONOMIAL_LIKE

    def test_distinct_parabolas_are_in_scope(self):
        a = analyze_germ(parse_poly("(Y-X^2)*(Y-2*X^2)"))
        assert a.germ_class == NON_HOMOGENEOUS_QH


def _class_of_unit_weight_ladder(ladder):
    sig = WeightSignature(1, 2, 2 * ladder.degree)
    return _classify_from_form(sig, CanonicalForm(gq(1), 0, None, ladder))


def _class_by_expansion(ladder):
    """The class from expanding (w - r)^d in full, r read off the ladder."""
    root = -ladder.coeff_from_top(1) / ladder.degree
    if ladder == UniPoly.from_roots([root] * ladder.degree):
        return MONOMIAL_LIKE
    return NON_HOMOGENEOUS_QH


class TestRepeatedRootCheck:
    @pytest.mark.parametrize(
        "ladder, expected",
        [
            (UniPoly.from_roots([gq(3)] * 5), MONOMIAL_LIKE),
            (UniPoly.from_roots([gq(Fraction(1, 2), 2)] * 4), MONOMIAL_LIKE),
            (UniPoly.from_roots([gq(0)] * 6), MONOMIAL_LIKE),
            # (w - 2)^4 = w^4 - 8w^3 + 24w^2 - 32w + 16 with the third coefficient off
            (UniPoly.from_coeffs([1, -8, 25, -32, 16]), NON_HOMOGENEOUS_QH),
            (UniPoly.from_coeffs([1, -8, 24, -32, 17]), NON_HOMOGENEOUS_QH),
            (UniPoly.from_roots([gq(1), gq(2)]), NON_HOMOGENEOUS_QH),
        ],
        ids=["real", "gaussian", "zero", "third_coefficient", "last_coefficient", "two_roots"],
    )
    def test_matches_full_expansion(self, ladder, expected):
        assert _class_by_expansion(ladder) == expected
        assert _class_of_unit_weight_ladder(ladder) == expected

    @given(st.lists(st.sampled_from([gq(0), gq(1), gq(-2), gq(0, 1), gq(Fraction(1, 3), -1)]),
                    min_size=1, max_size=6))
    def test_matches_full_expansion_on_root_multisets(self, roots):
        ladder = UniPoly.from_roots(roots)
        assert _class_of_unit_weight_ladder(ladder) == _class_by_expansion(ladder)


class TestRandomGerms:
    def test_generator_stays_in_scope(self):
        rng = random.Random(11)
        for _ in range(40):
            parts = rand_germ(rng)
            a = analyze_germ(parts.poly)
            assert a.germ_class == NON_HOMOGENEOUS_QH
            assert (a.weights.p, a.weights.q) == (parts.p, parts.q)
            assert a.canonical.m == parts.m
            expected_m0 = None if parts.p == 1 else parts.m0
            assert a.canonical.m0 == expected_m0

    def test_ladder_matches_planted_roots(self):
        rng = random.Random(12)
        for _ in range(40):
            parts = rand_germ(rng)
            a = analyze_germ(parts.poly)
            roots = []
            for lam, mult in parts.roots:
                roots.extend([lam] * mult)
            expected = UniPoly.from_roots(roots)
            assert a.canonical.ladder == expected

    def test_order_at_origin_is_minimal_total_degree(self):
        rng = random.Random(13)
        for _ in range(40):
            poly = rand_germ(rng).poly
            a = analyze_germ(poly)
            brute = min(i + j for (i, j) in poly.support)
            assert a.ord_at_origin == brute
