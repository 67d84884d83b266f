"""Exact scalar and univariate polynomial arithmetic."""

import copy
import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from qhgerm import (
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    UniPoly,
    gcd_bezout,
    gq,
)
from qhgerm import exact
from qhgerm.exact import (_complex_root, _prime, format_coefficient, format_unipoly,
                          integer_root)

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(gq, fractions, fractions)
nonzero_scalars = scalars.filter(lambda z: not z.is_zero)
small_polys = st.lists(scalars, min_size=1, max_size=6).map(UniPoly.from_coeffs)


class TestGaussianRational:
    def test_division_rotates(self):
        assert gq(1, 1) / gq(1, -1) == GQ_I

    def test_inverse_of_i(self):
        assert GQ_I.inverse() == gq(0, -1)

    def test_negative_power(self):
        z = gq(Fraction(2, 3), Fraction(-1, 3))
        assert z**-2 == (z * z).inverse()

    def test_zero_power(self):
        assert gq(7, -5) ** 0 == GQ_ONE

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GQ_ZERO.inverse()

    def test_fraction_coercion(self):
        assert gq(Fraction(3, 6)) == gq(Fraction(1, 2))
        assert GaussianRational.of(2) + GQ_ONE == gq(3)

    def test_str_forms(self):
        assert str(gq(Fraction(3, 2))) == "3/2"
        assert str(gq(1, 1)) == "1+1i"
        assert str(gq(1, -2)) == "1-2i"
        assert str(gq(0, 1)) == "1i"
        assert str(gq(Fraction(1, 3), Fraction(-2, 5))) == "1/3-2/5i"
        assert str(GQ_ZERO) == "0"

    def test_conjugate_norm(self):
        z = gq(3, -4)
        assert z * z.conjugate() == gq(25)
        assert z.norm_sq() == Fraction(25)

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(nonzero_scalars)
    def test_inverse_round_trip(self, z):
        assert z * z.inverse() == GQ_ONE

    @given(scalars, st.integers(min_value=0, max_value=6))
    def test_power_matches_repeated_product(self, z, n):
        acc = GQ_ONE
        for _ in range(n):
            acc = acc * z
        assert z**n == acc


# Reference arithmetic on (re, im) pairs of Fractions, the representation the
# integer-triple kernel replaced.


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    if not n:
        raise ZeroDivisionError
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, n):
    base = _ref_inverse(x) if n < 0 else x
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        acc = _ref_mul(acc, base)
    return acc


def _ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


_REF_BINARY = (
    (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    (operator.mul, _ref_mul),
    (operator.truediv, lambda x, y: _ref_mul(x, _ref_inverse(y))),
)

wide_fractions = st.fractions(max_denominator=10**9)
gq_operands = st.tuples(wide_fractions, wide_fractions).map(lambda p: (gq(*p), p))
operands = st.one_of(
    gq_operands,
    st.integers(min_value=-10**6, max_value=10**6).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    wide_fractions.map(lambda f: (f, (f, Fraction(0)))),
)


def _assert_matches(z, ref):
    assert type(z) is GaussianRational
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == ref
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == gq(*ref) and hash(z) == hash(gq(*ref))
    assert str(z) == _ref_str(ref)


class TestTripleKernel:
    @given(gq_operands, operands, st.booleans())
    def test_binary_operations_match_fraction_pairs(self, x, y, swap):
        (left, left_ref), (right, right_ref) = (y, x) if swap else (x, y)
        for op, ref in _REF_BINARY:
            try:
                expected = ref(left_ref, right_ref)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            _assert_matches(op(left, right), expected)

    @given(gq_operands, st.integers(min_value=-3, max_value=5))
    def test_power_matches_fraction_pairs(self, x, n):
        z, ref = x
        try:
            expected = _ref_pow(ref, n)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                z**n
            return
        _assert_matches(z**n, expected)

    @given(gq_operands)
    def test_unary_operations_match_fraction_pairs(self, x):
        z, (re, im) = x
        _assert_matches(z, (re, im))
        _assert_matches(-z, (-re, -im))
        _assert_matches(z.conjugate(), (re, -im))
        assert z.norm_sq() == re * re + im * im
        assert type(z.norm_sq()) is Fraction
        if z.is_zero:
            with pytest.raises(ZeroDivisionError):
                z.inverse()
        else:
            _assert_matches(z.inverse(), _ref_inverse((re, im)))

    @given(gq_operands, gq_operands)
    def test_equal_values_hash_equal(self, x, y):
        z, w = x[0], y[0]
        for same in ((z + w) - w, (w + z) - w, (z * w) / w if not w.is_zero else z):
            assert same == z
            assert hash(same) == hash(z)
            assert (same.a, same.b, same.d) == (z.a, z.b, z.d)

    def test_immutable(self):
        z = gq(Fraction(1, 2), 3)
        for name in ("a", "b", "d", "re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
        with pytest.raises(AttributeError):
            del z.a
        assert (z.a, z.b, z.d) == (1, 6, 2)

    def test_equality_only_with_gaussian_rationals(self):
        assert gq(1) != 1
        assert gq(Fraction(1, 2)) != Fraction(1, 2)
        assert gq(Fraction(2, 4), Fraction(3, 6)) == gq(Fraction(1, 2), Fraction(1, 2))

    def test_copy_and_repr(self):
        z = gq(Fraction(-2, 3), Fraction(5, 4))
        assert copy.deepcopy(z) == z
        assert repr(z) == "GaussianRational(re=Fraction(-2, 3), im=Fraction(5, 4))"

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        x, y = gq(Fraction(2, 3), Fraction(-5, 7)), gq(Fraction(9, 4))
        made = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        (x * y + x - 3 * y / x) ** 3 + x**-2 + y.inverse() - x.conjugate() * 2
        monkeypatch.undo()
        assert made == []

    def test_multiplication_is_patchable_in_the_class_dict(self):
        # per-layer tracing replaces these two entries to count products
        assert "__mul__" in GaussianRational.__dict__
        assert "__rmul__" in GaussianRational.__dict__


class TestUniPoly:
    def test_from_roots_evaluates_to_zero(self):
        poly = UniPoly.from_roots([gq(1), gq(2), gq(-3)])
        for root in (gq(1), gq(2), gq(-3)):
            assert poly.eval(root).is_zero
        assert poly.leading == GQ_ONE

    def test_coeff_views_agree(self):
        poly = UniPoly.from_coeffs([gq(2), gq(0), gq(-1), gq(5)])
        assert poly.degree == 3
        assert poly.coeff_of_power(3) == gq(2)
        assert poly.coeff_from_top(0) == gq(2)
        assert poly.coeff_from_top(2) == gq(-1)
        assert poly.coeff_of_power(0) == gq(5)

    def test_monic_splits_leading(self):
        poly = UniPoly.from_coeffs([gq(4), gq(-2)])
        monic, lead = poly.monic()
        assert lead == gq(4)
        assert monic == UniPoly.from_coeffs([gq(1), gq(Fraction(-1, 2))])

    def test_shift_moves_roots_backward(self):
        poly = UniPoly.from_roots([gq(1), gq(2)])
        shifted = poly.shift(gq(Fraction(3, 2)))
        assert shifted == UniPoly.from_coeffs(
            [gq(1), gq(0), gq(Fraction(-1, 4))]
        )

    def test_taylor_shift_frozen_case(self):
        poly = UniPoly.from_coeffs([gq(1), gq(-3), gq(2)])
        assert poly.shift(gq(Fraction(3, 2))) == UniPoly.from_coeffs(
            [gq(1), gq(0), gq(Fraction(-1, 4))]
        )

    @given(small_polys, small_polys, scalars)
    def test_eval_is_multiplicative(self, f, g, z):
        assert (f * g).eval(z) == f.eval(z) * g.eval(z)

    @given(small_polys, small_polys, scalars)
    def test_eval_is_additive(self, f, g, z):
        assert (f + g).eval(z) == f.eval(z) + g.eval(z)

    @settings(max_examples=50)
    @given(small_polys, scalars, scalars)
    def test_shift_matches_shifted_evaluation(self, f, c, z):
        assert f.shift(c).eval(z) == f.eval(z + c)

    @given(small_polys, scalars, scalars)
    def test_shifts_compose(self, f, a, b):
        assert f.shift(a).shift(b) == f.shift(a + b)

    @given(st.lists(scalars, min_size=1, max_size=4))
    def test_from_roots_degree(self, roots):
        assert UniPoly.from_roots(roots).degree == len(roots)

    def test_pow_matches_product(self):
        f = UniPoly.from_coeffs([gq(1), gq(1)])
        assert f**3 == f * f * f
        assert f**0 == UniPoly.one()


def euclid_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q(i) by the Euclidean remainder sequence, each remainder made monic."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b, _ = b.monic()
    if a.is_zero:
        return a
    return a.monic()[0]


def euclid_squarefree_parts(poly: UniPoly) -> list:
    """Reference for UniPoly.squarefree_parts: Yun's method on euclid_gcd over Q(i)."""
    if poly.degree < 1:
        return []
    f, _ = poly.monic()
    df = f.derivative()
    a = euclid_gcd(f, df)
    b = f // a
    d = (df // a) - b.derivative()
    out = []
    mult = 1
    while b.degree > 0:
        g = euclid_gcd(b, d)
        if g.degree > 0:
            out.append((g, mult))
        b = b // g
        d = (d // g) - b.derivative()
        mult += 1
    return out


# the first prime the modular method tries
P0 = _prime(0)[0]
# w^2 - c for c not a square in Q(i): factors with no root in Q(i)
QUADRATICS = [UniPoly.from_coeffs([1, 0, -c]) for c in (gq(2), gq(-3), gq(0, 1), gq(1, 2))]


@st.composite
def products_of_powers(draw):
    """(poly, [(factor, multiplicity)]): a constant times prod factor^k, degree <= 24.

    The factors are w - r for Gaussian rationals r with denominators up to
    2^64, and at most one w^2 - c of QUADRATICS; k runs from 1 to 4.
    """
    d = st.integers(1, 2**64)
    root = st.builds(
        lambda a, b, d, e, real: gq(Fraction(a, d), 0 if real else Fraction(b, e)),
        st.integers(-(2**66), 2**66), st.integers(-(2**66), 2**66), d, d, st.booleans(),
    )
    roots = draw(st.lists(root, min_size=0, max_size=4, unique=True))
    factors = [UniPoly.from_roots([r]) for r in roots]
    factors += draw(st.lists(st.sampled_from(QUADRATICS), max_size=1))
    if not factors:
        factors = [UniPoly.from_roots([gq(1)])]
    powers = [(g, draw(st.integers(1, 4))) for g in factors]
    lead = draw(st.sampled_from([gq(1), gq(3), gq(Fraction(-2, 7), 1), gq(0, Fraction(1, 2**64))]))
    poly = UniPoly.one().scale(lead)
    for g, k in powers:
        poly = poly * g**k
    return poly, powers


class TestSquarefreeParts:
    @pytest.fixture(autouse=True)
    def few_primes(self, monkeypatch):
        """Fail a call that takes more than 20 primes, rather than let it run on."""
        taken = []

        def counted():
            for k in itertools.count():
                if k == 20:
                    raise AssertionError("squarefree_parts took more than 20 primes")
                taken.append(_prime(k)[0])
                yield _prime(k)

        monkeypatch.setattr(exact, "_primes", counted)
        return taken

    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(case=products_of_powers())
    def test_matches_euclid(self, case):
        poly, powers = case
        got = poly.squarefree_parts()
        assert got == euclid_squarefree_parts(poly)
        # one factor per multiplicity: the product of the constructed
        # factors of that multiplicity, made monic
        want = {}
        for g, k in powers:
            want[k] = want.get(k, UniPoly.one()) * g
        assert got == [(want[k].monic()[0], k) for k in sorted(want)]

    def test_first_prime_dividing_a_denominator_is_skipped(self, few_primes):
        poly = UniPoly.from_roots([gq(Fraction(1, P0)), gq(Fraction(1, P0)), gq(2)])
        assert poly.squarefree_parts() == [
            (UniPoly.from_roots([gq(2)]), 1), (UniPoly.from_roots([gq(Fraction(1, P0))]), 2)]
        assert few_primes[0] == P0

    @pytest.mark.parametrize("k", [0, 1], ids=["first", "second"])
    def test_unlucky_prime_is_outvoted(self, few_primes, k):
        # 0 and the k-th prime p are one root mod p, so there the split is
        # w^3; the second prime comes after a lucky image of too small a modulus
        p = _prime(k)[0]
        poly = UniPoly.from_roots([gq(0), gq(0), gq(p)])
        assert poly.squarefree_parts() == [
            (UniPoly.from_roots([gq(p)]), 1), (UniPoly.from_roots([gq(0)]), 2)]
        assert few_primes[k] == p

    def test_unlucky_first_prime_of_a_squarefree_input(self):
        poly = UniPoly.from_roots([gq(0), gq(P0)])
        assert poly.squarefree_parts() == [(poly, 1)]

    def test_squarefree_input_is_proved_at_the_first_prime(self, few_primes, monkeypatch):
        def no_lift(*args):
            raise AssertionError("square-free input went past gcd(f, f') mod p")

        monkeypatch.setattr(exact, "_reconstruct", no_lift)
        poly = (UniPoly.from_roots([gq(1), gq(2, -1)]) * QUADRATICS[0]).scale(gq(3))
        assert poly.squarefree_parts() == [(poly.monic()[0], 1)]
        assert few_primes == [P0]

    def test_constants_have_no_parts(self):
        assert UniPoly.one().scale(gq(5)).squarefree_parts() == []


class TestGcdBezout:
    def test_pair_frozen(self):
        d, coeffs = gcd_bezout([2, 3])
        assert d == 1
        assert list(coeffs) == [-1, 1]

    def test_triple(self):
        indices = [6, 10, 15]
        d, coeffs = gcd_bezout(indices)
        assert d == 1
        assert sum(c * i for c, i in zip(coeffs, indices)) == 1

    def test_common_factor(self):
        indices = [4, 6, 10]
        d, coeffs = gcd_bezout(indices)
        assert d == 2
        assert sum(c * i for c, i in zip(coeffs, indices)) == 2

    @pytest.mark.parametrize("indices, message", [
        ([], "nonempty"),
        ([0], "positive integers"),
        ([2, -1], "positive integers"),
    ])
    def test_rejects_empty_and_nonpositive_indices(self, indices, message):
        with pytest.raises(ValueError, match=message):
            gcd_bezout(indices)

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
    def test_identity_and_divisibility(self, indices):
        d, coeffs = gcd_bezout(indices)
        assert sum(c * i for c, i in zip(coeffs, indices)) == d
        assert all(i % d == 0 for i in indices)


class TestIntegerRoot:
    def test_small_values_by_brute_force(self):
        for k in range(1, 13):
            powers = {r**k: r for r in range(3000)}
            for n in range(3000):
                assert integer_root(n, k) == powers.get(n), (n, k)

    @settings(max_examples=200)
    @given(st.integers(0, 2**1024), st.integers(1, 40))
    def test_powers_and_their_neighbours(self, r, k):
        n = r**k
        assert integer_root(n, k) == r
        if k > 1 and n > 1:
            assert integer_root(n - 1, k) is None
            assert integer_root(n + 1, k) is None

    def test_index_beyond_the_bit_length(self):
        # 1 < n < 2^k lies between 1^k and 2^k
        assert integer_root(2**64 - 1, 64) is None
        assert integer_root(2**64, 64) == 2
        assert integer_root(1, 10**6) == 1

    @pytest.mark.parametrize("n, k", [(-1, 2), (4, 0)])
    def test_rejects_negative_n_and_nonpositive_k(self, n, k):
        with pytest.raises(ValueError):
            integer_root(n, k)


def mp_root_error(a: int, b: int, d: int, k: int, branch: int, prec: int) -> float:
    """Distance of _complex_root(a, b, d, k, branch, prec) from 2^prec times
    mpmath's branch-th k-th root of (a + b*i)/d, taken at enough bits that
    its own error is below 2^-32 units of 2^-prec."""
    x, y = _complex_root(a, b, d, k, branch, prec)
    # |root| < 2^((bits of a, b) + 1)/k, and every bit of d shrinks it
    work = prec + max(a.bit_length(), b.bit_length(), 1) // k + 64
    with mp.workprec(work):
        root = mp.root(mpc(a, b) / d, k, branch)
        return float(abs(mpc(x, y) - root * mpf(2) ** prec))


@st.composite
def wide_values(draw):
    """(a, b, d): Gaussian parts and a denominator of up to 64 bits, the
    value then scaled by 2^s for s from -8000 to 8000 (into a and b, or
    into d), so that |value| runs from about 2^-8064 to 2^8064."""
    part = st.integers(-(2**64), 2**64)
    a, b = draw(part), draw(part)
    assume(a or b)
    d = draw(st.integers(1, 2**64))
    s = draw(st.integers(-8000, 8000))
    return (a << s, b << s, d) if s >= 0 else (a, b, d << -s)


class TestComplexRoot:
    """_complex_root, the Newton iteration in Gaussian fixed point, against
    mp.root: within 1 unit of 2^-prec on every branch mpmath numbers."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 227])
    def test_every_branch(self, k):
        rng = random.Random(k)
        for branch in range(k):
            a, b = rng.randint(-(2**200), 2**200), rng.randint(-(2**200), 2**200)
            d, prec = rng.randint(1, 2**64), rng.randint(1, 300)
            assert mp_root_error(a, b, d, k, branch, prec) < 1, (a, b, d, branch, prec)

    def test_one_branch_at_the_largest_index_of_the_acceptance_sweep(self):
        assert mp_root_error(3, -7, 5, 3820, 3819, 200) < 1
        assert mp_root_error(1, 0, 1, 3820, 1, 200) < 1

    @pytest.mark.parametrize("a, b", [
        pytest.param(-1, 0, id="minus-one"),
        pytest.param(-3, 0, id="negative-real"),
        pytest.param(-(2**4000), 0, id="wide-negative-real"),
        pytest.param(-(2**4000), -1, id="just-below-the-cut"),
        pytest.param(-(2**4000), 1, id="just-above-the-cut"),
        pytest.param(0, 1, id="i"),
        pytest.param(0, -1, id="minus-i"),
        pytest.param(0, 5**300, id="wide-imaginary"),
        pytest.param(0, -(5**300), id="wide-negative-imaginary"),
    ])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_the_cut_and_the_imaginary_axis(self, a, b, k):
        for branch in range(k):
            assert mp_root_error(a, b, 7, k, branch, 100) < 1, branch

    @seed(20261020)
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(value=wide_values(), k=st.sampled_from([1, 2, 3, 4, 5, 7, 12, 227]),
           data=st.data())
    def test_wide_values_and_denominators(self, value, k, data):
        branch = data.draw(st.integers(0, k - 1))
        prec = data.draw(st.integers(0, 400))
        assert mp_root_error(*value, k, branch, prec) < 1

    def test_step_is_the_branch_one_root_of_one(self):
        # the branch scan's step e^(2*pi*i/k), at the precisions it takes
        for k in (2, 3, 4, 6, 227, 3820, 2**40 - 1):
            prec = 64 + k.bit_length()
            assert mp_root_error(1, 0, 1, k, 1, prec) < 1, k

    @pytest.mark.parametrize("a, b, d, k, prec", [(2**4000, 0, 1, 3, -1300), (-(3**900), 5, 7, 230, -3),
                                                  (1, -1, 2**3000, 2, 1520)])
    def test_precision_below_the_root_size(self, a, b, d, k, prec):
        # _unit_root asks for the root to a fixed number of bits whatever its
        # size, so prec is negative where the root is wide
        assert mp_root_error(a, b, d, k, 0, prec) < 1
        assert mp_root_error(a, b, d, k, k - 1, prec) < 1

    def test_rejects_an_index_past_the_double_start(self):
        with pytest.raises(ValueError):
            _complex_root(1, 0, 1, 2**40, 1, 64)


def mp_radical_product(r, factors) -> bool:
    """Whether r = prod rho^e, rho mp.root's branch-th k-th root of base, to
    a relative 2^-100 at 400 bits: far below the gap 4/L between r and any
    other L-th root of unity times the product, L the lcm of the k."""
    def point(z):
        return mpc(mpf(z.a) / z.d, mpf(z.b) / z.d)

    with mp.workprec(400):
        value = mpc(1)
        for (base, k, branch), e in factors:
            if e:
                value *= mp.root(point(base), k, branch) ** e
        return abs(value - point(r)) <= abs(value) * mpf(2) ** -100


wide_scalars = st.builds(gq, st.fractions(max_denominator=2**64),
                         st.fractions(max_denominator=2**64)).filter(lambda z: not z.is_zero)


@st.composite
def radical_claims(draw):
    """(r, factors): up to three radicals, each a root of g^k times 1, i,
    -1 or 2 on any branch, and r the product of the g^e times a unit; the
    claim is true on about one branch in k of each radical."""
    r, factors = draw(st.sampled_from([GQ_ONE, GQ_ONE, GQ_I, -GQ_ONE, -GQ_I])), []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.one_of(nonzero_scalars, wide_scalars))
        k = draw(st.sampled_from([1, 2, 3, 4, 6, 7, 12]))
        twist = draw(st.sampled_from([GQ_ONE, GQ_ONE, GQ_I, -GQ_ONE, gq(2)]))
        e = draw(st.integers(-2 * k, 2 * k))
        factors.append(((g**k * twist, k, draw(st.integers(0, k - 1))), e))
        r = r * g**e
    return r, factors


class TestRadicalProduct:
    """_is_radical_product, the certificate's common step, against the
    product of mpmath roots."""

    @seed(20261024)
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(claim=radical_claims())
    def test_agrees_with_mpmath(self, claim):
        r, factors = claim
        assert exact._is_radical_product(r, factors, 0, {}) == mp_radical_product(r, factors)

    @pytest.mark.parametrize("g, branch", [(gq(3), 0), (gq(-3), 115), (gq(0, 3), 57),
                                           (gq(Fraction(-2**389 + 1, 7), 1), 115)])
    def test_one_branch_of_many_is_the_root(self, g, branch):
        # the 230-th roots of g^230 lie 2*sin(pi/230) apart, and only one is g;
        # the identity g^230 = g^230 holds on every branch, so the pin decides
        roots, base = {}, g**230
        got = [k for k in range(230)
               if exact._is_radical_product(g, [((base, 230, k), 1)], 0, roots)]
        assert got == [branch]

    def test_root_of_unity_pinned_in_a_product(self):
        # 2^(1/2)*2^(1/2) = 2 on equal branches; -2 when one branch moves
        two = gq(2)
        for b1, b2, want in ((0, 0, two), (1, 1, two), (0, 1, -two), (1, 0, -two)):
            factors = [((two, 2, b1), 1), ((two, 2, b2), 1)]
            assert exact._is_radical_product(want, factors, 0, {})
            assert not exact._is_radical_product(-want, factors, 0, {})

    def test_negative_and_whole_exponents(self):
        # (3^(1/3))^-4 = 3^-2 * 3^(2/3), and a rational factor is its own root
        rho = (gq(3), 3, 0)
        assert exact._is_radical_product(gq(Fraction(1, 3)), [(rho, -3)], 0, {})
        assert exact._is_radical_product(gq(Fraction(1, 3)), [(rho, -4), (rho, 1)], 0, {})
        assert exact._is_radical_product(gq(6), [((gq(2), 1, 0), 1), (rho, 3)], 0, {})
        assert not exact._is_radical_product(gq(Fraction(1, 9)), [(rho, -4)], 0, {})

    def test_zero(self):
        zero = (GQ_ZERO, 3, 0)
        assert exact._is_radical_product(GQ_ZERO, [(zero, 2), ((gq(5), 2, 1), 1)], 0, {})
        assert not exact._is_radical_product(GQ_ZERO, [(zero, -1)], 0, {})
        assert not exact._is_radical_product(GQ_ONE, [(zero, 1)], 0, {})
        assert not exact._is_radical_product(GQ_ZERO, [((gq(5), 2, 1), 1)], 0, {})
        assert exact._is_radical_product(GQ_ONE, [(zero, 0)], 0, {})

    def test_the_cache_holds_one_enclosure_per_root_and_precision(self):
        # the identity holds for each e, so each claim is pinned
        roots = {}
        rho = (gq(32), 5, 3)
        for e in range(1, 5):
            assert not exact._is_radical_product(gq(2**e), [(rho, e)], 64, roots)
        assert list(roots) == [(gq(32), 5, 3, 64)]


class TestFormatting:
    def test_monic_quadratic(self):
        poly = UniPoly.from_coeffs([gq(1), gq(-3), gq(2)])
        assert format_unipoly(poly) == "w^2 - 3*w + 2"

    def test_complex_constant_parenthesized(self):
        poly = UniPoly.from_coeffs([gq(1), gq(0), gq(-1, 1)])
        assert format_unipoly(poly) == "w^2 + (-1+1i)"

    def test_str_is_the_printed_form(self):
        poly = UniPoly.from_roots([gq(1), gq(0, 2)])
        assert str(poly) == format_unipoly(poly) == "w^2 + (-1-2i)*w + (0+2i)"

    def test_format_coefficient_plain_rational(self):
        assert format_coefficient(gq(Fraction(-5, 3))) == "-5/3"
