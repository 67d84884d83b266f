"""The exact polynomial kernels over Z[i] against the rational loops they replaced.

BivarPoly.substitute and UniPoly.shift clear denominators once and work on
Gaussian integers. The loops they replaced, which run in GaussianRational
arithmetic term by term, are kept here as reference_substitute and
reference_shift; the product kernel of substitute is checked against
BivarPoly.__mul__, which still multiplies term by term. Seeded Hypothesis
tests draw coefficients with denominators up to 2^64 and Gaussian parts,
Y-degrees up to 32, zero and constant images, the zero polynomial and
mixed exact/numeric modes, and compare the terms and the mode.
"""

import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from conftest import apply_change, coprime_denominators
from qhgerm import (GQ_ZERO, BivarPoly, UniPoly, Witness, X, Y, analyze_germ, build_witness, gq,
                    parse_poly, verify_witness)
from qhgerm.exact import _make
from qhgerm.polyio import (MODE_EXACT, MODE_NUMERIC, _add_product, _denominator_runs,
                           _integral_terms, _join_mode, _weighted_images, power_table)

SEEDED = settings(max_examples=60, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])


def kernel_product(a: BivarPoly, b: BivarPoly, x: int = 1, y: int = 0) -> BivarPoly:
    """(x + y*i)*a*b through _add_product on the operands cleared of denominators."""
    den, ints = _integral_terms(a.terms)
    other_den, other_ints = _integral_terms(b.terms)
    out = _add_product({}, ints, other_ints, x, y)
    return BivarPoly({k: _make(re, im, den * other_den) for k, (re, im) in out.items()
                      if re or im}, _join_mode(a.mode, b.mode))


def reference_substitute(poly: BivarPoly, x_image: BivarPoly, y_image: BivarPoly) -> BivarPoly:
    """X -> x_image, Y -> y_image through BivarPoly products and sums."""
    xp = power_table(x_image, {i for i, _ in poly.terms})
    yp = power_table(y_image, {j for _, j in poly.terms})
    acc = BivarPoly.zero(poly.mode)
    for (i, j), c in poly.terms.items():
        acc = acc + (xp[i] * yp[j]).scale(c)
    return acc


def reference_shift(poly: UniPoly, c) -> UniPoly:
    """w -> P(w + c) by repeated synthetic division in GaussianRational arithmetic."""
    c = gq(c)
    if poly.is_zero or c.is_zero:
        return poly
    work = list(poly.coeffs)
    n = len(work)
    shifted_ascending = []
    for k in range(n):
        for i in range(1, n - k):
            work[i] = work[i] + work[i - 1] * c
        shifted_ascending.append(work[n - 1 - k])
    return UniPoly.from_coeffs(reversed(shifted_ascending))


def _same(got: BivarPoly, want: BivarPoly):
    assert got.terms == want.terms
    assert got.mode == want.mode


TOP = 2**64

# small and wide rationals: a wide one has a denominator up to 2^64
fractions = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-(2**20), max_value=2**20, max_denominator=TOP),
)
# an imaginary part in about half the draws
gaussians = st.builds(gq, fractions, st.one_of(st.just(0), fractions))
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero)
modes = st.sampled_from([MODE_EXACT, MODE_NUMERIC])


def bivar_polys(max_i: int, max_j: int, max_terms: int):
    keys = st.tuples(st.integers(0, max_i), st.integers(0, max_j))
    return st.builds(BivarPoly.from_terms,
                     st.dictionaries(keys, gaussians, max_size=max_terms), modes)


# the images of a witness's substitution, (alpha*X, beta*Y + gamma*X^q)
witness_images = st.builds(
    lambda alpha, beta, gamma, q, x_mode, y_mode: (
        BivarPoly.monomial(1, 0, alpha, x_mode),
        BivarPoly.from_terms({(0, 1): beta, (q, 0): gamma}, y_mode)),
    nonzero_gaussians, nonzero_gaussians, st.one_of(st.just(GQ_ZERO), gaussians),
    st.integers(1, 5), modes, modes)

# any images, zero and constants among them
any_images = st.one_of(
    bivar_polys(3, 3, 3),
    st.builds(BivarPoly.constant, gaussians, modes),
    st.builds(BivarPoly.zero, modes),
)


# the Gaussian-integer factor x + y*i that substitute passes to _add_product
gaussian_integers = st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70))


class TestProduct:
    @seed(20261101)
    @SEEDED
    @given(bivar_polys(8, 8, 6), bivar_polys(8, 8, 6), gaussian_integers)
    @example(BivarPoly.zero(MODE_NUMERIC), X, (1, 0))
    @example(X + Y, BivarPoly.zero(), (1, 0))
    @example(X, Y, (0, 0))
    # (1 + i)(1 - i) = 2: the imaginary part cancels
    @example(BivarPoly.constant(gq(1, 1)), BivarPoly.constant(gq(1, -1), MODE_NUMERIC), (1, 0))
    # (1/2 + i/3)(1/3 + i/2): the real parts cancel, every product keeps a denominator
    @example(BivarPoly.constant(gq(Fraction(1, 2), Fraction(1, 3))) + X,
             BivarPoly.constant(gq(Fraction(1, 3), Fraction(1, 2))) - Y, (1, 0))
    # two Gaussian products land on X*Y: the second adds to the first
    @example(X.scale(gq(1, 1)) + Y.scale(gq(1, 1)), X.scale(gq(2, -1)) + Y.scale(gq(1, 3)),
             (2, -3))
    def test_matches_the_term_by_term_product(self, f, g, factor):
        _same(kernel_product(f, g, *factor), (f * g).scale(gq(*factor)))

    def test_terms_that_cancel_are_dropped(self):
        product = kernel_product(X + Y.scale(gq(1, 1)), X - Y.scale(gq(1, 1)))
        assert product.terms == {(2, 0): gq(1), (0, 2): gq(0, -2)}


class TestSubstitute:
    @seed(20261102)
    @SEEDED
    @given(bivar_polys(12, 32, 6), witness_images)
    @example(BivarPoly.from_terms({(0, 32): gq(Fraction(1, TOP)), (12, 0): gq(0, 1)}),
             (X.scale(gq(Fraction(3, TOP - 1), 1)),
              Y.scale(gq(Fraction(-1, TOP + 1))) + BivarPoly.monomial(5, 0, gq(0, Fraction(1, 7)))))
    def test_witness_images_match_the_reference(self, f, images):
        _same(f.substitute(*images), reference_substitute(f, *images))

    @seed(20261103)
    @SEEDED
    @given(bivar_polys(5, 5, 5), any_images, any_images)
    @example(BivarPoly.zero(), X, BivarPoly.zero(MODE_NUMERIC))
    @example(BivarPoly.zero(MODE_NUMERIC), BivarPoly.zero(), BivarPoly.zero())
    @example(X * Y, BivarPoly.constant(gq(Fraction(1, TOP), 1)), BivarPoly.zero(MODE_NUMERIC))
    @example(BivarPoly.constant(gq(3, 4)), BivarPoly.zero(), BivarPoly.zero(MODE_NUMERIC))
    def test_any_images_match_the_reference(self, f, x_image, y_image):
        _same(f.substitute(x_image, y_image), reference_substitute(f, x_image, y_image))

    @pytest.mark.parametrize("gamma", [GQ_ZERO, gq(Fraction(5, 7), 1)])
    def test_coprime_wide_denominators_match_the_reference(self, gamma):
        # every term its own run; with gamma the images of the runs meet
        dens = coprime_denominators(12, 200)
        f = BivarPoly.from_terms({(k, 11 - k): gq(Fraction(k + 1, d), Fraction(k, d))
                                  for k, d in enumerate(dens)})
        f = f + BivarPoly.monomial(0, 11, gq(Fraction(1, dens[0] * dens[1])))
        images = (X.scale(gq(Fraction(3, TOP + 1), 1)),
                  Y.scale(gq(Fraction(-1, TOP - 1))) + BivarPoly.monomial(1, 0, gamma))
        _same(f.substitute(*images), reference_substitute(f, *images))

    def test_many_coprime_wide_denominators_stay_narrow(self):
        # 200 terms with pairwise coprime denominators of about 3,600 bits
        # and a linear witness: each term of the image comes from one term
        # of the germ, and needs no wider denominator than that term's
        dens = coprime_denominators(200, 3600)
        f = BivarPoly.from_terms({(k, 199 - k): gq(Fraction(k + 1, d))
                                  for k, d in enumerate(dens)})
        images = (X.scale(gq(2)), Y.scale(gq(3, 1)))
        start = time.perf_counter()
        image = f.substitute(*images)
        assert time.perf_counter() - start < 1
        _same(image, reference_substitute(f, *images))

    def test_weighted_shear_of_many_coprime_wide_denominators_stays_narrow(self):
        # 200 terms with pairwise coprime denominators of about 3,600 bits,
        # three to a weighted line i + j = w, and a shear by X: each run is
        # shifted on its own, so the denominator of a term of the image
        # divides the product of those of its line times v^2 = 7^2
        dens = coprime_denominators(200, 3600)
        keys = [(w - j, j) for w in range(70) for j in range(3) if j <= w][:200]
        f = BivarPoly.from_terms({key: gq(Fraction(k + 1, d), Fraction(k, d))
                                  for k, (key, d) in enumerate(zip(keys, dens))})
        images = (X.scale(gq(2, -1)), Y.scale(gq(3, 1)) + BivarPoly.monomial(1, 0, gq(Fraction(5, 7), 1)))
        assert _weighted_images(images[0].terms, images[1].terms) is not None
        start = time.perf_counter()
        image = f.substitute(*images)
        assert time.perf_counter() - start < 1
        line_dens = {}
        for (i, j), d in zip(keys, dens):
            line_dens[i + j] = line_dens.get(i + j, 1) * d
        assert all(49 * line_dens[i + j] % c.d == 0 for (i, j), c in image.terms.items())
        _same(image, reference_substitute(f, *images))

    def test_runs_split_where_the_lcm_grows(self):
        dens = coprime_denominators(4, 300)
        wide = {(k, 0): gq(Fraction(1, d)) for k, d in enumerate(dens)}
        assert [list(run) for run in _denominator_runs(wide)] == [[(k, 0)] for k in range(4)]
        # 2^k * 3 share their factors: the lcm is the widest of them
        shared = {(k, 0): gq(Fraction(1, 3 << k)) for k in range(70)}
        assert _denominator_runs(shared) == [shared]
        # 1/2^j for j < 64 join the run of 1/3: the lcm 3*2^63 stays within
        # w + 64 bits, w = 64 the bits of 2^63
        mixed = {(0, 0): gq(Fraction(1, 3)), **{(j, 1): gq(Fraction(1, 1 << j)) for j in range(64)}}
        assert _denominator_runs(mixed) == [mixed]

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_NUMERIC])
    def test_zero_polynomial_keeps_its_mode(self, mode):
        numeric_x = BivarPoly.monomial(1, 0, gq(2), MODE_NUMERIC)
        image = BivarPoly.zero(mode).substitute(numeric_x, Y)
        assert image.is_zero and image.mode == mode

    def test_mode_joins_all_three(self):
        numeric_y = BivarPoly.monomial(0, 1, gq(1), MODE_NUMERIC)
        assert (X + Y).substitute(X, numeric_y).mode == MODE_NUMERIC
        assert (X + Y).substitute(X, Y).mode == MODE_EXACT


# alpha, beta and gamma, any of them zero
scalars = st.one_of(st.just(GQ_ZERO), gaussians)


class TestWeightedPath:
    """Images X -> alpha*X, Y -> beta*Y + gamma*X^q take the line-by-line path."""

    @pytest.mark.parametrize("x_image, y_image, want", [
        (X.scale(gq(2)), Y.scale(gq(3)) + BivarPoly.monomial(4, 0, gq(1, 1)), (gq(2), gq(3), gq(1, 1), 4)),
        (X, Y, (gq(1), gq(1), GQ_ZERO, 1)),
        (BivarPoly.zero(), BivarPoly.zero(), (GQ_ZERO, GQ_ZERO, GQ_ZERO, 1)),
        (X, BivarPoly.monomial(3, 0, gq(5)), (gq(1), GQ_ZERO, gq(5), 3)),
        (X, Y + BivarPoly.constant(gq(1)), None),
        (X, Y + X + BivarPoly.monomial(2, 0, gq(1)), None),
        (X, Y * Y, None),
        (X, Y + X * Y, None),
        (X + Y, Y, None),
        (BivarPoly.constant(gq(2)), Y, None),
        (Y, X, None),
    ])
    def test_which_images_are_weighted(self, x_image, y_image, want):
        assert _weighted_images(x_image.terms, y_image.terms) == want

    @seed(20261106)
    @SEEDED
    @given(bivar_polys(12, 12, 8), scalars, scalars, scalars, st.integers(1, 5))
    def test_zero_scalars_match_the_reference(self, f, alpha, beta, gamma, q):
        images = (BivarPoly.monomial(1, 0, alpha),
                  BivarPoly.from_terms({(0, 1): beta, (q, 0): gamma}))
        _same(f.substitute(*images), reference_substitute(f, *images))

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (GQ_ZERO, gq(2, 1), gq(Fraction(1, 3))),
        (gq(2, 1), GQ_ZERO, gq(Fraction(1, 3))),
        (gq(2, 1), gq(Fraction(-1, 5)), GQ_ZERO),
        (GQ_ZERO, GQ_ZERO, gq(Fraction(1, 3))),
        (GQ_ZERO, GQ_ZERO, GQ_ZERO),
    ])
    def test_zero_scalars_on_a_germ(self, alpha, beta, gamma):
        f = BivarPoly.monomial(1, 0, gq(3)) * (Y - X * X) ** 3 * (Y - BivarPoly.monomial(2, 0, gq(2, 1)))
        images = (BivarPoly.monomial(1, 0, alpha),
                  BivarPoly.from_terms({(0, 1): beta, (2, 0): gamma}))
        _same(f.substitute(*images), reference_substitute(f, *images))

    @pytest.mark.parametrize("q", [1, 3, 7])
    def test_a_q_off_the_germ_s_line(self, q):
        # the germ lies on the line i + 2*j = 13; with q != 2 each of its
        # terms lies on a line of its own, which the shift expands term by term
        f = BivarPoly.monomial(1, 0, gq(Fraction(3, 7))) * (Y - X * X) ** 4 * (
            Y - BivarPoly.monomial(2, 0, gq(Fraction(2, 5), 1))) ** 2
        images = (X.scale(gq(Fraction(1, 2), 1)),
                  Y.scale(gq(-2, 3)) + BivarPoly.monomial(q, 0, gq(Fraction(4, 9), -1)))
        _same(f.substitute(*images), reference_substitute(f, *images))

    def test_several_lines_with_several_terms_each(self):
        f = ((Y - X * X) ** 3 + (Y - X) ** 4 * X + BivarPoly.constant(gq(Fraction(1, 11)))
             + (X * Y) ** 2 * (Y - X.scale(gq(0, 1))))
        images = (X.scale(gq(Fraction(2, 3))), Y.scale(gq(1, 1)) + X.scale(gq(Fraction(-3, 4))))
        _same(f.substitute(*images), reference_substitute(f, *images))

    @pytest.mark.parametrize("modes", [(MODE_NUMERIC, MODE_EXACT, MODE_EXACT),
                                       (MODE_EXACT, MODE_NUMERIC, MODE_EXACT),
                                       (MODE_EXACT, MODE_EXACT, MODE_NUMERIC),
                                       (MODE_EXACT, MODE_EXACT, MODE_EXACT)])
    def test_mode_joins_all_three(self, modes):
        f_mode, x_mode, y_mode = modes
        f = BivarPoly.from_terms({(2, 0): gq(1), (0, 1): gq(-1)}, f_mode)
        images = (BivarPoly.monomial(1, 0, gq(3), x_mode),
                  BivarPoly.from_terms({(0, 1): gq(2), (2, 0): gq(1, 1)}, y_mode))
        image = f.substitute(*images)
        _same(image, reference_substitute(f, *images))
        assert image.mode == (MODE_NUMERIC if MODE_NUMERIC in modes else MODE_EXACT)

    @pytest.mark.parametrize("alpha, beta", [(GQ_ZERO, gq(1)), (gq(1), GQ_ZERO), (GQ_ZERO, GQ_ZERO)])
    @pytest.mark.parametrize("germ", ["(Y-X^2)*(Y-2*X^2)", "(Y^2-X^3)*(Y^2-2*X^3)"])
    def test_degenerate_witnesses_fail(self, germ, alpha, beta):
        first = parse_poly(germ)
        weights = analyze_germ(first).weights
        second = apply_change(first, weights.q, gq(2), gq(3), gq(1) if weights.p == 1 else None)
        witness = build_witness(first, second)
        assert verify_witness(first, second, witness).passed
        witness = Witness(alpha, beta, *(getattr(witness, name) for name in Witness.__slots__[2:]))
        assert not verify_witness(first, second, witness).passed


class TestShift:
    unipolys = st.lists(gaussians, min_size=0, max_size=12).map(UniPoly.from_coeffs)
    centers = st.one_of(st.just(GQ_ZERO), gaussians)

    @seed(20261104)
    @SEEDED
    @given(unipolys, centers)
    @example(UniPoly.from_roots([gq(1), gq(2, -3), gq(Fraction(1, 5))]), gq(Fraction(7, TOP + 1)))
    @example(UniPoly.from_coeffs([gq(1), gq(0, Fraction(-5, TOP + 1)), gq(3)]),
             gq(Fraction(1, TOP + 1), Fraction(-2, TOP + 1)))
    @example(UniPoly.zero(), gq(Fraction(1, 3)))
    @example(UniPoly.one(), gq(5, 5))
    def test_matches_the_reference(self, poly, c):
        assert poly.shift(c) == reference_shift(poly, c)

    @seed(20261107)
    @SEEDED
    @given(st.dictionaries(st.integers(0, 40), gaussians, max_size=4), centers)
    @example({40: gq(1), 3: gq(Fraction(-2, 3), 1)}, gq(Fraction(5, TOP + 1), 2))
    def test_sparse_polynomials_match_the_reference(self, coeffs, c):
        # at most 4 terms up to degree 40: long runs of zeros between them
        poly = sum((UniPoly.monomial(k, z) for k, z in coeffs.items()), UniPoly.zero())
        assert poly.shift(c) == reference_shift(poly, c)

    @seed(20261105)
    @settings(SEEDED, max_examples=20)
    @given(unipolys)
    def test_shift_by_zero_is_the_identity(self, poly):
        assert poly.shift(0) is poly
        assert poly.shift(GQ_ZERO) is poly

    def test_centering_with_a_wide_denominator(self):
        # the affine matcher shifts a monic polynomial by -a_1/n: here the
        # center has denominator 2^64 + 1, and the centered polynomial has no
        # w^(n-1) term
        poly = UniPoly.from_coeffs([gq(1), gq(Fraction(3, TOP + 1), 3), gq(-1), gq(0, 1)])
        center = -poly.coeff_from_top(1) / 3
        assert center.d == TOP + 1
        centered = poly.shift(center)
        assert centered == reference_shift(poly, center)
        assert centered.coeff_from_top(1).is_zero
        assert centered.shift(-center) == poly
