"""Weight inference and canonical structure of quasihomogeneous polynomials.

A polynomial F is quasihomogeneous for coprime weights 1 <= p <= q when its
support lies on a single line p*i + q*j = nu. After stripping the largest
monomial factor, what remains is a polynomial in (X^q, Y^p) along that line;
its monic image in one variable w is the "ladder", whose roots carry all the
analytic information the equivalence engine needs. For p = 1 the ladder keeps
zero roots (factors Y - 0*X^q are meaningful); for p > 1 zero roots are
impossible because the Y-power factor has already been stripped.

analyze_germ is the one public way to the canonical form, class and order.
It checks the weighted line once, by infer_weights or (for weights given
by the caller) validate_weights, and derives the rest from that signature.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    FormulaMismatchError,
    InternalInconsistencyError,
    NotQuasihomogeneousError,
    WeightMismatchError,
    ZeroPolynomialError,
)
from .exact import GQ_ONE, GQ_ZERO, GaussianRational, Record, UniPoly
from .polyio import BivarPoly

HOMOGENEOUS = "Homogeneous"
MONOMIAL_LIKE = "MonomialLike"
NON_HOMOGENEOUS_QH = "NonHomogeneousQH"


class WeightSignature(Record):
    """Coprime weights p <= q and the weighted degree nu of the support line."""

    __slots__ = ("p", "q", "nu")


class CanonicalForm(Record):
    """Data of F = c0 * X^m * Y^m0 * (ladder factors).

    For p = 1 the Y-power is absorbed into the ladder as zero roots and m0 is
    None. ladder is monic; its degree is the total root multiplicity.
    """

    __slots__ = ("c0", "m", "m0", "ladder")

    @property
    def ladder_degree(self) -> int:
        return self.ladder.degree


class GermAnalysis(Record):
    """Bundle produced by analyze_germ: everything downstream stages need."""

    __slots__ = ("weights", "germ_class", "canonical", "ord_at_origin")


def _require_nonzero(poly: BivarPoly):
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no weight structure")


def infer_weights(poly: BivarPoly) -> WeightSignature:
    """Find the unique coprime 1 <= p <= q fitting the support, if any.

    A single-monomial support fits every weight pair; the placeholder (1, 1)
    is returned and classification reports such input as MonomialLike.
    """
    _require_nonzero(poly)
    support = poly.support
    if len(support) == 1:
        i, j = support[0]
        return WeightSignature(1, 1, i + j)
    (i0, j0), (i1, j1) = support[0], support[1]
    di, dj = i1 - i0, j1 - j0
    if di == 0 or dj == 0:
        raise NotQuasihomogeneousError(
            f"support points {support[0]} and {support[1]} share an exponent; "
            "no positive weights fit"
        )
    if (di > 0) == (dj > 0):
        raise NotQuasihomogeneousError(
            f"support points {support[0]} and {support[1]} lie on a line of "
            "positive slope; no positive weights fit"
        )
    g = gcd(abs(di), abs(dj))
    p, q = abs(dj) // g, abs(di) // g
    nu = p * i0 + q * j0
    for (i, j) in support:
        if p * i + q * j != nu:
            raise NotQuasihomogeneousError(
                f"support point ({i}, {j}) falls off the weighted line "
                f"{p}*i + {q}*j = {nu}"
            )
    if p > q:
        raise NotQuasihomogeneousError(
            f"the support line would need weights ({p}, {q}) with p > q; "
            "swap the variables to use this input"
        )
    return WeightSignature(p, q, nu)


def validate_weights(poly: BivarPoly, p: int, q: int) -> WeightSignature:
    """Check an asserted weight pair against the support and return its signature."""
    if not all(isinstance(w, int) and not isinstance(w, bool) for w in (p, q)):
        raise ValueError("weights must be integers")
    if not (1 <= p <= q):
        raise ValueError(f"weights must satisfy 1 <= p <= q, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"weights must be coprime, got ({p}, {q})")
    _require_nonzero(poly)
    support = poly.support
    nu = p * support[0][0] + q * support[0][1]
    offending = [(i, j) for (i, j) in support if p * i + q * j != nu]
    if offending:
        raise WeightMismatchError(
            f"support points {offending} are off the weighted line "
            f"{p}*i + {q}*j = {nu}"
        )
    return WeightSignature(p, q, nu)


def _decompose(poly: BivarPoly, weights: WeightSignature) -> CanonicalForm:
    """Extract c0, monomial exponents, and the monic ladder polynomial.

    weights is the signature that infer_weights or validate_weights has just
    returned for this nonzero poly, so the support lies on its line. The
    input is re-expanded from the extracted data and compared exactly; any
    disagreement is an internal inconsistency, not an input error.
    """
    p, q = weights.p, weights.q
    support = poly.support
    m = min(i for i, _ in support)
    # for p = 1 a Y-power is the ladder root 0, so no Y-power is stripped
    m0 = min(j for _, j in support) if p > 1 else None
    y0 = m0 or 0
    nu_stripped = weights.nu - p * m - q * y0
    if nu_stripped % (p * q) != 0:
        raise InternalInconsistencyError(
            f"stripped weighted degree {nu_stripped} is not a multiple of p*q"
        )
    degree = nu_stripped // (p * q)
    coeffs = [GQ_ZERO] * (degree + 1)
    for (i, j), c in poly.terms.items():
        ii, jj = i - m, j - y0
        if ii % q != 0:
            raise InternalInconsistencyError(
                f"stripped support point ({ii}, {jj}) has X-exponent not "
                f"divisible by q = {q}"
            )
        t = ii // q
        if not (0 <= t <= degree) or jj != p * (degree - t):
            raise InternalInconsistencyError(
                f"stripped support point ({ii}, {jj}) does not sit on the "
                "ladder pattern"
            )
        coeffs[t] = c
    raw = UniPoly.from_coeffs(coeffs)
    if raw.degree != degree:
        raise InternalInconsistencyError("ladder lost its leading coefficient")
    ladder, c0 = raw.monic()
    if m0 is not None and ladder.coeff_of_power(0).is_zero and degree > 0:
        raise InternalInconsistencyError("p > 1 ladder has a zero root")
    rebuilt_terms = {}
    for t in range(degree + 1):
        c = ladder.coeff_from_top(t)
        if not c.is_zero:
            rebuilt_terms[(m + q * t, y0 + p * (degree - t))] = c * c0
    if BivarPoly(rebuilt_terms) != poly:
        raise InternalInconsistencyError(
            "re-expansion of the canonical factorization does not reproduce the input"
        )
    return CanonicalForm(c0, m, m0, ladder)


def _classify_from_form(weights: WeightSignature, form: CanonicalForm) -> str:
    if weights.p == weights.q:
        return HOMOGENEOUS
    if weights.p == 1:
        # one distinct root (possibly zero) means c*X^m*(Y - t*X^q)^n, which
        # the non-homogeneous theory excludes
        root = -form.ladder.coeff_from_top(1) / form.ladder_degree
        if _is_power_of_linear(form.ladder, root):
            return MONOMIAL_LIKE
    return NON_HOMOGENEOUS_QH


def _is_power_of_linear(ladder: UniPoly, root: GaussianRational) -> bool:
    """Whether the monic ladder == (w - root)^degree, in O(degree) products.

    The coefficient k levels below the top of (w - r)^d is C(d, k)*(-r)^k;
    the comparison stops at the first coefficient that differs.
    """
    degree = ladder.degree
    neg_root = -root
    power = GQ_ONE
    binom = 1
    for k in range(1, degree + 1):
        binom = binom * (degree - k + 1) // k
        power = power * neg_root
        if ladder.coeff_from_top(k) != power * binom:
            return False
    return True


def analyze_germ(poly: BivarPoly, weights: tuple[int, int] | None = None) -> GermAnalysis:
    """Full structural analysis: weights, class, canonical form, order."""
    _require_nonzero(poly)
    if weights is None:
        sig = infer_weights(poly)
    else:
        try:
            p, q = weights
        except (TypeError, ValueError):
            raise ValueError(f"weights must be two positive integers, got {weights!r}") from None
        sig = validate_weights(poly, p, q)
    form = _decompose(poly, sig)
    if len(poly.terms) == 1:
        germ_class = MONOMIAL_LIKE
    else:
        germ_class = _classify_from_form(sig, form)
    # order at the origin, asserted equal to the closed form from the ladder
    order = min(i + j for (i, j) in poly.terms)
    closed = form.m + (form.m0 or 0) + sig.p * form.ladder_degree
    if order != closed:
        raise FormulaMismatchError(
            f"order at origin: support minimum {order} != closed form {closed}"
        )
    return GermAnalysis(sig, germ_class, form, order)
