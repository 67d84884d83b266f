"""Shared generators and helpers for the test suite.

Random germs are assembled from canonical data (leading constant, axis
powers, ladder roots with multiplicities), so every test knows the exact
ground truth it started from. All randomness flows through a caller-supplied
random.Random; nothing here touches global RNG state.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from qhgerm import (
    STATUS_EQUIVALENT,
    BivarPoly,
    GaussianRational,
    X,
    Y,
    decide_equivalence,
    gq,
    witness_branch_count,
)

ACCEPTANCE_LINES = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"acceptance: {name}: {status}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def rand_fraction(rng, bound: int = 20, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if f != 0 or not nonzero:
            return f


def rand_gq(rng, bound: int = 20, nonzero: bool = False, imag_rate: float = 0.3):
    while True:
        re = rand_fraction(rng, bound)
        im = rand_fraction(rng, bound) if rng.random() < imag_rate else Fraction(0)
        z = gq(re, im)
        if not z.is_zero or not nonzero:
            return z


def coprime_denominators(count: int, bits: int) -> list[int]:
    """count pairwise coprime integers of at least bits bits: k*N + 1, k = 1..count.

    Every prime up to count divides N. A common factor of j*N + 1 and
    k*N + 1 is prime to N and divides k - j, so it is 1.
    """
    base = lcm(*range(1, count + 1))
    n = base ** -(-bits // base.bit_length())
    return [k * n + 1 for k in range(1, count + 1)]


def rand_coprime_weights(rng, q_max: int = 7) -> tuple:
    while True:
        q = rng.randint(2, q_max)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return p, q


@dataclass(frozen=True)
class GermParts:
    """Canonical assembly data of a random germ.

    m0 is the Y-power written as an explicit monomial factor; generators keep
    it 0 when p = 1 and express any Y-power there as a zero ladder root.
    """

    c0: GaussianRational
    m: int
    m0: int
    roots: tuple
    p: int
    q: int

    @property
    def poly(self) -> BivarPoly:
        return germ_from_parts(self)

    @property
    def ladder_degree(self) -> int:
        return sum(mult for _, mult in self.roots)


def germ_from_parts(parts: GermParts) -> BivarPoly:
    poly = BivarPoly.monomial(parts.m, parts.m0, parts.c0)
    yp = Y**parts.p
    for lam, mult in parts.roots:
        poly = poly * (yp - BivarPoly.monomial(parts.q, 0, lam)) ** mult
    return poly


def rand_germ(
    rng,
    q_max: int = 7,
    max_roots: int = 5,
    max_mult: int = 4,
    bound: int = 20,
) -> GermParts:
    """Random germ inside the decidable class, with its assembly data.

    With p = 1 a single ladder root would make the germ a sheared monomial,
    so the root count starts at 2 there.
    """
    p, q = rand_coprime_weights(rng, q_max)
    low = 2 if p == 1 else 1
    k = rng.randint(low, max(low, max_roots))
    roots = []
    seen = set()
    while len(roots) < k:
        if p == 1 and rng.random() < 0.2:
            lam = gq(0)
        else:
            lam = rand_gq(rng, bound, nonzero=True)
        if lam in seen:
            continue
        seen.add(lam)
        roots.append((lam, rng.randint(1, max_mult)))
    m = rng.randint(0, 2)
    m0 = rng.randint(0, 2) if p > 1 else 0
    c0 = rand_gq(rng, bound, nonzero=True)
    return GermParts(c0, m, m0, tuple(roots), p, q)


def apply_change(poly, q, alpha, beta, gamma=None) -> BivarPoly:
    """Image of poly under (X, Y) -> (alpha*X, beta*Y + gamma*X^q)."""
    x_image = X.scale(alpha)
    y_image = Y.scale(beta)
    if gamma is not None and not gamma.is_zero:
        y_image = y_image + BivarPoly.monomial(q, 0, gamma)
    return poly.substitute(x_image, y_image)


def rand_witness_scalars(rng, p: int, bound: int = 6) -> tuple:
    alpha = rand_gq(rng, bound, nonzero=True, imag_rate=0.2)
    beta = rand_gq(rng, bound, nonzero=True, imag_rate=0.2)
    gamma = None
    if p == 1:
        gamma = rand_gq(rng, bound) if rng.random() < 0.7 else gq(0)
    return alpha, beta, gamma


def synthesize_equivalent(rng, parts: GermParts, bound: int = 6):
    """A germ equivalent to parts.poly by construction, plus the scalars used."""
    alpha, beta, gamma = rand_witness_scalars(rng, parts.p, bound)
    image = apply_change(parts.poly, parts.q, alpha, beta, gamma)
    return image, (alpha, beta, gamma)


def tame_witness_scalars(rng, parts: GermParts, bound: int = 3) -> tuple:
    """Witness scalars whose induced root scale stays within [1e-3, 1e3].

    Numeric root clustering works on the image germ's actual root values;
    scalars that crush all roots toward 0 push root gaps below any fixed
    clustering tolerance, which is a property of the inputs, not a route
    disagreement. Tests comparing the two routes use this tame generator.
    """
    while True:
        alpha, beta, gamma = rand_witness_scalars(rng, parts.p, bound)
        scale = (abs(complex(alpha.re) + 1j * complex(alpha.im)) ** parts.q) / (
            abs(complex(beta.re) + 1j * complex(beta.im)) ** parts.p
        )
        if 1e-3 <= scale <= 1e3:
            return alpha, beta, gamma


def numeric_verdict(first, second, tol: float = 1e-9) -> str:
    return decide_equivalence(first, second, mode="numeric", tol=tol).status


def mutate_inequivalent(rng, parts: GermParts) -> BivarPoly:
    """A same-weight neighbor of the germ that the numeric oracle rejects.

    Root moves come first; a moved root can sometimes be absorbed by a scale,
    so each candidate is confirmed numerically before being accepted. Two
    families absorb every single-root move outright and are skipped: a lone
    root (the scale maps it anywhere) and a p = 1 pair of roots (an affine
    map hits any two targets). The fallback deepens one multiplicity, which
    shifts the weighted degree and can never be absorbed.
    """
    base_poly = parts.poly
    k = len(parts.roots)
    movable = not (k == 1 or (parts.p == 1 and k == 2))
    if movable:
        taken = {lam for lam, _ in parts.roots}
        order = list(range(k))
        rng.shuffle(order)
        for idx in order:
            lam, mult = parts.roots[idx]
            for step in (gq(1), gq(2), gq(-1)):
                moved = lam + step
                if moved in taken or (parts.p > 1 and moved.is_zero):
                    continue
                roots = list(parts.roots)
                roots[idx] = (moved, mult)
                cand = replace(parts, roots=tuple(roots)).poly
                if numeric_verdict(base_poly, cand) == "Inequivalent":
                    return cand
    idx = rng.randrange(k)
    lam, mult = parts.roots[idx]
    roots = list(parts.roots)
    roots[idx] = (lam, mult + 1)
    cand = replace(parts, roots=tuple(roots)).poly
    assert numeric_verdict(base_poly, cand) == "Inequivalent"
    return cand


def rand_power_symmetric_germ(rng, q_max: int = 5, bound: int = 9):
    """Germ whose ladder is a polynomial in w^s for a random s in 2..4.

    Every nonzero ladder coefficient then sits at an offset divisible by s,
    so any scale class matching it against an image germ has order
    divisible by s, in particular at least 2.
    """
    p, q = rand_coprime_weights(rng, q_max)
    s = rng.randint(2, 4)
    k = rng.randint(1, 2)
    inner = set()
    while len(inner) < k:
        inner.add(rand_gq(rng, bound, nonzero=True, imag_rate=0.2))
    m = rng.randint(0, 2)
    m0 = rng.randint(0, 2) if p > 1 else 0
    poly = BivarPoly.monomial(m, m0, rand_gq(rng, bound, nonzero=True))
    yps = Y ** (p * s)
    for u in inner:
        poly = poly * (yps - BivarPoly.monomial(q * s, 0, u)) ** rng.randint(1, 2)
    return poly, p, q, s


def branch_completeness_pairs(count: int = 100):
    """(first, second, verdict) for the first count images of power-symmetric
    germs, seeded, whose verdict is not Equivalent or whose scale class has
    d >= 2 branches: the pairs of test_branch_completeness."""
    rng = random.Random(5)
    collected = 0
    while collected < count:
        first, p, q, s = rand_power_symmetric_germ(rng)
        alpha, beta, gamma = rand_witness_scalars(rng, p)
        second = apply_change(first, q, alpha, beta, gamma)
        verdict = decide_equivalence(first, second)
        if verdict.status == STATUS_EQUIVALENT and witness_branch_count(verdict) < 2:
            continue
        yield first, second, verdict
        collected += 1
