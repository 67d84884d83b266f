"""Seeded benchmark corpora, built with arithmetic of their own.

Every germ is assembled from canonical data: the weights (p, q), the outer
constant c0, the axis powers m and m0, and the ladder roots with their
multiplicities. For p > 1 the germ is

    c0 * X^m * Y^m0 * prod (Y^p - r*X^q)^k

and for p = 1 it is c0 * X^m * prod (Y - r*X^q)^k, where a root r = 0 stands
for a Y factor (m0 stays 0). The second germ of an Equivalent pair is the
image F(alpha*X, beta*Y + gamma*X^q) of the first, worked out on the same
canonical data, so the construction data are the ground truth of every pair.

Nothing here imports qhgerm: Gaussian rationals are (re, im) pairs of
Fractions, germs are expanded into term dictionaries here, and the texts
the program parses are printed here. A change to the program or to its
tests therefore cannot change the inputs.

Each workload is a fixed schedule of pair shapes (weights, multiplicity
pattern, pair kind) that repeats once per round; the seed draws the roots,
constants and coordinate changes of every pair. So two seeds give corpora of
the same make-up and nearly the same cost, and every round holds the same
mix of operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions
# ---------------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ginv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return (a[0] / n, -a[1] / n)


def gdiv(a, b):
    return gmul(a, ginv(b))


def gpow(a, n):
    if n < 0:
        return gpow(ginv(a), -n)
    out = ONE
    for _ in range(n):
        out = gmul(out, a)
    return out


def gzero(a):
    return not a[0] and not a[1]


def gjson(a):
    return [str(a[0]), str(a[1])]


def gload(pair):
    return (Fraction(pair[0]), Fraction(pair[1]))


# ---------------------------------------------------------------------------
# germs from canonical data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Germ:
    """Canonical data of one germ; roots is a tuple of (root, multiplicity)."""

    p: int
    q: int
    c0: tuple
    m: int
    m0: int
    roots: tuple

    @property
    def degree(self):
        return sum(k for _, k in self.roots)

    @property
    def nu(self):
        return self.p * self.m + self.q * self.m0 + self.p * self.q * self.degree

    def to_json(self):
        return {
            "p": self.p, "q": self.q, "c0": gjson(self.c0), "m": self.m,
            "m0": self.m0, "roots": [[gjson(r), k] for r, k in self.roots],
        }

    @staticmethod
    def from_json(doc):
        return Germ(doc["p"], doc["q"], gload(doc["c0"]), doc["m"], doc["m0"],
                    tuple((gload(r), k) for r, k in doc["roots"]))


def ladder_coeffs(roots):
    """Monic coefficients, degree-descending, of prod (w - r)^k."""
    coeffs = [ONE]
    for r, k in roots:
        for _ in range(k):
            new = coeffs + [ZERO]
            for i in range(1, len(new)):
                new[i] = gsub(new[i], gmul(r, coeffs[i - 1]))
            coeffs = new
    return coeffs


@lru_cache(maxsize=None)
def germ_terms(germ):
    """Expanded terms {(i, j): coefficient} of a germ; callers must not mutate it.

    Cached because the checks expand again the germs the corpus printed.
    """
    coeffs = ladder_coeffs(germ.roots)
    degree = len(coeffs) - 1
    terms = {}
    for t, c in enumerate(coeffs):
        if not gzero(c):
            key = (germ.m + germ.q * t, germ.m0 + germ.p * (degree - t))
            terms[key] = gmul(germ.c0, c)
    return terms


def image(germ, alpha, beta, gamma):
    """Canonical data of F(alpha*X, beta*Y + gamma*X^q).

    A ladder factor Y^p - r*X^q becomes beta^p*(Y^p - r*alpha^q/beta^p*X^q)
    for p > 1 (gamma is zero there), and Y - r*X^q becomes
    beta*(Y - (r*alpha^q - gamma)/beta*X^q) for p = 1.
    """
    p, q = germ.p, germ.q
    aq = gpow(alpha, q)
    if p == 1:
        roots = tuple((gdiv(gsub(gmul(r, aq), gamma), beta), k) for r, k in germ.roots)
        c0 = gmul(gmul(germ.c0, gpow(alpha, germ.m)), gpow(beta, germ.degree))
    else:
        if not gzero(gamma):
            raise ValueError("a shear needs p = 1")
        s = gdiv(aq, gpow(beta, p))
        roots = tuple((gmul(s, r), k) for r, k in germ.roots)
        c0 = gmul(gmul(germ.c0, gpow(alpha, germ.m)),
                  gpow(beta, germ.m0 + p * germ.degree))
    return Germ(p, q, c0, germ.m, germ.m0, roots)


def scaled(germ, k):
    return Germ(germ.p, germ.q, gmul(germ.c0, k), germ.m, germ.m0, germ.roots)


# ---------------------------------------------------------------------------
# printing the texts the program parses
# ---------------------------------------------------------------------------


def decimal_str(f):
    """Exact decimal literal of a Fraction whose denominator is 2^a * 5^b."""
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{f} has no finite decimal expansion")
    places = max(twos, fives, 1)
    scaled_num = abs(f.numerator) * 10**places // f.denominator
    digits = str(scaled_num).rjust(places + 1, "0")
    return ("-" if f < 0 else "") + digits[:-places] + "." + digits[-places:]


def _rational_str(f, decimal):
    return decimal_str(f) if decimal else str(f)


def _monomial(i, j):
    parts = []
    if i:
        parts.append("X" if i == 1 else f"X^{i}")
    if j:
        parts.append("Y" if j == 1 else f"Y^{j}")
    return "*".join(parts)


def poly_text(terms, decimal=False):
    """Expanded text of a term dictionary; decimal=True writes decimal literals."""
    out = []
    for (i, j) in sorted(terms):
        re, im = terms[(i, j)]
        if im:
            neg = False
            im_sign = "-" if im < 0 else "+"
            body = (f"({_rational_str(re, decimal)} {im_sign} "
                    f"{_rational_str(abs(im), decimal)}*i)")
        else:
            neg = re < 0
            body = _rational_str(abs(re), decimal)
        mono = _monomial(i, j)
        text = f"{body}*{mono}" if mono else body
        if not out:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    return " ".join(out)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

# Radical multipliers: each carries a prime congruent to 3 mod 4 to the first
# power, which stays prime in Z[i]. Its valuation in k is then 1, so k is no
# nu-th power of a Gaussian rational times a unit for any nu >= 2, and no
# witness of k*F(alpha*X, beta*Y + gamma*X^q) from F is rational. (2 and 5
# would not do: 2 = -i*(1+i)^2 is a unit times a square.)
RADICAL_MULTIPLIERS = (g(3), g(7), g(Fraction(3, 2)), g(Fraction(2, 3)), g(6),
                       g(Fraction(7, 2)), g(Fraction(5, 3)), g(11), g(Fraction(3, 7)))

_ALPHAS = (g(1), g(-1), g(2), g(-2), g(Fraction(1, 2)), g(0, 1), g(0, -2), g(1, 1))
_BETAS = (g(1), g(-1), g(2), g(3), g(Fraction(1, 2)), g(Fraction(-3, 2)), g(0, 1), g(1, -1))
_GAMMAS = (g(0), g(1), g(-1), g(2), g(Fraction(1, 2)), g(Fraction(-1, 3)))
_C0S = (g(1), g(-1), g(2), g(Fraction(1, 2)), g(-3), g(Fraction(3, 4)), g(1, 1), g(0, 2))


def _distinct_roots(mults, draw):
    """Distinct roots from draw(), one per multiplicity."""
    roots, seen = [], set()
    for k in mults:
        r = draw()
        while r in seen:
            r = draw()
        seen.add(r)
        roots.append((r, k))
    return tuple(roots)


def _draw_root(rng, allow_zero):
    """a/b + (c/d)*i with |a| <= 6, b in {1, 2, 3}; imaginary one time in four."""
    while True:
        re = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))
        im = Fraction(0)
        if rng.random() < 0.25:
            im = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        if allow_zero or re or im:
            return (re, im)


def draw_roots(rng, mults, allow_zero):
    return _distinct_roots(mults, lambda: _draw_root(rng, allow_zero))


def draw_germ(rng, p, q, mults):
    m = rng.randint(0, 2)
    m0 = 0 if p == 1 else rng.randint(0, 2)
    return Germ(p, q, rng.choice(_C0S), m, m0, draw_roots(rng, mults, p == 1))


# ---------------------------------------------------------------------------
# independent invariants
# ---------------------------------------------------------------------------


def _multiset(roots):
    out = {}
    for r, k in roots:
        out[r] = out.get(r, 0) + k
    return out


def related_by_scale(first_roots, second_roots):
    """True when some nonzero s carries the root multiset of first onto second."""
    a, b = _multiset(first_roots), _multiset(second_roots)
    if sorted(a.values()) != sorted(b.values()):
        return False
    nonzero = [(r, k) for r, k in a.items() if not gzero(r)]
    if not nonzero:
        return a == b
    pivot, k = nonzero[0]
    scales = (gdiv(t, pivot) for t, kt in b.items() if kt == k and not gzero(t))
    return any({gmul(s, r): kr for r, kr in a.items()} == b for s in scales)


def _centered(roots):
    total = sum(k for _, k in roots)
    centroid = ZERO
    for r, k in roots:
        centroid = gadd(centroid, gmul(r, g(k)))
    centroid = gdiv(centroid, g(total))
    return tuple((gsub(r, centroid), k) for r, k in roots)


def ladders_related(first, second):
    """The decision invariant on ladder roots, computed from the roots themselves.

    p > 1: a scale s with s*R1 = R2. p = 1: an affine map, i.e. a scale
    between the root multisets centred on their weighted centroids (the
    ratios of root differences agree).
    """
    if first.p == 1:
        return related_by_scale(_centered(first.roots), _centered(second.roots))
    return related_by_scale(first.roots, second.roots)


def separating_invariant(first, second):
    """Name of an invariant in which two germs differ, or None if none does."""
    if (first.p, first.q) != (second.p, second.q):
        return "weights"
    if first.nu != second.nu:
        return "nu"
    if first.m != second.m:
        return "m"
    if first.m0 != second.m0:
        return "m0"
    if sorted(k for _, k in first.roots) != sorted(k for _, k in second.roots):
        return "multiplicities"
    if not ladders_related(first, second):
        return "root ratios"
    return None


def is_decidable(germ):
    """Non-homogeneous quasihomogeneous in the sense of the decision procedure."""
    if germ.p == germ.q:
        return False
    if germ.p == 1:
        return len(germ.roots) >= 2
    return germ.degree >= 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (p, q, multiplicities of the first germ, multiplicities of the second germ
# when the pair is Inequivalent at the ladder matcher, else None)
EXACT_SHAPES = (
    (1, 2, (1, 1, 1), None),
    (1, 3, (2, 1, 1, 1), None),
    (1, 5, (1, 1, 1, 1, 1, 1), None),
    (1, 7, (3, 2, 1, 1), None),
    (1, 2, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), None),
    (2, 3, (1, 1), None),
    (2, 5, (2, 1, 1, 1), None),
    (3, 4, (1, 1, 1, 1, 1), None),
    (3, 7, (2, 2, 1, 1, 1, 1, 1, 1), None),
    (2, 7, (1, 1, 1), None),
    (1, 4, (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
    (2, 3, (3, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1)),
    (4, 5, (2, 1, 1), (1, 1, 1, 1)),
)

# Degree runs from 4 to 16; multiplicities keep every side at 10 distinct
# roots or fewer, because Aberth time per op grows steeply with the number of
# distinct roots and one heavy shape would make the round cost seed-dependent.
NUMERIC_SHAPES = (
    (1, 2, (1, 1, 1, 1), "equivalent"),
    (2, 3, (1, 1, 1, 1, 1, 1), "equivalent"),
    (1, 3, (2, 1, 1, 1, 1, 1, 1), "moved"),
    (3, 5, (1, 1, 1, 1, 1, 1, 1, 1), "equivalent"),
    (1, 2, (2, 2, 1, 1, 1, 1, 1, 1), "equivalent"),
    (2, 5, (1,) * 10, "multiplicity"),
    (1, 4, (2, 2, 2, 1, 1, 1, 1, 1, 1), "equivalent"),
    (2, 3, (3, 3, 2, 2, 1, 1, 1, 1, 1, 1), "equivalent"),
    (1, 5, (1,) * 9, "moved"),
)

_DECIMAL_SCALES = (g(2), g(-2), g(Fraction(1, 2)), g(Fraction(-3, 2)), g(Fraction(5, 4)),
                   g(0, 2), g(1, 1), g(Fraction(-1, 2), 1))
_DECIMAL_SHIFTS = (g(0), g(1), g(-2), g(Fraction(1, 2)), g(Fraction(-3, 4)), g(0, 1))
_DECIMAL_C0S = (g(1), g(-2), g(Fraction(1, 2)), g(Fraction(5, 4)), g(3), g(Fraction(-1, 4)))


def _pair(pair_id, kind, truth, first, second, decimal=False, witness=None, radical=False):
    return {
        "id": pair_id,
        "kind": kind,
        "truth": truth,
        "radical": radical,
        "first": first.to_json(),
        "second": second.to_json(),
        "first_text": poly_text(germ_terms(first), decimal),
        "second_text": poly_text(germ_terms(second), decimal),
        "witness": witness,
    }


def _draw_change(rng, p):
    alpha = rng.choice(_ALPHAS)
    beta = rng.choice(_BETAS)
    gamma = rng.choice(_GAMMAS) if p == 1 else ZERO
    return alpha, beta, gamma


def witness_pairs(seed, rounds, radical):
    """Pairs for exact_witness (radical=False) or radical_witness (True)."""
    pairs = []
    for rnd in range(rounds):
        rng = random.Random(f"{'radical' if radical else 'exact'}-{seed}-{rnd}")
        for idx, (p, q, mults, other) in enumerate(EXACT_SHAPES):
            pid = f"r{rnd}-s{idx}"
            first = draw_germ(rng, p, q, mults)
            if other is None:
                alpha, beta, gamma = _draw_change(rng, p)
                second = image(first, alpha, beta, gamma)
                if radical:
                    second = scaled(second, rng.choice(RADICAL_MULTIPLIERS))
                witness = {"alpha": gjson(alpha), "beta": gjson(beta), "gamma": gjson(gamma)}
                pairs.append(_pair(pid, "image", "Equivalent", first, second,
                                   witness=witness, radical=radical))
            else:
                second = draw_germ(rng, p, q, other)
                second = Germ(p, q, second.c0, first.m, first.m0, second.roots)
                pairs.append(_pair(pid, "multiplicity", "Inequivalent", first, second))
    return pairs


def _decimal_root(rng, allow_zero):
    """A root on the grid (a + b*i)/2 with |a|, |b| <= 8; grid gap 1/2."""
    while True:
        re = Fraction(rng.randint(-8, 8), 2)
        im = Fraction(rng.randint(-8, 8), 2) if rng.random() < 0.5 else Fraction(0)
        if allow_zero or re or im:
            return (re, im)


def _decimal_roots(rng, mults, allow_zero):
    return _distinct_roots(mults, lambda: _decimal_root(rng, allow_zero))


def numeric_pairs(seed, rounds):
    """Decimal-literal pairs for numeric_ladder, all decided on the numeric route."""
    pairs = []
    for rnd in range(rounds):
        rng = random.Random(f"numeric-{seed}-{rnd}")
        for idx, (p, q, mults, kind) in enumerate(NUMERIC_SHAPES):
            pid = f"r{rnd}-s{idx}"
            m = rng.randint(0, 2)
            m0 = 0 if p == 1 else rng.randint(0, 2)
            first = Germ(p, q, rng.choice(_DECIMAL_C0S), m, m0,
                         _decimal_roots(rng, mults, p == 1))
            c0 = rng.choice(_DECIMAL_C0S)
            if kind == "equivalent":
                s = rng.choice(_DECIMAL_SCALES)
                b = rng.choice(_DECIMAL_SHIFTS) if p == 1 else ZERO
                roots = tuple((gadd(gmul(s, r), b), k) for r, k in first.roots)
                truth = "Equivalent"
            else:
                truth = "Inequivalent"
                while True:
                    if kind == "moved":
                        moved = list(first.roots)
                        taken = {r for r, _ in moved}
                        while True:
                            r = _decimal_root(rng, p == 1)
                            if r not in taken:
                                break
                        slot = rng.randrange(len(moved))
                        moved[slot] = (r, moved[slot][1])
                        roots = tuple(moved)
                    else:
                        changed = list(mults)
                        changed[0] += 1
                        changed[-1] -= 1
                        roots = _decimal_roots(rng, [k for k in changed if k], p == 1)
                    candidate = Germ(p, q, c0, m, m0, roots)
                    if separating_invariant(first, candidate) is not None:
                        break
            second = Germ(p, q, c0, m, m0, roots)
            pairs.append(_pair(pid, kind, truth, first, second, decimal=True))
    return pairs


def _cli_records(rng, file_idx):
    """One decide-batch file: every outcome the batch loop reports."""
    records = []

    def add(kind, truth, first, second):
        records.append({
            "id": f"f{file_idx}-{len(records)}",
            "kind": kind,
            "truth": truth,
            "first": first.to_json(),
            "second": second.to_json(),
            "first_text": poly_text(germ_terms(first)),
            "second_text": poly_text(germ_terms(second)),
        })

    for p, q, mults in ((1, 3, (1, 1, 1)), (2, 3, (2, 1, 1)), (2, 5, (1, 1, 1, 1))):
        first = draw_germ(rng, p, q, mults)
        add("image", "Equivalent", first, image(first, *_draw_change(rng, p)))
    for p, q, mults, other in ((1, 2, (2, 1, 1), (1, 1, 1, 1)), (3, 4, (2, 1), (1, 1, 1))):
        first = draw_germ(rng, p, q, mults)
        second = draw_germ(rng, p, q, other)
        add("multiplicity", "Inequivalent", first,
            Germ(p, q, second.c0, first.m, first.m0, second.roots))
    first = draw_germ(rng, 2, 3, (1, 1))
    add("weights", "NotApplicable", first, draw_germ(rng, 2, 5, (1, 1)))
    first = draw_germ(rng, 2, 3, (1, 1))
    second = draw_germ(rng, 2, 3, (1, 1, 1))
    add("nu", "Inequivalent", first, Germ(2, 3, second.c0, first.m, first.m0, second.roots))
    # p = q = 1: a product of lines, which is homogeneous
    first = Germ(1, 1, rng.choice(_C0S), 0, 0, draw_roots(rng, (1, 1, 1), True))
    add("homogeneous", "NotApplicable", first, first)
    return records


def cli_files(seed, files):
    """decide-batch files for cli_batch, eight records each."""
    out = []
    for idx in range(files):
        rng = random.Random(f"cli-{seed}-{idx}")
        out.append(_cli_records(rng, idx))
    return out
