"""Acceptance gate: one test per shipped guarantee, each printing a summary line.

Every test computes its own pass flag, records a human-readable line for the
terminal summary, and then asserts. Generators come from conftest so the
ground truth of every random case is known by construction.
"""

import importlib
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest

from conftest import (
    GermParts,
    apply_change,
    branch_completeness_pairs,
    germ_from_parts,
    mutate_inequivalent,
    rand_germ,
    rand_gq,
    rand_witness_scalars,
    record_acceptance,
    synthesize_equivalent,
    tame_witness_scalars,
)
from qhgerm import BivarPoly, cli, decide_equivalence, engine, gq, parse_poly
from qhgerm.engine import (
    STATUS_EQUIVALENT,
    STATUS_INEQUIVALENT,
    STATUS_NOT_APPLICABLE,
    build_witness,
    cross_ratio,
    j_from_cross_ratio,
    linear_multiset_match,
    verify_witness,
    whitney_compare,
    witness_branch_count,
)
from qhgerm.exact import GQ_ONE, UniPoly, format_terms
from qhgerm.numeric import _newton_polygon_starts
from qhgerm.structure import analyze_germ, infer_weights

CORPUS_SEED = 20260822
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [
        rand_germ(rng, q_max=7, max_roots=5, max_mult=4, bound=20)
        for _ in range(500)
    ]


def test_round_trip_completeness(corpus):
    rng = random.Random(1)
    failures = []
    t0 = time.perf_counter()
    for n, parts in enumerate(corpus):
        first = germ_from_parts(parts)
        second, _ = synthesize_equivalent(rng, parts)
        verdict = decide_equivalence(first, second)
        if verdict.status != STATUS_EQUIVALENT:
            failures.append(f"case {n}: {verdict.status}")
            continue
        witness = build_witness(first, second, verdict)
        report = verify_witness(first, second, witness)
        if not (report.passed and report.exact):
            failures.append(f"case {n}: verify exact={report.exact}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    record_acceptance(
        "round-trip completeness",
        ok,
        f"500 synthesized pairs decided and exactly verified in {elapsed:.1f}s",
    )
    assert ok, (failures[:5], f"{elapsed:.1f}s")


def test_mutation_soundness(corpus):
    rng = random.Random(2)
    false_equivalents = 0
    for parts in corpus:
        mutated = mutate_inequivalent(rng, parts)
        verdict = decide_equivalence(parts.poly, mutated)
        if verdict.status != STATUS_INEQUIVALENT:
            false_equivalents += 1
    ok = false_equivalents == 0
    record_acceptance(
        "soundness on mutated neighbors",
        ok,
        f"500 oracle-confirmed mutations, {false_equivalents} false Equivalents",
    )
    assert ok, f"{false_equivalents} false Equivalents"


def _moved_root_poly(rng, parts):
    """One ladder root nudged without collision; None when every nudge collides."""
    idx = rng.randrange(len(parts.roots))
    lam, mult = parts.roots[idx]
    taken = {r for r, _ in parts.roots}
    for step in (gq(1), gq(-1), gq(2)):
        moved = lam + step
        if moved in taken or (parts.p > 1 and moved.is_zero):
            continue
        roots = list(parts.roots)
        roots[idx] = (moved, mult)
        return germ_from_parts(replace(parts, roots=tuple(roots)))
    return None


def test_route_agreement():
    rng = random.Random(3)
    disagreements = []
    checked = 0
    while checked < 200:
        parts = rand_germ(rng, q_max=7, max_roots=3, max_mult=4, bound=20)
        first = germ_from_parts(parts)
        kind = checked % 3
        if kind == 0:
            alpha, beta, gamma = tame_witness_scalars(rng, parts)
            second = apply_change(first, parts.q, alpha, beta, gamma)
        elif kind == 1:
            second = _moved_root_poly(rng, parts)
            if second is None:
                continue
        else:
            other = rand_germ(rng, q_max=7, max_roots=3, max_mult=4, bound=20)
            second = germ_from_parts(replace(other, p=parts.p, q=parts.q))
        exact = decide_equivalence(first, second, mode="exact").status
        numeric = decide_equivalence(
            first, second, mode="numeric", precision=128, tol=1e-9
        ).status
        if exact != numeric:
            disagreements.append(f"case {checked}: exact={exact} numeric={numeric}")
        checked += 1
    ok = not disagreements
    record_acceptance(
        "exact vs numeric route agreement",
        ok,
        f"200 pairs, ladder degree <= 12, identical verdicts",
    )
    assert ok, disagreements[:5]


def test_route_agreement_degree_24():
    # decimal literals put the pair on the numeric route; the exact route
    # on the same rationals decides it instantly
    first = parse_poly("*".join(f"(Y^2-{2 * k}.0*X^3)" for k in range(1, 25)))
    second = parse_poly("*".join(f"(Y^2-{2 * k}*X^3)" for k in range(1, 25)))
    verdict = decide_equivalence(first, second)
    ok = (verdict.mode, verdict.status) == ("numeric", STATUS_EQUIVALENT)
    record_acceptance(
        "numeric route on a degree-24 ladder",
        ok,
        f"prod (Y^2-2k.0*X^3) vs integer form: {verdict.status} ({verdict.mode})",
    )
    assert ok


def _ladder_pair(degree, literal):
    """prod (Y^2 - 2k<literal>*X^3) and prod (Y^2 - 14k*X^3), k = 1..degree."""
    return (parse_poly("*".join(f"(Y^2-{2 * k}{literal}*X^3)" for k in range(1, degree + 1))),
            parse_poly("*".join(f"(Y^2-{14 * k}*X^3)" for k in range(1, degree + 1))))


@pytest.mark.parametrize("degree, precisions", [
    (32, [128, 128]),
    (48, [128, 128]),
    (64, [128, 256, 128, 256]),
    (100, [128, 256, 128, 256]),
])
def test_route_agreement_degree_sweep(monkeypatch, degree, precisions):
    # error discs scale with the roots, so each side's roots cluster at 128
    # bits up to d = 48 and at 256 bits beyond; the decimal pair goes the
    # numeric route and its integer copy the exact route. Each side's part
    # is found at 128 bits, and a raise polishes those roots (refine_roots)
    exact = decide_equivalence(*_ladder_pair(degree, ""))
    find, refine, seen, refined = engine.find_roots, engine.refine_roots, [], []

    def find_spy(poly, precision):
        seen.append(precision)
        return find(poly, precision)

    def refine_spy(poly, roots, precision):
        seen.append(precision)
        refined.append(len(seen) - 1)
        return refine(poly, roots, precision)

    monkeypatch.setattr(engine, "find_roots", find_spy)
    monkeypatch.setattr(engine, "refine_roots", refine_spy)
    numeric = decide_equivalence(*_ladder_pair(degree, ".0"))
    ok = ((exact.mode, numeric.mode) == ("exact", "numeric")
          and numeric.status == exact.status == STATUS_EQUIVALENT and seen == precisions
          and refined == [k for k, prec in enumerate(seen) if prec > 128])
    record_acceptance(
        f"numeric route on a degree-{degree} ladder",
        ok,
        f"prod (Y^2-2k.0*X^3) vs prod (Y^2-14k*X^3): {numeric.status} ({numeric.mode}), "
        f"exact route {exact.status}; root-finder precisions {seen}, "
        f"refined at positions {refined}",
    )
    assert ok, (numeric, exact, seen)


def test_newton_polygon_is_read_once_per_part(monkeypatch):
    # at d = 64 each side's one square-free part clusters only at 256 bits;
    # that raise polishes the 128-bit roots, so the Newton polygon that
    # find_roots starts from is read once per part
    degrees = []

    def spy(coeffs):
        degrees.append(len(coeffs) - 1)
        return _newton_polygon_starts(coeffs)

    monkeypatch.setattr("qhgerm.numeric._newton_polygon_starts", spy)
    verdict = decide_equivalence(*_ladder_pair(64, ".0"))
    assert (verdict.mode, verdict.status) == ("numeric", STATUS_EQUIVALENT)
    assert degrees == [64, 64]


def test_roots_of_a_degree_100_ladder(capsys):
    # prod (Y^2 - r*X^3) over 100 nonzero Gaussian integers r drawn from
    # [-9, 9]^2, so that roots repeat; r = 0 would be a Y-axis factor
    rng = random.Random(20261019)
    roots = Counter()
    while sum(roots.values()) < 100:
        r = gq(rng.randint(-9, 9), rng.randint(-9, 9))
        if not r.is_zero:
            roots[r] += 1
    text = "*".join(
        f"({format_terms([(GQ_ONE, 'Y^2'), (-r, 'X^3')])})^{m}" for r, m in roots.items()
    )
    t0 = time.perf_counter()
    code = cli.run(["roots", text])
    elapsed = time.perf_counter() - t0
    # "root <value> multiplicity <k> (exact)" after the class line
    printed = sorted(tuple(line.split()) for line in capsys.readouterr().out.splitlines()[1:])
    want = sorted(("root", str(r), "multiplicity", str(m), "(exact)") for r, m in roots.items())
    ok = code == 0 and printed == want and elapsed < 2.0
    record_acceptance(
        "roots of a degree-100 ladder",
        ok,
        f"{len(roots)} distinct roots, multiplicities up to {max(roots.values())}, "
        f"printed exactly in {elapsed:.2f}s",
    )
    assert ok, (code, f"{elapsed:.2f}s")


def test_no_common_scale_family():
    bad = []
    for g0 in (gq(1), gq(2), gq(Fraction(1, 2)), gq(Fraction(3, 5)), gq(7)):
        pf = UniPoly.from_coeffs([1, 0, 1, 0, g0])
        pg = UniPoly.from_coeffs([1, 0, 1, 0, -g0])
        # each ratio alone is realizable: offset 2 gives 1, offset 4 gives -1
        assert pg.coeff_from_top(2) / pf.coeff_from_top(2) == gq(1)
        assert pg.coeff_from_top(4) / pf.coeff_from_top(4) == gq(-1)
        if linear_multiset_match(pf, pg) is not None:
            bad.append(f"matcher accepted gamma0={g0}")
        lift_f = (
            BivarPoly.monomial(0, 4, gq(1))
            + BivarPoly.monomial(4, 2, gq(1))
            + BivarPoly.monomial(8, 0, g0)
        )
        lift_g = (
            BivarPoly.monomial(0, 4, gq(1))
            + BivarPoly.monomial(4, 2, gq(1))
            + BivarPoly.monomial(8, 0, -g0)
        )
        verdict = decide_equivalence(lift_f, lift_g)
        if verdict.status != STATUS_INEQUIVALENT:
            bad.append(f"germ pair accepted gamma0={g0}")
    ok = not bad
    record_acceptance(
        "pairwise-consistent scale family rejected",
        ok,
        "w^4 + w^2 +/- gamma0 over five parameters, matcher and germ level",
    )
    assert ok, bad


def test_branch_completeness():
    orders = set()
    failures = []
    for collected, (first, second, verdict) in enumerate(branch_completeness_pairs()):
        if verdict.status != STATUS_EQUIVALENT:
            failures.append(f"pair {collected}: {verdict.status}")
            continue
        d = witness_branch_count(verdict)
        orders.add(d)
        for branch in range(d):
            witness = build_witness(first, second, verdict, branch)
            report = verify_witness(first, second, witness, precision=128)
            if not (report.passed and report.exact):
                failures.append(f"pair {collected} branch {branch}: not certified")
    ok = not failures
    record_acceptance(
        "scale branch completeness",
        ok,
        f"100 pairs with d >= 2 (orders {sorted(orders)}), every branch "
        "certified exactly",
    )
    assert ok, failures[:5]


@pytest.mark.skipif(not (BENCH / "corpus.py").is_file(), reason="bench/corpus.py is absent")
def test_small_coefficients_keep_the_radical_witness(monkeypatch, capsys):
    # pair r0-s0 of the seed-3 radical corpus with both germs times 2^-300:
    # scaling both sides changes no witness, so the sweep must find the
    # unscaled pair's alpha, and its certificate must pass
    monkeypatch.syspath_prepend(str(BENCH))
    pairs = importlib.import_module("corpus").witness_pairs(3, 4, radical=True)
    pair = next(p for p in pairs if p["id"] == "r0-s0")
    texts = [f"(1/{2**300})*({pair[side]})" for side in ("first_text", "second_text")]
    code = cli.run(["decide", "--witness", *texts])
    out = capsys.readouterr().out
    ok = code == 0 and "alpha = (-7/2i)^(1/7) branch 4 ~" in out
    ok = ok and "verification: exact pass\n" in out
    record_acceptance(
        "radical witness of germs with small coefficients",
        ok,
        "pair r0-s0 of the seed-3 radical corpus scaled by 2^-300 gets the unscaled "
        "pair's alpha, certified exactly",
    )
    assert ok, out


def test_four_line_moduli():
    result = whitney_compare(gq(Fraction(3, 10)), gq(Fraction(2, 5)))
    problems = []
    if result["verdict"].status != STATUS_NOT_APPLICABLE:
        problems.append(f"verdict {result['verdict'].status}")
    j1 = result["first"]["j"]
    j2 = result["second"]["j"]
    diff = j1 - j2
    if not (diff.im == 0 and abs(diff.re) > Fraction(1, 10**6)):
        problems.append(f"j gap {diff}")
    if result["jEqual"]:
        problems.append("moduli reported equal")
    for side in ("first", "second"):
        reference = result[side]["j"]
        config = result[side]["config"]
        for perm in permutations(config):
            if j_from_cross_ratio(cross_ratio(*perm)) != reference:
                problems.append(f"{side}: ordering {perm} changed the invariant")
                break
    ok = not problems
    record_acceptance(
        "four-line configuration moduli",
        ok,
        "NotApplicable verdict, j gap > 1e-6, invariant stable over all "
        "24 orderings",
    )
    assert ok, problems


def _exhaustive_weights(support):
    valid = []
    for qv in range(1, 51):
        for pv in range(1, qv + 1):
            if gcd(pv, qv) != 1:
                continue
            (i0, j0) = support[0]
            nu = pv * i0 + qv * j0
            if all(pv * i + qv * j == nu for i, j in support[1:]):
                valid.append((pv, qv))
    return valid


def _rand_weighted_poly(rng, kind: int) -> BivarPoly:
    if kind == 0:
        return germ_from_parts(rand_germ(rng, q_max=6, max_roots=2, max_mult=2,
                                         bound=9))
    if kind == 1:
        # sparse two-term germ, weights anywhere up to the search cap
        while True:
            a, b = rng.randint(1, 50), rng.randint(1, 50)
            p, q = min(a, b), max(a, b)
            if gcd(p, q) == 1:
                break
        s = rng.randint(1, 2)
        return BivarPoly.monomial(q * s, 0, rand_gq(rng, 9, nonzero=True)) + \
            BivarPoly.monomial(0, p * s, rand_gq(rng, 9, nonzero=True))
    if kind == 2:
        n = rng.randint(1, 6)
        terms = {}
        for i in range(n + 1):
            if rng.random() < 0.6:
                terms[(i, n - i)] = rand_gq(rng, 9)
        terms[(0, n)] = rand_gq(rng, 9, nonzero=True)
        return BivarPoly.from_terms(terms)
    i = rng.randint(0, 5)
    j = rng.randint(0, 5 - i if i < 5 else 0)
    if i + j == 0:
        i = 1
    return BivarPoly.monomial(i, j, rand_gq(rng, 9, nonzero=True))


def test_structural_invariants():
    rng = random.Random(7)
    problems = []
    for n in range(1000):
        poly = _rand_weighted_poly(rng, n % 4)
        support = poly.support
        weights = infer_weights(poly)
        valid = _exhaustive_weights(support)
        if (weights.p, weights.q) not in valid:
            problems.append(f"poly {n}: inferred {(weights.p, weights.q)} invalid")
            continue
        if len(valid) == 1:
            if (weights.p, weights.q) != valid[0]:
                problems.append(f"poly {n}: inferred != exhaustive {valid[0]}")
        elif (weights.p, weights.q) != (1, 1) or len(support) != 1:
            problems.append(f"poly {n}: ambiguous support not resolved to (1,1)")
        analysis = analyze_germ(poly)
        brute_ord = min(i + j for i, j in support)
        if analysis.ord_at_origin != brute_ord:
            problems.append(f"poly {n}: ord {analysis.ord_at_origin} != {brute_ord}")
        nu = weights.nu
        for _ in range(100):
            t = gq(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)))
            x = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            y = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            left = poly.evaluate(t**weights.p * x, t**weights.q * y)
            right = t**nu * poly.evaluate(x, y)
            if left != right:
                problems.append(f"poly {n}: scaling identity fails at {(t, x, y)}")
                break
        if problems and problems[-1].startswith(f"poly {n}:"):
            if len(problems) > 5:
                break
    ok = not problems
    record_acceptance(
        "structural invariants",
        ok,
        "1000 polynomials: order at origin, inferred weights vs exhaustive "
        "search to 50, scaling identity at 100 rational points each",
    )
    assert ok, problems[:5]


def test_equivalence_relation(corpus):
    rng = random.Random(8)
    problems = []

    # reflexivity over every corpus germ
    for n, parts in enumerate(corpus):
        poly = germ_from_parts(parts)
        if decide_equivalence(poly, poly).status != STATUS_EQUIVALENT:
            problems.append(f"reflexivity fails on corpus germ {n}")

    # symmetry on mixed-status random pairs
    for n in range(200):
        parts = rand_germ(rng, q_max=7, max_roots=3, max_mult=3, bound=12)
        first = germ_from_parts(parts)
        kind = n % 3
        if kind == 0:
            second, _ = synthesize_equivalent(rng, parts)
        elif kind == 1:
            second = mutate_inequivalent(rng, parts)
        else:
            second = germ_from_parts(rand_germ(rng, q_max=7, max_roots=3,
                                               max_mult=3, bound=12))
        forward = decide_equivalence(first, second).status
        backward = decide_equivalence(second, first).status
        if forward != backward:
            problems.append(f"symmetry fails on pair {n}: {forward}/{backward}")

    # transitivity along chained rational witnesses
    for n in range(100):
        parts = rand_germ(rng, q_max=7, max_roots=3, max_mult=3, bound=12)
        first = germ_from_parts(parts)
        middle, _ = synthesize_equivalent(rng, parts)
        a2, b2, g2 = rand_witness_scalars(rng, parts.p)
        last = apply_change(middle, parts.q, a2, b2, g2)
        statuses = (
            decide_equivalence(first, middle).status,
            decide_equivalence(middle, last).status,
            decide_equivalence(first, last).status,
        )
        if set(statuses) != {STATUS_EQUIVALENT}:
            problems.append(f"transitivity fails on triple {n}: {statuses}")

    ok = not problems
    record_acceptance(
        "equivalence relation sanity",
        ok,
        "reflexive on 500 fixtures, symmetric on 200 pairs, transitive on "
        "100 witness chains",
    )
    assert ok, problems[:5]
