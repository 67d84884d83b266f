"""Correctness checks that do not rely on the program.

Each check returns None when the output is right and a one-line reason when
it is not. Verdicts are compared with the ground truth of the construction,
labels are confirmed by an invariant computed here from the roots, rational
witnesses are checked by expanding F(alpha*X, beta*Y + gamma*X^q) with the
arithmetic of bench/corpus.py, and radical witnesses by evaluating both sides
at seeded points with mpmath at 256 bits, twice the program's 128.
"""

from __future__ import annotations

import json
import random
from math import comb

from mpmath import mp, mpc, mpf

from corpus import (
    Germ,
    gadd,
    gload,
    gmul,
    germ_terms,
    gzero,
    is_decidable,
    separating_invariant,
)

CHECK_PRECISION = 256
# Relative residual a radical witness must reach; an exact identity
# evaluated at 256 bits lands near 1e-70, a wrong scalar near 1.
RADICAL_TOLERANCE = mpf(10) ** -50


def check_label(pair):
    """The pair's label agrees with invariants computed from its roots."""
    first, second = Germ.from_json(pair["first"]), Germ.from_json(pair["second"])
    separating = separating_invariant(first, second)
    truth = pair["truth"]
    if truth == "NotApplicable":
        if separating == "weights" or not (is_decidable(first) and is_decidable(second)):
            return None
        return "labelled NotApplicable, but both germs are decidable with equal weights"
    if not (is_decidable(first) and is_decidable(second)):
        return f"labelled {truth}, but a germ is outside the decidable class"
    if truth == "Inequivalent":
        if separating in (None, "weights"):
            return "labelled Inequivalent, but no invariant separates the germs"
        return None
    if separating is not None:
        return f"labelled Equivalent, but the germs differ in {separating}"
    return None


def check_verdict(pair, status):
    if status != pair["truth"]:
        return f"verdict {status}, ground truth {pair['truth']}"
    return None


def substitute(terms, alpha, beta, gamma, q):
    """Terms of F(alpha*X, beta*Y + gamma*X^q), expanded exactly."""
    top_i = max((i for i, _ in terms), default=0)
    top_j = max((j for _, j in terms), default=0)
    alpha_pow, beta_pow, gamma_pow = [(1, 0)], [(1, 0)], [(1, 0)]
    for _ in range(max(top_i, top_j)):
        alpha_pow.append(gmul(alpha_pow[-1], alpha))
        beta_pow.append(gmul(beta_pow[-1], beta))
        gamma_pow.append(gmul(gamma_pow[-1], gamma))
    out = {}
    for (i, j), c in terms.items():
        ca = gmul(c, alpha_pow[i])
        for l in range(0 if not gzero(gamma) else j, j + 1):
            coef = gmul(gmul(ca, (comb(j, l), 0)), gmul(beta_pow[l], gamma_pow[j - l]))
            key = (i + q * (j - l), l)
            out[key] = gadd(out.get(key, (0, 0)), coef)
    return {k: v for k, v in out.items() if not gzero(v)}


def _rational(scalar):
    if scalar is None:
        return (0, 0)
    return gload(scalar["value"])


def check_rational_witness(pair, witness):
    first, second = Germ.from_json(pair["first"]), Germ.from_json(pair["second"])
    image = substitute(germ_terms(first), _rational(witness["alpha"]),
                       _rational(witness["beta"]), _rational(witness["gamma"]), first.q)
    if image != germ_terms(second):
        return "rational witness: F(alpha*X, beta*Y + gamma*X^q) != G"
    return None


def _mp(c):
    re, im = c
    return mpc(mpf(re.numerator) / re.denominator, mpf(im.numerator) / im.denominator)


def _mp_gq(pair):
    return _mp(gload(pair))


def _mp_scalar(scalar, alpha=None, beta=None, q=None):
    """Numeric value of a witness scalar, from its exact description."""
    if scalar is None:
        return mpc(0)
    kind = scalar["kind"]
    if kind == "rational":
        return _mp_gq(scalar["value"])
    if kind == "radical":
        base = _mp_gq(scalar["base"])
        n = scalar["index"]
        # branch k: argument (Arg(base) + 2*pi*k)/n, Arg in (-pi, pi]
        angle = (mp.arg(base) + 2 * mp.pi * scalar["branch"]) / n
        return mp.power(abs(base), mpf(1) / n) * mp.expj(angle)
    if kind == "shear":
        return (_mp_gq(scalar["alpha_coeff"]) * alpha**q
                + _mp_gq(scalar["beta_coeff"]) * beta)
    raise ValueError(f"unknown scalar kind {kind!r}")


def _mp_terms(terms):
    return [(i, j, _mp(c)) for (i, j), c in terms.items()]


def _powers(z, top):
    out = [mpc(1)]
    for _ in range(top):
        out.append(out[-1] * z)
    return out


def _mp_eval(terms, x, y):
    """Value at (x, y) and the sum of the terms' absolute values."""
    xp = _powers(x, max(i for i, _, _ in terms))
    yp = _powers(y, max(j for _, j, _ in terms))
    value, size = mpc(0), mpf(0)
    for i, j, c in terms:
        term = c * xp[i] * yp[j]
        value += term
        size += abs(term)
    return value, size


def check_radical_witness(pair, witness, seed, points=3):
    first, second = Germ.from_json(pair["first"]), Germ.from_json(pair["second"])
    q = first.q
    rng = random.Random(f"radical-check-{seed}-{pair['id']}")
    with mp.workprec(CHECK_PRECISION):
        alpha = _mp_scalar(witness["alpha"])
        beta = _mp_scalar(witness["beta"])
        gamma = _mp_scalar(witness["gamma"], alpha, beta, q)
        f_terms = _mp_terms(germ_terms(first))
        g_terms = _mp_terms(germ_terms(second))
        worst = mpf(0)
        for _ in range(points):
            x = mpc(rng.uniform(0.2, 0.6), rng.uniform(-0.4, 0.4))
            y = mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.2, 0.6))
            left, left_size = _mp_eval(f_terms, alpha * x, beta * y + gamma * x**q)
            right, right_size = _mp_eval(g_terms, x, y)
            scale = max(left_size, right_size)
            worst = max(worst, abs(left - right) / scale)
        if worst > RADICAL_TOLERANCE:
            return f"radical witness: relative residual {mp.nstr(worst, 5)} at seeded points"
    return None


def check_witness_op(pair, output, seed):
    """Verdict, witness kind, the program's own verification and ours."""
    problem = check_verdict(pair, output["status"])
    if problem or pair["truth"] != "Equivalent":
        return problem
    witness = output.get("witness")
    if witness is None:
        return "Equivalent verdict without a witness"
    if not output["verified"]:
        return "the program's verify_witness rejected its own witness"
    radical = any(s is not None and s["kind"] != "rational"
                  for s in (witness["alpha"], witness["beta"], witness["gamma"]))
    if radical != pair["radical"]:
        want = "radical" if pair["radical"] else "rational"
        return f"witness is not {want}"
    if radical:
        return check_radical_witness(pair, witness, seed)
    return check_rational_witness(pair, witness)


def check_batch_output(records, returncode, stdout):
    """decide-batch exit code 0, and one right line per record in order."""
    if returncode != 0:
        return f"decide-batch exited {returncode}"
    lines = stdout.splitlines()
    if len(lines) != len(records):
        return f"{len(lines)} output lines for {len(records)} records"
    for index, (record, line) in enumerate(zip(records, lines)):
        try:
            doc = json.loads(line)
        except ValueError:
            return f"line {index} is not JSON"
        if "error" in doc:
            return f"record {record['id']}: error {doc['error']}"
        if doc.get("index") != index or doc.get("id") != record["id"]:
            return f"line {index} carries index {doc.get('index')} id {doc.get('id')}"
        problem = check_verdict(record, doc.get("status"))
        if problem:
            return f"record {record['id']}: {problem}"
    return None
