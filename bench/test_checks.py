"""Tests of the benchmark's generator, checks and calibration; they do not import qhgerm.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import checks
import corpus
import procs
from corpus import Germ, g, germ_terms, image, scaled


def _labels_hold(items):
    """(id, problem) for every item whose label its invariants contradict."""
    return [(item["id"], problem) for item in items
            if (problem := checks.check_label(item)) is not None]


def test_every_workload_corpus_is_labelled_by_its_invariants():
    assert _labels_hold(corpus.witness_pairs(7, 2, False)) == []
    assert _labels_hold(corpus.witness_pairs(7, 2, True)) == []
    assert _labels_hold(corpus.numeric_pairs(7, 2)) == []
    assert _labels_hold([r for f in corpus.cli_files(7, 3) for r in f]) == []


def test_corpus_is_a_function_of_the_seed():
    assert corpus.witness_pairs(3, 1, False) == corpus.witness_pairs(3, 1, False)
    assert corpus.numeric_pairs(3, 1) == corpus.numeric_pairs(3, 1)
    assert corpus.witness_pairs(3, 1, False) != corpus.witness_pairs(4, 1, False)


def test_numeric_texts_are_exact_decimals():
    for pair in corpus.numeric_pairs(5, 1):
        assert "/" not in pair["first_text"] + pair["second_text"]
    assert corpus.decimal_str(Fraction(-5, 8)) == "-0.625"
    assert corpus.decimal_str(Fraction(3)) == "3.0"
    with pytest.raises(ValueError):
        corpus.decimal_str(Fraction(1, 3))


def test_image_matches_an_independent_substitution():
    germ = Germ(1, 3, g(2), 1, 0, ((g(1), 2), (g(0, 1), 1), (g(-2), 1)))
    alpha, beta, gamma = g(2), g(Fraction(-1, 2)), g(3)
    assert checks.substitute(germ_terms(germ), alpha, beta, gamma, 3) == \
        germ_terms(image(germ, alpha, beta, gamma))


def _equivalent_pair():
    pair = next(p for p in corpus.witness_pairs(11, 1, False) if p["truth"] == "Equivalent"
                and p["first"]["p"] == 1 and p["witness"]["gamma"] != ["0", "0"])
    return pair


def test_flipped_verdict_is_rejected():
    pair = _equivalent_pair()
    assert checks.check_verdict(pair, "Equivalent") is None
    assert checks.check_verdict(pair, "Inequivalent") is not None
    inequivalent = next(p for p in corpus.witness_pairs(11, 1, False)
                        if p["truth"] == "Inequivalent")
    assert checks.check_verdict(inequivalent, "Equivalent") is not None


def test_mislabelled_pair_is_rejected():
    pair = _equivalent_pair()
    assert checks.check_label(pair) is None
    assert checks.check_label(dict(pair, truth="Inequivalent")) is not None
    assert checks.check_label(dict(pair, truth="NotApplicable")) is not None
    for numeric in corpus.numeric_pairs(11, 1):
        flipped = "Equivalent" if numeric["truth"] == "Inequivalent" else "Inequivalent"
        assert checks.check_label(dict(numeric, truth=flipped)) is not None


def _rational(value):
    return {"kind": "rational", "value": value}


def test_rational_witness_check_rejects_a_corrupted_witness():
    pair = _equivalent_pair()
    w = pair["witness"]
    good = {"alpha": _rational(w["alpha"]), "beta": _rational(w["beta"]),
            "gamma": _rational(w["gamma"])}
    assert checks.check_rational_witness(pair, good) is None
    for key in ("alpha", "beta", "gamma"):
        re = Fraction(w[key][0]) + 1
        bad = dict(good, **{key: _rational([str(re), w[key][1]])})
        assert checks.check_rational_witness(pair, bad) is not None


def _radical(base, index, branch):
    return {"kind": "radical", "base": [str(base), "0"], "index": index, "branch": branch}


def test_radical_witness_check_rejects_a_corrupted_witness():
    # G = 3*F(aX, bY + cX^q); with t = 3^(1/nu) the witness of G from F is
    # (a*t^p, b*t^q, c*t^(p*q)), each a principal radical for positive a, b, c.
    first = Germ(1, 2, g(1), 1, 0, ((g(1), 1), (g(-2), 1), (g(3), 2)))
    p, q, nu = first.p, first.q, first.nu
    a, b, c, k = Fraction(2), Fraction(1, 2), Fraction(3), Fraction(3)
    second = scaled(image(first, g(a), g(b), g(c)), g(k))
    pair = {"id": "radical", "first": first.to_json(), "second": second.to_json()}
    good = {"alpha": _radical(a**nu * k**p, nu, 0), "beta": _radical(b**nu * k**q, nu, 0),
            "gamma": _radical(c**nu * k**(p * q), nu, 0)}
    assert checks.check_radical_witness(pair, good, seed=1) is None
    assert checks.check_radical_witness(
        pair, dict(good, alpha=_radical(a**nu * k**p, nu, 1)), seed=1) is not None
    assert checks.check_radical_witness(
        pair, dict(good, gamma=_radical(c**nu * k**(p * q) * 2, nu, 0)), seed=1) is not None
    shear = {"kind": "shear", "alpha_coeff": ["0", "0"], "beta_coeff": ["1", "0"]}
    assert checks.check_radical_witness(pair, dict(good, gamma=shear), seed=1) is not None


def test_witness_op_check_requires_the_expected_kind_and_verification():
    pair = _equivalent_pair()
    w = pair["witness"]
    witness = {"alpha": _rational(w["alpha"]), "beta": _rational(w["beta"]),
               "gamma": _rational(w["gamma"])}
    output = {"status": "Equivalent", "witness": witness, "verified": True}
    assert checks.check_witness_op(pair, output, 0) is None
    assert checks.check_witness_op(pair, dict(output, verified=False), 0) is not None
    assert checks.check_witness_op(dict(pair, radical=True), output, 0) is not None
    assert checks.check_witness_op(pair, {"status": "Equivalent"}, 0) is not None


def test_batch_output_check():
    records = corpus.cli_files(2, 1)[0]
    lines = [json.dumps({"id": r["id"], "index": i, "mode": "exact", "reason": None,
                         "status": r["truth"]}) for i, r in enumerate(records)]
    stdout = "\n".join(lines) + "\n"
    assert checks.check_batch_output(records, 0, stdout) is None
    assert checks.check_batch_output(records, 1, stdout) is not None
    assert checks.check_batch_output(records, 0, "\n".join(lines[:-1])) is not None
    flipped = json.loads(lines[0])
    flipped["status"] = "NotApplicable" if records[0]["truth"] != "NotApplicable" else "Equivalent"
    assert checks.check_batch_output(
        records, 0, "\n".join([json.dumps(flipped)] + lines[1:])) is not None
    errored = json.loads(lines[1])
    errored["error"] = "boom"
    assert checks.check_batch_output(
        records, 0, "\n".join(lines[:1] + [json.dumps(errored)] + lines[2:])) is not None
    swapped = lines[1:2] + lines[:1] + lines[2:]
    assert checks.check_batch_output(records, 0, "\n".join(swapped)) is not None


def test_calibration_block_does_not_import_qhgerm():
    code = ("import sys, calibrate; calibrate.block(); "
            "print(any(m.split('.')[0] == 'qhgerm' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(calibrate.__file__).parent,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_calibrator_child_times_blocks_and_ends():
    with procs.Calibrator() as calibrator:
        times = [calibrator.block() for _ in range(2)]
    assert all(0 < t < 60 for t in times)
    assert calibrator.proc.returncode == 0


def test_calibration_process_runs_one_block_and_exits(tmp_path):
    assert 0 < procs.calibration_process(tmp_path / "cal.out") < 60
