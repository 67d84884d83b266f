"""Replay decide --witness on the benchmark's witness pairs against recorded hashes.

tests/data/witness_bytes.json holds one record per (seed, kind, format):
the pairs of bench/corpus.witness_pairs(seed, 4, radical=kind == "radical")
for seeds 3, 7 and 11, each run in process through
cli.run(["decide", "--witness", first, second]) in text or with --json.
"inputs" is the sha256 of the pairs' texts, "outputs" that of every run's
exit code, stdout and stderr, in order. A change to a witness, a report or
a printed byte changes "outputs"; a change to the corpus changes "inputs"
and is reported as such.

One more record, "branches", holds every Equivalent pair of
conftest.branch_completeness_pairs(), printed with format_poly, run in text
through cli.run(["decide", "--witness", "--branch", k, first, second]) for
every k below witness_branch_count. These take the reduced radicals of
engine._simplify_scalar on every branch, and print their "~" digits.

To record the hashes again, at a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_witness_bytes.py
"""

import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import branch_completeness_pairs
from qhgerm import cli, witness_branch_count
from qhgerm.polyio import format_poly

BENCH = Path(__file__).resolve().parent.parent / "bench"
DATA = Path(__file__).resolve().parent / "data" / "witness_bytes.json"
SEEDS = (3, 7, 11)
KINDS = ("exact", "radical")
FORMATS = ("text", "json")
ROUNDS = 4

needs_corpus = pytest.mark.skipif(
    not (BENCH / "corpus.py").is_file(), reason="bench/corpus.py is absent"
)


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("corpus")


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def hashes(corpus, seed: int, kind: str, fmt: str) -> dict:
    """{"inputs": sha256, "outputs": sha256} of one (seed, kind, format)."""
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    flags = ["--json"] if fmt == "json" else []
    for pair in corpus.witness_pairs(seed, ROUNDS, radical=kind == "radical"):
        first, second = pair["first_text"], pair["second_text"]
        inputs.update(json.dumps([first, second]).encode())
        code, out, err = _run(["decide", "--witness", *flags, first, second])
        outputs.update(json.dumps([code, out, err]).encode())
    return {"inputs": inputs.hexdigest(), "outputs": outputs.hexdigest()}


def branch_hashes() -> dict:
    """{"inputs": sha256, "outputs": sha256} of every explicit branch of the
    Equivalent pairs of branch_completeness_pairs()."""
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    for first, second, verdict in branch_completeness_pairs():
        if verdict.status != "Equivalent":
            continue
        first, second = format_poly(first), format_poly(second)
        for k in range(witness_branch_count(verdict)):
            inputs.update(json.dumps([first, second, k]).encode())
            code, out, err = _run(["decide", "--witness", "--branch", str(k), first, second])
            outputs.update(json.dumps([code, out, err]).encode())
    return {"inputs": inputs.hexdigest(), "outputs": outputs.hexdigest()}


def _key(seed: int, kind: str, fmt: str) -> str:
    return f"{seed}-{kind}-{fmt}"


CASES = [(s, k, f) for s in SEEDS for k in KINDS for f in FORMATS]


@needs_corpus
@pytest.mark.parametrize("seed, kind, fmt", CASES, ids=[_key(*c) for c in CASES])
def test_witness_runs_are_byte_identical(corpus, seed, kind, fmt, monkeypatch):
    monkeypatch.delenv("QHGERM_PRECISION", raising=False)
    want = json.loads(DATA.read_text(encoding="utf-8"))[_key(seed, kind, fmt)]
    got = hashes(corpus, seed, kind, fmt)
    assert got["inputs"] == want["inputs"], "bench/corpus.py draws other pairs than were recorded"
    assert got["outputs"] == want["outputs"]


def test_explicit_branch_runs_are_byte_identical(monkeypatch):
    monkeypatch.delenv("QHGERM_PRECISION", raising=False)
    want = json.loads(DATA.read_text(encoding="utf-8"))["branches"]
    got = branch_hashes()
    assert got["inputs"] == want["inputs"], "branch_completeness_pairs draws other pairs"
    assert got["outputs"] == want["outputs"]


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    bench_corpus = importlib.import_module("corpus")
    records = {_key(*c): hashes(bench_corpus, *c) for c in CASES}
    records["branches"] = branch_hashes()
    DATA.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
