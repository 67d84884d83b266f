"""Replay recorded CLI invocations and compare exit codes and output bytes.

tests/data/cli_golden.jsonl holds one invocation per line: its argv, exit
code, stdout and stderr. The inputs are written into the file, so a change
to a generator cannot change what is replayed. The set covers analyze,
roots (exact and approximate), demo-whitney, decide with and without a
witness, witnesses on another scale branch, and a numeric verdict whose
witness is refused, in text and JSON.
"""

import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from qhgerm import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _replay(argv):
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


@pytest.mark.parametrize("record", RECORDS, ids=[f"golden-{n:03d}" for n in range(len(RECORDS))])
def test_replay_is_byte_identical(record, monkeypatch):
    monkeypatch.delenv("QHGERM_PRECISION", raising=False)
    code, out, err = _replay(record["argv"])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def _gamma_kind(doc) -> str | None:
    """How the witness's shear was formed, read off a decide --json document.

    For p = 1 the radical witness forms gamma as one radical when the scale
    is rational or the first center is zero, as c_first*alpha^q when only
    the second center is zero, and as a ShearTerm otherwise.
    """
    gamma = doc["witness"]["gamma"]
    if gamma is None:
        return None
    if gamma["kind"] != "radical":
        return gamma["kind"]
    shift = doc["verdict"]["match"]["shift"]
    if doc["witness"]["scale"]["kind"] == "rational" or shift["first"] == "0":
        return "single radical"
    assert shift["second"] == "0"
    return "c_first*alpha^q"


def test_golden_set_covers_every_witness_kind():
    witnesses = Counter()
    commands = Counter()
    for record in RECORDS:
        argv = record["argv"]
        commands[argv[0], "--json" in argv] += 1
        if argv[0] != "decide" or "--json" not in argv or "--witness" not in argv:
            continue
        doc = json.loads(record["stdout"])
        if "witness" not in doc:
            assert record["exit"] == 66 and doc["verdict"]["mode"] == "numeric"
            witnesses["refused"] += 1
            continue
        p = doc["verdict"]["invariants"]["first"]["p"]
        branch = "branch" if "--branch" in argv else "default"
        if p > 1:
            witnesses["p > 1", doc["witness"]["alpha"]["kind"]] += 1
        else:
            witnesses["p = 1", _gamma_kind(doc)] += 1
        witnesses[branch] += 1
    for command in ("analyze", "roots", "demo-whitney", "decide"):
        assert commands[command, False] and commands[command, True]
    for kind in ("rational", "radical"):
        assert witnesses["p > 1", kind]
    for kind in ("rational", "single radical", "c_first*alpha^q", "shear"):
        assert witnesses["p = 1", kind]
    assert witnesses["refused"] and witnesses["branch"] and witnesses["default"]
    roots = [r["stdout"] for r in RECORDS if r["argv"][0] == "roots" and r["exit"] == 0]
    assert any("(exact)" in out for out in roots) and any("(approx)" in out for out in roots)
