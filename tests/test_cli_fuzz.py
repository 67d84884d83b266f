"""Random command lines and JSON-lines records through cli.run.

Whatever the input, the command must end with one of the exit codes the CLI
documents, write no traceback and finish within a per-input time bound.
"""

import io
import json
import os
import sys
import time

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from qhgerm import cli

DOCUMENTED_EXITS = {0, 1, 2, 64, 65, 66, 141}

# A generous bound: the slowest of the 400 seeded inputs below takes about
# 0.05 s on a 2-vCPU host.
SECONDS_PER_INPUT = 5

FUZZ = settings(max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Pieces of the polynomial grammar, joined at random: mostly malformed text
# that reaches deep into the parser before it fails.
_PIECES = ["X", "Y", "i", "^", "**", "*", "+", "-", "/", ".", "(", ")", " ",
           "0", "1", "2", "3", "7", "12", "1.5", "^2", "^3", "^10", "1/3", "X^2", "Y^3"]

_COEFFS = ["1", "-1", "2", "-3", "3/2", "1.5", "0.1", "i", "(1+2*i)", "-1/7"]
_SCALES = ["1", "2", "-1/3", "i", "(1+i)", "1.5"]


@st.composite
def weighted_line(draw):
    """The exponents (i, j) with p*i + q*j = nu for drawn weights and degree."""
    p, q = draw(st.sampled_from([(2, 3), (1, 2), (2, 5), (1, 3), (1, 1)]))
    nu = p * q * draw(st.integers(min_value=1, max_value=4))
    return [(i, j) for i in range(nu // p + 1) for j in range(nu // q + 1)
            if p * i + q * j == nu]


def germ_terms(line):
    """(coefficient, i, j) monomials on one weighted line."""
    return st.lists(st.tuples(st.sampled_from(_COEFFS), st.sampled_from(line)),
                    min_size=1, max_size=4, unique_by=lambda term: term[1]).map(
        lambda terms: [(c, i, j) for c, (i, j) in terms])


def _text(terms):
    return " + ".join(f"{c}*X^{i}*Y^{j}" for c, i, j in terms)


def _image(terms, a, b):
    """The germ after X -> a*X, Y -> b*Y: equivalent to the first."""
    return _text([(f"{c}*({a})^{i}*({b})^{j}", i, j) for c, i, j in terms])


germ_text = weighted_line().flatmap(germ_terms).map(_text)

# Two germs on one weighted line: a germ and its image, or two unrelated ones.
germ_pair = weighted_line().flatmap(lambda line: st.one_of(
    st.builds(lambda terms, a, b: [_text(terms), _image(terms, a, b)],
              germ_terms(line), st.sampled_from(_SCALES), st.sampled_from(_SCALES)),
    st.lists(germ_terms(line).map(_text), min_size=2, max_size=2),
))

poly_text = st.one_of(
    germ_text,
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
    st.text(max_size=30),
)

_GOOD_FLAGS = [["--json"], ["--witness"], ["--mode", "exact"], ["--mode", "numeric"],
               ["--mode", "auto"], ["--weights", "2,3"], ["--precision", "53"],
               ["--precision", "200"], ["--tol", "1e-6"], ["--branch", "1"]]
_BAD_FLAGS = [["--weights", "0,1"], ["--weights", "x"], ["--precision", "9000"],
              ["--tol", "0"], ["--branch", "-1"], ["--bogus"]]


def flags(command):
    """Up to three good flags that the command reads, then maybe one bad flag."""
    options = set(cli._COMMAND_OPTIONS[command])
    if command == "decide":
        options |= {"--witness", "--branch"}
    return st.builds(
        lambda good, bad: sum(good, []) + bad,
        st.lists(st.sampled_from([flag for flag in _GOOD_FLAGS if flag[0] in options]),
                 max_size=3),
        st.one_of(st.just([]), st.just([]), st.just([]), st.sampled_from(_BAD_FLAGS)),
    )


command_line = st.one_of(
    st.tuples(st.just(["analyze"]), st.lists(poly_text, min_size=1, max_size=1),
              flags("analyze")),
    st.tuples(st.just(["roots"]), st.lists(poly_text, min_size=1, max_size=1), flags("roots")),
    st.tuples(st.just(["decide"]), germ_pair, flags("decide")),
    st.tuples(st.just(["decide"]), st.lists(poly_text, min_size=0, max_size=3),
              flags("decide")),
    st.tuples(st.just(["demo-whitney"]), st.lists(poly_text, min_size=2, max_size=2),
              flags("demo-whitney")),
    st.tuples(st.lists(st.text(max_size=8), max_size=3), st.just([]), st.just([])),
).map(lambda parts: parts[0] + parts[1] + parts[2])

_json_value = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=6),
                        st.lists(st.integers(-1, 4), min_size=1, max_size=3))

record = st.fixed_dictionaries(
    {},
    optional={
        "first": st.one_of(poly_text, _json_value),
        "second": st.one_of(poly_text, _json_value),
        "weights": st.one_of(st.just([2, 3]), _json_value),
        "mode": st.sampled_from(["exact", "numeric", "auto", "sideways"]),
        "id": _json_value,
    },
)

record_line = st.one_of(
    record.map(json.dumps),
    germ_pair.map(lambda pair: json.dumps({"first": pair[0], "second": pair[1]})),
    st.text(max_size=30).filter(lambda line: "\n" not in line),
)

batch_text = st.lists(record_line, max_size=6).map(lambda lines: "".join(f"{x}\n" for x in lines))


def _run(argv, stdin=""):
    """cli.run in this process: (exit code, stderr, seconds taken)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr, sys.stdin = saved
    return code, err.getvalue(), elapsed


def _check(argv, stdin=""):
    code, err, elapsed = _run(argv, stdin)
    assert code in DOCUMENTED_EXITS, (code, err)
    assert "Traceback" not in err
    assert elapsed < SECONDS_PER_INPUT, elapsed
    return code


@seed(20261018)
@FUZZ
@given(command_line)
def test_random_command_lines_end_with_documented_exits(argv):
    _check(argv)


@seed(20261019)
@FUZZ
@given(batch_text, flags("decide-batch"))
def test_random_batch_records_end_with_documented_exits(text, extra):
    code = _check(["decide-batch", "-", *extra], stdin=text)
    assert code in (0, 64, 65)


def test_precision_env_is_bounded_like_the_flag(monkeypatch):
    monkeypatch.setitem(os.environ, "QHGERM_PRECISION", "9000")
    assert _check(["roots", "Y^2-X^3"]) == 64
