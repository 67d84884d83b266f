"""Command line surface: exit codes, JSON documents, text output, batch mode."""

import argparse
import ast
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qhgerm
from qhgerm import NonConvergenceError, cli, engine

PAIR_FIRST = "(Y^2-X^3)*(Y^2-2*X^3)"
PAIR_SECOND = "(Y^2-3*X^3)*(Y^2-6*X^3)"

# The directory holding the imported qhgerm package; child processes put it
# first on PYTHONPATH so they import the same tree as this test process.
PACKAGE_ROOT = Path(qhgerm.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv, stdin=None, env=None):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    saved = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_json_document(self):
        code, out, _ = run_cli("analyze", PAIR_FIRST, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schemaVersion"] == 1
        assert doc["command"] == "analyze"
        assert doc["inputs"] == {"poly": "Y^4 - 3*X^3*Y^2 + 2*X^6"}
        assert doc["weights"] == {"p": 2, "q": 3, "nu": 12}
        assert doc["class"] == "NonHomogeneousQH"
        # ladder coefficients are listed leading first
        assert doc["canonical"] == {"c0": "1", "m": 0, "m0": 0,
                                    "ladder": ["1", "-3", "2"]}
        assert doc["ord0"] == 4

    def test_text_output(self):
        code, out, _ = run_cli("analyze", PAIR_FIRST)
        assert code == 0
        assert out.splitlines() == [
            "class: NonHomogeneousQH",
            "weights: p=2 q=3 nu=12",
            "canonical: c0=1 m=0 m0=0 ladder=w^2 - 3*w + 2",
            "ord0: 4",
        ]

    def test_fixed_weights_match_inferred(self):
        _, inferred, _ = run_cli("analyze", PAIR_FIRST, "--json")
        _, fixed, _ = run_cli("analyze", PAIR_FIRST, "--weights", "2,3", "--json")
        assert inferred == fixed

    def test_wrong_weights_is_analysis_error(self):
        code, _, err = run_cli("analyze", PAIR_FIRST, "--weights", "3,4")
        assert code == 66
        assert err.startswith("error:")

    def test_non_quasihomogeneous_input(self):
        code, _, err = run_cli("analyze", "X^2 + Y^3 + X*Y")
        assert code == 66
        assert "error:" in err

    def test_parse_error(self):
        code, _, err = run_cli("analyze", "X^^2")
        assert code == 65
        assert err.startswith("parse error:")
        assert "position" in err

    def test_superscript_digit_is_parse_error(self):
        code, out, err = run_cli("analyze", "Y^2 - X^\u00b2")
        assert code == 65
        assert out == ""
        assert err == "parse error: expected an unsigned integer exponent (at position 8)\n"

    def test_double_star_power_matches_caret(self):
        assert run_cli("analyze", "Y**2 - X**3", "--json") == run_cli(
            "analyze", "Y^2 - X^3", "--json")

    def test_deep_nesting_is_parse_error(self):
        deep = "(" * 3000 + "Y^2-X^3" + ")" * 3000
        code, out, err = run_cli("analyze", deep)
        assert code == 65
        assert out == ""
        assert err == "parse error: nesting too deep (at position 200)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Y^30000000 - X^30000000", "exponent 30000000 exceeds the limit 1000 (at position 2)"),
            ("(X+Y)^100000", "exponent 100000 exceeds the limit 1000 (at position 6)"),
            ("(X^10+Y)^200", "degree 2000 exceeds the limit 1000 (at position 0)"),
        ],
    )
    def test_degree_over_the_limit_is_parse_error(self, text, message):
        start = time.perf_counter()
        code, out, err = run_cli("analyze", text)
        assert time.perf_counter() - start < 5
        assert code == 65
        assert out == ""
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("((2)^1000)^1000*Y^2 - X^3",
             "power with coefficients of up to 1002000 bits exceeds the limit 4096 bits "
             "(at position 0)"),
            ("(((2)^1000)^1000)^4*Y^2 - X^3",
             "power with coefficients of up to 1002000 bits exceeds the limit 4096 bits "
             "(at position 1)"),
            ("1" * 5000 + "*Y^2 - X^3",
             "number of 5000 digits exceeds the limit 4096 bits (at position 0)"),
            ("(2)^1000*" * 1000 + "Y^2 - X^3",
             "product with coefficients of 5001 bits exceeds the limit 4096 bits "
             "(at position 0)"),
        ],
    )
    def test_coefficient_over_the_limit_is_parse_error(self, text, message):
        start = time.perf_counter()
        code, out, err = run_cli("analyze", text)
        assert time.perf_counter() - start < 1
        assert code == 65
        assert out == ""
        assert err == f"parse error: {message}\n"

    def test_product_over_the_work_limit_is_parse_error(self):
        start = time.perf_counter()
        code, out, err = run_cli("analyze", "(X+Y+1)^1000")
        assert time.perf_counter() - start < 1
        assert code == 65
        assert out == ""
        assert err == ("parse error: product of 561 by 561 terms exceeds the limit "
                       "65536 term pairs (at position 0)\n")

    @pytest.mark.parametrize("bad", ["2;3", "2,3,4", "a,b"])
    def test_malformed_weights_flag(self, bad):
        code, _, _ = run_cli("analyze", PAIR_FIRST, "--weights", bad)
        assert code == 64


class TestDecide:
    def test_equivalent_pair_json(self):
        code, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND, "--json")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["command", "inputs", "schemaVersion", "verdict"]
        verdict = doc["verdict"]
        assert sorted(verdict) == ["invariants", "match", "mode", "reason", "status"]
        assert verdict["status"] == "Equivalent"
        assert verdict["mode"] == "exact"
        assert verdict["match"] == {"base": "3", "d": 1, "indices": [1, 2],
                                    "shift": None}
        inv = verdict["invariants"]
        assert sorted(inv) == ["first", "second"]
        assert sorted(inv["first"]) == ["class", "ladderDegree", "m", "m0",
                                        "nu", "ord0", "p", "q"]

    def test_witness_document(self):
        code, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND,
                               "--json", "--witness")
        assert code == 0
        doc = json.loads(out)
        witness = doc["witness"]
        assert sorted(witness) == ["alpha", "beta", "branch", "direction",
                                   "gamma", "scale", "substitution"]
        assert witness["alpha"] == {
            "kind": "radical", "base": "3", "index": 3, "branch": 0,
            "approx": "(1.4422495703074084 + 0.0j)",
        }
        assert witness["beta"]["kind"] == "rational"
        assert witness["beta"]["base"] == "1"
        assert witness["gamma"] is None
        assert witness["scale"]["base"] == "3"
        assert witness["branch"] == 0
        assert witness["direction"] == "forward"
        assert witness["substitution"] == "X -> alpha*X, Y -> beta*Y"
        ver = doc["verification"]
        assert sorted(ver) == ["mode", "pass", "precision", "residual",
                               "samples", "tol"]
        assert ver == {"mode": "exact", "pass": True, "precision": 128, "residual": "0",
                       "samples": 0, "tol": "0"}

    def test_witness_absent_without_flag(self):
        _, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND, "--json")
        doc = json.loads(out)
        assert "witness" not in doc
        assert "verification" not in doc

    def test_inequivalent_exit_code(self):
        code, out, _ = run_cli(
            "decide", PAIR_FIRST, "(Y^2-X^3)*(Y^2-3*X^3)", "--json", "--witness"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"]["status"] == "Inequivalent"
        assert "not related by" in doc["verdict"]["reason"]
        # no witness construction for a rejected pair
        assert "witness" not in doc

    def test_not_applicable_exit_code(self):
        code, out, _ = run_cli("decide", "Y^2 - X^2", "Y^2 - 4*X^2")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "verdict: NotApplicable (exact)"
        assert "non-homogeneous" in lines[1]

    def test_text_output(self):
        code, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: Equivalent (exact)"
        assert lines[1] == "invariants: p=2 q=3 nu=12 m=0 m0=0 ladderDegree=2"
        assert lines[2] == 'match: {"base": "3", "d": 1, "indices": [1, 2], "shift": null}'

    def test_shear_witness_text(self):
        code, out, _ = run_cli(
            "decide", "Y*(Y-X^2)", "Y^2 - 2*X^2*Y + 1/2*X^4", "--witness"
        )
        assert code == 0
        lines = out.splitlines()
        assert "witness: X -> alpha*X, Y -> beta*Y + gamma*X^2" in lines
        assert "  alpha = (2)^(1/4) branch 0 ~ (1.1892071150027210667 + 0.0j)" in lines
        assert "  beta  = 1" in lines
        assert "  gamma = (1/2)*alpha^q + (-1)*beta" in lines
        assert lines[-1] == "verification: exact pass"

    def test_zero_shear_prints_as_zero(self):
        # both centroids are 0 and the scale is irrational, so the shift is 0
        argv = ("decide", "Y^2-X^4", "Y^2-2*X^4", "--witness")
        code, out, _ = run_cli(*argv)
        assert code == 0
        lines = out.splitlines()
        assert "  gamma = 0" in lines
        assert lines[-1] == "verification: exact pass"
        code, out, _ = run_cli(*argv, "--json")
        doc = json.loads(out)
        assert doc["witness"]["gamma"] == {
            "kind": "rational", "base": "0", "index": 1, "branch": 0,
            "approx": "(0.0 + 0.0j)",
        }
        assert doc["verification"]["pass"] is True

    def test_radical_at_lowest_index_on_a_large_base(self):
        code, out, _ = run_cli(
            "decide", "Y^2 - X^3",
            "30000000000000000019/20000000000000000011*Y^2 - X^3", "--witness",
        )
        assert code == 0
        lines = out.splitlines()
        assert "  alpha = 1" in lines
        assert (
            "  beta  = (30000000000000000019/20000000000000000011)^(1/2) branch 0 ~ "
            "(1.2247448713915890491 + 0.0j)"
        ) in lines
        assert lines[-1] == "verification: exact pass"

    def test_pair_from_file(self, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text(f"{PAIR_FIRST}\n{PAIR_SECOND}\n")
        code, out, _ = run_cli("decide", "--file", str(pair), "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "Equivalent"

    @pytest.mark.parametrize("operands", [("Y^2-X^3", "Y^2-X^5"), ("Y^2-X^3",)])
    def test_polynomials_with_file_is_usage_error(self, tmp_path, operands):
        # the file's pair would be decided and the operands dropped unread
        pair = tmp_path / "pair.txt"
        pair.write_text(f"{PAIR_FIRST}\n{PAIR_SECOND}\n")
        code, out, err = run_cli("decide", *operands, "--file", str(pair))
        assert (code, out) == (64, "")
        assert "--file" in err

    def test_short_file_is_usage_error(self, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text(f"{PAIR_FIRST}\n")
        code, out, err = run_cli("decide", "--file", str(pair))
        assert (code, out) == (64, "")
        assert "two polynomial lines" in err

    def test_long_file_is_usage_error(self, tmp_path):
        # a third polynomial would otherwise be dropped unread
        pair = tmp_path / "pair.txt"
        pair.write_text(f"{PAIR_FIRST}\n{PAIR_SECOND}\nY^2-X^5\n")
        code, out, err = run_cli("decide", "--file", str(pair))
        assert (code, out) == (64, "")
        assert "two polynomial lines" in err

    def test_missing_file_is_input_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli("decide", "--file", str(missing))
        assert (code, out) == (66, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_missing_second_operand(self):
        code, _, err = run_cli("decide", PAIR_FIRST)
        assert code == 64
        assert "two polynomials or --file" in err

    def test_root_finder_failure_is_analysis_error(self, monkeypatch):
        def never_converges(poly, precision=128):
            raise NonConvergenceError("stub failure")

        monkeypatch.setattr(engine, "find_roots", never_converges)
        code, out, err = run_cli("decide", PAIR_FIRST, PAIR_SECOND, "--mode", "numeric")
        assert code == 66
        assert out == ""
        assert err == "error: stub failure\n"

    def test_numeric_values_print_without_noise(self):
        code, out, _ = run_cli(
            "decide", "(Y^2-1.5*X^3)*(Y^2-2*X^3)^2*(Y^2-7*X^3)",
            "(Y^2-3.0*X^3)*(Y^2-4*X^3)^2*(Y^2-14*X^3)", "--json")
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["mode"] == "numeric"
        assert verdict["match"] == {"numeric": True, "scale": "(2.0 + 0.0j)",
                                    "shift": None}

    def test_witness_approx_drops_sub_precision_noise(self):
        code, out, _ = run_cli(
            "decide", "2*X*Y^8 - 2*X^8*Y^6 - 64*X^15*Y^4 + 120*X^22*Y^2",
            "(0 - 14*i)*X*Y^8 - 1792*X^8*Y^6 + (0 - 7340032*i)*X^15*Y^4"
            " - 1761607680*X^22*Y^2", "--witness", "--json")
        assert code == 0
        witness = json.loads(out)["witness"]
        approx = [witness[key]["approx"] for key in ("alpha", "beta", "scale")]
        assert "(0.0 - 2.0882907399781691j)" in approx
        for text in approx:
            z = complex(text.replace(" ", ""))
            assert all(part == 0 or abs(part) > 1e-30 * abs(z) for part in (z.real, z.imag))

    def test_numeric_verdict_witness_is_refused(self):
        pair = ("(Y^2-X^3)*(Y^2-1.0000000001*X^3)", "(Y^2-X^3)^2")
        code, out, err = run_cli("decide", *pair, "--witness")
        assert code == 66
        # the verdict prints as without --witness; the refusal goes to stderr
        assert out == run_cli("decide", *pair)[1]
        assert out.startswith("verdict: Equivalent (numeric)\n")
        assert err == ("error: the exact matcher finds no witness; a numeric verdict "
                       "on rounded input does not support witness construction\n")

    def test_numeric_verdict_witness_is_refused_json(self):
        pair = ("(Y^2-X^3)*(Y^2-1.0000000001*X^3)", "(Y^2-X^3)^2")
        code, out, err = run_cli("decide", *pair, "--witness", "--json")
        assert code == 66
        assert out == run_cli("decide", *pair, "--json")[1]
        doc = json.loads(out)
        assert doc["verdict"]["status"] == "Equivalent"
        assert "witness" not in doc and "verification" not in doc
        assert err.startswith("error: the exact matcher finds no witness")

    def test_exact_mode_rejects_decimals(self):
        code, _, err = run_cli("decide", "Y^2 - 1.5*X^4", "Y^2 - X^4",
                               "--mode", "exact")
        assert code == 66
        assert "decimal" in err

    def test_branch_selects_other_scale_root(self):
        _, out0, _ = run_cli("decide", "Y^2 - X^4", "Y^2 - 4*X^4",
                             "--json", "--witness")
        _, out1, _ = run_cli("decide", "Y^2 - X^4", "Y^2 - 4*X^4",
                             "--json", "--witness", "--branch", "1")
        alpha0 = json.loads(out0)["witness"]["alpha"]
        alpha1 = json.loads(out1)["witness"]["alpha"]
        assert alpha0["base"] == "2"
        assert alpha1["base"] == "-2"
        assert json.loads(out1)["witness"]["branch"] == 1
        assert json.loads(out1)["verification"]["pass"] is True

    def test_branch_out_of_range(self):
        code, out, err = run_cli("decide", "Y^2 - X^4", "Y^2 - 4*X^4",
                                 "--witness", "--branch", "2")
        assert code == 64
        assert "outside 0..1" in err
        # reported as every other usage error is
        assert err == "qhgerm: error: branch 2 outside 0..1\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--witness", "--branch", "-1"),
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--precision", "52"),
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--tol", "0"),
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--tol", "1"),
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--tol", "2"),
        ("decide", "Y^2-X^4", "Y^2-4*X^4", "--mode", "sideways"),
    ])
    def test_usage_errors(self, argv):
        code, _, _ = run_cli(*argv)
        assert code == 64

    def test_branch_without_witness_is_usage_error(self):
        # --branch is read only on the witness path; alone it would do nothing
        code, out, err = run_cli("decide", "Y^2 - X^4", "Y^2 - 4*X^4", "--branch", "7")
        assert (code, out) == (64, "")
        assert "--witness" in err


class TestOptionSets:
    """Each subcommand takes exactly the options it reads."""

    OPTIONS = {
        "analyze": {"--weights", "--json"},
        "decide": {"--weights", "--mode", "--precision", "--tol", "--json",
                   "--file", "--witness", "--branch"},
        "roots": {"--weights", "--precision", "--tol", "--json"},
        "demo-whitney": {"--json"},
        "decide-batch": {"--weights", "--mode", "--precision", "--tol"},
    }

    def test_option_set_of_each_subcommand(self):
        parser = cli._build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        got = {name: {option for action in command._actions
                      for option in action.option_strings} - {"-h", "--help"}
               for name, command in sub.choices.items()}
        assert got == self.OPTIONS
        assert sum(len(options) for options in got.values()) == 19

    @pytest.mark.parametrize("argv", [
        ("analyze", "Y^2-X^3", "--seed", "3"),
        ("roots", "Y^2-X^3", "--mode", "exact"),
        ("demo-whitney", "2", "3", "--tol", "0.1"),
        ("decide-batch", "--json"),
        # verification is exact and takes no seed
        ("decide", "Y^2-X^3", "Y^2-2*X^3", "--witness", "--seed", "3"),
    ])
    def test_unread_option_is_usage_error(self, argv):
        record = json.dumps({"first": "Y^2-X^3", "second": "Y^2-2*X^3"}) + "\n"
        code, out, err = run_cli(*argv, stdin=record)
        assert (code, out) == (64, "")
        assert "unrecognized arguments" in err


class TestRoots:
    def test_exact_root(self):
        code, out, _ = run_cli("roots", "(Y-X^2)^3*X", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "MonomialLike"
        assert doc["weights"] == {"p": 1, "q": 2, "nu": 7}
        assert doc["roots"] == [{"value": "1", "multiplicity": 3, "exact": True}]

    def test_irrational_roots_reported_approximately(self):
        code, out, _ = run_cli("roots", "Y^2 - 2*X^2*Y + 1/2*X^4", "--json")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert [r["exact"] for r in roots] == [False, False]
        assert [r["multiplicity"] for r in roots] == [1, 1]
        assert roots[0]["value"].startswith("(0.2928932")
        assert roots[1]["value"].startswith("(1.7071067")

    def test_denominator_over_ten_to_the_twelve_is_exact(self):
        code, out, _ = run_cli("roots", "(Y^2 - 1/10000000000001*X^3)*(Y^2-X^3)")
        assert code == 0
        assert out == ("class: NonHomogeneousQH\n"
                       "root 1/10000000000001 multiplicity 1 (exact)\n"
                       "root 1 multiplicity 1 (exact)\n")

    def test_text_output(self):
        code, out, _ = run_cli("roots", "(Y-X^2)^3*X")
        assert code == 0
        assert out == "class: MonomialLike\nroot 1 multiplicity 3 (exact)\n"

    def test_empty_ladder(self):
        code, out, _ = run_cli("roots", "X^3")
        assert code == 0
        assert "no ladder roots (empty ladder)" in out


class TestDemoWhitney:
    def test_distinct_moduli(self):
        code, out, _ = run_cli("demo-whitney", "3/10", "2/5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["jEqual"] is False
        assert doc["verdict"]["status"] == "NotApplicable"
        assert doc["first"]["config"] == ["inf", "0", "1", "3/10"]
        assert doc["first"]["crossRatio"] == "3/10"
        assert doc["first"]["j"] == "31554496/11025"
        assert doc["second"]["j"] == "438976/225"
        assert doc["first"]["poly"] == "X*Y^3 - 13/10*X^2*Y^2 + 3/10*X^3*Y"

    def test_reciprocal_parameter_same_modulus(self):
        # the four-line invariant does not see the ordering, so t and 1/t agree
        code, out, _ = run_cli("demo-whitney", "3/10", "10/3", "--json")
        assert code == 0
        assert json.loads(out)["jEqual"] is True

    def test_text_output(self):
        code, out, _ = run_cli("demo-whitney", "3/10", "2/5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("t = 3/10: config ['inf', '0', '1', '3/10'] "
                            "cross-ratio 3/10 j = 31554496/11025")
        assert lines[2] == "configurations are distinct under the ordering-free invariant"
        assert lines[3].startswith("germ decider: NotApplicable")

    def test_degenerate_parameter(self):
        code, _, err = run_cli("demo-whitney", "1", "2/5")
        assert code == 66
        assert "collapses" in err


class TestBatch:
    def test_mixed_records(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "first": PAIR_FIRST, "second": PAIR_SECOND}),
            json.dumps({"first": "Y^2-X^3", "second": "Y^2-X^3"}),
            "not json {",
            json.dumps({"first": PAIR_FIRST}),
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND,
                        "mode": "numeric"}),
        ]
        batch = tmp_path / "pairs.jsonl"
        batch.write_text("\n".join(lines) + "\n\n")
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"id": "a", "index": 0, "mode": "exact",
                              "reason": None, "status": "Equivalent"}
        assert sorted(records[1]) == ["index", "mode", "reason", "status"]
        assert records[2]["index"] == 2 and "error" in records[2]
        assert records[3] == {"error": "'second'", "index": 3}
        assert records[4]["mode"] == "numeric"
        assert records[4]["status"] == "Equivalent"

    def test_clean_batch_exit_zero(self, tmp_path):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
            + json.dumps({"first": PAIR_FIRST,
                          "second": "(Y^2-X^3)*(Y^2-3*X^3)"}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 0
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses == ["Equivalent", "Inequivalent"]

    def test_stdin_dash(self):
        line = json.dumps({"first": "Y^2-X^3", "second": "Y^2-8*X^3"})
        code, out, _ = run_cli("decide-batch", "-", stdin=line + "\n")
        assert code == 0
        assert json.loads(out)["status"] == "Equivalent"

    def test_per_item_weights(self):
        line = json.dumps({"first": "Y^2-X^3", "second": "Y^2-X^3",
                           "weights": [2, 3]})
        code, out, _ = run_cli("decide-batch", "-", stdin=line + "\n")
        assert code == 0
        assert json.loads(out)["status"] == "Equivalent"


    def test_bad_weights_record_does_not_end_the_batch(self, tmp_path):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND,
                        "weights": [2]}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {
            "error": "weights must be two positive integers, got [2]", "index": 0}
        assert records[1]["status"] == "Equivalent"

    # a record's weights get the message that --weights or the library gives
    @pytest.mark.parametrize("weights,message", [
        ([0, 3], "weights must satisfy 1 <= p <= q, got (0, 3)"),
        ([2, 3.0], "weights must be integers"),
        ([True, 2], "weights must be integers"),
        ("23", "weights must be integers"),
        ({"a": 1}, "weights must be two positive integers, got {'a': 1}"),
        ([1, 2, 3], "weights must be two positive integers, got [1, 2, 3]"),
    ], ids=["zero", "float", "bool", "string", "object", "three"])
    def test_bad_weights_value_does_not_end_the_batch(self, tmp_path, weights, message):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND,
                        "weights": weights}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"error": message, "index": 0}
        assert records[1]["status"] == "Equivalent"

    # null falls back to --weights, or to inferred weights without it
    @pytest.mark.parametrize("extra,expected", [([], 0), (["--weights", "1,2"], 65)])
    def test_null_weights_decide_like_a_record_without_them(self, tmp_path, extra,
                                                             expected):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND,
                        "weights": None}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch), *extra)
        assert code == expected
        first, second = (json.loads(line) for line in out.splitlines())
        assert first == dict(second, index=0)

    # null falls back to --mode, or to auto without it
    @pytest.mark.parametrize("extra,expected", [([], "exact"), (["--mode", "numeric"], "numeric")])
    def test_null_mode_decides_like_a_record_without_it(self, tmp_path, extra, expected):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND, "mode": None}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch), *extra)
        assert code == 0
        first, second = (json.loads(line) for line in out.splitlines())
        assert first == dict(second, index=0)
        assert first["mode"] == expected


    def test_deeply_nested_record_does_not_end_the_batch(self, tmp_path):
        deep = "(" * 3000 + "Y^2-X^3" + ")" * 3000
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": deep, "second": PAIR_SECOND}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {
            "error": "nesting too deep (at position 200)", "index": 0}
        assert records[1]["status"] == "Equivalent"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_does_not_end_the_batch(self, tmp_path, source):
        # json.loads parses 3,000 levels on Python 3.13 and raises
        # RecursionError at 100,000 on 3.10 to 3.13
        good = json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND})
        text = good + "\n" + "[" * 100_000 + "]" * 100_000 + "\n" + good + "\n"
        if source == "file":
            batch = tmp_path / "pairs.jsonl"
            batch.write_text(text)
            code, out, err = run_cli("decide-batch", str(batch))
        else:
            code, out, err = run_cli("decide-batch", "-", stdin=text)
        assert (code, err) == (65, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert [record["index"] for record in records] == [0, 1, 2]
        assert records[0]["status"] == records[2]["status"] == "Equivalent"
        assert sorted(records[1]) == ["error", "index"]
        assert records[1]["error"].startswith("maximum recursion depth exceeded")

    @pytest.mark.parametrize("line, kind", [
        ("[1,2]", "list"), ('"abc"', "str"), ("5", "int"), ("2.5", "float"),
        ("null", "NoneType"), ("true", "bool"),
    ])
    def test_record_that_is_not_an_object(self, line, kind):
        good = json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND})
        code, out, _ = run_cli("decide-batch", "-", stdin=f"{line}\n{good}\n")
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"error": f"record must be a JSON object, got {kind}", "index": 0}
        assert records[1]["status"] == "Equivalent"

    def test_superscript_record_is_a_parse_error(self, tmp_path):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": "Y^2 - X^\u00b3", "second": PAIR_SECOND}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        code, out, _ = run_cli("decide-batch", str(batch))
        assert code == 65
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {
            "error": "expected an unsigned integer exponent (at position 8)", "index": 0}
        assert records[1]["status"] == "Equivalent"

    def test_record_over_the_degree_limit_does_not_end_the_batch(self, tmp_path):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": "Y^30000000 - X^30000000", "second": PAIR_SECOND}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": "(X+Y)^100000"}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli("decide-batch", str(batch))
        assert time.perf_counter() - start < 5
        assert code == 65
        assert "Traceback" not in err
        records = [json.loads(line) for line in out.splitlines()]
        assert records[:2] == [
            {"error": "exponent 30000000 exceeds the limit 1000 (at position 2)", "index": 0},
            {"error": "exponent 100000 exceeds the limit 1000 (at position 6)", "index": 1},
        ]
        assert records[2]["status"] == "Equivalent"

    def test_record_over_the_coefficient_limit_does_not_end_the_batch(self, tmp_path):
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(
            json.dumps({"first": "((2)^1000)^1000*Y^2 - X^3", "second": PAIR_SECOND}) + "\n"
            + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli("decide-batch", str(batch))
        assert time.perf_counter() - start < 1
        assert code == 65
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"error": "power with coefficients of up to 1002000 bits exceeds "
                                       "the limit 4096 bits (at position 0)", "index": 0}
        assert records[1]["status"] == "Equivalent"

    def test_record_over_the_work_limit_does_not_end_the_batch(self):
        text = (json.dumps({"first": PAIR_FIRST, "second": "(X+Y+1)^1000"}) + "\n"
                + json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli("decide-batch", "-", stdin=text)
        assert time.perf_counter() - start < 1
        assert code == 65
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"error": "product of 561 by 561 terms exceeds the limit "
                                       "65536 term pairs (at position 0)", "index": 0}
        assert records[1]["status"] == "Equivalent"

    def test_record_whose_texts_are_not_strings_does_not_end_the_batch(self):
        text = "".join(json.dumps(item) + "\n" for item in (
            {"first": [0], "second": PAIR_SECOND},
            {"first": PAIR_FIRST, "second": {"a": 1}},
            {"first": PAIR_FIRST, "second": PAIR_SECOND},
        ))
        code, out, err = run_cli("decide-batch", "-", stdin=text)
        assert code == 65
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert records[:2] == [
            {"error": "polynomial text must be a string, got list", "index": 0},
            {"error": "polynomial text must be a string, got dict", "index": 1},
        ]
        assert records[2]["status"] == "Equivalent"

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        text = "".join(
            json.dumps({"id": f"a{sep}b", "first": "Y^2-X^3", "second": "Y^2-8*X^3"},
                       ensure_ascii=False) + "\n"
            for sep in ("\u2028", "\u2029"))
        batch = tmp_path / "pairs.jsonl"
        batch.write_text(text, encoding="utf-8")
        for result in (run_cli("decide-batch", str(batch)),
                       run_cli("decide-batch", "-", stdin=text)):
            code, out, _ = result
            assert code == 0
            records = [json.loads(line) for line in out.splitlines()]
            assert [r["id"] for r in records] == ["a\u2028b", "a\u2029b"]
            assert [r["status"] for r in records] == ["Equivalent", "Equivalent"]

    def test_lone_carriage_return_reads_alike_from_file_and_stdin(self, tmp_path):
        text = "\r".join(json.dumps({"first": "Y^2-X^3", "second": "Y^2-8*X^3"})
                         for _ in range(2)) + "\n"
        batch = tmp_path / "pairs.jsonl"
        batch.write_bytes(text.encode())
        from_file = run_cli("decide-batch", str(batch))
        assert from_file[0] == 65
        assert len(from_file[1].splitlines()) == 1
        assert run_cli("decide-batch", "-", stdin=text) == from_file

    def test_undecodable_line_reads_alike_from_file_and_stdin(self, tmp_path):
        record = json.dumps({"first": "Y^2-X^3", "second": "Y^2-8*X^3"}).encode()
        data = record + b"\n\xff\xfe\n" + record + b"\n"
        batch = tmp_path / "pairs.jsonl"
        batch.write_bytes(data)
        from_file = run_cli("decide-batch", str(batch))
        assert from_file[0] == 65
        lines = [json.loads(line) for line in from_file[1].splitlines()]
        assert [line["index"] for line in lines] == [0, 1, 2]
        assert "error" in lines[1] and lines[2]["status"] == "Equivalent"
        # standard input decodes with surrogateescape
        stdin = data.decode("utf-8", "surrogateescape")
        assert run_cli("decide-batch", "-", stdin=stdin) == from_file

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_input_error(self, tmp_path, kind):
        path = tmp_path / "missing.jsonl" if kind == "missing" else tmp_path
        code, out, err = run_cli("decide-batch", str(path))
        assert (code, out) == (66, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": '{path}'\n")

    def test_crlf_input_gives_the_same_records(self, tmp_path):
        lines = [
            json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND}),
            "",
            "not json {",
            json.dumps({"first": "Y^2-X^3", "second": "Y^2-2*X^3"}),
        ]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        expected = run_cli("decide-batch", str(lf))
        assert expected[0] == 65
        assert len(expected[1].splitlines()) == 3
        assert run_cli("decide-batch", str(crlf)) == expected
        assert run_cli("decide-batch", "-", stdin="\r\n".join(lines) + "\r\n") == expected


class TestPrecisionEnvironment:
    def test_env_override(self):
        _, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND, "--json",
                            "--witness", env={"QHGERM_PRECISION": "256"})
        assert json.loads(out)["verification"]["precision"] == 256

    def test_flag_beats_env(self):
        _, out, _ = run_cli("decide", PAIR_FIRST, PAIR_SECOND, "--json",
                            "--witness", "--precision", "128",
                            env={"QHGERM_PRECISION": "256"})
        assert json.loads(out)["verification"]["precision"] == 128

    def test_invalid_env_is_usage_error(self):
        code, _, err = run_cli("decide", PAIR_FIRST, PAIR_SECOND,
                               env={"QHGERM_PRECISION": "abc"})
        assert code == 64
        assert "QHGERM_PRECISION" in err

    def test_invalid_env_is_usage_error_for_roots(self):
        code, out, err = run_cli("roots", "Y^2-X^3", env={"QHGERM_PRECISION": "abc"})
        assert (code, out) == (64, "")
        assert "QHGERM_PRECISION" in err

    @pytest.mark.parametrize("argv", [("analyze", "Y^2-X^3"), ("demo-whitney", "2", "3")])
    def test_env_is_not_read_without_a_precision_option(self, argv):
        code, out, err = run_cli(*argv, env={"QHGERM_PRECISION": "abc"})
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("bits", [cli.MAX_PRECISION + 1, 16384, 10000000])
    def test_flag_over_the_maximum_is_usage_error(self, bits):
        start = time.perf_counter()
        code, out, err = run_cli("decide", "Y^2-1.5*X^3", "Y^2-X^3", "--precision", str(bits))
        assert time.perf_counter() - start < 1
        assert code == 64
        assert out == ""
        assert err == f"qhgerm: error: precision must be at most {cli.MAX_PRECISION} bits\n"

    def test_env_over_the_maximum_is_usage_error(self):
        code, out, err = run_cli("decide", "Y^2-3*X^3", "Y^2-X^3", "--witness",
                                 env={"QHGERM_PRECISION": str(cli.MAX_PRECISION + 1)})
        assert code == 64
        assert out == ""
        assert err == f"qhgerm: error: precision must be at most {cli.MAX_PRECISION} bits\n"

    def test_maximum_precision_works(self):
        assert cli.MAX_PRECISION == 8192
        code, out, err = run_cli("decide", "Y^2-3*X^3", "Y^2-X^3", "--witness", "--json",
                                 "--precision", str(cli.MAX_PRECISION))
        assert (code, err) == (0, "")
        verification = json.loads(out)["verification"]
        assert verification["precision"] == cli.MAX_PRECISION
        assert verification["mode"] == "exact" and verification["pass"]
        code, out, _ = run_cli("decide", "Y^2-1.5*X^3", "Y^2-X^3",
                               env={"QHGERM_PRECISION": str(cli.MAX_PRECISION)})
        assert code == 0
        assert out.startswith("verdict: Equivalent (numeric)\n")


class TestInstalledEntryPoint:
    """The shipped command, exercised through real processes.

    The program run is the ``qhgerm`` console script when it is installed
    on ``PATH``; otherwise it is ``python -m qhgerm.cli`` on the tree under
    test, which calls the same ``run()`` that the script wraps.
    """

    def _command(self):
        path = shutil.which("qhgerm")
        if path is not None:
            return [path]
        return [sys.executable, "-m", "qhgerm.cli"]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
        return env

    def _run(self, argv, stdin=None):
        return subprocess.run(self._command() + argv, input=stdin,
                              capture_output=True, env=self._env(),
                              timeout=120)

    def test_json_output_is_byte_identical(self):
        argv = ["decide", PAIR_FIRST, PAIR_SECOND, "--json", "--witness"]
        first = self._run(argv)
        second = self._run(argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_batch_over_stdin(self):
        line = json.dumps({"first": PAIR_FIRST, "second": PAIR_SECOND})
        proc = self._run(["decide-batch", "-"], stdin=(line + "\n").encode())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "Equivalent"

    def test_no_arguments_is_usage_error(self):
        proc = self._run([])
        assert proc.returncode == 64

    def test_reader_closing_early_exits_141_quietly(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        record = {"first": PAIR_FIRST, "second": PAIR_SECOND}
        path.write_text("".join(
            json.dumps(dict(record, id=f"pair-{n:03d}")) + "\n" for n in range(400)))
        proc = subprocess.Popen(self._command() + ["decide-batch", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self._env())
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert json.loads(first)["id"] == "pair-000"
        assert err == b""
        assert proc.returncode == 141

    def test_closed_pipe_before_output_exits_141_quietly(self):
        proc = subprocess.Popen(
            self._command() + ["decide", PAIR_FIRST, PAIR_SECOND, "--witness", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 141

    @pytest.mark.skipif(not PYPROJECT.is_file(),
                        reason="pyproject.toml is not beside the tests")
    def test_console_script_targets_run(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts["qhgerm"] == "qhgerm.cli:run"


def _readme_examples():
    """(command, expected stdout) for every `$ qhgerm ...` block of README.md."""
    if not README.is_file():
        return []
    examples = []
    lines = README.read_text(encoding="utf-8").splitlines()
    for n, line in enumerate(lines):
        match = re.fullmatch(r"    \$ (qhgerm .*)", line)
        if match is None:
            continue
        output = []
        for follow in lines[n + 1:]:
            if not follow.startswith("    ") or follow.lstrip().startswith("$ "):
                break
            output.append(follow[4:] + "\n")
        examples.append((match.group(1), "".join(output)))
    return examples


README_EXAMPLES = _readme_examples()


def _readme_python_blocks():
    """The source of every ```python block of README.md."""
    if not README.is_file():
        return []
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


class TestReadme:
    @pytest.mark.skipif(not README.is_file(), reason="README.md is not beside the tests")
    def test_examples_are_found(self):
        assert len(README_EXAMPLES) >= 5

    @pytest.mark.parametrize("command,expected", README_EXAMPLES,
                             ids=[command for command, _ in README_EXAMPLES])
    def test_example_output_is_byte_exact(self, command, expected):
        _, out, _ = run_cli(*shlex.split(command)[1:])
        assert out == expected

    @pytest.mark.skipif(not README.is_file(), reason="README.md is not beside the tests")
    def test_library_example_runs(self):
        blocks = _readme_python_blocks()
        assert blocks
        for source in blocks:
            exec(compile(source, "README.md", "exec"), {})


# Runs cli.run on argv in a fresh interpreter and reports the exit code, the
# output and whether mpmath was imported along the way.
_PROBE = """
import io, json, sys
import qhgerm.cli
out = io.StringIO()
sys.stdout, real = out, sys.stdout
try:
    code = qhgerm.cli.run(sys.argv[1:])
finally:
    sys.stdout = real
print(json.dumps({"code": code, "out": out.getvalue(), "mpmath": "mpmath" in sys.modules,
                  "slow_start": sorted({"dataclasses", "inspect"} & sys.modules.keys())}))
"""


class TestMpmathLoadedOnFirstUse:
    """The exact route runs without importing mpmath; the numeric paths load it.

    Nothing loads dataclasses, inspect or typing, which would add their
    import time to every process.
    """

    def _python(self, *args, stdin=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.stderr == ""
        return proc.stdout

    def _probe(self, *argv, stdin=None):
        doc = json.loads(self._python("-c", _PROBE, *argv, stdin=stdin))
        # the same exit code and bytes as a run in this process, where
        # mpmath is loaded already
        assert (doc["code"], doc["out"]) == run_cli(*argv, stdin=stdin)[:2]
        return doc

    @pytest.mark.parametrize("module", ["qhgerm", "qhgerm.cli"])
    def test_import_does_not_load_mpmath(self, module):
        out = self._python("-c", f"import sys, {module}; print('mpmath' in sys.modules)")
        assert out == "False\n"

    @pytest.mark.parametrize("module", ["qhgerm", "qhgerm.cli"])
    def test_import_does_not_load_dataclasses_or_inspect(self, module):
        out = self._python("-c", f"import sys, {module}; "
                                 "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
        assert out == "[]\n"

    @pytest.mark.parametrize("module", ["qhgerm", "qhgerm.cli"])
    def test_import_does_not_load_typing(self, module):
        # -S skips site-packages and the start-up hooks there, which may
        # import typing themselves
        out = self._python("-S", "-c", f"import sys, {module}; print('typing' in sys.modules)")
        assert out == "False\n"

    def test_numeric_names_import_without_mpmath(self):
        out = self._python("-c", "import sys; from qhgerm import find_roots, NumericMatch, "
                                 "UniPoly, gq; "
                                 "print('mpmath' in sys.modules, NumericMatch.__name__, "
                                 "[str(r.value) for r in find_roots(UniPoly((gq(1), gq(-2))))], "
                                 "'mpmath' in sys.modules)")
        assert out == "False NumericMatch ['(2.0 + 0.0j)'] True\n"

    @pytest.mark.parametrize("argv", [
        ("analyze", PAIR_FIRST),
        ("analyze", PAIR_FIRST, "--json"),
        ("decide", PAIR_FIRST, PAIR_SECOND),
        ("decide", PAIR_FIRST, PAIR_SECOND, "--json"),
        ("decide", "(Y-X^2)*(Y-2*X^2)", "(Y-X^2)*(Y-5*X^2)", "--json"),
        ("demo-whitney", "2", "1/2"),
    ])
    def test_exact_commands_do_not_load_mpmath(self, argv):
        assert self._probe(*argv)["mpmath"] is False

    EXACT_BATCH = "".join(json.dumps(record) + "\n" for record in (
        {"id": "a", "first": PAIR_FIRST, "second": PAIR_SECOND},
        {"id": "b", "first": "Y^2-X^3", "second": "Y^2-X^5"},
        {"id": "c", "first": "Y^2-X^3", "second": "Y^2-1/0"},
    ))

    def test_exact_batch_does_not_load_mpmath(self):
        doc = self._probe("decide-batch", "-", stdin=self.EXACT_BATCH)
        assert doc["code"] == 65
        assert doc["mpmath"] is False

    def test_exact_batch_does_not_load_dataclasses_or_inspect(self):
        doc = self._probe("decide-batch", "-", stdin=self.EXACT_BATCH)
        assert doc["code"] == 65
        assert doc["slow_start"] == []

    @pytest.mark.parametrize("argv, stdin", [
        pytest.param(("decide", "--witness", "Y^2 - X^3", "4*Y^2 - X^3"), None,
                     id="rational-witness"),
        pytest.param(("decide", "--witness", "(Y-X^2)*(Y-2*X^2)", "Y*(Y-X^2)"), None,
                     id="shear-witness"),
        pytest.param(("decide-batch", "-"), "".join(json.dumps(record) + "\n" for record in (
            {"id": "a", "first": "Y^2 - X^3", "second": "4*Y^2 - X^3"},
            {"id": "b", "first": "(Y-X^2)*(Y-2*X^2)", "second": "Y*(Y-X^2)"},
        )), id="exact-batch"),
    ])
    def test_exact_witness_runs_with_mpmath_blocked(self, argv, stdin):
        # an import of mpmath raises ImportError once sys.modules maps it to None
        blocked = json.loads(self._python(
            "-c", "import sys; sys.modules['mpmath'] = None\n" + _PROBE, *argv, stdin=stdin))
        free = self._probe(*argv, stdin=stdin)
        assert blocked["code"] == free["code"] == 0
        assert blocked["out"] == free["out"]
        if argv[0] == "decide":
            assert "verification: exact pass\n" in blocked["out"]

    @pytest.mark.parametrize("argv", [
        ("roots", PAIR_FIRST),
        ("roots", "Y^2-2*X^4*Y+1/3*X^8", "--json"),
        ("decide", PAIR_FIRST, PAIR_SECOND, "--witness"),
        ("decide", "Y^2-X^3", "Y^2-3*X^3", "--witness", "--json"),
        ("decide", "Y^2-1.5*X^3", "Y^2-X^3"),
    ])
    def test_numeric_commands_load_mpmath(self, argv):
        assert self._probe(*argv)["mpmath"] is True

    def test_numeric_batch_record_loads_mpmath(self):
        text = "".join(json.dumps(record) + "\n" for record in (
            {"first": PAIR_FIRST, "second": PAIR_SECOND},
            {"first": "Y^2-1.5*X^3", "second": "Y^2-X^3"},
        ))
        doc = self._probe("decide-batch", "-", stdin=text)
        assert doc["code"] == 0
        assert [json.loads(line)["mode"] for line in doc["out"].splitlines()] == [
            "exact", "numeric"]
        assert doc["mpmath"] is True


class TestPublicNames:
    def test_cli_takes_only_public_names(self):
        # every name cli.py imports from a package module, or reads off one
        # it imports whole (engine.decide_equivalence), is in qhgerm.__all__
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        modules, taken = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    (modules if node.module is None else taken).add(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                taken.add(node.attr)
        assert "witness_to_mpc" in taken
        assert sorted(taken - set(qhgerm.__all__)) == []
