"""Command line front end: qhgerm analyze | decide | roots | demo-whitney | decide-batch.

Each subcommand takes only the shared options it reads (_COMMAND_OPTIONS);
any other is a usage error. run() turns the command line into values and
reports every usage error; the command functions only decide and print.
Exit codes: 0 Equivalent (or informational success), 1 Inequivalent,
2 NotApplicable, 64 usage (including a decide --file that does not hold
exactly two nonblank lines), 65 parse error, 66 analysis error or an input
file that cannot be read, 141 standard output closed by its reader
(128 + SIGPIPE). JSON output is versioned (schemaVersion 1) and
byte-identical across identical invocations. QHGERM_PRECISION overrides the
default 128-bit precision of the commands that take --precision: decide,
roots and decide-batch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine
from .engine import (
    MIN_PRECISION,
    STATUS_EQUIVALENT,
    STATUS_INEQUIVALENT,
    STATUS_NOT_APPLICABLE,
    RadicalScalar,
    ScaleClass,
    ShearTerm,
)
from .errors import (
    BranchOutOfRangeError,
    NotEquivalentVerdictError,
    ParseError,
    QhgermError,
)
from .exact import GaussianRational, format_unipoly
from .numeric import NumericMatch
from .polyio import format_poly, parse_poly
from .structure import analyze_germ

SCHEMA_VERSION = 1

EXIT_EQUIVALENT = 0
EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_NOT_APPLICABLE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_ANALYSIS = 66
EXIT_BROKEN_PIPE = 141

# Upper bound on --precision and QHGERM_PRECISION. At 16384 bits a radical
# witness fails on Python's 4300-digit limit for converting an int to text,
# and a decimal input at ten million bits runs for more than 25 s.
MAX_PRECISION = 8192

_STATUS_EXIT = {
    STATUS_EQUIVALENT: EXIT_EQUIVALENT,
    STATUS_INEQUIVALENT: EXIT_INEQUIVALENT,
    STATUS_NOT_APPLICABLE: EXIT_NOT_APPLICABLE,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool documents."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _weights_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers p,q")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be integers")


# The options several subcommands share, and the ones each subcommand reads.
_OPTIONS = {
    "--weights": {"type": _weights_arg, "default": None, "metavar": "p,q",
                  "help": "fix the weights instead of inferring them"},
    "--mode": {"choices": ("exact", "numeric", "auto"), "default": "auto"},
    "--precision": {"type": int, "default": None, "metavar": "BITS",
                    "help": f"working precision in bits ({MIN_PRECISION} to "
                            f"{MAX_PRECISION}, default {engine.DEFAULT_PRECISION}, "
                            "or QHGERM_PRECISION when set)"},
    "--tol": {"type": float, "default": engine.DEFAULT_TOL, "metavar": "X",
              "help": "numeric clustering/matching tolerance"},
    "--json": {"action": "store_true", "help": "emit JSON"},
}
_COMMAND_OPTIONS = {
    "analyze": ("--weights", "--json"),
    "decide": ("--weights", "--mode", "--precision", "--tol", "--json"),
    "roots": ("--weights", "--precision", "--tol", "--json"),
    "demo-whitney": ("--json",),
    "decide-batch": ("--weights", "--mode", "--precision", "--tol"),
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="qhgerm",
        description="decide right-equivalence of quasihomogeneous plane germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for option in _COMMAND_OPTIONS[name]:
            command.add_argument(option, **_OPTIONS[option])
        return command

    p_analyze = add_command("analyze", _cmd_analyze,
                            "weights, class and canonical form of one germ")
    p_analyze.add_argument("poly")

    p_decide = add_command("decide", _cmd_decide, "decide equivalence of two germs")
    p_decide.add_argument("first", nargs="?")
    p_decide.add_argument("second", nargs="?")
    p_decide.add_argument("--file", default=None,
                          help="read the two polynomials from a file of exactly "
                               "two nonblank lines")
    p_decide.add_argument("--witness", action="store_true",
                          help="construct and verify an explicit coordinate change")
    p_decide.add_argument("--branch", type=int, default=None, metavar="N",
                          help="scale branch for the witness (default: prefer rational)")

    p_roots = add_command("roots", _cmd_roots, "ladder root multiset of one germ")
    p_roots.add_argument("poly")

    p_demo = add_command("demo-whitney", _cmd_demo_whitney,
                         "four-line quartics: cross-ratio moduli comparison")
    p_demo.add_argument("t")
    p_demo.add_argument("s")

    p_batch = add_command("decide-batch", _cmd_decide_batch,
                          "decide JSON-lines pairs from a file or stdin")
    p_batch.add_argument("path", nargs="?", default="-")
    return parser


def _emit(doc: dict, out) -> None:
    out.write(json.dumps(doc, sort_keys=True, indent=2))
    out.write("\n")


def _approx_str(z, precision: int) -> str:
    """17 significant digits of an mpc, without components below 2^-precision * |z|."""
    from mpmath import mp, mpc, mpf
    with mp.workprec(precision + 20):
        floor = abs(z) * mpf(2) ** -precision
        z = mpc(z.real if abs(z.real) > floor else 0, z.imag if abs(z.imag) > floor else 0)
        return mp.nstr(z, 17)


def _scalar_json(scalar, approx: str) -> dict:
    if isinstance(scalar, GaussianRational):
        return {"kind": "rational", "base": str(scalar), "index": 1, "branch": 0,
                "approx": approx}
    if isinstance(scalar, RadicalScalar):
        return {"kind": "radical", "base": str(scalar.base), "index": scalar.index,
                "branch": scalar.branch, "approx": approx}
    if isinstance(scalar, ShearTerm):
        return {"kind": "shear", "alphaPower": str(scalar.alpha_coeff),
                "beta": str(scalar.beta_coeff), "approx": approx}
    raise TypeError(f"unexpected scalar {type(scalar).__name__}")


def _match_json(match, precision: int):
    if match is None:
        return None
    if isinstance(match, ScaleClass):
        centers = match.centers
        return {"d": match.d, "base": str(match.base), "indices": list(match.indices),
                "shift": None if centers is None
                else {"first": str(centers[0]), "second": str(centers[1])}}
    if isinstance(match, NumericMatch):
        return {"numeric": True, "scale": _approx_str(match.scale, precision),
                "shift": None if match.shift is None
                else _approx_str(match.shift, precision)}
    raise TypeError(f"unexpected match {type(match).__name__}")


def _verdict_json(verdict, precision: int) -> dict:
    return {
        "status": verdict.status,
        "mode": verdict.mode,
        "reason": verdict.reason,
        "invariants": verdict.invariants,
        "match": _match_json(verdict.match, precision),
    }


def _witness_json(witness, precision: int) -> dict:
    alpha, beta, gamma = engine.witness_to_mpc(witness, precision)
    doc = {
        "alpha": _scalar_json(witness.alpha, _approx_str(alpha, precision)),
        "beta": _scalar_json(witness.beta, _approx_str(beta, precision)),
        "gamma": None if witness.gamma is None
        else _scalar_json(witness.gamma, _approx_str(gamma, precision)),
        "scale": _scalar_json(witness.scale, _approx_str(
            engine.scalar_to_mpc(witness.scale, precision), precision)),
        "branch": witness.branch,
        "direction": "forward",
        "substitution": _substitution_text(witness),
    }
    return doc


def _substitution_text(witness) -> str:
    q = witness.weights.q
    if witness.gamma is None:
        return "X -> alpha*X, Y -> beta*Y"
    return f"X -> alpha*X, Y -> beta*Y + gamma*X^{q}"


def _verification_json(report) -> dict:
    # every check is exact; residual, tol and samples keep the report's shape
    return {
        "mode": "exact",
        "pass": report.passed,
        "residual": report.max_residual,
        "tol": report.tol,
        "samples": report.samples,
        "precision": report.precision,
    }


def _canonical_json(analysis) -> dict:
    form = analysis.canonical
    return {
        "c0": str(form.c0),
        "m": form.m,
        "m0": form.m0,
        "ladder": [str(c) for c in form.ladder.coeffs],
    }


def _cmd_analyze(args, out) -> int:
    poly = parse_poly(args.poly)
    analysis = analyze_germ(poly, args.weights)
    w = analysis.weights
    if args.json:
        _emit({
            "schemaVersion": SCHEMA_VERSION,
            "command": "analyze",
            "inputs": {"poly": format_poly(poly)},
            "weights": {"p": w.p, "q": w.q, "nu": w.nu},
            "class": analysis.germ_class,
            "canonical": _canonical_json(analysis),
            "ord0": analysis.ord_at_origin,
        }, out)
    else:
        form = analysis.canonical
        out.write(f"class: {analysis.germ_class}\n")
        out.write(f"weights: p={w.p} q={w.q} nu={w.nu}\n")
        out.write(
            f"canonical: c0={form.c0} m={form.m} m0={form.m0} "
            f"ladder={format_unipoly(form.ladder)}\n"
        )
        out.write(f"ord0: {analysis.ord_at_origin}\n")
    return EXIT_OK


def _cmd_decide(args, out) -> int:
    first = parse_poly(args.first)
    second = parse_poly(args.second)
    precision = args.precision
    verdict = engine.decide_equivalence(
        first, second, args.weights, args.mode, precision, args.tol
    )
    witness = None
    report = None
    refusal = None
    if verdict.status == STATUS_EQUIVALENT and args.witness:
        try:
            witness = engine.build_witness(first, second, verdict, args.branch, precision)
        except NotEquivalentVerdictError as exc:
            # a numeric verdict the exact matcher cannot back: print the
            # verdict as without --witness, then report the refusal
            refusal = exc
        else:
            report = engine.verify_witness(first, second, witness, precision=precision)
    if args.json:
        doc = {
            "schemaVersion": SCHEMA_VERSION,
            "command": "decide",
            "inputs": {"first": format_poly(first), "second": format_poly(second)},
            "verdict": _verdict_json(verdict, precision),
        }
        if witness is not None:
            doc["witness"] = _witness_json(witness, precision)
            doc["verification"] = _verification_json(report)
        _emit(doc, out)
    else:
        out.write(f"verdict: {verdict.status} ({verdict.mode})\n")
        if verdict.reason:
            out.write(f"reason: {verdict.reason}\n")
        inv = verdict.invariants["first"]
        out.write(
            f"invariants: p={inv['p']} q={inv['q']} nu={inv['nu']} "
            f"m={inv['m']} m0={inv['m0']} ladderDegree={inv['ladderDegree']}\n"
        )
        match = _match_json(verdict.match, precision)
        if match is not None:
            out.write(f"match: {json.dumps(match, sort_keys=True)}\n")
        if witness is not None:
            out.write(f"witness: {_substitution_text(witness)}\n")
            out.write(f"  alpha = {witness.alpha}\n")
            out.write(f"  beta  = {witness.beta}\n")
            if witness.gamma is not None:
                out.write(f"  gamma = {witness.gamma}\n")
            out.write(f"verification: exact {'pass' if report.passed else 'FAIL'}\n")
    if refusal is not None:
        raise refusal
    return _STATUS_EXIT[verdict.status]


def _cmd_roots(args, out) -> int:
    poly = parse_poly(args.poly)
    analysis = analyze_germ(poly, args.weights)
    entries = [
        {"value": str(value) if exact else _approx_str(value, args.precision),
         "multiplicity": multiplicity, "exact": exact}
        for value, multiplicity, exact in engine.ladder_roots(
            analysis.canonical.ladder, args.precision, args.tol)
    ]
    w = analysis.weights
    if args.json:
        _emit({
            "schemaVersion": SCHEMA_VERSION,
            "command": "roots",
            "inputs": {"poly": format_poly(poly)},
            "class": analysis.germ_class,
            "weights": {"p": w.p, "q": w.q, "nu": w.nu},
            "roots": entries,
        }, out)
    else:
        out.write(f"class: {analysis.germ_class}\n")
        if not entries:
            out.write("no ladder roots (empty ladder)\n")
        for entry in entries:
            tag = "exact" if entry["exact"] else "approx"
            out.write(
                f"root {entry['value']} multiplicity {entry['multiplicity']} ({tag})\n"
            )
    return EXIT_OK


def _parse_scalar_arg(text: str) -> GaussianRational:
    poly = parse_poly(text)
    terms = dict(poly.terms)
    if terms and set(terms) != {(0, 0)}:
        raise ParseError("expected a constant value", 0)
    return terms.get((0, 0), GaussianRational())


def _config_json(config) -> list:
    return ["inf" if z is None else str(z) for z in config]


def _cmd_demo_whitney(args, out) -> int:
    t = _parse_scalar_arg(args.t)
    s = _parse_scalar_arg(args.s)
    result = engine.whitney_compare(t, s)
    if args.json:
        doc = {
            "schemaVersion": SCHEMA_VERSION,
            "command": "demo-whitney",
            "inputs": {"first": str(t), "second": str(s)},
            "jEqual": result["jEqual"],
            # always NotApplicable, so no numeric match to format at a precision
            "verdict": _verdict_json(result["verdict"], engine.DEFAULT_PRECISION),
        }
        for key in ("first", "second"):
            side = result[key]
            doc[key] = {
                "t": str(side["t"]),
                "poly": format_poly(side["poly"]),
                "config": _config_json(side["config"]),
                "crossRatio": str(side["crossRatio"]),
                "j": str(side["j"]),
            }
        _emit(doc, out)
    else:
        for key in ("first", "second"):
            side = result[key]
            out.write(
                f"t = {side['t']}: config {_config_json(side['config'])} "
                f"cross-ratio {side['crossRatio']} j = {side['j']}\n"
            )
        word = "equal" if result["jEqual"] else "distinct"
        out.write(f"configurations are {word} under the ordering-free invariant\n")
        out.write(
            f"germ decider: {result['verdict'].status} "
            f"({result['verdict'].reason})\n"
        )
    return EXIT_OK


def _cmd_decide_batch(args, out) -> int:
    if args.path == "-":
        return _decide_lines(sys.stdin, args, out)
    # newline="\n" ends records at "\n" only, as on stdin; strip() drops a "\r".
    # surrogateescape, as on stdin, makes a line that is not UTF-8 one bad record
    with open(args.path, encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        return _decide_lines(handle, args, out)


def _decide_lines(handle, args, out) -> int:
    """Decide one JSON record per line, reading the handle line by line."""
    failed = False
    index = 0
    for line in handle:
        line = line.strip()
        if not line:
            continue
        record = {"index": index}
        try:
            item = json.loads(line)
            if not isinstance(item, dict):
                raise TypeError(f"record must be a JSON object, got {type(item).__name__}")
            first = parse_poly(item["first"])
            second = parse_poly(item["second"])
            # a record's weights are checked as --weights is, by analyze_germ;
            # null weights or mode mean the key is absent
            weights = item.get("weights")
            if weights is None:
                weights = args.weights
            mode = item.get("mode")
            if mode is None:
                mode = args.mode
            verdict = engine.decide_equivalence(
                first, second, weights, mode, args.precision, args.tol
            )
            if "id" in item:
                record["id"] = item["id"]
            record["status"] = verdict.status
            record["mode"] = verdict.mode
            record["reason"] = verdict.reason
        # json.loads raises RecursionError on a line nested too deeply
        except (QhgermError, ValueError, KeyError, TypeError, RecursionError) as exc:
            record["error"] = str(exc)
            failed = True
        out.write(json.dumps(record, sort_keys=True))
        out.write("\n")
        index += 1
    return EXIT_PARSE if failed else EXIT_OK


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # --precision and --tol come together, on decide, roots and decide-batch
    if "precision" in args:
        if args.precision is None:
            raw = os.environ.get("QHGERM_PRECISION", engine.DEFAULT_PRECISION)
            try:
                args.precision = int(raw)
            except ValueError:
                parser.error(f"QHGERM_PRECISION is not an integer: {raw!r}")
        if args.precision < MIN_PRECISION:
            parser.error(f"precision must be at least {MIN_PRECISION} bits")
        if args.precision > MAX_PRECISION:
            parser.error(f"precision must be at most {MAX_PRECISION} bits")
        if not 0 < args.tol < 1:
            parser.error("tol must lie strictly between 0 and 1")
    if args.command == "decide":
        if args.file is not None and args.first is not None:
            parser.error("give two polynomials or --file, not both")
        if args.file is None and args.second is None:
            parser.error("decide needs two polynomials or --file")
        if args.branch is not None:
            if args.branch < 0:
                parser.error("branch must be nonnegative")
            if not args.witness:
                parser.error("--branch needs --witness")
    try:
        # read here, so that a file that cannot be read exits 66
        if getattr(args, "file", None) is not None:
            with open(args.file, encoding="utf-8") as handle:
                lines = [line.strip() for line in handle if line.strip()]
            if len(lines) != 2:
                parser.error(f"{args.file} must hold exactly two polynomial lines")
            args.first, args.second = lines
        code = args.handler(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Python flushes stdout once more at exit, so
        # point it at the null device to keep that flush quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # an input file that cannot be read
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ANALYSIS
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except BranchOutOfRangeError as exc:
        parser.error(str(exc))
    except (QhgermError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(run())
