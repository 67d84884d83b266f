"""One benchmark process: import qhgerm, warm up, run the ops, report.

    python3 bench/worker.py MODE INPUT OUTPUT

MODE is "setup" (import and warm-up only), "run" (the timed ops, with no
wrapper installed, and a calibration block of bench/calibrate.py after
every "cal_every" ops) or "trace" (the same ops under bench/tracing.py). INPUT
is a JSON file {"workload", "warmup", "ops", ...} written by bench/run.py;
OUTPUT receives the timings and the program's outputs, which run.py checks.
The process imports qhgerm from the PYTHONPATH run.py sets, i.e. from the
src/ tree of the checkout.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout

import procs
import qhgerm
from qhgerm import cli, engine, polyio
from qhgerm.exact import GaussianRational


def _gq(value):
    return [str(value.re), str(value.im)]


def _scalar(value):
    """The program's witness scalar as data the checks can read."""
    if value is None:
        return None
    if isinstance(value, GaussianRational):
        return {"kind": "rational", "value": _gq(value)}
    if isinstance(value, engine.RadicalScalar):
        return {"kind": "radical", "base": _gq(value.base), "index": value.index,
                "branch": value.branch}
    if isinstance(value, engine.ShearTerm):
        return {"kind": "shear", "alpha_coeff": _gq(value.alpha_coeff),
                "beta_coeff": _gq(value.beta_coeff)}
    raise TypeError(f"unexpected witness scalar {type(value).__name__}")


def _is_radical(witness):
    return not all(s is None or isinstance(s, GaussianRational)
                   for s in (witness.alpha, witness.beta, witness.gamma))


def decide_op(pair, with_witness):
    """parse both texts, decide, and for Equivalent pairs build and verify."""
    first = polyio.parse_poly(pair["first_text"])
    second = polyio.parse_poly(pair["second_text"])
    verdict = engine.decide_equivalence(first, second)
    if not with_witness or verdict.status != engine.STATUS_EQUIVALENT:
        return verdict, None, None
    witness = engine.build_witness(first, second, verdict)
    report = engine.verify_witness(first, second, witness)
    return verdict, witness, report


def peak_rss_mb():
    """High-water RSS of this process since its exec, in MB.

    ru_maxrss is not used: Linux folds the spawning parent's peak into it.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batch_op(path):
    """In-process decide-batch over one file: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(["decide-batch", path])
    return code, out.getvalue()


def main(argv):
    mode, input_path, output_path = argv
    with open(input_path, encoding="utf-8") as handle:
        job = json.load(handle)
    batch = job["workload"] == "cli_batch"
    with_witness = job["workload"] in ("exact_witness", "radical_witness")

    def run_op(item):
        return batch_op(item) if batch else decide_op(item, with_witness)

    for item in job["warmup"]:
        run_op(item)
    first_op = time.monotonic()
    if mode == "setup":
        _dump(output_path, {"first_op": first_op, "package": qhgerm.__file__})
        return
    tracer = None
    if mode == "trace":
        from tracing import CLI_BATCH_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        if batch:
            run_op = tracer.wrap(CLI_BATCH_SPAN, run_op)
    # a calibration block before the ops and after every chunk of them,
    # outside the timed chunks (bench/calibrate.py); none under the tracer
    chunk = job["cal_every"] if tracer is None else 0
    results, times, cal_times = [], [], []
    wall = 0.0
    with procs.Calibrator() if chunk else nullcontext() as calibrator:
        if chunk:
            cal_times.append(calibrator.block())
        start = time.perf_counter()
        for index, item in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                results.append(run_op(item))
            except Exception as exc:  # an op that raises is counted as failed
                results.append(exc)
            times.append(time.perf_counter() - t0)
            if chunk and (index + 1) % chunk == 0:
                wall += time.perf_counter() - start
                cal_times.append(calibrator.block())
                start = time.perf_counter()
        wall += time.perf_counter() - start
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    output = _batch_output if batch else _decide_output
    doc = {"first_op": first_op, "wall": wall, "op_times": times, "cal_times": cal_times,
           "peak_rss_mb": peak, "package": qhgerm.__file__,
           "outputs": [{"error": f"{type(r).__name__}: {r}"} if isinstance(r, Exception)
                       else output(r) for r in results]}
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(job["trace_path"])
        radical = sum(1 for r in results if not batch and not isinstance(r, Exception)
                      and r[1] is not None and _is_radical(r[1]))
        doc["traced_ops_per_s"] = len(times) / wall
        doc["traced_op_p50_ms"] = 1000.0 * statistics.median(times)
        doc["layers"] = layer_metrics(tracer, len(times), job["records"],
                                      engine.DEFAULT_PRECISION, radical,
                                      job["startup_ms"])
    _dump(output_path, doc)


def _batch_output(result):
    code, stdout = result
    return {"returncode": code, "stdout": stdout}


def _decide_output(result):
    verdict, witness, report = result
    out = {"status": verdict.status, "mode": verdict.mode}
    if witness is not None:
        out["witness"] = {"alpha": _scalar(witness.alpha), "beta": _scalar(witness.beta),
                          "gamma": _scalar(witness.gamma)}
        out["verified"] = report.passed
    return out


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
