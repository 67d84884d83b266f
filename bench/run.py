"""Benchmark of qhgerm's exact, radical, numeric and CLI decision paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing. The benchmark
builds its corpus from the seed (bench/corpus.py), runs the program on it in
child processes that import qhgerm from src/, checks every output outside
the timed section (bench/checks.py) and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with no wrapper installed; with
--trace 1 they are the per-layer ones of bench/tracing.py.

Every run of a workload does the same work for a given seed and --seconds:
the whole corpus in a fixed order after an untimed warm-up. --seconds only
sets how many rounds of the workload's fixed shape schedule the corpus
holds, never how long a loop keeps going. The timed metrics are scaled to
the reference host speed by calibration blocks (bench/calibrate.py) timed
between the timed sections, on the same CPU. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import checks
import corpus
import procs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# Seconds one round of each workload's schedule takes on the reference
# machine (bench/README.md); --seconds / ROUND_SECONDS rounds make a run.
ROUND_SECONDS = {
    "exact_witness": 0.24,
    "radical_witness": 0.54,
    "numeric_ladder": 2.0,
    "cli_batch": 0.15,
}
# ops between calibration blocks: about half a second of them
CAL_CHUNK_SECONDS = 0.5
SETUP_REPS = 7
STARTUP_REPS = 5
WARMUP_SEED = "warmup"


class ChildError(RuntimeError):
    pass


def pin_to_one_cpu():
    """Keep this process and all its children on one CPU.

    The CPUs of the reference host change speed independently of each
    other, so a calibration block only measures the speed the program ran
    at when both ran on the same CPU. The run's processes take turns, so
    one CPU is all they use.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed string hashing, so that traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, out_path, timeout=procs.CHILD_TIMEOUT):
    return procs.spawn(cmd, out_path, timeout, env=child_env(), cwd=ROOT)


def run_script(script, args, out_path, timeout=procs.CHILD_TIMEOUT):
    """Run bench/<script> with args and OUTPUT; return (start, its JSON output)."""
    cmd = [sys.executable, str(BENCH / script), *map(str, args), str(out_path)]
    log = f"{out_path}.log"
    start, _, code, _ = spawn(cmd, log, timeout)
    if code != 0:
        with open(f"{log}.err") as handle:
            tail = handle.read()[-2000:]
        raise ChildError(f"{script} {' '.join(map(str, args))} exited {code}:\n{tail}")
    with open(out_path) as handle:
        return start, json.load(handle)


def run_worker(mode, job_path, out_path, timeout=procs.CHILD_TIMEOUT):
    start, doc = run_script("worker.py", [mode, job_path], out_path, timeout)
    package = Path(doc["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise ChildError(f"worker imported qhgerm from {package}, not from {SRC}")
    return start, doc


def texts(pair):
    return {"first_text": pair["first_text"], "second_text": pair["second_text"]}


def build_corpus(workload, seed, rounds):
    if workload == "cli_batch":
        return corpus.cli_files(seed, rounds), corpus.cli_files(WARMUP_SEED, 1)
    if workload == "numeric_ladder":
        warm = corpus.numeric_pairs(WARMUP_SEED, 1)
        return corpus.numeric_pairs(seed, rounds), [warm[0], warm[2]]
    radical = workload == "radical_witness"
    warm = corpus.witness_pairs(WARMUP_SEED, 1, radical)
    return corpus.witness_pairs(seed, rounds, radical), [warm[0], warm[5], warm[10]]


def write_batch_file(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps({"id": record["id"], "first": record["first_text"],
                                     "second": record["second_text"]}))
            handle.write("\n")


def check_outputs(workload, items, outputs, seed):
    """(failed, wrong, problems) over the ops of one run."""
    failed = wrong = 0
    problems = []
    for item, output in zip(items, outputs):
        if "error" in output:
            failed += 1
            problems.append(f"raised: {output['error']}")
            continue
        if workload == "cli_batch":
            problem = checks.check_batch_output(item, output["returncode"], output["stdout"])
        elif workload == "numeric_ladder":
            problem = checks.check_verdict(item, output["status"])
            if problem is None and output["mode"] != "numeric":
                problem = f"decided on the {output['mode']} route, not the numeric one"
        else:
            problem = checks.check_witness_op(item, output, seed)
        if problem:
            failed += 1
            wrong += 1
            problems.append(problem)
    return failed, wrong, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_slowness(cal_times, reference):
    """Mean time of calibrations over their reference time.

    The mean, not the median: the host slows down in bursts, and the ops'
    total time takes in every burst.
    """
    return statistics.fmean(cal_times) / reference


def ops_reference(workload):
    """Reference time of the calibrations between a workload's ops."""
    if workload == "cli_batch":
        return calibrate.REFERENCE_PROCESS_S
    return calibrate.REFERENCE_BLOCK_S


def scaled_metrics(workload, doc):
    """The timed metrics, each scaled to the reference host speed.

    A set-up is scaled by the calibration process that ran right after it,
    the ops by the mean of the calibrations between their chunks.
    """
    slowness = host_slowness(doc["cal_times"], ops_reference(workload))
    setup_s = [s / host_slowness([c], calibrate.REFERENCE_PROCESS_S)
               for s, c in zip(doc["setups"], doc["setup_cal_times"])]
    return {
        "ops_per_s_ref": metric(slowness * len(doc["op_times"]) / doc["wall"], "1/s"),
        "op_p50_ms_ref": metric(1000.0 * statistics.median(doc["op_times"]) / slowness, "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }


def measure_cli(job_path, rundir):
    """Untraced cli_batch: one decide-batch process per file, one at a time."""
    _, doc = run_script("procs.py", [job_path], rundir / "cli.json")
    outputs = []
    for code, path in zip(doc["returncodes"], doc["stdout_paths"]):
        outputs.append({"returncode": code, "stdout": Path(path).read_text()})
    metrics = scaled_metrics("cli_batch", doc)
    metrics["peak_rss_mb"] = metric(max(doc["peaks_mb"]), "MB")
    return metrics, doc, outputs


def measure_in_process(workload, job_path, rundir):
    setups, setup_cal_times = [], []
    for rep in range(SETUP_REPS):
        start, doc = run_worker("setup", job_path, rundir / f"setup{rep}.json", 60)
        setups.append(doc["first_op"] - start)
        setup_cal_times.append(procs.calibration_process(rundir / "cal.out", child_env(), ROOT))
    _, doc = run_worker("run", job_path, rundir / "run.json")
    doc.update(setups=setups, setup_cal_times=setup_cal_times)
    metrics = scaled_metrics(workload, doc)
    metrics["peak_rss_mb"] = metric(doc["peak_rss_mb"], "MB")
    return metrics, doc, doc["outputs"]


def cli_startup_ms(rundir):
    """Median wall time of decide-batch on an empty file, in ms."""
    empty = rundir / "empty.jsonl"
    empty.write_text("")
    samples = []
    for rep in range(STARTUP_REPS):
        start, end, code, _ = spawn(procs.cli_command() + ["decide-batch", str(empty)],
                                    rundir / f"startup{rep}.out")
        if code != 0:
            raise ChildError(f"decide-batch on an empty file exited {code}")
        samples.append(1000.0 * (end - start))
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhgerm" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qhgerm source tree at {SRC}; run from a checkout root\n")
        return 2
    pin_to_one_cpu()
    workload = args.workload
    rounds = max(1, round(args.seconds / ROUND_SECONDS[workload]))
    rundir = WORK / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    items, warm = build_corpus(workload, args.seed, rounds)
    cal_every = max(1, round(len(items) // rounds * CAL_CHUNK_SECONDS / ROUND_SECONDS[workload]))
    pairs = [r for f in items for r in f] if workload == "cli_batch" else items
    wrong = 0
    for pair in pairs:
        problem = checks.check_label(pair)
        if problem:
            wrong += 1
            sys.stderr.write(f"bench: corpus {pair['id']}: {problem}\n")

    job = {"workload": workload, "records": 0, "cal_every": cal_every,
           "trace_path": str(rundir / "spans.jsonl")}
    if workload == "cli_batch":
        paths = [rundir / f"batch{idx}.jsonl" for idx in range(len(items))]
        for path, records in zip(paths, items):
            write_batch_file(path, records)
        warm_file = rundir / "warmup.jsonl"
        write_batch_file(warm_file, warm[0])
        job.update(warmup=[str(warm_file)], ops=[str(p) for p in paths], records=len(pairs),
                   setup_reps=SETUP_REPS, rundir=str(rundir))
    else:
        job.update(warmup=[texts(p) for p in warm], ops=[texts(p) for p in items])
    job_path = rundir / "job.json"

    try:
        # write the bytecode caches, so set-up never includes compiling
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "qhgerm")],
                       check=True, env=child_env(), cwd=ROOT, timeout=procs.CHILD_TIMEOUT)
        if args.trace:
            job["startup_ms"] = cli_startup_ms(rundir)
            job_path.write_text(json.dumps(job))
            _, doc = run_worker("trace", job_path, rundir / "trace.json")
            metrics, outputs = doc["layers"], doc["outputs"]
            print(f"traced: ops_per_s {doc['traced_ops_per_s']:.4f} "
                  f"op_p50_ms {doc['traced_op_p50_ms']:.3f} spans {job['trace_path']}")
        else:
            job_path.write_text(json.dumps(job))
            if workload == "cli_batch":
                metrics, doc, outputs = measure_cli(job_path, rundir)
            else:
                metrics, doc, outputs = measure_in_process(workload, job_path, rundir)
            # the unscaled figures, for reading; they follow the host's speed
            print(f"ops_per_s {len(doc['op_times']) / doc['wall']:.4f} "
                  f"op_p50_ms {1000.0 * statistics.median(doc['op_times']):.4f} "
                  f"setup_s {statistics.median(doc['setups']):.4f} "
                  f"host_slowness {host_slowness(doc['cal_times'], ops_reference(workload)):.4f}")
    except (ChildError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    failed, wrong_ops, problems = check_outputs(workload, items, outputs, args.seed)
    for problem in problems[:20]:
        sys.stderr.write(f"bench: {problem}\n")
    print(json.dumps({
        "correct": wrong == 0 and wrong_ops == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
