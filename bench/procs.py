"""Child processes of the benchmark, and the timed loop of cli_batch.

    python3 bench/procs.py JOB OUTPUT

runs the decide-batch processes of one cli_batch run, one at a time: the
warm-up invocations that measure set-up, then one process per batch file.
A calibration process (`bench/calibrate.py --once`) follows every warm-up
invocation, and another comes before the batch files and after every
"cal_every" of them. JOB is the JSON file bench/run.py also gives
bench/worker.py, with "warmup" (one batch file), "ops", "setup_reps",
"cal_every" and "rundir"; OUTPUT receives the timings, exit codes, peak
RSS and calibration times.

The loop runs in a small process of its own because Linux folds the
high-water RSS of the process that spawns a child into the child's
ru_maxrss at exec. Spawned from here, a decide-batch child's ru_maxrss is
its own peak, with this process's ~10 MB as the floor, and not the peak of
the parent that holds the corpus.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT = 150
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")


def cli_command():
    """The qhgerm console script when installed, else python -m qhgerm.cli."""
    script = shutil.which("qhgerm")
    return [script] if script else [sys.executable, "-m", "qhgerm.cli"]


def spawn(cmd, out_path, timeout=CHILD_TIMEOUT, env=None, cwd=None):
    """Run one child to its end: (start, end, exit code, ru_maxrss in MB)."""
    with open(out_path, "w") as out, open(f"{out_path}.err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


class Calibrator:
    """A bench/calibrate.py child that runs and times one block per call.

    For ops that run inside one process; ops that are processes of their
    own are scaled by calibration_process instead.

    The blocks run in a process of their own, so that neither the program's
    heap nor its garbage collector can change their time.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, CALIBRATE], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def block(self):
        """Seconds of one calibration block."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def calibration_process(out_path, env=None, cwd=None):
    """Seconds of one `calibrate.py --once` process, start to exit."""
    cmd = [sys.executable, CALIBRATE, "--once"]
    start, end, code, _ = spawn(cmd, out_path, env=env, cwd=cwd)
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return end - start


def main(job_path, output_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    rundir = job["rundir"]
    command = cli_command() + ["decide-batch"]
    (warm,) = job["warmup"]
    setups, setup_cal_times = [], []
    for rep in range(job["setup_reps"]):
        start, end, code, _ = spawn(command + [warm], f"{rundir}/warm{rep}.out")
        if code != 0:
            sys.stderr.write(f"warm-up decide-batch exited {code}\n")
            return 1
        setups.append(end - start)
        setup_cal_times.append(calibration_process(f"{rundir}/cal.out"))
    times, peaks, codes, outputs = [], [], [], []
    cal_times = [calibration_process(f"{rundir}/cal.out")]
    for idx, path in enumerate(job["ops"]):
        out_path = f"{rundir}/batch{idx}.out"
        start, end, code, peak = spawn(command + [path], out_path)
        times.append(end - start)
        peaks.append(peak)
        codes.append(code)
        outputs.append(out_path)
        if (idx + 1) % job["cal_every"] == 0:
            cal_times.append(calibration_process(f"{rundir}/cal.out"))
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump({"setups": setups, "setup_cal_times": setup_cal_times,
                   "op_times": times, "cal_times": cal_times, "wall": sum(times),
                   "peaks_mb": peaks, "returncodes": codes, "stdout_paths": outputs}, handle)
    return 0

if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
