"""A fixed block of the benchmark's own work, timed to track host speed.

    python3 bench/calibrate.py           # serve blocks
    python3 bench/calibrate.py --once    # one block, then exit

Serving, each line on stdin runs one block, and its time in seconds comes
back as one line on stdout (procs.Calibrator). With --once the process
runs one block and exits; its time from start to exit, taken by the
process that spawned it, is a calibration process.

The reference machine changes speed by itself, by 20-40% in phases that
last minutes and span whole runs (README, "Steadiness"). A run therefore
times calibrations between its timed sections, about twice a second, and
scales its timed metrics by the ratio of their mean time to the reference
time. Ops inside one process are scaled by blocks (REFERENCE_BLOCK_S);
ops that are processes, and every set-up, which starts a process, by
calibration processes (REFERENCE_PROCESS_S), which start an interpreter
and import mpmath as the program does. Neither touches qhgerm or depends
on the seed, so a change to the program cannot change them: they measure
the host, and the scaled figures measure the program.

The block mixes what the program spends its time on: Gaussian-rational
Fraction arithmetic with dicts and text (the exact and CLI paths) and
192-bit mpmath complex arithmetic (the radical and numeric paths).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import corpus
from corpus import Germ, g

# Times of one block and of one --once process on the reference machine in
# its fast phases (README, "Metrics"). They only scale the reported figures;
# every run divides by the same values.
REFERENCE_BLOCK_S = 0.05
REFERENCE_PROCESS_S = 0.15

_GERM = Germ(1, 3, g(2, -1), 1, 0, tuple(
    (g(Fraction(a, 3), Fraction(b, 2)), 1 + (a % 2)) for a, b in
    ((1, 0), (-4, 1), (5, 0), (2, -3), (-7, 0), (3, 2), (8, 1))))
_CHANGES = ((g(2), g(Fraction(-1, 2)), g(3)), (g(0, 1), g(1, 1), g(Fraction(-1, 3))),
            (g(-1), g(Fraction(3, 2)), g(1)))
_PRECISION = 192


def _fraction_part():
    text = 0
    for alpha, beta, gamma in _CHANGES * 6:
        germ = corpus.image(_GERM, alpha, beta, gamma)
        coeffs = corpus.ladder_coeffs(germ.roots)
        terms = {(germ.m + germ.q * t, germ.p * (len(coeffs) - 1 - t)): corpus.gmul(germ.c0, c)
                 for t, c in enumerate(coeffs)}
        text += len(corpus.poly_text(terms))
    return text


def _mpmath_part():
    from mpmath import mp, mpc, mpf

    with mp.workprec(_PRECISION):
        coeffs = [mpc(mpf(re.numerator) / re.denominator, mpf(im.numerator) / im.denominator)
                  for re, im in corpus.ladder_coeffs(_GERM.roots)]
        total = mpc(0)
        for step in range(180):
            z = mpc(mpf(step) / 60 - 1, mpf(1) / (step + 3))
            value = mpc(0)
            for c in coeffs:
                value = value * z + c
            total += abs(value)
    return total


def block(with_mpmath=True):
    """Run one calibration block; return its wall time in seconds."""
    start = time.perf_counter()
    _fraction_part()
    if with_mpmath:
        _mpmath_part()
    return time.perf_counter() - start


def main():
    if sys.argv[1:] == ["--once"]:
        block()
        return
    block()
    for _ in sys.stdin:
        sys.stdout.write(f"{block()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
