"""A fixed pure-Python computation that gauges how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by up to twice over
minutes as other tenants come and go; no single run is long enough to average
that out.  So the benchmark times this reference next to the work it measures
and reports every time at reference speed: a measured time ``t`` is reported as
``t * nominal / r``, where ``r`` is the reference's time measured around it.
A program that gets 10% slower still reads 10% slower; a host that gets 10%
slower cancels out.

The reference runs the way the work it gauges runs.  Next to in-process
solves it runs in process (nominally ``IN_PROCESS_S``).  Next to CLI calls
and set-up probes, which start fresh interpreters, it runs as a fresh
interpreter too (nominally ``FRESH_PROCESS_S``, spawn to exit), so that it
also feels what slows process start-up: exec, page faults, module loading.

The computation mixes small-int arithmetic, ``Fraction`` arithmetic and
building tuples, lists and dicts, which is what the solver's layers spend
their time on.  It does not import ``symdesign``, so no change to the package
can move it, and the garbage collector is off while it runs, so the size of
the package's heap cannot move it either.

Run ``python3 bench/reference.py`` to print a few samples of each kind.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

IN_PROCESS_S = 0.008  # in-process times are reported at the speed where one run takes this long
FRESH_PROCESS_S = 0.100  # child-process times: one fresh interpreter running it once, spawn to exit
REPS = 3  # runs per sample; a sample is their median


def _work() -> int:
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    s, third = Fraction(0), Fraction(1, 3)
    for i in range(1, 500):
        s = s * Fraction(i, i + 1) + third
        if s.denominator > 10**30:
            s = Fraction(s.numerator % 997, 7)
    groups: dict = {}
    for i in range(2500):
        key = (i % 97, i % 13)
        groups[key] = groups.get(key, []) + [i]
    return x + s.numerator + len(sorted(groups.items()))


def _run_once():
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
    finally:
        if enabled:
            gc.enable()


def _spawn_once():
    subprocess.run([sys.executable, __file__, "once"], check=True, capture_output=True, timeout=60)


def sample(fresh_process: bool = False) -> float:
    """Seconds one run of the reference takes now: the median of ``REPS`` runs."""
    run = _spawn_once if fresh_process else _run_once
    times = []
    for _ in range(REPS):
        started = perf_counter()
        run()
        times.append(perf_counter() - started)
    return statistics.median(times)


class Gauge:
    """Reference samples taken between timed pieces of work.

    Call :meth:`mark` before the first piece and wherever the host speed
    should be sampled again, and once after the last piece; a piece done
    between two marks is scaled by the mean of those two samples.
    """

    def __init__(self, fresh_process: bool = False):
        self.fresh_process = fresh_process
        self.nominal = FRESH_PROCESS_S if fresh_process else IN_PROCESS_S
        self.samples: list[float] = []

    def mark(self) -> int:
        """Sample the reference; returns the index of the interval that starts here."""
        self.samples.append(sample(self.fresh_process))
        return len(self.samples) - 1

    def scale(self, interval: int) -> float:
        """Factor that turns a time measured in ``interval`` into one at reference speed."""
        before, after = self.samples[interval], self.samples[interval + 1]
        return self.nominal / ((before + after) / 2.0)


if __name__ == "__main__":
    if sys.argv[1:] == ["once"]:
        _run_once()
    else:
        for fresh_process in (False, True):
            times = " ".join(f"{sample(fresh_process) * 1000.0:.2f}" for _ in range(8))
            print(f"{'fresh process' if fresh_process else 'in process'}: {times} ms")
