"""Benchmark of symdesign: headline tables, hard lattices and the cold CLI.

Usage::

    python3 bench/run.py --workload tables|lattice|cli_cold [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository; it loads the package from the
working tree's ``src``.  The load is a closed loop with one client: requests
run one at a time, in process or as one CLI child process at a time.

With ``--trace 0`` it prints the end-to-end metrics of the workload, every
time scaled to reference speed to cancel the shared host's drift (see
``bench/reference.py``; the raw wall-clock figures are printed too); with
``--trace 1`` it alternates untraced and traced passes and prints per-layer
self times and counters (see ``bench/README.md`` for what each metric should
move).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
including the environment, digests and spans, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import reference
import tracer as tracing
import workloads

WORKLOADS = ("tables", "lattice", "cli_cold")
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it
MIN_PASSES = 3  # each request's time is a median over at least this many passes
GAUGE_EVERY_S = 0.5  # seconds of requests between two samples of the host's speed


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Tally:
    """Attempted and failed requests, with the digests two commits can compare."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, request, outcome):
        self.attempted += 1
        problems = workloads.check(request, outcome, self.goldens)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{request.rid}: {'; '.join(problems)}")
        self.digests[request.rid] = f"{outcome.tmax}:{outcome.digest}"


def run_pass(requests, tally: Tally, tracer=None):
    started = perf_counter()
    outcomes = []
    for request in requests:
        outcome = request.run(tracer)
        tally.record(request, outcome)
        outcomes.append(outcome)
    return perf_counter() - started, outcomes


def keep_going(started: float, walls: list[float], seconds: float) -> bool:
    """Start another pass unless it would end more than half a pass past the budget."""
    return perf_counter() - started + 0.5 * statistics.fmean(walls) < seconds


def time_setup(probe) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: raw, and at reference speed."""
    cmd, count = probe
    gauge = reference.Gauge(fresh_process=True)
    raw, intervals = [], []
    for _ in range(count):
        interval = gauge.mark()
        started = perf_counter()
        subprocess.run(
            cmd, env=workloads.child_env(), cwd=workloads.ROOT, check=True, capture_output=True, timeout=600
        )
        raw.append(perf_counter() - started)
        intervals.append(interval)
    gauge.mark()
    return raw, [t * gauge.scale(i) for t, i in zip(raw, intervals)]


def run_timed_pass(requests, tally: Tally, fresh_process: bool) -> tuple[float, list[float], list[float]]:
    """One untraced pass with the host speed sampled between requests.

    Returns the pass's wall time and each request's time, raw and at
    reference speed; the reference is sampled again once ``GAUGE_EVERY_S``
    of requests have run since the last sample.  ``fresh_process`` says the
    requests start fresh interpreters, so the reference does too.
    """
    gauge = reference.Gauge(fresh_process)
    started = perf_counter()
    raw, intervals = [], []
    interval, since = gauge.mark(), 0.0
    for request in requests:
        if since >= GAUGE_EVERY_S:
            interval, since = gauge.mark(), 0.0
        outcome = request.run()
        tally.record(request, outcome)
        raw.append(outcome.seconds)
        intervals.append(interval)
        since += outcome.seconds
    gauge.mark()
    scaled = [t * gauge.scale(i) for t, i in zip(raw, intervals)]
    return perf_counter() - started, raw, scaled


def measure(workload: str, requests, tally: Tally, seconds: float, setup: tuple[list[float], list[float]]):
    """End-to-end metrics from timed passes, at reference speed.

    The host's speed drifts by up to twice over minutes, longer than a run, so
    every time is scaled by the reference measured around it (see
    ``reference.py``).  Each request's time is its median over the passes;
    the percentiles are over every timed solve of the run.  The same metrics
    in raw wall-clock time are printed as notes.
    """
    raw_samples = [[] for _ in requests]
    samples = [[] for _ in requests]
    walls: list[float] = []
    started = perf_counter()
    while len(walls) < MIN_PASSES or keep_going(started, walls, seconds):
        wall, raw, scaled = run_timed_pass(requests, tally, fresh_process=workload == "cli_cold")
        walls.append(wall)
        for per_request, t in zip(raw_samples, raw):
            per_request.append(t)
        for per_request, t in zip(samples, scaled):
            per_request.append(t)
    raw_setup, setup_s = setup
    request_s = [statistics.median(s) for s in samples]
    raw_request_s = [statistics.median(s) for s in raw_samples]
    solves = [t for s in samples for t in s]
    raw_solves = [t for s in raw_samples for t in s]
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "instances_per_s": (len(request_s) / sum(request_s), "1/s"),
        "solve_ms.p50": (statistics.median(solves) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup: median of {len(setup_s)} fresh-process set-ups",
        f"samples: {len(requests)} requests x {len(walls)} timed passes in {sum(walls):.1f} s; "
        "each request's time is its median over the passes",
        "times are at reference speed (see bench/reference.py); "
        f"wall-clock: setup_s = {statistics.median(raw_setup):.6g} s, "
        f"instances_per_s = {len(raw_request_s) / sum(raw_request_s):.6g} 1/s, "
        f"solve_ms.p50 = {statistics.median(raw_solves) * 1000.0:.6g} ms",
    ]
    if len(solves) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(solves, n=10)[-1] * 1000.0
        notes.append(f"solve_ms.p90 = {p90:.4f} ms ({len(solves)} timed solves)")
    else:
        notes.append(f"solve_ms.p90 omitted: {len(solves)} timed solves < {P90_MIN_SAMPLES}")
    times = {r.rid: {"raw_s": raw_t, "s": t} for r, raw_t, t in zip(requests, raw_request_s, request_s)}
    return metrics, notes, times


def trace(workload: str, requests, tally: Tally, seconds: float) -> tuple[dict, list[str], list, float]:
    """Per-layer metrics: mean over traced passes, each preceded by an untraced one."""
    in_process = workload != "cli_cold"
    per_pass: list[dict] = []
    states: list[dict] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    started = perf_counter()
    while not traced_walls or keep_going(started, list(map(sum, zip(plain_walls, traced_walls))), seconds):
        plain_walls.append(run_pass(requests, tally)[0])
        tracer = tracing.Tracer()
        if in_process:
            tracer.install(modules=("groups", "charges", "intlinalg", "solver", "closedforms"))
        try:
            wall, outcomes = run_pass(requests, tally, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        pass_states = [tracer.state()] if in_process else [o.trace for o in outcomes if o.trace]
        per_pass.append(tracing.summarize(pass_states, wall))
        states.extend(pass_states)
    metrics = {
        name: (statistics.fmean(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_frac"] = (sum(traced_walls) / sum(plain_walls) - 1.0, "ratio")
    absent = sorted({name for st in states for name in st["absent"]})
    broken = sorted({name for st in states for name in st["broken_counters"]})
    notes = [
        f"traced: {len(traced_walls)} traced passes of {len(requests)} requests, "
        f"mean traced wall {statistics.fmean(traced_walls):.4f} s; per-layer values are means per pass",
        f"absent spans: {', '.join(absent) if absent else 'none'}",
    ]
    if broken:
        notes.append(f"counters that could not read their arguments: {', '.join(broken)}")
    return metrics, notes, states, statistics.fmean(traced_walls)


def benchmark(workload: str, requests, seed: int, seconds: float, traced: bool, probe=None) -> dict:
    """Run one workload and return its result, metrics as ``{name: (value, unit)}``."""
    tally = Tally(workloads.load_goldens())
    setup = ([], []) if traced else time_setup(probe or workloads.SETUP_PROBES[workload])
    for request, outcome in zip(requests, workloads.warm_up(workload, requests)):
        tally.record(request, outcome)
    if traced:
        metrics, notes, states, traced_wall_s = trace(workload, requests, tally, seconds)
        request_times = None
    else:
        metrics, notes, request_times = measure(workload, requests, tally, seconds, setup)
        states, traced_wall_s = [], None
    return {
        "workload": workload,
        "seed": seed,
        "env": environment(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "notes": notes,
        "digests": tally.digests,
        "seeded_digests": {r.rid: tally.digests[r.rid] for r in requests if r.seeded},
        "request_times": request_times,
        "states": states,
        "traced_wall_s": traced_wall_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED, help="workload seed (default %(default)s)"
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    requests = workloads.build(args.workload, args.seed)
    result = benchmark(args.workload, requests, args.seed, args.seconds, bool(args.trace))

    workloads.OUT.mkdir(exist_ok=True)
    out_path = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result), encoding="utf-8")

    env = result["env"]
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python={env['python']} nproc={env['nproc']} cpu={env['cpu']}")
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    combined = workloads.digest(sorted(result["digests"].items()))
    where = out_path.relative_to(workloads.ROOT)
    print(f"digest: {combined} over {len(result['digests'])} requests (written to {where})")
    for rid, value in result["seeded_digests"].items():
        print(f"seeded digest: {rid} {value}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
