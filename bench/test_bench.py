"""Smoke test of the benchmark itself.

Run with ``python3 -m pytest bench/test_bench.py``.  One tiny request per
workload must emit exactly the metrics ``BENCHMARK.json`` names, pass its
golden check, and, when traced, account for the whole traced wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "tables": "tables/u1/n=13/k=2",
    "lattice": f"lattice/custom0-9x3/seed={workloads.DEFAULT_SEED}",
    "cli_cold": "cli/tmax/zp3/n=9/k=3",
}


def tiny_requests(workload):
    requests = [r for r in workloads.build(workload, workloads.DEFAULT_SEED) if r.rid == TINY[workload]]
    assert len(requests) == 1
    return requests


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emits_every_metric(workload, traced):
    probe = ([sys.executable, "-c", "import symdesign"], 1)
    result = run.benchmark(workload, tiny_requests(workload), workloads.DEFAULT_SEED, 0.0, traced, probe)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == expected
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    if traced:
        covered = sum(value for name, (value, _) in result["metrics"].items() if name.endswith("self_s"))
        covered += result["metrics"]["cli.import_s"][0] + result["metrics"]["bench.other_s"][0]
        assert covered == pytest.approx(result["traced_wall_s"])


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("solver", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install(modules=("solver",))
    try:
        assert tracer.absent == ["solver.no_such_function"]
    finally:
        tracer.uninstall()
    assert workloads.sd.solver.lll_reduce is workloads.sd.intlinalg.lll_reduce


def test_fails_without_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
