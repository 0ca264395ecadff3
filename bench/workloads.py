"""The benchmark's requests, grouped into workloads, with their correctness checks.

Every request runs one solve against the public ``symdesign`` API (in process)
or one ``symdesign.cli`` invocation (in a fresh child process) and returns an
:class:`Outcome`.  An outcome fails on a wrong ``tmax``, a digest that differs
from the golden recorded for the request, a certificate that does not
re-verify, an unproven optimum, a closed-form disagreement or a nonzero exit
code.  Inputs that depend on the seed have goldens only for the default seed;
for other seeds their certificates are re-verified and their digests printed.

Run ``python3 bench/workloads.py warm tables`` to perform the ``tables``
warm-up pass in a fresh interpreter (the set-up probe ``run.py`` times).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 120

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
os.environ.pop("SYMDESIGN_THREADS", None)  # solves run one at a time, single-threaded

try:
    import symdesign as sd  # noqa: E402  (needs the working tree's src on the path)
except ImportError as exc:
    raise ImportError(f"cannot import symdesign from {SRC}: run from a repository checkout") from exc
from tracer import TRACE_MARKER  # noqa: E402


def child_env() -> dict:
    """Environment for child interpreters: working-tree sources, no thread override."""
    env = {k: v for k, v in os.environ.items() if k != "SYMDESIGN_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    seconds: float
    tmax: str | None
    digest: str
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None  # a CLI child's recorded spans, when traced


def _solve_outcome(seconds: float, result, verified: bool) -> Outcome:
    cert = result.certificate
    payload = [list(cert.q), cert.weighted_norm] if cert is not None else None
    out = Outcome(seconds, str(result.tmax), digest(payload))
    if not verified:
        out.problems.append("certificate failed verify_certificate")
    if not result.proven_exact:
        out.problems.append("optimum not proven")
    return out


# ---------------------------------------------------------------------------
# request kinds
# ---------------------------------------------------------------------------


@dataclass
class BuiltinSolve:
    """``compute_tmax`` plus ``verify_certificate`` on a built-in group.

    The answer is also compared with ``closed_tmax`` where the closed form is
    tabulated for this ``n``.
    """

    rid: str
    group: object
    n: int
    k: int
    classes: list | None = None  # only ever the T-group classes
    seeded = False

    def run(self, tracer=None) -> Outcome:
        if tracer is not None:
            tracer.rid = self.rid
        started = perf_counter()
        result, table, matrix = sd.compute_tmax(self.group, self.n, self.k, classes=self.classes)
        verified = result.certificate is None or sd.verify_certificate(result.certificate, matrix, table)
        out = _solve_outcome(perf_counter() - started, result, verified)
        cf = sd.closed_tmax(self.group, self.n, self.k, variant="full" if self.classes is None else "tgroup")
        if self.n >= cf.valid_from_n and cf.value != result.tmax:
            out.problems.append(f"closed form says {cf.value}, solver says {result.tmax}")
        return out


@dataclass
class CustomSolve:
    """A custom problem document solved as ``symdesign custom`` does, in process."""

    rid: str
    text: str
    seeded = True

    def run(self, tracer=None) -> Outcome:
        if tracer is not None:
            tracer.rid = self.rid
        started = perf_counter()
        table, matrix = sd.load_custom_problem(self.text)
        table = sd.canonical_order(table)
        matrix = matrix.aligned_to(table)
        result = sd.tmax_exact(matrix, table, assume_semiuniversal=True)
        verified = result.certificate is None or sd.verify_certificate(result.certificate, matrix, table)
        return _solve_outcome(perf_counter() - started, result, verified)


_MS_LINE = re.compile(rb'^\s*"ms": [^\n]*\n', re.MULTILINE)


@dataclass
class CliCall:
    """One fresh interpreter running ``symdesign.cli.main(argv)``, timed spawn to exit."""

    rid: str
    argv: list[str]
    custom_text: str | None = None  # the document a ``custom`` call reads, for re-verification
    seeded: bool = False

    def run(self, tracer=None) -> Outcome:
        cmd = [sys.executable, str(BENCH / "cli_entry.py"), "0" if tracer is None else "1", self.rid]
        started = perf_counter()
        proc = subprocess.run(
            cmd + self.argv, capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
        seconds = perf_counter() - started
        # the report's "ms" field is the only part allowed to differ between runs
        stdout = _MS_LINE.sub(b"", proc.stdout)
        out = Outcome(seconds, None, hashlib.sha256(stdout).hexdigest()[:16])
        stderr = proc.stderr.decode(errors="replace")
        if tracer is not None:
            for line in stderr.splitlines():
                if line.startswith(TRACE_MARKER):
                    out.trace = json.loads(line[len(TRACE_MARKER):])
            if out.trace is None:
                out.problems.append("traced child wrote no trace")
        if proc.returncode != 0:
            out.problems.append(f"exit code {proc.returncode}: {stderr.strip()[-200:]}")
            return out
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out.problems.append("stdout is not JSON")
            return out
        out.tmax = str(report.get("tmax", report.get("bound")))
        if report.get("agrees") is False:
            out.problems.append("closed form disagrees")
        if report.get("proven_exact") is False:
            out.problems.append("optimum not proven")
        if self.custom_text is not None:
            out.problems.extend(_recheck_custom(self.custom_text, report))
        return out


def _recheck_custom(text: str, report: dict) -> list[str]:
    """Rebuild the certificate a ``custom`` call printed and re-verify it in process."""
    table, matrix = sd.load_custom_problem(text)
    table = sd.canonical_order(table)
    matrix = matrix.aligned_to(table)
    index = {irrep.label: i for i, irrep in enumerate(table.ids)}
    q = [0] * len(table)
    for entry in report["certificate"]:
        label, value = entry.rsplit(": ", 1)
        q[index[label]] = int(value)
    mults = table.multiplicities
    norm = sum(m * abs(x) for m, x in zip(mults, q))
    support = tuple(table.ids[i] for i, x in enumerate(q) if x)
    cert = sd.Certificate(q=tuple(q), weighted_norm=norm, support=support)
    problems = []
    if not report["certificate"]:
        return [] if report["tmax"] == "infinity" else ["finite tmax printed without a certificate"]
    if not sd.verify_certificate(cert, matrix, table):
        problems.append("printed certificate failed verify_certificate")
    if report["tmax"] != norm // 2 - 1:
        problems.append("printed tmax does not match the certificate norm")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def tables_requests() -> list:
    """table1 for n = 13..60 and tableSUd for d = 3, 4 at n = 22..40 (733 solves).

    Rows are kept where the closed form is tabulated and valid, as in
    ``symdesign table``; table1 already contains every table2 row.
    """
    jobs = []
    for p in (2, 3, 4, 5):
        jobs += [(sd.zp(p), n, p, None) for n in range(max(13, p + 1), 61)]
    jobs += [(sd.U1, n, k, None) for k in range(2, 7) for n in range(13, 61)]
    jobs += [(sd.SU2, n, k, None) for k in range(2, 8) for n in range(13, 61)]
    for d in (3, 4):
        jobs += [(sd.sud(d), n, k, None) for k in (3, 4) for n in range(22, 41)]
    jobs += [(sd.sud(4), n, 4, list(sd.T_GROUP_CLASSES)) for n in range(22, 41)]
    requests = []
    for group, n, k, classes in jobs:
        variant = "full" if classes is None else "tgroup"
        if group.kind != "SUd" and n <= k:
            continue
        try:
            cf = sd.closed_tmax(group, n, k, variant=variant)
        except ValueError:
            continue
        if n < cf.valid_from_n:
            continue
        tag = "" if classes is None else "/tgroup"
        requests.append(BuiltinSolve(f"tables/{group}/n={n}/k={k}{tag}", group, n, k, classes))
    return requests


def random_custom_doc(rng: random.Random, sectors: int, rows: int) -> str:
    """A custom problem: multiplicities in 1..10^6, integer charges in -50..50."""
    m = [rng.randint(1, 10**6) for _ in range(sectors)]
    charge_rows = [[rng.randint(-50, 50) for _ in range(sectors)] for _ in range(rows)]
    return json.dumps({"m": m, "rows": charge_rows})


# kernel dimension 6 (sectors - rows); twelve of them, so the median request of
# the workload does not hinge on how hard one seed's few problems happen to be
LATTICE_CUSTOM_SHAPES = ((9, 3), (10, 4)) * 6


def lattice_requests(seed: int) -> list:
    """Three hard built-in kernels plus twelve seeded custom problems of kernel dimension 6."""
    requests = [
        BuiltinSolve("lattice/u1/n=26/k=18", sd.U1, 26, 18),
        BuiltinSolve("lattice/u1/n=40/k=16", sd.U1, 40, 16),
        BuiltinSolve("lattice/su2/n=60/k=24", sd.SU2, 60, 24),
    ]
    rng = random.Random(f"lattice:{seed}")
    for i, (sectors, rows) in enumerate(LATTICE_CUSTOM_SHAPES):
        doc = random_custom_doc(rng, sectors, rows)
        requests.append(CustomSolve(f"lattice/custom{i}-{sectors}x{rows}/seed={seed}", doc))
    return requests


def cli_requests(seed: int) -> list:
    """Seven CLI invocations; the ``custom`` document is generated from the seed."""
    rng = random.Random(f"cli:{seed}")
    doc = random_custom_doc(rng, 8, 3)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-custom-seed{seed}.json"
    path.write_text(doc, encoding="utf-8")
    sud5 = ["--group", "sud", "--d", "5", "--n", "50", "--k", "4", "--format", "json"]
    sud6 = ["--group", "sud", "--d", "6", "--n", "30", "--k", "4", "--format", "json"]
    sud4 = ["--group", "sud", "--d", "4", "--n", "24", "--k", "4", "--classes", "id,2,3,2+2"]
    zp3 = ["--group", "zp", "--p", "3", "--n", "9", "--k", "3", "--format", "json"]
    return [
        CliCall("cli/tmax/sud5/n=50/k=4", ["tmax", *sud5]),
        CliCall("cli/tmax/sud6/n=30/k=4", ["tmax", *sud6]),
        CliCall("cli/tmax/sud4/n=24/k=4/tgroup", ["tmax", *sud4, "--format", "json"]),
        CliCall("cli/lower-bound/sud6/n=30/k=4", ["lower-bound", *sud6]),
        CliCall("cli/smatrix/sud5/n=50/k=4", ["smatrix", *sud5]),
        CliCall(f"cli/custom/seed={seed}", ["custom", str(path), "--format", "json"], doc, seeded=True),
        CliCall("cli/tmax/zp3/n=9/k=3", ["tmax", *zp3]),
    ]


def build(workload: str, seed: int) -> list:
    if workload == "tables":
        return tables_requests()
    if workload == "lattice":
        return lattice_requests(seed)
    if workload == "cli_cold":
        return cli_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, requests: list) -> list[Outcome]:
    """The set-up work done before timing: one full pass for ``tables``, none otherwise."""
    if workload == "tables":
        return [req.run() for req in requests]
    return []


# set-up probes: fresh interpreters doing what a user pays before the first request
SETUP_PROBES = {
    "tables": ([sys.executable, str(BENCH / "workloads.py"), "warm", "tables"], 3),
    "lattice": ([sys.executable, "-c", "import symdesign"], 7),
    "cli_cold": ([sys.executable, "-c", "import symdesign.cli"], 7),
}


def load_goldens() -> dict:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def check(request, outcome: Outcome, goldens: dict) -> list[str]:
    """All problems with an outcome, including a mismatch against its golden."""
    problems = list(outcome.problems)
    golden = goldens.get(request.rid)
    if golden is None:
        if not request.seeded:
            problems.append("no golden recorded")
    else:
        if golden["tmax"] != outcome.tmax:
            problems.append(f"tmax {outcome.tmax} != golden {golden['tmax']}")
        if golden["digest"] != outcome.digest:
            problems.append(f"digest {outcome.digest} != golden {golden['digest']}")
    return problems


if __name__ == "__main__":
    if sys.argv[1:2] == ["warm"]:
        warm_up(sys.argv[2], build(sys.argv[2], DEFAULT_SEED))
