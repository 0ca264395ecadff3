"""Record ``bench/goldens.json``: every request of every workload at the default seed.

Usage: ``python3 bench/record_goldens.py``.  Run it only at a commit whose
answers are trusted; later commits must reproduce these digests exactly.
"""

import json
import sys

import workloads


def main() -> int:
    goldens = {}
    for workload in ("tables", "lattice", "cli_cold"):
        for request in workloads.build(workload, workloads.DEFAULT_SEED):
            outcome = request.run()
            if outcome.problems:
                print(f"error: {request.rid}: {'; '.join(outcome.problems)}", file=sys.stderr)
                return 1
            goldens[request.rid] = {"tmax": outcome.tmax, "digest": outcome.digest}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(goldens)} goldens in {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
