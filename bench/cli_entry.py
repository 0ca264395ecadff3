"""Child process entry of the cli_cold workload.

Usage: ``python3 bench/cli_entry.py <trace 0|1> <request id> <cli arguments...>``

Times the import of ``symdesign.cli``, then calls ``symdesign.cli.main(argv)``
and exits with its return code, so stdout is exactly the CLI's.  With trace 1
it wraps the package's functions after the import and writes the recorded
spans as one marked JSON line on stderr.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    trace, rid, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    started = perf_counter()
    import symdesign.cli

    import_s = perf_counter() - started
    if not trace:
        return symdesign.cli.main(argv)

    from tracer import TRACE_MARKER, Tracer

    tracer = Tracer()
    tracer.rid = rid
    tracer.install()
    code = symdesign.cli.main(argv)
    sys.stdout.flush()
    state = tracer.state()
    state["import_s"] = import_s
    print(TRACE_MARKER + json.dumps(state), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
