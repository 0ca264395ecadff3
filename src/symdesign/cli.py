"""Command-line front end.

Subcommands::

    symdesign tmax        exact design order for one (group, n, k) instance
    symdesign lower-bound rank-scan lower bound only
    symdesign smatrix     dump the exact charge matrix with labels
    symdesign table       reproduce the headline tables over a range of n
    symdesign verify      run a named verification suite
    symdesign custom      solve a user problem from a JSON document

Exit codes: 0 success, 2 precondition failure (for example a gate set below
its semi-universality threshold), 3 input parse error (argparse usage errors
too), 4 internal verification failure (a certificate that does not verify
again, or an exactness check of the solver that raised ``ArithmeticError``).  ``--format json`` output uses the
fixed key set {group, n, k, tmax, lower_bound, certificate, proven_exact,
closed_form, agrees, ms}; infinite orders render as "infinity" in every format.
A reader that closes stdout early (``symdesign smatrix ... | head -1``) stops
only the output: the command ran, so it exits 0 with nothing on stderr.

Importing this module loads the standard library it parses and prints with
and :mod:`symdesign.infinity`, nothing else of the package.  Each function
imports the submodules it calls at its start, so a command loads only what
it runs: ``smatrix`` loads neither the solver nor its linear algebra,
``lower-bound`` and ``custom`` skip the closed forms, and only ``--format
csv`` loads :mod:`csv`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .infinity import is_finite

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4


class ParseError(ValueError):
    """Malformed command-line input; exits with code 3."""


# GroupSpec itself rejects a --p or --d that its group does not take
_GROUP_KINDS = {"u1": "U1", "su2": "SU2", "zp": "Zp", "sud": "SUd"}


def _group_from_flags(args):
    from .groups import GroupSpec

    return GroupSpec(_GROUP_KINDS[args.group], p=args.p, d=args.d)


def _parse_classes(text: str | None) -> list | None:
    """Parse a class list such as ``id,2,3,2+2`` or ``(1),(12),(12)(34)``.

    ``None`` (no ``--classes``) means every ``k``-local class; an empty list
    is malformed like an empty entry.
    """
    if text is None:
        return None
    try:
        classes = [_parse_class(token) for token in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad --classes entry: {exc}") from None
    for i, cls in enumerate(classes):
        if cls in classes[:i]:
            raise ParseError(f"bad --classes entry: class {cls.name} is listed twice")
    return classes


def _parse_class(token: str):
    from .charges import CycleType

    token = token.strip().lower()
    if not token:
        raise ValueError("empty class")
    if token in ("id", "e", "1", "(1)"):
        return CycleType(())
    if token.startswith("("):
        # sites are single digits, each in at most one cycle; wider classes
        # take the 10 or 5+5 form
        digits = token.replace("(", "").replace(")", "")
        if not re.fullmatch(r"(\([0-9]+\))+", token) or len(set(digits)) != len(digits):
            raise ValueError(f"malformed cycle notation {token!r}")
        lengths = map(len, token[1:-1].split(")("))
    else:
        lengths = (int(x) for x in token.split("+"))
    return CycleType(tuple(sorted(lengths, reverse=True)))


def _render_value(v):
    return str(v) if not is_finite(v) else v


def _format_certificate(cert, table) -> list[str]:
    if cert is None:
        return []
    return [f"{irrep.label}: {q:+d}" for irrep, q in zip(table.ids, cert.q) if q]


def _closed_form_for(group, n, k, classes):
    """Closed-form value when the instance is inside a tabulated regime."""
    from .charges import T_GROUP_CLASSES, conjugacy_classes, gate_classes
    from .closedforms import closed_tmax

    try:
        variant = "full"
        if group.kind == "SUd":
            # the class set the charge matrix gets, so equal gate sets agree
            class_set = set(gate_classes(k, classes))
            if class_set == set(T_GROUP_CLASSES):
                variant = "tgroup"
            elif class_set == set(conjugacy_classes(2)):
                variant = "sv"
            elif class_set != set(conjugacy_classes(k)):
                return None
        cf = closed_tmax(group, n, k, variant=variant)
    except ValueError:
        return None
    if n < cf.valid_from_n:
        return None
    return cf


def _emit(report, fmt: str) -> str:
    """``report``, one dict or a list of row dicts, as JSON, CSV or ``key = value`` text."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        import csv
        import io

        rows = [report] if isinstance(report, dict) else report
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ";".join(v) if isinstance(v, list) else v for k, v in row.items()})
        return buf.getvalue().rstrip("\n")
    return "\n".join(f"{key} = {value}" for key, value in report.items())


def _solve_and_report(fmt, head, closed_form, solve) -> int:
    """Time ``solve()``, verify its certificate again and print ``head`` and the other fixed keys."""
    from .solver import verify_certificate

    started = time.perf_counter()
    result, table, matrix = solve()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    cert = result.certificate
    if cert is not None and not verify_certificate(cert, matrix, table):
        print("error: certificate failed re-verification", file=sys.stderr)
        return EXIT_VERIFY
    report = {
        **head,
        "tmax": _render_value(result.tmax),
        "lower_bound": _render_value(result.lower_bound),
        "certificate": _format_certificate(cert, table),
        "proven_exact": result.proven_exact,
        "closed_form": _render_value(closed_form.value) if closed_form else None,
        "agrees": (closed_form.value == result.tmax) if closed_form else None,
        "ms": round(elapsed_ms, 3),
    }
    print(_emit(report, fmt))
    return EXIT_OK


def cmd_tmax(args) -> int:
    from .solver import compute_tmax

    group = _group_from_flags(args)
    classes = _parse_classes(args.classes)
    semi = args.assume_semiuniversal
    return _solve_and_report(
        args.format,
        {"group": str(group), "n": args.n, "k": args.k},
        _closed_form_for(group, args.n, args.k, classes),
        lambda: compute_tmax(group, args.n, args.k, assume_semiuniversal=semi, classes=classes),
    )


def cmd_lower_bound(args) -> int:
    from .charges import charge_matrix
    from .groups import canonical_table
    from .solver import lower_bound

    group = _group_from_flags(args)
    classes = _parse_classes(args.classes)
    table = canonical_table(group, args.n)
    matrix = charge_matrix(table, args.k, classes)
    started = time.perf_counter()
    lb = lower_bound(matrix, table, assume_semiuniversal=args.assume_semiuniversal)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "group": str(group),
        "n": args.n,
        "k": args.k,
        "ell": lb.ell,
        "sector": table.ids[lb.ell - 1].label if lb.ell is not None else None,
        "bound": _render_value(lb.bound),
        "ms": round(elapsed_ms, 3),
    }
    print(_emit(report, args.format))
    return EXIT_OK


def cmd_smatrix(args) -> int:
    from .charges import charge_matrix
    from .groups import sectors

    group = _group_from_flags(args)
    classes = _parse_classes(args.classes)
    matrix = charge_matrix(sectors(group, args.n), args.k, classes)
    cols = [irrep.label for irrep in matrix.col_ids]
    rows = []
    for label, row in zip(matrix.row_labels, matrix.rows):
        name = label.label if hasattr(label, "label") else str(label)
        rows.append((name, [str(x) for x in row]))
    if args.format == "json":
        doc = {"group": str(group), "n": args.n, "k": args.k, "columns": cols, "rows": dict(rows)}
    elif args.format == "csv":
        doc = [{"row": name, **dict(zip(cols, vals))} for name, vals in rows]
    else:
        width = max(len(c) for c in cols + [name for name, _ in rows]) + 1
        print(" " * width + " ".join(c.rjust(width) for c in cols))
        for name, vals in rows:
            print(name.rjust(width) + " ".join(v.rjust(width) for v in vals))
        return EXIT_OK
    print(_emit(doc, args.format))
    return EXIT_OK


def _table_rows(which: str, n_lo: int, n_hi: int, d: int):
    """(group label, k, n, solver, closed form) rows for the requested table."""
    from .charges import T_GROUP_CLASSES
    from .groups import SU2, U1, sud, zp
    from .solver import compute_tmax

    jobs = []
    if which == "table1":
        for p in (2, 3, 4, 5):
            for n in range(max(n_lo, p + 1), n_hi + 1):
                jobs.append((zp(p), n, p, None))
    if which in ("table1", "table2"):
        for k in range(2, 7):
            for n in range(n_lo, n_hi + 1):
                jobs.append((U1, n, k, None))
        for k in range(2, 8):
            for n in range(n_lo, n_hi + 1):
                jobs.append((SU2, n, k, None))
    elif which == "tablesud":
        group = sud(d)
        for k in (3, 4):
            for n in range(n_lo, n_hi + 1):
                jobs.append((group, n, k, None))
        if d >= 4:
            for n in range(n_lo, n_hi + 1):
                jobs.append((group, n, 4, list(T_GROUP_CLASSES)))
    else:
        raise ValueError(f"unknown table {which!r}")

    # None below the formula's validity threshold, which every tabulated
    # formula puts above k
    jobs = [(job, cf) for job in jobs if (cf := _closed_form_for(*job)) is not None]
    # solved (group, n)-major, so every locality of a (group, n) reads the
    # canonical table while the memo keeps it, however wide the range
    by_table = {}  # job indices per (group, n), in first-seen order
    for i, ((group, n, _, _), _) in enumerate(jobs):
        by_table.setdefault((group, n), []).append(i)
    results = [None] * len(jobs)
    for indices in by_table.values():
        for i in indices:
            group, n, k, classes = jobs[i][0]
            results[i] = compute_tmax(group, n, k, classes=classes)[0]
    rows = []
    for ((group, n, k, classes), cf), result in zip(jobs, results):
        rows.append(
            {
                "group": str(group) if classes is None else f"{group}+classes",
                "formula": cf.formula_id,
                "k": k,
                "n": n,
                "tmax": _render_value(result.tmax),
                "closed_form": _render_value(cf.value),
                "agrees": result.tmax == cf.value,
            }
        )
    return rows


def cmd_table(args) -> int:
    which = args.reproduce.lower()
    if args.d is not None and which != "tablesud":
        raise ParseError("--d applies to tableSUd only")
    try:
        lo_s, hi_s = args.n_range.split("..")
        n_lo, n_hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError("--n-range expects A..B") from None
    if not 1 <= n_lo <= n_hi:
        raise ParseError(f"--n-range {args.n_range} needs 1 <= A <= B")
    rows = _table_rows(which, n_lo, n_hi, 3 if args.d is None else args.d)
    if not rows:  # a table of no rows checks nothing
        raise ParseError(f"--n-range {args.n_range} has no n where a tabulated formula holds")
    print(_emit(rows, args.format))
    return EXIT_OK


def cmd_custom(args) -> int:
    from .charges import load_custom_problem
    from .solver import tmax_exact

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        table, matrix = load_custom_problem(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    except (ValueError, TypeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # running a custom problem is itself the assertion of semi-universality
    return _solve_and_report(
        args.format,
        {"group": "custom", "n": None, "k": None},
        None,
        lambda: (tmax_exact(matrix, table, assume_semiuniversal=True), table, matrix),
    )


# each suite is the function of symdesign.checks named after it
_SUITES = ("identities-u1", "identities-su2", "characters", "oracle", "solver-brute")


def cmd_verify(args) -> int:
    """Run one suite at its fixed size; print its tally and the first 10 failures (exit 4 on any)."""
    from . import checks  # only this subcommand needs the suites

    suite = args.suite
    tally = getattr(checks, suite.replace("-", "_"))()
    failures = len(tally.failures)
    status = "pass" if failures == 0 else "FAIL"
    print(f"suite {suite}: {status} ({tally.checks - failures}/{tally.checks} checks)")
    for where in tally.failures[:10]:
        print(f"failed: {where}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_instance_flags(sub):
    sub.add_argument("--group", required=True, choices=list(_GROUP_KINDS))
    sub.add_argument("--p", type=int, default=None, help="cyclic order (zp only)")
    sub.add_argument("--d", type=int, default=None, help="local dimension (sud only)")
    sub.add_argument("--n", type=int, required=True, help="number of sites")
    sub.add_argument("--k", type=int, required=True, help="gate locality")
    sub.add_argument(
        "--classes",
        default=None,
        help="sud only: comma list of cycle types, e.g. id,2,3,2+2 (id is always included)",
    )
    sub.add_argument("--format", choices=["json", "csv", "text"], default="text")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 3, the parse-error code (subparsers inherit it)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdesign",
        description="exact design orders of random local symmetric circuits",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("tmax", "exact design order with certificate", cmd_tmax),
        ("lower-bound", "rank-scan lower bound", cmd_lower_bound),
    ):
        s = subs.add_parser(name, help=help_text)
        _add_instance_flags(s)
        s.add_argument(
            "--assume-semiuniversal",
            action="store_true",
            help="assert semi-universality for gate sets below the built-in threshold",
        )
        s.set_defaults(func=func)

    s = subs.add_parser("smatrix", help="dump the exact charge matrix")
    _add_instance_flags(s)
    s.set_defaults(func=cmd_smatrix)

    s = subs.add_parser("table", help="reproduce the headline tables")
    s.add_argument("--reproduce", required=True, choices=["table1", "table2", "tableSUd"])
    s.add_argument("--n-range", required=True, help="inclusive range A..B")
    s.add_argument("--d", type=int, default=None, help="local dimension for tableSUd (default 3)")
    s.add_argument("--format", choices=["json", "csv"], default="csv")
    s.set_defaults(func=cmd_table)

    s = subs.add_parser("verify", help="run a named verification suite")
    s.add_argument("--suite", required=True, choices=_SUITES)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("custom", help="solve a custom problem from JSON")
    s.add_argument("file", help="path to the problem document")
    s.add_argument("--format", choices=["json", "csv", "text"], default="text")
    s.set_defaults(func=cmd_custom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, not the command; stdout goes to devnull so
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # precondition failures, SemiUniversalityError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:  # a failed exactness check of the solver
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
