"""Per-layer spans for symdesign, recorded from outside the package.

Each traced function is replaced, in every ``symdesign`` module namespace that
binds it, by a wrapper that records a span.  Replacing the binding where the
name is looked up is what makes the spans see internal calls: ``solver`` binds
``lll_reduce`` with ``from .intlinalg import ...``, so wrapping only
``intlinalg.lll_reduce`` would miss the calls made by ``min_weighted_l1``.

A span's self time is its duration minus the time covered by its child spans,
so the self times of all spans plus the untraced remainder add up to the
traced wall time.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, function) pairs whose calls become spans named "module.function".
TRACED = (
    ("groups", "sectors"),
    ("groups", "canonical_order"),
    ("charges", "build_charge_matrix"),
    ("charges", "character_matrix"),
    ("charges", "load_custom_problem"),
    ("intlinalg", "kernel_lattice"),
    ("intlinalg", "lll_reduce"),
    ("solver", "compute_tmax"),
    ("solver", "multiplicity_consistent"),
    ("solver", "lower_bound"),
    ("solver", "tmax_exact"),
    ("solver", "min_weighted_l1"),
    ("solver", "verify_certificate"),
    ("closedforms", "closed_tmax"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
TRACE_MARKER = "BENCH-TRACE "  # prefixes the line a traced CLI child writes on stderr
MATRIX_BUILDERS = ("charges.build_charge_matrix", "charges.character_matrix", "charges.load_custom_problem")


class Tracer:
    """Span stack plus the counters measured at the same boundaries.

    ``rid`` is the id of the request being served; every span and per-request
    fact recorded while it is set belongs to that request.
    """

    def __init__(self):
        self.rid: str | None = None
        self.spans: list[tuple] = []  # (sid, parent sid, rid, name, start, end, self_s)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self.lll_dim_sum = 0
        self.wl1_improved = 0
        self.widest_prefix: dict = {}  # rid -> widest column prefix handed to kernel_lattice
        self.columns_built: dict = {}  # rid -> columns of the widest charge matrix built
        self._stack: list[list] = []  # [sid, child seconds]
        self._next_sid = 0
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self, modules=("groups", "charges", "intlinalg", "solver", "closedforms", "cli")):
        """Wrap every traced name of the given symdesign modules.

        A module or name that does not exist is recorded in ``absent`` rather
        than raising, so the same benchmark runs against later layouts.
        """
        for mod_name, fn_name in TRACED:
            if mod_name not in modules:
                continue
            span = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"symdesign.{mod_name}")
            except ImportError:
                self.absent.append(span)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "symdesign" and not loaded_name.startswith("symdesign."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._restore.append((loaded, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        observe = _OBSERVERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([sid, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child_s = self._stack.pop()[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, parent, self.rid, span, start, end, end - start - child_s))
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # a later signature the counter cannot read: report it, keep tracing
                    self.broken_counters.add(span)
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def state(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": self.spans,
            "absent": self.absent,
            "broken_counters": sorted(self.broken_counters),
            "lll_dim_sum": self.lll_dim_sum,
            "wl1_improved": self.wl1_improved,
            "widest_prefix": [[k, v] for k, v in self.widest_prefix.items()],
            "columns_built": [[k, v] for k, v in self.columns_built.items()],
        }


def _bump_max(table: dict, key, value: int):
    if value > table.get(key, 0):
        table[key] = value


def _observe_kernel(tracer: Tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    _bump_max(tracer.widest_prefix, tracer.rid, len(rows[0]) if rows else 0)


def _observe_lll(tracer: Tracer, args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    tracer.lll_dim_sum += len(basis)


def _observe_wl1(tracer: Tracer, args, kwargs, result):
    upper = args[2] if len(args) > 2 else kwargs.get("upper")
    if result is not None and (upper is None or result.weighted_norm < upper):
        tracer.wl1_improved += 1


def _observe_matrix(tracer: Tracer, args, kwargs, result):
    matrix = result[1] if isinstance(result, tuple) else result
    _bump_max(tracer.columns_built, tracer.rid, matrix.shape[1])


_OBSERVERS = {
    "intlinalg.kernel_lattice": _observe_kernel,
    "intlinalg.lll_reduce": _observe_lll,
    "solver.min_weighted_l1": _observe_wl1,
    **{name: _observe_matrix for name in MATRIX_BUILDERS},
}


def summarize(states: list[dict], wall_s: float) -> dict:
    """Per-layer metrics from the recorded states of one or more processes.

    ``wall_s`` is the traced wall time the spans fall in.  A CLI child's state
    also carries ``import_s``, its import of ``symdesign.cli``, which no span covers.
    """
    import_s = sum(st.get("import_s", 0.0) for st in states)
    self_s = {name: 0.0 for name in SPAN_NAMES}
    calls = {name: 0 for name in SPAN_NAMES}
    dim_sum = improved = 0
    widest: dict = {}
    built: dict = {}
    for st in states:
        for _sid, _parent, _rid, name, _start, _end, own in st["spans"]:
            self_s[name] += own
            calls[name] += 1
        dim_sum += st["lll_dim_sum"]
        improved += st["wl1_improved"]
        widest.update(dict(st["widest_prefix"]))
        built.update(dict(st["columns_built"]))
    covered = sum(self_s.values()) + import_s
    metrics = {f"{name}.self_s": (self_s[name], "s") for name in SPAN_NAMES}
    metrics.update(
        {
            "cli.import_s": (import_s, "s"),
            "intlinalg.kernel_lattice.calls": (calls["intlinalg.kernel_lattice"], "count"),
            "intlinalg.lll_reduce.calls": (calls["intlinalg.lll_reduce"], "count"),
            "intlinalg.lll_reduce.dim_sum": (dim_sum, "count"),
            "solver.min_weighted_l1.improve_ratio": (
                improved / calls["solver.min_weighted_l1"] if calls["solver.min_weighted_l1"] else 0.0,
                "ratio",
            ),
            "charges.columns_used_ratio": (
                sum(widest.get(rid, 0) for rid in built) / sum(built.values()) if built else 0.0,
                "ratio",
            ),
            "bench.other_s": (wall_s - covered, "s"),
        }
    )
    return metrics
