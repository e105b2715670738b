"""Span tracing of meanfield_lab's public entry points, from outside the package.

``Tracer.install`` replaces each traced function in every namespace that
binds it -- the package root, its home module, re-imports such as
``limits.pressure_limit``, and module-level dicts such as the CLI's
command table -- so that calls a layer makes into another layer are
timed too.  ``Tracer.uninstall`` puts every original binding back.

Workload code must reach the layers through module attributes
(``solver.pressure_limit(...)``): a name imported before ``install``
keeps pointing at the untraced function.

Spans are kept in memory as (name, start, end, parent) and reduced to
per-function self time (duration minus the time of direct children) at
the end.  The call stack is a plain list, so traced code must call the
traced functions from one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter

# Functions traced per layer module; span names are "<module>.<function>".
TRACED = {
    "model": ("validate_model", "hamiltonian_density"),
    "solver": ("solve_fixed_points", "classify_maximum", "pressure_limit",
               "cw_phase_scan"),
    "exact": ("log_partition", "finite_pressure", "magnetization_law",
              "exact_moments", "exact_sample", "normalized_sum_law",
              "write_samples_csv", "read_samples_csv"),
    "limits": ("build_limit_law", "covariance_tilde", "ks_distance",
               "law_cdf_1d"),
    "inverse": ("estimate_moments", "invert_cw", "invert_multi",
                "invert_conditioned", "mle_fit"),
    "cli": ("cmd_solve", "cmd_pressure", "cmd_sample", "cmd_limits",
            "cmd_invert", "cmd_phase"),
}

COUNT_NAMES = ("solver.starts", "solver.fixed_points", "solver.maxima",
               "exact.lattice_points", "exact.sample_rows", "exact.csv_bytes")

PACKAGE = "meanfield_lab"


def span_name(module: str, func: str) -> str:
    """``cli.cmd_solve`` is reported as ``cli.solve``; others unchanged."""
    if module == "cli" and func.startswith("cmd_"):
        func = func[4:]
    return f"{module}.{func}"


SPAN_NAMES = tuple(span_name(m, f) for m, fs in TRACED.items() for f in fs)


# --- work counters, evaluated after the traced call returns -----------------
# solver.starts: multistart grid points (grid_points ** n); solver.fixed_points:
# distinct fixed points returned (kept_ratio = fixed_points / starts);
# solver.maxima: classified global maxima; exact.lattice_points: lattice
# volume of every weight table built; exact.sample_rows: rows drawn;
# exact.csv_bytes: sample-file bytes written plus bytes read.


def _count_starts(counts, arguments, result):
    opts = arguments["opts"] or importlib.import_module(PACKAGE + ".solver").SolverOptions()
    counts["solver.starts"] += opts.grid_points ** int(arguments["model"].n)
    counts["solver.fixed_points"] += len(result)


def _count_maxima(counts, arguments, result):
    counts["solver.maxima"] += len(result.maxima)


def _count_lattice(counts, arguments, result):
    counts["exact.lattice_points"] += math.prod(int(s) + 1 for s in arguments["sizes"])


def _count_rows(counts, arguments, result):
    counts["exact.sample_rows"] += int(arguments["M"])


def _count_csv(counts, arguments, result):
    counts["exact.csv_bytes"] += os.path.getsize(arguments["path"])


COUNTERS = {
    "solver.solve_fixed_points": _count_starts,
    "solver.pressure_limit": _count_maxima,
    "exact.log_partition": _count_lattice,
    "exact.magnetization_law": _count_lattice,
    "exact.exact_sample": _count_rows,
    "exact.write_samples_csv": _count_csv,
    "exact.read_samples_csv": _count_csv,
}


class Tracer:
    """Records nested spans and work counts for the traced functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        traced.__traced_original__ = fn
        return traced

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- installation --

    def install(self):
        """Wrap every traced function in every namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
        wrappers = {}
        for module, funcs in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{module}")
            for func in funcs:
                original = getattr(home, func)
                wrappers[id(original)] = (original,
                                          self.wrap(span_name(module, func), original))

        def swap(container, key, value):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._restore.append((container, key, value))
                container[key] = hit[1]

        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                swap(namespace, key, value)
                if isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        swap(value, dkey, dvalue)

    def uninstall(self):
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> tuple[dict[str, float], Counter, float]:
    """Per-name self seconds, per-name call counts, and total root time.

    A span's self time is its duration minus the durations of the spans
    directly below it; the sum of all self times equals the time covered
    by root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs: dict[str, float] = {}
    calls: Counter = Counter()
    root = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] += 1
        if parent < 0:
            root += end - start
    return selfs, calls, root
