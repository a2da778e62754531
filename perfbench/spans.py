"""Span tracing of calls into the fisheye modules, installed from outside.

The program is not edited.  A `Tracer` replaces each listed public function
with a wrapper at every binding a caller looks it up through: the defining
module's attribute, and every other `fisheye.*` module (and the package
itself) that imported the same function object with `from .x import y`.
`uninstall` puts every original back and checks that no wrapper is left, so
untraced timing never pays for a wrapper.

Each wrapped call records one span: (id, parent id, trace id, name, start ns,
end ns, extra).  The parent is the innermost open span of the same thread.
The trace id is the id of the command's `cli.main` span, so all spans of one
command share it.  Spans stay in memory until `write` is called.

Calls made in the worker threads of `cli._pmap` (a thread with no open span
that calls anything but `cli.main`) are not recorded.  Self time is wall
time, and the pooled sweep is GIL-bound: a worker thread that waits for the
GIL would count that wait as the self time of whatever call it is in, so
the pool's cost would read as a slower `legendre_nu`.  Instead, a command
that used the pool is compared with its serial twin, the same command line
without `--workers` run in the same pass, and the difference of their
durations is the pool's cost (`cli.pool_s`).
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import statistics
import sys
import threading
import time

#: Wrapped functions as (module, attribute).  Their names are the layer names.
TARGETS = (
    ("cli", "main"),
    ("specfun", "legendre_nu"),
    ("specfun", "accelerate"),
    ("specfun", "legendre_poly_table"),
    ("lens", "orthonormality_check"),
    ("greens", "greens_zz"),
    ("greens", "greens_modesum"),
    ("qed", "coupling_rates"),
    ("qed", "rates_modesum_oracle"),
    ("schrodinger", "build_blocks"),
    ("schrodinger", "evolve"),
    ("schrodinger", "compare_to_analytics"),
    ("plasmon", "solve_effective_index"),
    ("plasmon", "sweep_effective_index"),
    ("plasmon", "lens_height_profile"),
    ("plasmon", "average_absorption"),
    ("plasmon", "end_to_end_estimate"),
)

#: Bindings made by `from .x import y` that callers look up; install checks them.
IMPORTED_BINDINGS = (
    ("greens", "legendre_nu"),
    ("qed", "greens_zz"),
    ("schrodinger", "coupling_rates"),
    ("schrodinger", "legendre_poly_table"),
)


def _command_key(argv) -> str:
    """The command line without `--out` and `--workers`: equal for a command and its serial twin."""
    argv, kept = list(argv), []
    while argv:
        arg = argv.pop(0)
        if arg in ("--out", "--workers"):
            argv.pop(0)
        elif not arg.startswith(("--out=", "--workers=")):
            kept.append(arg)
    return " ".join(kept)


def _extra(name: str, args: tuple, kwargs: dict, result) -> float | tuple | None:
    """Work counts read at the layer boundary, from arguments or the result."""
    if name == "specfun.accelerate":
        return float(len(args[0]))
    if name == "specfun.legendre_poly_table":
        l_max = args[0] if args else kwargs["l_max"]
        return float(l_max + 1)
    if name == "greens.greens_modesum":
        return (float(result.l_max), 1.0 if result.converged else 0.0)
    if name == "schrodinger.evolve":
        blocks = args[0] if args else kwargs["blocks"]
        return float(sum(b.dim for b in blocks)) / len(blocks)
    return None


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._pooled = False  # the open cli.main call has run calls in pool threads
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "fisheye" or k.startswith("fisheye.")]
        for mod_name, attr in TARGETS:
            home = sys.modules[f"fisheye.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))
        for mod_name, attr in IMPORTED_BINDINGS:
            if not hasattr(getattr(sys.modules[f"fisheye.{mod_name}"], attr), "__perfbench_span__"):
                raise RuntimeError(f"fisheye.{mod_name}.{attr} was not wrapped")

    def uninstall(self) -> None:
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed.clear()
        for k, mod in list(sys.modules.items()):
            if k == "fisheye" or k.startswith("fisheye."):
                for value in vars(mod).values():
                    if getattr(value, "__perfbench_span__", None) is not None:
                        raise RuntimeError(f"trace wrapper left in {k}")

    # -------------------------------------------------------------- spans

    def _wrap(self, name: str, fn):
        tracer = self
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack and not is_root:  # a worker thread of cli._pmap
                tracer._pooled = True
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if is_root:
                tracer._root = span_id
                tracer._pooled = False
            trace_id = tracer._root
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            if is_root:
                argv = args[0] if args else kwargs.get("argv") or ()
                extra = (_command_key(argv), tracer._pooled)
            else:
                extra = _extra(name, args, kwargs, result)
            tracer.spans.append((span_id, parent, trace_id, name, start, end, extra))
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def write(self, path) -> None:
        """Write the spans as CSV: id,parent,trace,name,start_ns,end_ns,extra."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "trace", "name", "start_ns", "end_ns", "extra"])
            for span_id, parent, trace_id, name, start, end, extra in sorted(self.spans):
                extra_txt = "" if extra is None else (
                    " ".join(repr(v) for v in extra) if isinstance(extra, tuple) else repr(extra)
                )
                out.writerow([span_id, parent or "", trace_id or "", name, start, end, extra_txt])


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics, each per pass of the workload.

    `calls` and the work counts are totals divided by the number of traced
    passes (exact, as every pass runs the same commands).  `self_s` is the
    summed self time per pass: a span's duration minus the part of it that
    its child spans cover.  Latency quantiles are over single calls, with
    the span's full duration.  A `cli.main` call that used the thread pool
    has no recorded children; its self time is its duration minus that of
    its serial twin in the same pass, which is also reported alone as
    `cli.pool_s`.  So the self times of a pass sum to at most its wall time:
    the work of a pooled command is counted once, in its serial twin's spans.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    by_name: dict[str, list[tuple]] = {f"{m}.{a}": [] for m, a in TARGETS}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
        by_name[span[3]].append(span)

    def self_time(span) -> int:
        return span[5] - span[4] - _covered(children.get(span[0], []), span[4], span[5])

    # a pooled command's serial twin is the serial cli.main span with the
    # same key that started nearest to it, i.e. the one of the same pass
    mains = by_name["cli.main"]
    pool_ns = 0
    for span in mains:
        key, pooled = span[6]
        if pooled:
            twins = [t for t in mains if t[6] == (key, False)]
            if not twins:
                raise RuntimeError(f"no serial twin for the pooled command {key!r}")
            twin = min(twins, key=lambda t: abs(t[4] - span[4]))
            pool_ns += (span[5] - span[4]) - (twin[5] - twin[4])

    out: dict[str, float] = {"cli.pool_s": pool_ns * 1e-9 / passes}
    for name, group in by_name.items():
        durations = [(s[5] - s[4]) * 1e-9 for s in group]
        extra = [s[6] for s in group]
        self_ns = sum(self_time(s) for s in group if name != "cli.main" or not s[6][1])
        if name == "cli.main":
            self_ns += pool_ns
        out[f"{name}.calls"] = len(group) / passes
        out[f"{name}.self_s"] = self_ns * 1e-9 / passes
        if name == "specfun.legendre_nu":
            out[f"{name}.p50_us"] = _quantile(durations, 0.50) * 1e6
            out[f"{name}.p99_us"] = _quantile(durations, 0.99) * 1e6
        elif name in ("specfun.accelerate", "specfun.legendre_poly_table"):
            out[f"{name}.terms"] = sum(extra) / passes
        elif name in ("greens.greens_zz", "qed.coupling_rates"):
            out[f"{name}.p50_us"] = _quantile(durations, 0.50) * 1e6
        elif name == "greens.greens_modesum":
            out[f"{name}.l_max_mean"] = _mean(e[0] for e in extra)
            out[f"{name}.converged_ratio"] = _mean(e[1] for e in extra)
        elif name == "schrodinger.evolve":
            out[f"{name}.dim_mean"] = _mean(extra)
        elif name == "schrodinger.compare_to_analytics":
            out[f"{name}.p50_ms"] = _quantile(durations, 0.50) * 1e3
            out[f"{name}.p90_ms"] = _quantile(durations, 0.90) * 1e3
    return out
