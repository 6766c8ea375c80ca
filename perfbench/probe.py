"""Call-site probes: spans, counters and output checks around ccnscale layers.

Every layer is observed from outside the package.  A probe swaps the module
attribute that the pipeline calls through (``ccnscale.cli.solve``,
``ccnscale._kernels.trace_batch``, ...) for a wrapper, and puts the original
back on exit.  No file of the package changes.

A wrapper always runs its output check, because checks count in every run.
It records a span only when tracing is on.  A span holds its name, start,
end, parent, item id and thread.  Each thread keeps its own parent stack;
a pool thread with an empty stack takes the open ``cli.sweep`` span as its
parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

# Every solve carries a KKT certificate; the package rejects worse ones.
KKT_LIMIT = 1e-8


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "thread")

    def __init__(self, id_, name, start, parent, item, thread):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item
        self.thread = thread

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Probe:
    """Wrappers around the pipeline's calls, plus what they observed.

    ``tracing`` switches span recording on and off between passes; checks
    and counters run either way.  Counters and spans are read and reset per
    pass with :meth:`take`.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.adhoc = False  # ad hoc workloads must route every request
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sweep_span: int | None = None
        self._restore: list = []
        self._reset()

    # -- spans --------------------------------------------------------------

    def _reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.frames: list[tuple[int, int]] = []
        self.measurements: list = []
        self.kkt: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []

    def take(self) -> dict:
        """Everything recorded since the last call, then start afresh."""
        with self._lock:
            out = dict(
                spans=self.spans,
                counts=self.counts,
                frames=self.frames,
                measurements=self.measurements,
                kkt=self.kkt,
                checks=self.checks,
            )
            self._reset()
        return out

    @contextmanager
    def span(self, name: str, item=None):
        if not self.tracing:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if parent is None and self._sweep_span is not None:
            parent_id, parent_item = self._sweep_span, None
        else:
            parent_id = parent.id if parent else None
            parent_item = parent.item if parent else None
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent_id,
            parent_item if item is None else item,
            threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- counters and checks -------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        with self._lock:
            self.checks.append((name, bool(ok), detail))

    # -- installing ----------------------------------------------------------

    def _swap(self, orig, wrapper) -> None:
        """Rebind every ``ccnscale`` module attribute that is ``orig``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "ccnscale" or mod_name.startswith("ccnscale.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _wrap(self, orig, name, after=None):
        probe = self

        def wrapper(*args, **kwargs):
            with probe.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                with probe.span("bench.check"):
                    after(args, kwargs, out)
            return out

        self._swap(orig, wrapper)

    def install(self) -> None:
        """Wrap each layer's entry point.  Call :meth:`uninstall` to undo."""
        import ccnscale
        from ccnscale import _kernels, alloc, cli, popularity, scaling, sched, sim

        self.ring_min_holders = _kernels.RING_MIN_HOLDERS

        self._wrap(popularity.zipf, "popularity.zipf")
        for fn in (
            scaling.predicted_delay_order,
            scaling.predicted_throughput_order,
            scaling.m1_m2_orders,
        ):
            self._wrap(fn, "scaling.predict")
        self._wrap(alloc.solve, "alloc.solve", self._after_solve)
        self._wrap(alloc.optimized_delay, "alloc.optimized_delay")
        self._wrap(alloc.round_to_integers, "alloc.round")
        self._wrap(sched.build_schedule, "sched.build_schedule", self._after_schedule)
        self._wrap(sim.build_instance, "sim.build_instance")
        self._wrap(sim.draw_requests, "sim.draw_requests")
        self._wrap(sim.measure, "sim.measure", self._after_measure)
        self._wrap(sim.run_trials, "sim.run_trials")
        self._wrap(_kernels.trace_batch, "kernels.trace_batch", self._after_trace)
        self._wrap_row(cli._compute_row)
        self._wrap_sweep(cli.run_sweep)

        init = ccnscale.NetworkInstance.__init__
        probe = self

        def instance_init(inst, *args, **kwargs):
            with probe.span("sim.instance_init"):
                init(inst, *args, **kwargs)

        ccnscale.NetworkInstance.__init__ = instance_init
        self._restore.append((ccnscale.NetworkInstance, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap_row(self, orig) -> None:
        probe = self

        def compute_row(index, *args, **kwargs):
            with probe.span("cli.row", index):
                try:
                    row = orig(index, *args, **kwargs)
                except Exception as exc:
                    probe.check(f"row {index} ran", False, repr(exc))
                    raise
            probe.check(f"row {index} status", row.status == "ok", row.status)
            return row

        self._swap(orig, compute_row)

    def _wrap_sweep(self, orig) -> None:
        probe = self

        def run_sweep(*args, **kwargs):
            with probe.span("cli.sweep") as span:
                probe._sweep_span = span.id if span is not None else None
                try:
                    return orig(*args, **kwargs)
                finally:
                    probe._sweep_span = None

        self._swap(orig, run_sweep)

    # -- observers -----------------------------------------------------------

    def _after_solve(self, args, kwargs, out) -> None:
        from ccnscale.alloc import kkt_residual

        prob = args[0] if args else kwargs["prob"]
        res = kkt_residual(out, prob)
        with self._lock:
            self.kkt.append(res)
        self.check("solve kkt_residual <= 1e-8", res <= KKT_LIMIT, f"{res:.3e}")

    def _after_schedule(self, args, kwargs, out) -> None:
        with self._lock:
            self.frames.append((int(out.C), int(out.bound) + 1))

    def _after_measure(self, args, kwargs, out) -> None:
        loads = int(out.lines_per_cell.sum())
        hops = int(out.request_hops.sum())
        self.check(
            "trial sum(loads) == hops_total",
            loads == out.hops_total == hops,
            f"loads={loads} hops={hops} hops_total={out.hops_total}",
        )
        with self._lock:
            self.measurements.append(out)

    def _after_trace(self, args, kwargs, out) -> None:
        counts = kernel_counts(args, out, self.ring_min_holders)
        for key, value in counts.items():
            self.add(f"kernels.{key}", value)
        if self.adhoc:
            self.check(
                "ad hoc routing_failures == 0",
                counts["routing_failures"] == 0,
                str(counts["routing_failures"]),
            )


def kernel_counts(args, out, ring_min_holders: int) -> dict[str, int]:
    """Exact work counts of one ``trace_batch`` call, from its inputs and outputs.

    A request runs an expanding-ring search when its content has more than
    ``ring_min_holders`` holders and a linear scan otherwise, and then
    measures its distance to every base station.  Every hop charges one
    cell.  ``input_bytes_computed`` sums the array sizes of the inputs; it
    is computed, not measured, and ignores caches.
    """
    xs, ys, _g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y = args
    hops, _loads, status = out
    req = np.asarray(req)
    sizes = np.diff(np.asarray(h_start))[req]
    ring = int(np.count_nonzero(sizes > ring_min_holders))
    arrays = (xs, ys, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y)
    return {
        "requests": int(req.size),
        "ring_searches": ring,
        "linear_searches": int(req.size) - ring,
        "bs_distance_evals": int(req.size) * len(bs_x),
        "cells_charged": int(np.asarray(hops).sum()),
        "local_serves": int(np.count_nonzero(status == 1)),
        "routing_failures": int(np.count_nonzero(status == 2)),
        "input_bytes_computed": sum(np.asarray(a).nbytes for a in arrays),
    }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children may run on other threads (sweep rows under ``cli.sweep``), so
    the covered part is the union of the children's intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, lo), min(c.end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.id] = (s.end - s.start) - covered
    return out


# Per-layer metric -> (span name, what to sum): "self" or "total" time.
_TIMES = {
    "cli.sweep_s": ("cli.sweep", "total"),
    "cli.sweep_self_s": ("cli.sweep", "self"),
    "cli.row_busy_s": ("cli.row", "total"),
    "cli.row_self_s": ("cli.row", "self"),
    "popularity.zipf_s": ("popularity.zipf", "self"),
    "scaling.predict_s": ("scaling.predict", "self"),
    "alloc.solve_s": ("alloc.solve", "self"),
    "alloc.optimized_delay_s": ("alloc.optimized_delay", "self"),
    "alloc.round_s": ("alloc.round", "self"),
    "sim.instance_s": ("sim.build_instance", "total"),
    "sim.holder_draw_s": ("sim.build_instance", "self"),
    "sim.instance_init_s": ("sim.instance_init", "self"),
    "sim.requests_s": ("sim.draw_requests", "self"),
    "sim.measure_s": ("sim.measure", "self"),
    "sim.aggregate_s": ("sim.run_trials", "self"),
    "sched.build_schedule_s": ("sched.build_schedule", "self"),
    "kernels.trace_s": ("kernels.trace_batch", "self"),
    "bench.self_s": ("bench.pass", "self"),
    "bench.check_s": ("bench.check", "self"),
}

# Per-layer metric -> span name whose spans it counts.
_CALLS = {
    "popularity.zipf_calls": "popularity.zipf",
    "alloc.solve_calls": "alloc.solve",
}

_COUNTS = (
    "kernels.requests",
    "kernels.ring_searches",
    "kernels.linear_searches",
    "kernels.bs_distance_evals",
    "kernels.cells_charged",
    "kernels.local_serves",
    "kernels.routing_failures",
    "kernels.input_bytes_computed",
)


def layer_metrics(rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from :meth:`Probe.take`."""
    spans = rec["spans"]
    own = self_times(spans)
    out = {name: 0.0 for name in _TIMES}
    for name, (span_name, kind) in _TIMES.items():
        for s in spans:
            if s.name == span_name:
                out[name] += own[s.id] if kind == "self" else s.end - s.start
    for name, span_name in _CALLS.items():
        out[name] = sum(1 for s in spans if s.name == span_name)
    counts = rec["counts"]
    for name in _COUNTS:
        out[name] = counts.get(name, 0)
    rows = [ok for name, ok, _ in rec["checks"] if name.startswith("row ")]
    out["cli.rows"] = len(rows)
    out["cli.rows_failed"] = rows.count(False)
    out["cli.pool_overlap"] = (
        out["cli.row_busy_s"] / out["cli.sweep_s"] if out["cli.sweep_s"] else 0.0
    )
    out["alloc.kkt_residual_max"] = max(rec["kkt"], default=0.0)
    ms = rec["measurements"]
    out["sim.trials"] = len(ms)
    trials_s = sum(s.end - s.start for s in spans if s.name == "sim.run_trials")
    out["sim.trial_s"] = trials_s / len(ms) if ms else 0.0
    out["sim.mean_hops"] = float(np.mean([m.mean_hops for m in ms])) if ms else 0.0
    out["sim.fallback_rate"] = (
        sum(m.fallback_used for m in ms) / len(ms) if ms else 0.0
    )
    frames = rec["frames"]
    out["sched.frame_slots"] = float(np.mean([c for c, _ in frames])) if frames else 0
    out["sched.frame_model"] = float(np.mean([m for _, m in frames])) if frames else 0
    trace_s = out["kernels.trace_s"]
    out["kernels.requests_per_s"] = out["kernels.requests"] / trace_s if trace_s else 0.0
    wall = sum(s.end - s.start for s in spans if s.name == "bench.pass")
    out["trace.wall_s"] = wall
    out["trace.self_total_s"] = math.fsum(own.values())
    return out
