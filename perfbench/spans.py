"""Span tracer wrapped around the library's public entry points.

Used only by the traced pass of a benchmark run.  :func:`install`
patches a timing wrapper onto each entry point (class attributes and
the module-level names the callers actually look up) and returns a
handle whose ``restore()`` puts the originals back; nothing under
``src/`` is edited.

Every wrapped call is one span: name, start, end, parent span and the
traced run it belongs to.  Spans are kept in memory (flat arrays, so a
few hundred thousand of them stay cheap) and written out by
:meth:`Tracer.dump` when the benchmark ends.  A span's *self time* is
its duration minus the durations of the spans opened inside it, so the
self times of one process's spans add up to the time covered by its
outermost spans.

Worker processes of ``run_many_parallel`` inherit the wrappers through
fork.  Each worker starts from an empty tracer, and after every run it
adds its totals to the run's ``repro.obs`` registry, which the
coordinator merges once per run; :func:`worker_totals` reads them back.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

clock = time.perf_counter

#: obs counters carrying worker-side totals back to the coordinator.
SELF_COUNTER = "perfbench_self_seconds"
CALLS_COUNTER = "perfbench_calls_total"
COUNTS_COUNTER = "perfbench_counts_total"


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self, workload: str, out_dir: Optional[Path] = None, tag: str = ""):
        self.workload = workload
        self.out_dir = out_dir
        self.tag = tag
        self.owner_pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run = -1
        self._clear_spans()
        self.reset_totals()

    # -- recording -----------------------------------------------------
    def _clear_spans(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.stack: list[list] = []  # [span index, start, child time, name]
        self.open: dict[str, int] = defaultdict(int)

    def reset_totals(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_run.append(self.run)
        self.span_end.append(0.0)
        self.open[name] += 1
        start = clock()
        self.span_start.append(start)
        frame = [idx, start, 0.0, name]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = clock()
        idx, start, child, name = frame
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        elif frame in self.stack:  # a generator span closed out of order
            self.stack.remove(frame)
        dur = end - start
        self.span_end[idx] = end
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.open[name] -= 1
        if self.stack:
            self.stack[-1][2] += dur

    def top(self) -> Optional[str]:
        return self.stack[-1][3] if self.stack else None

    # -- worker processes ----------------------------------------------
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def start_worker(self) -> None:
        """Forget what the parent had recorded before the fork."""
        self._clear_spans()
        self.reset_totals()

    def export_totals(self, registry) -> None:
        """Add this process's totals to ``registry`` and reset them."""
        for name, value in self.self_s.items():
            registry.inc(SELF_COUNTER, value, {"span": name})
        for name, value in self.calls.items():
            registry.inc(CALLS_COUNTER, float(value), {"span": name})
        for key, value in self.counts.items():
            registry.inc(COUNTS_COUNTER, value, {"key": key})
        self.reset_totals()

    # -- output --------------------------------------------------------
    def dump(self, suffix: str = "") -> Optional[Path]:
        """Write every recorded span to ``<out_dir>/spans-<tag><suffix>.npz``."""
        if self.out_dir is None or not len(self.span_start):
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.tag}{suffix}.npz"
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            workload=np.array(self.workload),
            pid=np.array(os.getpid()),
        )
        return path


def worker_totals(registry) -> tuple[dict, dict, dict]:
    """``(self_s, calls, counts)`` merged from worker runs into ``registry``."""

    def by(counter: str, label: str) -> dict:
        out: dict = defaultdict(float)
        for key, value in registry.series(counter).items():
            labels = dict(key)
            if label in labels:
                out[labels[label]] += value
        return out

    return by(SELF_COUNTER, "span"), by(CALLS_COUNTER, "span"), by(COUNTS_COUNTER, "key")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(fn: Callable, tracer: Tracer, name: str,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, out)
        return out

    return traced


def _timed_generator(fn: Callable, tracer: Tracer, name: str) -> Callable:
    """A span open from the first ``next()`` until the generator ends;
    whatever the consumer traces between items nests inside it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _timed_interface(fn: Callable, tracer: Tracer, name: str) -> Callable:
    """Interface calls also count history misses (a call made directly
    from ``ObservationHistory.query``) and the budget-paid queries issued
    while an edge search is open."""

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        if tracer.top() == "history.query":
            tracer.counts["history.misses"] += 1
        used = self.budget.used
        frame = tracer.enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(frame)
            if tracer.open["edge_search.estimate_boundary_line"]:
                tracer.counts["edge_search.queries"] += self.budget.used - used

    return traced


class Installed:
    """Handle of the patched attributes; ``restore()`` undoes them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> Installed:
    """Wrap the entry points of every layer the benchmark reports."""
    import repro.index as index_pkg
    import repro.index.base as index_base
    import repro.lbs.interface as lbs_interface
    from repro.api.session import SessionRun
    from repro.core import lnr_cell, voronoi_oracle
    from repro.core.bounds import MonteCarloFinish
    from repro.core.history import ObservationHistory
    from repro.core.lnr_cell import LnrCellOracle
    from repro.core.variance import AdaptiveHSelector
    from repro.core.voronoi_oracle import TopHCellOracle
    from repro.obs import registry as obs_registry
    from repro.parallel import executor
    from repro.parallel.sharedmem import SharedWorld
    from repro.sampling.uniform import UniformSampler
    from repro.worlds.spec import WorldSpec

    def timed(name: str, after: Optional[Callable] = None):
        return lambda fn: _timed(fn, tracer, name, after)

    def count_exact(_args, out) -> None:
        tracer.counts["voronoi_oracle.exact"] += bool(out.exact)

    def count_pieces(_args, out) -> None:
        tracer.counts["arrangement.pieces"] += len(out.pieces)

    def count_trials(_args, out) -> None:
        tracer.counts["bounds.trials"] += out.trials

    def count_bytes(args, _out) -> None:
        tracer.counts["api.checkpoint_bytes"] += os.path.getsize(args[0])

    def run_in_worker(fn: Callable) -> Callable:
        traced = _timed(fn, tracer, "parallel.run")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                registry = obs_registry.active()
                if tracer.in_worker() and registry is not None:
                    tracer.export_totals(registry)

        return wrapper

    def worker_main(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.start_worker()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.dump(f"-pid{os.getpid()}")

        return wrapper

    inst = Installed()
    # Every backend: whichever one the engine picks is the one timed.
    for cls in (index_pkg.GridIndex, index_pkg.KdTree, index_pkg.BruteForceIndex,
                index_pkg.ShardedGridIndex):
        inst.patch(cls, "knn", timed("index.knn"))
        inst.patch(cls, "knn_batch", timed("index.knn_batch"))
    for module in (index_base, index_pkg, lbs_interface, executor):
        inst.patch(module, "make_index_arrays", timed("index.build"))
    inst.patch(lbs_interface.KnnInterface, "query",
               lambda fn: _timed_interface(fn, tracer, "lbs.query"))
    inst.patch(lbs_interface.KnnInterface, "query_batch",
               lambda fn: _timed_interface(fn, tracer, "lbs.query_batch"))
    inst.patch(ObservationHistory, "query", timed("history.query"))
    inst.patch(ObservationHistory, "prefetch", timed("history.prefetch"))
    inst.patch(ObservationHistory, "record", timed("history.record"))
    inst.patch(TopHCellOracle, "compute", timed("voronoi_oracle.compute", count_exact))
    inst.patch(TopHCellOracle, "history_region", timed("voronoi_oracle.history_region"))
    for module in (voronoi_oracle, lnr_cell):
        inst.patch(module, "build_level_region",
                   timed("arrangement.build_level_region", count_pieces))
    inst.patch(MonteCarloFinish, "run", timed("bounds.mc_finish", count_trials))
    inst.patch(AdaptiveHSelector, "choose", timed("variance.choose"))
    inst.patch(UniformSampler, "measure_polygon", timed("sampling.measure_polygon"))
    inst.patch(LnrCellOracle, "compute", timed("lnr_cell.compute"))
    inst.patch(lnr_cell, "estimate_boundary_line",
               timed("edge_search.estimate_boundary_line"))
    inst.patch(SessionRun, "__iter__", lambda fn: _timed_generator(fn, tracer, "driver.run"))
    inst.patch(SessionRun, "to_state", timed("api.to_state"))
    inst.patch(WorldSpec, "build", timed("worlds.build"))
    inst.patch(SharedWorld, "export", timed("parallel.export"))
    inst.patch(executor, "_write_json_atomic", timed("parallel.checkpoint_write", count_bytes))
    inst.patch(executor, "_execute_run", run_in_worker)
    inst.patch(executor, "_worker_main", worker_main)
    return inst
