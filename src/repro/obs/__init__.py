"""repro.obs — unified metrics, tracing & run telemetry.

The estimation stack's observability layer, in three pieces:

* :class:`MetricsRegistry` — process-wide counters / gauges /
  histograms with bounded label sets, Prometheus text exposition
  (:meth:`~MetricsRegistry.render_prometheus`) and JSON snapshots
  (:meth:`~MetricsRegistry.to_dict`) that merge associatively across
  processes;
* :func:`span` — lightweight tracing spans feeding the
  ``span_seconds`` histogram and a bounded trace buffer;
* :class:`RunTelemetry` — per-run cost accounting attached to
  :class:`~repro.stats.result.Checkpoint` /
  :class:`~repro.stats.result.EstimationResult` and persisted through
  pause/resume state.

Instrumentation is **off by default** and measured-zero-cost while off:
every call site guards on :func:`active` returning ``None``.  Turn it
on process-wide with :func:`enable`, or scoped with
:func:`collecting`::

    from repro import obs

    with obs.collecting() as reg:
        result = session.count().run(MaxQueries(2000))
    print(reg.render_prometheus())

Parallel fan-outs (``run_many_parallel`` and the experiment harness,
which share one process pool) propagate automatically: when the parent
has a registry active, each worker run collects into a fresh registry
whose snapshot rides the worker's existing result pipe and merges
parent-side — one fan-out reads as one coherent metric stream, with a
failed worker's partial counts labelled ``outcome="failed"``.
"""

from .registry import (
    COUNTER,
    DEFAULT_BUCKETS,
    GAUGE,
    HISTOGRAM,
    OVERFLOW_LABEL_VALUE,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    active,
    collecting,
    disable,
    enable,
    enabled,
    inc,
    observe,
    paused,
    set_gauge,
)
from .telemetry import RunTelemetry
from .tracing import Span, span

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL_VALUE",
    "SNAPSHOT_FORMAT",
    "MetricsRegistry",
    "RunTelemetry",
    "Span",
    "span",
    "active",
    "enabled",
    "enable",
    "disable",
    "collecting",
    "paused",
    "inc",
    "set_gauge",
    "observe",
]
