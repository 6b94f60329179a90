"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric series for a process (or
for one worker run, when collecting per-run).  Series are keyed by
metric name plus a small sorted label tuple; the number of distinct
label sets per metric is bounded (``label_limit``) so a buggy call site
cannot grow memory without bound — overflow series collapse onto a
single ``__other__`` sentinel label set.

The module also owns the process-wide *active registry* slot.  All
instrumentation in the library is guarded by::

    reg = obs.active()
    if reg is not None:
        reg.inc("interface_queries_total", 1.0, {"kind": "lr"})

so the disabled default costs one function call and one ``None`` check
per guarded block (measured ≤2% on the grid ``knn_batch`` benchmark —
enforced in CI by ``benchmarks/bench_scaling.py``).  Instrumentation
observes and never branches: every estimate is bit-identical whether a
registry is active or not.

Snapshots (:meth:`MetricsRegistry.to_dict`) are plain JSON documents and
merge associatively (:meth:`MetricsRegistry.merge`): counters and
histograms add, gauges keep the last write.  Worker processes collect
into fresh registries and ship one snapshot each back over the result
queue; the parent merges them, so a fan-out run reads as one coherent
metric stream.
"""

from __future__ import annotations

import re
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL_VALUE",
    "SNAPSHOT_FORMAT",
    "MetricsRegistry",
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

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bucket upper bounds, in seconds (spans are the main
#: histogram consumer).  A final implicit +Inf bucket is always present.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Label value that absorbs series beyond a metric's ``label_limit``.
OVERFLOW_LABEL_VALUE = "__other__"

#: Version tag on every snapshot dict; bumped when the shape changes.
SNAPSHOT_FORMAT = 1

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]

#: Most label dicts a registry remembers the sorted key of: call sites
#: pass a handful of fixed label sets, so this bound only stops a buggy
#: one from growing the memo without limit.
_LABEL_KEY_MEMO_LIMIT = 1024


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    """One histogram series: cumulative bucket counts + sum + count."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = 0
        bounds = self.bounds
        while i < len(bounds) and value > bounds[i]:
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1

    def add(self, counts, total: float, count: int) -> None:
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram bucket mismatch: {len(counts)} buckets vs {len(self.counts)}"
            )
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += float(total)
        self.count += int(count)


class _Metric:
    __slots__ = ("name", "type", "series", "buckets", "overflowed")

    def __init__(self, name: str, mtype: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.type = mtype
        self.buckets = buckets
        self.series: Dict[LabelKey, object] = {}
        self.overflowed = False


class MetricsRegistry:
    """Typed metric store with bounded per-metric label cardinality.

    Metric names must match the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``); a name keeps the type it was first
    used with, and using it as a different type raises ``ValueError``.
    """

    __slots__ = ("_metrics", "label_limit", "spans", "span_limit", "_label_keys")

    def __init__(self, label_limit: int = 64, span_limit: int = 256) -> None:
        if label_limit < 1:
            raise ValueError("label_limit must be >= 1")
        self._metrics: Dict[str, _Metric] = {}
        #: ``tuple(labels.items()) -> sorted label key``, for all-``str``
        #: label dicts only: only a ``str`` equals a ``str``, so a hit
        #: never returns the key of ``1``, ``True`` or ``1.0``.
        self._label_keys: Dict[tuple, LabelKey] = {}
        self.label_limit = label_limit
        self.span_limit = span_limit
        #: Bounded trace of completed spans, oldest dropped first.
        self.spans: deque = deque(maxlen=span_limit)

    # -- write paths ---------------------------------------------------

    def _metric(self, name: str, mtype: str, buckets: Tuple[float, ...]) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            metric = _Metric(name, mtype, buckets)
            self._metrics[name] = metric
        elif metric.type != mtype:
            raise ValueError(
                f"metric {name!r} is a {metric.type}, not a {mtype}"
            )
        return metric

    def _series_key(self, metric: _Metric, labels: Optional[Mapping[str, str]]) -> LabelKey:
        if not labels:
            key: LabelKey = ()
        else:
            items = tuple(labels.items())
            memo = self._label_keys
            try:
                key = memo.get(items)
            except TypeError:  # an unhashable label value
                key = None
            if key is None:
                key = _label_key(labels)
                if len(memo) < _LABEL_KEY_MEMO_LIMIT and all(
                    type(k) is str and type(v) is str for k, v in items
                ):
                    memo[items] = key
        if key in metric.series or len(metric.series) < self.label_limit:
            return key
        # Cardinality bound hit: collapse onto the sentinel label set.
        metric.overflowed = True
        return tuple((k, OVERFLOW_LABEL_VALUE) for k, _ in key)

    def inc(self, name: str, value: float = 1.0,
            labels: Optional[Mapping[str, str]] = None) -> None:
        """Add ``value`` (must be >= 0) to a counter series."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (value={value})")
        metric = self._metrics.get(name)
        if metric is None or metric.type != COUNTER:
            metric = self._metric(name, COUNTER, DEFAULT_BUCKETS)
        key = self._series_key(metric, labels)
        series = metric.series
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, str]] = None) -> None:
        """Set a gauge series to ``value`` (last write wins)."""
        metric = self._metric(name, GAUGE, DEFAULT_BUCKETS)
        metric.series[self._series_key(metric, labels)] = float(value)

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, str]] = None,
                buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record one observation into a histogram series."""
        metric = self._metric(name, HISTOGRAM, buckets)
        key = self._series_key(metric, labels)
        hist = metric.series.get(key)
        if hist is None:
            hist = metric.series[key] = _Histogram(metric.buckets)
        hist.observe(float(value))

    def add_span(self, record: dict) -> None:
        self.spans.append(record)

    # -- read paths ----------------------------------------------------

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Optional[float]:
        """Value of one counter/gauge series, or ``None`` if absent."""
        metric = self._metrics.get(name)
        if metric is None or metric.type == HISTOGRAM:
            return None
        value = metric.series.get(_label_key(labels))
        return None if value is None else float(value)

    def total(self, name: str) -> float:
        """Sum of a counter (or gauge) across every label set; 0.0 if absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if metric.type == HISTOGRAM:
            return float(sum(h.count for h in metric.series.values()))
        return float(sum(metric.series.values()))

    def series(self, name: str) -> Dict[LabelKey, float]:
        """All counter/gauge series of one metric as ``{label_key: value}``."""
        metric = self._metrics.get(name)
        if metric is None or metric.type == HISTOGRAM:
            return {}
        return {k: float(v) for k, v in metric.series.items()}

    def names(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    # -- snapshot / merge ----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every series (and the span trace)."""
        metrics = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = []
            for key in sorted(metric.series):
                entry: dict = {"labels": {k: v for k, v in key}}
                value = metric.series[key]
                if metric.type == HISTOGRAM:
                    entry["counts"] = list(value.counts)
                    entry["sum"] = value.sum
                    entry["count"] = value.count
                else:
                    entry["value"] = value
                series.append(entry)
            out = {"type": metric.type, "series": series}
            if metric.type == HISTOGRAM:
                out["buckets"] = list(metric.buckets)
            if metric.overflowed:
                out["overflowed"] = True
            metrics[name] = out
        return {
            "format": SNAPSHOT_FORMAT,
            "metrics": metrics,
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, snapshot: dict, *, label_limit: int = 64) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        reg = cls(label_limit=label_limit)
        reg.merge(snapshot)
        return reg

    def merge(self, snapshot, extra_labels: Optional[Mapping[str, str]] = None) -> None:
        """Fold another registry (or its ``to_dict()``) into this one.

        Counters and histograms add; gauges keep the incoming value
        (last write wins).  ``extra_labels`` are stamped onto every
        incoming series — the parallel executor uses this to label a
        failed worker's partial counts with ``outcome="failed"`` so they
        never mix with completed-run totals.
        """
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.to_dict()
        fmt = snapshot.get("format")
        if fmt != SNAPSHOT_FORMAT:
            raise ValueError(
                f"cannot merge a format-{fmt} metrics snapshot with this release "
                f"(snapshot format v{SNAPSHOT_FORMAT})"
            )
        for name, payload in snapshot.get("metrics", {}).items():
            mtype = payload["type"]
            buckets = tuple(payload.get("buckets", DEFAULT_BUCKETS))
            for entry in payload["series"]:
                labels = dict(entry.get("labels", {}))
                if extra_labels:
                    labels.update(extra_labels)
                if mtype == COUNTER:
                    self.inc(name, float(entry["value"]), labels)
                elif mtype == GAUGE:
                    self.set_gauge(name, float(entry["value"]), labels)
                elif mtype == HISTOGRAM:
                    metric = self._metric(name, HISTOGRAM, buckets)
                    key = self._series_key(metric, labels)
                    hist = metric.series.get(key)
                    if hist is None:
                        hist = metric.series[key] = _Histogram(metric.buckets)
                    hist.add(entry["counts"], entry["sum"], entry["count"])
                else:
                    raise ValueError(f"unknown metric type {mtype!r} for {name!r}")
        for record in snapshot.get("spans", ()):
            if extra_labels:
                record = dict(record)
                merged = dict(record.get("labels", {}))
                merged.update(extra_labels)
                record["labels"] = merged
            self.spans.append(record)

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# TYPE {name} {metric.type}")
            for key in sorted(metric.series):
                value = metric.series[key]
                if metric.type == HISTOGRAM:
                    cumulative = 0
                    for bound, count in zip(
                        list(metric.buckets) + ["+Inf"], value.counts
                    ):
                        cumulative += count
                        le = bound if bound == "+Inf" else _format_value(bound)
                        lines.append(
                            f"{name}_bucket{_render_labels(key, extra=('le', str(le)))} "
                            f"{cumulative}"
                        )
                    lines.append(f"{name}_sum{_render_labels(key)} {_format_value(value.sum)}")
                    lines.append(f"{name}_count{_render_labels(key)} {value.count}")
                else:
                    lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs = sorted(pairs + [extra])
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


# -- process-wide active registry --------------------------------------
#
# ``None`` means instrumentation is disabled (the default).  Hot paths
# read the slot once per guarded block; the convenience helpers below
# exist for cold paths where an extra call is immaterial.

_active: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The registry instrumentation writes to, or ``None`` when disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> Optional[MetricsRegistry]:
    """Remove the active registry; returns the one that was installed."""
    global _active
    reg, _active = _active, None
    return reg


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None):
    """Temporarily install a registry (fresh by default), restoring on exit.

    Worker processes wrap each run in ``collecting()`` so every run
    snapshots from a zeroed registry — the parent merges snapshots, and
    nothing is ever counted twice.
    """
    global _active
    prev = _active
    reg = registry if registry is not None else MetricsRegistry()
    _active = reg
    try:
        yield reg
    finally:
        _active = prev


@contextmanager
def paused():
    """Temporarily disable instrumentation, restoring on exit."""
    global _active
    prev = _active
    _active = None
    try:
        yield
    finally:
        _active = prev


def inc(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment a counter on the active registry; no-op when disabled."""
    reg = _active
    if reg is not None:
        reg.inc(name, value, labels or None)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active registry; no-op when disabled."""
    reg = _active
    if reg is not None:
        reg.set_gauge(name, value, labels or None)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation; no-op when disabled."""
    reg = _active
    if reg is not None:
        reg.observe(name, value, labels or None)
