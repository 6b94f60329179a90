"""MetricsRegistry: types, labels, overflow, snapshots, merge, exposition."""

import json

import pytest

from repro.obs import registry as obs
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL_VALUE,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
)


class TestCounters:
    def test_inc_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("queries_total", 1.0, {"kind": "lr"})
        reg.inc("queries_total", 2.0, {"kind": "lr"})
        reg.inc("queries_total", 5.0, {"kind": "lnr"})
        assert reg.get("queries_total", {"kind": "lr"}) == 3.0
        assert reg.get("queries_total", {"kind": "lnr"}) == 5.0
        assert reg.total("queries_total") == 8.0

    def test_unlabeled_series_is_its_own_key(self):
        reg = MetricsRegistry()
        reg.inc("hits_total")
        reg.inc("hits_total", 1.0, {"kind": "lr"})
        assert reg.get("hits_total") == 1.0
        assert reg.total("hits_total") == 2.0

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("queries_total", -1.0)

    def test_missing_metric_reads_as_zero_total_none_get(self):
        reg = MetricsRegistry()
        assert reg.total("nope_total") == 0.0
        assert reg.get("nope_total") is None
        assert reg.series("nope_total") == {}

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.inc("bad name!")


class TestTypeDiscipline:
    def test_name_keeps_its_first_type(self):
        reg = MetricsRegistry()
        reg.inc("thing")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            reg.set_gauge("thing", 1.0)
        with pytest.raises(ValueError, match="is a counter, not a histogram"):
            reg.observe("thing", 1.0)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3.0)
        reg.set_gauge("depth", 7.0)
        assert reg.get("depth") == 7.0

    def test_histogram_buckets_and_count(self):
        reg = MetricsRegistry()
        reg.observe("lat_seconds", 0.0004)
        reg.observe("lat_seconds", 0.3)
        reg.observe("lat_seconds", 999.0)  # lands in the +Inf slot
        snap = reg.to_dict()["metrics"]["lat_seconds"]
        assert snap["type"] == "histogram"
        assert snap["buckets"] == list(DEFAULT_BUCKETS)
        (series,) = snap["series"]
        assert series["count"] == 3
        assert series["counts"][0] == 1      # <= 0.0005
        assert series["counts"][-1] == 1     # +Inf
        assert series["sum"] == pytest.approx(0.0004 + 0.3 + 999.0)


class TestLabelOverflow:
    def test_overflow_collapses_onto_sentinel(self):
        reg = MetricsRegistry(label_limit=2)
        reg.inc("c_total", 1.0, {"q": "a"})
        reg.inc("c_total", 1.0, {"q": "b"})
        reg.inc("c_total", 1.0, {"q": "c"})   # over the limit
        reg.inc("c_total", 1.0, {"q": "d"})
        assert reg.get("c_total", {"q": OVERFLOW_LABEL_VALUE}) == 2.0
        assert reg.total("c_total") == 4.0    # nothing dropped
        assert reg.to_dict()["metrics"]["c_total"]["overflowed"] is True

    def test_existing_series_keep_updating_after_overflow(self):
        reg = MetricsRegistry(label_limit=1)
        reg.inc("c_total", 1.0, {"q": "a"})
        reg.inc("c_total", 1.0, {"q": "b"})  # overflow
        reg.inc("c_total", 1.0, {"q": "a"})  # still addressed directly
        assert reg.get("c_total", {"q": "a"}) == 2.0


class TestLabelKeyMemo:
    """The registry remembers each all-``str`` label dict's sorted key;
    series keys, the overflow collapse and snapshots stay as computed
    from scratch."""

    @pytest.mark.parametrize("first", [1, True, 1.0, "1"])
    def test_equal_non_str_values_keep_their_own_series(self, first):
        reg = MetricsRegistry()
        values = [first] + [v for v in (1, True, 1.0, "1") if v is not first]
        for _ in range(2):
            for v in values:
                reg.inc("v_total", 1.0, {"a": v})
        assert reg.series("v_total") == {
            (("a", "1"),): 4.0,
            (("a", "True"),): 2.0,
            (("a", "1.0"),): 2.0,
        }

    def test_insertion_order_does_not_split_a_series(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.inc("c_total", 1.0, {"kind": "lr", "mode": "scalar"})
            reg.inc("c_total", 1.0, {"mode": "scalar", "kind": "lr"})
        assert reg.series("c_total") == {(("kind", "lr"), ("mode", "scalar")): 6.0}

    def test_overflow_and_snapshot_match_a_cold_registry(self):
        labels = [{"q": f"v{i:02d}"} for i in range(70)]
        warm, cold = MetricsRegistry(), MetricsRegistry()
        for _ in range(2):
            for lab in labels:
                warm.inc("c_total", 1.0, lab)
        for lab in labels + labels:
            cold.inc("c_total", 1.0, dict(lab))
            cold._label_keys.clear()
        assert warm.to_dict() == cold.to_dict()
        assert warm.get("c_total", {"q": OVERFLOW_LABEL_VALUE}) == 12.0
        assert warm.get("c_total", {"q": "v63"}) == 2.0

    def test_unhashable_value_and_memo_bound(self):
        reg = MetricsRegistry()
        reg.inc("u_total", 1.0, {"a": [1]})
        assert reg.series("u_total") == {(("a", "[1]"),): 1.0}
        for i in range(3000):
            reg.inc("w_total", 1.0, {"q": str(i)})
        assert len(reg._label_keys) <= 1024
        assert reg.total("w_total") == 3000.0


class TestSnapshotAndMerge:
    def test_snapshot_is_json_safe_and_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 2.0, {"k": "v"})
        reg.set_gauge("depth", 4.5)
        reg.observe("lat_seconds", 0.2)
        snap = json.loads(json.dumps(reg.to_dict()))
        assert snap["format"] == SNAPSHOT_FORMAT
        back = MetricsRegistry.from_dict(snap)
        assert back.get("c_total", {"k": "v"}) == 2.0
        assert back.get("depth") == 4.5
        assert back.to_dict() == reg.to_dict()

    def test_merge_adds_counters_and_histograms_keeps_last_gauge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c_total", 1.0)
        b.inc("c_total", 2.0)
        a.set_gauge("depth", 1.0)
        b.set_gauge("depth", 9.0)
        a.observe("lat_seconds", 0.1)
        b.observe("lat_seconds", 0.2)
        a.merge(b)
        assert a.get("c_total") == 3.0
        assert a.get("depth") == 9.0
        snap = a.to_dict()["metrics"]["lat_seconds"]["series"][0]
        assert snap["count"] == 2

    def test_merge_is_associative_for_counters(self):
        parts = []
        for v in (1.0, 2.0, 4.0):
            r = MetricsRegistry()
            r.inc("c_total", v, {"w": str(v)})
            parts.append(r.to_dict())
        left = MetricsRegistry()
        for p in parts:
            left.merge(p)
        right = MetricsRegistry()
        mid = MetricsRegistry()
        mid.merge(parts[1])
        mid.merge(parts[2])
        right.merge(parts[0])
        right.merge(mid)
        assert left.to_dict() == right.to_dict()

    def test_merge_extra_labels_stamp_incoming_series(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.inc("c_total", 10.0, {"kind": "lr"})
        worker.inc("c_total", 3.0, {"kind": "lr"})
        parent.merge(worker, extra_labels={"outcome": "failed"})
        assert parent.get("c_total", {"kind": "lr"}) == 10.0
        assert parent.get("c_total", {"kind": "lr", "outcome": "failed"}) == 3.0

    def test_merge_rejects_foreign_format(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="format-99"):
            reg.merge({"format": 99, "metrics": {}})

    def test_merge_rejects_unknown_metric_type(self):
        reg = MetricsRegistry()
        snap = {
            "format": SNAPSHOT_FORMAT,
            "metrics": {"x": {"type": "summary", "series": [{"labels": {}, "value": 1.0}]}},
        }
        with pytest.raises(ValueError, match="unknown metric type"):
            reg.merge(snap)


class TestPrometheusExposition:
    def test_counter_gauge_and_histogram_render(self):
        reg = MetricsRegistry()
        reg.inc("queries_total", 3.0, {"kind": "lr"})
        reg.set_gauge("depth", 2.5)
        reg.observe("lat_seconds", 0.002)
        text = reg.render_prometheus()
        assert "# TYPE queries_total counter" in text
        assert 'queries_total{kind="lr"} 3' in text
        assert "depth 2.5" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 1.0, {"q": 'say "hi"\n'})
        assert '\\"hi\\"\\n' in reg.render_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestActiveSlot:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.enabled()

    def test_enable_disable_cycle(self):
        reg = obs.enable()
        try:
            assert obs.active() is reg
            obs.inc("c_total", 2.0)
            assert reg.get("c_total") == 2.0
        finally:
            assert obs.disable() is reg
        assert obs.active() is None
        obs.inc("c_total")  # no-op when disabled, never raises
        obs.set_gauge("g", 1.0)
        obs.observe("h", 1.0)

    def test_collecting_installs_and_restores(self):
        outer = obs.enable()
        try:
            with obs.collecting() as inner:
                assert obs.active() is inner
                assert inner is not outer
                obs.inc("c_total")
            assert obs.active() is outer
            assert outer.get("c_total") is None
        finally:
            obs.disable()

    def test_paused_suspends_collection(self):
        with obs.collecting() as reg:
            obs.inc("c_total")
            with obs.paused():
                assert obs.active() is None
                obs.inc("c_total")
            obs.inc("c_total")
        assert reg.get("c_total") == 2.0
