"""Tests for aggregate specs and the observation history."""

import pytest

from repro.core import AggregateKind, AggregateQuery, DiskLedger, ObservationHistory
from repro.geometry import Disk, Point
from repro.lbs import LrLbsInterface, LnrLbsInterface


class TestAggregateQuery:
    def test_count_numerator(self):
        q = AggregateQuery.count()
        assert q.numerator({"a": 1}, None) == 1.0
        assert q.denominator({"a": 1}, None) == 1.0

    def test_count_with_condition(self):
        q = AggregateQuery.count(lambda attrs, _loc: attrs.get("x") == 1)
        assert q.numerator({"x": 1}, None) == 1.0
        assert q.numerator({"x": 2}, None) == 0.0

    def test_sum(self):
        q = AggregateQuery.sum("v")
        assert q.numerator({"v": 7}, None) == 7.0
        assert q.numerator({}, None) == 0.0  # missing attr

    def test_sum_requires_attr(self):
        with pytest.raises(ValueError):
            AggregateQuery(AggregateKind.SUM)

    def test_avg_is_ratio(self):
        q = AggregateQuery.avg("v")
        assert q.is_ratio
        assert q.numerator({"v": 4}, None) == 4.0
        assert q.denominator({"v": 4}, None) == 1.0
        assert q.denominator({}, None) == 0.0  # missing excluded from AVG

    def test_location_condition(self):
        q = AggregateQuery.count(
            lambda _a, loc: loc is not None and loc.x < 50, needs_location=True
        )
        assert q.numerator({}, Point(10, 0)) == 1.0
        assert q.numerator({}, Point(90, 0)) == 0.0
        assert q.numerator({}, None) == 0.0


class TestDiskLedger:
    def test_add_and_near(self):
        ledger = DiskLedger(cell_size=10.0)
        ledger.add(Disk(Point(5, 5), 2.0))
        ledger.add(Disk(Point(95, 95), 1.0))
        near = ledger.near(Point(6, 6), 3.0)
        assert len(near) == 1
        assert near[0].center == Point(5, 5)

    def test_zero_radius_ignored(self):
        ledger = DiskLedger(cell_size=10.0)
        ledger.add(Disk(Point(0, 0), 0.0))
        assert ledger.count == 0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            DiskLedger(cell_size=0.0)

    def test_near_uses_max_radius(self):
        ledger = DiskLedger(cell_size=5.0)
        ledger.add(Disk(Point(0, 0), 40.0))  # huge disk far away
        assert len(ledger.near(Point(30, 0), 1.0)) == 1


class TestObservationHistory:
    def test_cache_hits_do_not_spend_budget(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        p = Point(10, 10)
        a1 = hist.query(p)
        a2 = hist.query(p)
        assert a1 is a2
        assert api.queries_used == 1

    def test_locations_recorded_lr(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        ans = hist.query(Point(50, 50))
        for r in ans:
            assert hist.locations[r.tid] == r.location

    def test_no_locations_recorded_lnr(self, small_db):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        hist.query(Point(50, 50))
        assert not hist.locations

    def test_snapped_neighbour_point_cached_under_queried_key(self, small_db):
        # The interface's snapped cache can serve a point an answer
        # computed for a *different* exact location; the history must
        # cache it under the queried key too, or every repeat would
        # re-record the answer and pile up duplicate known-disks.
        from repro.lbs import QueryEngineConfig

        api = LrLbsInterface(
            small_db, k=3, engine=QueryEngineConfig(snap_resolution=1.0)
        )
        hist = ObservationHistory(api)
        p1, p2 = Point(10.0, 10.0), Point(10.2, 10.1)  # same snapped cell
        a1 = hist.query(p1)
        a2 = hist.query(p2)
        assert a2 is a1  # served from the snapped interface cache
        disks_before = hist.disks.count
        hist.query(p2)  # repeat must hit the history cache...
        hist.query(p2)
        assert hist.disks.count == disks_before  # ...not re-record

    def test_prefetch_stages_without_revealing(self, small_db):
        hist = ObservationHistory(LrLbsInterface(small_db, k=3))
        pts = [Point(10, 10), Point(60, 60)]
        hist.prefetch(pts)
        assert not hist.locations and hist.disks.count == 0  # nothing revealed
        assert hist.queries_used == 2  # but fully paid for
        hist.query(pts[0])
        assert hist.locations and hist.disks.count == 1  # revealed on use
        assert hist.queries_used == 2  # for free

    def test_prefetch_exhaustion_stages_sequential_prefix(self, small_db):
        # Mid-batch exhaustion must pay for — and keep — exactly the
        # prefix a sequential loop would have afforded, even with the
        # interface answer cache disabled (staging does not rely on it).
        from repro.lbs import BudgetExhausted, QueryBudget, QueryEngineConfig

        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(2),
                             engine=QueryEngineConfig(cache_size=0))
        hist = ObservationHistory(api)
        pts = [Point(10, 10), Point(60, 60), Point(30, 80)]
        with pytest.raises(BudgetExhausted):
            hist.prefetch(pts)
        assert api.queries_used == 2
        # The paid prefix is staged: revealing it costs nothing.
        hist.query(pts[0])
        hist.query(pts[1])
        assert api.queries_used == 2
        with pytest.raises(BudgetExhausted):
            hist.query(pts[2])

    def test_staged_snapped_answer_survives_state_round_trip(self, small_db):
        # Staged answers are keyed by the *requested* point; the state
        # round trip must preserve that key even when it differs from
        # the answer's own query point.
        from repro.lbs import QueryEngineConfig

        def make():
            api = LrLbsInterface(
                small_db, k=3, engine=QueryEngineConfig(snap_resolution=1.0)
            )
            return ObservationHistory(api)

        hist = make()
        hist.query(Point(10.0, 10.0))
        hist.prefetch([Point(10.2, 10.1)])
        state = hist.state_dict()
        restored = make()
        restored.load_state_dict(state)
        assert set(restored._staged) == {(10.2, 10.1)}

    def test_prominence_answers_certify_no_disks(self, small_db):
        # A prominence-ranked answer is not nearest-first: its k-th
        # distance (or a short answer) says nothing about which tuples
        # are near the query, so no known disk may be recorded.
        api = LrLbsInterface(
            small_db, k=3,
            prominence={"static_attr": "value", "weight_distance": 0.3,
                        "weight_static": 0.7, "distance_cap": 20.0},
        )
        hist = ObservationHistory(api)
        hist.query(Point(50, 50))
        hist.query(Point(20, 80))
        assert hist.disks.count == 0
        assert hist.locations  # locations themselves are still truthful

    def test_known_disk_radius_is_kth_distance(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        ans = hist.query(Point(50, 50))
        disks = hist.disks.near(Point(50, 50), 0.1)
        assert len(disks) == 1
        assert disks[0].radius == pytest.approx(ans.results[-1].distance)

    def test_no_disk_for_lnr(self, small_db):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        hist.query(Point(50, 50))
        assert hist.disks.count == 0

    def test_short_answer_certifies_max_radius(self, small_db):
        api = LrLbsInterface(small_db, k=10, max_radius=4.0)
        hist = ObservationHistory(api)
        ans = hist.query(Point(50, 50))
        if len(ans) < 10:  # short answer under the service radius
            disks = hist.disks.near(Point(50, 50), 0.1)
            assert disks and disks[0].radius == pytest.approx(4.0)

    def test_reset_sample_when_disabled(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api, enabled=False)
        hist.query(Point(50, 50))
        assert hist.locations
        hist.reset_sample()
        assert not hist.locations

    def test_reset_sample_noop_when_enabled(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api, enabled=True)
        hist.query(Point(50, 50))
        hist.reset_sample()
        assert hist.locations
