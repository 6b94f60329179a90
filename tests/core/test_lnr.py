"""Tests for the LNR side: edge search, cell discovery, localization,
and the LNR-LBS-AGG estimator."""

import math

import numpy as np
import pytest

from repro.core import (
    AggregateQuery,
    LnrCellOracle,
    LnrLbsAgg,
    MaxSamples,
    ObservationHistory,
    TupleLocalizer,
    binary_transition,
    estimate_boundary_line,
    ray_exit,
)
from repro.core.config import LnrAggConfig
from repro.geometry import Point, Rect, distance, true_topk_cell, true_voronoi_cell
from repro.lbs import LnrLbsInterface, ObfuscationModel
from repro.sampling import UniformSampler


class TestBinaryTransition:
    def test_precision(self):
        def pred(p):
            return p.x < 3.0
        seg = binary_transition(pred, Point(0, 0), Point(10, 0), delta=1e-6)
        assert seg.length() <= 1e-6
        assert abs(seg.mid.x - 3.0) < 1e-6

    def test_cost_logarithmic(self):
        calls = []
        def pred(p):
            calls.append(p)
            return p.x < 3.0
        binary_transition(pred, Point(0, 0), Point(10, 0), delta=1e-6)
        assert len(calls) <= math.ceil(math.log2(10 / 1e-6)) + 2


class TestRayExit:
    def test_axis(self):
        box = Rect(0, 0, 10, 5)
        assert ray_exit(Point(2, 2), Point(1, 0), box) == Point(10, 2)
        assert ray_exit(Point(2, 2), Point(0, -1), box) == Point(2, 0)

    def test_diagonal(self):
        box = Rect(0, 0, 10, 10)
        p = ray_exit(Point(1, 1), Point(1, 1), box)
        assert p.x == pytest.approx(10) or p.y == pytest.approx(10)


class TestEstimateBoundaryLine:
    def test_recovers_known_line(self):
        """Synthetic membership: inside = left of the line x + 2y = 8."""
        box = Rect(0, 0, 100, 100)
        def pred(p):
            return p.x + 2 * p.y < 8.0
        est = estimate_boundary_line(
            pred, Point(0, 0), Point(50, 0), delta=1e-5, delta_prime=0.05, rect=box
        )
        assert est is not None and est.two_point
        # Direction must be parallel to the true line x + 2y = 8.
        normal = Point(1.0, 2.0)
        dot = abs(est.direction.x * normal.x + est.direction.y * normal.y)
        assert dot / math.hypot(1, 2) < 1e-2
        assert abs(est.point.x + 2 * est.point.y - 8.0) < 1e-3

    def test_none_when_no_boundary(self):
        box = Rect(0, 0, 10, 10)
        est = estimate_boundary_line(
            lambda p: True, Point(5, 5), Point(10, 5), 1e-4, 0.01, box
        )
        assert est is None

    def test_corner_chord_rejected(self):
        """Near a 90° corner the two transitions land on different edges;
        validation must reject the chord (two_point becomes False)."""
        box = Rect(-50, -50, 50, 50)
        # Inside = quadrant x < 1 AND y < 1; walk diagonally at the corner.
        def pred(p):
            return p.x < 1.0 and p.y < 1.0
        est = estimate_boundary_line(
            pred, Point(0, 0), Point(30, 29.9), delta=1e-5, delta_prime=0.5, rect=box
        )
        assert est is not None
        if est.two_point:
            # If accepted, it must coincide with one of the true edges.
            horiz = abs(est.direction.y) < 1e-2
            vert = abs(est.direction.x) < 1e-2
            assert horiz or vert


class TestLnrCell:
    def test_top1_matches_truth(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        oracle = LnrCellOracle(hist, UniformSampler(box), LnrAggConfig(h=1))
        locs = small_db.locations()
        for tid in list(locs)[:8]:
            out = oracle.compute(tid, locs[tid], h=1)
            others = [p for i, p in locs.items() if i != tid]
            truth = true_voronoi_cell(locs[tid], others, box)
            assert out.measure * box.area == pytest.approx(truth.area(), rel=0.02)

    def test_top2_matches_truth(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        oracle = LnrCellOracle(hist, UniformSampler(box), LnrAggConfig(h=2))
        locs = small_db.locations()
        for tid in list(locs)[:5]:
            out = oracle.compute(tid, locs[tid], h=2)
            others = [p for i, p in locs.items() if i != tid]
            truth = true_topk_cell(locs[tid], others, 2, box)
            assert out.measure * box.area == pytest.approx(truth.area(), rel=0.08)

    def test_seed_must_contain_tuple(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        oracle = LnrCellOracle(hist, UniformSampler(box), LnrAggConfig(h=1))
        t0 = small_db.get(0)
        # A far-away seed almost surely answers some other tuple.
        far = Point((t0.location.x + 50) % 100, (t0.location.y + 50) % 100)
        if api.query(far).top().tid != 0:
            with pytest.raises(ValueError):
                oracle.compute(0, far, h=1)

    def test_edge_error_controls_accuracy(self, tiny_db, box):
        """Corollary 2: smaller ε ⇒ smaller cell-measure error."""
        locs = tiny_db.locations()
        errors = {}
        for eps in (4e-2, 2e-3):
            api = LnrLbsInterface(tiny_db, k=3)
            hist = ObservationHistory(api)
            oracle = LnrCellOracle(hist, UniformSampler(box), LnrAggConfig(h=1, edge_error=eps))
            errs = []
            for tid in list(locs)[:6]:
                out = oracle.compute(tid, locs[tid], h=1)
                others = [p for i, p in locs.items() if i != tid]
                truth = true_voronoi_cell(locs[tid], others, box).area()
                errs.append(abs(out.measure * box.area - truth) / truth)
            errors[eps] = float(np.mean(errs))
        assert errors[2e-3] <= errors[4e-2] + 1e-3


class TestLocalization:
    def test_accurate_without_obfuscation(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        hist = ObservationHistory(api)
        config = LnrAggConfig(h=1, edge_error=2e-3)
        oracle = LnrCellOracle(hist, UniformSampler(box), config)
        localizer = TupleLocalizer(hist, oracle, config)
        errs = []
        for tid in list(small_db.locations())[:8]:
            t = small_db.get(tid)
            res = localizer.locate(tid, t.location)
            errs.append(distance(res.location, t.location))
        assert float(np.median(errs)) < 0.1  # 0.1 % of the box side

    def test_obfuscation_floor(self, small_db, box):
        sigma = 2.0
        api = LnrLbsInterface(small_db, k=3, obfuscation=ObfuscationModel(sigma=sigma, seed=2))
        hist = ObservationHistory(api)
        config = LnrAggConfig(h=1, edge_error=2e-3)
        oracle = LnrCellOracle(hist, UniformSampler(box), config)
        localizer = TupleLocalizer(hist, oracle, config)
        errs = []
        for tid in list(small_db.locations())[:8]:
            t = small_db.get(tid)
            seed_pt = api.effective_location(tid)
            res = localizer.locate(tid, seed_pt)
            errs.append(distance(res.location, t.location))
        # Error should be comparable to the jitter, not to the cell size.
        assert 0.1 * sigma < float(np.median(errs)) < 5 * sigma


class TestLnrAgg:
    def test_count_close(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        agg = LnrLbsAgg(api, UniformSampler(box), AggregateQuery.count(),
                        LnrAggConfig(h=1), seed=5)
        res = agg.run(MaxSamples(50))
        assert res.estimate == pytest.approx(len(small_db), rel=0.45)

    def test_avg_gender_ratio(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        agg = LnrLbsAgg(api, UniformSampler(box), AggregateQuery.avg("is_male"),
                        LnrAggConfig(h=1), seed=6)
        res = agg.run(MaxSamples(50))
        truth = small_db.ground_truth_avg("is_male")
        assert res.estimate == pytest.approx(truth, abs=0.2)

    def test_adaptive_h_uses_rank(self, tiny_db, box):
        api = LnrLbsInterface(tiny_db, k=3)
        agg = LnrLbsAgg(api, UniformSampler(box), AggregateQuery.count(),
                        LnrAggConfig(adaptive_h=True), seed=7)
        res = agg.run(MaxSamples(10))
        assert res.samples == 10
        assert np.isfinite(res.estimate)

    def test_location_condition_triggers_localizer(self, tiny_db, box):
        half = Rect(0, 0, 50, 100)
        query = AggregateQuery.count(
            lambda _a, loc: loc is not None and half.contains(loc),
            needs_location=True,
        )
        api = LnrLbsInterface(tiny_db, k=3)
        agg = LnrLbsAgg(api, UniformSampler(box), query, LnrAggConfig(h=1), seed=8)
        res = agg.run(MaxSamples(12))
        assert np.isfinite(res.estimate)
        assert res.estimate >= 0
