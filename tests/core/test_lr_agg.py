"""End-to-end tests for LR-LBS-AGG and the NNO baseline."""

import numpy as np
import pytest

from repro.core import AggregateQuery, LrLbsAgg, LrLbsNno, MaxQueries, MaxSamples, NnoConfig
from repro.core.config import LrAggConfig
from repro.lbs import LnrLbsInterface, LrLbsInterface, QueryBudget
from repro.sampling import UniformSampler


def run_lr(db, box, query, config=None, seed=0, n_samples=80, k=3):
    api = LrLbsInterface(db, k=k)
    agg = LrLbsAgg(api, UniformSampler(box), query, config or LrAggConfig(), seed=seed)
    return agg.run(MaxSamples(n_samples))


class TestLrAggCount:
    def test_count_star_close(self, small_db, box):
        res = run_lr(small_db, box, AggregateQuery.count(), seed=1, n_samples=120)
        assert res.estimate == pytest.approx(len(small_db), rel=0.35)

    def test_count_unbiased_across_runs(self, small_db, box):
        """Mean over several independent runs converges to the truth."""
        estimates = [
            run_lr(small_db, box, AggregateQuery.count(), seed=s, n_samples=50).estimate
            for s in range(8)
        ]
        assert float(np.mean(estimates)) == pytest.approx(len(small_db), rel=0.2)

    def test_count_with_condition(self, small_db, box):
        query = AggregateQuery.count(lambda a, _l: a.get("category") == "school")
        truth = small_db.ground_truth_count(lambda t: t["category"] == "school")
        estimates = [
            run_lr(small_db, box, query, seed=s, n_samples=60).estimate for s in range(6)
        ]
        assert float(np.mean(estimates)) == pytest.approx(truth, rel=0.3)

    def test_sum(self, small_db, box):
        query = AggregateQuery.sum("value")
        truth = small_db.ground_truth_sum("value")
        estimates = [
            run_lr(small_db, box, query, seed=s, n_samples=60).estimate for s in range(6)
        ]
        assert float(np.mean(estimates)) == pytest.approx(truth, rel=0.3)

    def test_avg_ratio(self, small_db, box):
        query = AggregateQuery.avg("value")
        truth = small_db.ground_truth_avg("value")
        res = run_lr(small_db, box, query, seed=3, n_samples=100)
        # Ratio estimates converge much faster than their components.
        assert res.estimate == pytest.approx(truth, rel=0.25)

    def test_pass_through_filtering(self, small_db, box):
        api = LrLbsInterface(small_db, k=3)
        schools = api.filtered(lambda t: t["category"] == "school")
        agg = LrLbsAgg(schools, UniformSampler(box), AggregateQuery.count(),
                       LrAggConfig(), seed=2)
        res = agg.run(MaxSamples(60))
        truth = small_db.ground_truth_count(lambda t: t["category"] == "school")
        assert res.estimate == pytest.approx(truth, rel=0.4)


class TestLrAggMechanics:
    def test_requires_location_interface(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        with pytest.raises(ValueError):
            LrLbsAgg(api, UniformSampler(box), AggregateQuery.count())

    def test_run_requires_some_limit(self, small_db, box):
        api = LrLbsInterface(small_db, k=3)
        agg = LrLbsAgg(api, UniformSampler(box), AggregateQuery.count())
        with pytest.raises(ValueError):
            agg.run()

    def test_trace_monotone(self, small_db, box):
        res = run_lr(small_db, box, AggregateQuery.count(), seed=0, n_samples=30)
        costs = [pt.queries for pt in res.trace]
        assert costs == sorted(costs)
        assert res.samples == 30

    def test_budget_stops_cleanly(self, small_db, box):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(40))
        agg = LrLbsAgg(api, UniformSampler(box), AggregateQuery.count(), seed=0)
        res = agg.run(MaxSamples(10_000))
        assert res.queries <= 40

    def test_max_queries_respected_approximately(self, small_db, box):
        api = LrLbsInterface(small_db, k=3)
        agg = LrLbsAgg(api, UniformSampler(box), AggregateQuery.count(), seed=0)
        res = agg.run(MaxQueries(100))
        # One in-flight sample may overshoot, but not by more than a cell.
        assert res.queries < 400

    def test_adaptive_variant_runs(self, small_db, box):
        res = run_lr(
            small_db, box, AggregateQuery.count(),
            LrAggConfig(adaptive_h=True), seed=1, n_samples=25, k=3,
        )
        assert res.samples == 25
        assert res.estimate > 0

    def test_every_ladder_variant_estimates(self, small_db, box):
        for name, config in LrAggConfig.ladder().items():
            res = run_lr(small_db, box, AggregateQuery.count(), config, seed=4, n_samples=15)
            assert res.samples == 15, name
            assert np.isfinite(res.estimate), name


class TestMaxRadiusEstimation:
    def test_count_with_service_radius(self, small_db, box):
        api = LrLbsInterface(small_db, k=3, max_radius=15.0)
        agg = LrLbsAgg(api, UniformSampler(box), AggregateQuery.count(),
                       LrAggConfig(), seed=5)
        estimates = []
        for s in range(6):
            api = LrLbsInterface(small_db, k=3, max_radius=15.0)
            agg = LrLbsAgg(api, UniformSampler(box), AggregateQuery.count(),
                           LrAggConfig(), seed=s)
            estimates.append(agg.run(MaxSamples(60)).estimate)
        assert float(np.mean(estimates)) == pytest.approx(len(small_db), rel=0.3)


class TestNnoBaseline:
    def test_produces_estimate(self, small_db, box):
        api = LrLbsInterface(small_db, k=3)
        nno = LrLbsNno(api, UniformSampler(box), AggregateQuery.count(), seed=0)
        res = nno.run(MaxSamples(40))
        assert res.samples == 40
        assert res.estimate > 0

    def test_more_queries_per_sample_than_agg(self, small_db, box):
        api1 = LrLbsInterface(small_db, k=3)
        nno = LrLbsNno(api1, UniformSampler(box), AggregateQuery.count(), seed=0)
        nno_res = nno.run(MaxSamples(30))
        agg_res = run_lr(small_db, box, AggregateQuery.count(), seed=0, n_samples=30)
        # NNO spends a fixed probe budget per sample; AGG amortizes via
        # history, so over 30 samples it must be cheaper.
        assert agg_res.queries < nno_res.queries

    def test_requires_location(self, small_db, box):
        api = LnrLbsInterface(small_db, k=3)
        with pytest.raises(ValueError):
            LrLbsNno(api, UniformSampler(box), AggregateQuery.count())

    def test_config_probe_budget(self, small_db, box):
        api = LrLbsInterface(small_db, k=3)
        nno = LrLbsNno(api, UniformSampler(box), AggregateQuery.count(),
                       NnoConfig(area_probes=5, boundary_probes=3), seed=0)
        res = nno.run(MaxSamples(10))
        assert res.queries >= 10 * (1 + 5)  # query + area probes at least
