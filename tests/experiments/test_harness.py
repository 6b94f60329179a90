"""Tests for the experiment harness."""

import multiprocessing as mp
import os

import pytest

from repro import obs
from repro.datasets import PoiConfig
from repro.experiments import fig14_count_schools
from repro.experiments.harness import (
    ExperimentTable,
    _run_estimations,
    cost_to_reach,
    median_or_none,
    poi_world,
    user_world,
)
from repro.geometry import Rect
from repro.stats import EstimationResult, TracePoint

TINY_BOX = Rect(0, 0, 120, 90)


class TestExperimentTable:
    def test_format_and_columns(self):
        t = ExperimentTable("Title", ["a", "b"])
        t.add(1, 2.5)
        t.add(None, "x")
        text = t.formatted()
        assert "Title" in text and "2.5" in text and "-" in text
        assert t.column("a") == [1, None]

    def test_unknown_column(self):
        t = ExperimentTable("T", ["a"])
        with pytest.raises(ValueError):
            t.column("zzz")


class _FakeEstimator:
    """Deterministic trace: error halves every 10 queries.

    Implements the uniform driver signature ``run(until, batch_size=...)``
    that ``cost_to_reach`` now drives estimators through.
    """

    def __init__(self, truth, final_err):
        self.truth = truth
        self.final_err = final_err

    def run(self, until, batch_size=1):
        max_queries = until.limit
        trace = []
        err = 1.0
        q = 0
        while err > self.final_err and q < max_queries:
            q += 10
            err /= 2
            trace.append(TracePoint(q, q // 10, self.truth * (1 + err)))
        return EstimationResult(self.truth, q, q // 10, trace=trace)


class TestCostToReach:
    def test_monotone_targets(self):
        costs = cost_to_reach(
            lambda s: _FakeEstimator(100.0, 0.001),
            truth=100.0, targets=(0.5, 0.1, 0.01), n_runs=2, max_queries=500,
        )
        assert costs[0.5] <= costs[0.1] <= costs[0.01]

    def test_unreached_charged_budget(self):
        costs = cost_to_reach(
            lambda s: _FakeEstimator(100.0, 0.2),
            truth=100.0, targets=(0.01,), n_runs=2, max_queries=300,
        )
        assert costs[0.01] == 300.0

    def test_median_or_none(self):
        assert median_or_none([]) is None
        assert median_or_none([1.0, 3.0, 2.0]) == 2.0


class TestWorlds:
    def test_poi_world_deterministic(self):
        a = poi_world(seed=5)
        b = poi_world(seed=5)
        assert a.db.locations() == b.db.locations()
        assert len(a.db) == 500

    def test_user_world(self):
        w = user_world(seed=5)
        assert len(w.db) > 0
        assert all("gender" in t.attrs for t in w.db)

    def test_census_attached(self):
        w = poi_world(seed=6)
        assert w.census.region == w.region


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the harness fan-out needs fork")
class TestForkWaveRecovery:
    def test_dead_child_recovered_by_in_parent_rerun(self):
        """A forked wave child that dies without reporting (EOF on the
        pipe) is recovered by rerunning its seed in the parent — same
        deterministic result, no crash surfaced."""
        parent_pid = os.getpid()

        def make_estimator(s):
            if s == 2 and os.getpid() != parent_pid:
                os._exit(5)  # die in the child, before reporting
            return _FakeEstimator(100.0 + s, 0.01)

        recovered = _run_estimations(
            make_estimator, seeds=[1, 2, 3], max_queries=500,
            batch_size=1, workers=3,
        )
        sequential = _run_estimations(
            lambda s: _FakeEstimator(100.0 + s, 0.01), seeds=[1, 2, 3],
            max_queries=500, batch_size=1, workers=1,
        )
        assert [(r.estimate, r.queries, r.trace) for r in recovered] == \
               [(r.estimate, r.queries, r.trace) for r in sequential]

    def test_dead_child_counts_one_recovered_run(self):
        parent_pid = os.getpid()

        def make_estimator(s):
            if s == 2 and os.getpid() != parent_pid:
                os._exit(5)
            return _FakeEstimator(100.0 + s, 0.01)

        with obs.collecting() as reg:
            _run_estimations(make_estimator, seeds=[1, 2, 3], max_queries=500,
                             batch_size=1, workers=3)
        assert reg.get("runs_recovered_total") == 1.0

    def test_seed_raising_in_every_process_fails_the_call(self):
        """The failing seed raises in its worker and again when rerun in
        the parent: the call raises that error instead of returning a
        table."""

        def make_estimator(s):
            if s == 1000:
                raise ValueError(f"no estimator for seed {s}")
            return _FakeEstimator(100.0, 0.01)

        with pytest.raises(Exception, match="no estimator for seed 1000"):
            cost_to_reach(make_estimator, truth=100.0, targets=(0.1,),
                          n_runs=3, max_queries=500, workers=2)


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the harness fan-out needs fork")
def test_fig14_fan_out_matches_sequential():
    """Real estimators through the fan-out: the table and the merged
    metric totals are the same at one and two workers."""
    world = poi_world(seed=23, region=TINY_BOX, config=PoiConfig(60, 40, 5, 5),
                      n_cities=6)
    tables, totals = [], []
    for workers in (1, 2):
        with obs.collecting() as reg:
            table = fig14_count_schools.run(world, n_runs=3, max_queries=300,
                                            workers=workers)
        tables.append(table.rows)
        totals.append((reg.total("interface_queries_total"),
                       reg.total("run_samples_total")))
    assert tables[0] == tables[1]
    assert totals[0] == totals[1]
    assert min(totals[0]) > 0
