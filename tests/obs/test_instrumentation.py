"""Instrumented hot paths: counters mirror budgets, estimates untouched.

The two load-bearing invariants of the obs layer:

* ``interface_queries_total`` equals the budget's own accounting exactly
  — the counter is bumped at the ``spend()`` site, after spend raised on
  exhaustion, so the registry and ``queries_used`` can never drift;
* instrumentation observes and never branches — every estimate, trace,
  and state snapshot is bit-identical with and without a registry.
"""

import json

import numpy as np
import pytest

from repro.core import AggregateQuery, LrLbsAgg
from repro.core.stopping import MaxSamples
from repro.geometry import Point
from repro.lbs import (
    BudgetExhausted,
    LnrLbsInterface,
    LrLbsInterface,
    QueryBudget,
)
from repro.obs import RunTelemetry
from repro.obs import registry as obs
from repro.sampling import UniformSampler


def random_points(n, seed=1):
    rng = np.random.default_rng(seed)
    return [Point(rng.random() * 100, rng.random() * 100) for _ in range(n)]


class TestInterfaceCounters:
    def test_scalar_queries_match_budget_exactly(self, small_db):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(50))
        with obs.collecting() as reg:
            for p in random_points(12):
                api.query(p)
        assert reg.total("interface_queries_total") == api.queries_used == 12
        assert reg.get("interface_queries_total", {"kind": "lr"}) == 12.0
        assert reg.total("interface_answers_total") == 12.0

    def test_cache_hits_counted_but_never_spend(self, small_db):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(50))
        p = Point(20, 30)
        with obs.collecting() as reg:
            api.query(p)
            api.query(p)  # replay: free, and counted as a hit
        assert api.queries_used == 1
        assert reg.total("interface_queries_total") == 1.0
        assert reg.total("interface_cache_hits_total") == 1.0
        assert reg.total("interface_cache_misses_total") == 1.0

    def test_batch_queries_match_budget_exactly(self, small_db):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(100))
        pts = random_points(17, seed=4)
        with obs.collecting() as reg:
            api.query_batch(pts)
            api.query_batch(pts)  # all cached now: zero new spend
        assert api.queries_used == 17
        assert reg.total("interface_queries_total") == 17.0
        assert reg.total("interface_cache_hits_total") == 17.0

    def test_exhausted_budget_not_counted(self, small_db):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(2))
        with obs.collecting() as reg:
            api.query(Point(10, 10))
            api.query(Point(60, 60))
            with pytest.raises(BudgetExhausted):
                api.query(Point(90, 90))
        # spend() raised before the counter bumped: registry == budget.
        assert reg.total("interface_queries_total") == api.queries_used == 2

    def test_lnr_labelled_by_kind(self, tiny_db):
        api = LnrLbsInterface(tiny_db, k=3)
        with obs.collecting() as reg:
            api.query(Point(30, 40))
        assert reg.get("interface_queries_total", {"kind": "lnr"}) == 1.0


class TestPipelineCounters:
    def test_scalar_answer_counts_returned_tuples(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        with obs.collecting() as reg:
            ans = api.query(Point(20, 30))
        assert reg.get("pipeline_answers_total", {"mode": "scalar"}) == 1.0
        assert reg.total("pipeline_returned_tuples_total") == len(ans.results)

    def test_batch_answers_count_per_point(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        pts = random_points(9, seed=7)
        with obs.collecting() as reg:
            answers = api.query_batch(pts)
        assert reg.get("pipeline_answers_total", {"mode": "batch"}) == 9.0
        returned = sum(len(a.results) for a in answers)
        assert reg.total("pipeline_returned_tuples_total") == returned


class TestBitIdentity:
    def _run(self, small_db, box):
        est = LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                       AggregateQuery.count(), seed=0)
        return est.run(MaxSamples(20), batch_size=4)

    def test_estimates_identical_with_and_without_registry(self, small_db, box):
        plain = self._run(small_db, box)
        with obs.collecting():
            observed = self._run(small_db, box)
        assert observed.estimate == plain.estimate
        assert observed.queries == plain.queries
        assert observed.trace == plain.trace

    def test_state_snapshots_identical_modulo_nothing(self, small_db, box):
        def paused_state():
            est = LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                           AggregateQuery.count(), seed=0)
            for i, _cp in enumerate(est.run_iter(MaxSamples(30))):
                if i == 9:
                    break
            return est.to_state(queries_start=0)

        plain = paused_state()
        with obs.collecting():
            observed = paused_state()
        assert json.dumps(plain, sort_keys=True) == json.dumps(observed, sort_keys=True)


class TestDriverTelemetry:
    def _est(self, small_db, box, seed=0):
        return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                        AggregateQuery.count(), seed=seed)

    def test_checkpoints_carry_consistent_telemetry(self, small_db, box):
        est = self._est(small_db, box)
        seen = []
        for cp in est.run_iter(MaxSamples(10)):
            t = cp.telemetry
            assert isinstance(t, RunTelemetry)
            assert t.samples == cp.samples
            assert t.queries == cp.queries
            seen.append(t.checkpoints)
        assert seen == list(range(1, 11))

    def test_result_telemetry_matches_final_accounting(self, small_db, box):
        result = self._est(small_db, box).run(MaxSamples(15))
        t = result.telemetry
        assert t is not None
        assert t.samples == result.samples == 15
        assert t.queries == result.queries
        assert t.cache_hits + t.cache_misses >= t.queries == t.cache_misses

    def test_run_metrics_stream_into_registry(self, small_db, box):
        with obs.collecting() as reg:
            result = self._est(small_db, box).run(MaxSamples(12))
        assert reg.total("run_samples_total") == 12.0
        assert reg.total("run_checkpoints_total") == 12.0
        assert reg.get("run_queries_spent") == float(result.queries)

    def test_state_round_trips_telemetry_and_checkpoint_count(self, small_db, box):
        est = self._est(small_db, box)
        for i, _cp in enumerate(est.run_iter(MaxSamples(20))):
            if i == 7:
                break
        state = json.loads(json.dumps(est.to_state(queries_start=0)))
        assert state["version"] == 5
        assert state["telemetry"]["samples"] == 8
        assert state["telemetry"]["checkpoints"] == 8

        resumed = self._est(small_db, box)
        resumed.load_state(state)
        first = next(iter(resumed.run_iter(MaxSamples(20))))
        # The checkpoint counter continues where the snapshot left off.
        assert first.telemetry.checkpoints == 9

    def test_load_state_rejects_pre_v3_snapshots(self, small_db, box):
        est = self._est(small_db, box)
        est.run(MaxSamples(3))
        state = est.to_state()
        state["version"] = 2
        fresh = self._est(small_db, box)
        with pytest.raises(ValueError, match="version-2 snapshot"):
            fresh.load_state(state)

    def test_load_state_rejects_missing_telemetry(self, small_db, box):
        est = self._est(small_db, box)
        est.run(MaxSamples(3))
        state = est.to_state()
        state["telemetry"] = None
        fresh = self._est(small_db, box)
        with pytest.raises(ValueError, match="telemetry"):
            fresh.load_state(state)
