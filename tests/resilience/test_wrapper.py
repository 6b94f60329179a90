"""ResilientInterface: bit-identity, budget semantics, state, metrics."""

import json

import pytest

from repro.api import MaxQueries, MaxSamples, Session
from repro.geometry import Point
from repro.lbs import BudgetExhausted, LrLbsInterface, QueryBudget
from repro.obs import MetricsRegistry
from repro.obs import registry as obs_registry
from repro.resilience import (
    FaultSpec,
    ResilientInterface,
    RetriesExhausted,
    RetryPolicy,
    TransientServiceError,
)
from repro.worlds import registry as world_registry

FAULTY = FaultSpec(timeout_rate=0.08, rate_limit_rate=0.05, drop_rate=0.04, seed=17)
PATIENT = RetryPolicy(max_attempts=10)


def _points(n, step=7.3):
    return [Point((i * step) % 100.0, (i * step * 1.7) % 100.0) for i in range(n)]


@pytest.fixture(scope="module")
def world_spec():
    return world_registry.get("paper/clustered").with_size(300)


class TestAnswerIdentity:
    def test_scalar_answers_match_unwrapped(self, small_db):
        plain = LrLbsInterface(small_db, k=5)
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        for p in _points(40):
            assert wrapped.query(p) == plain.query(p)
        assert wrapped.budget.used == plain.budget.used
        assert wrapped.state.faults_injected > 0  # faults actually fired

    def test_batch_matches_loop_under_faults(self, small_db):
        loop = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        batch = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        pts = _points(30)
        assert batch.query_batch(pts) == [loop.query(p) for p in pts]
        assert batch.state.attempts == loop.state.attempts
        assert batch.budget.used == loop.budget.used

    def test_fault_off_batch_passes_through(self, small_db):
        plain = LrLbsInterface(small_db, k=5)
        wrapped = ResilientInterface(LrLbsInterface(small_db, k=5))
        pts = _points(20)
        assert wrapped.query_batch(pts) == plain.query_batch(pts)
        assert wrapped.state.attempts == 0  # no fault stream ticked

    def test_cache_hits_are_never_faulted(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        p = Point(31.0, 57.0)
        wrapped.query(p)
        attempts = wrapped.state.attempts
        used = wrapped.budget.used
        for _ in range(5):
            wrapped.query(p)  # cache hit: no network call, no fault draw
        assert wrapped.state.attempts == attempts
        assert wrapped.budget.used == used

    def test_delegation_reads_through(self, small_db):
        inner = LrLbsInterface(small_db, k=5)
        wrapped = ResilientInterface(inner, fault=FAULTY, retry=PATIENT)
        assert wrapped.k == 5
        assert wrapped.returns_location is True
        assert wrapped.region == inner.region
        assert wrapped.cache_stats == inner.cache_stats


class TestFailureModes:
    def test_no_retry_policy_propagates_first_fault(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5),
            fault=FaultSpec(timeout_rate=0.9, seed=1, max_faults=50),
        )
        with pytest.raises(TransientServiceError):
            for p in _points(60):
                wrapped.query(p)

    def test_retries_exhausted(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5),
            fault=FaultSpec(timeout_rate=0.9, seed=1, max_faults=1000),
            retry=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(RetriesExhausted) as err:
            for p in _points(60):
                wrapped.query(p)
        assert err.value.attempts == 2

    def test_charge_faults_draws_budget(self, small_db):
        """With charge_faults the rate limiter counts failed calls too."""
        free = ResilientInterface(
            LrLbsInterface(small_db, k=5, budget=QueryBudget(1000)),
            fault=FAULTY, retry=PATIENT,
        )
        charged = ResilientInterface(
            LrLbsInterface(small_db, k=5, budget=QueryBudget(1000)),
            fault=FAULTY, retry=PATIENT.replace(charge_faults=True),
        )
        pts = _points(40)
        assert charged.query_batch(pts) == free.query_batch(pts)  # answers equal
        faults = charged.state.faults_injected
        assert faults > 0
        assert free.budget.used == len(pts)
        assert charged.budget.used == len(pts) + faults

    def test_charge_faults_can_exhaust_budget_mid_retry(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5, budget=QueryBudget(3)),
            fault=FaultSpec(timeout_rate=0.9, seed=1, max_faults=1000),
            retry=RetryPolicy(max_attempts=50, charge_faults=True),
        )
        with pytest.raises(BudgetExhausted):
            for p in _points(60):
                wrapped.query(p)


class TestFilteredViews:
    def test_filtered_shares_the_fault_stream(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        view = wrapped.filtered(lambda t: t.attrs["category"] == "school")
        assert isinstance(view, ResilientInterface)
        assert view.state is wrapped.state
        assert view.budget is wrapped.budget
        before = wrapped.state.attempts
        view.query(Point(10.0, 20.0))
        assert wrapped.state.attempts > before  # one connection, one stream


class TestEngineState:
    def test_state_round_trips_and_stream_continues(self, small_db):
        a = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        for p in _points(20):
            a.query(p)
        state = json.loads(json.dumps(a.engine_state()))
        assert "resilience" in state

        b = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        b.restore_engine_state(state)
        assert b.state.to_dict() == a.state.to_dict()
        # Both connections continue the stream identically.
        for p in _points(20, step=3.1):
            assert b.query(p) == a.query(p)
        assert b.state.to_dict() == a.state.to_dict()

    def test_restore_rejects_state_without_resilience(self, small_db):
        bare = LrLbsInterface(small_db, k=5)
        for p in _points(5):
            bare.query(p)
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        with pytest.raises(ValueError, match="resilience"):
            wrapped.restore_engine_state(bare.engine_state())


class TestSessionIntegration:
    def test_faulty_run_bit_identical_to_fault_free(self, world_spec):
        base = Session(world_spec).lr(k=5).count().seed(1)
        plain = base.run(MaxQueries(300))
        faulty = base.resilience(fault=FAULTY, retry=PATIENT).run(MaxQueries(300))
        assert faulty.estimate == plain.estimate
        assert faulty.queries == plain.queries
        assert faulty.samples == plain.samples
        assert faulty.trace == plain.trace

    def test_fault_off_spec_builds_the_bare_interface(self, world_spec):
        driver = Session(world_spec).lr(k=5).count().seed(1).build()
        assert not isinstance(driver.interface, ResilientInterface)

    def test_faulty_spec_builds_the_wrapper(self, world_spec):
        driver = (Session(world_spec).lr(k=5).count().seed(1)
                  .resilience(fault=FAULTY, retry=PATIENT).build())
        assert isinstance(driver.interface, ResilientInterface)

    def test_pause_resume_replays_the_fault_stream(self, world_spec):
        base = Session(world_spec).lr(k=5).count().seed(2)
        plain = base.run(MaxSamples(30))
        run = base.resilience(fault=FAULTY, retry=PATIENT).start(MaxSamples(30))
        for i, _cp in enumerate(run):
            if i == 11:
                break
        state = json.loads(json.dumps(run.to_state()))
        assert state["driver"]["version"] == 5
        assert "resilience" in state["driver"]["interface"]
        resumed = Session.resume(None, state).run()
        assert resumed.estimate == plain.estimate
        assert resumed.queries == plain.queries
        assert resumed.trace == plain.trace

    def test_v3_snapshot_rejected_loudly(self, world_spec):
        base = Session(world_spec).lr(k=5).count().seed(2)
        run = base.start(MaxSamples(5))
        for _ in run:
            pass
        state = run.to_state()
        state["driver"]["version"] = 3
        with pytest.raises(ValueError, match="version-3 snapshot"):
            Session.resume(None, state)

    def test_resilience_serializes_on_the_spec(self, world_spec):
        spec = (Session(world_spec).lr(k=5).count()
                .resilience(fault=FAULTY, retry=PATIENT).spec)
        rebuilt = type(spec).from_json(spec.to_json())
        assert rebuilt.interface.fault == FAULTY
        assert rebuilt.interface.retry == PATIENT
        # resilience() with no arguments clears the fault model.
        cleared = Session.from_spec(spec).resilience().spec
        assert cleared.interface.fault is None
        assert cleared.interface.retry is None


class TestMetrics:
    def test_fault_and_retry_metrics(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5), fault=FAULTY, retry=PATIENT
        )
        reg = MetricsRegistry()
        with obs_registry.collecting(reg):
            for p in _points(40):
                wrapped.query(p)
        metrics = reg.to_dict()["metrics"]
        injected = {
            s["labels"]["kind"]: s["value"]
            for s in metrics["faults_injected_total"]["series"]
        }
        assert sum(injected.values()) == wrapped.state.faults_injected
        assert injected == {
            k: v for k, v in wrapped.state.injected.items() if v > 0
        }
        retries = metrics["retries_total"]["series"][0]["value"]
        assert retries == wrapped.state.retries
        hist = metrics["retry_backoff_seconds"]["series"][0]
        assert hist["count"] == wrapped.state.retries
        assert hist["sum"] == pytest.approx(wrapped.state.backoff_seconds)

    def test_queries_counter_mirrors_budget_with_charge_faults(self, small_db):
        wrapped = ResilientInterface(
            LrLbsInterface(small_db, k=5, budget=QueryBudget(1000)),
            fault=FAULTY, retry=PATIENT.replace(charge_faults=True),
        )
        reg = MetricsRegistry()
        with obs_registry.collecting(reg):
            for p in _points(40):
                wrapped.query(p)
        metrics = reg.to_dict()["metrics"]
        total = sum(
            s["value"] for s in metrics["interface_queries_total"]["series"]
        )
        assert total == wrapped.budget.used  # the obs invariant holds
