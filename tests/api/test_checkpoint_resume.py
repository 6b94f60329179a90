"""Checkpoint round-trips: pause → serialize → resume must be invisible.

The acceptance bar of the streaming executor: for every driver, batched
and unbatched, interrupting a run, pushing its state through JSON, and
resuming on a freshly built estimator yields the *same*
EstimationResult — estimate, query accounting, and full trace — as the
uninterrupted run.
"""

import json

import pytest

from repro.api import MaxQueries, MaxSamples, ObfuscationModel, RankingSpec, Session
from repro.core import (
    AggregateQuery,
    LnrLbsAgg,
    LrAggConfig,
    LrLbsAgg,
    LrLbsNno,
)
from repro.lbs import LnrLbsInterface, LrLbsInterface
from repro.sampling import UniformSampler


def _assert_same_result(a, b):
    assert a.estimate == b.estimate
    assert a.queries == b.queries
    assert a.samples == b.samples
    assert a.trace == b.trace


def _round_trip(make, until, batch_size, pause_after=8):
    """Straight run vs paused-at-sample-N + JSON + resumed run."""
    straight = make().run(until, batch_size=batch_size)

    paused = make()
    for i, _cp in enumerate(paused.run_iter(until, batch_size=batch_size)):
        if i + 1 == pause_after:
            break
    state = json.loads(json.dumps(paused.to_state(queries_start=0)))

    resumed = make()
    resumed.load_state(state)
    result = resumed.run(until, batch_size=batch_size)
    _assert_same_result(result, straight)
    return straight


class TestDriverRoundTrips:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_lr(self, small_db, box, batch_size):
        def make():
            return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.count(), seed=0)

        res = _round_trip(make, MaxSamples(30), batch_size)
        assert res.samples == 30

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_lr_adaptive_h(self, small_db, box, batch_size):
        # Adaptive h now prefetches batches (lazy-reveal history); the
        # paused-mid-batch state must carry the staged answers along.
        def make():
            return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.count(),
                            LrAggConfig(adaptive_h=True), seed=2)

        _round_trip(make, MaxSamples(20), batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_lr_query_budget(self, small_db, box, batch_size):
        # Budget-bounded runs exercise the mid-batch exhaustion path.
        def make():
            return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.count(), seed=1)

        res = _round_trip(make, MaxQueries(120), batch_size)
        assert res.queries <= 120 + 8  # a sample may overshoot slightly

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_lnr(self, tiny_db, box, batch_size):
        def make():
            return LnrLbsAgg(LnrLbsInterface(tiny_db, k=4), UniformSampler(box),
                             AggregateQuery.count(), seed=1)

        _round_trip(make, MaxSamples(12), batch_size, pause_after=5)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_nno(self, small_db, box, batch_size):
        # NNO degrades batches to 1 but must accept the parameter.
        def make():
            return LrLbsNno(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.count(), seed=3)

        _round_trip(make, MaxSamples(15), batch_size)

    def test_avg_ratio_state(self, small_db, box):
        def make():
            return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.avg("value"), seed=0)

        _round_trip(make, MaxSamples(25), batch_size=8)

    def test_state_rejects_stale_version(self, small_db, box):
        # v1 snapshots predate the lazy-reveal prefetch and the LR
        # oracle's private RNG stream; resuming one would silently
        # diverge, so load_state must refuse.
        est = LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                       AggregateQuery.count(), seed=0)
        est.run(MaxSamples(3))
        state = est.to_state()
        state["version"] = 1
        fresh = LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                         AggregateQuery.count(), seed=0)
        with pytest.raises(ValueError, match="version"):
            fresh.load_state(state)

    def test_state_rejects_wrong_driver(self, small_db, box):
        lr = LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                      AggregateQuery.count(), seed=0)
        lr.run(MaxSamples(3))
        nno = LrLbsNno(LrLbsInterface(small_db, k=5), UniformSampler(box),
                       AggregateQuery.count(), seed=0)
        with pytest.raises(ValueError, match="driver"):
            nno.load_state(lr.to_state())


class TestSessionRoundTrips:
    def test_pause_persist_resume_matches_straight_run(self, small_db):
        """The acceptance path: seed-pinned session pause → serialize →
        resume equals a straight run exactly."""
        session = Session(small_db).lr(k=5).count().seed(42).batch(4)
        straight = session.run(MaxSamples(40))

        run = session.start(MaxSamples(40))
        for cp in run:
            if cp.samples >= 15:
                break
        state = json.loads(json.dumps(run.to_state()))  # survives persistence
        resumed_result = Session.resume(small_db, state).run()
        _assert_same_result(resumed_result, straight)

    def test_resume_restores_rule_from_state(self, small_db):
        session = Session(small_db).lr(k=5).count().seed(0)
        run = session.start(MaxSamples(10))
        next(iter(run))
        state = run.to_state()
        resumed = Session.resume(small_db, state)  # no until= passed
        assert resumed.run().samples == 10

    def test_result_valid_at_pause(self, small_db):
        run = Session(small_db).lr(k=5).count().seed(0).start(MaxSamples(20))
        for cp in run:
            if cp.samples == 7:
                break
        partial = run.result()
        assert partial.samples == 7
        assert partial.queries == run.queries_spent


class TestCapabilitySessionRoundTrips:
    """Pause/resume through interface capabilities held in the spec."""

    def test_prominence_lnr_with_obfuscation_resumes_bit_identically(self, small_db):
        # The full WeChat/Places-style surface: rank-only answers over a
        # prominence order, obfuscated positions, projected attributes —
        # all declarative, all restored from JSON on resume.
        session = (
            Session(small_db)
            .lnr(k=4)
            .service(
                obfuscation=ObfuscationModel(sigma=1.5, seed=3),
                visible_attrs=("category", "value"),
                ranking=RankingSpec.prominence("value", 0.6, 0.4, 30.0),
            )
            .count()
            .seed(11)
            .batch(4)
        )
        straight = session.run(MaxSamples(12))

        run = session.start(MaxSamples(12))
        for cp in run:
            if cp.samples >= 5:
                break
        state = json.loads(json.dumps(run.to_state()))
        assert state["spec"]["interface"]["ranking"]["policy"] == "prominence"
        resumed = Session.resume(small_db, state).run()
        _assert_same_result(resumed, straight)

    def test_max_radius_lr_resumes_bit_identically(self, small_db):
        session = (
            Session(small_db).lr(k=5).service(max_radius=25.0).count().seed(4)
        )
        straight = session.run(MaxSamples(15))
        run = session.start(MaxSamples(15))
        for cp in run:
            if cp.samples >= 6:
                break
        state = json.loads(json.dumps(run.to_state()))
        resumed = Session.resume(small_db, state).run()
        _assert_same_result(resumed, straight)

    def test_batched_session_equals_sequential_session(self, small_db):
        # batch() is pure throughput: the spec's batch_size must not
        # change the result, interface capabilities included.
        base = (
            Session(small_db).lr(k=5)
            .service(max_radius=30.0)
            .count().seed(9)
        )
        seq = base.run(MaxSamples(20))
        bat = base.batch(8).run(MaxSamples(20))
        assert bat.estimate == seq.estimate
        assert bat.queries == seq.queries
