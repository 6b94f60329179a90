"""Restoring an observation history from the query points it recorded.

A history snapshot stores one ``[key x, key y, answer x, answer y]`` row
per cache entry.  Loading it (after the interface's own restore) takes
each answer from the interface cache only when that answer was computed
for exactly the row's answer point, recomputes the rest without touching
budget, counters or the fault stream, and replays the rows — so a
resumed history equals the straight one: the same cache keys in order,
the same located sites and the same known disks.
"""

import json

import pytest

from repro import obs
from repro.api import MaxSamples, Session
from repro.core import AggregateQuery, LrLbsAgg, ObservationHistory
from repro.geometry import Point
from repro.lbs import LrLbsInterface, QueryEngineConfig
from repro.resilience import FaultSpec, RetryPolicy
from repro.sampling import UniformSampler

#: ``A`` and ``A2`` share a snapped cache key: the default pitch is 1e-7
#: on the 100 x 100 test box.
A = Point(20.0, 30.0)
A2 = Point(20.0 + 2e-8, 30.0)
FAR = [Point(70.0, 80.0), Point(55.5, 12.25), Point(8.0, 91.0)]
SMALL_CACHE = QueryEngineConfig(cache_size=8)


def snapshot(hist):
    return json.loads(json.dumps({
        "engine": hist.interface.engine_state(),
        "history": hist.state_dict(),
    }))


def resume(make_api, snap):
    api = make_api()
    api.restore_engine_state(snap["engine"])
    hist = ObservationHistory(api)
    hist.load_state_dict(snap["history"])
    return hist


def assert_same_history(got, want):
    assert list(got._cache) == list(want._cache)
    assert list(got._cache.values()) == list(want._cache.values())
    assert list(got.locations.items()) == list(want.locations.items())
    assert got.disks.count == want.disks.count
    assert dict(got.disks._buckets) == dict(want.disks._buckets)
    assert list(got._staged.items()) == list(want._staged.items())


def assert_same_result(got, want):
    assert got.estimate == want.estimate
    assert got.queries == want.queries
    assert got.samples == want.samples
    assert got.trace == want.trace


def paused_state(session, samples=6):
    run = session.start(MaxSamples(2 * samples))
    for cp in run:
        if cp.samples == samples:
            break
    return json.loads(json.dumps(run.to_state()))


class TestSnappedNeighbour:
    def test_neighbour_hit_resumes_to_the_straight_history(self, small_db):
        def make_api():
            return LrLbsInterface(small_db, k=5)

        api = make_api()
        hist = ObservationHistory(api)
        hist.query(A)
        hist.query(FAR[0])
        answer = hist.query(A2)  # the interface serves A's answer
        assert answer.query == A
        assert api.queries_used == 2
        resumed = resume(make_api, snapshot(hist))
        assert (A2.x, A2.y) in resumed._cache
        assert_same_history(resumed, hist)
        # The resumed history answers A2 for free, as the straight one does.
        assert resumed.query(A2) == hist.query(A2)
        assert resumed.interface.queries_used == api.queries_used

    def test_requested_key_before_its_answer_point_records_once(self, small_db):
        def make_api():
            return LrLbsInterface(small_db, k=5)

        api = make_api()
        api.query(A)  # cached by the interface, unseen by the history
        hist = ObservationHistory(api)
        hist.query(A2)
        hist.query(FAR[1])
        assert list(hist._cache)[:2] == [(A2.x, A2.y), (A.x, A.y)]
        assert hist.disks.count == 2
        assert_same_history(resume(make_api, snapshot(hist)), hist)

    def test_evicted_then_neighbour_cached_is_recomputed(self, small_db):
        # Capacity 1: A's answer is evicted by FAR[0], then A2 is
        # answered under A's snapped key.  The interface's cached answer
        # for that key was computed at A2, not A, so the history must
        # recompute A's own answer instead of taking the neighbour's.
        one = QueryEngineConfig(cache_size=1)

        def make_api():
            return LrLbsInterface(small_db, k=5, engine=one)

        api = make_api()
        hist = ObservationHistory(api)
        hist.query(A)
        hist.query(FAR[0])
        api.query(A2)
        assert api.cached_answer(A).query == A2
        resumed = resume(make_api, snapshot(hist))
        assert resumed._cache[(A.x, A.y)].query == A
        assert_same_history(resumed, hist)


class TestRecompute:
    @pytest.mark.parametrize("cache_size", [0, 2, 100_000])
    def test_any_cache_size_resumes_to_the_straight_history(self, small_db, cache_size):
        engine = QueryEngineConfig(cache_size=cache_size)

        def make_api():
            return LrLbsInterface(small_db, k=5, engine=engine)

        hist = ObservationHistory(make_api())
        for p in FAR + [A]:
            hist.query(p)
        # A2 is staged with A's answer whenever the interface still
        # caches it.
        hist.prefetch([A2, Point(40.0, 40.0), Point(60.0, 15.0)])
        assert len(hist._staged) == 3
        assert_same_history(resume(make_api, snapshot(hist)), hist)

    def test_state_rows_are_query_points(self, small_db):
        hist = ObservationHistory(LrLbsInterface(small_db, k=5))
        hist.query(A)
        hist.query(A2)
        assert hist.state_dict() == {
            "answers": [[A.x, A.y, A.x, A.y], [A2.x, A2.y, A.x, A.y]],
            "staged": [],
        }


class TestDriverResume:
    def test_resume_counts_no_service_traffic(self, small_db):
        session = Session(small_db).lr(k=5).count().seed(3).engine(SMALL_CACHE)
        state = paused_state(session)
        driver = state["driver"]
        # The history holds far more answers than the interface cache,
        # so the restore recomputes most of them.
        assert len(driver["history"]["answers"]) > len(driver["interface"]["cache"])
        with obs.collecting() as reg:
            resumed = Session.resume(small_db, state)
        for name in ("interface_queries_total", "pipeline_answers_total"):
            assert reg.total(name) == 0.0
        assert resumed.estimator.interface.queries_used == driver["interface"]["budget_used"]
        assert_same_result(resumed.run(), session.run(MaxSamples(12)))

    def test_resilient_restore_draws_no_fault(self, small_db):
        session = (
            Session(small_db).lr(k=5).count().seed(3).engine(SMALL_CACHE)
            .resilience(FaultSpec(timeout_rate=0.2, drop_rate=0.1, seed=5),
                        RetryPolicy(max_attempts=8, seed=2))
        )
        state = paused_state(session)
        attempts = state["driver"]["interface"]["resilience"]["attempts"]
        assert attempts > state["driver"]["interface"]["budget_used"]
        resumed = Session.resume(small_db, state)
        assert resumed.estimator.interface.state.attempts == attempts
        assert_same_result(resumed.run(), session.run(MaxSamples(12)))

    def test_v4_snapshot_is_refused(self, small_db, box):
        def make():
            return LrLbsAgg(LrLbsInterface(small_db, k=5), UniformSampler(box),
                            AggregateQuery.count(), seed=0)

        est = make()
        est.run(MaxSamples(3))
        state = est.to_state()
        assert state["version"] == 5
        state["version"] = 4
        with pytest.raises(ValueError, match="version-4 snapshot"):
            make().load_state(state)
