"""A non-finite query point is rejected at the interface.

``query``, ``cached_answer``, ``query_batch`` and ``affordable_prefix``
raise one ``ValueError`` naming the point before any cache key, budget
spend or index call: on every backend, with the answer cache on or off,
and through the resilience wrapper without moving its fault stream.
"""

import math

import pytest

from repro.geometry import Point
from repro.index import QueryEngineConfig
from repro.lbs import LrLbsInterface, QueryBudget
from repro.obs import registry as obs
from repro.resilience import FaultSpec, ResilientInterface, RetryPolicy

BACKENDS = ("kdtree", "grid", "brute", "sharded")
METHODS = ("query", "cached_answer", "query_batch", "affordable_prefix")
NON_FINITE = (math.nan, math.inf, -math.inf)

#: Answered before each case, so the cache has something to keep.
WARM = Point(10.0, 10.0)
#: A cache miss sent ahead of the bad point in the batch methods.
MISS = Point(50.0, 40.0)


def _bad_points(v):
    return [Point(v, 30.0), Point(30.0, v)]


def _call(api, method, bad):
    if method in ("query", "cached_answer"):
        return getattr(api, method)(bad)
    return getattr(api, method)([MISS, bad])


def _cache_state(api):
    return api.cache_stats, [a.query for a in api._cache.entries()]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cache_size", [0, 64], ids=["nocache", "cache"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_before_anything_moves(small_db, backend, cache_size, method, value):
    engine = QueryEngineConfig(index_backend=backend, cache_size=cache_size)
    api = LrLbsInterface(small_db, k=3, budget=QueryBudget(100), engine=engine)
    api.query(WARM)
    used = api.budget.used
    cache = _cache_state(api)
    for bad in _bad_points(value):
        with obs.collecting() as reg:
            with pytest.raises(ValueError, match="non-finite"):
                _call(api, method, bad)
        assert api.budget.used == used
        assert _cache_state(api) == cache
        assert reg.total("index_queries_total") == 0
        assert reg.total("interface_queries_total") == 0


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_resilient_wrapper_keeps_its_fault_stream(small_db, value):
    inner = LrLbsInterface(small_db, k=3, budget=QueryBudget(100))
    api = ResilientInterface(
        inner,
        fault=FaultSpec(timeout_rate=0.3, seed=4),
        retry=RetryPolicy(max_attempts=8, sleep=False),
    )
    api.query(WARM)
    attempts = api.state.attempts
    used = inner.budget.used
    for bad in _bad_points(value):
        for call in (lambda: api.query(bad), lambda: api.query_batch([bad, MISS])):
            with pytest.raises(ValueError, match="non-finite"):
                call()
            assert api.state.attempts == attempts
            assert inner.budget.used == used
