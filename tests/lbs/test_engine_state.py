"""Restoring an interface's engine state: the cache comes back whole.

The engine state stores the query points of the cached answers, in LRU
order; the restore recomputes the answers.  A restored cache must equal
the original entry for entry, evict the same key next, and keep the
budget and hit/miss counters — without counting the recomputation as
service traffic.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.lbs import (
    LbsTuple,
    LnrLbsInterface,
    LrLbsInterface,
    ObfuscationModel,
    QueryEngineConfig,
    SpatialDatabase,
)

BOX = Rect(0, 0, 100, 100)
SMALL_CACHE = QueryEngineConfig(cache_size=4)


def make_db(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return SpatialDatabase(
        [
            LbsTuple(i, Point(rng.random() * 100, rng.random() * 100),
                     {"idx": i, "popularity": float(rng.random())})
            for i in range(n)
        ],
        BOX,
    )


def random_points(n, seed=1):
    rng = np.random.default_rng(seed)
    return [Point(rng.random() * 100, rng.random() * 100) for _ in range(n)]


SERVICES = {
    "lr": lambda db: LrLbsInterface(db, k=3, engine=SMALL_CACHE),
    "lnr": lambda db: LnrLbsInterface(db, k=3, engine=SMALL_CACHE),
    "lr-radius": lambda db: LrLbsInterface(db, k=3, engine=SMALL_CACHE, max_radius=15.0),
    "lnr-prominence-obfuscated": lambda db: LnrLbsInterface(
        db, k=3, engine=SMALL_CACHE,
        obfuscation=ObfuscationModel(sigma=2.0, seed=4),
        prominence={"static_attr": "popularity", "weight_distance": 0.6,
                    "weight_static": 0.4, "distance_cap": 30.0},
        visible_attrs=("popularity",),
    ),
}


def used(make, db):
    """An interface after a mix of misses, hits and evictions."""
    api = make(db)
    pts = random_points(7)
    for p in pts[:5]:
        api.query(p)
    api.query(pts[3])  # a hit refreshes its entry
    api.query_batch(pts[4:])
    return api


def restored(make, db, api):
    fresh = make(db)
    fresh.restore_engine_state(json.loads(json.dumps(api.engine_state())))
    return fresh


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_restored_cache_equals_the_original_entry_for_entry(service):
    db = make_db()
    make = SERVICES[service]
    api = used(make, db)
    fresh = restored(make, db, api)
    assert list(fresh._cache._entries.items()) == list(api._cache._entries.items())
    assert fresh.budget.used == api.budget.used
    assert fresh.cache_stats == api.cache_stats


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_restored_cache_evicts_the_same_key_next(service):
    db = make_db()
    make = SERVICES[service]
    api = used(make, db)
    fresh = restored(make, db, api)
    for p in random_points(3, seed=9):
        assert fresh.query(p) == api.query(p)
        assert list(fresh._cache._entries) == list(api._cache._entries)
    assert fresh.budget.used == api.budget.used
    assert fresh.cache_stats == api.cache_stats


def test_engine_state_stores_query_points_in_lru_order():
    api = used(SERVICES["lr"], make_db())
    state = api.engine_state()
    assert state["cache"] == [[a.query.x, a.query.y] for a in api._cache.entries()]


def test_restore_counts_no_service_traffic():
    db = make_db()
    api = used(SERVICES["lr"], db)
    state = json.loads(json.dumps(api.engine_state()))
    fresh = SERVICES["lr"](db)
    with obs.collecting() as reg:
        fresh.restore_engine_state(state)
    assert len(fresh._cache) == len(api._cache) > 0
    for name in ("interface_queries_total", "pipeline_answers_total",
                 "interface_cache_hits_total", "interface_cache_misses_total"):
        assert reg.total(name) == 0.0

