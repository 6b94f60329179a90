"""Index counter lifecycle: counters(), reset_stats(), registry mirrors.

Counters live for the *instance*: internal rebuilds must never zero them
(they used to, silently), and only an explicit ``reset_stats()`` does.
"""

import numpy as np

from repro.geometry import Point
from repro.index.grid import GridIndex
from repro.index.sharded import ShardedGridIndex
from repro.lbs import LrLbsInterface
from repro.obs import registry as obs
from repro.parallel import WorldCache
from repro.worlds import registry as worlds


def _grid(n=200, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2)) * 100.0
    return GridIndex.from_arrays(xy, np.arange(n)), xy


class TestGridLifecycle:
    def test_counters_accumulate_and_reset_explicitly(self):
        idx, xy = _grid()
        idx.knn_batch([(10.0, 10.0), (50.0, 50.0)], 3)
        c = idx.counters()
        assert c["batch_queries"] == 2
        idx.reset_stats()
        assert idx.counters()["batch_queries"] == 0

    def test_counters_survive_internal_rebuild(self):
        idx, xy = _grid()
        idx.knn_batch([(10.0, 10.0)], 3)
        before = idx.counters()["batch_queries"]
        # An in-place rebuild (what from_arrays does under the hood) must
        # preserve the instance's counters — the silent-reset bug.
        idx._build(np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1]),
                   list(range(len(xy))), 0.5)
        assert idx.counters()["batch_queries"] == before == 1

    def test_registry_mirrors_batch_accounting(self):
        idx, _xy = _grid()
        with obs.collecting() as reg:
            idx.knn_batch([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)], 3)
            idx.knn(40.0, 40.0, 3)
        assert reg.get("index_queries_total",
                       {"backend": "grid", "mode": "batch"}) == 3.0
        assert reg.get("index_queries_total",
                       {"backend": "grid", "mode": "scalar"}) == 1.0
        assert reg.total("index_batch_queries_total") == 3.0


class TestShardedLifecycle:
    def _sharded(self, n=400, seed=1):
        rng = np.random.default_rng(seed)
        xy = rng.random((n, 2)) * 100.0
        return ShardedGridIndex.from_arrays(xy, np.arange(n), tiles_per_side=4)

    def test_reset_zeroes_inner_tiles_too(self):
        idx = self._sharded()
        idx.knn_batch([(10.0, 10.0), (90.0, 90.0)], 3)
        assert idx.counters()["batch_queries"] == 2
        idx.reset_stats()
        c = idx.counters()
        assert c["batch_queries"] == 0
        # Built tiles stay built; only their counters reset.
        assert c["tiles_built"] > 0
        assert c["inner"]["batch_queries"] == 0

    def test_inner_tiles_report_under_grid_backend(self):
        # A batch with _DELEGATE_MIN_GROUP queries per home tile takes
        # the per-tile GridIndex kernels, which count as grid —
        # kernel-level accounting, documented in counters().
        rng = np.random.default_rng(1)
        xy = rng.random((400, 2)) * 100.0
        idx = ShardedGridIndex.from_arrays(xy, np.arange(400),
                                           tiles_per_side=4)
        queries = [(10.0, 10.0)] * 256 + [(90.0, 90.0)] * 256
        with obs.collecting() as reg:
            idx.knn_batch(queries, 3)
        assert reg.get("index_queries_total",
                       {"backend": "sharded", "mode": "batch"}) == 512.0
        assert reg.get("index_queries_total",
                       {"backend": "grid", "mode": "batch"}) is not None
        assert reg.total("index_tiles_built_total") > 0

    def test_registry_mirrors_routing_counters(self):
        idx = self._sharded()
        rng = np.random.default_rng(2)
        queries = [(float(x), float(y)) for x, y in rng.random((150, 2)) * 100]
        with obs.collecting() as reg:
            idx.knn_batch(queries, 30)  # k past some tiles' population
        c = idx.counters()
        assert c["batch_scalar"] > 0
        for key in ("batch_queries", "batch_settled", "batch_escalated",
                    "batch_scalar"):
            assert reg.get(f"index_{key}_total", {"backend": "sharded"}) \
                == float(c[key])


class TestCacheShims:
    def test_world_cache_registry_counters(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = worlds.get("paper/uniform-10k").with_size(50)
        with obs.collecting() as reg:
            cache.load_or_build(spec)
            cache.load_or_build(spec)
        assert reg.total("world_cache_misses_total") == 1.0
        assert reg.total("world_cache_hits_total") == 1.0
        # The build and the cache load each left a span behind.
        names = {r["name"] for r in reg.spans}
        assert "world_build" in names and "world_cache_load" in names


class TestCacheCounters:
    def test_answer_cache_counters_track_hits_and_misses(self, small_db):
        api = LrLbsInterface(small_db, k=3)
        api.query(Point(20, 30))
        assert api._cache.counters() == {
            "size": 1, "capacity": api._cache.capacity, "hits": 0, "misses": 1,
        }
        api.query(Point(20, 30))
        api.query(Point(70, 10))
        assert api._cache.counters() == {
            "size": 2, "capacity": api._cache.capacity, "hits": 1, "misses": 2,
        }
