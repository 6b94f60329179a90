"""WorldCache: bit-identical round trips, atomicity, eviction, mmap loads."""

import json
import mmap
import os

import numpy as np
import pytest

from repro.parallel import WorldCache, WorldCacheError
from repro.api import MaxSamples, Session
from repro.obs import registry as obs
from repro.worlds import registry


def small_spec(name="paper/clustered", n=300):
    return registry.get(name).with_size(n)


def load_counted(cache, spec, **kwargs):
    """``cache.load_or_build`` and the outcome the registry counted for
    it: ``"hit"`` or ``"miss"``."""
    with obs.collecting() as reg:
        world = cache.load_or_build(spec, **kwargs)
    hits = reg.total("world_cache_hits_total")
    misses = reg.total("world_cache_misses_total")
    assert hits + misses == 1
    return world, "hit" if hits else "miss"


def published_entries(cache):
    return [p for p in cache.root.iterdir() if p.is_dir() and not p.name.startswith(".")]


def assert_worlds_identical(a, b):
    assert np.array_equal(a.db.coords, b.db.coords)
    assert np.array_equal(a.db.tids, b.db.tids)
    assert a.db.column_names() == b.db.column_names()
    assert a.db.tuples() == b.db.tuples()
    assert a.db.region == b.db.region
    if a.census is None:
        assert b.census is None
    else:
        assert np.array_equal(a.census.weights, b.census.weights)
        assert a.census.region == b.census.region


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        assert not cache.has(spec)
        w1, first = load_counted(cache, spec)
        assert cache.has(spec)
        w2, second = load_counted(cache, spec)
        assert (first, second) == ("miss", "hit")
        assert len(published_entries(cache)) == 1
        assert_worlds_identical(w1, w2)

    def test_hit_matches_fresh_build(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        cache.load_or_build(spec)
        assert_worlds_identical(cache.load_or_build(spec), spec.build())

    def test_string_and_masked_columns_round_trip(self, tmp_path):
        # wechat-like worlds carry str columns (gender, name) and a
        # visibility-driven schema; value equality must survive the
        # fixed-width re-encoding.
        cache = WorldCache(tmp_path)
        spec = small_spec("wechat-like-1m", 500)
        loaded = cache.load_or_build(spec)
        cached, outcome = load_counted(cache, spec)
        assert outcome == "hit"
        assert_worlds_identical(loaded, cached)
        assert_worlds_identical(cached, spec.build())

    def test_estimation_over_cached_world_is_identical(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        cache.load_or_build(spec)
        cached = cache.load_or_build(spec)
        r_cached = Session(cached).lr(k=5).count().seed(3).run(MaxSamples(25))
        r_fresh = Session(spec.build()).lr(k=5).count().seed(3).run(MaxSamples(25))
        assert r_cached.estimate == r_fresh.estimate
        assert r_cached.queries == r_fresh.queries
        assert r_cached.trace == r_fresh.trace

    def test_ground_truth_identical(self, tmp_path):
        from repro.datasets import is_category

        cache = WorldCache(tmp_path)
        spec = small_spec()
        cache.load_or_build(spec)
        cached, fresh = cache.load_or_build(spec), spec.build()
        pred = is_category("restaurant")
        assert cached.db.ground_truth_count(pred) == fresh.db.ground_truth_count(pred)
        assert cached.db.ground_truth_sum("rating") == fresh.db.ground_truth_sum("rating")


class TestStorageProperties:
    def test_loaded_arrays_are_readonly_mmaps(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        cache.load_or_build(spec)
        world = cache.load_or_build(spec)

        def backing(arr):
            while isinstance(arr, np.ndarray) and arr.base is not None:
                arr = arr.base
            return arr

        # Ingest rewraps the mmap as a plain ndarray view; the storage
        # underneath must still be the on-disk mapping, not a copy.
        assert isinstance(backing(world.db.coords), (np.memmap, mmap.mmap))
        assert not world.db.coords.flags.writeable
        assert not world.db.tids.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            world.db.coords[0, 0] = 1.0

    def test_seed_override_is_part_of_the_key(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        w5, out5 = load_counted(cache, spec, seed=5)
        w6, out6 = load_counted(cache, spec, seed=6)
        assert (out5, out6) == ("miss", "miss")
        assert len(published_entries(cache)) == 2
        assert not np.array_equal(w5.db.coords, w6.db.coords)
        again, outcome = load_counted(cache, spec, seed=5)
        assert outcome == "hit"
        assert_worlds_identical(w5, again)

    def test_no_census_world(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec().replace(census=None)
        cache.load_or_build(spec)
        assert cache.load_or_build(spec).census is None

    def test_store_requires_a_spec(self, tmp_path):
        with pytest.raises(TypeError, match="WorldSpec"):
            WorldCache(tmp_path).store(object())


class TestAtomicityAndEviction:
    def test_no_partial_entries_visible(self, tmp_path):
        cache = WorldCache(tmp_path)
        cache.load_or_build(small_spec())
        published = [p for p in cache.root.iterdir() if not p.name.startswith(".")]
        assert len(published) == 1
        assert (published[0] / "meta.json").is_file()
        # nothing staged left behind
        assert not list(cache.root.glob(".tmp-*"))

    def test_corrupt_entry_is_evicted_and_rebuilt(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        path = cache.store(spec.build())
        (path / "xy.npy").write_bytes(b"garbage")
        with pytest.raises(WorldCacheError):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)  # evicts + rebuilds
        assert outcome == "miss"
        assert_worlds_identical(world, spec.build())
        assert_worlds_identical(cache.load_or_build(spec), world)

    def test_format_mismatch_rejected(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        path = cache.store(spec.build())
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = meta["format"] + 1
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(WorldCacheError, match="format"):
            cache.load(spec)

    def test_hash_mismatch_rejected(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        path = cache.store(spec.build())
        other = spec.with_size(301)
        renamed = cache.entry_path(other)
        os.rename(path, renamed)
        with pytest.raises(WorldCacheError, match="different world"):
            cache.load(other)

    def test_prune_staging_removes_foreign_leftovers(self, tmp_path):
        cache = WorldCache(tmp_path)
        stale = cache.root / ".tmp-deadbeef-99999999"
        stale.mkdir()
        mine = cache.root / f".tmp-cafe-{os.getpid()}"
        mine.mkdir()
        assert cache.prune_staging() == 1
        assert not stale.exists() and mine.exists()

    def test_evict(self, tmp_path):
        cache = WorldCache(tmp_path)
        spec = small_spec()
        cache.store(spec.build())
        assert cache.evict(spec) is True
        assert not cache.has(spec)
        assert cache.evict(spec) is False
