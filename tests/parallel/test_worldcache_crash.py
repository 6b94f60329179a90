"""WorldCache crash consistency: torn entries are evicted, never served,
and the export of an owner that died is swept."""

import json
import multiprocessing as mp
import os
from pathlib import Path

import pytest

from repro.obs import registry as obs
from repro.parallel import SharedWorld, WorldCache, cleanup_stale_segments
from repro.parallel.sharedmem import _PREFIX
from repro.parallel.worldcache import WorldCacheError
from repro.worlds import registry


@pytest.fixture
def spec():
    return registry.get("paper/clustered").with_size(200)


def load_counted(cache, spec):
    """``cache.load_or_build`` and the outcome the registry counted for
    it: ``"hit"`` or ``"miss"``."""
    with obs.collecting() as reg:
        world = cache.load_or_build(spec)
    hits = reg.total("world_cache_hits_total")
    misses = reg.total("world_cache_misses_total")
    assert hits + misses == 1
    return world, "hit" if hits else "miss"


@pytest.fixture
def cache(tmp_path, spec):
    cache = WorldCache(tmp_path)
    _world, outcome = load_counted(cache, spec)  # publish one complete entry
    assert outcome == "miss"
    return cache


def _world_fingerprint(world):
    db = world.db
    return (len(db), db.coords.tobytes(), db.tids.tobytes())


class TestTornEntries:
    """Corruption injected into a *published* entry — simulating a torn
    write or partial disk state — must evict and rebuild, not serve
    garbage or crash."""

    @pytest.mark.parametrize("victim", ["xy.npy", "tids.npy", "col000.npy"])
    def test_truncated_array_evicts_and_rebuilds(self, cache, spec, victim):
        entry = cache.entry_path(spec)
        path = entry / victim
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn mid-array

        with pytest.raises(WorldCacheError):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)  # evicts, rebuilds, republishes
        assert outcome == "miss"
        assert _world_fingerprint(world) == _world_fingerprint(spec.build())
        # The republished entry is whole again and serves as a hit.
        assert load_counted(cache, spec)[1] == "hit"

    def test_truncated_meta_json_evicts_and_rebuilds(self, cache, spec):
        meta = cache.entry_path(spec) / "meta.json"
        text = meta.read_text()
        meta.write_text(text[: len(text) // 2])  # torn mid-JSON

        with pytest.raises(WorldCacheError):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)
        assert outcome == "miss"
        assert _world_fingerprint(world) == _world_fingerprint(spec.build())

    def test_missing_array_file_evicts_and_rebuilds(self, cache, spec):
        (cache.entry_path(spec) / "xy.npy").unlink()

        with pytest.raises(WorldCacheError):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)
        assert world is not None and outcome == "miss"

    def test_zero_byte_array_evicts_and_rebuilds(self, cache, spec):
        # The extreme torn write: the file exists but holds nothing.
        (cache.entry_path(spec) / "tids.npy").write_bytes(b"")

        with pytest.raises(WorldCacheError):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)
        assert world is not None and outcome == "miss"

    def test_entry_claiming_wrong_world_evicts(self, cache, spec):
        # meta.json intact JSON but describing a different world than
        # the directory hash claims — e.g. a corrupted rename.
        meta_path = cache.entry_path(spec) / "meta.json"
        meta = json.loads(meta_path.read_text())
        other = registry.get("paper/clustered").with_size(150)
        meta["world"] = other.to_dict()
        meta_path.write_text(json.dumps(meta))

        with pytest.raises(WorldCacheError, match="different world"):
            cache.load(spec)
        world, outcome = load_counted(cache, spec)
        assert outcome == "miss"
        assert _world_fingerprint(world) == _world_fingerprint(spec.build())

    def test_rebuilt_world_runs_bit_identically(self, cache, spec):
        """End to end: estimates over a rebuilt-after-corruption world
        match estimates over a freshly built one."""
        from repro.api import MaxSamples, Session

        entry = cache.entry_path(spec)
        data = (entry / "xy.npy").read_bytes()
        (entry / "xy.npy").write_bytes(data[:100])

        recovered = cache.load_or_build(spec)
        want = Session(spec.build()).lr(k=5).count().seed(4).run(MaxSamples(10))
        got = Session(recovered).lr(k=5).count().seed(4).run(MaxSamples(10))
        assert got.estimate == want.estimate
        assert got.queries == want.queries
        assert got.trace == want.trace


def _export_and_die(spec_dict, conn):
    from repro.worlds import WorldSpec

    shared = SharedWorld.export(WorldSpec.from_dict(spec_dict).build())
    conn.send(shared.descriptor())
    conn.close()
    os._exit(1)  # no destroy(): the root stays behind


class TestDeadOwner:
    def test_sweep_removes_exactly_the_dead_owners_root(self, spec):
        ctx = mp.get_context()
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_export_and_die, args=(spec.to_dict(), child))
        proc.start()
        child.close()
        descriptor = parent.recv()
        proc.join(timeout=60)
        assert proc.exitcode == 1
        root = Path(descriptor["entry"]).parent
        assert root.is_dir()  # the crash left the export behind
        assert root.name.startswith(f"{_PREFIX}-{proc.pid:08x}-")

        world = spec.build()
        with SharedWorld.export(world) as live:
            live_root = Path(live.descriptor()["entry"]).parent
            removed = cleanup_stale_segments()
            dead_owner = [n for n in removed
                          if n.startswith(f"{_PREFIX}-{proc.pid:08x}-")]
            assert dead_owner == [root.name]
            assert not root.exists()
            assert live_root.is_dir()  # a live owner's export stays
            assert live_root.name not in removed
            attached = SharedWorld.attach(live.descriptor())
            assert attached.world().db.tuples() == world.db.tuples()
            attached.close()
