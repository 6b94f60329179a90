"""SharedWorld: export/attach round trips, lifecycle, stale-export sweep,
and which fan-outs export at all (spawn does, fork does not)."""

import multiprocessing as mp
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import MaxSamples, Session, run_many
from repro.obs import registry as obs
from repro.parallel import (
    ParallelRunError,
    SharedWorld,
    cleanup_stale_segments,
    executor,
    run_many_parallel,
)
from repro.parallel.sharedmem import _EXPORT_DIR, _PREFIX
from repro.worlds import registry


@pytest.fixture(scope="module")
def world():
    return registry.get("paper/clustered").with_size(300).build()


def _export_names(pid=None):
    """Export-directory entries named like an export, of ``pid`` if given."""
    prefix = _PREFIX + "-" if pid is None else f"{_PREFIX}-{pid:08x}-"
    try:
        return {e for e in os.listdir(_EXPORT_DIR) if e.startswith(prefix)}
    except OSError:
        return set()


def _export_root(shared):
    return Path(shared.descriptor()["entry"]).parent


class TestRoundTrip:
    def test_same_process_attach_is_value_identical(self, world):
        with SharedWorld.export(world) as shared:
            att = SharedWorld.attach(shared.descriptor())
            try:
                copy = att.world()
                assert np.array_equal(copy.db.coords, world.db.coords)
                assert np.array_equal(copy.db.tids, world.db.tids)
                assert copy.db.tuples() == world.db.tuples()
                assert copy.spec == world.spec
                assert np.array_equal(copy.census.weights, world.census.weights)
            finally:
                att.close()

    def test_attached_arrays_are_readonly(self, world):
        with SharedWorld.export(world) as shared:
            att = SharedWorld.attach(shared.descriptor())
            try:
                db = att.world().db
                assert not db.coords.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    db.coords[0, 0] = 99.0
            finally:
                att.close()

    def test_string_columns_round_trip(self):
        world = registry.get("wechat-like-1m").with_size(400).build()
        with SharedWorld.export(world) as shared:
            att = SharedWorld.attach(shared.descriptor())
            try:
                assert att.world().db.tuples() == world.db.tuples()
            finally:
                att.close()

    def test_estimation_over_attached_world_is_identical(self, world):
        with SharedWorld.export(world) as shared:
            att = SharedWorld.attach(shared.descriptor())
            try:
                r_shared = (Session(att.world()).lr(k=5).count().seed(2)
                            .run(MaxSamples(20)))
                r_local = (Session(world).lr(k=5).count().seed(2)
                           .run(MaxSamples(20)))
                assert r_shared.estimate == r_local.estimate
                assert r_shared.queries == r_local.queries
            finally:
                att.close()

    def test_descriptor_pickles_across_processes(self, world):
        ctx = mp.get_context()
        with SharedWorld.export(world) as shared:
            parent, child = ctx.Pipe()
            p = ctx.Process(target=_child_checksum,
                            args=(shared.descriptor(), child))
            p.start()
            got = parent.recv()
            p.join(timeout=30)
            assert p.exitcode == 0
            assert got == [
                float(world.db.coords.sum()),
                int(world.db.tids.sum()),
                len(world.db),
            ]

    def test_export_requires_a_spec(self, world):
        before = _export_names(os.getpid())
        with pytest.raises(TypeError, match="WorldSpec"):
            SharedWorld.export(world.db)
        assert _export_names(os.getpid()) == before


def _child_checksum(descriptor, conn):
    att = SharedWorld.attach(descriptor)
    try:
        db = att.world().db
        conn.send([float(db.coords.sum()), int(db.tids.sum()), len(db)])
    finally:
        att.close()


class TestLifecycle:
    def test_destroy_removes_segments(self, world):
        """The export is one private root directory; destroy removes it."""
        before = _export_names()
        shared = SharedWorld.export(world)
        created = _export_names() - before
        root = _export_root(shared)
        assert created == {root.name}
        assert root.parent == Path(_EXPORT_DIR)
        assert root.name.startswith(f"{_PREFIX}-{os.getpid():08x}-")
        assert root.is_dir()
        shared.destroy()
        assert not root.exists()
        assert not (_export_names() & created)

    def test_export_root_is_private(self, world):
        # The entry may hold pickled object columns, and attaching
        # unpickles them: no other user may write there.
        with SharedWorld.export(world) as shared:
            mode = stat.S_IMODE(os.stat(_export_root(shared)).st_mode)
            assert mode == 0o700

    def test_destroy_is_idempotent_and_owner_only(self, world):
        shared = SharedWorld.export(world)
        att = SharedWorld.attach(shared.descriptor())
        with pytest.raises(RuntimeError, match="exporting process"):
            att.destroy()
        att.close()
        att.close()
        shared.destroy()
        shared.destroy()

    def test_attach_after_destroy_fails(self, world):
        before = _export_names()
        shared = SharedWorld.export(world)
        descriptor = shared.descriptor()
        shared.destroy()
        with pytest.raises(FileNotFoundError):
            SharedWorld.attach(descriptor)
        # A failed attach creates nothing, not even an empty root.
        assert _export_names() == before
        assert not Path(descriptor["entry"]).parent.exists()

    def test_cleanup_stale_segments_sweeps_dead_pids_only(self, world):
        # Forge what owners that cannot exist left behind: an export
        # root with an entry in it, and a segment file of the releases
        # that exported into shared-memory segments.
        dead = f"{_PREFIX}-{0x7FFFFFFE:08x}"
        stale_root = os.path.join(_EXPORT_DIR, f"{dead}-abc123")
        stale_segment = os.path.join(_EXPORT_DIR, f"{dead}-feedface")
        os.makedirs(os.path.join(stale_root, "entry"))
        with open(os.path.join(stale_root, "entry", "xy.npy"), "wb") as f:
            f.write(b"\0" * 16)
        with open(stale_segment, "wb") as f:
            f.write(b"\0" * 16)
        shared = SharedWorld.export(world)  # a live export, our pid
        try:
            removed = cleanup_stale_segments()
            assert {os.path.basename(stale_root),
                    os.path.basename(stale_segment)} <= set(removed)
            assert not os.path.exists(stale_root)
            assert not os.path.exists(stale_segment)
            # Our live export is untouched.
            assert _export_root(shared).name not in removed
            att = SharedWorld.attach(shared.descriptor())
            assert att.world().db.tuples() == world.db.tuples()
            att.close()
        finally:
            shared.destroy()
            if os.path.isdir(stale_root):
                shutil.rmtree(stale_root)
            if os.path.exists(stale_segment):
                os.unlink(stale_segment)


needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                                reason="no fork start method on this platform")


class TestNothingLeftBehind:
    """A fan-out removes its export and starts no resource tracker.

    The export checks run under spawn: a fork fan-out exports nothing,
    so under fork they would pass without testing anything.
    """

    def test_no_export_after_run_many_parallel_returns(self, monkeypatch):
        exported = []
        real_export = SharedWorld.export

        def counting_export(world):
            exported.append(world)
            return real_export(world)

        monkeypatch.setattr(SharedWorld, "export", counting_export)
        base = Session(registry.get("paper/clustered").with_size(200)).lr(k=5).count()
        specs = [base.seed(s).spec for s in (1, 2)]
        run_many_parallel(specs, MaxSamples(3), workers=2,
                          mp_context=mp.get_context("spawn"))
        assert len(exported) == 1  # one export serves every spawned worker
        assert _export_names(os.getpid()) == set()

    def test_no_export_after_parallel_run_error(self):
        wspec = registry.get("paper/clustered").with_size(200).replace(census=None)
        good = Session(wspec).lr(k=5).count().seed(1).spec
        bad = good.replace(sampler="census", seed=2)  # no census grid: raises
        with pytest.raises(ParallelRunError):
            run_many_parallel([good, bad], MaxSamples(3), workers=2,
                              mp_context=mp.get_context("spawn"))
        assert _export_names(os.getpid()) == set()

    @needs_fork  # the spawn start method runs a resource tracker
    def test_fan_out_starts_no_resource_tracker(self):
        # A fresh interpreter: this one's tracker may already be running.
        code = (
            "from multiprocessing import resource_tracker\n"
            "from repro.api import MaxSamples, Session\n"
            "from repro.parallel import run_many_parallel\n"
            "from repro.worlds import registry\n"
            "base = Session(registry.get('paper/clustered').with_size(200))"
            ".lr(k=5).count()\n"
            "run_many_parallel([base.seed(s).spec for s in (1, 2)],"
            " MaxSamples(3), workers=2)\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "None"


def _refuse_export(world):
    raise AssertionError("a fork fan-out exported its world")


@needs_fork
class TestForkInheritsTheWorld:
    """Forked workers use the parent's world itself: a fork fan-out never
    exports it, not even for a worker respawned after a crash.  (The
    spawn fan-outs above export it once.)"""

    @pytest.fixture(scope="class")
    def specs(self):
        base = Session(registry.get("paper/clustered").with_size(300)).lr(k=5).count()
        return [base.seed(s).spec for s in (1, 2, 3)]

    @staticmethod
    def sequential(specs, until):
        return run_many([Session.from_spec(s).start(until) for s in specs])

    @staticmethod
    def assert_identical(seq, par):
        assert [(r.estimate, r.queries, r.samples, r.trace) for r in par] == \
            [(r.estimate, r.queries, r.samples, r.trace) for r in seq]

    def test_fork_fan_out_never_exports(self, specs, monkeypatch):
        monkeypatch.setattr(SharedWorld, "export", _refuse_export)
        until = MaxSamples(10)
        par = run_many_parallel(specs, until, workers=2,
                                mp_context=mp.get_context("fork"))
        self.assert_identical(self.sequential(specs, until), par)
        assert _export_names(os.getpid()) == set()

    def test_respawned_fork_worker_inherits_the_world(self, specs, tmp_path,
                                                      monkeypatch):
        def crash_once(run_index, samples, attempt):
            if run_index == 1 and samples == 8 and attempt == 0:
                os._exit(13)

        monkeypatch.setattr(SharedWorld, "export", _refuse_export)
        monkeypatch.setattr(executor, "_test_checkpoint_hook", crash_once)
        until = MaxSamples(15)
        with obs.collecting() as reg:
            par = run_many_parallel(specs, until, workers=2, retries=1,
                                    checkpoint_dir=str(tmp_path), state_every=5,
                                    mp_context=mp.get_context("fork"))
        assert reg.total("runs_recovered_total") == 1
        self.assert_identical(self.sequential(specs, until), par)
        assert _export_names(os.getpid()) == set()
