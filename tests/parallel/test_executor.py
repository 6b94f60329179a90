"""run_many_parallel: bit-identity vs sequential, checkpoints, failures."""

import json
import multiprocessing as mp
import os
import threading

import pytest

from repro.api import MaxSamples, Session, run_many
from repro.lbs import ObfuscationModel, RankingSpec
from repro.obs import registry as obs
from repro.parallel import ParallelRunError, RunProgress, WorldCache, run_many_parallel
from repro.worlds import registry


@pytest.fixture(scope="module")
def lr_specs():
    """Plain LR COUNT runs over a clustered registry world, three seeds."""
    base = Session(registry.get("paper/clustered").with_size(300)).lr(k=5).count()
    return [base.seed(s).spec for s in (1, 2, 3)]


@pytest.fixture(scope="module")
def lnr_specs():
    """Obfuscated prominence-ranked LNR runs (the WeChat-style surface)."""
    base = (
        Session(registry.get("paper/places-prominence").with_size(250))
        .lnr(k=5)
        .service(
            obfuscation=ObfuscationModel(sigma=2.0, seed=11),
            ranking=RankingSpec.prominence("popularity"),
        )
        .count()
    )
    return [base.seed(s).spec for s in (4, 5)]


@pytest.fixture(scope="module")
def mixed_obfuscation_specs():
    """Runs over one world under two obfuscation models and none: the
    first model twice, so a worker reuses its realized positions."""
    base = Session(registry.get("paper/clustered").with_size(300)).lr(k=5)
    a = ObfuscationModel(sigma=2.0, seed=11)
    b = ObfuscationModel(sigma=3.5, seed=12, clip=5.0)
    plan = [(a, 4), (b, 5), (None, 6), (a, 7)]
    return [
        base.service(obfuscation=obf).count().seed(seed).spec
        for obf, seed in plan
    ]


def sequential(specs, until):
    return [Session.from_spec(s).run(until) for s in specs]


def assert_results_identical(seq, par):
    assert len(seq) == len(par)
    for a, b in zip(seq, par):
        assert a.estimate == b.estimate
        assert a.queries == b.queries
        assert a.samples == b.samples
        assert a.trace == b.trace


class TestBitIdentity:
    def test_plain_lr_two_workers(self, lr_specs):
        until = MaxSamples(25)
        assert_results_identical(
            sequential(lr_specs, until),
            run_many_parallel(lr_specs, until, workers=2),
        )

    def test_obfuscated_prominence_lnr_two_workers(self, lnr_specs):
        until = MaxSamples(15)
        assert_results_identical(
            sequential(lnr_specs, until),
            run_many_parallel(lnr_specs, until, workers=2),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_mixed_obfuscation_models(self, mixed_obfuscation_specs, method,
                                      workers):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        until = MaxSamples(8)
        assert_results_identical(
            sequential(mixed_obfuscation_specs, until),
            run_many_parallel(mixed_obfuscation_specs, until, workers=workers,
                              mp_context=mp.get_context(method)),
        )

    def test_one_worker_and_excess_workers_agree(self, lr_specs):
        until = MaxSamples(10)
        seq = sequential(lr_specs, until)
        assert_results_identical(seq, run_many_parallel(lr_specs, until, workers=1))
        assert_results_identical(seq, run_many_parallel(lr_specs, until, workers=5))

    def test_per_run_stopping_rules(self, lr_specs):
        untils = [MaxSamples(5), MaxSamples(10), MaxSamples(15)]
        par = run_many_parallel(lr_specs, untils, workers=2)
        assert [r.samples for r in par] == [5, 10, 15]
        assert_results_identical(
            [Session.from_spec(s).run(u) for s, u in zip(lr_specs, untils)], par
        )

    def test_census_weighted_runs(self):
        base = (Session(registry.get("paper/clustered").with_size(300))
                .lr(k=5).census_weighted().count())
        specs = [base.seed(s).spec for s in (7, 8)]
        until = MaxSamples(12)
        assert_results_identical(
            sequential(specs, until),
            run_many_parallel(specs, until, workers=2),
        )

    def test_world_loaded_through_cache(self, lr_specs, tmp_path):
        until = MaxSamples(10)
        cache = WorldCache(tmp_path)
        with obs.collecting() as first:
            par = run_many_parallel(lr_specs, until, workers=2, cache=cache)
        assert first.total("world_cache_misses_total") == 1
        assert first.total("world_cache_hits_total") == 0
        assert_results_identical(sequential(lr_specs, until), par)
        # Second launch hits the cache and still matches.
        with obs.collecting() as second:
            par2 = run_many_parallel(lr_specs, until, workers=2, cache=cache)
        assert second.total("world_cache_hits_total") == 1
        assert second.total("world_cache_misses_total") == 0
        assert_results_identical(par, par2)

    def test_prebuilt_world_supplied(self, lr_specs):
        until = MaxSamples(10)
        world = lr_specs[0].world.build()
        assert_results_identical(
            sequential(lr_specs, until),
            run_many_parallel(lr_specs, until, workers=2, world=world),
        )


class TestCheckpoints:
    def test_state_files_written_and_resume_continues_bit_identically(
        self, lr_specs, tmp_path
    ):
        ckpt = tmp_path / "ckpts"
        run_many_parallel(lr_specs, MaxSamples(20), workers=2,
                          checkpoint_dir=str(ckpt), state_every=10)
        files = sorted(os.listdir(ckpt))
        assert files == [f"run-{i:03d}.state.json" for i in range(len(lr_specs))]
        # Resume run 1 from its persisted JSON checkpoint and extend the
        # stream; the continued run must match one that never paused.
        state = json.loads((ckpt / "run-001.state.json").read_text())
        resumed = Session.resume(None, state, until=MaxSamples(40)).run()
        uninterrupted = Session.from_spec(lr_specs[1]).run(MaxSamples(40))
        assert resumed.estimate == uninterrupted.estimate
        assert resumed.queries == uninterrupted.queries
        assert resumed.samples == uninterrupted.samples
        assert resumed.trace == uninterrupted.trace

    def test_progress_streams_per_sample(self, lr_specs):
        events = []
        run_many_parallel(lr_specs, MaxSamples(8), workers=2,
                          on_progress=events.append)
        assert all(isinstance(e, RunProgress) for e in events)
        by_run = {}
        for e in events:
            by_run.setdefault(e.run_index, []).append(e.samples)
        assert set(by_run) == {0, 1, 2}
        for samples in by_run.values():
            assert samples == list(range(1, 9))  # every checkpoint, in order


class TestCoordinator:
    def test_fan_out_starts_no_thread_in_the_caller(self, lr_specs):
        # Tasks and results share one pipe per worker, written
        # synchronously at both ends: no queue feeder thread appears.
        before = set(threading.enumerate())
        during = set()
        run_many_parallel(
            lr_specs, MaxSamples(5), workers=2,
            on_progress=lambda _e: during.update(threading.enumerate()),
        )
        assert during
        assert sorted(t.name for t in during - before) == []

    def test_progress_callback_error_reaches_the_caller(self, lr_specs):
        # Only the pipe's own errors mean a worker is gone; an OSError
        # raised by the caller's callback is the caller's to handle.
        def closed_sink(_event):
            raise BrokenPipeError("progress sink closed")

        with pytest.raises(BrokenPipeError, match="sink closed"):
            run_many_parallel(lr_specs, MaxSamples(5), workers=2,
                              on_progress=closed_sink)
        assert mp.active_children() == []


class TestFailures:
    def test_failing_run_surfaces_spec_and_keeps_completed_results(
        self, tmp_path
    ):
        wspec = registry.get("paper/clustered").with_size(300).replace(census=None)
        good = Session(wspec).lr(k=5).count().seed(1).spec
        bad = good.replace(sampler="census", seed=2)  # no census grid: worker raises
        ckpt = tmp_path / "ckpts"
        with pytest.raises(ParallelRunError) as err:
            run_many_parallel([good, bad], MaxSamples(10), workers=2,
                              checkpoint_dir=str(ckpt), state_every=5)
        e = err.value
        assert [i for i, _s, _t in e.failures] == [1]
        assert e.lost == set()                        # it raised; no worker died
        assert "census" in e.failures[0][1]          # the failing spec's JSON
        assert "census" in e.failures[0][2]          # the worker traceback
        assert e.results[1] is None
        completed = e.results[0]
        assert completed is not None
        assert completed.estimate == Session.from_spec(good).run(MaxSamples(10)).estimate
        # The completed run's checkpoint file is preserved.
        assert (ckpt / "run-000.state.json").is_file()

    def test_all_specs_must_embed_the_same_world(self, lr_specs, lnr_specs):
        with pytest.raises(ValueError, match="different WorldSpec"):
            run_many_parallel([lr_specs[0], lnr_specs[0]], MaxSamples(5), workers=2)

    def test_spec_without_world_rejected(self, small_db):
        spec = Session(small_db).lr(k=5).count().spec
        assert spec.world is None
        with pytest.raises(ValueError, match="embed a WorldSpec"):
            run_many_parallel([spec], MaxSamples(5), workers=2)

    def test_adhoc_callable_condition_rejected_before_spawning(self, lr_specs):
        spec = lr_specs[0].replace()
        bad = Session.from_spec(spec).count(where=lambda t: True).spec
        with pytest.raises(ValueError, match="AttrEquals"):
            run_many_parallel([bad], MaxSamples(5), workers=2)

    def test_mismatched_world_override_rejected(self, lr_specs):
        other = registry.get("paper/uniform-10k").with_size(100).build()
        with pytest.raises(ValueError, match="does not match"):
            run_many_parallel(lr_specs, MaxSamples(5), workers=2, world=other)

    def test_bad_arguments(self, lr_specs):
        with pytest.raises(ValueError, match="workers"):
            run_many_parallel(lr_specs, MaxSamples(5), workers=0)
        with pytest.raises(ValueError, match="stopping rules"):
            run_many_parallel(lr_specs, [MaxSamples(5)], workers=2)
        assert run_many_parallel([], MaxSamples(5), workers=2) == []


class TestRunManyDoor:
    def test_run_many_workers_matches_sequential(self, lr_specs):
        until = MaxSamples(12)

        def fresh_runs():
            return [Session.from_spec(s).start(until) for s in lr_specs]

        seq = run_many(fresh_runs())
        par = run_many(fresh_runs(), workers=2)
        assert_results_identical(seq, par)

    def test_workers_with_shared_pool_rejected(self, lr_specs):
        runs = [Session.from_spec(s).start(MaxSamples(5)) for s in lr_specs]
        with pytest.raises(ValueError, match="shared query pool"):
            run_many(runs, max_total_queries=100, workers=2)

    def test_workers_with_advanced_run_rejected(self, lr_specs):
        runs = [Session.from_spec(s).start(MaxSamples(5)) for s in lr_specs]
        next(iter(runs[0]))  # advance one sample
        with pytest.raises(ValueError, match="fresh runs"):
            run_many(runs, workers=2)

    def test_workers_one_or_none_stays_sequential(self, lr_specs):
        runs = [Session.from_spec(s).start(MaxSamples(5)) for s in lr_specs]
        results = run_many(runs, workers=1)  # sequential round-robin path
        assert all(r.samples == 5 for r in results)
