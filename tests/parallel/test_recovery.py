"""Crash-recovering run_many_parallel: respawn, watchdog, clean reaping."""

import json
import multiprocessing as mp
import os
import struct
import sys
import time

import pytest

from repro.api import MaxSamples, Session
from repro.obs import MetricsRegistry
from repro.obs import registry as obs_registry
from repro.parallel import ParallelRunError, run_many_parallel
from repro.parallel import executor
from repro.resilience import FaultSpec, RetryPolicy
from repro.worlds import registry

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash-injection hooks propagate to workers via fork",
)


@pytest.fixture(scope="module")
def lr_specs():
    base = Session(registry.get("paper/clustered").with_size(300)).lr(k=5).count()
    return [base.seed(s).spec for s in (1, 2, 3)]


@pytest.fixture
def checkpoint_hook():
    """Install a worker-side checkpoint hook; always uninstalled after."""

    def install(hook):
        executor._test_checkpoint_hook = hook

    yield install
    executor._test_checkpoint_hook = None


def sequential(specs, until):
    return [Session.from_spec(s).run(until) for s in specs]


def assert_results_identical(seq, par):
    assert len(seq) == len(par)
    for a, b in zip(seq, par):
        assert a.estimate == b.estimate
        assert a.queries == b.queries
        assert a.samples == b.samples
        assert a.trace == b.trace


@needs_fork
class TestCrashRecovery:
    def test_crashed_worker_respawns_and_resumes_bit_identically(
        self, lr_specs, tmp_path, checkpoint_hook
    ):
        until = MaxSamples(20)
        seq = sequential(lr_specs, until)

        def crash_once(run_index, samples, attempt):
            if run_index == 1 and samples == 12 and attempt == 0:
                os._exit(13)

        checkpoint_hook(crash_once)
        reg = MetricsRegistry()
        with obs_registry.collecting(reg):
            par = run_many_parallel(lr_specs, until, workers=2, retries=2,
                                    checkpoint_dir=str(tmp_path), state_every=5)
        assert_results_identical(seq, par)
        metrics = reg.to_dict()["metrics"]
        assert metrics["runs_recovered_total"]["series"][0]["value"] == 1.0
        deaths = {s["labels"]["reason"]: s["value"]
                  for s in metrics["parallel_worker_deaths_total"]["series"]}
        assert deaths == {"died": 1.0}

    def test_crash_without_checkpoints_restarts_from_scratch(
        self, lr_specs, checkpoint_hook
    ):
        # No checkpoint_dir: the retry has nothing to resume from and
        # must rerun the whole run — still bit-identical.
        until = MaxSamples(12)
        seq = sequential(lr_specs, until)

        def crash_once(run_index, samples, attempt):
            if run_index == 0 and samples == 8 and attempt == 0:
                os._exit(7)

        checkpoint_hook(crash_once)
        par = run_many_parallel(lr_specs, until, workers=2, retries=1)
        assert_results_identical(seq, par)

    def test_retries_exhausted_raises_with_checkpoint_preserved(
        self, lr_specs, tmp_path, checkpoint_hook
    ):
        until = MaxSamples(20)

        def always_crash(run_index, samples, attempt):
            if run_index == 2 and samples == 12:
                os._exit(13)

        checkpoint_hook(always_crash)
        with pytest.raises(ParallelRunError) as err:
            run_many_parallel(lr_specs, until, workers=2, retries=1,
                              checkpoint_dir=str(tmp_path), state_every=5)
        e = err.value
        assert [i for i, _s, _t in e.failures] == [2]
        assert e.lost == {2}
        assert "retries exhausted" in e.failures[0][2]
        assert e.results[2] is None
        assert e.results[0] is not None and e.results[1] is not None
        # The failed run's rolling checkpoint file survives for manual
        # recovery (exercised in TestManualRecovery below).
        assert (tmp_path / "run-002.state.json").is_file()

    def test_hung_worker_killed_by_watchdog_and_recovered(
        self, lr_specs, tmp_path, checkpoint_hook
    ):
        until = MaxSamples(15)
        seq = sequential(lr_specs, until)

        def hang_once(run_index, samples, attempt):
            if run_index == 0 and samples == 8 and attempt == 0:
                time.sleep(300)  # far past the deadline; watchdog kills us

        checkpoint_hook(hang_once)
        reg = MetricsRegistry()
        start = time.monotonic()
        with obs_registry.collecting(reg):
            par = run_many_parallel(lr_specs, until, workers=2, retries=1,
                                    run_deadline=1.5,
                                    checkpoint_dir=str(tmp_path), state_every=5)
        assert time.monotonic() - start < 60.0  # did not wait out the sleep
        assert_results_identical(seq, par)
        metrics = reg.to_dict()["metrics"]
        deaths = {s["labels"]["reason"]: s["value"]
                  for s in metrics["parallel_worker_deaths_total"]["series"]}
        assert deaths == {"hung": 1.0}
        assert metrics["runs_recovered_total"]["series"][0]["value"] == 1.0

    def test_worker_dying_mid_message_stalls_no_other_worker(
        self, lr_specs, checkpoint_hook
    ):
        """A worker killed halfway through sending a message tears only
        its own result pipe: the other workers' results still arrive and
        the lost run is retried.  The watchdog turns a stalled pool into
        a failure here rather than a hang."""
        until = MaxSamples(15)
        seq = sequential(lr_specs, until)

        def tear_and_die(run_index, samples, attempt):
            if run_index == 0 and samples == 8 and attempt == 0:
                pipe = sys._getframe(1).f_locals["results"]  # this worker's
                # A message header promising 256 bytes, then only four.
                os.write(pipe.fileno(), struct.pack("!i", 256) + b"torn")
                os._exit(9)

        checkpoint_hook(tear_and_die)
        par = run_many_parallel(lr_specs, until, workers=2, retries=2,
                                run_deadline=10.0)
        assert_results_identical(seq, par)

    def test_no_zombie_children_after_recovery(self, lr_specs, checkpoint_hook):
        def crash_once(run_index, samples, attempt):
            if run_index == 1 and samples == 5 and attempt == 0:
                os._exit(1)

        checkpoint_hook(crash_once)
        run_many_parallel(lr_specs, MaxSamples(8), workers=2, retries=1)
        # Deterministic reaping: terminate→kill escalation joins every
        # spawned process, so none linger (zombie or alive).
        assert mp.active_children() == []

    def test_bad_arguments(self, lr_specs):
        with pytest.raises(ValueError, match="retries"):
            run_many_parallel(lr_specs, MaxSamples(5), retries=-1)
        with pytest.raises(ValueError, match="run_deadline"):
            run_many_parallel(lr_specs, MaxSamples(5), run_deadline=0.0)


@needs_fork
class TestResumeSource:
    """A retry resumes from the checkpoint file its own run wrote, and
    from no other file under the same name."""

    def test_retry_resumes_from_its_own_checkpoint(
        self, lr_specs, tmp_path, checkpoint_hook
    ):
        # A restart from sample 1 is bit-identical too, so only the
        # progress stream shows where the retry began.
        specs, until = lr_specs[:2], MaxSamples(12)

        def crash_after_first_checkpoint(run_index, samples, attempt):
            if run_index == 0 and samples == 8 and attempt == 0:
                os._exit(13)

        checkpoint_hook(crash_after_first_checkpoint)
        events = []
        par = run_many_parallel(specs, until, workers=2, retries=1,
                                checkpoint_dir=str(tmp_path), state_every=5,
                                on_progress=events.append)
        assert_results_identical(sequential(specs, until), par)
        # Samples 1-7 before the crash (sample 8 dies in the hook), then
        # the retry continues from the sample-5 checkpoint.
        assert [e.samples for e in events if e.run_index == 0] == \
            list(range(1, 8)) + list(range(6, 13))

    @pytest.mark.parametrize(
        "stale", ["other-seed", "other-rule", "truncated", "older-format"])
    def test_retry_ignores_a_checkpoint_it_did_not_write(
        self, lr_specs, tmp_path, checkpoint_hook, stale
    ):
        """Attempt 0 dies before its first checkpoint, so the retry
        finds only the file an earlier call left under the run's name."""
        specs, until = lr_specs[:2], MaxSamples(12)
        spec, rule = {
            "other-seed": (specs[0].replace(seed=7), until),
            "other-rule": (specs[0], MaxSamples(30)),
            "truncated": (specs[0], until),
            "older-format": (specs[0], until),
        }[stale]
        earlier = Session.from_spec(spec).start(rule)
        earlier.run()
        state = earlier.to_state()
        if stale == "older-format":
            state["driver"]["version"] = 4  # same spec and rule, v4 state
        text = json.dumps(state)
        if stale == "truncated":
            text = text[: len(text) // 2]
        (tmp_path / "run-000.state.json").write_text(text)

        def crash_before_first_checkpoint(run_index, samples, attempt):
            if run_index == 0 and samples == 2 and attempt == 0:
                os._exit(13)

        checkpoint_hook(crash_before_first_checkpoint)
        par = run_many_parallel(specs, until, workers=2, retries=1,
                                checkpoint_dir=str(tmp_path), state_every=5)
        assert_results_identical(sequential(specs, until), par)


@needs_fork
class TestManualRecovery:
    def test_failed_runs_resume_from_preserved_checkpoints(
        self, lr_specs, tmp_path, checkpoint_hook
    ):
        """The satellite contract: after ParallelRunError, every failed
        run recovers today via Session.resume on its checkpoint file,
        bit-identical to a run that never crashed."""
        until = MaxSamples(20)
        seq = sequential(lr_specs, until)

        def always_crash(run_index, samples, attempt):
            if run_index in (0, 2) and samples == 12:
                os._exit(13)

        checkpoint_hook(always_crash)
        with pytest.raises(ParallelRunError) as err:
            run_many_parallel(lr_specs, until, workers=2, retries=0,
                              checkpoint_dir=str(tmp_path), state_every=5)
        e = err.value
        assert sorted(i for i, _s, _t in e.failures) == [0, 2]
        results = list(e.results)
        executor._test_checkpoint_hook = None  # recover without crashing
        for i, _spec_json, _tb in e.failures:
            state = json.loads(
                (tmp_path / f"run-{i:03d}.state.json").read_text()
            )
            results[i] = Session.resume(None, state).run()
        assert_results_identical(seq, results)


@needs_fork
class TestChaos:
    def test_faults_and_crash_recover_to_fault_free_results(
        self, tmp_path, checkpoint_hook
    ):
        """The acceptance smoke: transient interface faults (retried
        in-place) plus a worker crash (respawned and resumed) — and the
        results still match a fault-free sequential run, bit for bit."""
        base = (Session(registry.get("paper/clustered").with_size(300))
                .lr(k=5).count())
        plain = [base.seed(s).spec for s in (1, 2, 3)]
        faulty = [
            Session.from_spec(s).resilience(
                fault=FaultSpec(timeout_rate=0.05, rate_limit_rate=0.03,
                                drop_rate=0.02, seed=23),
                retry=RetryPolicy(max_attempts=10),
            ).spec
            for s in plain
        ]
        until = MaxSamples(20)
        seq = sequential(plain, until)  # fault-free, sequential

        def crash_once(run_index, samples, attempt):
            if run_index == 1 and samples == 14 and attempt == 0:
                os._exit(11)

        checkpoint_hook(crash_once)
        reg = MetricsRegistry()
        with obs_registry.collecting(reg):
            par = run_many_parallel(faulty, until, workers=2, retries=2,
                                    checkpoint_dir=str(tmp_path), state_every=5)
        assert_results_identical(seq, par)
        metrics = reg.to_dict()["metrics"]
        injected = sum(s["value"]
                       for s in metrics["faults_injected_total"]["series"])
        assert injected > 0  # workers really ran through faults
        assert metrics["retries_total"]["series"][0]["value"] > 0
        assert metrics["runs_recovered_total"]["series"][0]["value"] == 1.0
