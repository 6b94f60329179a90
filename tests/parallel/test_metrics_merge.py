"""Cross-process metric merging: exact totals, failure labelling.

The acceptance bar of the obs fan-out protocol: after
``run_many_parallel``, the parent registry's ``interface_queries_total``
equals the sum of per-run budget usage *exactly* (each worker collects
into a fresh registry, each snapshot merges exactly once), and a failed
run's partial counts survive but are stamped ``outcome="failed"`` so
they never mix with completed totals.
"""

import pytest

from repro.api import MaxSamples, Session
from repro.obs import registry as obs
from repro.parallel import ParallelRunError, run_many_parallel
from repro.worlds import registry


@pytest.fixture(scope="module")
def lr_specs():
    base = Session(registry.get("paper/clustered").with_size(300)).lr(k=5).count()
    return [base.seed(s).spec for s in (1, 2, 3)]


class TestExactMerge:
    def test_merged_queries_equal_sum_of_run_budgets(self, lr_specs):
        with obs.collecting() as reg:
            results = run_many_parallel(lr_specs, MaxSamples(12), workers=2)
        expected = float(sum(r.queries for r in results))
        assert reg.total("interface_queries_total") == expected
        assert reg.get("parallel_runs_total", {"outcome": "ok"}) == 3.0
        # Per-run telemetry agrees with the merged registry.
        assert expected == float(sum(r.telemetry.queries for r in results))

    def test_single_worker_pool_merges_identically(self, lr_specs):
        with obs.collecting() as reg:
            results = run_many_parallel(lr_specs, MaxSamples(8), workers=1)
        assert reg.total("interface_queries_total") == float(
            sum(r.queries for r in results)
        )

    def test_no_collection_when_parent_disabled(self, lr_specs):
        assert obs.active() is None
        results = run_many_parallel(lr_specs, MaxSamples(5), workers=2)
        assert all(r is not None for r in results)
        assert obs.active() is None  # nothing installed behind our back

    def test_run_metrics_cover_samples_and_checkpoints(self, lr_specs):
        with obs.collecting() as reg:
            run_many_parallel(lr_specs, MaxSamples(6), workers=2)
        assert reg.total("run_samples_total") == 18.0
        assert reg.total("run_checkpoints_total") == 18.0


class TestFailedRunLabelling:
    def test_failed_partials_labelled_not_double_counted(self):
        wspec = registry.get("paper/clustered").with_size(300).replace(census=None)
        good = Session(wspec).lr(k=5).count().seed(1).spec
        bad = good.replace(sampler="census", seed=2)  # no census grid: raises
        with obs.collecting() as reg:
            with pytest.raises(ParallelRunError) as err:
                run_many_parallel([good, bad], MaxSamples(10), workers=2)
        completed = err.value.results[0]
        assert completed is not None
        assert reg.get("parallel_runs_total", {"outcome": "ok"}) == 1.0
        assert reg.get("parallel_runs_total", {"outcome": "error"}) == 1.0
        # Completed-run series carry no outcome label; the failed run's
        # partial counts (if any) live only under outcome="failed".
        clean = sum(
            v for key, v in reg.series("interface_queries_total").items()
            if ("outcome", "failed") not in key
        )
        assert clean == float(completed.queries)
        failed = sum(
            v for key, v in reg.series("interface_queries_total").items()
            if ("outcome", "failed") in key
        )
        # The bad run died in the sampler before spending budget — its
        # partial snapshot merged (possibly empty) without polluting the
        # clean totals.
        assert failed >= 0.0
        assert reg.total("interface_queries_total") == clean + failed

