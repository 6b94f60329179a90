"""Public API surface checks and the README quickstart path."""

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.api
        import repro.core
        import repro.datasets
        import repro.geometry
        import repro.lbs
        import repro.parallel
        import repro.resilience
        import repro.sampling
        import repro.stats

        for mod in (repro.api, repro.core, repro.datasets, repro.geometry,
                    repro.lbs, repro.parallel, repro.resilience,
                    repro.sampling, repro.stats):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_api_surface_at_root(self):
        # The session facade is reachable from the package root.
        for name in ("Session", "SessionRun", "EstimationSpec", "AggregateSpec",
                     "MaxQueries", "MaxSamples", "TargetRelativeCI",
                     "StoppingRule", "Checkpoint", "run_many"):
            assert hasattr(repro, name), name

    def test_experiment_registry_complete(self):
        from repro.experiments import ALL_EXPERIMENTS

        expected = {f"fig{n}" for n in range(11, 22)} | {"table1"}
        assert set(ALL_EXPERIMENTS) == expected


def _tiny_poi_db():
    from repro import PoiConfig, generate_poi_database
    from repro.geometry import Rect

    region = Rect(0, 0, 100, 100)
    return generate_poi_database(
        region, np.random.default_rng(7),
        PoiConfig(n_restaurants=40, n_schools=20, n_banks=0, n_cafes=0),
    )


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        """The README snippet, condensed: it must run and be sane."""
        from repro import MaxQueries, Session

        db = _tiny_poi_db()
        result = Session(db).lr(k=5).count().seed(0).run(MaxQueries(400))
        assert result.samples > 0
        assert result.estimate == pytest.approx(len(db), rel=1.0)
        lo, hi = result.confidence_interval(0.95)
        assert lo < hi


class TestDeprecationShims:
    """The low-level driver entrypoint without a stopping rule (its
    legacy ``max_queries``/``n_samples`` shims are gone)."""

    def _agg(self, db, seed=0):
        from repro import AggregateQuery, LrLbsAgg, LrLbsInterface, UniformSampler

        return LrLbsAgg(LrLbsInterface(db, k=5), UniformSampler(db.region),
                        AggregateQuery.count(), seed=seed)

    def test_no_rule_at_all_raises(self):
        db = _tiny_poi_db()
        with pytest.raises(ValueError):
            self._agg(db).run()
