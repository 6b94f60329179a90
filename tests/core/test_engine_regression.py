"""Estimator regression tests for the batched query engine.

Seed-pinned smoke tests assert that LR-COUNT and LNR-COUNT stay inside
the pre-refactor tolerance bands on tiny synthetic databases, that
batched runs (`run(..., batch_size=N)`) keep the estimators unbiased,
and that batching never changes what a sample *means* — only how its
queries reach the service.
"""

import numpy as np
import pytest

from repro.core import (
    AggregateQuery,
    LnrLbsAgg,
    LrAggConfig,
    LrLbsAgg,
    MaxSamples,
    QueryEngineConfig,
)
from repro.geometry import Point, Rect
from repro.lbs import LbsTuple, LnrLbsInterface, LrLbsInterface, SpatialDatabase
from repro.sampling import UniformSampler

BOX = Rect(0.0, 0.0, 100.0, 100.0)


def make_db(n, seed=3):
    rng = np.random.default_rng(seed)
    return SpatialDatabase(
        [
            LbsTuple(i, Point(rng.random() * 100.0, rng.random() * 100.0),
                     {"v": float(i % 7)})
            for i in range(n)
        ],
        BOX,
    )


class TestLrCountBands:
    """LR-COUNT, 60 tuples: the seed run landed ~0.05 off truth; hold a
    0.25 relative band so only a genuine engine regression can break it."""

    def _run(self, batch_size, seed=0, backend="auto"):
        db = make_db(60)
        api = LrLbsInterface(db, k=5, engine=QueryEngineConfig(index_backend=backend))
        agg = LrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(), seed=seed)
        return agg.run(MaxSamples(60), batch_size=batch_size)

    def test_sequential_band(self):
        res = self._run(batch_size=1)
        assert res.samples == 60
        assert res.estimate == pytest.approx(60, rel=0.25)

    @pytest.mark.parametrize("batch_size", [8, 32])
    def test_batched_band(self, batch_size):
        res = self._run(batch_size=batch_size)
        assert res.samples == 60
        assert res.estimate == pytest.approx(60, rel=0.25)

    @pytest.mark.parametrize("backend", ["kdtree", "grid", "brute"])
    def test_backend_invariance(self, backend):
        # The index backend is an implementation detail: identical
        # answers, identical estimate.
        ref = self._run(batch_size=8, backend="kdtree").estimate
        assert self._run(batch_size=8, backend=backend).estimate == ref

    def test_mean_over_seeds_unbiased(self):
        estimates = [self._run(batch_size=16, seed=s).estimate for s in range(4)]
        assert float(np.mean(estimates)) == pytest.approx(60, rel=0.15)

    def test_batched_matches_sequential_exactly(self):
        # The lazy-reveal prefetch keeps a batched run's knowledge at
        # every sample identical to the unbatched run's, and the oracle
        # runs on its own RNG stream — so batching changes *nothing*
        # observable but the timing of query spending.
        seq = self._run(batch_size=1)
        bat = self._run(batch_size=32)
        assert bat.estimate == seq.estimate
        assert bat.samples == seq.samples
        assert bat.queries == seq.queries

    def test_adaptive_h_batches_bit_identically(self):
        # Adaptive h may only see *past* answers; the lazy-reveal split
        # keeps prefetched answers unrevealed until their sample runs,
        # so batched adaptive-h runs reproduce the sequential run
        # exactly instead of degrading to batch_size=1.
        db = make_db(60)
        config = LrAggConfig(adaptive_h=True)

        def run(bs):
            api = LrLbsInterface(db, k=5)
            agg = LrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(),
                           config=config, seed=2)
            return agg.run(MaxSamples(30), batch_size=bs)

        seq = run(1)
        bat = run(16)
        assert bat.estimate == seq.estimate
        assert bat.queries == seq.queries

    @pytest.mark.parametrize("cache_size", [0, 4, 65536])
    def test_batched_matches_sequential_whatever_the_cache(self, cache_size):
        # The lazy-reveal staging must not depend on the interface's
        # LRU cache: sample-bound batched runs reproduce sequential
        # ones even with the cache disabled or tiny.
        db = make_db(60)

        def run(bs):
            api = LrLbsInterface(
                db, k=5, engine=QueryEngineConfig(cache_size=cache_size)
            )
            agg = LrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(), seed=1)
            return agg.run(MaxSamples(10), batch_size=bs)

        seq, bat = run(1), run(8)
        assert bat.estimate == seq.estimate
        assert bat.queries == seq.queries

    def test_history_off_still_degrades_to_sequential(self):
        # The ablation variants retain nothing between samples; batch
        # prefetch stays disabled so their cost accounting is untouched.
        db = make_db(60)
        api = LrLbsInterface(db, k=5)
        agg = LrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(),
                       config=LrAggConfig(use_history=False), seed=2)
        assert agg._effective_batch_size(16) == 1


class TestLnrCountBands:
    """LNR-COUNT, 12 tuples (LNR cells are query-hungry): 0.3 band."""

    def _run(self, batch_size, seed=1):
        db = make_db(12, seed=9)
        api = LnrLbsInterface(db, k=4)
        agg = LnrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(), seed=seed)
        return agg.run(MaxSamples(25), batch_size=batch_size)

    def test_sequential_band(self):
        res = self._run(batch_size=1)
        assert res.samples == 25
        assert res.estimate == pytest.approx(12, rel=0.3)

    def test_batched_matches_sequential_exactly(self):
        # LNR consumes randomness only for sample points, and the uniform
        # sampler's batch draw replays the single-draw stream — so the
        # batched run must reproduce the sequential run bit for bit.
        seq = self._run(batch_size=1)
        bat = self._run(batch_size=8)
        assert bat.estimate == seq.estimate
        assert bat.samples == seq.samples
        assert bat.queries == seq.queries

    def test_band_across_seeds(self):
        estimates = [self._run(batch_size=8, seed=s).estimate for s in range(3)]
        assert float(np.mean(estimates)) == pytest.approx(12, rel=0.25)


class TestRunArgumentValidation:
    def test_bad_batch_size_rejected(self):
        db = make_db(20)
        api = LrLbsInterface(db, k=3)
        agg = LrLbsAgg(api, UniformSampler(BOX), AggregateQuery.count(), seed=0)
        with pytest.raises(ValueError):
            agg.run(MaxSamples(5), batch_size=0)

    def test_sample_batch_stays_in_region(self):
        sampler = UniformSampler(BOX)
        rng = np.random.default_rng(0)
        pts = sampler.sample_batch(rng, 100)
        assert len(pts) == 100
        assert all(BOX.contains(p) for p in pts)

    def test_uniform_sample_batch_replays_single_stream(self):
        sampler = UniformSampler(BOX)
        batch = sampler.sample_batch(np.random.default_rng(7), 20)
        rng = np.random.default_rng(7)
        singles = [sampler.sample(rng) for _ in range(20)]
        assert batch == singles

    def test_census_sample_batch_replays_single_stream(self):
        # The bit-identity guarantee covers census-weighted runs too:
        # the weighted batch draw must consume the stream exactly like
        # single draws.
        from repro.datasets import PopulationGrid
        from repro.sampling import GridWeightedSampler

        weights = np.arange(1.0, 13.0).reshape(4, 3)
        sampler = GridWeightedSampler(PopulationGrid(BOX, weights))
        batch = sampler.sample_batch(np.random.default_rng(7), 20)
        rng = np.random.default_rng(7)
        singles = [sampler.sample(rng) for _ in range(20)]
        assert batch == singles

    def test_census_batched_run_matches_sequential(self):
        # End to end: a census-weighted sample-bound batched run is
        # bit-identical to its sequential twin.
        from repro.datasets import PopulationGrid
        from repro.sampling import GridWeightedSampler

        db = make_db(60)
        weights = 1.0 + np.random.default_rng(5).random((6, 5))
        sampler = GridWeightedSampler(PopulationGrid(BOX, weights))

        def run(bs):
            api = LrLbsInterface(db, k=5)
            agg = LrLbsAgg(api, sampler, AggregateQuery.count(), seed=3)
            return agg.run(MaxSamples(12), batch_size=bs)

        seq, bat = run(1), run(8)
        assert bat.estimate == seq.estimate
        assert bat.queries == seq.queries
