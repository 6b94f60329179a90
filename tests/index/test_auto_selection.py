"""Regression tests for the measured "auto" backend crossover.

The crossover was re-tuned on the ``repro.worlds`` registry scenarios
(≥100k-point Zipf-hotspot worlds; see the measurement table in
``QueryEngineConfig.auto_brute_max``): scalar kNN ties at n≈96 and the
grid wins from n=128 up, so ``auto`` hands tiny (sub-crossover)
databases to the vectorized brute scan and everything else to the grid.
These tests pin the *selection behaviour*, not the timings — a timing
re-run belongs in ``benchmarks/bench_scaling.py``.
"""

import numpy as np
import pytest

from repro.index import (
    BruteForceIndex,
    GridIndex,
    QueryEngineConfig,
    ShardedGridIndex,
    make_index,
)
from repro.index.base import _resolve_backend

#: The measured scalar-path crossover (brute wins below, grid above).
MEASURED_CROSSOVER = 96


def _pts(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(float(x), float(y), i) for i, (x, y) in enumerate(rng.random((n, 2)) * 100)]


class TestAutoSelection:
    def test_default_matches_measured_crossover(self):
        assert QueryEngineConfig().auto_brute_max == MEASURED_CROSSOVER
        import inspect

        sig = inspect.signature(make_index)
        assert sig.parameters["auto_brute_max"].default == MEASURED_CROSSOVER

    @pytest.mark.parametrize("n", [1, 16, MEASURED_CROSSOVER])
    def test_auto_picks_brute_up_to_crossover(self, n):
        assert isinstance(make_index(_pts(n), "auto"), BruteForceIndex)

    @pytest.mark.parametrize("n", [MEASURED_CROSSOVER + 1, 512, 4096])
    def test_auto_picks_grid_past_crossover(self, n):
        assert isinstance(make_index(_pts(n), "auto"), GridIndex)

    def test_auto_honours_custom_threshold(self):
        assert isinstance(make_index(_pts(200), "auto", auto_brute_max=500),
                          BruteForceIndex)
        assert isinstance(make_index(_pts(20), "auto", auto_brute_max=10),
                          GridIndex)

    def test_auto_never_picks_sharded_by_default(self):
        # The measured reality (see QueryEngineConfig.index_backend):
        # the monolithic grid wins raw batch throughput at every size
        # measured, so sharding is an explicit choice, never an auto
        # pick — at any size.
        for n in (4096, 10**6, 10**9):
            assert _resolve_backend("auto", n, MEASURED_CROSSOVER) is GridIndex
        assert isinstance(make_index(_pts(4096), "auto"), GridIndex)
        assert isinstance(make_index(_pts(4096), "sharded"), ShardedGridIndex)

    def test_interface_builds_sharded_only_when_asked(self):
        from repro.geometry import Point, Rect
        from repro.lbs import LbsTuple, LrLbsInterface, SpatialDatabase

        db = SpatialDatabase(
            [LbsTuple(i, Point(float(x), float(y)), {})
             for x, y, i in _pts(4096)],
            Rect(0, 0, 100, 100),
        )
        assert isinstance(LrLbsInterface(db, k=3)._index, GridIndex)
        api = LrLbsInterface(
            db, k=3, engine=QueryEngineConfig(index_backend="sharded"))
        assert isinstance(api._index, ShardedGridIndex)

    def test_interface_threads_config_threshold(self):
        # The engine config's crossover reaches make_index through the
        # interface, so re-tuning the default re-tunes every service.
        from repro.geometry import Point, Rect
        from repro.lbs import LbsTuple, LrLbsInterface, SpatialDatabase

        db = SpatialDatabase(
            [LbsTuple(i, Point(float(x), float(y)), {})
             for x, y, i in _pts(60)],
            Rect(0, 0, 100, 100),
        )
        api = LrLbsInterface(db, k=3,
                             engine=QueryEngineConfig(auto_brute_max=10))
        assert isinstance(api._index, GridIndex)
        api = LrLbsInterface(db, k=3)
        assert isinstance(api._index, BruteForceIndex)
