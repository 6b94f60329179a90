"""The grid batch kernel's last phase on tie-heavy inputs.

Before its padded partition, ``GridIndex._knn_chunk`` keeps only the
regathered candidates within each query's phase-2 k-th bound.  The true
top k, and every tie at the k-th distance, lie within that bound, so the
batch answers must still equal ``BruteForceIndex``'s bit for bit
(distances compared by ``.hex()``, ties broken by id).  The inputs are
integer lattices with duplicate points and ids shuffled against storage
order, queried at lattice and half-lattice points: there many points sit
exactly at the k-th distance, and the phase-2 bound often equals it.
Every query must reach the padded kernel, not the per-query fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.grid as grid_module
from repro.index import BruteForceIndex, GridIndex
from repro.obs import registry as obs


def exact(answer):
    return [(d.hex(), item) for d, item in answer]


def batch_run(grid, queries, k, chunk):
    """``knn_batch`` in chunks of ``chunk`` queries, with the phase-2
    bound of every query and the registry's path split."""
    grid._CHUNK = chunk
    bounds = []
    real = grid_module._group_kth

    def spy(*args):
        out = real(*args)
        bounds.append(out)
        return out

    grid_module._group_kth = spy
    try:
        with obs.collecting() as reg:
            answers = grid.knn_batch(queries, k)
    finally:
        grid_module._group_kth = real
    split = {key: reg.total(f"index_batch_{key}_total") for key in ("chunked", "fallback")}
    return answers, np.concatenate(bounds), split


def true_kth(xy, q, kk):
    """The true k-th squared distance from ``q``, and whether a tie at
    it straddles rank ``kk``."""
    dx = xy[:, 0] - q[0]
    dy = xy[:, 1] - q[1]
    d2 = np.sort(dx * dx + dy * dy)
    kth2 = d2[kk - 1]
    return kth2, kk < len(d2) and d2[kk] == kth2


lattice = st.lists(
    st.tuples(*[st.integers(0, 6).map(float)] * 2), min_size=1, max_size=60
)
# A few distinct float locations, each repeated up to five times.
duplicates = st.lists(
    st.tuples(*[st.floats(0.0, 6.0, allow_nan=False)] * 2), min_size=1, max_size=12
).flatmap(
    lambda locs: st.lists(st.sampled_from(locs), min_size=1, max_size=60)
)
half = st.integers(-2, 14).map(lambda v: v / 2.0)


@given(
    st.one_of(lattice, duplicates),
    st.lists(st.tuples(half, half), min_size=1, max_size=30),
    st.integers(1, 9),
    st.integers(1, 8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_tie_heavy_batches_match_brute_force(raw, queries, k, chunk, rnd):
    ids = list(range(len(raw)))
    rnd.shuffle(ids)
    pts = [(x, y, i) for (x, y), i in zip(raw, ids)]
    oracle = BruteForceIndex(pts)
    grid = GridIndex(pts)
    answers, _bounds, split = batch_run(grid, queries, k, chunk)
    assert split == {"chunked": len(queries), "fallback": 0}
    for (x, y), answer in zip(queries, answers):
        assert exact(answer) == exact(oracle.knn(x, y, k)), (x, y, k)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_ties_at_the_phase2_bound_and_the_kth_distance(k):
    # Every point of a 7x7 integer lattice twice, ids shuffled, queried
    # at every lattice and half-lattice point.
    rng = np.random.default_rng(k)
    side = np.arange(7.0)
    xy = np.repeat(np.stack(np.meshgrid(side, side), -1).reshape(-1, 2), 2, axis=0)
    ids = rng.permutation(len(xy))
    grid = GridIndex.from_arrays(xy, ids)
    oracle = BruteForceIndex.from_arrays(xy, ids)
    half_side = np.arange(-1.0, 7.5, 0.5)
    queries = [(float(x), float(y)) for x in half_side for y in half_side]
    answers, bounds, split = batch_run(grid, queries, k, 64)
    assert split == {"chunked": len(queries), "fallback": 0}
    at_bound = 0
    for (x, y), answer, bound in zip(queries, answers, bounds):
        assert exact(answer) == exact(oracle.knn(x, y, k)), (x, y, k)
        kth2, straddles = true_kth(xy, (x, y), k)
        at_bound += bool(straddles and bound == kth2)
    # The inputs do what they are for: tied points sit exactly at the
    # phase-2 bound, which is the true k-th distance.
    assert at_bound >= len(queries) // 4
