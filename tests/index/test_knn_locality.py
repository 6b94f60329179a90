"""The scalar grid kNN on query sequences shaped like Algorithm 7's.

``GridIndex.knn`` tries the previous answer's final cell block first,
its coordinates and id ranks stored with it, and ranks from the
distances it computes over that block.  Every answer must still equal
``BruteForceIndex``'s bit for bit
(distances compared by ``.hex()``) along bisection walks that converge
to about 1e-9 of the extent, with ``k`` changing between calls, over
duplicate, tied, collinear and single-point inputs, with queries outside
the bounding box and jumps between far-apart points; through a
3x3-tile ``ShardedGridIndex`` too, whose tiles are grid indexes; and a
reuse hit must also hold after an interleaved ``knn_batch`` call and
after a miss that had to widen its block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BruteForceIndex, GridIndex, ShardedGridIndex

EXTENT = 100.0

uniform = st.lists(
    st.tuples(*[st.floats(0.0, EXTENT, allow_nan=False)] * 2), min_size=1, max_size=80
)
# Small integer coordinates: many duplicate points, and dyadic queries
# at exactly equal distances from several of them.
lattice = st.lists(
    st.tuples(*[st.integers(0, 6).map(float)] * 2), min_size=1, max_size=60
)
collinear = st.lists(
    st.floats(0.0, EXTENT, allow_nan=False).map(lambda t: (t, 2.0 * t)),
    min_size=1, max_size=60,
)
single = st.tuples(*[st.floats(0.0, EXTENT, allow_nan=False)] * 2).map(lambda p: [p])
point_sets = st.one_of(uniform, lattice, collinear, single)

# Walk ends reach past the points' bounding box on every side.
far = st.floats(-EXTENT, 2.0 * EXTENT, allow_nan=False)
walk = st.tuples(
    st.tuples(far, far), st.tuples(far, far), st.lists(st.booleans(), min_size=35, max_size=35)
)


def bisection(start, end, sides):
    """Algorithm 7's midpoints: the bracket halves until it is about
    1e-9 of the extent; ``sides`` says which half each step keeps."""
    (ax, ay), (bx, by) = start, end
    for keep_upper in sides:
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        yield mx, my
        if keep_upper:
            ax, ay = mx, my
        else:
            bx, by = mx, my
        if max(abs(bx - ax), abs(by - ay)) < 1e-9 * EXTENT:
            return


def exact(answer):
    return [(d.hex(), item) for d, item in answer]


def stored_size(grid):
    """Points in the stored block: the length of its id-rank array."""
    return 0 if grid._last is None else grid._last[6].size


@given(point_sets, st.lists(walk, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_bisection_walks_match_brute_force(raw, walks):
    pts = [(x, y, i) for i, (x, y) in enumerate(raw)]
    oracle = BruteForceIndex(pts)
    grid = GridIndex(pts)
    sharded = ShardedGridIndex(pts, tiles_per_side=3)
    calls = 0
    # Consecutive walks start far from where the last one ended.
    for start, end, sides in walks:
        for x, y in [start, end, *bisection(start, end, sides)]:
            # k changes between calls: 5, 1, 3, then more points than
            # the stored block holds.
            k = (5, 1, 3, stored_size(grid) + 1)[calls % 4]
            calls += 1
            want = exact(oracle.knn(x, y, k))
            assert exact(grid.knn(x, y, k)) == want, (x, y, k)
            assert exact(sharded.knn(x, y, k)) == want, (x, y, k)


@given(point_sets, st.one_of(st.none(), point_sets), st.tuples(far, far), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_rebuild_in_place_drops_the_stored_block(before, after, q, k):
    grid = GridIndex([(x, y, i) for i, (x, y) in enumerate(before)])
    qx, qy = q
    grid.knn(qx, qy, k)
    old = grid._last
    # Other points, or the same coordinates under other ids.
    pts = sorted(
        ((x, y, -i) for i, (x, y) in enumerate(after or before)), key=lambda p: p[2]
    )
    grid._build(
        np.array([p[0] for p in pts]), np.array([p[1] for p in pts]),
        [p[2] for p in pts], 0.5,
    )
    assert grid._last is None
    oracle = BruteForceIndex(pts)
    for x, y in ((qx, qy), (qx + 1e-12 * EXTENT, qy)):
        assert exact(grid.knn(x, y, k)) == exact(oracle.knn(x, y, k))
        assert grid._last is not old


def world(shape, seed):
    """3,000 points, ids shuffled, and the generator to query them with."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        xy = rng.uniform(0.0, EXTENT, (3_000, 2))
    elif shape == "clustered":
        centres = rng.uniform(0.0, EXTENT, (5, 2))
        xy = centres[rng.integers(0, 5, 3_000)] + rng.normal(0.0, 0.5, (3_000, 2))
    else:
        xy = rng.uniform(0.0, EXTENT, (60, 2))[rng.integers(0, 60, 3_000)]
    ids = rng.permutation(len(xy))
    return rng, GridIndex.from_arrays(xy, ids), BruteForceIndex.from_arrays(xy, ids)


@pytest.mark.parametrize("shape", ["uniform", "clustered", "duplicates"])
@pytest.mark.parametrize("k", [1, 5, 40])
def test_a_query_a_hair_away_reuses_the_stored_block(shape, k):
    rng, grid, oracle = world(shape, k)
    for x, y in rng.uniform(0.0, EXTENT, (50, 2)):
        grid.knn(x, y, k)
        stored = grid._last
        hx, hy = x + 1e-9 * EXTENT, y - 1e-9 * EXTENT
        assert exact(grid.knn(hx, hy, k)) == exact(oracle.knn(hx, hy, k))
        assert grid._last is stored


@pytest.mark.parametrize("k", [1, 5, 40])
def test_a_reuse_hit_after_an_interleaved_batch(k):
    # Uniform points: no batch query exceeds the kernel's cap, so none
    # takes the scalar fallback, which would store its own block.
    rng, grid, oracle = world("uniform", k)
    for x, y in rng.uniform(0.0, EXTENT, (30, 2)):
        grid.knn(x, y, k)
        stored = grid._last
        batch = [tuple(p) for p in rng.uniform(0.0, EXTENT, (20, 2))]
        for (bx, by), answer in zip(batch, grid.knn_batch(batch, k)):
            assert exact(answer) == exact(oracle.knn(bx, by, k))
        hx, hy = x + 1e-9 * EXTENT, y - 1e-9 * EXTENT
        assert exact(grid.knn(hx, hy, k)) == exact(oracle.knn(hx, hy, k))
        assert grid._last is stored


@pytest.mark.parametrize("k", [1, 5, 40])
def test_a_reuse_hit_after_a_miss_that_widened(k):
    rng, grid, oracle = world("clustered", k)
    widened = []
    real = grid._kth_bound

    def spy(*args):
        out = real(*args)
        widened.append(out[2] is not None)
        return out

    grid._kth_bound = spy
    hits = 0
    for x, y in rng.uniform(0.0, EXTENT, (200, 2)):
        grid._last = None
        widened.clear()
        grid.knn(x, y, k)
        if widened != [True]:
            continue  # the miss's first block already covered its disk
        stored = grid._last
        hx, hy = x + 1e-9 * EXTENT, y - 1e-9 * EXTENT
        assert exact(grid.knn(hx, hy, k)) == exact(oracle.knn(hx, hy, k))
        assert grid._last is stored
        hits += 1
    assert hits >= 10
