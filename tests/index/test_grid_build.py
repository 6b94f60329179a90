"""The grid build's linear passes lay out exactly the arrays of the
argsort + searchsorted build they replaced (``reference_grid``)."""

import numpy as np
import pytest

from repro.index import GridIndex, ShardedGridIndex
from repro.index.grid import _cell_order
from reference_grid import reference_grid


def clustered(rng, n):
    centres = rng.uniform(0.0, 1e5, (8, 2))
    return centres[rng.integers(0, 8, n)] + rng.normal(0.0, 300.0, (n, 2))


INPUTS = {
    "uniform": lambda rng: rng.uniform(0.0, 1e5, (5_000, 2)),
    "clustered": lambda rng: clustered(rng, 20_000),
    # Few distinct points, many copies of each.
    "duplicates": lambda rng: rng.uniform(0.0, 10.0, (40, 2))[rng.integers(0, 40, 3_000)],
    # Degenerate extents: one column, one row, one point.
    "same_x": lambda rng: np.column_stack([np.full(2_000, 7.5), rng.uniform(0, 50, 2_000)]),
    "same_y": lambda rng: np.column_stack([rng.uniform(0, 50, 2_000), np.full(2_000, -3.0)]),
    "collinear": lambda rng: np.outer(rng.uniform(0, 1e4, 2_000), [1.0, 2.0]),
    "single_point": lambda rng: np.array([[12.0, 34.0]]),
    # g = 301 > 256: the high byte of each 16-bit pass orders cells.
    "wide": lambda rng: rng.uniform(0.0, 1e5, (45_400, 2)),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("shuffled_ids", [False, True])
def test_build_matches_reference(name, shuffled_ids):
    rng = np.random.default_rng(sorted(INPUTS).index(name))
    xy = INPUTS[name](rng)
    items = rng.permutation(len(xy)) if shuffled_ids else np.arange(len(xy))
    want = reference_grid(xy, items)
    if name == "wide":
        assert want["_g"] > 256
    got = GridIndex.from_arrays(xy, items)
    assert got._g == want["_g"]
    for attr in ("_xs", "_ys", "_rank", "_starts", "_prefix"):
        value = getattr(got, attr)
        assert value.dtype == want[attr].dtype, attr
        assert np.array_equal(value, want[attr]), attr
    # The ids keep their values and element types (Python int for int64
    # ids), as a list and as its object array, in the sharded index too.
    for index in (got, ShardedGridIndex.from_arrays(xy, items)):
        assert index._items == want["_items"]
        assert index._items_arr.dtype == want["_items_arr"].dtype
        assert index._items_arr.tolist() == want["_items_arr"].tolist()
        for ids in (index._items, index._items_arr):
            assert {type(v) for v in ids} == {int}


@pytest.mark.parametrize("g", [1 << 16, (1 << 16) + 1, 100_000])
def test_cell_order_is_a_stable_row_major_sort(g):
    # Synthetic cell coordinates up to g - 1, above 65,535 once g is
    # wider than 16 bits, with many ties; no grid of that size is built.
    rng = np.random.default_rng(g)
    hi = rng.integers(0, g, 40)
    cx = hi[rng.integers(0, 40, 5_000)].astype(np.intp)
    cy = hi[rng.integers(0, 40, 5_000)].astype(np.intp)
    cx[:3], cy[:3] = g - 1, g - 1
    want = np.lexsort((np.arange(len(cx)), cx, cy))
    assert np.array_equal(_cell_order(cx, cy, g), want)
