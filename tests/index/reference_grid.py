"""The grid index's build as it stood before its linear passes.

``reference_grid(xy, items, target_per_cell)`` lays out the arrays
``GridIndex.from_arrays`` builds: the id sort, then one stable argsort
of the row-major cell ids, ``_starts`` by ``searchsorted`` over
``g * g + 1`` probes and the 2-D prefix sums of ``np.diff(_starts)``;
the ids as a list and as an object array filled from that list.
The tests require the library's build to produce the same arrays.
"""

from __future__ import annotations

import math

import numpy as np


def reference_grid(xy: np.ndarray, items, target_per_cell: float = 0.5) -> dict:
    """The laid-out arrays, by attribute name."""
    items_arr = np.asarray(items)
    ids = np.argsort(items_arr, kind="stable")
    xs = np.ascontiguousarray(xy[ids, 0], dtype=np.float64)
    ys = np.ascontiguousarray(xy[ids, 1], dtype=np.float64)
    n = len(items_arr)
    g = max(1, int(math.sqrt(n / max(target_per_cell, 0.05))))
    x0 = float(xs.min())
    y0 = float(ys.min())
    cw = (float(xs.max()) - x0) / g
    ch = (float(ys.max()) - y0) / g
    cw = cw if cw > 1e-100 else 1.0
    ch = ch if ch > 1e-100 else 1.0
    cx = np.clip((xs - x0) / cw, 0.0, g - 1.0).astype(np.intp)
    cy = np.clip((ys - y0) / ch, 0.0, g - 1.0).astype(np.intp)
    cell_ids = cy * g + cx
    order = np.argsort(cell_ids, kind="stable")
    starts = np.searchsorted(cell_ids[order], np.arange(g * g + 1))
    per_cell = np.diff(starts).reshape(g, g)
    prefix = np.zeros((g + 1, g + 1), dtype=np.intp)
    np.cumsum(np.cumsum(per_cell, axis=0), axis=1, out=prefix[1:, 1:])
    items_sorted = items_arr[ids].tolist()
    # The object mirror of the id-sorted items, filled from their list.
    items_mirror = np.empty(n, dtype=object)
    items_mirror[:] = items_sorted
    return {
        "_g": g,
        "_xs": xs[order],
        "_ys": ys[order],
        "_rank": order.astype(np.intp),
        "_starts": starts,
        "_prefix": prefix,
        "_items": items_sorted,
        "_items_arr": items_mirror,
    }
