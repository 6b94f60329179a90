"""Spatial index substrate: pluggable backends behind one protocol.

Four interchangeable backends implement :class:`SpatialIndex`:

* :class:`KdTree` — pure-Python best-first search; good single-query
  latency, no vectorized batch kernel;
* :class:`GridIndex` — NumPy uniform grid; the batched workhorse;
* :class:`ShardedGridIndex` — a two-level grid of lazy ``GridIndex``
  tiles; per-tile grids adapt to local density and only touched tiles
  get built (never picked by ``"auto"``: the grid is faster);
* :class:`BruteForceIndex` — the O(n) oracle; its batch path is a fully
  vectorized distance matrix, unbeatable on tiny databases.

:func:`make_index` picks a backend by name or, with ``"auto"``, by
database size.
"""

from .base import QueryEngineConfig, SpatialIndex, make_index, make_index_arrays
from .brute import BruteForceIndex
from .grid import GridIndex
from .kdtree import KdTree
from .sharded import ShardedGridIndex

__all__ = [
    "SpatialIndex",
    "QueryEngineConfig",
    "KdTree",
    "GridIndex",
    "ShardedGridIndex",
    "BruteForceIndex",
    "make_index",
    "make_index_arrays",
]
