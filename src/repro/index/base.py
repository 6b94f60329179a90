"""The :class:`SpatialIndex` protocol and the query-engine configuration.

Every spatial index in :mod:`repro.index` answers the same four
questions — single-point kNN, single-point radius search, and their
batched counterparts — under one shared contract:

* query coordinates are finite: the simulated services reject a NaN or
  infinite query point before it reaches an index, so no backend
  defines an answer for one;
* distances are Euclidean with one exact realization: candidates are
  *ordered* by the squared distance ``dx*dx + dy*dy`` and the returned
  value is ``sqrt`` of it.  Multiplication, addition, and square root
  are IEEE-754-exact / correctly rounded, identical between NumPy
  arrays and Python scalars — which is what makes every backend, looped
  or batched, bit-identical.  (Do **not** substitute ``math.hypot``: it
  can differ from ``sqrt(dx*dx + dy*dy)`` in the last ulp.)
* answers are sorted by ``(distance, item)`` — ties in distance are
  broken by item id, making the simulated service deterministic (the
  paper's "general position" assumption made real);
* ``within_radius``/``range_batch_ids`` are inclusive (``sqrt(d2) <= radius``).

Backends are interchangeable: :class:`~repro.index.kdtree.KdTree`
(pure-Python best-first search, great single-query latency on small
databases), :class:`~repro.index.grid.GridIndex` (NumPy uniform grid,
built for vectorized batches),
:class:`~repro.index.sharded.ShardedGridIndex` (a two-level grid of
lazily built grid tiles), and
:class:`~repro.index.brute.BruteForceIndex` (the O(n) oracle, whose
batched form is a fully vectorized distance matrix).  The equivalence
test suite (`tests/index/test_index_equivalence.py`) holds all four to
the contract on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..obs.tracing import span as _span

__all__ = [
    "SpatialIndex",
    "QueryEngineConfig",
    "make_index",
    "make_index_arrays",
]

#: One kNN / radius answer: ``(distance, item)``.
Neighbor = tuple[float, Hashable]


@runtime_checkable
class SpatialIndex(Protocol):
    """What the LBS simulator requires of a spatial index backend."""

    def __len__(self) -> int:
        """Number of indexed points."""

    def knn(self, x: float, y: float, k: int) -> list[Neighbor]:
        """The ``k`` nearest items as ``(distance, item)``, sorted by
        ``(distance, item)``."""

    def within_radius(self, x: float, y: float, radius: float) -> list[Neighbor]:
        """All items with ``distance <= radius``, sorted by
        ``(distance, item)``."""

    def knn_batch(
        self, points: Sequence[tuple[float, float]], k: int
    ) -> list[list[Neighbor]]:
        """Per-point kNN answers, identical to ``[knn(x, y, k) ...]``."""

    def range_batch_ids(self, points: Sequence[tuple[float, float]], radius: float):
        """Per-point radius answers in CSR form: ``(counts, items)``
        NumPy arrays — each point's ``within_radius`` item ids
        concatenated in answer order, with no ``(distance, item)``
        tuples materialized.  The candidate feed for vectorized ranking
        kernels that re-score in bulk."""


@dataclass(frozen=True)
class QueryEngineConfig:
    """Knobs of the batched query engine behind a simulated LBS interface.

    Attributes
    ----------
    index_backend:
        ``"auto"`` | ``"kdtree"`` | ``"grid"`` | ``"brute"`` |
        ``"sharded"``.  Auto picks by database size: brute-force
        vectorized scans win on tiny databases (the candidate-gathering
        overhead of smarter indexes dominates) and the uniform grid wins
        above that.  Auto never picks the tile-sharded two-level grid:
        measured on the ``repro.worlds`` registry (batch-512 kNN, k=5,
        uniform queries, best-of-5 interleaved rounds), the monolithic
        grid answered ~124k vs ~103k q/s on ``wechat-like-1m`` at 1M,
        ~132k vs ~117k on ``paper/clustered`` at 1M and ~133k vs ~99k
        at 4M.  What sharding buys instead is *lazy* structure — its
        shell build is ~2.7x cheaper than a full grid build at 4M and
        each tile's grid is built on first touch — so ``"sharded"`` is
        an explicit choice for build-dominated runs on huge worlds.
    auto_brute_max:
        Largest database size for which ``"auto"`` picks brute force.
        The default is the crossover measured on the ``repro.worlds``
        registry scenarios (points and queries drawn from the
        ``wechat-like-1m`` Zipf-hotspot model; uniform queries agree):
        single-query kNN throughput is brute 212k/122k/58k q/s vs grid
        ~33-40k q/s at n=16/32/64, ties at n≈96 (38.3k vs 38.0k), and
        grid wins from n=128 up (35.6k vs 27.2k, widening with n).  The
        batched kernel prefers the grid at *every* size (~1.8x even at
        n=16), but at sub-crossover sizes both clear 150k q/s, so the
        scalar path — where the gap reaches 6x — decides the default.
    cache_size:
        Capacity of the per-interface LRU query-answer cache (number of
        distinct snapped query locations).  ``0`` disables caching.
    snap_resolution:
        Cache keys are query coordinates snapped to this grid pitch.
        ``None`` derives an EPS-scale pitch from the service region —
        fine enough that distinct random queries never collide, coarse
        enough that float noise on a revisited location still hits.
    """

    index_backend: str = "auto"
    auto_brute_max: int = 96
    cache_size: int = 65536
    snap_resolution: Optional[float] = None

    def __post_init__(self) -> None:
        if self.index_backend != "auto" and self.index_backend not in _backends():
            raise ValueError(
                f"unknown index backend {self.index_backend!r}; "
                f"expected one of {('auto', *_backends())}"
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.snap_resolution is not None and self.snap_resolution <= 0.0:
            raise ValueError("snap_resolution must be positive")


def _backends() -> dict:
    """The backend registry — the single source of truth shared by
    config validation and :func:`make_index` dispatch.  Imported lazily:
    the backend modules are siblings, and this module is imported first
    by the package __init__."""
    from .brute import BruteForceIndex
    from .grid import GridIndex
    from .kdtree import KdTree
    from .sharded import ShardedGridIndex

    return {
        "kdtree": KdTree,
        "grid": GridIndex,
        "brute": BruteForceIndex,
        "sharded": ShardedGridIndex,
    }


def _resolve_backend(backend: str, n: int, auto_brute_max: int) -> type:
    """The one backend-selection rule shared by both constructors:
    ``"auto"`` picks brute force up to ``auto_brute_max`` points and the
    uniform grid above that."""
    registry = _backends()
    if backend == "auto":
        backend = "brute" if n <= auto_brute_max else "grid"
    try:
        return registry[backend]
    except KeyError:
        raise ValueError(
            f"unknown index backend {backend!r}; expected one of "
            f"{('auto', *registry)}"
        ) from None


def make_index(
    points: Sequence[tuple[float, float, Hashable]],
    backend: str = "auto",
    *,
    auto_brute_max: int = 96,
) -> SpatialIndex:
    """Build a spatial index over ``points``.

    ``backend`` is ``"kdtree"``, ``"grid"``, ``"brute"``, ``"sharded"``,
    or ``"auto"`` (brute force up to ``auto_brute_max`` points, the
    uniform grid otherwise — the crossover measured on the worlds
    registry scenarios; see :class:`QueryEngineConfig`).
    All backends return identical answers; only throughput differs.
    """
    pts = points if isinstance(points, list) else list(points)
    cls = _resolve_backend(backend, len(pts), auto_brute_max)
    with _span("index_build", backend=cls.__name__):
        return cls(pts)


def make_index_arrays(
    xy: np.ndarray,
    items: Sequence[Hashable],
    backend: str = "auto",
    *,
    auto_brute_max: int = 96,
) -> SpatialIndex:
    """Build a spatial index straight from coordinate arrays.

    The array-native sibling of :func:`make_index`: ``xy`` is an
    ``(N, 2)`` float64 array and ``items`` the per-row ids (an int64
    array or any sequence).  Backends with a vectorized ingest
    (:class:`~repro.index.grid.GridIndex`,
    :class:`~repro.index.brute.BruteForceIndex`) consume the arrays
    without materializing the ``[(x, y, item), ...]`` triple list; the
    rest fall back to it.  Answers are bit-identical to the triple-list
    construction either way.
    """
    xy = np.ascontiguousarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("xy must be an (N, 2) coordinate array")
    cls = _resolve_backend(backend, len(xy), auto_brute_max)
    with _span("index_build", backend=cls.__name__):
        from_arrays = getattr(cls, "from_arrays", None)
        if from_arrays is not None:
            return from_arrays(xy, items)
        items_list = items.tolist() if isinstance(items, np.ndarray) else list(items)
        return cls(list(zip(xy[:, 0].tolist(), xy[:, 1].tolist(), items_list)))
