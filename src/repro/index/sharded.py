"""A tile-sharded spatial index: a grid of independent ``GridIndex`` tiles.

The point cloud is partitioned into a ``T × T`` grid of *tiles* over its
bounding box, and each non-empty tile owns a private
:class:`~repro.index.grid.GridIndex` over just its points — a *two-level*
grid.  The outer level routes queries; the inner level answers them.
Two properties fall out of the split:

* **Locality.**  A tile's inner grid adapts to *its own* bounding box.
  On clustered worlds a tile that holds one tight cluster gets cells
  sized to the cluster's extent, not the whole region's — candidate
  sets around dense clusters shrink by orders of magnitude, which is
  exactly the heavy-tail case where the monolithic grid's batch kernel
  falls back to per-query search (see ``GridIndex.counters()``).
* **Laziness.**  Tiles are built lazily, one frozen ``GridIndex``
  per tile over a row-slice of the columnar store.  A run that only
  ever queries a corner of the world only pays for that corner's tiles.

Routing: a kNN query lands in its *home tile* (the tile whose cell
contains it).  The home tile's own top-k gives an upper bound on the
true k-th distance; when that bound is smaller than the distance to the
nearest tile boundary, no other tile can contribute and the home
answer is final (the **settled** fast path — the overwhelming majority
of queries, since tiles are hundreds of inner cells wide).  Otherwise
the query *escalates*: every tile overlapping the bound disk reports
its in-disk points and the coordinator merges them.

Exactness: per-tile answers are merged on freshly computed **squared**
distances with global id-rank tie-breaks — never on the returned
``sqrt`` values, where two distinct squared distances can collapse onto
one rounded square root and scramble cross-tile ties.  Tile items are
the global id ranks (ascending within each tile), so tile-internal tie
order *is* global tie order and every answer is bit-identical to
:class:`~repro.index.brute.BruteForceIndex` — the equivalence suite
holds this backend to the same contract as the other three.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from ..obs import registry as _obs
from .grid import GridIndex, _SLACK, _id_lists

__all__ = ["ShardedGridIndex", "auto_tiles_per_side"]

# Shared label dicts for the registry hot path (never mutated).
_SHARDED = {"backend": "sharded"}
_SHARDED_SCALAR = {"backend": "sharded", "mode": "scalar"}
_SHARDED_BATCH = {"backend": "sharded", "mode": "batch"}

#: Auto tile-count target: points per tile.  Big enough that the
#: settled fast path dominates (escalations scale with tile perimeter
#: over tile area), small enough that a tile is a cache-friendly build.
_TARGET_PER_TILE = 65536

#: Cap on tiles per side (the outer routing grid stays O(T^2) metadata).
_MAX_TILES_PER_SIDE = 32


def auto_tiles_per_side(n: int) -> int:
    """The default tile-grid side for an ``n``-point world — the rule
    :class:`ShardedGridIndex` applies when ``tiles_per_side`` is None."""
    if n <= 0:
        return 1
    return max(1, min(_MAX_TILES_PER_SIDE, round(math.sqrt(n / _TARGET_PER_TILE))))


def _group_kth(d: np.ndarray, qid: np.ndarray, m: int, kk: int) -> np.ndarray:
    """Per-group ``kk``-th smallest of ``d`` (groups = values of ``qid``,
    each holding at least ``kk`` entries) via one padded partition —
    the same kernel as ``GridIndex._group_kth``."""
    counts = np.bincount(qid, minlength=m)
    pos = np.arange(d.size) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.full((m, int(counts.max())), np.inf)
    padded[qid, pos] = d
    return np.partition(padded, kk - 1, axis=1)[:, kk - 1]


class ShardedGridIndex:
    """Two-level grid: ``T × T`` routing tiles, each a lazy ``GridIndex``."""

    def __init__(
        self,
        points: Sequence[tuple[float, float, Hashable]],
        tiles_per_side: int | None = None,
        target_per_cell: float = 0.5,
    ):
        pts = [(float(x), float(y), item) for x, y, item in points]
        try:
            pts.sort(key=lambda p: p[2])
        except TypeError:
            pass  # unorderable ids: fall back to insertion order
        self._build(
            np.array([p[0] for p in pts], dtype=np.float64),
            np.array([p[1] for p in pts], dtype=np.float64),
            [item for _x, _y, item in pts],
            tiles_per_side,
            target_per_cell,
        )

    @classmethod
    def from_arrays(
        cls,
        xy: np.ndarray,
        items: Sequence[Hashable],
        tiles_per_side: int | None = None,
        target_per_cell: float = 0.5,
    ) -> "ShardedGridIndex":
        """Array-native construction over the columnar store's rows.

        Same ingest discipline as ``GridIndex.from_arrays``: one stable
        argsort by item id, coordinates gathered by that order.  Works
        directly over frozen (``writeable=False``) mmapped views — the
        gather copies, the source is never written.
        """
        items_arr = np.asarray(items)
        try:
            order = np.argsort(items_arr, kind="stable")
        except TypeError:
            order = np.arange(len(items_arr))  # unorderable ids
        self = cls.__new__(cls)
        self._build(
            np.ascontiguousarray(xy[order, 0], dtype=np.float64),
            np.ascontiguousarray(xy[order, 1], dtype=np.float64),
            items_arr[order].astype(object),
            tiles_per_side,
            target_per_cell,
        )
        return self

    def _build(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        items,
        tiles_per_side: int | None,
        target_per_cell: float,
    ) -> None:
        """Tile binning over id-sorted coordinate arrays and items (see
        ``grid._id_lists``; tiles stay lazy)."""
        self._items, self._items_arr = _id_lists(items)
        n = len(items)
        self._size = n
        self._target_per_cell = target_per_cell
        # Counter lifecycle: instance-lifetime, like GridIndex — internal
        # rebuilds preserve them; only reset_stats() zeroes.
        if getattr(self, "_stats", None) is None:
            self._stats = {
                "batch_queries": 0,
                "batch_settled": 0,
                "batch_escalated": 0,
                "batch_scalar": 0,
            }
        if tiles_per_side is None:
            tiles_per_side = auto_tiles_per_side(n)
        if tiles_per_side < 1:
            raise ValueError("tiles_per_side must be >= 1")
        t = int(tiles_per_side)
        self._t = t
        self._tiles: list = [None] * (t * t)
        self._tiles_built = 0
        self._plane = None
        if n == 0:
            return
        # Coordinates in id-rank order: position == global tie-break rank.
        self._xs = xs
        self._ys = ys
        self._x0 = float(xs.min())
        self._y0 = float(ys.min())
        width = float(xs.max()) - self._x0
        height = float(ys.max()) - self._y0
        # Same degenerate-extent guard as the inner grid: a subnormal
        # tile width would overflow query binning to inf.
        tw = width / t
        th = height / t
        self._tw = tw if tw > 1e-100 else 1.0
        self._th = th if th > 1e-100 else 1.0
        tx = np.clip((xs - self._x0) / self._tw, 0.0, t - 1.0).astype(np.intp)
        ty = np.clip((ys - self._y0) / self._th, 0.0, t - 1.0).astype(np.intp)
        tile_ids = ty * t + tx
        # Stable sort by tile: within a tile the id ranks stay ascending,
        # so each tile's local tie order equals the global tie order.
        order = np.argsort(tile_ids, kind="stable")
        self._order = order.astype(np.intp)
        self._starts = np.searchsorted(tile_ids[order], np.arange(t * t + 1))
        per_tile = np.diff(self._starts).reshape(t, t)
        prefix = np.zeros((t + 1, t + 1), dtype=np.intp)
        np.cumsum(np.cumsum(per_tile, axis=0), axis=1, out=prefix[1:, 1:])
        self._prefix = prefix

    def __len__(self) -> int:
        return self._size

    @property
    def tiles_per_side(self) -> int:
        return self._t

    def counters(self) -> dict:
        """Routing counters plus tile-construction progress.

        ``batch_settled`` counts batch queries answered entirely by
        their home tile, ``batch_escalated`` those that needed the
        bounded cross-tile merge, ``batch_scalar`` those whose home tile
        was too small for ``k`` (full scalar routing).  ``tiles_built``
        over ``tiles_nonempty`` shows how much of the world this index
        actually materialized: tile-concentrated batches build only the
        tiles they touch.  Inner-grid counters (see
        ``GridIndex.counters()``) are summed over the built tiles.

        Lifecycle: counters accumulate for the life of the instance —
        internal rebuilds never zero them; only :meth:`reset_stats`
        does.  The same counts stream to the process-wide registry
        (``index_batch_*_total{backend="sharded"}``,
        ``index_tiles_built_total``; inner tiles report under
        ``backend="grid"`` — they *are* grid kernels) when
        :mod:`repro.obs` is enabled.
        """
        out = dict(self._stats)
        out["tiles_per_side"] = self._t
        out["tiles_built"] = self._tiles_built
        out["tiles_nonempty"] = (
            int((np.diff(self._starts) > 0).sum()) if self._size else 0
        )
        inner = {"batch_queries": 0, "batch_chunked": 0, "batch_fallback": 0}
        for tile in self._tiles:
            if tile is not None:
                for key, val in tile.counters().items():
                    inner[key] += val
        out["inner"] = inner
        return out

    def reset_stats(self) -> None:
        """Explicitly zero the routing counters and every built tile's
        inner-grid counters (nothing else does)."""
        for key in self._stats:
            self._stats[key] = 0
        for tile in self._tiles:
            if tile is not None:
                tile.reset_stats()

    # ------------------------------------------------------------------
    # Tile plumbing
    # ------------------------------------------------------------------
    def _tile(self, t: int) -> GridIndex:
        """The tile's inner grid, built on first touch."""
        tile = self._tiles[t]
        if tile is None:
            lo = self._starts[t]
            hi = self._starts[t + 1]
            ranks = self._order[lo:hi]
            xy = np.column_stack((self._xs[ranks], self._ys[ranks]))
            # Items are the global id ranks — already ascending, so the
            # inner argsort is the identity and local ties == global ties.
            tile = GridIndex.from_arrays(xy, ranks, self._target_per_cell)
            self._tiles[t] = tile
            self._tiles_built += 1
            reg = _obs._active
            if reg is not None:
                reg.inc("index_tiles_built_total", 1.0, _SHARDED)
        return tile

    def _get_plane(self) -> tuple:
        """The flat batch plane: every non-empty tile's inner grid,
        concatenated with per-tile offsets so one vectorized pass can
        serve queries whose home tiles differ.

        Arrays indexed by tile id: inner grid shape ``tg``, origin
        ``tx0/ty0``, cell size ``tcw/tch``, and offsets into the
        concatenations — ``tso`` (cell starts), ``tpo`` (flattened 2-D
        prefix sums), ``tbo`` (storage rows).  Concatenations:
        ``starts``/``prefix`` per tile, plus tile-storage-ordered
        coordinates ``cxs``/``cys`` and the *global* id rank ``crank``
        of every storage row.  Building it materializes every non-empty
        tile once (scattered batches touch them all anyway).
        """
        plane = self._plane
        if plane is None:
            t2 = self._t * self._t
            tg = np.ones(t2, dtype=np.intp)
            tx0 = np.zeros(t2, dtype=np.float64)
            ty0 = np.zeros(t2, dtype=np.float64)
            tcw = np.ones(t2, dtype=np.float64)
            tch = np.ones(t2, dtype=np.float64)
            tso = np.zeros(t2, dtype=np.intp)
            tpo = np.zeros(t2, dtype=np.intp)
            tbo = self._starts[:-1].astype(np.intp)
            starts_parts: list[np.ndarray] = []
            prefix_parts: list[np.ndarray] = []
            cxs = np.empty(self._size, dtype=np.float64)
            cys = np.empty(self._size, dtype=np.float64)
            crank = np.empty(self._size, dtype=np.intp)
            so = po = 0
            for t in range(t2):
                tso[t] = so
                tpo[t] = po
                lo = self._starts[t]
                hi = self._starts[t + 1]
                if hi <= lo:  # empty tile: 1x1 placeholder, never routed to
                    starts_parts.append(np.zeros(2, dtype=np.intp))
                    prefix_parts.append(np.zeros(4, dtype=np.intp))
                    so += 2
                    po += 4
                    continue
                tile = self._tile(t)
                g = tile._g
                tg[t] = g
                tx0[t] = tile._x0
                ty0[t] = tile._y0
                tcw[t] = tile._cw
                tch[t] = tile._ch
                starts_parts.append(np.asarray(tile._starts, dtype=np.intp))
                prefix_parts.append(tile._prefix.ravel())
                so += g * g + 1
                po += (g + 1) * (g + 1)
                cxs[lo:hi] = tile._xs
                cys[lo:hi] = tile._ys
                # Storage row -> global id rank (tile items *are* ranks).
                crank[lo:hi] = self._order[lo:hi][tile._rank]
            plane = self._plane = (
                tg, tx0, ty0, tcw, tch, tso, tpo, tbo,
                np.concatenate(starts_parts),
                np.concatenate(prefix_parts),
                cxs, cys, crank,
            )
        return plane

    def _tile_x(self, v: float) -> int:
        t1 = self._t - 1
        q = (v - self._x0) / self._tw
        if q <= 0.0:
            return 0
        if q >= t1:
            return t1
        return int(q)

    def _tile_y(self, v: float) -> int:
        t1 = self._t - 1
        q = (v - self._y0) / self._th
        if q <= 0.0:
            return 0
        if q >= t1:
            return t1
        return int(q)

    def _tile_walls(self, tx: int, ty: int) -> tuple[float, float, float, float]:
        """The tile's interior walls (``-inf``/``inf`` on outer borders:
        clipping assigns everything beyond the bbox to border tiles, so
        an edge tile has no neighbours past its outer side)."""
        t = self._t
        left = self._x0 + tx * self._tw if tx > 0 else -math.inf
        right = self._x0 + (tx + 1) * self._tw if tx < t - 1 else math.inf
        bottom = self._y0 + ty * self._th if ty > 0 else -math.inf
        top = self._y0 + (ty + 1) * self._th if ty < t - 1 else math.inf
        return left, right, bottom, top

    def _block_tiles(self, c0: int, c1: int, r0: int, r1: int):
        """Non-empty tile ids of a tile block."""
        t = self._t
        starts = self._starts
        out = []
        for row in range(r0, r1 + 1):
            base = row * t
            for col in range(c0, c1 + 1):
                tid = base + col
                if starts[tid + 1] > starts[tid]:
                    out.append(tid)
        return out

    def _block_count(self, c0: int, c1: int, r0: int, r1: int) -> int:
        p = self._prefix
        return int(p[r1 + 1, c1 + 1] - p[r0, c1 + 1] - p[r1 + 1, c0] + p[r0, c0])

    # ------------------------------------------------------------------
    # Single-point queries
    # ------------------------------------------------------------------
    def knn(self, x: float, y: float, k: int) -> list[tuple[float, Hashable]]:
        if self._size == 0 or k <= 0:
            return []
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", 1.0, _SHARDED_SCALAR)
        x = float(x)
        y = float(y)
        kk = min(k, self._size)
        tx = self._tile_x(x)
        ty = self._tile_y(y)
        home = ty * self._t + tx
        if self._starts[home + 1] - self._starts[home] >= kk:
            ans = self._tile(home).knn(x, y, kk)
            reach = ans[-1][0] * (1.0 + _SLACK)
            left, right, bottom, top = self._tile_walls(tx, ty)
            if reach < min(x - left, right - x, y - bottom, top - y):
                items = self._items
                return [(d, items[rk]) for d, rk in ans]
            return self._knn_with_bound(x, y, kk, reach)
        # Home tile too small for k: grow the tile block until it holds
        # kk points (geometric growth over O(1) prefix counts), bound the
        # k-th distance by merging the block tiles' own top-k lists.
        t = self._t
        r = 0
        while True:
            c0 = max(tx - r, 0)
            c1 = min(tx + r, t - 1)
            r0 = max(ty - r, 0)
            r1 = min(ty + r, t - 1)
            if self._block_count(c0, c1, r0, r1) >= kk:
                break
            r = 2 * r + 1
        bound = []
        for tid in self._block_tiles(c0, c1, r0, r1):
            bound.extend(self._tile(tid).knn(x, y, kk))
        # sqrt is monotone in d2, so the kk-th smallest returned distance
        # is a valid upper bound on the true k-th distance even when
        # distinct d2 values collide after rounding.
        bound.sort()
        reach = bound[kk - 1][0] * (1.0 + _SLACK)
        return self._knn_with_bound(x, y, kk, reach)

    def _knn_with_bound(
        self, x: float, y: float, kk: int, reach: float
    ) -> list[tuple[float, Hashable]]:
        """Finish a kNN whose k-th distance is bounded by ``reach``: one
        cross-tile gather over the bound disk, merged on exact squared
        distance with id-rank ties."""
        c0 = self._tile_x(x - reach)
        c1 = self._tile_x(x + reach)
        r0 = self._tile_y(y - reach)
        r1 = self._tile_y(y + reach)
        ranks: list[int] = []
        for tid in self._block_tiles(c0, c1, r0, r1):
            ranks.extend(
                rk for _d, rk in self._tile(tid).within_radius(x, y, reach)
            )
        arr = np.asarray(ranks, dtype=np.intp)
        dx = self._xs[arr] - x
        dy = self._ys[arr] - y
        d2 = dx * dx + dy * dy
        ranked = sorted(zip(d2.tolist(), arr.tolist()))[:kk]
        items = self._items
        return [(math.sqrt(dd), items[rk]) for dd, rk in ranked]

    def within_radius(
        self, x: float, y: float, radius: float
    ) -> list[tuple[float, Hashable]]:
        if self._size == 0 or radius < 0.0:
            return []
        x = float(x)
        y = float(y)
        reach = radius * (1.0 + _SLACK)
        c0 = self._tile_x(x - reach)
        c1 = self._tile_x(x + reach)
        r0 = self._tile_y(y - reach)
        r1 = self._tile_y(y + reach)
        ranks: list[int] = []
        for tid in self._block_tiles(c0, c1, r0, r1):
            # Membership is the tile's call (same sqrt(d2) <= radius as
            # every backend); only the cross-tile order is recomputed.
            ranks.extend(
                rk for _d, rk in self._tile(tid).within_radius(x, y, radius)
            )
        if not ranks:
            return []
        arr = np.asarray(ranks, dtype=np.intp)
        dx = self._xs[arr] - x
        dy = self._ys[arr] - y
        d2 = dx * dx + dy * dy
        merged = sorted(zip(d2.tolist(), arr.tolist()))
        items = self._items
        return [(math.sqrt(dd), items[rk]) for dd, rk in merged]

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------

    #: Queries per vectorized chunk of the flat kernel (same scratch
    #: bound as the inner grid's).
    _CHUNK = 1024
    #: Minimum mean queries-per-home-tile for the *delegated* batch path
    #: (each group runs its tile's own batch kernel).  Below it, the
    #: per-group fixed overhead of the grid kernel dominates and the
    #: flat cross-tile kernel — one vectorized pass over all tiles at
    #: once — takes over.  Tile-concentrated batches stay on
    #: delegation, which builds only the touched tiles.
    _DELEGATE_MIN_GROUP = 256

    def knn_batch(
        self, points: Sequence[tuple[float, float]], k: int
    ) -> list[list[tuple[float, Hashable]]]:
        """Per-point kNN, identical to looped :meth:`knn`.

        Queries are routed to their home tiles; each home-tile answer
        settles unless its k-th distance crosses a tile wall, in which
        case the query escalates to the bounded cross-tile merge.  Two
        vectorized paths compute the home answers: tile-concentrated
        batches delegate to each home tile's own batch kernel (lazy —
        only touched tiles are built), scattered batches run the *flat*
        kernel, one pass over the concatenated tile grids.
        """
        pts = [(float(px), float(py)) for px, py in points]
        m = len(pts)
        if self._size == 0 or k <= 0:
            return [[] for _ in pts]
        if m == 0:
            return []
        kk = min(k, self._size)
        t = self._t
        self._stats["batch_queries"] += m
        if t == 1:
            self._stats["batch_settled"] += m
            reg = _obs._active
            if reg is not None:
                reg.inc("index_queries_total", float(m), _SHARDED_BATCH)
                reg.inc("index_batch_queries_total", float(m), _SHARDED)
                reg.inc("index_batch_settled_total", float(m), _SHARDED)
            items = self._items
            tile = self._tile(0)
            return [
                [(d, items[rk]) for d, rk in ans]
                for ans in tile.knn_batch(pts, kk)
            ]
        qx = np.array([p[0] for p in pts], dtype=np.float64)
        qy = np.array([p[1] for p in pts], dtype=np.float64)
        qtx = np.clip((qx - self._x0) / self._tw, 0.0, t - 1.0).astype(np.intp)
        qty = np.clip((qy - self._y0) / self._th, 0.0, t - 1.0).astype(np.intp)
        qt = qty * t + qtx
        out: list = [None] * m
        pending: list[tuple[int, float]] = []
        scalar: list[int] = []
        homes = int(np.unique(qt).size)
        if m >= homes * self._DELEGATE_MIN_GROUP:
            self._knn_batch_delegate(pts, qt, kk, out, pending, scalar)
        else:
            pop = self._starts[qt + 1] - self._starts[qt]
            small = pop < kk
            scalar.extend(np.nonzero(small)[0].tolist())
            route = np.nonzero(~small)[0]
            for i in range(0, route.size, self._CHUNK):
                sub = route[i : i + self._CHUNK]
                self._knn_plane_chunk(
                    qx[sub], qy[sub], qt[sub], sub.tolist(), kk, out, pending, scalar
                )
        self._stats["batch_settled"] += m - len(pending) - len(scalar)
        self._stats["batch_escalated"] += len(pending)
        self._stats["batch_scalar"] += len(scalar)
        # Once per batch: the registry mirror of the routing counters
        # (kernel-level counts; scalar-routed queries also hit the
        # scalar index_queries_total from knn()).
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", float(m), _SHARDED_BATCH)
            reg.inc("index_batch_queries_total", float(m), _SHARDED)
            reg.inc(
                "index_batch_settled_total",
                float(m - len(pending) - len(scalar)), _SHARDED,
            )
            reg.inc("index_batch_escalated_total", float(len(pending)), _SHARDED)
            reg.inc("index_batch_scalar_total", float(len(scalar)), _SHARDED)
        for i, reach in pending:
            px, py = pts[i]
            out[i] = self._knn_with_bound(px, py, kk, reach)
        for i in scalar:
            px, py = pts[i]
            out[i] = self.knn(px, py, kk)
        return out

    def _knn_batch_delegate(self, pts, qt, kk, out, pending, scalar) -> None:
        """Home answers via each home tile's own batch kernel (groups
        are big, so the per-group kernel overhead amortizes; only the
        touched tiles get built)."""
        t = self._t
        items = self._items
        starts = self._starts
        order = np.argsort(qt, kind="stable")
        cuts = np.nonzero(np.diff(qt[order]))[0] + 1
        for group in np.split(order, cuts):
            home = int(qt[group[0]])
            if starts[home + 1] - starts[home] < kk:
                scalar.extend(group.tolist())
                continue
            tile = self._tile(home)
            left, right, bottom, top = self._tile_walls(home % t, home // t)
            idx = group.tolist()
            answers = tile.knn_batch([pts[i] for i in idx], kk)
            for i, ans in zip(idx, answers):
                px, py = pts[i]
                reach = ans[-1][0] * (1.0 + _SLACK)
                if reach < min(px - left, right - px, py - bottom, top - py):
                    out[i] = [(d, items[rk]) for d, rk in ans]
                else:
                    pending.append((i, reach))

    def _knn_plane_chunk(self, qx, qy, qt, idx, kk, out, pending, scalar) -> None:
        """The flat cross-tile batch kernel: the inner grid's four
        phases (ring growth, bound, regather, padded partition), run in
        one vectorized pass over queries whose home tiles differ — every
        per-tile constant (grid side, origin, cell size, array offsets)
        becomes a per-query gather from the batch plane.

        ``idx`` maps chunk rows to caller query positions.  Home-tile
        answers that clear the tile walls land in ``out``; the rest
        join ``pending`` with their within-tile k-th bound; cap-heavy
        rows join ``scalar``.  Every query with home-tile population
        >= ``kk`` is accounted to exactly one of the three.
        """
        (tg, tx0, ty0, tcw, tch, tso, tpo, tbo,
         starts, prefix, cxs, cys, crank) = self._get_plane()
        m = qx.size
        g = tg[qt]
        x0 = tx0[qt]
        y0 = ty0[qt]
        cw = tcw[qt]
        ch = tch[qt]
        so = tso[qt]
        po = tpo[qt]
        bo = tbo[qt]
        gm1 = (g - 1).astype(np.float64)
        qcx = np.clip((qx - x0) / cw, 0.0, gm1).astype(np.intp)
        qcy = np.clip((qy - y0) / ch, 0.0, gm1).astype(np.intp)

        def counts(sub, c0, c1, r0, r1):
            gp1 = g[sub] + 1
            base = po[sub]
            return (
                prefix[base + (r1 + 1) * gp1 + (c1 + 1)]
                - prefix[base + r0 * gp1 + (c1 + 1)]
                - prefix[base + (r1 + 1) * gp1 + c0]
                + prefix[base + r0 * gp1 + c0]
            )

        def gather(sub, c0s, c1s, r0s, r1s):
            nrows = r1s - r0s + 1
            qid = np.repeat(np.arange(sub.size), nrows)
            row_start = np.cumsum(nrows) - nrows
            rows = np.arange(int(nrows.sum())) - np.repeat(row_start, nrows) + r0s[qid]
            gg = g[sub][qid]
            base = so[sub][qid]
            off = bo[sub][qid]
            lo = starts[base + rows * gg + c0s[qid]] + off
            hi = starts[base + rows * gg + c1s[qid] + 1] + off
            lens = hi - lo
            total = int(lens.sum())
            ends = np.cumsum(lens)
            cand = np.arange(total) - np.repeat(ends - lens, lens) + np.repeat(lo, lens)
            return cand, np.repeat(qid, lens)

        # Phase 1: smallest block radius holding >= kk points, per query
        # (geometric growth, then bisection) — within the home tile only.
        r_need = np.zeros(m, dtype=np.intp)
        alive = np.arange(m)
        t = 0
        while alive.size:
            ga = g[alive]
            cnt = counts(
                alive,
                np.clip(qcx[alive] - t, 0, ga - 1), np.clip(qcx[alive] + t, 0, ga - 1),
                np.clip(qcy[alive] - t, 0, ga - 1), np.clip(qcy[alive] + t, 0, ga - 1),
            )
            done = cnt >= kk
            r_need[alive[done]] = t
            alive = alive[~done]
            t = 2 * t + 1
        lo_r = np.maximum((r_need - 1) // 2, 0)
        hi_r = r_need
        while True:
            open_rows = np.nonzero(hi_r - lo_r > 1)[0]
            if not open_rows.size:
                break
            mid = (lo_r[open_rows] + hi_r[open_rows]) // 2
            go = g[open_rows]
            cnt = counts(
                open_rows,
                np.clip(qcx[open_rows] - mid, 0, go - 1),
                np.clip(qcx[open_rows] + mid, 0, go - 1),
                np.clip(qcy[open_rows] - mid, 0, go - 1),
                np.clip(qcy[open_rows] + mid, 0, go - 1),
            )
            ok = cnt >= kk
            hi_r[open_rows[ok]] = mid[ok]
            lo_r[open_rows[~ok]] = mid[~ok]
        r_need = hi_r

        # Same heavy-tail cap as the inner grid: over-cap rows take the
        # scalar search (routed by the caller), everyone else rides the
        # padded matrix.
        cap = max(16 * kk, 1024)
        c0 = np.clip(qcx - r_need, 0, g - 1)
        c1 = np.clip(qcx + r_need, 0, g - 1)
        r0 = np.clip(qcy - r_need, 0, g - 1)
        r1 = np.clip(qcy + r_need, 0, g - 1)
        light = counts(np.arange(m), c0, c1, r0, r1) <= cap
        lidx = np.nonzero(light)[0]
        handled = np.zeros(m, dtype=bool)

        lidx2 = lidx[:0]
        if lidx.size:
            # Phase 2: the k-th distance within the count block bounds
            # the true within-tile k-th from above.
            cand, qid = gather(lidx, c0[lidx], c1[lidx], r0[lidx], r1[lidx])
            lqx = qx[lidx]
            lqy = qy[lidx]
            dx = cxs[cand] - lqx[qid]
            dy = cys[cand] - lqy[qid]
            d2 = dx * dx + dy * dy
            reach = np.sqrt(_group_kth(d2, qid, lidx.size, kk)) * (1.0 + _SLACK)
            # Phase 3: regather over the cells covering each bound disk.
            glf = (g[lidx] - 1).astype(np.float64)
            fc0 = np.clip((lqx - reach - x0[lidx]) / cw[lidx], 0.0, glf).astype(np.intp)
            fc1 = np.clip((lqx + reach - x0[lidx]) / cw[lidx], 0.0, glf).astype(np.intp)
            fr0 = np.clip((lqy - reach - y0[lidx]) / ch[lidx], 0.0, glf).astype(np.intp)
            fr1 = np.clip((lqy + reach - y0[lidx]) / ch[lidx], 0.0, glf).astype(np.intp)
            still = counts(lidx, fc0, fc1, fr0, fr1) <= cap
            lidx2 = lidx[still]

        if lidx2.size:
            sub = np.nonzero(still)[0]
            cand, qid = gather(lidx2, fc0[sub], fc1[sub], fr0[sub], fr1[sub])
            lqx = qx[lidx2]
            lqy = qy[lidx2]
            dx = cxs[cand] - lqx[qid]
            dy = cys[cand] - lqy[qid]
            d2 = dx * dx + dy * dy

            # Phase 4: padded partition + tie-aware ordering, exactly
            # the inner grid's, with ranks already global.
            mm = lidx2.size
            cnt_q = np.bincount(qid, minlength=mm)
            pos = np.arange(d2.size) - np.repeat(np.cumsum(cnt_q) - cnt_q, cnt_q)
            pad_d2 = np.full((mm, int(cnt_q.max())), np.inf)
            pad_d2[qid, pos] = d2
            pad_rk = np.zeros(pad_d2.shape, dtype=np.intp)
            pad_rk[qid, pos] = crank[cand]
            rows_ix = np.arange(mm)[:, None]
            part = np.argpartition(pad_d2, kk - 1, axis=1)[:, :kk]
            sub_d2 = pad_d2[rows_ix, part]
            order = np.argsort(sub_d2, axis=1)
            top = part[rows_ix, order]
            top_d2 = sub_d2[rows_ix, order]
            kth2 = top_d2[:, -1]
            risky = (np.count_nonzero(pad_d2 == kth2[:, None], axis=1)
                     != np.count_nonzero(top_d2 == kth2[:, None], axis=1))
            if kk > 1:
                risky |= (top_d2[:, 1:] == top_d2[:, :-1]).any(axis=1)

            # Settled test: the within-tile k-th bound against the
            # distance to the nearest interior tile wall.
            tt = self._t
            tiles = qt[lidx2]
            ttx = tiles % tt
            tty = tiles // tt
            left = np.where(ttx > 0, self._x0 + ttx * self._tw, -np.inf)
            right = np.where(ttx < tt - 1, self._x0 + (ttx + 1) * self._tw, np.inf)
            bottom = np.where(tty > 0, self._y0 + tty * self._th, -np.inf)
            topw = np.where(tty < tt - 1, self._y0 + (tty + 1) * self._th, np.inf)
            reach_k = np.sqrt(kth2) * (1.0 + _SLACK)
            clearance = np.minimum(
                np.minimum(lqx - left, right - lqx),
                np.minimum(lqy - bottom, topw - lqy),
            )
            settled = reach_k < clearance

            ed = np.sqrt(top_d2).tolist()
            eit = self._items_arr[pad_rk[rows_ix, top]].tolist()
            items = self._items
            for row in range(mm):
                qi = idx[lidx2[row]]
                if not settled[row]:
                    pending.append((qi, float(reach_k[row])))
                elif risky[row]:
                    pool = np.nonzero(pad_d2[row] <= kth2[row])[0]
                    ranked = sorted(
                        (pad_d2[row, c], int(pad_rk[row, c])) for c in pool
                    )[:kk]
                    out[qi] = [(math.sqrt(dd), items[rk]) for dd, rk in ranked]
                else:
                    out[qi] = list(zip(ed[row], eit[row]))
            handled[lidx2] = True

        for row in np.nonzero(~handled)[0].tolist():
            scalar.append(idx[row])

    def _range_flat(self, pts: list, radius: float):
        """Shared range kernel: per-point-grouped ``(qid, id-rank, d2)``
        arrays in final answer order — the cross-tile analogue of
        ``GridIndex._range_chunk_raw``, with ranks already global."""
        m = len(pts)
        qx = np.array([p[0] for p in pts], dtype=np.float64)
        qy = np.array([p[1] for p in pts], dtype=np.float64)
        t = self._t
        reach = radius * (1.0 + _SLACK)
        c0 = np.clip((qx - reach - self._x0) / self._tw, 0.0, t - 1.0).astype(np.intp)
        c1 = np.clip((qx + reach - self._x0) / self._tw, 0.0, t - 1.0).astype(np.intp)
        r0 = np.clip((qy - reach - self._y0) / self._th, 0.0, t - 1.0).astype(np.intp)
        r1 = np.clip((qy + reach - self._y0) / self._th, 0.0, t - 1.0).astype(np.intp)
        starts = self._starts
        tile_qids: dict[int, list[int]] = {}
        for qi in range(m):
            for row in range(int(r0[qi]), int(r1[qi]) + 1):
                base = row * t
                for col in range(int(c0[qi]), int(c1[qi]) + 1):
                    tid = base + col
                    if starts[tid + 1] > starts[tid]:
                        tile_qids.setdefault(tid, []).append(qi)
        qid_parts: list[np.ndarray] = []
        rank_parts: list[np.ndarray] = []
        for tid, qids in tile_qids.items():
            tile = self._tile(tid)
            counts, tile_items = tile.range_batch_ids(
                [pts[i] for i in qids], radius
            )
            if tile_items.size:
                # Tile items are global id ranks (an object array of
                # Python ints from the inner grid's emission path).
                rank_parts.append(tile_items.astype(np.intp))
                qid_parts.append(
                    np.repeat(np.asarray(qids, dtype=np.intp), counts)
                )
        if not rank_parts:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, np.empty(0, dtype=np.float64)
        pq = np.concatenate(qid_parts)
        prk = np.concatenate(rank_parts)
        dx = self._xs[prk] - qx[pq]
        dy = self._ys[prk] - qy[pq]
        d2 = dx * dx + dy * dy
        order = np.lexsort((prk, d2, pq))
        return pq[order], prk[order], d2[order]

    def range_batch(
        self, points: Sequence[tuple[float, float]], radius: float
    ) -> list[list[tuple[float, Hashable]]]:
        """Per-point radius answers, identical to looped :meth:`within_radius`."""
        pts = [(float(px), float(py)) for px, py in points]
        if self._size == 0 or radius < 0.0:
            return [[] for _ in pts]
        pq, prk, d2 = self._range_flat(pts, radius)
        ed = np.sqrt(d2).tolist()
        items = self._items
        eit = [items[r] for r in prk.tolist()]
        ends = np.cumsum(np.bincount(pq, minlength=len(pts))).tolist()
        out = []
        lo = 0
        for hi in ends:
            out.append(list(zip(ed[lo:hi], eit[lo:hi])))
            lo = hi
        return out

    def range_batch_ids(
        self, points: Sequence[tuple[float, float]], radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(counts, items)`` form of :meth:`range_batch` — the
        vectorized candidate feed, same contract as the inner grid's."""
        pts = [(float(px), float(py)) for px, py in points]
        if not pts or self._size == 0 or radius < 0.0:
            return np.zeros(len(pts), dtype=np.int64), np.empty(0, dtype=object)
        pq, prk, _d2 = self._range_flat(pts, radius)
        counts = np.bincount(pq, minlength=len(pts)).astype(np.int64)
        items = np.empty(prk.size, dtype=object)
        items[:] = [self._items[r] for r in prk.tolist()]
        return counts, items
