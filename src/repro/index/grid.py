"""A NumPy uniform-grid spatial index built for batched queries.

Points are bucketed into a ``G × G`` grid over their bounding box and
stored sorted by row-major cell id, so the points of any run of cells in
one grid row form a *contiguous slice* of the coordinate arrays.  A kNN
query then gathers candidates one row-slice at a time — a handful of
NumPy operations per query instead of thousands of interpreted-Python
node visits.  The batch entry points vectorize every phase across the
whole batch: block growth, candidate gathering (one ragged CSR pass),
k-th-distance selection (one padded partition), and final ordering (one
lexsort).

Exactness: all backends share the index contract's metric — squared
distance ``dx*dx + dy*dy`` for ordering, ``sqrt`` of it for the returned
value (see :mod:`repro.index.base`).  Those are elementwise IEEE-754
operations, bit-identical between NumPy arrays and Python scalars, so
batch answers match the brute-force oracle exactly, ties included.  The
only tolerances in this file guard the *grid geometry* (which cells can
be pruned), never the ordering itself.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from ..obs import registry as _obs

__all__ = ["GridIndex"]

#: Relative slack when comparing distances against cell-boundary
#: clearances (cell edges are themselves rounded); pruning-only.
_SLACK = 1e-9

# Shared label dicts for the registry hot path (never mutated).
_GRID = {"backend": "grid"}
_GRID_SCALAR = {"backend": "grid", "mode": "scalar"}
_GRID_BATCH = {"backend": "grid", "mode": "batch"}


def _sq(v):
    "Exact IEEE square, kept as multiplication (identical bits to dx * dx)."
    return v * v


def _cell_order(cx: np.ndarray, cy: np.ndarray, g: int) -> np.ndarray:
    """The stable permutation that sorts points by row-major cell id
    ``cy * g + cx``, ties in input order.

    Two stable passes, the column first and then the row, give that
    order.  While a cell coordinate fits in 16 bits, each pass is one of
    NumPy's linear-time stable radix sorts; a wider grid sorts the cell
    ids in one stable comparison sort.
    """
    if g > 1 << 16:
        return np.argsort(cy * g + cx, kind="stable")
    order = np.argsort(cx.astype(np.uint16), kind="stable")
    return order[np.argsort(cy[order].astype(np.uint16), kind="stable")]


def _id_lists(items) -> tuple[list, np.ndarray]:
    """The id-sorted items as a list, for the scalar paths, and as an
    object array, for the batch kernels' fancy-indexed emission.

    ``from_arrays`` passes the object array (one conversion of its
    typed ids makes both), the triple-list constructor its list.
    """
    if isinstance(items, np.ndarray):
        return items.tolist(), items
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return items, arr


class GridIndex:
    """Uniform-grid index over static 2-D points with deterministic ties."""

    #: Queries per vectorized chunk (bounds scratch-matrix memory).
    _CHUNK = 1024

    def __init__(
        self,
        points: Sequence[tuple[float, float, Hashable]],
        target_per_cell: float = 0.5,
    ):
        pts = [(float(x), float(y), item) for x, y, item in points]
        try:
            # Pre-sort by item id: storage rank then doubles as the
            # tie-break key, so one lexsort settles distance ties by id.
            pts.sort(key=lambda p: p[2])
        except TypeError:
            pass  # unorderable ids: fall back to insertion order
        self._build(
            np.array([p[0] for p in pts], dtype=np.float64),
            np.array([p[1] for p in pts], dtype=np.float64),
            [item for _x, _y, item in pts],
            target_per_cell,
        )

    @classmethod
    def from_arrays(
        cls,
        xy: np.ndarray,
        items: Sequence[Hashable],
        target_per_cell: float = 0.5,
    ) -> "GridIndex":
        """Array-native construction: no ``(x, y, item)`` triples built.

        ``items`` is sorted with one NumPy argsort (stable, so equal to
        the list sort of the triple-list path) and the coordinate
        columns are gathered by that order — the whole ingest stays
        vectorized, which is what the columnar
        :class:`~repro.lbs.SpatialDatabase` feeds at the 1M scale.
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
            target_per_cell,
        )
        return self

    def _build(
        self, xs: np.ndarray, ys: np.ndarray, items, target_per_cell: float
    ) -> None:
        """Shared grid construction over id-sorted coordinate arrays and
        items (see :func:`_id_lists`)."""
        self._items, self._items_arr = _id_lists(items)
        n = len(items)
        self._size = n
        #: The last scalar answer's final cell block ``(c0, c1, r0, r1,
        #: storage indices)``, tried first by the next :meth:`knn`; it
        #: only decides which block is ranked, never an answer.
        self._last = None
        if n == 0:
            return
        # A deliberately fine grid: sparse cells cost only prefix-sum
        # memory, while dense clusters keep per-cell occupancy — and with
        # it the candidate blowup around clusters — low.
        g = max(1, int(math.sqrt(n / max(target_per_cell, 0.05))))
        self._g = g
        self._x0 = float(xs.min())
        self._y0 = float(ys.min())
        width = float(xs.max()) - self._x0
        height = float(ys.max()) - self._y0
        # Degenerate-extent guard: a subnormal-width bounding box makes
        # width/g underflow toward 0, and dividing query offsets by it
        # overflows to inf.  Such a box is a line of (near-)coincident
        # points; cell size 1.0 degrades the grid to rows/columns while
        # staying exactly correct (blocks still grow to cover everything).
        cw = width / g
        ch = height / g
        self._cw = cw if cw > 1e-100 else 1.0
        self._ch = ch if ch > 1e-100 else 1.0
        cx = np.clip((xs - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
        cy = np.clip((ys - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)
        order = _cell_order(cx, cy, g)
        self._xs = xs[order]
        self._ys = ys[order]
        #: storage position -> id rank (= index into the id-sorted lists)
        self._rank = order
        per_cell = np.bincount(cy * g + cx, minlength=g * g)
        starts = np.zeros(g * g + 1, dtype=np.intp)
        np.cumsum(per_cell, out=starts[1:])
        self._starts = starts
        # 2-D prefix sums of per-cell counts: any block count in O(1).
        # Rows first, then down the columns in place (integer sums, so
        # the order does not matter).
        prefix = np.zeros((g + 1, g + 1), dtype=np.intp)
        inner = prefix[1:, 1:]
        np.cumsum(per_cell.reshape(g, g), axis=1, out=inner)
        np.cumsum(inner, axis=0, out=inner)
        self._prefix = prefix

    def __len__(self) -> int:
        return self._size

    def _cell_x(self, v: float) -> int:
        """Clamp-then-truncate a float cell coordinate (clamping first
        keeps huge/inf quotients from overflowing the int conversion)."""
        g1 = self._g - 1
        q = (v - self._x0) / self._cw
        if q <= 0.0:
            return 0
        if q >= g1:
            return g1
        return int(q)

    def _cell_y(self, v: float) -> int:
        g1 = self._g - 1
        q = (v - self._y0) / self._ch
        if q <= 0.0:
            return 0
        if q >= g1:
            return g1
        return int(q)

    # ------------------------------------------------------------------
    # Single-point queries
    # ------------------------------------------------------------------
    def knn(self, x: float, y: float, k: int) -> list[tuple[float, Hashable]]:
        if self._size == 0 or k <= 0:
            return []
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", 1.0, _GRID_SCALAR)
        x = float(x)
        y = float(y)
        kk = min(k, self._size)
        cx = self._cell_x(x)
        cy = self._cell_y(y)
        # Successive queries of an edge search converge on one spot: try
        # the previous answer's final block first (see _last in _build).
        pool = None
        last = self._last
        if last is not None:
            c0, c1, r0, r1, cand = last
            if c0 <= cx <= c1 and r0 <= cy <= r1 and cand.size >= kk:
                d2, kth2, wider = self._kth_bound(x, y, kk, c0, c1, r0, r1, cand)
                if wider is None:
                    pool = cand[d2 <= kth2]
        if pool is None:
            # Grow the block geometrically from the query's own cell
            # (prefix-sum counts are O(1)) until it holds kk points; a
            # bigger block only tightens the k-th bound.
            g = self._g
            prefix = self._prefix
            r = 0
            while True:
                c0 = max(cx - r, 0)
                c1 = min(cx + r, g - 1)
                r0 = max(cy - r, 0)
                r1 = min(cy + r, g - 1)
                cnt = prefix[r1 + 1, c1 + 1] - prefix[r0, c1 + 1] - prefix[r1 + 1, c0] + prefix[r0, c0]
                if cnt >= kk:
                    break
                r = 2 * r + 1
            cand = self._block_slice(c0, c1, r0, r1)
            d2, kth2, wider = self._kth_bound(x, y, kk, c0, c1, r0, r1, cand)
            if wider is not None:
                c0, c1, r0, r1 = wider
                cand = self._block_slice(c0, c1, r0, r1)
                dx = self._xs[cand] - x
                dy = self._ys[cand] - y
                d2 = dx * dx + dy * dy
                kth2 = np.partition(d2, kk - 1)[kk - 1]
            self._last = (c0, c1, r0, r1, cand)
            pool = cand[d2 <= kth2]
        ranked = sorted(
            (_sq(self._xs[j] - x) + _sq(self._ys[j] - y), int(self._rank[j]))
            for j in pool
        )[:kk]
        return [(math.sqrt(dd), self._items[rk]) for dd, rk in ranked]

    def _kth_bound(self, x, y, kk, c0, c1, r0, r1, cand):
        """Squared distances from ``(x, y)`` over a block of at least
        ``kk`` points, their ``kk``-th smallest ``kth2``, and ``None``
        when the block covers the cells of the disk of radius
        ``sqrt(kth2)``, else the smallest block covering both.

        The true k-th distance is at most ``sqrt(kth2)``, so a covering
        block holds every point within it, ties included."""
        dx = self._xs[cand] - x
        dy = self._ys[cand] - y
        d2 = dx * dx + dy * dy
        kth2 = np.partition(d2, kk - 1)[kk - 1]
        reach = math.sqrt(kth2) * (1.0 + _SLACK)
        dc0 = self._cell_x(x - reach)
        dc1 = self._cell_x(x + reach)
        dr0 = self._cell_y(y - reach)
        dr1 = self._cell_y(y + reach)
        if c0 <= dc0 and dc1 <= c1 and r0 <= dr0 and dr1 <= r1:
            return d2, kth2, None
        return d2, kth2, (min(dc0, c0), max(dc1, c1), min(dr0, r0), max(dr1, r1))

    def within_radius(self, x: float, y: float, radius: float) -> list[tuple[float, Hashable]]:
        if self._size == 0 or radius < 0.0:
            return []
        x = float(x)
        y = float(y)
        reach = radius * (1.0 + _SLACK)
        c0 = self._cell_x(x - reach)
        c1 = self._cell_x(x + reach)
        r0 = self._cell_y(y - reach)
        r1 = self._cell_y(y + reach)
        cand = self._block_slice(c0, c1, r0, r1)
        if cand.size == 0:
            return []
        dx = self._xs[cand] - x
        dy = self._ys[cand] - y
        d2 = dx * dx + dy * dy
        pool = cand[np.sqrt(d2) <= radius]
        out = sorted(
            (_sq(self._xs[j] - x) + _sq(self._ys[j] - y), int(self._rank[j]))
            for j in pool
        )
        return [(math.sqrt(dd), self._items[rk]) for dd, rk in out]

    # ------------------------------------------------------------------
    # Batched queries — vectorized across the whole batch
    # ------------------------------------------------------------------
    def knn_batch(
        self, points: Sequence[tuple[float, float]], k: int
    ) -> list[list[tuple[float, Hashable]]]:
        """Per-point kNN answers, identical to looped :meth:`knn`."""
        pts = [(float(px), float(py)) for px, py in points]
        if self._size == 0 or k <= 0:
            return [[] for _ in pts]
        kk = min(k, self._size)
        out: list[list[tuple[float, Hashable]]] = []
        for i in range(0, len(pts), self._CHUNK):
            out.extend(self._knn_chunk(pts[i : i + self._CHUNK], kk))
        return out

    def _knn_chunk(self, pts: list, kk: int) -> list[list[tuple[float, Hashable]]]:
        m = len(pts)
        g = self._g
        qx = np.array([p[0] for p in pts], dtype=np.float64)
        qy = np.array([p[1] for p in pts], dtype=np.float64)
        qcx = np.clip((qx - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
        qcy = np.clip((qy - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)

        # Phase 1: per query, the smallest block radius holding >= kk
        # points — geometric growth to bracket it (prefix-sum counts are
        # O(1)), then a vectorized bisection down to the minimum.  The
        # minimum matters: an oversized block beside a dense cluster
        # drags the whole cluster into the candidate set.
        r_need = np.zeros(m, dtype=np.intp)
        alive = np.arange(m)
        t = 0
        while alive.size:
            counts = self._block_counts(
                np.clip(qcx[alive] - t, 0, g - 1), np.clip(qcx[alive] + t, 0, g - 1),
                np.clip(qcy[alive] - t, 0, g - 1), np.clip(qcy[alive] + t, 0, g - 1),
            )
            done = counts >= kk
            r_need[alive[done]] = t
            alive = alive[~done]
            t = 2 * t + 1
        lo = np.maximum((r_need - 1) // 2, 0)
        hi = r_need
        while True:
            open_rows = np.nonzero(hi - lo > 1)[0]
            if not open_rows.size:
                break
            mid = (lo[open_rows] + hi[open_rows]) // 2
            counts = self._block_counts(
                np.clip(qcx[open_rows] - mid, 0, g - 1),
                np.clip(qcx[open_rows] + mid, 0, g - 1),
                np.clip(qcy[open_rows] - mid, 0, g - 1),
                np.clip(qcy[open_rows] + mid, 0, g - 1),
            )
            ok = counts >= kk
            hi[open_rows[ok]] = mid[ok]
            lo[open_rows[~ok]] = mid[~ok]
        r_need = hi

        # Heavy-tail split: a query in empty space beside a dense cluster
        # can still drag in hundreds of candidates, and one such query
        # sets the padded-matrix width for the whole chunk.  The cap
        # bounds that width (chunk scratch stays ~8 MB); the rare query
        # beyond it takes the single-query search instead (no padding).
        cap = max(16 * kk, 1024)
        c0 = np.clip(qcx - r_need, 0, g - 1)
        c1 = np.clip(qcx + r_need, 0, g - 1)
        r0 = np.clip(qcy - r_need, 0, g - 1)
        r1 = np.clip(qcy + r_need, 0, g - 1)
        light = self._block_counts(c0, c1, r0, r1) <= cap
        idx = np.nonzero(light)[0]
        out: list = [None] * m

        if idx.size:
            # Phase 2: the k-th distance *within the count block* bounds
            # the true k-th from above (the block's points are a subset).
            cand, qid = self._gather(c0[idx], c1[idx], r0[idx], r1[idx])
            lqx = qx[idx]
            lqy = qy[idx]
            dx = self._xs[cand] - lqx[qid]
            dy = self._ys[cand] - lqy[qid]
            d2 = dx * dx + dy * dy
            reach = np.sqrt(_group_kth(d2, qid, idx.size, kk)) * (1.0 + _SLACK)

            # Phase 3: regather over the cells covering each bound disk —
            # a near-minimal candidate set (re-checking the cap).
            fc0 = np.clip((lqx - reach - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
            fc1 = np.clip((lqx + reach - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
            fr0 = np.clip((lqy - reach - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)
            fr1 = np.clip((lqy + reach - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)
            still = self._block_counts(fc0, fc1, fr0, fr1) <= cap
            idx = idx[still]

        if idx.size:
            sub = np.nonzero(still)[0]
            cand, qid = self._gather(fc0[sub], fc1[sub], fr0[sub], fr1[sub])
            lqx = qx[idx]
            lqy = qy[idx]
            dx = self._xs[cand] - lqx[qid]
            dy = self._ys[cand] - lqy[qid]
            d2 = dx * dx + dy * dy
            # Phase 4: padded partition, tie check and emission.
            _kth2, answers = _top_k(
                d2, qid, self._rank[cand], idx.size, kk, self._items, self._items_arr
            )
            for qi, answer in zip(idx.tolist(), answers):
                out[qi] = answer

        fallback = 0
        for qi, answer in enumerate(out):
            if answer is None:
                fallback += 1
                x, y = pts[qi]
                out[qi] = self.knn(x, y, kk)
        # Once per ~1024-query chunk: ``chunked`` counts the padded
        # kernel's answers, ``fallback`` the over-cap queries that took
        # the single-query search (those also count as scalar
        # index_queries_total from the knn() calls).
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", float(m), _GRID_BATCH)
            reg.inc("index_batch_queries_total", float(m), _GRID)
            reg.inc("index_batch_chunked_total", float(m - fallback), _GRID)
            reg.inc("index_batch_fallback_total", float(fallback), _GRID)
        return out

    def range_batch_ids(
        self, points: Sequence[tuple[float, float]], radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched radius query in CSR form: ``(counts, items)``.

        ``items`` concatenates every point's in-radius item ids in
        :meth:`within_radius` order; ``counts[i]`` is point *i*'s
        segment length.  No ``(distance, item)`` tuples are
        materialized — this is the candidate-retrieval feed of
        vectorized ranking kernels (e.g. prominence), which recompute
        whatever scores they need in bulk.
        """
        pts = [(float(px), float(py)) for px, py in points]
        if not pts or self._size == 0 or radius < 0.0:
            return np.zeros(len(pts), dtype=np.int64), np.empty(0, dtype=object)
        counts_parts, item_parts = [], []
        for i in range(0, len(pts), self._CHUNK):
            chunk = pts[i : i + self._CHUNK]
            pq, prk = self._range_chunk(chunk, radius)
            counts_parts.append(np.bincount(pq, minlength=len(chunk)))
            item_parts.append(self._items_arr[prk])
        return (
            np.concatenate(counts_parts).astype(np.int64),
            np.concatenate(item_parts),
        )

    def _range_chunk(self, pts: list, radius: float):
        """Range kernel: per-point-grouped ``(qid, storage-rank)`` arrays
        in final answer order."""
        g = self._g
        qx = np.array([p[0] for p in pts], dtype=np.float64)
        qy = np.array([p[1] for p in pts], dtype=np.float64)
        reach = radius * (1.0 + _SLACK)
        fc0 = np.clip((qx - reach - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
        fc1 = np.clip((qx + reach - self._x0) / self._cw, 0.0, g - 1.0).astype(np.intp)
        fr0 = np.clip((qy - reach - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)
        fr1 = np.clip((qy + reach - self._y0) / self._ch, 0.0, g - 1.0).astype(np.intp)
        cand, qid = self._gather(fc0, fc1, fr0, fr1)
        dx = self._xs[cand] - qx[qid]
        dy = self._ys[cand] - qy[qid]
        d2 = dx * dx + dy * dy
        keep = np.sqrt(d2) <= radius
        pq = qid[keep]
        prk = self._rank[cand[keep]]
        order = np.lexsort((prk, d2[keep], pq))
        return pq[order], prk[order]

    # ------------------------------------------------------------------
    # Cell-block helpers
    # ------------------------------------------------------------------
    def _block_slice(self, c0: int, c1: int, r0: int, r1: int) -> np.ndarray:
        """Storage indices of all points in the cell block — one
        contiguous slice per grid row."""
        g = self._g
        starts = self._starts
        parts = []
        for row in range(r0, r1 + 1):
            lo = starts[row * g + c0]
            hi = starts[row * g + c1 + 1]
            if hi > lo:
                parts.append(np.arange(lo, hi))
        if not parts:
            return np.empty(0, dtype=np.intp)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------
    # Ragged helpers shared by the batch kernels
    # ------------------------------------------------------------------
    def _row_slices(self, c0, c1, r0, r1):
        """Flattened CSR (lo, hi) bounds for every grid row of every
        query's cell block, plus the owning query of each row."""
        nrows = r1 - r0 + 1
        qid = np.repeat(np.arange(c0.size), nrows)
        row_start = np.cumsum(nrows) - nrows
        rows = np.arange(int(nrows.sum())) - np.repeat(row_start, nrows) + r0[qid]
        lo = self._starts[rows * self._g + c0[qid]]
        hi = self._starts[rows * self._g + c1[qid] + 1]
        return qid, lo, hi

    def _block_counts(self, c0, c1, r0, r1) -> np.ndarray:
        p = self._prefix
        return (
            p[r1 + 1, c1 + 1] - p[r0, c1 + 1] - p[r1 + 1, c0] + p[r0, c0]
        )

    def _gather(self, c0, c1, r0, r1) -> tuple[np.ndarray, np.ndarray]:
        """Storage indices of all points in every query's block, grouped
        by query, as flat ``(candidates, owning-query)`` arrays."""
        qid, lo, hi = self._row_slices(c0, c1, r0, r1)
        lens = hi - lo
        total = int(lens.sum())
        ends = np.cumsum(lens)
        cand = np.arange(total) - np.repeat(ends - lens, lens) + np.repeat(lo, lens)
        return cand, np.repeat(qid, lens)


# ----------------------------------------------------------------------
# Padded-partition kernels shared with the sharded index's flat plane
# ----------------------------------------------------------------------
def _group_kth(d: np.ndarray, qid: np.ndarray, m: int, kk: int) -> np.ndarray:
    """Per-group ``kk``-th smallest of ``d`` (groups = values of
    ``qid``, each holding at least ``kk`` entries), via one padded
    partition."""
    counts = np.bincount(qid, minlength=m)
    pos = np.arange(d.size) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.full((m, int(counts.max())), np.inf)
    padded[qid, pos] = d
    return np.partition(padded, kk - 1, axis=1)[:, kk - 1]


def _top_k(d2, qid, rank, m, kk, items, items_arr):
    """The batch kernels' last phase: each group's top ``kk`` answer.

    ``d2`` holds the candidates' squared distances, ``qid`` their group
    (``0..m-1``, each holding >= ``kk`` candidates including the true
    top-k) and ``rank`` their id rank, an index into ``items`` and
    ``items_arr``.  Returns the groups' ``kk``-th squared distances and
    their ``(distance, item)`` answers.

    Pad the ragged groups into a rectangle, pick each row's ``kk``
    smallest with one argpartition, and order them with one small
    argsort.  Squared distances are exact, so a tie is exact float
    equality; rows where a tie touches the answer fall back to an
    explicit ``(distance, id)`` re-rank.
    """
    counts = np.bincount(qid, minlength=m)
    pos = np.arange(d2.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pad_d2 = np.full((m, int(counts.max())), np.inf)
    pad_d2[qid, pos] = d2
    pad_rk = np.zeros(pad_d2.shape, dtype=np.intp)
    pad_rk[qid, pos] = rank
    rows = np.arange(m)[:, None]
    part = np.argpartition(pad_d2, kk - 1, axis=1)[:, :kk]
    sub_d2 = pad_d2[rows, part]
    order = np.argsort(sub_d2, axis=1)
    top = part[rows, order]
    top_d2 = sub_d2[rows, order]
    # Risky rows: a tie inside the top-k (ordering among the tied
    # entries is positional, not by id) or at the k-th distance
    # (argpartition may have kept the wrong tied candidate).
    kth2 = top_d2[:, -1]
    risky = (np.count_nonzero(pad_d2 == kth2[:, None], axis=1)
             != np.count_nonzero(top_d2 == kth2[:, None], axis=1))
    if kk > 1:
        risky |= (top_d2[:, 1:] == top_d2[:, :-1]).any(axis=1)
    ed = np.sqrt(top_d2).tolist()
    eit = items_arr[pad_rk[rows, top]].tolist()
    answers = []
    for row in range(m):
        if risky[row]:
            pool = np.nonzero(pad_d2[row] <= kth2[row])[0]
            ranked = sorted(
                (pad_d2[row, c], int(pad_rk[row, c])) for c in pool
            )[:kk]
            answers.append([(math.sqrt(dd), items[rk]) for dd, rk in ranked])
        else:
            answers.append(list(zip(ed[row], eit[row])))
    return kth2, answers
