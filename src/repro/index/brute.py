"""Brute-force reference index (test oracle for the smarter backends).

Single-point queries are deliberately plain Python — they *define* the
contract the other backends must match: order by exact squared distance
``dx*dx + dy*dy`` with ties broken by item id, return ``sqrt`` of it.
Both operations are IEEE-754-exact / correctly rounded, so NumPy
reproduces them bit for bit — which is what the batched entry points do:
one vectorized distance matrix per chunk of queries, dramatically faster
than per-query loops on the databases the benchmarks use.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from ..obs import registry as _obs

__all__ = ["BruteForceIndex"]

# Shared label dicts for the registry hot path (never mutated).
_BRUTE_SCALAR = {"backend": "brute", "mode": "scalar"}
_BRUTE_BATCH = {"backend": "brute", "mode": "batch"}

#: Cap on (queries x points) entries materialized per distance matrix.
_CHUNK_ENTRIES = 4_000_000


class BruteForceIndex:
    """O(n) scans with the same tie-breaking contract as the tree/grid."""

    def __init__(self, points: Sequence[tuple[float, float, Hashable]]):
        self._points = [(float(x), float(y), item) for x, y, item in points]
        self._xs = np.array([p[0] for p in self._points], dtype=np.float64)
        self._ys = np.array([p[1] for p in self._points], dtype=np.float64)
        self._items = [p[2] for p in self._points]
        # Items are comparable (the contract requires it for distance
        # ties), but lexsort needs a numeric key: rank them up front.
        try:
            self._id_rank = np.argsort(
                np.argsort(np.array(self._items, dtype=object), kind="stable")
            )
        except TypeError:
            self._id_rank = np.arange(len(self._points))

    @classmethod
    def from_arrays(
        cls, xy: np.ndarray, items: Sequence[Hashable]
    ) -> "BruteForceIndex":
        """Array-native construction (same answers as the triple list)."""
        self = cls.__new__(cls)
        self._xs = np.ascontiguousarray(xy[:, 0], dtype=np.float64)
        self._ys = np.ascontiguousarray(xy[:, 1], dtype=np.float64)
        items_arr = np.asarray(items)
        self._items = items_arr.tolist()
        self._points = list(zip(self._xs.tolist(), self._ys.tolist(), self._items))
        try:
            self._id_rank = np.argsort(np.argsort(items_arr, kind="stable"))
        except TypeError:
            self._id_rank = np.arange(len(self._items))
        return self

    def __len__(self) -> int:
        return len(self._points)

    # ------------------------------------------------------------------
    # Single-point queries (the executable specification)
    # ------------------------------------------------------------------
    def knn(self, x: float, y: float, k: int) -> list[tuple[float, Hashable]]:
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", 1.0, _BRUTE_SCALAR)
        ranked = sorted(
            ((px - x) * (px - x) + (py - y) * (py - y), item)
            for px, py, item in self._points
        )
        return [(math.sqrt(d2), item) for d2, item in ranked[: max(k, 0)]]

    def within_radius(self, x: float, y: float, radius: float) -> list[tuple[float, Hashable]]:
        ranked = sorted(
            ((px - x) * (px - x) + (py - y) * (py - y), item)
            for px, py, item in self._points
        )
        out = []
        for d2, item in ranked:
            d = math.sqrt(d2)
            if d <= radius:
                out.append((d, item))
        return out

    # ------------------------------------------------------------------
    # Batched queries (vectorized)
    # ------------------------------------------------------------------
    def _chunks(self, points: Sequence[tuple[float, float]]):
        n = max(len(self._points), 1)
        step = max(1, _CHUNK_ENTRIES // n)
        pts = [(float(px), float(py)) for px, py in points]
        for i in range(0, len(pts), step):
            chunk = pts[i : i + step]
            qx = np.array([p[0] for p in chunk], dtype=np.float64)
            qy = np.array([p[1] for p in chunk], dtype=np.float64)
            dx = self._xs[None, :] - qx[:, None]
            dy = self._ys[None, :] - qy[:, None]
            yield dx * dx + dy * dy

    def knn_batch(
        self, points: Sequence[tuple[float, float]], k: int
    ) -> list[list[tuple[float, Hashable]]]:
        n = len(self._points)
        if n == 0 or k <= 0:
            return [[] for _ in points]
        reg = _obs._active
        if reg is not None:
            reg.inc("index_queries_total", float(len(points)), _BRUTE_BATCH)
        kk = min(k, n)
        id_rank = self._id_rank
        results: list[list[tuple[float, Hashable]]] = []
        for d2mat in self._chunks(points):
            kth2 = np.partition(d2mat, kk - 1, axis=1)[:, kk - 1]
            for row in range(d2mat.shape[0]):
                d2 = d2mat[row]
                pool = np.nonzero(d2 <= kth2[row])[0]
                order = np.lexsort((id_rank[pool], d2[pool]))[:kk]
                sel = pool[order]
                ed = np.sqrt(d2[sel]).tolist()
                results.append(
                    [(d, self._items[j]) for d, j in zip(ed, sel.tolist())]
                )
        return results

    def range_batch_ids(
        self, points: Sequence[tuple[float, float]], radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(counts, items)``: each point's in-radius item ids in
        :meth:`within_radius` order, concatenated — no distance tuples
        built."""
        sel = []
        for d2mat in self._chunks(points):
            inside = np.sqrt(d2mat) <= radius
            for d2, mask in zip(d2mat, inside):
                pool = np.nonzero(mask)[0]
                sel.append(pool[np.lexsort((self._id_rank[pool], d2[pool]))])
        counts = np.array([s.size for s in sel], dtype=np.int64)
        items = np.empty(int(counts.sum()), dtype=object)
        items[:] = [self._items[j] for s in sel for j in s.tolist()]
        return counts, items
