"""A static 2-D KD-tree.

The LBS simulator answers millions of kNN queries per experiment, so the
index matters.  This is a classic median-split KD-tree over static points,
built once per database, with iterative best-first kNN search and a
radius query.  Ties in distance are broken by item id so the simulated
service is deterministic — the "general position" assumption of the paper
made real.

Like every :class:`~repro.index.base.SpatialIndex` backend, ordering uses
the exact squared distance ``dx*dx + dy*dy`` and answers carry its
``sqrt`` — IEEE-exact operations, bit-identical to the brute-force
oracle and the grid.  The batch entry points just loop: the tree has no
vectorized kernel, which is exactly what the query-engine benchmark uses
as its single-query baseline.

The tree stores ``(x, y, item)`` triples; ``item`` is any hashable id.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Sequence

import numpy as np

from ..obs import registry as _obs

__all__ = ["KdTree"]

# Shared label dict for the registry hot path (never mutated).
_KDTREE_SCALAR = {"backend": "kdtree", "mode": "scalar"}


class _Node:
    __slots__ = ("x", "y", "item", "axis", "left", "right", "min_x", "min_y", "max_x", "max_y")

    def __init__(self, x: float, y: float, item: Hashable, axis: int):
        self.x = x
        self.y = y
        self.item = item
        self.axis = axis
        self.left: _Node | None = None
        self.right: _Node | None = None
        # Bounding box of the subtree, filled in after construction.
        self.min_x = x
        self.min_y = y
        self.max_x = x
        self.max_y = y


class KdTree:
    """Static KD-tree over 2-D points with deterministic tie-breaking."""

    def __init__(self, points: Sequence[tuple[float, float, Hashable]]):
        items = [(float(x), float(y), item) for x, y, item in points]
        self._size = len(items)
        self.root = self._build(items, 0) if items else None

    @classmethod
    def from_arrays(cls, xy: np.ndarray, items: Sequence[Hashable]) -> "KdTree":
        """Array ingest; the tree itself stays node-based, so this just
        adapts (the KD-tree is never auto-picked for large databases)."""
        items_list = items.tolist() if isinstance(items, np.ndarray) else list(items)
        return cls(list(zip(xy[:, 0].tolist(), xy[:, 1].tolist(), items_list)))

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, items: list[tuple[float, float, Hashable]], axis: int) -> _Node:
        items.sort(key=lambda p: p[axis])
        mid = len(items) // 2
        x, y, item = items[mid]
        node = _Node(x, y, item, axis)
        next_axis = 1 - axis
        if items[:mid]:
            node.left = self._build(items[:mid], next_axis)
        if items[mid + 1:]:
            node.right = self._build(items[mid + 1:], next_axis)
        for child in (node.left, node.right):
            if child is not None:
                node.min_x = min(node.min_x, child.min_x)
                node.min_y = min(node.min_y, child.min_y)
                node.max_x = max(node.max_x, child.max_x)
                node.max_y = max(node.max_y, child.max_y)
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(self, x: float, y: float, k: int) -> list[tuple[float, Hashable]]:
        """The ``k`` nearest items, as ``(distance, item)`` sorted by
        ``(distance, item)``.

        Best-first traversal with a max-heap of current candidates; a
        subtree is pruned when its bounding box is farther than the
        current k-th candidate.
        """
        if self.root is None or k <= 0:
            return []
        reg = _obs._active
        if reg is not None:
            # knn_batch loops this method, so scalar counts cover both
            # entry points for the tree (no separate batch kernel).
            reg.inc("index_queries_total", 1.0, _KDTREE_SCALAR)
        # Max-heap via negated keys: worst current candidate on top.
        best: list[tuple[float, object, Hashable]] = []  # (-dist2, neg_item_key, item)
        stack = [self.root]
        while stack:
            node = stack.pop()
            # Prune with relative slack so boundary ties are never lost.
            if len(best) == k and self._box_distance_sq(node, x, y) > -best[0][0] * (1.0 + 1e-9) + 1e-300:
                continue
            ddx = node.x - x
            ddy = node.y - y
            d = ddx * ddx + ddy * ddy
            entry = (-d, _NegKey(node.item), node.item)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            # Visit the near side last (popped first).
            if node.axis == 0:
                near, far = (node.left, node.right) if x < node.x else (node.right, node.left)
            else:
                near, far = (node.left, node.right) if y < node.y else (node.right, node.left)
            if far is not None:
                stack.append(far)
            if near is not None:
                stack.append(near)
        result = [(-nd, item) for nd, _nk, item in best]
        result.sort(key=lambda pair: (pair[0], pair[1]))
        return [(math.sqrt(d2), item) for d2, item in result]

    def within_radius(self, x: float, y: float, radius: float) -> list[tuple[float, Hashable]]:
        """All items within ``radius`` (inclusive), sorted by (distance, item)."""
        if self.root is None or radius < 0.0:
            return []
        r2 = radius * radius * (1.0 + 1e-9) + 1e-300
        out: list[tuple[float, float, Hashable]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if self._box_distance_sq(node, x, y) > r2:
                continue
            ddx = node.x - x
            ddy = node.y - y
            d2 = ddx * ddx + ddy * ddy
            d = math.sqrt(d2)
            if d <= radius:
                out.append((d2, d, node.item))
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        out.sort(key=lambda trip: (trip[0], trip[2]))
        return [(d, item) for _d2, d, item in out]

    # ------------------------------------------------------------------
    # Batched queries — the KD-tree has no vectorized kernel, so these
    # simply satisfy the SpatialIndex protocol by looping; prefer
    # GridIndex / BruteForceIndex when batch throughput matters.
    # ------------------------------------------------------------------
    def knn_batch(
        self, points: Sequence[tuple[float, float]], k: int
    ) -> list[list[tuple[float, Hashable]]]:
        return [self.knn(x, y, k) for x, y in points]

    def range_batch_ids(
        self, points: Sequence[tuple[float, float]], radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(counts, items)``: each point's :meth:`within_radius`
        item ids, concatenated."""
        lists = [self.within_radius(x, y, radius) for x, y in points]
        counts = np.array([len(lst) for lst in lists], dtype=np.int64)
        items = np.empty(int(counts.sum()), dtype=object)
        items[:] = [item for lst in lists for _d, item in lst]
        return counts, items

    @staticmethod
    def _box_distance_sq(node: _Node, x: float, y: float) -> float:
        dx = 0.0
        if x < node.min_x:
            dx = node.min_x - x
        elif x > node.max_x:
            dx = x - node.max_x
        dy = 0.0
        if y < node.min_y:
            dy = node.min_y - y
        elif y > node.max_y:
            dy = y - node.max_y
        return dx * dx + dy * dy


class _NegKey:
    """Wrapper inverting comparison order of item ids.

    The candidate heap keeps the *worst* entry on top.  With distances
    negated, larger tuples are better; for equal distances the smaller
    item id must win the tie, hence ids compare inverted.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_NegKey") -> bool:
        return other.key < self.key

    def __gt__(self, other: "_NegKey") -> bool:
        return other.key > self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _NegKey) and other.key == self.key
