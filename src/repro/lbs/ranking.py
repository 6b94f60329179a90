"""Ranking policies and location obfuscation for the simulated services.

The answering pipeline's *ranking* stage is pluggable: every policy
implements :class:`RankingPolicy` — top-k for one query point (``rank``)
and for a whole batch (``rank_batch``), with the guarantee that the two
kernels return bit-identical answers.

* :class:`DistanceRanking` — the default Euclidean order, a thin wrapper
  over the interface's spatial index (which already owns exact scalar
  and vectorized kNN kernels).
* :class:`ProminenceRanking` — the Google-Places "prominence" order of
  paper §5.3: a weighted mix of a distance score and a static popularity
  score.  Its batch kernel prunes candidates through the index's
  ``range_batch_ids`` and scores the survivors in one NumPy pass (see
  :meth:`ProminenceRanking.rank_batch` for the exactness argument).

Effective locations differ from true ones when the service obfuscates
(WeChat-style, paper §6.3 "Localization Accuracy"): each tuple gets one
fixed jitter, drawn once, so repeated queries are consistent — which is
exactly what makes localization attacks *almost* work against WeChat and
why Fig. 21 shows a bounded but non-zero error floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..geometry import Point
from ..index import SpatialIndex
from .tuples import LbsTuple

__all__ = [
    "ObfuscationModel",
    "RankingPolicy",
    "DistanceRanking",
    "ProminenceRanking",
]

#: One ranked answer entry: ``(distance, tid)`` — the pair the pipeline's
#: truncation and projection stages consume.
Ranked = tuple[float, int]


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One vectorized splitmix64 mixing round over uint64 arrays.

    Callers pass arrays of ndim >= 1: array uint64 arithmetic wraps
    silently, whereas NumPy warns on overflowing scalar/0-d ops.
    """
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class ObfuscationModel:
    """Fixed per-tuple Gaussian jitter of reported/ranked positions.

    ``sigma`` is the standard deviation (same units as coordinates) and
    ``clip`` an optional hard cap on the displacement norm —
    ``clip=0.0`` is honoured as *zero displacement* (every jitter scales
    to the origin), not as "unclipped".

    Jitter stability — the "drawn once, for good" invariant
    -------------------------------------------------------
    By default jitters are consumed positionally from one RNG stream
    over tid-sorted tuples.  That makes a given *database* reproducible,
    but it is a hazard for derived databases: building an interface
    directly on a ``filtered()``/``subsample()`` database assigns the
    same tuple a *different* jitter than the parent world, because the
    tuple now sits at a different stream position.  (Interface views
    made via :meth:`KnnInterface.filtered` are safe — they inherit the
    parent's realized jitters.)  ``per_tid=True`` opts into deriving
    each jitter from the tuple's tid alone (a counter-based per-tid
    substream), so the invariant holds no matter which subset of the
    world an interface is built over.  The per-tid stream is a
    *different* stream than the default — existing seeds do not
    reproduce, which is why it is opt-in.
    """

    sigma: float
    seed: int = 0
    clip: Optional[float] = None
    per_tid: bool = False

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("obfuscation sigma must be non-negative")
        if self.clip is not None and self.clip < 0.0:
            raise ValueError(
                "obfuscation clip must be non-negative (0.0 means zero "
                "displacement; omit it for unclipped jitter)"
            )

    # ------------------------------------------------------------------
    def _offsets_positional(self, tids: np.ndarray) -> np.ndarray:
        """The historical stream: one (N, 2) draw over tid-sorted rows,
        scattered back to row order."""
        rng = np.random.default_rng(self.seed)
        # One (N, 2) draw.  The generator fills C-order, consuming the
        # stream exactly like the historical per-tuple size-2 draws, so
        # jitters are bit-identical to the pre-vectorization loop
        # (regression-tested against an inline reference in
        # tests/lbs/test_lbs.py).
        drawn = rng.normal(0.0, self.sigma, size=(len(tids), 2))
        if len(tids) <= 1 or bool((tids[1:] > tids[:-1]).all()):
            return drawn  # rows already in tid order (the common case)
        offsets = np.empty_like(drawn)
        offsets[np.argsort(tids)] = drawn
        return offsets

    def _offsets_per_tid(self, tids: np.ndarray) -> np.ndarray:
        """Counter-based per-tid substream: each tuple's jitter is a
        pure function of ``(seed, tid)``, independent of which database
        subset it appears in."""
        t = np.asarray(tids, dtype=np.int64).astype(np.uint64)
        z0 = _splitmix64(np.array([self.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
        h1 = _splitmix64(t ^ z0)
        h2 = _splitmix64(h1 ^ np.uint64(0xD2B74407B1CE6E93))
        # 53-bit uniforms; u1 shifted into (0, 1] so log() is finite.
        u1 = 1.0 - (h1 >> np.uint64(11)) * (2.0 ** -53)
        u2 = (h2 >> np.uint64(11)) * (2.0 ** -53)
        r = self.sigma * np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    def effective_coords(self, coords: np.ndarray, tids: np.ndarray) -> np.ndarray:
        """Jittered positions for a whole coordinate array at once.

        ``coords`` is the database's ``(N, 2)`` array and ``tids`` the
        row-aligned tuple ids; the result is ``(N, 2)`` in the same row
        order.  One vectorized draw, one vectorized clip — and for the
        default (positional) stream the values are bit-identical to the
        dict-building :meth:`effective_locations` path.
        """
        coords = np.asarray(coords, dtype=np.float64)
        tids = np.asarray(tids, dtype=np.int64)
        if self.per_tid:
            offsets = self._offsets_per_tid(tids)
        else:
            offsets = self._offsets_positional(tids)
        if self.clip is not None:
            norms = np.hypot(offsets[:, 0], offsets[:, 1])
            safe = np.where(norms > 0.0, norms, 1.0)
            scale = np.where(norms > self.clip, self.clip / safe, 1.0)
            offsets = offsets * scale[:, None]
        return coords + offsets

    def effective_locations(self, tuples: Sequence[LbsTuple]) -> dict[int, Point]:
        """Dict form of :meth:`effective_coords` over materialized rows
        (kept for tests and small-scale callers; the interface build
        path is array-native)."""
        ordered = sorted(tuples, key=lambda t: t.tid)
        coords = np.array([[t.location.x, t.location.y] for t in ordered])
        coords = coords.reshape(len(ordered), 2)
        tids = np.array([t.tid for t in ordered], dtype=np.int64)
        eff = self.effective_coords(coords, tids)
        return {
            t.tid: Point(float(x), float(y))
            for t, (x, y) in zip(ordered, eff)
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "seed": self.seed,
            "clip": self.clip,
            "per_tid": self.per_tid,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObfuscationModel":
        return cls(
            sigma=data["sigma"],
            seed=data.get("seed", 0),
            clip=data.get("clip"),
            per_tid=data.get("per_tid", False),
        )


@runtime_checkable
class RankingPolicy(Protocol):
    """The pipeline's ranking stage: top-k candidates for query points."""

    def rank(self, point: Point, k: int) -> list[Ranked]:
        """Top-k as ``(distance, tid)`` pairs in service order."""

    def rank_batch(self, points: Sequence[Point], k: int) -> list[list[Ranked]]:
        """Per-point answers, bit-identical to looping :meth:`rank`."""


class DistanceRanking:
    """Euclidean nearest-first order (the default service ranking).

    Delegates both kernels to the spatial index, which realizes the one
    exact metric of :mod:`repro.index.base` — so looped and batched
    answers are bit-identical by construction.
    """

    def __init__(self, index: SpatialIndex):
        self.index = index

    def rank(self, point: Point, k: int) -> list[Ranked]:
        return self.index.knn(point.x, point.y, k)

    def rank_batch(self, points: Sequence[Point], k: int) -> list[list[Ranked]]:
        return self.index.knn_batch([(p.x, p.y) for p in points], k)


class ProminenceRanking:
    """Rank by ``w_d * distance_score + w_s * static_score`` (paper §5.3).

    ``distance_score`` decays linearly from 1 at distance 0 to 0 at
    ``distance_cap`` (and stays 0 beyond — the paper's "0 to tuples more
    than 50 miles away").  ``static_attr`` supplies the popularity score,
    normalized to [0, 1] over ``static_range`` (by default the observed
    attribute range of the database; ``filtered()`` views pass the
    parent's range so a narrowed candidate set keeps the service's fixed
    scoring function).

    Distances use the index contract's exact metric — ``sqrt`` of
    ``dx*dx + dy*dy`` (see :mod:`repro.index.base`) — which is what makes
    the pruned batch kernel bit-identical to the full scalar scan.
    """

    def __init__(
        self,
        tuples: Sequence[LbsTuple],
        locations: dict[int, Point],
        static_attr: str,
        weight_distance: float = 0.5,
        weight_static: float = 0.5,
        distance_cap: float = 50.0,
        static_range: Optional[tuple[float, float]] = None,
        index: Optional[SpatialIndex] = None,
    ):
        tids = np.array(sorted(locations), dtype=np.int64)
        by_tid = {t.tid: t for t in tuples}
        xs = np.array([locations[tid].x for tid in tids])
        ys = np.array([locations[tid].y for tid in tids])
        raw = np.array([float(by_tid[int(tid)].get(static_attr, 0.0)) for tid in tids])
        self._init_arrays(
            tids, xs, ys, raw, static_attr,
            weight_distance, weight_static, distance_cap, static_range, index,
        )

    @classmethod
    def from_database(
        cls,
        database,
        coords: np.ndarray,
        static_attr: str,
        weight_distance: float = 0.5,
        weight_static: float = 0.5,
        distance_cap: float = 50.0,
        static_range: Optional[tuple[float, float]] = None,
        index: Optional[SpatialIndex] = None,
    ) -> "ProminenceRanking":
        """Array-native construction straight off the columnar store.

        ``coords`` is the ``(N, 2)`` *effective* coordinate array
        aligned with ``database`` rows (true positions, or the
        interface's realized jitters).  Static scores gather from the
        database's typed column in one pass — no ``LbsTuple`` rows are
        materialized — and the result is bit-identical to the
        row-materializing constructor.
        """
        tids = database.tids
        coords = np.asarray(coords, dtype=np.float64)
        n = len(tids)
        order = None
        if n > 1 and not bool((tids[1:] > tids[:-1]).all()):
            order = np.argsort(tids)
            tids = tids[order]
            coords = coords[order]
        col = database.column(static_attr)
        if col is None:
            raw = np.zeros(n, dtype=np.float64)
        else:
            values = col.values if order is None else col.values[order]
            if values.dtype == object:
                # Same conversion (and the same failure on
                # non-numeric values) as float(t.get(attr, 0.0)).
                present = (
                    None if col.present is None
                    else (col.present if order is None else col.present[order])
                )
                raw = np.array([
                    float(v) if (present is None or p) else 0.0
                    for v, p in zip(
                        values.tolist(),
                        present.tolist() if present is not None else [True] * n,
                    )
                ])
            else:
                raw = values.astype(np.float64)
                if col.present is not None:
                    present = col.present if order is None else col.present[order]
                    raw = np.where(present, raw, 0.0)
        self = cls.__new__(cls)
        self._init_arrays(
            np.ascontiguousarray(tids), coords[:, 0], coords[:, 1], raw,
            static_attr, weight_distance, weight_static, distance_cap,
            static_range, index,
        )
        return self

    def _init_arrays(
        self,
        tids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        raw: np.ndarray,
        static_attr: str,
        weight_distance: float,
        weight_static: float,
        distance_cap: float,
        static_range: Optional[tuple[float, float]],
        index: Optional[SpatialIndex],
    ) -> None:
        if weight_distance < 0.0 or weight_static < 0.0:
            raise ValueError("prominence weights must be non-negative")
        if distance_cap <= 0.0:
            raise ValueError("distance_cap must be positive")
        self.static_attr = static_attr
        self.tids = tids
        self.xs = xs
        self.ys = ys
        if static_range is None:
            lo = float(raw.min()) if len(raw) else 0.0
            hi = float(raw.max()) if len(raw) else 0.0
        else:
            lo, hi = float(static_range[0]), float(static_range[1])
        self.static_range = (lo, hi)
        spread = hi - lo
        self.static_scores = (raw - lo) / spread if spread > 0 else np.zeros_like(raw)
        self.weight_distance = weight_distance
        self.weight_static = weight_static
        self.distance_cap = distance_cap
        self._index = index
        # All tuples ordered by static-only score (the score of anything
        # beyond the cap), descending, ties by ascending tid — the batch
        # kernel's guaranteed-candidate list.
        self._static_order = np.lexsort(
            (self.tids, -(self.weight_static * self.static_scores))
        )
        # Expected in-cap candidate fraction: when the cap disk covers a
        # sizeable share of the point cloud, range pruning retrieves
        # nearly everything through per-candidate CSR plumbing and loses
        # to the pure-NumPy full scan — fall back past the crossover.
        if len(self.tids):
            span = (float(self.xs.max() - self.xs.min()),
                    float(self.ys.max() - self.ys.min()))
            bbox_area = span[0] * span[1]
            self._cap_fraction = (
                min(1.0, np.pi * distance_cap**2 / bbox_area) if bbox_area > 0 else 1.0
            )
        else:
            self._cap_fraction = 1.0

    #: Entry budget per distance-matrix chunk: chunks of the (m, n)
    #: query × tuple matrix stay ~30 MB of float64 intermediates.
    _MATRIX_CHUNK_ENTRIES = 4_000_000

    #: Cap-area fraction above which ``rank_batch`` switches from CSR
    #: candidate pruning to the chunked full distance matrix.  Measured
    #: on ``paper/places-prominence`` at n=100k (k=10, 1024 uniform
    #: queries, best-of-3; cap sized so the cap disk covers the given
    #: fraction of the bbox — 0.02 of the area is ~8% of a square
    #: region's side):
    #:
    #: ========== =========== ===========
    #: area frac   pruned q/s  matrix q/s
    #: ========== =========== ===========
    #: 0.010       1057        482
    #: 0.015       695         475
    #: 0.020       491         479
    #: 0.025       391         452
    #: 0.040       228         440
    #: 0.094       86          471
    #: 1.000       (—)         471
    #: ========== =========== ===========
    #:
    #: The matrix kernel is flat in cap size (~470-490 q/s; the scalar
    #: full-scan loop it replaced managed ~96-99); pruning decays as the
    #: cap disk grows, so the crossover sits at 0.02.
    _MATRIX_MIN_CAP_FRACTION = 0.02

    # ------------------------------------------------------------------
    def _scores(self, dist: np.ndarray, static: np.ndarray) -> np.ndarray:
        dscore = np.clip(1.0 - dist / self.distance_cap, 0.0, 1.0)
        return self.weight_distance * dscore + self.weight_static * static

    def rank(self, point: Point, k: int) -> list[Ranked]:
        """Top-k as ``(distance, tid)`` pairs ordered by descending score.

        Note the returned pairs still carry the *distance* (the interface
        decides whether to expose it); the ordering is by prominence.
        """
        dx = self.xs - point.x
        dy = self.ys - point.y
        dist = np.sqrt(dx * dx + dy * dy)
        score = self._scores(dist, self.static_scores)
        # Deterministic order: descending score, then ascending tid.
        order = np.lexsort((self.tids, -score))
        top = order[: max(k, 0)]
        return [(float(dist[i]), int(self.tids[i])) for i in top]

    def rank_batch(self, points: Sequence[Point], k: int) -> list[list[Ranked]]:
        """The vectorized kernel: prune, then score in one NumPy pass.

        Exactness: a tuple beyond ``distance_cap`` scores exactly
        ``w_s * static`` (its distance score clips to 0), so any tuple
        that is neither within the cap (``range_batch_ids``) nor among the
        top-k of the static-only order cannot enter the top-k — each of
        those k static-order tuples already beats it (their final score
        only *gains* from ``w_d * dscore >= 0``, and on equal score the
        static order's tid tie-break is the final order's tie-break).
        Scoring the candidate union with the same elementwise IEEE
        operations as :meth:`rank` therefore reproduces the full scan
        bit for bit.
        """
        pts = [(p.x, p.y) for p in points]
        m = len(pts)
        n = int(self.tids.size)
        kk = min(max(k, 0), n)
        if not pts:
            return []
        if kk == 0:
            return [[] for _ in pts]
        if kk >= n or n <= 64:
            # Nothing worth pruning or partitioning — the per-point full
            # scan is already the whole answer.
            return [self.rank(Point(x, y), k) for x, y in pts]
        if self._index is None or self._cap_fraction >= self._MATRIX_MIN_CAP_FRACTION:
            # No index to prune with, or a cap wide enough that
            # "pruning" would gather much of the database through CSR
            # plumbing: the chunked full distance matrix is the faster
            # exact kernel there (see the measured crossover table on
            # _MATRIX_MIN_CAP_FRACTION).
            return self._rank_batch_matrix(pts, kk)

        # Candidate retrieval: everything within the cap (CSR form — no
        # per-candidate tuples), plus the guaranteed static top-k.
        cap_counts, cap_items = self._index.range_batch_ids(pts, self.distance_cap)
        cap_pos = np.searchsorted(self.tids, cap_items.astype(np.int64))
        cap_pt = np.repeat(np.arange(m), cap_counts)
        top_static = self._static_order[:kk]
        # Disjoint union: drop the (few) static-top tuples from the
        # in-cap candidates rather than dedup the concatenation — kk is
        # small, so the membership mask is one cheap broadcast.
        keep = ~(cap_pos[:, None] == top_static[None, :]).any(axis=1)
        flat = np.concatenate([cap_pos[keep], np.tile(top_static, m)])
        pt_ids = np.concatenate([cap_pt[keep], np.repeat(np.arange(m), kk)])
        counts = np.bincount(pt_ids, minlength=m)

        px = np.array([x for x, _y in pts])
        py = np.array([y for _x, y in pts])
        dx = self.xs[flat] - px[pt_ids]
        dy = self.ys[flat] - py[pt_ids]
        dist = np.sqrt(dx * dx + dy * dy)
        score = self._scores(dist, self.static_scores[flat])
        # One global ordering pass: by point, then score desc, then tid.
        order = np.lexsort((self.tids[flat], -score, pt_ids))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        out = []
        for pid in range(m):
            seg = order[offsets[pid] : offsets[pid + 1]][:kk]
            out.append([(float(dist[i]), int(self.tids[flat[i]])) for i in seg])
        return out

    def _rank_batch_matrix(self, pts: list, kk: int) -> list[list[Ranked]]:
        """The gather-bound regime's kernel: a chunked full query × tuple
        distance matrix, one score partition per row.

        When the cap disk covers a sizeable share of the point cloud,
        candidate pruning retrieves nearly everything anyway — so skip
        retrieval and score *everything*, in matrix chunks of
        ``_MATRIX_CHUNK_ENTRIES``.  Each row then needs only an
        ``argpartition`` on the score (O(n) instead of the full-scan
        lexsort's O(n log n)) plus a lexsort over the tiny top pool.

        Exactness: the broadcast subtraction, ``sqrt``, ``clip``, and
        weighted sum are the same elementwise IEEE operations as
        :meth:`rank`; the pool keeps every tuple scoring >= the row's
        ``kk``-th-largest score (float comparison is exact), so the
        top-``kk`` by (score desc, tid asc) lies inside it and the pool
        lexsort reproduces the full-scan order bit for bit.
        """
        n = int(self.tids.size)
        rows = max(1, self._MATRIX_CHUNK_ENTRIES // max(n, 1))
        px = np.array([x for x, _y in pts])
        py = np.array([y for _x, y in pts])
        static = self.static_scores[None, :]
        out: list[list[Ranked]] = []
        for i in range(0, len(pts), rows):
            dx = self.xs[None, :] - px[i : i + rows, None]
            dy = self.ys[None, :] - py[i : i + rows, None]
            dist = np.sqrt(dx * dx + dy * dy)
            score = self._scores(dist, static)
            neg = -score
            kth = np.partition(neg, kk - 1, axis=1)[:, kk - 1]
            for row in range(dist.shape[0]):
                pool = np.nonzero(neg[row] <= kth[row])[0]
                order = np.lexsort((self.tids[pool], neg[row, pool]))
                top = pool[order[:kk]]
                out.append(
                    [(float(dist[row, j]), int(self.tids[j])) for j in top]
                )
        return out
