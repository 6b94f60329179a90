"""The restrictive public kNN interfaces of simulated LBS.

Two concrete services mirror the paper's taxonomy (§2.1):

* :class:`LrLbsInterface` — *Location-Returned* LBS (Google Maps style):
  each of the top-k answers carries its coordinates and distance.
* :class:`LnrLbsInterface` — *Location-Not-Returned* LBS (WeChat / Sina
  Weibo style): answers are a ranked list of ids plus non-spatial
  attributes; locations and distances are suppressed.

Both honour the common interface limitations: top-k truncation, a shared
:class:`~repro.lbs.budget.QueryBudget`, and an optional maximum coverage
radius ``max_radius`` (§5.3) outside which tuples are never returned.
``filtered`` produces a pass-through-condition view (§5.1) that shares the
parent's budget, exactly like appending ``name=Starbucks`` to an API call.

Answers are computed by a composable
:class:`~repro.lbs.pipeline.AnswerPipeline` — ranking policy
(:class:`~repro.lbs.ranking.DistanceRanking` or
:class:`~repro.lbs.ranking.ProminenceRanking`), radius truncation,
attribute projection — every stage with matching scalar and batch
kernels, so batched answers are bit-identical to looped ones for every
capability combination.  This class keeps what the pipeline does not:
the pluggable query engine (:class:`~repro.index.QueryEngineConfig` —
spatial-index backend, per-interface LRU answer cache where hits cost no
budget, §2.1) and the budget bookkeeping around ``query``/``query_batch``.

The declarative description of an interface — all capabilities as one
frozen JSON value — is :class:`~repro.lbs.spec.InterfaceSpec`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..geometry import Point
from ..index import QueryEngineConfig, make_index_arrays
from ..obs import registry as _obs
from .budget import BudgetExhausted, QueryBudget
from .cache import QueryAnswerCache
from .database import SpatialDatabase
from .pipeline import AnswerPipeline, AttributeProjection, QueryAnswer, ReturnedTuple
from .ranking import DistanceRanking, ObfuscationModel, ProminenceRanking
from .tuples import LbsTuple

__all__ = [
    "ReturnedTuple",
    "QueryAnswer",
    "KnnInterface",
    "LrLbsInterface",
    "LnrLbsInterface",
    "realize_positions",
]

Predicate = Callable[[LbsTuple], bool]


def realize_positions(
    database: SpatialDatabase, obfuscation: ObfuscationModel
) -> np.ndarray:
    """The ``(N, 2)`` positions an obfuscating service ranks with.

    One jitter draw over the coordinate columns, clamped to the service
    region in one vectorized pass: obfuscated positions still live in
    the service's world.  Every interface build and each parallel
    worker's once-per-model draw call this one function, so their
    positions are bit-identical.
    """
    region = database.region
    eff = obfuscation.effective_coords(database.coords, database.tids)
    eff[:, 0] = np.minimum(np.maximum(eff[:, 0], region.x0), region.x1)
    eff[:, 1] = np.minimum(np.maximum(eff[:, 1], region.y0), region.y1)
    return eff


class KnnInterface:
    """Shared implementation of both service flavours."""

    #: Whether answers expose tuple locations/distances.
    returns_location = True

    def __init__(
        self,
        database: SpatialDatabase,
        k: int,
        *,
        budget: Optional[QueryBudget] = None,
        max_radius: Optional[float] = None,
        obfuscation: Optional[ObfuscationModel] = None,
        prominence: Optional[dict] = None,
        visible_attrs: Optional[Sequence[str]] = None,
        engine: Optional[QueryEngineConfig] = None,
        effective_coords: Optional[np.ndarray] = None,
        index: Optional[object] = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.database = database
        self.k = k
        # Reused label dict for the registry hot path (one per interface,
        # never mutated).
        self._obs_labels = {"kind": "lr" if self.returns_location else "lnr"}
        self.budget = budget if budget is not None else QueryBudget(None)
        self.max_radius = max_radius
        self.obfuscation = obfuscation
        self.visible_attrs = tuple(visible_attrs) if visible_attrs is not None else None
        self.engine = engine if engine is not None else QueryEngineConfig()

        if effective_coords is not None:
            # Pre-realized positions as a row-aligned (N, 2) array (a
            # filtered() view inheriting its parent's jitters — the
            # service drew each tuple's jitter once; a narrowed
            # candidate set must not re-roll it).
            eff = np.ascontiguousarray(effective_coords, dtype=np.float64)
            if eff.shape != (len(database), 2):
                raise ValueError(
                    f"effective_coords has shape {eff.shape}, expected "
                    f"({len(database)}, 2)"
                )
            self._eff_xy: Optional[np.ndarray] = eff
        elif obfuscation is not None:
            self._eff_xy = realize_positions(database, obfuscation)
        else:
            # True positions: the database's own coordinate columns.
            self._eff_xy = None
        # Either way, the tid -> Point mapping is a lazy view over the
        # coordinate array — no dict of Points is materialized.
        if self._eff_xy is None:
            self._locations = database.lazy_locations()
            self._locations_identity = True
            coords = database.coords
        else:
            self._locations = database.coord_mapping(self._eff_xy)
            self._locations_identity = False
            coords = self._eff_xy
        if index is not None:
            # Injected pre-built index (the parallel executor builds one
            # per worker and shares it across runs over the same
            # coordinates).  The caller guarantees it was built over
            # exactly ``coords``/``tids`` with this engine's backend —
            # answers are then bit-identical to building it here.
            self._index = index
        else:
            self._index = make_index_arrays(
                coords,
                database.tids,
                self.engine.index_backend,
                auto_brute_max=self.engine.auto_brute_max,
            )
        self._prominence_config = dict(prominence) if prominence is not None else None
        if self._prominence_config is not None:
            ranking = ProminenceRanking.from_database(
                database, coords,
                index=self._index, **self._prominence_config,
            )
        else:
            ranking = DistanceRanking(self._index)
        self.pipeline = AnswerPipeline(
            ranking,
            k,
            max_radius,
            AttributeProjection(
                database, self._locations, self.visible_attrs,
                self.returns_location, coords=coords,
            ),
        )
        region = database.region
        resolution = (
            self.engine.snap_resolution
            if self.engine.snap_resolution is not None
            else QueryAnswerCache.resolution_for(region.width, region.height)
        )
        # Per-interface by design: a filtered() view must never serve the
        # parent's (full-database) answers.
        self._cache = QueryAnswerCache(self.engine.cache_size, resolution)

    # ------------------------------------------------------------------
    @property
    def queries_used(self) -> int:
        return self.budget.used

    @property
    def region(self):
        return self.database.region

    @property
    def ranking(self):
        """The interface's ranking policy (the pipeline's first stage)."""
        return self.pipeline.ranking

    @property
    def nearest_first(self) -> bool:
        """Whether answers are ranked purely by distance.

        The paper's estimators and the history's known-disk
        certification (§3.2.4) rely on this: a prominence-ranked answer
        says nothing about which tuples are *near* the query point.
        """
        return self._prominence_config is None

    def effective_location(self, tid: int) -> Point:
        """The position the service *ranks* with (tests/ground truth only)."""
        return self._locations[tid]

    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> dict:
        """Hit/miss counters of the per-interface answer cache."""
        return self._cache.counters()

    def query(self, point: Point) -> QueryAnswer:
        """Issue one kNN query.

        A cached answer (same snapped location seen before) is returned
        for free — only genuine service calls draw budget, the way the
        paper counts queries (§2.1: the rate limit is on network calls).
        """
        point = Point(*point)
        key = self._cache.key(point.x, point.y)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.budget.spend(1)
        reg = _obs._active
        if reg is not None:
            # Counted exactly at the spend site: spend() raises *before*
            # incrementing on exhaustion, so this counter mirrors
            # budget.used — the acceptance invariant merged snapshots
            # rely on.
            reg.inc("interface_queries_total", 1.0, self._obs_labels)
            reg.inc("interface_answers_total", 1.0, self._obs_labels)
        answer = self._answer(point)
        self._cache.put(key, answer)
        return answer

    def cached_answer(self, point: Point) -> Optional[QueryAnswer]:
        """The cached answer :meth:`query` would return for free, or None.

        A pure probe: no budget, no hit/miss counters, no LRU refresh —
        callers that need to know whether a query would be a genuine
        service call (e.g. the resilience wrapper, which only faults
        network calls) can ask without disturbing anything.
        """
        point = Point(*point)
        return self._cache.peek(self._cache.key(point.x, point.y))

    def query_batch(self, points: Iterable[Point]) -> list[QueryAnswer]:
        """Answer a batch of queries, in order, as one engine call.

        Answers are identical to looping :meth:`query` (regression-tested
        in ``tests/lbs/test_query_cache.py``): cache hits are free,
        duplicate locations within the batch are answered once, and the
        ranking for all misses runs through the pipeline's vectorized
        batch kernels.  If the budget cannot cover every miss, the
        affordable prefix is answered (and cached — those queries *were*
        spent) before :class:`BudgetExhausted` is raised, exactly as a
        sequential loop would behave.
        """
        pts = [Point(*p) for p in points]
        if self._cache.capacity == 0:
            # Cache disabled: every point is a network call, duplicates
            # included — exactly like the loop of query() calls.
            paid = self.budget.affordable(len(pts))
            if paid:
                self.budget.spend(paid)
                reg = _obs._active
                if reg is not None:
                    reg.inc("interface_queries_total", float(paid), self._obs_labels)
                    reg.inc("interface_answers_total", float(paid), self._obs_labels)
                answers = self._answer_batch(pts[:paid])
            else:
                answers = []
            if paid < len(pts):
                raise BudgetExhausted(self.budget.limit)
            return answers
        keys = [self._cache.key(p.x, p.y) for p in pts]
        answers: dict = {}
        missing: list[Point] = []
        missing_keys: list = []
        for p, key in zip(pts, keys):
            if key in answers:
                continue
            hit = self._cache.get(key)
            if hit is not None:
                answers[key] = hit
            else:
                answers[key] = None  # reserve slot, keep first-seen order
                missing.append(p)
                missing_keys.append(key)
        paid = self.budget.affordable(len(missing))
        if paid:
            self.budget.spend(paid)
            reg = _obs._active
            if reg is not None:
                reg.inc("interface_queries_total", float(paid), self._obs_labels)
                reg.inc("interface_answers_total", float(paid), self._obs_labels)
            for p, key, answer in zip(
                missing[:paid], missing_keys[:paid], self._answer_batch(missing[:paid])
            ):
                self._cache.put(key, answer)
                answers[key] = answer
        if paid < len(missing):
            raise BudgetExhausted(self.budget.limit)
        return [answers[key] for key in keys]

    def affordable_prefix(self, points: Iterable[Point]) -> int:
        """How many leading ``points`` :meth:`query_batch` can answer in
        full with the remaining budget.

        Counts genuine misses only (cache hits and within-batch
        duplicates of a hit are free; with the cache disabled every
        point is a network call), without touching the budget, the
        cache order, or its statistics — so callers can pay for exactly
        the affordable prefix and preserve sequential-loop semantics
        even when a batch would overrun the budget.
        """
        pts = [Point(*p) for p in points]
        remaining = self.budget.remaining
        if remaining is None:
            return len(pts)
        n = 0
        misses = 0
        seen: set = set()
        for p in pts:
            if self._cache.capacity == 0:
                cost = 1
            else:
                key = self._cache.key(p.x, p.y)
                cost = 0 if key in seen or self._cache.peek(key) is not None else 1
                seen.add(key)
            if misses + cost > remaining:
                break
            misses += cost
            n += 1
        return n

    def _answer(self, point: Point) -> QueryAnswer:
        """Compute one answer (no budget, no cache — plumbing only)."""
        return self.pipeline.answer(point)

    def _answer_batch(self, points: Sequence[Point]) -> list[QueryAnswer]:
        """Compute answers for many points (no budget, no cache)."""
        return self.pipeline.answer_batch(points)

    # ------------------------------------------------------------------
    def engine_state(self) -> dict:
        """Serializable snapshot of the budget counter and answer cache.

        The cache is stored as the query points of its answers, in LRU
        order: an answer is a pure function of the service and its query
        point, so :meth:`restore_engine_state` recomputes the answers
        instead of reading them back.  Restoring the cache in LRU order
        keeps future cache hits — and therefore the query accounting —
        exactly as they would have been uninterrupted.
        """
        return {
            "budget_used": self.budget.used,
            "cache": [[a.query.x, a.query.y] for a in self._cache.entries()],
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
        }

    def restore_engine_state(self, state: dict) -> None:
        """Restore :meth:`engine_state` onto a freshly built interface.

        The cached answers are recomputed in one :meth:`_answer_batch`
        call with instrumentation paused: the restore spends no budget,
        touches no cache counter and counts nothing in the registry.

        A snapshot missing the required keys (one written by an
        incompatible release) is rejected loudly, like the driver's
        ``load_state``, instead of dying on a bare ``KeyError`` halfway
        through the restore.
        """
        missing = [key for key in ("budget_used", "cache") if key not in state]
        if missing:
            raise ValueError(
                "engine state is missing "
                + ", ".join(repr(k) for k in missing)
                + "; this snapshot was written by an incompatible release "
                "(engine state requires budget_used and cache) — rerun "
                "from the spec instead"
            )
        self.budget.used = state["budget_used"]
        self._cache.clear()
        with _obs.paused():
            answers = self._answer_batch([Point(x, y) for x, y in state["cache"]])
        for answer in answers:
            self._cache.put(self._cache.key(answer.query.x, answer.query.y), answer)
        self._cache.hits = state.get("cache_hits", 0)
        self._cache.misses = state.get("cache_misses", 0)

    # ------------------------------------------------------------------
    def filtered(self, predicate: Predicate) -> "KnnInterface":
        """Pass-through selection-condition view (paper §5.1).

        Runs the kNN over matching tuples only, drawing from the *same*
        budget — like adding a keyword filter to the Places API call.
        The view gets its *own* answer cache (its answers come from a
        different database, so reusing the parent's would serve stale
        results) but shares the engine configuration and every service
        capability: max_radius, obfuscation, visible attributes, and the
        ranking policy — a prominence-ranked service keeps its scoring
        function (including the popularity normalization observed on the
        *full* database), and an obfuscating one keeps the *realized*
        per-tuple jitters (each was drawn once, for good) when a filter
        narrows the candidate set.
        """
        prominence = None
        if self._prominence_config is not None:
            prominence = dict(self._prominence_config)
            prominence["static_range"] = self.pipeline.ranking.static_range
        sub = self.database.filtered(predicate)
        # True (unjittered) positions need no passthrough: the view
        # reads them from its own columns.  Realized jitters do — as a
        # row slice of the parent's effective-coordinate array, no dict
        # is ever built.
        eff = None
        if self._eff_xy is not None:
            eff = np.ascontiguousarray(
                self._eff_xy[self.database.row_positions(sub.tids)]
            )
        view = type(self)(
            sub,
            self.k,
            budget=self.budget,
            max_radius=self.max_radius,
            obfuscation=self.obfuscation,
            prominence=prominence,
            visible_attrs=self.visible_attrs,
            engine=self.engine,
            effective_coords=eff,
        )
        return view


class LrLbsInterface(KnnInterface):
    """Location-Returned LBS (Google Maps / Bing Maps style)."""

    returns_location = True


class LnrLbsInterface(KnnInterface):
    """Location-Not-Returned LBS (WeChat / Sina Weibo style)."""

    returns_location = False
