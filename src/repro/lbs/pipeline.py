"""The composable query-answering pipeline of a simulated service.

A kNN answer is produced in three stages, each with a scalar and a batch
kernel that return bit-identical results:

1. **Ranking** — a :class:`~repro.lbs.ranking.RankingPolicy` produces the
   top-k ``(distance, tid)`` candidates (Euclidean order or §5.3
   prominence order, over true or obfuscated positions);
2. **Radius truncation** — tuples beyond the service's ``max_radius``
   (§5.3) are cut;
3. **Projection / obfuscated reporting** — each survivor is rendered as a
   :class:`ReturnedTuple`: attributes restricted to what the service
   discloses (``visible_attrs``), locations/distances exposed only by
   location-returning services — and always the *effective* (possibly
   jittered) position, never the hidden truth.

:class:`KnnInterface` composes these into its budget/cache machinery;
capability combinations (prominence × max_radius × obfuscation ×
visible_attrs) all flow through the same three stages, so the batched
hot path never falls back to per-point Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..geometry import Point
from ..obs import registry as _obs
from ..obs.tracing import span as _span
from .ranking import Ranked, RankingPolicy

__all__ = [
    "ReturnedTuple",
    "QueryAnswer",
    "AttributeProjection",
    "AnswerPipeline",
    "truncate_ranked",
]


@dataclass(frozen=True)
class ReturnedTuple:
    """One entry of a kNN answer.

    ``location``/``distance`` are ``None`` for LNR services.  ``attrs``
    exposes the non-spatial attributes the service discloses (name,
    gender, rating, ...).
    """

    rank: int
    tid: int
    attrs: dict
    location: Optional[Point] = None
    distance: Optional[float] = None


@dataclass(frozen=True)
class QueryAnswer:
    """A ranked kNN answer for one query location."""

    query: Point
    results: tuple[ReturnedTuple, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def is_empty(self) -> bool:
        return not self.results

    def tids(self) -> list[int]:
        return [r.tid for r in self.results]

    def top(self) -> Optional[ReturnedTuple]:
        return self.results[0] if self.results else None

    def rank_of(self, tid: int) -> Optional[int]:
        """1-based rank of ``tid`` in this answer, or ``None``."""
        for r in self.results:
            if r.tid == tid:
                return r.rank
        return None

    def contains(self, tid: int) -> bool:
        return self.rank_of(tid) is not None

    def ranked_before(self, a: int, b: int) -> bool:
        """True when tuple ``a`` appears and is ranked above ``b``.

        If ``b`` is absent while ``a`` is present, ``a`` counts as ranked
        before ``b`` (``b`` must then be farther than the k-th answer).
        """
        ra = self.rank_of(a)
        rb = self.rank_of(b)
        if ra is None:
            return False
        return rb is None or ra < rb


def truncate_ranked(ranked: Sequence[Ranked], max_radius: Optional[float]) -> Sequence[Ranked]:
    """The radius-truncation stage (§5.3): cut answers beyond the cap."""
    if max_radius is None:
        return ranked
    return [(d, tid) for d, tid in ranked if d <= max_radius]


class AttributeProjection:
    """The projection / obfuscated-reporting stage.

    Renders ranked ``(distance, tid)`` pairs as the service's public
    answer: attributes filtered to ``visible_attrs``, locations and
    distances exposed only when ``returns_location`` — and the exposed
    location is always the *effective* one (obfuscated services report
    their jittered positions, §6.3).

    Attributes gather straight from the database's typed columns
    (:meth:`SpatialDatabase.gather_attrs`): the batch kernel
    fancy-indexes each column once across the whole batch instead of
    dict-copying per answer entry, and stays bit-identical to the
    scalar stage.  When the stage is built with the row-aligned
    ``coords`` array (true or effective positions), the batch kernel
    gathers exposed locations from it the same way — one fancy-index
    across the batch instead of one mapping lookup per entry.
    """

    def __init__(
        self,
        database,
        locations: dict[int, Point],
        visible_attrs: Optional[tuple[str, ...]],
        returns_location: bool,
        coords=None,
    ):
        self.database = database
        self.locations = locations
        self.visible_attrs = visible_attrs
        self.returns_location = returns_location
        self.coords = coords

    def _render(
        self,
        point: Point,
        ranked: Sequence[Ranked],
        attrs_list: Sequence[dict],
        locs_list: Optional[Sequence[Point]] = None,
    ) -> QueryAnswer:
        if self.returns_location:
            if locs_list is None:
                locations = self.locations
                locs_list = [locations[tid] for _d, tid in ranked]
            results = tuple(
                ReturnedTuple(
                    rank=rank, tid=tid, attrs=attrs,
                    location=loc, distance=d,
                )
                for rank, ((d, tid), attrs, loc) in enumerate(
                    zip(ranked, attrs_list, locs_list), start=1
                )
            )
        else:
            results = tuple(
                ReturnedTuple(rank=rank, tid=tid, attrs=attrs)
                for rank, ((_d, tid), attrs) in enumerate(
                    zip(ranked, attrs_list), start=1
                )
            )
        return QueryAnswer(point, results)

    def report(self, point: Point, ranked: Sequence[Ranked]) -> QueryAnswer:
        attrs_list = self.database.gather_attrs(
            [tid for _d, tid in ranked], self.visible_attrs
        )
        return self._render(point, ranked, attrs_list)

    def report_batch(
        self, points: Sequence[Point], ranked_lists: Sequence[Sequence[Ranked]]
    ) -> list[QueryAnswer]:
        flat = [tid for ranked in ranked_lists for _d, tid in ranked]
        attrs_flat = self.database.gather_attrs(flat, self.visible_attrs)
        locs_flat: Optional[list[Point]] = None
        if self.returns_location and self.coords is not None and flat:
            pos = self.database.row_positions(flat)
            xs = self.coords[pos, 0].tolist()
            ys = self.coords[pos, 1].tolist()
            locs_flat = [Point(x, y) for x, y in zip(xs, ys)]
        out: list[QueryAnswer] = []
        lo = 0
        for point, ranked in zip(points, ranked_lists):
            hi = lo + len(ranked)
            out.append(self._render(
                point, ranked, attrs_flat[lo:hi],
                None if locs_flat is None else locs_flat[lo:hi],
            ))
            lo = hi
        return out


class AnswerPipeline:
    """Ranking → radius truncation → projection, scalar and batched.

    Pure answer computation: budget accounting and the LRU answer cache
    stay in :class:`~repro.lbs.interface.KnnInterface`, which owns one
    pipeline per interface (and one per ``filtered()`` view).
    """

    def __init__(
        self,
        ranking: RankingPolicy,
        k: int,
        max_radius: Optional[float],
        projection: AttributeProjection,
    ):
        self.ranking = ranking
        self.k = k
        self.max_radius = max_radius
        self.projection = projection

    def answer(self, point: Point) -> QueryAnswer:
        reg = _obs._active
        ranked = self.ranking.rank(point, self.k)
        truncated = truncate_ranked(ranked, self.max_radius)
        answer = self.projection.report(point, truncated)
        if reg is not None:
            reg.inc("pipeline_answers_total", 1.0, {"mode": "scalar"})
            reg.inc("pipeline_returned_tuples_total", float(len(truncated)))
            cut = len(ranked) - len(truncated)
            if cut:
                reg.inc("pipeline_truncated_tuples_total", float(cut))
        return answer

    def answer_batch(self, points: Sequence[Point]) -> list[QueryAnswer]:
        reg = _obs._active
        if reg is None:
            ranked_lists = self.ranking.rank_batch(points, self.k)
            return self.projection.report_batch(
                points, [truncate_ranked(r, self.max_radius) for r in ranked_lists]
            )
        # Instrumented path: identical stages, per-stage spans + counters.
        with _span("pipeline.rank_batch"):
            ranked_lists = self.ranking.rank_batch(points, self.k)
        truncated = [truncate_ranked(r, self.max_radius) for r in ranked_lists]
        with _span("pipeline.project_batch"):
            out = self.projection.report_batch(points, truncated)
        reg.inc("pipeline_answers_total", float(len(points)), {"mode": "batch"})
        reg.inc(
            "pipeline_returned_tuples_total",
            float(sum(len(t) for t in truncated)),
        )
        cut = sum(len(r) for r in ranked_lists) - sum(len(t) for t in truncated)
        if cut:
            reg.inc("pipeline_truncated_tuples_total", float(cut))
        return out
