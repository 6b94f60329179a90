"""Observation history shared across samples (paper §3.2.2).

Static LBS answers never change, so everything a query reveals stays
true: tuple locations (LR only), full answers at exact points, and —
crucially for the §3.2.4 lower bound — *known disks*: a query at ``p``
whose k-th (i.e. last) answer lies at distance ρ certifies that every
tuple within ρ of ``p`` was returned, hence is known.  When fewer than k
tuples come back because of a ``max_radius`` service limit, the certified
radius is ``max_radius`` itself.

:class:`ObservationHistory` also routes queries through a cache keyed on
the exact location so repeated Theorem-1 vertex tests are free, which is
legitimate "leveraging history" and is counted the way the paper counts
queries (only network calls cost budget).

The history is split into two views of a batch:

* **draw points now** — :meth:`ObservationHistory.prefetch` pays for a
  whole batch of answers through the interface's vectorized
  ``query_batch`` and *stages* them, without absorbing anything;
* **reveal answers lazily** — :meth:`ObservationHistory.query` consumes
  a staged answer the moment its sample is actually evaluated, only then
  recording what it reveals.

The split makes a batched run's knowledge at every sample identical to
the unbatched run's — which is what lets the LR adaptive-h rule (whose
λ_h signal may only see *past* answers) prefetch batches soundly, and
what makes batched estimates bit-identical to sequential ones.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Mapping
from typing import Iterable, Iterator, Optional

import numpy as np

from ..geometry import Disk, Point, distance
from ..lbs import BudgetExhausted, KnnInterface, QueryAnswer
from ..obs import registry as _obs

__all__ = ["DiskLedger", "ObservationHistory", "SiteRanking", "SiteSet"]

#: Relative slack of the NumPy distance prefilter.  ``np.hypot`` and
#: :func:`~repro.geometry.distance` (``math.hypot``) see the same
#: coordinate differences and agree to a few ulps; a site whose NumPy
#: distance lies within this slack of a threshold is decided by
#: ``distance()`` itself.
_SLACK = 1e-12


class SiteSet(Mapping):
    """Located tuples in first-seen order: a read-only ``tid → Point``
    mapping (paper §3.2.2, "leverage history").

    The same coordinates sit row by row in one growing ``(n, 2)``
    float64 array; a tid keeps the row it was first seen at.  Selection
    (:meth:`ranked`, :meth:`count_closer`) makes one NumPy pass over the
    array, or over a row prefix of it, but only as a prefilter: every
    order and count it returns is what a scan calling
    :func:`~repro.geometry.distance` on each site returns, with ties
    broken by row.  A row prefix ``upto`` is the site set as it stood
    when it held ``upto`` sites.
    """

    def __init__(self):
        self._row: dict[int, int] = {}
        self._tids: list[int] = []
        self._points: list[Point] = []
        self._xy = np.empty((64, 2))

    def __getitem__(self, tid: int) -> Point:
        return self._points[self._row[tid]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._tids)

    def __len__(self) -> int:
        return len(self._tids)

    def row(self, tid, default: Optional[int] = None) -> Optional[int]:
        """The row ``tid`` was first seen at (``default`` if never)."""
        return self._row.get(tid, default)

    def add(self, tid: int, loc: Point) -> None:
        """Append ``tid`` at ``loc``; a tid already present keeps its row."""
        if tid in self._row:
            return
        n = len(self._tids)
        if n == len(self._xy):
            grown = np.empty((2 * n, 2))
            grown[:n] = self._xy
            self._xy = grown
        self._xy[n] = loc
        self._row[tid] = n
        self._tids.append(tid)
        self._points.append(loc)

    def clear(self) -> None:
        self._row.clear()
        self._tids.clear()
        self._points.clear()

    # ------------------------------------------------------------------
    def _approx(self, center: Point, upto: Optional[int]) -> np.ndarray:
        """NumPy distances from ``center`` to rows ``[0, upto)``."""
        xy = self._xy[: len(self) if upto is None else upto]
        return np.hypot(xy[:, 0] - center.x, xy[:, 1] - center.y)

    def ranked(self, center: Point, upto: Optional[int] = None, skip=None) -> "SiteRanking":
        """The sites of rows ``[0, upto)`` at a positive distance from
        ``center``, tid ``skip`` left out, ranked by ``(distance(), row)``."""
        approx = self._approx(center, upto)
        row = self._row.get(skip, len(approx))
        if row < len(approx):
            approx[row] = 0.0  # left out like a site at the centre
        return SiteRanking(self, center, approx)

    def count_closer(self, center: Point, radius: float, skip=None) -> int:
        """Number of sites other than tid ``skip`` with
        ``distance() < radius`` from ``center`` (zero distances count)."""
        approx = self._approx(center, None)
        row = self._row.get(skip)
        if row is not None:
            approx[row] = np.inf
        lo, hi = radius * (1.0 - _SLACK), radius * (1.0 + _SLACK)
        closer = int(np.count_nonzero(approx < lo))
        if np.count_nonzero(approx < hi) == closer:
            return closer
        points = self._points
        band = np.flatnonzero((approx >= lo) & (approx < hi))
        return closer + sum(distance(points[i], center) < radius for i in band.tolist())


class SiteRanking:
    """One centre's ranking of a :class:`SiteSet` row prefix (built by
    :meth:`SiteSet.ranked`): exact answers behind one NumPy pass."""

    def __init__(self, sites: SiteSet, center: Point, approx: np.ndarray):
        self._sites = sites
        self._center = center
        # NumPy distance 0 is exactly distance() 0: those rows, and the
        # left-out one, read inf from here on.
        out = approx == 0.0
        self._len = len(approx) - int(np.count_nonzero(out))
        approx[out] = np.inf
        self._approx = approx

    def __len__(self) -> int:
        return self._len

    def nearest(self, k: int) -> list[tuple[int, Point]]:
        """The first ``k`` ranked sites as ``(tid, Point)`` pairs."""
        k = min(k, self._len)
        if k <= 0:
            return []
        approx = self._approx
        if k < self._len:
            # Every site among the exact first k has a NumPy distance
            # within the slack of the k-th smallest one.
            cut = np.partition(approx, k - 1)[k - 1] * (1.0 + _SLACK)
            rows = np.flatnonzero(approx <= cut)
        else:
            rows = np.flatnonzero(approx < np.inf)
        points, center = self._sites._points, self._center
        ranked = sorted([(distance(points[i], center), i) for i in rows.tolist()])
        tids = self._sites._tids
        return [(tids[i], points[i]) for _d, i in ranked[:k]]

    def count_within(self, radius: float) -> int:
        """Number of ranked sites with ``distance() <= radius``."""
        approx = self._approx
        lo, hi = radius * (1.0 - _SLACK), radius * (1.0 + _SLACK)
        within = int(np.count_nonzero(approx <= lo))
        if np.count_nonzero(approx <= hi) == within:
            return within
        points, center = self._sites._points, self._center
        band = np.flatnonzero((approx > lo) & (approx <= hi))
        return within + sum(distance(points[i], center) <= radius for i in band.tolist())


class DiskLedger:
    """Known (fully observed) disks with a coarse spatial grid for lookup."""

    def __init__(self, cell_size: float):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._buckets: dict[tuple[int, int], list[Disk]] = defaultdict(list)
        self.max_radius = 0.0
        self.count = 0

    def _key(self, p: Point) -> tuple[int, int]:
        return (int(math.floor(p.x / self.cell_size)), int(math.floor(p.y / self.cell_size)))

    def add(self, disk: Disk) -> None:
        if disk.radius <= 0.0:
            return
        self._buckets[self._key(disk.center)].append(disk)
        self.max_radius = max(self.max_radius, disk.radius)
        self.count += 1

    def near(self, center: Point, radius: float) -> list[Disk]:
        """All stored disks that might intersect ``Disk(center, radius)``."""
        reach = radius + self.max_radius
        i0 = int(math.floor((center.x - reach) / self.cell_size))
        i1 = int(math.floor((center.x + reach) / self.cell_size))
        j0 = int(math.floor((center.y - reach) / self.cell_size))
        j1 = int(math.floor((center.y + reach) / self.cell_size))
        out: list[Disk] = []
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for d in self._buckets.get((i, j), ()):
                    if distance(d.center, center) <= radius + d.radius:
                        out.append(d)
        return out


class ObservationHistory:
    """Everything learned from the interface so far."""

    def __init__(self, interface: KnnInterface, enabled: bool = True):
        self.interface = interface
        #: When False the history is wiped after every sample (the
        #: LR-LBS-AGG-0/1 ablation variants).
        self.enabled = enabled
        #: Every located tuple observed, in first-seen order.
        self.locations = SiteSet()
        self.attrs: dict[int, dict] = {}
        region = interface.region
        self.disks = DiskLedger(cell_size=max(region.width, region.height) / 64.0)
        self._cache: dict[tuple[float, float], QueryAnswer] = {}
        #: Paid-for answers not yet revealed (see :meth:`prefetch`).
        self._staged: dict[tuple[float, float], QueryAnswer] = {}

    # ------------------------------------------------------------------
    @property
    def queries_used(self) -> int:
        return self.interface.queries_used

    # ------------------------------------------------------------------
    def query(self, point: Point) -> QueryAnswer:
        """Issue (or replay) a query and absorb everything it reveals.

        A staged answer (paid for by :meth:`prefetch`) is *revealed*
        here: recorded into the history at the moment its sample is
        evaluated, exactly when an unbatched run would have learned it.
        """
        key = (point.x, point.y)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        answer = self._staged.pop(key, None)
        if answer is None:
            answer = self.interface.query(point)
        # Cache under the *queried* point too: the interface's snapped
        # cache may return an answer computed for a nearby exact point
        # (answer.query != point), and record() alone would key only by
        # answer.query — the repeat query would then re-record and pile
        # up duplicate known-disks.
        self._cache[key] = answer
        self.record(answer)
        return answer

    def prefetch(self, points: Iterable[Point]) -> None:
        """Draw-points-now half of the lazy-reveal split.

        Pays for every genuinely new point through one vectorized
        ``query_batch`` call, then stages the answers *without*
        recording them — nothing is revealed until :meth:`query`
        consumes each point.  When the budget cannot cover the whole
        batch, exactly the affordable prefix is queried and staged (the
        answers survive regardless of the interface cache's capacity)
        before :class:`~repro.lbs.BudgetExhausted` is raised — the same
        points a sequential loop would have answered before hitting the
        first unpayable one.
        """
        pts = []
        seen = set()
        for p in points:
            p = Point(*p)
            key = (p.x, p.y)
            if key not in self._cache and key not in self._staged and key not in seen:
                seen.add(key)
                pts.append(p)
        if not pts:
            return
        paid = self.interface.affordable_prefix(pts)
        if paid:
            for p, answer in zip(pts[:paid], self.interface.query_batch(pts[:paid])):
                self._staged[(p.x, p.y)] = answer
        if paid < len(pts):
            raise BudgetExhausted(self.interface.budget.limit)

    def record(self, answer: QueryAnswer) -> None:
        """Absorb an answer obtained elsewhere."""
        self._cache[(answer.query.x, answer.query.y)] = answer
        for r in answer.results:
            self.attrs.setdefault(r.tid, dict(r.attrs))
            if r.location is not None:
                self.locations.add(r.tid, r.location)
        radius = self._certified_radius(answer)
        if radius is not None and radius > 0.0:
            self.disks.add(Disk(answer.query, radius))

    def _certified_radius(self, answer: QueryAnswer) -> Optional[float]:
        """Radius around the query point within which *all* tuples are
        among the returned (None when nothing can be certified)."""
        if not self.interface.nearest_first:
            # Prominence order: neither the k-th distance nor a short
            # answer says anything about which tuples are *near* the
            # query — certifying a disk here would record a falsehood.
            return None
        k = self.interface.k
        max_radius = self.interface.max_radius
        if len(answer.results) < k:
            # Short answer: every tuple within the service radius was
            # returned (only possible under a max_radius limit).
            return max_radius
        last = answer.results[-1]
        if last.distance is not None:
            return last.distance
        return None  # LNR: distances unknown, nothing certified

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: the query points behind every answer.

        One ``[key x, key y, answer x, answer y]`` row per cache entry,
        in insertion order: the key is the requested point and the
        answer point is the query point the answer was computed for —
        they differ when the interface's snapped cache served a
        neighbour's answer.  Answers are a pure function of the service
        and their query point, and everything else the history holds
        (locations, attrs, known disks) is a pure function of the
        answers recorded, so :meth:`load_state_dict` rebuilds it all —
        even the insertion orders a resumed run's geometry code will
        iterate in.

        Staged (paid-but-unrevealed) answers ride along as rows of the
        same kind, so a run paused mid-batch keeps its prefetched
        answers even if the interface's LRU cache would have evicted
        them.
        """
        return {
            "answers": [[x, y, a.query.x, a.query.y] for (x, y), a in self._cache.items()],
            "staged": [[x, y, a.query.x, a.query.y] for (x, y), a in self._staged.items()],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` onto a fresh (empty) history.

        Runs after the interface's own restore.  An answer comes from
        the interface's cache only when it was computed for exactly the
        row's answer point; the rest (evicted entries, a snapped
        neighbour's answer, a disabled cache) are recomputed in one
        batch with instrumentation paused — no budget, no cache
        counters, no fault draw.  The rows are then replayed in order:
        each row whose key an earlier row has not already inserted is
        cached and recorded, exactly as :meth:`query` did.
        """
        rows, staged = state["answers"], state.get("staged", [])
        answers: dict[Point, QueryAnswer] = {}
        missing: list[Point] = []
        for point in dict.fromkeys(Point(ax, ay) for _x, _y, ax, ay in rows + staged):
            answer = self.interface.cached_answer(point)
            if answer is not None and answer.query == point:
                answers[point] = answer
            else:
                missing.append(point)
        with _obs.paused():
            answers.update(zip(missing, self.interface._answer_batch(missing)))
        for x, y, ax, ay in rows:
            if (x, y) not in self._cache:
                answer = answers[Point(ax, ay)]
                self._cache[(x, y)] = answer
                self.record(answer)
        for x, y, ax, ay in staged:
            self._staged[(x, y)] = answers[Point(ax, ay)]

    # ------------------------------------------------------------------
    def reset_sample(self) -> None:
        """Forget everything learned (used between samples when history
        is off).  Staged answers survive: they are paid-for service
        replies, not knowledge — nothing was revealed yet."""
        if not self.enabled:
            self.locations.clear()
            self.attrs.clear()
            self._cache.clear()
            region = self.interface.region
            self.disks = DiskLedger(cell_size=max(region.width, region.height) / 64.0)
