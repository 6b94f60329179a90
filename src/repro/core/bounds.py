"""Upper/lower Voronoi-cell bounds and the Monte-Carlo finish (paper §3.2.4).

During the Theorem-1 refinement loop the tentative region computed from
the observed tuples always *contains* the real (top-h) cell — an upper
bound.  Pinning down the exact cell can cost many further vertex queries
even when the bound is already tight.  The paper's trick: stop refining
and run geometric trials instead.

Sample ``x`` from the query density restricted to the upper-bound region
``V'``; the number of trials ``r`` until ``x`` lands in the *true* cell
satisfies ``E[r] = F(V') / F(V)``, so ``r / F(V')`` is an **unbiased**
estimate of ``1 / p(t)`` — no further refinement needed.

Two query-free short-cuts keep trials cheap:

* *lower-bound hit*: ``x`` is certainly inside the cell when the disk
  around ``x`` through ``t`` is covered by known disks and fewer than h
  observed tuples sit inside it (exact coverage test,
  :func:`repro.geometry.coverage.disk_covered_by_union`);
* otherwise one real query decides membership exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry import Disk, Point, distance
from ..sampling import PointSampler, RestrictedSampler
from .history import ObservationHistory

__all__ = ["LowerBoundTester", "MonteCarloFinish", "McOutcome"]


class LowerBoundTester:
    """Query-free membership certificates for the top-h cell of ``t``."""

    def __init__(self, history: ObservationHistory, t_id: int, t_loc: Point, h: int):
        self.history = history
        self.t_id = t_id
        self.t_loc = t_loc
        self.h = h

    def certainly_inside(self, x: Point) -> bool:
        """True only when ``x ∈ V_h(t)`` is *provable* from history.

        Soundness argument: the known disks jointly certify that every
        tuple inside ``C(x, d(x,t))`` has been observed.  If that disk is
        covered and at most ``h - 1`` observed tuples lie strictly inside
        it, then no tuple — observed or not — can push ``t`` out of the
        top-h at ``x``.
        """
        d_t = distance(x, self.t_loc)
        if d_t <= 0.0:
            return True
        max_radius = self.history.interface.max_radius
        if max_radius is not None and d_t > max_radius:
            return False  # t would not be returned at x at all
        if self.history.locations.count_closer(x, d_t, skip=self.t_id) >= self.h:
            return False
        candidates = self.history.disks.near(x, d_t)
        if not candidates:
            return False
        return _covered(Disk(x, d_t), candidates)


def _covered(target: Disk, disks) -> bool:
    from ..geometry import disk_covered_by_union

    # Slack keeps the test conservative against float noise in radii.
    return disk_covered_by_union(target, disks, slack=1e-9 * max(1.0, target.radius))


@dataclass
class McOutcome:
    """Result of a Monte-Carlo finish."""

    inv_prob: float        #: unbiased estimate of 1 / p(t)
    trials: int            #: geometric trial count r
    queries_spent: int     #: real queries consumed (≤ trials)
    upper_measure: float   #: F(V') of the frozen upper-bound region


class MonteCarloFinish:
    """Geometric-trials estimator over a frozen upper-bound region."""

    def __init__(
        self,
        history: ObservationHistory,
        sampler: PointSampler,
        t_id: int,
        t_loc: Point,
        h: int,
        upper_polygons,
        rng: np.random.Generator,
        max_trials: int = 100_000,
    ):
        self.history = history
        self.sampler = sampler
        self.t_id = t_id
        self.t_loc = t_loc
        self.h = h
        self.rng = rng
        self.max_trials = max_trials
        self.upper_measure = sampler.measure_region(upper_polygons)
        self._restricted: Optional[RestrictedSampler] = (
            sampler.restricted(upper_polygons) if self.upper_measure > 0.0 else None
        )
        self._lower = LowerBoundTester(history, t_id, t_loc, h)

    def run(self) -> McOutcome:
        if self._restricted is None or self.upper_measure <= 0.0:
            raise ValueError("Monte-Carlo finish needs a positive upper-bound measure")
        queries = 0
        for r in range(1, self.max_trials + 1):
            x = self._restricted.sample(self.rng)
            if self._lower.certainly_inside(x):
                return McOutcome(r / self.upper_measure, r, queries, self.upper_measure)
            answer = self.history.query(x)
            queries += 1
            top_h = answer.results[: self.h]
            if any(res.tid == self.t_id for res in top_h):
                return McOutcome(r / self.upper_measure, r, queries, self.upper_measure)
        raise RuntimeError(
            "Monte-Carlo finish exceeded max_trials; upper bound far too loose"
        )
