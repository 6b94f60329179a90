"""Exact (top-h) Voronoi cells through the kNN interface — paper §3.

The centre of the LR-LBS-AGG algorithm.  Given a tuple ``t`` returned by
some query, compute its top-h Voronoi cell *exactly* using nothing but
further kNN queries, per Theorem 1:

    the cell built from a site subset ``D' ∋ t`` equals the true cell
    iff every vertex of that cell answers only tuples of ``D'``.

The refinement loop therefore alternates between (a) building the cell
from all currently known sites and (b) querying its boundary vertices;
any unknown tuple an answer reveals shrinks the cell further, and each
query either confirms a vertex or reveals a tuple, so the loop
terminates.  The generalization to top-h uses the level-region
construction of :mod:`repro.geometry.arrangement` and the top-h prefix
form of the vertex test (a vertex passes iff the first h answers are all
known sites — see the proof in :func:`_vertex_passes`).

All four §3.2 error-reduction techniques plug in here:

* **Fast-Init** (§3.2.1): four fake corner sites bound the initial cell;
  if any fake edge survives to convergence the fakes are dropped and the
  loop resumes — exactness is never compromised.
* **Leverage history** (§3.2.2): the site set starts from every tuple
  location ever observed, not just this sample's.
* **Adaptive h** (§3.2.3): lives in :mod:`repro.core.variance`.
* **MC bounds** (§3.2.4): when successive refinements stop shrinking the
  measure by much, freeze the upper bound and hand over to
  :class:`repro.core.bounds.MonteCarloFinish`.

Max-radius services (§5.3): the base region is additionally clipped by a
regular 256-gon inscribed in the service disk around ``t`` — a documented
``O(1e-4)``-relative approximation (DESIGN.md §5) far below sampling
noise; all vertex tests then stay within service coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry import (
    ConvexPolygon,
    HalfPlane,
    LevelRegion,
    Point,
    Rect,
    bisector_halfplane,
    build_level_region,
    distance,
)
from ..sampling import PointSampler
from .bounds import MonteCarloFinish
from .config import LrAggConfig
from .history import ObservationHistory, SiteSet

__all__ = ["CellOutcome", "TopHCellOracle"]

#: Rounding quantum for "vertex already tested" bookkeeping.
_KEY_QUANTUM = 1e-7

#: Sides of the inscribed polygon approximating the max-radius disk.
_DISK_NGON = 256

#: Nearest sites a region build starts from; its take/needed loop adds
#: more when the region's reach calls for them.
FIRST_TAKE = 24


@dataclass
class CellOutcome:
    """Everything the estimator needs about one computed cell."""

    tid: int
    h: int
    region: LevelRegion
    measure: float          #: F-measure of the final (upper-bound) region
    inv_prob: float         #: unbiased estimate of 1 / p(t)
    exact: bool             #: True when the region is the exact cell
    mc_trials: int = 0


class TopHCellOracle:
    """Computes top-h Voronoi cells of returned tuples via the interface."""

    def __init__(
        self,
        history: ObservationHistory,
        sampler: PointSampler,
        config: LrAggConfig,
        rng: np.random.Generator,
    ):
        self.history = history
        self.sampler = sampler
        self.config = config
        self.rng = rng
        region = sampler.region
        self._base = ConvexPolygon.from_rect(region)
        self._scale = max(region.width, region.height)

    # ------------------------------------------------------------------
    def compute(self, t_id: int, t_loc: Point, h: int, init_radius: Optional[float] = None) -> CellOutcome:
        """Compute the top-h cell of tuple ``t`` (Algorithm 5 inner loop).

        ``init_radius`` seeds the Fast-Init fake box (typically a small
        multiple of the triggering answer's k-th distance).
        """
        cfg = self.config
        history = self.history
        if h > history.interface.k:
            raise ValueError("h cannot exceed the interface k")

        base = self._base_polygon(t_loc)
        # With history on, the cell works on the history's own site set,
        # which its vertex queries grow in place; with it off, on the
        # sites its own queries reveal, in reveal order.
        sites = history.locations if cfg.use_history else SiteSet()
        fakes = self._fake_sites(t_loc, init_radius) if cfg.use_fast_init else {}

        tested_pass: set[tuple[int, int]] = set()
        prev_measure: Optional[float] = None
        region = self._build_region(t_id, t_loc, h, sites, fakes, base)

        for _round in range(cfg.max_refine_rounds):
            new_info = False
            all_passed = True
            for v in region.boundary_vertices():
                key = self._key(v)
                if key in tested_pass:
                    continue
                before = len(sites)
                answer = history.query(v)
                if not cfg.use_history:
                    for res in answer.results:
                        if res.location is not None:
                            sites.add(res.tid, res.location)
                passed = _vertex_passes(answer, h, t_id, sites, before)
                # Recording t itself is no new information.
                if not new_info:
                    new_info = any(
                        res.tid != t_id and sites.row(res.tid, -1) >= before
                        for res in answer.results
                    )
                if passed:
                    tested_pass.add(key)
                else:
                    all_passed = False
            if not new_info and all_passed:
                # Fakes must go when they still shape the cell — including
                # the degenerate case where the fake square misses the
                # base region entirely (tuple outside a sub-region base).
                if fakes and (region.is_empty() or self._has_fake_edge(region)):
                    fakes = {}
                    region = self._build_region(t_id, t_loc, h, sites, fakes, base)
                    continue
                measure = self.sampler.measure_region(region.polygons())
                return CellOutcome(t_id, h, region, measure, _safe_inv(measure), exact=True)

            region = self._build_region(t_id, t_loc, h, sites, fakes, base)

            if cfg.use_mc_bounds and not fakes:
                measure = self.sampler.measure_region(region.polygons())
                if (
                    prev_measure is not None
                    and measure > 0.0
                    and (prev_measure - measure) / measure <= cfg.mc_tightness
                ):
                    mc = MonteCarloFinish(
                        history, self.sampler, t_id, t_loc, h,
                        region.polygons(), self.rng,
                    )
                    out = mc.run()
                    return CellOutcome(
                        t_id, h, region, out.upper_measure, out.inv_prob,
                        exact=False, mc_trials=out.trials,
                    )
                prev_measure = measure

        # Safety valve: refinement budget exceeded — finish with MC, which
        # stays unbiased no matter how loose the upper bound is.
        mc = MonteCarloFinish(
            history, self.sampler, t_id, t_loc, h, region.polygons(), self.rng
        )
        out = mc.run()
        return CellOutcome(
            t_id, h, region, out.upper_measure, out.inv_prob,
            exact=False, mc_trials=out.trials,
        )

    # ------------------------------------------------------------------
    def history_region(self, t_loc: Point, h: int, upto: Optional[int] = None) -> LevelRegion:
        """Upper-bound top-h region from history alone (no queries) —
        the §3.2.3 adaptive-h signal λ_h comes from its piece measures.

        ``upto`` may limit the sites to the history's first ``upto``
        rows, a snapshot of past-only observations: the adaptive-h rule
        must not peek at the current sample's answer or Eq. 2 loses its
        unbiasedness (see lr_agg.py).
        """
        base = self._base_polygon(t_loc)
        return self._build_region(None, t_loc, h, self.history.locations, {}, base, upto)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _base_polygon(self, t_loc: Point) -> ConvexPolygon:
        """Construction base for the cell region.

        When the aggregation region is a sub-box of the service's world
        the tuple may sit *outside* it, and its cell restricted to the
        box can be disconnected.  Expanding the base to cover both the
        box and the tuple restores the star-shapedness (w.r.t. the
        tuple) that makes the subset BFS complete; the sampler's measure
        later clips back to the aggregation region.
        """
        region = self.sampler.region
        base = self._base
        if not region.contains(t_loc):
            margin = max(
                distance(t_loc, Point(x, y))
                for x in (region.x0, region.x1) for y in (region.y0, region.y1)
            ) * 1.01
            expanded = Rect(
                min(region.x0, t_loc.x - margin),
                min(region.y0, t_loc.y - margin),
                max(region.x1, t_loc.x + margin),
                max(region.y1, t_loc.y + margin),
            )
            base = ConvexPolygon.from_rect(expanded)
        max_radius = self.history.interface.max_radius
        if max_radius is None:
            return base
        return base.clip_many(_inscribed_ngon_halfplanes(t_loc, max_radius))

    def _fake_sites(self, t_loc: Point, init_radius: Optional[float]) -> dict:
        r = init_radius if init_radius and init_radius > 0 else self._scale / 50.0
        L = 2.0 * r  # fake sites at 2r put the fake bisectors at distance r
        return {
            ("fake", 0): Point(t_loc.x - L, t_loc.y),
            ("fake", 1): Point(t_loc.x + L, t_loc.y),
            ("fake", 2): Point(t_loc.x, t_loc.y - L),
            ("fake", 3): Point(t_loc.x, t_loc.y + L),
        }

    def _build_region(
        self,
        t_id,
        t_loc: Point,
        h: int,
        sites: SiteSet,
        fakes: dict,
        base: ConvexPolygon,
        upto: Optional[int] = None,
    ) -> LevelRegion:
        """Level region from the *pruned* site set (sound: a site whose
        bisector stays farther from ``t`` than every region vertex cannot
        affect the cell).  Sites come nearest first, ties in first-seen
        order; ``t_id`` and sites at ``t`` itself are left out."""
        ranking = sites.ranked(t_loc, upto, skip=t_id)
        fake_planes = [
            bisector_halfplane(t_loc, loc, label=label) for label, loc in fakes.items()
        ]

        take = min(len(ranking), FIRST_TAKE)
        while True:
            constraints = [
                bisector_halfplane(t_loc, loc, label=tid) for tid, loc in ranking.nearest(take)
            ] + fake_planes
            region = build_level_region(constraints, h - 1, base, seed=t_loc)
            reach = 0.0
            for v in region.boundary_vertices():
                reach = max(reach, distance(v, t_loc))
            needed = ranking.count_within(2.0 * reach + 1e-9)
            if needed <= take or take >= len(ranking):
                return region
            take = min(len(ranking), max(needed, take * 2))

    def _has_fake_edge(self, region: LevelRegion) -> bool:
        return any(
            isinstance(label, tuple) and label and label[0] == "fake"
            for _a, _b, label in region.boundary_edges()
        )

    def _key(self, v: Point) -> tuple[int, int]:
        q = _KEY_QUANTUM * self._scale
        return (round(v.x / q), round(v.y / q))


def _vertex_passes(answer, h: int, t_id, sites: SiteSet, before: int) -> bool:
    """Top-h form of the Theorem-1 vertex test.

    ``D'`` is ``t`` plus every site known before the vertex was
    queried: the rows of ``sites`` below ``before``.

    Claim: if every boundary vertex ``v`` of the cell built from ``D'``
    has its top-h answer contained in ``D'``, the cell is exact.  Proof
    sketch: suppose not — some vertex ``v`` of the ``D'`` cell lies
    outside the true cell, i.e. at least ``h`` tuples of ``D`` are closer
    to ``v`` than ``t``.  The nearest ``h`` of them are the true top-h at
    ``v``; were they all in ``D'``, the ``D'`` cell would already exclude
    ``v`` — contradiction.  Hence some top-h answer at ``v`` is new.
    """
    return all(
        res.tid == t_id or sites.row(res.tid, before) < before
        for res in answer.results[:h]
    )


def _safe_inv(measure: float) -> float:
    if measure <= 0.0:
        raise ArithmeticError("exact cell has zero measure — degenerate geometry")
    return 1.0 / measure


def _inscribed_ngon_halfplanes(center: Point, radius: float, n: int = _DISK_NGON):
    """Half-planes of a regular n-gon inscribed in the disk (§5.3 clip)."""
    planes = []
    apothem = radius * math.cos(math.pi / n)
    for i in range(n):
        theta = 2.0 * math.pi * (i + 0.5) / n
        nx, ny = math.cos(theta), math.sin(theta)
        c = nx * center.x + ny * center.y + apothem
        planes.append(HalfPlane(nx, ny, c, label="service-disk"))
    return planes
