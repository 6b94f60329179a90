"""Adaptive choice of h — variance reduction with larger k (paper §3.2.3).

For each tuple ``ti`` returned at rank ``i`` the estimator may use any
top-h cell with ``h ≥ i``.  Larger h flattens the cell-size distribution
(lower variance) but costs more queries per cell.  The paper's rule:
compute ``λ_h(ti)`` — an *upper bound* on the top-h cell measure from
history alone (no queries) — and pick the largest ``h ∈ [2, k]`` with
``λ_h ≤ λ0``, else 1.  A large bound means either the cell is already
big (no variance to win) or the neighbourhood is unexplored (pinning the
cell would be expensive) — both argue for a small h.

``λ_h`` never decreases in h (it adds non-negative piece measures), so
when the top-1 cell's measure ``λ_1`` alone exceeds λ0 no h ≥ 2 can
qualify and the rule settles h = 1 from a level-0 build, without the
level-(k-1) region that yields every ``λ_h``
(see :meth:`AdaptiveHSelector.choose`).

Whatever rule fires, the estimator stays unbiased: Eq. 2 is unbiased for
*any* per-tuple h that does not depend on the current sample point, and
history is strictly past information.

``λ0``: the paper leaves it "pre-determined".  Default here is
``2 × (running mean of cell measures actually observed)``; before any
observation the rule degrades to h = 1.
"""

from __future__ import annotations

from typing import Optional

from ..geometry import Point
from ..obs import registry as _obs
from ..stats import RunningStat
from .config import LrAggConfig
from .voronoi_oracle import FIRST_TAKE, TopHCellOracle

__all__ = ["AdaptiveHSelector"]

#: Relative margin the top-1 exit needs over λ0: a level-0 build may clip
#: the top-1 cell from other planes than the level-(k-1) build, so its
#: measure may differ from that build's ``λ_1`` in the last bits.
_TOP1_MARGIN = 1e-6

# Shared label dicts for the registry hot path (never mutated).
_TOP1 = {"h": "1", "path": "top1"}


class AdaptiveHSelector:
    """Implements Algorithm 4 (Variance-Reduction)."""

    def __init__(self, oracle: TopHCellOracle, k: int, config: LrAggConfig):
        self.oracle = oracle
        self.k = k
        self.config = config
        self._observed = RunningStat()
        # Shared label dicts of the full path, indexed by the chosen h.
        self._full_labels = [{"h": str(h), "path": "full"} for h in range(k + 1)]

    # ------------------------------------------------------------------
    def observe_measure(self, measure: float) -> None:
        """Feed back the measure of every cell actually computed."""
        if measure > 0.0:
            self._observed.push(measure)

    def _lambda0(self) -> Optional[float]:
        if self.config.lambda0 is not None:
            return self.config.lambda0
        if self._observed.n == 0:
            return None
        return 2.0 * self._observed.mean

    # ------------------------------------------------------------------
    def choose(self, t_loc: Point, upto: Optional[int] = None) -> int:
        """h(ti) per Algorithm 4 (1 when adaptivity is off or starved).

        ``upto`` must be the history's size *before the sample* (its
        past-only row prefix): h may depend on the past but not on the
        current sample's answer, otherwise the Eq. 2 unbiasedness
        argument breaks.

        The level-0 history region comes first: when its one piece, the
        top-1 cell, measures more than λ0 (by a relative
        ``_TOP1_MARGIN``), h = 1 is settled, since ``λ_h ≥ λ_1`` for
        every h.  Every other case reads :meth:`history_lambdas`.  The
        exit needs at least k ranked past sites and ``k ≤ FIRST_TAKE``,
        which make the level-(k-1) build clip its level-0 piece from
        planes; otherwise that build may return the whole base as one
        piece whose violated set holds every constraint, and read
        ``λ_1 = 0``.
        Each decision that consults λ counts in the ``repro.obs``
        registry as ``adaptive_h_choices_total{h, path}``, ``path``
        being ``top1`` or ``full``.
        """
        if not self.config.adaptive_h or self.k < 2:
            return min(self.config.h, self.k)
        lambda0 = self._lambda0()
        if lambda0 is None:
            return 1
        if self.k <= FIRST_TAKE:
            top1 = self.oracle.history_region(t_loc, 1, upto)
            # The build starts from min(ranked, FIRST_TAKE) sites and
            # only adds more, so k of its planes mean k ranked sites.
            if len(top1.constraints) >= self.k:
                measure = self.oracle.sampler.measure_polygon
                m0 = sum(measure(poly) for poly in top1.pieces.values())
                if m0 > lambda0 * (1.0 + _TOP1_MARGIN):
                    reg = _obs._active
                    if reg is not None:
                        reg.inc("adaptive_h_choices_total", 1.0, _TOP1)
                    return 1
        lambdas = self.history_lambdas(t_loc, upto)
        best = 1
        for h in range(2, self.k + 1):
            if lambdas[h] <= lambda0:
                best = h
        reg = _obs._active
        if reg is not None:
            reg.inc("adaptive_h_choices_total", 1.0, self._full_labels[best])
        return best

    def history_lambdas(self, t_loc: Point, upto: Optional[int] = None) -> dict[int, float]:
        """``λ_h`` for every h in [1, k] from one history-only region
        (over the history's first ``upto`` rows, all when None).

        One level-(k-1) construction yields all of them: the pieces are
        stratified by how many known sites are closer than ``t``, so
        ``λ_h`` is the measure of pieces with at most ``h - 1`` closer
        sites.  The sum runs lowest level first over non-negative
        measures, so ``λ_h`` never decreases in h, exactly, in floating
        point too.  :meth:`choose` calls this only when its top-1 exit
        does not settle h.
        """
        region = self.oracle.history_region(t_loc, self.k, upto)
        by_level: dict[int, float] = {lvl: 0.0 for lvl in range(self.k)}
        for subset, poly in region.pieces.items():
            by_level[len(subset)] += self.oracle.sampler.measure_polygon(poly)
        out: dict[int, float] = {}
        acc = 0.0
        for h in range(1, self.k + 1):
            acc += by_level.get(h - 1, 0.0)
            out[h] = acc
        return out
