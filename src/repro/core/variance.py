"""Adaptive choice of h — variance reduction with larger k (paper §3.2.3).

For each tuple ``ti`` returned at rank ``i`` the estimator may use any
top-h cell with ``h ≥ i``.  Larger h flattens the cell-size distribution
(lower variance) but costs more queries per cell.  The paper's rule:
compute ``λ_h(ti)`` — an *upper bound* on the top-h cell measure from
history alone (no queries) — and pick the largest ``h ∈ [2, k]`` with
``λ_h ≤ λ0``, else 1.  A large bound means either the cell is already
big (no variance to win) or the neighbourhood is unexplored (pinning the
cell would be expensive) — both argue for a small h.

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
from ..stats import RunningStat
from .config import LrAggConfig
from .voronoi_oracle import TopHCellOracle

__all__ = ["AdaptiveHSelector"]


class AdaptiveHSelector:
    """Implements Algorithm 4 (Variance-Reduction)."""

    def __init__(self, oracle: TopHCellOracle, k: int, config: LrAggConfig):
        self.oracle = oracle
        self.k = k
        self.config = config
        self._observed = RunningStat()

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
        """
        if not self.config.adaptive_h or self.k < 2:
            return min(self.config.h, self.k)
        lambda0 = self._lambda0()
        if lambda0 is None:
            return 1
        lambdas = self.history_lambdas(t_loc, upto)
        best = 1
        for h in range(2, self.k + 1):
            if lambdas[h] <= lambda0:
                best = h
        return best

    def history_lambdas(self, t_loc: Point, upto: Optional[int] = None) -> dict[int, float]:
        """``λ_h`` for every h in [1, k] from one history-only region
        (over the history's first ``upto`` rows, all when None).

        One level-(k-1) construction yields all of them: the pieces are
        stratified by how many known sites are closer than ``t``, so
        ``λ_h`` is the measure of pieces with at most ``h - 1`` closer
        sites.
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
