"""LR-LBS-AGG — unbiased aggregate estimation over LR-LBS (Algorithm 5).

Each *sample* is one random query point ``q`` drawn from the configured
density.  Every returned tuple ``ti`` (rank i) for which the chosen
``h(ti) ≥ i`` contributes ``Q(ti) / p(ti)`` where ``p(ti)`` is the exact
(or MC-estimated, §3.2.4) measure of its top-h Voronoi cell:

    estimate per sample  =  Σ_{ti : i ≤ h(ti)}  Q(ti) · inv_prob(ti)

(the paper's Eq. 2; the printed index condition ``h(ti) ≤ i`` is a typo —
``q`` lies in ``V_h(ti)`` precisely when ``i ≤ h(ti)``, see DESIGN.md).

The sample mean of these contributions is a completely unbiased COUNT or
SUM estimate; AVG is the ratio of the SUM and COUNT streams over shared
samples.  Selection conditions: pass-through conditions should be applied
by handing a ``interface.filtered(...)`` view to this class; post-process
conditions ride along in the :class:`~repro.core.aggregates.AggregateQuery`.

Exact cells are cached across samples (their measure is a fixed quantity;
re-deriving it would waste budget) — another face of "leveraging
history"; MC inv-prob estimates are cached as well, which preserves
unbiasedness because the cached randomness is independent of later sample
indicators.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry import Point
from ..lbs import KnnInterface
from ..sampling import PointSampler
from ..stats import RatioStat, RunningStat, TracePoint
from ._driver import EstimationDriver
from .aggregates import AggregateQuery
from .config import LrAggConfig
from .history import ObservationHistory
from .variance import AdaptiveHSelector
from .voronoi_oracle import TopHCellOracle

__all__ = ["LrLbsAgg"]


class LrLbsAgg(EstimationDriver):
    """The paper's LR-LBS-AGG estimator."""

    kind = "lr"

    def __init__(
        self,
        interface: KnnInterface,
        sampler: PointSampler,
        query: AggregateQuery,
        config: Optional[LrAggConfig] = None,
        seed: int = 0,
    ):
        if not interface.returns_location:
            raise ValueError("LrLbsAgg requires a location-returning interface")
        self.interface = interface
        self.sampler = sampler
        self.query = query
        self.config = config if config is not None else LrAggConfig()
        self.rng = np.random.default_rng(seed)
        self.history = ObservationHistory(interface, enabled=self.config.use_history)
        # The oracle's randomness (MC-bound probes) runs on its own
        # stream: the sample-point stream then advances identically
        # whether points are drawn one at a time or prefetched in
        # batches, which makes batched estimates bit-identical to
        # sequential ones.  (seed=None means entropy-seeded, as for
        # the main stream.)
        self.oracle_rng = np.random.default_rng(
            [seed, 0x0AC1E] if seed is not None else None
        )
        self.oracle = TopHCellOracle(self.history, sampler, self.config, self.oracle_rng)
        self.selector = AdaptiveHSelector(self.oracle, interface.k, self.config)
        self._stat = RunningStat()
        self._ratio = RatioStat()
        self._trace: list[TracePoint] = []
        self._cell_cache: dict[tuple[int, int], float] = {}
        self._h_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _sample_at(self, q: Point) -> tuple[float, float]:
        """Evaluate the sample at a pre-drawn query point."""
        self.history.reset_sample()
        # Past-only snapshot, as a row count of the append-only site set:
        # the adaptive-h rule may not see the current answer (see the
        # unbiasedness note in variance.py).
        past = len(self.history.locations)
        answer = self.history.query(q)
        num = 0.0
        den = 0.0
        if answer.is_empty():
            return num, den  # max-radius miss contributes 0 (§5.3)
        init_radius = self._init_radius(answer)
        for res in answer.results:
            # h per tuple is frozen at first sight (cheap, and the Eq. 2
            # argument only needs h to be independent of future samples).
            h = self._h_cache.get(res.tid)
            if h is None:
                h = self.selector.choose(res.location, past)
                self._h_cache[res.tid] = h
            if res.rank > h:
                continue
            inv_prob = self._inv_prob(res.tid, res.location, h, init_radius)
            num += self.query.numerator(res.attrs, res.location) * inv_prob
            den += self.query.denominator(res.attrs, res.location) * inv_prob
        return num, den

    def _inv_prob(self, tid: int, loc: Point, h: int, init_radius: Optional[float]) -> float:
        key = (tid, h)
        if self.config.use_history and key in self._cell_cache:
            return self._cell_cache[key]
        outcome = self.oracle.compute(tid, loc, h, init_radius)
        if outcome.exact:
            self.selector.observe_measure(outcome.measure)
        if self.config.use_history:
            self._cell_cache[key] = outcome.inv_prob
        return outcome.inv_prob

    def _init_radius(self, answer) -> Optional[float]:
        last = answer.results[-1]
        if last.distance is not None and last.distance > 0.0:
            return self.config.fast_init_factor * last.distance
        if self.interface.max_radius is not None:
            return self.interface.max_radius
        return None

    # ------------------------------------------------------------------
    def _effective_batch_size(self, batch_size: int) -> int:
        """Prefetch is skipped — batches degrade to size 1 — when history
        is off (the ablation variants model an estimator that retains
        nothing, so paying for whole batches up front would distort
        their per-sample cost accounting).  Adaptive h batches soundly:
        the history's lazy-reveal split keeps prefetched answers out of
        the past-only snapshot until each sample is evaluated."""
        if not self.config.use_history:
            return 1
        return batch_size

    # ------------------------------------------------------------------
    def _state_extra(self) -> dict:
        return {
            "history": self.history.state_dict(),
            "h_cache": [[tid, h] for tid, h in self._h_cache.items()],
            "cell_cache": [[tid, h, v] for (tid, h), v in self._cell_cache.items()],
            "selector_observed": self.selector._observed.state_dict(),
            "oracle_rng": self.oracle_rng.bit_generator.state,
        }

    def _load_state_extra(self, state: dict) -> None:
        self.history.load_state_dict(state["history"])
        self._h_cache = {int(tid): int(h) for tid, h in state["h_cache"]}
        self._cell_cache = {(int(tid), int(h)): v for tid, h, v in state["cell_cache"]}
        self.selector._observed = RunningStat.from_state(state["selector_observed"])
        self.oracle_rng.bit_generator.state = state["oracle_rng"]
