"""Shared engine for the cost-vs-relative-error figures (14, 15, 16, 17).

Each figure fixes one aggregate and plots, for every algorithm, the query
cost needed to reach each relative-error level.  The paper's headline:
LR-LBS-AGG ≪ LR-LBS-NNO everywhere, with LNR-LBS-AGG in between despite
its blindfolded (rank-only) interface.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import (
    AggregateQuery,
    LnrAggConfig,
    LnrLbsAgg,
    LrAggConfig,
    LrLbsAgg,
    LrLbsNno,
)
from ..lbs import LnrLbsInterface, LrLbsInterface
from ..sampling import PointSampler, UniformSampler
from .harness import DEFAULT_TARGETS, ExperimentTable, World, cost_to_reach

__all__ = ["cost_vs_error_table"]


def cost_vs_error_table(
    title: str,
    world: World,
    query: AggregateQuery,
    truth: float,
    targets: Sequence[float] = DEFAULT_TARGETS,
    n_runs: int = 3,
    max_queries: int = 4000,
    lnr_max_queries: Optional[int] = None,
    k: int = 5,
    sampler: Optional[PointSampler] = None,
    include_lnr: bool = True,
    seed: int = 0,
    batch_size: int = 1,
    workers: int = 1,
) -> ExperimentTable:
    """Build the three-algorithm cost-vs-error table for one aggregate.

    ``batch_size`` routes every estimator's sample loop through the
    vectorized query-batch prefetch (see
    :func:`~repro.experiments.harness.cost_to_reach` for the accounting
    caveat; the default of 1 reproduces the paper's curves exactly).
    ``workers`` runs each algorithm's independent runs on that many
    forked pool workers — the tables are identical at any worker count.
    """
    sampler = sampler if sampler is not None else UniformSampler(world.region)

    def make_nno(s: int):
        return LrLbsNno(LrLbsInterface(world.db, k=k), sampler, query, seed=s)

    def make_lr(s: int):
        return LrLbsAgg(
            LrLbsInterface(world.db, k=k), sampler, query,
            LrAggConfig(adaptive_h=True), seed=s,
        )

    def make_lnr(s: int):
        return LnrLbsAgg(
            LnrLbsInterface(world.db, k=k), sampler, query,
            LnrAggConfig(h=1), seed=s,
        )

    nno = cost_to_reach(make_nno, truth, targets, n_runs, max_queries, seed,
                        batch_size=batch_size, workers=workers)
    lr = cost_to_reach(make_lr, truth, targets, n_runs, max_queries, seed,
                       batch_size=batch_size, workers=workers)
    headers = ["rel. error", "LR-LBS-NNO", "LR-LBS-AGG"]
    lnr = None
    if include_lnr:
        lnr = cost_to_reach(
            make_lnr, truth, targets, n_runs, lnr_max_queries or 4 * max_queries, seed,
            batch_size=batch_size, workers=workers,
        )
        headers.append("LNR-LBS-AGG")

    table = ExperimentTable(
        title=title,
        headers=headers,
        notes="Entries are median queries to stay within the error level "
              "(runs that never reach it are charged the full budget).",
    )
    for t in targets:
        row = [t, nno[t], lr[t]]
        if lnr is not None:
            row.append(lnr[t])
        table.add(*row)
    return table
