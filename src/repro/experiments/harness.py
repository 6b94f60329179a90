"""Shared machinery for regenerating the paper's figures and tables.

Every ``figNN_*`` / ``table1_*`` module builds on three pieces:

* :func:`poi_world` / :func:`user_world` — deterministic synthetic
  datasets standing in for the paper's enriched OpenStreetMap snapshot
  and the WeChat/Weibo user bases (DESIGN.md §3);
* :func:`cost_to_reach` — the paper's main metric: the query cost after
  which the running estimate stays within a relative-error target
  (median over independent runs, as the paper averages over 25 runs);
* :class:`ExperimentTable` — a printable result table whose rows mirror
  the series the paper plots.

Scale: experiments default to laptop-size databases so the whole suite
(benchmarks included) runs in minutes.  The knobs are explicit — crank
``PoiConfig`` counts and ``n_runs`` up to approach the paper's scale.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.stopping import MaxQueries
from ..datasets import (
    SMALL_BOX,
    CityModel,
    PoiConfig,
    PopulationGrid,
    UserConfig,
    generate_poi_database,
    generate_user_database,
)
from ..geometry import Rect
from ..lbs import SpatialDatabase
from ..obs import registry as _obs
from ..parallel.executor import ParallelRunError, run_pool, serve
from ..stats import EstimationResult

__all__ = [
    "SMALL_BOX",
    "ExperimentTable",
    "World",
    "poi_world",
    "user_world",
    "DEFAULT_TARGETS",
    "cost_to_reach",
    "median_or_none",
]

# SMALL_BOX (the default experiment region) is re-exported from
# repro.datasets, which derives it from the RegionSpec named table.

#: Relative-error targets on the x-axis of Figures 13-17 and 20.
DEFAULT_TARGETS = (0.5, 0.4, 0.3, 0.2, 0.15, 0.1)


@dataclass
class ExperimentTable:
    """A printable experiment result (one per paper figure/table)."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def add(self, *row) -> None:
        self.rows.append(list(row))

    def formatted(self) -> str:
        cells = [self.headers] + [
            [_fmt(c) for c in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.headers))]
        lines = [self.title, "-" * len(self.title)]
        for r, row in enumerate(cells):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def show(self) -> None:
        print(self.formatted())

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


@dataclass
class World:
    """A generated dataset plus its spatial side-information."""

    db: SpatialDatabase
    region: Rect
    city_model: CityModel
    census: PopulationGrid


def poi_world(
    seed: int = 7,
    region: Rect = SMALL_BOX,
    config: Optional[PoiConfig] = None,
    n_cities: int = 15,
    census_noise: float = 0.1,
    base_sigma_fraction: float = 0.05,
    rural_fraction: float = 0.3,
) -> World:
    """The standard POI world of the offline experiments (§6.2).

    Clustering is milder than the continental-US extreme (where top-1
    cells span five orders of magnitude): the 1/p spread drives the
    estimator variance, and the default budgets here are laptop-scale.
    ``base_sigma_fraction``/``rural_fraction`` restore the paper's skew
    when cranked down (see fig11, which does exactly that).
    """
    rng = np.random.default_rng(seed)
    model = CityModel.generate(
        region, n_cities=n_cities, rng=rng,
        base_sigma_fraction=base_sigma_fraction, rural_fraction=rural_fraction,
    )
    if config is None:
        config = PoiConfig(n_restaurants=260, n_schools=160, n_banks=40, n_cafes=40)
    db = generate_poi_database(region, rng, config, model)
    census = PopulationGrid.from_city_model(model, nx=24, ny=18, noise=census_noise, rng=rng)
    return World(db, region, model, census)


def user_world(
    seed: int = 11,
    region: Rect = SMALL_BOX,
    config: Optional[UserConfig] = None,
    n_cities: int = 24,
) -> World:
    """A social-network user world (WeChat / Weibo style, §6.3)."""
    rng = np.random.default_rng(seed)
    model = CityModel.generate(
        region, n_cities=n_cities, rng=rng,
        base_sigma_fraction=0.05, rural_fraction=0.3,
    )
    if config is None:
        config = UserConfig(n_users=400, male_fraction=0.671)
    db = generate_user_database(region, rng, config, model)
    census = PopulationGrid.from_city_model(model, nx=24, ny=18, noise=0.1, rng=rng)
    return World(db, region, model, census)


def _run_estimations(
    make_estimator: Callable[[int], object],
    seeds: Sequence[int],
    max_queries: int,
    batch_size: int,
    workers: int,
) -> list[EstimationResult]:
    """The runs behind :func:`cost_to_reach`, optionally fanned out.

    Runs are fully independent (each owns its seed, interface, and
    budget), so running them on the workers of
    :func:`~repro.parallel.executor.run_pool` changes nothing about any
    single result.  The pool forks, because ``make_estimator`` is
    typically a closure over a built world, which a forked worker
    inherits without pickling.  Platforms without fork (and
    ``workers=1``) run sequentially; results always come back in seed
    order.
    """

    def run_one(s: int) -> EstimationResult:
        return make_estimator(s).run(MaxQueries(max_queries), batch_size=batch_size)

    if workers <= 1 or len(seeds) <= 1 or "fork" not in mp.get_all_start_methods():
        return [run_one(s) for s in seeds]

    def worker_main(conn, collect: bool) -> None:
        serve(conn, collect, lambda _run_index, s, _attempt: run_one(s))

    try:
        return run_pool(mp.get_context("fork"), workers, seeds, worker_main, retries=0)
    except ParallelRunError as exc:
        results = exc.results
    # A seed whose worker died (crash, OOM kill) or raised is rerun
    # here: the run is deterministic and owns nothing shared.  With the
    # parent's registry active, its metrics land directly; a seed that
    # raises again raises its own error.
    reg = _obs._active
    for pos, result in enumerate(results):
        if result is None:
            results[pos] = run_one(seeds[pos])
            if reg is not None:
                reg.inc("runs_recovered_total")
    return results


def cost_to_reach(
    make_estimator: Callable[[int], object],
    truth: float,
    targets: Sequence[float] = DEFAULT_TARGETS,
    n_runs: int = 3,
    max_queries: int = 4000,
    seed: int = 0,
    batch_size: int = 1,
    workers: int = 1,
) -> dict[float, Optional[float]]:
    """Median query cost to *stay* within each relative-error target.

    ``make_estimator(seed)`` must return a fresh estimator exposing the
    uniform driver signature ``run(until, batch_size=...) ->
    EstimationResult`` against a fresh interface (so budgets do not
    leak between runs).  Runs that never reach a target are charged
    ``max_queries`` (a conservative floor — the paper's plots simply
    stop at the budget).

    ``batch_size`` makes hot loops submit query batches through the
    vectorized engine instead of single points.  Since the lazy-reveal
    history split, every evaluated sample contributes exactly what it
    would sequentially; what shifts is payment *timing* — a batch's kNN
    queries are all paid before its first sample is traced, so
    trace-based cost readings run up to ``batch_size`` queries early
    and a query-bound run can stop up to a batch sooner.  Keep the
    default of 1 when reproducing the paper's cost curves exactly; use
    larger batches for throughput studies.

    ``workers`` spreads the independent runs over that many forked
    workers of the pool :func:`~repro.parallel.run_many_parallel` also
    uses (see :func:`_run_estimations`); the medians are identical at
    any worker count.
    """
    per_target: dict[float, list[float]] = {t: [] for t in targets}
    seeds = [seed + 1000 * run for run in range(n_runs)]
    for result in _run_estimations(
        make_estimator, seeds, max_queries, batch_size, workers
    ):
        for target in targets:
            reached = result.queries_to_reach(truth, target)
            per_target[target].append(float(reached) if reached is not None else float(max_queries))
    return {t: median_or_none(v) for t, v in per_target.items()}


def median_or_none(values: Sequence[float]) -> Optional[float]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.median(vals))
