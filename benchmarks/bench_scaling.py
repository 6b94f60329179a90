"""Scaling trajectory: registry worlds × sizes × backends × batch sizes.

Sweeps every ``repro.worlds`` registry scenario across population sizes
(10k → 1M generated tuples), spatial-index backends, and query batch
sizes, and writes the measurements to ``BENCH_scaling.json`` — the
bench trajectory every later perf PR (hierarchical grid, distance-
matrix prominence) is measured against.  Recorded per combination:

* world build time (sampling + tuple synthesis + census raster),
* database construction time down both ingest paths — ``row`` (legacy
  per-tuple ``LbsTuple`` assembly + shredding) vs ``columnar``
  (``synthesize_columns`` → ``SpatialDatabase.from_columns``, the
  default since the columnar core landed) — and their speedup,
* obfuscated-interface build time down both paths — the ``{tid: Point}``
  jitter dict + per-point clamp loop vs one columnar ``(N, 2)`` draw +
  vectorized clip/clamp + array-native index — and their speedup,
* index build time per backend (plus the batch kernels' path split,
  read from a fresh ``repro.obs`` registry around the cell's batch
  loops — the grid's chunked-vs-fallback split and the sharded index's
  settled/escalated routing),
* kNN throughput at each batch size (``1`` = the scalar single-query
  path; larger sizes go through the vectorized ``knn_batch`` kernel in
  chunks of that size).

Backends that cannot sensibly run a size are *skipped and recorded*
(no silent caps): the pure-Python KD-tree build and the O(n)-per-query
brute scan are excluded at 1M.

Runs standalone (``python benchmarks/bench_scaling.py [--quick] [--out
PATH]``) or under pytest (the ``--quick`` CI smoke asserts the sweep's
structure and a modest batched-vs-scalar floor; absolute throughput
regressions are ``bench_query_engine.py``'s job).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import worlds
from repro.api import MaxSamples, Session
from repro.geometry import Point
from repro.index import QueryEngineConfig, make_index, make_index_arrays
from repro.lbs import LnrLbsInterface, ObfuscationModel, SpatialDatabase
from repro.obs import registry as obs
from repro.parallel import WorldCache, run_many_parallel
from repro.worlds.attrs import synthesize_columns, synthesize_tuples

K = 5
#: Query batch sizes: the scalar path, a driver-sized batch, an
#: ingest-sized batch.
BATCH_SIZES = (1, 64, 512)
FULL_SIZES = {"10k": 10_000, "100k": 100_000, "1m": 1_000_000}
QUICK_SIZES = {"10k": 10_000}
#: Per-(backend, size) caps, recorded in the report when they bite.
BACKEND_MAX_N = {"grid": 1_000_000, "sharded": 1_000_000,
                 "kdtree": 100_000, "brute": 100_000}
#: Rough per-query cost ratios used to budget query counts so the full
#: sweep stays in minutes: brute is O(n) per query, the KD-tree batch
#: path just loops the scalar search.
_QUERY_BUDGET = {"grid": 4_000, "sharded": 4_000, "kdtree": 2_000,
                 "brute": 2_000}
#: The CI floor: on every world the grid's batched kernel must beat its
#: own scalar path by this factor at 10k points (a lost batch kernel
#: drops to ~1x; normal runs sit far above).
QUICK_BATCH_FLOOR = 2.0
#: Process fan-out measured at each worker count per sweep cell; the
#: same batch of LR COUNT runs each time, so ``speedup_vs_1`` is pure
#: scaling (every worker count pays the same pool start; forked workers
#: inherit the world, so no call exports it).
PARALLEL_WORKERS = (1, 2, 4)
PARALLEL_RUNS = 4
PARALLEL_SAMPLES = {True: 10, False: 25}
#: World-cache hit (mmap load) vs cold build floors, by size.  At 10k a
#: build is milliseconds and the ratio is noise; no floor there.
CACHE_FLOOR_1M = 5.0
CACHE_FLOOR_100K = 2.0
#: 4 workers vs 1 on the full-scale wechat world — only meaningful on a
#: machine that has the cores, so the assertion is cpu-gated.  The pair
#: is timed apart from the sweep (whose single-shot cells stay
#: recorded): one warm-up call per worker count, then
#: PARALLEL_GATE_ROUNDS interleaved rounds, best round of each side.
PARALLEL_FLOOR_4W = 3.0
PARALLEL_GATE_CELL = ("wechat-like-1m", 1_000_000)
PARALLEL_GATE_ROUNDS = 3
#: GridIndex's batched kernel may drop heavy-tail queries to the exact
#: per-query path; ``index_batch_fallback_total`` makes that visible, and
#: this budget caps the fraction (measured: 0% on paper/clustered at 10k-1M,
#: 0.05% on wechat-like-1m — a regression to per-query search shows up
#: as a jump toward 1.0 long before wall-clock makes it obvious).
GRID_FALLBACK_BUDGET = 0.05
#: Batched kNN over the clustered world must beat its own scalar path
#: by this factor from 100k points up (the 10k cells sit at ~4.7x and
#: stay under the generic QUICK_BATCH_FLOOR instead).  The pair is timed
#: apart from the sweep, as the best of CLUSTERED_GATE_ROUNDS interleaved
#: rounds after one warm-up: at 1M the sweep's single-shot cells read
#: 4.4-10.5x across invocations with no code change, the best of five
#: rounds 5.9-6.3x.
CLUSTERED_BATCH_FLOOR = 5.0
CLUSTERED_GATE_ROUNDS = 5
CLUSTERED_GATE_QUERIES = 4_000
#: The gate's own query stream, so the sweep's streams stay as they were.
CLUSTERED_GATE_SEED = 5
#: Instrumentation must stay free when nobody collects *and* near-free
#: when someone does: grid ``knn_batch`` with an active obs registry may
#: run at most this fraction slower than with registration disabled.
#: The hot path pays a handful of counter increments per batch chunk, so
#: the true cost is well under 1%; the budget leaves room for timer
#: noise.  Each 512-query chunk is timed paused and collecting back to
#: back, over OBS_OVERHEAD_ROUNDS rounds that alternate which goes
#: first, and the gate reads the median of those pairs' ratios.  On
#: unchanged code at 100k (2-CPU host), five runs of the median pair
#: read +0.3% to +0.7%.  A min of 7 whole ~55 ms passes per side read
#: -4.0% to +3.4%, and the summed per-chunk best times of 60 paired
#: rounds -1.1% to +2.0%: host drift alone could fail the gate.
OBS_OVERHEAD_BUDGET = 0.02
OBS_OVERHEAD_N = {True: 100_000, False: 1_000_000}
OBS_OVERHEAD_QUERIES = {True: 4_000, False: 8_000}
OBS_OVERHEAD_ROUNDS = 20
#: The scalar arm (no floor) costs ~5x the batch arm per round.
OBS_SCALAR_ROUNDS = 7

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = _REPO_ROOT / "BENCH_scaling.json"
#: Quick runs default elsewhere so a smoke run (local or the CI step,
#: which uploads this path as its artifact) never clobbers the committed
#: full-scale trajectory.
DEFAULT_QUICK_OUT = _REPO_ROOT / "BENCH_scaling_quick.json"


#: The batch-path split recorded per backend: ``index_<key>_total``.
_BATCH_KEYS = {
    "grid": ("batch_queries", "batch_chunked", "batch_fallback"),
    "sharded": ("batch_queries", "batch_settled", "batch_escalated", "batch_scalar"),
}


def _batch_stats(reg: obs.MetricsRegistry, backend: str) -> dict:
    labels = {"backend": backend}
    return {key: int(reg.get(f"index_{key}_total", labels) or 0)
            for key in _BATCH_KEYS[backend]}


def _uniform_queries(region, nq: int, rng: np.random.Generator) -> list:
    return [
        (float(region.x0 + ux * region.width),
         float(region.y0 + uy * region.height))
        for ux, uy in rng.random((nq, 2))
    ]


def _n_queries(backend: str, n: int, batch: int, quick: bool) -> int:
    budget = _QUERY_BUDGET[backend] // (4 if quick else 1)
    if backend == "brute":
        # O(n) per query: hold point-ops roughly constant across sizes —
        # and the interpreted scalar loop pays ~10x the batch kernel's
        # per-query cost, so it gets a 10x smaller budget.
        ops = 2e7 if batch == 1 else 2e8
        return max(100, min(budget, int(ops / max(n, 1))))
    if backend == "kdtree" and n > 10_000:
        return max(200, budget // 4)
    return budget


def bench_ingest(spec) -> dict:
    """Database construction down both ingest paths, same synthesis
    stream (the `build_seconds` column of the perf trajectory)."""
    timings = {}
    for label in ("row", "columnar"):
        rng, rect, xy, labels = spec.synthesis_inputs()
        gc.collect()  # keep cyclic-gc pauses out of the timed region
        t0 = time.perf_counter()
        if label == "row":
            SpatialDatabase(synthesize_tuples(rng, xy, labels, spec.attrs), rect)
        else:
            SpatialDatabase.from_columns(
                *synthesize_columns(rng, xy, labels, spec.attrs), rect
            )
        timings[label] = time.perf_counter() - t0
    return {
        "db_row_seconds": round(timings["row"], 4),
        "db_columnar_seconds": round(timings["columnar"], 4),
        "ingest_speedup": round(timings["row"] / timings["columnar"], 2),
    }


def bench_obfuscated_build(db) -> dict:
    """Obfuscated-interface build down both paths: one ``(N, 2)`` jitter
    draw + vectorized clip/clamp + array-native index (columnar) vs the
    ``{tid: Point}`` dict, ``region.clamp`` loop, and triple-list index
    it replaced (the ``obfuscated_build_seconds`` trajectory column)."""
    region = db.region
    sigma = 0.01 * max(region.width, region.height)
    model = ObfuscationModel(sigma=sigma, seed=9, clip=2.5 * sigma)

    # Columnar first, so the row path pays its own lazy-tuple
    # materialization rather than inheriting a warm cache.
    gc.collect()
    t0 = time.perf_counter()
    eff = model.effective_coords(db.coords, db.tids)
    eff[:, 0] = np.minimum(np.maximum(eff[:, 0], region.x0), region.x1)
    eff[:, 1] = np.minimum(np.maximum(eff[:, 1], region.y0), region.y1)
    idx_col = make_index_arrays(eff, db.tids, "grid")
    t_col = time.perf_counter() - t0

    gc.collect()
    t0 = time.perf_counter()
    locations = model.effective_locations(db.tuples())
    clamped = {tid: region.clamp(p) for tid, p in locations.items()}
    idx_row = make_index([(p.x, p.y, tid) for tid, p in clamped.items()], "grid")
    t_row = time.perf_counter() - t0

    probe = (region.x0 + 0.37 * region.width, region.y0 + 0.61 * region.height)
    if idx_col.knn(*probe, K) != idx_row.knn(*probe, K):
        raise AssertionError("columnar obfuscated build diverges from the row path")
    return {
        "row": round(t_row, 4),
        "columnar": round(t_col, 4),
        "speedup": round(t_row / t_col, 2),
    }


def bench_world_cache(world, build_s: float) -> dict:
    """Cold build vs store vs mmap-load hit (throwaway cache root)."""
    spec = world.spec
    with tempfile.TemporaryDirectory() as root:
        cache = WorldCache(root)
        t0 = time.perf_counter()
        cache.store(world)
        store_s = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        loaded = cache.load(spec)
        hit_s = time.perf_counter() - t0
        assert loaded is not None and len(loaded.db) == len(world.db)
    return {
        "cold_build": round(build_s, 4),
        "store": round(store_s, 4),
        "hit": round(hit_s, 4),
        "hit_speedup": round(build_s / hit_s, 1),
    }


def _fanout_batch(world, quick: bool) -> tuple[list, MaxSamples]:
    """The batch of LR COUNT runs every fan-out measurement times."""
    base = Session(world).lr(k=5).count()
    specs = [base.seed(s).spec for s in range(PARALLEL_RUNS)]
    return specs, MaxSamples(PARALLEL_SAMPLES[quick])


def bench_parallel_runs(world, quick: bool) -> dict:
    """The same batch of LR COUNT runs at each worker count."""
    specs, until = _fanout_batch(world, quick)
    out: dict = {
        "runs": PARALLEL_RUNS,
        "samples_per_run": PARALLEL_SAMPLES[quick],
        "workers": {},
    }
    baseline = None
    for w in PARALLEL_WORKERS:
        gc.collect()
        t0 = time.perf_counter()
        results = run_many_parallel(specs, until, workers=w, world=world)
        wall = time.perf_counter() - t0
        queries = sum(r.queries for r in results)
        if baseline is None:
            baseline = wall
        out["workers"][str(w)] = {
            "wall_seconds": round(wall, 3),
            "aggregate_qps": round(queries / wall, 1),
            "speedup_vs_1": round(baseline / wall, 2),
        }
    return out


def bench_parallel_gate(world, quick: bool) -> dict:
    """The PARALLEL_FLOOR_4W pair: the sweep's batch of runs at 1 and 4
    workers, one warm-up call each, then interleaved rounds, best round
    of each side (a single shot of each swings with host drift)."""
    specs, until = _fanout_batch(world, quick)
    counts = (1, 4)

    def timed(w: int) -> float:
        gc.collect()
        t0 = time.perf_counter()
        run_many_parallel(specs, until, workers=w, world=world)
        return time.perf_counter() - t0

    for w in counts:
        timed(w)
    rounds: dict[int, list[float]] = {w: [] for w in counts}
    for _ in range(PARALLEL_GATE_ROUNDS):
        for w in counts:
            rounds[w].append(timed(w))
    best = {w: min(walls) for w, walls in rounds.items()}
    return {
        "rounds": PARALLEL_GATE_ROUNDS,
        "round_wall_seconds": {str(w): [round(t, 3) for t in rounds[w]]
                               for w in counts},
        "wall_seconds": {str(w): round(best[w], 3) for w in counts},
        "speedup_4_vs_1": round(best[1] / best[4], 2),
    }


def _paired_overhead(chunks: list, rounds: int) -> tuple[float, float, float]:
    """``(paused_s, collecting_s, overhead)`` of running ``chunks``.

    Each round runs every chunk twice back to back, once with the obs
    registry paused and once collecting, and alternates which of the
    two goes first from chunk to chunk and round to round.  The two
    timings of a pair are milliseconds apart, so host drift moves them
    alike.  ``overhead`` is the median over all pairs of collecting /
    paused, minus one; the seconds are each side's per-chunk best times,
    summed (a pass at its fastest, recorded, not compared).
    """
    for chunk in chunks:
        chunk()  # warm the kernel and allocator before timing either side
    reg = obs.MetricsRegistry()
    times = np.empty((rounds, len(chunks), 2))
    for r in range(rounds):
        gc.collect()
        for i, chunk in enumerate(chunks):
            for collect in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                with obs.collecting(reg) if collect else obs.paused():
                    t0 = time.perf_counter()
                    chunk()
                    times[r, i, collect] = time.perf_counter() - t0
    best = times.min(axis=0).sum(axis=0)
    ratio = float(np.median(times[:, :, 1] / times[:, :, 0]))
    return float(best[0]), float(best[1]), ratio - 1.0


def bench_obs_overhead(quick: bool, rng: np.random.Generator) -> dict:
    """Enabled-vs-disabled cost of the obs registry on the hottest paths.

    Runs the same grid ``knn_batch`` workload, one 512-query chunk at a
    time, with metrics collection paused and active, in back-to-back
    pairs (:func:`_paired_overhead`), and reports the median pair's
    ratio.  ``check_report`` holds ``overhead_frac`` to
    :data:`OBS_OVERHEAD_BUDGET` — the CI gate that keeps
    instrumentation off the perf trajectory.

    The scalar arm times ``LnrLbsInterface.query`` over the same
    distinct points in the same chunks (answer cache off, so every pass
    pays each query), where a collecting registry costs a few labelled
    increments per query; it is recorded as ``scalar_overhead_frac``,
    with no floor.
    """
    n = OBS_OVERHEAD_N[quick]
    spec = worlds.get("wechat-like-1m").with_size(n)
    world = spec.build()
    db = world.db
    region = db.region
    index = make_index_arrays(db.coords, db.tids, "grid")
    nq = OBS_OVERHEAD_QUERIES[quick]
    batch = 512
    queries = _uniform_queries(region, nq, rng)
    batches = [queries[i:i + batch] for i in range(0, nq, batch)]

    api = LnrLbsInterface(
        db, K, engine=QueryEngineConfig(index_backend="grid", cache_size=0),
        index=index,
    )

    def scalar(points: list) -> None:
        for p in points:
            api.query(p)

    t_off, t_on, frac = _paired_overhead(
        [functools.partial(index.knn_batch, b, K) for b in batches],
        OBS_OVERHEAD_ROUNDS)
    s_off, s_on, s_frac = _paired_overhead(
        [functools.partial(scalar, [Point(x, y) for x, y in b]) for b in batches],
        OBS_SCALAR_ROUNDS)
    return {
        "n": n,
        "n_queries": nq,
        "batch": batch,
        "rounds": OBS_OVERHEAD_ROUNDS,
        "scalar_rounds": OBS_SCALAR_ROUNDS,
        "disabled_seconds": round(t_off, 4),
        "enabled_seconds": round(t_on, 4),
        "overhead_frac": round(frac, 4),
        "scalar_disabled_seconds": round(s_off, 4),
        "scalar_enabled_seconds": round(s_on, 4),
        "scalar_overhead_frac": round(s_frac, 4),
    }


def bench_batch_gate(index, region) -> dict:
    """The CLUSTERED_BATCH_FLOOR pair: scalar vs top-batch ``knn`` over
    the same queries, one warm-up, then interleaved rounds, best round
    of each side (a single shot of each swings with host drift)."""
    batch = max(BATCH_SIZES)
    nq = CLUSTERED_GATE_QUERIES
    queries = _uniform_queries(region, nq, np.random.default_rng(CLUSTERED_GATE_SEED))

    def scalar() -> None:
        for x, y in queries:
            index.knn(x, y, K)

    def batched() -> None:
        for i in range(0, nq, batch):
            index.knn_batch(queries[i:i + batch], K)

    def timed(fn) -> float:
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    scalar()
    batched()
    t_scalar = t_batch = float("inf")
    for _ in range(CLUSTERED_GATE_ROUNDS):
        t_scalar = min(t_scalar, timed(scalar))
        t_batch = min(t_batch, timed(batched))
    return {
        "rounds": CLUSTERED_GATE_ROUNDS,
        "n_queries": nq,
        "batch": batch,
        "scalar_qps": round(nq / t_scalar, 1),
        "batch_qps": round(nq / t_batch, 1),
        "ratio": round(t_scalar / t_batch, 2),
    }


def bench_world(name: str, n: int, quick: bool, rng: np.random.Generator) -> dict:
    """One world at one size: build it, then sweep backends × batches."""
    spec = worlds.get(name).with_size(n)
    t0 = time.perf_counter()
    world = spec.build()
    build_s = time.perf_counter() - t0
    region = world.region
    xy = world.db.coords
    tids = world.db.tids

    row = {
        "world": name,
        "n": n,
        "n_visible": len(world.db),
        "world_build_seconds": round(build_s, 4),
        "build_seconds": bench_ingest(spec),
        "backends": {},
        "skipped": [],
    }
    for backend, max_n in BACKEND_MAX_N.items():
        if n > max_n:
            row["skipped"].append({
                "backend": backend,
                "reason": f"{backend} capped at {max_n:,} points "
                          f"(build/query cost is super-linear in wall-clock)",
            })
            continue
        # Collect before every timed region: the row-path builds above
        # (this cell's and earlier cells') leave large dead object
        # populations whose cyclic-gc pauses would otherwise land
        # inside the query timing loops.
        gc.collect()
        t0 = time.perf_counter()
        index = make_index_arrays(xy, tids, backend)
        index_s = time.perf_counter() - t0
        qps: dict[str, float] = {}
        n_queries: dict[str, int] = {}
        # The batch loops' path split, counted in a registry of this
        # cell alone (the sharded index's inner tiles count as "grid").
        # The scalar loop stays outside it: a registry costs each
        # scalar query a counter increment.
        cell = obs.MetricsRegistry()
        for batch in BATCH_SIZES:
            nq = _n_queries(backend, n, batch, quick)
            queries = _uniform_queries(region, nq, rng)
            gc.collect()
            t0 = time.perf_counter()
            if batch == 1:
                for x, y in queries:
                    index.knn(x, y, K)
            else:
                with obs.collecting(cell):
                    for i in range(0, nq, batch):
                        index.knn_batch(queries[i:i + batch], K)
            dt = time.perf_counter() - t0
            qps[str(batch)] = round(nq / dt, 1)
            n_queries[str(batch)] = nq
        outer = obs.active()
        if outer is not None:
            outer.merge(cell)
        entry = {
            "index_build_seconds": round(index_s, 4),
            "n_queries": n_queries,
            "qps": qps,
        }
        if backend in _BATCH_KEYS:
            stats = _batch_stats(cell, backend)
            if backend == "sharded":
                stats["inner"] = _batch_stats(cell, "grid")
                # Tile structure, not counts: the scalar loop builds
                # tiles too, outside the cell registry.
                stats["tiles_per_side"] = index.tiles_per_side
                stats["tiles_built"] = sum(t is not None for t in index._tiles)
                stats["tiles_nonempty"] = int(np.count_nonzero(np.diff(index._starts)))
            entry["stats"] = stats
        if backend == "grid" and name == "paper/clustered" and n >= 100_000:
            entry["batch_gate"] = bench_batch_gate(index, region)
        row["backends"][backend] = entry
    # Last: its row path materializes (and caches) every LbsTuple on
    # world.db, a population the query timings above must never carry.
    row["obfuscated_build_seconds"] = bench_obfuscated_build(world.db)
    # The repro.parallel columns ride after the query timings too: the
    # cache store walks every column and the fan-out forks the (by now
    # tuple-heavy) process — neither may sit inside a timed knn loop.
    row["world_cache_seconds"] = bench_world_cache(world, build_s)
    row["parallel_qps"] = bench_parallel_runs(world, quick)
    if (name, n) == PARALLEL_GATE_CELL:
        row["parallel_gate"] = bench_parallel_gate(world, quick)
    return row


def run_bench(quick: bool = False) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rng = np.random.default_rng(20150810)  # the paper's PVLDB issue date
    results = []
    for name in worlds.names():
        for label, n in sizes.items():
            t0 = time.perf_counter()
            row = bench_world(name, n, quick, rng)
            print(f"  {name:24s} {label:>5s}  "
                  f"build {row['world_build_seconds']:7.2f}s  "
                  f"{len(row['backends'])} backends  "
                  f"({time.perf_counter() - t0:6.1f}s total)")
            results.append(row)
    overhead = bench_obs_overhead(quick, rng)
    print(f"  obs overhead: {overhead['overhead_frac']:+.2%} "
          f"(enabled {overhead['enabled_seconds']}s vs "
          f"disabled {overhead['disabled_seconds']}s, "
          f"grid knn_batch @ {overhead['n']:,} points); scalar LNR query "
          f"{overhead['scalar_overhead_frac']:+.2%} (no floor)")
    return {
        "meta": {
            "k": K,
            "quick": quick,
            "batch_sizes": list(BATCH_SIZES),
            "sizes": sizes,
            "backend_max_n": BACKEND_MAX_N,
            "worlds": worlds.names(),
            "cpu_count": os.cpu_count(),
            "parallel_workers": list(PARALLEL_WORKERS),
        },
        "obs_overhead": overhead,
        "results": results,
    }


def check_report(report: dict) -> None:
    """Structural floor shared by CI and the standalone run."""
    meta = report["meta"]
    world_names = set(meta["worlds"])
    assert len(world_names) >= 6, "registry must offer >= 6 worlds"
    overhead = report["obs_overhead"]
    assert overhead["overhead_frac"] <= OBS_OVERHEAD_BUDGET, (
        f"obs instrumentation costs {overhead['overhead_frac']:+.2%} on the "
        f"grid knn_batch hot path (budget {OBS_OVERHEAD_BUDGET:.0%}) — a "
        f"guard moved off the `reg is None` fast path?"
    )
    seen = {(r["world"], r["n"]) for r in report["results"]}
    for name in world_names:
        for n in meta["sizes"].values():
            assert (name, n) in seen, f"missing sweep cell {name}@{n}"
    for row in report["results"]:
        assert row["backends"], f"{row['world']}@{row['n']}: no backend ran"
        build = row["build_seconds"]
        assert build["db_columnar_seconds"] > 0 and build["db_row_seconds"] > 0
        obf = row["obfuscated_build_seconds"]
        assert obf["row"] > 0 and obf["columnar"] > 0
        if row["n"] >= 100_000:
            # At scale the columnar paths must stay clearly ahead; the
            # hard 5x CI gates live in bench_query_engine.py.
            assert build["ingest_speedup"] >= 2.0, (
                f"{row['world']}@{row['n']}: columnar ingest only "
                f"{build['ingest_speedup']}x the row path"
            )
            assert obf["speedup"] >= 2.0, (
                f"{row['world']}@{row['n']}: columnar obfuscated build only "
                f"{obf['speedup']}x the row path"
            )
        for backend, data in row["backends"].items():
            for batch, qps in data["qps"].items():
                assert qps > 0, f"{row['world']}@{row['n']}:{backend}:{batch}"
        if "grid" in row["backends"]:
            # The clustered regression budget: the batched kernel's
            # per-query fallback must stay a rounding error, or the
            # batch speedups below are quietly rotting.  The split must
            # account for every batched query the sweep ran, or the
            # budget would pass on counts that were never collected.
            grid = row["backends"]["grid"]
            stats = grid["stats"]
            total = stats["batch_queries"]
            ran = sum(nq for b, nq in grid["n_queries"].items() if int(b) > 1)
            assert total == ran, (
                f"{row['world']}@{row['n']}: grid stats count {total} batch "
                f"queries, the sweep ran {ran}"
            )
            assert stats["batch_chunked"] + stats["batch_fallback"] == total, (
                f"{row['world']}@{row['n']}: grid chunked + fallback != "
                f"batch queries ({stats})"
            )
            if total:
                frac = stats["batch_fallback"] / total
                assert frac <= GRID_FALLBACK_BUDGET, (
                    f"{row['world']}@{row['n']}: grid batch kernel fell "
                    f"back to per-query search on {frac:.1%} of queries "
                    f"(budget {GRID_FALLBACK_BUDGET:.0%})"
                )
        if row["n"] == 10_000 and "grid" in row["backends"]:
            g = row["backends"]["grid"]["qps"]
            top_batch = str(max(map(int, g)))
            assert g[top_batch] >= QUICK_BATCH_FLOOR * g["1"], (
                f"{row['world']}: grid batch kernel only "
                f"{g[top_batch] / g['1']:.1f}x its scalar path "
                f"(floor {QUICK_BATCH_FLOOR}x)"
            )
        if (row["world"] == "paper/clustered" and row["n"] >= 100_000
                and "grid" in row["backends"]):
            gate = row["backends"]["grid"]["batch_gate"]
            assert gate["ratio"] >= CLUSTERED_BATCH_FLOOR, (
                f"paper/clustered@{row['n']}: batched kNN only "
                f"{gate['ratio']:.1f}x the scalar path, best of "
                f"{gate['rounds']} rounds (floor {CLUSTERED_BATCH_FLOOR}x)"
            )
        cache = row["world_cache_seconds"]
        assert cache["hit"] > 0 and cache["store"] > 0
        if row["n"] >= 1_000_000:
            floor = CACHE_FLOOR_1M
        elif row["n"] >= 100_000:
            floor = CACHE_FLOOR_100K
        else:
            floor = None  # millisecond builds: the ratio is noise
        if floor is not None:
            assert cache["hit_speedup"] >= floor, (
                f"{row['world']}@{row['n']}: world-cache hit only "
                f"{cache['hit_speedup']}x a cold build (floor {floor}x)"
            )
        par = row["parallel_qps"]["workers"]
        assert set(par) == {str(w) for w in meta["parallel_workers"]}
        for w, entry in par.items():
            assert entry["aggregate_qps"] > 0, (
                f"{row['world']}@{row['n']}: no throughput at {w} workers"
            )
    # Fan-out scaling is only meaningful with the cores to back it: on
    # the full-scale wechat world, 4 workers must clear the floor when
    # the machine has >= 4 CPUs (recorded either way).
    cpus = meta.get("cpu_count") or 1
    if cpus >= 4:
        for row in report["results"]:
            if (row["world"], row["n"]) == PARALLEL_GATE_CELL:
                gate = row["parallel_gate"]
                got = gate["speedup_4_vs_1"]
                assert got >= PARALLEL_FLOOR_4W, (
                    f"wechat-like-1m@{row['n']}: 4 workers only {got}x one "
                    f"worker, best of {gate['rounds']} rounds, on a "
                    f"{cpus}-CPU machine (floor {PARALLEL_FLOOR_4W}x)"
                )


def write_report(report: dict, out: Path) -> None:
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(report['results'])} sweep cells)")


def test_scaling_bench_quick(tmp_path):
    """CI smoke: the quick sweep runs, covers every world, and the grid
    batch kernel clears the floor; the JSON artifact is well-formed.

    Always the quick sweep under pytest — the full 10k/100k/1M sweep is
    the standalone script's job (``python benchmarks/bench_scaling.py``)
    and would turn a minutes-scale figure-benchmark run into a long,
    memory-heavy one if it piggybacked on ``pytest benchmarks/bench_*``.
    """
    report = run_bench(quick=True)
    out = tmp_path / "BENCH_scaling.json"
    write_report(report, out)
    check_report(json.loads(out.read_text()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10k-only sweep with fewer queries (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"output JSON path (default {DEFAULT_OUT}, or "
                             f"{DEFAULT_QUICK_OUT} with --quick)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="collect repro.obs metrics across the sweep and "
                             "write the registry snapshot to this JSON path")
    args = parser.parse_args()
    out = args.out if args.out is not None else (
        DEFAULT_QUICK_OUT if args.quick else DEFAULT_OUT
    )
    if args.metrics_out is not None:
        with obs.collecting() as reg:
            report = run_bench(quick=args.quick)
        args.metrics_out.write_text(
            json.dumps(reg.to_dict(), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.metrics_out} (obs registry snapshot)")
    else:
        report = run_bench(quick=args.quick)
    check_report(report)
    write_report(report, out)
