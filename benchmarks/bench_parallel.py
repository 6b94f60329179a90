"""Perf smoke for ``repro.parallel``: world cache and process fan-out.

Two floors, measured over the ``wechat-like-1m`` registry scenario (the
paper's largest surface):

* **World cache** — a :class:`repro.parallel.WorldCache` hit (mmap-load
  of the stored arrays) must beat a cold ``WorldSpec.build`` by
  ``CACHE_FLOOR``x.  Unconditional: the cache's whole point is that a
  load is dramatically cheaper than regenerating the world, on any
  machine.
* **Parallel fan-out** — :func:`repro.parallel.run_many_parallel` at 2
  workers must finish the same batch of runs ``PARALLEL_FLOOR``x faster
  than at 1 worker (both pay the same pool start, and forked workers
  inherit the world, so neither exports it: this is pure scaling).  One
  warm-up call per worker count comes first (its
  ratio is recorded as the cold ratio, not asserted), then
  ``PARALLEL_ROUNDS`` interleaved rounds; the floor holds the ratio of
  the best round times.  Conditional on the machine actually having the
  cores: on fewer than 2 CPUs the measurement is recorded but not
  asserted.
* **Resilience** — one run driven through injected interface faults
  (:class:`repro.resilience.FaultSpec` + retry) must produce the exact
  result of the fault-free run (bit-identity is the assertion; the
  fault-path wall-clock ratio is recorded, not asserted — retries are
  ``sleep=False`` so the cost is pure re-draw work).

Runs standalone (``python benchmarks/bench_parallel.py [--quick] [--out
PATH]``) or under pytest (always the quick load — the CI smoke uploads
the JSON as an artifact).  The full mode runs the 1M world and adds a
4-worker point; the committed full-scale trajectory lives in
``BENCH_scaling.json`` (this file is the gate, that one is the record).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import MaxSamples, Session
from repro.obs import MetricsRegistry
from repro.obs import registry as obs
from repro.parallel import WorldCache, run_many_parallel
from repro.resilience import FaultSpec, RetryPolicy
from repro import worlds

WORLD = "wechat-like-1m"
QUICK_N = 100_000
FULL_N = 1_000_000
RUNS = 6
#: Per-run stopping rule: long enough that per-sample estimation work
#: dominates the fixed fork/index overhead of a launch.
SAMPLES = {True: 40, False: 80}
WORKER_COUNTS = {True: (1, 2), False: (1, 2, 4)}
#: A cache hit mmap-loads arrays; even a small world clears 5x.
CACHE_FLOOR = 5.0
#: 2 workers vs 1, same machinery both sides, best round against best
#: round (asserted when the machine has >= 2 CPUs).
PARALLEL_FLOOR = 1.6
#: Timed rounds after the warm-up; each round runs every worker count
#: once, so drift hits all of them alike.
PARALLEL_ROUNDS = 3

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = _REPO_ROOT / "BENCH_parallel.json"
DEFAULT_QUICK_OUT = _REPO_ROOT / "BENCH_parallel_quick.json"


def bench_world_cache(spec) -> dict:
    """Cold build vs store vs mmap-load hit, in a throwaway cache root."""
    gc.collect()
    t0 = time.perf_counter()
    world = spec.build()
    cold = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as root:
        cache = WorldCache(root)
        t0 = time.perf_counter()
        cache.store(world)
        store = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        loaded = cache.load(spec)
        hit = time.perf_counter() - t0
        assert loaded is not None and len(loaded.db) == len(world.db)
    return {
        "cold_build_seconds": round(cold, 4),
        "store_seconds": round(store, 4),
        "hit_seconds": round(hit, 4),
        "hit_speedup": round(cold / hit, 1),
    }


def bench_parallel(spec, quick: bool) -> dict:
    """The same batch of runs at each worker count: one warm-up call per
    count, then ``PARALLEL_ROUNDS`` interleaved rounds.

    ``speedup_vs_1`` compares best round times; ``cold_speedup_vs_1``
    records the warm-up calls' ratio (first fork, cold caches).
    """
    world = spec.build()
    base = Session(world).lr(k=5).count()
    specs = [base.seed(s).spec for s in range(RUNS)]
    until = MaxSamples(SAMPLES[quick])
    counts = WORKER_COUNTS[quick]

    def timed(w: int) -> tuple[float, int]:
        gc.collect()
        t0 = time.perf_counter()
        results = run_many_parallel(specs, until, workers=w, world=world)
        return time.perf_counter() - t0, sum(r.queries for r in results)

    cold = {w: timed(w)[0] for w in counts}
    rounds: dict[int, list[float]] = {w: [] for w in counts}
    queries = {}
    for _ in range(PARALLEL_ROUNDS):
        for w in counts:
            wall, queries[w] = timed(w)
            rounds[w].append(wall)
    best = {w: min(walls) for w, walls in rounds.items()}
    out: dict = {
        "runs": RUNS,
        "samples_per_run": SAMPLES[quick],
        "rounds": PARALLEL_ROUNDS,
        "workers": {},
    }
    for w in counts:
        out["workers"][str(w)] = {
            "wall_seconds": round(best[w], 3),
            "round_wall_seconds": [round(t, 3) for t in rounds[w]],
            "cold_wall_seconds": round(cold[w], 3),
            "total_queries": queries[w],
            "aggregate_qps": round(queries[w] / best[w], 1),
            "speedup_vs_1": round(best[counts[0]] / best[w], 2),
            "cold_speedup_vs_1": round(cold[counts[0]] / cold[w], 2),
        }
    return out


def bench_resilience(spec, quick: bool) -> dict:
    """One run through injected faults vs the same run fault-free.

    The gate is bit-identity (estimate/queries/trace equal exactly);
    the wall-clock ratio is informational — ``sleep=False`` retries
    cost only the re-drawn fault stream, not real backoff time.
    """
    world = spec.build()
    until = MaxSamples(SAMPLES[quick])
    base = Session(world).lr(k=5).count().seed(0)
    faulty = base.resilience(
        fault=FaultSpec(timeout_rate=0.05, rate_limit_rate=0.03,
                        drop_rate=0.02, seed=23),
        retry=RetryPolicy(max_attempts=10),
    )
    gc.collect()
    t0 = time.perf_counter()
    plain = base.run(until)
    plain_wall = time.perf_counter() - t0
    gc.collect()
    reg = MetricsRegistry()
    t0 = time.perf_counter()
    with obs.collecting(reg):
        recovered = faulty.run(until)
    faulty_wall = time.perf_counter() - t0
    return {
        "samples": SAMPLES[quick],
        "plain_wall_seconds": round(plain_wall, 3),
        "faulty_wall_seconds": round(faulty_wall, 3),
        "faulty_over_plain": round(faulty_wall / plain_wall, 2),
        "faults_injected": int(reg.total("faults_injected_total")),
        "retries": int(reg.total("retries_total")),
        "bit_identical": (recovered.estimate == plain.estimate
                          and recovered.queries == plain.queries
                          and recovered.trace == plain.trace),
    }


def run_bench(quick: bool = False) -> dict:
    n = QUICK_N if quick else FULL_N
    spec = worlds.get(WORLD).with_size(n)
    print(f"  {WORLD}@{n:,}: world cache ...")
    cache_row = bench_world_cache(spec)
    print(f"    cold {cache_row['cold_build_seconds']}s  "
          f"hit {cache_row['hit_seconds']}s  "
          f"({cache_row['hit_speedup']}x)")
    print(f"  {WORLD}@{n:,}: parallel fan-out ...")
    par_row = bench_parallel(spec, quick)
    for w, e in par_row["workers"].items():
        print(f"    workers={w}: best {e['wall_seconds']}s of "
              f"{e['round_wall_seconds']}  {e['aggregate_qps']} q/s  "
              f"({e['speedup_vs_1']}x; cold {e['cold_wall_seconds']}s, "
              f"{e['cold_speedup_vs_1']}x)")
    print(f"  {WORLD}@{n:,}: resilience (faulty vs fault-free run) ...")
    res_row = bench_resilience(spec, quick)
    print(f"    plain {res_row['plain_wall_seconds']}s  "
          f"faulty {res_row['faulty_wall_seconds']}s  "
          f"({res_row['faulty_over_plain']}x, "
          f"{res_row['faults_injected']} faults, "
          f"{res_row['retries']} retries, "
          f"identical={res_row['bit_identical']})")
    return {
        "meta": {
            "world": WORLD,
            "n": n,
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "cache_floor": CACHE_FLOOR,
            "parallel_floor": PARALLEL_FLOOR,
        },
        "world_cache": cache_row,
        "parallel": par_row,
        "resilience": res_row,
    }


def check_report(report: dict) -> None:
    """The CI floors; parallel scaling only where the cores exist."""
    cache = report["world_cache"]
    assert cache["hit_seconds"] > 0
    assert cache["hit_speedup"] >= CACHE_FLOOR, (
        f"world-cache hit only {cache['hit_speedup']}x a cold build "
        f"(floor {CACHE_FLOOR}x)"
    )
    workers = report["parallel"]["workers"]
    assert "1" in workers and "2" in workers
    for e in workers.values():
        assert e["aggregate_qps"] > 0
    res = report["resilience"]
    assert res["faults_injected"] > 0, "fault stream never fired"
    assert res["retries"] > 0, "no fault was retried"
    assert res["bit_identical"], (
        "run through injected faults diverged from the fault-free run"
    )
    cpus = report["meta"]["cpu_count"] or 1
    if cpus >= 2:
        got = workers["2"]["speedup_vs_1"]
        assert got >= PARALLEL_FLOOR, (
            f"2 workers only {got}x one worker (best of "
            f"{report['parallel']['rounds']} rounds) on a {cpus}-CPU "
            f"machine (floor {PARALLEL_FLOOR}x)"
        )
    else:
        print(f"    ({cpus} CPU: parallel floor recorded, not asserted)")


def write_report(report: dict, out: Path) -> None:
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def test_parallel_bench_quick(tmp_path):
    """CI smoke: cache-hit floor always; 2-worker floor when the runner
    has the cores.  Always the quick load under pytest."""
    report = run_bench(quick=True)
    out = tmp_path / "BENCH_parallel.json"
    write_report(report, out)
    check_report(json.loads(out.read_text()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="100k world, 1/2 workers (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"output JSON path (default {DEFAULT_OUT}, or "
                             f"{DEFAULT_QUICK_OUT} with --quick)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="collect repro.obs metrics across the bench and "
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
