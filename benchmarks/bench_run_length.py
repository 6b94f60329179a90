"""Run-length shape floor: LR cost per sample must not grow with run length.

Every LR cell starts from every tuple location observed so far (paper
§3.2.2, "leverage history"), so a run's site set grows with its length.
Selecting a cell's sites must not cost more per sample as it grows.  The
floor is machine-independent: best-of-``ROUNDS`` ms/sample of a long run
at most ``SHAPE_FLOOR`` times that of a ``SHORT``-sample run, same world,
seed and configuration.

Workload: LR top-5 COUNT, scalar (one query per sample draw), on
``paper/clustered`` at 100k, seed 7.  One warm-up run comes first, then
``ROUNDS`` interleaved rounds of a short and a long run, so drift hits
both alike.  Only the sampling is timed: each run's interface and index
are built by ``Session.start`` before the clock starts.

Runs standalone (``python benchmarks/bench_run_length.py [--quick]``,
exit code 1 when the floor fails) or under pytest
(``pytest benchmarks/bench_run_length.py [--quick]``).  ``--quick``
shortens the long run from 800 to 400 samples.
"""

from __future__ import annotations

import gc
import time

from repro import worlds
from repro.api import MaxSamples, Session

WORLD = "paper/clustered"
SIZE = 100_000
K = 5
SEED = 7
SHORT = 50
LONG = {True: 400, False: 800}
ROUNDS = 3
#: Long-run ms/sample over short-run ms/sample, best round against best
#: round.  A site scan that grows with run length sits far above it.
SHAPE_FLOOR = 1.5


def _ms_per_sample(session: Session, samples: int) -> tuple[float, int]:
    run = session.start(MaxSamples(samples))
    gc.collect()
    t0 = time.perf_counter()
    result = run.run()
    wall = time.perf_counter() - t0
    return 1000.0 * wall / result.samples, result.queries


def run_bench(quick: bool = False) -> dict:
    world = worlds.get(WORLD).with_size(SIZE).build()
    session = Session(world).lr(K).count().seed(SEED)
    long = LONG[quick]
    _ms_per_sample(session, SHORT)  # warm-up
    rounds: dict[int, list[float]] = {SHORT: [], long: []}
    queries = {}
    for _ in range(ROUNDS):
        for n in (SHORT, long):
            ms, queries[n] = _ms_per_sample(session, n)
            rounds[n].append(ms)
    best = {n: min(v) for n, v in rounds.items()}
    return {
        "world": f"{WORLD}@{SIZE:,}",
        "short": SHORT,
        "long": long,
        "round_ms_per_sample": rounds,
        "best_ms_per_sample": best,
        "queries": queries,
        "ratio": best[long] / best[SHORT],
    }


def _print_report(report: dict) -> None:
    print(f"  LR k={K} COUNT, scalar, {report['world']}, seed {SEED}")
    for n in (report["short"], report["long"]):
        rounds = ", ".join(f"{ms:.2f}" for ms in report["round_ms_per_sample"][n])
        print(f"    {n:>4} samples: best {report['best_ms_per_sample'][n]:.2f} ms/sample "
              f"of [{rounds}]  ({report['queries'][n]} queries)")
    print(f"    long/short: {report['ratio']:.2f}x (floor {SHAPE_FLOOR}x)")


def test_run_length_shape(pytestconfig):
    report = run_bench(quick=pytestconfig.getoption("--quick"))
    _print_report(report)
    assert report["ratio"] <= SHAPE_FLOOR, (
        f"ms/sample at {report['long']} samples is {report['ratio']:.2f}x that "
        f"at {report['short']} (floor {SHAPE_FLOOR}x)"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help=f"long run of {LONG[True]} samples instead of {LONG[False]}")
    args = parser.parse_args()
    report = run_bench(quick=args.quick)
    _print_report(report)
    raise SystemExit(0 if report["ratio"] <= SHAPE_FLOOR else 1)
