"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload lr_clustered --seeds 1-10 --out spread.json

Every run is a fresh ``run.py`` process, one after another.  Per
metric it prints the median of the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median, next to the metric's bound in ``BENCHMARK.json``.
Every run uses ``BENCHMARK.json``'s ``run_seconds``, untraced.
``--out`` adds the same figures, with every value and every run's
fingerprints, as one more entry of the file's ``sets`` list;
``baseline.json`` holds every set measured this way on one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report: dict = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            elapsed = time.perf_counter() - t0
            runs.append({"seed": seed, "elapsed_s": elapsed,
                         "fingerprints": json.loads(lines[-2])["fingerprints"], **result})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        names = list(runs[0]["metrics"])
        stats = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        report[workload] = {"stamp": json.loads(proc.stdout.splitlines()[0])["stamp"],
                            "metrics": stats, "runs": runs}
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                verdict = ("steady" if s["spread"] <= bound / 3
                           else "within bound" if s["spread"] <= bound else "OVER BOUND")
                flag = f"  bound {bound}  {verdict}"
            print(f"  {name:30s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.4f}{flag}")
    if args.out is not None:
        sets = json.loads(args.out.read_text())["sets"] if args.out.exists() else []
        args.out.write_text(json.dumps({"sets": sets + [report]}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
