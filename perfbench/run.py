"""End-to-end estimation benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload lr_clustered --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``lr_clustered``, ``lr_adaptive``,
``lnr_weibo``, ``fanout_ckpt``.  Each invocation sets the workload up
several times (``setup_s`` is the median), then runs it as a closed
loop for about ``--seconds`` seconds and checks every run's output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
makes one untraced and one traced pass over the same runs and reports
the per-layer split; the spans go to ``.perfbench/spans-*.npz``.

Output: a JSON line stamping the environment; a JSON line of the wall
times measured untraced (the set-ups, then each item's runs) and of the
reference computation timed beside them (during the set-ups, during the
loop and, with ``--trace 1``, during the traced pass); a JSON line of
run fingerprints (estimate, queries, samples per seed: diff them across
commits); and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when a run raised or
failed an output check, 2 when the checkout holds no library source.
Every process the run started is stopped and reaped before it exits.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop and reap every process the run started.

    ``run_many_parallel`` joins its workers itself; what outlives it is
    the multiprocessing resource tracker that ``SharedWorld`` starts,
    which otherwise exits only after this process has, unreaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes the tracker's pipe and waits for it to exit


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"stamp": wl.env_stamp(args.seed, ROOT), "workload": workload.name,
                      "trace": args.trace}), flush=True)

    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tally = wl.Tally()
    items = workload.items(args.seed)
    try:
        if args.trace == 0:
            setup_walls, setup_refs, prep = wl.timed_setups(workload, tmp_dir, wl.SETUP_REPEATS)
            loop = wl.closed_loop(workload, prep, items, args.seconds, tally,
                                  min_steps=len(items) + 1)
            values = wl.end_to_end(setup_walls, setup_refs, loop)
            loop_walls = [setup_walls] + [loop["walls"][pos] for pos in sorted(loop["walls"])]
            ref_walls = [setup_refs, loop["refs"]]
        else:
            setup_walls, setup_refs, prep = wl.timed_setups(workload, tmp_dir, 1)
            loop = wl.closed_loop(workload, prep, items, 0.0, tally, min_steps=len(items))
            loop_walls = [setup_walls] + [loop["walls"][pos] for pos in range(len(items))]
            untraced_s = [loop["scaled"][pos][0] for pos in range(len(items))]
            ref_walls = [setup_refs, loop["refs"]]
            del prep, loop
            tracer = spans.Tracer(workload.name, OUT_DIR, tag=f"{workload.name}-seed{args.seed}")
            setup_totals, records, traced_refs = wl.traced_pass(
                workload, tmp_dir, items, tally, tracer)
            values = wl.per_layer(workload, setup_totals, records, traced_refs, untraced_s)
            ref_walls.append(traced_refs)
            tracer.dump()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    print(json.dumps({"walls": [[round(w, 6) for w in ws] for ws in loop_walls],
                      "reference": [[[round(w, 6) for w in ws] for ws in phase]
                                    for phase in ref_walls]}))
    print(json.dumps({"fingerprints": {str(s): list(fp) for s, fp in tally.first.items()}}))
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_children()
