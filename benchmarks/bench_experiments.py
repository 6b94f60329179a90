"""Wall time of whole paper experiments: one source tree against another.

Runs ``python -m repro.experiments NAME`` from a base and a changed
source tree in alternation (the base first in even rounds, the change
first in odd ones), keeps each side's best wall of ``--rounds``, checks
that both sides print the same table and records the walls as JSON::

    python benchmarks/bench_experiments.py BASE_SRC CHANGE_SRC [NAME ...]
        [--rounds N] [--out PATH]

``BASE_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts (each goes on ``PYTHONPATH`` of its own runs); NAME defaults
to ``fig20 table1``.  A wall is the child process's, start to exit,
world generation included.  The table is all the experiment prints but
its ``[NAME done in ...]`` line.  Every run has ``PYTHONHASHSEED=0``: the
order in which a level region's pieces are summed still follows string
hashing, so two hash seeds may print tables that differ in the last
digits.  Exits 1 when the two sides print different tables.

``--out`` is merged into, not overwritten: the experiments this run
measured replace their entries, every other entry stays as it was, and
each entry keeps the ``rounds`` and ``host`` it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

#: Wall targets in seconds (ROADMAP item 2: fig20 at most 60 s).
TARGETS = {"fig20": 60.0}


def run_once(src: str, name: str) -> tuple[float, str]:
    """One child run: its wall and its table."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro.experiments", name],
                          env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    table = "\n".join(line for line in proc.stdout.splitlines()
                      if not line.startswith(f"[{name} done in "))
    return wall, table


def compare(base: str, change: str, name: str, rounds: int) -> dict:
    walls: dict[str, list[float]] = {"base": [], "change": []}
    tables: dict[str, set[str]] = {"base": set(), "change": set()}
    for r in range(rounds):
        for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
            wall, table = run_once(base if side == "base" else change, name)
            walls[side].append(round(wall, 2))
            tables[side].add(table)
            print(f"{name} round {r + 1}/{rounds} {side}: {wall:.1f} s", flush=True)
    best = {side: min(w) for side, w in walls.items()}
    out = {
        "base_s": walls["base"],
        "change_s": walls["change"],
        "base_best_s": best["base"],
        "change_best_s": best["change"],
        "speedup": round(best["base"] / best["change"], 3),
        "tables_identical": len(tables["base"] | tables["change"]) == 1,
    }
    if name in TARGETS:
        out["target_s"] = TARGETS[name]
        out["change_meets_target"] = best["change"] <= TARGETS[name]
    return out


def merge(path: str, ran: dict) -> dict:
    """The record at ``path`` (if any) with the entries of ``ran`` in
    place of its own of the same names."""
    record = {
        "command": "python -m repro.experiments NAME, PYTHONHASHSEED=0",
        "best_of": "min wall per side; rounds alternate which side runs first",
        "experiments": {},
    }
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = json.load(f)
        for name, entry in old["experiments"].items():
            # A file written before the entries carried their own
            # conditions holds them once, at the top.
            entry.setdefault("rounds", old.get("rounds"))
            entry.setdefault("host", old.get("host"))
            record["experiments"][name] = entry
    record["experiments"].update(ran)
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("names", nargs="*", default=["fig20", "table1"])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default="BENCH_experiments.json")
    args = parser.parse_args(argv)
    host = {"python": platform.python_version(), "cpus": os.cpu_count(),
            "machine": platform.machine()}
    ran = {name: {"rounds": args.rounds, "host": host,
                  **compare(args.base_src, args.change_src, name, args.rounds)}
           for name in args.names}
    record = merge(args.out, ran)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(ran, indent=1))
    return 0 if all(e["tables_identical"] for e in ran.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
