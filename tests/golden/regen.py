"""Golden fingerprints of the estimators: what a run computes, bit for bit.

Each cell is one driver at one seed, run one way:

* drivers: LR top-5, LR adaptive-h top-3 and LNR top-5, COUNT(*) with
  uniform sampling on ``paper/clustered`` rescaled to 2,000 tuples;
* seeds 0, 1 and 2;
* modes: ``scalar`` (batch 1), ``batch16`` (prefetching batches of 16)
  and ``resume`` (scalar, paused half-way, pushed through JSON and
  continued with ``Session.resume``).

A cell records the estimate as ``float.hex``, the queries and samples,
and the sha256 of the final ``SessionRun.to_state`` serialized as JSON
with sorted keys.  ``test_golden.py`` recomputes every cell and compares
exactly.  It also runs the nine ``scalar`` cells through one
``run_many_parallel(workers=2)`` call that writes a checkpoint per run
(:func:`compute_fanout`); each must match its stored cell, with the
state digest taken from the run's final checkpoint file.  The fan-out
adds no cells to the file.

Regenerate the file only when a change is meant to alter what the
estimators compute, and say so in the change::

    PYTHONPATH=src python tests/golden/regen.py

Before writing, it prints every field of every cell that moved, old ->
new, or ``no cell moved``.

The cells are computed in a child interpreter with ``PYTHONHASHSEED``
pinned.  The level-region search visits a piece's edge labels in set
order, and a set that mixes constraint indices with string labels such
as ``"bbox"`` iterates in an order that depends on the process's string
hashing.  The order of the pieces then moves float sums over them in
their last bits, which the state digest sees.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import repro
from repro.api import MaxSamples, Session
from repro.core import LrAggConfig
from repro.parallel import run_many_parallel
from repro.worlds import registry

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
HASH_SEED = "0"

WORLD = "paper/clustered"
WORLD_SIZE = 2_000
SEEDS = (0, 1, 2)
MODES = ("scalar", "batch16", "resume")

#: driver name -> (session builder, samples per run)
DRIVERS = {
    "lr-k5": (lambda s: s.lr(5), 40),
    "lr-adaptive-k3": (lambda s: s.lr(3, LrAggConfig(adaptive_h=True)), 12),
    "lnr-k5": (lambda s: s.lnr(5), 10),
}


def cell_names() -> list[str]:
    return [f"{d}/seed{s}/{m}" for d in DRIVERS for s in SEEDS for m in MODES]


def scalar_cell_names() -> list[str]:
    return [name for name in cell_names() if name.endswith("/scalar")]


def cell_session(world, name: str) -> tuple[Session, int]:
    """The cell's session (before its mode) and its sample count."""
    driver, seed, _mode = name.split("/")
    make, samples = DRIVERS[driver]
    return make(Session(world)).count().seed(int(seed.removeprefix("seed"))), samples


def fingerprint(result, state_json: str) -> dict:
    return {
        "estimate": result.estimate.hex(),
        "queries": result.queries,
        "samples": result.samples,
        "state_sha256": hashlib.sha256(state_json.encode()).hexdigest(),
    }


def compute_cell(world, name: str) -> dict:
    """Run one cell and return its fingerprint."""
    session, samples = cell_session(world, name)
    mode = name.rsplit("/", 1)[1]
    if mode == "batch16":
        session = session.batch(16)
    run = session.start(MaxSamples(samples))
    if mode == "resume":
        for checkpoint in run:
            if checkpoint.samples == samples // 2:
                break
        state = json.loads(json.dumps(run.to_state()))
        run = Session.resume(world, state)
    result = run.run()
    return fingerprint(result, json.dumps(run.to_state(), sort_keys=True))


def compute_all() -> dict:
    """Every cell's fingerprint, computed in this process."""
    world = registry.get(WORLD).with_size(WORLD_SIZE).build()
    return {name: compute_cell(world, name) for name in cell_names()}


def compute_fanout() -> dict:
    """The ``scalar`` cells' fingerprints from one two-worker
    ``run_many_parallel`` call, each state digest taken from the run's
    final checkpoint file."""
    world = registry.get(WORLD).with_size(WORLD_SIZE).build()
    names = scalar_cell_names()
    sessions = [cell_session(world, name) for name in names]
    specs = [session.spec for session, _samples in sessions]
    untils = [MaxSamples(samples) for _session, samples in sessions]
    with tempfile.TemporaryDirectory() as ckpt:
        results = run_many_parallel(specs, untils, workers=2, world=world,
                                    checkpoint_dir=ckpt)
        cells = {}
        for i, (name, result) in enumerate(zip(names, results)):
            with open(os.path.join(ckpt, f"run-{i:03d}.state.json"), encoding="utf-8") as f:
                state = json.load(f)
            cells[name] = fingerprint(result, json.dumps(state, sort_keys=True))
    return cells


def compute_pinned(function: str = "compute_all") -> dict:
    """``regen.<function>()`` computed in a child interpreter with
    ``PYTHONHASHSEED`` pinned and the same ``repro`` package."""
    path = [str(HERE), str(Path(repro.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.pathsep.join(path))
    code = f"import json, regen; print(json.dumps(regen.{function}()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def moved_fields(old: dict, new: dict) -> dict:
    """``{cell: {field: (old, new)}}`` for every field that differs; a
    cell or field on one side only reads ``None`` on the other."""
    moved = {}
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        fields = {field: (before.get(field), after.get(field))
                  for field in sorted(set(before) | set(after))
                  if before.get(field) != after.get(field)}
        if fields:
            moved[name] = fields
    return moved


def main() -> None:
    cells = compute_pinned()
    old = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    moved = moved_fields(old, cells)
    for name, fields in moved.items():
        print(name)
        for field, (before, after) in fields.items():
            print(f"  {field}: {before} -> {after}")
    if not moved:
        print("no cell moved")
    FINGERPRINTS.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {FINGERPRINTS}")


if __name__ == "__main__":
    main()
