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
exactly.  Regenerate the file only when a change is meant to alter what
the estimators compute, and say so in the change::

    PYTHONPATH=src python tests/golden/regen.py

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
from pathlib import Path

import repro
from repro.api import MaxSamples, Session
from repro.core import LrAggConfig
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


def compute_cell(world, name: str) -> dict:
    """Run one cell and return its fingerprint."""
    driver, seed, mode = name.split("/")
    make, samples = DRIVERS[driver]
    session = make(Session(world)).count().seed(int(seed.removeprefix("seed")))
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
    state = json.dumps(run.to_state(), sort_keys=True)
    return {
        "estimate": result.estimate.hex(),
        "queries": result.queries,
        "samples": result.samples,
        "state_sha256": hashlib.sha256(state.encode()).hexdigest(),
    }


def compute_all() -> dict:
    """Every cell's fingerprint, computed in this process."""
    world = registry.get(WORLD).with_size(WORLD_SIZE).build()
    return {name: compute_cell(world, name) for name in cell_names()}


def compute_pinned() -> dict:
    """Every cell's fingerprint, computed in a child interpreter with
    ``PYTHONHASHSEED`` pinned and the same ``repro`` package."""
    path = [str(HERE), str(Path(repro.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.pathsep.join(path))
    code = "import json, regen; print(json.dumps(regen.compute_all()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> None:
    cells = compute_pinned()
    FINGERPRINTS.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {FINGERPRINTS}")


if __name__ == "__main__":
    main()
