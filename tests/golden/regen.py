"""Golden fingerprints of the estimators: what a run computes, bit for bit.

Each cell is one family at one seed, run one way.  A family is a
driver, its service and its stopping rule, COUNT(*) with uniform
sampling over a registry world rescaled to 2,000 tuples:

* ``lr-k5``, ``lr-adaptive-k3``, ``lnr-k5`` and ``nno-k5``: LR top-5,
  LR adaptive-h top-3, LNR top-5 and the NNO baseline on
  ``paper/clustered``;
* ``lnr-prom-obf-k4``: LNR top-4 on ``paper/places-prominence`` behind
  a prominence order on ``popularity``, obfuscated positions and a
  projection to two visible attributes;
* ``lr-fault-k5``: LR top-5 behind a connection that times out and
  drops answers, with retries;
* ``lr-maxq-k5``: LR top-5 under ``MaxQueries``, whose last sample
  straddles the limit.

Seeds are 0, 1 and 2.  Modes are ``scalar`` (batch 1), ``batch16``
(prefetching batches of 16) and ``resume`` (scalar, paused part-way,
pushed through JSON and continued with ``Session.resume``).
``lr-maxq-k5`` has no ``batch16`` cell: a batched query-bound run may
stop a batch early by contract.

A cell records the estimate as ``float.hex``, the queries and samples,
and the sha256 of the final ``SessionRun.to_state`` serialized as JSON
with sorted keys.  ``test_golden.py`` recomputes every cell and compares
exactly.  It also runs the ``scalar`` cells through ``run_many_parallel
(workers=2)``, one call per world, each writing a checkpoint per run
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
from typing import Callable, NamedTuple

import repro
from repro.api import MaxQueries, MaxSamples, Session, StoppingRule
from repro.core import LrAggConfig
from repro.lbs import ObfuscationModel, RankingSpec
from repro.parallel import run_many_parallel
from repro.resilience import FaultSpec, RetryPolicy
from repro.worlds import registry

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
HASH_SEED = "0"

WORLD = "paper/clustered"
PROMINENCE_WORLD = "paper/places-prominence"
WORLD_SIZE = 2_000
SEEDS = (0, 1, 2)
MODES = ("scalar", "batch16", "resume")


class Family(NamedTuple):
    """A driver, its service and its stopping rule."""

    make: Callable[[Session], Session]
    until: StoppingRule
    #: The samples a ``resume`` cell completes before it pauses.
    pause_at: int
    world: str = WORLD
    modes: tuple = MODES


FAMILIES = {
    "lr-k5": Family(lambda s: s.lr(5), MaxSamples(40), 20),
    "lr-adaptive-k3": Family(
        lambda s: s.lr(3, LrAggConfig(adaptive_h=True)), MaxSamples(12), 6),
    "lnr-k5": Family(lambda s: s.lnr(5), MaxSamples(10), 5),
    "nno-k5": Family(lambda s: s.nno(5), MaxSamples(40), 20),
    "lnr-prom-obf-k4": Family(
        lambda s: s.lnr(4).service(
            obfuscation=ObfuscationModel(sigma=2.0, seed=5),
            visible_attrs=("category", "popularity"),
            ranking=RankingSpec.prominence("popularity"),
        ),
        MaxSamples(8), 4, world=PROMINENCE_WORLD),
    "lr-fault-k5": Family(
        lambda s: s.lr(5).resilience(
            FaultSpec(timeout_rate=0.1, drop_rate=0.05, seed=7),
            RetryPolicy(max_attempts=6, seed=1),
        ),
        MaxSamples(30), 15),
    "lr-maxq-k5": Family(lambda s: s.lr(5), MaxQueries(350), 15,
                         modes=("scalar", "resume")),
}


def cell_names() -> list[str]:
    return [f"{d}/seed{s}/{m}" for d, family in FAMILIES.items()
            for s in SEEDS for m in family.modes]


def scalar_cell_names() -> list[str]:
    return [name for name in cell_names() if name.endswith("/scalar")]


def build_worlds() -> dict:
    """Every family's world, built once, by registry name."""
    names = sorted({family.world for family in FAMILIES.values()})
    return {name: registry.get(name).with_size(WORLD_SIZE).build() for name in names}


def cell_session(worlds: dict, name: str) -> tuple[Session, Family]:
    """The cell's session (before its mode) and its family."""
    driver, seed, _mode = name.split("/")
    family = FAMILIES[driver]
    session = family.make(Session(worlds[family.world]))
    return session.count().seed(int(seed.removeprefix("seed"))), family


def fingerprint(result, state_json: str) -> dict:
    return {
        "estimate": result.estimate.hex(),
        "queries": result.queries,
        "samples": result.samples,
        "state_sha256": hashlib.sha256(state_json.encode()).hexdigest(),
    }


def compute_cell(worlds: dict, name: str) -> dict:
    """Run one cell and return its fingerprint."""
    session, family = cell_session(worlds, name)
    mode = name.rsplit("/", 1)[1]
    if mode == "batch16":
        session = session.batch(16)
    run = session.start(family.until)
    if mode == "resume":
        for checkpoint in run:
            if checkpoint.samples == family.pause_at:
                break
        state = json.loads(json.dumps(run.to_state()))
        run = Session.resume(session.world, state)
    result = run.run()
    return fingerprint(result, json.dumps(run.to_state(), sort_keys=True))


def compute_all() -> dict:
    """Every cell's fingerprint, computed in this process."""
    worlds = build_worlds()
    return {name: compute_cell(worlds, name) for name in cell_names()}


def compute_fanout() -> dict:
    """The ``scalar`` cells' fingerprints from two-worker
    ``run_many_parallel`` calls, one per world, each state digest taken
    from the run's final checkpoint file."""
    worlds = build_worlds()
    cells = {}
    for world_name, world in worlds.items():
        names = [name for name in scalar_cell_names()
                 if FAMILIES[name.split("/")[0]].world == world_name]
        sessions = [cell_session(worlds, name) for name in names]
        specs = [session.spec for session, _family in sessions]
        untils = [family.until for _session, family in sessions]
        with tempfile.TemporaryDirectory() as ckpt:
            results = run_many_parallel(specs, untils, workers=2, world=world,
                                        checkpoint_dir=ckpt)
            for i, (name, result) in enumerate(zip(names, results)):
                with open(os.path.join(ckpt, f"run-{i:03d}.state.json"),
                          encoding="utf-8") as f:
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
