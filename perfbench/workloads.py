"""The benchmark's workloads, the checks on their outputs, their metrics.

Every workload is a closed loop: one client issues runs back to back,
each waiting for the previous result.  A loop cycles through *items*:
an item of a session workload is one ``Session`` run at one seed, an
item of the fan-out workload one ``run_many_parallel`` call over a few
seeds.  All seeds are derived from ``--seed`` (:func:`run_seeds`), and
one invocation runs 11 to 30 of them: run times and query counts differ
from seed to seed, and a single seed per invocation would leave the
benchmark's spread to that alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from repro.api import MaxSamples, Session, SessionRun
from repro.core import LrAggConfig
from repro.obs import MetricsRegistry, collecting
from repro.parallel import ParallelRunError, run_many_parallel
from repro.worlds import registry

import spans

clock = time.perf_counter

#: Set-ups per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Times are reported in seconds at the host speed at which
#: :func:`reference` takes this long.  A shared host's speed drifts by up
#: to 2x within a minute, CPU time moving with wall time; the reference,
#: timed just before and just after each measured step, drifts with it.
REF_S = 0.02
#: Before each step, the reference is timed for this share of the
#: previous step's wall time (at least once).
REF_SHARE = 0.05


def reference() -> float:
    """A fixed mix of interpreter work, small NumPy calls and passes over
    arrays the size of a world's columns, like the library's own."""
    rng = np.random.default_rng(0)
    small, large = rng.random((2000, 2)), rng.random((200_000, 2))
    acc = 0.0
    for i in range(100):
        d = small - small[i]
        acc += float(np.min(np.einsum("ij,ij->i", d, d)[i + 1:i + 200]))
        for j in range(50):
            acc += (i * j) % 7 * 0.5
    for i in range(2):
        d = large - large[i]
        dd = np.einsum("ij,ij->i", d, d)
        acc += float(dd[np.argpartition(dd, 10)[:10]].sum())
    return acc


def time_reference(budget: float) -> list[float]:
    """Wall times of :func:`reference`, run once and then until ``budget``
    seconds have passed."""
    times, t_end = [], clock() + budget
    while True:
        t0 = clock()
        reference()
        times.append(clock() - t0)
        if clock() >= t_end:
            return times


def scaled(walls: list, refs: list) -> list:
    """Wall times scaled to the reference speed (:data:`REF_S`).

    ``refs[j]`` are the reference times taken just before ``walls[j]``,
    ``refs[j + 1]`` those just after it; their median is the step's gauge.
    """
    return [wall * REF_S / statistics.median(refs[j] + refs[j + 1])
            for j, wall in enumerate(walls)]


def run_seeds(seed: int, count: int) -> list[int]:
    """The ``Session.seed`` values of one invocation at ``--seed seed``."""
    return [seed * 1000 + i for i in range(count)]


def fingerprint(result) -> tuple:
    """What two runs at one seed must agree on."""
    return (result.estimate, result.queries, result.samples)


# ----------------------------------------------------------------------
# Output checks: each returns an error message, or None when it passes.
# ----------------------------------------------------------------------
def check_result(result, samples: int) -> Optional[str]:
    """The run reached its stopping rule with a usable COUNT estimate."""
    if result.samples != samples:
        return f"stopped after {result.samples} of {samples} samples"
    if not math.isfinite(result.estimate) or result.estimate < 0.0:
        return f"COUNT estimate {result.estimate!r} is not finite and non-negative"
    return None


def check_repeat(first: tuple, again: tuple) -> Optional[str]:
    """A repetition at one seed computes exactly what the first run did."""
    if again != first:
        return f"fingerprint {again} differs from the first run's {first}"
    return None


def check_checkpoint(world, path: Path, result) -> tuple[Optional[str], Optional[SessionRun]]:
    """The run's final checkpoint file resumes to exactly its result.

    Returns the error (or None) and the resumed run.
    """
    try:
        with open(path, encoding="utf-8") as f:
            state = json.load(f)
        resumed = Session.resume(world, state)
        resumed.run()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"checkpoint {path.name} does not resume: {exc!r}", None
    got = fingerprint(resumed.result())
    if got != fingerprint(result):
        return (f"checkpoint {path.name} resumes to {got}, the run returned "
                f"{fingerprint(result)}"), resumed
    return None, resumed


@dataclass
class Tally:
    """Runs attempted, runs failed (raised or failed a check), fingerprints."""

    attempted: int = 0
    errors: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def record(self, seed: int, result, error: Optional[str]) -> None:
        self.attempted += 1
        if error is None and result is not None:
            fp = fingerprint(result)
            error = check_repeat(self.first.setdefault(seed, fp), fp)
        if error is not None:
            self.errors.append(f"seed {seed}: {error}")

    @property
    def failed(self) -> int:
        return len(self.errors)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    world: object
    session: Session
    tmp_dir: Optional[Path] = None


@dataclass
class Step:
    """One item of the loop: its wall time and its runs' outcomes.

    When traced, ``totals`` holds this process's span totals (self
    times, calls, counts) at the end of the timed window and
    ``worker_totals`` those merged from worker processes.
    """

    wall: float
    runs: list  # (seed, result or None, error or None)
    samples: int
    sites: list = field(default_factory=list)
    totals: tuple = ({}, {}, {})
    worker_totals: tuple = ({}, {}, {})
    progress: list = field(default_factory=list)


def _world_spec(name: str, size: Optional[int]):
    spec = registry.get(name)
    return spec.with_size(size) if size else spec


def _snapshot(tracer: Optional[spans.Tracer]) -> tuple:
    if tracer is None:
        return ({}, {}, {})
    return dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts)


@dataclass(frozen=True)
class SessionWorkload:
    """Back-to-back ``Session`` runs of one spec, one seed per item."""

    name: str
    world: str
    size: Optional[int]
    method: str
    k: int
    config: object
    samples: int
    seeds_per_loop: int

    def world_spec(self):
        return _world_spec(self.world, self.size)

    def session(self, world) -> Session:
        session = Session(world)
        if self.method == "lr":
            session = session.lr(self.k, self.config)
        else:
            session = session.lnr(self.k, self.config)
        return session.count()

    def setup(self, tmp_dir: Path) -> Prepared:
        """World build plus ``Session.build`` (interface and index).

        Each run goes through ``Session.start``, which builds its own
        interface and index again, as a user's run does.
        """
        world = self.world_spec().build()
        session = self.session(world)
        session.build()
        return Prepared(world, session, tmp_dir)

    def items(self, seed: int) -> list:
        return run_seeds(seed, self.seeds_per_loop)

    def step(self, prep: Prepared, seed: int,
             tracer: Optional[spans.Tracer] = None) -> Step:
        t0 = clock()
        try:
            run = prep.session.seed(seed).start(MaxSamples(self.samples))
            result = run.run()
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            return Step(clock() - t0, [(seed, None, f"raised {exc!r}")], 0)
        wall = clock() - t0
        return Step(wall, [(seed, result, check_result(result, self.samples))],
                    result.samples, sites=[len(run.estimator.history.locations)],
                    totals=_snapshot(tracer))


@dataclass(frozen=True)
class FanoutWorkload:
    """``run_many_parallel`` over several seeds, with rolling checkpoints."""

    name: str
    world: str
    size: Optional[int]
    k: int
    samples: int
    runs: int
    rounds: int
    workers: int
    state_every: int

    def world_spec(self):
        return _world_spec(self.world, self.size)

    def session(self, world) -> Session:
        return Session(world).lr(self.k).count()

    def setup(self, tmp_dir: Path) -> Prepared:
        """The world build only; export and pool start belong to the run."""
        world = self.world_spec().build()
        return Prepared(world, self.session(world), tmp_dir)

    def items(self, seed: int) -> list:
        seeds = run_seeds(seed, self.runs * self.rounds)
        return [tuple(seeds[i:i + self.runs]) for i in range(0, len(seeds), self.runs)]

    def step(self, prep: Prepared, seeds: tuple,
             tracer: Optional[spans.Tracer] = None) -> Step:
        ckpt = Path(tempfile.mkdtemp(prefix="ckpt-", dir=prep.tmp_dir))
        specs = [prep.session.seed(s).spec for s in seeds]
        progress: list = []
        failures: dict = {}
        # Traced: workers send their span totals back through the obs
        # registry, which run_many_parallel merges once per run.
        registry = MetricsRegistry() if tracer is not None else None
        collect = collecting(registry) if registry is not None else contextlib.nullcontext()
        t0 = clock()
        try:
            with collect:
                try:
                    results = run_many_parallel(
                        specs, MaxSamples(self.samples), workers=self.workers,
                        world=prep.world, checkpoint_dir=ckpt,
                        state_every=self.state_every,
                        on_progress=lambda _p: progress.append(clock() - t0),
                    )
                except ParallelRunError as exc:
                    results = exc.results
                    failures = {i: tb.strip().splitlines()[-1] for i, _s, tb in exc.failures}
            wall = clock() - t0
            totals = _snapshot(tracer)
            worker = spans.worker_totals(registry) if registry is not None else ({}, {}, {})
            runs, sites, samples = [], [], 0
            for i, (seed, result) in enumerate(zip(seeds, results)):
                if result is None:
                    runs.append((seed, None, f"raised {failures.get(i, 'unknown error')}"))
                    continue
                samples += result.samples
                error = check_result(result, self.samples)
                if error is None:
                    error, resumed = check_checkpoint(
                        prep.world, ckpt / f"run-{i:03d}.state.json", result)
                    if resumed is not None:
                        sites.append(len(resumed.estimator.history.locations))
                runs.append((seed, result, error))
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        return Step(wall, runs, samples, sites, totals, worker, progress)


_PAPER_CLUSTERED = dict(world="paper/clustered", size=100_000)

# Why each workload was chosen is in BENCHMARK.json.  Run times differ
# from seed to seed by 11-22% (coefficient of variation), so an
# invocation's figures differ from another's by the spread between their
# seed sets.  Runs are short and seeds many (20 to 60 fill about 20
# seconds) because LR run time grows faster than the sample count: at
# 12 samples lr_adaptive costs 8x its 4-sample runs.
WORKLOADS = {w.name: w for w in (
    SessionWorkload(
        name="lr_clustered", method="lr", k=5, config=None, samples=60,
        seeds_per_loop=30, **_PAPER_CLUSTERED,
    ),
    SessionWorkload(
        name="lr_adaptive", method="lr", k=3, config=LrAggConfig(adaptive_h=True),
        samples=4, seeds_per_loop=60, **_PAPER_CLUSTERED,
    ),
    SessionWorkload(
        name="lnr_weibo", world="weibo-like-100k", size=None, method="lnr", k=5,
        config=None, samples=20, seeds_per_loop=20,
    ),
    FanoutWorkload(
        name="fanout_ckpt", k=5, samples=30, runs=4, rounds=8, workers=2,
        state_every=10, **_PAPER_CLUSTERED,
    ),
)}


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------
def timed_setups(workload, tmp_dir: Path, repeats: int) -> tuple[list, list, Prepared]:
    """Set up ``repeats`` times, timing the reference around each.

    Returns the set-ups' wall times, the reference times (one list
    before each set-up and one after the last, as :func:`scaled` takes
    them) and the last set-up.
    """
    walls, refs, prep = [], [], None
    for _ in range(repeats):
        prep = None  # let the previous world go before building the next
        refs.append(time_reference(0.0))
        t0 = clock()
        prep = workload.setup(tmp_dir)
        walls.append(clock() - t0)
    refs.append(time_reference(0.0))
    return walls, refs, prep


def closed_loop(workload, prep: Prepared, items: list, seconds: float,
                tally: Tally, min_steps: int) -> dict:
    """Run items back to back, cycling, for about ``seconds``.

    At least ``min_steps`` steps run.  After that a step starts only if
    the time its item took the first time still fits.  Returns per item
    (by position in ``items``) the wall times, the same scaled to the
    reference speed and the last step; and the reference times around
    the steps, as :func:`scaled` takes them.
    """
    t0 = clock()
    walls: dict[int, list] = {}
    last: dict[int, Step] = {}
    order, refs = [], []
    previous = 0.0
    i = 0
    while True:
        pos = i % len(items)
        if i >= min_steps and clock() - t0 + walls[pos][0] > seconds:
            break
        refs.append(time_reference(REF_SHARE * previous))
        step = workload.step(prep, items[pos])
        for seed, result, error in step.runs:
            tally.record(seed, result, error)
        walls.setdefault(pos, []).append(step.wall)
        last[pos] = step
        order.append((pos, step.wall))
        previous = step.wall
        i += 1
    refs.append(time_reference(REF_SHARE * previous))
    by_item: dict[int, list] = {}
    for (pos, _wall), wall_s in zip(order, scaled([w for _p, w in order], refs)):
        by_item.setdefault(pos, []).append(wall_s)
    return {"walls": walls, "scaled": by_item, "last": last, "refs": refs}


def end_to_end(setup_walls: list, setup_refs: list, loop: dict) -> dict:
    """End-to-end metrics, times scaled to the reference speed."""
    last = loop["last"]
    medians = [statistics.median(walls) for _pos, walls in sorted(loop["scaled"].items())]
    run_s = sum(medians) / len(medians)
    samples = sum(step.samples for step in last.values())
    queries = sum(r.queries for step in last.values() for _s, r, _e in step.runs if r is not None)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(scaled(setup_walls, setup_refs)),
        "run_s": run_s,
        "samples_per_s": samples / sum(medians) if samples else 0.0,
        "queries_per_sample": queries / samples if samples else 0.0,
        "peak_rss_mb": usage / 1024.0,
    }


def traced_pass(workload, tmp_dir: Path, items: list, tally: Tally,
                tracer: spans.Tracer) -> tuple[dict, list, list]:
    """Set up and run every item once with the wrappers installed.

    Returns the set-up's span totals, one record per step, and the
    reference times around the steps, as in :func:`closed_loop`.
    """
    installed = spans.install(tracer)
    try:
        tracer.reset_totals()
        prep = workload.setup(tmp_dir)
        setup_totals = dict(tracer.self_s)
        records, refs = [], []
        for run_no, item in enumerate(items):
            refs.append(time_reference(REF_SHARE * (records[-1].wall if records else 0.0)))
            tracer.reset_totals()
            tracer.run = run_no
            step = workload.step(prep, item, tracer)
            for seed, result, error in step.runs:
                tally.record(seed, result, error)
            records.append(step)
        tracer.run = -1
        refs.append(time_reference(REF_SHARE * records[-1].wall))
    finally:
        installed.restore()
    return setup_totals, records, refs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, setup_totals: dict, records: list, traced_refs: list,
              untraced_s: list) -> dict:
    """Per-layer metrics: means over the traced steps.

    ``untraced_s`` holds the untraced pass's scaled wall time per step.
    """
    n = len(records)
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    wall = unattributed = active = first_progress = events = 0.0
    hits = misses = 0
    sites: list = []
    for step in records:
        s_self, s_calls, s_counts = step.totals
        w_self, w_calls, w_counts = step.worker_totals
        for dst, *srcs in ((self_s, s_self, w_self), (calls, s_calls, w_calls),
                           (counts, s_counts, w_counts)):
            for src in srcs:
                for key, value in src.items():
                    dst[key] = dst.get(key, 0.0) + value
        wall += step.wall
        unattributed += step.wall - sum(s_self.values())
        active += sum(w_self.values())
        if step.progress:
            first_progress += step.progress[0]
            events += len(step.progress)
        for _seed, result, _e in step.runs:
            if result is not None and result.telemetry is not None:
                hits += result.telemetry.cache_hits
                misses += result.telemetry.cache_misses
        sites.extend(step.sites)

    def S(*names):
        return sum(self_s.get(x, 0.0) for x in names) / n

    def C(*names):
        return sum(calls.get(x, 0.0) for x in names) / n

    def K(key):
        return counts.get(key, 0.0) / n

    run_s = wall / n
    return {
        "worlds.build_s": setup_totals.get("worlds.build", 0.0),
        "index.build_s": S("index.build"),
        "index.knn_calls": C("index.knn", "index.knn_batch"),
        "index.self_s": S("index.knn", "index.knn_batch"),
        "lbs.query_calls": C("lbs.query", "lbs.query_batch"),
        "lbs.self_s": S("lbs.query", "lbs.query_batch"),
        "lbs.cache_hit_ratio": _ratio(hits, hits + misses),
        "history.query_calls": C("history.query"),
        "history.self_s": S("history.query", "history.prefetch", "history.record"),
        "history.replay_ratio": 1.0 - _ratio(K("history.misses"), C("history.query"))
        if C("history.query") else 0.0,
        "history.sites": statistics.fmean(sites) if sites else 0.0,
        "voronoi_oracle.cells": C("voronoi_oracle.compute"),
        "voronoi_oracle.exact_ratio": _ratio(K("voronoi_oracle.exact"),
                                             C("voronoi_oracle.compute")),
        "voronoi_oracle.self_s": S("voronoi_oracle.compute", "voronoi_oracle.history_region"),
        "arrangement.calls": C("arrangement.build_level_region"),
        "arrangement.pieces_per_call": _ratio(K("arrangement.pieces"),
                                              C("arrangement.build_level_region")),
        "arrangement.self_s": S("arrangement.build_level_region"),
        "variance.self_s": S("variance.choose"),
        "bounds.mc_finishes": C("bounds.mc_finish"),
        "bounds.mc_trials": K("bounds.trials"),
        "bounds.self_s": S("bounds.mc_finish"),
        "sampling.measure_s": S("sampling.measure_polygon"),
        "lnr_cell.cells": C("lnr_cell.compute"),
        "lnr_cell.self_s": S("lnr_cell.compute"),
        "edge_search.calls": C("edge_search.estimate_boundary_line"),
        "edge_search.queries_per_call": _ratio(K("edge_search.queries"),
                                               C("edge_search.estimate_boundary_line")),
        "edge_search.self_s": S("edge_search.estimate_boundary_line"),
        "driver.self_s": S("driver.run"),
        "parallel.export_s": S("parallel.export"),
        "parallel.first_progress_s": first_progress / n,
        "parallel.progress_events": events / n,
        "parallel.checkpoint_write_s": S("parallel.checkpoint_write"),
        "parallel.busy_ratio": _ratio(active / n, workload.workers * run_s)
        if isinstance(workload, FanoutWorkload) else 0.0,
        "api.checkpoints": C("api.to_state"),
        "api.checkpoint_mb": _ratio(K("api.checkpoint_bytes"),
                                    C("parallel.checkpoint_write")) / 2**20,
        "api.to_state_s": S("api.to_state"),
        "unattributed_s": unattributed / n,
        "trace_overhead": _ratio(sum(scaled([step.wall for step in records], traced_refs)),
                                 sum(untraced_s)) - 1.0,
    }


def env_stamp(seed: int, root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
    }


def _source_digest(src: Path) -> str:
    """Digest of the library's Python sources: names the code measured
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> str:
    """HEAD's commit id read from ``.git`` (no subprocess), else "unknown"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = root / ".git" / name
            if path.exists():
                return path.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"
