"""Process-pool execution of estimation runs over one shared world.

:func:`run_many_parallel` takes fully declarative runs — specs that all
embed the *same* :class:`~repro.worlds.WorldSpec`, paired with stopping
rules — builds (or cache-loads) the world once, exports it as a private
:class:`~repro.parallel.WorldCache` entry (:class:`SharedWorld`), and
fans the runs across a pool of worker processes.  Results
are **bit-identical** to driving the same specs sequentially through
:func:`repro.api.run_many`: runs are independent (each owns its seed,
RNG stream, budget, and answer cache), so distributing them changes
nothing about what any single run computes.

What is shared, and why it is safe:

* the database columns — read-only mmaps of the exported entry's
  files (a worker physically cannot mutate them);
* per-worker realized obfuscation jitters — each worker calls
  :func:`~repro.lbs.interface.realize_positions`, the call an interface
  makes at construction, once per distinct
  :class:`~repro.lbs.ObfuscationModel` and reuses the ``(N, 2)`` array
  across the runs it executes; the draw is a function of the model and
  the world alone, so every worker and every rebuilt interface agrees
  on the service's positions;
* per-worker spatial indexes — each worker builds the index for a given
  (obfuscation model, backend, ``auto_brute_max``) combination once and
  reuses it across the runs it executes; index construction is
  deterministic, so a shared index answers bit-identically to a per-run
  one.

The pool itself, :func:`run_pool` with its worker loop :func:`serve`,
knows nothing of specs: it hands opaque task payloads to a worker entry
point.  It serves both callers: :func:`run_many_parallel`, whose
payloads are spec JSON, and the experiment harness, whose payloads are
seeds and whose estimator closures reach forked workers unpickled.
Each worker talks to the coordinator over one duplex pipe: tasks go
down it, and a :class:`RunProgress` event per checkpoint comes back up
it.  Workers optionally persist each run's
:meth:`~repro.api.SessionRun.to_state` JSON (atomic replace) every
``state_every`` samples — a run interrupted mid-stream resumes from its
checkpoint file via :meth:`repro.api.Session.resume` like any
sequential run.

Failure handling (``retries`` / ``run_deadline``):

* A run that *raises* inside a worker is reported with its spec and
  full traceback and the pool keeps going — the exception is
  deterministic (it would raise identically on a retry), so the run
  settles as a failure immediately.
* A worker that *dies* (crash, OOM kill, ``os._exit``) or *hangs*
  (no checkpoint for ``run_deadline`` seconds — the heartbeat watchdog
  on the progress stream) takes only its in-flight run with it.  The
  coordinator sees a death as end-of-file on that worker's pipe.  The
  run is re-enqueued up to ``retries`` times, resuming from its latest
  per-run checkpoint file when that file records the same spec,
  stopping rule and state format (bit-identical to never crashing —
  resume is), and a replacement worker is spawned while the respawn
  budget (``workers * (retries + 1)`` process starts) lasts, degrading
  gracefully to a smaller pool afterwards.
* Only after every run is accounted for is :class:`ParallelRunError`
  raised, carrying the failures plus all completed results (completed
  runs' checkpoint files stay on disk for manual
  :meth:`~repro.api.Session.resume`).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ..api.session import Session, SessionRun
from ..api.spec import EstimationSpec
from ..core import QueryEngineConfig, StoppingRule
from ..core._driver import STATE_VERSION
from ..index import make_index_arrays
from ..lbs.interface import realize_positions
from ..obs import registry as _obs
from ..stats import EstimationResult
from ..worlds.spec import World, WorldSpec
from .sharedmem import SharedWorld, cleanup_stale_segments
from .worldcache import WorldCache

__all__ = ["run_many_parallel", "ParallelRunError", "RunProgress"]

#: Test seam: when set (in the parent, before fan-out — fork propagates
#: it), called in the worker as ``hook(run_index, samples, attempt)``
#: before each checkpoint is reported.  Tests use it to crash
#: (``os._exit``) or wedge (``time.sleep``) a worker at an exact sample.
_test_checkpoint_hook: Optional[Callable[[int, int, int], None]] = None


@dataclass(frozen=True)
class RunProgress:
    """One worker-side checkpoint, streamed to the coordinating process."""

    run_index: int
    samples: int
    queries: int
    estimate: float


class ParallelRunError(RuntimeError):
    """One or more parallel runs failed (the rest completed normally).

    ``failures`` lists ``(run_index, spec_json, traceback_text)`` per
    failed run; ``results`` is the full result list with ``None`` at
    the failed slots, so completed work is never thrown away.
    ``lost`` holds the indexes of the failed runs that did not raise:
    their worker died or hung on every attempt, or no worker was left
    to run them.  Every other failure raised in its worker.
    """

    def __init__(self, failures: list, results: list, lost: frozenset):
        self.failures = failures
        self.results = results
        self.lost = lost
        lines = [f"{len(failures)} of {len(results)} parallel runs failed:"]
        for run_index, spec_json, tb in failures:
            last = tb.strip().splitlines()[-1] if tb.strip() else "unknown error"
            lines.append(f"  run {run_index}: {last}")
            lines.append(f"    spec: {spec_json}")
        lines.append("full tracebacks are in .failures; completed results in .results")
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Parent-side helpers
# ----------------------------------------------------------------------
def _default_context() -> mp.context.BaseContext:
    # fork shares the parent's loaded modules for free; spawn is the
    # portable fallback (everything shipped to workers pickles).
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _write_json_atomic(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        # json.dumps runs the C encoder; json.dump to a file would run
        # the pure-Python iterencode.  Same bytes either way.
        f.write(json.dumps(payload))
    os.replace(tmp, path)


def _load_resume_state(state_path: Optional[str], attempt: int, spec_json: str,
                       until: StoppingRule) -> Optional[dict]:
    """The checkpoint a retried run resumes from, or None to start fresh.

    Only retry attempts resume, and only from a file that records this
    run's spec and stopping rule in this release's state format: an
    attempt that died before its first checkpoint leaves behind
    whatever an earlier call wrote under the same name.  That file, a
    torn or unreadable one (the crash may have raced the atomic
    replace's temp file, never the published one, but be defensive) and
    a custom rule that cannot be compared all fall back to a fresh
    start — correct either way, since resume is bit-identical to never
    pausing.
    """
    if attempt == 0 or state_path is None:
        return None
    try:
        with open(state_path, encoding="utf-8") as f:
            state = json.load(f)
        rule = until.to_dict()
    except (OSError, ValueError):
        return None
    if (state["driver"].get("version") != STATE_VERSION
            or json.dumps(state["spec"], sort_keys=True) != spec_json
            or state["until"] != rule):
        return None
    return state


def _execute_run(world, positions, indexes, run_index, spec_json, until,
                 results, checkpoint_dir, state_every, attempt):
    spec = EstimationSpec.from_json(spec_json)
    db = world.db
    obfuscation = spec.interface_spec().obfuscation
    eff = None
    if obfuscation is not None:
        eff = positions.get(obfuscation)
        if eff is None:
            eff = positions[obfuscation] = realize_positions(db, obfuscation)
            eff.flags.writeable = False  # shared by every run of this worker
    engine = spec.engine if spec.engine is not None else QueryEngineConfig()
    index_key = (obfuscation, engine.index_backend, engine.auto_brute_max)
    index = indexes.get(index_key)
    if index is None:
        coords = eff if eff is not None else db.coords
        index = indexes[index_key] = make_index_arrays(
            coords, db.tids, engine.index_backend,
            auto_brute_max=engine.auto_brute_max,
        )
    state_path = None
    if checkpoint_dir is not None:
        state_path = os.path.join(checkpoint_dir, f"run-{run_index:03d}.state.json")
    driver = Session(world, spec).build(effective_coords=eff, index=index)
    state = _load_resume_state(state_path, attempt, spec_json, until)
    if state is not None:
        # Session.resume's recipe, on a driver built with the worker's
        # reused positions and index.
        driver.load_state(state["driver"])
    run = SessionRun(spec, driver, until)
    for cp in run:
        hook = _test_checkpoint_hook
        if hook is not None:
            hook(run_index, cp.samples, attempt)
        results.send(("progress", run_index, cp.samples, cp.queries, cp.estimate))
        if state_path is not None and state_every is not None \
                and cp.samples % state_every == 0:
            # Between checkpoint yields the iterator is at rest, so
            # to_state() is a valid pause snapshot — the rolling
            # checkpoint a killed run resumes from.
            _write_json_atomic(state_path, run.to_state())
    if state_path is not None:
        _write_json_atomic(state_path, run.to_state())
    return run.result()


def _worker_main(conn, collect, descriptor, untils, checkpoint_dir, state_every):
    shared = SharedWorld.attach(descriptor)
    try:
        world = shared.world()  # one attach + database per worker
        positions: dict = {}  # ObfuscationModel -> realized (N, 2) positions
        indexes: dict = {}    # (model or None, backend, auto_brute_max) -> index

        def run_task(run_index, spec_json, attempt):
            return _execute_run(
                world, positions, indexes, run_index, spec_json,
                untils[run_index], conn, checkpoint_dir, state_every, attempt,
            )

        serve(conn, collect, run_task)
    finally:
        shared.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def serve(conn, collect: bool, run_task: Callable) -> None:
    """A pool worker's loop: run each task that arrives on ``conn``.

    ``run_task(run_index, payload, attempt)`` returns the run's result,
    sent back as ``done``; an exception goes back as ``error`` with its
    traceback.  When the parent had a metrics registry active at fan-out
    time (``collect``), each run collects into a fresh registry whose
    snapshot rides its result message, so the coordinator merges each
    run's metrics exactly once — including the partial counts of a run
    that raised.
    """
    while True:
        task = conn.recv()
        if task is None:
            return
        run_index, payload, attempt = task
        reg = _obs.MetricsRegistry() if collect else None
        scope = (_obs.collecting(reg) if reg is not None
                 else contextlib.nullcontext())
        try:
            with scope:
                result = run_task(run_index, payload, attempt)
            snap = reg.to_dict() if reg is not None else None
            conn.send(("done", run_index, attempt, result, snap))
        except Exception:
            snap = reg.to_dict() if reg is not None else None
            conn.send(("error", run_index, attempt, traceback.format_exc(), snap))


class _Worker:
    """Parent-side handle of one pool process.

    Each worker owns one duplex pipe, which both ends write
    synchronously: tasks go down it one at a time, and the worker's
    progress, done and error messages come back up it.  So the
    coordinator always knows which run a dead worker was holding and
    which worker sent each message.  Only the worker holds the far end,
    so its death reads as end-of-file here, and a worker that dies
    mid-write can tear only its own last message.  A queue shared by
    all workers would be written by each worker's feeder thread under
    one cross-process lock, and a worker killed while its feeder held
    that lock would block every other worker's messages for good.
    """

    __slots__ = ("proc", "conn", "run_index", "attempt", "last_activity")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.run_index: Optional[int] = None  # None = idle
        self.attempt = 0
        self.last_activity = time.monotonic()


def _reap(procs: Sequence) -> None:
    """Deterministic shutdown: join, then escalate terminate → kill.

    Every process is left *reaped* (joined) — no zombies survive a hang,
    and no timeout path silently leaves a live child behind.
    """
    for p in procs:
        if p.is_alive():
            p.join(timeout=5.0)
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        if p.is_alive():
            p.join(timeout=2.0)
    for p in procs:
        if p.is_alive():
            p.kill()
            p.join()
    for p in procs:
        # Already-exited processes still need their final join to be
        # reaped on POSIX.
        if p.exitcode is not None:
            p.join()


def run_pool(ctx, workers: int, tasks: Sequence, target: Callable, args: tuple = (),
             *, retries: int, run_deadline: Optional[float] = None,
             on_progress: Optional[Callable[[RunProgress], None]] = None) -> list:
    """Run one task per payload on a pool of ``workers`` processes.

    Each process of ``ctx`` runs ``target(conn, collect, *args)``, which
    hands :func:`serve` a ``run_task`` for the payloads.  ``retries``,
    ``run_deadline`` and ``on_progress`` are :func:`run_many_parallel`'s.
    Returns the results in task order; raises :class:`ParallelRunError`,
    whose failures carry the failed tasks' payloads and whose ``lost``
    names the tasks that did not raise, once every task has settled.
    """
    # Captured before forking: when a registry is active here, every
    # worker collects into a fresh one per run and the snapshots merge
    # back into this registry as runs settle.
    parent_reg = _obs._active
    collect = parent_reg is not None

    def pinc(name: str, labels: Optional[dict] = None) -> None:
        if parent_reg is not None:
            parent_reg.inc(name, 1.0, labels)

    pool: list[_Worker] = []  # live workers; a lost one is reaped at once
    spawned = 0
    max_spawns = workers * (retries + 1)
    pending: deque = deque((i, 0) for i in range(len(tasks)))
    results: list = [None] * len(tasks)
    failures: list = []
    lost: set[int] = set()
    settled_runs: set[int] = set()

    def spawn_worker() -> _Worker:
        nonlocal spawned
        conn, child_conn = ctx.Pipe()
        p = ctx.Process(target=target, args=(child_conn, collect, *args), daemon=True)
        p.start()
        # Only the worker may hold the far end: its death then reads as
        # end-of-file here, and later forks do not inherit it.
        child_conn.close()
        spawned += 1
        w = _Worker(p, conn)
        pool.append(w)
        return w

    def settle_failure(run_index: int, reason: str) -> None:
        failures.append((run_index, tasks[run_index], reason))
        lost.add(run_index)
        settled_runs.add(run_index)
        pinc("parallel_runs_total", {"outcome": "crashed"})

    def drain(w: _Worker) -> bool:
        """Absorb every complete message waiting on ``w``'s pipe; False
        once the pipe is at end-of-file, i.e. the worker is gone (a torn
        last message is dropped).  An error raised by ``on_progress``
        propagates: only the pipe's own errors mean the worker is gone."""
        while True:
            try:
                if not w.conn.poll():
                    return True
                msg = w.conn.recv()
            except (EOFError, OSError):
                return False
            absorb(w, msg)

    def lose(w: _Worker, reason: str) -> None:
        """A dead or killed worker leaves the pool, reaped; its in-flight
        run is re-enqueued or settled.  What it sent counts first, so a
        run it completed is not retried."""
        drain(w)
        w.proc.join()  # its end of the pipe is closed: it has exited
        pool.remove(w)
        w.conn.close()
        if w.run_index is None:
            return
        pinc("parallel_worker_deaths_total", {"reason": reason})
        if w.attempt < retries:
            # Highest priority: the recovered run is furthest along.
            pending.appendleft((w.run_index, w.attempt + 1))
        else:
            settle_failure(
                w.run_index,
                f"worker process {reason} (exit code {w.proc.exitcode}) on "
                f"attempt {w.attempt + 1}/{retries + 1}; retries exhausted",
            )

    def absorb(w: _Worker, msg) -> None:
        kind = msg[0]
        if kind == "progress":
            _kind, run_index, samples, queries, estimate = msg
            w.last_activity = time.monotonic()
            if on_progress is not None:
                on_progress(RunProgress(run_index, samples, queries, estimate))
            return
        w.run_index = None  # idle again
        run_index = msg[1]
        if run_index in settled_runs:
            # A lost worker's pipe is drained to end-of-file before its
            # run is retried, so a second settlement is not expected; if
            # one arrives, both are bit-identical — count one.
            return
        settled_runs.add(run_index)
        if kind == "done":
            _kind, _ri, attempt, result, snap = msg
            results[run_index] = result
            if parent_reg is not None and snap is not None:
                parent_reg.merge(snap)
            pinc("parallel_runs_total", {"outcome": "ok"})
            if attempt > 0:
                pinc("runs_recovered_total")
        elif kind == "error":
            _kind, _ri, _attempt, tb, snap = msg
            failures.append((run_index, tasks[run_index], tb))
            if parent_reg is not None and snap is not None:
                parent_reg.merge(snap, extra_labels={"outcome": "failed"})
            pinc("parallel_runs_total", {"outcome": "error"})
        else:
            raise RuntimeError(f"unexpected worker message {msg!r}")

    try:
        for _ in range(min(workers, len(tasks))):
            spawn_worker()

        while len(settled_runs) < len(tasks):
            # 1) Heartbeat watchdog: a busy worker silent past the
            #    per-run deadline is hung — kill it and retry the run.
            if run_deadline is not None:
                now = time.monotonic()
                for w in list(pool):
                    if w.run_index is not None and \
                            now - w.last_activity > run_deadline:
                        w.proc.terminate()
                        w.proc.join(timeout=2.0)
                        if w.proc.is_alive():
                            w.proc.kill()
                            w.proc.join()
                        lose(w, "hung")
            # 2) Keep the pool at strength while work and budget remain.
            idle = [w for w in pool if w.run_index is None]
            while (pending and len(idle) < len(pending)
                   and len(pool) < workers and spawned < max_spawns):
                idle.append(spawn_worker())
            # 3) Dispatch pending runs to idle workers.  The send fails
            #    only when the worker has died idle since its pipe was
            #    last read; that counts as its death, run included.
            while pending and idle:
                w = idle.pop()
                ri, attempt = pending.popleft()
                w.run_index, w.attempt = ri, attempt
                w.last_activity = time.monotonic()
                try:
                    w.conn.send((ri, tasks[ri], attempt))
                except OSError:
                    lose(w, "died")
            # 4) A non-empty backlog with no pool left and no budget to
            #    rebuild one can never settle — fail it out loudly
            #    rather than spinning forever.
            if pending and not pool and spawned >= max_spawns:
                while pending:
                    ri, _attempt = pending.popleft()
                    settle_failure(
                        ri,
                        f"respawn budget exhausted ({spawned} worker starts, "
                        f"limit {max_spawns}); run never got a worker",
                    )
                continue
            # 5) Drain results.  End-of-file on a pipe is its worker's
            #    death.  The wait times out only so that the watchdog
            #    above gets to run.
            ready = mp_connection.wait([w.conn for w in pool], timeout=0.25)
            for w in list(pool):
                if w.conn in ready and not drain(w):
                    lose(w, "died")
    finally:
        for w in pool:
            # Every run settled, or the call is failing: workers may
            # exit.  One that has died since its pipe was last read is
            # reaped below all the same.
            with contextlib.suppress(OSError):
                w.conn.send(None)
        _reap([w.proc for w in pool])
        for w in pool:
            w.conn.close()
    if failures:
        raise ParallelRunError(failures, results, frozenset(lost))
    return results


def run_many_parallel(
    specs: Sequence[EstimationSpec],
    untils: Union[StoppingRule, Sequence[StoppingRule]],
    *,
    workers: int = 2,
    world: Optional[World] = None,
    cache: Optional[WorldCache] = None,
    checkpoint_dir: Optional[str] = None,
    state_every: Optional[int] = None,
    on_progress: Optional[Callable[[RunProgress], None]] = None,
    mp_context=None,
    retries: int = 2,
    run_deadline: Optional[float] = None,
) -> list[EstimationResult]:
    """Run every spec to its stopping rule across a process pool.

    Parameters
    ----------
    specs:
        Fully declarative runs — each must embed the *same*
        :class:`~repro.worlds.WorldSpec` (compared by content hash) and
        carry a serializable aggregate condition.
    untils:
        One stopping rule per spec, or a single rule applied to all.
    workers:
        Pool size (>= 1; ``1`` is the sequential baseline on the same
        machinery).
    world:
        The pre-built world to share, when the caller already has it;
        its spec's content hash must match the specs'.  Default: load
        through ``cache`` when given, else build from the spec.
    cache:
        A :class:`WorldCache` to load/store the built world through.
    checkpoint_dir / state_every:
        When set, workers persist each run's pause snapshot to
        ``<dir>/run-<i>.state.json`` (atomic replace) every
        ``state_every`` samples and at completion —
        :meth:`repro.api.Session.resume` picks any of them up, and
        crashed-worker retries resume from them automatically.
    on_progress:
        Callback invoked in *this* process with a :class:`RunProgress`
        per completed sample of any run.
    retries:
        How many times a run whose *worker died or hung* is re-enqueued
        (resuming from its latest checkpoint file when available)
        before it settles as a failure.  Worker deaths also draw from a
        respawn budget of ``workers * (retries + 1)`` process starts;
        past it the pool degrades to the surviving workers.  Runs that
        raise an ordinary exception are *not* retried — the exception
        is deterministic and would simply raise again.
    run_deadline:
        Optional per-run heartbeat deadline in seconds: a worker whose
        in-flight run reports no checkpoint for this long is presumed
        hung, killed, and its run retried like a crash.  ``None``
        (default) disables the watchdog.

    Returns the results in spec order — bit-identical to running each
    spec sequentially (crash-recovered runs included: resume is
    bit-identical).  Raises :class:`ParallelRunError` when any run
    failed after its retries (completed results and checkpoint files
    are preserved).
    """
    specs = list(specs)
    if not specs:
        return []
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if run_deadline is not None and run_deadline <= 0.0:
        raise ValueError("run_deadline must be positive (or None)")
    if isinstance(untils, StoppingRule):
        untils = [untils] * len(specs)
    else:
        untils = list(untils)
        if len(untils) != len(specs):
            raise ValueError(
                f"{len(specs)} specs but {len(untils)} stopping rules"
            )
    world_hash = specs[0].world_content_hash()
    if world_hash is None:
        raise ValueError(
            "parallel runs must embed a WorldSpec in every spec (build "
            "sessions from a WorldSpec or registry name so the world is "
            "declarative); spec 0 has none"
        )
    for i, spec in enumerate(specs):
        if spec.world_content_hash() != world_hash:
            raise ValueError(
                f"all parallel runs must share one world: spec {i} embeds a "
                "different WorldSpec than spec 0"
            )
    # Serializing up front also rejects ad-hoc callable conditions loudly
    # here, not in a worker traceback.
    spec_jsons = [spec.to_json() for spec in specs]

    wspec = specs[0].world
    if world is None:
        world = cache.load_or_build(wspec) if cache is not None else wspec.build()
    else:
        supplied = getattr(world, "spec", None)
        if not isinstance(supplied, WorldSpec) or supplied.content_hash() != world_hash:
            raise ValueError(
                "the supplied world does not match the WorldSpec embedded in "
                "the specs (content hashes differ); pass the world built "
                "from that spec, or let run_many_parallel build it"
            )

    if checkpoint_dir is not None:
        checkpoint_dir = os.fspath(checkpoint_dir)
        os.makedirs(checkpoint_dir, exist_ok=True)

    ctx = mp_context if mp_context is not None else _default_context()
    cleanup_stale_segments()
    shared = SharedWorld.export(world)
    try:
        return run_pool(
            ctx, workers, spec_jsons, _worker_main,
            (shared.descriptor(), untils, checkpoint_dir, state_every),
            retries=retries, run_deadline=run_deadline, on_progress=on_progress,
        )
    finally:
        shared.destroy()
