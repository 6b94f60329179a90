"""The streaming estimation loop shared by the drivers.

LR-LBS-AGG, LNR-LBS-AGG, and the NNO baseline all run the same outer
loop: draw sample points, evaluate each through the estimator's
``_sample_at``, push the contribution, trace progress, stop when a
:class:`~repro.core.stopping.StoppingRule` fires.  Batching
(``batch_size > 1``) additionally pays for the kNN answers of whole
blocks of points through the history's lazy-reveal ``prefetch`` before
evaluating them one by one — each answer is only *revealed* (absorbed
into history) when its sample is evaluated, so a batched run's knowledge
at every sample is identical to the unbatched run's and estimates match
bit for bit.  Keeping the loop in one place keeps the subtle parts —
budget clamping, mid-batch exhaustion, per-sample stop re-checks — in
sync across drivers.

The loop is a *generator*: :meth:`EstimationDriver.run_iter` yields
a :class:`~repro.stats.Checkpoint` after every completed sample, so a
caller can stream progress, stop early, or pause the run and persist
the estimator's :meth:`~EstimationDriver.to_state` snapshot.  Resuming
from that snapshot (``load_state`` on a freshly built estimator over
the same database) continues bit-identically — same RNG stream, same
cached knowledge, same query accounting — because everything a run has
learned is replayed into the new estimator before the loop restarts.

:class:`EstimationDriver` is the base class of the three drivers; it
owns the public ``run`` / ``run_iter`` / ``to_state`` / ``load_state``
surface so the drivers only supply their sampling logic and their
driver-specific state.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from ..geometry import Point
from ..lbs import BudgetExhausted
from ..obs import registry as _obs
from ..obs.telemetry import RunTelemetry
from ..stats import (
    Checkpoint,
    EstimationResult,
    RatioStat,
    RunningStat,
    TracePoint,
    normal_ci,
)
from .stopping import StoppingRule

__all__ = ["EstimationDriver", "build_result", "STATE_VERSION"]

_INF = float("inf")

#: The state format :meth:`EstimationDriver.to_state` writes, and the
#: only one :meth:`~EstimationDriver.load_state` resumes.  v5 stores
#: query points where v4 stored whole answers; v4 added the resilience
#: fault-stream position, v3 the run telemetry, v2 the lazy-reveal
#: prefetch and the LR oracle's own RNG stream.
STATE_VERSION = 5


def _checkpoint(est, queries_start: int) -> Checkpoint:
    """Progress snapshot of a live estimator (no RNG consumption)."""
    stat = est._ratio.numerator if est.query.is_ratio else est._stat
    if stat.n < 2:
        ci, sem = (-_INF, _INF), _INF
    else:
        sem = stat.sem()
        ci = normal_ci(stat.mean, sem)
    queries = est.interface.queries_used - queries_start
    estimate = est.estimate()
    return Checkpoint(
        queries=queries,
        samples=est.samples,
        estimate=estimate,
        ci=ci,
        sem=sem,
        telemetry=_telemetry(est, queries, estimate, ci, sem),
    )


def _telemetry(est, queries: int, estimate: float, ci, sem: float) -> RunTelemetry:
    """The run's :class:`RunTelemetry` — derived accounting, nothing fed
    back into the estimator (telemetry observes, never branches)."""
    rel = None
    if math.isfinite(sem) and estimate != 0.0:
        rel = (ci[1] - ci[0]) / 2.0 / abs(estimate)
    cache = est.interface.cache_stats
    return RunTelemetry(
        samples=est.samples,
        queries=queries,
        checkpoints=getattr(est, "_obs_checkpoints", 0),
        cache_hits=cache["hits"],
        cache_misses=cache["misses"],
        ci_rel_halfwidth=rel,
    )


def build_result(est, queries_start: int) -> EstimationResult:
    """The :class:`EstimationResult` of a (possibly resumed) run."""
    cp = _checkpoint(est, queries_start)
    return EstimationResult(
        estimate=cp.estimate,
        queries=cp.queries,
        samples=est.samples,
        stat=est._ratio.numerator if est.query.is_ratio else est._stat,
        trace=list(est._trace),
        telemetry=cp.telemetry,
    )


def _drive(est, until, batch_size, start):
    stop = False
    # Sample points drawn (and, for batches, prefetched) but not yet
    # evaluated.  Kept on the estimator — not in a loop local — so a run
    # paused mid-batch serializes the remainder and the resumed run
    # consumes it before drawing fresh points, leaving the RNG stream
    # exactly where an uninterrupted run would have it.
    pending = getattr(est, "_pending_points", None)
    if pending is None:
        pending = est._pending_points = []
    while not stop:
        cp = _checkpoint(est, start)
        if until.should_stop(cp):
            break
        if not pending:
            b = batch_size
            remaining = until.remaining_samples(cp)
            if remaining is not None:
                b = min(b, remaining)
            remaining = until.remaining_queries(cp)
            if remaining is not None:
                b = min(b, remaining)
            b = max(b, 1)
            if b > 1:
                points = est.sampler.sample_batch(est.rng, b)
                pending.extend(points)
                try:
                    est.history.prefetch(points)
                except BudgetExhausted:
                    pass
            else:
                pending.append(est.sampler.sample(est.rng))
        first = True
        while pending:
            if not first and until.should_stop(_checkpoint(est, start)):
                break
            first = False
            q = pending.pop(0)
            try:
                num, den = est._sample_at(q)
            except BudgetExhausted:
                stop = True
                break
            est._stat.push(num)
            est._ratio.push(num, den)
            est._trace.append(
                TracePoint(est.interface.queries_used - start, est.samples, est.estimate())
            )
            # One checkpoint is yielded per completed sample; the counter
            # is bumped first so the yielded telemetry includes it.
            est._obs_checkpoints = getattr(est, "_obs_checkpoints", 0) + 1
            cp = _checkpoint(est, start)
            reg = _obs._active
            if reg is not None:
                reg.inc("run_samples_total")
                reg.inc("run_checkpoints_total")
                reg.set_gauge("run_queries_spent", float(cp.queries))
                rel = cp.telemetry.ci_rel_halfwidth
                if rel is not None:
                    reg.set_gauge("run_ci_relative_halfwidth", rel)
            yield cp


class EstimationDriver:
    """Shared run/stream/checkpoint machinery of the three estimators.

    Subclasses provide ``kind`` (the state tag), ``_sample_at``, the
    constructor wiring, optionally ``_effective_batch_size`` (LR
    degrades batches when history is off, NNO cannot prefetch at all),
    and the ``_state_extra``/``_load_state_extra`` pair for
    driver-specific state.
    """

    kind: str = ""

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        return self._ratio.n if self.query.is_ratio else self._stat.n

    def estimate(self) -> float:
        if self.query.is_ratio:
            return self._ratio.estimate()
        return self._stat.mean

    # ------------------------------------------------------------------
    def _effective_batch_size(self, batch_size: int) -> int:
        """Hook: clamp the requested batch size to what is sound."""
        return batch_size

    def run_iter(
        self,
        until: StoppingRule,
        *,
        batch_size: int = 1,
    ) -> Iterator[Checkpoint]:
        """Stream the run: one :class:`~repro.stats.Checkpoint` per sample.

        Query accounting starts at the origin recorded by
        :meth:`load_state` (consumed, so a *later* fresh run on the same
        estimator counts from its own beginning, as always), else at the
        current budget position.  The start picked is kept as
        ``queries_start``.

        A sample interrupted by budget exhaustion is discarded (its
        partial queries still count, as they would against a real rate
        limit).  On mid-prefetch exhaustion the paid prefix is already
        staged, so the per-point loop reveals it for free and stops at
        the first unpaid point — exactly like a sequential run.  Between
        two yields, :meth:`to_state` is a valid pause snapshot.
        """
        if not isinstance(until, StoppingRule):
            raise TypeError(f"until must be a StoppingRule, got {type(until).__name__}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        start = getattr(self, "_resume_queries_start", None)
        if start is None:
            start = self.interface.queries_used
        self._resume_queries_start = None
        self.queries_start = start
        return _drive(self, until, self._effective_batch_size(batch_size), start)

    def run(
        self,
        until: Optional[StoppingRule] = None,
        *,
        batch_size: int = 1,
    ) -> EstimationResult:
        """Run until the stopping rule fires and return the result.

        ``until`` composes :class:`~repro.core.stopping.MaxQueries`,
        :class:`~repro.core.stopping.MaxSamples`, and
        :class:`~repro.core.stopping.TargetRelativeCI` with ``|``.
        Query budgets count *total* interface queries, including those
        spent inside cell computations.

        ``batch_size > 1`` draws that many sample points at once and
        pays for their kNN answers through the interface's vectorized
        ``query_batch``, revealing each answer only when its sample is
        evaluated (the history's lazy-reveal split).  Because sample
        points replay the single-draw stream and the oracles run on
        their own RNG streams, every evaluated sample contributes
        exactly what it would in an unbatched run, and sample-bound
        runs (``MaxSamples``) are bit-identical to sequential ones.
        Batching never changes what a sample means — but it does pay a
        batch's queries up front, so a *query*-bound run (``MaxQueries``
        or an interface budget) can stop up to a batch earlier than its
        sequential twin.
        """
        if until is None:
            raise ValueError(
                "run() needs a stopping rule, e.g. run(MaxQueries(5000)) or "
                "run(MaxQueries(5000) | MaxSamples(100))"
            )
        for _ in self.run_iter(until, batch_size=batch_size):
            pass
        return build_result(self, self.queries_start)

    # ------------------------------------------------------------------
    def to_state(self, *, queries_start: Optional[int] = None) -> dict:
        """Serializable snapshot of the whole run (JSON-safe dict).

        Captures the RNG stream position, the accumulators and trace,
        the interface's budget/answer-cache, and the driver-specific
        caches/history via ``_state_extra``.  ``queries_start`` records
        where the current run began so a resumed run keeps counting
        from the same origin.
        """
        state = {
            "kind": self.kind,
            "version": STATE_VERSION,
            "telemetry": _checkpoint(self, queries_start or 0).telemetry.to_dict(),
            "queries_start": queries_start,
            "rng": self.rng.bit_generator.state,
            "stat": self._stat.state_dict(),
            "ratio": self._ratio.state_dict(),
            "trace": [[p.queries, p.samples, p.estimate] for p in self._trace],
            "pending": [[p.x, p.y] for p in getattr(self, "_pending_points", [])],
            "interface": self.interface.engine_state(),
        }
        state.update(self._state_extra())
        return state

    def load_state(self, state: dict) -> None:
        """Restore :meth:`to_state` onto a freshly constructed estimator.

        The estimator must have been built over the same database with
        the same constructor arguments (interface kind/k, sampler,
        query, config, seed) — the state carries the *learned* half of
        a run, the spec carries the *configured* half.
        """
        if state.get("kind") != self.kind:
            raise ValueError(
                f"state is for a {state.get('kind')!r} driver, not {self.kind!r}"
            )
        version = state.get("version", 1)
        if version != STATE_VERSION:
            # Resuming another format would silently lose accounting
            # (or diverge from the original run — a resumed faulty
            # connection would restart its fault stream) instead of
            # being bit-identical, so refuse loudly.
            raise ValueError(
                f"cannot resume a version-{version} snapshot with this release "
                f"(state format v{STATE_VERSION}); rerun from the spec instead"
            )
        telemetry = RunTelemetry.from_dict(state.get("telemetry"))
        # Telemetry is derived accounting: only the checkpoint counter
        # must be carried over (everything else re-derives from the
        # restored accumulators and engine state).
        self._obs_checkpoints = telemetry.checkpoints
        self.rng.bit_generator.state = state["rng"]
        self._stat = RunningStat.from_state(state["stat"])
        self._ratio = RatioStat.from_state(state["ratio"])
        self._trace = [TracePoint(int(q), int(s), e) for q, s, e in state["trace"]]
        self._pending_points = [Point(x, y) for x, y in state.get("pending", [])]
        self.interface.restore_engine_state(state["interface"])
        self._load_state_extra(state)
        self._resume_queries_start = state.get("queries_start")

    def _state_extra(self) -> dict:
        return {}

    def _load_state_extra(self, state: dict) -> None:
        pass
