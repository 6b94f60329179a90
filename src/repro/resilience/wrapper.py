"""The resilient interface wrapper: faults in, retries around.

:class:`ResilientInterface` wraps any
:class:`~repro.lbs.KnnInterface`-shaped object and threads a
:class:`~repro.resilience.FaultSpec` (deterministic injected faults) and
a :class:`~repro.resilience.RetryPolicy` (capped exponential backoff)
through both the scalar and batch query paths.  Everything else — budget,
caches, ranking, engine state, ``filtered()`` views — delegates to the
wrapped interface, so drivers, histories, and sessions run against it
unchanged.

Invariants the wrapper maintains:

* **Answers are never altered.**  A fault delays or denies an attempt;
  the answer that eventually comes back is exactly the wrapped
  interface's.  A run that retries through all its faults is therefore
  bit-identical (estimate, trace, and — with the default
  ``charge_faults=False`` — query accounting) to the fault-free run.
* **Cache hits are never faulted.**  A hit is not a network call
  (§2.1: the rate limit is on network calls), so the fault stream only
  ticks on genuine service attempts — which also keeps the stream
  position independent of *when* repeats happen.
* **Batches behave like loops.**  With faults configured, a batch is
  answered point by point so every attempt meets the same fault stream
  a sequential loop would (the wrapped interface's loop-vs-batch answer
  identity is regression-tested); with ``fault=None`` the wrapper
  passes batches straight through to the vectorized kernels.
* **Pause/resume replays the stream.**  The attempt counter and tallies
  serialize under the engine state's ``"resilience"`` key (driver state
  v4); a resumed run faults at exactly the attempts the uninterrupted
  run would.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..geometry import Point
from ..lbs.interface import _query_point
from ..obs import registry as _obs
from .faults import FaultSpec, FaultState, RetriesExhausted, fault_error
from .retry import RetryPolicy

__all__ = ["ResilientInterface"]


class ResilientInterface:
    """A :class:`~repro.lbs.KnnInterface` behind a lossy connection.

    ``fault=None`` with a retry policy is legal (an always-clean
    connection never retries, but the policy still serializes and
    resumes); ``retry=None`` with faults means the first fault of a
    query propagates as its :class:`TransientServiceError` — no second
    attempt.
    """

    def __init__(
        self,
        inner,
        *,
        fault: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        state: Optional[FaultState] = None,
    ):
        self.inner = inner
        self.fault = fault
        self.retry = retry
        self.state = state if state is not None else FaultState()
        self._obs_labels = {"kind": "lr" if inner.returns_location else "lnr"}

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name):
        # Everything not overridden reads through to the wrapped
        # interface (budget, k, region, cache_stats, nearest_first, ...).
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- the fault gate ------------------------------------------------
    def _gate(self) -> None:
        """Run one query's attempts through the fault stream.

        Returns when an attempt comes up clean (the caller then issues
        the real query); raises the transient error (no retry policy),
        :class:`RetriesExhausted` (every allowed attempt faulted), or
        :class:`~repro.lbs.BudgetExhausted` (``charge_faults`` and the
        budget ran dry mid-retry).
        """
        fault, retry, st = self.fault, self.retry, self.state
        attempts = 0
        while True:
            kind = st.next_fault(fault)
            attempts += 1
            if kind is None:
                return
            reg = _obs._active
            if reg is not None:
                reg.inc("faults_injected_total", 1.0, {"kind": kind})
            if retry is None:
                raise fault_error(kind, attempts)
            if retry.charge_faults:
                # The service's rate limiter counts the failed call.
                # Spend first (it raises BudgetExhausted *before*
                # incrementing), then mirror the spend into the counter
                # exactly like the wrapped interface's own spend site.
                self.inner.budget.spend(1)
                if reg is not None:
                    reg.inc("interface_queries_total", 1.0, self._obs_labels)
            if attempts >= retry.max_attempts:
                raise RetriesExhausted(kind, attempts)
            delay = retry.delay(attempts, st.retries)
            st.retries += 1
            st.backoff_seconds += delay
            if reg is not None:
                reg.inc("retries_total")
                reg.observe("retry_backoff_seconds", delay)
            if retry.sleep:
                time.sleep(delay)

    # -- query paths ---------------------------------------------------
    def query(self, point):
        """One kNN query through the lossy connection.

        Cache hits bypass the fault gate entirely (no network call);
        genuine calls pass the gate first, then the wrapped interface
        answers exactly as it would unwrapped.
        """
        if self.fault is None:
            return self.inner.query(point)
        point = Point(*point)
        if self.inner.cached_answer(point) is None:
            self._gate()
        return self.inner.query(point)

    def query_batch(self, points: Iterable[Point]) -> list:
        """A batch of queries, each attempt metered by the fault stream.

        With faults configured the batch degrades to a per-point loop —
        deliberately: each genuine call must consume exactly one fault
        draw in order, the way a sequential client would experience the
        connection.  Answer values are unchanged either way (the wrapped
        interface's loop and batch kernels are bit-identical), and
        budget-exhaustion behaves like the sequential loop the batch
        contract is defined against.  Every point is checked before the
        first fault draw, so a non-finite one raises ``ValueError`` with
        the fault stream, budget and cache untouched, as unwrapped.
        """
        if self.fault is None:
            return self.inner.query_batch(points)
        pts = [_query_point(p) for p in points]
        return [self.query(p) for p in pts]

    def affordable_prefix(self, points: Iterable[Point]) -> int:
        # Fault-unaware by design: with charge_faults=True a faulted
        # attempt can consume budget the prefix computation did not
        # reserve, in which case query/query_batch raise BudgetExhausted
        # exactly as a sequential loop hitting the limit would.
        return self.inner.affordable_prefix(points)

    # -- views ---------------------------------------------------------
    def filtered(self, predicate) -> "ResilientInterface":
        """A pass-through-condition view on the *same* lossy connection.

        Like the shared :class:`~repro.lbs.QueryBudget`, the fault
        stream is shared: a filtered call to the same service rides the
        same network and the same rate limiter.
        """
        return ResilientInterface(
            self.inner.filtered(predicate),
            fault=self.fault,
            retry=self.retry,
            state=self.state,
        )

    # -- state ---------------------------------------------------------
    def engine_state(self) -> dict:
        state = self.inner.engine_state()
        state["resilience"] = self.state.to_dict()
        return state

    def restore_engine_state(self, state: dict) -> None:
        if "resilience" not in state:
            raise ValueError(
                "engine state has no 'resilience' section but the spec "
                "configures fault injection or retries; this snapshot was "
                "written by an incompatible release — rerun from the spec "
                "instead"
            )
        self.inner.restore_engine_state(
            {k: v for k, v in state.items() if k != "resilience"}
        )
        self.state.restore(state["resilience"])

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilientInterface({self.inner!r}, fault={self.fault!r}, "
            f"retry={self.retry!r}, attempts={self.state.attempts})"
        )
