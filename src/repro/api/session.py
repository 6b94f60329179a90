"""Estimation sessions: build a spec fluently, run it, pause it, resume it.

The front door of the library::

    from repro.api import Session, MaxQueries, TargetRelativeCI
    from repro.datasets import is_category

    result = (
        Session(world)
        .lr(k=5)
        .census_weighted()
        .count(is_category("restaurant"))
        .run(MaxQueries(4000) | TargetRelativeCI(0.05))
    )

``service(...)`` describes the interface's capability surface — coverage
radius, disclosed attributes, position obfuscation, prominence ranking —
as a declarative :class:`~repro.lbs.InterfaceSpec` embedded in the run's
spec, so a WeChat-style obfuscated LNR scenario serializes, pauses, and
resumes like any other run::

    Session(world).lnr(k=10).service(
        obfuscation=ObfuscationModel(sigma=1.0),
        visible_attrs=("gender",),
    ).count().run(MaxQueries(6000))

``Session`` is an immutable builder over an
:class:`~repro.api.EstimationSpec` — every fluent call returns a new
session, so partial configurations can be shared and forked.  ``world``
is anything with ``.db`` (a :class:`~repro.lbs.SpatialDatabase`) — the
experiments' :class:`~repro.experiments.World` works as-is, and a bare
database is accepted too; census-weighted sampling additionally needs
``.census``.

``start()`` gives a :class:`SessionRun`: iterate it for per-sample
:class:`~repro.stats.Checkpoint` objects, stop iterating to pause,
``to_state()`` to persist, :meth:`Session.resume` to pick the run back
up — bit-identically, as if it had never stopped.  :func:`run_many`
drives several runs round-robin against one shared query pool.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..core import (
    AggregateKind,
    AggregateQuery,
    LnrAggConfig,
    LnrLbsAgg,
    LrAggConfig,
    LrLbsAgg,
    LrLbsNno,
    NnoConfig,
    QueryEngineConfig,
    StoppingRule,
    stopping_rule_from_dict,
)
from ..core._driver import EstimationDriver, build_result
from ..lbs import InterfaceSpec, ObfuscationModel, RankingSpec, SpatialDatabase
from ..resilience import FaultSpec, RetryPolicy
from ..sampling import GridWeightedSampler, UniformSampler
from ..stats import Checkpoint, EstimationResult
from ..worlds import WorldSpec
from ..worlds import registry as world_registry
from .spec import AggregateSpec, EstimationSpec, interface_kind

__all__ = ["Session", "SessionRun", "run_many", "estimate"]

_DRIVERS = {"lr": LrLbsAgg, "lnr": LnrLbsAgg, "nno": LrLbsNno}


def _resolve_world(world) -> tuple[SpatialDatabase, object]:
    """``(db, census-or-None)`` from a World-like object or a bare DB."""
    if isinstance(world, SpatialDatabase):
        return world, None
    db = getattr(world, "db", None)
    if db is None:
        raise TypeError(
            "world must be a SpatialDatabase or carry a .db attribute "
            "(e.g. repro.experiments.World)"
        )
    return db, getattr(world, "census", None)


class Session:
    """Immutable fluent builder of one estimation run over a world.

    ``world`` may be a live world object (anything with ``.db``), a
    declarative :class:`~repro.worlds.WorldSpec`, or a registry name
    like ``"paper/clustered"``.  Declarative worlds are built on the
    spot *and embedded in the run's spec*, so the session's
    ``spec.to_json()`` is a complete experiment document that
    :meth:`from_spec` reproduces bit-identically.
    """

    def __init__(self, world, spec: Optional[EstimationSpec] = None):
        if isinstance(world, str):
            world = world_registry.get(world)
        if isinstance(world, WorldSpec):
            spec = (spec if spec is not None else EstimationSpec()).replace(world=world)
            world = world.build()
        elif spec is None or spec.world is None:
            # A built repro.worlds.World still carries its spec — embed
            # it, so worlds.build(...) sessions stay one-document
            # reproducible/resumable just like WorldSpec sessions.
            world_spec = getattr(world, "spec", None)
            if isinstance(world_spec, WorldSpec):
                spec = (spec if spec is not None else EstimationSpec()).replace(
                    world=world_spec
                )
        _resolve_world(world)  # fail fast on an unusable world
        self.world = world
        self.spec = spec if spec is not None else EstimationSpec()

    def _with(self, **changes) -> "Session":
        spec = self.spec
        # Keep an embedded interface spec in lockstep with method/k: the
        # service's family and top-k are the estimator's family and
        # top-k; only the extra capabilities are free-standing.
        iface = changes.get("interface", spec.interface)
        if iface is not None and "interface" not in changes:
            method = changes.get("method", spec.method)
            k = changes.get("k", spec.k)
            changes["interface"] = iface.replace(kind=interface_kind(method), k=k)
        return Session(self.world, spec.replace(**changes))

    # -- interface / method -------------------------------------------
    def lr(self, k: int = 5, config: Optional[LrAggConfig] = None) -> "Session":
        """LR-LBS-AGG over a location-returning top-k interface."""
        return self._with(method="lr", k=k, config=config)

    def lnr(self, k: int = 5, config: Optional[LnrAggConfig] = None) -> "Session":
        """LNR-LBS-AGG over a rank-only top-k interface."""
        return self._with(method="lnr", k=k, config=config)

    def nno(self, k: int = 5, config: Optional[NnoConfig] = None) -> "Session":
        """The nearest-neighbour-oracle baseline (biased; for comparison)."""
        return self._with(method="nno", k=k, config=config)

    # -- service capabilities -----------------------------------------
    def service(
        self,
        interface: Optional[InterfaceSpec] = None,
        *,
        max_radius: Optional[float] = None,
        visible_attrs: Optional[Sequence[str]] = None,
        obfuscation: Optional[ObfuscationModel] = None,
        ranking: Optional[RankingSpec] = None,
        fault: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> "Session":
        """Describe the service's capability surface declaratively.

        Either pass a full :class:`~repro.lbs.InterfaceSpec`, or the
        individual capabilities — coverage radius (§5.3), disclosed
        attributes, position obfuscation (§6.3), ranking policy (§5.3
        prominence), connection fault model and retry policy — and the
        session derives kind/k from the current method.  The
        capabilities serialize with the spec, so WeChat-style obfuscated
        LNR scenarios checkpoint and resume like any other run.
        """
        if interface is None:
            interface = InterfaceSpec(
                kind=interface_kind(self.spec.method),
                k=self.spec.k,
                max_radius=max_radius,
                visible_attrs=tuple(visible_attrs) if visible_attrs is not None else None,
                obfuscation=obfuscation,
                ranking=ranking if ranking is not None else RankingSpec(),
                fault=fault,
                retry=retry,
            )
        elif any(
            v is not None
            for v in (max_radius, visible_attrs, obfuscation, ranking, fault, retry)
        ):
            raise ValueError("pass either a full InterfaceSpec or capability kwargs, not both")
        return self._with(interface=interface)

    def resilience(
        self,
        fault: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> "Session":
        """Put the service connection behind a deterministic fault model.

        ``fault`` injects seeded transient faults (timeouts, rate
        limits, dropped answers) into every genuine service call;
        ``retry`` retries them with capped exponential backoff and
        deterministic jitter.  Both ride the embedded
        :class:`~repro.lbs.InterfaceSpec` (created here if the session
        has none yet), so faulty runs serialize, pause, and resume —
        bit-identically — like any other run.  ``resilience()`` with
        both ``None`` clears the fault model.
        """
        interface = self.spec.interface
        if interface is None:
            interface = InterfaceSpec(
                kind=interface_kind(self.spec.method), k=self.spec.k
            )
        return self._with(interface=interface.replace(fault=fault, retry=retry))

    # -- sampling ------------------------------------------------------
    def uniform(self) -> "Session":
        """Uniform query sampling over the world's region (the default)."""
        return self._with(sampler="uniform")

    def census_weighted(self) -> "Session":
        """Population-raster weighted sampling (§5.2) — the world must
        carry a census grid."""
        return self._with(sampler="census")

    # -- aggregate -----------------------------------------------------
    def count(self, where=None, *, needs_location: bool = False,
              pass_through: bool = False) -> "Session":
        """Estimate ``COUNT(*) WHERE where``."""
        return self._with(aggregate=AggregateSpec(
            "count", None, where, needs_location, pass_through))

    def sum(self, attr: str, where=None, *, needs_location: bool = False,
            pass_through: bool = False) -> "Session":
        """Estimate ``SUM(attr) WHERE where``."""
        return self._with(aggregate=AggregateSpec(
            "sum", attr, where, needs_location, pass_through))

    def avg(self, attr: str, where=None, *, needs_location: bool = False,
            pass_through: bool = False) -> "Session":
        """Estimate ``AVG(attr) WHERE where`` (ratio of SUM and COUNT)."""
        return self._with(aggregate=AggregateSpec(
            "avg", attr, where, needs_location, pass_through))

    # -- run parameters ------------------------------------------------
    def engine(self, engine: QueryEngineConfig) -> "Session":
        """Query-engine knobs: index backend, answer cache, snapping."""
        return self._with(engine=engine)

    def seed(self, seed: int) -> "Session":
        return self._with(seed=seed)

    def batch(self, batch_size: int) -> "Session":
        """Prefetch sample batches of this size through the vectorized
        engine (drivers degrade it where prefetching would be unsound)."""
        return self._with(batch_size=batch_size)

    # ------------------------------------------------------------------
    def build(self, *, effective_coords=None, index=None) -> EstimationDriver:
        """Construct the estimator this session describes.

        ``effective_coords``/``index`` pass straight through to
        :meth:`~repro.lbs.InterfaceSpec.build` — the parallel executor's
        sharing hooks (a worker's realized obfuscation jitters and
        spatial index, each reused across the runs it executes).  Leave
        them ``None`` for ordinary sessions.
        """
        spec = self.spec
        db, census = _resolve_world(self.world)
        interface = spec.interface_spec().build(
            db, engine=spec.engine,
            effective_coords=effective_coords, index=index,
        )
        agg = spec.aggregate
        if agg.pass_through:
            # Push the condition into the service (§5.1): the estimator
            # sees a filtered view and runs the unconditioned aggregate.
            interface = interface.filtered(agg.where)
            query = AggregateQuery(AggregateKind(agg.kind), agg.attr)
        else:
            query = AggregateQuery(
                AggregateKind(agg.kind), agg.attr, agg.where, agg.needs_location
            )
        if spec.sampler == "census":
            if census is None:
                raise ValueError(
                    "census-weighted sampling needs a world with a .census grid"
                )
            sampler = GridWeightedSampler(census)
        else:
            sampler = UniformSampler(db.region)
        return _DRIVERS[spec.method](
            interface, sampler, query, config=spec.config, seed=spec.seed
        )

    def start(self, until: StoppingRule) -> "SessionRun":
        """Begin a streaming run; iterate the returned :class:`SessionRun`."""
        return SessionRun(self.spec, self.build(), until)

    def run(self, until: StoppingRule) -> EstimationResult:
        """Build, run to completion, and return the result."""
        return self.start(until).run()

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec, world=None) -> "Session":
        """Reconstruct a session from a complete experiment document.

        ``spec`` is an :class:`EstimationSpec` or its JSON text.  When
        it embeds a :class:`~repro.worlds.WorldSpec`, the world is
        rebuilt from the spec alone (deterministically — same database,
        bit for bit); pass ``world`` only to run the document against
        an externally supplied world instead — the embedded world spec
        is then discarded (re-embedded from the override's own spec when
        it has one), so later checkpoints describe the world the run
        actually ran over.
        """
        if isinstance(spec, str):
            spec = EstimationSpec.from_json(spec)
        if world is None:
            if spec.world is None:
                raise ValueError(
                    "spec embeds no WorldSpec; pass world= to run it"
                )
            world = spec.world.build()
        elif spec.world is not None:
            spec = spec.replace(world=None)  # stale: describes another world
        return cls(world, spec)

    # ------------------------------------------------------------------
    @staticmethod
    def resume(world, state: dict,
               until: Optional[StoppingRule] = None) -> "SessionRun":
        """Continue a run from a :meth:`SessionRun.to_state` snapshot.

        ``world`` must be the same world the original session ran over
        (the state stores what the run *learned*, not the database) —
        or ``None`` when the state's spec embeds a
        :class:`~repro.worlds.WorldSpec`, which then rebuilds it.
        ``until`` defaults to the rule serialized in the state.  The
        resumed run is bit-identical to never having paused: same RNG
        stream, same cached knowledge, same query accounting.  The state
        holds the query points the run paid for, not the answers; the
        rebuilt interface recomputes those answers from the world and
        the spec.
        """
        spec = EstimationSpec.from_dict(state["spec"])
        if world is None:
            if spec.world is None:
                raise ValueError(
                    "state embeds no WorldSpec; pass the world it ran over"
                )
            world = spec.world.build()
        elif spec.world is not None:
            # An explicitly supplied world wins: drop the embedded spec
            # (the Session constructor re-embeds the override's own spec
            # when it carries one), so a later pause/resume cannot
            # silently continue over a rebuilt *different* world.
            spec = spec.replace(world=None)
        if until is None:
            rule = state.get("until")
            if rule is None:
                raise ValueError("state carries no stopping rule; pass until=")
            until = stopping_rule_from_dict(rule)
        session = Session(world, spec)
        est = session.build()
        est.load_state(state["driver"])
        # session.spec may have re-embedded the override's spec.
        return SessionRun(session.spec, est, until)


class SessionRun:
    """A live (possibly paused) streaming estimation run.

    Iterate for per-sample checkpoints; stop iterating at any point and
    call :meth:`to_state` to persist, or :meth:`run` to drain to
    completion.  :meth:`result` is valid at any pause point — it
    reflects everything accumulated so far.
    """

    def __init__(self, spec: EstimationSpec, est: EstimationDriver,
                 until: StoppingRule):
        self.spec = spec
        self.estimator = est
        self.until = until
        self._iter = est.run_iter(until, batch_size=spec.batch_size)
        # A resumed driver starts from the origin its state recorded.
        self._start = est.queries_start
        self.last: Optional[Checkpoint] = None

    def __iter__(self) -> Iterator[Checkpoint]:
        for checkpoint in self._iter:
            self.last = checkpoint
            yield checkpoint

    def run(self) -> EstimationResult:
        """Drain the remaining checkpoints and return the result."""
        for _ in self:
            pass
        return self.result()

    def result(self) -> EstimationResult:
        """The estimation result as of the last completed sample."""
        return build_result(self.estimator, self._start)

    @property
    def queries_spent(self) -> int:
        """Interface queries consumed by this run so far."""
        return self.estimator.interface.queries_used - self._start

    def to_state(self) -> dict:
        """Fully serializable pause snapshot (spec + rule + driver state).

        Valid between checkpoints — i.e. whenever this object's iterator
        is not being advanced.  Feed to :meth:`Session.resume`.
        """
        state = {
            "spec": self.spec.to_dict(),
            "driver": self.estimator.to_state(queries_start=self._start),
        }
        try:
            state["until"] = self.until.to_dict()
        except ValueError:
            state["until"] = None  # custom rule: pass until= on resume
        return state


def run_many(
    runs: Sequence[SessionRun],
    *,
    max_total_queries: Optional[int] = None,
    workers: Optional[int] = None,
) -> list[EstimationResult]:
    """Drive several runs concurrently against one shared query pool.

    Runs advance round-robin, one sample each per turn, so a single
    expensive spec cannot starve the others; each run still honours its
    own stopping rule.  When the pool — total interface queries summed
    over all runs — is exhausted, every run is paused where it stands
    and the partial results are returned (each run's own
    :meth:`SessionRun.to_state` remains valid for later resumption).

    ``workers > 1`` fans the runs across a process pool instead
    (:func:`repro.parallel.run_many_parallel`), with results
    bit-identical to the sequential drive.  Parallel runs must be fully
    declarative: every run's spec has to embed the same
    :class:`~repro.worlds.WorldSpec` (the world is rebuilt/cached once
    and shared by every worker), none may
    have been advanced yet, and ``max_total_queries`` — a *shared*
    pool, inherently sequential bookkeeping — is not supported.
    """
    if max_total_queries is not None and max_total_queries < 0:
        raise ValueError("max_total_queries must be non-negative")
    if workers is not None and workers > 1:
        if max_total_queries is not None:
            raise ValueError(
                "a shared query pool (max_total_queries) is round-robin "
                "bookkeeping across runs and cannot be parallelized; "
                "drop workers= or the pool"
            )
        from ..parallel import run_many_parallel  # lazy: api must not depend on parallel

        for run in runs:
            if run.last is not None:
                raise ValueError(
                    "parallel run_many needs fresh runs; one was already advanced"
                )
        return run_many_parallel(
            [run.spec for run in runs],
            [run.until for run in runs],
            workers=workers,
        )
    active = {i: iter(run) for i, run in enumerate(runs)}

    def pool_exhausted() -> bool:
        if max_total_queries is None:
            return False
        return sum(run.queries_spent for run in runs) >= max_total_queries

    while active and not pool_exhausted():
        for i in list(active):
            try:
                next(active[i])
            except StopIteration:
                del active[i]
            if pool_exhausted():
                break
    return [run.result() for run in runs]


def estimate(world, spec: EstimationSpec, until: StoppingRule) -> EstimationResult:
    """One-shot functional form: run ``spec`` over ``world``."""
    return Session(world, spec).run(until)
