"""Declarative estimation specs — the unit of deployment.

An :class:`EstimationSpec` pins down *everything configurable* about an
estimation run — interface kind and k, query-engine knobs, sampler
choice, the aggregate expression, seed and batch size — as one frozen,
JSON-serializable value.  A service front door receives a spec, an
experiment log records one, and a resumed checkpoint embeds one; the
*learned* half of a run (RNG position, history, caches) travels
separately in the driver state (see
:class:`~repro.core.EstimationDriver`).

Specs are usually built with the fluent :class:`~repro.api.Session`
builder rather than by hand.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Union

from ..core import (
    AttrEquals,
    LnrAggConfig,
    LrAggConfig,
    NnoConfig,
    QueryEngineConfig,
)
from ..lbs import InterfaceSpec
from ..worlds import WorldSpec

__all__ = ["AggregateSpec", "EstimationSpec"]

#: Estimator registry keys: paper algorithm per interface kind.
METHODS = ("lr", "lnr", "nno")
SAMPLERS = ("uniform", "census")
AGGREGATES = ("count", "sum", "avg")

_CONFIG_TYPES = {"lr": LrAggConfig, "lnr": LnrAggConfig, "nno": NnoConfig}


def _engine_from_dict(data: dict) -> QueryEngineConfig:
    """Rebuild an engine config.

    Documents written before ``auto_sharded_min`` was removed carry it,
    null unless a user set it: a null is dropped, a set value refused.
    """
    data = dict(data)
    if data.pop("auto_sharded_min", None) is not None:
        raise ValueError(
            "engine.auto_sharded_min was removed: 'auto' no longer picks "
            "the sharded index by size; choose it explicitly with "
            'index_backend="sharded"'
        )
    return QueryEngineConfig(**data)


def interface_kind(method: str) -> str:
    """The interface family a method queries (NNO reads locations too)."""
    return "lnr" if method == "lnr" else "lr"


@dataclass(frozen=True)
class AggregateSpec:
    """The aggregate expression of a spec: ``KIND(attr) WHERE where``.

    ``where`` is a selection condition.  A serializable
    :class:`~repro.core.AttrEquals` (what ``is_category``/``is_brand``
    return) keeps the whole spec serializable; any other callable is
    accepted for ad-hoc runs but makes :meth:`EstimationSpec.to_dict`
    raise.  ``pass_through=True`` pushes the condition into the service
    (a ``filtered()`` interface view, §5.1) instead of evaluating it
    client-side per sampled tuple; ``needs_location`` marks conditions
    that read the tuple location, telling LNR estimators to run
    position inference first.
    """

    kind: str = "count"
    attr: Optional[str] = None
    where: Optional[Union[AttrEquals, Callable]] = None
    needs_location: bool = False
    pass_through: bool = False

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATES:
            raise ValueError(f"aggregate kind must be one of {AGGREGATES}, got {self.kind!r}")
        if self.kind in ("sum", "avg") and not self.attr:
            raise ValueError(f"{self.kind} requires an attribute")
        if self.pass_through and self.where is None:
            raise ValueError("pass_through requires a where condition")

    def to_dict(self) -> dict:
        if self.where is not None and not isinstance(self.where, AttrEquals):
            raise ValueError(
                "only AttrEquals conditions serialize; this spec carries an "
                "ad-hoc callable — run it directly or express the condition "
                "with is_category()/is_brand()/AttrEquals"
            )
        return {
            "kind": self.kind,
            "attr": self.attr,
            "where": self.where.to_dict() if self.where is not None else None,
            "needs_location": self.needs_location,
            "pass_through": self.pass_through,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSpec":
        where = data.get("where")
        return cls(
            kind=data["kind"],
            attr=data.get("attr"),
            where=AttrEquals.from_dict(where) if where is not None else None,
            needs_location=data.get("needs_location", False),
            pass_through=data.get("pass_through", False),
        )


@dataclass(frozen=True)
class EstimationSpec:
    """A complete, frozen description of one estimation run.

    Attributes
    ----------
    method:
        ``"lr"`` (LR-LBS-AGG), ``"lnr"`` (LNR-LBS-AGG), or ``"nno"``
        (the baseline) — which also fixes the interface kind.
    k:
        Top-k of the simulated service interface.
    aggregate:
        The :class:`AggregateSpec` to estimate.
    sampler:
        ``"uniform"`` or ``"census"`` (population-raster weighted,
        §5.2; requires a world that carries a census grid).
    interface:
        Optional :class:`~repro.lbs.InterfaceSpec` describing the full
        service capability surface — max_radius, visible attributes,
        obfuscation, ranking policy.  ``None`` = a plain top-k service
        of the kind ``method`` implies.  When given, its ``kind`` and
        ``k`` must agree with ``method``/``k`` (the
        :class:`~repro.api.Session` builder keeps them in sync).
    world:
        Optional :class:`~repro.worlds.WorldSpec` describing the hidden
        database itself.  When set, the spec is a *complete* experiment
        — world + interface + estimation in one serializable document —
        and :meth:`~repro.api.Session.from_spec` reconstructs the whole
        run bit-identically from the JSON alone.
    engine:
        :class:`~repro.core.QueryEngineConfig` — index backend, answer
        cache, snapping.  ``None`` = engine defaults.
    config:
        Method config (:class:`~repro.core.LrAggConfig` /
        :class:`~repro.core.LnrAggConfig` /
        :class:`~repro.core.NnoConfig`).  ``None`` = paper defaults.
    seed / batch_size:
        RNG seed and the query-prefetch batch size of the run.
    """

    method: str = "lr"
    k: int = 5
    aggregate: AggregateSpec = field(default_factory=AggregateSpec)
    sampler: str = "uniform"
    interface: Optional[InterfaceSpec] = None
    world: Optional[WorldSpec] = None
    engine: Optional[QueryEngineConfig] = None
    config: Optional[Union[LrAggConfig, LnrAggConfig, NnoConfig]] = None
    seed: int = 0
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.config is not None:
            expected = _CONFIG_TYPES[self.method]
            if not isinstance(self.config, expected):
                raise ValueError(
                    f"method {self.method!r} takes a {expected.__name__}, "
                    f"got {type(self.config).__name__}"
                )
        if self.interface is not None:
            expected_kind = interface_kind(self.method)
            if self.interface.kind != expected_kind:
                raise ValueError(
                    f"method {self.method!r} runs against a {expected_kind!r} "
                    f"interface, but the interface spec says {self.interface.kind!r}"
                )
            if self.interface.k != self.k:
                raise ValueError(
                    f"interface spec k={self.interface.k} disagrees with "
                    f"estimation k={self.k}"
                )

    def interface_spec(self) -> InterfaceSpec:
        """The service this spec runs against (default: plain top-k)."""
        if self.interface is not None:
            return self.interface
        return InterfaceSpec(kind=interface_kind(self.method), k=self.k)

    def world_content_hash(self) -> Optional[str]:
        """Content address of the embedded world, or ``None`` when the
        spec carries no :class:`~repro.worlds.WorldSpec`.

        Delegates to :meth:`WorldSpec.content_hash` — the key under
        which :class:`repro.parallel.WorldCache` persists the built
        database, and the grouping key the parallel executor shares one
        in-memory world across runs by.
        """
        return self.world.content_hash() if self.world is not None else None

    def replace(self, **changes) -> "EstimationSpec":
        """A copy with the given fields changed (specs are frozen)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {
            "method": self.method,
            "k": self.k,
            "aggregate": self.aggregate.to_dict(),
            "sampler": self.sampler,
            "interface": self.interface.to_dict() if self.interface is not None else None,
            "world": self.world.to_dict() if self.world is not None else None,
            "engine": asdict(self.engine) if self.engine is not None else None,
            "config": asdict(self.config) if self.config is not None else None,
            "seed": self.seed,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EstimationSpec":
        method = data["method"]
        config = data.get("config")
        engine = data.get("engine")
        interface = data.get("interface")
        world = data.get("world")
        return cls(
            method=method,
            k=data["k"],
            aggregate=AggregateSpec.from_dict(data["aggregate"]),
            sampler=data.get("sampler", "uniform"),
            interface=InterfaceSpec.from_dict(interface) if interface is not None else None,
            world=WorldSpec.from_dict(world) if world is not None else None,
            engine=_engine_from_dict(engine) if engine is not None else None,
            config=_CONFIG_TYPES[method](**config) if config is not None else None,
            seed=data.get("seed", 0),
            batch_size=data.get("batch_size", 1),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EstimationSpec":
        return cls.from_dict(json.loads(text))
