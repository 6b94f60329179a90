"""Declarative interface-capability specs.

An :class:`InterfaceSpec` pins down *everything observable* about a
simulated service — interface family (LR/LNR), top-k, coverage radius,
disclosed attributes, position obfuscation, and the ranking policy — as
one frozen, JSON-round-tripping value.  It is the missing half of the
declarative surface: an :class:`~repro.api.EstimationSpec` describes the
estimation run, an ``InterfaceSpec`` describes the service it runs
against, and together a WeChat-style obfuscated LNR scenario or a
Places-style prominence-ranked service becomes fully declarative,
checkpointable, and resumable.

``build()`` turns a spec into a live interface::

    spec = InterfaceSpec(kind="lnr", k=10,
                         obfuscation=ObfuscationModel(sigma=1.0),
                         visible_attrs=("gender",))
    api = spec.build(database)

The capability grid the spec models mirrors the paper: top-k truncation
(§2.1), ``max_radius`` (§5.3), prominence ranking (§5.3), hidden
locations and obfuscated positions (§6.3, Fig. 21), and attribute
projection (what the service's result cards actually show).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..index import QueryEngineConfig
from ..resilience import FaultSpec, ResilientInterface, RetryPolicy
from .budget import QueryBudget
from .database import SpatialDatabase
from .interface import KnnInterface, LnrLbsInterface, LrLbsInterface
from .ranking import ObfuscationModel

__all__ = ["RankingSpec", "InterfaceSpec"]

#: Interface families of the paper's taxonomy (§2.1).
KINDS = ("lr", "lnr")
POLICIES = ("distance", "prominence")


@dataclass(frozen=True)
class RankingSpec:
    """The service's ranking policy: pure distance, or §5.3 prominence.

    Prominence scores ``w_d * dscore + w_s * static`` where ``dscore``
    decays linearly to 0 at ``distance_cap`` and ``static`` is the
    ``static_attr`` popularity normalized over the database.

    Note: the paper's LR/LNR estimators derive selection probabilities
    from distance-Voronoi cells, so they are unbiased only against
    nearest-first services; a prominence-ranked interface answers
    correctly (and batches vectorized), but estimates over it carry the
    §5.3 ranking bias, and the observation history certifies no known
    disks from its answers.
    """

    policy: str = "distance"
    static_attr: Optional[str] = None
    weight_distance: float = 0.5
    weight_static: float = 0.5
    distance_cap: float = 50.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"ranking policy must be one of {POLICIES}, got {self.policy!r}")
        if self.policy == "prominence" and not self.static_attr:
            raise ValueError("prominence ranking requires a static_attr")
        if self.weight_distance < 0.0 or self.weight_static < 0.0:
            raise ValueError("ranking weights must be non-negative")
        if self.distance_cap <= 0.0:
            raise ValueError("distance_cap must be positive")

    @classmethod
    def distance(cls) -> "RankingSpec":
        """The default nearest-first order."""
        return cls()

    @classmethod
    def prominence(
        cls,
        static_attr: str,
        weight_distance: float = 0.5,
        weight_static: float = 0.5,
        distance_cap: float = 50.0,
    ) -> "RankingSpec":
        """Google-Places style prominence order (paper §5.3)."""
        return cls("prominence", static_attr, weight_distance, weight_static, distance_cap)

    def prominence_kwargs(self) -> Optional[dict]:
        """The ``KnnInterface(prominence=...)`` configuration, or None."""
        if self.policy != "prominence":
            return None
        return {
            "static_attr": self.static_attr,
            "weight_distance": self.weight_distance,
            "weight_static": self.weight_static,
            "distance_cap": self.distance_cap,
        }

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "static_attr": self.static_attr,
            "weight_distance": self.weight_distance,
            "weight_static": self.weight_static,
            "distance_cap": self.distance_cap,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankingSpec":
        return cls(
            policy=data.get("policy", "distance"),
            static_attr=data.get("static_attr"),
            weight_distance=data.get("weight_distance", 0.5),
            weight_static=data.get("weight_static", 0.5),
            distance_cap=data.get("distance_cap", 50.0),
        )


@dataclass(frozen=True)
class InterfaceSpec:
    """A complete, frozen description of one simulated service interface.

    Attributes
    ----------
    kind:
        ``"lr"`` (answers carry locations/distances) or ``"lnr"``
        (rank-only answers).
    k:
        Top-k truncation of every answer.
    max_radius:
        Optional coverage radius (§5.3); tuples beyond it are never
        returned.
    visible_attrs:
        Attributes the service discloses per answer (``None`` = all).
    obfuscation:
        Optional :class:`~repro.lbs.ranking.ObfuscationModel` — fixed
        per-tuple jitter of the positions the service ranks (and, for
        LR, reports).  The build realizes it as one columnar ``(N, 2)``
        draw over the database's coordinate arrays (clip and region
        clamp vectorized); the default stream assigns jitters by *row
        position* over tid-sorted tuples, so rebuild the interface from
        the same spec on the same database to keep them — or opt into
        ``per_tid=True`` for jitters stable across filtered/subsampled
        databases.
    ranking:
        The :class:`RankingSpec` ordering policy.
    fault:
        Optional :class:`~repro.resilience.FaultSpec` — the service
        connection injects deterministic, seeded transient faults
        (timeouts, rate limits, dropped answers).  Answers are never
        altered, and with the field absent the built interface is the
        bare one, bit for bit.
    retry:
        Optional :class:`~repro.resilience.RetryPolicy` — retry faulted
        attempts with capped exponential backoff and deterministic
        jitter.  Meaningful with ``fault`` (or a wrapper-injected fault
        source); legal alone.
    """

    kind: str = "lr"
    k: int = 5
    max_radius: Optional[float] = None
    visible_attrs: Optional[tuple[str, ...]] = None
    obfuscation: Optional[ObfuscationModel] = None
    ranking: RankingSpec = field(default_factory=RankingSpec)
    fault: Optional[FaultSpec] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"interface kind must be one of {KINDS}, got {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_radius is not None and self.max_radius <= 0.0:
            raise ValueError("max_radius must be positive")
        if self.visible_attrs is not None and not isinstance(self.visible_attrs, tuple):
            object.__setattr__(self, "visible_attrs", tuple(self.visible_attrs))

    @property
    def returns_location(self) -> bool:
        return self.kind == "lr"

    def replace(self, **changes) -> "InterfaceSpec":
        """A copy with the given fields changed (specs are frozen)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def build(
        self,
        database: SpatialDatabase,
        *,
        budget: Optional[QueryBudget] = None,
        engine: Optional[QueryEngineConfig] = None,
        effective_coords=None,
        index=None,
    ) -> KnnInterface:
        """Construct the live interface this spec describes.

        ``effective_coords`` and ``index`` are sharing hooks for the
        parallel executor: pre-realized obfuscated positions (the exact
        ``(N, 2)`` array the interface would draw and clamp itself —
        drawn once per worker instead of once per run) and a pre-built
        spatial index over the coordinates the interface ranks with.
        Both are bit-identity-preserving; leave them ``None`` everywhere
        else.
        """
        cls = LrLbsInterface if self.kind == "lr" else LnrLbsInterface
        interface: KnnInterface = cls(
            database,
            self.k,
            budget=budget,
            max_radius=self.max_radius,
            obfuscation=self.obfuscation,
            prominence=self.ranking.prominence_kwargs(),
            visible_attrs=self.visible_attrs,
            engine=engine,
            effective_coords=effective_coords,
            index=index,
        )
        if self.fault is not None or self.retry is not None:
            return ResilientInterface(interface, fault=self.fault, retry=self.retry)
        return interface

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "k": self.k,
            "max_radius": self.max_radius,
            "visible_attrs": list(self.visible_attrs) if self.visible_attrs is not None else None,
            "obfuscation": self.obfuscation.to_dict() if self.obfuscation is not None else None,
            "ranking": self.ranking.to_dict(),
            "fault": self.fault.to_dict() if self.fault is not None else None,
            "retry": self.retry.to_dict() if self.retry is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InterfaceSpec":
        visible: Optional[Sequence[str]] = data.get("visible_attrs")
        obf = data.get("obfuscation")
        ranking = data.get("ranking")
        fault = data.get("fault")
        retry = data.get("retry")
        return cls(
            kind=data["kind"],
            k=data["k"],
            max_radius=data.get("max_radius"),
            visible_attrs=tuple(visible) if visible is not None else None,
            obfuscation=ObfuscationModel.from_dict(obf) if obf is not None else None,
            ranking=RankingSpec.from_dict(ranking) if ranking is not None else RankingSpec(),
            fault=FaultSpec.from_dict(fault) if fault is not None else None,
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InterfaceSpec":
        return cls.from_dict(json.loads(text))
