"""First-class stopping rules for estimation runs.

The paper's experiments stop on one of two hard limits — a query budget
(the service rate limit, §2.1) or a sample count — while a production
deployment stops on *precision*: keep sampling until the confidence
interval is tight enough.  All three are expressed as
:class:`StoppingRule` objects, composable with ``|``::

    run(MaxQueries(5000) | TargetRelativeCI(0.05))

A rule sees the :class:`~repro.stats.Checkpoint` after every completed
sample and may additionally advertise how many more queries/samples it
will allow, which the batched executor uses to clamp prefetch sizes so
a batch never overshoots a hard limit.

Rules are serializable (:meth:`StoppingRule.to_dict` /
:func:`stopping_rule_from_dict`) so a paused run's checkpoint state can
carry its own stopping condition.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..stats import Checkpoint, z_value

__all__ = [
    "StoppingRule",
    "MaxQueries",
    "MaxSamples",
    "TargetRelativeCI",
    "AnyRule",
    "stopping_rule_from_dict",
]


class StoppingRule(abc.ABC):
    """Decides, after every completed sample, whether a run is done."""

    @abc.abstractmethod
    def should_stop(self, checkpoint: Checkpoint) -> bool:
        """True once the run has met this rule's condition."""

    def remaining_queries(self, checkpoint: Checkpoint) -> Optional[int]:
        """Queries this rule still allows (None = unbounded)."""
        return None

    def remaining_samples(self, checkpoint: Checkpoint) -> Optional[int]:
        """Samples this rule still allows (None = unbounded)."""
        return None

    def to_dict(self) -> dict:
        """JSON-serializable form (see :func:`stopping_rule_from_dict`)."""
        raise ValueError(f"{type(self).__name__} is not serializable")

    def __or__(self, other: "StoppingRule") -> "AnyRule":
        return AnyRule(self, other)


class MaxQueries(StoppingRule):
    """Stop once the run has spent ``limit`` interface queries."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("query limit must be non-negative")
        self.limit = limit

    def should_stop(self, checkpoint: Checkpoint) -> bool:
        return checkpoint.queries >= self.limit

    def remaining_queries(self, checkpoint: Checkpoint) -> Optional[int]:
        return max(self.limit - checkpoint.queries, 0)

    def to_dict(self) -> dict:
        return {"rule": "max_queries", "limit": self.limit}

    def __repr__(self) -> str:
        return f"MaxQueries({self.limit})"


class MaxSamples(StoppingRule):
    """Stop once the run has accumulated ``limit`` samples."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("sample limit must be non-negative")
        self.limit = limit

    def should_stop(self, checkpoint: Checkpoint) -> bool:
        return checkpoint.samples >= self.limit

    def remaining_samples(self, checkpoint: Checkpoint) -> Optional[int]:
        return max(self.limit - checkpoint.samples, 0)

    def to_dict(self) -> dict:
        return {"rule": "max_samples", "limit": self.limit}

    def __repr__(self) -> str:
        return f"MaxSamples({self.limit})"


class TargetRelativeCI(StoppingRule):
    """Adaptive precision stop: CI half-width ≤ ``target`` × |estimate|.

    The normal-approximation interval at ``level`` must shrink to within
    the relative target before the rule fires; ``min_samples`` guards
    against lucky early stops while the variance estimate is still
    noise.  Pair it with a budget rule (``TargetRelativeCI(0.05) |
    MaxQueries(10_000)``) — on a hard aggregate the CI alone may never
    tighten within a feasible budget.
    """

    def __init__(self, target: float, level: float = 0.95, min_samples: int = 10):
        if target <= 0.0:
            raise ValueError("relative CI target must be positive")
        if min_samples < 2:
            raise ValueError("min_samples must be at least 2")
        z_value(level)  # validate the level eagerly
        self.target = target
        self.level = level
        self.min_samples = min_samples

    def should_stop(self, checkpoint: Checkpoint) -> bool:
        if checkpoint.samples < self.min_samples:
            return False
        if checkpoint.estimate == 0.0 or not checkpoint.sem < float("inf"):
            return False
        halfwidth = z_value(self.level) * checkpoint.sem
        return halfwidth <= self.target * abs(checkpoint.estimate)

    def to_dict(self) -> dict:
        return {
            "rule": "target_relative_ci",
            "target": self.target,
            "level": self.level,
            "min_samples": self.min_samples,
        }

    def __repr__(self) -> str:
        return f"TargetRelativeCI({self.target}, level={self.level}, min_samples={self.min_samples})"


class AnyRule(StoppingRule):
    """Composite: stop as soon as *any* member rule fires (``a | b``)."""

    def __init__(self, *rules: StoppingRule):
        flat: list[StoppingRule] = []
        for rule in rules:
            if isinstance(rule, AnyRule):
                flat.extend(rule.rules)
            else:
                flat.append(rule)
        if not flat:
            raise ValueError("AnyRule needs at least one rule")
        self.rules = tuple(flat)

    def should_stop(self, checkpoint: Checkpoint) -> bool:
        return any(rule.should_stop(checkpoint) for rule in self.rules)

    def remaining_queries(self, checkpoint: Checkpoint) -> Optional[int]:
        values = [r.remaining_queries(checkpoint) for r in self.rules]
        values = [v for v in values if v is not None]
        return min(values) if values else None

    def remaining_samples(self, checkpoint: Checkpoint) -> Optional[int]:
        values = [r.remaining_samples(checkpoint) for r in self.rules]
        values = [v for v in values if v is not None]
        return min(values) if values else None

    def to_dict(self) -> dict:
        return {"rule": "any", "rules": [r.to_dict() for r in self.rules]}

    def __repr__(self) -> str:
        return " | ".join(repr(r) for r in self.rules)


def stopping_rule_from_dict(data: dict) -> StoppingRule:
    """Rebuild a rule serialized with :meth:`StoppingRule.to_dict`."""
    kind = data.get("rule")
    if kind == "max_queries":
        return MaxQueries(data["limit"])
    if kind == "max_samples":
        return MaxSamples(data["limit"])
    if kind == "target_relative_ci":
        return TargetRelativeCI(
            data["target"], level=data.get("level", 0.95),
            min_samples=data.get("min_samples", 10),
        )
    if kind == "any":
        return AnyRule(*(stopping_rule_from_dict(d) for d in data["rules"]))
    raise ValueError(f"unknown stopping rule {kind!r}")

