"""repro.api — the high-level estimation-session API.

The canonical way to run any of the paper's estimators: describe the
run as a declarative, serializable :class:`EstimationSpec` (usually via
the fluent :class:`Session` builder), stop it with composable
:class:`StoppingRule` objects, stream it through per-sample
:class:`~repro.stats.Checkpoint` snapshots, and pause/persist/resume it
bit-identically::

    from repro.api import MaxQueries, Session, TargetRelativeCI
    from repro.datasets import is_category

    session = Session(world).lr(k=5).census_weighted().count(is_category("restaurant"))
    result = session.run(MaxQueries(4000) | TargetRelativeCI(0.05))

    run = session.seed(7).start(MaxQueries(4000))      # streaming form
    for checkpoint in run:
        if checkpoint.samples == 100:
            break                                      # pause...
    state = run.to_state()                             # ...persist (JSON-safe)...
    result = Session.resume(world, state).run()        # ...and continue, bit-identically

The low-level driver classes (:class:`~repro.core.LrLbsAgg` etc.)
remain available and share the same streaming machinery; their
``run`` takes the same stopping rules.
"""

from ..core.stopping import (
    AnyRule,
    MaxQueries,
    MaxSamples,
    StoppingRule,
    TargetRelativeCI,
    stopping_rule_from_dict,
)
from ..lbs import InterfaceSpec, ObfuscationModel, RankingSpec
from ..stats import Checkpoint, EstimationResult
from ..worlds import WorldSpec
from .session import Session, SessionRun, estimate, run_many
from .spec import AggregateSpec, EstimationSpec

__all__ = [
    "Session",
    "SessionRun",
    "EstimationSpec",
    "AggregateSpec",
    "WorldSpec",
    "InterfaceSpec",
    "RankingSpec",
    "ObfuscationModel",
    "StoppingRule",
    "MaxQueries",
    "MaxSamples",
    "TargetRelativeCI",
    "AnyRule",
    "stopping_rule_from_dict",
    "Checkpoint",
    "EstimationResult",
    "estimate",
    "run_many",
]
