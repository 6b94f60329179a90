"""Estimation results and convergence traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..obs.telemetry import RunTelemetry
from .running import RunningStat

__all__ = ["TracePoint", "Checkpoint", "EstimationResult", "normal_ci", "z_value"]

#: Two-sided z quantiles for the confidence levels experiments use.
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}


def z_value(level: float) -> float:
    """Two-sided normal quantile for a supported confidence level."""
    z = _Z.get(level)
    if z is None:
        raise ValueError(f"unsupported confidence level {level}; use one of {sorted(_Z)}")
    return z


def normal_ci(mean: float, sem: float, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval."""
    z = z_value(level)
    return mean - z * sem, mean + z * sem


@dataclass(frozen=True)
class TracePoint:
    """Estimator state snapshot after one sample."""

    queries: int
    samples: int
    estimate: float


@dataclass(frozen=True)
class Checkpoint:
    """One step of a streaming estimation run.

    Yielded by the drivers' ``run_iter`` after every completed sample.
    ``queries`` counts interface queries since the run started; ``ci`` is
    the 95 % normal-approximation interval of the running estimate and
    ``sem`` its standard error (``inf`` below two samples), so stopping
    rules can derive intervals at other levels.
    """

    queries: int
    samples: int
    estimate: float
    ci: tuple[float, float]
    sem: float
    #: The run's :class:`~repro.obs.RunTelemetry` at this step — derived
    #: accounting only, never fed back into the estimate.
    telemetry: Optional[RunTelemetry] = None

    def relative_ci_halfwidth(self) -> float:
        """Half the CI width relative to the estimate (``inf`` when
        undefined — zero estimate or too few samples)."""
        if not math.isfinite(self.sem) or self.estimate == 0.0:
            return math.inf
        return (self.ci[1] - self.ci[0]) / 2.0 / abs(self.estimate)


@dataclass
class EstimationResult:
    """Outcome of one estimator run.

    ``trace`` records the running estimate after every completed sample —
    the raw material for every cost-vs-error figure in the paper.
    """

    estimate: float
    queries: int
    samples: int
    stat: Optional[RunningStat] = None
    trace: list[TracePoint] = field(default_factory=list)
    #: Final :class:`~repro.obs.RunTelemetry` of the run (cost accounting).
    telemetry: Optional[RunTelemetry] = None

    def relative_error(self, truth: float) -> float:
        if truth == 0.0:
            raise ValueError("relative error undefined for zero ground truth")
        return abs(self.estimate - truth) / abs(truth)

    def ci(self, level: float = 0.95) -> tuple[float, float]:
        if self.stat is None or self.stat.n < 2:
            return (-math.inf, math.inf)
        return normal_ci(self.stat.mean, self.stat.sem(), level)

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Normal-approximation confidence interval of the estimate.

        A readable alias of :meth:`ci` for the high-level API; for AVG
        queries the interval is that of the numerator (SUM) stream, the
        same convention :meth:`ci` uses.
        """
        return self.ci(level)

    def queries_to_reach(self, truth: float, rel_err: float) -> Optional[int]:
        """Query cost after which the running estimate stays within
        ``rel_err`` of ``truth`` for the rest of this run (None if never).

        "Stays" (rather than "first touches") avoids crediting lucky
        early crossings of a noisy trajectory.
        """
        if truth == 0.0:
            raise ValueError("relative error undefined for zero ground truth")
        achieved: Optional[int] = None
        for pt in self.trace:
            err = abs(pt.estimate - truth) / abs(truth)
            if err <= rel_err:
                if achieved is None:
                    achieved = pt.queries
            else:
                achieved = None
        return achieved
