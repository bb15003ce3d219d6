"""Deterministic fault injection for the virtual evaluator's worker pool.

The paper's campaigns run for an hour on 128 Theta nodes; at that scale
evaluations routinely fail, straggle, hang past the 600 s kill limit, or are
lost outright when a node dies.  A fault-free virtual pool would never
exercise its defences against any of that, so this module provides the
missing adversary: a seeded :class:`FaultPlan` that decides, per evaluation,
whether and how it misbehaves.

Determinism is the defining property.  Every evaluation carries a
monotonically increasing per-evaluator sequence number (``seq``), and the
plan's decision for an evaluation is a pure function of ``(plan seed, seq)``
— independent of submission interleaving, retries of *other* evaluations, or
how many campaigns share the pool.  A crashed-and-resumed campaign therefore
replays exactly the same faults it would have met uninterrupted, which is
what makes the resume bit-identity contract testable under faults.

Fault kinds (one primary kind per evaluation, plus an independent
measurement-failure overlay):

* ``fail`` — the measurement comes back NaN (elevated evaluation-failure
  rate; the worker is occupied for ``failure_duration`` as usual).
* ``straggler`` — the evaluation occupies its worker ``straggler_factor``
  times longer than the measured runtime (interference slowdown); the
  measurement itself is unchanged.
* ``hang`` — the evaluation never completes on its own.  With a deadline the
  kill limit converts it into a failure at the deadline; without one the
  evaluator's stall valve (:class:`~repro.core.evaluator.EvaluatorStalledError`)
  is the only way out.
* ``lost`` — the evaluation runs to completion but its result never reaches
  the manager (dropped message); the worker is freed.
* ``crash`` — the worker dies mid-evaluation (at ``crash_fraction`` of the
  duration): the evaluation is lost and the worker never accepts work again.

The :class:`~repro.core.evaluator.SharedWorkerPool` every campaign evaluates
on resubmits lost/crashed work with capped exponential backoff and reports
NaN once the retries are exhausted; the Hypothesis protocol suite pins that
no fault schedule breaks its books.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["FaultDecision", "FaultPlan"]


@dataclass(frozen=True)
class FaultDecision:
    """How one evaluation misbehaves (all-False for a healthy evaluation).

    Attributes
    ----------
    fail:
        Replace the measured runtime with NaN (evaluation failure).
    hang:
        The evaluation never completes on its own (infinite duration).
    lost:
        The result is dropped at completion time (worker freed, no result).
    crash:
        The worker dies mid-evaluation; the evaluation is lost and the worker
        is permanently removed from service.
    straggler_factor:
        Multiplier on the evaluation's worker-occupancy duration (1.0 for
        non-stragglers).
    crash_fraction:
        Fraction of the (pre-crash) duration after which the worker dies,
        in (0, 1); meaningful only when ``crash`` is set.
    """

    fail: bool = False
    hang: bool = False
    lost: bool = False
    crash: bool = False
    straggler_factor: float = 1.0
    crash_fraction: float = 0.5

    @property
    def healthy(self) -> bool:
        """Whether the evaluation proceeds entirely unperturbed."""
        return not (
            self.fail or self.hang or self.lost or self.crash
            or self.straggler_factor != 1.0
        )


#: The all-healthy decision, shared so the fault-free path allocates nothing.
_HEALTHY = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of evaluation faults.

    Rates are independent probabilities; the primary fault kind is drawn by
    precedence ``crash > hang > lost > straggler`` from a single uniform
    draw, and the measurement-failure overlay (``failure_rate``) is drawn
    separately so a straggler can also fail.  All draws for evaluation
    ``seq`` come from ``np.random.default_rng((seed, seq))`` — the decision
    depends on nothing else.

    Parameters
    ----------
    seed:
        Plan seed; two plans with equal parameters and seed are identical.
    failure_rate:
        Probability an evaluation's measurement is NaN (on top of whatever
        the run function itself produces).
    crash_rate, hang_rate, loss_rate, straggler_rate:
        Probabilities of the primary fault kinds (their sum must not exceed
        1).
    straggler_factor:
        Duration multiplier applied to stragglers.
    """

    seed: int = 0
    failure_rate: float = 0.0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    loss_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 10.0

    def __post_init__(self):
        for name in ("failure_rate", "crash_rate", "hang_rate", "loss_rate", "straggler_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.crash_rate + self.hang_rate + self.loss_rate + self.straggler_rate
        if total > 1.0:
            raise ValueError(f"primary fault rates sum to {total} > 1")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire (False → the plan is a no-op)."""
        return (
            self.failure_rate > 0
            or self.crash_rate > 0
            or self.hang_rate > 0
            or self.loss_rate > 0
            or self.straggler_rate > 0
        )

    def decide(self, seq: int) -> FaultDecision:
        """The (pure, deterministic) fault decision for evaluation ``seq``."""
        if not self.active:
            return _HEALTHY
        rng = np.random.default_rng((self.seed, int(seq)))
        primary, failure, fraction = rng.random(3)
        fail = failure < self.failure_rate
        edge = self.crash_rate
        if primary < edge:
            return FaultDecision(
                fail=fail, crash=True, crash_fraction=0.1 + 0.8 * fraction
            )
        edge += self.hang_rate
        if primary < edge:
            return FaultDecision(fail=fail, hang=True)
        edge += self.loss_rate
        if primary < edge:
            return FaultDecision(fail=fail, lost=True)
        edge += self.straggler_rate
        if primary < edge:
            return FaultDecision(fail=fail, straggler_factor=self.straggler_factor)
        if fail:
            return FaultDecision(fail=True)
        return _HEALTHY


def make_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Normalise a fault-plan argument: inactive plans collapse to ``None``.

    Evaluators call this once at construction so their hot paths can gate all
    fault handling on a single ``is None`` check — a constructed-but-inert
    plan costs the fault-free path nothing.
    """
    if plan is None or not plan.active:
        return None
    return plan
