"""Service-scale campaign execution: pools, runners, registry and frontend.

This package opens the fleet scenario of the roadmap — many concurrent
autotuning campaigns against shared evaluation capacity:

* :class:`~repro.core.evaluator.SharedWorkerPool` /
  :class:`~repro.core.evaluator.ServiceEvaluator`, re-exported here — the
  queue-based worker pool every campaign evaluates on.  Each campaign gets
  a private pool by default; campaigns share one through
  ``CBOSearch(evaluator_factory=pool.evaluator_factory())``, with optional
  per-tenant worker-slot caps (``tenant_slots``);
* :class:`~repro.service.runner.CampaignRunner` — the one runner: N
  campaigns advanced in lock-step batch ticks over one event loop, with
  each tick's due work fused into bit-identical fleet passes.  Campaigns
  join mid-flight through ``admit`` under admission control
  (``max_inflight``, per-tenant bounds) and leave when finished or
  quarantined; the fusion groups are re-planned every tick
  (:func:`~repro.service.grouping.plan_tick_groups`).
  ``ElasticCampaignRunner`` is another name for it;
* :class:`~repro.service.registry.CampaignRegistry` — named studies with
  Optuna-style create-or-attach semantics over the journal store, its
  managed studies on one quarantining runner;
* :class:`~repro.service.frontend.StudyClient` /
  :class:`~repro.service.frontend.StudyFrontend` /
  :class:`~repro.service.frontend.HTTPStudyClient` — the ask/tell surface,
  in-process and as stdlib JSON-over-HTTP.
"""

from repro.core.evaluator import ServiceEvaluator, SharedWorkerPool
from repro.service.frontend import HTTPStudyClient, StudyClient, StudyFrontend
from repro.service.grouping import TickGroup, plan_tick_groups
from repro.service.registry import (
    CampaignRegistry,
    ProtocolError,
    RegistryError,
    StudyConflictError,
    StudyRecord,
    UnknownStudyError,
    UnknownTemplateError,
)
from repro.service.runner import (
    CampaignRunner,
    CampaignSpec,
    ElasticCampaignRunner,
    QuarantinedCampaign,
)

__all__ = [
    "ServiceEvaluator",
    "SharedWorkerPool",
    "CampaignRunner",
    "CampaignSpec",
    "ElasticCampaignRunner",
    "QuarantinedCampaign",
    "TickGroup",
    "plan_tick_groups",
    "CampaignRegistry",
    "StudyRecord",
    "RegistryError",
    "UnknownStudyError",
    "UnknownTemplateError",
    "StudyConflictError",
    "ProtocolError",
    "StudyClient",
    "StudyFrontend",
    "HTTPStudyClient",
]
