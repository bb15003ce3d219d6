"""Multi-tenant campaign registry: named studies with create-or-attach.

The ingress half of the tuning service.  A :class:`CampaignRegistry` keys
campaigns by **study name** the way Optuna keys studies on shared storage:
``create_study(name, ...)`` creates the study when the name is new and
*attaches* to it when it already exists — in memory when the study is live
in this process, or on disk through the PR 6 journal store
(``CBOSearch.start_or_resume``), in which case the campaign resumes from its
last checkpoint **bit-identically** (no evaluation re-runs, same RNG path).

Studies come in two modes:

``ask_tell`` (default)
    The campaign is driven by an external client through
    :meth:`CampaignRegistry.suggest` / :meth:`CampaignRegistry.report` —
    the registry never calls the study's run function; the client evaluates
    each suggested batch itself and reports the measured runtimes.  The
    in-process :class:`~repro.service.frontend.StudyClient` and the
    JSON-over-HTTP :class:`~repro.service.frontend.StudyFrontend` both sit
    on these methods.

``managed``
    The campaign is admitted to the registry's one
    :class:`~repro.service.runner.CampaignRunner` (:attr:`CampaignRegistry.runner`)
    and advanced by its ticks (the study's template must then carry a real
    run function); clients only observe status.  The runner quarantines a
    failing study, so one tenant's broken run function cannot stall the
    others; :meth:`CampaignRegistry.status` reports the phase and error.

Because search objects are not wire-serialisable, the registry is
configured with named **templates** — ``{name: factory(seed=..., **params)
-> CBOSearch}`` — and a remote create request names a template instead of
shipping code.  Study names are restricted to ``[A-Za-z0-9._-]`` (they
become journal directory names).
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.journal import CampaignJournal, JournalReader
from repro.core.search import CampaignExecution, CBOSearch
from repro.core.space import Configuration
from repro.service.runner import CampaignRunner, CampaignSpec

__all__ = [
    "CampaignRegistry",
    "StudyRecord",
    "RegistryError",
    "UnknownStudyError",
    "UnknownTemplateError",
    "StudyConflictError",
    "ProtocolError",
]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


class RegistryError(RuntimeError):
    """Base class for registry-level failures (HTTP 400 family)."""


class UnknownStudyError(RegistryError):
    """No study with the requested name (HTTP 404)."""


class UnknownTemplateError(RegistryError):
    """The create request names a template the registry was not given."""


class StudyConflictError(RegistryError):
    """The name exists and the caller demanded a fresh study."""


class ProtocolError(RegistryError):
    """An ask/tell call that violates the suggest→report protocol."""


@dataclass
class StudyRecord:
    """Registry-side state of one named study.

    ``execution`` is the live campaign for ``ask_tell`` studies; for
    ``managed`` studies it lives inside the registry's runner and is looked
    up through ``runner_index``.  ``attached`` records whether the study was
    resumed from an existing journal rather than created fresh.
    """

    name: str
    tenant: str
    mode: str
    template: str
    seed: int
    execution: Optional[CampaignExecution] = None
    runner_index: Optional[int] = None
    attached: bool = False
    created_at: float = 0.0
    last_seen: float = 0.0
    num_suggested: int = 0
    num_reported: int = 0
    params: Dict = field(default_factory=dict)


class CampaignRegistry:
    """Create-or-attach study registry over templates, journals and a runner.

    Parameters
    ----------
    templates:
        ``{name: factory}`` where ``factory(seed=..., **params)`` builds a
        fresh :class:`~repro.core.search.CBOSearch`.  Factories are invoked
        both for fresh creates and for journal attaches (the journal meta is
        validated against the rebuilt search, so a template/seed mismatch
        fails loudly instead of resuming the wrong study).
    root:
        Optional journal root directory; when given, every study journals
        under ``root/<name>`` and create-or-attach extends across process
        restarts.  ``None`` keeps studies purely in memory.
    clock:
        Wall-clock source for ``created_at``/``last_seen`` bookkeeping
        (``time.monotonic`` by default; injectable for tests).

    ``managed`` studies run on :attr:`runner`, a
    :class:`~repro.service.runner.CampaignRunner` in quarantine mode built
    with the registry; whoever hosts the registry advances them by calling
    ``registry.runner.tick()``.

    All public methods are thread-safe (one registry lock — campaign
    executions are not reentrant, so calls serialise), which is what the
    threaded HTTP frontend requires.
    """

    def __init__(
        self,
        templates: Dict[str, Callable[..., CBOSearch]],
        root: Optional[object] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.templates = dict(templates)
        self.root = None if root is None else Path(root)
        self.runner = CampaignRunner(on_campaign_error="quarantine")
        self._studies: Dict[str, StudyRecord] = {}
        self._lock = threading.RLock()
        self._clock = clock

    # ------------------------------------------------------------------ lookup
    def study_names(self) -> List[str]:
        """Names of all live studies, in creation order."""
        with self._lock:
            return list(self._studies)

    def get(self, name: str) -> StudyRecord:
        """The record of a live study (raises :class:`UnknownStudyError`)."""
        with self._lock:
            record = self._studies.get(name)
            if record is None:
                raise UnknownStudyError(f"no study named {name!r}")
            return record

    def _journal_dir(self, name: str) -> Optional[Path]:
        return None if self.root is None else self.root / name

    def _execution_of(self, record: StudyRecord) -> Optional[CampaignExecution]:
        if record.execution is not None:
            return record.execution
        if record.runner_index is not None:
            return self.runner._executions[record.runner_index]
        return None

    # ------------------------------------------------------------------ create
    def create_study(
        self,
        name: str,
        template: Optional[str] = None,
        seed: int = 0,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        tenant: str = "default",
        mode: str = "ask_tell",
        if_exists: str = "attach",
        arrival_tick: Optional[int] = None,
        params: Optional[Dict] = None,
    ) -> Tuple[StudyRecord, bool]:
        """Create the named study, or attach to it when it already exists.

        Returns ``(record, created)`` — ``created`` is False when the call
        attached to a live study or resumed one from its on-disk journal.
        Attaching ignores ``seed``/``max_time``/``params`` in favour of what
        the existing study was created with (a template or seed mismatch
        against a journal fails the meta validation).  ``if_exists`` may be
        ``"attach"`` (default, the Optuna ``load_study`` fallback) or
        ``"raise"`` (demand a fresh study).
        """
        if not _NAME_PATTERN.match(name or ""):
            raise RegistryError(
                f"invalid study name {name!r} (allowed: letters, digits, "
                "'.', '_', '-'; max 128 chars)"
            )
        if mode not in ("ask_tell", "managed"):
            raise RegistryError(f"unknown study mode {mode!r}")
        if if_exists not in ("attach", "raise"):
            raise RegistryError(f"unknown if_exists policy {if_exists!r}")
        with self._lock:
            record = self._studies.get(name)
            if record is not None:
                if if_exists == "raise":
                    raise StudyConflictError(f"study {name!r} already exists")
                record.last_seen = self._clock()
                return record, False
            if template is None:
                if len(self.templates) == 1:
                    template = next(iter(self.templates))
                else:
                    raise UnknownTemplateError(
                        "template is required (registry has "
                        f"{len(self.templates)} templates)"
                    )
            factory = self.templates.get(template)
            if factory is None:
                raise UnknownTemplateError(
                    f"unknown template {template!r} "
                    f"(have: {sorted(self.templates)})"
                )
            search = factory(seed=seed, **(params or {}))
            journal_dir = self._journal_dir(name)
            attached = journal_dir is not None and CampaignJournal.exists(journal_dir)
            record = StudyRecord(
                name=name,
                tenant=tenant,
                mode=mode,
                template=template,
                seed=seed,
                attached=attached,
                created_at=self._clock(),
                last_seen=self._clock(),
                params=dict(params or {}),
            )
            if mode == "managed":
                record.runner_index = self.runner.admit(
                    CampaignSpec(
                        search=search,
                        max_time=max_time,
                        max_evaluations=max_evaluations,
                        label=name,
                        journal_dir=journal_dir,
                        tenant=tenant,
                        resume_from_journal=True,
                    ),
                    arrival_tick=arrival_tick,
                )
            elif journal_dir is not None:
                record.execution = search.start_or_resume(
                    journal_dir,
                    max_time=max_time,
                    max_evaluations=max_evaluations,
                    defer_initial_submit=True,
                )
            else:
                record.execution = search.start(
                    max_time=max_time,
                    max_evaluations=max_evaluations,
                    defer_initial_submit=True,
                )
            self._studies[name] = record
            return record, not attached

    # ---------------------------------------------------------------- ask/tell
    def suggest(self, name: str) -> Optional[List[Configuration]]:
        """The study's next batch to evaluate (None when it is finished).

        Idempotent until reported: calling suggest again without a report
        returns the same outstanding batch (crash-safe clients simply ask
        again).  Raises :class:`ProtocolError` for managed studies — their
        evaluations run inside the service.
        """
        with self._lock:
            record = self.get(name)
            execution = self._require_ask_tell(record, "suggest")
            record.last_seen = self._clock()
            batch = execution.next_suggestion()
            if batch is not None:
                record.num_suggested += 1
            return None if batch is None else [dict(c) for c in batch]

    def report(self, name: str, runtimes: Sequence[float]) -> Dict:
        """Report the measured runtimes of the last suggested batch.

        Returns the study's status afterwards.  Raises
        :class:`ProtocolError` when no batch is outstanding or the length
        does not match the suggestion.
        """
        with self._lock:
            record = self.get(name)
            execution = self._require_ask_tell(record, "report")
            record.last_seen = self._clock()
            try:
                execution.report_runtimes(runtimes)
            except ValueError as error:
                raise ProtocolError(str(error)) from error
            record.num_reported += 1
            return self._status(record)

    def heartbeat(self, name: str) -> Dict:
        """Refresh the study's liveness timestamp; returns its status."""
        with self._lock:
            record = self.get(name)
            record.last_seen = self._clock()
            return self._status(record)

    def _require_ask_tell(
        self, record: StudyRecord, verb: str
    ) -> CampaignExecution:
        if record.mode != "ask_tell":
            raise ProtocolError(
                f"study {record.name!r} is managed by the service runner; "
                f"{verb} applies to ask_tell studies only"
            )
        execution = record.execution
        if execution is None:  # pragma: no cover - defensive
            raise ProtocolError(f"study {record.name!r} has no live execution")
        return execution

    # ------------------------------------------------------------------ status
    def status(self, name: str) -> Dict:
        """JSON-ready status snapshot of one study.

        ``quarantined`` is ``{"phase", "error"}`` for a managed study the
        runner isolated after an error (a journaled one keeps its last
        checkpoint), and None otherwise.
        """
        with self._lock:
            return self._status(self.get(name))

    def statuses(self) -> List[Dict]:
        """Status snapshots of every live study, in creation order."""
        with self._lock:
            return [self._status(r) for r in self._studies.values()]

    def stale_studies(self, max_age: float) -> List[str]:
        """Names of studies without a client call for ``max_age`` seconds."""
        with self._lock:
            now = self._clock()
            return [
                r.name
                for r in self._studies.values()
                if now - r.last_seen > max_age
            ]

    # ------------------------------------------------------------ stored view
    def stored_study_names(self) -> List[str]:
        """Names of every study journaled under the registry root (sorted).

        Includes studies no live record exists for — crashed, evicted, or
        created by an earlier process; any of them re-attach bit-identically
        through :meth:`create_study`.  Empty without a root.
        """
        if self.root is None or not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir() and CampaignJournal.exists(child)
        )

    def peek(self, name: str) -> Dict:
        """Status of a study without loading it — live or stored.

        Live studies return their full :meth:`status`.  Studies that only
        exist on disk are summarised through the journal's memory-mapped
        reader (:meth:`repro.core.journal.JournalReader.peek`): evaluation
        count, best runtime and the finished flag come straight off the
        mapped objective/runtime words, with no search construction and no
        optimizer replay — cheap enough to sweep thousands of stored studies.
        """
        with self._lock:
            if name in self._studies:
                payload = self._status(self._studies[name])
                payload["live"] = True
                return payload
            journal_dir = self._journal_dir(name)
            if journal_dir is None or not CampaignJournal.exists(journal_dir):
                raise UnknownStudyError(f"no study named {name!r}")
            payload = JournalReader.peek(journal_dir)
            payload.update({"name": name, "live": False, "started": False})
            return payload

    def evict(self, name: str) -> bool:
        """Drop a journaled ask/tell study from memory (it stays on disk).

        A final checkpoint commits everything reported so far, the
        journal closes (releasing its writer lease), and the record is
        forgotten; the next :meth:`create_study` under the same name resumes
        from the journal bit-identically (an unreported suggested batch is
        re-generated deterministically, matching the idempotent-suggest
        contract).  Returns False — and evicts nothing — for managed
        studies (the runner owns them) and for studies without a journal
        (eviction would lose their state).
        """
        with self._lock:
            record = self.get(name)
            journal_dir = self._journal_dir(name)
            if record.mode != "ask_tell" or journal_dir is None:
                return False
            execution = record.execution
            if execution is not None:
                execution.maybe_checkpoint()
                execution.close_journal()
            del self._studies[name]
            return True

    def evict_stale(self, max_age: float) -> List[str]:
        """Evict every journaled ask/tell study idle for ``max_age`` seconds.

        The service-scale companion of :meth:`stale_studies`: thousands of
        abandoned studies stop holding optimizer state and file handles in
        memory, while :meth:`peek` keeps them observable and
        :meth:`create_study` re-attaches any of them on demand.  Returns the
        evicted names.
        """
        with self._lock:
            return [
                name for name in self.stale_studies(max_age) if self.evict(name)
            ]

    def _status(self, record: StudyRecord) -> Dict:
        execution = self._execution_of(record)
        payload = {
            "name": record.name,
            "tenant": record.tenant,
            "mode": record.mode,
            "template": record.template,
            "seed": record.seed,
            "attached": record.attached,
            "num_suggested": record.num_suggested,
            "num_reported": record.num_reported,
            "started": execution is not None,
            "finished": False,
            "num_evaluations": 0,
            "virtual_now": None,
            "best_runtime": None,
            "quarantined": None,
        }
        if record.runner_index is not None:
            for quarantined in self.runner.quarantined:
                if quarantined.index == record.runner_index:
                    error = quarantined.error
                    payload["quarantined"] = {
                        "phase": quarantined.phase,
                        "error": f"{type(error).__name__}: {error}",
                    }
        if execution is not None:
            payload["finished"] = bool(execution.finished)
            payload["num_evaluations"] = len(execution.history)
            payload["virtual_now"] = float(execution.evaluator.now)
            best = execution.history.best()
            if best is not None:
                payload["best_runtime"] = float(best.runtime)
                payload["best_configuration"] = dict(best.configuration)
        return payload

    def result(self, name: str):
        """The study's :class:`~repro.core.search.SearchResult` so far."""
        with self._lock:
            record = self.get(name)
            execution = self._execution_of(record)
            if execution is None:
                raise ProtocolError(
                    f"study {record.name!r} has not started yet"
                )
            return execution.result()
