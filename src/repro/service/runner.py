"""The campaign runner: batch ticks over one event loop.

The paper's evaluation runs many asynchronous BO campaigns (setups ×
methods × repetitions).  :class:`CampaignRunner` advances N campaigns in
lock-step *batch ticks* over their virtual-time evaluators, and its tick is
the one loop that runs an in-process campaign: ``CBOSearch.run`` is a
runner of one, and the campaign registry drives one for its managed
studies.  A tick first starts the campaigns due for admission, then runs
Algorithm 1's manager loop once per active campaign:

1. **collect** — every active campaign advances to its own next completion
   event and records the finished evaluations, then ingests them and is
   charged its model-update overhead;
2. **fit** — due random-forest refits run as
   :func:`~repro.core.surrogate.random_forest.fit_forest_fleet` passes and
   due Gaussian-process refits as
   :class:`~repro.core.surrogate.gaussian_process.GPFleet` passes (grouped
   by :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key`);
3. **prior refresh** — due VAE refits of the continuous-retuning scenario
   train as :class:`~repro.core.vae.tvae.VAEFleet` passes;
4. **ask** — candidate generation runs as stacked
   :func:`~repro.core.optimizer.prepare_ask_fleet` passes, RF-backed pools
   score in one :func:`~repro.core.surrogate.random_forest.predict_forest_fleet`
   traversal, and each campaign selects and submits its batch;
5. **checkpoint** — journaled campaigns commit the tick.

Transfer-learning searches built with
``VAEABOSearch(defer_transfer_fit=True)`` also get their initial VAE fits
fused into :class:`~repro.core.vae.tvae.VAEFleet` passes when the runner
starts them.

Every fleet pass follows one rule (:meth:`CampaignRunner._fused_or_solo`):
groups are planned fresh from the tick's active set by
:func:`~repro.service.grouping.plan_tick_groups`; a fused group runs its
fleet pass, and every other group — and, under quarantine, a fused group
whose pass raised — runs each member's solo step.  A failed fleet pass
leaves its members' weights and RNG streams as it found them, and every
fleet pass is bit-identical per member to the solo step, so each
campaign's :class:`~repro.core.search.SearchResult` is **bit-identical** to
its run alone.  One carve-out: under the opt-in ``overhead="measured"``
model a fused pass's wall time is shared and charged to no campaign.  A fit
that cannot fuse this tick (its surrogate is neither RF nor GP, or no
other active campaign shares its fleet key: an RF's
:func:`~repro.core.surrogate.random_forest.fleet_compatibility_key`, a
GP's kind) runs inline before the tell is charged, so a runner of one
charges every fit, as ask/tell does.

Because nothing about a group survives the tick, the runner is
**elastic**: :meth:`CampaignRunner.admit` adds a campaign at any time, due
at once or at a declared tick, admission control bounds how many run at
once, and finished or quarantined campaigns leave.  Each campaign
evaluates on its own private :class:`~repro.core.evaluator.SharedWorkerPool`
unless campaigns share one through
``CBOSearch(evaluator_factory=pool.evaluator_factory())``; they then
compete for the same workers on one clock.

**Multi-core execution** runs whole campaigns in worker processes:
``CampaignRunner(specs, processes=N)`` deals the specs into N contiguous
shards, and a forked child runs each shard through its own in-process
runner.  Fusion groups form only within a shard; every campaign stays
bit-identical to its in-process run (see docs/architecture.md §15).  A
shard cannot see the others' in-flight campaigns, so ``processes > 1``
takes no admission limit and no arrival tick.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.journal import open_journal_reader
from repro.core.optimizer import prepare_ask_fleet
from repro.core.search import CampaignExecution, CBOSearch, SearchResult
from repro.core.space import Configuration
from repro.core.surrogate.gaussian_process import (
    GaussianProcessSurrogate,
    GPFleet,
    gp_fleet_key,
)
from repro.core.surrogate.random_forest import (
    RandomForestSurrogate,
    fit_forest_fleet,
    fleet_compatibility_key,
    predict_forest_fleet,
)
from repro.core.vae.tvae import VAEFleet, vae_fleet_key
from repro.service.grouping import TickGroup, plan_tick_groups

__all__ = [
    "CampaignSpec",
    "CampaignRunner",
    "ElasticCampaignRunner",
    "QuarantinedCampaign",
]


@dataclass
class CampaignSpec:
    """One campaign to run: a configured search plus its run budget.

    ``journal_dir`` enables the campaign's crash-safe journal (see
    :mod:`repro.core.journal`): the runner checkpoints the campaign at every
    batch tick, so a crashed or quarantined campaign can be resumed with
    :meth:`~repro.core.search.CampaignExecution.resume`.  With
    ``resume_from_journal`` the runner *attaches* instead of creating: when
    ``journal_dir`` already holds a journal the campaign resumes from its
    last checkpoint (bit-identically — the registry's create-or-attach
    semantics), and only starts fresh when the directory is empty.
    ``tenant`` labels the campaign's owner for the runner's per-tenant
    admission control (``max_inflight_per_tenant``) only.  A shared pool
    takes its tenant label from ``pool.evaluator_factory(tenant=...)``.
    """

    search: CBOSearch
    max_time: float = 3600.0
    max_evaluations: Optional[int] = None
    initial_configurations: Optional[Sequence[Configuration]] = None
    label: str = ""
    journal_dir: Optional[object] = None
    tenant: str = "default"
    resume_from_journal: bool = False


@dataclass
class QuarantinedCampaign:
    """One campaign the runner isolated after an error (quarantine mode).

    Attributes
    ----------
    index:
        The campaign's position in the runner's spec list.
    label:
        The spec's label (may be empty).
    phase:
        The batch-tick phase the error surfaced in
        (``start``/``collect``/``tell``/``fit``/``refresh``/``ask``/
        ``submit``/``checkpoint``).
    error:
        The exception that triggered the quarantine.
    """

    index: int
    label: str
    phase: str
    error: BaseException


#: Sentinel returned by the runner's guarded phase calls when the campaign
#: was quarantined mid-call (distinct from any legitimate return value).
_FAILED = object()


class CampaignRunner:
    """Run campaigns concurrently over batch ticks, admitting them as they come.

    Each tick fuses the campaigns' due fits, prior refreshes, asks and RF
    scoring into fleet passes that are bit-identical per member (see the
    module docstring), so every campaign matches its run alone.  Campaigns
    **join** through :meth:`admit` — the constructor's specs at tick 0,
    later ones at once or at a declared future tick (the burst scenario's
    arrival schedule) — and **leave** when they finish or are quarantined.
    :meth:`tick` admits the due arrivals, then advances the active set by
    one batch tick; :meth:`run` ticks until no campaign is active or
    waiting, and a long-lived service (the campaign registry's runner)
    calls :meth:`tick` itself between admissions.

    Parameters
    ----------
    specs:
        Campaigns admitted at tick 0 (result indices follow admission
        order).  May be empty: campaigns can all come through :meth:`admit`.
    max_inflight:
        Upper bound on concurrently active campaigns.  Arrivals beyond it
        wait in a FIFO admission queue and enter as slots free up — every
        admitted campaign eventually runs (no starvation: the queue is
        drained strictly in order for campaigns blocked on the global
        limit).
    max_inflight_per_tenant:
        Per-tenant bound on concurrently active campaigns, by
        :attr:`CampaignSpec.tenant`.  A tenant at its bound does not block
        *other* tenants' queued arrivals — later entries overtake it, which
        is the per-tenant fairness guarantee (one tenant's burst cannot
        monopolise the runner).  Within one tenant, FIFO order is kept.
        Fairness over *evaluation* capacity is the shared pool's job: see
        ``SharedWorkerPool(tenant_slots=...)``.
    run_batcher:
        Optional service-style evaluation batcher: a callable receiving the
        tick's submissions as ``[(spec_index, configurations), ...]`` and
        returning the per-submission runtime lists, replacing the
        per-configuration ``run_function`` calls inside ``submit``.  The
        returned values must equal what each campaign's run function would
        have produced (e.g.
        :meth:`~repro.hep.surrogate_runtime.SurrogateRuntimeFleet.run_batch`,
        which fuses the per-request surrogate-model inferences of all
        campaigns into one vectorised pass).
    on_campaign_error:
        What to do when stepping one campaign raises: ``"raise"`` (default)
        propagates the exception and aborts the whole batch — the historic
        behaviour; ``"quarantine"`` isolates the failing campaign instead:
        it is checkpointed to its journal (when journaled, hence resumable)
        and the journal closed, recorded in :attr:`quarantined`, and removed
        from the batch, and the surviving campaigns' fleet groupings re-form
        on the next tick as usual (groups are rebuilt from the active set
        every tick).  A fused fleet pass that fails falls back to each
        member's solo step first — only campaigns whose *solo* step also
        fails are quarantined.
        Quarantined campaigns still contribute their partial
        :class:`~repro.core.search.SearchResult`.
    processes:
        Number of worker processes :meth:`run` spreads the campaigns over.
        ``1`` (default) ticks every campaign in this process.  With N the
        waiting specs are dealt into N contiguous shards of whole
        campaigns, each run to completion by a sequential runner in a
        forked child (per-tick process hops cannot round-trip live
        optimizer/evaluator state bit-identically).  Every spec must then
        be journaled: the parent rebuilds each result from the child's
        journal through the :class:`~repro.core.journal.JournalReader` mmap
        views rather than pickling histories over the pipe.  A shard cannot
        see the other shards' in-flight campaigns, so ``processes > 1``
        with an admission limit, or an ``arrival_tick``, raises
        ``ValueError``.
    """

    def __init__(
        self,
        specs: Sequence[CampaignSpec] = (),
        max_inflight: Optional[int] = None,
        max_inflight_per_tenant: Optional[int] = None,
        run_batcher: Optional[Callable] = None,
        on_campaign_error: str = "raise",
        processes: int = 1,
    ):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_inflight_per_tenant is not None and max_inflight_per_tenant < 1:
            raise ValueError("max_inflight_per_tenant must be >= 1")
        if processes > 1 and (max_inflight or max_inflight_per_tenant):
            raise ValueError(
                "processes > 1 takes no admission limit: a forked shard "
                "cannot see the other shards' in-flight campaigns"
            )
        if on_campaign_error not in ("raise", "quarantine"):
            raise ValueError(
                f"unknown on_campaign_error {on_campaign_error!r} "
                "(expected 'raise' or 'quarantine')"
            )
        self.max_inflight = max_inflight
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.run_batcher = run_batcher
        self.on_campaign_error = on_campaign_error
        self.processes = int(processes)
        #: Every admitted spec, by result index.
        self.specs: List[CampaignSpec] = []
        #: Campaigns isolated by quarantine mode.
        self.quarantined: List[QuarantinedCampaign] = []
        self._index_of: Dict[int, int] = {}
        self._dropped_ids: set = set()
        #: Executions per spec index (None until started / if start failed).
        self._executions: List[Optional[CampaignExecution]] = []
        #: Executions currently advancing in batch ticks.
        self._active: List[CampaignExecution] = []
        #: Spec indices awaiting admission, in arrival order.
        self._admission_queue: Deque[int] = deque()
        #: Spec index → earliest tick at which it may be admitted.
        self._arrival_tick: Dict[int, int] = {}
        #: Spec indices admitted so far, in admission order.
        self.admitted_order: List[int] = []
        #: Results a multi-process run rebuilt from the shards' journals.
        self._shard_results: Dict[int, SearchResult] = {}
        #: Number of batch ticks executed.
        self.num_ticks = 0
        #: Number of fleet fits and of surrogates fitted through them.
        self.num_fleet_fits = 0
        self.num_fleet_fitted_surrogates = 0
        #: GP fleet counters: batched full-refit passes, batched factor
        #: extensions, and GPs advanced through either.
        self.num_gp_fleet_full_fits = 0
        self.num_gp_fleet_extends = 0
        self.num_gp_fleet_members = 0
        #: Prior-refresh counters: refreshes overall, fused VAEFleet passes,
        #: and VAEs trained through those passes.
        self.num_prior_refreshes = 0
        self.num_vae_fleet_fits = 0
        self.num_vae_fleet_members = 0
        #: Fleet-ask counters: stacked prepare_ask_fleet passes and
        #: campaigns whose candidate generation ran through them.
        self.num_ask_fleet_passes = 0
        self.num_ask_fleet_members = 0
        #: Construction-time transfer-VAE counters: fused VAEFleet passes
        #: over deferred fit_transfer_prior fits and members trained so.
        self.num_transfer_fleet_fits = 0
        self.num_transfer_fleet_members = 0
        #: Solo surrogate fits, unfused or retried after a failed fleet
        #: pass — with the fleet counters this yields the fusion hit rate.
        self.num_solo_fits = 0
        for spec in specs:
            self.admit(spec)

    def close(self) -> None:
        """Release the journals of the campaigns still active (idempotent).

        Commits nothing: each campaign keeps its last checkpoint, and its
        writer lease is released so it can be resumed in this process or
        another.  Campaigns that finish or are quarantined release their
        journals during the tick already.  :meth:`run` closes on exit,
        including when it raises; call this yourself when driving
        :meth:`tick` directly and the runner is done.
        """
        for execution in self._active:
            execution.close_journal()

    # -------------------------------------------------------------- admission
    def admit(self, spec: CampaignSpec, arrival_tick: Optional[int] = None) -> int:
        """Register a campaign for admission; returns its result index.

        ``arrival_tick`` holds the campaign out of admission until the
        runner has executed that many ticks (modelling an arrival curve —
        ``None`` means it is admissible at the next tick).
        """
        if arrival_tick is not None and self.processes > 1:
            raise ValueError(
                "processes > 1 takes no arrival_tick: a shard runs its "
                "campaigns from its own first tick"
            )
        index = len(self.specs)
        self.specs.append(spec)
        self._executions.append(None)
        self._admission_queue.append(index)
        self._arrival_tick[index] = (
            self.num_ticks if arrival_tick is None else int(arrival_tick)
        )
        return index

    @property
    def num_inflight(self) -> int:
        """Number of campaigns currently advancing in batch ticks."""
        return len(self._active)

    @property
    def num_waiting(self) -> int:
        """Number of admitted-but-not-yet-started campaigns."""
        return len(self._admission_queue)

    def _admit_due(self) -> None:
        """Move queued arrivals into the active set under admission control.

        FIFO with per-tenant overtaking: an entry blocked only by its own
        tenant's bound lets later entries of other tenants pass; an entry
        blocked by the global ``max_inflight`` blocks everyone behind it
        (the global limit applies equally, so overtaking could starve the
        head).
        """
        if not self._admission_queue:
            return
        inflight = len(self._active)
        per_tenant = Counter(
            self.specs[self._index_of[id(execution)]].tenant for execution in self._active
        )
        admitted: List[int] = []
        remaining: Deque[int] = deque()
        globally_blocked = False
        while self._admission_queue:
            index = self._admission_queue.popleft()
            if globally_blocked or self._arrival_tick[index] > self.num_ticks:
                remaining.append(index)
                continue
            if self.max_inflight is not None and inflight >= self.max_inflight:
                remaining.append(index)
                globally_blocked = True
                continue
            tenant = self.specs[index].tenant
            if (
                self.max_inflight_per_tenant is not None
                and per_tenant[tenant] >= self.max_inflight_per_tenant
            ):
                remaining.append(index)
                continue
            admitted.append(index)
            inflight += 1
            per_tenant[tenant] += 1
        self._admission_queue = remaining
        if admitted:
            before = len(self.quarantined)
            self._start_specs(admitted)
            failed = {q.index for q in self.quarantined[before:]}
            self.admitted_order.extend(i for i in admitted if i not in failed)
            if failed:
                self.admitted_order.extend(sorted(failed))

    # ------------------------------------------------------------------- run
    def run(self) -> List[Optional[SearchResult]]:
        """Tick until no campaign is active or waiting; per-spec results.

        Future-tick arrivals keep the loop alive: empty ticks advance the
        tick counter until they fall due.  The runner never restarts a
        campaign, so a second call returns the same results without
        stepping again.  Results are in spec order, None only for specs
        whose start was quarantined.
        """
        try:
            if self.processes > 1:
                self._run_process_shards()
            while self._active or self._admission_queue:
                self.tick()
        finally:
            self.close()
        return self.results()

    def results(self) -> List[Optional[SearchResult]]:
        """Per-spec results in spec order (None for never-started specs)."""
        return [
            self._shard_results.get(index) if execution is None else execution.result()
            for index, execution in enumerate(self._executions)
        ]

    def _start_specs(self, indices: Sequence[int]) -> None:
        """Start (or resume) the given specs and submit their initial batches.

        A spec with ``resume_from_journal`` goes through
        :meth:`~repro.core.search.CBOSearch.start_or_resume`, the registry's
        create-or-attach path.  With a run batcher, the initialisation
        batches of all newly started campaigns — fresh, or rebuilt from a
        journal with no checkpoint yet — are evaluated in one fused pass
        (they are the largest submissions of the whole run).  In quarantine
        mode a spec whose start itself raises is recorded with phase
        ``"start"`` instead of aborting the batch.
        """
        self._fit_transfer_fleet(indices)
        batching_runs = self.run_batcher is not None
        started: List[CampaignExecution] = []
        for index in indices:
            spec = self.specs[index]
            attach = spec.resume_from_journal and spec.journal_dir is not None
            start = spec.search.start_or_resume if attach else spec.search.start
            try:
                execution = start(
                    journal_dir=spec.journal_dir,
                    max_time=spec.max_time,
                    max_evaluations=spec.max_evaluations,
                    initial_configurations=spec.initial_configurations,
                    defer_initial_submit=batching_runs,
                )
            except Exception as error:
                if self.on_campaign_error != "quarantine":
                    raise
                self.quarantined.append(
                    QuarantinedCampaign(
                        index=index, label=spec.label, phase="start", error=error
                    )
                )
                continue
            self._executions[index] = execution
            self._index_of[id(execution)] = index
            self._active.append(execution)
            started.append(execution)
        if batching_runs:
            self._submit(
                [
                    (execution, execution._pending_batch)
                    for execution in started
                    if execution._pending_batch
                ]
            )
            self._active = self._surviving(self._active)

    def _fit_transfer_fleet(self, indices: Sequence[int]) -> None:
        """Fuse the deferred construction-time transfer-VAE fits of a fleet.

        Searches built with ``VAEABOSearch(defer_transfer_fit=True)`` carry
        their untrained transfer VAE as
        :attr:`~repro.core.search.CBOSearch.pending_transfer_fit`; groups of
        compatible fits train as one :class:`~repro.core.vae.tvae.VAEFleet`
        pass before their campaigns start, bit-identical per member to the
        eager solo fit.  Unfused fits, and the fits of a fused pass that
        failed under quarantine, have no solo step here: the backstop inside
        ``CampaignExecution.__init__``
        (:meth:`~repro.core.search.CBOSearch.complete_pending_transfer_fit`)
        trains them.
        """
        pending = [
            (search, search.pending_transfer_fit)
            for search in (self.specs[index].search for index in indices)
            if getattr(search, "pending_transfer_fit", None) is not None
        ]

        def fused(group: TickGroup) -> None:
            _train_vae_fleet([fit for _, fit in group.members])
            self.num_transfer_fleet_fits += 1
            self.num_transfer_fleet_members += len(group.members)
            for search, _ in group.members:
                search.pending_transfer_fit = None

        self._fused_or_solo(_plan_vae_groups(pending), "start", fused)

    # ------------------------------------------------------------------ tick
    def tick(self) -> None:
        """Admit due arrivals, then advance the active set by one batch tick.

        The pipeline is admit → collect → tell/fit → prior refresh → ask →
        score → submit → checkpoint.  Fleet-fusion groups are planned fresh
        from the active set (:func:`~repro.service.grouping.plan_tick_groups`),
        so nothing about a group survives the tick.  A due fit that cannot
        fuse this tick — its surrogate is neither RF nor GP, or no other
        active campaign shares its fleet key (:func:`_fleet_key`) — runs
        inline before the tell is charged, so it is charged like a solo
        ``tell``.  Campaigns that finish release their journals right after
        their final checkpoint and, like quarantined ones, leave the active
        set at the end of the tick.
        """
        self._admit_due()
        self.num_ticks += 1
        keys = Counter(_fleet_key(execution) for execution in self._active)
        fleet_due: Dict[type, List[CampaignExecution]] = {
            kind: [] for kind in _FLEET_KINDS
        }
        ticking: List[CampaignExecution] = []
        for execution in self._active:
            completed = self._step(execution, "collect", execution.collect)
            if completed is _FAILED:
                continue
            if completed is None:
                # The campaign just finished: commit its final checkpoint
                # so ``finished`` is durably recorded.
                self._finish(execution)
                continue
            due = self._step(execution, "tell", execution.ingest_collected)
            if due is _FAILED:
                continue
            if due:
                key = _fleet_key(execution)
                if key is not None and keys[key] > 1:
                    fleet_due[key[0]].append(execution)
                elif (
                    self._step(execution, "fit", lambda e=execution: self._fit_solo(e))
                    is _FAILED
                ):
                    continue
            if self._step(execution, "tell", execution.charge_tell) is _FAILED:
                continue
            ticking.append(execution)
        self._fit_rf_fleet(self._surviving(fleet_due[RandomForestSurrogate]))
        self._fit_gp_fleet(self._surviving(fleet_due[GaussianProcessSurrogate]))
        ticking = self._surviving(ticking)
        self._refresh_priors(ticking)
        ticking = self._surviving(ticking)

        pairs = self._begin_asks_fleet(ticking)
        scored = self._score_rf_fleet(pairs)
        submissions: List[Tuple[CampaignExecution, List[Configuration]]] = []
        for execution, prepared in pairs:
            scores = scored.get(id(execution), ())
            batch = self._step(
                execution,
                "ask",
                lambda e=execution, s=scores: e.finish_ask(*s),
            )
            if batch is not None and batch is not _FAILED:
                submissions.append((execution, batch))
        self._submit(submissions)

        active: List[CampaignExecution] = []
        for execution in self._surviving(ticking):
            if execution.finished:
                self._finish(execution)
            elif (
                self._step(execution, "checkpoint", execution.maybe_checkpoint)
                is not _FAILED
            ):
                active.append(execution)
        self._active = active

    def _fused_or_solo(
        self,
        groups: Sequence[TickGroup],
        phase: str,
        fused: Callable[[TickGroup], None],
        solo: Optional[Callable] = None,
    ) -> None:
        """The one fused-or-solo rule every fleet pass of a tick follows.

        A group that :func:`~repro.service.grouping.plan_tick_groups` marks
        fused runs ``fused(group)``, its fleet pass.  Every other group —
        and, under quarantine, a fused group whose pass raised — runs
        ``solo(*member)`` for each member, under the error policy as
        ``phase`` (``member[0]`` is the member's campaign).  A fleet pass
        that raises leaves each member's model and RNG streams as it found
        them, so the solo retry gives the solo bits.  Without ``solo`` the
        members' own later phase does the work: a pool without fused scores
        scores inside ``finish_ask``, and a transfer VAE trains in the
        execution's start-up backstop.
        """
        for group in groups:
            if group.fused:
                try:
                    fused(group)
                    continue
                except Exception:
                    if self.on_campaign_error != "quarantine":
                        raise
            if solo is not None:
                for member in group.members:
                    self._step(member[0], phase, lambda m=member: solo(*m))

    def _finish(self, execution: CampaignExecution) -> None:
        """Commit a finished campaign's final checkpoint, then release its
        journal (a quarantined checkpoint has released it already)."""
        self._step(execution, "checkpoint", execution.maybe_checkpoint)
        execution.close_journal()

    # ----------------------------------------------------------- error policy
    def _quarantine(
        self, execution: CampaignExecution, phase: str, error: BaseException
    ) -> None:
        """Isolate one failing campaign: checkpoint, record, drop from batch."""
        index = self._index_of[id(execution)]
        self._dropped_ids.add(id(execution))
        self.quarantined.append(
            QuarantinedCampaign(
                index=index,
                label=self.specs[index].label,
                phase=phase,
                error=error,
            )
        )
        try:
            # Best effort: a journaled campaign stays resumable from its last
            # consistent state even when the quarantine-time checkpoint fails.
            execution.maybe_checkpoint()
        except Exception:
            pass
        # The runner never steps it again: release the journal's writer
        # lease so the campaign can be resumed while the runner lives on.
        execution.close_journal()

    def _step(self, execution: CampaignExecution, phase: str, call: Callable):
        """Run one campaign-local phase call under the error policy.

        Returns the call's result, or the ``_FAILED`` sentinel when the
        campaign was quarantined (quarantine mode only — otherwise the
        exception propagates and aborts the batch, the historic behaviour).
        """
        try:
            return call()
        except Exception as error:
            if self.on_campaign_error != "quarantine":
                raise
            self._quarantine(execution, phase, error)
            return _FAILED

    def _surviving(self, executions: List[CampaignExecution]) -> List[CampaignExecution]:
        """Filter out campaigns quarantined so far (they are never stepped
        again, and ``_executions`` keeps them alive, so ids stay unique)."""
        if not self._dropped_ids:
            return executions
        return [e for e in executions if id(e) not in self._dropped_ids]

    # ------------------------------------------------------------ submissions
    def _submit(
        self, submissions: List[Tuple[CampaignExecution, List[Configuration]]]
    ) -> None:
        """Evaluate and submit the prepared batches, in order.

        With a run batcher every batch is evaluated in one fused call;
        either way each campaign's submit runs under the error policy, so a
        bad runtime list quarantines only its own campaign.
        """
        if self.run_batcher is None:
            for execution, _ in submissions:
                self._step(execution, "submit", execution.submit_prepared)
            return
        if not submissions:
            return
        runtimes = self._run_batch(
            [(self._index_of[id(execution)], batch) for execution, batch in submissions]
        )
        for (execution, _), values in zip(submissions, runtimes):
            self._step(
                execution,
                "submit",
                lambda e=execution, v=values: e.submit_prepared(v),
            )

    def _run_batch(self, requests: List[Tuple[int, List[Configuration]]]) -> List:
        """Invoke the run batcher and validate its result shape.

        A silently short or misaligned result would pair campaigns with each
        other's runtimes — fail loudly instead.
        """
        runtimes = self.run_batcher(requests)
        if len(runtimes) != len(requests):
            raise ValueError(
                f"run_batcher returned {len(runtimes)} runtime lists for "
                f"{len(requests)} submissions"
            )
        return runtimes

    # ------------------------------------------------------------ fleet fits
    def _fit_solo(self, execution: CampaignExecution, *training_data) -> None:
        """Fit one campaign's due surrogate solo, charging its wall time."""
        self.num_solo_fits += 1
        execution.fit_collected()

    def _fit_rf_fleet(self, due: List[CampaignExecution]) -> None:
        """Fit the due RF surrogates, grouped by compatible hyperparameters."""

        def fused(group: TickGroup) -> None:
            fit_forest_fleet(
                [(execution.optimizer.surrogate, X, y) for execution, X, y in group.members]
            )
            for execution, _, _ in group.members:
                execution.optimizer.mark_fitted()
            self.num_fleet_fits += 1
            self.num_fleet_fitted_surrogates += len(group.members)

        groups = plan_tick_groups(
            [(execution, *execution.optimizer.training_data()) for execution in due],
            key_of=lambda item: fleet_compatibility_key(
                item[0].optimizer.surrogate, item[1].shape[1]
            ),
            identity_of=lambda item: id(item[0].optimizer.surrogate),
        )
        self._fused_or_solo(groups, "fit", fused, self._fit_solo)

    def _fit_gp_fleet(self, due: List[CampaignExecution]) -> None:
        """Fit the due GP surrogates, grouped by fleet mode and shape.

        :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key` splits
        the tick's due GPs into batched full refits (equal total sizes) and
        batched factor extensions (equal old/new sizes) — each member keeps
        its own ``refresh_growth`` schedule, so one campaign can full-refit
        while its siblings extend.
        """

        def fused(group: TickGroup) -> None:
            fleet = GPFleet([execution.optimizer.surrogate for execution, _, _ in group.members])
            if group.key[0] == "extend":
                new = [execution.optimizer.fitted_rows for execution, _, _ in group.members]
                fleet.partial_fit(
                    [X[rows:] for (_, X, _), rows in zip(group.members, new)],
                    [y[rows:] for (_, _, y), rows in zip(group.members, new)],
                )
                self.num_gp_fleet_extends += 1
            else:
                fleet.fit([X for _, X, _ in group.members], [y for _, _, y in group.members])
                self.num_gp_fleet_full_fits += 1
            for execution, _, _ in group.members:
                execution.optimizer.mark_fitted()
            self.num_gp_fleet_members += len(group.members)

        def gp_key(item) -> tuple:
            execution, X, _ = item
            optimizer = execution.optimizer
            num_new = X.shape[0] - optimizer.fitted_rows
            return gp_fleet_key(optimizer.surrogate, X.shape[0], num_new, X.shape[1])

        groups = plan_tick_groups(
            [(execution, *execution.optimizer.training_data()) for execution in due],
            key_of=gp_key,
            identity_of=lambda item: id(item[0].optimizer.surrogate),
        )
        self._fused_or_solo(groups, "fit", fused, self._fit_solo)

    # -------------------------------------------------------- prior refreshes
    def _refresh_priors(self, ticking: List[CampaignExecution]) -> None:
        """Run the tick's due prior-refresh VAE refits, fused where possible.

        Each due campaign's refit sits between its tell and its ask exactly
        as in the sequential loop; refits of compatible shape (same space,
        same ``prior_refresh_top_k``/epochs/batch size — grouped by
        :func:`~repro.core.vae.tvae.vae_fleet_key`) train as one
        :class:`~repro.core.vae.tvae.VAEFleet` pass, bit-identical per
        campaign to a solo ``vae.fit``.
        """
        due = []
        for execution in ticking:
            prepared = self._step(
                execution, "refresh", execution.prepare_prior_refresh
            )
            if prepared is not None and prepared is not _FAILED:
                due.append((execution, prepared))
        self.num_prior_refreshes += len(due)

        def fused(group: TickGroup) -> None:
            _train_vae_fleet([prepared for _, prepared in group.members])
            self.num_vae_fleet_fits += 1
            self.num_vae_fleet_members += len(group.members)
            for execution, prepared in group.members:
                self._step(
                    execution,
                    "refresh",
                    lambda e=execution, p=prepared: e.finish_prior_refresh(p),
                )

        def solo(execution: CampaignExecution, prepared) -> None:
            prepared.train()
            execution.finish_prior_refresh(prepared)

        self._fused_or_solo(_plan_vae_groups(due), "refresh", fused, solo)

    # --------------------------------------------------------------- fleet ask
    def _begin_asks_fleet(self, ticking: List[CampaignExecution]) -> List[Tuple]:
        """Run the tick's due asks as stacked per-space fleet passes.

        Each campaign's eligibility half
        (:meth:`~repro.core.search.CampaignExecution.begin_ask_request` —
        budget check, idle-worker count) runs first in tick order; the
        askable campaigns are then grouped by search space and encoding and
        each fused group's candidate generation runs as one
        :func:`~repro.core.optimizer.prepare_ask_fleet` pass, other groups
        as solo ``complete_ask`` calls.  Returned pairs keep tick order, so
        submission order is unchanged.
        """
        prepared_of: Dict[int, object] = {}
        askable: List[Tuple[CampaignExecution, int]] = []
        for execution in ticking:
            n = self._step(execution, "ask", execution.begin_ask_request)
            if n is _FAILED:
                continue
            if n is None:
                prepared_of[id(execution)] = None
            else:
                askable.append((execution, n))

        def fused(group: TickGroup) -> None:
            prepared_list = prepare_ask_fleet(
                [(execution.optimizer, n) for execution, n in group.members]
            )
            self.num_ask_fleet_passes += 1
            self.num_ask_fleet_members += len(group.members)
            for (execution, _), prepared in zip(group.members, prepared_list):
                accepted = self._step(
                    execution,
                    "ask",
                    lambda e=execution, p=prepared: e.accept_prepared_ask(p),
                )
                if accepted is not _FAILED:
                    prepared_of[id(execution)] = accepted

        def solo(execution: CampaignExecution, n: int) -> None:
            prepared_of[id(execution)] = execution.complete_ask(n)

        groups = plan_tick_groups(
            askable,
            key_of=lambda pair: (
                tuple(pair[0].optimizer.space.parameters),
                pair[0].optimizer.encoding,
            ),
            identity_of=lambda pair: id(pair[0].optimizer),
        )
        self._fused_or_solo(groups, "ask", fused, solo)
        return [
            (execution, prepared_of[id(execution)])
            for execution in ticking
            if id(execution) in prepared_of
        ]

    def _score_rf_fleet(self, pairs) -> Dict[int, Tuple]:
        """Score the tick's RF-backed candidate pools in fused traversals.

        Campaigns may tune different spaces: only pools of equal encoded
        width fuse (the traversal stacks the matrices).  Returns the scores
        by execution id; members without fused scores — GP pools among
        them — score their own pools inside ``finish_ask``.
        """
        scored: Dict[int, Tuple] = {}

        def fused(group: TickGroup) -> None:
            results = predict_forest_fleet(
                [
                    (execution.optimizer.surrogate, prepared.encoded)
                    for execution, prepared in group.members
                ]
            )
            scored.update(
                (id(execution), result)
                for (execution, _), result in zip(group.members, results)
            )

        groups = plan_tick_groups(
            [pair for pair in pairs if _wants_fused_scores(pair)],
            key_of=lambda pair: int(pair[1].encoded.shape[1]),
        )
        self._fused_or_solo(groups, "ask", fused)
        return scored

    # --------------------------------------------------------- process shards
    def _run_process_shards(self) -> None:
        """Run the waiting campaigns as one forked worker process per shard.

        Each child runs a sequential :class:`CampaignRunner` over its shard
        of whole campaigns and only scalars cross the result pipe: every
        spec must be journaled, and the parent rebuilds each
        :class:`~repro.core.search.SearchResult` from the child's final
        checkpoint through the :class:`~repro.core.journal.JournalReader`
        mmap views — histories return zero-copy, never pickled.  Counters
        are summed and quarantine records merged in shard order;
        ``num_ticks`` is the maximum over shards (the parallel tick depth).
        The specs leave the admission queue, so :meth:`run` has nothing
        left to tick.
        """
        import multiprocessing

        waiting = list(self._admission_queue)
        for index in waiting:
            if self.specs[index].journal_dir is None:
                raise ValueError(
                    "processes > 1 requires journaled campaigns "
                    f"(spec {index} has no journal_dir): results return "
                    "through JournalReader mmap views, not pickles"
                )
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError("processes > 1 requires the fork start method") from None
        self._admission_queue.clear()
        # Contiguous deal: the i-th spec goes to shard i*k//n, so shard sizes
        # differ by at most one and spec order is kept within each shard.
        count = len(waiting)
        num_shards = min(self.processes, count)
        shards: List[List[int]] = [[] for _ in range(num_shards)]
        for position, index in enumerate(waiting):
            shards[position * num_shards // count].append(index)
        workers: List[Tuple[List[int], object, object]] = []
        for shard in shards:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_run_spec_shard, args=(self, shard, sender)
            )
            process.start()
            sender.close()
            workers.append((shard, receiver, process))
        results: Dict[int, SearchResult] = {}
        failures: List[str] = []
        payloads: List[Tuple[List[int], Optional[Dict]]] = []
        for shard, receiver, process in workers:
            try:
                payload = receiver.recv()
            except EOFError:
                payload = {"error": "shard process died without a result"}
            receiver.close()
            process.join()
            payloads.append((shard, payload))
        for shard, payload in payloads:
            error = payload.get("error")
            if error is not None:
                failures.append(f"shard {shard}: {error}")
                continue
            for name, delta in payload["counters"].items():
                setattr(self, name, getattr(self, name) + delta)
            self.num_ticks = max(self.num_ticks, payload["num_ticks"])
            for index, label, phase, message in payload["quarantined"]:
                self.quarantined.append(
                    QuarantinedCampaign(
                        index=index,
                        label=label,
                        phase=phase,
                        error=RuntimeError(message),
                    )
                )
            for index, summary in zip(shard, payload["results"]):
                if summary is not None:
                    results[index] = self._result_from_journal(index, summary)
        if failures:
            raise RuntimeError(
                "process shards failed: " + "; ".join(failures)
            )
        self._shard_results.update(results)

    def _result_from_journal(self, index: int, summary: Dict) -> SearchResult:
        """Rebuild one child campaign's result from its journal (zero-copy).

        The child sends only scalars (incumbent, utilization, budgets); the
        history and busy intervals come from the journal's final checkpoint
        through the mmap reader — shared pages, no serialisation.
        """
        spec = self.specs[index]
        reader = open_journal_reader(
            spec.journal_dir, spec.search.space, objective=spec.search.objective
        )
        history = reader.history()
        return SearchResult(
            history=history,
            num_evaluations=len(history),
            busy_intervals=reader.intervals(),
            **summary,
        )


#: The result fields a shard child sends; the rest come from the journal.
_SUMMARY_FIELDS = (
    "best_configuration",
    "best_runtime",
    "best_objective",
    "worker_utilization",
    "search_time",
    "num_workers",
)


#: Surrogate kinds with a fleet fit.
_FLEET_KINDS = (RandomForestSurrogate, GaussianProcessSurrogate)


def _fleet_key(execution: CampaignExecution) -> Optional[tuple]:
    """What a due fit must share with another active campaign to fuse.

    ``None`` when the surrogate has no fleet fit; otherwise a tuple led by
    the surrogate kind.  An RF fit fuses only with forests of its
    :func:`~repro.core.surrogate.random_forest.fleet_compatibility_key`,
    fixed by the hyperparameters and the encoded width (known before the
    first ingest).  A GP's fleet key depends on per-tick sizes, so GP
    campaigns count by kind.
    """
    surrogate = execution.optimizer.surrogate
    if isinstance(surrogate, RandomForestSurrogate):
        width = execution.optimizer.training_data()[0].shape[1]
        return (RandomForestSurrogate, *fleet_compatibility_key(surrogate, width))
    if isinstance(surrogate, GaussianProcessSurrogate):
        return (GaussianProcessSurrogate,)
    return None


def _wants_fused_scores(pair) -> bool:
    """Whether an ``(execution, prepared ask)`` pool can take fused RF scores."""
    execution, prepared = pair
    return (
        prepared is not None
        and prepared.proposals is None
        and prepared.wants_scores
        and isinstance(execution.optimizer.surrogate, RandomForestSurrogate)
    )


def _plan_vae_groups(pairs: Sequence[Tuple]) -> List[TickGroup]:
    """Group ``(owner, fit)`` pairs whose prepared VAE fits can train fused."""
    return plan_tick_groups(
        pairs,
        key_of=lambda pair: vae_fleet_key(
            pair[1].vae, pair[1].design.shape[0], pair[1].epochs, pair[1].batch_size
        ),
        identity_of=lambda pair: id(pair[1].vae),
    )


def _train_vae_fleet(fits: Sequence) -> None:
    """Train prepared VAE fits of one group as one :class:`VAEFleet` pass."""
    VAEFleet([fit.vae for fit in fits]).fit(
        [fit.design for fit in fits],
        epochs=fits[0].epochs,
        batch_size=fits[0].batch_size,
    )


def _pin_blas_threads() -> None:
    """Set NumPy's and SciPy's bundled OpenBLAS pools to one thread each.

    A second BLAS thread per shard child only competes with the other
    shards for the host's cores.  The wheels bundle OpenBLAS in a
    ``<package>.libs`` directory; a build without it (or without the
    setter) is left as it is.
    """
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    for package, setter in (
        (numpy, "scipy_openblas_set_num_threads64_"),
        (scipy, "scipy_openblas_set_num_threads"),
    ):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, f"{package.__name__}.libs", "libscipy_openblas*")):
            try:
                set_num_threads = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
            set_num_threads(1)


def _run_spec_shard(runner: CampaignRunner, indices: List[int], sender) -> None:
    """Child-process entry point of a multi-process run: run one spec shard.

    Runs a sequential :class:`CampaignRunner` over the shard's specs and
    sends back a scalars-only payload — counters, quarantine records (spec
    indices remapped to the parent's numbering) and per-result summaries.
    Histories never cross the pipe: the parent rebuilds them from each
    spec's journal through the mmap reader.  The child numbers its specs
    from zero, so its run-batcher requests are remapped to the parent's
    spec indices too: a batcher that dispatches on the index (one runtime
    model per campaign) must see each campaign under one index.  Shards
    share the host's cores, so each child first pins its BLAS pools to one
    thread (:func:`_pin_blas_threads`).
    """
    try:
        _pin_blas_threads()
        specs = [runner.specs[index] for index in indices]
        parent_batcher = runner.run_batcher
        run_batcher = None
        if parent_batcher is not None:

            def run_batcher(requests):
                return parent_batcher(
                    [(indices[index], configs) for index, configs in requests]
                )

        child = CampaignRunner(
            specs,
            run_batcher=run_batcher,
            on_campaign_error=runner.on_campaign_error,
        )
        summaries = [
            None
            if result is None
            else {name: getattr(result, name) for name in _SUMMARY_FIELDS}
            for result in child.run()
        ]
        sender.send(
            {
                "error": None,
                "num_ticks": child.num_ticks,
                "counters": {
                    name: value
                    for name, value in vars(child).items()
                    if name.startswith("num_") and name != "num_ticks"
                },
                "quarantined": [
                    (indices[q.index], q.label, q.phase, repr(q.error))
                    for q in child.quarantined
                ],
                "results": summaries,
            }
        )
    except BaseException as error:  # pragma: no cover - exercised via parent
        try:
            sender.send({"error": f"{type(error).__name__}: {error}"})
        except Exception:
            pass
    finally:
        sender.close()


#: The runner's name before admission control moved into
#: :class:`CampaignRunner`; kept for callers that import it.
ElasticCampaignRunner = CampaignRunner
