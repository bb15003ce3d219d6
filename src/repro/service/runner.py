"""Multi-campaign runners: batch ticks over one event loop, fixed or elastic.

The paper's evaluation runs many asynchronous BO campaigns (setups ×
methods × repetitions); executed naively they run strictly one after
another, each paying its own Python/NumPy pass overhead per manager
interaction.  :class:`CampaignRunner` instead advances N campaigns in
lock-step *batch ticks* over their virtual-time evaluators:

1. **collect** — every active campaign advances to its own next completion
   event and records the finished evaluations;
2. **tell** — the completions are ingested per campaign, and the due
   random-forest surrogate refits are grouped into one
   :func:`~repro.core.surrogate.random_forest.fit_forest_fleet` pass (the
   per-level NumPy overhead — the dominant refit cost at campaign scale —
   is paid once per tick instead of once per campaign); due
   Gaussian-process refits are grouped the same way into batched
   :class:`~repro.core.surrogate.gaussian_process.GPFleet` passes — one
   stacked ``(K, n, n)`` Cholesky per tick for members due a full refit,
   one batched factor extension for members extending incrementally
   (members keep their own ``refresh_growth`` schedules, so one campaign
   can full-refit while its siblings extend) — grouped by
   :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key` with solo
   fallbacks where history shapes can't align;
3. **prior refresh** — campaigns on the continuous-retuning scenario
   (``CBOSearch(prior_refresh_interval=...)``, including transfer campaigns
   seeded with a :class:`~repro.core.transfer.TransferLearningPrior`) whose
   VAE refit falls due this tick train them as one fused
   :class:`~repro.core.vae.tvae.VAEFleet` pass per compatible group;
4. **ask** — the fleet ask: the tick's due asks are grouped by search
   space and encoding (``batch_asks``) and each group's candidate
   generation runs as one stacked
   :func:`~repro.core.optimizer.prepare_ask_fleet` pass — one fused prior
   sample, one shared encoding, one fused dedup sweep — before the
   already-fused posterior scoring and submission.

Campaign fleets built from transfer-learning searches constructed with
``VAEABOSearch(defer_transfer_fit=True)`` additionally get their initial
``fit_transfer_prior`` VAE fits fused into
:class:`~repro.core.vae.tvae.VAEFleet` passes when the runner starts them
(``batch_vae_fits``), instead of paying K solo VAE trainings up front.

Because each campaign's operations run in exactly the order the sequential
loop would run them, and the fleet fit is bit-identical per forest, the
per-campaign :class:`~repro.core.search.SearchResult`\\ s are **bit-identical**
to running the same seeds through ``CBOSearch.run`` one by one — the batch
runner only changes wall-clock time (``benchmarks/bench_multi_campaign.py``
measures the effect; the identity is pinned by the test suite).  One
carve-out: campaigns using the opt-in ``overhead="measured"`` model charge
their *measured* Python time as virtual overhead, and a batched fleet fit's
wall-clock is shared rather than attributed per campaign, so measured-mode
virtual timelines differ between the two executions (the default analytic
model depends only on campaign state and is exactly identical).

The fleet-fusion groups are planned from the **active set of the tick**, by
the shared pure function :func:`~repro.service.grouping.plan_tick_groups` —
nothing about a group survives the tick.  That is what makes the runner
**elastic**: :class:`ElasticCampaignRunner` admits campaigns mid-flight
(:meth:`~ElasticCampaignRunner.admit`) under admission control
(``max_inflight`` overall, ``max_inflight_per_tenant`` per tenant), lets
finished or quarantined campaigns leave, and simply re-plans the groups each
tick from whoever is active.  Per-campaign bit-identity to an isolated
sequential run holds regardless of when a campaign joins or leaves the
fleet, because each campaign's own phase order is unchanged and every fused
pass is bit-identical per member.

Campaigns may also share a :class:`~repro.service.SharedWorkerPool` through
``CBOSearch(evaluator_factory=pool.evaluator_factory())``, in which case they
compete for the same workers on one clock — the service deployment scenario
(results then legitimately differ from private-worker runs).

**Multi-core execution** (``step_workers``): each tick the active set is
partitioned into shards by the pure plan
:func:`~repro.service.grouping.plan_step_shards`, every shard runs the
complete per-tick pipeline independently (thread pool by default, one
process per shard of *whole campaigns* with ``step_backend="process"``), and
the shard results are reduced onto the runner in shard order.  Because the
shard plan depends only on the active-set order and ``step_shards`` — never
on worker count or thread timing — and every fused pass is bit-identical per
member, ``step_workers=1`` and ``step_workers=N`` produce bitwise-identical
campaigns; fusion groups form *within* a shard, so sharding only trades
fusion hit rate against parallelism (see docs/architecture.md §15).
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.journal import CampaignJournal, open_journal_reader
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
from repro.service.grouping import plan_step_shards, plan_tick_groups

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
    ``tenant`` labels the campaign's owner for the elastic runner's
    admission control and the shared pool's per-tenant slot accounting.
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
    """Run several independent campaigns concurrently over batch ticks.

    Parameters
    ----------
    specs:
        The campaigns to run (order is preserved in the results).
    batch_surrogate_fits:
        Group the due level-wise random-forest refits of one tick into a
        single fleet fit (default).  ``False`` fits each campaign's surrogate
        on its own — same results, sequential-fit wall-clock; kept selectable
        so the benchmark can quantify the batching and the tests can compare
        both paths.
    batch_gp_fits:
        Group the due Gaussian-process refits of one tick into batched
        :class:`~repro.core.surrogate.gaussian_process.GPFleet` passes
        (default): one stacked Cholesky factorisation per full-refit group,
        one batched factor extension per incremental group, grouped by
        :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key` (fleet
        mode plus shapes — unequal history sizes fall back to solo fits).
        Bit-identical per campaign; ``False`` fits each campaign's GP on its
        own — the escape hatch the benchmark and the identity tests compare
        against.
    batch_candidate_scoring:
        Score the candidate pools of one tick's RF-backed asks in one fused
        :func:`~repro.core.surrogate.random_forest.predict_forest_fleet`
        traversal, and the GP-backed asks of equal candidate/training shape
        through one fused
        :meth:`~repro.core.surrogate.gaussian_process.GPFleet.predict`
        cross-kernel pass (default).  Bit-identical to per-campaign scoring.
    batch_vae_fits:
        Fuse the prior-refresh VAE refits that fall due in one tick
        (campaigns running the continuous-retuning scenario,
        ``CBOSearch(prior_refresh_interval=...)``) into a single
        :class:`~repro.core.vae.tvae.VAEFleet` training pass per compatible
        group (default), and likewise the construction-time transfer-prior
        VAE fits of searches built with
        ``VAEABOSearch(defer_transfer_fit=True)`` when their campaigns
        start.  Bit-identical per campaign to refitting each VAE on its
        own; ``False`` keeps the per-campaign fits.
    batch_asks:
        The fleet ask (default): group each tick's due asks by search space
        and encoding (:func:`~repro.service.grouping.plan_tick_groups`) and
        run each fused group's candidate generation as one stacked
        :func:`~repro.core.optimizer.prepare_ask_fleet` pass — one fused
        prior sample, one shared ``to_unit_array``/one-hot encoding, one
        fused dedup sweep against each member's own evaluated keys.
        Bit-identical per campaign (each member's RNG draws keep their solo
        order); ``False`` is the escape hatch that prepares every ask solo.
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
        every tick).  A fused
        fleet pass that fails falls back to per-campaign solo fits first —
        only campaigns whose *solo* step also fails are quarantined.
        Quarantined campaigns still contribute their partial
        :class:`~repro.core.search.SearchResult`.
    step_workers:
        Number of workers stepping tick shards in parallel.  ``None``
        (default) reads the ``REPRO_STEP_WORKERS`` environment variable
        (falling back to 1 — the sequential runner).  With 1 worker the
        tick runs exactly as before; with N the shards of the tick run
        concurrently.  Results are bitwise identical either way: the shard
        plan and the shard-order reduction never depend on worker count.
    step_shards:
        Number of shards the active set is partitioned into each tick
        (defaults to ``step_workers``).  The shard plan — not the worker
        count — is what determines fusion-group composition: fusion happens
        within a shard, so cross-shard groups fall back solo.  Pin
        ``step_shards=1`` to keep global fusion groups while still using
        ``step_workers`` for intra-shard parallel scoring.
    step_backend:
        ``"thread"`` (default) steps shards on a shared thread pool —
        per-tick granularity, zero-copy by construction.
        ``"process"`` runs each shard's campaigns to completion in a forked
        worker process instead (whole-campaign granularity: per-tick
        process hops cannot round-trip live state bit-identically); it
        requires every spec to be journaled, because the parent rebuilds
        each result from the child's journal through the
        :class:`~repro.core.journal.JournalReader` mmap views — the
        zero-copy channel — rather than pickling histories over the pipe.
        Only :meth:`run` supports the process backend.
    """

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        batch_surrogate_fits: bool = True,
        batch_candidate_scoring: bool = True,
        batch_vae_fits: bool = True,
        batch_gp_fits: bool = True,
        batch_asks: bool = True,
        run_batcher: Optional[Callable] = None,
        on_campaign_error: str = "raise",
        step_workers: Optional[int] = None,
        step_shards: Optional[int] = None,
        step_backend: str = "thread",
    ):
        if not specs:
            raise ValueError("need at least one campaign")
        self._configure(
            batch_surrogate_fits=batch_surrogate_fits,
            batch_candidate_scoring=batch_candidate_scoring,
            batch_vae_fits=batch_vae_fits,
            batch_gp_fits=batch_gp_fits,
            batch_asks=batch_asks,
            run_batcher=run_batcher,
            on_campaign_error=on_campaign_error,
            step_workers=step_workers,
            step_shards=step_shards,
            step_backend=step_backend,
        )
        self.specs = list(specs)

    def _configure(
        self,
        batch_surrogate_fits: bool,
        batch_candidate_scoring: bool,
        batch_vae_fits: bool,
        batch_gp_fits: bool,
        batch_asks: bool,
        run_batcher: Optional[Callable],
        on_campaign_error: str,
        step_workers: Optional[int] = None,
        step_shards: Optional[int] = None,
        step_backend: str = "thread",
    ) -> None:
        """Shared option validation and live-state initialisation."""
        if on_campaign_error not in ("raise", "quarantine"):
            raise ValueError(
                f"unknown on_campaign_error {on_campaign_error!r} "
                "(expected 'raise' or 'quarantine')"
            )
        if step_backend not in ("thread", "process"):
            raise ValueError(
                f"unknown step_backend {step_backend!r} "
                "(expected 'thread' or 'process')"
            )
        if step_workers is None:
            step_workers = int(os.environ.get("REPRO_STEP_WORKERS", "1"))
        if step_workers < 1:
            raise ValueError("step_workers must be >= 1")
        if step_shards is None:
            step_shards = step_workers
        if step_shards < 1:
            raise ValueError("step_shards must be >= 1")
        self.specs: List[CampaignSpec] = []
        self.batch_surrogate_fits = bool(batch_surrogate_fits)
        self.batch_candidate_scoring = bool(batch_candidate_scoring)
        self.batch_vae_fits = bool(batch_vae_fits)
        self.batch_gp_fits = bool(batch_gp_fits)
        self.batch_asks = bool(batch_asks)
        self.run_batcher = run_batcher
        self.on_campaign_error = on_campaign_error
        self.step_workers = int(step_workers)
        self.step_shards = int(step_shards)
        self.step_backend = step_backend
        self._step_executor: Optional[ThreadPoolExecutor] = None
        #: Serialises ``run_batcher`` invocations: parallel shards each batch
        #: their own submissions, but the batcher callable itself need not be
        #: thread-safe.
        self._batcher_lock = threading.Lock()
        #: Per-spec results of a process-backend run (None otherwise).
        self._process_results: Optional[List[Optional[SearchResult]]] = None
        #: Campaigns isolated by quarantine mode during the last :meth:`run`.
        self.quarantined: List[QuarantinedCampaign] = []
        self._index_of: Dict[int, int] = {}
        self._dropped_ids: set = set()
        #: Executions per spec index (None until started / if start failed).
        self._executions: List[Optional[CampaignExecution]] = []
        #: Executions currently advancing in batch ticks.
        self._active: List[CampaignExecution] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        #: Number of batch ticks executed by the last :meth:`run`.
        self.num_ticks = 0
        #: Number of fleet fits and of surrogates fitted through them.
        self.num_fleet_fits = 0
        self.num_fleet_fitted_surrogates = 0
        #: GP fleet counters: batched full-refit passes, batched factor
        #: extensions, GPs advanced through either, and fused posterior
        #: scoring passes.
        self.num_gp_fleet_full_fits = 0
        self.num_gp_fleet_extends = 0
        self.num_gp_fleet_members = 0
        self.num_gp_fleet_predicts = 0
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
        #: Solo surrogate fits a tick ran because no fused group formed —
        #: together with the fleet counters this yields the fusion hit rate.
        self.num_solo_fits = 0

    # --------------------------------------------------------- step executor
    def _executor(self) -> ThreadPoolExecutor:
        """The (lazily created) shared thread pool stepping tick shards."""
        if self._step_executor is None:
            self._step_executor = ThreadPoolExecutor(
                max_workers=self.step_workers, thread_name_prefix="repro-step"
            )
        return self._step_executor

    def close(self) -> None:
        """Shut down the step thread pool (idempotent; recreated on demand).

        :meth:`run` closes on exit; call this yourself when driving
        :meth:`tick` directly (e.g. an embedded elastic runner) and the
        runner is done.
        """
        if self._step_executor is not None:
            self._step_executor.shutdown(wait=True)
            self._step_executor = None

    @staticmethod
    def _pool_affinity(execution: CampaignExecution):
        """Affinity token pinning same-pool campaigns to one shard.

        Campaigns sharing a :class:`~repro.service.SharedWorkerPool` must
        step together: their virtual-time events interleave on one clock,
        and replaying that interleaving in arrival order (the within-shard
        order) keeps shared-pool runs deterministic under parallel stepping.
        Private-pool and private-evaluator campaigns have no affinity.
        """
        pool = getattr(execution.evaluator, "pool", None)
        if pool is None or len(pool.clients) <= 1:
            return None
        return id(pool)

    # ------------------------------------------------------------------- run
    def run(self) -> List[SearchResult]:
        """Execute all campaigns; per-spec results in spec order."""
        if self.step_backend == "process" and self.step_workers > 1:
            return self._run_process_shards()
        try:
            self._begin()
            while self._active:
                self.tick()
            return self.results()
        finally:
            self.close()

    def results(self) -> List[Optional[SearchResult]]:
        """Per-spec results in spec order (None for never-started specs)."""
        if self._process_results is not None:
            return list(self._process_results)
        return [
            None if execution is None else execution.result()
            for execution in self._executions
        ]

    def _begin(self) -> None:
        """Start every spec's execution and reset the run-scoped state."""
        self.quarantined = []
        self._dropped_ids = set()
        self._index_of = {}
        self._executions = []
        self._active = []
        self._process_results = None
        self._reset_counters()
        self._start_specs(range(len(self.specs)))

    def _start_specs(self, indices: Sequence[int]) -> None:
        """Start (or resume) the given specs and submit their initial batches.

        With a run batcher, the initialisation batches of all newly started
        campaigns are evaluated in one fused pass (they are the largest
        submissions of the whole run).  In quarantine mode a spec whose
        start itself raises is recorded with phase ``"start"`` instead of
        aborting the batch.
        """
        if self.batch_vae_fits:
            self._fit_transfer_fleet(indices)
        batching_runs = self.run_batcher is not None
        started: List[Tuple[int, CampaignExecution]] = []
        for index in indices:
            spec = self.specs[index]
            while len(self._executions) <= index:
                self._executions.append(None)
            try:
                if (
                    spec.resume_from_journal
                    and spec.journal_dir is not None
                    and CampaignJournal.exists(spec.journal_dir)
                ):
                    execution = spec.search.resume(spec.journal_dir)
                else:
                    execution = spec.search.start(
                        max_time=spec.max_time,
                        max_evaluations=spec.max_evaluations,
                        initial_configurations=spec.initial_configurations,
                        defer_initial_submit=batching_runs,
                        journal_dir=spec.journal_dir,
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
            started.append((index, execution))
        if batching_runs:
            initial = [
                (index, execution._pending_batch)
                for index, execution in started
                if execution._pending_batch
            ]
            if initial:
                runtimes = self._run_batch(initial)
                for (index, _), values in zip(initial, runtimes):
                    self._executions[index].submit_prepared(values)

    def _fit_transfer_fleet(self, indices: Sequence[int]) -> None:
        """Fuse the deferred construction-time transfer-VAE fits of a fleet.

        Searches built with ``VAEABOSearch(defer_transfer_fit=True)`` carry
        their untrained transfer VAE as
        :attr:`~repro.core.search.CBOSearch.pending_transfer_fit`; groups of
        compatible fits (same architecture, design shape and training
        budget — :func:`~repro.core.vae.tvae.vae_fleet_key`) train as one
        :class:`~repro.core.vae.tvae.VAEFleet` pass before their campaigns
        start, bit-identical per member to the eager solo fit.  Singletons
        and leftover members are trained by the solo backstop inside
        ``CampaignExecution.__init__``
        (:meth:`~repro.core.search.CBOSearch.complete_pending_transfer_fit`).
        A fused pass that fails under quarantine leaves its members to that
        same backstop.  The retry is a *valid* prior fit, not necessarily
        the eager-path bits: a pass that dies mid-training has already
        consumed member RNG draws (the same honest caveat as the fused
        prior-refresh fallback in :meth:`_refresh_priors`).
        """
        pending: List[Tuple[CBOSearch, object]] = []
        for index in indices:
            search = self.specs[index].search
            fit = getattr(search, "pending_transfer_fit", None)
            if fit is not None:
                pending.append((search, fit))
        for group in plan_tick_groups(
            pending,
            key_of=lambda pair: vae_fleet_key(
                pair[1].vae,
                pair[1].design.shape[0],
                pair[1].epochs,
                pair[1].batch_size,
            ),
            identity_of=lambda pair: id(pair[1].vae),
        ):
            if not group.fused:
                continue
            first = group.members[0][1]
            try:
                VAEFleet([fit.vae for _, fit in group.members]).fit(
                    [fit.design for _, fit in group.members],
                    epochs=first.epochs,
                    batch_size=first.batch_size,
                )
            except Exception:
                if self.on_campaign_error != "quarantine":
                    raise
                continue
            self.num_transfer_fleet_fits += 1
            self.num_transfer_fleet_members += len(group.members)
            for search, _ in group.members:
                search.pending_transfer_fit = None

    def tick(self) -> None:
        """Advance every active campaign by one batch tick.

        The active set is partitioned into shards by the pure plan
        :func:`~repro.service.grouping.plan_step_shards` (campaigns sharing
        a worker pool are pinned together); each shard runs the complete
        per-tick pipeline — fleet-fusion groups are planned fresh from the
        *shard's* members — and the shard results (survivors, quarantine
        records, counter deltas) are reduced onto the runner **in shard
        order**, never in completion order.  With ``step_shards=1`` (the
        default when ``step_workers`` is 1) this is exactly the historic
        single-pipeline tick with global fusion groups.  Campaigns that
        finish or are quarantined during the tick leave the active set at
        its end.
        """
        self.num_ticks += 1
        shards = plan_step_shards(
            self._active, self.step_shards, affinity_of=self._pool_affinity
        )
        if len(shards) <= 1:
            # A single shard steps inline; with spare workers its candidate
            # scoring may parallelise inside the tick instead.
            parallel_scoring = self.step_workers > 1
            contexts = [
                _ShardTick(self, shard, parallel_scoring=parallel_scoring).advance()
                for shard in shards
            ]
        elif self.step_workers > 1:
            contexts = list(
                self._executor().map(
                    lambda shard: _ShardTick(self, shard).advance(), shards
                )
            )
        else:
            contexts = [_ShardTick(self, shard).advance() for shard in shards]
        # Deterministic reduction: shard order, not completion order.
        active: List[CampaignExecution] = []
        for context in contexts:
            for name, delta in context.counters.items():
                setattr(self, name, getattr(self, name) + delta)
            self.quarantined.extend(context.quarantined)
            self._dropped_ids.update(context.dropped_ids)
            active.extend(context.survivors)
        self._active = active

    # --------------------------------------------------------- process shards
    def _run_process_shards(self) -> List[SearchResult]:
        """Run the campaigns as one forked worker process per spec shard.

        Each child runs a sequential :class:`CampaignRunner` over its shard
        of whole campaigns (per-tick process stepping cannot round-trip live
        optimizer/evaluator state bit-identically, so the process backend
        shards at campaign granularity) and only scalars cross the result
        pipe: every spec must be journaled, and the parent rebuilds each
        :class:`~repro.core.search.SearchResult` from the child's final
        checkpoint through the :class:`~repro.core.journal.JournalReader`
        mmap views — histories return zero-copy, never pickled.  Counters
        are summed and quarantine records merged in shard order;
        ``num_ticks`` is the maximum over shards (the parallel tick depth).
        """
        import multiprocessing

        for index, spec in enumerate(self.specs):
            if spec.journal_dir is None:
                raise ValueError(
                    "step_backend='process' requires journaled campaigns "
                    f"(spec {index} has no journal_dir): results return "
                    "through JournalReader mmap views, not pickles"
                )
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "step_backend='process' requires the fork start method"
            ) from None
        self.quarantined = []
        self._dropped_ids = set()
        self._index_of = {}
        self._executions = [None] * len(self.specs)
        self._active = []
        self._reset_counters()
        shards = plan_step_shards(list(range(len(self.specs))), self.step_shards)
        workers: List[Tuple[List[int], object, object]] = []
        for shard in shards:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_run_spec_shard, args=(self, shard, sender)
            )
            process.start()
            sender.close()
            workers.append((shard, receiver, process))
        results: List[Optional[SearchResult]] = [None] * len(self.specs)
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
                if summary is None:
                    continue
                results[index] = self._result_from_journal(index, summary)
        if failures:
            raise RuntimeError(
                "process-backend shards failed: " + "; ".join(failures)
            )
        self._process_results = results
        return list(results)

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
            best_configuration=summary["best_configuration"],
            best_runtime=summary["best_runtime"],
            best_objective=summary["best_objective"],
            num_evaluations=len(history),
            worker_utilization=summary["worker_utilization"],
            search_time=summary["search_time"],
            num_workers=summary["num_workers"],
            busy_intervals=reader.intervals(),
        )

    # ------------------------------------------------------------ run batches
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

    #: Element budget of one fused GP scoring sheet (the ``(nc, Σn)``
    #: cross-kernel).  Fusing amortises NumPy dispatch, but a sheet that
    #: outgrows the CPU cache pays more in memory traffic than it saves in
    #: call overhead (measured on the 1-CPU box), so big ticks are scored in
    #: cache-sized chunks — still bit-identical, chunk composition only
    #: changes wall-clock.  With spare ``step_workers`` the chunks of a
    #: single-shard tick score concurrently (one cache-sized sheet per
    #: core), which is the NUMA-friendly parallel decomposition.
    gp_predict_chunk_elements = 8192


class _ShardTick:
    """One shard's complete batch tick: pipeline, local state, reductions.

    The parallel runner steps each shard's per-tick pipeline (collect →
    tell/fit → refresh → ask → score → submit → checkpoint) independently.
    Everything a shard mutates *outside* its own campaigns lives here —
    quarantine records, dropped ids, counter deltas, the surviving members —
    and the runner reduces the contexts in shard order after all shards
    return.  Fixed shard plan + fixed reduction order is the bit-identity
    contract: no result, counter total or quarantine record depends on
    worker count or thread timing.

    This class is the former body of ``CampaignRunner.tick`` and its fleet
    helpers, re-rooted so all tick-scoped mutable state is shard-local; with
    one shard per tick (``step_shards=1``) it executes the historic
    single-pipeline tick with global fusion groups, bit for bit.
    """

    def __init__(
        self,
        runner: "CampaignRunner",
        members: List[CampaignExecution],
        parallel_scoring: bool = False,
    ):
        self.runner = runner
        self.members = members
        #: Whether candidate scoring may use the runner's thread pool from
        #: inside this shard.  Only ever true for a single-shard tick — a
        #: shard already running *on* the pool submitting more work to it
        #: could deadlock — and decided by the shard plan, not by timing,
        #: so it cannot perturb bit-identity (scoring is bit-identical
        #: chunked or not, threaded or not).
        self.parallel_scoring = parallel_scoring
        self.quarantined: List[QuarantinedCampaign] = []
        self.dropped_ids: set = set()
        self.counters: Dict[str, int] = defaultdict(int)
        self.survivors: List[CampaignExecution] = []

    # ----------------------------------------------------------- error policy
    def _quarantine(
        self, execution: CampaignExecution, phase: str, error: BaseException
    ) -> None:
        """Isolate one failing campaign: checkpoint, record, drop from batch."""
        index = self.runner._index_of[id(execution)]
        self.dropped_ids.add(id(execution))
        self.quarantined.append(
            QuarantinedCampaign(
                index=index,
                label=self.runner.specs[index].label,
                phase=phase,
                error=error,
            )
        )
        try:
            # Best effort: a journaled campaign stays resumable from its last
            # consistent state even when the quarantine-time checkpoint fails.
            execution.maybe_checkpoint(force=True)
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
            if self.runner.on_campaign_error != "quarantine":
                raise
            self._quarantine(execution, phase, error)
            return _FAILED

    def _surviving(self, executions: List[CampaignExecution]) -> List[CampaignExecution]:
        """Filter out campaigns quarantined earlier in this shard's tick."""
        if not self.dropped_ids:
            return executions
        return [e for e in executions if id(e) not in self.dropped_ids]

    # --------------------------------------------------------------- pipeline
    def advance(self) -> "_ShardTick":
        """Run the full per-tick pipeline over this shard's members.

        Fleet-fusion groups are planned fresh from the shard's members
        (:func:`~repro.service.grouping.plan_tick_groups`); campaigns that
        finish or are quarantined during the tick are excluded from
        :attr:`survivors`.  Returns ``self`` for executor mapping.
        """
        runner = self.runner
        index_of = runner._index_of
        ticking: List[CampaignExecution] = []
        fit_due: List[CampaignExecution] = []
        gp_due: List[CampaignExecution] = []
        for execution in self.members:
            completed = self._step(execution, "collect", execution.collect)
            if completed is _FAILED:
                continue
            if completed is None:
                # The campaign just finished: commit its final checkpoint
                # so ``finished`` is durably recorded.
                self._step(
                    execution,
                    "checkpoint",
                    lambda e=execution: e.maybe_checkpoint(force=True),
                )
                continue
            due = self._step(execution, "tell", execution.ingest_collected)
            if due is _FAILED:
                continue
            if due:
                if runner.batch_surrogate_fits and self._fleet_eligible(execution):
                    fit_due.append(execution)
                elif runner.batch_gp_fits and isinstance(
                    execution.optimizer.surrogate, GaussianProcessSurrogate
                ):
                    gp_due.append(execution)
                else:
                    self.counters["num_solo_fits"] += 1
                    if (
                        self._step(
                            execution, "fit", execution.optimizer.fit_now
                        )
                        is _FAILED
                    ):
                        continue
            if self._step(execution, "tell", execution.charge_tell) is _FAILED:
                continue
            ticking.append(execution)
        self._fit_fleet(self._surviving(fit_due))
        self._fit_gp_fleet(self._surviving(gp_due))
        ticking = self._surviving(ticking)
        self._refresh_priors(self._surviving(ticking))
        ticking = self._surviving(ticking)

        # ---- ask: fused candidate generation (the fleet ask), fused scoring
        if runner.batch_asks:
            pairs = self._begin_asks_fleet(ticking)
        else:
            pairs = []
            for execution in ticking:
                prepared = self._step(execution, "ask", execution.begin_ask)
                if prepared is not _FAILED:
                    pairs.append((execution, prepared))
        scored: Dict[int, Tuple] = {}
        if runner.batch_candidate_scoring:
            fused = [
                (execution, prepared)
                for execution, prepared in pairs
                if prepared is not None
                and prepared.proposals is None
                and prepared.wants_scores
                and isinstance(execution.optimizer.surrogate, RandomForestSurrogate)
            ]
            # Campaigns may tune different spaces: fuse only pools of
            # equal encoded width (the traversal stacks the matrices).
            for group in plan_tick_groups(
                fused, key_of=lambda pair: int(pair[1].encoded.shape[1])
            ):
                if not group.fused:
                    continue
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
            self._score_gp_fleet(pairs, scored)

        # With spare workers (single-shard tick), solo candidate scoring
        # inside finish_ask parallelises over its score_shards through the
        # optimizer's own score_executor hook — temporarily wired to the
        # runner's pool for optimizers that shard but have no executor.
        wired = []
        if self.parallel_scoring:
            for execution, prepared in pairs:
                optimizer = execution.optimizer
                if (
                    optimizer.score_executor is None
                    and optimizer.score_shards > 1
                ):
                    optimizer.score_executor = runner._executor()
                    wired.append(optimizer)
        try:
            # ---- submit: batch the run-function calls when a batcher is given
            submissions: List[Tuple[int, CampaignExecution, List[Configuration]]] = []
            for execution, prepared in pairs:
                scores = scored.get(id(execution))
                if scores is not None:
                    batch = self._step(
                        execution,
                        "ask",
                        lambda e=execution, s=scores: e.finish_ask(*s),
                    )
                else:
                    batch = self._step(execution, "ask", execution.finish_ask)
                if batch is not None and batch is not _FAILED:
                    submissions.append((index_of[id(execution)], execution, batch))
        finally:
            for optimizer in wired:
                optimizer.score_executor = None
        if runner.run_batcher is not None and submissions:
            with runner._batcher_lock:
                runtimes = runner._run_batch(
                    [(idx, batch) for idx, _, batch in submissions]
                )
            for (_, execution, _), values in zip(submissions, runtimes):
                execution.submit_prepared(values)
        else:
            for _, execution, _ in submissions:
                self._step(execution, "submit", execution.submit_prepared)
        for execution in self._surviving(ticking):
            self._step(execution, "checkpoint", execution.maybe_checkpoint)
        self.survivors = [
            execution
            for execution in self._surviving(ticking)
            if not execution.finished
        ]
        return self

    # --------------------------------------------------------------- fleet ask
    def _begin_asks_fleet(self, ticking: List[CampaignExecution]) -> List[Tuple]:
        """Run the tick's due asks as stacked per-space fleet passes.

        Each campaign's eligibility half
        (:meth:`~repro.core.search.CampaignExecution.begin_ask_request` —
        budget check, idle-worker count) runs first in tick order; the
        askable campaigns are then grouped by search space and encoding
        (:func:`~repro.service.grouping.plan_tick_groups` — groups re-form
        every tick, so elastic join/leave just changes the next tick's
        plan) and each fused group's candidate generation runs as one
        :func:`~repro.core.optimizer.prepare_ask_fleet` pass.  Singleton
        groups and shared-optimizer degeneracies complete solo — the fleet
        of one *is* the solo path.  Bit-identical per campaign either way;
        returned pairs keep tick order so downstream submission order is
        unchanged.

        A fused pass that fails under quarantine falls back to solo
        ``complete_ask`` calls; like every fused-fallback in this runner the
        retry is a *valid* ask, not necessarily the solo-path bits — the
        failed pass may already have consumed member RNG draws.
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

        def solo(members: Sequence[Tuple[CampaignExecution, int]]) -> None:
            for execution, n in members:
                prepared = self._step(
                    execution, "ask", lambda e=execution, m=n: e.complete_ask(m)
                )
                if prepared is not _FAILED:
                    prepared_of[id(execution)] = prepared

        for group in plan_tick_groups(
            askable,
            key_of=lambda pair: (
                tuple(pair[0].optimizer.space.parameters),
                pair[0].optimizer.encoding,
            ),
            identity_of=lambda pair: id(pair[0].optimizer),
        ):
            if not group.fused:
                solo(group.members)
                continue
            try:
                prepared_list = prepare_ask_fleet(
                    [(execution.optimizer, n) for execution, n in group.members]
                )
            except Exception:
                if self.runner.on_campaign_error != "quarantine":
                    raise
                solo(group.members)
                continue
            self.counters["num_ask_fleet_passes"] += 1
            self.counters["num_ask_fleet_members"] += len(group.members)
            for (execution, _), prepared in zip(group.members, prepared_list):
                accepted = self._step(
                    execution,
                    "ask",
                    lambda e=execution, p=prepared: e.accept_prepared_ask(p),
                )
                if accepted is not _FAILED:
                    prepared_of[id(execution)] = accepted
        return [
            (execution, prepared_of[id(execution)])
            for execution in ticking
            if id(execution) in prepared_of
        ]

    # ------------------------------------------------------------ fleet fits
    @staticmethod
    def _fleet_eligible(execution: CampaignExecution) -> bool:
        surrogate = execution.optimizer.surrogate
        return (
            isinstance(surrogate, RandomForestSurrogate)
            and surrogate.fit_algorithm == "levelwise"
        )

    def _fit_fleet(self, fit_due: List[CampaignExecution]) -> None:
        """Fit the due RF surrogates, grouped by compatible hyperparameters."""
        groups = plan_tick_groups(
            fit_due,
            key_of=lambda e: fleet_compatibility_key(
                e.optimizer.surrogate, e.optimizer.training_data()[0].shape[1]
            ),
            identity_of=lambda e: id(e.optimizer.surrogate),
        )
        for group in groups:
            if not group.fused:
                # A single campaign (or a degenerate shared-surrogate setup):
                # the sequential path is the fleet of one.
                for execution in group.members:
                    self.counters["num_solo_fits"] += 1
                    self._step(execution, "fit", execution.optimizer.fit_now)
                continue
            try:
                fit_forest_fleet(
                    [
                        (execution.optimizer.surrogate, *execution.optimizer.training_data())
                        for execution in group.members
                    ]
                )
            except Exception:
                if self.runner.on_campaign_error != "quarantine":
                    raise
                # Degrade to solo refits; only campaigns whose solo fit also
                # fails are quarantined.
                for execution in group.members:
                    self._step(execution, "fit", execution.optimizer.fit_now)
                continue
            for execution in group.members:
                execution.optimizer.mark_fitted()
            self.counters["num_fleet_fits"] += 1
            self.counters["num_fleet_fitted_surrogates"] += len(group.members)

    def _fit_gp_fleet(self, fit_due: List[CampaignExecution]) -> None:
        """Fit the due GP surrogates, grouped by fleet mode and shape.

        :func:`~repro.core.surrogate.gaussian_process.gp_fleet_key` splits
        the tick's due GPs into batched full refits (equal total sizes) and
        batched factor extensions (equal old/new sizes) — each member keeps
        its own ``refresh_growth`` schedule, so one campaign can full-refit
        while its siblings extend.  Groups of one (ragged history sizes are
        the norm for GPs) and degenerate shared-surrogate setups take the
        sequential ``fit_now`` path: a fleet of one is the solo fit.
        """
        items: List[Tuple[CampaignExecution, object, object]] = []
        for execution in fit_due:
            X, y = execution.optimizer.training_data()
            items.append((execution, X, y))

        def gp_key(item):
            execution, X, _ = item
            optimizer = execution.optimizer
            num_new = X.shape[0] - optimizer.fitted_rows
            return gp_fleet_key(optimizer.surrogate, X.shape[0], num_new, X.shape[1])

        for group in plan_tick_groups(
            items,
            key_of=gp_key,
            identity_of=lambda item: id(item[0].optimizer.surrogate),
        ):
            if not group.fused:
                for execution, _, _ in group.members:
                    self.counters["num_solo_fits"] += 1
                    self._step(execution, "fit", execution.optimizer.fit_now)
                continue
            try:
                fleet = GPFleet(
                    [execution.optimizer.surrogate for execution, _, _ in group.members]
                )
                if group.key[0] == "extend":
                    fleet.partial_fit(
                        [
                            X[execution.optimizer.fitted_rows :]
                            for execution, X, _ in group.members
                        ],
                        [
                            y[execution.optimizer.fitted_rows :]
                            for execution, _, y in group.members
                        ],
                    )
                    self.counters["num_gp_fleet_extends"] += 1
                else:
                    fleet.fit(
                        [X for _, X, _ in group.members],
                        [y for _, _, y in group.members],
                    )
                    self.counters["num_gp_fleet_full_fits"] += 1
            except Exception:
                if self.runner.on_campaign_error != "quarantine":
                    raise
                for execution, _, _ in group.members:
                    self._step(execution, "fit", execution.optimizer.fit_now)
                continue
            for execution, _, _ in group.members:
                execution.optimizer.mark_fitted()
            self.counters["num_gp_fleet_members"] += len(group.members)

    def _score_gp_fleet(self, pairs, scored: Dict[int, Tuple]) -> None:
        """Fuse the tick's GP-backed candidate scoring where shapes align.

        Pools of equal candidate shape score through a single
        :meth:`~repro.core.surrogate.gaussian_process.GPFleet.predict`
        cross-kernel pass — bit-identical per campaign to solo scoring;
        training-set sizes may be ragged (the fused cross-kernel works on
        concatenated training rows).  Singleton groups fall through to the
        per-campaign path.  A single-shard tick with spare workers scores
        its cache-sized chunks concurrently on the runner's thread pool;
        results merge in chunk order, so the threading is invisible in the
        outputs.
        """
        pool = [
            (execution, prepared)
            for execution, prepared in pairs
            if prepared is not None
            and prepared.proposals is None
            and prepared.wants_scores
            and isinstance(execution.optimizer.surrogate, GaussianProcessSurrogate)
            and execution.optimizer.surrogate.fitted
        ]
        for group in plan_tick_groups(
            pool,
            key_of=lambda pair: tuple(pair[1].encoded.shape),
            identity_of=lambda pair: id(pair[0].optimizer.surrogate),
        ):
            if not group.fused:
                continue
            chunks = [
                chunk
                for chunk in self._chunk_gp_predicts(group.key[0], group.members)
                if len(chunk) >= 2
            ]

            def score_chunk(chunk):
                return GPFleet(
                    [execution.optimizer.surrogate for execution, _ in chunk]
                ).predict([prepared.encoded for _, prepared in chunk])

            if self.parallel_scoring and len(chunks) > 1:
                futures = [
                    self.runner._executor().submit(score_chunk, chunk)
                    for chunk in chunks
                ]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(future.result())
                    except Exception as error:
                        outcomes.append(error)
            else:
                outcomes = []
                for chunk in chunks:
                    try:
                        outcomes.append(score_chunk(chunk))
                    except Exception as error:
                        outcomes.append(error)
            for chunk, outcome in zip(chunks, outcomes):
                if isinstance(outcome, Exception):
                    if self.runner.on_campaign_error != "quarantine":
                        raise outcome
                    # Fused scoring is an optimisation: members without fused
                    # scores simply score their own pools inside finish_ask.
                    continue
                scored.update(
                    (id(execution), result)
                    for (execution, _), result in zip(chunk, outcome)
                )
                self.counters["num_gp_fleet_predicts"] += 1

    def _chunk_gp_predicts(self, num_candidates: int, group: List) -> List[List]:
        """Split one scoring group into cache-sized fused chunks.

        Members are packed smallest-first so small members fuse together
        instead of being split into skipped singletons by one large
        neighbour; chunk composition only changes wall-clock, never results
        (each member's slice is bitwise independent).
        """
        sized = sorted(
            (
                (num_candidates * execution.optimizer.surrogate.training_size,
                 (execution, prepared))
                for execution, prepared in group
            ),
            key=lambda pair: pair[0],
        )
        chunks: List[List] = []
        current: List = []
        elements = 0
        budget = self.runner.gp_predict_chunk_elements
        for member_elements, item in sized:
            if current and elements + member_elements > budget:
                chunks.append(current)
                current, elements = [], 0
            current.append(item)
            elements += member_elements
        if current:
            chunks.append(current)
        return chunks

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
        if not due:
            return
        self.counters["num_prior_refreshes"] += len(due)
        if self.runner.batch_vae_fits:
            def refresh_key(pair):
                prepared = pair[1]
                return vae_fleet_key(
                    prepared.vae,
                    prepared.design.shape[0],
                    prepared.epochs,
                    prepared.batch_size,
                )
        else:
            def refresh_key(pair):
                return (id(pair[0]),)
        for group in plan_tick_groups(
            due, key_of=refresh_key, identity_of=lambda pair: id(pair[1].vae)
        ):
            if not group.fused:
                for execution, prepared in group.members:
                    if (
                        self._step(
                            execution,
                            "refresh",
                            lambda p=prepared: p.vae.fit(
                                p.design, epochs=p.epochs, batch_size=p.batch_size
                            ),
                        )
                        is _FAILED
                    ):
                        continue
                    self._finish_refresh(execution, prepared)
                continue
            first = group.members[0][1]
            try:
                VAEFleet([prepared.vae for _, prepared in group.members]).fit(
                    [prepared.design for _, prepared in group.members],
                    epochs=first.epochs,
                    batch_size=first.batch_size,
                )
            except Exception:
                if self.runner.on_campaign_error != "quarantine":
                    raise
                # A failed fused pass leaves the fresh VAEs half-trained;
                # re-prepare and train each solo (deterministic per-refresh
                # seeds make the rebuilt VAE a clean restart).
                for execution, _ in group.members:
                    self._step(
                        execution, "refresh", execution.refresh_prior_if_due
                    )
                continue
            self.counters["num_vae_fleet_fits"] += 1
            self.counters["num_vae_fleet_members"] += len(group.members)
            for execution, prepared in group.members:
                self._finish_refresh(execution, prepared)

    def _finish_refresh(self, execution: CampaignExecution, prepared) -> None:
        """Install one campaign's trained refresh VAE under the error policy."""
        self._step(
            execution,
            "refresh",
            lambda e=execution, p=prepared: e.finish_prior_refresh(p),
        )


def _run_spec_shard(runner: CampaignRunner, indices: List[int], sender) -> None:
    """Child-process entry point of the process backend: run one spec shard.

    Runs a sequential :class:`CampaignRunner` over the shard's specs and
    sends back a scalars-only payload — counters, quarantine records (spec
    indices remapped to the parent's numbering) and per-result summaries.
    Histories never cross the pipe: the parent rebuilds them from each
    spec's journal through the mmap reader.
    """
    try:
        specs = [runner.specs[index] for index in indices]
        child = CampaignRunner(
            specs,
            batch_surrogate_fits=runner.batch_surrogate_fits,
            batch_candidate_scoring=runner.batch_candidate_scoring,
            batch_vae_fits=runner.batch_vae_fits,
            batch_gp_fits=runner.batch_gp_fits,
            batch_asks=runner.batch_asks,
            run_batcher=runner.run_batcher,
            on_campaign_error=runner.on_campaign_error,
            step_workers=1,
            step_backend="thread",
        )
        child.run()
        summaries = []
        for result in child.results():
            if result is None:
                summaries.append(None)
                continue
            summaries.append(
                {
                    "best_configuration": result.best_configuration,
                    "best_runtime": result.best_runtime,
                    "best_objective": result.best_objective,
                    "worker_utilization": result.worker_utilization,
                    "search_time": result.search_time,
                    "num_workers": result.num_workers,
                }
            )
        counter_names = [
            name
            for name in vars(child)
            if name.startswith("num_") and name != "num_ticks"
        ]
        sender.send(
            {
                "error": None,
                "num_ticks": child.num_ticks,
                "counters": {
                    name: getattr(child, name) for name in counter_names
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


class ElasticCampaignRunner(CampaignRunner):
    """A :class:`CampaignRunner` whose fleet changes while it runs.

    Campaigns **join** through :meth:`admit` — immediately, or at a declared
    future tick (the burst scenario's arrival schedule) — and **leave** when
    they finish or are quarantined; the fleet-fusion groups re-form from the
    surviving active set every tick, so membership changes never perturb any
    member's results.  Each campaign with private workers remains
    bit-identical to its isolated sequential run regardless of when it
    joined or left.

    Admission control gates how many admitted campaigns are actually
    in-flight:

    ``max_inflight``
        Upper bound on concurrently active campaigns.  Arrivals beyond it
        wait in a FIFO admission queue and enter as slots free up — every
        admitted campaign eventually runs (no starvation: the queue is
        drained strictly in order for campaigns blocked on the global
        limit).
    ``max_inflight_per_tenant``
        Per-tenant bound on concurrently active campaigns.  A tenant at its
        bound does not block *other* tenants' queued arrivals — later
        entries overtake it, which is the per-tenant fairness guarantee (one
        tenant's burst cannot monopolise the runner).  Within one tenant,
        FIFO order is preserved.

    Per-tenant fairness over *evaluation* capacity is the shared pool's job:
    see ``SharedWorkerPool(tenant_slots=...)``.

    Drive the runner either with :meth:`run_until_complete` (ticks until the
    admission queue and the active set are empty) or by calling
    :meth:`tick` yourself between admissions (how the campaign registry
    embeds it in a long-lived service).
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        max_inflight_per_tenant: Optional[int] = None,
        batch_surrogate_fits: bool = True,
        batch_candidate_scoring: bool = True,
        batch_vae_fits: bool = True,
        batch_gp_fits: bool = True,
        batch_asks: bool = True,
        run_batcher: Optional[Callable] = None,
        on_campaign_error: str = "raise",
        step_workers: Optional[int] = None,
        step_shards: Optional[int] = None,
        step_backend: str = "thread",
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_inflight_per_tenant is not None and max_inflight_per_tenant < 1:
            raise ValueError("max_inflight_per_tenant must be >= 1")
        if step_backend == "process":
            # The process backend forks whole-campaign shards for one
            # complete run; an elastic fleet admits campaigns *between*
            # ticks, which has no meaning across a fork boundary.
            raise ValueError(
                "ElasticCampaignRunner only supports step_backend='thread'"
            )
        self._configure(
            batch_surrogate_fits=batch_surrogate_fits,
            batch_candidate_scoring=batch_candidate_scoring,
            batch_vae_fits=batch_vae_fits,
            batch_gp_fits=batch_gp_fits,
            batch_asks=batch_asks,
            run_batcher=run_batcher,
            on_campaign_error=on_campaign_error,
            step_workers=step_workers,
            step_shards=step_shards,
            step_backend=step_backend,
        )
        self.max_inflight = max_inflight
        self.max_inflight_per_tenant = max_inflight_per_tenant
        #: Spec indices awaiting admission, in arrival order.
        self._admission_queue: Deque[int] = deque()
        #: Spec index → earliest tick at which it may be admitted.
        self._arrival_tick: Dict[int, int] = {}
        #: Spec indices admitted so far, in admission order.
        self.admitted_order: List[int] = []

    # -------------------------------------------------------------- admission
    def admit(
        self,
        spec: CampaignSpec,
        tenant: Optional[str] = None,
        arrival_tick: Optional[int] = None,
    ) -> int:
        """Register a campaign for admission; returns its result index.

        ``tenant`` overrides the spec's tenant label; ``arrival_tick`` holds
        the campaign out of admission until the runner has executed that
        many ticks (modelling an arrival curve — ``None`` means it is
        admissible immediately).
        """
        index = len(self.specs)
        if tenant is not None:
            spec.tenant = tenant
        self.specs.append(spec)
        while len(self._executions) <= index:
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

    def _tenant_inflight(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for execution in self._active:
            tenant = self.specs[self._index_of[id(execution)]].tenant
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts

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
        per_tenant = self._tenant_inflight()
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
                and per_tenant.get(tenant, 0) >= self.max_inflight_per_tenant
            ):
                remaining.append(index)
                continue
            admitted.append(index)
            inflight += 1
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        self._admission_queue = remaining
        if admitted:
            before = len(self.quarantined)
            self._start_specs(admitted)
            failed = {q.index for q in self.quarantined[before:]}
            self.admitted_order.extend(i for i in admitted if i not in failed)
            if failed:
                self.admitted_order.extend(sorted(failed))

    # ------------------------------------------------------------------ drive
    def tick(self) -> None:
        """Admit due arrivals, then advance the active set by one batch tick."""
        self._admit_due()
        super().tick()

    def run_until_complete(self) -> List[Optional[SearchResult]]:
        """Tick until the admission queue and the active set are both empty.

        Future-tick arrivals keep the loop alive: empty ticks advance the
        tick counter until they fall due.  Returns per-spec results in spec
        order (None only for specs whose start was quarantined).
        """
        try:
            while self._active or self._admission_queue:
                self.tick()
        finally:
            self.close()
        return self.results()

    def run(self) -> List[SearchResult]:
        """Alias of :meth:`run_until_complete` (the elastic runner never
        restarts its specs — admission state is carried, not reset)."""
        return self.run_until_complete()

    def _begin(self) -> None:  # pragma: no cover - guard against misuse
        raise RuntimeError(
            "ElasticCampaignRunner does not restart from its spec list; "
            "admit campaigns and call tick()/run_until_complete()"
        )
