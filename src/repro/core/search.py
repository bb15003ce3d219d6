"""Asynchronous search loops: CBO (no transfer) and VAE-ABO (Algorithm 1).

:class:`CBOSearch` implements the distributed asynchronous Bayesian
optimization of §III-A on top of the virtual-clock evaluator:

1. sample one configuration per worker from the prior and submit them all
   (initialisation phase, Algorithm 1 l. 13-16);
2. whenever evaluations complete, record them, update the surrogate
   (``tell``), generate as many new configurations as there are idle workers
   (``ask`` with the constant-liar multi-point strategy) and submit them
   (optimization loop, l. 17-23);
3. stop when the search-time budget is exhausted (or an evaluation cap is
   reached) and return the best configuration plus the full history (l. 24-25).

The manager is charged a model-update and candidate-generation overhead in
search time (see :mod:`repro.core.overhead`), which is what differentiates RF
from GP in worker utilisation.

:class:`VAEABOSearch` is the paper's contribution: identical to
:class:`CBOSearch` except that the sampling prior is the informative prior
built from a previous run's history by :mod:`repro.core.transfer`
(top-q% selection → tabular VAE → joint sampling distribution, with
uninformative priors for parameters that are new in the current space).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.evaluator import AsyncVirtualEvaluator, DEFAULT_FAILURE_DURATION
from repro.core.history import SearchHistory
from repro.core.journal import CampaignJournal, JournalError, JournalReader
from repro.core.objective import Objective
from repro.core.optimizer import BayesianOptimizer
from repro.core.overhead import make_overhead_model
from repro.core.priors import JointPrior
from repro.core.space import Configuration, SearchSpace
from repro.core.surrogate.base import Surrogate
from repro.core.transfer import (
    PreparedTransferFit,
    TransferLearningPrior,
    prepare_transfer_prior,
)
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE

__all__ = [
    "SearchResult",
    "CampaignExecution",
    "CBOSearch",
    "PreparedPriorRefresh",
    "VAEABOSearch",
]


@dataclass
class SearchResult:
    """Outcome of one autotuning run.

    Attributes
    ----------
    history:
        Full per-evaluation record.
    best_configuration:
        Best configuration found (None if every evaluation failed).
    best_runtime:
        Run time of the best configuration (NaN if none succeeded).
    best_objective:
        Objective of the best configuration (NaN if none succeeded).
    num_evaluations:
        Number of completed evaluations within the budget.
    worker_utilization:
        Fraction of worker time spent evaluating within the budget.
    search_time:
        The search-time budget that was used.
    num_workers:
        Number of workers of the run.
    busy_intervals:
        ``(submitted, completed)`` intervals of every evaluation started
        (including ones still running at the deadline) — used for the
        utilisation-over-time plot of Fig. 4 (f).
    """

    history: SearchHistory
    best_configuration: Optional[Configuration]
    best_runtime: float
    best_objective: float
    num_evaluations: int
    worker_utilization: float
    search_time: float
    num_workers: int
    busy_intervals: List[Tuple[float, float]] = field(default_factory=list)

    def best_runtime_at(self, time: float) -> float:
        """Best run time known after ``time`` seconds of search."""
        return self.history.best_runtime_at(time)


class CBOSearch:
    """Asynchronous (centralised) Bayesian optimization without transfer.

    Parameters
    ----------
    space:
        Search space of the tuning problem.
    run_function:
        Callable mapping a configuration to the measured run time in seconds
        (NaN for failures).
    num_workers:
        Number of parallel evaluation workers (128 in the paper).
    surrogate:
        Surrogate model or name: "RF" (default), "GP" or "RAND".
    prior:
        Sampling prior for candidate generation; defaults to the uniform /
        log-uniform per-parameter prior.
    kappa:
        UCB exploration weight (1.96 in the paper).
    num_candidates:
        Candidates sampled per ``ask``.
    n_initial_points:
        Evaluations before the surrogate is used.
    liar_strategy:
        Constant-liar flavour.
    overhead:
        Manager-overhead model ("analytic", "measured" or an instance).
    failure_duration:
        Worker time consumed by failed evaluations (600 s in the paper).
    objective:
        Objective transform (defaults to ``-log(runtime)``).
    evaluator_factory:
        Optional callable ``(run_function, num_workers, failure_duration) →
        evaluator`` replacing the private
        :class:`~repro.core.evaluator.AsyncVirtualEvaluator` — e.g. a
        :class:`~repro.service.ServiceEvaluator` bound to a shared worker
        pool.  The evaluator must implement the same
        submit/collect/wait_any protocol.
    prior_refresh_interval:
        The continuous-retuning scenario: every this-many completed
        evaluations, refit a tabular VAE on the campaign's *own* best
        configurations and install it as the sampling prior (``None``, the
        default, disables refreshing).  Like the initial transfer-learning
        fit, the refit runs manager-side and is charged no virtual search
        time.  Multi-campaign drivers fuse the due refits of one tick into a
        single :class:`~repro.core.vae.tvae.VAEFleet` pass — bit-identical
        to refitting per campaign.
    prior_refresh_top_k:
        Number of best configurations the refreshed prior is trained on.  A
        *fixed* count (rather than a quantile) keeps the VAE training
        matrices of a whole campaign fleet the same shape, which is what
        makes the fused fleet refit possible.
    prior_refresh_epochs:
        VAE training epochs per refresh.
    prior_refresh_uniform_fraction:
        Uniform-exploration fraction of the refreshed prior.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        num_workers: int = 128,
        surrogate: Union[str, Surrogate] = "RF",
        prior: Optional[JointPrior] = None,
        kappa: float = 1.96,
        num_candidates: int = 512,
        n_initial_points: int = 10,
        liar_strategy: str = "kernel_penalty",
        overhead: Union[str, object] = "analytic",
        failure_duration: float = DEFAULT_FAILURE_DURATION,
        objective: Optional[Objective] = None,
        random_sampling: bool = False,
        refit_interval: int = 1,
        evaluator_factory: Optional[Callable] = None,
        prior_refresh_interval: Optional[int] = None,
        prior_refresh_top_k: int = 16,
        prior_refresh_epochs: int = 60,
        prior_refresh_uniform_fraction: float = 0.05,
        seed: int = 0,
    ):
        self.space = space
        self.run_function = run_function
        self.num_workers = int(num_workers)
        self.objective = objective or Objective()
        self.optimizer = BayesianOptimizer(
            space,
            surrogate=surrogate,
            prior=prior,
            kappa=kappa,
            num_candidates=num_candidates,
            n_initial_points=n_initial_points,
            liar_strategy=liar_strategy,
            random_sampling=random_sampling,
            refit_interval=refit_interval,
            objective=self.objective,
            seed=seed,
        )
        self.overhead = make_overhead_model(overhead)
        self.failure_duration = float(failure_duration)
        self.evaluator_factory = evaluator_factory
        if prior_refresh_interval is not None and prior_refresh_interval < 1:
            raise ValueError("prior_refresh_interval must be >= 1")
        if prior_refresh_top_k < 1:
            raise ValueError("prior_refresh_top_k must be >= 1")
        if prior_refresh_epochs < 1:
            raise ValueError("prior_refresh_epochs must be >= 1")
        self.prior_refresh_interval = prior_refresh_interval
        self.prior_refresh_top_k = int(prior_refresh_top_k)
        self.prior_refresh_epochs = int(prior_refresh_epochs)
        self.prior_refresh_uniform_fraction = float(prior_refresh_uniform_fraction)
        self.seed = int(seed)

    #: A transfer-VAE fit deferred at construction time (see
    #: :class:`VAEABOSearch` ``defer_transfer_fit``); ``None`` for plain
    #: searches and once the fit has run.  Fleet drivers fuse the pending
    #: fits of several searches through one VAEFleet pass before starting
    #: them; :meth:`complete_pending_transfer_fit` is the solo backstop.
    pending_transfer_fit: Optional["PreparedTransferFit"] = None

    def complete_pending_transfer_fit(self) -> None:
        """Train a still-pending transfer VAE solo (bit-identical backstop).

        Called when an execution starts, *before* the prior's first sample —
        an untrained VAE would otherwise silently fall back to top-batch
        resampling.  No-op when nothing is pending or a fleet pass already
        trained the VAE.
        """
        pending = self.pending_transfer_fit
        if pending is not None:
            pending.train()
            self.pending_transfer_fit = None

    # --------------------------------------------------------------------- run
    def run(
        self,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        journal_dir: Optional[object] = None,
    ) -> SearchResult:
        """Execute the search for ``max_time`` seconds of search time.

        Parameters
        ----------
        max_time:
            Search-time budget (the paper uses 1 hour).
        max_evaluations:
            Optional cap on the number of completed evaluations.
        initial_configurations:
            Optional explicit initial batch (used by the framework comparison
            to give every method the same 10 initial samples).
        journal_dir:
            Optional directory for a crash-safe campaign journal (see
            :mod:`repro.core.journal`); a crashed run restarts from its last
            checkpoint via :meth:`resume` instead of from scratch.

        The search runs as a :class:`~repro.service.runner.CampaignRunner`
        of one: the runner's batch tick is the one loop that steps an
        in-process campaign.
        """
        from repro.service.runner import CampaignRunner, CampaignSpec

        spec = CampaignSpec(
            search=self,
            max_time=max_time,
            max_evaluations=max_evaluations,
            initial_configurations=initial_configurations,
            journal_dir=journal_dir,
        )
        return CampaignRunner([spec]).run()[0]

    def start(
        self,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        defer_initial_submit: bool = False,
        journal_dir: Optional[object] = None,
        checkpoint_interval: int = 1,
    ) -> "CampaignExecution":
        """Begin a search and return its stepping :class:`CampaignExecution`.

        The campaign runner's tick steps the execution (``run`` is a runner
        of one); ask/tell drivers step it through
        :meth:`CampaignExecution.next_suggestion`.  With
        ``defer_initial_submit`` the initialisation batch is proposed but
        left pending (see :meth:`CampaignExecution.submit_prepared`), so a
        batch driver can evaluate all campaigns' initial batches in one pass.
        ``journal_dir`` enables the crash-safe campaign journal.
        """
        return CampaignExecution(
            self,
            max_time=max_time,
            max_evaluations=max_evaluations,
            initial_configurations=initial_configurations,
            defer_initial_submit=defer_initial_submit,
            journal_dir=journal_dir,
            checkpoint_interval=checkpoint_interval,
        )

    def resume(self, journal_dir) -> "CampaignExecution":
        """Resume a journaled campaign from its last checkpoint.

        The search must be freshly constructed with the same parameters as
        the crashed run (same space, seed, surrogate, workers) — the journal
        meta record is validated against it.  See
        :meth:`CampaignExecution.resume`.
        """
        return CampaignExecution.resume(self, journal_dir)

    def start_or_resume(
        self,
        journal_dir,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        defer_initial_submit: bool = False,
        checkpoint_interval: int = 1,
    ) -> "CampaignExecution":
        """Create-or-attach on a journal directory (the registry's semantics).

        When ``journal_dir`` already holds a campaign journal the campaign
        is *resumed* from its last checkpoint (:meth:`resume` — bit-identical
        continuation, budgets come from the journal meta and the remaining
        arguments are ignored); otherwise a fresh journaled campaign is
        started there.  Either way the caller gets a live
        :class:`CampaignExecution` for the study name backing that
        directory.
        """
        if CampaignJournal.exists(journal_dir):
            return CampaignExecution.resume(
                self,
                journal_dir,
                checkpoint_interval=checkpoint_interval,
                defer_initial_submit=defer_initial_submit,
            )
        return self.start(
            max_time=max_time,
            max_evaluations=max_evaluations,
            initial_configurations=initial_configurations,
            defer_initial_submit=defer_initial_submit,
            journal_dir=journal_dir,
            checkpoint_interval=checkpoint_interval,
        )


@dataclass
class PreparedPriorRefresh:
    """One due prior refresh, between selection/encoding and VAE training.

    Attributes
    ----------
    vae:
        A fresh, unfitted VAE (deterministic per-refresh seed) awaiting
        training — solo or inside a fused fleet pass.
    design:
        The encoded top-``k`` training matrix (``k × transform.dimension``).
    epochs, batch_size:
        The training budget the fit must use.
    top_batch:
        The selected configurations as a columnar batch (becomes the new
        prior's resampling fallback and inspection record).
    """

    vae: TabularVAE
    design: "np.ndarray"
    epochs: int
    batch_size: int
    top_batch: object

    def train(self) -> None:
        """Train the VAE solo on its design (the fleet of one)."""
        self.vae.fit(self.design, epochs=self.epochs, batch_size=self.batch_size)


class CampaignExecution:
    """One in-flight campaign, stepped phase by phase (Algorithm 1's loop).

    One manager interaction is collect → tell → prior refresh → ask →
    submit → checkpoint, split at every seam where a driver fuses work
    across campaigns:

    * :meth:`collect` — advance the evaluator to the next completion event
      and record the finished evaluations;
    * :meth:`ingest_collected` / :meth:`fit_collected` /
      :meth:`charge_tell` — feed them to the optimizer, fit the surrogate
      when due (or leave the fit to a fleet pass) and charge the
      model-update overhead;
    * :meth:`prepare_prior_refresh` / :meth:`finish_prior_refresh` — the
      continuous-retuning scenario (``prior_refresh_interval``) around the
      VAE training, solo or fused;
    * :meth:`begin_ask_request` / :meth:`complete_ask` (or
      :meth:`accept_prepared_ask`) / :meth:`finish_ask` — generate, score
      and select proposals for the idle workers, then
      :meth:`submit_prepared`;
    * :meth:`maybe_checkpoint` — journal the tick.

    Two drivers step it: the campaign runner's batch tick
    (:class:`~repro.service.runner.CampaignRunner`, and ``CBOSearch.run``
    is a runner of one) and the client-driven
    :meth:`next_suggestion` / :meth:`report_runtimes` of ask/tell studies.
    ``tests/reference/search.py`` keeps the plain sequential loop over
    these phases as the oracle both are compared against.
    """

    def __init__(
        self,
        search: "CBOSearch",
        max_time: float,
        max_evaluations: Optional[int] = None,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        defer_initial_submit: bool = False,
        journal_dir: Optional[object] = None,
        checkpoint_interval: int = 1,
        _resume: bool = False,
    ):
        if max_time <= 0:
            raise ValueError("max_time must be positive")
        self.search = search
        # A transfer-VAE fit deferred at construction time must complete
        # before the prior's first sample (initial ask below, or the first
        # prepared ask of a resumed run).
        search.complete_pending_transfer_fit()
        self.optimizer = search.optimizer
        self.max_time = float(max_time)
        self.max_evaluations = max_evaluations
        if search.evaluator_factory is not None:
            self.evaluator = search.evaluator_factory(
                search.run_function, search.num_workers, search.failure_duration
            )
        else:
            self.evaluator = AsyncVirtualEvaluator(
                search.run_function,
                num_workers=search.num_workers,
                failure_duration=search.failure_duration,
            )
        self.history = SearchHistory(search.space, objective=search.objective)
        self.intervals: List[Tuple[float, float]] = []
        self.finished = False
        self._tell_configs: List[Configuration] = []
        self._tell_objectives: List[float] = []
        self._num_completed = 0
        self._pending_batch: Optional[List[Configuration]] = None
        self._prepared_ask = None
        self._ask_elapsed = 0.0
        self._evals_since_prior_refresh = 0
        self._prior_transform: Optional[TabularTransform] = None
        #: Number of prior refreshes performed so far (continuous retuning).
        self.num_prior_refreshes = 0
        #: Crash-safe campaign journal (None when journaling is disabled).
        self._journal: Optional[CampaignJournal] = None
        self._ticks_since_checkpoint = 0
        if journal_dir is not None:
            self._journal = CampaignJournal.create(
                journal_dir,
                search.space,
                checkpoint_interval=checkpoint_interval,
            )
            self._journal.write_meta(
                {
                    "seed": search.seed,
                    "num_workers": search.num_workers,
                    "surrogate": type(self.optimizer.surrogate).__name__,
                    "max_time": self.max_time,
                    "max_evaluations": self.max_evaluations,
                }
            )
        if _resume:
            # resume() rebuilds the history, optimizer, prior and evaluator
            # state from the journal — the initial ask/submit already
            # happened in the crashed run and must not repeat.
            return

        # ----------------------------------------------------- initialisation
        if initial_configurations:
            first = [dict(c) for c in initial_configurations][: search.num_workers]
            if len(first) < search.num_workers:
                first.extend(self.optimizer.ask(search.num_workers - len(first)))
        else:
            first = self.optimizer.ask(search.num_workers)
        if defer_initial_submit:
            self._pending_batch = first
        else:
            self._submit(first)

    # ----------------------------------------------------------------- phases
    def collect(self) -> Optional[List[object]]:
        """Advance to the next completion event and record its evaluations.

        Returns the completed evaluations, or ``None`` when the campaign is
        over (budget exhausted, evaluation cap reached, or nothing pending).
        """
        if self.finished:
            return None
        if self._pending_batch is not None:
            # A deferred initialisation batch that no driver submitted —
            # submit it now rather than silently finishing with an empty run.
            self.submit_prepared()
        evaluator = self.evaluator
        if not evaluator.now < self.max_time:
            self.finished = True
            return None
        if self.max_evaluations is not None and len(self.history) >= self.max_evaluations:
            self.finished = True
            return None
        _, completed = evaluator.wait_any(self.max_time)
        if not completed:
            self.finished = True
            return None
        recorded = [
            self.history.record(
                ev.configuration,
                runtime=ev.runtime,
                submitted=ev.submitted,
                completed=ev.completed,
                worker=ev.worker,
            )
            for ev in completed
        ]
        # The recorded evaluations already hold the objective transform of
        # each runtime — feed those to the optimizer instead of re-deriving
        # them.
        self._tell_configs = [ev.configuration for ev in completed]
        self._tell_objectives = [rec.objective for rec in recorded]
        self._num_completed = len(completed)
        self._evals_since_prior_refresh += len(completed)
        return completed

    def tell_collected(self) -> None:
        """Feed the collected evaluations to the optimizer and charge overhead.

        Equivalent to ``optimizer.tell`` (ingest, then fit when due) with one
        addition: a due fit is noted in the campaign journal *before* it runs,
        capturing the surrogate RNG state a resume needs to replay it.
        """
        if self.ingest_collected():
            self.fit_collected()
        self.charge_tell()

    def ingest_collected(self) -> bool:
        """Record the collected evaluations without fitting.

        Returns whether a surrogate fit is due; the driver performs it solo
        (:meth:`fit_collected`) or in a fleet pass followed by
        :meth:`~repro.core.optimizer.BayesianOptimizer.mark_fitted`.  The
        ingest time refreshes the optimizer's measured tell duration.  A due
        fit is noted in the campaign journal here — fleet fits consume the
        surrogate RNG bitwise-identically to solo fits, so the pre-fit
        capture covers both.
        """
        start = time.perf_counter()
        due = self.optimizer.ingest(self._tell_configs, self._tell_objectives)
        self.optimizer.last_tell_duration = time.perf_counter() - start
        if due:
            self._note_fit_due()
        return due

    def fit_collected(self) -> None:
        """Fit the due surrogate solo, adding its wall time to the tell.

        Under ``overhead="measured"`` a solo fit is charged as model-update
        time; a fused fleet fit's time is shared and charged to nobody.
        """
        start = time.perf_counter()
        self.optimizer.fit_now()
        self.optimizer.last_tell_duration += time.perf_counter() - start

    def _note_fit_due(self) -> None:
        """Journal the surrogate fit about to run over the current history."""
        if self._journal is None:
            return
        rng = getattr(self.optimizer.surrogate, "_rng", None)
        self._journal.note_fit(
            self.optimizer.num_observations,
            None if rng is None else rng.bit_generator.state,
        )

    def charge_tell(self) -> None:
        """Charge the model-update overhead for the last collected batch."""
        evaluator = self.evaluator
        evaluator.advance_to(
            evaluator.now
            + self.search.overhead.tell_cost(self.optimizer, self._num_completed)
        )

    # ---------------------------------------------------------- prior refresh
    def prepare_prior_refresh(self) -> Optional["PreparedPriorRefresh"]:
        """The selection/encode half of a due prior refresh (fleet-fit seam).

        Returns ``None`` when refreshing is disabled, not yet due, or the
        history does not hold ``prior_refresh_top_k`` successes.  Otherwise
        the campaign's best configurations are selected and encoded as
        columns (no row dicts) and a fresh, unfitted
        :class:`~repro.core.vae.tvae.TabularVAE` is returned for the caller
        to train — solo (:meth:`PreparedPriorRefresh.train`) or fused across
        campaigns in one :class:`~repro.core.vae.tvae.VAEFleet` pass —
        before :meth:`finish_prior_refresh` installs the new prior.  Like
        the initial transfer-learning fit, the refit is manager-side
        background work and is charged no virtual search time.
        """
        search = self.search
        interval = search.prior_refresh_interval
        if interval is None or self._evals_since_prior_refresh < interval:
            return None
        return self._build_prior_refresh(self.history)

    def _build_prior_refresh(
        self, history: SearchHistory
    ) -> Optional["PreparedPriorRefresh"]:
        """Select and encode a refresh's training set from ``history``.

        Factored out of :meth:`prepare_prior_refresh` so a journal resume can
        rebuild refresh ``k`` against the exact history prefix it originally
        saw (the due-interval check does not apply to a replay).
        """
        search = self.search
        top_batch = history.top_k_columns(search.prior_refresh_top_k)
        if len(top_batch) < search.prior_refresh_top_k:
            return None
        if self._prior_transform is None:
            self._prior_transform = TabularTransform(search.space)
        transform = self._prior_transform
        design = transform.encode_columns(top_batch)
        # A fresh VAE per refresh with a deterministic per-refresh seed: the
        # same campaign refitting for the same time produces the same model
        # whether it runs solo or inside a batched fleet.
        vae = TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=min(8, max(2, transform.dimension // 2)),
            hidden=(64, 64),
            seed=search.seed + 7919 * (self.num_prior_refreshes + 1),
        )
        return PreparedPriorRefresh(
            vae=vae,
            design=design,
            epochs=search.prior_refresh_epochs,
            batch_size=min(64, max(4, len(top_batch))),
            top_batch=top_batch,
        )

    def finish_prior_refresh(self, prepared: "PreparedPriorRefresh") -> None:
        """Install the refreshed (trained) VAE as the campaign's prior."""
        search = self.search
        self.optimizer.prior = TransferLearningPrior(
            space=search.space,
            vae=prepared.vae,
            transform=self._prior_transform,
            new_parameters=[],
            uniform_fraction=search.prior_refresh_uniform_fraction,
            top_configurations=prepared.top_batch.to_configurations(),
            top_batch=prepared.top_batch,
        )
        self.num_prior_refreshes += 1
        self._evals_since_prior_refresh = 0
        if self._journal is not None:
            self._journal.note_prior_refresh(len(self.history))

    def begin_ask_request(self) -> Optional[int]:
        """The eligibility half of an ask: how many proposals?

        Clears any pending batch/pool, applies the budget check, and returns
        the number of idle workers to propose for — ``None`` when the budget
        ran out or no workers are idle.  Fleet drivers group the non-``None``
        requests by search space and run one
        :func:`~repro.core.optimizer.prepare_ask_fleet` pass per group.
        """
        self._pending_batch = None
        self._prepared_ask = None
        evaluator = self.evaluator
        if evaluator.now >= self.max_time:
            self.finished = True
            return None
        num_idle = evaluator.num_idle
        if num_idle > 0:
            return num_idle
        return None

    def complete_ask(self, n: int) -> "object":
        """The solo generation half of an ask: prepare ``n`` candidates."""
        start = time.perf_counter()
        self._prepared_ask = self.optimizer.prepare_ask(n)
        self._ask_elapsed = time.perf_counter() - start
        return self._prepared_ask

    def accept_prepared_ask(self, prepared: "object") -> "object":
        """Install a pool generated externally by a fleet-ask pass.

        The fused pass's wall-clock is shared across campaigns and not
        attributed to any one member, so ``_ask_elapsed`` is zeroed — the
        same ``overhead="measured"`` carve-out as fused fits and fused
        scoring.  Virtual search time is unaffected.
        """
        self._prepared_ask = prepared
        self._ask_elapsed = 0.0
        return prepared

    def finish_ask(self, mean=None, std=None) -> Optional[List[Configuration]]:
        """Select the proposal batch (scoring it here unless scores are given)
        and charge the candidate-generation overhead."""
        prepared = self._prepared_ask
        if prepared is None:
            return None
        self._prepared_ask = None
        start = time.perf_counter()
        if prepared.proposals is not None:
            batch = prepared.proposals
        else:
            # finish_ask scores the pool itself when no fused scores were
            # provided and the pool wants them.
            batch = self.optimizer.finish_ask(prepared, mean, std)
        # Keep the measured-overhead signal alive under phase stepping: the
        # campaign's own prepare + score/select time stands in for what a
        # monolithic ask() would have measured (fused scoring time is shared
        # across campaigns and not attributed).
        self.optimizer.last_ask_duration = self._ask_elapsed + (
            time.perf_counter() - start
        )
        evaluator = self.evaluator
        evaluator.advance_to(
            evaluator.now + self.search.overhead.ask_cost(self.optimizer, len(batch))
        )
        if evaluator.now >= self.max_time:
            self.finished = True
            return None
        self._pending_batch = batch
        return batch

    def submit_prepared(self, runtimes: Optional[Sequence[float]] = None) -> None:
        """Submit the batch :meth:`finish_ask` left pending."""
        if self._pending_batch is None:
            return
        self._submit(self._pending_batch, runtimes)
        self._pending_batch = None

    # --------------------------------------------------------------- ask/tell
    def next_suggestion(self) -> Optional[List[Configuration]]:
        """Advance to the next proposal batch without evaluating it (ask/tell).

        The client-driven form of one manager interaction: the returned
        configurations are *suggested* to an external client, which runs
        them itself and reports the measured runtimes back through
        :meth:`report_runtimes`.  Suggest is idempotent until reported — a
        batch already outstanding is returned unchanged — and ``None`` means
        the campaign is finished.  The campaign must have been started with
        ``defer_initial_submit=True`` (the registry does), otherwise the
        initial batch is evaluated in-process before the first suggestion.

        Crash safety: nothing is checkpointed *during* a suggestion — the
        journal advances only in :meth:`report_runtimes` — so a service that
        dies between suggest and report resumes at the previous report and
        deterministically re-derives the identical batch on its next
        suggest.
        """
        while self._pending_batch is None and not self.finished:
            if self.collect() is None:
                break
            self.tell_collected()
            refresh = self.prepare_prior_refresh()
            if refresh is not None:
                refresh.train()
                self.finish_prior_refresh(refresh)
            n = self.begin_ask_request()
            if n is not None:
                self.complete_ask(n)
                self.finish_ask()
        if self._pending_batch is None:
            self.maybe_checkpoint(force=True)
            return None
        return self._pending_batch

    def report_runtimes(self, runtimes: Sequence[float]) -> None:
        """Record the client-measured runtimes of the last suggested batch."""
        if self._pending_batch is None:
            raise ValueError("no suggested batch is outstanding")
        if len(runtimes) != len(self._pending_batch):
            raise ValueError(
                f"got {len(runtimes)} runtimes for a suggested batch of "
                f"{len(self._pending_batch)} configurations"
            )
        self.submit_prepared([float(value) for value in runtimes])
        self.maybe_checkpoint()

    # ---------------------------------------------------------------- journal
    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Journal new rows/intervals and commit a checkpoint when one is due.

        Called at the end of every runner tick and ask/tell report; a no-op
        without a journal.  ``force`` commits regardless of the journal's
        ``checkpoint_interval`` (used for the final tick, so ``finished`` is
        durably recorded).  Returns whether a checkpoint was committed.
        """
        journal = self._journal
        if journal is None:
            return False
        self._ticks_since_checkpoint += 1
        if (
            not force
            and not self.finished
            and self._ticks_since_checkpoint < journal.checkpoint_interval
        ):
            return False
        journal.append_rows(self.history)
        journal.append_intervals(self.intervals)
        journal.checkpoint(
            {
                "evals_since_prior_refresh": self._evals_since_prior_refresh,
                "num_prior_refreshes": self.num_prior_refreshes,
                "num_completed": self._num_completed,
                "finished": self.finished,
                "optimizer_rng": self.optimizer.rng.bit_generator.state,
                "evaluator": self.evaluator.state_dict(),
            }
        )
        self._ticks_since_checkpoint = 0
        return True

    def close_journal(self) -> None:
        """Close the campaign's journal and release its writer lease.

        Commits nothing: whoever resumes the journal next (this process or
        another) starts from its last checkpoint.  Idempotent; the campaign
        is unjournaled afterwards.
        """
        journal, self._journal = self._journal, None
        if journal is not None:
            journal.close()

    @classmethod
    def resume(
        cls,
        search: "CBOSearch",
        journal_dir,
        checkpoint_interval: int = 1,
        defer_initial_submit: bool = False,
    ) -> "CampaignExecution":
        """Reconstruct a crashed journaled campaign from its sidecar directory.

        ``defer_initial_submit`` only matters on the restart-from-scratch
        path (a journal with no checkpoint yet): ask/tell drivers pass True
        so the rebuilt initial batch is suggested to the client instead of
        evaluated in-process.

        ``search`` must be a *freshly constructed* search with the same
        parameters as the crashed run — the journal's meta record is
        validated against its space, seed, worker count and surrogate kind.
        The history is read back from the journal's row file (no
        evaluation is re-run), the optimizer state is replayed along the
        recorded fit and prior-refresh boundaries, and the evaluator resumes
        with its in-flight evaluations intact; continuing the returned
        execution is bit-identical to a run that never crashed.  A journal
        that crashed before its first checkpoint restarts from scratch
        (nothing durable was committed — the restart is deterministic).
        """
        meta = CampaignJournal.read_meta(journal_dir)
        CampaignJournal.validate_meta(
            meta,
            search.space,
            seed=search.seed,
            num_workers=search.num_workers,
            surrogate=type(search.optimizer.surrogate).__name__,
        )
        if search.optimizer.num_observations or search.optimizer.surrogate.fitted:
            raise JournalError(
                "resume requires a freshly constructed search (the optimizer "
                "has already observed evaluations)"
            )
        max_time = float(meta["max_time"])
        max_evaluations = meta.get("max_evaluations")
        checkpoint = CampaignJournal.read_checkpoint(journal_dir)
        if checkpoint is None:
            return cls(
                search,
                max_time=max_time,
                max_evaluations=max_evaluations,
                defer_initial_submit=defer_initial_submit,
                journal_dir=journal_dir,
                checkpoint_interval=checkpoint_interval,
            )
        execution = cls(
            search,
            max_time=max_time,
            max_evaluations=max_evaluations,
            _resume=True,
        )
        # Attach first: the lease keeps any other writer out, and the rows
        # are read at exactly the commit the writer rolled back to.
        journal = CampaignJournal.attach(
            journal_dir,
            search.space,
            checkpoint_interval=checkpoint_interval,
        )
        try:
            reader = JournalReader(
                journal_dir,
                search.space,
                objective=search.objective,
                commit=journal.commit,
            )
            try:
                execution.history = reader.history().copy()
                execution.intervals = reader.intervals()
            finally:
                reader.close()
            execution._replay(journal.commit.record)
        except BaseException:
            journal.close()
            raise
        execution._journal = journal
        return execution

    def _replay(self, checkpoint: dict) -> None:
        """Rebuild optimizer, prior and evaluator state from a checkpoint.

        The optimizer re-ingests the journaled history in the chunks the
        recorded fit boundaries dictate.  Partial-fit surrogates (the GP)
        replay *every* fit event so their incremental factors and refresh
        counters take the same growth path as the live run; from-scratch
        surrogates (RF, constant) replay only the final fit — after
        restoring the surrogate RNG state captured just before that fit —
        because earlier fits left no trace beyond the RNG cursor.  Prior
        refreshes are re-trained against the history prefixes they
        originally saw (fresh deterministic VAE seeds make the replay exact),
        and the optimizer RNG plus all campaign counters are restored last.
        """
        optimizer = self.optimizer
        fit_rows = [int(rows) for rows in checkpoint["fit_rows"]]
        total_rows = int(checkpoint["num_rows"])
        position = 0
        for index, boundary in enumerate(fit_rows):
            self._replay_ingest(position, boundary)
            position = boundary
            if optimizer.surrogate.supports_partial_fit:
                optimizer.fit_now()
            elif index == len(fit_rows) - 1:
                rng = getattr(optimizer.surrogate, "_rng", None)
                state = checkpoint.get("pre_fit_rng")
                if rng is not None and state is not None:
                    rng.bit_generator.state = state
                optimizer.fit_now()
            else:
                # From-scratch surrogates: only the final fit determines the
                # model — earlier events advance the bookkeeping only.
                optimizer.mark_fitted()
        self._replay_ingest(position, total_rows)
        for rows in checkpoint["refresh_rows"]:
            prefix = self.history.truncated(int(rows))
            prepared = self._build_prior_refresh(prefix)
            if prepared is None:
                raise JournalError(
                    "journaled prior refresh cannot be rebuilt from the "
                    "restored history"
                )
            prepared.train()
            self.finish_prior_refresh(prepared)
        optimizer.rng.bit_generator.state = checkpoint["optimizer_rng"]
        self._evals_since_prior_refresh = int(checkpoint["evals_since_prior_refresh"])
        self.num_prior_refreshes = int(checkpoint["num_prior_refreshes"])
        self._num_completed = int(checkpoint["num_completed"])
        self.finished = bool(checkpoint["finished"])
        self.evaluator.load_state_dict(checkpoint["evaluator"])

    def _replay_ingest(self, start: int, stop: int) -> None:
        """Re-ingest journaled history rows ``[start, stop)`` into the optimizer."""
        if stop <= start:
            return
        evaluations = self.history[start:stop]
        self.optimizer.ingest(
            [evaluation.configuration for evaluation in evaluations],
            [evaluation.objective for evaluation in evaluations],
        )

    # ------------------------------------------------------------------ misc
    def _submit(
        self,
        batch: Sequence[Configuration],
        runtimes: Optional[Sequence[float]] = None,
    ) -> None:
        evaluator = self.evaluator
        evaluator.submit(batch, runtimes)
        # Started evaluations come from the evaluator's own log — a shared
        # service pool may start a queued request long after the submit call,
        # so a before/after diff of pending evaluations would miss it.
        self.intervals.extend(evaluator.drain_started_intervals())

    def result(self) -> SearchResult:
        """The :class:`SearchResult` of the (finished or in-flight) campaign."""
        # Pick up evaluations a shared pool started from its queue after this
        # campaign's last submit call.
        self.intervals.extend(self.evaluator.drain_started_intervals())
        best = self.history.best()
        return SearchResult(
            history=self.history,
            best_configuration=best.configuration if best else None,
            best_runtime=best.runtime if best else float("nan"),
            best_objective=best.objective if best else float("nan"),
            num_evaluations=len(self.history),
            worker_utilization=self.evaluator.utilization(self.max_time),
            search_time=self.max_time,
            num_workers=self.search.num_workers,
            busy_intervals=self.intervals,
        )


class VAEABOSearch(CBOSearch):
    """Variational-autoencoder-guided asynchronous BO (the paper's Algorithm 1).

    Identical to :class:`CBOSearch` except that, when a source history is
    provided, the sampling prior is the informative prior learned from the
    top-q% configurations of that history.  Parameters of the current space
    that did not exist in the source space fall back to their uninformative
    priors (Algorithm 1, l. 3-10); the source space may therefore differ from
    the current one, which is the transfer-learning capability unique to this
    method (§V-B).

    Parameters
    ----------
    source_history:
        History of the previous autotuning run (``H_p``); ``None`` disables
        transfer learning (the search is then a plain :class:`CBOSearch`).
    quantile:
        Fraction ``q`` of top configurations used to train the VAE.
    vae_epochs, vae_latent_dim:
        Training budget and latent dimensionality of the tabular VAE.
    uniform_fraction:
        Fraction of candidate samples still drawn from the uninformative prior
        so the biased search keeps non-zero support over the whole space.
    defer_transfer_fit:
        If True, the transfer VAE is constructed but not trained here; the
        pending fit is exposed as :attr:`pending_transfer_fit` so a fleet
        driver can fuse several searches' initial VAE fits into one
        :class:`~repro.core.vae.tvae.VAEFleet` pass (bit-identical per
        member).  Any fit still pending when the search starts is completed
        solo before the first sample, so a deferred-but-never-fused search
        is bitwise identical to an eager one.
    """

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        source_history: Optional[SearchHistory] = None,
        quantile: float = 0.10,
        vae_epochs: int = 300,
        vae_latent_dim: int = 8,
        uniform_fraction: float = 0.05,
        defer_transfer_fit: bool = False,
        **kwargs,
    ):
        prior = kwargs.pop("prior", None)
        seed = kwargs.get("seed", 0)
        self.transfer_prior: Optional[TransferLearningPrior] = None
        pending: Optional[PreparedTransferFit] = None
        if source_history is not None and prior is None:
            self.transfer_prior, pending = prepare_transfer_prior(
                source_history,
                space,
                quantile=quantile,
                epochs=vae_epochs,
                latent_dim=vae_latent_dim,
                uniform_fraction=uniform_fraction,
                seed=seed,
            )
            prior = self.transfer_prior
            if pending is not None and not defer_transfer_fit:
                pending.train()
                pending = None
        super().__init__(space, run_function, prior=prior, **kwargs)
        self.pending_transfer_fit = pending
