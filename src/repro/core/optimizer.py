"""The ask/tell Bayesian optimizer (sampling-based, §III-A).

One optimizer instance drives one autotuning run.  Its lifecycle mirrors
Algorithm 1's optimization loop:

* :meth:`ask` — sample a large number of candidate configurations from the
  prior (uniform/log-uniform by default, the VAE-based informative prior when
  transfer learning is enabled), score them with the surrogate model through
  the UCB acquisition, and return a batch chosen by the constant-liar
  strategy.  Before enough data has been collected the optimizer simply
  returns prior samples (the initialisation phase).
* :meth:`tell` — record completed evaluations and refit the surrogate.

The hot path is columnar: candidates are sampled as a sheet of per-parameter
NumPy columns (:meth:`~repro.core.space.SearchSpace.sample_columns`), with
categorical and ordinal parameters as domain indices, encoded one column
family at a time, and only the configurations actually proposed are
materialised as dicts.  Tells arrive as sheets too: a campaign hands
:meth:`BayesianOptimizer.ingest` its history's new rows as stored
(:meth:`~repro.core.history.SearchHistory.sheet`), and a list of dicts is
converted once.  The evaluated history is kept only as an *incremental*
encoded cache — ``tell`` appends encoded rows and objective values into
growing buffers, so neither ``tell`` nor ``ask`` ever re-encodes the full
history (re-encoding all ``n`` observations on every interaction would make
the Python-side overhead grow linearly per iteration).  Duplicate detection
uses raw-value key rows (:meth:`~repro.core.space.SearchSpace.key_array`)
hashed once per configuration instead of per-candidate ``repr`` tuples.
Surrogates that advertise
:attr:`~repro.core.surrogate.base.Surrogate.supports_partial_fit` (the GP's
rank-1 Cholesky extension) are handed only the rows appended since the last
fit instead of the whole training matrix.

Each ask scores its candidate pool with one surrogate ``predict``.
:func:`prepare_ask_fleet` generates the candidate pools of a group of
optimizers in one stacked pass, and a solo :meth:`BayesianOptimizer.prepare_ask`
is a fleet of one; the multi-campaign runner (:mod:`repro.service.runner`)
hands fused scores to :meth:`finish_ask`.

The optimizer measures the wall-clock time spent fitting the surrogate and
generating candidates (:attr:`last_tell_duration`, :attr:`last_ask_duration`)
so the virtual-time search can charge a "measured" manager overhead; an
analytic overhead model is also available (:mod:`repro.core.overhead`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.acquisition import DEFAULT_KAPPA, UCBAcquisition
from repro.core.arrays import grow_buffer
from repro.core.liar import ConstantLiar
from repro.core.objective import Objective
from repro.core.priors import IndependentPrior, JointPrior, sample_columns_fleet
from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    Configuration,
    ConfigsLike,
    SearchSpace,
)
from repro.core.surrogate import (
    ConstantSurrogate,
    GaussianProcessSurrogate,
    RandomForestSurrogate,
    Surrogate,
)

__all__ = [
    "BayesianOptimizer",
    "PreparedAsk",
    "make_surrogate",
    "prepare_ask_fleet",
]


@dataclass
class PreparedAsk:
    """One :meth:`BayesianOptimizer.ask` in flight, between its phases.

    Either ``proposals`` is already decided (initialisation phase / random
    sampling), or the encoded candidate pool awaits surrogate scores.
    ``wants_scores`` is the single source of truth for whether precomputed
    pool scores would be used — the refit liar re-predicts per pick and
    discards them, so external scorers should skip pools that don't want
    scores.
    """

    n: int
    proposals: Optional[List[Configuration]] = None
    fresh: Optional[ColumnBatch] = None
    fresh_configs: Optional[List[Configuration]] = None
    encoded: Optional[np.ndarray] = None
    wants_scores: bool = False
    _unit: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def unit(self) -> Optional[np.ndarray]:
        """The fresh pool in the unit hypercube, encoded on first read.

        Only the kernel-penalty liar reads it, and only when it picks more
        than one candidate.
        """
        if self._unit is None and self.fresh is not None:
            self._unit = self.fresh.space.to_unit_array(self.fresh)
        return self._unit


def make_surrogate(kind: Union[str, Surrogate], seed: int = 0) -> Surrogate:
    """Build a surrogate from its name ("RF", "GP", "RAND") or pass through."""
    if isinstance(kind, Surrogate):
        return kind
    name = str(kind).upper()
    if name in ("RF", "RANDOM_FOREST", "RANDOMFOREST"):
        return RandomForestSurrogate(seed=seed)
    if name in ("GP", "GAUSSIAN_PROCESS", "GAUSSIANPROCESS"):
        return GaussianProcessSurrogate()
    if name in ("RAND", "RANDOM", "DUMMY", "NONE"):
        return ConstantSurrogate()
    raise ValueError(f"unknown surrogate kind {kind!r} (expected RF, GP or RAND)")


class BayesianOptimizer:
    """Sampling-based Bayesian optimizer over a mixed search space.

    Parameters
    ----------
    space:
        The search space.
    surrogate:
        Surrogate model or its name ("RF", "GP", "RAND").
    prior:
        Joint prior used to generate candidate configurations; defaults to the
        space's independent uniform/log-uniform prior.  Transfer learning
        replaces this with the VAE-based informative prior.
    kappa:
        UCB exploration weight (paper default 1.96).
    num_candidates:
        Number of candidate configurations sampled per :meth:`ask`.
    n_initial_points:
        Number of evaluations before the surrogate is trusted; until then
        :meth:`ask` returns prior samples.
    liar_strategy:
        Constant-liar flavour ("kernel_penalty" or "refit").
    random_sampling:
        If True, :meth:`ask` never uses the surrogate (the paper's RAND
        baseline).
    refit_interval:
        Minimum number of *new* observations between surrogate refits.  The
        default (1) refits on every ``tell`` as DeepHyper does; larger values
        trade a slightly staler model for faster campaign wall-clock time in
        the large reproduction sweeps (the charged *search-time* overhead is
        unaffected — see :mod:`repro.core.overhead`).
    seed:
        Seed of the optimizer's RNG.
    """

    def __init__(
        self,
        space: SearchSpace,
        surrogate: Union[str, Surrogate] = "RF",
        prior: Optional[JointPrior] = None,
        kappa: float = DEFAULT_KAPPA,
        num_candidates: int = 512,
        n_initial_points: int = 10,
        liar_strategy: str = "kernel_penalty",
        random_sampling: bool = False,
        refit_interval: int = 1,
        objective: Optional[Objective] = None,
        seed: int = 0,
    ):
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        if n_initial_points < 1:
            raise ValueError("n_initial_points must be >= 1")
        self.space = space
        self.surrogate = make_surrogate(surrogate, seed=seed)
        self.prior = prior if prior is not None else IndependentPrior(space)
        self.acquisition = UCBAcquisition(kappa=kappa)
        self.num_candidates = int(num_candidates)
        self.n_initial_points = int(n_initial_points)
        self.liar = ConstantLiar(strategy=liar_strategy)
        self.random_sampling = bool(random_sampling)
        if refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        self.refit_interval = int(refit_interval)
        self._new_since_fit = 0
        self.objective = objective or Objective()
        self.rng = np.random.default_rng(seed)

        #: The surrogate's input encoding: one-hot for the GP, the ordinal
        #: numeric encoding for every other surrogate.
        self.encoding = (
            "one_hot" if isinstance(self.surrogate, GaussianProcessSurrogate) else "numeric"
        )
        self._evaluated_keys: set = set()
        # Incremental encoded-history cache (capacity-doubling buffers).
        self._enc_dim = (
            space.one_hot_dimension() if self.encoding == "one_hot" else len(space)
        )
        self._X_buf = np.empty((0, self._enc_dim), dtype=float)
        self._y_buf = np.empty(0, dtype=float)
        self._n_rows = 0
        # Rows already incorporated into the surrogate (via fit/partial_fit);
        # lets tell() hand partial-fit-capable models only the new rows.
        self._n_fitted_rows = 0
        self.last_tell_duration = 0.0
        self.last_ask_duration = 0.0
        self.num_fits = 0

    # ------------------------------------------------------------- properties
    @property
    def num_observations(self) -> int:
        """Number of evaluations told to the optimizer so far."""
        return self._n_rows

    def _encode(self, configs: ConfigsLike) -> np.ndarray:
        if self.encoding == "one_hot":
            return self.space.to_one_hot_array(configs)
        return self.space.to_numeric_array(configs)

    def _key_bytes(self, configs: ConfigsLike) -> List[bytes]:
        """One stable dedup key per configuration, from the raw-value rows."""
        return [row.tobytes() for row in self.space.key_array(configs)]

    # ------------------------------------------------------- history buffers
    def _append_history(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Append encoded rows/objectives into the capacity-doubling buffers."""
        needed = self._n_rows + X_new.shape[0]
        self._X_buf = grow_buffer(self._X_buf, needed)
        self._y_buf = grow_buffer(self._y_buf, needed)
        self._X_buf[self._n_rows : needed] = X_new
        self._y_buf[self._n_rows : needed] = y_new
        self._n_rows = needed

    def _train_data(self) -> Tuple[np.ndarray, np.ndarray]:
        """The encoded training matrix and objective vector.

        Views into the append-only buffers: re-encoding the full history
        would give the same bits, because the column codecs are elementwise.
        """
        return self._X_buf[: self._n_rows], self._y_buf[: self._n_rows]

    # ------------------------------------------------------------------- tell
    def tell(self, configurations: Sequence[Configuration], objectives: Sequence[float]) -> None:
        """Record completed evaluations and refit the surrogate.

        ``objectives`` are maximised values; NaN marks failures and is
        replaced by the objective's failure placeholder for model fitting.

        ``tell`` is :meth:`ingest` followed by :meth:`fit_now` when a fit is
        due; multi-campaign drivers call the two halves separately so several
        optimizers' surrogate fits can be grouped into one fleet pass.
        """
        if not configurations:
            if len(configurations) != len(objectives):
                raise ValueError("configurations and objectives must have equal length")
            return
        start = time.perf_counter()
        if self.ingest(configurations, objectives):
            self.fit_now()
        self.last_tell_duration = time.perf_counter() - start

    def ingest(self, configurations: ConfigsLike, objectives: Sequence[float]) -> bool:
        """Record completed evaluations without fitting.

        ``configurations`` is a sheet (a campaign passes its history's new
        rows as stored) or a list of dicts, converted once.  Returns True
        when a surrogate (re)fit is now due — the caller is then responsible
        for either :meth:`fit_now` or an external fit (e.g.
        :func:`~repro.core.surrogate.random_forest.fit_forest_fleet` over
        :meth:`training_data`) followed by :meth:`mark_fitted`.
        """
        if len(configurations) != len(objectives):
            raise ValueError("configurations and objectives must have equal length")
        if not len(configurations):
            return False
        batch = (
            configurations
            if isinstance(configurations, ColumnBatch)
            else ColumnBatch.from_configurations(self.space, configurations)
        )
        filled = [self.objective.fill_failure(obj) for obj in objectives]
        self._evaluated_keys.update(self._key_bytes(batch))
        self._new_since_fit += len(batch)
        self._append_history(self._encode(batch), np.asarray(filled, dtype=float))
        return (
            not self.random_sampling
            and self.num_observations >= self.n_initial_points
            and (not self.surrogate.fitted or self._new_since_fit >= self.refit_interval)
        )

    def training_data(self) -> Tuple[np.ndarray, np.ndarray]:
        """The encoded training matrix and objective vector (read-only views)."""
        return self._train_data()

    @property
    def fitted_rows(self) -> int:
        """History rows already incorporated into the surrogate.

        External fleet drivers use this to hand partial-fit-capable
        surrogates only the rows of :meth:`training_data` appended since the
        last fit — the same slice :meth:`fit_now` would hand them.
        """
        return self._n_fitted_rows

    def fit_now(self) -> None:
        """Fit the surrogate on the current training data (after :meth:`ingest`)."""
        X, y = self._train_data()
        fitted_rows = self._n_fitted_rows
        if (
            self.surrogate.supports_partial_fit
            and self.surrogate.fitted
            and 0 < fitted_rows < X.shape[0]
        ):
            # Incremental surrogates (the GP's rank-1 Cholesky extension)
            # only see the rows appended since the last fit.
            self.surrogate.partial_fit(X[fitted_rows:], y[fitted_rows:])
        else:
            self.surrogate.fit(X, y)
        self.mark_fitted()

    def mark_fitted(self) -> None:
        """Record that the surrogate now reflects the full evaluated history.

        Called by :meth:`fit_now`, or by drivers that fitted the surrogate
        externally (the multi-campaign fleet fit).
        """
        self._n_fitted_rows = self._n_rows
        self.num_fits += 1
        self._new_since_fit = 0

    # -------------------------------------------------------------------- ask
    def ask(self, n: int = 1) -> List[Configuration]:
        """Propose ``n`` configurations for evaluation.

        ``ask`` runs :meth:`prepare_ask` (candidate generation), then
        :meth:`finish_ask` (surrogate scoring and batch selection); the split
        lets multi-campaign drivers interleave the phases across optimizers.
        """
        start = time.perf_counter()
        prepared = self.prepare_ask(n)
        if prepared.proposals is not None:
            self.last_ask_duration = time.perf_counter() - start
            return prepared.proposals
        proposals = self.finish_ask(prepared, None, None)
        self.last_ask_duration = time.perf_counter() - start
        return proposals

    def prepare_ask(self, n: int = 1) -> "PreparedAsk":
        """Generate and encode the fresh candidate pool for one ``ask``.

        During the initialisation phase (or with random sampling) the batch
        is decided immediately and returned in ``PreparedAsk.proposals``;
        otherwise the prepared pool awaits surrogate scores.  This is a
        :func:`prepare_ask_fleet` pass of one: a pass that raises leaves the
        generator as it found it.
        """
        return prepare_ask_fleet([(self, n)])[0]

    def finish_ask(
        self,
        prepared: "PreparedAsk",
        mean: Optional[np.ndarray],
        std: Optional[np.ndarray],
    ) -> List[Configuration]:
        """Select the proposal batch from a scored candidate pool.

        ``mean``/``std`` may be ``None``: pools that want scores
        (``prepared.wants_scores``) are then scored here with one surrogate
        ``predict``, and pools that don't (the refit liar re-predicts per
        pick) proceed without.
        """
        if mean is None and prepared.wants_scores:
            mean, std = self.surrogate.predict(prepared.encoded)
        train_X, train_y = self._train_data()
        indices = self.liar.select(
            prepared.n,
            surrogate=self.surrogate,
            acquisition=self.acquisition,
            candidates_encoded=prepared.encoded,
            candidates_unit=lambda: prepared.unit,
            train_X=train_X,
            train_y=train_y,
            predictions=None if mean is None else (mean, std),
        )
        if prepared.fresh_configs is not None:
            return [prepared.fresh_configs[i] for i in indices]
        return prepared.fresh.take(np.asarray(indices, dtype=np.intp)).to_configurations()

    def _sample_unique(self, n: int) -> List[Configuration]:
        """Sample ``n`` prior configurations, avoiding duplicates if possible.

        When the (finite) space is already exhausted — every distinct
        configuration has been evaluated — resampling can never produce a
        fresh configuration, so the loop is short-circuited and duplicates are
        knowingly returned: handing a worker a repeated configuration is
        preferable to stalling the asynchronous search.
        """
        cardinality = self.space.cardinality
        if math.isfinite(cardinality) and len(self._evaluated_keys) >= cardinality:
            return self.space.sample_columns(n, self.rng, prior=self.prior).to_configurations()
        proposals: List[Configuration] = []
        attempts = 0
        while len(proposals) < n and attempts < 20:
            batch = self.space.sample_columns(max(n, 8), self.rng, prior=self.prior)
            unseen = [
                i for i, key in enumerate(self._key_bytes(batch))
                if key not in self._evaluated_keys
            ]
            proposals.extend(batch.take(unseen[: n - len(proposals)]).to_configurations())
            attempts += 1
        while len(proposals) < n:
            # Duplicate fallback: the attempt budget is spent (near-exhausted
            # space or extremely concentrated prior); accept repeats.
            proposals.extend(
                self.space.sample_columns(
                    n - len(proposals), self.rng, prior=self.prior
                ).to_configurations()
            )
        return proposals[:n]

    # ------------------------------------------------------------- inspection
    def categorical_column_indices(self) -> List[int]:
        """Indices of categorical columns in the numeric encoding (for TPE)."""
        return [
            j
            for j, p in enumerate(self.space.parameters)
            if isinstance(p, CategoricalParameter)
        ]


def prepare_ask_fleet(
    requests: Sequence[Tuple[BayesianOptimizer, int]],
) -> List[PreparedAsk]:
    """One stacked candidate-proposal pass over several optimizers (fleet ask).

    ``requests`` pairs each member optimizer with the number of proposals it
    wants.  All members must tune equal search spaces (same parameters, same
    order) and share one encoding — the runner groups them that way via
    :func:`~repro.service.grouping.plan_tick_groups`.

    Per member the result is **bitwise identical** to a pass over that
    member alone (``member.prepare_ask(n)``):

    * every random draw comes from the member's own generator in the member's
      own order — candidate columns are assembled parameter-major across the
      fleet for plain independent priors and member-major otherwise
      (:func:`~repro.core.priors.sample_columns_fleet`), and the
      ``_sample_unique`` draws of the initialisation and shortfall paths stay
      per member;
    * the space codecs (``key_array`` and the numeric/one-hot encodings)
      are row-local, so encoding one stacked sheet and slicing per member
      reproduces each member's solo bits;
    * dedup tests each member's slice against that member's own evaluated
      keys, in the member's candidate order;
    * each member's unit encoding is built from its own fresh sheet, and
      only when its kernel-penalty liar reads it (:attr:`PreparedAsk.unit`).

    A pass that raises leaves every member's generator as it found it, so a
    retry draws exactly what it would have drawn.
    """
    requests = list(requests)
    states = [opt.rng.bit_generator.state for opt, _ in requests]
    try:
        return _prepare_ask_fleet(requests)
    except BaseException:
        for (opt, _), state in zip(requests, states):
            opt.rng.bit_generator.state = state
        raise


def _prepare_ask_fleet(
    requests: List[Tuple[BayesianOptimizer, int]],
) -> List[PreparedAsk]:
    """The body of :func:`prepare_ask_fleet`, before any RNG restore."""
    if not requests:
        return []
    rep, _ = requests[0]
    space = rep.space
    for opt, n in requests:
        if n < 1:
            raise ValueError("n must be >= 1")
        if opt.space is not space and opt.space != space:
            raise ValueError("fleet asks require members over equal search spaces")
        if opt.encoding != rep.encoding:
            raise ValueError("fleet asks require members sharing one encoding")

    prepared: List[Optional[PreparedAsk]] = [None] * len(requests)
    model_members: List[int] = []
    for i, (opt, n) in enumerate(requests):
        use_model = (
            not opt.random_sampling
            and opt.surrogate.fitted
            and opt.num_observations >= opt.n_initial_points
        )
        if use_model:
            model_members.append(i)
        else:
            prepared[i] = PreparedAsk(n=n, proposals=opt._sample_unique(n))
    if not model_members:
        return prepared

    # One stacked candidate sheet: per-member draws, fleet-assembled.
    column_dicts = sample_columns_fleet(
        [requests[i][0].prior for i in model_members],
        [requests[i][0].num_candidates for i in model_members],
        [requests[i][0].rng for i in model_members],
    )
    cand_batches = [
        ColumnBatch(requests[i][0].space, cols)
        for i, cols in zip(model_members, column_dicts)
    ]
    keys = [row.tobytes() for row in space.key_array(ColumnBatch.concat(cand_batches))]

    # Fused dedup: each member's key slice against its own evaluated set.
    fresh_parts: List[Tuple[int, ColumnBatch, Optional[List[Configuration]]]] = []
    offset = 0
    for i, candidates in zip(model_members, cand_batches):
        opt, n = requests[i]
        member_keys = keys[offset : offset + len(candidates)]
        offset += len(candidates)
        evaluated = opt._evaluated_keys
        fresh_idx = np.fromiter(
            (j for j, key in enumerate(member_keys) if key not in evaluated),
            dtype=np.intp,
        )
        fresh_configs: Optional[List[Configuration]] = None
        if fresh_idx.shape[0] < n:
            fresh_configs = candidates.take(fresh_idx).to_configurations()
            fresh_configs.extend(opt._sample_unique(n - len(fresh_configs)))
            fresh = ColumnBatch.from_configurations(opt.space, fresh_configs)
        else:
            fresh = candidates.take(fresh_idx)
        fresh_parts.append((i, fresh, fresh_configs))

    # One shared encode of the stacked fresh sheet, sliced back per member.
    encoded_all = rep._encode(ColumnBatch.concat([fresh for _, fresh, _ in fresh_parts]))
    offset = 0
    for i, fresh, fresh_configs in fresh_parts:
        opt, n = requests[i]
        stop = offset + len(fresh)
        prepared[i] = PreparedAsk(
            n=n,
            fresh=fresh,
            fresh_configs=fresh_configs,
            encoded=encoded_all[offset:stop],
            wants_scores=opt.liar.strategy != "refit",
        )
        offset = stop
    return prepared
