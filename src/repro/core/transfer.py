"""Transfer learning: from a previous run's history to an informative prior.

This is the heart of the paper's contribution (Algorithm 1, lines 1–10):

1. select the top-q% configurations ``Q_p`` of the previous history ``H_p``;
2. fit a tabular VAE on ``Q_p`` to model their joint distribution;
3. build a joint sampling prior for the *current* space that samples the
   parameters shared with the previous space from the VAE, and any *new*
   parameter from its uninformative prior (uniform for numeric parameters,
   multinoulli for categorical ones);
4. hand that prior to the asynchronous BO, which uses it both for the
   initialisation batch and for generating candidate configurations inside
   the optimization loop — biasing the whole search toward the previously
   high-performing region.

The source and target spaces may differ in their parameter sets (the paper's
unique capability); only the shared parameters are learned from, and they are
interpreted with the *target* space's definitions so bounds and encodings stay
consistent.  A discrete parameter may change its domain between the spaces,
so ``Q_p`` crosses over as values (clipped into the target space) and is
looked up once into the target's domain indices; from then on the prior
samples index columns, as every prior does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.history import SearchHistory
from repro.core.priors import (
    IndependentPrior,
    JointPrior,
    _concat_shuffle_columns,
    _empty_columns,
    default_prior,
)
from repro.core.space import (
    ColumnBatch,
    Configuration,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE

__all__ = [
    "PreparedTransferFit",
    "TransferLearningPrior",
    "fit_transfer_prior",
    "prepare_transfer_prior",
]


class TransferLearningPrior(JointPrior):
    """Joint prior combining a VAE over shared parameters with defaults for new ones.

    Parameters
    ----------
    space:
        The *current* (target) search space.
    vae:
        Tabular VAE trained on the top configurations of the previous run.
    transform:
        The tabular transform over the shared-parameter subspace.
    new_parameters:
        Names of parameters present in ``space`` but absent from the previous
        space (they are sampled from their uninformative priors).
    uniform_fraction:
        Fraction of samples drawn entirely from the uninformative prior, so
        the biased search keeps non-zero support over the whole space.
    top_configurations:
        The configurations the VAE was trained on (kept for inspection and
        for the fallback when the VAE could not be trained).
    top_batch:
        Optional columnar form of ``top_configurations`` over the shared
        subspace (built once by :func:`fit_transfer_prior`); when omitted it
        is derived from ``top_configurations``.
    """

    def __init__(
        self,
        space: SearchSpace,
        vae: Optional[TabularVAE],
        transform: TabularTransform,
        new_parameters: List[str],
        uniform_fraction: float = 0.05,
        top_configurations: Optional[List[Configuration]] = None,
        top_batch: Optional[ColumnBatch] = None,
    ):
        if not (0.0 <= uniform_fraction <= 1.0):
            raise ValueError("uniform_fraction must be in [0, 1]")
        self.space = space
        self.vae = vae
        self.transform = transform
        self.new_parameters = list(new_parameters)
        self.uniform_fraction = float(uniform_fraction)
        self.top_configurations = list(top_configurations or [])
        self._uninformative = IndependentPrior(space)
        self._new_priors = {
            name: default_prior(space[name]) for name in self.new_parameters
        }
        # The shared-subspace machinery of the fallback sampler is resolved
        # once here instead of per sample_columns call.
        names = [c.parameter.name for c in transform.columns]
        self._shared_space = SearchSpace([c.parameter for c in transform.columns])
        if top_batch is not None and len(top_batch) > 0:
            self._top_batch: Optional[ColumnBatch] = top_batch
        elif self.top_configurations:
            self._top_batch = ColumnBatch.from_configurations(
                self._shared_space,
                [{name: c[name] for name in names} for c in self.top_configurations],
            )
        else:
            self._top_batch = None

    # --------------------------------------------------------------- sampling
    def sample_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Sample ``n`` configurations as per-parameter columns (hot path).

        The VAE decodes whole columns, new parameters are drawn as columns
        from their uninformative priors, and the informative/uniform parts are
        mixed with a single shared permutation — no intermediate Python dicts.
        Discrete columns are domain indices of the target space.
        """
        if n <= 0:
            return _empty_columns(self.space)
        n_uniform = int(rng.binomial(n, self.uniform_fraction)) if self.uniform_fraction else 0
        n_informed = n - n_uniform
        parts: List[Dict[str, np.ndarray]] = []
        if n_informed > 0:
            parts.append(self._sample_informed_columns(n_informed, rng))
        if n_uniform > 0:
            parts.append(self._uninformative.sample_columns(n_uniform, rng))
        permutation = rng.permutation(n)
        return _concat_shuffle_columns(self.space, parts, permutation)

    def sample_configurations(self, n: int, rng: np.random.Generator) -> List[Configuration]:
        if n <= 0:
            return []
        return ColumnBatch(self.space, self.sample_columns(n, rng)).to_configurations()

    def _sample_informed_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        columns = dict(self._sample_shared_columns(n, rng))
        for name, prior in self._new_priors.items():
            columns[name] = prior.sample_array(n, rng)
        # Shared columns are decoded with the *target* space's parameter
        # definitions and new columns come from in-domain priors, so values
        # are already legal; numeric columns are still clipped as a cheap
        # safety net against bound drift between campaigns.
        for p in self.space:
            if isinstance(p, (RealParameter, IntegerParameter)):
                columns[p.name] = np.clip(columns[p.name], p.low, p.high)
        return columns

    def _sample_shared_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Sample the shared-parameter part (VAE if available, else resample Q_p)."""
        if self.vae is not None and self.vae.fitted:
            rows = self.vae.sample(n, rng)
            return self.transform.decode_columns(rows, rng=rng, sample_categories=True).columns
        # Fallback (tiny Q_p): resample the precomputed columnar Q_p directly.
        if self._top_batch is not None:
            picks = rng.integers(0, len(self._top_batch), size=n)
            return self._top_batch.take(picks).columns
        # Last resort: uninformative sampling of the shared subspace.
        return IndependentPrior(self._shared_space).sample_columns(n, rng)

    # ------------------------------------------------------------- inspection
    @property
    def shared_parameters(self) -> List[str]:
        """Names of the parameters sampled from the learned distribution."""
        return [c.parameter.name for c in self.transform.columns]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<TransferLearningPrior shared={len(self.shared_parameters)} "
            f"new={len(self.new_parameters)} vae={'yes' if self.vae else 'no'}>"
        )


@dataclass
class PreparedTransferFit:
    """A constructed-but-untrained transfer VAE, awaiting its (fleet) fit.

    :func:`prepare_transfer_prior` returns one of these when the selected
    top set is large enough for a VAE.  ``train()`` runs the exact solo fit
    (same design matrix, epochs and batch size :func:`fit_transfer_prior`
    would have used — the VAE owns its seeded RNG, so a deferred fit is
    bitwise identical to an eager one); fleet drivers instead hand several
    members' ``vae``/``design`` pairs to one
    :class:`~repro.core.vae.tvae.VAEFleet` pass, which is likewise
    bit-identical per member.  The fit **must** complete before the prior's
    first sample: :class:`TransferLearningPrior` silently falls back to
    top-batch resampling while ``vae.fitted`` is False.
    """

    vae: TabularVAE
    design: np.ndarray
    epochs: int
    batch_size: int

    def train(self) -> None:
        """Run the deferred solo fit (no-op once the VAE is fitted)."""
        if not self.vae.fitted:
            self.vae.fit(self.design, epochs=self.epochs, batch_size=self.batch_size)


def prepare_transfer_prior(
    source_history: SearchHistory,
    target_space: SearchSpace,
    quantile: float = 0.10,
    epochs: int = 300,
    latent_dim: int = 8,
    hidden=(64, 64),
    uniform_fraction: float = 0.05,
    min_configurations_for_vae: int = 8,
    seed: int = 0,
) -> Tuple[TransferLearningPrior, Optional[PreparedTransferFit]]:
    """:func:`fit_transfer_prior` minus the VAE training pass.

    Returns the prior plus the pending fit (``None`` when the top set is too
    small for a VAE).  Everything up to and including VAE *construction* is
    identical to the eager path; only ``vae.fit`` is deferred, so training
    the pending fit — solo via :meth:`PreparedTransferFit.train` or fused
    through a :class:`~repro.core.vae.tvae.VAEFleet` — yields a prior
    bitwise identical to :func:`fit_transfer_prior`'s.
    """
    source_space = source_history.space
    shared_names = [p.name for p in target_space if p.name in source_space]
    new_names = [p.name for p in target_space if p.name not in source_space]
    if not shared_names:
        raise ValueError(
            "the source and target spaces share no parameters; transfer learning "
            "cannot be applied"
        )
    shared_space = target_space.subspace(shared_names, name="shared")
    transform = TabularTransform(shared_space)

    # Keep only the shared parameters and clip them into the target bounds
    # (bounds may legitimately change between campaigns).  Columnar end to
    # end: Q_p is selected on the history's objective column and taken from
    # its stored rows, and only the shared columns are clipped and encoded —
    # no dict per historical evaluation (H_p has 1500+ rows at paper scale,
    # Q_p a handful).  The shared values cross into the target's domains
    # once, here.
    source_batch = source_history.top_quantile_columns(quantile)
    top_batch = ColumnBatch.from_value_columns(
        shared_space,
        shared_space.clip_columns(
            {name: source_batch.values(name) for name in shared_names}
        ),
    )
    top_shared = top_batch.to_configurations()

    vae: Optional[TabularVAE] = None
    pending: Optional[PreparedTransferFit] = None
    if len(top_batch) >= min_configurations_for_vae:
        X = transform.encode_columns(top_batch)
        vae = TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=min(latent_dim, max(2, transform.dimension // 2)),
            hidden=hidden,
            seed=seed,
        )
        pending = PreparedTransferFit(
            vae=vae,
            design=X,
            epochs=epochs,
            batch_size=min(64, max(4, len(top_batch))),
        )

    prior = TransferLearningPrior(
        space=target_space,
        vae=vae,
        transform=transform,
        new_parameters=new_names,
        uniform_fraction=uniform_fraction,
        top_configurations=top_shared,
        top_batch=top_batch,
    )
    return prior, pending


def fit_transfer_prior(
    source_history: SearchHistory,
    target_space: SearchSpace,
    quantile: float = 0.10,
    epochs: int = 300,
    latent_dim: int = 8,
    hidden=(64, 64),
    uniform_fraction: float = 0.05,
    min_configurations_for_vae: int = 8,
    seed: int = 0,
) -> TransferLearningPrior:
    """Build the informative prior of Algorithm 1 from a previous history.

    Parameters
    ----------
    source_history:
        History ``H_p`` of the previous autotuning run.
    target_space:
        Parameter space ``D_c`` of the current run (may differ from the
        previous space).
    quantile:
        Top fraction ``q`` of configurations used to train the VAE.
    epochs, latent_dim, hidden:
        VAE training budget and architecture.
    uniform_fraction:
        Fraction of prior samples drawn uniformly (exploration safeguard).
    min_configurations_for_vae:
        Below this number of selected configurations the VAE is skipped and
        the prior resamples the selected configurations directly.
    seed:
        Seed for VAE initialisation and training.
    """
    prior, pending = prepare_transfer_prior(
        source_history,
        target_space,
        quantile=quantile,
        epochs=epochs,
        latent_dim=latent_dim,
        hidden=hidden,
        uniform_fraction=uniform_fraction,
        min_configurations_for_vae=min_configurations_for_vae,
        seed=seed,
    )
    if pending is not None:
        pending.train()
    return prior
