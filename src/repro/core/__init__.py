"""Autotuning core: parameter spaces, surrogates, asynchronous BO and VAE-ABO.

This subpackage implements the paper's primary contribution —
variational-autoencoder-guided asynchronous Bayesian optimization (VAE-ABO,
Algorithm 1) — together with every building block it needs:

* :mod:`repro.core.space` — mixed integer/real/categorical search spaces with
  uniform and log-uniform sampling distributions.
* :mod:`repro.core.priors` — per-parameter priors and joint (generative)
  priors used for transfer learning.
* :mod:`repro.core.surrogate` — random forest, Gaussian process and
  Tree-Parzen-Estimator surrogate models implemented from scratch on NumPy.
* :mod:`repro.core.acquisition` / :mod:`repro.core.liar` — confidence-bound
  acquisition and the constant-liar multi-point strategy.
* :mod:`repro.core.optimizer` — the ask/tell Bayesian optimizer.
* :mod:`repro.core.evaluator` — the virtual-clock worker pool and its
  evaluator clients (manager/worker architecture); every campaign runs on
  one, private by default.
* :mod:`repro.core.search` — the asynchronous search loop (`CBOSearch`,
  `VAEABOSearch`).
* :mod:`repro.core.vae` — the tabular variational autoencoder (NumPy MLPs with
  manual backprop and Adam).
* :mod:`repro.core.transfer` — selection of top-q% configurations, VAE fitting
  and construction of the informative prior.
"""

from repro.core.space import (
    CategoricalParameter,
    Configuration,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    RealParameter,
    SearchSpace,
)
from repro.core.priors import (
    CategoricalPrior,
    IndependentPrior,
    JointPrior,
    LogUniformPrior,
    MixturePrior,
    UniformPrior,
)
from repro.core.objective import Objective, runtime_objective
from repro.core.history import Evaluation, SearchHistory
from repro.core.optimizer import BayesianOptimizer, make_surrogate
from repro.core.evaluator import WorkerState
from repro.core.overhead import AnalyticOverheadModel, MeasuredOverheadModel
from repro.core.search import CBOSearch, SearchResult, VAEABOSearch
from repro.core.transfer import TransferLearningPrior, fit_transfer_prior

__all__ = [
    "AnalyticOverheadModel",
    "BayesianOptimizer",
    "CategoricalParameter",
    "CategoricalPrior",
    "CBOSearch",
    "Configuration",
    "Evaluation",
    "IndependentPrior",
    "IntegerParameter",
    "JointPrior",
    "LogUniformPrior",
    "MeasuredOverheadModel",
    "MixturePrior",
    "Objective",
    "OrdinalParameter",
    "Parameter",
    "RealParameter",
    "SearchHistory",
    "SearchResult",
    "SearchSpace",
    "TransferLearningPrior",
    "UniformPrior",
    "VAEABOSearch",
    "WorkerState",
    "fit_transfer_prior",
    "make_surrogate",
    "runtime_objective",
]
