"""Comparator autotuning frameworks (Section IV-D).

The paper compares its DeepHyper-based VAE-ABO implementation against two
state-of-the-art HPC autotuning frameworks with transfer-learning support,
plus plain random sampling.  All of them are re-implemented here to their
*published behaviour* (the properties the comparison depends on), behind a
common :class:`~repro.frameworks.base.Framework` interface:

* :class:`~repro.frameworks.random_search.RandomSearch` — the RAND baseline:
  uniform sampling, no model.
* :class:`~repro.frameworks.deephyper_like.DeepHyperSearch` — our asynchronous
  BO framework (RF surrogate, constant liar) with a configurable number of
  workers (DH1W / DH10W in Fig. 5) and optional VAE-ABO transfer learning.
* :class:`~repro.frameworks.gptune_like.GPTuneLike` — a two-phase sequential
  tuner: random sampling phase followed by a Gaussian-process modelling phase
  with expected-improvement selection; transfer learning pools the source
  task's evaluations into the GP (multitask-style).  Evaluations are strictly
  sequential (the published version could not parallelise its modelling
  phase).
* :class:`~repro.frameworks.hiperbot_like.HiPerBOtLike` — a sequential
  Tree-Parzen-Estimator BO; transfer learning mixes the source-data "good"
  density into the acquisition as a weighted prior, as described in the
  HiPerBOt paper.

Each framework runs alone through ``run``.  The two that wrap
:class:`~repro.core.search.CBOSearch` (random search and DeepHyper) also
expose the search itself through ``build_search``, so a
:class:`~repro.service.CampaignRunner` can advance several of them
together.
"""

from repro.frameworks.base import Framework, FrameworkResult
from repro.frameworks.random_search import RandomSearch
from repro.frameworks.deephyper_like import DeepHyperSearch
from repro.frameworks.gptune_like import GPTuneLike
from repro.frameworks.hiperbot_like import HiPerBOtLike

__all__ = [
    "DeepHyperSearch",
    "Framework",
    "FrameworkResult",
    "GPTuneLike",
    "HiPerBOtLike",
    "RandomSearch",
]
