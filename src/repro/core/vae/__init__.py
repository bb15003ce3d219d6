"""Tabular variational autoencoder (NumPy, manual backpropagation).

The paper models the joint distribution of high-performing configurations
with a tabular VAE (TVAE, Xu et al. 2019, distributed through the SDV
package).  PyTorch is not available in this environment, so the VAE is
implemented from scratch:

* :mod:`repro.core.vae.layers` — dense layers, activations and a small MLP
  container with manual forward/backward passes, plus their fleet-stacked
  counterparts (:class:`~repro.core.vae.layers.DenseFleet`,
  :class:`~repro.core.vae.layers.MLPFleet`) driving ``K`` networks with one
  batched contraction per layer, and
  :func:`~repro.core.vae.layers.flatten_parameters`, which lays a fleet's
  weights and gradients out in one flat buffer pair.
* :mod:`repro.core.vae.optim` — the Adam optimiser: 14 in-place ufunc calls
  per step over a flat buffer pair.
* :mod:`repro.core.vae.transforms` — the tabular transform mapping mixed
  integer/real/categorical configurations onto the VAE's numeric inputs
  (unit-interval columns for numeric/ordinal parameters, one-hot blocks for
  categorical parameters) and back; both directions are columnar
  (``encode_columns``/``decode_columns``), with the row-major ``encode`` kept
  as the bit-identical reference.
* :mod:`repro.core.vae.tvae` — the VAE itself: Gaussian latent space,
  per-column reconstruction losses (Gaussian for numeric columns,
  cross-entropy for categorical blocks), trained with Adam by one loop —
  :class:`~repro.core.vae.tvae.VAEFleet`, ``K`` members in fused lock-step
  epochs, each bitwise identical to training it alone;
  :meth:`~repro.core.vae.tvae.TabularVAE.fit` is a fleet of one.
"""

from repro.core.vae.layers import Dense, DenseFleet, MLP, MLPFleet, ReLU, Tanh
from repro.core.vae.optim import Adam
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE, VAEFleet, vae_fleet_key

__all__ = [
    "Adam",
    "Dense",
    "DenseFleet",
    "MLP",
    "MLPFleet",
    "ReLU",
    "TabularTransform",
    "TabularVAE",
    "Tanh",
    "VAEFleet",
    "vae_fleet_key",
]
