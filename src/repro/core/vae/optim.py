"""Adam over one flat parameter buffer and its gradient buffer.

:class:`~repro.core.vae.tvae.VAEFleet` lays every weight and gradient of its
``K`` stacked networks out as views into one parameter buffer and one
gradient buffer (:func:`~repro.core.vae.layers.flatten_parameters`), so one
:class:`Adam` step is 14 in-place ufunc calls over the whole fleet.  Every
Adam update is elementwise and the calls follow the textbook operation
order, so each parameter's update is bitwise identical to updating its
array on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) over a ``(parameters, gradients)`` buffer pair.

    Parameters are updated in place; gradients are expected to have been
    accumulated by the layers' ``backward`` calls and are *not* cleared here
    (zero the gradient buffer between steps).

    Parameters
    ----------
    params, grads:
        Arrays of one shape: the parameters to optimise and their gradients
        (typically the flat buffers of
        :func:`~repro.core.vae.layers.flatten_parameters`).
    lr:
        Learning rate.
    beta1, beta2:
        Exponential decay rates of the first and second moment estimates.
    eps:
        Numerical stabiliser.
    """

    def __init__(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if params.shape != grads.shape:
            raise ValueError("parameters and gradients must share one shape")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._update = np.empty_like(params)
        self._denom = np.empty_like(params)
        self._t = 0

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients.

        ``m = b1·m + (1-b1)·g``, ``v = b2·v + (1-b2)·g²``, then
        ``p -= lr·(m/(1-b1ᵗ)) / (sqrt(v/(1-b2ᵗ)) + eps)``.
        """
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, g, update, denom = self._m, self._v, self.grads, self._update, self._denom
        np.multiply(b1, m, out=m)
        np.multiply(1 - b1, g, out=update)
        np.add(m, update, out=m)
        np.square(g, out=update)
        np.multiply(1 - b2, update, out=update)
        np.multiply(b2, v, out=v)
        np.add(v, update, out=v)
        np.divide(m, 1 - b1**self._t, out=update)
        np.divide(v, 1 - b2**self._t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, self.eps, out=denom)
        np.multiply(self.lr, update, out=update)
        np.divide(update, denom, out=update)
        np.subtract(self.params, update, out=self.params)

    @property
    def steps_taken(self) -> int:
        """Number of update steps applied so far."""
        return self._t
