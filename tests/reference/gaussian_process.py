"""The frozen-hyperparameter full GP refit the incremental path is checked against.

:meth:`~repro.core.surrogate.gaussian_process.GaussianProcessSurrogate.partial_fit`
extends the Cholesky factor with hyperparameters frozen between refreshes.
A from-scratch factorisation of the same kernel (same length scales, noise
and signal variance) must give the same posterior up to floating-point
rounding.
"""

import numpy as np

from repro.core.surrogate.gaussian_process import GaussianProcessSurrogate

__all__ = ["refit_with_current_hyperparameters"]


def refit_with_current_hyperparameters(
    gp: GaussianProcessSurrogate, X: np.ndarray, y: np.ndarray
) -> GaussianProcessSurrogate:
    """Full refit of ``gp`` on ``(X, y)`` that *keeps* its hyperparameters.

    A :meth:`partial_fit` sequence and this function produce the same
    kernel, so their posteriors must agree to floating-point rounding.
    """
    if not gp.fitted:
        raise RuntimeError("the GP has not been fitted")
    X, y = gp._validate(X, y)
    y_n = gp._normalize_targets(y)
    gp._store_training_set(X, y)
    gp._factorize_full(y_n)
    return gp
