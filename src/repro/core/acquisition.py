"""Acquisition functions for sampling-based Bayesian optimization.

The paper ranks sampled candidate configurations with the lower confidence
bound ``LCB(x) = µ(x) − κ·σ(x)`` (Eq. 2) and *minimises* it, which — because
DeepHyper maximises the objective ``-log(runtime)`` — is equivalent to
*maximising* the upper confidence bound ``UCB(x) = µ(x) + κ·σ(x)``.  Both
forms are provided; the optimizer uses the UCB-maximisation convention
throughout, with the paper's default κ = 1.96 (a 95 % confidence band).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["lower_confidence_bound", "upper_confidence_bound", "expected_improvement", "UCBAcquisition"]

#: The paper's default exploration/exploitation trade-off (95 % interval).
DEFAULT_KAPPA = 1.96


def lower_confidence_bound(mean: np.ndarray, std: np.ndarray, kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """``µ − κσ`` — minimised when the objective is minimised (Eq. 2)."""
    _check(mean, std, kappa)
    return np.asarray(mean) - kappa * np.asarray(std)


def upper_confidence_bound(mean: np.ndarray, std: np.ndarray, kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """``µ + κσ`` — maximised when the objective is maximised."""
    _check(mean, std, kappa)
    return np.asarray(mean) + kappa * np.asarray(std)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """Expected improvement over ``best`` for a maximised objective.

    Provided for completeness (GPtune-style frameworks use EI); the main
    search uses the confidence-bound family.
    """
    from scipy.stats import norm

    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def _check(mean: np.ndarray, std: np.ndarray, kappa: float) -> None:
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    mean = np.asarray(mean)
    std = np.asarray(std)
    if mean.shape != std.shape:
        raise ValueError(f"mean and std shapes differ: {mean.shape} vs {std.shape}")


@dataclass(frozen=True)
class UCBAcquisition:
    """Callable upper-confidence-bound acquisition with a fixed κ.

    ``kappa = 0`` is pure exploitation (greedy); large κ is pure exploration
    (§III-A).
    """

    kappa: float = DEFAULT_KAPPA

    def __call__(self, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
        return upper_confidence_bound(mean, std, self.kappa)

    def rank(self, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
        """Candidate indices sorted from most to least promising."""
        scores = self(mean, std)
        return np.argsort(scores)[::-1]
