"""Multi-point proposal via the constant-liar strategy.

Asynchronous BO must hand out several configurations at once (one per idle
worker).  The paper uses the constant-liar strategy (Ginsbourger et al.): after
selecting the best candidate by the acquisition function, the model is updated
with that candidate and a "lie" equal to the worst objective collected so far,
which pushes the next selection away from the already-chosen region; the
process repeats until enough configurations have been generated.

Two implementations are provided:

* ``strategy="refit"`` — the literal algorithm: the surrogate copy is refitted
  with the lie after every pick.  Exact but expensive for large batches.
* ``strategy="kernel_penalty"`` (default) — a fast approximation: instead of
  refitting, the acquisition scores of candidates close (in unit-hypercube
  distance) to an already-picked candidate are reduced by the amount the lie
  would have reduced them (their exploration bonus collapses and their mean is
  pulled toward the lie).  This preserves the diversification effect at a cost
  independent of the batch size, which matters because the virtual-time
  experiments hand out batches of up to 128 configurations.

The deviation is documented in DESIGN.md; the ``refit`` strategy is available
for exact reproduction and is exercised by the test suite and an ablation
benchmark.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.acquisition import UCBAcquisition
from repro.core.surrogate.base import Surrogate

__all__ = ["ConstantLiar"]


class ConstantLiar:
    """Select a batch of candidate indices using the constant-liar strategy.

    Parameters
    ----------
    strategy:
        ``"kernel_penalty"`` (fast approximation, default) or ``"refit"``
        (literal constant liar).
    """

    #: Neighbourhood radius (in unit-hypercube distance per dimension) of the
    #: kernel penalty.
    penalty_length_scale = 0.15

    def __init__(self, strategy: str = "kernel_penalty"):
        if strategy not in ("kernel_penalty", "refit"):
            raise ValueError(f"unknown liar strategy {strategy!r}")
        self.strategy = strategy

    def select(
        self,
        n: int,
        surrogate: Surrogate,
        acquisition: UCBAcquisition,
        candidates_encoded: np.ndarray,
        candidates_unit: Union[np.ndarray, Callable[[], np.ndarray]],
        train_X: np.ndarray,
        train_y: np.ndarray,
        predictions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> List[int]:
        """Return the indices of ``n`` selected candidates.

        Parameters
        ----------
        n:
            Number of configurations to select (the number of idle workers).
        surrogate:
            The fitted surrogate model.
        acquisition:
            The UCB acquisition.
        candidates_encoded:
            Candidate matrix in the surrogate's encoding.
        candidates_unit:
            Candidate matrix in the unit hypercube (used for the kernel
            penalty distances), or a zero-argument callable returning it.
            Only a kernel-penalty selection of more than one candidate
            reads it.
        train_X, train_y:
            Current training data (needed by the ``refit`` strategy).
        predictions:
            Optional precomputed ``(mean, std)`` surrogate scores of the
            candidate matrix (e.g. from a fused fleet scoring pass).  Used by
            the kernel-penalty strategy instead of its own ``predict`` call;
            the refit strategy re-predicts per pick and ignores them (its
            first prediction equals the precomputed one).
        """
        if n <= 0:
            return []
        num_candidates = candidates_encoded.shape[0]
        n = min(n, num_candidates)
        if self.strategy == "refit":
            return self._select_refit(
                n, surrogate, acquisition, candidates_encoded, train_X, train_y
            )
        return self._select_kernel_penalty(
            n, surrogate, acquisition, candidates_encoded, candidates_unit, predictions
        )

    # ------------------------------------------------------------------ exact
    def _select_refit(
        self,
        n: int,
        surrogate: Surrogate,
        acquisition: UCBAcquisition,
        candidates_encoded: np.ndarray,
        train_X: np.ndarray,
        train_y: np.ndarray,
    ) -> List[int]:
        lie = float(np.min(train_y)) if train_y.size else 0.0
        model = copy.deepcopy(surrogate)
        # Preallocate the augmented training set once (train_X may be a view
        # into the optimizer's incremental cache — it is copied here, not
        # mutated) instead of re-stacking it on every pick.
        m = train_X.shape[0]
        X_aug = np.empty((m + n, train_X.shape[1]), dtype=float)
        X_aug[:m] = train_X
        y_aug = np.empty(m + n, dtype=float)
        y_aug[:m] = train_y
        selected: List[int] = []
        available = np.ones(candidates_encoded.shape[0], dtype=bool)
        for i in range(n):
            mean, std = model.predict(candidates_encoded)
            scores = acquisition(mean, std)
            scores[~available] = -np.inf
            pick = int(np.argmax(scores))
            selected.append(pick)
            available[pick] = False
            X_aug[m + i] = candidates_encoded[pick]
            y_aug[m + i] = lie
            model = copy.deepcopy(surrogate)
            model.fit(X_aug[: m + i + 1], y_aug[: m + i + 1])
        return selected

    # ---------------------------------------------------------- approximation
    def _select_kernel_penalty(
        self,
        n: int,
        surrogate: Surrogate,
        acquisition: UCBAcquisition,
        candidates_encoded: np.ndarray,
        candidates_unit: Union[np.ndarray, Callable[[], np.ndarray]],
        predictions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> List[int]:
        mean, std = (
            predictions if predictions is not None else surrogate.predict(candidates_encoded)
        )
        scores = acquisition(mean, std)
        if n == 1:
            return [int(np.argmax(scores))]
        if callable(candidates_unit):
            candidates_unit = candidates_unit()
        # Magnitude of the penalty: collapsing the confidence bonus plus
        # pulling the mean toward the worst observation is, at the selected
        # point itself, roughly the candidate's full score range.
        span = float(np.max(scores) - np.min(scores)) if scores.size > 1 else 1.0
        span = max(span, 1e-9)
        length2 = (self.penalty_length_scale**2) * candidates_unit.shape[1]
        selected: List[int] = []
        available = np.ones(candidates_encoded.shape[0], dtype=bool)
        working = scores.copy()
        while True:
            masked = np.where(available, working, -np.inf)
            pick = int(np.argmax(masked))
            selected.append(pick)
            if len(selected) == n:
                return selected
            available[pick] = False
            # Discourage candidates near the pick, proportionally to proximity.
            d2 = np.sum((candidates_unit - candidates_unit[pick]) ** 2, axis=1)
            working = working - span * np.exp(-0.5 * d2 / length2)
