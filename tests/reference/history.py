"""Row-major reference implementation of the search history.

The columnar :class:`~repro.core.history.SearchHistory` replaced a list of
:class:`~repro.core.history.Evaluation` dataclasses with per-row derived
views.  This module preserves those original per-row algorithms verbatim —
the same role the ``*_loop`` codecs of :mod:`reference.space` and the
recursive builder of :mod:`reference.random_forest` play: a ground truth for
the property-based equivalence tests (``tests/core/test_history_columnar.py``).

Historical semantics worth preserving exactly:

* :meth:`RowHistoryReference.incumbent_trajectory` skips *failed*
  evaluations (non-finite objective), even when a finite runtime was
  recorded (e.g. ``runtime=0``);
* :meth:`RowHistoryReference.best_runtime_at` instead considers every
  finite runtime, failed or not.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.history import Evaluation
from repro.core.objective import Objective
from repro.core.space import Configuration, SearchSpace

__all__ = ["RowHistoryReference"]


class RowHistoryReference:
    """The former list-of-dataclasses storage and its per-row derived views."""

    def __init__(self, space: SearchSpace, objective: Optional[Objective] = None):
        self.space = space
        self.objective = objective or Objective()
        self.evaluations: List[Evaluation] = []

    def append(self, evaluation: Evaluation) -> None:
        self.evaluations.append(evaluation)

    def record(
        self,
        configuration: Configuration,
        runtime: float,
        submitted: float,
        completed: float,
        worker: int = 0,
    ) -> Evaluation:
        evaluation = Evaluation(
            configuration=dict(configuration),
            objective=self.objective.from_runtime(runtime),
            runtime=float(runtime) if runtime is not None else float("nan"),
            submitted=float(submitted),
            completed=float(completed),
            worker=int(worker),
            eval_id=len(self.evaluations),
        )
        self.append(evaluation)
        return evaluation

    def objectives(self) -> np.ndarray:
        return np.asarray([ev.objective for ev in self.evaluations], dtype=float)

    def incumbent_trajectory(self) -> List[Tuple[float, float]]:
        points: List[Tuple[float, float]] = []
        best = float("inf")
        for ev in sorted(self.evaluations, key=lambda e: e.completed):
            if ev.failed:
                continue
            if ev.runtime < best:
                best = ev.runtime
                points.append((ev.completed, best))
        return points

    def best_runtime_at(self, time: float) -> float:
        runtimes = np.asarray([ev.runtime for ev in self.evaluations], dtype=float)
        completed = np.asarray([ev.completed for ev in self.evaluations], dtype=float)
        known = np.isfinite(runtimes) & (completed <= time)
        if not np.any(known):
            return float("inf")
        return float(np.min(runtimes[known]))

    def top_quantile(self, q: float) -> List[Configuration]:
        ok = [ev for ev in self.evaluations if not ev.failed]
        if not ok:
            return []
        objectives = np.asarray([ev.objective for ev in ok], dtype=float)
        threshold = np.quantile(objectives, 1.0 - q)
        selected = [ev.configuration for ev in ok if ev.objective >= threshold]
        if not selected:
            selected = [max(ok, key=lambda ev: ev.objective).configuration]
        return selected
