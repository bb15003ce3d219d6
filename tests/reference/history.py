"""Row-major reference implementation of the search history.

The columnar :class:`~repro.core.history.SearchHistory` replaced a list of
:class:`~repro.core.history.Evaluation` dataclasses with per-row derived
views, and then stored each parameter as its word instead of its value.
This module preserves the original per-row algorithms verbatim — the same
role the ``*_loop`` codecs of :mod:`reference.space` and the recursive
builder of :mod:`reference.random_forest` play: a ground truth for the
property-based equivalence tests (``tests/core/test_history_columnar.py``
and ``tests/core/test_history_storage.py``).

:func:`pack_rows` is the value encoder the campaign journal used while the
history stored Python values: it packs ``rows.bin`` records from the
evaluations themselves, looking every discrete value up in its domain.

Historical semantics worth preserving exactly:

* :meth:`RowHistoryReference.incumbent_trajectory` skips *failed*
  evaluations (non-finite objective), even when a finite runtime was
  recorded (e.g. ``runtime=0``);
* :meth:`RowHistoryReference.best_runtime_at` instead considers every
  finite runtime, failed or not.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.history import Evaluation
from repro.core.objective import Objective
from repro.core.space import Configuration, IntegerParameter, RealParameter, SearchSpace

__all__ = ["RowHistoryReference", "pack_rows"]

#: The metadata words that open every ``rows.bin`` record.
_META = (
    ("objective", "<f8"),
    ("runtime", "<f8"),
    ("submitted", "<f8"),
    ("completed", "<f8"),
    ("worker", "<i8"),
    ("eval_id", "<i8"),
)


def _object_column(values) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def pack_rows(space: SearchSpace, evaluations: Sequence[Evaluation]) -> bytes:
    """The ``rows.bin`` block of ``evaluations``, encoded from their values.

    Reals are cast to ``float64`` and integers to ``int64``; a categorical or
    ordinal value is replaced by the index of the first domain value it
    compares equal to.
    """
    words = []
    for i, p in enumerate(space):
        values = [ev.configuration[p.name] for ev in evaluations]
        if isinstance(p, RealParameter):
            words.append((f"p{i}", "<f8", np.asarray(_object_column(values), dtype="<f8")))
        elif isinstance(p, IntegerParameter):
            words.append((f"p{i}", "<i8", np.asarray(_object_column(values), dtype="<i8")))
        else:
            domain = p._domain
            index = [next(j for j, v in enumerate(domain) if value == v) for value in values]
            words.append((f"p{i}", "<i8", np.asarray(index, dtype="<i8")))
    dtype = np.dtype(list(_META) + [(name, code) for name, code, _ in words])
    block = np.empty(len(evaluations), dtype=dtype)
    for name, _ in _META:
        block[name] = [getattr(ev, name) for ev in evaluations]
    for name, _, column in words:
        block[name] = column
    return block.tobytes()


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

    def top_k(self, k: int) -> List[Configuration]:
        """The ``k`` best successful configurations, best first (ties in
        insertion order)."""
        ok = [(ev.objective, i, ev) for i, ev in enumerate(self.evaluations) if not ev.failed]
        ok.sort(key=lambda item: (-item[0], item[1]))
        return [ev.configuration for _, _, ev in ok[:k]]

    def parameter_column(self, name: str) -> np.ndarray:
        return _object_column([ev.configuration[name] for ev in self.evaluations])

    def to_csv(self) -> str:
        """The row-by-row ``DictWriter`` serialisation of the evaluations."""
        buffer = io.StringIO()
        names = list(self.space.parameter_names)
        meta = ["eval_id", "worker", "submitted", "completed", "runtime", "objective"]
        writer = csv.DictWriter(buffer, fieldnames=meta + names)
        writer.writeheader()
        for ev in self.evaluations:
            row = {
                "eval_id": ev.eval_id,
                "worker": ev.worker,
                "submitted": f"{ev.submitted:.6f}",
                "completed": f"{ev.completed:.6f}",
                "runtime": f"{ev.runtime:.6f}" if math.isfinite(ev.runtime) else "nan",
                "objective": f"{ev.objective:.6f}" if math.isfinite(ev.objective) else "nan",
            }
            row.update({name: ev.configuration[name] for name in names})
            writer.writerow(row)
        return buffer.getvalue()
