"""Search history: the record of every evaluation of an autotuning run.

The history is the central data structure of the reproduction: the paper's
figures are all computed from per-evaluation CSV files (timestamps, the
evaluated configuration, the measured objective), and transfer learning
consumes the history of a *previous* run (Algorithm 1's ``H_p``).

Storage is **columnar** (structure of arrays): the per-evaluation metadata
(objective, runtime, submitted, completed, worker, eval_id) lives in
append-only NumPy buffers, and every parameter of the owning
:class:`~repro.core.space.SearchSpace` has one column of stored *words*
(:func:`~repro.core.space.word_dtype`): ``float64`` for a real parameter,
``int64`` for an integer parameter and the ``int64`` domain index for a
categorical or ordinal parameter.  :meth:`SearchHistory.append` converts
each value to its word once and rejects what has none: a missing or extra
key, a non-integral integer, a discrete value outside its domain.  The words
are what the campaign journal's ``rows.bin`` holds, and
:meth:`SearchHistory.sheet` hands rows out as a
:class:`~repro.core.space.ColumnBatch` with no lookup, so the journal, the
optimizer's tells and the transfer-learning top sets read them as they are.

Python values are built only at the edges: :class:`Evaluation` views
(``history[i]``, iteration, :attr:`SearchHistory.evaluations`,
:meth:`SearchHistory.successful`), :meth:`SearchHistory.configurations`,
:meth:`SearchHistory.parameter_column` and the CSV text.  A real parameter
reads back as a ``float``, an integer parameter as an ``int``, and a
discrete parameter as its domain's own object.  Every derived view
(:meth:`SearchHistory.objectives`, :meth:`SearchHistory.incumbent_trajectory`,
:meth:`SearchHistory.top_quantile`, :meth:`SearchHistory.best_runtime_at`) is
a vectorised column operation.

Histories normally own their buffers, but :meth:`SearchHistory.from_columns`
builds a **read-only zero-copy view** over externally owned column arrays —
the campaign journal's memory-mapped records
(:class:`repro.core.journal.JournalReader`), metadata and parameter fields
alike.  :meth:`SearchHistory.copy` thaws the view into an ordinary mutable
history.

:class:`SearchHistory` supports:

* appending :class:`Evaluation` records as the asynchronous search completes
  them,
* the incumbent trajectory (best objective / run time as a function of search
  time) that Fig. 3 plots,
* selection of the top-q% configurations used by the VAE transfer prior (both
  as dicts and as a columnar batch), and
* CSV round-tripping compatible with a "one row per evaluation" layout, with
  cell values parsed back against each parameter's declared type.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.arrays import grow_buffer as _grow
from repro.core.ioutil import atomic_write_text
from repro.core.objective import Objective
from repro.core.space import (
    ColumnBatch,
    Configuration,
    IntegerParameter,
    Parameter,
    RealParameter,
    SearchSpace,
    word_dtype,
)

__all__ = ["Evaluation", "SearchHistory"]


@dataclass(frozen=True)
class Evaluation:
    """One completed evaluation.

    Attributes
    ----------
    configuration:
        The evaluated configuration.
    objective:
        The maximised objective value (NaN for failed evaluations).
    runtime:
        The measured workflow run time in seconds (NaN for failures).
    submitted:
        Search time at which the evaluation was submitted to a worker.
    completed:
        Search time at which the result became available.
    worker:
        Identifier of the worker that ran the evaluation.
    eval_id:
        Monotonically increasing identifier within the run.
    """

    configuration: Configuration
    objective: float
    runtime: float
    submitted: float
    completed: float
    worker: int = 0
    eval_id: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock duration of the evaluation (search-time units)."""
        return self.completed - self.submitted

    @property
    def failed(self) -> bool:
        """True when the evaluation produced no valid objective."""
        return not math.isfinite(self.objective)


class SearchHistory:
    """An append-only columnar record of evaluations plus derived views.

    Parameters
    ----------
    space:
        The search space the evaluations belong to (defines the parameter
        columns, the CSV layout and the transfer-learning interface).
    objective:
        The objective transform (used to convert between objective and
        run-time space).
    """

    def __init__(self, space: SearchSpace, objective: Optional[Objective] = None):
        self.space = space
        self.objective = objective or Objective()
        self._n = 0
        self._capacity = 0
        # Read-only views (journal-backed) reject mutation; see from_columns.
        self._read_only = False
        # Metadata columns (append-only, capacity-doubling).
        self._objective_buf = np.empty(0, dtype=float)
        self._runtime_buf = np.empty(0, dtype=float)
        self._submitted_buf = np.empty(0, dtype=float)
        self._completed_buf = np.empty(0, dtype=float)
        self._worker_buf = np.empty(0, dtype=np.int64)
        self._eval_id_buf = np.empty(0, dtype=np.int64)
        # One column of stored words per parameter, in space order.
        self._columns: Dict[str, np.ndarray] = {
            p.name: np.empty(0, dtype=word_dtype(p)) for p in space
        }
        # Derived-array caches, invalidated on every append.  The search loop
        # and the analysis layer call objectives()/runtimes() once per
        # completion batch; the cached copies are detached from the buffers so
        # arrays handed out earlier never change under the caller.
        self._objectives_cache: Optional[np.ndarray] = None
        self._runtimes_cache: Optional[np.ndarray] = None
        self._completed_cache: Optional[np.ndarray] = None
        self._submitted_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------ zero-copy views
    @classmethod
    def from_columns(
        cls,
        space: SearchSpace,
        meta_columns: Dict[str, np.ndarray],
        param_columns: Dict[str, np.ndarray],
        objective: Optional[Objective] = None,
    ) -> "SearchHistory":
        """A read-only history over externally owned column arrays (zero-copy).

        ``meta_columns`` supplies the six metadata columns (``objective``,
        ``runtime``, ``submitted``, ``completed``, ``worker``, ``eval_id``)
        and ``param_columns`` one column of stored words per parameter, all
        of equal length — typically field views of a campaign journal's
        mapped records — which become the history's buffers *without
        copying*.

        The view rejects :meth:`append`; :meth:`copy` /:meth:`truncated`
        return ordinary mutable histories (the thaw escape hatch).
        """
        n = int(np.asarray(meta_columns["objective"]).shape[0])
        for name, column in meta_columns.items():
            if column.shape[0] != n:
                raise ValueError(
                    f"metadata column {name!r} has {column.shape[0]} rows, "
                    f"expected {n}"
                )
        history = cls(space, objective=objective)
        for p in space:
            if p.name not in param_columns:
                raise ValueError(f"missing column for parameter {p.name!r}")
            column = param_columns[p.name]
            if column.shape != (n,) or column.dtype != word_dtype(p):
                raise ValueError(
                    f"column {p.name!r} must hold {n} words of dtype "
                    f"{word_dtype(p)}, got {column.shape} {column.dtype}"
                )
            history._columns[p.name] = column
        history._n = n
        history._capacity = n
        history._objective_buf = meta_columns["objective"]
        history._runtime_buf = meta_columns["runtime"]
        history._submitted_buf = meta_columns["submitted"]
        history._completed_buf = meta_columns["completed"]
        history._worker_buf = meta_columns["worker"]
        history._eval_id_buf = meta_columns["eval_id"]
        history._read_only = True
        return history

    @property
    def read_only(self) -> bool:
        """Whether this history is an immutable zero-copy view (no appends)."""
        return self._read_only

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Evaluation]:
        return iter(self.evaluations)

    def __getitem__(self, idx: Union[int, slice]) -> Union[Evaluation, List[Evaluation]]:
        n = self._n
        if isinstance(idx, slice):
            return self._evaluations_at(np.arange(n)[idx])
        idx = int(idx)
        if idx < 0:
            idx += n
        if not (0 <= idx < n):
            raise IndexError("evaluation index out of range")
        return self._materialize(idx)

    # --------------------------------------------------------------- mutation
    def _ensure_row_capacity(self, needed: int) -> None:
        """Grow every column buffer at once (a single capacity governs all)."""
        if needed <= self._capacity:
            return
        self._objective_buf = _grow(self._objective_buf, needed)
        self._runtime_buf = _grow(self._runtime_buf, needed)
        self._submitted_buf = _grow(self._submitted_buf, needed)
        self._completed_buf = _grow(self._completed_buf, needed)
        self._worker_buf = _grow(self._worker_buf, needed)
        self._eval_id_buf = _grow(self._eval_id_buf, needed)
        for name, column in self._columns.items():
            self._columns[name] = _grow(column, needed)
        self._capacity = self._objective_buf.shape[0]

    def append(self, evaluation: Evaluation) -> None:
        """Append one completed evaluation (decomposed into the columns).

        Each parameter value becomes its stored word here, once; a
        configuration with missing or extra keys, or a value without a word
        (:meth:`~repro.core.space.SearchSpace.to_words`), raises
        ``ValueError`` and appends nothing.
        """
        if self._read_only:
            raise TypeError(
                "this SearchHistory is a read-only journal view; "
                "copy() it to obtain a mutable history"
            )
        words = self.space.to_words(evaluation.configuration)
        i = self._n
        self._ensure_row_capacity(i + 1)
        self._objective_buf[i] = float(evaluation.objective)
        self._runtime_buf[i] = float(evaluation.runtime)
        self._submitted_buf[i] = float(evaluation.submitted)
        self._completed_buf[i] = float(evaluation.completed)
        self._worker_buf[i] = int(evaluation.worker)
        self._eval_id_buf[i] = int(evaluation.eval_id)
        for column, word in zip(self._columns.values(), words):
            column[i] = word
        self._n = i + 1
        self._objectives_cache = None
        self._runtimes_cache = None
        self._completed_cache = None
        self._submitted_cache = None

    def extend(self, evaluations: Iterable[Evaluation]) -> None:
        """Append several completed evaluations."""
        for ev in evaluations:
            self.append(ev)

    def record(
        self,
        configuration: Configuration,
        runtime: float,
        submitted: float,
        completed: float,
        worker: int = 0,
    ) -> Evaluation:
        """Create, append and return an :class:`Evaluation` from a run time.

        The returned evaluation holds ``configuration`` as given; the history
        keeps its words (:meth:`append`), so ``history[-1]`` reads it back
        with canonical types.
        """
        evaluation = Evaluation(
            configuration=dict(configuration),
            objective=self.objective.from_runtime(runtime),
            runtime=float(runtime) if runtime is not None else float("nan"),
            submitted=float(submitted),
            completed=float(completed),
            worker=int(worker),
            eval_id=self._n,
        )
        self.append(evaluation)
        return evaluation

    # -------------------------------------------------------- materialisation
    def _evaluations_at(self, rows: np.ndarray) -> List[Evaluation]:
        """:class:`Evaluation` views of ``rows``, built column by column."""
        configs = self.sheet().take(rows).to_configurations()
        meta = [
            buf[rows].tolist()
            for buf in (
                self._objective_buf,
                self._runtime_buf,
                self._submitted_buf,
                self._completed_buf,
                self._worker_buf,
                self._eval_id_buf,
            )
        ]
        return [Evaluation(config, *fields) for config, *fields in zip(configs, *meta)]

    def _materialize(self, i: int) -> Evaluation:
        """Materialise row ``i`` as an :class:`Evaluation` view."""
        return self._evaluations_at(np.array([i], dtype=np.intp))[0]

    # ------------------------------------------------------------------ views
    @property
    def evaluations(self) -> Tuple[Evaluation, ...]:
        """All evaluations, in completion order of insertion."""
        return tuple(self._evaluations_at(np.arange(self._n)))

    def successful(self) -> List[Evaluation]:
        """Evaluations with a finite objective."""
        return self._evaluations_at(np.flatnonzero(np.isfinite(self._objective_buf[: self._n])))

    def num_failures(self) -> int:
        """Number of failed (NaN) evaluations."""
        return int(np.count_nonzero(~np.isfinite(self._objective_buf[: self._n])))

    def configurations(self) -> List[Configuration]:
        """All evaluated configurations."""
        return self.sheet().to_configurations()

    def _meta_column(self, cache_name: str, buf: np.ndarray) -> np.ndarray:
        cached = getattr(self, cache_name)
        if cached is None:
            # Read-only views never append, so handing out the underlying
            # (memory-mapped) column directly is safe — that zero-copy slice
            # is the whole point of the journal-backed analysis path.
            cached = buf[: self._n] if self._read_only else buf[: self._n].copy()
            cached.setflags(write=False)
            setattr(self, cache_name, cached)
        return cached

    def objectives(self) -> np.ndarray:
        """Objective values as an array (NaN for failures).

        The array is cached until the next append and returned read-only.
        """
        return self._meta_column("_objectives_cache", self._objective_buf)

    def runtimes(self) -> np.ndarray:
        """Measured run times as an array (NaN for failures).

        The array is cached until the next append and returned read-only.
        """
        return self._meta_column("_runtimes_cache", self._runtime_buf)

    def submitted_times(self) -> np.ndarray:
        """Submission times as an array (cached, read-only)."""
        return self._meta_column("_submitted_cache", self._submitted_buf)

    def completed_times(self) -> np.ndarray:
        """Completion times as an array (cached, read-only)."""
        return self._meta_column("_completed_cache", self._completed_buf)

    def workers(self) -> np.ndarray:
        """Worker identifiers as an array."""
        return self._worker_buf[: self._n].copy()

    def eval_ids(self) -> np.ndarray:
        """Evaluation identifiers as an array."""
        return self._eval_id_buf[: self._n].copy()

    def parameter_column(self, name: str) -> np.ndarray:
        """The values of parameter ``name`` (an object-dtype copy).

        Real values are ``float``, integer values ``int`` and discrete values
        the domain's own objects.
        """
        if name not in self._columns:
            raise KeyError(f"unknown parameter {name!r}")
        return self.sheet().values(name).astype(object)

    def best(self) -> Optional[Evaluation]:
        """The evaluation with the highest objective (None if all failed)."""
        obj = self._objective_buf[: self._n]
        finite = np.flatnonzero(np.isfinite(obj))
        if finite.size == 0:
            return None
        # argmax returns the first maximum, matching max() over insertion order.
        return self._materialize(int(finite[np.argmax(obj[finite])]))

    def best_runtime(self) -> float:
        """Run time of the best configuration found (NaN if none succeeded).

        Computed straight off the objective/runtime columns — unlike
        :meth:`best` no configuration is materialised, so metric sweeps over
        journal-backed views never trigger parameter decoding.
        """
        obj = self._objective_buf[: self._n]
        finite = np.flatnonzero(np.isfinite(obj))
        if finite.size == 0:
            return float("nan")
        return float(self._runtime_buf[: self._n][finite[np.argmax(obj[finite])]])

    def _trajectory_arrays(self, require_objective: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Incumbent (completion_time, best_runtime) points as arrays.

        ``require_objective`` selects which evaluations count: the incumbent
        trajectory skips *failed* evaluations (non-finite objective, even when
        a finite runtime was recorded — e.g. ``runtime=0``), whereas
        :meth:`best_runtime_at` historically considered every finite runtime.
        """
        n = self._n
        if n == 0:
            return np.empty(0), np.empty(0)
        completed = self._completed_buf[:n]
        runtimes = self._runtime_buf[:n]
        # Stable sort matches sorted(..., key=completed) on ties.
        order = np.argsort(completed, kind="stable")
        rt = runtimes[order]
        ct = completed[order]
        ok = np.isfinite(rt)
        if require_objective:
            ok &= np.isfinite(self._objective_buf[:n][order])
        rt, ct = rt[ok], ct[ok]
        if rt.size == 0:
            return np.empty(0), np.empty(0)
        running = np.minimum.accumulate(rt)
        keep = np.empty(rt.size, dtype=bool)
        keep[0] = True
        keep[1:] = running[1:] < running[:-1]
        return ct[keep], running[keep]

    def incumbent_trajectory(self) -> List[Tuple[float, float]]:
        """Best run time as a function of search time.

        Returns a list of ``(completion_time, best_runtime_so_far)`` points,
        one per successful evaluation that improved the incumbent — the series
        plotted in Fig. 3.
        """
        times, values = self._trajectory_arrays(require_objective=True)
        return list(zip(times.tolist(), values.tolist()))

    def incumbent_at(self, times: Union[float, np.ndarray]) -> np.ndarray:
        """Best run time known at each of ``times`` (vectorised).

        Entries before the first finite runtime are ``inf``, matching
        :meth:`best_runtime_at` (which considers every finite runtime, failed
        or not); a whole time grid is resolved with one ``searchsorted``
        instead of one linear scan per grid point.
        """
        grid = np.atleast_1d(np.asarray(times, dtype=float))
        t, v = self._trajectory_arrays(require_objective=False)
        if t.size == 0:
            return np.full(grid.shape, float("inf"))
        pos = np.searchsorted(t, grid, side="right") - 1
        return np.where(pos >= 0, v[np.clip(pos, 0, None)], float("inf"))

    def best_runtime_at(self, time: float) -> float:
        """Best run time known at a given search time (inf if none yet)."""
        if self._n == 0:
            return float("inf")
        return float(self.incumbent_at(float(time))[0])

    # ------------------------------------------------------ transfer learning
    def _top_quantile_indices(self, q: float) -> np.ndarray:
        """Row indices of the top-``q`` fraction by objective (insertion order)."""
        if not (0.0 < q <= 1.0):
            raise ValueError("q must be in (0, 1]")
        obj = self._objective_buf[: self._n]
        finite = np.isfinite(obj)
        if not finite.any():
            return np.empty(0, dtype=np.intp)
        threshold = np.quantile(obj[finite], 1.0 - q)
        selected = np.flatnonzero(finite & (obj >= threshold))
        if selected.size == 0:
            # Always return at least one configuration (the best one).
            finite_idx = np.flatnonzero(finite)
            selected = finite_idx[[int(np.argmax(obj[finite_idx]))]]
        return selected

    def top_quantile(self, q: float = 0.10) -> List[Configuration]:
        """Configurations in the top ``q`` fraction by objective (Algorithm 1, l.1).

        Parameters
        ----------
        q:
            Fraction of successful evaluations to keep, in (0, 1].
        """
        return self.top_quantile_columns(q).to_configurations()

    def top_quantile_columns(self, q: float = 0.10) -> ColumnBatch:
        """The top-``q`` configurations as a columnar batch (Algorithm 1, l.1).

        This is the hot-path variant of :meth:`top_quantile` used by the
        transfer-learning ``H_p`` ingestion: the selection happens on the
        objective column and the rows are taken from :meth:`sheet`, without
        materialising one dict per historical evaluation.
        """
        return self.sheet().take(self._top_quantile_indices(q))

    def top_k_columns(self, k: int) -> ColumnBatch:
        """The ``k`` best successful configurations as a columnar batch.

        Selection happens on the objective column (descending, ties broken by
        insertion order); fewer than ``k`` successes return them all.  This
        is the fixed-size sibling of :meth:`top_quantile_columns` used by the
        periodic prior-refresh scenario: a fixed ``k`` keeps the VAE training
        matrices of a whole campaign fleet the same shape, so their refits
        can be fused into one :class:`~repro.core.vae.tvae.VAEFleet` pass.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        obj = self._objective_buf[: self._n]
        finite = np.flatnonzero(np.isfinite(obj))
        # Descending stable sort: negating keeps equal objectives in
        # insertion order, matching a sequential "best so far" scan.
        order = np.argsort(-obj[finite], kind="stable")
        return self.sheet().take(finite[order[:k]])

    def sheet(self, start: int = 0, stop: Optional[int] = None) -> ColumnBatch:
        """Rows ``[start, stop)`` as a sheet of the stored words (no lookup).

        The columns are *views* into the live buffers — consume them before
        the next append (a capacity-doubling growth would reallocate
        underneath them) or :meth:`~repro.core.space.ColumnBatch.take` the
        rows to keep.
        """
        stop = self._n if stop is None else min(int(stop), self._n)
        start = min(max(0, int(start)), stop)
        return ColumnBatch._trusted(
            self.space,
            {name: column[start:stop] for name, column in self._columns.items()},
            stop - start,
        )

    # ------------------------------------------------------------------- copy
    def copy(self) -> "SearchHistory":
        """An independent snapshot of this history (buffers copied).

        Appending to either history afterwards leaves the other untouched.
        """
        return self.truncated(self._n)

    def truncated(self, n: int) -> "SearchHistory":
        """An independent copy holding only the first ``n`` evaluations.

        The campaign journal replays prior refreshes against the exact
        history prefix each refresh originally saw; a truncated copy is that
        prefix without mutating the live history.
        """
        if not 0 <= n <= self._n:
            raise ValueError(f"cannot truncate {self._n} rows to {n}")
        clone = SearchHistory(self.space, objective=self.objective)
        clone._n = n
        clone._capacity = n
        clone._objective_buf = self._objective_buf[:n].copy()
        clone._runtime_buf = self._runtime_buf[:n].copy()
        clone._submitted_buf = self._submitted_buf[:n].copy()
        clone._completed_buf = self._completed_buf[:n].copy()
        clone._worker_buf = self._worker_buf[:n].copy()
        clone._eval_id_buf = self._eval_id_buf[:n].copy()
        clone._columns = {name: column[:n].copy() for name, column in self._columns.items()}
        return clone

    # -------------------------------------------------------------------- csv
    CSV_META_COLUMNS = ("eval_id", "worker", "submitted", "completed", "runtime", "objective")

    def to_csv(self, path: Union[str, Path, None] = None) -> str:
        """Serialise the history to CSV (one row per evaluation).

        Returns the CSV text; when ``path`` is given the text is also written
        to that file.
        """
        buffer = io.StringIO()
        names = list(self.space.parameter_names)
        fieldnames = list(self.CSV_META_COLUMNS) + names
        writer = csv.writer(buffer)
        writer.writerow(fieldnames)
        n = self._n
        # Column-wise formatting: each metadata column is formatted once, then
        # rows are emitted by zipping the formatted columns together.
        eval_ids = self._eval_id_buf[:n].tolist()
        workers = self._worker_buf[:n].tolist()
        submitted = [f"{t:.6f}" for t in self._submitted_buf[:n]]
        completed = [f"{t:.6f}" for t in self._completed_buf[:n]]
        runtimes = [
            f"{t:.6f}" if math.isfinite(t) else "nan" for t in self._runtime_buf[:n]
        ]
        objectives = [
            f"{t:.6f}" if math.isfinite(t) else "nan" for t in self._objective_buf[:n]
        ]
        sheet = self.sheet()
        value_columns = [sheet.values(name).tolist() for name in names]
        for row in zip(
            eval_ids, workers, submitted, completed, runtimes, objectives, *value_columns
        ):
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            # Crash-safe write: a process killed mid-write must not leave a
            # torn CSV for a later load to parse.
            atomic_write_text(path, text)
        return text

    @classmethod
    def from_csv(
        cls,
        source: Union[str, Path],
        space: SearchSpace,
        objective: Optional[Objective] = None,
    ) -> "SearchHistory":
        """Load a history from CSV text or a CSV file path.

        Parameter cells are parsed against the owning parameter's declared
        type (see :func:`_parse_typed`), so an integer parameter's ``"1e3"``
        loads as ``1000`` and a *string* category ``"True"`` stays a string
        instead of being guessed into a bool.  A cell that does not parse
        raises ``ValueError`` naming its row and column.
        """
        text = source
        if isinstance(source, Path) or (
            isinstance(source, str) and "\n" not in source and Path(source).exists()
        ):
            text = Path(source).read_text()
        history = cls(space, objective=objective)
        reader = csv.DictReader(io.StringIO(str(text)))
        for index, row in enumerate(reader):
            config = {}
            for param in space:
                raw = row[param.name]
                try:
                    config[param.name] = _parse_typed(raw, param)
                except ValueError as error:
                    raise ValueError(
                        f"CSV row {index} (line {reader.line_num}), column "
                        f"{param.name!r}: {error}"
                    ) from None
            history.append(
                Evaluation(
                    configuration=config,
                    objective=float(row["objective"]),
                    runtime=float(row["runtime"]),
                    submitted=float(row["submitted"]),
                    completed=float(row["completed"]),
                    worker=int(row["worker"]),
                    eval_id=int(row["eval_id"]),
                )
            )
        return history


def _parse_typed(raw: str, param: Parameter):
    """Parse a CSV cell against the declared type of its parameter.

    * real parameters parse as ``float``;
    * integer parameters parse as ``int`` (scientific notation like ``"1e3"``
      is accepted when the number is integral);
    * categorical/ordinal parameters are matched against the string form of
      their domain values, so a string category ``"True"`` is returned as the
      string while a boolean category parses back to ``True``.

    A cell that does not parse raises ``ValueError``.
    """
    if raw is None:
        raise ValueError("the cell is missing")
    text = raw.strip()
    if isinstance(param, RealParameter):
        return float(text)
    if isinstance(param, IntegerParameter):
        try:
            return int(text)
        except ValueError:
            value = float(text)
            if not value.is_integer():
                raise ValueError(f"{raw!r} is not an integer") from None
            return int(value)
    lookup = getattr(param, "_csv_lookup_cache", None)
    if lookup is None:
        lookup = {}
        for value in getattr(param, "_domain", ()):
            lookup.setdefault(str(value), value)
        param._csv_lookup_cache = lookup
    if text not in lookup:
        raise ValueError(f"{raw!r} is not a value of {param.name}")
    return lookup[text]
