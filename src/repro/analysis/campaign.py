"""Campaign runner: repeated searches and paper-style aggregation.

The paper repeats every experiment 5 times and reports the mean with min/max
error bars.  This module provides:

* :func:`run_repeated_search` — run one (setup, method) combination several
  times with different seeds and collect the per-repetition
  :class:`~repro.core.search.SearchResult`;
* :class:`CampaignResult` / :class:`AggregatedMetrics` — the aggregation used
  by the Fig. 3/4/5 benchmarks (best configuration, mean best, number of
  evaluations, worker utilisation, search speedup, incumbent trajectories);
* :func:`run_transfer_chain` — the paper's transfer-learning protocol: tune a
  setup, then use its history as the source for the next setup in the chain
  (11p → 16p → 20p → 8 nodes → 16 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.history import SearchHistory
from repro.core.search import CBOSearch, SearchResult, VAEABOSearch
from repro.core.space import SearchSpace
from repro.analysis.metrics import (
    best_runtime,
    mean_best_runtime,
    search_speedup,
)

__all__ = [
    "AggregatedMetrics",
    "CampaignResult",
    "result_from_history",
    "run_repeated_search",
    "run_transfer_chain",
    "aggregate_trajectories",
]

RunFunction = Callable[[dict], float]


def result_from_history(
    history: SearchHistory,
    max_time: float,
    num_workers: int,
    busy_intervals: Optional[List[Tuple[float, float]]] = None,
    worker_utilization: Optional[float] = None,
) -> SearchResult:
    """Rebuild a :class:`~repro.core.search.SearchResult` from a stored history.

    The shared reconstruction used by every load path (CSV directories,
    journal directories, :class:`~repro.analysis.store.CampaignStore`):
    best configuration/runtime come from the history, busy intervals default
    to the evaluations' own ``(submitted, completed)`` windows, and the
    utilisation — when not recorded — is recomputed from those intervals
    clipped to the budget (the same definition the live evaluator uses).
    Caller-provided ``busy_intervals`` are stored as given — every load path
    hands over ``(float, float)`` pairs already, so re-normalising them here
    would cost a per-row pass per campaign for nothing.
    """
    best = history.best()
    if busy_intervals is None:
        busy_intervals = list(
            zip(
                history.submitted_times().tolist(),
                history.completed_times().tolist(),
            )
        )
    if worker_utilization is None:
        if max_time > 0 and num_workers >= 1:
            busy = sum(
                max(0.0, min(float(end), max_time) - min(float(start), max_time))
                for start, end in busy_intervals
                if np.isfinite(end)
            )
            worker_utilization = busy / (num_workers * max_time)
        else:
            worker_utilization = float("nan")
    return SearchResult(
        history=history,
        best_configuration=best.configuration if best else None,
        best_runtime=best.runtime if best else float("nan"),
        best_objective=best.objective if best else float("nan"),
        num_evaluations=len(history),
        worker_utilization=float(worker_utilization),
        search_time=float(max_time),
        num_workers=int(num_workers),
        busy_intervals=list(busy_intervals),
    )


@dataclass(frozen=True)
class AggregatedMetrics:
    """Mean / min / max of one metric over the repetitions."""

    mean: float
    min: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "AggregatedMetrics":
        """Aggregate a sequence (NaN values are ignored; all-NaN gives NaN)."""
        arr = np.asarray(list(values), dtype=float)
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return cls(float("nan"), float("nan"), float("nan"))
        return cls(float(finite.mean()), float(finite.min()), float(finite.max()))


@dataclass
class CampaignResult:
    """All repetitions of one (setup, method) combination."""

    label: str
    setup: str
    max_time: float
    num_workers: int
    results: List[SearchResult] = field(default_factory=list)

    # ------------------------------------------------------------- aggregates
    def best(self) -> AggregatedMetrics:
        """Best-configuration run time across repetitions (Fig. 4a / 5a)."""
        return AggregatedMetrics.from_values([best_runtime(r) for r in self.results])

    def mean_best(self) -> AggregatedMetrics:
        """Mean best-configuration run time across repetitions (Fig. 4b / 5b)."""
        return AggregatedMetrics.from_values(
            [mean_best_runtime(r, self.max_time) for r in self.results]
        )

    def evaluations(self) -> AggregatedMetrics:
        """Number of evaluations across repetitions (Fig. 4c / 5c)."""
        return AggregatedMetrics.from_values([r.num_evaluations for r in self.results])

    def utilization(self) -> AggregatedMetrics:
        """Worker utilisation across repetitions (Fig. 4d)."""
        return AggregatedMetrics.from_values(
            [r.worker_utilization for r in self.results]
        )

    def speedup_over(self, random_campaign: "CampaignResult") -> AggregatedMetrics:
        """Search speedup relative to a random-sampling campaign (Fig. 4e).

        Following the paper, the random baseline's best run time is averaged
        over its repetitions before computing each repetition's speedup.
        """
        baseline = random_campaign.best().mean
        return AggregatedMetrics.from_values(
            [search_speedup(r, baseline, self.max_time) for r in self.results]
        )

    def histories(self) -> List[SearchHistory]:
        """The per-repetition histories."""
        return [r.history for r in self.results]

    def trajectory(self, num_points: int = 120) -> Dict[str, np.ndarray]:
        """Mean/min/max incumbent trajectory on a regular time grid (Fig. 3)."""
        return aggregate_trajectories(self.results, self.max_time, num_points)

    def incumbent_at(self, times: Sequence[float]) -> np.ndarray:
        """Best-known run time of every repetition at every sample time.

        Returns a ``(repetitions, len(times))`` matrix; each repetition's row
        is resolved with a single vectorised
        :meth:`~repro.core.history.SearchHistory.incumbent_at` call over the
        whole grid (times clipped to the campaign budget, entries before the
        first success are ``inf``) instead of one per-row
        ``best_runtime_at`` scan per (repetition, time) pair — the columnar
        path the Fig. 3 convergence benchmarks aggregate from.
        """
        grid = np.minimum(np.asarray(times, dtype=float), self.max_time)
        return np.asarray(
            [r.history.incumbent_at(grid) for r in self.results], dtype=float
        ).reshape(len(self.results), grid.shape[0])


def aggregate_trajectories(
    results: Sequence[SearchResult],
    max_time: float,
    num_points: int = 120,
) -> Dict[str, np.ndarray]:
    """Aggregate incumbent trajectories over repetitions.

    Returns a dict with keys ``time``, ``mean``, ``min``, ``max``; times before
    a repetition's first successful evaluation contribute NaN (ignored by the
    nan-aware aggregation).

    Each repetition's curve is resolved in one vectorised
    :meth:`~repro.core.history.SearchHistory.incumbent_at` call over the whole
    grid (a ``searchsorted`` against the incumbent trajectory) instead of one
    linear history scan per grid point.
    """
    grid = np.linspace(0.0, max_time, num_points)
    curves = []
    for result in results:
        values = result.history.incumbent_at(grid)
        curves.append(np.where(np.isfinite(values), values, np.nan))
    arr = np.asarray(curves, dtype=float)
    with np.errstate(all="ignore"):
        return {
            "time": grid,
            "mean": np.nanmean(arr, axis=0),
            "min": np.nanmin(arr, axis=0),
            "max": np.nanmax(arr, axis=0),
        }


def run_repeated_search(
    space: SearchSpace,
    run_function: RunFunction,
    label: str,
    setup: str = "",
    surrogate: str = "RF",
    source_history: Optional[SearchHistory] = None,
    repetitions: int = 5,
    max_time: float = 3600.0,
    num_workers: int = 128,
    random_sampling: bool = False,
    refit_interval: int = 1,
    quantile: float = 0.10,
    vae_epochs: int = 300,
    seed: int = 0,
    search_kwargs: Optional[dict] = None,
) -> CampaignResult:
    """Run one (setup, method) combination ``repetitions`` times.

    Parameters mirror :class:`~repro.core.search.CBOSearch` /
    :class:`~repro.core.search.VAEABOSearch`; ``source_history`` switches the
    method to VAE-ABO transfer learning.  Repetition ``rep`` uses seed
    ``seed + 1000 * rep``, and the repetitions run one after another, each
    through :meth:`~repro.core.search.CBOSearch.run`.  To advance several
    campaigns together, hand their searches to a
    :class:`~repro.service.CampaignRunner`.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    campaign = CampaignResult(
        label=label, setup=setup, max_time=max_time, num_workers=num_workers
    )
    extra = dict(search_kwargs or {})
    searches: List[CBOSearch] = []
    for rep in range(repetitions):
        rep_seed = seed + 1000 * rep
        if source_history is not None:
            search: CBOSearch = VAEABOSearch(
                space,
                run_function,
                source_history=source_history,
                quantile=quantile,
                vae_epochs=vae_epochs,
                num_workers=num_workers,
                surrogate=surrogate,
                random_sampling=random_sampling,
                refit_interval=refit_interval,
                seed=rep_seed,
                **extra,
            )
        else:
            search = CBOSearch(
                space,
                run_function,
                num_workers=num_workers,
                surrogate=surrogate,
                random_sampling=random_sampling,
                refit_interval=refit_interval,
                seed=rep_seed,
                **extra,
            )
        searches.append(search)
    campaign.results.extend(search.run(max_time=max_time) for search in searches)
    return campaign


def run_transfer_chain(
    problems: Sequence[Tuple[str, SearchSpace, RunFunction]],
    repetitions: int = 5,
    max_time: float = 3600.0,
    num_workers: int = 128,
    surrogate: str = "RF",
    refit_interval: int = 1,
    quantile: float = 0.10,
    vae_epochs: int = 300,
    seed: int = 0,
) -> Dict[str, Dict[str, CampaignResult]]:
    """Run the paper's transfer chain over a sequence of setups.

    Parameters
    ----------
    problems:
        Ordered ``(setup_name, space, run_function)`` triples, e.g. the chain
        4n-1s-11p → 4n-2s-16p → 4n-2s-20p → 8n-2s-20p → 16n-2s-20p.

    Returns
    -------
    Mapping ``setup_name → {"no_tl": CampaignResult, "tl": CampaignResult}``;
    the first setup only has the ``no_tl`` entry (there is nothing to
    transfer from).  The TL source of setup *k* is the first repetition of
    setup *k−1*'s no-TL campaign, exactly as the paper transfers from one
    setup type to the next.
    """
    chain: Dict[str, Dict[str, CampaignResult]] = {}
    previous_history: Optional[SearchHistory] = None
    for name, space, run_function in problems:
        entry: Dict[str, CampaignResult] = {}
        entry["no_tl"] = run_repeated_search(
            space,
            run_function,
            label=f"{surrogate}",
            setup=name,
            surrogate=surrogate,
            repetitions=repetitions,
            max_time=max_time,
            num_workers=num_workers,
            refit_interval=refit_interval,
            seed=seed,
        )
        if previous_history is not None:
            entry["tl"] = run_repeated_search(
                space,
                run_function,
                label=f"TL-{surrogate}",
                setup=name,
                surrogate=surrogate,
                source_history=previous_history,
                repetitions=repetitions,
                max_time=max_time,
                num_workers=num_workers,
                refit_interval=refit_interval,
                quantile=quantile,
                vae_epochs=vae_epochs,
                seed=seed,
            )
        chain[name] = entry
        previous_history = entry["no_tl"].results[0].history
    return chain
