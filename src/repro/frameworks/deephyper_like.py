"""The DeepHyper-based framework of the paper (this work's own method).

A thin wrapper around :class:`~repro.core.search.CBOSearch` /
:class:`~repro.core.search.VAEABOSearch` exposing the :class:`Framework`
interface used by the Fig. 5 comparison.  The number of workers is
configurable — the paper reports DH1W (one worker, for a fair sequential
comparison with GPtune/HiPerBOt) and DH10W (ten workers, showing the benefit
of asynchronous parallel evaluation even during modelling).  Transfer
learning, when a source history is supplied, is the VAE-ABO informative prior.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.core.history import SearchHistory
from repro.core.objective import Objective
from repro.core.search import VAEABOSearch
from repro.core.space import Configuration, SearchSpace
from repro.core.surrogate.base import Surrogate
from repro.frameworks.base import Framework, FrameworkResult

__all__ = ["DeepHyperSearch"]


class DeepHyperSearch(Framework):
    """Asynchronous BO with RF surrogate and optional VAE-ABO transfer learning.

    Parameters
    ----------
    num_workers:
        Number of parallel evaluation workers (1 → "DH1W", 10 → "DH10W").
    surrogate:
        Surrogate model or name ("RF" default, "GP", "RAND").
    quantile:
        Top-q fraction used when transfer learning is enabled.
    failure_duration:
        Worker time consumed by failed evaluations.
    refit_interval:
        Minimum number of new evaluations between surrogate refits (wall-clock
        optimisation of the reproduction; the charged search-time overhead is
        unchanged).
    """

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        num_workers: int = 10,
        surrogate: Union[str, Surrogate] = "RF",
        quantile: float = 0.10,
        vae_epochs: int = 300,
        failure_duration: float = 600.0,
        refit_interval: int = 1,
        objective: Optional[Objective] = None,
        seed: int = 0,
    ):
        super().__init__(space, run_function, objective=objective, seed=seed)
        self.num_workers = int(num_workers)
        self.surrogate = surrogate
        self.quantile = float(quantile)
        self.vae_epochs = int(vae_epochs)
        self.failure_duration = float(failure_duration)
        self.refit_interval = int(refit_interval)
        self.name = f"DH{self.num_workers}W"

    def build_search(self, source_history: Optional[SearchHistory] = None) -> VAEABOSearch:
        """The underlying asynchronous search (a campaign runner can step it)."""
        return VAEABOSearch(
            self.space,
            self.run_function,
            source_history=source_history,
            quantile=self.quantile,
            vae_epochs=self.vae_epochs,
            num_workers=self.num_workers,
            surrogate=self.surrogate,
            failure_duration=self.failure_duration,
            refit_interval=self.refit_interval,
            objective=self.objective,
            seed=self.seed,
        )

    def result_name(self, source_history: Optional[SearchHistory] = None) -> str:
        return self.name if source_history is None else f"TL-{self.name}"

    def run(
        self,
        max_time: float,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        source_history: Optional[SearchHistory] = None,
    ) -> FrameworkResult:
        """Run the asynchronous search, with VAE-ABO TL if a source is given."""
        search = self.build_search(source_history)
        result = search.run(max_time=max_time, initial_configurations=initial_configurations)
        return FrameworkResult.from_history(
            self.result_name(source_history),
            result.history,
            search_time=max_time,
            worker_utilization=result.worker_utilization,
        )
