"""Random search (the RAND baseline).

Uniform (or log-uniform, following each parameter's declared distribution)
sampling with no model.  It can run with any number of parallel workers: the
Fig. 4 experiments use it with 128 workers inside DeepHyper, the Fig. 5
comparison uses it sequentially.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.history import SearchHistory
from repro.core.objective import Objective
from repro.core.search import CBOSearch
from repro.core.space import Configuration, SearchSpace
from repro.frameworks.base import Framework, FrameworkResult

__all__ = ["RandomSearch"]


class RandomSearch(Framework):
    """Model-free random sampling.

    Parameters
    ----------
    num_workers:
        Number of parallel evaluation workers (1 = sequential).
    failure_duration:
        Worker time consumed by failed evaluations.
    """

    name = "RAND"

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        num_workers: int = 1,
        failure_duration: float = 600.0,
        objective: Optional[Objective] = None,
        seed: int = 0,
    ):
        super().__init__(space, run_function, objective=objective, seed=seed)
        self.num_workers = int(num_workers)
        self.failure_duration = float(failure_duration)

    def build_search(self, source_history: Optional[SearchHistory] = None) -> CBOSearch:
        """The underlying random-sampling search (a campaign runner can step it).

        ``source_history`` is ignored — random search has no transfer mode.
        """
        return CBOSearch(
            self.space,
            self.run_function,
            num_workers=self.num_workers,
            surrogate="RAND",
            random_sampling=True,
            failure_duration=self.failure_duration,
            objective=self.objective,
            seed=self.seed,
        )

    def run(
        self,
        max_time: float,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        source_history: Optional[SearchHistory] = None,
    ) -> FrameworkResult:
        """Run random sampling; ``source_history`` is ignored (no TL support)."""
        search = self.build_search()
        result = search.run(max_time=max_time, initial_configurations=initial_configurations)
        return FrameworkResult.from_history(
            self.name,
            result.history,
            search_time=max_time,
            worker_utilization=result.worker_utilization,
        )
