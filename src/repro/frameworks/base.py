"""Common interface of the compared autotuning frameworks.

Every framework is driven the same way in the Fig. 5 experiments:

* it receives the search space, the run function (the surrogate runtime model
  of the workflow in the paper's laptop experiment), a search-time budget and
  the *same* 10 initial random samples as every other framework;
* it may receive source data (a previous run's history) for transfer
  learning;
* it returns a :class:`FrameworkResult` with its history, from which the
  best-configuration, mean-best and number-of-evaluations metrics are
  computed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.history import SearchHistory
from repro.core.objective import Objective
from repro.core.space import Configuration, SearchSpace

__all__ = ["Framework", "FrameworkResult"]


@dataclass
class FrameworkResult:
    """Outcome of one framework run (a thin, framework-agnostic view)."""

    name: str
    history: SearchHistory
    best_configuration: Optional[Configuration]
    best_runtime: float
    num_evaluations: int
    worker_utilization: float
    search_time: float

    @classmethod
    def from_history(
        cls,
        name: str,
        history: SearchHistory,
        search_time: float,
        worker_utilization: float = float("nan"),
    ) -> "FrameworkResult":
        """Build a result from a completed history."""
        best = history.best()
        return cls(
            name=name,
            history=history,
            best_configuration=best.configuration if best else None,
            best_runtime=best.runtime if best else float("nan"),
            num_evaluations=len(history),
            worker_utilization=worker_utilization,
            search_time=search_time,
        )


class Framework(ABC):
    """Base class for the compared autotuning frameworks.

    Parameters
    ----------
    space:
        The search space.
    run_function:
        Configuration → run time in seconds (NaN on failure).
    objective:
        Objective transform (defaults to the paper's ``-log(runtime)``).
    seed:
        RNG seed.
    """

    #: Human-readable name used in figures (overridden by subclasses).
    name: str = "framework"

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        objective: Optional[Objective] = None,
        seed: int = 0,
    ):
        self.space = space
        self.run_function = run_function
        self.objective = objective or Objective()
        self.seed = int(seed)

    @abstractmethod
    def run(
        self,
        max_time: float,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        source_history: Optional[SearchHistory] = None,
    ) -> FrameworkResult:
        """Run the framework within ``max_time`` seconds of search time.

        Parameters
        ----------
        max_time:
            Search-time budget (1 hour in the paper's comparison).
        initial_configurations:
            The shared initial samples every framework starts from.
        source_history:
            Optional source-task data enabling the framework's transfer
            learning mode (ignored by frameworks without TL support).
        """
