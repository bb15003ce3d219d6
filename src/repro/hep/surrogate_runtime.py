"""Learned surrogate of the HEP workflow run time (the Fig. 5 methodology).

For the framework comparison the paper replaces the real workflow with "a
surrogate model of its performance, obtained by training a random forest
regressor on the data from the preceding section's RAND runs.  This surrogate
model will estimate the run time for an input configuration and then sleep for
this amount of time before returning it", making the whole experiment
reproducible on a laptop.

This module does exactly that against *our* simulator: train a random forest
on (configuration → run time) pairs collected from random sampling, then act
as a drop-in ``run_function`` that returns the predicted run time (the
"sleeping" is the virtual-time duration handled by the evaluator).  Failed
evaluations are learned through a run-time ceiling: configurations predicted
to exceed it return NaN, as the real killed runs do.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.history import SearchHistory
from repro.core.space import Configuration, SearchSpace
from repro.core.surrogate import RandomForestSurrogate
from repro.hep.workflow import HEPWorkflowProblem

__all__ = ["SurrogateRuntime", "SurrogateRuntimeFleet"]


class SurrogateRuntime:
    """A random-forest run-time model usable as a search ``run_function``.

    Parameters
    ----------
    space:
        The configuration space the model was trained on.
    forest:
        The fitted random forest (regressing ``log(runtime)``).
    failure_runtime:
        Run-time ceiling: training failures are imputed at this value and
        predictions at or above ``0.9 ×`` this value are reported as NaN.
    noise:
        Relative standard deviation of multiplicative prediction noise (keeps
        repeated evaluations of one configuration from being identical, like
        the real workflow).
    seed:
        Seed of the noise generator.
    """

    def __init__(
        self,
        space: SearchSpace,
        forest: RandomForestSurrogate,
        failure_runtime: float = 600.0,
        noise: float = 0.02,
        seed: int = 0,
    ):
        self.space = space
        self.forest = forest
        self.failure_runtime = float(failure_runtime)
        self.noise = float(noise)
        self._rng = np.random.default_rng(seed)
        self.num_calls = 0

    # ------------------------------------------------------------ construction
    @classmethod
    def train(
        cls,
        problem: HEPWorkflowProblem,
        num_samples: int = 600,
        n_estimators: int = 24,
        failure_runtime: float = 600.0,
        noise: float = 0.02,
        seed: int = 0,
    ) -> "SurrogateRuntime":
        """Train a surrogate by random sampling of the simulated workflow."""
        if num_samples < 10:
            raise ValueError("num_samples must be >= 10")
        rng = np.random.default_rng(seed)
        configs = problem.space.sample(num_samples, rng)
        runtimes = np.asarray([problem.evaluate(c) for c in configs], dtype=float)
        return cls.from_data(
            problem.space,
            configs,
            runtimes,
            n_estimators=n_estimators,
            failure_runtime=failure_runtime,
            noise=noise,
            seed=seed,
        )

    @classmethod
    def from_history(
        cls,
        history: SearchHistory,
        n_estimators: int = 24,
        failure_runtime: float = 600.0,
        noise: float = 0.02,
        seed: int = 0,
    ) -> "SurrogateRuntime":
        """Train a surrogate from an existing search history (e.g. RAND runs)."""
        configs = history.configurations()
        runtimes = history.runtimes()
        return cls.from_data(
            history.space,
            configs,
            runtimes,
            n_estimators=n_estimators,
            failure_runtime=failure_runtime,
            noise=noise,
            seed=seed,
        )

    @classmethod
    def from_data(
        cls,
        space: SearchSpace,
        configurations: Sequence[Configuration],
        runtimes: Sequence[float],
        n_estimators: int = 24,
        failure_runtime: float = 600.0,
        noise: float = 0.02,
        seed: int = 0,
    ) -> "SurrogateRuntime":
        """Train a surrogate from explicit (configuration, run time) pairs."""
        if len(configurations) != len(runtimes):
            raise ValueError("configurations and runtimes must have equal length")
        if not configurations:
            raise ValueError("cannot train on an empty dataset")
        runtimes = np.asarray(runtimes, dtype=float)
        capped = np.where(
            np.isfinite(runtimes) & (runtimes > 0),
            np.minimum(runtimes, failure_runtime),
            failure_runtime,
        )
        X = space.to_numeric_array(configurations)
        y = np.log(capped)
        forest = RandomForestSurrogate(n_estimators=n_estimators, seed=seed)
        forest.fit(X, y)
        return cls(space, forest, failure_runtime=failure_runtime, noise=noise, seed=seed)

    # -------------------------------------------------------------- evaluation
    def predict(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """Predicted run times (seconds) without noise or the NaN ceiling."""
        X = self.space.to_numeric_array(configurations)
        mean, _ = self.forest.predict(X)
        return np.exp(mean)

    def _finalize(self, predicted: float) -> float:
        """Noise and failure-ceiling post-processing of one prediction."""
        self.num_calls += 1
        runtime = float(predicted)
        if self.noise > 0:
            runtime *= float(self._rng.lognormal(mean=0.0, sigma=self.noise))
        if runtime >= 0.9 * self.failure_runtime:
            return float("nan")
        return runtime

    def __call__(self, configuration: Configuration) -> float:
        """Run-function interface: predicted run time with noise, NaN at ceiling."""
        return self._finalize(self.predict([configuration])[0])

    def run_many(self, configurations: Sequence[Configuration]) -> list:
        """Batch run-function calls: one vectorised predict, per-call noise.

        Bit-identical to calling the instance once per configuration in
        order — forest predictions are row-local and the noise draws consume
        the generator in the same sequence — at a fraction of the per-call
        overhead.
        """
        if not configurations:
            return []
        predicted = self.predict(configurations)
        return [self._finalize(value) for value in predicted]


class SurrogateRuntimeFleet:
    """Service-style batch evaluation across many campaigns' runtime models.

    The multi-campaign batch runner collects every campaign's submissions of
    one tick; this fleet scores them together — requests whose
    :class:`SurrogateRuntime` instances share one underlying forest (the
    common case: N campaigns autotuning the same application model, each with
    its own noise stream) are fused into a single vectorised forest predict,
    the rest fall back to the per-instance :meth:`SurrogateRuntime.run_many`.
    Results are bit-identical to per-configuration calls either way, because
    forest predictions are row-local and each instance's noise generator is
    consumed in its own request order.

    ``fleet.run_batch`` plugs directly into
    ``CampaignRunner(run_batcher=...)``; request indices refer to positions
    in ``runtimes``, i.e. the campaign/spec order.
    """

    def __init__(self, runtimes: Sequence[SurrogateRuntime]):
        if not runtimes:
            raise ValueError("need at least one runtime model")
        self.runtimes = list(runtimes)

    def run_batch(self, requests: Sequence[tuple]) -> list:
        """Evaluate ``[(runtime_index, configurations), ...]`` submissions."""
        results: list = [None] * len(requests)
        groups: dict = {}
        for pos, (idx, _) in enumerate(requests):
            groups.setdefault(id(self.runtimes[idx].forest), []).append(pos)
        for positions in groups.values():
            if len(positions) == 1:
                pos = positions[0]
                idx, configs = requests[pos]
                results[pos] = self.runtimes[idx].run_many(configs)
                continue
            # One fused encode and inference over every request sharing this
            # forest (both are row-local).
            first = self.runtimes[requests[positions[0]][0]]
            stacked = [config for pos in positions for config in requests[pos][1]]
            mean, _ = first.forest.predict(first.space.to_numeric_array(stacked))
            values = np.exp(mean)
            offset = 0
            for pos in positions:
                idx, configs = requests[pos]
                model = self.runtimes[idx]
                chunk = values[offset : offset + len(configs)]
                offset += len(configs)
                results[pos] = [model._finalize(value) for value in chunk]
        return results
