"""Shared test fixtures: the small spaces, run functions and campaign configs
that were previously copy-pasted across ``tests/core``, ``tests/service`` and
``tests/integration``.

Two families are provided:

* the **service** fixtures — the 4-parameter storage-service space and the
  deterministic run function the multi-campaign runner tests drive, plus the
  campaign factory and the bit-identity assertion those tests share;
* the **wide** fixtures — the 6-parameter mixed space and synthetic objective
  the optimizer and journal-reader regression tests share.

Import from test modules as ``from fixtures import ...`` (the ``tests``
directory is on ``sys.path`` through pytest's conftest handling).  Keep these
factories deterministic: several suites pin bit-identity across execution
modes, so a fixture that drew from global randomness would make failures
unreproducible.
"""

import math

from repro.core.search import CBOSearch
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate

__all__ = [
    "make_service_space",
    "service_run_function",
    "make_service_search",
    "make_gp_search",
    "make_refresh_search",
    "assert_results_identical",
    "make_wide_space",
    "wide_objective",
]


# ------------------------------------------------------------- service family
def make_service_space() -> SearchSpace:
    """The small storage-service space the runner/service tests tune."""
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 1024, log=True),
            RealParameter("rate", 0.1, 50.0, log=True),
            CategoricalParameter("pool", ("fifo", "prio", "wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


def service_run_function(config) -> float:
    """Deterministic pseudo-runtime over :func:`make_service_space` configs."""
    value = abs(math.log(config["batch"]) - 4.0) + 0.3 * math.log(config["rate"])
    value += 1.0 if config["pool"] == "wait" else 0.0
    return 30.0 + 12.0 * value


def make_service_search(seed, space=None, **kwargs) -> CBOSearch:
    """A small RF-backed campaign over the service space (seeded)."""
    params = dict(
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
        num_candidates=48,
        n_initial_points=5,
        seed=seed,
    )
    params.update(kwargs)
    return CBOSearch(
        space if space is not None else make_service_space(),
        service_run_function,
        **params,
    )


def make_gp_search(seed, space=None, **kwargs) -> CBOSearch:
    """A small GP-backed campaign over the service space (seeded)."""
    params = dict(
        num_workers=4,
        surrogate="GP",
        num_candidates=32,
        n_initial_points=4,
        seed=seed,
    )
    params.update(kwargs)
    return CBOSearch(
        space if space is not None else make_service_space(),
        service_run_function,
        **params,
    )


def make_refresh_search(seed, space=None, **kwargs) -> CBOSearch:
    """A campaign on the continuous-retuning scenario (periodic VAE refresh).

    The third member of the mixed-surrogate family the elastic/runner suites
    drive: RF-backed like :func:`make_service_search`, but with a periodic
    prior refresh so the runner's fused VAEFleet path engages.
    """
    params = dict(
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
        num_candidates=48,
        n_initial_points=5,
        prior_refresh_interval=8,
        prior_refresh_top_k=8,
        prior_refresh_epochs=12,
        seed=seed,
    )
    params.update(kwargs)
    return CBOSearch(
        space if space is not None else make_service_space(),
        service_run_function,
        **params,
    )


def assert_results_identical(a, b) -> None:
    """Two :class:`~repro.core.search.SearchResult`\\ s must match bit for bit.

    The acceptance property of every batched/sequential comparison: the full
    evaluation record (configurations, timestamps, objectives), the busy
    intervals, the utilization and the incumbent must all be exactly equal.
    """
    assert len(a.history) == len(b.history)
    for ev_a, ev_b in zip(a.history, b.history):
        assert ev_a.configuration == ev_b.configuration
        assert ev_a.submitted == ev_b.submitted
        assert ev_a.completed == ev_b.completed
        assert (ev_a.objective == ev_b.objective) or (
            math.isnan(ev_a.objective) and math.isnan(ev_b.objective)
        )
    assert a.busy_intervals == b.busy_intervals
    assert a.worker_utilization == b.worker_utilization
    assert a.best_configuration == b.best_configuration


# ---------------------------------------------------------------- wide family
def make_wide_space() -> SearchSpace:
    """The 6-parameter mixed space the optimizer regression tests share."""
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            RealParameter("rate", 0.5, 100.0, log=True),
            RealParameter("fraction", -1.0, 1.0),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            OrdinalParameter("pes", (1, 2, 4, 8, 16, 32)),
            CategoricalParameter.boolean("busy"),
        ]
    )


def wide_objective(config) -> float:
    """Deterministic synthetic objective over :func:`make_wide_space` configs."""
    value = -abs(math.log(config["batch"]) - 3.0) - abs(config["fraction"])
    value -= 0.1 * config["pes"]
    if config["pool"] == "fifo":
        value += 0.25
    return value
