"""The default evaluator against its oracle, protocol step by campaign.

Every campaign without an ``evaluator_factory`` evaluates on a
:class:`~repro.core.evaluator.ServiceEvaluator` over a private
:class:`~repro.core.evaluator.SharedWorkerPool`.  The evaluator it replaced,
``AsyncVirtualEvaluator`` in ``tests/reference/evaluator.py``, is the
oracle.  The invariants are checked against both:

* ``collect``/``wait_any`` return evaluations ordered by completion time, and
  completion times never decrease across successive collections;
* ``utilization`` stays within ``[0, 1]``;
* ``num_pending + num_idle == num_workers`` (each worker runs at most one
  evaluation);
* driven by the same randomly generated submission script, both produce
  identical completion sequences and utilisation;
* a whole campaign — RF, GP and prior-refresh fixtures, plain and
  journaled — is bit-identical on either: history, busy intervals,
  utilisation and every RNG stream.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    assert_results_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search,
)
from reference.evaluator import AsyncVirtualEvaluator, oracle_factory
from repro.core.evaluator import ServiceEvaluator, SharedWorkerPool

NUM_WORKERS = 5

#: One scripted step: submit ``num_configs`` configurations whose runtimes are
#: taken from the script's runtime stream, then wait for the next completion.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_WORKERS),
        st.lists(
            st.one_of(
                st.floats(min_value=0.25, max_value=500.0),
                st.just(float("nan")),  # failures occupy failure_duration
            ),
            min_size=NUM_WORKERS + 1,
            max_size=NUM_WORKERS + 1,
        ),
    ),
    min_size=1,
    max_size=12,
)


def make_run_function(runtime_stream):
    """A run function handing out scripted runtimes in call order."""
    iterator = iter(runtime_stream)

    def run(config):
        return next(iterator)

    return run


BACKENDS = {
    "async": lambda run: AsyncVirtualEvaluator(run, num_workers=NUM_WORKERS),
    "service": lambda run: ServiceEvaluator(run, num_workers=NUM_WORKERS),
}


def drive(evaluator, script):
    """Run a submission script; returns the collected evaluations.

    Like the search manager, it only waits while evaluations are outstanding
    (an uncapped wait with nothing pending would just burn the clock to the
    cap).
    """
    collected = []
    for i, (num_configs, _) in enumerate(script):
        batch = [{"step": i, "k": j} for j in range(min(num_configs, evaluator.num_idle))]
        if batch:
            evaluator.submit(batch)
        if evaluator.num_pending:
            _, done = evaluator.wait_any(math.inf)
            collected.extend(done)
    # Drain everything still running.
    while evaluator.num_pending:
        _, done = evaluator.wait_any(math.inf)
        collected.extend(done)
    return collected


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestProtocolInvariants:
    @given(script=steps)
    @settings(max_examples=40, deadline=None)
    def test_collect_ordering_is_monotone_in_completion_time(self, backend, script):
        runtimes = [rt for _, stream in script for rt in stream]
        evaluator = BACKENDS[backend](make_run_function(runtimes))
        last = -math.inf
        for i, (num_configs, _) in enumerate(script):
            batch = [{"step": i, "k": j} for j in range(min(num_configs, evaluator.num_idle))]
            if batch:
                evaluator.submit(batch)
            if not evaluator.num_pending:
                continue
            _, done = evaluator.wait_any(math.inf)
            times = [ev.completed for ev in done]
            assert times == sorted(times)
            for t in times:
                assert t >= last
                last = t

    @given(script=steps, horizon=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=40, deadline=None)
    def test_utilization_within_unit_interval(self, backend, script, horizon):
        runtimes = [rt for _, stream in script for rt in stream]
        evaluator = BACKENDS[backend](make_run_function(runtimes))
        drive(evaluator, script)
        value = evaluator.utilization(horizon)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(script=steps)
    @settings(max_examples=40, deadline=None)
    def test_pending_plus_idle_is_num_workers(self, backend, script):
        runtimes = [rt for _, stream in script for rt in stream]
        evaluator = BACKENDS[backend](make_run_function(runtimes))
        assert evaluator.num_pending + evaluator.num_idle == NUM_WORKERS
        for i, (num_configs, _) in enumerate(script):
            batch = [{"step": i, "k": j} for j in range(min(num_configs, evaluator.num_idle))]
            if batch:
                evaluator.submit(batch)
            assert evaluator.num_pending + evaluator.num_idle == NUM_WORKERS
            if evaluator.num_pending:
                evaluator.wait_any(math.inf)
            assert evaluator.num_pending + evaluator.num_idle == NUM_WORKERS


class TestBackendEquivalence:
    @given(script=steps)
    @settings(max_examples=40, deadline=None)
    def test_both_backends_produce_identical_completions(self, script):
        runtimes = [rt for _, stream in script for rt in stream]
        results = {}
        for name, factory in BACKENDS.items():
            evaluator = factory(make_run_function(list(runtimes)))
            collected = drive(evaluator, script)
            results[name] = (
                [
                    (ev.configuration["step"], ev.configuration["k"], ev.worker,
                     ev.submitted, ev.completed)
                    for ev in collected
                ],
                evaluator.num_submitted,
                evaluator.num_collected,
                evaluator.utilization(1000.0),
            )
        assert results["async"] == results["service"]


class TestServiceQueueing:
    def test_excess_submissions_queue_instead_of_dropping(self):
        evaluator = ServiceEvaluator(lambda c: 10.0, num_workers=2)
        accepted = evaluator.submit([{"i": i} for i in range(5)])
        assert accepted == 5
        assert evaluator.num_pending == 2
        assert evaluator.num_queued == 3
        assert evaluator.num_pending + evaluator.num_idle == 2
        # Queued requests start back-to-back as workers free up.
        _, first = evaluator.wait_any(1e9)
        assert [ev.configuration["i"] for ev in first] == [0, 1]
        assert evaluator.num_queued == 1
        _, second = evaluator.wait_any(1e9)
        assert [ev.configuration["i"] for ev in second] == [2, 3]
        _, third = evaluator.wait_any(1e9)
        assert [ev.configuration["i"] for ev in third] == [4]
        assert evaluator.now == 30.0

    def test_async_evaluator_drops_excess_submissions(self):
        evaluator = AsyncVirtualEvaluator(lambda c: 10.0, num_workers=2)
        accepted = evaluator.submit([{"i": i} for i in range(5)])
        assert accepted == 2
        assert evaluator.num_pending == 2

    def test_shared_pool_clients_share_clock_and_workers(self):
        pool = SharedWorkerPool(num_workers=3)
        a = ServiceEvaluator(lambda c: 5.0, pool=pool)
        b = ServiceEvaluator(lambda c: 7.0, pool=pool)
        a.submit([{"c": 0}, {"c": 1}])
        b.submit([{"c": 2}, {"c": 3}])  # only one worker left: one queues
        assert pool.num_pending == 3 and pool.num_queued == 1
        now_a, done_a = a.wait_any(1e9)
        assert [ev.configuration["c"] for ev in done_a] == [0, 1]
        assert now_a == 5.0 and b.now == 5.0  # shared clock advanced for b too
        _, done_b = b.wait_any(1e9)
        assert [ev.configuration["c"] for ev in done_b] == [2]
        _, done_b2 = b.wait_any(1e9)
        # The queued request started at t=5 when a worker freed.
        assert [ev.configuration["c"] for ev in done_b2] == [3]
        assert done_b2[0].submitted == 5.0 and done_b2[0].completed == 12.0


# ------------------------------------------------------- campaign identity
CAMPAIGNS = {
    "rf": make_service_search,
    "gp": make_gp_search,
    "refresh": make_refresh_search,
}


class TestCampaignIdentity:
    """A campaign on the default evaluator matches the same campaign on the
    oracle bit for bit.  The search loop never submits more than
    ``num_idle`` configurations, so the one protocol difference (the pool
    queues what the oracle would drop) is never reached."""

    @pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_default_evaluator_matches_the_oracle(
        self, campaign, seed, journaled, tmp_path
    ):
        runs = {}
        for name, factory in (("default", None), ("oracle", oracle_factory)):
            search = CAMPAIGNS[campaign](seed, evaluator_factory=factory)
            result = search.run(
                max_time=900.0,
                max_evaluations=80,
                journal_dir=tmp_path / name if journaled else None,
            )
            runs[name] = (search, result)
        (default, ours), (oracle, theirs) = runs["default"], runs["oracle"]
        # History, busy intervals, utilisation and incumbent:
        assert_results_identical(theirs, ours)
        assert (
            oracle.optimizer.rng.bit_generator.state
            == default.optimizer.rng.bit_generator.state
        )
        oracle_rng = getattr(oracle.optimizer.surrogate, "_rng", None)
        default_rng = getattr(default.optimizer.surrogate, "_rng", None)
        assert (oracle_rng is None) == (default_rng is None)
        if default_rng is not None:
            assert oracle_rng.bit_generator.state == default_rng.bit_generator.state
