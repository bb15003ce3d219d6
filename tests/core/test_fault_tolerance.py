"""Failure-path coverage: outcome resolution, the stall valve, NaN telling,
and property-based fault schedules.

The fault-free evaluator protocol is pinned by
``tests/core/test_evaluator_properties.py``; this suite exercises the paths
only faults reach — the shared :func:`~repro.core.evaluator.resolve_outcome`
edge cases, the ``wait_any`` stall valve
(:class:`~repro.core.evaluator.EvaluatorStalledError`), NaN objectives
flowing through ``ingest``/``fit_now``, and a Hypothesis sweep asserting that
*no* seeded fault schedule can violate the evaluator protocol invariants.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import make_service_search as make_search
from repro.core.evaluator import (
    EvaluatorStalledError,
    ServiceEvaluator,
    SharedWorkerPool,
    resolve_duration,
    resolve_outcome,
)
from repro.sim import FaultDecision, FaultPlan

NUM_WORKERS = 5


# --------------------------------------------------------- outcome resolution
class TestResolveDuration:
    @pytest.mark.parametrize("runtime", [0.0, -3.0, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_runtime_occupies_failure_duration(self, runtime):
        assert resolve_duration({}, runtime, None, 600.0) == 600.0

    def test_finite_positive_runtime_is_its_own_duration(self):
        assert resolve_duration({}, 42.5, None, 600.0) == 42.5

    def test_duration_function_overrides_even_failures(self):
        assert resolve_duration({}, float("nan"), lambda c, r: 7.0, 600.0) == 7.0


class TestResolveOutcome:
    def test_healthy_decision_matches_fault_free_path(self):
        assert resolve_outcome({}, 42.5, None, 600.0) == (42.5, 42.5)
        assert resolve_outcome({}, 42.5, None, 600.0, decision=FaultDecision()) == (42.5, 42.5)

    def test_fail_decision_replaces_measurement_before_duration(self):
        runtime, duration = resolve_outcome(
            {}, 42.5, None, 600.0, decision=FaultDecision(fail=True)
        )
        assert math.isnan(runtime) and duration == 600.0

    def test_straggler_multiplies_duration_not_measurement(self):
        runtime, duration = resolve_outcome(
            {}, 40.0, None, 600.0, decision=FaultDecision(straggler_factor=4.0)
        )
        assert runtime == 40.0 and duration == 160.0

    def test_hang_is_infinite_without_deadline(self):
        runtime, duration = resolve_outcome(
            {}, 40.0, None, 600.0, decision=FaultDecision(hang=True)
        )
        assert runtime == 40.0 and duration == math.inf

    def test_deadline_kills_hangs_and_long_stragglers(self):
        runtime, duration = resolve_outcome(
            {}, 40.0, None, 600.0, deadline=100.0, decision=FaultDecision(hang=True)
        )
        assert math.isnan(runtime) and duration == 100.0
        runtime, duration = resolve_outcome(
            {}, 40.0, None, 600.0, deadline=100.0,
            decision=FaultDecision(straggler_factor=4.0),
        )
        assert math.isnan(runtime) and duration == 100.0

    def test_deadline_leaves_fast_evaluations_alone(self):
        assert resolve_outcome({}, 40.0, None, 600.0, deadline=100.0) == (40.0, 40.0)


# ---------------------------------------------------------------- stall valve
ALL_HANG = FaultPlan(seed=0, hang_rate=1.0)


class TestStallValve:
    def test_service_evaluator_raises_when_everything_hangs(self):
        evaluator = ServiceEvaluator(
            lambda c: 10.0, num_workers=2, fault_plan=ALL_HANG
        )
        evaluator.submit([{"i": 0}, {"i": 1}])
        with pytest.raises(EvaluatorStalledError):
            evaluator.wait_any(math.inf)

    def test_deadline_defuses_the_hang(self):
        evaluator = ServiceEvaluator(
            lambda c: 10.0, num_workers=2, fault_plan=ALL_HANG, deadline=600.0
        )
        evaluator.submit([{"i": 0}, {"i": 1}])
        now, done = evaluator.wait_any(math.inf)
        assert now == 600.0
        assert all(math.isnan(ev.runtime) for ev in done)

    def test_pool_raises_when_queued_work_cannot_start(self):
        pool = SharedWorkerPool(
            num_workers=1,
            fault_plan=FaultPlan(seed=0, crash_rate=1.0),
            max_retries=0,
        )
        evaluator = ServiceEvaluator(lambda c: 10.0, pool=pool)
        evaluator.submit([{"i": 0}, {"i": 1}])  # second request queues
        # The crash kills the only worker; the queued request can never start.
        with pytest.raises(EvaluatorStalledError, match="dead"):
            while True:
                evaluator.wait_any(math.inf)


# -------------------------------------------------------------- NaN objectives
class TestNaNObjectives:
    def test_ingest_and_fit_accept_nan_objectives(self):
        import numpy as np

        search = make_search(0)
        optimizer = search.optimizer
        configs = search.space.sample(12, np.random.default_rng(3))
        objectives = [float("nan") if i % 3 == 0 else -float(i) for i in range(12)]
        optimizer.ingest(configs, objectives)
        optimizer.fit_now()
        assert optimizer.surrogate.fitted
        X, y = optimizer.training_data()
        assert not any(math.isnan(v) for v in y)  # failures filled, not NaN
        assert len(optimizer.ask(4)) == 4

    def test_campaign_survives_elevated_failure_rate(self):
        plan = FaultPlan(seed=7, failure_rate=0.5)

        def factory(run, num_workers, failure_duration):
            return ServiceEvaluator(
                run,
                num_workers=num_workers,
                failure_duration=failure_duration,
                fault_plan=plan,
            )

        result = make_search(0, evaluator_factory=factory).run(
            max_time=1200.0, max_evaluations=30
        )
        objectives = [ev.objective for ev in result.history]
        assert any(math.isnan(v) for v in objectives)
        assert any(not math.isnan(v) for v in objectives)
        assert math.isfinite(result.best_runtime)


# ------------------------------------------------- fault schedules (property)
fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    failure_rate=st.floats(min_value=0.0, max_value=0.5),
    crash_rate=st.floats(min_value=0.0, max_value=0.2),
    hang_rate=st.floats(min_value=0.0, max_value=0.2),
    loss_rate=st.floats(min_value=0.0, max_value=0.2),
    straggler_rate=st.floats(min_value=0.0, max_value=0.2),
    straggler_factor=st.floats(min_value=1.0, max_value=10.0),
)

submissions = st.lists(
    st.integers(min_value=0, max_value=NUM_WORKERS), min_size=2, max_size=10
)

def workers_accounted_for(evaluator):
    """Busy + idle + dead workers always partition the pool."""
    pool = evaluator.pool
    return pool.num_pending + pool.num_idle + pool.num_dead == pool.num_workers


class TestFaultScheduleInvariants:
    @given(plan=fault_plans, script=submissions)
    @settings(max_examples=30, deadline=None)
    def test_no_fault_schedule_violates_the_protocol(self, plan, script):
        """Under any seeded fault schedule (with the deadline valve on), the
        evaluator keeps its books: completion times stay monotone, workers
        are always accounted for, and the drive loop always drains."""
        evaluator = ServiceEvaluator(
            lambda c: 25.0 + 5.0 * c["k"],
            num_workers=NUM_WORKERS,
            fault_plan=plan,
            deadline=600.0,
        )
        last = -math.inf
        assert workers_accounted_for(evaluator)
        for i, num_configs in enumerate(script):
            batch = [
                {"step": i, "k": j}
                for j in range(min(num_configs, evaluator.num_idle))
            ]
            if batch:
                evaluator.submit(batch)
            assert workers_accounted_for(evaluator)
            if not evaluator.num_pending:
                continue
            try:
                _, done = evaluator.wait_any(math.inf)
            except EvaluatorStalledError:
                # The valve fired (queued retries with every worker dead) —
                # legitimate, but the books must still balance.
                assert workers_accounted_for(evaluator)
                return
            assert workers_accounted_for(evaluator)
            times = [ev.completed for ev in done]
            assert times == sorted(times)
            for t in times:
                assert math.isfinite(t) and t >= last
                last = t
        guard = 0
        while evaluator.num_pending or evaluator.num_queued:
            try:
                evaluator.wait_any(math.inf)
            except EvaluatorStalledError:
                assert workers_accounted_for(evaluator)
                return
            assert workers_accounted_for(evaluator)
            guard += 1
            assert guard < 1000  # the deadline bounds every fault: no spinning
        assert evaluator.num_pending == 0
        assert evaluator.num_collected <= evaluator.num_submitted
