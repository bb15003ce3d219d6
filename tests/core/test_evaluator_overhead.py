"""Tests for the default virtual-clock evaluator and the overhead models."""

import math

import numpy as np
import pytest

from repro.core.evaluator import ServiceEvaluator
from repro.core.optimizer import BayesianOptimizer
from repro.core.overhead import (
    AnalyticOverheadModel,
    MeasuredOverheadModel,
    make_overhead_model,
)
from repro.core.space import IntegerParameter, RealParameter, SearchSpace


def simple_space():
    return SearchSpace([RealParameter("x", 0.0, 1.0), IntegerParameter("k", 1, 10)])


def runtime_of(config):
    """Deterministic run time: 10 s scaled by x, failures for k == 1."""
    if config["k"] == 1:
        return float("nan")
    return 10.0 * (0.5 + config["x"])


class TestDefaultEvaluator:
    """The evaluator every campaign without an ``evaluator_factory`` gets: a
    :class:`ServiceEvaluator` on a private pool."""

    def test_submissions_beyond_idle_workers_queue(self):
        ev = ServiceEvaluator(runtime_of, num_workers=3)
        xs = [0.1, 0.5, 0.3, 0.2, 0.4]  # durations 6, 10, 8, 7, 9
        assert ev.submit([{"x": x, "k": 2} for x in xs]) == 5
        assert ev.num_pending == 3
        assert ev.num_queued == 2
        assert ev.num_idle == 0
        done = []
        while ev.num_pending:
            _, completed = ev.wait_any(max_time=1000.0)
            done.extend(completed)
        # Each queued request starts at the completion that frees a worker:
        # x=0.2 when x=0.1 finishes at 6, x=0.4 when x=0.3 finishes at 8.
        by_x = {c.configuration["x"]: c for c in done}
        assert by_x[0.2].submitted == by_x[0.1].completed
        assert by_x[0.2].worker == by_x[0.1].worker
        assert by_x[0.4].submitted == by_x[0.3].completed
        assert by_x[0.4].worker == by_x[0.3].worker
        assert by_x[0.1].completed == pytest.approx(6.0)
        assert by_x[0.3].completed == pytest.approx(8.0)
        assert [c.configuration["x"] for c in done] == [0.1, 0.3, 0.5, 0.2, 0.4]

    def test_results_arrive_in_runtime_order(self):
        ev = ServiceEvaluator(runtime_of, num_workers=3)
        ev.submit([{"x": 0.9, "k": 2}, {"x": 0.1, "k": 2}, {"x": 0.5, "k": 2}])
        now, completed = ev.wait_any(max_time=1000.0)
        assert len(completed) == 1
        assert completed[0].configuration["x"] == pytest.approx(0.1)
        assert now == pytest.approx(10.0 * 0.6)

    def test_collect_returns_all_completed_up_to_now(self):
        ev = ServiceEvaluator(runtime_of, num_workers=3)
        ev.submit([{"x": 0.1, "k": 2}, {"x": 0.2, "k": 2}, {"x": 0.9, "k": 2}])
        ev.advance_to(8.0)
        done = ev.collect()
        assert len(done) == 2
        assert ev.num_pending == 1

    def test_failed_evaluations_occupy_failure_duration(self):
        ev = ServiceEvaluator(runtime_of, num_workers=1, failure_duration=600.0)
        ev.submit([{"x": 0.5, "k": 1}])
        now, completed = ev.wait_any(max_time=1e9)
        assert now == pytest.approx(600.0)
        assert math.isnan(completed[0].runtime)

    def test_custom_duration_function(self):
        ev = ServiceEvaluator(
            runtime_of,
            num_workers=1,
            duration_function=lambda config, runtime: 42.0,
        )
        ev.submit([{"x": 0.5, "k": 2}])
        now, completed = ev.wait_any(max_time=1e9)
        assert now == pytest.approx(42.0)
        assert completed[0].runtime == pytest.approx(10.0)

    def test_wait_any_respects_max_time(self):
        ev = ServiceEvaluator(runtime_of, num_workers=1)
        ev.submit([{"x": 0.9, "k": 2}])  # completes at 14
        now, completed = ev.wait_any(max_time=5.0)
        assert now == pytest.approx(5.0)
        assert completed == []

    def test_worker_reuse_after_completion(self):
        ev = ServiceEvaluator(runtime_of, num_workers=1)
        ev.submit([{"x": 0.1, "k": 2}])
        ev.wait_any(max_time=100.0)
        assert ev.num_idle == 1
        assert ev.submit([{"x": 0.2, "k": 2}]) == 1

    def test_time_cannot_move_backwards(self):
        ev = ServiceEvaluator(runtime_of, num_workers=1)
        ev.advance_to(10.0)
        with pytest.raises(ValueError):
            ev.advance_to(5.0)

    def test_utilization_full_when_always_busy(self):
        ev = ServiceEvaluator(lambda c: 10.0, num_workers=2)
        horizon = 100.0
        t = 0.0
        ev.submit([{"x": 0}, {"x": 1}])
        while True:
            now, done = ev.wait_any(max_time=horizon)
            if not done:
                break
            ev.submit([{"x": 0}] * len(done))
        assert ev.utilization(horizon) == pytest.approx(1.0, abs=1e-6)

    def test_utilization_half_when_half_idle(self):
        ev = ServiceEvaluator(lambda c: 50.0, num_workers=1)
        ev.submit([{"x": 0}])
        ev.wait_any(max_time=100.0)
        # worker busy 50 s of a 100 s horizon, then left idle
        assert ev.utilization(100.0) == pytest.approx(0.5)

    def test_utilization_clips_overrunning_evaluations(self):
        ev = ServiceEvaluator(lambda c: 1000.0, num_workers=1)
        ev.submit([{"x": 0}])
        assert ev.utilization(100.0) == pytest.approx(1.0)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            ServiceEvaluator(runtime_of, num_workers=0)
        with pytest.raises(ValueError):
            ServiceEvaluator(runtime_of, num_workers=1, failure_duration=0.0)


class TestOverheadModels:
    def _optimizer(self, surrogate, n_points):
        space = simple_space()
        opt = BayesianOptimizer(space, surrogate=surrogate, n_initial_points=2, seed=0)
        rng = np.random.default_rng(0)
        configs = space.sample(n_points, rng)
        opt.tell(configs, [float(i) for i in range(n_points)])
        return opt

    def test_gp_overhead_grows_cubically(self):
        model = AnalyticOverheadModel()
        small = model.tell_cost(self._optimizer("GP", 50), 1)
        large = model.tell_cost(self._optimizer("GP", 200), 1)
        assert large > 20 * small

    def test_rf_overhead_much_cheaper_than_gp_at_scale(self):
        model = AnalyticOverheadModel()
        rf = model.tell_cost(self._optimizer("RF", 200), 1)
        gp = model.tell_cost(self._optimizer("GP", 200), 1)
        assert gp > 5 * rf

    def test_random_sampling_is_nearly_free(self):
        model = AnalyticOverheadModel()
        space = simple_space()
        opt = BayesianOptimizer(space, random_sampling=True, seed=0)
        assert model.tell_cost(opt, 1) < 0.1
        assert model.ask_cost(opt, 8) < 0.1

    def test_gp_utilisation_collapse_scale(self):
        # At ~600 observations a GP update should take minutes (Fig. 4f).
        model = AnalyticOverheadModel()
        cost = model.tell_cost(self._optimizer("GP", 600), 1)
        assert 60.0 < cost < 1200.0

    def test_measured_model_uses_recorded_durations(self):
        opt = self._optimizer("RF", 30)
        model = MeasuredOverheadModel(scale=2.0)
        assert model.tell_cost(opt, 1) == pytest.approx(2.0 * opt.last_tell_duration)
        opt.ask(2)
        assert model.ask_cost(opt, 2) == pytest.approx(2.0 * opt.last_ask_duration)

    def test_factory(self):
        assert isinstance(make_overhead_model("analytic"), AnalyticOverheadModel)
        assert isinstance(make_overhead_model("measured"), MeasuredOverheadModel)
        model = AnalyticOverheadModel()
        assert make_overhead_model(model) is model
        with pytest.raises(ValueError):
            make_overhead_model("exact")
