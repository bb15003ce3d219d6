"""Equivalence tests for the columnar history and the incremental GP.

The columnar :class:`~repro.core.history.SearchHistory` must be
observationally identical to the former row-major storage: these tests pit
it against :class:`reference.history.RowHistoryReference` (the original
per-row algorithms, kept verbatim in ``tests/reference/``) and assert,
property-style over randomized histories with NaN failures, that
``objectives()``, ``incumbent_trajectory()``, ``top_quantile()`` and the CSV
text are identical.

The GP's rank-1 Cholesky extension must match a full refit with the same
(frozen) hyperparameters to tight tolerance — the ≤ 1e-8 acceptance bar of
the incremental-fit PR — and the optimizer's ``tell`` must actually route new
observations through it.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.gaussian_process import refit_with_current_hyperparameters
from reference.history import RowHistoryReference
from repro.core.history import SearchHistory, _parse_typed
from repro.core.optimizer import BayesianOptimizer
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate.gaussian_process import GaussianProcessSurrogate


def make_space():
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            RealParameter("rate", 0.5, 100.0, log=True),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            OrdinalParameter("pes", (1, 2, 4, 8, 16, 32)),
            CategoricalParameter.boolean("busy"),
        ]
    )


def build_histories(runtimes, seed):
    """Fill a columnar history and the row reference with the same records."""
    space = make_space()
    rng = np.random.default_rng(seed)
    columnar = SearchHistory(space)
    reference = RowHistoryReference(space)
    # Shuffled completion times exercise the stable completion-order sort.
    completed = rng.permutation(len(runtimes)).astype(float) + 1.0
    for i, rt in enumerate(runtimes):
        config = space.sample(1, rng)[0]
        ev = columnar.record(
            config,
            runtime=rt,
            submitted=float(i),
            completed=float(completed[i]),
            worker=i % 4,
        )
        reference.append(ev)
    return columnar, reference


# runtime 0.0 is the tricky case: record() marks the evaluation failed
# (objective NaN) while storing a finite runtime, so the incumbent trajectory
# must skip it although best_runtime_at historically considers it.
runtime_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.1, max_value=600.0),
        st.just(float("nan")),
        st.just(0.0),
    ),
    min_size=1,
    max_size=40,
)


class TestColumnarRowEquivalence:
    @given(runtimes=runtime_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_objectives_and_trajectory_identical(self, runtimes, seed):
        columnar, reference = build_histories(runtimes, seed)
        assert np.array_equal(
            columnar.objectives(), reference.objectives(), equal_nan=True
        )
        assert columnar.incumbent_trajectory() == reference.incumbent_trajectory()

    @given(
        runtimes=runtime_lists,
        seed=st.integers(0, 2**16),
        q=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_top_quantile_identical(self, runtimes, seed, q):
        columnar, reference = build_histories(runtimes, seed)
        assert columnar.top_quantile(q) == reference.top_quantile(q)

    @given(runtimes=runtime_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_best_runtime_at_identical(self, runtimes, seed):
        columnar, reference = build_histories(runtimes, seed)
        for t in (-1.0, 0.0, 1.0, len(runtimes) / 2.0, float(len(runtimes) + 1)):
            assert columnar.best_runtime_at(t) == reference.best_runtime_at(t)

    @given(runtimes=runtime_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_csv_text_identical_to_row_serialisation(self, runtimes, seed):
        """The CSV text matches a row-by-row DictWriter serialisation."""
        import csv as csv_mod
        import io

        columnar, reference = build_histories(runtimes, seed)
        buffer = io.StringIO()
        fieldnames = list(SearchHistory.CSV_META_COLUMNS) + list(
            columnar.space.parameter_names
        )
        writer = csv_mod.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for ev in reference.evaluations:
            row = {
                "eval_id": ev.eval_id,
                "worker": ev.worker,
                "submitted": f"{ev.submitted:.6f}",
                "completed": f"{ev.completed:.6f}",
                "runtime": f"{ev.runtime:.6f}" if math.isfinite(ev.runtime) else "nan",
                "objective": f"{ev.objective:.6f}"
                if math.isfinite(ev.objective)
                else "nan",
            }
            for name in columnar.space.parameter_names:
                row[name] = ev.configuration.get(name, "")
            writer.writerow(row)
        assert columnar.to_csv() == buffer.getvalue()

    @given(runtimes=runtime_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_csv_round_trip_preserves_values_and_types(self, runtimes, seed):
        columnar, _ = build_histories(runtimes, seed)
        loaded = SearchHistory.from_csv(columnar.to_csv(), columnar.space)
        assert len(loaded) == len(columnar)
        for a, b in zip(columnar, loaded):
            assert a.configuration == b.configuration
            for name in columnar.space.parameter_names:
                assert type(a.configuration[name]) is type(b.configuration[name])

    @staticmethod
    def _same_evaluation(a, b):
        def same(x, y):
            if isinstance(x, float) and isinstance(y, float):
                return (x == y) or (math.isnan(x) and math.isnan(y))
            return x == y

        return (
            a.configuration == b.configuration
            and same(a.objective, b.objective)
            and same(a.runtime, b.runtime)
            and a.submitted == b.submitted
            and a.completed == b.completed
            and a.worker == b.worker
            and a.eval_id == b.eval_id
        )

    def test_materialised_views_round_trip(self):
        columnar, reference = build_histories([30.0, float("nan"), 12.0, 50.0], 7)
        assert len(columnar.evaluations) == len(reference.evaluations)
        for a, b in zip(columnar.evaluations, reference.evaluations):
            assert self._same_evaluation(a, b)
        assert self._same_evaluation(columnar[2], reference.evaluations[2])
        assert self._same_evaluation(columnar[-1], reference.evaluations[-1])
        for a, b in zip(columnar, reference.evaluations):
            assert self._same_evaluation(a, b)
        successes = [ev for ev in reference.evaluations if not ev.failed]
        assert columnar.successful() == successes

    def test_top_quantile_columns_matches_dicts(self):
        columnar, _ = build_histories([50.0, 20.0, float("nan"), 35.0, 10.0, 27.0], 3)
        batch = columnar.top_quantile_columns(0.5)
        assert batch.to_configurations() == columnar.top_quantile(0.5)

    def test_incumbent_at_matches_scalar_queries(self):
        columnar, reference = build_histories([40.0, float("nan"), 25.0, 31.0, 8.0], 9)
        grid = np.linspace(0.0, 7.0, 29)
        vec = columnar.incumbent_at(grid)
        scalar = np.asarray([reference.best_runtime_at(t) for t in grid])
        assert np.array_equal(vec, scalar)

    def test_failed_with_finite_runtime_excluded_from_trajectory(self):
        """runtime=0 records a failure with a finite runtime cell."""
        columnar, reference = build_histories([40.0, 0.0, 25.0], 11)
        assert math.isnan(columnar.objectives()[1])
        assert columnar.runtimes()[1] == 0.0
        trajectory = columnar.incumbent_trajectory()
        assert trajectory == reference.incumbent_trajectory()
        assert all(value > 0.0 for _, value in trajectory)
        # best_runtime_at keeps its historical runtime-finiteness semantics.
        assert columnar.best_runtime_at(100.0) == reference.best_runtime_at(100.0)

    def test_slice_indexing(self):
        columnar, reference = build_histories([30.0, 12.0, 45.0, 20.0], 5)
        assert columnar[1:3] == reference.evaluations[1:3]
        assert columnar[::-1] == reference.evaluations[::-1]
        assert columnar[:0] == []


class TestTopKColumnsAndCopy:
    @given(runtime_lists, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_top_k_matches_sorted_reference(self, runtimes, seed):
        columnar, _ = build_histories(runtimes, seed)
        k = max(1, len(runtimes) // 3)
        batch = columnar.top_k_columns(k)
        # Reference: best-objective-first over the successful evaluations,
        # ties broken by insertion order.
        successes = [
            (ev.objective, i, ev)
            for i, ev in enumerate(columnar)
            if math.isfinite(ev.objective)
        ]
        successes.sort(key=lambda item: (-item[0], item[1]))
        expected = [ev.configuration for _, _, ev in successes[:k]]
        assert len(batch) == len(expected)
        assert batch.to_configurations() == expected

    def test_top_k_validation_and_empty(self):
        space = make_space()
        history = SearchHistory(space)
        with pytest.raises(ValueError):
            history.top_k_columns(0)
        assert len(history.top_k_columns(3)) == 0

    def test_copy_is_independent(self):
        columnar, _ = build_histories([10.0, 20.0, float("nan"), 5.0], seed=3)
        clone = columnar.copy()
        assert clone.to_csv() == columnar.to_csv()
        config = dict(columnar[0].configuration)
        clone.record(config, 7.0, 10.0, 11.0)
        assert len(clone) == len(columnar) + 1
        assert columnar.to_csv() != clone.to_csv()
        # The original keeps appending on its own buffers too.
        columnar.record(config, 8.0, 12.0, 13.0)
        assert len(columnar) == len(clone)
        assert columnar[len(columnar) - 1].runtime != clone[len(clone) - 1].runtime


class TestTypedCsvParsing:
    def test_integer_parameter_scientific_notation(self):
        param = IntegerParameter("batch", 1, 2048, log=True)
        assert _parse_typed("1e3", param) == 1000
        assert isinstance(_parse_typed("1e3", param), int)
        assert _parse_typed("42", param) == 42

    def test_real_parameter_stays_float(self):
        param = RealParameter("rate", 0.5, 100.0)
        value = _parse_typed("2", param)
        assert value == 2.0 and isinstance(value, float)

    def test_string_category_true_is_not_a_bool(self):
        param = CategoricalParameter("mode", ("True", "False", "auto"))
        value = _parse_typed("True", param)
        assert value == "True" and isinstance(value, str)

    def test_boolean_category_parses_to_bool(self):
        param = CategoricalParameter.boolean("busy")
        assert _parse_typed("True", param) is True
        assert _parse_typed("False", param) is False

    def test_ordinal_int_values(self):
        param = OrdinalParameter("pes", (1, 2, 4, 8, 16, 32))
        value = _parse_typed("16", param)
        assert value == 16 and isinstance(value, int)

    def test_string_valued_parameter_round_trips_through_csv(self):
        space = SearchSpace(
            [
                CategoricalParameter("mode", ("True", "1e3", "plain")),
                IntegerParameter("n", 1, 10000),
            ]
        )
        history = SearchHistory(space)
        history.record({"mode": "True", "n": 1000}, 5.0, 0.0, 1.0)
        history.record({"mode": "1e3", "n": 7}, 6.0, 1.0, 2.0)
        loaded = SearchHistory.from_csv(history.to_csv(), space)
        assert loaded[0].configuration == {"mode": "True", "n": 1000}
        assert isinstance(loaded[0].configuration["mode"], str)
        assert loaded[1].configuration == {"mode": "1e3", "n": 7}
        assert isinstance(loaded[1].configuration["mode"], str)


class TestIncrementalGP:
    def _data(self, n, d=5, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = np.sin(2.0 * X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
        return X, y

    def test_rank_one_posterior_matches_frozen_full_refit(self):
        """Acceptance bar: rank-1 updates match a full refit to ≤ 1e-8."""
        X, y = self._data(140)
        gp = GaussianProcessSurrogate(noise=1e-3, refresh_growth=100.0)
        gp.fit(X[:90], y[:90])
        for i in range(90, 140, 5):
            gp.partial_fit(X[i : i + 5], y[i : i + 5])
        assert gp.num_partial_fits == 10

        reference = copy.deepcopy(gp)
        refit_with_current_hyperparameters(reference, X, y)
        X_test = self._data(64, seed=99)[0]
        mean_inc, std_inc = gp.predict(X_test)
        mean_ref, std_ref = reference.predict(X_test)
        assert np.max(np.abs(mean_inc - mean_ref)) <= 1e-8
        assert np.max(np.abs(std_inc - std_ref)) <= 1e-8

    def test_refresh_schedule_triggers_full_fit(self):
        X, y = self._data(60)
        gp = GaussianProcessSurrogate(refresh_growth=1.25)
        gp.fit(X[:32], y[:32])
        assert gp.num_full_fits == 1
        for i in range(32, 60, 2):
            gp.partial_fit(X[i : i + 2], y[i : i + 2])
        # 32 → refresh due at 40 and again at ≥ 50.
        assert gp.num_full_fits >= 3
        assert gp.num_partial_fits > 0
        # The model stays a sane GP after mixed updates.
        mean, std = gp.predict(X[:4])
        assert np.all(np.isfinite(mean)) and np.all(std > 0)

    def test_partial_fit_before_fit_falls_back_to_fit(self):
        X, y = self._data(20)
        gp = GaussianProcessSurrogate()
        gp.partial_fit(X, y)
        assert gp.fitted and gp.num_full_fits == 1

    def test_optimizer_tell_routes_through_partial_fit(self):
        space = make_space()
        gp = GaussianProcessSurrogate(refresh_growth=100.0)
        opt = BayesianOptimizer(space, surrogate=gp, n_initial_points=8, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            configs = space.sample(4, rng)
            opt.tell(configs, [float(c["pes"]) for c in configs])
        assert gp.num_full_fits == 1  # the initial fit only
        assert gp.num_partial_fits == 3  # every later tell extends the factor
        assert opt._n_fitted_rows == opt.num_observations
