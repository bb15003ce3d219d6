"""Tests for the asynchronous search loops (CBOSearch and VAEABOSearch).

These use a fast synthetic tuning problem so the behavioural properties of the
search (asynchrony, utilisation, transfer learning) can be checked in
milliseconds; the full HEP workflow integration lives in
``tests/integration``.
"""

import hashlib
import importlib.util
import inspect
import math
import os
import time

import numpy as np
import pytest

import repro.analysis.csvio
import repro.core.evaluator
import repro.core.history
import repro.core.journal
import repro.frameworks
from fixtures import (
    assert_results_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search,
    make_service_space,
    service_run_function,
)
from reference.search import run as run_sequential
from repro.analysis.campaign import run_repeated_search
from repro.core.history import SearchHistory
from repro.core.journal import CampaignJournal
from repro.core.liar import ConstantLiar
from repro.core.optimizer import BayesianOptimizer
from repro.core.overhead import MeasuredOverheadModel
from repro.core.search import CampaignExecution, CBOSearch, VAEABOSearch
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import (
    GaussianProcessSurrogate,
    RandomForestSurrogate,
    TreeParzenEstimator,
)
from repro.core.vae.tvae import VAEFleet
from repro.frameworks import Framework
from repro.service import CampaignRunner, SharedWorkerPool


def toy_space():
    return SearchSpace(
        [
            RealParameter("x", 0.0, 1.0),
            RealParameter("y", 0.0, 1.0),
            IntegerParameter("k", 1, 64, log=True),
            CategoricalParameter.boolean("flag"),
        ]
    )


def toy_runtime(config):
    """Run time between ~10 s (optimum) and ~200 s, NaN in a failure corner."""
    if config["x"] > 0.95 and config["y"] > 0.95:
        return float("nan")
    base = 10.0
    penalty = 150.0 * ((config["x"] - 0.7) ** 2 + (config["y"] - 0.3) ** 2)
    penalty += 20.0 * abs(np.log(config["k"]) / np.log(64) - 0.5)
    penalty += 0.0 if config["flag"] else 10.0
    return base + penalty


class TestCBOSearch:
    def test_finds_a_good_configuration(self):
        search = CBOSearch(
            toy_space(), toy_runtime, num_workers=8, surrogate="RF",
            refit_interval=2, seed=0,
        )
        result = search.run(max_time=1200.0)
        assert result.best_runtime < 25.0
        assert result.num_evaluations > 20
        assert result.best_configuration is not None

    def test_beats_random_sampling_in_mean_best(self):
        bo = CBOSearch(toy_space(), toy_runtime, num_workers=8, surrogate="RF", refit_interval=2, seed=1)
        rand = CBOSearch(
            toy_space(), toy_runtime, num_workers=8, surrogate="RAND",
            random_sampling=True, seed=1,
        )
        r_bo = bo.run(max_time=900.0)
        r_rand = rand.run(max_time=900.0)
        assert r_bo.best_runtime <= r_rand.best_runtime + 1.0

    def test_history_times_are_consistent(self):
        search = CBOSearch(toy_space(), toy_runtime, num_workers=4, seed=0)
        result = search.run(max_time=500.0)
        for ev in result.history:
            assert 0.0 <= ev.submitted < ev.completed <= 500.0 + 1e-6
        assert result.num_evaluations == len(result.history)

    def test_worker_utilization_bounds(self):
        search = CBOSearch(toy_space(), toy_runtime, num_workers=4, seed=0)
        result = search.run(max_time=500.0)
        assert 0.0 < result.worker_utilization <= 1.0

    def test_max_evaluations_cap(self):
        search = CBOSearch(toy_space(), toy_runtime, num_workers=4, seed=0)
        result = search.run(max_time=10_000.0, max_evaluations=12)
        assert result.num_evaluations <= 12 + 4  # cap plus at most one in-flight batch

    def test_initial_configurations_are_used_first(self):
        space = toy_space()
        init = [{"x": 0.7, "y": 0.3, "k": 8, "flag": True}]
        search = CBOSearch(space, toy_runtime, num_workers=2, seed=0)
        result = search.run(max_time=200.0, initial_configurations=init)
        first = min(result.history, key=lambda ev: ev.submitted)
        assert first.configuration["x"] == pytest.approx(0.7)

    def test_failed_corner_is_recorded_as_nan(self):
        space = toy_space()
        init = [{"x": 0.99, "y": 0.99, "k": 8, "flag": True}]
        search = CBOSearch(space, toy_runtime, num_workers=1, seed=0)
        result = search.run(max_time=700.0, initial_configurations=init)
        assert result.history.num_failures() >= 1

    def test_gp_has_lower_utilization_than_rf(self):
        # The GP's O(n^3) update cost must show up as idle workers (Fig. 4d/f).
        rf = CBOSearch(toy_space(), toy_runtime, num_workers=8, surrogate="RF", refit_interval=2, seed=2)
        gp = CBOSearch(toy_space(), toy_runtime, num_workers=8, surrogate="GP", seed=2)
        r_rf = rf.run(max_time=900.0)
        r_gp = gp.run(max_time=900.0)
        # At this reduced scale the GP overhead is small but never helps:
        # it must not beat RF on utilisation or throughput (the full-scale
        # collapse is reproduced by the Fig. 4 benchmarks).
        assert r_gp.worker_utilization <= r_rf.worker_utilization + 0.02
        assert r_gp.num_evaluations <= r_rf.num_evaluations + 2

    def test_invalid_max_time(self):
        search = CBOSearch(toy_space(), toy_runtime, num_workers=2, seed=0)
        with pytest.raises(ValueError):
            search.run(max_time=0.0)

    def test_busy_intervals_cover_evaluations(self):
        search = CBOSearch(toy_space(), toy_runtime, num_workers=4, seed=0)
        result = search.run(max_time=400.0)
        assert len(result.busy_intervals) >= result.num_evaluations


@pytest.fixture(scope="module")
def toy_source_history():
    search = CBOSearch(
        toy_space(), toy_runtime, num_workers=8, surrogate="RF",
        refit_interval=2, seed=3,
    )
    return search.run(max_time=900.0).history


class TestVAEABOSearch:

    def test_without_source_behaves_like_cbo(self):
        search = VAEABOSearch(toy_space(), toy_runtime, num_workers=4, seed=0)
        assert search.transfer_prior is None
        result = search.run(max_time=300.0)
        assert result.num_evaluations > 0

    def test_transfer_learning_converges_faster(self, toy_source_history):
        source = toy_source_history
        tl = VAEABOSearch(
            toy_space(), toy_runtime, source_history=source,
            num_workers=8, surrogate="RF", vae_epochs=80, refit_interval=2, seed=4,
        )
        no_tl = CBOSearch(
            toy_space(), toy_runtime, num_workers=8, surrogate="RF",
            refit_interval=2, seed=4,
        )
        r_tl = tl.run(max_time=600.0)
        r_no = no_tl.run(max_time=600.0)
        # Early incumbent: TL should already be good shortly after the first
        # completions, while the cold search is still exploring.
        early = 120.0
        assert r_tl.history.best_runtime_at(early) <= r_no.history.best_runtime_at(early) + 5.0
        assert r_tl.best_runtime < 25.0

    def test_transfer_prior_exposed(self, toy_source_history):
        source = toy_source_history
        search = VAEABOSearch(
            toy_space(), toy_runtime, source_history=source, vae_epochs=30,
            num_workers=2, seed=0,
        )
        assert search.transfer_prior is not None
        assert set(search.transfer_prior.shared_parameters) == {"x", "y", "k", "flag"}

    def test_transfer_from_smaller_space(self):
        # Source tuned only (x, y); the new space adds k and flag.
        small_space = SearchSpace([RealParameter("x", 0.0, 1.0), RealParameter("y", 0.0, 1.0)])
        source = SearchHistory(small_space)
        rng = np.random.default_rng(0)
        for i, config in enumerate(small_space.sample(150, rng)):
            source.record(config, toy_runtime({**config, "k": 8, "flag": True}), i, i + 1)
        search = VAEABOSearch(
            toy_space(), toy_runtime, source_history=source,
            num_workers=4, vae_epochs=60, refit_interval=2, seed=0,
        )
        assert set(search.transfer_prior.new_parameters) == {"k", "flag"}
        result = search.run(max_time=600.0)
        assert result.best_runtime < 40.0


class TestOptionSurface:
    def test_reference_paths_are_not_options(self):
        """The reference paths tests compare against live in
        ``tests/reference/``; none of them is selectable by an option, and
        searches always fsync their journals."""
        removed = [
            (RandomForestSurrogate, "fit_algorithm"),
            (GaussianProcessSurrogate, "incremental"),
            (BayesianOptimizer, "incremental"),
            (CBOSearch, "incremental"),
            (CBOSearch.start, "journal_fsync"),
            (CBOSearch.start_or_resume, "journal_fsync"),
            (CampaignExecution, "journal_fsync"),
            (CampaignExecution.resume, "journal_fsync"),
            (VAEFleet.fit, "fused"),
        ]
        for target, name in removed:
            assert name not in inspect.signature(target).parameters, target
        assert GaussianProcessSurrogate.supports_partial_fit is True
        # The journal keeps its switch: the CSV-to-journal export skips fsync.
        for method in (CampaignJournal.create, CampaignJournal.attach):
            assert inspect.signature(method).parameters["fsync"].default is True

    def test_one_campaign_driver(self):
        """The runner tick is the one in-process loop: the solo stepping
        composites and the other campaign drivers are gone."""
        for name in (
            "advance",
            "refresh_prior_if_due",
            "ask_and_submit",
            "prepare_submit",
            "begin_ask",
        ):
            assert not hasattr(CampaignExecution, name), name
        assert "runner" not in inspect.signature(run_repeated_search).parameters
        assert not hasattr(CampaignRunner, "gp_predict_chunk_elements")
        assert not hasattr(repro.frameworks, "run_framework_suite")
        assert not hasattr(Framework, "build_search")

    def test_one_stored_form(self):
        """Histories store words, so the knobs only tests set, the object
        columns' escape hatches and the lookups around them are gone."""
        assert "encoding" not in inspect.signature(BayesianOptimizer).parameters
        assert "penalty_length_scale" not in inspect.signature(ConstantLiar).parameters
        assert ConstantLiar.penalty_length_scale == 0.15
        assert not hasattr(BayesianOptimizer, "best")
        opt = BayesianOptimizer(make_service_space())
        for name in ("_configs", "_objectives"):
            assert not hasattr(opt, name), name
        for name in ("column_block", "has_incomplete_rows", "_param_bufs", "_columns_at"):
            assert not hasattr(SearchHistory, name), name
        history = SearchHistory(make_service_space())
        for name in ("_extras", "_incomplete_rows", "_param_loaders", "_param_element_loaders"):
            assert not hasattr(history, name), name
        assert list(inspect.signature(SearchHistory.from_columns).parameters) == [
            "space",
            "meta_columns",
            "param_columns",
            "objective",
        ]
        for module, name in (
            (repro.core.history, "_MISSING"),
            (repro.core.history, "_parse_value"),
            (repro.core.journal, "_ParamCodec"),
            (repro.core.journal, "_object_column"),
        ):
            assert not hasattr(module, name), name
        assert not hasattr(SearchSpace, "_is_tiny_rows")
        assert not hasattr(CampaignExecution, "_replay_ingest")

    def test_one_evaluator(self):
        """Every campaign evaluates on a ``SharedWorkerPool`` (the old
        private evaluator is the oracle in ``tests/reference/evaluator.py``),
        and the journal reader's cache is the one analysis cache."""
        assert not hasattr(repro.core, "AsyncVirtualEvaluator")
        assert not hasattr(repro.core.evaluator, "AsyncVirtualEvaluator")
        assert not hasattr(repro.analysis.csvio, "clear_history_cache")
        assert not hasattr(repro.analysis.csvio, "set_history_cache_limit")
        assert importlib.util.find_spec("repro.service.evaluator") is None


# --------------------------------------------------------- runner of one
def _source_history(space, n=60):
    """A fixed source campaign for the transfer-learning rows of the matrix."""
    history = SearchHistory(space)
    rng = np.random.default_rng(11)
    for i, config in enumerate(space.sample(n, rng)):
        history.record(config, service_run_function(config), float(i), float(i + 1))
    return history


def _transfer_search(seed, space, defer):
    return VAEABOSearch(
        space,
        service_run_function,
        source_history=_source_history(space),
        vae_epochs=10,
        defer_transfer_fit=defer,
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
        num_candidates=48,
        n_initial_points=5,
        seed=seed,
    )


#: The search setups ``CBOSearch.run`` must step exactly as the sequential
#: reference loop does.  Surrogates carry state, so each call builds anew.
RUNNER_OF_ONE_SETUPS = {
    "rf": lambda seed, space: make_service_search(seed, space),
    "gp": lambda seed, space: make_gp_search(seed, space),
    "rand": lambda seed, space: make_service_search(seed, space, surrogate="RAND"),
    "tpe": lambda seed, space: make_service_search(
        seed, space, surrogate=TreeParzenEstimator()
    ),
    "random-sampling": lambda seed, space: make_service_search(
        seed, space, random_sampling=True
    ),
    "refit-3": lambda seed, space: make_service_search(seed, space, refit_interval=3),
    "refresh": lambda seed, space: make_refresh_search(seed, space),
    "transfer-eager": lambda seed, space: _transfer_search(seed, space, False),
    "transfer-deferred": lambda seed, space: _transfer_search(seed, space, True),
}


def _journal_bytes(directory):
    """Digest of every file under a journal directory, by relative path."""
    digests = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return digests


def _assert_same_campaign(reference, reference_result, search, result):
    """Results, optimizer RNG and surrogate RNG must match bit for bit."""
    assert_results_identical(reference_result, result)
    assert (
        reference.optimizer.rng.bit_generator.state
        == search.optimizer.rng.bit_generator.state
    )
    reference_rng = getattr(reference.optimizer.surrogate, "_rng", None)
    rng = getattr(search.optimizer.surrogate, "_rng", None)
    assert (reference_rng is None) == (rng is None)
    if rng is not None:
        assert reference_rng.bit_generator.state == rng.bit_generator.state


class TestRunnerOfOne:
    """``CBOSearch.run`` is a campaign runner of one; the sequential loop in
    ``tests/reference/search.py`` is the oracle it must match."""

    @pytest.mark.parametrize("initial", [False, True], ids=["asked", "given"])
    @pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
    @pytest.mark.parametrize("setup", sorted(RUNNER_OF_ONE_SETUPS))
    def test_run_matches_the_sequential_loop(self, setup, journaled, initial, tmp_path):
        space = make_service_space()
        make = RUNNER_OF_ONE_SETUPS[setup]
        initial_configurations = (
            space.sample(3, np.random.default_rng(5)) if initial else None
        )
        runs = []
        for name in ("reference", "runner"):
            search = make(0, space)
            options = dict(
                max_time=600.0,
                max_evaluations=20,
                initial_configurations=initial_configurations,
                journal_dir=tmp_path / name if journaled else None,
            )
            if name == "reference":
                result = run_sequential(search, **options)
            else:
                result = search.run(**options)
            runs.append((search, result))
        _assert_same_campaign(*runs[0], *runs[1])
        if journaled:
            assert _journal_bytes(tmp_path / "reference") == _journal_bytes(
                tmp_path / "runner"
            )

    def test_searches_in_turn_on_one_shared_pool(self):
        """Two searches run one after another on one shared pool's clock."""
        space = make_service_space()
        runs = {}
        for name in ("reference", "runner"):
            pool = SharedWorkerPool(num_workers=6)
            runs[name] = []
            for seed in (0, 1):
                search = make_service_search(
                    seed, space, evaluator_factory=pool.evaluator_factory()
                )
                if name == "reference":
                    result = run_sequential(search, max_time=800.0, max_evaluations=18)
                else:
                    result = search.run(max_time=800.0, max_evaluations=18)
                runs[name].append((search, result))
        for reference, runner in zip(runs["reference"], runs["runner"]):
            _assert_same_campaign(*reference, *runner)

    def test_measured_overhead_charges_each_solo_fit(self):
        """Under ``overhead="measured"`` a runner of one fits inline, so each
        fit's wall time is charged as tell overhead, as a solo tell is."""
        charged = []

        class SlowForest(RandomForestSurrogate):
            def fit(self, X, y):
                time.sleep(0.02)
                return super().fit(X, y)

        class RecordingOverhead(MeasuredOverheadModel):
            def tell_cost(self, optimizer, num_new):
                cost = super().tell_cost(optimizer, num_new)
                charged.append((optimizer.num_fits, cost))
                return cost

        search = make_service_search(
            0,
            surrogate=SlowForest(n_estimators=4, seed=0),
            overhead=RecordingOverhead(),
            num_workers=2,
            n_initial_points=3,
        )
        search.run(max_time=600.0, max_evaluations=10)
        fitted = 0
        previous = 0
        for num_fits, cost in charged:
            if num_fits > previous:
                fitted += 1
                assert cost >= 0.02, (num_fits, cost)
            previous = num_fits
        assert fitted >= 5
