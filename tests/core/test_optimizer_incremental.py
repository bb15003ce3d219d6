"""Regression tests for the incremental encoded-history cache.

The optimizer appends encoded rows into growing buffers instead of
re-encoding its full history per interaction.  The re-encoding oracle,
:class:`reference.optimizer.ReencodingOptimizer`, rebuilds the training
matrix from the stored configurations on every fit.  Because the column
codecs are elementwise, both must produce *bit-identical* surrogate inputs
and therefore bit-identical ask/tell results; these tests pin that down for
the optimizer, for :class:`CBOSearch` and for :class:`VAEABOSearch`.
"""

import math

import numpy as np
import pytest

from fixtures import make_wide_space as make_space, wide_objective as fake_objective
from reference.optimizer import ReencodingOptimizer, install_reencoding
from repro.core.history import SearchHistory
from repro.core.optimizer import BayesianOptimizer
from repro.core.search import CBOSearch, VAEABOSearch
from repro.core.space import CategoricalParameter, IntegerParameter, SearchSpace


def run_ask_tell(optimizer_type, surrogate, rounds=8, batch=4, seed=123):
    space = make_space()
    opt = optimizer_type(
        space,
        surrogate=surrogate,
        num_candidates=128,
        n_initial_points=6,
        seed=seed,
    )
    trajectory = []
    for _ in range(rounds):
        proposals = opt.ask(batch)
        trajectory.append(proposals)
        opt.tell(proposals, [fake_objective(c) for c in proposals])
    return opt, trajectory


class TestIncrementalCacheIdentity:
    @pytest.mark.parametrize("surrogate", ["RF", "GP"])
    def test_ask_tell_bit_identical_with_and_without_cache(self, surrogate):
        opt_inc, traj_inc = run_ask_tell(BayesianOptimizer, surrogate)
        opt_ref, traj_ref = run_ask_tell(ReencodingOptimizer, surrogate)
        # Proposal sequences must match exactly — values, types and order.
        assert traj_inc == traj_ref
        # So must the final training data handed to the surrogate.
        X_inc, y_inc = opt_inc._train_data()
        X_ref, y_ref = opt_ref._train_data()
        assert np.array_equal(X_inc, X_ref)
        assert np.array_equal(y_inc, y_ref)

    def test_cached_rows_match_full_reencode(self):
        """Appending encoded batches equals re-encoding the whole history."""
        opt, _ = run_ask_tell(BayesianOptimizer, "RF", rounds=5)
        X_cached, y_cached = opt._train_data()
        X_full = opt._encode(opt._configs)
        assert np.array_equal(X_cached, X_full)
        assert np.array_equal(y_cached, np.asarray(opt._objectives))

    def test_buffer_growth_preserves_rows(self):
        space = make_space()
        opt = BayesianOptimizer(space, n_initial_points=2, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(6):  # repeated growth past the initial capacity
            configs = space.sample(40, rng)
            opt.tell(configs, [fake_objective(c) for c in configs])
        X, y = opt._train_data()
        assert X.shape == (240, len(space))
        assert np.array_equal(X, opt._encode(opt._configs))

    def test_duplicate_detection_survives_materialisation(self):
        """A proposal told back to the optimizer is never proposed again."""
        space = SearchSpace(
            [IntegerParameter("a", 0, 40), CategoricalParameter.boolean("b")]
        )
        opt = BayesianOptimizer(space, n_initial_points=4, num_candidates=64, seed=3)
        seen = set()
        for _ in range(6):
            batch = opt.ask(3)
            keys = [row.tobytes() for row in space.key_array(batch)]
            assert not (set(keys) & seen)
            seen.update(keys)
            opt.tell(batch, [float(c["a"]) for c in batch])


class TestSearchIdentity:
    def _run_cbo(self, reencode, surrogate="RF"):
        space = make_space()

        def run_function(config):
            return math.exp(-fake_objective(config) / 4.0)

        search = CBOSearch(
            space,
            run_function,
            num_workers=6,
            surrogate=surrogate,
            n_initial_points=6,
            num_candidates=96,
            seed=11,
        )
        if reencode:
            install_reencoding(search)
        return search.run(max_time=300.0, max_evaluations=60)

    def test_cbo_search_identical_with_and_without_cache(self):
        res_inc = self._run_cbo(False)
        res_ref = self._run_cbo(True)
        assert len(res_inc.history) == len(res_ref.history)
        for ev_a, ev_b in zip(res_inc.history, res_ref.history):
            assert ev_a.configuration == ev_b.configuration
            assert ev_a.submitted == ev_b.submitted
            assert ev_a.completed == ev_b.completed
            assert (ev_a.objective == ev_b.objective) or (
                math.isnan(ev_a.objective) and math.isnan(ev_b.objective)
            )
        assert res_inc.best_configuration == res_ref.best_configuration
        assert res_inc.worker_utilization == res_ref.worker_utilization

    def test_vaeabo_search_identical_with_and_without_cache(self):
        space = make_space()
        rng = np.random.default_rng(5)
        source = SearchHistory(space)
        t = 0.0
        for config in space.sample(40, rng):
            runtime = math.exp(-fake_objective(config) / 4.0)
            source.record(config, runtime=runtime, submitted=t, completed=t + 60.0)
            t += 10.0

        def run_function(config):
            return math.exp(-fake_objective(config) / 4.0)

        def run(reencode):
            search = VAEABOSearch(
                space,
                run_function,
                source_history=source,
                vae_epochs=15,
                num_workers=4,
                n_initial_points=5,
                num_candidates=64,
                seed=21,
            )
            if reencode:
                install_reencoding(search)
            return search.run(max_time=240.0, max_evaluations=40)

        res_inc, res_ref = run(False), run(True)
        assert [ev.configuration for ev in res_inc.history] == [
            ev.configuration for ev in res_ref.history
        ]
        assert res_inc.best_runtime == res_ref.best_runtime


class TestSampleUniqueExhaustion:
    def test_exhausted_space_short_circuits_to_duplicates(self):
        """Once every configuration was evaluated, ask() returns duplicates fast."""
        space = SearchSpace(
            [IntegerParameter("a", 0, 1), CategoricalParameter.boolean("b")]
        )
        assert space.cardinality == 4
        opt = BayesianOptimizer(space, n_initial_points=2, num_candidates=16, seed=0)
        everything = [
            {"a": a, "b": b} for a in (0, 1) for b in (False, True)
        ]
        opt.tell(everything, [1.0, 2.0, 3.0, 4.0])
        assert len(opt._evaluated_keys) == 4
        proposals = opt.ask(6)
        assert len(proposals) == 6
        for config in proposals:
            space.validate(config)

    def test_nearly_exhausted_space_returns_remaining_fresh_first(self):
        space = SearchSpace(
            [IntegerParameter("a", 0, 1), CategoricalParameter.boolean("b")]
        )
        opt = BayesianOptimizer(space, n_initial_points=8, num_candidates=16, seed=0)
        told = [{"a": 0, "b": False}, {"a": 0, "b": True}, {"a": 1, "b": False}]
        opt.tell(told, [1.0, 2.0, 3.0])
        proposals = opt.ask(2)
        keys = {(c["a"], c["b"]) for c in proposals}
        assert (1, True) in keys  # the one remaining fresh configuration
