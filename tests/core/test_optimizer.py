"""Tests for the ask/tell Bayesian optimizer."""

import math

import numpy as np
import pytest

from repro.core.optimizer import BayesianOptimizer, make_surrogate
from repro.core.priors import CategoricalPrior, IndependentPrior
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import (
    ConstantSurrogate,
    GaussianProcessSurrogate,
    RandomForestSurrogate,
)


def quadratic_space():
    return SearchSpace(
        [
            RealParameter("x", -5.0, 5.0),
            RealParameter("y", -5.0, 5.0),
            CategoricalParameter.boolean("flag"),
        ]
    )


def quadratic_objective(config):
    # Maximum at (2, -1), flag=True adds a small bonus.
    value = -((config["x"] - 2.0) ** 2) - (config["y"] + 1.0) ** 2
    return value + (0.5 if config["flag"] else 0.0)


class TestMakeSurrogate:
    def test_known_names(self):
        assert isinstance(make_surrogate("RF"), RandomForestSurrogate)
        assert isinstance(make_surrogate("GP"), GaussianProcessSurrogate)
        assert isinstance(make_surrogate("RAND"), ConstantSurrogate)

    def test_pass_through_instance(self):
        model = RandomForestSurrogate()
        assert make_surrogate(model) is model

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_surrogate("XGBOOST")


class TestAskTell:
    def test_ask_before_data_samples_from_prior(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, seed=0)
        batch = opt.ask(5)
        assert len(batch) == 5
        for config in batch:
            space.validate(config)

    def test_tell_then_ask_uses_the_model(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, n_initial_points=5, num_candidates=256, seed=0)
        rng = np.random.default_rng(0)
        configs = space.sample(30, rng)
        objectives = [quadratic_objective(c) for c in configs]
        opt.tell(configs, objectives)
        assert opt.surrogate.fitted
        proposals = opt.ask(4)
        assert len(proposals) == 4
        for proposal in proposals:
            space.validate(proposal)
        # The proposals are chosen by the surrogate-guided acquisition, so the
        # model should rate them at least as promising as random candidates.
        random_configs = space.sample(64, rng)
        prop_mean, prop_std = opt.surrogate.predict(opt._encode(proposals))
        rand_mean, rand_std = opt.surrogate.predict(opt._encode(random_configs))
        acq = opt.acquisition
        assert np.max(acq(prop_mean, prop_std)) >= np.median(acq(rand_mean, rand_std))

    def test_optimizer_improves_over_random(self):
        space = quadratic_space()
        rng = np.random.default_rng(1)
        opt = BayesianOptimizer(space, n_initial_points=8, num_candidates=256, seed=1)
        best = -np.inf
        for _ in range(16):
            batch = opt.ask(4)
            objectives = [quadratic_objective(c) for c in batch]
            best = max(best, max(objectives))
            opt.tell(batch, objectives)
        random_best = max(
            quadratic_objective(c) for c in space.sample(48, rng)
        )
        assert best >= random_best - 1.0

    def test_failures_are_filled_for_fitting(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, n_initial_points=2, seed=0)
        configs = space.sample(6, np.random.default_rng(0))
        objectives = [float("nan")] * 3 + [1.0, 2.0, 3.0]
        opt.tell(configs, objectives)
        assert opt.surrogate.fitted  # did not crash on NaN
        assert opt.num_observations == 6

    def test_tell_length_mismatch_rejected(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, seed=0)
        with pytest.raises(ValueError):
            opt.tell(space.sample(2, np.random.default_rng(0)), [1.0])

    def test_ask_does_not_repeat_evaluated_configurations(self):
        space = SearchSpace(
            [IntegerParameter("a", 0, 3), CategoricalParameter.boolean("b")]
        )
        opt = BayesianOptimizer(space, n_initial_points=2, num_candidates=64, seed=0)
        seen = []
        for _ in range(3):
            batch = opt.ask(2)
            opt.tell(batch, [float(i) for i in range(len(batch))])
            seen.extend(row.tobytes() for row in space.key_array(batch))
        # All 8 possible configs may eventually be exhausted, but within the
        # first three rounds we should not see duplicates.
        assert len(seen) == len(set(seen))

    def test_random_sampling_mode_never_fits(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, random_sampling=True, n_initial_points=2, seed=0)
        configs = space.sample(10, np.random.default_rng(0))
        opt.tell(configs, [quadratic_objective(c) for c in configs])
        assert opt.num_fits == 0
        assert len(opt.ask(3)) == 3

    def test_refit_interval_limits_fit_count(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, n_initial_points=2, refit_interval=8, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(6):
            configs = space.sample(2, rng)
            opt.tell(configs, [quadratic_objective(c) for c in configs])
        # 12 points, first fit when >= n_initial, then only every 8 new points.
        assert 1 <= opt.num_fits <= 2

    def test_prior_biases_candidate_generation(self):
        space = quadratic_space()
        biased = IndependentPrior(
            space,
            priors={"flag": CategoricalPrior(space["flag"], probabilities=[0.0, 1.0])},
        )
        opt = BayesianOptimizer(space, prior=biased, seed=0)
        batch = opt.ask(20)
        assert all(c["flag"] is True or c["flag"] == True for c in batch)  # noqa: E712

    def test_solo_ask_that_raises_restores_the_generator(self):
        """A solo ask is a fleet pass of one: a raising prior leaves the
        optimizer's generator where it was, so a retry draws the same."""
        space = quadratic_space()
        opt = BayesianOptimizer(space, num_candidates=32, n_initial_points=4, seed=0)
        configs = space.sample(6, np.random.default_rng(0))
        opt.tell(configs, [quadratic_objective(c) for c in configs])
        working = opt.prior

        class RaisingPrior:
            def sample_columns(self, n, rng):
                rng.random(n)  # consume draws, then fail
                raise RuntimeError("prior failed")

        state = opt.rng.bit_generator.state
        opt.prior = RaisingPrior()
        with pytest.raises(RuntimeError, match="prior failed"):
            opt.prepare_ask(2)
        assert opt.rng.bit_generator.state == state
        opt.prior = working
        retried = opt.ask(2)
        twin = BayesianOptimizer(space, num_candidates=32, n_initial_points=4, seed=0)
        twin.tell(configs, [quadratic_objective(c) for c in configs])
        assert retried == twin.ask(2)

    def test_invalid_constructor_arguments(self):
        space = quadratic_space()
        with pytest.raises(ValueError):
            BayesianOptimizer(space, num_candidates=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(space, n_initial_points=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(space, refit_interval=0)

    def test_gp_surrogate_uses_one_hot_encoding_automatically(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, surrogate="GP", seed=0)
        assert opt.encoding == "one_hot"
        opt_rf = BayesianOptimizer(space, surrogate="RF", seed=0)
        assert opt_rf.encoding == "numeric"

    def test_categorical_column_indices(self):
        space = quadratic_space()
        opt = BayesianOptimizer(space, seed=0)
        assert opt.categorical_column_indices() == [2]


class TestPreparedAskScoring:
    """``ask`` is ``prepare_ask`` then ``finish_ask``, and a pool scored
    outside the optimizer selects exactly what ``finish_ask`` would have
    selected scoring it itself — the contract fused fleet scoring relies on.
    """

    @staticmethod
    def trajectory(surrogate, mode, liar_strategy="kernel_penalty", rounds=6):
        opt = BayesianOptimizer(
            quadratic_space(),
            surrogate=surrogate,
            num_candidates=64,
            n_initial_points=5,
            liar_strategy=liar_strategy,
            seed=3,
        )
        batches, external = [], 0
        for _ in range(rounds):
            if mode == "ask":
                batch = opt.ask(4)
            else:
                prepared = opt.prepare_ask(4)
                if prepared.proposals is not None:
                    batch = prepared.proposals
                elif mode == "external" and prepared.wants_scores:
                    external += 1
                    batch = opt.finish_ask(
                        prepared, *opt.surrogate.predict(prepared.encoded)
                    )
                else:
                    batch = opt.finish_ask(prepared, None, None)
            opt.tell(batch, [quadratic_objective(c) for c in batch])
            batches.append(batch)
        return batches, opt.rng.bit_generator.state, external

    @pytest.mark.parametrize("surrogate", ["RF", "GP"])
    def test_external_scores_select_what_finish_ask_selects(self, surrogate):
        asked, asked_state, _ = self.trajectory(surrogate, "ask")
        internal, internal_state, _ = self.trajectory(surrogate, "internal")
        external, external_state, num_external = self.trajectory(surrogate, "external")
        assert num_external >= 3
        assert internal == asked and external == asked
        assert internal_state == asked_state and external_state == asked_state

    def test_refit_liar_pool_wants_no_scores(self):
        opt = BayesianOptimizer(
            quadratic_space(), num_candidates=32, n_initial_points=3,
            liar_strategy="refit", seed=5,
        )
        batch = opt.ask(3)
        opt.tell(batch, [quadratic_objective(c) for c in batch])
        prepared = opt.prepare_ask(2)
        assert prepared.proposals is None
        assert not prepared.wants_scores
        asked, _, _ = self.trajectory("RF", "ask", "refit", rounds=4)
        external, _, num_external = self.trajectory("RF", "external", "refit", rounds=4)
        assert num_external == 0
        assert external == asked

