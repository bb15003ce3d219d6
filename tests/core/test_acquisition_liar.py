"""Tests for the acquisition functions and the constant-liar batch selection."""

import numpy as np
import pytest

from repro.core.acquisition import (
    UCBAcquisition,
    expected_improvement,
    lower_confidence_bound,
    upper_confidence_bound,
)
from repro.core.liar import ConstantLiar
from repro.core.surrogate import RandomForestSurrogate


class TestAcquisitionFunctions:
    def test_lcb_and_ucb_are_symmetric(self):
        mean = np.array([1.0, 2.0, 3.0])
        std = np.array([0.5, 0.5, 0.5])
        lcb = lower_confidence_bound(mean, std, kappa=2.0)
        ucb = upper_confidence_bound(mean, std, kappa=2.0)
        assert np.allclose(ucb - mean, mean - lcb)

    def test_kappa_zero_is_greedy(self):
        mean = np.array([1.0, 5.0, 3.0])
        std = np.array([10.0, 0.1, 10.0])
        acq = UCBAcquisition(kappa=0.0)
        assert np.argmax(acq(mean, std)) == 1

    def test_large_kappa_prefers_uncertainty(self):
        mean = np.array([1.0, 5.0, 3.0])
        std = np.array([10.0, 0.1, 1.0])
        acq = UCBAcquisition(kappa=100.0)
        assert np.argmax(acq(mean, std)) == 0

    def test_rank_orders_descending_scores(self):
        acq = UCBAcquisition(kappa=1.0)
        mean = np.array([0.0, 2.0, 1.0])
        std = np.zeros(3)
        assert list(acq.rank(mean, std)) == [1, 2, 0]

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            upper_confidence_bound(np.zeros(2), np.ones(2), kappa=-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            upper_confidence_bound(np.zeros(2), np.ones(3))

    def test_expected_improvement_zero_without_upside(self):
        mean = np.array([0.0])
        std = np.array([1e-9])
        ei = expected_improvement(mean, std, best=10.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_expected_improvement_prefers_high_mean(self):
        mean = np.array([0.0, 5.0])
        std = np.array([1.0, 1.0])
        ei = expected_improvement(mean, std, best=1.0)
        assert ei[1] > ei[0]


class TestConstantLiar:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.train_X = rng.uniform(size=(60, 3))
        self.train_y = self.train_X[:, 0] * 2 + rng.normal(scale=0.05, size=60)
        self.surrogate = RandomForestSurrogate(n_estimators=8, seed=0)
        self.surrogate.fit(self.train_X, self.train_y)
        self.candidates = rng.uniform(size=(100, 3))
        self.acq = UCBAcquisition(kappa=1.96)

    def _select(self, strategy, n):
        liar = ConstantLiar(strategy=strategy)
        return liar.select(
            n,
            surrogate=self.surrogate,
            acquisition=self.acq,
            candidates_encoded=self.candidates,
            candidates_unit=self.candidates,
            train_X=self.train_X,
            train_y=self.train_y,
        )

    @pytest.mark.parametrize("strategy", ["kernel_penalty", "refit"])
    def test_selects_requested_number_of_unique_candidates(self, strategy):
        picks = self._select(strategy, 5)
        assert len(picks) == 5
        assert len(set(picks)) == 5

    @pytest.mark.parametrize("strategy", ["kernel_penalty", "refit"])
    def test_first_pick_maximises_the_acquisition(self, strategy):
        mean, std = self.surrogate.predict(self.candidates)
        best = int(np.argmax(self.acq(mean, std)))
        assert self._select(strategy, 3)[0] == best

    def test_batch_is_spatially_diverse(self):
        picks = self._select("kernel_penalty", 8)
        points = self.candidates[picks]
        # pairwise distances should not all be tiny
        dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        upper = dists[np.triu_indices(len(picks), k=1)]
        assert np.median(upper) > 0.05

    def test_zero_or_negative_n_returns_empty(self):
        assert self._select("kernel_penalty", 0) == []

    def test_n_capped_at_number_of_candidates(self):
        liar = ConstantLiar()
        picks = liar.select(
            500,
            surrogate=self.surrogate,
            acquisition=self.acq,
            candidates_encoded=self.candidates,
            candidates_unit=self.candidates,
            train_X=self.train_X,
            train_y=self.train_y,
        )
        assert len(picks) == self.candidates.shape[0]
        assert len(set(picks)) == len(picks)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ConstantLiar(strategy="magic")
