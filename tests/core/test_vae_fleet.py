"""Tests for the fleet-stacked VAE stack: DenseFleet/MLPFleet, AdamFleet, VAEFleet.

The acceptance property of the model layer: a :class:`VAEFleet` training K
members in fused lock-step epochs leaves every member — weights, training
trace, samples, RNG state — bitwise identical to K sequential
``TabularVAE.fit`` calls with the same seeds.  The full-size version of that
assertion is marked ``slow`` (CI runs it; local quick loops can skip with
``-m "not slow"``).
"""

import numpy as np
import pytest

from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.vae.layers import MLP, Dense, DenseFleet, MLPFleet, ReLU, Tanh
from repro.core.vae.optim import Adam, AdamFleet
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE, VAEFleet, vae_fleet_key


def mixed_space():
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 1024, log=True),
            RealParameter("rate", 0.1, 50.0, log=True),
            OrdinalParameter("pes", (1, 2, 4, 8)),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


class TestDenseFleet:
    def test_forward_matches_members_bitwise(self):
        rng = np.random.default_rng(0)
        members = [Dense(5, 3, rng=np.random.default_rng(s)) for s in range(4)]
        fleet = DenseFleet.from_members(members)
        x = rng.standard_normal((4, 9, 5))
        out = fleet.forward(x)
        for k, member in enumerate(members):
            assert np.array_equal(out[k], member.forward(x[k]))

    def test_backward_matches_members_bitwise(self):
        rng = np.random.default_rng(1)
        members = [Dense(4, 6, rng=np.random.default_rng(s)) for s in range(3)]
        fleet = DenseFleet.from_members(members)
        x = rng.standard_normal((3, 7, 4))
        grad = rng.standard_normal((3, 7, 6))
        fleet.forward(x)
        fleet.zero_grad()
        grad_x = fleet.backward(grad)
        for k, member in enumerate(members):
            member.forward(x[k])
            member.zero_grad()
            gx = member.backward(grad[k])
            assert np.array_equal(grad_x[k], gx)
            assert np.array_equal(fleet.dW[k], member.dW)
            assert np.array_equal(fleet.db[k], member.db)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        fleet = DenseFleet.from_members(
            [Dense(3, 2, rng=np.random.default_rng(s)) for s in range(2)]
        )
        x = rng.standard_normal((2, 5, 3))
        target = rng.standard_normal((2, 5, 2))

        def loss():
            out = fleet.forward(x)
            return 0.5 * np.sum((out - target) ** 2)

        out = fleet.forward(x)
        fleet.zero_grad()
        fleet.backward(out - target)
        analytic = fleet.dW.copy()

        eps = 1e-6
        numeric = np.zeros_like(fleet.W)
        for k in range(fleet.W.shape[0]):
            for i in range(fleet.W.shape[1]):
                for j in range(fleet.W.shape[2]):
                    fleet.W[k, i, j] += eps
                    up = loss()
                    fleet.W[k, i, j] -= 2 * eps
                    down = loss()
                    fleet.W[k, i, j] += eps
                    numeric[k, i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_write_back_restores_member_weights(self):
        members = [Dense(3, 3, rng=np.random.default_rng(s)) for s in range(3)]
        fleet = DenseFleet.from_members(members)
        fleet.W += 1.0
        fleet.b -= 0.5
        fleet.write_back(members)
        for k, member in enumerate(members):
            assert np.array_equal(member.W, fleet.W[k])
            assert np.array_equal(member.b, fleet.b[k])

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseFleet(np.zeros((2, 3, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            DenseFleet.from_members([])
        with pytest.raises(ValueError):
            DenseFleet.from_members([Dense(2, 3), Dense(3, 3)])
        with pytest.raises(RuntimeError):
            DenseFleet.from_members([Dense(2, 2)]).backward(np.ones((1, 1, 2)))


class TestMLPFleet:
    def test_forward_backward_match_members_bitwise(self):
        rng = np.random.default_rng(3)
        members = [
            MLP.build(4, [8, 8], 3, rng=np.random.default_rng(s), activation="tanh")
            for s in range(3)
        ]
        fleet = MLPFleet.from_members(members)
        x = rng.standard_normal((3, 6, 4))
        grad = rng.standard_normal((3, 6, 3))
        out = fleet.forward(x)
        fleet.zero_grad()
        grad_x = fleet.backward(grad)
        for k, member in enumerate(members):
            assert np.array_equal(out[k], member.forward(x[k]))
            member.zero_grad()
            gx = member.backward(grad[k])
            assert np.array_equal(grad_x[k], gx)
        for level, layer in enumerate(fleet.layers):
            if isinstance(layer, DenseFleet):
                for k, member in enumerate(members):
                    assert np.array_equal(layer.dW[k], member.layers[level].dW)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        members = [MLP.build(3, [6], 2, rng=np.random.default_rng(s)) for s in range(2)]
        fleet = MLPFleet.from_members(members)
        x = rng.standard_normal((2, 4, 3))
        target = rng.standard_normal((2, 4, 2))

        def loss():
            return 0.5 * np.sum((fleet.forward(x) - target) ** 2)

        out = fleet.forward(x)
        fleet.zero_grad()
        fleet.backward(out - target)
        first = fleet.layers[0]
        analytic = first.dW.copy()

        eps = 1e-6
        numeric = np.zeros_like(first.W)
        for k in range(first.W.shape[0]):
            for i in range(min(3, first.W.shape[1])):
                for j in range(min(3, first.W.shape[2])):
                    first.W[k, i, j] += eps
                    up = loss()
                    first.W[k, i, j] -= 2 * eps
                    down = loss()
                    first.W[k, i, j] += eps
                    numeric[k, i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic[:, :3, :3], numeric[:, :3, :3], atol=1e-4)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            MLPFleet.from_members([])
        with pytest.raises(ValueError):
            MLPFleet.from_members([MLP([Dense(2, 2), ReLU()]), MLP([Dense(2, 2)])])
        with pytest.raises(ValueError):
            MLPFleet.from_members([MLP([ReLU()]), MLP([Tanh()])])


class TestAdamFleet:
    def test_bias_correction_first_step_is_full_size(self):
        """After one step the bias-corrected moments equal the raw gradient:
        the update must be ``-lr * g / (|g| + eps)`` exactly, not the
        uncorrected ``-lr * (1 - beta1) * g / (...)``."""
        w = np.zeros((2, 3))
        grad = np.zeros_like(w)
        opt = AdamFleet([(w, grad)], fleet_size=2, lr=0.05, eps=1e-8)
        g = np.array([[1.0, -2.0, 0.5], [3.0, -0.25, 4.0]])
        grad[...] = g
        opt.step()
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        assert np.allclose(w, expected, rtol=0, atol=1e-15)
        assert opt.steps_taken == 1

    def test_bias_correction_matches_closed_form_over_steps(self):
        """With a constant gradient the moment estimates stay fully
        bias-corrected at every step: m_hat == g and v_hat == g² exactly."""
        w = np.zeros((1, 2))
        grad = np.zeros_like(w)
        opt = AdamFleet([(w, grad)], fleet_size=1, lr=0.1, eps=1e-12)
        g = np.array([[2.0, -3.0]])
        previous = w.copy()
        for step in range(1, 6):
            grad[...] = g
            opt.step()
            delta = w - previous
            previous = w.copy()
            # m_hat/(sqrt(v_hat)+eps) == g/|g| for constant gradients.
            assert np.allclose(delta, -0.1 * np.sign(g), rtol=0, atol=1e-11)
        assert opt.steps_taken == 5

    def test_stacked_updates_match_solo_adams_bitwise(self):
        rng = np.random.default_rng(5)
        K = 3
        stacked_w = rng.standard_normal((K, 4, 2))
        stacked_g = np.zeros_like(stacked_w)
        solo_ws = [stacked_w[k].copy() for k in range(K)]
        solo_gs = [np.zeros((4, 2)) for _ in range(K)]
        fleet = AdamFleet([(stacked_w, stacked_g)], fleet_size=K, lr=3e-3)
        solos = [Adam([(w, g)], lr=3e-3) for w, g in zip(solo_ws, solo_gs)]
        for _ in range(20):
            grads = rng.standard_normal((K, 4, 2))
            stacked_g[...] = grads
            fleet.step()
            for k, solo in enumerate(solos):
                solo_gs[k][...] = grads[k]
                solo.step()
        for k in range(K):
            assert np.array_equal(stacked_w[k], solo_ws[k])

    def test_validation(self):
        w = np.zeros((2, 2))
        with pytest.raises(ValueError):
            AdamFleet([(w, np.zeros_like(w))], fleet_size=0)
        with pytest.raises(ValueError):
            AdamFleet([(w, np.zeros_like(w))], fleet_size=3)
        with pytest.raises(ValueError):
            AdamFleet([(w, np.zeros_like(w))], fleet_size=2, lr=0.0)


def make_members(transform, count, latent_dim=3, hidden=(16, 16)):
    return [
        TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=latent_dim,
            hidden=hidden,
            seed=seed,
        )
        for seed in range(count)
    ]


def assert_members_bitwise_identical(a, b):
    for k, (ma, mb) in enumerate(zip(a, b)):
        for (pa, _), (pb, _) in zip(ma._all_parameters(), mb._all_parameters()):
            assert np.array_equal(pa, pb), f"member {k}: weights differ"
        assert ma.trace.loss == mb.trace.loss, f"member {k}: loss trace differs"
        assert ma.trace.reconstruction == mb.trace.reconstruction
        assert ma.trace.kl == mb.trace.kl
        # Identical post-fit RNG state: the next samples must coincide too.
        assert np.array_equal(ma.sample(16), mb.sample(16)), f"member {k}: samples differ"


def fit_sequentially(members, datasets, **budget):
    """The sequential oracle: one plain ``member.fit`` after the other."""
    for member, X in zip(members, datasets):
        member.fit(X, **budget)


class TestVAEFleet:
    def fleet_setup(self, count=3, rows=24):
        space = mixed_space()
        transform = TabularTransform(space)
        datasets = [
            transform.encode(space.sample(rows, np.random.default_rng(50 + k)))
            for k in range(count)
        ]
        return transform, datasets

    def test_fused_training_is_bitwise_identical_to_sequential(self):
        transform, datasets = self.fleet_setup()
        sequential = make_members(transform, 3)
        fused = make_members(transform, 3)
        fit_sequentially(sequential, datasets, epochs=8, batch_size=10)
        VAEFleet(fused).fit(datasets, epochs=8, batch_size=10)
        assert_members_bitwise_identical(sequential, fused)

    def test_fleet_of_one_matches_solo_fit(self):
        transform, datasets = self.fleet_setup(count=1)
        solo = make_members(transform, 1)[0]
        member = make_members(transform, 1)[0]
        solo.fit(datasets[0], epochs=6, batch_size=8)
        VAEFleet([member]).fit([datasets[0]], epochs=6, batch_size=8)
        assert_members_bitwise_identical([solo], [member])

    def test_remainder_batches_stay_identical(self):
        """Row counts that do not divide the batch size exercise the
        short-final-batch path of the preallocated buffers."""
        transform, datasets = self.fleet_setup(count=2, rows=17)
        sequential = make_members(transform, 2)
        fused = make_members(transform, 2)
        fit_sequentially(sequential, datasets, epochs=5, batch_size=8)
        VAEFleet(fused).fit(datasets, epochs=5, batch_size=8)
        assert_members_bitwise_identical(sequential, fused)

    def test_validation_rejects_bad_fleets(self):
        transform, datasets = self.fleet_setup(count=2)
        members = make_members(transform, 2)
        with pytest.raises(ValueError):
            VAEFleet([])
        with pytest.raises(ValueError):
            VAEFleet([members[0], members[0]])
        other = TabularVAE(
            transform.dimension,
            transform.numeric_columns,
            transform.categorical_blocks,
            latent_dim=2,
            hidden=(16, 16),
            seed=0,
        )
        with pytest.raises(ValueError):
            VAEFleet([members[0], other])
        fleet = VAEFleet(members)
        with pytest.raises(ValueError):
            fleet.fit(datasets[:1], epochs=2)
        with pytest.raises(ValueError):
            fleet.fit([datasets[0], datasets[1][:-2]], epochs=2)
        with pytest.raises(ValueError):
            fleet.fit(datasets, epochs=0)

    def test_fleet_key_separates_incompatible_refits(self):
        transform, _ = self.fleet_setup(count=1)
        a = make_members(transform, 1)[0]
        b = make_members(transform, 1)[0]
        assert vae_fleet_key(a, 16, 40, 16) == vae_fleet_key(b, 16, 40, 16)
        assert vae_fleet_key(a, 16, 40, 16) != vae_fleet_key(b, 20, 40, 16)
        assert vae_fleet_key(a, 16, 40, 16) != vae_fleet_key(b, 16, 41, 16)
        wide = TabularVAE(
            transform.dimension,
            transform.numeric_columns,
            transform.categorical_blocks,
            latent_dim=3,
            hidden=(32, 32),
            seed=0,
        )
        assert vae_fleet_key(a, 16, 40, 16) != vae_fleet_key(wide, 16, 40, 16)

    @pytest.mark.slow
    def test_full_size_fleet_training_is_bitwise_identical(self):
        """Full-size acceptance: 8 members, 128 rows, paper-scale epochs."""
        space = mixed_space()
        transform = TabularTransform(space)
        datasets = [
            transform.encode(space.sample(128, np.random.default_rng(100 + k)))
            for k in range(8)
        ]
        sequential = make_members(transform, 8, latent_dim=4, hidden=(64, 64))
        fused = make_members(transform, 8, latent_dim=4, hidden=(64, 64))
        fit_sequentially(sequential, datasets, epochs=120, batch_size=64)
        VAEFleet(fused).fit(datasets, epochs=120, batch_size=64)
        assert_members_bitwise_identical(sequential, fused)
