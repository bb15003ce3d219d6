"""Tests for the fleet-stacked VAE stack: DenseFleet/MLPFleet, the flat Adam, VAEFleet.

The acceptance property of the model layer: a :class:`VAEFleet` training K
members in fused lock-step epochs leaves every member — weights, training
trace, samples, RNG state — bitwise identical to K sequential runs of the
per-model reference loop (:mod:`reference.vae`) with the same seeds.  The
full-size version of that assertion is marked ``slow`` (CI runs it; local
quick loops can skip with ``-m "not slow"``).
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import vae as reference
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.vae.layers import (
    MLP,
    Dense,
    DenseFleet,
    MLPFleet,
    ReLU,
    Tanh,
    flatten_parameters,
)
from repro.core.vae.optim import Adam
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE, VAEFleet, _sigmoid, vae_fleet_key
from repro.hep.parameters import get_setup


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


class TestFlattenParameters:
    def test_layers_become_views_of_one_buffer_pair(self):
        members = [MLP.build(3, [5], 2, rng=np.random.default_rng(s)) for s in range(2)]
        fleet = MLPFleet.from_members(members)
        dense = [layer for layer in fleet.layers if isinstance(layer, DenseFleet)]
        weights = [(layer.W.copy(), layer.b.copy()) for layer in dense]
        params, grads = flatten_parameters(dense)
        assert params.size == sum(layer.W.size + layer.b.size for layer in dense)
        for layer, (W, b) in zip(dense, weights):
            assert np.shares_memory(layer.W, params) and np.shares_memory(layer.dW, grads)
            assert np.shares_memory(layer.b, params) and np.shares_memory(layer.db, grads)
            assert layer.W.flags.c_contiguous and layer.dW.flags.c_contiguous
            assert np.array_equal(layer.W, W) and np.array_equal(layer.b, b)
        assert not grads.any()
        # The fleet still matches its members bitwise through the views.
        x = np.random.default_rng(0).standard_normal((2, 4, 3))
        out = fleet.forward(x)
        for k, member in enumerate(members):
            assert np.array_equal(out[k], member.forward(x[k]))


class TestFlatAdam:
    def test_bias_correction_first_step_is_full_size(self):
        """After one step the bias-corrected moments equal the raw gradient:
        the update must be ``-lr * g / (|g| + eps)`` exactly, not the
        uncorrected ``-lr * (1 - beta1) * g / (...)``."""
        w = np.zeros(6)
        grad = np.zeros_like(w)
        opt = Adam(w, grad, lr=0.05, eps=1e-8)
        g = np.array([1.0, -2.0, 0.5, 3.0, -0.25, 4.0])
        grad[...] = g
        opt.step()
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        assert np.allclose(w, expected, rtol=0, atol=1e-15)
        assert opt.steps_taken == 1

    def test_bias_correction_matches_closed_form_over_steps(self):
        """With a constant gradient the moment estimates stay fully
        bias-corrected at every step: m_hat == g and v_hat == g² exactly."""
        w = np.zeros(2)
        grad = np.zeros_like(w)
        opt = Adam(w, grad, lr=0.1, eps=1e-12)
        g = np.array([2.0, -3.0])
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
        """One flat Adam over a fleet's buffer pair moves every member's
        arrays exactly as the reference per-array Adam moves them alone."""
        rng = np.random.default_rng(5)
        K = 3
        solos = [Dense(4, 2, rng=np.random.default_rng(s)) for s in range(K)]
        fleet = DenseFleet.from_members(solos)
        params, grads = flatten_parameters([fleet])
        flat = Adam(params, grads, lr=3e-3)
        per_array = [reference.Adam(solo.parameters(), lr=3e-3) for solo in solos]
        for _ in range(20):
            dW = rng.standard_normal((K, 4, 2))
            db = rng.standard_normal((K, 2))
            fleet.dW[...] = dW
            fleet.db[...] = db
            flat.step()
            for k, (solo, opt) in enumerate(zip(solos, per_array)):
                solo.dW[...] = dW[k]
                solo.db[...] = db[k]
                opt.step()
        for k, solo in enumerate(solos):
            assert np.array_equal(fleet.W[k], solo.W)
            assert np.array_equal(fleet.b[k], solo.b)


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
        for (pa, _), (pb, _) in zip(reference.parameters(ma), reference.parameters(mb)):
            assert np.array_equal(pa, pb), f"member {k}: weights differ"
        assert ma.trace.loss == mb.trace.loss, f"member {k}: loss trace differs"
        assert ma.trace.reconstruction == mb.trace.reconstruction
        assert ma.trace.kl == mb.trace.kl
        assert ma.rng.bit_generator.state == mb.rng.bit_generator.state
        # Identical post-fit RNG state: the next samples must coincide too.
        assert np.array_equal(ma.sample(16), mb.sample(16)), f"member {k}: samples differ"


def fit_sequentially(members, datasets, **budget):
    """The sequential oracle: the reference per-model loop, one member after the other."""
    for member, X in zip(members, datasets):
        reference.fit(member, X, **budget)


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
        solos = [make_members(transform, 1)[0] for _ in range(2)]
        member = make_members(transform, 1)[0]
        direct = make_members(transform, 1)[0]
        fit_sequentially(solos, datasets * 2, epochs=6, batch_size=8)
        VAEFleet([member]).fit([datasets[0]], epochs=6, batch_size=8)
        direct.fit(datasets[0], epochs=6, batch_size=8)
        assert_members_bitwise_identical(solos, [member, direct])

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


def layout_members(layout, count, seed=0):
    """Members whose input is ``layout``: 1 is a numeric column, w >= 2 a
    categorical block of width w, in the given order."""
    numeric, blocks, column = [], [], 0
    for width in layout:
        if width == 1:
            numeric.append(column)
        else:
            blocks.append((column, column + width))
        column += width
    return [
        TabularVAE(column, numeric, blocks, latent_dim=2, hidden=(8, 8), seed=seed + k)
        for k in range(count)
    ]


def layout_datasets(layout, count, rows, seed):
    """One-hot categorical blocks and unit-interval numeric columns."""
    rng = np.random.default_rng(seed)
    datasets = []
    for _ in range(count):
        columns = []
        for width in layout:
            if width == 1:
                columns.append(rng.random((rows, 1)))
            else:
                columns.append(np.eye(width)[rng.integers(0, width, rows)])
        datasets.append(np.hstack(columns))
    return datasets


class TestLossLayouts:
    """The per-width categorical pass reproduces the per-block reference loss
    on every layout: numeric only, categorical only, mixed widths in any
    order (adjacent blocks included), ragged final batches, and
    ``rows × width`` runs past NumPy's 128-element pairwise-sum block."""

    @given(
        layout=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
        count=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=48),
        batch_size=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(layout=[1, 1, 1], count=2, rows=13, batch_size=5, seed=0)
    @example(layout=[2, 3, 2, 5], count=3, rows=17, batch_size=8, seed=1)
    @example(layout=[3, 3, 1, 2, 5, 1], count=4, rows=45, batch_size=32, seed=2)
    @example(layout=[5, 5, 4], count=1, rows=40, batch_size=40, seed=3)
    def test_fleet_matches_reference_on_any_layout(self, layout, count, rows, batch_size, seed):
        datasets = layout_datasets(layout, count, rows, seed)
        expected = layout_members(layout, count, seed)
        fused = layout_members(layout, count, seed)
        fit_sequentially(expected, datasets, epochs=2, batch_size=batch_size)
        VAEFleet(fused).fit(datasets, epochs=2, batch_size=batch_size)
        assert_members_bitwise_identical(expected, fused)


class TestSigmoid:
    def test_branch_free_sigmoid_matches_masked_reference_bitwise(self):
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
             745.0, -745.0, 709.8, -709.8, 36.7, -36.7, 1e-300, -1e-300, 2.5, -2.5]
        )
        grid = np.random.default_rng(0).standard_normal((3, 20, 9)) * 40.0
        grid[0, : special.size, 0] = special
        for x in (
            special,
            grid,
            grid[:, ::3, 1],  # strided
            grid[..., [0, 2, 3, 7]],  # fancy-indexed, advanced axis outermost
            grid.transpose(2, 0, 1)[::2],
        ):
            got, want = _sigmoid(x), reference.sigmoid(x)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def source_space():
    return get_setup("4n-2s-16p").space()


class TestFailedPass:
    """A fused pass that raises leaves every member as it found it."""

    def transfer_members(self, transform):
        # The transfer prior's shape: latent min(8, dim // 2), two 64-unit layers.
        return [
            TabularVAE(
                transform.dimension,
                transform.numeric_columns,
                transform.categorical_blocks,
                latent_dim=min(8, max(2, transform.dimension // 2)),
                hidden=(64, 64),
                seed=seed,
            )
            for seed in (11, 12)
        ]

    def test_failed_pass_restores_members_and_the_retry_matches_an_eager_fit(
        self, monkeypatch
    ):
        space = source_space()
        transform = TabularTransform(space)
        datasets = [
            transform.encode(space.sample(20, np.random.default_rng(40 + k)))
            for k in range(2)
        ]
        members = self.transfer_members(transform)
        weights = [[p.copy() for p, _ in reference.parameters(m)] for m in members]
        states = [m.rng.bit_generator.state for m in members]

        steps = {"n": 0}
        original_step = Adam.step

        def failing_step(self):
            steps["n"] += 1
            if steps["n"] == 7:
                raise FloatingPointError("injected optimizer failure")
            original_step(self)

        monkeypatch.setattr(Adam, "step", failing_step)
        with pytest.raises(FloatingPointError):
            VAEFleet(members).fit(datasets, epochs=30, batch_size=20)
        monkeypatch.undo()
        assert steps["n"] == 7

        for member, before, state in zip(members, weights, states):
            assert member.rng.bit_generator.state == state
            for (param, _), saved in zip(reference.parameters(member), before):
                assert np.array_equal(param, saved)
            assert not member.fitted and member.trace is None

        eager = self.transfer_members(transform)
        for member, twin, X in zip(members, eager, datasets):
            member.fit(X, epochs=30, batch_size=20)
            twin.fit(X, epochs=30, batch_size=20)
        assert_members_bitwise_identical(eager, members)
