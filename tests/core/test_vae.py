"""Tests for the NumPy VAE stack: layers, Adam, tabular transform and the TVAE."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    IntegerParameter,
    OrdinalParameter,
    SearchSpace,
)
from repro.core.vae.layers import MLP, Dense, ReLU, Tanh
from repro.core.vae.optim import Adam
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE


class TestLayers:
    def test_dense_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((7, 4)))
        assert out.shape == (7, 3)

    def test_dense_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 2))

        def loss():
            out = layer.forward(x)
            return 0.5 * np.sum((out - target) ** 2)

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(out - target)
        analytic = layer.dW.copy()

        eps = 1e-6
        numeric = np.zeros_like(layer.W)
        for i in range(layer.W.shape[0]):
            for j in range(layer.W.shape[1]):
                layer.W[i, j] += eps
                up = loss()
                layer.W[i, j] -= 2 * eps
                down = loss()
                layer.W[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        mlp = MLP.build(3, [8], 2, rng=rng, activation="tanh")
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss():
            return 0.5 * np.sum((mlp.forward(x) - target) ** 2)

        out = mlp.forward(x)
        mlp.zero_grad()
        mlp.backward(out - target)
        first_dense = mlp.layers[0]
        analytic = first_dense.dW.copy()

        eps = 1e-6
        numeric = np.zeros_like(first_dense.W)
        for i in range(min(3, first_dense.W.shape[0])):
            for j in range(min(4, first_dense.W.shape[1])):
                first_dense.W[i, j] += eps
                up = loss()
                first_dense.W[i, j] -= 2 * eps
                down = loss()
                first_dense.W[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic[:3, :4], numeric[:3, :4], atol=1e-4)

    def test_relu_and_tanh_backward(self):
        relu, tanh = ReLU(), Tanh()
        x = np.array([[-1.0, 2.0]])
        assert np.allclose(relu.forward(x), [[0.0, 2.0]])
        assert np.allclose(relu.backward(np.ones((1, 2))), [[0.0, 1.0]])
        out = tanh.forward(x)
        grad = tanh.backward(np.ones((1, 2)))
        assert np.allclose(grad, 1 - out**2)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2).backward(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Dense(0, 3)


class TestAdam:
    def test_minimises_a_quadratic(self):
        w = np.array([5.0, -3.0])
        grad = np.zeros_like(w)
        opt = Adam(w, grad, lr=0.1)
        for _ in range(500):
            grad[...] = 2 * w  # d/dw of ||w||²
            opt.step()
        assert np.linalg.norm(w) < 1e-2
        assert opt.steps_taken == 500

    def test_invalid_hyperparameters(self):
        w = np.zeros(2)
        with pytest.raises(ValueError):
            Adam(w, np.zeros(2), lr=0.0)
        with pytest.raises(ValueError):
            Adam(w, np.zeros(2), beta1=1.5)
        with pytest.raises(ValueError):
            Adam(w, np.zeros(3))


def mixed_space():
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 1024, log=True),
            OrdinalParameter("pes", (1, 2, 4, 8)),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


class TestTabularTransform:
    def test_dimension_counts_one_hot_blocks(self):
        transform = TabularTransform(mixed_space())
        # 1 (batch) + 1 (pes ordinal) + 3 (pool) + 2 (busy)
        assert transform.dimension == 7
        assert transform.numeric_columns == [0, 1]
        assert transform.categorical_blocks == [(2, 5), (5, 7)]

    def test_encode_decode_round_trip_recovers_categories(self):
        space = mixed_space()
        transform = TabularTransform(space)
        rng = np.random.default_rng(0)
        configs = space.sample(30, rng)
        X = transform.encode(configs)
        decoded = transform.decode(X, sample_categories=False)
        for original, recovered in zip(configs, decoded):
            assert recovered["pool"] == original["pool"]
            assert recovered["busy"] == original["busy"]
            assert recovered["pes"] == original["pes"]
            # numeric parameters round-trip within discretisation error
            assert abs(np.log(recovered["batch"]) - np.log(original["batch"])) < 0.02

    def test_encoded_rows_live_in_unit_interval(self):
        space = mixed_space()
        transform = TabularTransform(space)
        X = transform.encode(space.sample(50, np.random.default_rng(0)))
        assert np.all(X >= 0.0) and np.all(X <= 1.0)

    def test_decode_validates_column_count(self):
        transform = TabularTransform(mixed_space())
        with pytest.raises(ValueError):
            transform.decode(np.zeros((2, 3)))

    def test_decode_samples_categories_with_rng(self):
        space = mixed_space()
        transform = TabularTransform(space)
        row = np.zeros((1, transform.dimension))
        row[0, 0] = 0.5
        row[0, 1] = 0.5
        row[0, 2:5] = [0.5, 0.5, 0.0]
        row[0, 5:7] = [0.5, 0.5]
        rng = np.random.default_rng(0)
        decoded = [transform.decode(row, rng=rng)[0]["pool"] for _ in range(50)]
        assert set(decoded) <= {"fifo", "fifo_wait"}
        assert len(set(decoded)) == 2


#: Strategy drawing one full configuration of ``mixed_space()``.
mixed_configs = st.fixed_dictionaries(
    {
        "batch": st.integers(min_value=1, max_value=1024),
        "pes": st.sampled_from((1, 2, 4, 8)),
        "pool": st.sampled_from(("fifo", "fifo_wait", "prio_wait")),
        "busy": st.booleans(),
    }
)


class TestEncodeColumnsProperties:
    """encode_columns/decode_columns vs the row reference (Hypothesis)."""

    @given(st.lists(mixed_configs, min_size=1, max_size=40))
    def test_encode_columns_bit_identical_to_row_encode(self, configs):
        space = mixed_space()
        transform = TabularTransform(space)
        reference = transform.encode(configs)
        batch = ColumnBatch.from_configurations(space, configs)
        assert np.array_equal(transform.encode_columns(batch), reference)
        # A plain {name: column} mapping (e.g. straight from history columns)
        # rides the same codecs.
        columns = {name: [c[name] for c in configs] for name in space.parameter_names}
        assert np.array_equal(transform.encode_columns(columns), reference)

    @given(st.lists(mixed_configs, min_size=1, max_size=40))
    def test_column_round_trip_matches_row_round_trip(self, configs):
        space = mixed_space()
        transform = TabularTransform(space)
        X = transform.encode_columns(ColumnBatch.from_configurations(space, configs))
        columnar = transform.decode_columns(X, sample_categories=False).to_configurations()
        rows = transform.decode(X, sample_categories=False)
        assert columnar == rows
        for original, recovered in zip(configs, columnar):
            # Discrete parameters recover exactly; numerics within the
            # unit-grid discretisation error of the transform.
            assert recovered["pes"] == original["pes"]
            assert recovered["pool"] == original["pool"]
            assert recovered["busy"] == original["busy"]
            assert (
                abs(np.log(recovered["batch"]) - np.log(original["batch"])) < 0.02
            )

    def test_encode_columns_rejects_ragged_columns(self):
        transform = TabularTransform(mixed_space())
        columns = {"batch": [1, 2], "pes": [1], "pool": ["fifo", "fifo"], "busy": [True, False]}
        with pytest.raises(ValueError):
            transform.encode_columns(columns)


class TestTabularVAE:
    def make_clustered_configs(self, n=120):
        """Configurations clustered in a specific region of the space."""
        space = mixed_space()
        rng = np.random.default_rng(0)
        configs = []
        for _ in range(n):
            configs.append(
                {
                    "batch": int(np.clip(rng.normal(600, 60), 1, 1024)),
                    "pes": 8,
                    "pool": "fifo_wait",
                    "busy": True,
                }
            )
        return space, configs

    def test_training_reduces_the_loss(self):
        space, configs = self.make_clustered_configs()
        transform = TabularTransform(space)
        X = transform.encode(configs)
        vae = TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=3,
            hidden=(32, 32),
            seed=0,
        )
        trace = vae.fit(X, epochs=60, batch_size=32)
        assert trace.loss[-1] < trace.loss[0]
        assert vae.fitted

    def test_samples_concentrate_on_the_training_region(self):
        space, configs = self.make_clustered_configs()
        transform = TabularTransform(space)
        X = transform.encode(configs)
        vae = TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=3,
            hidden=(32, 32),
            seed=0,
        )
        vae.fit(X, epochs=150, batch_size=32)
        rng = np.random.default_rng(1)
        samples = transform.decode(vae.sample(200, rng), rng=rng)
        pool_match = np.mean([s["pool"] == "fifo_wait" for s in samples])
        busy_match = np.mean([s["busy"] is True or s["busy"] == True for s in samples])  # noqa: E712
        batch_values = np.array([s["batch"] for s in samples])
        assert pool_match > 0.8
        assert busy_match > 0.8
        # Training batches cluster around 600 (log-scale ~0.92 in unit space).
        assert 300 < np.median(batch_values) <= 1024

    def test_sample_rows_are_valid_probability_blocks(self):
        space, configs = self.make_clustered_configs(60)
        transform = TabularTransform(space)
        vae = TabularVAE(
            transform.dimension,
            transform.numeric_columns,
            transform.categorical_blocks,
            latent_dim=2,
            hidden=(16, 16),
            seed=0,
        )
        vae.fit(transform.encode(configs), epochs=20)
        rows = vae.sample(20)
        for start, stop in transform.categorical_blocks:
            assert np.allclose(rows[:, start:stop].sum(axis=1), 1.0, atol=1e-6)
        assert np.all(rows[:, transform.numeric_columns] >= 0.0)
        assert np.all(rows[:, transform.numeric_columns] <= 1.0)

    def test_reconstruction_of_training_rows(self):
        space, configs = self.make_clustered_configs(80)
        transform = TabularTransform(space)
        X = transform.encode(configs)
        vae = TabularVAE(
            transform.dimension,
            transform.numeric_columns,
            transform.categorical_blocks,
            latent_dim=3,
            hidden=(32, 32),
            seed=0,
        )
        vae.fit(X, epochs=120, batch_size=32)
        recon = vae.reconstruct(X[:10])
        # categorical blocks should reconstruct the dominant category
        pool_block = recon[:, 2:5]
        assert np.all(np.argmax(pool_block, axis=1) == 1)  # "fifo_wait"

    def test_errors_on_misuse(self):
        vae = TabularVAE(4, [0, 1], [(2, 4)], latent_dim=2, seed=0)
        with pytest.raises(RuntimeError):
            vae.sample(3)
        with pytest.raises(ValueError):
            vae.fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            vae.fit(np.zeros((5, 4)), epochs=0)
        with pytest.raises(ValueError):
            TabularVAE(0, [], [])
