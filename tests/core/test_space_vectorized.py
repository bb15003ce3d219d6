"""Equivalence tests: vectorised (columnar) codecs vs the scalar references.

The columnar pipeline rewrote all four space codecs (`to_unit_array`,
`to_numeric_array`, `to_one_hot_array`, `from_unit_array`) as column-wise
NumPy operations.  The original per-element loops are kept as ``*_loop``
reference implementations in ``tests/reference/space.py``; these
property-based tests assert both paths agree over mixed
Real/Integer/Categorical/Ordinal spaces.

Exactness note: linear transforms and index encodings must agree *bitwise*;
log-scaled columns go through ``np.log``/``np.exp`` in the vectorised path and
``math.log``/``math.exp`` in the scalar path, which may differ in the last
ulp, so those comparisons allow a relative tolerance of 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.space import (
    from_unit_array_loop,
    to_numeric_array_loop,
    to_one_hot_array_loop,
    to_unit_array_loop,
)
from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)


def mixed_space():
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            IntegerParameter("count", -3, 7),
            RealParameter("rate", 0.5, 100.0, log=True),
            RealParameter("fraction", -1.0, 1.0),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            CategoricalParameter.boolean("busy"),
            OrdinalParameter("pes", (1, 2, 4, 8, 16, 32)),
        ],
        name="mixed",
    )


def sample_configs(n, seed):
    space = mixed_space()
    rng = np.random.default_rng(seed)
    return space, space.sample(n, rng)


class TestCodecEquivalence:
    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_to_unit_array_matches_loop(self, seed, n):
        space, configs = sample_configs(n, seed)
        fast = space.to_unit_array(configs)
        slow = to_unit_array_loop(space, configs)
        assert fast.shape == slow.shape
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_to_numeric_array_matches_loop(self, seed, n):
        space, configs = sample_configs(n, seed)
        fast = space.to_numeric_array(configs)
        slow = to_numeric_array_loop(space, configs)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_to_one_hot_array_matches_loop(self, seed, n):
        space, configs = sample_configs(n, seed)
        fast = space.to_one_hot_array(configs)
        slow = to_one_hot_array_loop(space, configs)
        # One-hot indicator columns must match bitwise; unit columns get the
        # log tolerance.
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_from_unit_array_matches_loop(self, seed, n):
        space = mixed_space()
        rng = np.random.default_rng(seed)
        U = rng.random((n, len(space)))
        fast = space.from_unit_array(U)
        slow = from_unit_array_loop(space, U)
        assert len(fast) == len(slow) == n
        for cf, cs in zip(fast, slow):
            for p in space:
                if isinstance(p, RealParameter):
                    assert cf[p.name] == pytest.approx(cs[p.name], rel=1e-12)
                else:
                    assert cf[p.name] == cs[p.name]
                    assert type(cf[p.name]) is type(cs[p.name])

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=48))
    @settings(max_examples=40, deadline=None)
    def test_clip_columns_matches_per_row_clip(self, seed, n):
        """clip_columns is the row-path clip mapped over whole columns —
        including out-of-domain numerics that need clipping/rounding and
        discrete values that must snap."""
        space = mixed_space()
        rng = np.random.default_rng(seed)
        configs = space.sample(n, rng)
        # Perturb some rows out of domain the way a changed-bounds transfer
        # source would: numeric overshoot, non-integral ints, bogus category.
        for config in configs:
            if rng.random() < 0.4:
                config["batch"] = int(config["batch"]) * 10
            if rng.random() < 0.3:
                config["fraction"] = float(config["fraction"]) + 5.0
            if rng.random() < 0.2:
                config["pes"] = 5  # not an allowed ordinal value, snaps
            if rng.random() < 0.15:
                # Non-finite values settle on a bound in both paths.
                config["count"] = float("nan") if rng.random() < 0.5 else float("inf")
        reference = [space.clip(config) for config in configs]
        columns = {name: [c[name] for c in configs] for name in space.parameter_names}
        clipped = space.clip_columns({k: np.asarray(v, dtype=object) for k, v in columns.items()})
        for j, config in enumerate(reference):
            for name, value in config.items():
                assert clipped[name][j] == value
                assert type(clipped[name][j]) is type(value)

    def test_clip_columns_missing_parameter_rejected(self):
        space = mixed_space()
        with pytest.raises(ValueError):
            space.clip_columns({"batch": np.asarray([1])})

    def test_linear_columns_match_bitwise(self):
        # No transcendental functions involved → exact equality required.
        space = SearchSpace(
            [
                RealParameter("a", -2.0, 9.0),
                IntegerParameter("b", 0, 1000),
                OrdinalParameter("c", (1, 5, 9)),
                CategoricalParameter("d", ("x", "y")),
            ]
        )
        configs = space.sample(200, np.random.default_rng(0))
        assert np.array_equal(
            space.to_unit_array(configs), to_unit_array_loop(space, configs)
        )
        assert np.array_equal(
            space.to_numeric_array(configs), to_numeric_array_loop(space, configs)
        )
        assert np.array_equal(
            space.to_one_hot_array(configs), to_one_hot_array_loop(space, configs)
        )


class TestLogClipFix:
    def test_non_positive_values_clip_to_low_in_numeric_encoding(self):
        """A non-positive value in a log column encodes as log(low), never linearly."""
        space = SearchSpace(
            [IntegerParameter("batch", 2, 2048, log=True), RealParameter("x", 0.0, 1.0)]
        )
        bad = [{"batch": 0, "x": 0.5}, {"batch": -7, "x": 0.5}, {"batch": 2, "x": 0.5}]
        arr = space.to_numeric_array(bad)
        assert np.allclose(arr[:, 0], np.log(2.0))
        loop = to_numeric_array_loop(space, bad)
        np.testing.assert_allclose(arr, loop, rtol=1e-12)

    def test_log_column_never_mixes_scales(self):
        space = SearchSpace([RealParameter("r", 0.5, 100.0, log=True)])
        arr = space.to_numeric_array([{"r": -50.0}, {"r": 0.5}, {"r": 100.0}])
        assert arr.min() >= np.log(0.5) - 1e-12
        assert arr.max() <= np.log(100.0) + 1e-12


class TestColumnBatch:
    def test_round_trip_preserves_values_and_types(self):
        space, configs = sample_configs(32, seed=7)
        batch = ColumnBatch.from_configurations(space, configs)
        assert len(batch) == 32
        back = batch.to_configurations()
        assert back == configs
        for config in back:
            space.validate(config)

    def test_take_and_row(self):
        space, configs = sample_configs(10, seed=3)
        batch = ColumnBatch.from_configurations(space, configs)
        sub = batch.take([4, 1, 7])
        assert sub.to_configurations() == [configs[4], configs[1], configs[7]]
        assert batch.row(5) == configs[5]

    def test_sample_columns_matches_sample(self):
        """Columnar and row-major sampling consume the same RNG stream."""
        space = mixed_space()
        cols = space.sample_columns(25, np.random.default_rng(11)).to_configurations()
        rows = space.sample(25, np.random.default_rng(11))
        assert cols == rows

    def test_encodings_accept_column_batches(self):
        space, configs = sample_configs(16, seed=5)
        batch = ColumnBatch.from_configurations(space, configs)
        assert np.array_equal(space.to_unit_array(batch), space.to_unit_array(configs))
        assert np.array_equal(space.to_numeric_array(batch), space.to_numeric_array(configs))
        assert np.array_equal(space.to_one_hot_array(batch), space.to_one_hot_array(configs))

    def test_mismatched_column_lengths_rejected(self):
        space = SearchSpace([RealParameter("a", 0, 1), RealParameter("b", 0, 1)])
        with pytest.raises(ValueError):
            ColumnBatch(space, {"a": np.zeros(3), "b": np.zeros(2)})
        with pytest.raises(ValueError):
            ColumnBatch(space, {"a": np.zeros(3)})


class TestKeyArray:
    def test_keys_are_stable_across_materialisation(self):
        """Raw-value keys match between columnar candidates and told-back dicts."""
        space, _ = sample_configs(1, seed=0)
        batch = space.sample_columns(64, np.random.default_rng(2))
        keys_cols = [row.tobytes() for row in space.key_array(batch)]
        materialised = batch.to_configurations()
        keys_rows = [row.tobytes() for row in space.key_array(materialised)]
        assert keys_cols == keys_rows

    def test_distinct_configs_have_distinct_keys(self):
        space, configs = sample_configs(200, seed=9)
        keys = {row.tobytes() for row in space.key_array(configs)}
        distinct = {tuple(sorted((k, repr(v)) for k, v in c.items())) for c in configs}
        assert len(keys) == len(distinct)
