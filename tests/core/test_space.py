"""Unit and property-based tests for the search-space module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)


def example_space():
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            RealParameter("fraction", 0.0, 1.0),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            OrdinalParameter("pes", (1, 2, 4, 8, 16, 32)),
            CategoricalParameter.boolean("busy"),
        ],
        name="example",
    )


class TestParameters:
    def test_integer_bounds_and_membership(self):
        param = IntegerParameter("x", 0, 10)
        assert param.contains(0) and param.contains(10)
        assert not param.contains(11) and not param.contains(2.5)
        assert param.cardinality == 11

    def test_integer_requires_high_greater_than_low(self):
        with pytest.raises(ValueError):
            IntegerParameter("x", 5, 5)

    def test_log_integer_requires_positive_lower_bound(self):
        with pytest.raises(ValueError):
            IntegerParameter("x", 0, 10, log=True)

    def test_real_unit_round_trip(self):
        param = RealParameter("x", -5.0, 5.0)
        for value in (-5.0, 0.0, 2.5, 5.0):
            assert param.from_unit(param.to_unit(value)) == pytest.approx(value)

    def test_log_parameter_sampling_covers_orders_of_magnitude(self):
        param = IntegerParameter("x", 1, 2048, log=True)
        rng = np.random.default_rng(0)
        values = param.sample(rng, size=2000)
        # Log-uniform sampling puts roughly half the mass below sqrt(1*2048)≈45.
        below = np.mean(values <= 45)
        assert 0.35 < below < 0.65

    @pytest.mark.parametrize(
        "categories, first, second",
        [((1, True, "x"), 1, True), ((0, "x", False), 0, False), (("x", 1, 1.0), 1, 1.0)],
    )
    def test_categories_that_compare_equal_are_rejected(self, categories, first, second):
        """``True == 1`` would key, encode and journal one category as the other."""
        with pytest.raises(ValueError) as raised:
            CategoricalParameter("c", categories)
        message = str(raised.value)
        assert f"{first!r} and {second!r}" in message

    def test_mixed_type_categories_keep_their_values(self):
        param = CategoricalParameter("c", (True, "x", 7))
        assert [param.index_of(value) for value in (True, "x", 7)] == [0, 1, 2]
        assert param.contains(True) and param.contains(7)
        assert not param.contains(False) and not param.contains(8)

    def test_categorical_index_and_unit_round_trip(self):
        param = CategoricalParameter("c", ("a", "b", "c"))
        for value in param.categories:
            assert param.from_unit(param.to_unit(value)) == value
        with pytest.raises(ValueError):
            param.index_of("z")

    def test_categorical_needs_two_categories(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ("only",))

    def test_boolean_helper(self):
        param = CategoricalParameter.boolean("flag")
        assert set(param.categories) == {True, False}

    def test_ordinal_requires_sorted_unique_values(self):
        with pytest.raises(ValueError):
            OrdinalParameter("o", (2, 1))
        with pytest.raises(ValueError):
            OrdinalParameter("o", (1, 1, 2))

    def test_ordinal_round_trip(self):
        param = OrdinalParameter("o", (1, 2, 4, 8))
        for value in param.values:
            assert param.from_unit(param.to_unit(value)) == value


class TestSearchSpace:
    def test_sample_hands_out_the_domain_objects(self):
        """Without a prior, ``sample`` draws what ``sample_columns`` draws,
        as the domain's own objects (a mixed ordinal domain once came back
        as floats)."""
        space = SearchSpace(
            [
                OrdinalParameter("p", (1, 2.5)),
                CategoricalParameter("c", (True, "x", 7)),
                IntegerParameter("k", 1, 9),
            ]
        )
        configs = space.sample(40, np.random.default_rng(0))
        expected = space.sample_columns(40, np.random.default_rng(0)).to_configurations()
        typed = [[(type(v), v) for v in c.values()] for c in configs]
        assert typed == [[(type(v), v) for v in c.values()] for c in expected]
        for config in configs:
            assert any(config["p"] is value for value in (1, 2.5))
            assert type(config["k"]) is int
        param = space["p"]
        assert [type(v) for v in param.sample(np.random.default_rng(1), size=8)] == [
            type(param.values[i]) for i in param.sample_indices(np.random.default_rng(1), 8)
        ]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([IntegerParameter("x", 0, 1), RealParameter("x", 0, 1)])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])

    def test_len_iteration_and_lookup(self):
        space = example_space()
        assert len(space) == 5
        assert "pool" in space
        assert space["pes"].name == "pes"
        assert [p.name for p in space] == list(space.parameter_names)

    def test_validate_reports_missing_extra_and_illegal(self):
        space = example_space()
        with pytest.raises(ValueError, match="missing"):
            space.validate({"batch": 1})
        config = {p.name: p.from_unit(0.5) for p in space}
        with pytest.raises(ValueError, match="unknown"):
            space.validate({**config, "extra": 1})
        with pytest.raises(ValueError, match="illegal"):
            space.validate({**config, "batch": 10_000})

    def test_sampled_configurations_are_valid(self):
        space = example_space()
        rng = np.random.default_rng(0)
        for config in space.sample(50, rng):
            space.validate(config)

    def test_sampling_zero_returns_empty(self):
        assert example_space().sample(0, np.random.default_rng(0)) == []

    def test_numeric_encoding_shape_and_log_scaling(self):
        space = example_space()
        rng = np.random.default_rng(0)
        configs = space.sample(10, rng)
        X = space.to_numeric_array(configs)
        assert X.shape == (10, 5)
        # log-scaled column for the log parameter
        batch_col = X[:, 0]
        assert np.all(batch_col <= np.log(2048) + 1e-9)

    def test_one_hot_dimension_and_rows_sum(self):
        space = example_space()
        rng = np.random.default_rng(0)
        configs = space.sample(5, rng)
        X = space.to_one_hot_array(configs)
        # 3 (pool) + 2 (busy) + 3 single columns
        assert X.shape == (5, space.one_hot_dimension()) == (5, 8)
        pool_block = X[:, 2:5]
        assert np.allclose(pool_block.sum(axis=1), 1.0)

    def test_unit_array_round_trip_preserves_validity(self):
        space = example_space()
        rng = np.random.default_rng(0)
        configs = space.sample(20, rng)
        decoded = space.from_unit_array(space.to_unit_array(configs))
        for config in decoded:
            space.validate(config)

    def test_clip_projects_out_of_range_values(self):
        space = example_space()
        config = {"batch": 100000, "fraction": 1.7, "pool": "fifo", "pes": 5, "busy": True}
        clipped = space.clip(config)
        space.validate(clipped)
        assert clipped["batch"] == 2048
        assert clipped["fraction"] == pytest.approx(1.0)
        assert clipped["pes"] in (4, 8)

    def test_subspace_and_union(self):
        space = example_space()
        sub = space.subspace(["batch", "busy"])
        assert sub.parameter_names == ("batch", "busy")
        other = SearchSpace([IntegerParameter("new", 0, 3)])
        merged = space.union(other)
        assert "new" in merged and len(merged) == 6

    def test_new_and_common_parameters(self):
        space = example_space()
        sub = space.subspace(["batch", "busy"])
        assert space.new_parameters(sub) == ["fraction", "pool", "pes"]
        assert sub.common_parameters(space) == ["batch", "busy"]

    def test_cardinality_infinite_with_real_parameter(self):
        assert example_space().cardinality == float("inf")


class TestPropertyBased:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_integer_from_unit_always_in_bounds(self, u):
        param = IntegerParameter("x", 3, 97, log=True)
        value = param.from_unit(u)
        assert 3 <= value <= 97

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_real_unit_round_trip_is_monotone(self, u):
        param = RealParameter("x", 1.0, 100.0, log=True)
        value = param.from_unit(u)
        assert 1.0 <= value <= 100.0
        assert param.to_unit(value) == pytest.approx(u, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_sampled_integer_round_trips_through_unit_space(self, seed):
        param = IntegerParameter("x", 1, 2048, log=True)
        rng = np.random.default_rng(seed)
        value = param.sample(rng)
        assert param.contains(value)
        round_tripped = param.from_unit(param.to_unit(value))
        assert abs(round_tripped - value) <= 1

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_space_samples_always_validate(self, seed):
        space = example_space()
        rng = np.random.default_rng(seed)
        config = space.sample(1, rng)[0]
        space.validate(config)
