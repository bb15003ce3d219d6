"""Fleet fitting and fused prediction must be bit-identical per forest.

:func:`~repro.core.surrogate.random_forest.fit_forest_fleet` builds many
independent forests in one level-wise pass; every forest's node arrays must
equal — bit for bit — what ``forest.fit`` produces on its own, and the
forests' RNGs must end in the same state (so subsequent fits agree too).
:func:`~repro.core.surrogate.random_forest.predict_forest_fleet` must return
exactly the per-forest ``predict`` results.  The multi-campaign batch
runner's bit-identity guarantee rests on these two properties.

The builder itself is pinned to a frozen copy: ``build_forest_fleet`` in
``tests/reference/random_forest.py`` is the float-``lexsort`` builder the
rank-key builder replaced, and both must grow the same node arrays, byte for
byte, and leave every job's generator in the same state.  The traversal is
pinned the same way to ``predict_forest_fleet`` there, the masked walk that
absorbing leaves replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.surrogate.random_forest as random_forest
from reference.random_forest import (
    build_forest_fleet,
    predict_forest_fleet as masked_predict_forest_fleet,
    tree_depth,
    tree_views,
)
from repro.core.surrogate.random_forest import (
    _CHUNK_ELEMENTS,
    RandomForestSurrogate,
    fit_forest_fleet,
    predict_forest_fleet,
)

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def dataset(seed, n=140, d=6, quantized=False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if quantized:
        # Heavy value ties exercise the distinct-value and tie-guard paths.
        X = np.round(X * 6) / 6
    y = X @ rng.normal(size=d) + 0.05 * rng.normal(size=n)
    return X, y


def assert_forests_equal(a, b):
    trees_a, trees_b = tree_views(a._tables), tree_views(b._tables)
    assert len(trees_a) == len(trees_b)
    for tree_a, tree_b in zip(trees_a, trees_b):
        for attr in TREE_ARRAYS:
            assert np.array_equal(getattr(tree_a, attr), getattr(tree_b, attr)), attr


class TestFleetFitBitIdentity:
    @pytest.mark.parametrize("num_jobs", [1, 2, 5, 8])
    def test_fleet_fit_equals_solo_fits(self, num_jobs):
        datasets = [dataset(s, n=90 + 23 * s, quantized=(s % 2 == 0)) for s in range(num_jobs)]
        solo = [
            RandomForestSurrogate(n_estimators=4 + (i % 3), seed=10 + i, max_depth=9).fit(X, y)
            for i, (X, y) in enumerate(datasets)
        ]
        fleet = [
            RandomForestSurrogate(n_estimators=4 + (i % 3), seed=10 + i, max_depth=9)
            for i in range(num_jobs)
        ]
        fit_forest_fleet([(m, X, y) for m, (X, y) in zip(fleet, datasets)])
        for a, b in zip(solo, fleet):
            assert b.fitted
            assert_forests_equal(a, b)

    def test_rng_state_advances_identically(self):
        """A refit after a fleet fit equals a refit after a solo fit."""
        X, y = dataset(0)
        X2, y2 = dataset(42, n=110)
        solo = RandomForestSurrogate(seed=3).fit(X, y)
        member = RandomForestSurrogate(seed=3)
        other = RandomForestSurrogate(seed=4)
        fit_forest_fleet([(member, X, y), (other, X, y)])
        solo.fit(X2, y2)
        member.fit(X2, y2)
        assert_forests_equal(solo, member)

    def test_fleet_predictions_equal_solo_predictions(self):
        datasets = [dataset(s) for s in range(4)]
        solo = [RandomForestSurrogate(seed=i).fit(X, y) for i, (X, y) in enumerate(datasets)]
        fleet = [RandomForestSurrogate(seed=i) for i in range(4)]
        fit_forest_fleet([(m, X, y) for m, (X, y) in zip(fleet, datasets)])
        rng = np.random.default_rng(9)
        for a, b in zip(solo, fleet):
            Xc = rng.random((64, 6))
            mean_a, std_a = a.predict(Xc)
            mean_b, std_b = b.predict(Xc)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)

    def test_failed_solo_fit_leaves_the_generator_untouched(self, monkeypatch):
        """A solo fit is a fleet of one: a build that raises restores the
        forest's RNG, so the retry equals an undisturbed fit."""
        X, y = dataset(0)
        undisturbed = RandomForestSurrogate(seed=3).fit(X, y)
        forest = RandomForestSurrogate(seed=3)
        state = forest._rng.bit_generator.state
        build = random_forest._build_forest_fleet
        failures = [RuntimeError("injected build failure")]

        def flaky_build(*args, **kwargs):
            if failures:
                raise failures.pop()
            return build(*args, **kwargs)

        monkeypatch.setattr(random_forest, "_build_forest_fleet", flaky_build)
        with pytest.raises(RuntimeError, match="injected"):
            forest.fit(X, y)
        assert forest._rng.bit_generator.state == state
        assert not forest.fitted
        forest.fit(X, y)
        assert_forests_equal(undisturbed, forest)

    def test_incompatible_hyperparameters_rejected(self):
        X, y = dataset(0)
        a = RandomForestSurrogate(seed=0, max_depth=9)
        b = RandomForestSurrogate(seed=1, max_depth=12)
        with pytest.raises(ValueError, match="incompatible"):
            fit_forest_fleet([(a, X, y), (b, X, y)])

    def test_duplicate_member_rejected(self):
        X, y = dataset(0)
        a = RandomForestSurrogate(seed=0)
        with pytest.raises(ValueError, match="once"):
            fit_forest_fleet([(a, X, y), (a, X, y)])

    def test_empty_fleet_is_a_no_op(self):
        fit_forest_fleet([])


#: Two float-adjacent values whose midpoint rounds up to the upper one, so a
#: split between them would swallow it (the degenerate-tie slow path).
ADJACENT = (1.0 + 2.0**-52, 1.0 + 2.0**-51)

COLUMN_KINDS = ("continuous", "quantized", "signed_zero", "constant", "adjacent")


def make_column(kind, n, rng):
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "quantized":
        return rng.integers(0, rng.integers(2, 5), size=n) / 3.0
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 0.5, -0.5], size=n)
    if kind == "constant":
        return np.full(n, rng.normal())
    return rng.choice(ADJACENT, size=n)


def assert_builders_agree(Xs, ys, boots, seeds, **params):
    """The library builder and the frozen lexsort builder agree bit for bit."""
    outcomes = []
    for build in (random_forest._build_forest_fleet, build_forest_fleet):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        forests = build(Xs, ys, boots, rngs, **params)
        outcomes.append((forests, [rng.bit_generator.state for rng in rngs]))
    (forests, states), (oracle_forests, oracle_states) = outcomes
    assert states == oracle_states
    assert len(forests) == len(oracle_forests)
    for forest, oracle in zip(forests, oracle_forests):
        trees = tree_views(forest)
        assert len(trees) == len(oracle)
        for tree, oracle_tree in zip(trees, oracle):
            for attr in TREE_ARRAYS:
                a, b = getattr(tree, attr), getattr(oracle_tree, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        assert forest.depth.tolist() == [tree_depth(tree) for tree in oracle]
    return forests


def fixed_fleet(num_jobs, rows, trees, d=20, seed=0):
    rng = np.random.default_rng(seed)
    Xs, ys, boots = [], [], []
    for j in range(num_jobs):
        X = rng.random((rows, d))
        X[:, : d // 2] = np.round(X[:, : d // 2] * 8) / 8
        Xs.append(X)
        ys.append(X @ rng.normal(size=d) + 0.05 * rng.normal(size=rows))
        boots.append(list(rng.integers(0, rows, size=(trees, rows))))
    return Xs, ys, boots, [seed + 1 + j for j in range(num_jobs)]


DEFAULT_SPLITS = dict(max_depth=18, min_samples_split=4, min_samples_leaf=2, n_split_features=5)


class TestBuilderMatchesLexsortReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 24),
        jobs=st.lists(
            st.tuples(st.integers(1, 60), st.integers(1, 5), st.booleans()),
            min_size=1,
            max_size=5,
        ),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=24, max_size=24),
        max_features=st.one_of(st.none(), st.just("sqrt"), st.integers(1, 24)),
        min_samples_split=st.integers(2, 5),
        min_samples_leaf=st.integers(1, 3),
        max_depth=st.integers(1, 18),
        y_levels=st.sampled_from([0, 2, 3]),
    )
    def test_random_fleets(
        self,
        seed,
        d,
        jobs,
        kinds,
        max_features,
        min_samples_split,
        min_samples_leaf,
        max_depth,
        y_levels,
    ):
        # y_levels > 0 quantizes the targets, so different split positions
        # often tie on their score and only the first one may win.
        rng = np.random.default_rng(seed)
        Xs, ys, boots = [], [], []
        for rows, trees, bootstrap in jobs:
            X = np.column_stack([make_column(kind, rows, rng) for kind in kinds[:d]])
            Xs.append(X)
            y = np.round(X @ rng.normal(size=d), 1) + rng.normal(size=rows)
            ys.append(np.floor(y) % y_levels if y_levels else y)
            boots.append(
                list(rng.integers(0, rows, size=(trees, rows)))
                if bootstrap
                else [np.arange(rows)] * trees
            )
        assert_builders_agree(
            Xs,
            ys,
            boots,
            [seed + j for j in range(len(jobs))],
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            n_split_features=RandomForestSurrogate(max_features=max_features)._n_split_features(d),
        )

    def test_frontier_wider_than_one_slot_chunk(self):
        """8,000 root samples: four slots per chunk, then the fifth alone."""
        Xs, ys, boots, seeds = fixed_fleet(num_jobs=2, rows=500, trees=8)
        assert 1 < _CHUNK_ELEMENTS // 8000 < DEFAULT_SPLITS["n_split_features"]
        assert_builders_agree(Xs, ys, boots, seeds, **DEFAULT_SPLITS)

    def test_frontier_of_the_former_per_job_sort(self):
        """16,800 root samples over three jobs: the reference sorts each
        job's block on its own, the library builder one slot at a time."""
        Xs, ys, boots, seeds = fixed_fleet(num_jobs=3, rows=700, trees=8, seed=1)
        assert 16384 <= 3 * 700 * 8 and _CHUNK_ELEMENTS // (3 * 700 * 8) == 1
        assert_builders_agree(Xs, ys, boots, seeds, **DEFAULT_SPLITS)

    def test_float_adjacent_values_take_the_tie_slow_path(self):
        """The best split of column 0 would swallow its upper value, so the
        degenerate-tie guard rejects it and the root splits elsewhere."""
        rng = np.random.default_rng(0)
        X = np.column_stack([np.repeat(ADJACENT, 10), rng.random(20)])
        y = np.repeat([0.0, 1.0], 10) + 0.01 * rng.random(20)
        (forest,) = assert_builders_agree(
            [X],
            [y],
            [[np.arange(20)]],
            [0],
            max_depth=5,
            min_samples_split=2,
            min_samples_leaf=1,
            n_split_features=2,
        )
        assert 0.5 * (ADJACENT[0] + ADJACENT[1]) == ADJACENT[1]
        assert tree_views(forest)[0].feature[0] == 1


class TestFleetPredict:
    def test_fused_predict_equals_per_forest_predict(self):
        datasets = [dataset(s, n=70 + 11 * s) for s in range(5)]
        forests = [RandomForestSurrogate(seed=i).fit(X, y) for i, (X, y) in enumerate(datasets)]
        rng = np.random.default_rng(1)
        jobs = [(forest, rng.random((20 + 9 * i, 6))) for i, forest in enumerate(forests)]
        fused = predict_forest_fleet(jobs)
        for (mean_f, std_f), (forest, Xc) in zip(fused, jobs):
            mean, std = forest.predict(Xc)
            assert np.array_equal(mean_f, mean)
            assert np.array_equal(std_f, std)

    def test_single_row_jobs_match(self):
        """One-row scoring must agree between fused, solo and batched paths."""
        X, y = dataset(3)
        forest = RandomForestSurrogate(seed=0).fit(X, y)
        rows = np.random.default_rng(2).random((16, 6))
        batch_mean, batch_std = forest.predict(rows)
        for i in range(16):
            mean, std = forest.predict(rows[i : i + 1])
            assert mean[0] == batch_mean[i] and std[0] == batch_std[i]
            (fleet_result,) = predict_forest_fleet([(forest, rows[i : i + 1])])
            assert fleet_result[0][0] == batch_mean[i]

    def test_unfitted_forest_rejected(self):
        with pytest.raises(RuntimeError):
            predict_forest_fleet([(RandomForestSurrogate(), np.zeros((2, 3)))])

    def test_empty_jobs(self):
        assert predict_forest_fleet([]) == []


def assert_traversals_agree(jobs):
    """The absorbing-leaf traversal returns the masked reference's bytes,
    fused and solo, and every tree's recorded depth is its real depth."""
    fused = predict_forest_fleet(jobs)
    oracle = masked_predict_forest_fleet(jobs)
    assert len(fused) == len(oracle) == len(jobs)
    for (mean, std), (oracle_mean, oracle_std), (forest, X) in zip(fused, oracle, jobs):
        assert mean.tobytes() == oracle_mean.tobytes()
        assert std.tobytes() == oracle_std.tobytes()
        solo_mean, solo_std = forest.predict(X)
        assert solo_mean.tobytes() == mean.tobytes() and solo_std.tobytes() == std.tobytes()
        tables = forest._tables
        assert tables.depth.tolist() == [tree_depth(tree) for tree in tree_views(tables)]
        assert tables.depth.max() <= forest.max_depth


class TestTraversalMatchesMaskedReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        forests=st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 4), st.booleans(), st.integers(1, 9)),
            min_size=1,
            max_size=5,
        ),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=8, max_size=8),
        max_depth=st.integers(1, 18),
        nan_share=st.sampled_from([0.0, 0.25]),
    )
    def test_random_fleets(self, seed, d, forests, kinds, max_depth, nan_share):
        """Fleets of mixed real depth — single leaves from a constant y
        included — scored on 1- and multi-row matrices of tied, ±0.0 and
        float-adjacent values, exact thresholds and NaN."""
        rng = np.random.default_rng(seed)
        jobs = []
        for rows, trees, constant_y, candidates in forests:
            X = np.column_stack([make_column(kind, rows, rng) for kind in kinds[:d]])
            if constant_y:
                y = np.full(rows, rng.normal())
            else:
                y = X @ rng.normal(size=d) + rng.normal(size=rows)
            forest = RandomForestSurrogate(
                n_estimators=trees,
                max_depth=max_depth,
                min_samples_split=2,
                min_samples_leaf=1,
                seed=int(rng.integers(2**31)),
            ).fit(X, y)
            C = np.column_stack([make_column(kind, candidates, rng) for kind in kinds[:d]])
            # Put split thresholds themselves in the matrix: they go left.
            tables = forest._tables
            internal = np.flatnonzero(tables.feature >= 0)
            for node in rng.choice(internal, size=min(internal.size, candidates), replace=False):
                C[rng.integers(candidates), tables.feature[node]] = tables.threshold[node]
            C[rng.random(C.shape) < nan_share] = np.nan
            jobs.append((forest, C))
        assert_traversals_agree(jobs)

    def test_nan_routes_right(self):
        """``NaN <= threshold`` is false, so a NaN row takes the right child."""
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        forest = RandomForestSurrogate(
            n_estimators=1, max_depth=1, min_samples_split=2, min_samples_leaf=1,
            bootstrap=False, max_features=None,
        ).fit(X, np.array([1.0, 1.0, 5.0, 5.0]))
        assert forest._tables.depth.tolist() == [1]
        mean, _ = forest.predict(np.array([[np.nan], [0.5], [0.25]]))
        assert mean.tolist() == [5.0, 1.0, 1.0]
        assert_traversals_agree([(forest, np.array([[np.nan], [0.5], [0.25]]))])

    def test_single_leaf_forest_takes_no_level(self):
        X = np.random.default_rng(0).random((12, 3))
        forest = RandomForestSurrogate(n_estimators=3, seed=0).fit(X, np.full(12, 2.5))
        assert forest._tables.depth.tolist() == [0, 0, 0]
        deep = RandomForestSurrogate(n_estimators=2, seed=1).fit(*dataset(4, n=60, d=3))
        assert_traversals_agree([(forest, X[:1]), (deep, X[:5]), (forest, X)])


class TestWidthCheck:
    @pytest.mark.parametrize("columns", [7, 5])
    def test_mismatched_width_raises_and_names_both(self, columns):
        """A wider matrix used to be scored on its first columns, a narrower
        one to raise a bare IndexError."""
        X, y = dataset(0)
        forest = RandomForestSurrogate(seed=0).fit(X, y)
        with pytest.raises(ValueError, match=rf"fitted on 6 features.* {columns} columns"):
            forest.predict(np.zeros((3, columns)))
        other = RandomForestSurrogate(seed=1).fit(X, y)
        with pytest.raises(ValueError, match=rf"fitted on 6 features.* {columns} columns"):
            predict_forest_fleet([(other, np.zeros((2, 6))), (forest, np.zeros((3, columns)))])

    def test_fleet_of_mixed_widths_equals_solo_predicts(self):
        narrow = RandomForestSurrogate(seed=0).fit(*dataset(1, n=50, d=3))
        wide = RandomForestSurrogate(seed=1).fit(*dataset(2, n=50, d=8))
        rng = np.random.default_rng(3)
        jobs = [(narrow, rng.random((4, 3))), (wide, rng.random((6, 8))), (narrow, rng.random((1, 3)))]
        for (mean, std), (forest, X) in zip(predict_forest_fleet(jobs), jobs):
            solo_mean, solo_std = forest.predict(X)
            assert mean.tobytes() == solo_mean.tobytes() and std.tobytes() == solo_std.tobytes()
