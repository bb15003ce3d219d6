"""Property suite for the GP incremental path, solo and fleet.

Random interleavings of ``fit``/``partial_fit`` — including sequences that
hit the ``refresh_growth`` threshold exactly and its off-by-one neighbours —
must keep the posterior within ``1e-8`` of a frozen full refit
(:func:`reference.gaussian_process.refit_with_current_hyperparameters` on the
accumulated data), and the fleet path must track the solo path bit for
bit under the same interleavings.
"""

import copy
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from reference.gaussian_process import refit_with_current_hyperparameters
from repro.core.surrogate import GaussianProcessSurrogate, GPFleet

D = 4


def make_data(seed, n, d=D):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(X @ rng.random(d) * 3.0) + 0.1 * rng.random(n)
    return X, y


def assert_posterior_close_to_frozen_refit(gp, X_all, y_all, Xq, atol=1e-8):
    """The incremental state matches a from-scratch factorisation of the
    same kernel (same hyperparameters) to well below the advertised bound."""
    reference = refit_with_current_hyperparameters(copy.deepcopy(gp), X_all, y_all)
    mean, std = gp.predict(Xq)
    mean_ref, std_ref = reference.predict(Xq)
    np.testing.assert_allclose(mean, mean_ref, atol=atol, rtol=0)
    np.testing.assert_allclose(std, std_ref, atol=atol, rtol=0)


interleavings = st.lists(st.integers(1, 4), min_size=1, max_size=8)


class TestSoloIncrementalProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n0=st.integers(8, 20),
        batches=interleavings,
        growth=st.sampled_from([1.25, 1.5, 2.0]),
    )
    def test_interleaved_partial_fits_track_full_refit(self, seed, n0, batches, growth):
        gp = GaussianProcessSurrogate(refresh_growth=growth)
        X0, y0 = make_data(seed, n0)
        gp.fit(X0, y0)
        X_all, y_all = X0, y0
        Xq = np.random.default_rng(seed + 1).random((9, D))
        for i, m in enumerate(batches):
            X_new, y_new = make_data(seed + 100 + i, m)
            gp.partial_fit(X_new, y_new)
            X_all = np.vstack([X_all, X_new])
            y_all = np.concatenate([y_all, y_new])
            assert gp._n == X_all.shape[0]
            assert_posterior_close_to_frozen_refit(gp, X_all, y_all, Xq)

    @settings(max_examples=30, deadline=None)
    @given(n0=st.integers(8, 40), growth=st.sampled_from([1.25, 1.5, 2.0]))
    def test_refresh_plan_boundary_is_exact(self, n0, growth):
        """``partial_fit_plan`` flips exactly at total >= growth · n_last_full."""
        gp = GaussianProcessSurrogate(refresh_growth=growth)
        gp.fit(*make_data(n0, n0))
        boundary = growth * n0
        for total in range(n0 + 1, int(math.ceil(boundary)) + 3):
            expected = "full" if total >= boundary else "extend"
            assert gp.partial_fit_plan(total) == expected, (total, boundary)

    def test_exact_boundary_triggers_full_refit(self):
        """total == refresh_growth · n_last_full exactly refreshes (>=, not >)."""
        gp = GaussianProcessSurrogate(refresh_growth=1.5)
        gp.fit(*make_data(0, 8))  # boundary at exactly 12.0
        gp.partial_fit(*make_data(1, 3))  # total 11 < 12 → extend
        assert (gp.num_full_fits, gp.num_partial_fits) == (1, 1)
        gp.partial_fit(*make_data(2, 1))  # total 12 == 12.0 → full refresh
        assert (gp.num_full_fits, gp.num_partial_fits) == (2, 1)
        assert gp._n_last_full == 12

    def test_one_below_boundary_extends(self):
        gp = GaussianProcessSurrogate(refresh_growth=1.5)
        gp.fit(*make_data(3, 8))
        gp.partial_fit(*make_data(4, 3))  # total 11 = boundary - 1 → extend
        assert (gp.num_full_fits, gp.num_partial_fits) == (1, 1)
        Xq = np.random.default_rng(5).random((9, D))
        X_all = np.vstack([make_data(3, 8)[0], make_data(4, 3)[0]])
        y_all = np.concatenate([make_data(3, 8)[1], make_data(4, 3)[1]])
        assert_posterior_close_to_frozen_refit(gp, X_all, y_all, Xq)


class TestFleetIncrementalProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n0=st.integers(8, 16),
        batches=interleavings,
        growth=st.sampled_from([1.25, 1.5]),
    )
    def test_fleet_interleavings_match_solo_bitwise_and_full_refit(
        self, seed, n0, batches, growth
    ):
        """Drive a ragged 3-member fleet through the same interleaving the
        solo twins see, splitting extend/full groups the way the runner's
        ``gp_fleet_key`` grouping would, and require bitwise equality plus
        the ≤1e-8 frozen-refit bound for every member after every round."""
        count = 3
        starts = [n0 + k for k in range(count)]  # ragged from the start
        solo = [GaussianProcessSurrogate(refresh_growth=growth) for _ in range(count)]
        fleet = [GaussianProcessSurrogate(refresh_growth=growth) for _ in range(count)]
        data = [make_data(seed + k, n) for k, n in enumerate(starts)]
        for a, b, (X, y) in zip(solo, fleet, data):
            a.fit(X, y)
            b.fit(X, y)
        X_all = [X for X, _ in data]
        y_all = [y for _, y in data]
        Xq = np.random.default_rng(seed + 7).random((9, D))

        for i, m in enumerate(batches):
            updates = [make_data(seed + 500 + 10 * i + k, m) for k in range(count)]
            for gp, (X_new, y_new) in zip(solo, updates):
                gp.partial_fit(X_new, y_new)
            # The runner's grouping: members still extending fuse into one
            # GPFleet pass, members due a refresh take their solo path.
            extending = [
                k
                for k in range(count)
                if fleet[k].partial_fit_plan(fleet[k]._n + m) == "extend"
            ]
            if len(extending) >= 2:
                GPFleet([fleet[k] for k in extending]).partial_fit(
                    [updates[k][0] for k in extending],
                    [updates[k][1] for k in extending],
                )
            else:
                for k in extending:
                    fleet[k].partial_fit(*updates[k])
            for k in range(count):
                if k not in extending:
                    fleet[k].partial_fit(*updates[k])
            for k in range(count):
                X_all[k] = np.vstack([X_all[k], updates[k][0]])
                y_all[k] = np.concatenate([y_all[k], updates[k][1]])

            for k in range(count):
                mean_a, std_a = solo[k].predict(Xq)
                mean_b, std_b = fleet[k].predict(Xq)
                assert np.array_equal(mean_a, mean_b), f"member {k}, round {i}"
                assert np.array_equal(std_a, std_b), f"member {k}, round {i}"
                assert_posterior_close_to_frozen_refit(
                    fleet[k], X_all[k], y_all[k], Xq
                )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 24))
    def test_fleet_full_fit_matches_solo(self, seed, n):
        count = 3
        solo = [GaussianProcessSurrogate() for _ in range(count)]
        fleet = [GaussianProcessSurrogate() for _ in range(count)]
        data = [make_data(seed + k, n) for k in range(count)]
        for gp, (X, y) in zip(solo, data):
            gp.fit(X, y)
        GPFleet(fleet).fit([X for X, _ in data], [y for _, y in data])
        Xq = np.random.default_rng(seed + 3).random((9, D))
        for a, b in zip(solo, fleet):
            mean_a, std_a = a.predict(Xq)
            mean_b, std_b = b.predict(Xq)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)
