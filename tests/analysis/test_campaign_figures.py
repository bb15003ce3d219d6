"""Tests for the campaign runner and the figure-series assembly."""

import numpy as np
import pytest

from fixtures import assert_results_identical
from reference.search import run as run_sequential
from repro.core.search import CBOSearch
from repro.core.space import CategoricalParameter, RealParameter, SearchSpace
from repro.analysis.campaign import (
    AggregatedMetrics,
    CampaignResult,
    aggregate_trajectories,
    run_repeated_search,
    run_transfer_chain,
)
from repro.analysis.figures import (
    fig3_series,
    fig3_table,
    fig4_rows,
    fig4_table,
    fig5_rows,
    fig5_table,
    format_table,
)


def toy_space():
    return SearchSpace(
        [RealParameter("x", 0.0, 1.0), CategoricalParameter.boolean("flag")]
    )


def toy_runtime(config):
    return 15.0 + 120.0 * (config["x"] - 0.5) ** 2 + (0.0 if config["flag"] else 8.0)


BUDGET = 600.0


@pytest.fixture(scope="module")
def small_campaign():
    return run_repeated_search(
        toy_space(),
        toy_runtime,
        label="RF",
        setup="toy",
        repetitions=2,
        max_time=BUDGET,
        num_workers=4,
        seed=0,
    )


@pytest.fixture(scope="module")
def random_campaign():
    return run_repeated_search(
        toy_space(),
        toy_runtime,
        label="RAND",
        setup="toy",
        surrogate="RAND",
        random_sampling=True,
        repetitions=2,
        max_time=BUDGET,
        num_workers=4,
        seed=0,
    )


class TestAggregatedMetrics:
    def test_from_values_basic(self):
        agg = AggregatedMetrics.from_values([1.0, 3.0, 2.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.min == 1.0 and agg.max == 3.0

    def test_nan_values_ignored(self):
        agg = AggregatedMetrics.from_values([float("nan"), 4.0])
        assert agg.mean == pytest.approx(4.0)

    def test_all_nan_gives_nan(self):
        agg = AggregatedMetrics.from_values([float("nan")])
        assert np.isnan(agg.mean)


class TestCampaignResult:
    def test_contains_requested_repetitions(self, small_campaign):
        assert len(small_campaign.results) == 2
        assert small_campaign.label == "RF"

    def test_metric_aggregates_are_finite(self, small_campaign):
        assert np.isfinite(small_campaign.best().mean)
        assert np.isfinite(small_campaign.mean_best().mean)
        assert small_campaign.evaluations().mean > 4
        assert 0.0 < small_campaign.utilization().mean <= 1.0

    def test_mean_best_not_smaller_than_best(self, small_campaign):
        assert small_campaign.mean_best().mean >= small_campaign.best().mean - 1e-9

    def test_speedup_over_random_is_at_least_one(self, small_campaign, random_campaign):
        speedup = small_campaign.speedup_over(random_campaign)
        assert speedup.mean >= 1.0

    def test_trajectory_grid_and_monotonicity(self, small_campaign):
        traj = small_campaign.trajectory(num_points=30)
        assert traj["time"].shape == (30,)
        finite = traj["mean"][np.isfinite(traj["mean"])]
        assert np.all(np.diff(finite) <= 1e-9)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            run_repeated_search(toy_space(), toy_runtime, label="x", repetitions=0)


class TestAggregateTrajectories:
    def test_min_max_envelope_contains_mean(self, small_campaign):
        traj = aggregate_trajectories(small_campaign.results, BUDGET, num_points=20)
        mask = np.isfinite(traj["mean"])
        assert np.all(traj["min"][mask] <= traj["mean"][mask] + 1e-9)
        assert np.all(traj["mean"][mask] <= traj["max"][mask] + 1e-9)


class TestTransferChain:
    def test_chain_runs_and_links_sources(self):
        problems = [
            ("stage-a", toy_space(), toy_runtime),
            ("stage-b", toy_space(), toy_runtime),
        ]
        chain = run_transfer_chain(
            problems, repetitions=1, max_time=400.0, num_workers=4, vae_epochs=20, seed=0
        )
        assert set(chain) == {"stage-a", "stage-b"}
        assert "tl" not in chain["stage-a"]
        assert "tl" in chain["stage-b"]
        assert chain["stage-b"]["tl"].results[0].num_evaluations > 0


class TestFigures:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", AggregatedMetrics(1, 0, 2)]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_fig4_rows_and_table(self, small_campaign, random_campaign):
        campaigns = {"toy": {"RAND": random_campaign, "RF": small_campaign}}
        rows = fig4_rows(campaigns)
        assert len(rows) == 2
        rf_row = next(r for r in rows if r["method"] == "RF")
        assert rf_row["speedup"].mean >= 1.0
        text = fig4_table(campaigns)
        assert "RF" in text and "RAND" in text and "speedup" in text

    def test_fig5_rows_and_table(self, small_campaign, random_campaign):
        campaigns = {"toy": {"RAND": random_campaign, "DH1W": small_campaign}}
        rows = fig5_rows(campaigns)
        assert {r["method"] for r in rows} == {"RAND", "DH1W"}
        assert "DH1W" in fig5_table(campaigns)

    def test_fig3_series_and_table(self, small_campaign):
        chain = {"toy": {"no_tl": small_campaign}}
        series = fig3_series(chain, num_points=10)
        assert series["toy"]["no_tl"]["time"].shape == (10,)
        text = fig3_table(chain, sample_times=(100.0, 400.0))
        assert "toy" in text and "best@100s" in text


class TestFig3TableRegression:
    def test_fig3_table_matches_per_time_best_runtime_reference(self, small_campaign):
        """The one-call ``incumbent_at`` rewrite must not change the table.

        The reference below is the previous implementation: one
        ``best_runtime_at`` history scan per (repetition, sample time).
        """
        from repro.analysis.figures import AggregatedMetrics, format_table

        chain = {"toy": {"no_tl": small_campaign}}
        sample_times = (150.0, 300.0, BUDGET, 2 * BUDGET)

        headers = ["setup", "variant"] + [f"best@{int(t)}s" for t in sample_times]
        rows = []
        for setup, entry in chain.items():
            for variant, campaign in entry.items():
                row = [setup, variant]
                for t in sample_times:
                    values = [
                        r.history.best_runtime_at(min(t, campaign.max_time))
                        for r in campaign.results
                    ]
                    row.append(AggregatedMetrics.from_values(values))
                rows.append(row)
        reference = format_table(headers, rows)

        assert fig3_table(chain, sample_times=sample_times) == reference


class TestCampaignIncumbentAt:
    def test_matches_per_row_best_runtime_reference(self, small_campaign):
        """The one-call-per-repetition resolution must match the former
        per-(repetition, time) ``best_runtime_at`` scans exactly — including
        times beyond the budget (clipped) and before the first success
        (``inf``)."""
        sample_times = (0.0, 150.0, 300.0, BUDGET, 2 * BUDGET)
        matrix = small_campaign.incumbent_at(sample_times)
        assert matrix.shape == (len(small_campaign.results), len(sample_times))
        for i, result in enumerate(small_campaign.results):
            for j, t in enumerate(sample_times):
                reference = result.history.best_runtime_at(
                    min(t, small_campaign.max_time)
                )
                assert matrix[i, j] == reference or (
                    np.isinf(matrix[i, j]) and np.isinf(reference)
                )


class TestRepeatedSearch:
    def test_repetitions_match_the_sequential_loop(self):
        """Each repetition is a search with seed ``seed + 1000·rep``, run to
        the same budget as the sequential reference loop runs it."""
        campaign = run_repeated_search(
            toy_space(), toy_runtime, label="RF", setup="toy", repetitions=3,
            max_time=400.0, num_workers=4, seed=7,
        )
        assert len(campaign.results) == 3
        for rep, result in enumerate(campaign.results):
            search = CBOSearch(toy_space(), toy_runtime, num_workers=4, seed=7 + 1000 * rep)
            assert_results_identical(run_sequential(search, max_time=400.0), result)
