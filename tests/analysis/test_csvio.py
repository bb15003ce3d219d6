"""Tests for campaign-level CSV persistence (save/load round trips)."""

import numpy as np
import pytest

from repro.core.space import IntegerParameter, RealParameter, SearchSpace
from repro.analysis.campaign import run_repeated_search
from repro.analysis.csvio import load_campaign, load_histories, save_campaign


def toy_space():
    return SearchSpace([RealParameter("x", 0.0, 1.0), IntegerParameter("k", 1, 16)])


def toy_runtime(config):
    return 10.0 + 50.0 * (config["x"] - 0.4) ** 2 + abs(config["k"] - 6)


@pytest.fixture(scope="module")
def campaign():
    return run_repeated_search(
        toy_space(),
        toy_runtime,
        label="RF",
        setup="toy",
        repetitions=2,
        max_time=300.0,
        num_workers=4,
        seed=0,
    )


class TestSaveLoad:
    def test_save_writes_manifest_and_csvs(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "campaign")
        assert (directory / "campaign.json").exists()
        csvs = sorted(directory.glob("*.csv"))
        assert len(csvs) == 2

    def test_round_trip_preserves_metrics(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "campaign")
        loaded = load_campaign(directory, toy_space())
        assert loaded.label == campaign.label
        assert loaded.setup == campaign.setup
        assert len(loaded.results) == len(campaign.results)
        assert loaded.best().mean == pytest.approx(campaign.best().mean)
        assert loaded.evaluations().mean == pytest.approx(campaign.evaluations().mean)
        assert loaded.mean_best().mean == pytest.approx(campaign.mean_best().mean, rel=1e-6)
        assert loaded.utilization().mean == pytest.approx(campaign.utilization().mean)

    def test_load_histories_returns_per_repetition_histories(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "campaign")
        histories = load_histories(directory, toy_space())
        assert len(histories) == 2
        for original, loaded in zip(campaign.results, histories):
            assert len(loaded) == len(original.history)

    def test_loading_a_non_campaign_directory_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_campaign(tmp_path, toy_space())

    def test_loaded_histories_feed_transfer_learning(self, campaign, tmp_path):
        from repro.core.transfer import fit_transfer_prior

        directory = save_campaign(campaign, tmp_path / "campaign")
        history = load_histories(directory, toy_space())[0]
        prior = fit_transfer_prior(history, toy_space(), epochs=20, seed=0)
        samples = prior.sample_configurations(10, np.random.default_rng(0))
        assert len(samples) == 10


class TestRepeatedLoads:
    """Every CSV load parses the file afresh."""

    def test_loads_are_independent_copies(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "campaign")
        first = load_histories(directory, toy_space())[0]
        first.record({"x": 0.5, "k": 3}, 12.0, 1.0, 2.0)
        second = load_histories(directory, toy_space())[0]
        assert len(second) == len(first) - 1

    def test_rewritten_file_is_reread(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "campaign")
        name = sorted(directory.glob("*.csv"))[0]
        before = load_histories(directory, toy_space())[0]
        # Truncate the CSV to the header plus one row.
        lines = name.read_text().splitlines()
        name.write_text("\n".join(lines[:2]) + "\n")
        after = load_histories(directory, toy_space())[0]
        assert len(after) == 1
        assert len(before) > 1

    def test_threaded_loads(self, campaign, tmp_path):
        import threading

        directories = [
            save_campaign(campaign, tmp_path / f"campaign{i}") for i in range(3)
        ]
        reference = [
            [h.to_csv() for h in load_histories(d, toy_space())]
            for d in directories
        ]
        errors = []
        barrier = threading.Barrier(6)

        def hammer(worker):
            try:
                barrier.wait()
                for round_ in range(20):
                    index = (worker + round_) % 3
                    histories = load_histories(directories[index], toy_space())
                    assert [h.to_csv() for h in histories] == reference[index]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
