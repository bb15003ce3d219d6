"""Journal-format campaign persistence and the :class:`CampaignStore` catalog.

Covers the memory-mapped analysis path end to end: ``save_campaign(...,
format="journal")`` round trips, format auto-detection in
``load_campaign``/``load_histories`` (manifest entries, manifest-less journal
directories, a bare journal), journal-vs-live and journal-vs-CSV identity,
and the store's scan/peek/grouped aggregation over a root of stored
campaigns.
"""

import math

import numpy as np
import pytest

from repro.analysis import CampaignStore
from repro.analysis.campaign import (
    CampaignResult,
    result_from_history,
    run_repeated_search,
)
from repro.analysis.csvio import load_campaign, load_histories, save_campaign
from repro.analysis.figures import fig3_table, fig3_table_from_store
from repro.core.history import Evaluation, SearchHistory
from repro.core.journal import (
    _READER_CACHE,
    CampaignJournal,
    clear_journal_cache,
    set_journal_cache_limit,
)
from repro.core.space import IntegerParameter, RealParameter, SearchSpace


def toy_space():
    return SearchSpace([RealParameter("x", 0.0, 1.0), IntegerParameter("k", 1, 16)])


def toy_runtime(config):
    return 10.0 + 50.0 * (config["x"] - 0.4) ** 2 + abs(config["k"] - 6)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_journal_cache()
    yield
    clear_journal_cache()


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


def quantized_campaign(label="Q", setup="toy", repetitions=2, seed=0):
    """A synthetic campaign whose metadata survives the CSV %.6f format.

    Journal files store exact float64; CSV rounds metadata to 6 decimals.
    Quantised values make the two formats bit-comparable.
    """
    rng = np.random.default_rng(seed)
    space = toy_space()
    campaign = CampaignResult(
        label=label, setup=setup, max_time=300.0, num_workers=4
    )
    for _ in range(repetitions):
        history = SearchHistory(space)
        for i, config in enumerate(space.sample(20, rng)):
            runtime = round(float(rng.uniform(10.0, 60.0)), 6)
            submitted = round(float(i) * 0.5, 6)
            history.append(
                Evaluation(
                    configuration=config,
                    objective=-runtime,
                    runtime=runtime,
                    submitted=submitted,
                    completed=round(submitted + runtime, 6),
                    worker=i % 4,
                    eval_id=i,
                )
            )
        campaign.results.append(
            result_from_history(history, max_time=300.0, num_workers=4)
        )
    return campaign


def assert_history_rows_equal(a, b):
    assert len(a) == len(b)
    for ev_a, ev_b in zip(a, b):
        assert ev_a.configuration == ev_b.configuration
        assert ev_a.submitted == ev_b.submitted
        assert ev_a.completed == ev_b.completed
        assert ev_a.worker == ev_b.worker
        assert ev_a.eval_id == ev_b.eval_id
        assert (ev_a.runtime == ev_b.runtime) or (
            math.isnan(ev_a.runtime) and math.isnan(ev_b.runtime)
        )
        assert (ev_a.objective == ev_b.objective) or (
            math.isnan(ev_a.objective) and math.isnan(ev_b.objective)
        )


class TestJournalFormat:
    def test_save_writes_journal_subdirs(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "c", format="journal")
        assert (directory / "campaign.json").exists()
        journals = [d for d in directory.iterdir() if d.is_dir()]
        assert len(journals) == 2
        assert all(CampaignJournal.exists(d) for d in journals)

    def test_unknown_format_rejected(self, campaign, tmp_path):
        with pytest.raises(ValueError, match="unknown campaign format"):
            save_campaign(campaign, tmp_path / "c", format="parquet")

    def test_journal_round_trip_is_exact(self, campaign, tmp_path):
        """Journal loads are bit-identical to the live in-memory campaign
        (no 6-decimal quantisation, unlike CSV)."""
        directory = save_campaign(campaign, tmp_path / "c", format="journal")
        loaded = load_campaign(directory, toy_space())
        assert loaded.label == campaign.label
        assert loaded.setup == campaign.setup
        assert len(loaded.results) == len(campaign.results)
        for original, reloaded in zip(campaign.results, loaded.results):
            assert_history_rows_equal(original.history, reloaded.history)
            assert reloaded.busy_intervals == [
                (float(s), float(e)) for s, e in original.busy_intervals
            ]
            assert reloaded.worker_utilization == pytest.approx(
                original.worker_utilization
            )

    def test_journal_matches_csv_for_quantized_data(self, tmp_path):
        campaign = quantized_campaign()
        save_campaign(campaign, tmp_path / "csv", format="csv")
        save_campaign(campaign, tmp_path / "journal", format="journal")
        space = toy_space()
        from_csv = load_histories(tmp_path / "csv", space)
        from_journal = load_histories(tmp_path / "journal", space)
        assert len(from_csv) == len(from_journal) == 2
        for a, b in zip(from_csv, from_journal):
            assert_history_rows_equal(a, b)
        table_csv = fig3_table(
            {"toy": {"Q": load_campaign(tmp_path / "csv", space)}},
            sample_times=(30.0, 150.0, 300.0),
        )
        table_journal = fig3_table(
            {"toy": {"Q": load_campaign(tmp_path / "journal", space)}},
            sample_times=(30.0, 150.0, 300.0),
        )
        assert table_csv == table_journal

    def test_loaded_histories_are_read_only_views(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "c", format="journal")
        histories = load_histories(directory, toy_space())
        assert all(h.read_only for h in histories)
        thawed = histories[0].copy()
        assert not thawed.read_only


class TestAutoDetection:
    def test_bare_journal_directory(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "c", format="journal")
        journal_dir = next(d for d in sorted(directory.iterdir()) if d.is_dir())
        histories = load_histories(journal_dir, toy_space())
        assert len(histories) == 1
        loaded = load_campaign(journal_dir, toy_space())
        assert len(loaded.results) == 1
        # Campaign fields come from the journal meta.
        assert loaded.label == campaign.label
        assert loaded.max_time == campaign.max_time

    def test_manifest_less_directory_of_journals(self, campaign, tmp_path):
        directory = save_campaign(campaign, tmp_path / "c", format="journal")
        (directory / "campaign.json").unlink()
        histories = load_histories(directory, toy_space())
        assert len(histories) == 2
        loaded = load_campaign(directory, toy_space())
        assert len(loaded.results) == 2
        assert loaded.label == campaign.label

    def test_empty_directory_still_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_histories(tmp_path, toy_space())
        with pytest.raises(FileNotFoundError):
            load_campaign(tmp_path, toy_space())


def populate_store_root(root, num_setups=2, num_variants=2, reps=2):
    """A registry-style root: one journal directory per stored campaign."""
    rng = np.random.default_rng(42)
    space = toy_space()
    names = []
    for s in range(num_setups):
        for v in range(num_variants):
            for r in range(reps):
                history = SearchHistory(space)
                for i, config in enumerate(space.sample(12, rng)):
                    runtime = float(rng.uniform(10.0, 60.0))
                    history.append(
                        Evaluation(
                            configuration=config,
                            objective=-runtime,
                            runtime=runtime,
                            submitted=float(i),
                            completed=float(i) + runtime,
                            worker=i % 4,
                            eval_id=i,
                        )
                    )
                name = f"s{s}-v{v}-r{r}"
                journal = CampaignJournal.create(root / name, space, fsync=False)
                try:
                    journal.write_meta(
                        {
                            "label": f"variant{v}",
                            "setup": f"setup{s}",
                            "max_time": 300.0,
                            "num_workers": 4,
                        }
                    )
                    journal.append_rows(history)
                    journal.checkpoint({"finished": True})
                finally:
                    journal.close()
                names.append(name)
    return sorted(names)


class TestCampaignStore:
    def test_scan_and_catalog_protocol(self, tmp_path):
        names = populate_store_root(tmp_path)
        (tmp_path / "not-a-journal").mkdir()
        (tmp_path / "stray.txt").write_text("x")
        store = CampaignStore(tmp_path, toy_space())
        assert store.names() == names
        assert len(store) == len(names)
        assert names[0] in store
        assert "nope" not in store
        with pytest.raises(KeyError):
            store.directory("nope")

    def test_rescan_picks_up_new_campaigns(self, tmp_path):
        populate_store_root(tmp_path, num_setups=1, num_variants=1, reps=1)
        store = CampaignStore(tmp_path, toy_space())
        before = len(store)
        populate_store_root(tmp_path, num_setups=1, num_variants=2, reps=1)
        assert len(store) == before  # scan is cached
        assert len(store.rescan()) >= 2

    def test_missing_root_reads_empty(self, tmp_path):
        store = CampaignStore(tmp_path / "nowhere", toy_space())
        assert store.names() == []
        assert len(store) == 0

    def test_histories_and_peek(self, tmp_path):
        names = populate_store_root(tmp_path)
        store = CampaignStore(tmp_path, toy_space())
        histories = store.histories()
        assert len(histories) == len(names)
        assert all(h.read_only for h in histories)
        peeked = store.peek(names[0])
        assert peeked["num_evaluations"] == 12
        assert peeked["finished"] is True
        summary = store.summary()
        assert [row["name"] for row in summary] == names

    def test_grouped_matches_meta_fields(self, tmp_path):
        populate_store_root(tmp_path, num_setups=2, num_variants=2, reps=3)
        store = CampaignStore(tmp_path, toy_space())
        grouped = store.grouped()
        assert sorted(grouped) == ["setup0", "setup1"]
        for setup, labels in grouped.items():
            assert sorted(labels) == ["variant0", "variant1"]
            for label, campaign in labels.items():
                assert campaign.setup == setup
                assert campaign.label == label
                assert len(campaign.results) == 3
                assert campaign.max_time == 300.0
                assert campaign.num_workers == 4

    def test_fig3_table_from_store(self, tmp_path):
        populate_store_root(tmp_path)
        store = CampaignStore(tmp_path, toy_space())
        table = fig3_table_from_store(store, sample_times=(60.0, 300.0))
        assert "setup0" in table and "variant1" in table
        assert table == fig3_table(store.grouped(), sample_times=(60.0, 300.0))

    def test_campaign_result_requires_names(self, tmp_path):
        populate_store_root(tmp_path)
        store = CampaignStore(tmp_path, toy_space())
        with pytest.raises(ValueError, match="at least one"):
            store.campaign_result([])

    def test_sweep_respects_cache_bound(self, tmp_path):
        names = populate_store_root(tmp_path, num_setups=3, num_variants=2, reps=2)
        assert len(names) == 12
        previous = set_journal_cache_limit(4)
        try:
            store = CampaignStore(tmp_path, toy_space())
            store.histories()
            assert len(_READER_CACHE) <= 4
        finally:
            set_journal_cache_limit(previous)
