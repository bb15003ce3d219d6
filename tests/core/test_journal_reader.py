"""JournalReader: zero-copy reads at the checkpoint watermark.

The read side's contract has three legs:

* **watermark visibility** — a reader attached while a writer is live (or
  after a crash left a torn tail) sees exactly the checkpointed prefix,
  bit-identical to the writer's in-memory history at that watermark;
* **read-only zero-copy views** — the history handed out shares the mapped
  column files (no parse, no copy), rejects mutation, and thaws via
  ``copy()``;
* **bounded resources** — readers are served through an LRU cache with a
  settable limit, attach failures leak no handles, and ``close()`` is
  idempotent.

The Hypothesis property drives random append/checkpoint/crash schedules
against a reference in-memory history and checks the reader at every stage.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_service_space, make_service_search, make_wide_space
from repro.core.history import Evaluation, SearchHistory
from repro.core.journal import (
    CampaignJournal,
    JournalError,
    JournalReader,
    _READER_CACHE,
    clear_journal_cache,
    open_journal_reader,
    set_journal_cache_limit,
)
from reference.search import advance


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_journal_cache()
    previous = set_journal_cache_limit(128)
    yield
    set_journal_cache_limit(previous)
    clear_journal_cache()


def synth_history(space, n, seed=0):
    """A deterministic n-row history over ``space``."""
    rng = np.random.default_rng(seed)
    history = SearchHistory(space)
    for i, config in enumerate(space.sample(n, rng)):
        runtime = float(rng.uniform(10.0, 60.0))
        submitted = float(i)
        history.append(
            Evaluation(
                configuration=config,
                objective=-runtime,
                runtime=runtime,
                submitted=submitted,
                completed=submitted + runtime,
                worker=i % 4,
                eval_id=i,
            )
        )
    return history


def write_journal(directory, history, rows=None, intervals=()):
    """Create a journal holding ``rows`` checkpointed rows of ``history``."""
    journal = CampaignJournal.create(directory, history.space, fsync=False)
    try:
        journal.write_meta({})
        journal.append_rows(
            history if rows is None else history.truncated(rows)
        )
        journal.append_intervals(list(intervals))
        journal.checkpoint({"finished": True})
    finally:
        journal.close()


def assert_history_rows_equal(view, reference, what=""):
    assert len(view) == len(reference), what
    for ev_v, ev_r in zip(view, reference):
        assert ev_v.configuration == ev_r.configuration, what
        assert ev_v.submitted == ev_r.submitted, what
        assert ev_v.completed == ev_r.completed, what
        assert ev_v.worker == ev_r.worker, what
        assert ev_v.eval_id == ev_r.eval_id, what
        assert (ev_v.runtime == ev_r.runtime) or (
            math.isnan(ev_v.runtime) and math.isnan(ev_r.runtime)
        ), what
        assert (ev_v.objective == ev_r.objective) or (
            math.isnan(ev_v.objective) and math.isnan(ev_r.objective)
        ), what


class TestWatermark:
    def test_reader_sees_only_checkpointed_prefix_of_live_writer(self, tmp_path):
        space = make_wide_space()
        master = synth_history(space, 20)
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        try:
            journal.write_meta({})
            journal.append_rows(master.truncated(12))
            journal.checkpoint({})
            # The writer keeps appending past the checkpoint — a live tail
            # the reader must not see.
            journal.append_rows(master)
        finally:
            journal.close()
        reader = JournalReader(tmp_path / "j", space)
        assert reader.num_rows == 12
        assert_history_rows_equal(reader.history(), master.truncated(12))

    def test_torn_tail_bytes_are_invisible(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 10)
        write_journal(tmp_path / "j", master, rows=10)
        # A crash mid-append leaves a torn, partial record at the end of
        # the data files; the watermark mapping never reaches it.
        for name in ("rows.bin", "intervals.bin"):
            with open(tmp_path / "j" / name, "ab") as handle:
                handle.write(b"\x01\x02\x03")
        reader = JournalReader(tmp_path / "j", space)
        assert_history_rows_equal(reader.history(), master)
        assert reader.intervals() == []

    def test_journal_without_checkpoint_reads_empty(self, tmp_path):
        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        journal.write_meta({})
        journal.close()
        reader = JournalReader(tmp_path / "j", space)
        assert reader.num_rows == 0
        assert len(reader.history()) == 0
        assert reader.intervals() == []

    def test_short_data_file_raises(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 8))
        # Cut rows.bin inside the only commit's rows: no commit's data is
        # intact, which must raise rather than read as empty or short.
        record = 8 * (6 + len(space.parameters))
        with open(tmp_path / "j" / "rows.bin", "r+b") as handle:
            handle.truncate(3 * record)
        with pytest.raises(JournalError, match="rows.bin"):
            JournalReader(tmp_path / "j", space).history()

    def test_space_mismatch_raises(self, tmp_path):
        write_journal(tmp_path / "j", synth_history(make_service_space(), 4))
        with pytest.raises(JournalError, match="fingerprint"):
            JournalReader(tmp_path / "j", make_wide_space())

    def test_reader_survives_writer_checkpointing_more(self, tmp_path):
        """A mapped prefix stays valid while the writer commits new rows."""
        space = make_service_space()
        master = synth_history(space, 16)
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        try:
            journal.write_meta({})
            journal.append_rows(master.truncated(6))
            journal.checkpoint({})
            early = JournalReader(tmp_path / "j", space).history()
            journal.append_rows(master)
            journal.checkpoint({})
        finally:
            journal.close()
        # The old view still reads the first 6 rows; a fresh reader sees 16.
        assert_history_rows_equal(early, master.truncated(6))
        late = JournalReader(tmp_path / "j", space)
        assert_history_rows_equal(late.history(), master)

    def test_mid_campaign_reader_matches_writer_history(self, tmp_path):
        """Against a real campaign: attach mid-run, compare at the watermark."""
        execution = make_service_search(3).start(
            max_time=600.0,
            max_evaluations=24,
            journal_dir=tmp_path / "j",
            checkpoint_interval=3,
        )
        for _ in range(4):
            advance(execution)
        checkpoint = CampaignJournal.read_checkpoint(tmp_path / "j")
        watermark = int(checkpoint["num_rows"])
        reader = JournalReader(tmp_path / "j", execution.search.space)
        assert reader.num_rows == watermark
        assert watermark <= len(execution.history)
        assert_history_rows_equal(
            reader.history(), execution.history.truncated(watermark)
        )
        while advance(execution):
            pass


class TestReadOnlyView:
    def test_view_is_zero_copy_and_rejects_append(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 12)
        write_journal(tmp_path / "j", master)
        view = JournalReader(tmp_path / "j", space).history()
        assert view.read_only
        with pytest.raises(TypeError, match="read-only"):
            view.append(master[0])
        # Metadata access must not trigger parameter decoding.
        assert view.best_runtime() == master.best_runtime()
        assert view._param_store is None
        # best() materialises one row through the element loaders — still no
        # full-column decode.
        assert view.best().configuration == master.best().configuration
        assert view._param_store is None
        # Full config access decodes; values are the exact Python objects.
        assert view.configurations() == master.configurations()

    def test_copy_thaws_to_mutable(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 6)
        write_journal(tmp_path / "j", master)
        thawed = JournalReader(tmp_path / "j", space).history().copy()
        assert not thawed.read_only
        thawed.append(master[0])
        assert len(thawed) == 7

    def test_csv_round_trip_from_view(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 9)
        write_journal(tmp_path / "j", master)
        view = JournalReader(tmp_path / "j", space).history()
        reparsed = SearchHistory.from_csv(view.to_csv(), space)
        assert reparsed.configurations() == master.configurations()

    def test_intervals_round_trip(self, tmp_path):
        space = make_service_space()
        pairs = [(0.0, 10.5), (1.25, 31.75), (2.0, 12.125)]
        write_journal(tmp_path / "j", synth_history(space, 3), intervals=pairs)
        assert JournalReader(tmp_path / "j", space).intervals() == pairs


class TestPeek:
    def test_peek_summarises_without_space(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 15)
        write_journal(tmp_path / "j", master)
        peeked = JournalReader.peek(tmp_path / "j")
        assert peeked["num_evaluations"] == 15
        assert peeked["finished"] is True
        assert peeked["best_runtime"] == master.best_runtime()
        assert peeked["num_failures"] == 0

    def test_peek_before_first_checkpoint(self, tmp_path):
        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        journal.write_meta({})
        journal.close()
        peeked = JournalReader.peek(tmp_path / "j")
        assert peeked["num_evaluations"] == 0
        assert peeked["best_runtime"] is None


class TestReaderCache:
    def test_unchanged_journal_returns_cached_reader(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 5))
        first = open_journal_reader(tmp_path / "j", space)
        assert open_journal_reader(tmp_path / "j", space) is first
        # The shared history is built once.
        assert first.history() is open_journal_reader(tmp_path / "j", space).history()

    def test_new_checkpoint_invalidates_cached_reader(self, tmp_path):
        space = make_service_space()
        master = synth_history(space, 10)
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        try:
            journal.write_meta({})
            journal.append_rows(master.truncated(4))
            journal.checkpoint({})
            stale = open_journal_reader(tmp_path / "j", space)
            assert stale.num_rows == 4
            journal.append_rows(master)
            journal.checkpoint({})
        finally:
            journal.close()
        fresh = open_journal_reader(tmp_path / "j", space)
        assert fresh is not stale
        assert fresh.num_rows == 10
        # Only the fresh entry remains cached for this directory.
        assert len(_READER_CACHE) == 1

    def test_cache_limit_bounds_and_evicts_lru(self, tmp_path):
        space = make_service_space()
        previous = set_journal_cache_limit(3)
        assert previous == 128
        for i in range(6):
            write_journal(tmp_path / f"j{i}", synth_history(space, 3, seed=i))
            open_journal_reader(tmp_path / f"j{i}", space)
        assert len(_READER_CACHE) == 3

    def test_zero_limit_disables_caching(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 3))
        set_journal_cache_limit(0)
        a = open_journal_reader(tmp_path / "j", space)
        b = open_journal_reader(tmp_path / "j", space)
        assert a is not b
        assert len(_READER_CACHE) == 0

    def test_clear_journal_cache(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 3))
        open_journal_reader(tmp_path / "j", space)
        assert len(_READER_CACHE) == 1
        clear_journal_cache()
        assert len(_READER_CACHE) == 0


class TestCacheThreadSafety:
    """Regression: the reader cache raced under parallel tick stepping.

    Before the cache lock, two threads opening the same directory could
    both miss and insert (duplicating mmap handles), and an eviction could
    close a reader *while another thread was using it* — the mmap views
    died under the user's feet.  The lock serialises lookups and the
    refcount makes eviction close-safe: a retained reader survives its
    eviction until the holder releases it.
    """

    def test_concurrent_opens_share_one_reader(self, tmp_path):
        import threading

        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 5))
        readers = []
        barrier = threading.Barrier(8)

        def hit():
            barrier.wait()
            readers.append(open_journal_reader(tmp_path / "j", space))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in readers}) == 1
        assert len(_READER_CACHE) == 1

    def test_open_evict_clear_hammer_from_threads(self, tmp_path):
        import threading

        space = make_service_space()
        for i in range(6):
            write_journal(tmp_path / f"j{i}", synth_history(space, 4, seed=i))
        set_journal_cache_limit(2)  # force constant eviction pressure
        errors = []

        def hammer(worker):
            try:
                for round_ in range(30):
                    index = (worker + round_) % 6
                    reader = open_journal_reader(
                        tmp_path / f"j{index}", space, retain=True
                    )
                    try:
                        # The retained reader must stay readable even if a
                        # sibling thread's open just evicted it.
                        assert reader.num_rows == 4
                        assert len(reader.history()) == 4
                    finally:
                        reader.close()
                    if worker == 0 and round_ % 10 == 9:
                        clear_journal_cache()
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
        assert len(_READER_CACHE) <= 2

    def test_retained_reader_survives_eviction(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 3))
        set_journal_cache_limit(1)
        reader = open_journal_reader(tmp_path / "j", space, retain=True)
        # Opening another directory evicts j's entry (limit 1) — which
        # releases the cache's reference, not the caller's.
        write_journal(tmp_path / "k", synth_history(space, 2))
        open_journal_reader(tmp_path / "k", space)
        assert all(key != str(tmp_path / "j") for key in list(_READER_CACHE))
        assert len(reader.history()) == 3
        reader.close()
        with pytest.raises(JournalError, match="closed"):
            reader.history()

    def test_unretained_close_still_closes_for_real(self, tmp_path):
        # The refcount must not weaken the direct-construction contract:
        # a reader you build yourself closes on the first close() call.
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 2))
        reader = JournalReader(tmp_path / "j", space)
        reader.close()
        with pytest.raises(JournalError, match="closed"):
            reader.history()

    def test_retain_on_closed_reader_raises(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 2))
        reader = JournalReader(tmp_path / "j", space)
        reader.close()
        with pytest.raises(JournalError, match="closed"):
            reader.retain()


class TestWriterResourceHandling:
    def test_attach_failure_leaks_no_handles(self, tmp_path):
        space = make_service_space()
        write_journal(tmp_path / "j", synth_history(space, 8))
        # Destroy intervals.bin entirely: attach has opened rows.bin and
        # taken its lease by then, and must fail without keeping either.
        (tmp_path / "j" / "intervals.bin").unlink()
        with pytest.raises(JournalError, match="intervals.bin"):
            CampaignJournal.attach(tmp_path / "j", space)
        assert not (tmp_path / "j" / "intervals.bin").exists()
        # The lease went with the handles: a new writer gets in.
        CampaignJournal.create(tmp_path / "j", space, fsync=False).close()

    def test_open_handles_failure_closes_already_opened(self, tmp_path, monkeypatch):
        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        journal.close()
        opened = []
        real_open = open

        def flaky_open(path, mode="r", *args, **kwargs):
            # rows.bin (leased) and intervals.bin open; the first slot fails.
            if len(opened) == 2:
                raise OSError("out of descriptors")
            handle = real_open(path, mode, *args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", flaky_open)
        with pytest.raises(OSError, match="out of descriptors"):
            journal._open_handles(create=False)
        monkeypatch.undo()
        assert journal._handles == {}
        assert len(opened) == 2
        assert all(handle.closed for handle in opened)
        # The lease on rows.bin was released with its handle.
        CampaignJournal.create(tmp_path / "j", space, fsync=False).close()

    def test_close_is_idempotent(self, tmp_path):
        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        journal.close()
        journal.close()
        # A reader's close is also idempotent, and a closed reader refuses
        # to hand out new views.
        write_journal(tmp_path / "j2", synth_history(space, 2))
        reader = JournalReader(tmp_path / "j2", space)
        reader.history()
        reader.close()
        reader.close()
        with pytest.raises(JournalError, match="closed"):
            reader.history()


# ------------------------------------------------------------------ property
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.just("crash"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_reader_always_sees_committed_prefix(tmp_path_factory, ops):
    """Property: under any append/checkpoint/crash schedule, a fresh reader
    observes exactly the last checkpointed prefix of the master history."""
    space = make_service_space()
    master = synth_history(space, 64, seed=7)
    directory = tmp_path_factory.mktemp("journal-prop") / "j"
    journal = CampaignJournal.create(directory, space, fsync=False)
    journal.write_meta({})
    appended = 0
    committed = 0
    try:
        for op, arg in ops:
            if op == "append":
                appended = min(appended + arg, len(master))
                journal.append_rows(master.truncated(appended))
            elif op == "checkpoint":
                journal.checkpoint({})
                committed = appended
            else:  # crash: drop the writer, reattach at the last checkpoint
                journal.close()
                if committed == 0:
                    # No checkpoint yet: nothing to attach to; recreate.
                    journal = CampaignJournal.create(directory, space, fsync=False)
                    journal.write_meta({})
                else:
                    journal = CampaignJournal.attach(directory, space, fsync=False)
                appended = committed
            reader = JournalReader(directory, space)
            assert reader.num_rows == committed
            assert_history_rows_equal(
                reader.history(), master.truncated(committed), f"after {op}"
            )
    finally:
        journal.close()
