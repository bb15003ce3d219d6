"""The journal's commit protocol under attack: leases, torn commits, races.

A commit appends to ``rows.bin`` and ``intervals.bin``, fsyncs both, then
overwrites the older of two checkpoint slots.  These tests try to falsify
what that protocol promises:

* **one writer** — a second writer on a live journal gets
  :class:`JournalBusyError` instead of interleaving its rows with the first
  writer's (two registries on one root used to corrupt each other);
* **crash at any byte** — truncating or flipping any byte the last commit
  wrote leaves a journal that reads as the last or the previous commit,
  never as garbage, and resumes bit-identically or raises
  :class:`JournalError`;
* **lock-free readers** — readers reopening while a writer commits only
  ever see committed prefixes, never move backwards, and never report "no
  checkpoint" once one exists;
* **durability cost** — three fsyncs per checkpoint, and directory fsyncs
  only where files are created or renamed.
"""

import os
import shutil
import stat
import sys
import threading

import numpy as np
import pytest

from fixtures import (
    assert_results_identical,
    make_service_search,
    make_service_space,
)
from repro.core.history import Evaluation, SearchHistory
from repro.core.ioutil import atomic_write_text
from repro.core.journal import (
    SLOT_NAMES,
    CampaignJournal,
    JournalBusyError,
    JournalError,
    JournalReader,
    clear_journal_cache,
    open_journal_reader,
)
from repro.service import CampaignRegistry
from reference.search import advance

BUDGET = dict(max_time=600.0, max_evaluations=24)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_journal_cache()
    yield
    clear_journal_cache()


def synth_history(space, n, seed=0):
    """A deterministic n-row history over ``space``."""
    rng = np.random.default_rng(seed)
    history = SearchHistory(space)
    for i, config in enumerate(space.sample(n, rng)):
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
    return history


def intervals_of(history):
    return [(float(s), float(e)) for s, e in zip(
        history.submitted_times(), history.completed_times()
    )]


def columns(history):
    """Every column of a history, as plain lists."""
    values = [
        getattr(history, getter)().tolist()
        for getter in (
            "objectives", "runtimes", "submitted_times", "completed_times",
            "workers", "eval_ids",
        )
    ]
    values.extend(
        history.parameter_column(name).tolist()
        for name in history.space.parameter_names
    )
    return values


def assert_view_is_prefix(reader, master):
    """The reader's view is exactly the first ``num_rows`` rows of master."""
    n = reader.num_rows
    assert columns(reader.history()) == columns(master.truncated(n))
    assert reader.intervals() == intervals_of(master)[: reader.num_intervals]


def slot_written(path):
    """Bytes of a slot file the last write to it covers (header + body)."""
    data = path.read_bytes()
    return 32 + int.from_bytes(data[24:28], "little")


class TestWriterLease:
    def test_second_writer_is_refused_until_the_first_closes(self, tmp_path):
        space = make_service_space()
        first = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        first.write_meta({})
        first.append_rows(synth_history(space, 4))
        first.checkpoint({})
        with pytest.raises(JournalBusyError):
            CampaignJournal.attach(tmp_path / "j", space)
        with pytest.raises(JournalBusyError):
            CampaignJournal.create(tmp_path / "j", space)
        # The refused writers truncated nothing: the commit still reads.
        assert JournalReader(tmp_path / "j", space).num_rows == 4
        first.close()
        CampaignJournal.attach(tmp_path / "j", space).close()

    def test_two_registries_cannot_both_attach_one_study(self, tmp_path):
        """Two registries on one root both attached study ``s`` and their
        interleaved reports left 36 rows in the data files under an 18-row
        checkpoint.  The second attach must now fail instead."""
        templates = {"service": lambda seed=0: make_service_search(seed)}
        first = CampaignRegistry(templates, root=tmp_path)
        second = CampaignRegistry(templates, root=tmp_path)
        first.create_study("s", **BUDGET)
        with pytest.raises(JournalBusyError):
            second.create_study("s", **BUDGET)
        assert second.study_names() == []
        for _ in range(3):
            batch = first.suggest("s")
            first.report("s", [25.0 + i for i in range(len(batch))])
        execution = first.get("s").execution
        record = 8 * (6 + len(execution.search.space.parameters))
        rows = len(execution.history)
        assert CampaignJournal.read_checkpoint(tmp_path / "s")["num_rows"] == rows
        assert (tmp_path / "s" / "rows.bin").stat().st_size == rows * record
        # Once the first registry lets go, the second attaches the study.
        assert first.evict("s")
        record_, created = second.create_study("s", **BUDGET)
        assert not created and record_.attached
        assert second.evict("s")


class TestTornCommit:
    """Every byte of the last commit's writes, truncated or flipped."""

    COMMITS = (10, 20, 23)  # row counts; the last commit appends 3 rows

    def build(self, directory):
        space = make_service_space()
        master = synth_history(space, self.COMMITS[-1], seed=3)
        intervals = intervals_of(master)
        journal = CampaignJournal.create(directory, space, fsync=False)
        journal.write_meta({})
        for k, rows in enumerate(self.COMMITS):
            journal.append_rows(master.truncated(rows))
            journal.append_intervals(intervals[:rows])
            journal.checkpoint({"commit": k})
        journal.close()
        return space, master

    def regions(self, directory, space):
        """(file, first byte, end) of each write the last commit made."""
        record = 8 * (6 + len(space.parameters))
        last = CampaignJournal.read_checkpoint(directory)
        slot = SLOT_NAMES[len(self.COMMITS) % 2]
        return [
            ("rows.bin", self.COMMITS[-2] * record, self.COMMITS[-1] * record),
            ("intervals.bin", self.COMMITS[-2] * 16, self.COMMITS[-1] * 16),
            (slot, 0, slot_written(directory / slot)),
        ], last

    def test_every_offset_reads_as_last_or_previous_commit(self, tmp_path):
        directory = tmp_path / "j"
        space, master = self.build(directory)
        regions, last = self.regions(directory, space)
        assert last["commit"] == len(self.COMMITS) - 1
        cases = 0
        for name, start, stop in regions:
            original = (directory / name).read_bytes()
            fd = os.open(directory / name, os.O_RDWR)
            try:
                for offset in range(start, stop):
                    for mode in ("truncate", "flip"):
                        if mode == "truncate":
                            os.ftruncate(fd, offset)
                        else:
                            os.pwrite(fd, bytes([original[offset] ^ 0xFF]), offset)
                        record = CampaignJournal.read_checkpoint(directory)
                        assert record["commit"] in (len(self.COMMITS) - 2, len(self.COMMITS) - 1)
                        reader = JournalReader(directory, space)
                        assert reader.checkpoint == record
                        assert_view_is_prefix(reader, master)
                        os.pwrite(fd, original[offset:], offset)
                        cases += 1
            finally:
                os.close(fd)
        assert cases == 2 * sum(stop - start for _, start, stop in regions)
        # Untouched, the journal reads as the last commit again.
        assert CampaignJournal.read_checkpoint(directory) == last

    def test_damage_below_every_commit_raises(self, tmp_path):
        directory = tmp_path / "j"
        space, _ = self.build(directory)
        with open(directory / "rows.bin", "r+b") as handle:
            handle.truncate(8)
        with pytest.raises(JournalError, match="rows.bin"):
            CampaignJournal.read_checkpoint(directory)
        with pytest.raises(JournalError, match="rows.bin"):
            CampaignJournal.attach(directory, space)
        # The refused attach released its lease.
        CampaignJournal.create(directory, space, fsync=False).close()

    def test_attach_after_torn_commit_overwrites_the_torn_slot(self, tmp_path):
        directory = tmp_path / "j"
        space, master = self.build(directory)
        regions, _ = self.regions(directory, space)
        name, start, _ = regions[0]
        with open(directory / name, "r+b") as handle:
            handle.truncate(start + 5)  # the last commit's rows, torn
        journal = CampaignJournal.attach(directory, space, fsync=False)
        assert journal.num_rows == self.COMMITS[-2]
        journal.append_rows(master)
        journal.append_intervals(intervals_of(master))
        journal.checkpoint({"commit": "again"})
        journal.close()
        reader = JournalReader(directory, space)
        assert reader.checkpoint["commit"] == "again"
        assert reader.num_rows == self.COMMITS[-1]
        assert_view_is_prefix(reader, master)


class TestCrashResume:
    """A campaign crashed right after a commit, its last commit damaged."""

    def test_sampled_offsets_resume_bit_identically(self, tmp_path):
        baseline = make_service_search(0).run(**BUDGET)
        live = tmp_path / "live"
        execution = make_service_search(0).start(journal_dir=live, **BUDGET)
        for _ in range(4):
            advance(execution)
        sizes = {
            name: (live / name).stat().st_size
            for name in ("rows.bin", "intervals.bin")
        }
        seq = execution._journal.commit.seq
        advance(execution)  # the commit whose writes get damaged
        assert execution._journal.commit.seq == seq + 1
        execution.close_journal()  # the process dies; its lease goes with it
        slot = SLOT_NAMES[(seq + 1) % 2]
        regions = [
            ("rows.bin", sizes["rows.bin"], (live / "rows.bin").stat().st_size),
            ("intervals.bin", sizes["intervals.bin"],
             (live / "intervals.bin").stat().st_size),
            (slot, 0, slot_written(live / slot)),
        ]
        runs = 0
        for name, start, stop in regions:
            assert stop > start
            for offset in (start, stop - 1):
                for mode in ("truncate", "flip"):
                    copy = tmp_path / f"{name}-{offset}-{mode}"
                    shutil.copytree(live, copy)
                    data = bytearray((copy / name).read_bytes())
                    if mode == "truncate":
                        del data[offset:]
                    else:
                        data[offset] ^= 0xFF
                    (copy / name).write_bytes(bytes(data))
                    try:
                        resumed = make_service_search(0).resume(copy)
                    except JournalError:
                        continue
                    while advance(resumed):
                        pass
                    resumed.close_journal()
                    assert_results_identical(baseline, resumed.result())
                    runs += 1
        # Each damage falls back to the previous commit, which resumes.
        assert runs == 12

    def test_resume_of_unrecoverable_journal_raises(self, tmp_path):
        execution = make_service_search(0).start(journal_dir=tmp_path / "j", **BUDGET)
        for _ in range(3):
            advance(execution)
        execution.close_journal()
        (tmp_path / "j" / "rows.bin").write_bytes(b"")
        with pytest.raises(JournalError, match="rows.bin"):
            make_service_search(0).resume(tmp_path / "j")


class TestConcurrentReaders:
    COMMITS = 80

    def test_readers_only_ever_see_committed_prefixes(self, tmp_path):
        directory = tmp_path / "j"
        space = make_service_space()
        master = synth_history(space, self.COMMITS, seed=5)
        intervals = intervals_of(master)
        journal = CampaignJournal.create(directory, space, fsync=False)
        journal.write_meta({})
        committed = threading.Event()
        done = threading.Event()
        errors = []

        def write():
            try:
                for rows in range(1, self.COMMITS + 1):
                    journal.append_rows(master.truncated(rows))
                    journal.append_intervals(intervals[:rows])
                    # A bulky record widens the window a reader can tear.
                    journal.checkpoint({"rows": rows, "pad": [0.5] * 400})
                    committed.set()
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                done.set()

        def read(cached):
            try:
                watermark = 0
                reads = 0
                while not done.is_set() or reads < 5:
                    after_first = committed.is_set()
                    if cached:
                        reader = open_journal_reader(directory, space, retain=True)
                    else:
                        reader = JournalReader(directory, space)
                    try:
                        if after_first:
                            assert reader.checkpoint is not None
                        if reader.checkpoint is not None:
                            assert reader.checkpoint["rows"] == reader.num_rows
                        assert reader.num_rows >= watermark
                        watermark = reader.num_rows
                        assert_view_is_prefix(reader, master)
                    finally:
                        reader.close()
                    reads += 1
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(cached,))
            for cached in (False, False, True)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        journal.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert JournalReader(directory, space).num_rows == self.COMMITS


    def test_a_read_tearing_both_slots_is_retried(self, tmp_path, monkeypatch):
        from repro.core import journal as journal_module

        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        journal.write_meta({})
        for rows in (2, 4):
            journal.append_rows(synth_history(space, rows))
            journal.checkpoint({"rows": rows})
        journal.close()
        decode = journal_module._decode_slot
        calls = []

        def torn_first_read(data):
            # The first read of both slots overlapped two commits.
            calls.append(data)
            return None if len(calls) <= 2 else decode(data)

        monkeypatch.setattr(journal_module, "_decode_slot", torn_first_read)
        assert CampaignJournal.read_checkpoint(tmp_path / "j")["rows"] == 4
        assert len(calls) == 4
        # Slots that never become valid read as no checkpoint, after a
        # bounded number of re-reads.
        calls.clear()
        monkeypatch.setattr(journal_module, "_decode_slot", lambda data: calls.append(data))
        assert CampaignJournal.read_checkpoint(tmp_path / "j") is None
        assert len(calls) == 2 * journal_module._SLOT_READ_ATTEMPTS


class TestReaderCacheIdentity:
    def test_recreated_journal_never_gets_the_old_cached_reader(self, tmp_path):
        space = make_service_space()
        directory = tmp_path / "j"

        def write(history):
            journal = CampaignJournal.create(directory, space, fsync=False)
            journal.write_meta({})
            journal.append_rows(history)
            journal.checkpoint({"finished": True})
            journal.close()
            return journal.journal_id

        first, second, third = (synth_history(space, 8, seed=s) for s in (1, 2, 3))
        first_id = write(first)
        old = open_journal_reader(directory, space)
        assert old.num_rows == 8
        # Deleted and written anew: the id and sequence start over, and the
        # record (same size) differs only in what it commits.
        shutil.rmtree(directory)
        assert write(second) == first_id
        new = open_journal_reader(directory, space)
        assert new is not old
        assert_view_is_prefix(new, second)
        # Re-created in place: the next id tells the commits apart.
        assert write(third) == first_id + 1
        newest = open_journal_reader(directory, space)
        assert newest is not new
        assert_view_is_prefix(newest, third)

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        space = make_service_space()
        history = synth_history(space, 6)
        for name in ("a", "b"):
            journal = CampaignJournal.create(tmp_path / name, space, fsync=False)
            journal.write_meta({})
            journal.append_rows(history)
            journal.checkpoint({})
            journal.close()
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestFsyncCost:
    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        """Record each fsync as ("dir" | "file", inode) without issuing it."""
        calls = []

        def fake_fsync(fd):
            mode = os.fstat(fd).st_mode
            calls.append(("dir" if stat.S_ISDIR(mode) else "file", os.fstat(fd).st_ino))

        monkeypatch.setattr(os, "fsync", fake_fsync)
        return calls

    def test_three_fsyncs_per_checkpoint_data_first(self, tmp_path, fsyncs):
        space = make_service_space()
        history = synth_history(space, 12)
        directory = tmp_path / "j"

        def inode(name=""):
            return (directory / name).stat().st_ino

        journal = CampaignJournal.create(directory, space)
        journal.write_meta({})
        # Creation: the meta's temporary file, then the directory after the
        # rename — which also covers the data and slot files made before it.
        assert fsyncs == [("file", inode("meta.json")), ("dir", inode())]
        for k, rows in enumerate((4, 8, 12)):
            del fsyncs[:]
            journal.append_rows(history.truncated(rows))
            journal.append_intervals(intervals_of(history)[:rows])
            journal.checkpoint({})
            assert fsyncs == [
                ("file", inode("rows.bin")),
                ("file", inode("intervals.bin")),
                ("file", inode(SLOT_NAMES[(k + 1) % 2])),
            ]
        journal.close()

    def test_atomic_write_fsyncs_the_directory_after_the_rename(self, tmp_path, fsyncs):
        target = tmp_path / "history.csv"
        atomic_write_text(target, "a,b\n")
        assert [kind for kind, _ in fsyncs] == ["file", "dir"]
        assert fsyncs[-1][1] == tmp_path.stat().st_ino
        assert target.read_text() == "a,b\n"

    def test_no_fsync_mode_issues_none(self, tmp_path, fsyncs):
        space = make_service_space()
        journal = CampaignJournal.create(tmp_path / "j", space, fsync=False)
        del fsyncs[:]
        journal.append_rows(synth_history(space, 3))
        journal.checkpoint({})
        journal.close()
        assert fsyncs == []
