"""Durable campaign journal: crash-safe sidecar for a running campaign.

A one-hour campaign that dies at minute 55 — manager crash, node failure,
queue eviction — loses everything under the CSV-only persistence model: the
history CSV is written once at the end, and even if it were streamed, the
optimizer's RNG cursor, the surrogate's fitted state and the evaluator's
in-flight evaluations are not in it.  The journal fixes that without touching
the CSV interchange format: each journaled campaign owns a sidecar directory
holding (format 2)

* **``rows.bin``** — an append-only file of fixed-width little-endian
  records, one per :class:`~repro.core.history.SearchHistory` row: the six
  metadata words (``objective``, ``runtime``, ``submitted``, ``completed``
  as ``float64``; ``worker``, ``eval_id`` as ``int64``), then one 8-byte
  word per parameter (reals as ``float64``, integers as ``int64``,
  categorical/ordinal values as the ``int64`` index into their domain);
* **``intervals.bin``** — append-only ``(submitted, completed)``
  ``float64`` busy-interval pairs;
* **``meta.json``** — the immutable campaign fingerprint (space layout, seed,
  worker count, budgets), written once and atomically at creation;
* **``checkpoint.0`` / ``checkpoint.1``** — two checkpoint *slots*,
  overwritten in place alternately.  Each holds a 32-byte header (magic,
  journal id, sequence number, body length, and a CRC32 over id, sequence,
  length and body) followed by the JSON record: row/interval counts, the
  data files' committed tails (below), the optimizer RNG state, the
  evaluator state, the surrogate *fit schedule* (the history row count at
  every fit, plus the surrogate RNG state captured just before the most
  recent fit) and the prior-refresh schedule.

**Commit protocol.**  A checkpoint appends the new rows and intervals (one
write each), flushes and fsyncs those two files, ``pwrite``\\ s the record
into the *older* slot and fsyncs that slot: three fsyncs per checkpoint,
and no file is created or renamed.  Data is durable before the record that
references it.  The record also carries the byte range and CRC32 of what
each data file gained since the previous commit.  The newest slot whose
CRC checks out, and whose appended bytes do too, is the commit, so a record
torn by a crash — or damage to the data it appended — falls back to the
previous commit: the scheme of LMDB's two meta pages.  One row file
(rather than a file per column) is what makes the count constant: the
writer makes one file durable for the history however wide the space is,
and a reader maps one file per campaign.

**Single writer.**  The writer holds ``flock(LOCK_EX | LOCK_NB)`` on its
``rows.bin`` descriptor for its whole lifetime (taken before ``create``
truncates or ``attach`` rolls back anything); a second writer gets
:class:`JournalBusyError`.  Readers never lock.

Recovery (:meth:`repro.core.search.CampaignExecution.resume`) never replays
evaluations: the history rows are read back through :class:`JournalReader`
(up to the checkpointed counts — ``attach`` truncates any torn tail a crash
left past them), the optimizer re-ingests them along the recorded fit
boundaries — partial-fit surrogates (GP) replay every fit event so their
incremental factors take the same growth path, from-scratch surrogates (RF)
replay only the final fit after restoring the pre-fit RNG state — prior
refreshes are re-trained against the same truncated history prefixes they
originally saw, and the evaluator reloads its pending evaluations with their
already-decided runtimes.  The resumed campaign is bit-identical to one that
never crashed.

The **read side** is :class:`JournalReader`: a zero-copy view of a journaled
campaign at its checkpoint watermark.  ``rows.bin`` is memory-mapped once,
up to the committed row count, and every column is a field view of that one
mapping — bytes past the watermark (a live writer's uncheckpointed appends,
or a torn tail left by a crash) are simply never mapped, so one writer and
any number of reader processes can share a journal directory without
locking and without rewriting anything.  :func:`open_journal_reader` serves
readers through an LRU-bounded cache keyed by the commit's identity (journal
id, slot sequence and record CRC), so a cold analysis sweep over thousands of stored
campaigns neither re-reads row data nor accumulates an unbounded number of
live mappings (:func:`set_journal_cache_limit` / :func:`clear_journal_cache`
mirror the parsed-CSV cache controls in :mod:`repro.analysis.csvio`).
"""

from __future__ import annotations

import fcntl
import functools
import json
import mmap
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.history import SearchHistory
from repro.core.ioutil import atomic_write_text, fsync_file
from repro.core.objective import Objective
from repro.core.space import IntegerParameter, RealParameter, SearchSpace

__all__ = [
    "CampaignJournal",
    "JournalBusyError",
    "JournalError",
    "JournalReader",
    "open_journal_reader",
    "clear_journal_cache",
    "set_journal_cache_limit",
]

FORMAT_VERSION = 2
META_NAME = "meta.json"
ROWS_NAME = "rows.bin"
INTERVALS_NAME = "intervals.bin"
#: The append-only data files, in the order of a record's ``tail`` entries.
_DATA_FILES = (ROWS_NAME, INTERVALS_NAME)
#: The two checkpoint slots; commit ``seq`` lands in ``SLOT_NAMES[seq % 2]``.
SLOT_NAMES = ("checkpoint.0", "checkpoint.1")

#: Metadata words at the start of every ``rows.bin`` record, in order.
_META_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("objective", "<f8"),
    ("runtime", "<f8"),
    ("submitted", "<f8"),
    ("completed", "<f8"),
    ("worker", "<i8"),
    ("eval_id", "<i8"),
)

#: Slot header: magic, journal id, sequence number, body length, CRC32.
_SLOT_HEADER = struct.Struct("<8sQQII")
#: The header fields the CRC covers (id, sequence, length), then the body.
_SLOT_CRC_FIELDS = struct.Struct("<QQI")
_SLOT_MAGIC = b"RPRJNL02"
#: Reads of a journal whose slots are all invalid although one is non-empty
#: (a read that overlapped the writer's in-place overwrites) before it is
#: reported as having no checkpoint.
_SLOT_READ_ATTEMPTS = 5


class JournalError(RuntimeError):
    """A campaign journal is missing, malformed, or does not match the search."""


class JournalBusyError(JournalError):
    """Another live writer holds the journal's lease."""


def _json_default(value: Any):
    """Encode the NumPy scalars that leak into evaluator state and configs."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")


def _dump_json(payload: Dict) -> str:
    # allow_nan keeps NaN/Infinity round-tripping (runtimes of failed and
    # hung evaluations); repr-based float formatting is exact for float64.
    return json.dumps(payload, default=_json_default, allow_nan=True)


class _ParamCodec:
    """Binary codec for one parameter's word of a ``rows.bin`` record.

    Real parameters store their values as ``float64`` (exact round trip);
    integer parameters as ``int64``; categorical and ordinal parameters as
    the ``int64`` index into their declared domain, so the decoded value is
    the *identical* Python object the space defines (bools stay bools,
    strings stay strings).
    """

    def __init__(self, param):
        self.param = param
        self.name = param.name
        #: The domain of an indexed (categorical/ordinal) parameter, None for
        #: a numeric one; ``_scalar`` converts a numeric word to its value.
        self._domain = None
        if isinstance(param, RealParameter):
            self.dtype, self._scalar = "<f8", float
        elif isinstance(param, IntegerParameter):
            self.dtype, self._scalar = "<i8", int
        elif getattr(param, "_domain", None) is not None:
            self.dtype, self._domain = "<i8", param._domain
        else:
            raise JournalError(
                f"parameter {param.name!r} of type {type(param).__name__} "
                "has no journal codec"
            )

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode an object-dtype value column in one vectorised pass."""
        if self._domain is None:
            # The object → float64/int64 cast runs float()/int() in C.
            return np.asarray(values, dtype=self.dtype)
        return self.param.indices_vec(values)

    def decode(self, column: np.ndarray) -> List:
        # tolist() converts the whole column to native Python scalars in one
        # C pass — element-wise iteration over a memory-mapped column would
        # pay one buffer access per value instead.
        values = column.tolist()
        domain = self._domain
        return values if domain is None else [domain[v] for v in values]

    def decode_element(self, value):
        if self._domain is None:
            return self._scalar(value)
        return self._domain[int(value)]


def _space_fingerprint(space: SearchSpace) -> List[List[str]]:
    return [[p.name, type(p).__name__] for p in space.parameters]


def _row_dtype(codecs: Sequence[_ParamCodec]) -> np.dtype:
    """The packed record layout of ``rows.bin`` for a space's codecs."""
    return _record_dtype(tuple(codec.dtype for codec in codecs))


@functools.lru_cache(maxsize=None)
def _record_dtype(param_dtypes: Tuple[str, ...]) -> np.dtype:
    # Cached: building a structured dtype costs more than a cold reader's
    # mapping, and a store holds few distinct layouts.
    return np.dtype(
        list(_META_COLUMNS)
        + [(f"p{i}", dtype) for i, dtype in enumerate(param_dtypes)]
    )


# ------------------------------------------------------------ commit slots
class _Commit(NamedTuple):
    """One valid checkpoint slot: whose it is, its sequence, its CRC, its record."""

    journal_id: int
    seq: int
    crc: int
    record: Dict


def _encode_slot(journal_id: int, seq: int, record: Dict) -> bytes:
    body = _dump_json(record).encode("utf-8")
    crc = zlib.crc32(body, zlib.crc32(_SLOT_CRC_FIELDS.pack(journal_id, seq, len(body))))
    return _SLOT_HEADER.pack(_SLOT_MAGIC, journal_id, seq, len(body), crc) + body


def _decode_slot(data: bytes) -> Optional[_Commit]:
    """The commit a slot's bytes hold, or None if they are torn or empty."""
    if len(data) < _SLOT_HEADER.size:
        return None
    magic, journal_id, seq, length, crc = _SLOT_HEADER.unpack_from(data)
    body = data[_SLOT_HEADER.size : _SLOT_HEADER.size + length]
    if magic != _SLOT_MAGIC or len(body) != length:
        return None
    if zlib.crc32(body, zlib.crc32(_SLOT_CRC_FIELDS.pack(journal_id, seq, length))) != crc:
        return None
    return _Commit(journal_id, seq, crc, json.loads(body))


def _damaged_tail(directory: Path, record: Dict) -> Optional[str]:
    """The data file whose bytes a commit appended do not check out, if any.

    A record's ``tail`` holds, per data file, the byte range the commit
    appended and its CRC32; a short or altered range means the data under
    this commit is not what it committed.
    """
    for name, (start, stop, crc) in zip(_DATA_FILES, record["tail"]):
        if stop == start:
            continue
        try:
            fd = os.open(directory / name, os.O_RDONLY)
        except FileNotFoundError:
            return name
        try:
            data = os.pread(fd, stop - start, start)
        finally:
            os.close(fd)
        if len(data) != stop - start or zlib.crc32(data) != crc:
            return name
    return None


def _read_commit(directory: Path) -> Optional[_Commit]:
    """The newest intact commit of a journal (None before the first).

    A commit is intact when its slot's CRC checks out and so do the data it
    appended; a damaged newest commit falls back to the one in the other
    slot.  The writer overwrites slots in place, so a read that overlaps its
    ``pwrite`` sees a torn slot while the other slot still holds the
    previous commit.  Only a read overlapping two consecutive commits finds
    both slots invalid, so that case re-reads a bounded number of times
    before it reports no checkpoint.  Raises :class:`JournalError` when
    valid slots exist but the data of each is damaged.
    """
    for attempt in range(_SLOT_READ_ATTEMPTS):
        if attempt:
            time.sleep(0.0005 * attempt)
        commits: List[_Commit] = []
        written = False
        for name in SLOT_NAMES:
            try:
                data = (directory / name).read_bytes()
            except FileNotFoundError:
                continue
            written = written or bool(data)
            commit = _decode_slot(data)
            if commit is not None:
                commits.append(commit)
        if commits:
            damaged = None
            for commit in sorted(commits, key=lambda c: c.seq, reverse=True):
                damaged = _damaged_tail(directory, commit.record)
                if damaged is None:
                    return commit
            raise JournalError(
                f"journal data file {damaged} in {directory} does not hold "
                "the bytes its checkpoints committed"
            )
        if not written:
            return None
    return None


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view = view[written:]
        offset += written


class CampaignJournal:
    """The writer side of one campaign's durable sidecar directory.

    Use :meth:`create` for a fresh campaign (existing journal files in the
    directory are truncated) and :meth:`attach` when resuming — attach rolls
    the data files back to the last checkpoint's counts, discarding any torn
    post-crash tail, and continues appending from there.  Either takes the
    journal's writer lease first and raises :class:`JournalBusyError` when
    another writer holds it; :meth:`close` releases it.

    Parameters
    ----------
    directory:
        The sidecar directory (created if missing).
    space:
        The campaign's search space (defines the ``rows.bin`` record).
    fsync:
        Whether to fsync the data files before each checkpoint record is
        written, and the record after (default).  Disabling trades crash
        durability for speed — the journal stays *consistent* (the
        checkpoint still only references rows it believes are on disk) but a
        power loss may roll further back.
    checkpoint_interval:
        Checkpoint every this-many manager ticks (1 = every tick).  Ticks
        between checkpoints are lost on a crash and transparently re-executed
        on resume — the replay is deterministic, so the result is unchanged.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.directory = Path(directory)
        self.space = space
        self.fsync = bool(fsync)
        self.checkpoint_interval = int(checkpoint_interval)
        self._codecs = [_ParamCodec(p) for p in space.parameters]
        self._row_dtype = _row_dtype(self._codecs)
        self._handles: Dict[str, object] = {}
        #: Per data file: ``[offset, crc]`` of the bytes appended since the
        #: last commit — the tail the next record vouches for.
        self._tails: Dict[str, List[int]] = {name: [0, 0] for name in _DATA_FILES}
        #: Id stamped into every slot this journal writes: one more than the
        #: id of the journal ``create`` replaced in the directory, so a
        #: re-created journal never shares a commit identity (the reader
        #: cache key) with its predecessor, while two runs of one campaign
        #: still write identical bytes.
        self.journal_id = 0
        #: The last commit written or attached at (None before the first).
        self.commit: Optional[_Commit] = None
        self.num_rows = 0
        self.num_intervals = 0
        self._fit_rows: List[int] = []
        self._pre_fit_rng: Optional[Dict] = None
        self._refresh_rows: List[int] = []

    # ------------------------------------------------------------ construction
    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ) -> "CampaignJournal":
        """Open a fresh journal, truncating any previous files in the way.

        The writer lease is taken before anything is truncated, and the
        slots are emptied before the data files, so no crash during the
        truncation leaves a record pointing at truncated rows.  The new
        files' directory entries become durable with :meth:`write_meta`,
        whose directory fsync follows them.
        """
        journal = cls(
            directory, space, fsync=fsync, checkpoint_interval=checkpoint_interval
        )
        journal.directory.mkdir(parents=True, exist_ok=True)
        journal._open_handles(create=True)
        try:
            headers = [
                os.pread(journal._handles[name].fileno(), _SLOT_HEADER.size, 0)
                for name in SLOT_NAMES
            ]
            previous = max(
                (_SLOT_HEADER.unpack(h)[1] for h in headers if len(h) == _SLOT_HEADER.size),
                default=0,
            )
            journal.journal_id = (previous + 1) % 2**64
            for name in SLOT_NAMES + _DATA_FILES:
                journal._handles[name].truncate(0)
        except BaseException:
            journal.close()
            raise
        return journal

    @classmethod
    def attach(
        cls,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ) -> "CampaignJournal":
        """Reopen a journal at its last checkpoint (for a resumed campaign).

        Data files are truncated to the checkpointed counts first: appends
        that happened after the final checkpoint (including a torn partial
        write from the crash itself) are rolled back, so the files and the
        checkpoint record always agree.  The commit attached at is
        :attr:`commit`.
        """
        journal = cls(
            directory, space, fsync=fsync, checkpoint_interval=checkpoint_interval
        )
        journal._open_handles(create=False)
        try:
            commit = _read_commit(journal.directory)
            if commit is None:
                raise JournalError(f"no checkpoint to attach to in {journal.directory}")
            record = commit.record
            journal.journal_id = commit.journal_id
            journal.commit = commit
            journal.num_rows = int(record["num_rows"])
            journal.num_intervals = int(record["num_intervals"])
            journal._fit_rows = [int(r) for r in record["fit_rows"]]
            journal._pre_fit_rng = record.get("pre_fit_rng")
            journal._refresh_rows = [int(r) for r in record["refresh_rows"]]
            for name, expected in journal._data_sizes().items():
                handle = journal._handles[name]
                size = os.fstat(handle.fileno()).st_size
                if size < expected:
                    raise JournalError(
                        f"journal data file {name} holds {size} bytes, "
                        f"checkpoint requires {expected}"
                    )
                if size > expected:
                    handle.truncate(expected)
                journal._tails[name] = [expected, 0]
        except BaseException:
            # A half-done attach (no commit, short data file, truncate
            # failure) must not leak handles or keep the lease.
            journal.close()
            raise
        return journal

    def _open_handles(self, create: bool) -> None:
        """Open the data and slot files, taking the lease on ``rows.bin``.

        ``create=False`` (attach) opens only files that exist: a missing
        one is a damaged journal, reported as :class:`JournalError`.
        """
        extra = os.O_CREAT if create else 0

        def opener(path, flags):
            return os.open(path, (flags & ~os.O_CREAT) | extra, 0o644)

        try:
            for name in (ROWS_NAME, INTERVALS_NAME) + SLOT_NAMES:
                path = self.directory / name
                if name in SLOT_NAMES:
                    # Not O_APPEND: slots are overwritten in place by pwrite.
                    handle = open(path, "r+b", buffering=0, opener=opener)
                else:
                    handle = open(path, "ab", opener=opener)
                self._handles[name] = handle
                if name == ROWS_NAME:
                    self._take_lease(handle)
        except FileNotFoundError as error:
            self.close()
            raise JournalError(
                f"journal data file {Path(error.filename).name} is missing "
                f"in {self.directory}"
            ) from None
        except BaseException:
            self.close()
            raise

    def _data_sizes(self) -> Dict[str, int]:
        """Bytes of each data file the journal's current counts cover."""
        return {
            ROWS_NAME: self.num_rows * self._row_dtype.itemsize,
            INTERVALS_NAME: self.num_intervals * 16,
        }

    def _append(self, name: str, data: bytes) -> None:
        self._handles[name].write(data)
        tail = self._tails[name]
        tail[1] = zlib.crc32(data, tail[1])

    def _take_lease(self, handle) -> None:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise JournalBusyError(
                f"journal {self.directory} is held by another writer"
            ) from None

    def close(self) -> None:
        """Close the handles and release the lease (idempotent).

        Every handle is closed even when one of them raises — the first
        error propagates after the sweep — and a second ``close()`` is a
        no-op, so cleanup paths (failed attach, registry eviction, ``with``
        blocks in callers) can call it unconditionally.  Closing the
        ``rows.bin`` descriptor drops its ``flock``, so the journal can be
        re-attached afterwards.
        """
        handles = list(self._handles.values())
        self._handles.clear()
        first_error: Optional[BaseException] = None
        for handle in handles:
            try:
                handle.close()
            except BaseException as error:  # pragma: no cover - OS-level rarity
                if first_error is None:
                    first_error = error
        if first_error is not None:  # pragma: no cover - OS-level rarity
            raise first_error

    # ------------------------------------------------------------------- meta
    def write_meta(self, extra: Dict) -> None:
        """Write the immutable campaign fingerprint (once, atomically).

        The atomic write fsyncs the directory after its rename, which also
        makes the entries of the data and slot files :meth:`create` made
        before it durable: one directory fsync per journal creation.
        """
        meta = {
            "format": FORMAT_VERSION,
            "space": _space_fingerprint(self.space),
        }
        meta.update(extra)
        atomic_write_text(self.directory / META_NAME, _dump_json(meta))

    @staticmethod
    def exists(directory: Union[str, Path]) -> bool:
        """Whether ``directory`` already holds a campaign journal.

        The meta record is the journal's birth certificate (written last at
        creation, atomically), so its presence is the create-or-attach pivot
        used by the campaign registry and ``CBOSearch.start_or_resume``.
        """
        return (Path(directory) / META_NAME).exists()

    @staticmethod
    def read_meta(directory: Union[str, Path]) -> Dict:
        path = Path(directory) / META_NAME
        if not path.exists():
            raise JournalError(f"no campaign journal at {directory} ({META_NAME} missing)")
        return json.loads(path.read_text())

    @staticmethod
    def read_checkpoint(directory: Union[str, Path]) -> Optional[Dict]:
        """The last committed checkpoint record (None before the first)."""
        commit = _read_commit(Path(directory))
        return None if commit is None else commit.record

    # ---------------------------------------------------------------- appends
    def append_rows(self, history: SearchHistory) -> None:
        """Append history rows past the journal's current row count.

        The rows are packed into one block of ``rows.bin`` records in a
        single vectorised pass per column and written with one call.
        """
        stop = len(history)
        start = self.num_rows
        if stop <= start:
            return
        if history.has_incomplete_rows:
            raise JournalError("cannot journal a history with incomplete rows")
        meta, params = history.column_block(start, stop)
        block = np.empty(stop - start, dtype=self._row_dtype)
        for name, _ in _META_COLUMNS:
            block[name] = meta[name]
        for i, codec in enumerate(self._codecs):
            block[f"p{i}"] = codec.encode(params[codec.name])
        self._append(ROWS_NAME, block.tobytes())
        self.num_rows = stop

    def append_intervals(self, intervals: Sequence[Tuple[float, float]]) -> None:
        """Append busy intervals past the journal's current interval count."""
        start = self.num_intervals
        if len(intervals) <= start:
            return
        block = np.asarray(intervals[start:], dtype="<f8")
        self._append(INTERVALS_NAME, np.ascontiguousarray(block).tobytes())
        self.num_intervals = len(intervals)

    # ------------------------------------------------------------------ events
    def note_fit(self, rows: int, surrogate_rng_state: Optional[Dict]) -> None:
        """Record a surrogate fit over the first ``rows`` history rows.

        ``surrogate_rng_state`` is the surrogate RNG's state captured *before*
        the fit runs (None for RNG-free surrogates); only the most recent one
        is retained — it is all a from-scratch surrogate needs to replay its
        final fit.
        """
        self._fit_rows.append(int(rows))
        self._pre_fit_rng = surrogate_rng_state

    def note_prior_refresh(self, rows: int) -> None:
        """Record a prior refresh trained on the first ``rows`` history rows."""
        self._refresh_rows.append(int(rows))

    # -------------------------------------------------------------- checkpoint
    def checkpoint(self, payload: Dict) -> None:
        """Commit everything appended so far plus the caller's state snapshot.

        ``rows.bin`` and ``intervals.bin`` are flushed and fsynced first
        (unless ``fsync=False``), then the record referencing them overwrites
        the older slot, which is fsynced in turn — a reader therefore never
        observes a commit that points past the durable data, and a torn
        record leaves the previous commit in the other slot.  The record
        carries the byte range and CRC32 of what each data file gained since
        the previous commit, so damage to those bytes is detected too.
        """
        for name in _DATA_FILES:
            handle = self._handles[name]
            if self.fsync:
                fsync_file(handle)
            else:
                handle.flush()
        sizes = self._data_sizes()
        record = {
            "format": FORMAT_VERSION,
            "num_rows": self.num_rows,
            "num_intervals": self.num_intervals,
            "tail": [
                [self._tails[name][0], sizes[name], self._tails[name][1]]
                for name in _DATA_FILES
            ],
            # Copies: the record outlives this call as :attr:`commit`.
            "fit_rows": list(self._fit_rows),
            "pre_fit_rng": self._pre_fit_rng,
            "refresh_rows": list(self._refresh_rows),
        }
        record.update(payload)
        seq = 1 if self.commit is None else self.commit.seq + 1
        slot = self._handles[SLOT_NAMES[seq % 2]].fileno()
        data = _encode_slot(self.journal_id, seq, record)
        _pwrite_all(slot, data, 0)
        if self.fsync:
            os.fsync(slot)
        self.commit = _Commit(
            self.journal_id, seq, _SLOT_HEADER.unpack_from(data)[4], record
        )
        self._tails = {name: [sizes[name], 0] for name in _DATA_FILES}

    # -------------------------------------------------------------- validation
    @staticmethod
    def validate_meta(meta: Dict, space: SearchSpace, **expected) -> None:
        """Check a journal's fingerprint against the resuming search.

        ``expected`` holds scalar fields (seed, num_workers, surrogate, ...)
        that must match what the meta recorded; mismatches raise
        :class:`JournalError` — resuming under a different configuration
        would silently diverge from the original run instead.
        """
        if meta.get("format") != FORMAT_VERSION:
            raise JournalError(f"unsupported journal format {meta.get('format')!r}")
        fingerprint = _space_fingerprint(space)
        if meta.get("space") != fingerprint:
            raise JournalError(
                "journal space fingerprint does not match the resuming search"
            )
        for key, value in expected.items():
            if meta.get(key) != value:
                raise JournalError(
                    f"journal {key}={meta.get(key)!r} does not match the "
                    f"resuming search ({value!r})"
                )


def _object_column(values: Sequence) -> np.ndarray:
    """Pack decoded parameter values into the object-dtype column layout
    :class:`~repro.core.history.SearchHistory` stores natively."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _map_rows(directory: Path, dtype: np.dtype, count: int) -> np.ndarray:
    """Memory-map the first ``count`` records of ``rows.bin`` as ``dtype``."""
    if count == 0:
        return np.empty(0, dtype=dtype)
    needed = count * dtype.itemsize
    try:
        with open(directory / ROWS_NAME, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < needed:
                raise JournalError(
                    f"journal data file {ROWS_NAME} holds {size} bytes, "
                    f"checkpoint requires {needed}"
                )
            # Read-only shared mapping of just the committed prefix.  The
            # descriptor closes immediately after (the mapping survives it),
            # so a cached reader costs address space, not descriptors.
            mapped = mmap.mmap(handle.fileno(), needed, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        raise JournalError(
            f"journal data file {ROWS_NAME} is missing in {directory}"
        ) from None
    return np.frombuffer(mapped, dtype=dtype, count=count)


def _read_intervals(directory: Path, count: int) -> List[Tuple[float, float]]:
    """The first ``count`` busy intervals of ``intervals.bin``."""
    needed = count * 16
    try:
        with open(directory / INTERVALS_NAME, "rb") as handle:
            data = handle.read(needed)
    except FileNotFoundError:
        data = b""
    if len(data) < needed:
        raise JournalError(
            f"journal data file {INTERVALS_NAME} holds {len(data)} bytes, "
            f"checkpoint requires {needed}"
        )
    flat = np.frombuffer(data, dtype="<f8").tolist()
    return list(zip(flat[0::2], flat[1::2]))


class JournalReader:
    """Zero-copy, read-only view of a journaled campaign at its watermark.

    The reader loads the journal's ``meta.json`` (validating format and
    space fingerprint) and the newest valid checkpoint slot, then
    memory-maps ``rows.bin`` up to the checkpoint's row count — the
    *watermark* — and serves every column as a field view of that one
    mapping.  Bytes past the watermark are never mapped, so a torn tail from
    a crash, or appends a live writer has not checkpointed yet, are
    invisible: a reader attached mid-run always observes exactly the
    checkpointed prefix, bit-identical to the writer's in-memory history at
    that point.  Nothing is rewritten, so N reader processes and one writer
    coexist on the same directory without locking.

    :meth:`history` returns a read-only
    :class:`~repro.core.history.SearchHistory` whose metadata columns *are*
    the mapped records (no copy, no parse); parameter columns decode lazily
    on first access, so metric sweeps that only touch objectives/runtimes/
    timestamps never pay for configuration decoding.

    A journal whose checkpoint has not been written yet (created but never
    committed) reads as empty.  ``commit`` pins the reader to a commit the
    caller already read (the reader cache and resume use it); by default the
    newest is read.  Use :func:`open_journal_reader` for the cached entry
    point.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        space: SearchSpace,
        objective: Optional[Objective] = None,
        commit: Optional[_Commit] = None,
    ):
        self.directory = Path(directory)
        self.space = space
        self.objective = objective
        self.meta = CampaignJournal.read_meta(self.directory)
        CampaignJournal.validate_meta(self.meta, space)
        if commit is None:
            commit = _read_commit(self.directory)
        self.checkpoint = None if commit is None else commit.record
        #: Committed-row watermark: rows past it are never mapped.
        self.num_rows = 0 if commit is None else int(commit.record["num_rows"])
        self.num_intervals = (
            0 if commit is None else int(commit.record["num_intervals"])
        )
        self._codecs = [_ParamCodec(p) for p in space.parameters]
        self._history: Optional[SearchHistory] = None
        self._intervals: Optional[List[Tuple[float, float]]] = None
        self._closed = False
        #: Reference count: the creator holds one reference; :meth:`retain`
        #: adds holders, :meth:`close` releases them.  The reader really
        #: closes only when the last holder releases, which makes cache
        #: eviction safe while another thread still uses the reader.
        self._refs = 1
        self._refs_lock = threading.Lock()

    # ------------------------------------------------------------------ views
    def history(self) -> SearchHistory:
        """The checkpointed history prefix as a read-only zero-copy view.

        The returned history is shared by every caller of the same reader
        (it is immutable); ``history.copy()`` thaws it into an independent
        mutable history when a caller needs to extend it.
        """
        if self._closed:
            raise JournalError(f"journal reader for {self.directory} is closed")
        if self._history is None:
            rows = _map_rows(self.directory, _row_dtype(self._codecs), self.num_rows)
            fields = [(f"p{i}", codec) for i, codec in enumerate(self._codecs)]
            # The loaders hold the mapping itself, not the reader, so a
            # history stays readable after the reader is closed or evicted.
            loaders = {
                codec.name: (
                    lambda field=field, codec=codec: _object_column(
                        codec.decode(rows[field])
                    )
                )
                for field, codec in fields
            }
            element_loaders = {
                codec.name: (
                    lambda row, field=field, codec=codec: codec.decode_element(
                        rows[field][row]
                    )
                )
                for field, codec in fields
            }
            self._history = SearchHistory.from_columns(
                self.space,
                {name: rows[name] for name, _ in _META_COLUMNS},
                loaders,
                objective=self.objective,
                param_element_loaders=element_loaders,
            )
        return self._history

    def intervals(self) -> List[Tuple[float, float]]:
        """The checkpointed ``(submitted, completed)`` busy intervals."""
        if self._closed:
            raise JournalError(f"journal reader for {self.directory} is closed")
        if self._intervals is None:
            self._intervals = _read_intervals(self.directory, self.num_intervals)
        return list(self._intervals)

    def retain(self) -> "JournalReader":
        """Register an additional holder of this reader (thread-safe).

        Every ``retain()`` must be balanced by a :meth:`close`; the reader
        only really closes on the last release.  Used by
        :func:`open_journal_reader` callers that keep a cached reader beyond
        the current call, so a concurrent cache eviction (which releases the
        cache's own reference) cannot close the mappings under them.
        """
        with self._refs_lock:
            if self._closed:
                raise JournalError(
                    f"journal reader for {self.directory} is closed"
                )
            self._refs += 1
        return self

    def close(self) -> None:
        """Release one reference; the last release drops the mappings.

        Idempotent once closed.  Histories already handed out stay valid —
        they keep their own references, and the pages unmap only when the
        last view dies; closing just stops *this* reader from pinning them
        any longer.
        """
        with self._refs_lock:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
        self._history = None
        self._intervals = None

    # ------------------------------------------------------------------- peek
    @staticmethod
    def peek(directory: Union[str, Path]) -> Dict:
        """Cheap space-free status of a stored campaign (registry/monitoring).

        Maps ``rows.bin`` once and reads only its objective and runtime
        words — no search space, no parameter decoding, no optimizer replay —
        and returns a JSON-ready summary: evaluation count, failure count,
        best runtime/objective and the checkpoint's ``finished`` flag.  This
        is how the campaign registry reports on studies that are journaled
        on disk but not live in the process.
        """
        directory = Path(directory)
        meta = CampaignJournal.read_meta(directory)
        if meta.get("format") != FORMAT_VERSION:
            raise JournalError(f"unsupported journal format {meta.get('format')!r}")
        commit = _read_commit(directory)
        payload: Dict[str, Any] = {
            "directory": str(directory),
            "num_evaluations": 0,
            "num_failures": 0,
            "finished": False,
            "best_runtime": None,
            "best_objective": None,
            "max_time": meta.get("max_time"),
            "num_workers": meta.get("num_workers"),
        }
        if commit is None:
            return payload
        n = int(commit.record["num_rows"])
        payload["num_evaluations"] = n
        payload["finished"] = bool(commit.record.get("finished", False))
        if n:
            # The record width follows from the space fingerprint, so peek
            # needs no space object: view just the first two words.
            dtype = np.dtype(
                {
                    "names": ["objective", "runtime"],
                    "formats": ["<f8", "<f8"],
                    "offsets": [0, 8],
                    "itemsize": 8 * (len(_META_COLUMNS) + len(meta["space"])),
                }
            )
            rows = _map_rows(directory, dtype, n)
            objectives = rows["objective"]
            finite = np.flatnonzero(np.isfinite(objectives))
            payload["num_failures"] = n - int(finite.size)
            if finite.size:
                # First maximum, matching SearchHistory.best() tie-breaking.
                best = int(finite[np.argmax(objectives[finite])])
                payload["best_objective"] = float(objectives[best])
                payload["best_runtime"] = float(rows["runtime"][best])
        return payload


# --------------------------------------------------------------- reader cache
#: LRU reader cache: (absolute directory, journal id, commit sequence,
#: record CRC) → [(space, objective, reader), ...] in least-recently-used
#: order (oldest first).  A writer's new commit, or a journal re-created in
#: the same directory (which takes the next journal id), changes the key,
#: and so does a different record in a directory that was deleted and
#: written anew; a cached reader is never stale.  The short value list
#: guards against the same journal being read against different
#: spaces/objectives.
_READER_CACHE: "OrderedDict[Tuple[str, int, int, int], List[Tuple[SearchSpace, Objective, JournalReader]]]" = OrderedDict()

#: Cache bound: beyond this many distinct checkpoints the least-recently-used
#: readers are dropped, so a sweep over thousands of journaled campaigns
#: keeps a bounded number of live mappings instead of one per campaign ever
#: touched.
_READER_CACHE_MAX = 128

#: Guards every mutation of ``_READER_CACHE`` (lookup + insert + LRU
#: reordering + eviction are one critical section).  Re-entrant because
#: eviction runs inside ``open_journal_reader`` which already holds it.
_READER_CACHE_LOCK = threading.RLock()


def clear_journal_cache() -> None:
    """Drop (and close) every cached journal reader (thread-safe)."""
    with _READER_CACHE_LOCK:
        for entries in _READER_CACHE.values():
            for _, _, reader in entries:
                reader.close()
        _READER_CACHE.clear()


def set_journal_cache_limit(max_readers: int) -> int:
    """Set the journal reader cache bound; returns the previous bound.

    Mirrors :func:`repro.analysis.csvio.set_history_cache_limit`: shrinking
    evicts least-recently-used readers immediately, ``0`` disables caching
    (every open maps afresh).
    """
    global _READER_CACHE_MAX
    if max_readers < 0:
        raise ValueError("max_readers must be >= 0")
    with _READER_CACHE_LOCK:
        previous = _READER_CACHE_MAX
        _READER_CACHE_MAX = int(max_readers)
        _evict_reader_cache()
    return previous


def _evict_reader_cache() -> None:
    with _READER_CACHE_LOCK:
        while len(_READER_CACHE) > _READER_CACHE_MAX:
            _, entries = _READER_CACHE.popitem(last=False)
            for _, _, reader in entries:
                reader.close()


def open_journal_reader(
    directory: Union[str, Path],
    space: SearchSpace,
    objective: Optional[Objective] = None,
    retain: bool = False,
) -> JournalReader:
    """Open a :class:`JournalReader` through the LRU-bounded cache.

    The cache key is the newest commit's identity — the journal id stamped
    at creation, the slot sequence number and the record's CRC: re-opening
    an unchanged campaign returns the already-mapped reader (and its shared
    zero-copy history) instantly, while a journal whose writer committed a new
    checkpoint, or that was re-created, gets a fresh reader at the new
    watermark — the stale entry for the same directory is dropped.  Hits
    refresh LRU order, so bulk sweeps evict the campaigns they are done
    with, not the ones they are about to revisit.

    Thread-safe: lookup, insertion and eviction run under one lock, and
    eviction only *releases* the cache's reference — it cannot close a
    reader out from under a holder that called :meth:`JournalReader.retain`.
    With ``retain=True`` the returned reader carries an extra reference owned
    by the caller, who must balance it with ``close()``; the default returns
    a borrowed reference valid until the entry is evicted (histories already
    obtained stay valid either way).
    """
    directory = Path(directory)
    commit = None if _READER_CACHE_MAX == 0 else _read_commit(directory)
    if commit is None:
        return JournalReader(directory, space, objective=objective)
    # abspath, not resolve(): the commit identity in the key already rules
    # out stale hits, and resolving symlinks costs a stat per component.
    absolute = os.path.abspath(directory)
    key = (absolute, commit.journal_id, commit.seq, commit.crc)
    wanted = objective or Objective()
    with _READER_CACHE_LOCK:
        entries = _READER_CACHE.get(key)
        if entries is None:
            for stale in [k for k in _READER_CACHE if k[0] == absolute]:
                for _, _, reader in _READER_CACHE.pop(stale):
                    reader.close()
            entries = _READER_CACHE[key] = []
        else:
            _READER_CACHE.move_to_end(key)
        for cached_space, cached_objective, reader in entries:
            if cached_space == space and cached_objective == wanted:
                return reader.retain() if retain else reader
        reader = JournalReader(directory, space, objective=wanted, commit=commit)
        entries.append((space, wanted, reader))
        _evict_reader_cache()
        return reader.retain() if retain else reader
