"""Campaign-level persistence: CSV interchange and the journal fast path.

The paper publishes its results as a collection of CSV files — one per
one-hour experiment, 115 files in total — plus scripts that aggregate them
into the figures.  This module reproduces that workflow for the reproduction's
campaigns: every repetition of a campaign is written to its own CSV file (the
same one-row-per-evaluation layout as
:meth:`repro.core.history.SearchHistory.to_csv`) together with a small JSON
manifest describing the campaign, and the whole directory can be loaded back
for analysis without re-running anything.

Two storage formats share the same load entry points:

* **CSV** (``format="csv"``, the default and the interchange escape hatch) —
  loading is served by a **parsed-history cache** keyed by the file's path,
  modification time and size: the typed columnar parse
  (:meth:`~repro.core.history.SearchHistory.from_csv`) runs once per file
  even when several analysis entry points (:func:`load_campaign`,
  :func:`load_histories`, repeated figure builds) read the same CSV, and
  every caller receives its own independent
  :meth:`~repro.core.history.SearchHistory.copy` of the cached columns.  A
  rewritten file (new mtime/size) re-parses; :func:`clear_history_cache`
  drops the cache explicitly.  The cache is bounded and truly
  least-recently-*used*: every hit refreshes its entry, so a bulk sweep that
  revisits a working set larger than the cap evicts the files it is done
  with, not the ones it is about to read again
  (:func:`set_history_cache_limit` adjusts the cap).
* **journal** (``format="journal"``) — one
  :mod:`repro.core.journal` sidecar directory per repetition.  Loading
  memory-maps the binary columns at their checkpoint watermark
  (:class:`~repro.core.journal.JournalReader`) instead of parsing text: a
  cold process serves ``fig3_table``/metric sweeps straight off disk pages,
  which is what makes analysis over thousands of stored campaigns cheap
  (see :class:`~repro.analysis.store.CampaignStore`).

:func:`load_campaign` and :func:`load_histories` auto-detect the format:
a directory that *is* a campaign journal, a manifest whose entries name
journal subdirectories, and a manifest-less directory of journal
subdirectories all take the memory-mapped path; everything else parses CSV.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.history import SearchHistory
from repro.core.journal import CampaignJournal, open_journal_reader
from repro.core.objective import Objective
from repro.core.space import SearchSpace
from repro.analysis.campaign import CampaignResult, result_from_history

__all__ = [
    "save_campaign",
    "load_campaign",
    "load_histories",
    "clear_history_cache",
    "set_history_cache_limit",
]

MANIFEST_NAME = "campaign.json"

#: Parsed-history cache: (resolved path, mtime_ns, size) → [(space, objective,
#: parsed history), ...], in least-recently-used order (oldest first).  The
#: short value list (almost always length 1) guards against the same file
#: being parsed against different spaces.
_HISTORY_CACHE: "OrderedDict[Tuple[str, int, int], List[Tuple[SearchSpace, Objective, SearchHistory]]]" = OrderedDict()

#: Cache bound: beyond this many distinct files the least-recently-used
#: entries are evicted, so bulk sweeps over hundreds of campaign directories
#: still reuse parses within a directory pass without retaining every history
#: ever loaded for the life of the process.
_HISTORY_CACHE_MAX_FILES = 256

#: Guards every mutation of ``_HISTORY_CACHE``.  Re-entrant because eviction
#: runs inside ``_load_history_cached`` which already holds it.  Without it,
#: concurrent loads (parallel shard stepping, threaded analysis sweeps) can
#: corrupt the ``OrderedDict`` mid-reorder.
_HISTORY_CACHE_LOCK = threading.RLock()


def clear_history_cache() -> None:
    """Drop every cached parsed history (tests, or bulk directory rewrites)."""
    with _HISTORY_CACHE_LOCK:
        _HISTORY_CACHE.clear()


def set_history_cache_limit(max_files: int) -> int:
    """Set the parsed-history cache bound; returns the previous bound.

    Shrinking evicts least-recently-used entries immediately; ``0`` disables
    caching (every load re-parses).
    """
    global _HISTORY_CACHE_MAX_FILES
    if max_files < 0:
        raise ValueError("max_files must be >= 0")
    with _HISTORY_CACHE_LOCK:
        previous = _HISTORY_CACHE_MAX_FILES
        _HISTORY_CACHE_MAX_FILES = int(max_files)
        _evict_history_cache()
    return previous


def _evict_history_cache() -> None:
    with _HISTORY_CACHE_LOCK:
        while len(_HISTORY_CACHE) > _HISTORY_CACHE_MAX_FILES:
            _HISTORY_CACHE.popitem(last=False)


def _load_history_cached(
    path: Path, space: SearchSpace, objective: Optional[Objective] = None
) -> SearchHistory:
    """Load one history CSV through the parsed-column cache (thread-safe).

    Returns an independent copy of the cached parse, so callers can extend
    the history without corrupting later loads.  Hits move the entry to the
    most-recently-used end, so eviction order follows *use*, not insertion.
    The whole lookup/parse/insert is one critical section: parsing outside
    the lock would let two threads parse the same file concurrently — the
    exact work the cache exists to save.
    """
    stat = path.stat()
    resolved = str(path.resolve())
    key = (resolved, stat.st_mtime_ns, stat.st_size)
    wanted = objective or Objective()
    with _HISTORY_CACHE_LOCK:
        entries = _HISTORY_CACHE.get(key)
        if entries is None:
            # A rewritten file invalidates its old entry; drop it so the cache
            # does not accumulate one stale parse per overwrite.
            for stale in [k for k in _HISTORY_CACHE if k[0] == resolved]:
                del _HISTORY_CACHE[stale]
            entries = _HISTORY_CACHE[key] = []
        else:
            _HISTORY_CACHE.move_to_end(key)
        for cached_space, cached_objective, history in entries:
            if cached_space == space and cached_objective == wanted:
                return history.copy()
        history = SearchHistory.from_csv(path, space, objective=objective)
        entries.append((space, wanted, history))
        _evict_history_cache()
        return history.copy()


def save_campaign(
    campaign: CampaignResult,
    directory: Union[str, Path],
    format: str = "csv",
) -> Path:
    """Write a campaign to ``directory`` (one file/subdir per repetition).

    ``format="csv"`` (default) writes one CSV file per repetition — the
    paper's interchange layout.  ``format="journal"`` writes one binary
    campaign-journal sidecar directory per repetition instead, which
    :func:`load_campaign`/:func:`load_histories` serve back through the
    zero-copy memory-mapped read path; the CSVs remain the bit-identical
    escape hatch (both formats round-trip the same histories).  A manifest
    (``campaign.json``) describing the campaign is written either way.

    Returns the directory path.  Existing files with the same names are
    overwritten; other files in the directory are left untouched.
    """
    if format not in ("csv", "journal"):
        raise ValueError(f"unknown campaign format {format!r} ('csv' or 'journal')")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "label": campaign.label,
        "setup": campaign.setup,
        "max_time": campaign.max_time,
        "num_workers": campaign.num_workers,
        "repetitions": len(campaign.results),
        "format": format,
        "files": [],
    }
    safe_label = campaign.label.replace("/", "_")
    for index, result in enumerate(campaign.results):
        entry = {
            "best_runtime": result.best_runtime,
            "num_evaluations": result.num_evaluations,
            "worker_utilization": result.worker_utilization,
        }
        if format == "journal":
            name = f"{safe_label}-rep{index:02d}"
            _write_history_journal(
                directory / name,
                result.history,
                result.busy_intervals,
                {
                    "label": campaign.label,
                    "setup": campaign.setup,
                    "max_time": campaign.max_time,
                    "num_workers": campaign.num_workers,
                    "worker_utilization": result.worker_utilization,
                },
            )
            entry["journal"] = name
        else:
            name = f"{safe_label}-rep{index:02d}.csv"
            result.history.to_csv(directory / name)
            entry["file"] = name
        manifest["files"].append(entry)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def _write_history_journal(
    directory: Path,
    history: SearchHistory,
    intervals,
    meta: Dict,
) -> None:
    """Export one finished history as a campaign-journal sidecar directory."""
    journal = CampaignJournal.create(directory, history.space, fsync=False)
    try:
        journal.write_meta(dict(meta))
        journal.append_rows(history)
        journal.append_intervals([(float(s), float(e)) for s, e in intervals])
        journal.checkpoint({"finished": True})
    finally:
        journal.close()


def _journal_repetitions(directory: Path) -> List[Path]:
    """Journal subdirectories of a manifest-less campaign directory, sorted."""
    if not directory.is_dir():
        return []
    return sorted(
        child
        for child in directory.iterdir()
        if child.is_dir() and CampaignJournal.exists(child)
    )


def load_histories(
    directory: Union[str, Path], space: SearchSpace
) -> List[SearchHistory]:
    """Load every per-repetition history from ``directory`` (format-detected).

    CSV entries parse through the parsed-history cache; journal entries are
    served as read-only zero-copy views through the memory-mapped reader
    cache (:func:`repro.core.journal.open_journal_reader`) — call
    ``history.copy()`` on those if you need to mutate one.
    """
    directory = Path(directory)
    if CampaignJournal.exists(directory):
        # The directory *is* a single journaled campaign (e.g. one study of
        # a registry root): one repetition.
        return [open_journal_reader(directory, space).history()]
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        return [
            _load_entry_history(directory, entry, space)
            for entry in manifest["files"]
        ]
    repetitions = _journal_repetitions(directory)
    if repetitions:
        return [open_journal_reader(rep, space).history() for rep in repetitions]
    raise FileNotFoundError(
        f"{manifest_path} not found and {directory} holds no campaign "
        "journals — is it a saved campaign directory?"
    )


def _load_entry_history(
    directory: Path, entry: Dict, space: SearchSpace
) -> SearchHistory:
    if "journal" in entry:
        return open_journal_reader(directory / entry["journal"], space).history()
    return _load_history_cached(directory / entry["file"], space)


def load_campaign(directory: Union[str, Path], space: SearchSpace) -> CampaignResult:
    """Reconstruct a :class:`CampaignResult` from a saved directory.

    The per-repetition :class:`~repro.core.search.SearchResult` objects are
    rebuilt from the stored histories and manifest metadata (busy intervals
    are approximated by the evaluations' own intervals, which is exactly what
    the utilisation metrics use).  Journal-format directories — manifest
    entries naming journal subdirectories, a manifest-less directory of
    journals, or a directory that is itself one journal — load through the
    memory-mapped read path, including the journal's exact busy intervals.
    """
    directory = Path(directory)
    if CampaignJournal.exists(directory):
        return _campaign_from_journal_dirs(
            [directory], space, label=directory.name
        )
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        repetitions = _journal_repetitions(directory)
        if repetitions:
            return _campaign_from_journal_dirs(
                repetitions, space, label=directory.name
            )
        raise FileNotFoundError(
            f"{manifest_path} not found and {directory} holds no campaign "
            "journals — is it a saved campaign directory?"
        )
    manifest = json.loads(manifest_path.read_text())
    campaign = CampaignResult(
        label=manifest["label"],
        setup=manifest["setup"],
        max_time=float(manifest["max_time"]),
        num_workers=int(manifest["num_workers"]),
    )
    for entry in manifest["files"]:
        busy_intervals = None
        if "journal" in entry:
            reader = open_journal_reader(directory / entry["journal"], space)
            history, busy_intervals = reader.history(), reader.intervals()
        else:
            history = _load_history_cached(directory / entry["file"], space)
        campaign.results.append(
            result_from_history(
                history,
                max_time=float(manifest["max_time"]),
                num_workers=int(manifest["num_workers"]),
                busy_intervals=busy_intervals,
                worker_utilization=float(
                    entry.get("worker_utilization", float("nan"))
                ),
            )
        )
    return campaign


def _campaign_from_journal_dirs(
    repetitions: List[Path], space: SearchSpace, label: str
) -> CampaignResult:
    """Build a :class:`CampaignResult` straight from journal directories.

    Campaign-level fields come from the first repetition's journal meta
    (service-written journals record ``max_time``/``num_workers``; ``label``
    and ``setup`` fall back to the directory name / empty string).
    """
    metas = [CampaignJournal.read_meta(rep) for rep in repetitions]
    first = metas[0]
    max_time = float(first.get("max_time") or 0.0)
    num_workers = int(first.get("num_workers") or 1)
    campaign = CampaignResult(
        label=str(first.get("label") or label),
        setup=str(first.get("setup") or ""),
        max_time=max_time,
        num_workers=num_workers,
    )
    for rep, meta in zip(repetitions, metas):
        reader = open_journal_reader(rep, space)
        history = reader.history()
        recorded = meta.get("worker_utilization")
        campaign.results.append(
            result_from_history(
                history,
                max_time=float(meta.get("max_time") or max_time),
                num_workers=int(meta.get("num_workers") or num_workers),
                busy_intervals=reader.intervals(),
                worker_utilization=None if recorded is None else float(recorded),
            )
        )
    return campaign


def _read_manifest(directory: Path) -> Dict:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path} not found — is {directory} a saved campaign directory?"
        )
    return json.loads(manifest_path.read_text())
