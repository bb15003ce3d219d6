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
  every load runs the typed columnar parse
  (:meth:`~repro.core.history.SearchHistory.from_csv`) afresh, so each
  caller owns the history it gets back.  Nothing in the library reloads a
  CSV within one process, so nothing is cached.
* **journal** (``format="journal"``) — one
  :mod:`repro.core.journal` sidecar directory per repetition.  Loading
  memory-maps the binary columns at their checkpoint watermark
  (:class:`~repro.core.journal.JournalReader`) instead of parsing text: a
  cold process serves ``fig3_table``/metric sweeps straight off disk pages,
  which is what makes analysis over thousands of stored campaigns cheap
  (see :class:`~repro.analysis.store.CampaignStore`).  The journal reader
  cache (:func:`~repro.core.journal.open_journal_reader`) is the one
  analysis cache.

:func:`load_campaign` and :func:`load_histories` auto-detect the format:
a directory that *is* a campaign journal, a manifest whose entries name
journal subdirectories, and a manifest-less directory of journal
subdirectories all take the memory-mapped path; everything else parses CSV.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.history import SearchHistory
from repro.core.journal import CampaignJournal, open_journal_reader
from repro.core.space import SearchSpace
from repro.analysis.campaign import CampaignResult, result_from_history

__all__ = ["save_campaign", "load_campaign", "load_histories"]

MANIFEST_NAME = "campaign.json"


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

    CSV entries are parsed on every call; journal entries are
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
    return SearchHistory.from_csv(directory / entry["file"], space)


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
            history = SearchHistory.from_csv(directory / entry["file"], space)
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

