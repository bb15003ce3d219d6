"""Catalog of journaled campaigns: cold-start analysis over a store root.

A long-running tuning service leaves behind one campaign-journal sidecar
directory per study (``root/<name>/`` — the layout
:class:`~repro.service.registry.CampaignRegistry` writes).  After thousands
of campaigns that root *is* the experimental corpus: the paper's Fig. 3
transfer tables and Fig. 4/5 comparisons are aggregations over exactly such
repeated campaigns, and related systems (STELLAR's mining of accumulated
tuning runs, DIAL's lightweight local metric reads) treat the stored-trial
corpus as a first-class, cheaply-queryable asset.

:class:`CampaignStore` makes it one here.  The directory scan is lazy (first
use, re-run with :meth:`CampaignStore.rescan`), every campaign is served
through the LRU-bounded memory-mapped reader cache
(:func:`repro.core.journal.open_journal_reader`), and the histories handed
out are read-only zero-copy views over the journals' row files — so a
cold process can sweep thousands of stored campaigns into
:func:`~repro.analysis.figures.fig3_table`/metric aggregations without
parsing a byte of CSV and without holding more than the cache bound's worth
of mappings alive.  :meth:`CampaignStore.peek` summarises a campaign without
even constructing its history (objective/runtime words only).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.core.history import SearchHistory
from repro.core.journal import CampaignJournal, JournalReader, open_journal_reader
from repro.core.objective import Objective
from repro.core.space import SearchSpace
from repro.analysis.campaign import CampaignResult, result_from_history

__all__ = ["CampaignStore"]


class CampaignStore:
    """Lazily scanned catalog of the journaled campaigns under one root.

    Parameters
    ----------
    root:
        Directory whose immediate subdirectories are campaign journals
        (the registry's journal root, or a directory written by
        ``save_campaign(..., format="journal")``).  Non-journal children are
        ignored; a missing root reads as empty.
    space:
        The search space the stored campaigns share (validated against each
        journal's fingerprint on open).
    objective:
        Optional objective transform attached to the loaded histories.
    """

    def __init__(
        self,
        root: Union[str, Path],
        space: SearchSpace,
        objective: Optional[Objective] = None,
    ):
        self.root = Path(root)
        self.space = space
        self.objective = objective
        self._names: Optional[List[str]] = None

    # ------------------------------------------------------------------- scan
    def names(self) -> List[str]:
        """Sorted names of the journaled campaigns (scanned lazily, cached)."""
        if self._names is None:
            if self.root.is_dir():
                self._names = sorted(
                    child.name
                    for child in self.root.iterdir()
                    if child.is_dir() and CampaignJournal.exists(child)
                )
            else:
                self._names = []
        return list(self._names)

    def rescan(self) -> List[str]:
        """Drop the cached directory listing and re-scan the root."""
        self._names = None
        return self.names()

    def __len__(self) -> int:
        return len(self.names())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __contains__(self, name: object) -> bool:
        return name in self.names()

    def directory(self, name: str) -> Path:
        """The journal directory of one stored campaign."""
        if name not in self.names():
            raise KeyError(f"no journaled campaign {name!r} under {self.root}")
        return self.root / name

    # ------------------------------------------------------------------ access
    def reader(self, name: str) -> JournalReader:
        """The (cached) memory-mapped reader of one stored campaign."""
        return open_journal_reader(
            self.directory(name), self.space, objective=self.objective
        )

    def history(self, name: str) -> SearchHistory:
        """One campaign's history as a read-only zero-copy view."""
        return self.reader(name).history()

    def histories(self, names: Optional[Sequence[str]] = None) -> List[SearchHistory]:
        """The histories of ``names`` (default: every stored campaign)."""
        return [self.history(name) for name in (self.names() if names is None else names)]

    def meta(self, name: str) -> Dict:
        """One campaign's journal meta record (fingerprint + campaign fields)."""
        return CampaignJournal.read_meta(self.directory(name))

    def peek(self, name: str) -> Dict:
        """Cheap status summary without constructing the history.

        Reads only the objective/runtime words of ``rows.bin`` — see
        :meth:`repro.core.journal.JournalReader.peek`.
        """
        return JournalReader.peek(self.directory(name))

    def summary(self) -> List[Dict]:
        """:meth:`peek` of every stored campaign, with names attached."""
        rows = []
        for name in self.names():
            row = {"name": name}
            row.update(self.peek(name))
            rows.append(row)
        return rows

    # ----------------------------------------------------------- aggregation
    def campaign_result(
        self,
        names: Sequence[str],
        label: Optional[str] = None,
        setup: Optional[str] = None,
    ) -> CampaignResult:
        """Assemble stored campaigns into one :class:`CampaignResult`.

        Each name becomes one repetition; campaign-level fields default to
        the first journal's meta record (``label``/``setup``/``max_time``/
        ``num_workers``), matching how the figure tables group repeated runs.
        """
        if not names:
            raise ValueError("campaign_result needs at least one stored campaign")
        metas = [self.meta(name) for name in names]
        first = metas[0]
        max_time = float(first.get("max_time") or 0.0)
        num_workers = int(first.get("num_workers") or 1)
        campaign = CampaignResult(
            label=str(label if label is not None else (first.get("label") or names[0])),
            setup=str(setup if setup is not None else (first.get("setup") or "")),
            max_time=max_time,
            num_workers=num_workers,
        )
        for name, meta in zip(names, metas):
            reader = self.reader(name)
            recorded = meta.get("worker_utilization")
            campaign.results.append(
                result_from_history(
                    reader.history(),
                    max_time=float(meta.get("max_time") or max_time),
                    num_workers=int(meta.get("num_workers") or num_workers),
                    busy_intervals=reader.intervals(),
                    worker_utilization=None if recorded is None else float(recorded),
                )
            )
        return campaign

    def grouped(
        self,
        setup_key: str = "setup",
        label_key: str = "label",
    ) -> Dict[str, Dict[str, CampaignResult]]:
        """Stored campaigns grouped into ``setup → label → CampaignResult``.

        The mapping is exactly the shape
        :func:`~repro.analysis.figures.fig3_table` /
        :func:`~repro.analysis.figures.fig4_table` consume, so a figure over
        the whole store is ``fig3_table(store.grouped())`` — served entirely
        off the memory-mapped columns.  Campaigns whose meta lacks the group
        keys fall back to an empty setup and their directory name as label
        (each such campaign is its own single-repetition group).
        """
        groups: Dict[str, Dict[str, List[str]]] = {}
        for name in self.names():
            meta = self.meta(name)
            setup = str(meta.get(setup_key) or "")
            label = str(meta.get(label_key) or name)
            groups.setdefault(setup, {}).setdefault(label, []).append(name)
        return {
            setup: {
                label: self.campaign_result(members, label=label, setup=setup)
                for label, members in labels.items()
            }
            for setup, labels in groups.items()
        }
