"""Span recording around the program's public entry points.

A :class:`Tracer` replaces named functions and methods of the program with
wrappers that record one span per call — name, start, end, parent span and
the root span (runner tick, request or analysis pass) it belongs to — plus a
work count where the layer has one.  Spans stay in memory until the run
writes them out.  Nothing here changes an argument or a result, so a traced
run computes exactly what an untraced one does.

:func:`layer_metrics` turns the spans into the span-based per-layer metrics
of ``BENCHMARK.json``; :func:`install_layers` lists the wrapped entry points.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

# Span record layout (lists, not objects: a fleet round records ~10^5).
NAME, START, END, PARENT, ROOT, COUNT = range(6)

#: Spans whose insides belong to them alone: the application model's forest
#: predictions under ``runfn`` are not surrogate scoring (``rf.predict``).
OPAQUE = frozenset({"runfn"})


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._patched: List[tuple] = []
        # Client connections and request handlers record spans at once; a
        # span's index is taken and filled under this lock.
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``count(args, result, state)`` gives the call's work count, where
        ``state`` is what ``before(args)`` returned ahead of the call.
        """
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0, 0]
            with lock:
                index = len(spans)
                spans.append(span)
            span[ROOT] = spans[parent][ROOT] if parent >= 0 else index
            stack.append(index)
            state = before(args) if before is not None else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result, state)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (benchmark-side spans)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> Dict[str, list]:
        """``{name: [calls, busy_s, self_s, count]}`` over outermost spans.

        A span nested inside a span of the same name (a fleet fit calling
        the solo fit) is folded into the outer one, so calls and busy time
        are never counted twice; spans inside an :data:`OPAQUE` span count
        only as that span's time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
        table: Dict[str, list] = {}
        for index, span in enumerate(spans):
            name = span[NAME]
            parent = span[PARENT]
            nested = False
            while parent >= 0:
                ancestor = spans[parent][NAME]
                if ancestor in OPAQUE:
                    break
                nested = nested or ancestor == name
                parent = spans[parent][PARENT]
            if parent >= 0:
                continue
            entry = table.setdefault(name, [0, 0.0, 0.0, 0])
            duration = span[END] - span[START]
            entry[2] += duration - child_time[index]
            if not nested:
                entry[0] += 1
                entry[1] += duration
                entry[3] += span[COUNT]
        return table


def _rows(args, result, state) -> int:
    return int(args[1].shape[0])


def _fleet_rows(args, result, state) -> int:
    return int(sum(X.shape[0] for _, X in args[0]))


def _members_first(args, result, state) -> int:
    return len(args[0])


def _members_second(args, result, state) -> int:
    return len(args[1])


def _gp_fleet_rows(args, result, state) -> int:
    return int(sum(X.shape[0] for X in args[1]))


def _journal_state(args):
    journal = args[0]
    return journal.num_rows, journal.num_intervals


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Module-level functions are wrapped where the calling module binds them
    (``repro.service.runner`` imports the fleet passes by name).
    """
    from repro.analysis import csvio
    from repro.core import journal as journal_mod
    from repro.core.journal import CampaignJournal, JournalReader
    from repro.core.search import CampaignExecution
    from repro.core.surrogate.gaussian_process import GaussianProcessSurrogate, GPFleet
    from repro.core.surrogate.random_forest import RandomForestSurrogate
    from repro.core.vae.tvae import TabularVAE, VAEFleet
    from repro.hep.surrogate_runtime import SurrogateRuntime, SurrogateRuntimeFleet
    from repro.service import runner as runner_mod
    from repro.service.registry import CampaignRegistry

    patch = tracer.patch
    patch(runner_mod.ElasticCampaignRunner, "tick", "runner.tick")
    patch(runner_mod, "fit_forest_fleet", "rf.fleet_fit", count=_members_first)
    patch(runner_mod, "predict_forest_fleet", "rf.predict", count=_fleet_rows)
    patch(runner_mod, "prepare_ask_fleet", "ask",
          count=lambda args, result, state: sum(o.num_candidates for o, _ in args[0]))
    patch(RandomForestSurrogate, "fit", "rf.fit")
    patch(RandomForestSurrogate, "predict", "rf.predict", count=_rows)
    patch(GPFleet, "fit", "gp.fit", count=_members_second)
    patch(GPFleet, "partial_fit", "gp.fit", count=_members_second)
    patch(GPFleet, "predict", "gp.predict", count=_gp_fleet_rows)
    patch(GaussianProcessSurrogate, "fit", "gp.fit", count=lambda a, r, s: 1)
    patch(GaussianProcessSurrogate, "partial_fit", "gp.fit", count=lambda a, r, s: 1)
    patch(GaussianProcessSurrogate, "predict", "gp.predict", count=_rows)
    patch(VAEFleet, "fit", "vae.fit", count=_members_second)
    patch(TabularVAE, "fit", "vae.fit", count=lambda a, r, s: 1)
    for method, name in (
        ("collect", "search.collect"),
        ("ingest_collected", "search.ingest"),
        ("tell_collected", "search.ingest"),
        ("charge_tell", "search.charge"),
        ("prepare_prior_refresh", "search.refresh"),
        ("finish_prior_refresh", "search.refresh"),
        ("begin_ask_request", "search.ask_request"),
        ("accept_prepared_ask", "search.ask_request"),
        ("finish_ask", "ask.finish"),
        ("submit_prepared", "search.submit"),
        ("maybe_checkpoint", "search.checkpoint"),
        ("next_suggestion", "search.suggest"),
        ("report_runtimes", "search.report"),
    ):
        patch(CampaignExecution, method, name)
    patch(CampaignExecution, "complete_ask", "ask",
          count=lambda args, result, state: args[0].optimizer.num_candidates)

    def appended_bytes(args, result, state):
        journal = args[0]
        columns = len(journal_mod._META_COLUMNS) + len(journal.space.parameters)
        return (8 * columns * (journal.num_rows - state[0])
                + 16 * (journal.num_intervals - state[1]))

    patch(CampaignJournal, "append_rows", "journal.append",
          before=_journal_state, count=appended_bytes)
    patch(CampaignJournal, "append_intervals", "journal.append",
          before=_journal_state, count=appended_bytes)
    patch(CampaignJournal, "checkpoint", "journal.checkpoint")
    patch(os, "fsync", "journal.fsync")
    patch(csvio, "open_journal_reader", "journal.open")
    patch(JournalReader, "history", "journal.read")
    patch(SurrogateRuntimeFleet, "run_batch", "runfn",
          count=lambda args, result, state: sum(len(c) for _, c in args[1]))
    patch(SurrogateRuntime, "run_many", "runfn",
          count=lambda args, result, state: len(args[1]))
    patch(CampaignRegistry, "suggest", "registry.suggest")
    patch(CampaignRegistry, "report", "registry.report")


#: Span-based per-layer metrics: name → (span, field).  Fields index
#: :meth:`Tracer.summary` rows: calls, busy_s, self_s, count.  The other
#: per-layer metrics of ``BENCHMARK.json`` are derived in ``run.py``.
SPAN_METRICS = {
    "runner.tick.calls": ("runner.tick", 0),
    "runner.tick.self_s": ("runner.tick", 2),
    "rf.fleet_fit.calls": ("rf.fleet_fit", 0),
    "rf.fleet_fit.members": ("rf.fleet_fit", 3),
    "rf.fleet_fit.busy_s": ("rf.fleet_fit", 1),
    "rf.fit.calls": ("rf.fit", 0),
    "rf.fit.busy_s": ("rf.fit", 1),
    "rf.predict.rows": ("rf.predict", 3),
    "rf.predict.busy_s": ("rf.predict", 1),
    "gp.fit.calls": ("gp.fit", 0),
    "gp.fit.busy_s": ("gp.fit", 1),
    "gp.predict.busy_s": ("gp.predict", 1),
    "vae.fit.calls": ("vae.fit", 0),
    "vae.fit.members": ("vae.fit", 3),
    "vae.fit.busy_s": ("vae.fit", 1),
    "ask.calls": ("ask", 0),
    "ask.candidates": ("ask", 3),
    "ask.busy_s": ("ask", 1),
    "ask.finish.busy_s": ("ask.finish", 1),
    "search.collect.busy_s": ("search.collect", 1),
    "search.ingest.busy_s": ("search.ingest", 1),
    "journal.checkpoint.calls": ("journal.checkpoint", 0),
    "journal.checkpoint.busy_s": ("journal.checkpoint", 1),
    "journal.append.bytes": ("journal.append", 3),
    "journal.append.busy_s": ("journal.append", 1),
    "journal.fsync.calls": ("journal.fsync", 0),
    "journal.open.calls": ("journal.open", 0),
    "journal.read.busy_s": ("journal.read", 1),
    "runfn.configs": ("runfn", 3),
    "runfn.busy_s": ("runfn", 1),
    "registry.suggest.busy_s": ("registry.suggest", 1),
    "registry.report.busy_s": ("registry.report", 1),
    "analysis.load.busy_s": ("analysis.load", 1),
    "analysis.table.busy_s": ("analysis.table", 1),
}


def merge_summaries(summaries: Sequence[Dict[str, list]]) -> Dict[str, list]:
    """Sum several :meth:`Tracer.summary` tables (client and server side)."""
    merged: Dict[str, list] = {}
    for summary in summaries:
        for name, row in summary.items():
            entry = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                entry[i] += value
    return merged


def layer_metrics(summary: Dict[str, list], units: int) -> Dict[str, float]:
    """The span-based per-layer metrics, per unit of repeated work."""
    values = {}
    for metric, (name, field) in SPAN_METRICS.items():
        row = summary.get(name)
        values[metric] = 0.0 if row is None else row[field] / units
    return values
