"""Crash-safe journaling overhead on the fault-free path — and resume checks.

The campaign journal (:mod:`repro.core.journal`) exists for the unhappy path:
a crashed campaign resumes from its sidecar directory bit-identical to an
uninterrupted run.  The cost it is allowed to impose on the *happy* path is
bounded: this benchmark runs the same fault-free campaign unjournaled and
journaled (per-tick checkpoints) and measures the wall-clock overhead, in two
durability modes:

* **buffered** (``journal_fsync=False``) — data files are flushed but not
  fsynced at each checkpoint; safe against process crashes, not power loss.
* **fsync** (``journal_fsync=True``, the default) — every checkpoint fsyncs
  ``rows.bin`` and ``intervals.bin``, then writes the record into the older
  of the two checkpoint slots and fsyncs it (3 fsyncs per checkpoint).

Both journaled runs are asserted **bit-identical** to the unjournaled
baseline, and a crash-at-arbitrary-tick resume is asserted bit-identical as
well (the correctness contract, measured here so a perf regression cannot
silently trade it away).  Times are best-of-``--reps``.

Results are written to ``BENCH_fault_tolerance.json`` (repo root by default).
Acceptance bar: buffered journaling overhead < 5% on the fault-free path,
all bit-identity checks green.

Run with::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).parent))  # for `common` when run directly

from repro.core.search import CBOSearch, SearchResult
from repro.core.surrogate import RandomForestSurrogate
from repro.hep import HEPWorkflowProblem

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fault_tolerance.json"

SETUP = "4n-2s-20p"
KNOBS = dict(
    num_workers=16,
    max_evaluations=96,
    num_candidates=128,
    n_initial_points=10,
    n_estimators=12,
)


def fresh_problem() -> HEPWorkflowProblem:
    """A fresh problem per campaign, with run-to-run noise disabled.

    ``evaluate`` would otherwise advance an internal noise RNG per call —
    external state the journal deliberately does not capture (a real
    application's noise does not replay either).  The resume bit-identity
    contract covers deterministic run functions, so the benchmark pins it
    with one."""
    return HEPWorkflowProblem.from_setup(SETUP, seed=1, noise=0.0)


def make_search(problem: HEPWorkflowProblem, seed: int = 0) -> CBOSearch:
    return CBOSearch(
        problem.space,
        problem.evaluate,
        num_workers=KNOBS["num_workers"],
        surrogate=RandomForestSurrogate(n_estimators=KNOBS["n_estimators"], seed=seed),
        num_candidates=KNOBS["num_candidates"],
        n_initial_points=KNOBS["n_initial_points"],
        seed=seed,
    )


def run_campaign(journal_dir=None, journal_fsync=True) -> SearchResult:
    execution = make_search(fresh_problem()).start(
        max_time=float("inf"),
        max_evaluations=KNOBS["max_evaluations"],
        journal_dir=journal_dir,
        journal_fsync=journal_fsync,
    )
    while execution.advance():
        pass
    return execution.result()


def assert_bit_identical(a: SearchResult, b: SearchResult, what: str) -> None:
    assert len(a.history) == len(b.history), f"{what}: history length"
    for ev_a, ev_b in zip(a.history, b.history):
        assert ev_a.configuration == ev_b.configuration, f"{what}: configuration"
        assert ev_a.submitted == ev_b.submitted, f"{what}: submitted"
        assert ev_a.completed == ev_b.completed, f"{what}: completed"
        assert (ev_a.objective == ev_b.objective) or (
            math.isnan(ev_a.objective) and math.isnan(ev_b.objective)
        ), f"{what}: objective"
    assert a.busy_intervals == b.busy_intervals, f"{what}: busy intervals"
    assert a.best_configuration == b.best_configuration, f"{what}: best"


def check_resume(baseline: SearchResult, kill_tick: int, workdir: Path) -> None:
    """Kill a journaled campaign at ``kill_tick`` and resume it to the end."""
    journal = workdir / f"resume-{kill_tick}"
    execution = make_search(fresh_problem()).start(
        max_time=float("inf"),
        max_evaluations=KNOBS["max_evaluations"],
        journal_dir=journal,
    )
    for _ in range(kill_tick):
        if not execution.advance():
            break
    # The crash: a dead process's descriptors close, and its journal lease
    # with them; nothing is checkpointed on the way down.
    execution.close_journal()
    resumed = make_search(fresh_problem()).resume(journal)
    while resumed.advance():
        pass
    assert_bit_identical(baseline, resumed.result(), f"resume@{kill_tick}")


def measure(reps: int, workdir: Path) -> Dict[str, object]:
    base_times: List[float] = []
    modes: Dict[str, List[float]] = {"buffered": [], "fsync": []}
    baseline = None
    for rep in range(reps):
        start = time.perf_counter()
        baseline = run_campaign()
        base_times.append(time.perf_counter() - start)
        for mode, fsync in (("buffered", False), ("fsync", True)):
            journal = workdir / f"{mode}-{rep}"
            start = time.perf_counter()
            journaled = run_campaign(journal_dir=journal, journal_fsync=fsync)
            modes[mode].append(time.perf_counter() - start)
            assert_bit_identical(baseline, journaled, f"journaled/{mode}")
    t_base = min(base_times)
    entry = {
        "knobs": dict(KNOBS),
        "num_evaluations": baseline.num_evaluations,
        "unjournaled_s": t_base,
    }
    for mode in modes:
        t_mode = min(modes[mode])
        entry[f"{mode}_s"] = t_mode
        entry[f"{mode}_overhead"] = (t_mode - t_base) / t_base
    return entry


def run_benchmark(reps: int = 3, kill_ticks=(3, 11), output: Path = DEFAULT_OUTPUT):
    with tempfile.TemporaryDirectory(prefix="bench-fault-") as tmp:
        workdir = Path(tmp)
        entry = measure(reps, workdir)
        baseline = run_campaign()
        for kill_tick in kill_ticks:
            check_resume(baseline, kill_tick, workdir)
    print(
        f"unjournaled {entry['unjournaled_s']:6.2f}s  "
        f"buffered {entry['buffered_s']:6.2f}s ({entry['buffered_overhead']:+.1%})  "
        f"fsync {entry['fsync_s']:6.2f}s ({entry['fsync_overhead']:+.1%})"
    )
    overhead = entry["buffered_overhead"]
    payload = {
        "benchmark": "fault_tolerance",
        "setup": SETUP,
        "reps": reps,
        "kill_ticks": list(kill_ticks),
        "description": (
            "One fault-free RF campaign run unjournaled vs journaled with "
            "per-tick checkpoints (buffered and fsync durability modes), all "
            "asserted bit-identical, plus crash-at-tick resume checks "
            "asserted bit-identical to the uninterrupted run. Times are "
            "best-of-reps."
        ),
        "results": entry,
        "acceptance": {
            "criterion": "buffered journaling overhead < 5% on the fault-free path, bit-identical, resumes bit-identical",
            "buffered_overhead": overhead,
            "fsync_overhead": entry["fsync_overhead"],
            "bit_identical": True,
            "resume_bit_identical": True,
            "passed": bool(overhead < 0.05),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
    print(f"acceptance ({payload['acceptance']['criterion']}): {overhead:+.1%} -> {status}")
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="one rep, one resume check")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per mode (best-of)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    args = parser.parse_args(argv)
    if args.quick:
        return run_benchmark(reps=1, kill_ticks=(5,), output=args.output)
    return run_benchmark(reps=args.reps, output=args.output)


if __name__ == "__main__":
    main()
