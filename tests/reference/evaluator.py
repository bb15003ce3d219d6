"""The private virtual-clock evaluator: the oracle of the evaluator tests.

``CBOSearch`` evaluates every campaign without an ``evaluator_factory`` on a
:class:`~repro.core.evaluator.ServiceEvaluator` over a private
:class:`~repro.core.evaluator.SharedWorkerPool`.  This class is the
evaluator it replaced, kept as the oracle: for any driver that submits at
most ``num_idle`` configurations at a time (as the search loop does), the
two give identical completions, busy intervals and utilisation, and a
campaign run on either is bit-identical
(``tests/core/test_evaluator_properties.py``).  They differ in two ways:

* submissions beyond the idle workers are **dropped** here, where the pool
  queues them;
* work lost to an injected fault is lost for good here, where the pool
  retries it with backoff.

Tests plug it into a campaign with
``CBOSearch(evaluator_factory=oracle_factory)``.
"""

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import (
    DEFAULT_FAILURE_DURATION,
    CompletedEvaluation,
    EvaluatorStalledError,
    PendingEvaluation,
    WorkerState,
    resolve_outcome,
)
from repro.core.space import Configuration
from repro.sim.faults import FaultPlan, make_fault_plan


class AsyncVirtualEvaluator:
    """Asynchronous evaluation of configurations on virtual-time workers.

    Parameters
    ----------
    run_function:
        Callable mapping a configuration to the measured run time in seconds
        (NaN for failed/timed-out evaluations).  This is where the simulated
        HEP workflow (or a surrogate of it) is invoked.
    num_workers:
        Number of parallel workers (128 in the paper's Theta experiments).
    failure_duration:
        Virtual time a failed evaluation occupies its worker.
    duration_function:
        Optional override mapping ``(configuration, runtime)`` to the virtual
        duration of the evaluation; defaults to ``runtime`` for finite values
        and ``failure_duration`` otherwise.
    deadline:
        Optional per-evaluation kill limit: an evaluation whose duration
        would exceed it is cut off at the deadline and reported as failed
        (NaN runtime) — the paper's 600 s kill-limit semantics.
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting deterministic
        worker crashes, hangs, stragglers and lost results.  ``None`` (or an
        all-zero plan) leaves every path bit-identical to the fault-free
        evaluator.
    """

    def __init__(
        self,
        run_function: Callable[[Configuration], float],
        num_workers: int = 128,
        failure_duration: float = DEFAULT_FAILURE_DURATION,
        duration_function: Optional[Callable[[Configuration, float], float]] = None,
        deadline: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if failure_duration <= 0:
            raise ValueError("failure_duration must be positive")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        self.run_function = run_function
        self.num_workers = int(num_workers)
        self.failure_duration = float(failure_duration)
        self.duration_function = duration_function
        self.deadline = None if deadline is None else float(deadline)
        self.fault_plan = make_fault_plan(fault_plan)
        self.workers = [WorkerState(index=i) for i in range(self.num_workers)]
        self._pending: List[PendingEvaluation] = []
        self.now = 0.0
        self.num_submitted = 0
        self.num_collected = 0
        self.num_lost = 0
        self._next_seq = 0
        self._started_intervals: List[Tuple[float, float]] = []

    # ------------------------------------------------------------- submission
    def idle_workers(self) -> List[WorkerState]:
        """Workers without a running evaluation (dead workers excluded)."""
        return [w for w in self.workers if w.idle]

    @property
    def num_idle(self) -> int:
        """Number of idle workers."""
        return len(self.idle_workers())

    @property
    def num_pending(self) -> int:
        """Number of evaluations currently running."""
        return len(self._pending)

    @property
    def num_dead(self) -> int:
        """Number of workers that crashed and left service permanently."""
        return sum(1 for w in self.workers if w.dead)

    def pending_evaluations(self) -> Tuple[PendingEvaluation, ...]:
        """Snapshot of the evaluations currently running (submission order)."""
        return tuple(self._pending)

    def drain_started_intervals(self) -> List[Tuple[float, float]]:
        """``(submitted, completes_at)`` of evaluations started since the last
        drain, in start order — the busy-interval feed of Fig. 4 (f)."""
        started, self._started_intervals = self._started_intervals, []
        return started

    def submit(
        self,
        configurations: Sequence[Configuration],
        runtimes: Optional[Sequence[float]] = None,
    ) -> int:
        """Assign configurations to idle workers at the current search time.

        Returns the number of configurations actually submitted (bounded by
        the number of idle workers); excess configurations are dropped, which
        mirrors the search only ever asking for as many points as there are
        idle workers.

        ``runtimes`` optionally supplies the measured run time per
        configuration, replacing the ``run_function`` calls — used by batch
        drivers that evaluate many campaigns' submissions in one vectorised
        pass.  Values must equal what ``run_function`` would have returned.
        """
        if runtimes is not None and len(runtimes) != len(configurations):
            raise ValueError("runtimes and configurations must have equal length")
        submitted = 0
        idle = self.idle_workers()
        for i, (config, worker) in enumerate(zip(configurations, idle)):
            runtime = float(
                self.run_function(config) if runtimes is None else runtimes[i]
            )
            seq = self._next_seq
            self._next_seq += 1
            decision = (
                None if self.fault_plan is None else self.fault_plan.decide(seq)
            )
            runtime, duration = resolve_outcome(
                config,
                runtime,
                self.duration_function,
                self.failure_duration,
                self.deadline,
                decision,
            )
            lost = crashed = False
            if decision is not None:
                if decision.crash:
                    # The worker dies part-way through; the evaluation is lost
                    # and the "completion" event is the moment of death.
                    crashed = lost = True
                    duration = decision.crash_fraction * duration
                elif decision.lost:
                    lost = True
            self._pending.append(
                PendingEvaluation(
                    configuration=dict(config),
                    worker=worker.index,
                    submitted=self.now,
                    completes_at=self.now + duration,
                    runtime=runtime,
                    seq=seq,
                    lost=lost,
                    crashed=crashed,
                )
            )
            worker.evaluations_running += 1
            worker.busy_until = self.now + duration
            if math.isfinite(duration):
                worker.busy_time += duration
            worker.evaluations += 1
            submitted += 1
            self.num_submitted += 1
            self._started_intervals.append((self.now, self.now + duration))
        return submitted

    # -------------------------------------------------------------- collection
    def next_completion_time(self) -> float:
        """Completion time of the earliest pending evaluation (inf if none)."""
        if not self._pending:
            return float("inf")
        return min(p.completes_at for p in self._pending)

    def advance_to(self, time: float) -> None:
        """Move the manager clock forward (never backwards)."""
        if time < self.now:
            raise ValueError(f"cannot move time backwards ({time} < {self.now})")
        self.now = time

    def collect(self, until: Optional[float] = None) -> List[CompletedEvaluation]:
        """Collect every evaluation completed at or before ``until``.

        ``until`` defaults to the current manager time.  The returned list is
        ordered by completion time.
        """
        horizon = self.now if until is None else until
        # A hung evaluation (infinite completion time) never fires, even
        # against an infinite horizon.
        done = [
            p
            for p in self._pending
            if p.completes_at <= horizon and not math.isinf(p.completes_at)
        ]
        if not done:
            return []
        done.sort(key=lambda p: p.completes_at)
        self._pending = [
            p
            for p in self._pending
            if p.completes_at > horizon or math.isinf(p.completes_at)
        ]
        completed = []
        for p in done:
            worker = self.workers[p.worker]
            worker.evaluations_running -= 1
            if p.crashed:
                worker.dead = True
            if p.lost:
                # The result never reaches the manager: the worker is freed
                # (or dead) but nothing is delivered and nothing is retried —
                # retry lives in the library's SharedWorkerPool.
                self.num_lost += 1
                continue
            completed.append(
                CompletedEvaluation(
                    configuration=p.configuration,
                    worker=p.worker,
                    submitted=p.submitted,
                    completed=p.completes_at,
                    runtime=p.runtime,
                    seq=p.seq,
                )
            )
            self.num_collected += 1
        return completed

    def wait_any(self, max_time: float) -> Tuple[float, List[CompletedEvaluation]]:
        """Advance to the next completion (capped at ``max_time``) and collect.

        Returns the new manager time and the collected evaluations (empty if
        the cap was reached before any completion).  Raises
        :class:`EvaluatorStalledError` when evaluations are outstanding but
        none can ever complete (every one of them hangs with no deadline) —
        waiting would otherwise spin the clock forever.
        """
        if self._pending and self.next_completion_time() == math.inf:
            raise EvaluatorStalledError(
                f"{len(self._pending)} pending evaluation(s) will never "
                "complete (hung with no deadline)"
            )
        target = min(self.next_completion_time(), max_time)
        if target < self.now:
            target = self.now
        self.advance_to(target)
        return self.now, self.collect()

    # ------------------------------------------------------------------ stats
    def utilization(self, horizon: float) -> float:
        """Fraction of worker time spent evaluating within ``[0, horizon]``.

        Evaluations still running at the horizon contribute only the portion
        before it.
        """
        if horizon <= 0:
            return 0.0
        total_busy = 0.0
        for worker in self.workers:
            # busy_time counts full durations; clip the part beyond the horizon.
            over = max(0.0, worker.busy_until - horizon)
            if not math.isfinite(over):
                # A hung evaluation (infinite busy_until) contributes nothing
                # beyond what busy_time recorded for its finite predecessors.
                over = 0.0
            total_busy += max(0.0, worker.busy_time - over)
        return float(total_busy / (horizon * self.num_workers))

    # ---------------------------------------------------------- durable state
    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of the evaluator's full dynamic state.

        Together with the constructor arguments (run function, worker count,
        failure duration, deadline, fault plan) this is sufficient to rebuild
        the evaluator mid-campaign: the pending evaluations, per-worker
        bookkeeping, virtual clock, counters and the fault-decision sequence
        cursor.  Floats survive the JSON round trip bit-exactly (``repr``
        shortest round-trip), which the resume bit-identity contract relies
        on.
        """
        return {
            "now": self.now,
            "num_submitted": self.num_submitted,
            "num_collected": self.num_collected,
            "num_lost": self.num_lost,
            "next_seq": self._next_seq,
            "pending": [
                {
                    "configuration": dict(p.configuration),
                    "worker": p.worker,
                    "submitted": p.submitted,
                    "completes_at": p.completes_at,
                    "runtime": p.runtime,
                    "seq": p.seq,
                    "lost": p.lost,
                    "crashed": p.crashed,
                }
                for p in self._pending
            ],
            "workers": [
                {
                    "busy_until": w.busy_until,
                    "busy_time": w.busy_time,
                    "evaluations": w.evaluations,
                    "evaluations_running": w.evaluations_running,
                    "dead": w.dead,
                }
                for w in self.workers
            ],
            "started_intervals": [list(t) for t in self._started_intervals],
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this evaluator.

        The evaluator must have been constructed with the same structural
        arguments (worker count in particular) as the one that produced the
        snapshot.
        """
        if len(state["workers"]) != self.num_workers:
            raise ValueError(
                f"snapshot has {len(state['workers'])} workers, "
                f"evaluator has {self.num_workers}"
            )
        self.now = float(state["now"])
        self.num_submitted = int(state["num_submitted"])
        self.num_collected = int(state["num_collected"])
        self.num_lost = int(state["num_lost"])
        self._next_seq = int(state["next_seq"])
        self._pending = [
            PendingEvaluation(
                configuration=dict(p["configuration"]),
                worker=int(p["worker"]),
                submitted=float(p["submitted"]),
                completes_at=float(p["completes_at"]),
                runtime=float(p["runtime"]),
                seq=int(p["seq"]),
                lost=bool(p["lost"]),
                crashed=bool(p["crashed"]),
            )
            for p in state["pending"]
        ]
        for worker, w in zip(self.workers, state["workers"]):
            worker.busy_until = float(w["busy_until"])
            worker.busy_time = float(w["busy_time"])
            worker.evaluations = int(w["evaluations"])
            worker.evaluations_running = int(w["evaluations_running"])
            worker.dead = bool(w["dead"])
        self._started_intervals = [
            (float(a), float(b)) for a, b in state["started_intervals"]
        ]


def oracle_factory(run_function, num_workers, failure_duration):
    """A ``CBOSearch(evaluator_factory=...)`` that builds the oracle."""
    return AsyncVirtualEvaluator(
        run_function, num_workers=num_workers, failure_duration=failure_duration
    )
