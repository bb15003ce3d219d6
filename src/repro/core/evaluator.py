"""Virtual-clock evaluation: one worker pool behind the evaluator protocol.

The paper runs each search for one hour on 128 Theta nodes: every node is a
*worker* that executes one HEP workflow instance at a time, and the manager
(DeepHyper) asynchronously collects results and submits new configurations
through one evaluator interface.

The reproduction replaces the physical workers with a virtual-clock pool: a
worker that receives a configuration at search time ``t`` produces its result
at ``t + duration``, where ``duration`` is the simulated run time of the
workflow instance (or the kill limit for configurations that time out).  This
preserves the property the paper's asynchronous method exploits — *fast
configurations come back sooner and update the model more often* — while
letting an entire one-hour 128-worker campaign execute in seconds of real
time.

:class:`SharedWorkerPool` owns the workers, the virtual clock, a FIFO request
queue and the fault-tolerance policy; :class:`ServiceEvaluator` is one
campaign's client of it, speaking the ``submit`` / ``collect`` /
``wait_any`` protocol the search loop drives.  Every
:class:`~repro.core.search.CBOSearch` without an ``evaluator_factory`` runs
on a client of a **private** pool of ``num_workers``.  Campaigns may instead
share one pool through ``CBOSearch(evaluator_factory=pool.evaluator_factory())``
— the scale-out form of the paper's one shared HEPnOS service — and then
share its workers and its clock.  Requests beyond the pool's idle capacity
are **queued** and start the moment a worker frees up.

The pool also tracks per-worker busy intervals, from which the worker
utilisation metric of Fig. 4 (d)/(f) is computed.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.space import Configuration
from repro.sim.faults import FaultDecision, FaultPlan, make_fault_plan

__all__ = [
    "PendingEvaluation",
    "CompletedEvaluation",
    "WorkerState",
    "SharedWorkerPool",
    "ServiceEvaluator",
    "EvaluatorStalledError",
]

#: Default duration charged for evaluations that fail/time out (the paper
#: kills a workflow instance after 600 s = 2 × 300 s steps).
DEFAULT_FAILURE_DURATION = 600.0


class EvaluatorStalledError(RuntimeError):
    """No pending or queued evaluation can ever complete.

    Raised by ``wait_any`` instead of looping (or advancing the clock)
    forever when every outstanding evaluation hangs with no deadline to kill
    it, or when queued work can never start because every worker has died.
    Only fault injection can produce either situation; a fault-free pool
    never raises this.
    """


def resolve_duration(
    config: Configuration,
    runtime: float,
    duration_function: Optional[Callable[[Configuration, float], float]],
    failure_duration: float,
) -> float:
    """Virtual time an evaluation occupies its worker.

    The measured runtime for finite positive values, ``failure_duration``
    otherwise, unless ``duration_function`` overrides.
    """
    if duration_function is not None:
        return float(duration_function(config, runtime))
    if math.isfinite(runtime) and runtime > 0:
        return runtime
    return failure_duration


def resolve_outcome(
    config: Configuration,
    runtime: float,
    duration_function: Optional[Callable[[Configuration, float], float]],
    failure_duration: float,
    deadline: Optional[float] = None,
    decision: Optional[FaultDecision] = None,
) -> Tuple[float, float]:
    """Effective ``(runtime, duration)`` of an evaluation under faults.

    Extends :func:`resolve_duration` with the two fault-tolerance layers,
    applied in order; any evaluator that resolves outcomes through it meets
    the same faults bit for bit:

    1. the fault decision — a ``fail`` replaces the measured runtime with
       NaN before duration resolution, a straggler multiplies the resolved
       duration, a hang makes it infinite;
    2. the deadline (the paper's 600 s kill limit) — any duration exceeding
       it is cut to the deadline and the measurement becomes NaN (the
       workflow instance was killed, so no result was produced).

    With ``deadline=None`` and a healthy decision this is exactly
    :func:`resolve_duration`; the fault-free path is unchanged.
    """
    if decision is not None and decision.fail:
        runtime = float("nan")
    duration = resolve_duration(config, runtime, duration_function, failure_duration)
    if decision is not None:
        if decision.straggler_factor != 1.0:
            duration *= decision.straggler_factor
        if decision.hang:
            duration = math.inf
    if deadline is not None and duration > deadline:
        duration = deadline
        runtime = float("nan")
    return runtime, duration


@dataclass
class PendingEvaluation:
    """An evaluation currently running on a worker.

    ``seq`` is the evaluator-wide submission sequence number (used to key
    deterministic fault decisions); ``lost``/``crashed`` mark evaluations
    whose results will never reach the manager — at ``completes_at`` the
    worker is freed (``lost``) or dies (``crashed``) without delivering a
    result.  Fault-free evaluations always have ``lost == crashed == False``.
    """

    configuration: Configuration
    worker: int
    submitted: float
    completes_at: float
    runtime: float
    seq: int = -1
    lost: bool = False
    crashed: bool = False


@dataclass(frozen=True)
class CompletedEvaluation:
    """An evaluation whose result has been collected by the manager."""

    configuration: Configuration
    worker: int
    submitted: float
    completed: float
    runtime: float
    seq: int = -1

    @property
    def duration(self) -> float:
        """Time the worker was busy with this evaluation."""
        return self.completed - self.submitted


@dataclass
class WorkerState:
    """Bookkeeping for one worker."""

    index: int
    busy_until: float = 0.0
    busy_time: float = 0.0
    evaluations: int = 0

    @property
    def idle(self) -> bool:
        """Whether the worker currently has no assigned evaluation."""
        return self.evaluations_running == 0 and not self.dead

    evaluations_running: int = 0
    #: A crashed worker never accepts work again (fault injection only).
    dead: bool = False


class SharedWorkerPool:
    """A virtual-time worker fleet shared by one or more evaluator clients.

    The pool also owns the service's fault-tolerance policy.  Work lost to an
    injected fault (a dropped result or a crashed worker) is resubmitted with
    exponential backoff — the retry becomes ready ``backoff_base * 2**attempt``
    after the loss and joins the queue like any other request — until
    ``max_retries`` resubmissions have been consumed, at which point the
    configuration is declared failed and a NaN result is delivered to its
    owner (the standard failure tell).  ``deadline`` enforces the paper's
    per-evaluation kill limit: any evaluation whose duration would exceed it
    is cut off at the deadline and reported as failed.  All of this is inert
    without a fault plan or deadline; the fault-free path is bit-identical to
    a pool without the policy.

    Parameters
    ----------
    num_workers:
        Number of workers in the pool (the service's capacity).
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting deterministic
        faults into the pool's evaluations.
    deadline:
        Optional per-evaluation kill limit in virtual seconds.
    max_retries:
        Resubmissions allowed per configuration lost to a fault before it is
        declared failed.
    backoff_base:
        Backoff before the first resubmission, doubled per further attempt.
    tenant_slots:
        Optional per-tenant worker-slot caps (``{tenant: max_running}``): a
        tenant at its cap has further requests queued even while workers sit
        idle, so no tenant can monopolise the fleet.  Tenants absent from
        the mapping are uncapped.  Queued requests of capped tenants are
        overtaken by admissible ones (per-tenant fairness); within one
        tenant, FIFO order is preserved.  ``None`` (default) disables the
        accounting entirely — the scheduling is then bit-identical to the
        historic pool.
    """

    def __init__(
        self,
        num_workers: int = 128,
        fault_plan: Optional[FaultPlan] = None,
        deadline: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 30.0,
        tenant_slots: Optional[Dict[str, int]] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if tenant_slots is not None:
            tenant_slots = {str(k): int(v) for k, v in tenant_slots.items()}
            if any(v < 1 for v in tenant_slots.values()):
                raise ValueError("tenant_slots caps must be >= 1")
        self.tenant_slots = tenant_slots
        #: Running evaluations per tenant (all tenants ever seen).
        self._tenant_running: Dict[str, int] = {}
        #: High-water mark of concurrently running evaluations per tenant —
        #: the fairness tests assert shares against this.
        self.tenant_peak_running: Dict[str, int] = {}
        self.num_workers = int(num_workers)
        self.fault_plan = make_fault_plan(fault_plan)
        self.deadline = None if deadline is None else float(deadline)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.workers = [WorkerState(index=i) for i in range(self.num_workers)]
        self.now = 0.0
        self._next_seq = 0
        #: Running evaluations: (pending, owner, sequence-number) triples.
        self._running: List[Tuple[PendingEvaluation, "ServiceEvaluator", int]] = []
        #: Requests accepted while no worker was idle, in arrival order:
        #: (owner, configuration, precomputed runtime or None, attempt).
        self._queue: Deque[
            Tuple["ServiceEvaluator", Configuration, Optional[float], int]
        ] = deque()
        #: Lost work awaiting its backoff: a heap of
        #: (ready_at, order, owner, configuration, runtime, attempt).
        self._delayed: List[
            Tuple[float, int, "ServiceEvaluator", Configuration, Optional[float], int]
        ] = []
        self._retry_order = 0
        #: Resubmission attempt of each running evaluation, keyed by its
        #: sequence number (populated only under a fault plan).
        self._attempts: Dict[int, int] = {}
        self.num_lost = 0
        self.num_retried = 0
        self.num_exhausted = 0
        self.clients: List["ServiceEvaluator"] = []
        #: Guards the queue, the running list, the retry heap, the clock and
        #: the per-tenant slot accounting.  Re-entrant: ``process_until``
        #: holds it while calling ``_drain_queue``/``_start``, and a client's
        #: ``wait_any`` holds it across the advance-then-collect sequence so
        #: several threads can drive clients of one pool concurrently.
        #: Event order stays deterministic because virtual time, not thread
        #: arrival, orders the events each holder fires.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------ state
    def idle_workers(self) -> List[WorkerState]:
        """Workers without a running evaluation (dead workers excluded)."""
        return [w for w in self.workers if w.idle]

    @property
    def num_dead(self) -> int:
        """Number of workers that crashed and left service permanently."""
        return sum(1 for w in self.workers if w.dead)

    @property
    def num_idle(self) -> int:
        """Number of idle workers."""
        return len(self.idle_workers())

    @property
    def num_pending(self) -> int:
        """Number of evaluations currently running on the pool."""
        return len(self._running)

    @property
    def num_queued(self) -> int:
        """Number of accepted requests waiting for a worker."""
        return len(self._queue)

    def next_completion_time(self) -> float:
        """Completion time of the earliest running evaluation (inf if none)."""
        with self.lock:
            if not self._running:
                return float("inf")
            return min(p.completes_at for p, _, _ in self._running)

    def next_event_time(self) -> float:
        """Time of the pool's next event: a completion or a retry release."""
        with self.lock:
            next_retry = self._delayed[0][0] if self._delayed else float("inf")
            return min(self.next_completion_time(), next_retry)

    def advance_to(self, time: float) -> None:
        """Move the shared clock forward (never backwards)."""
        with self.lock:
            if time < self.now:
                raise ValueError(f"cannot move time backwards ({time} < {self.now})")
            self.now = time

    # ------------------------------------------------------------- scheduling
    def evaluator_factory(self, tenant: str = "default") -> Callable:
        """A ``(run_function, num_workers, failure_duration) → evaluator``
        factory binding new :class:`ServiceEvaluator` clients to this pool
        (the ``num_workers`` argument is ignored — capacity belongs to the
        pool).  Plugs straight into ``CBOSearch(evaluator_factory=...)``.
        ``tenant`` labels the clients for the pool's per-tenant slot
        accounting (see ``tenant_slots``).
        """

        def factory(run_function, num_workers, failure_duration):
            return ServiceEvaluator(
                run_function, pool=self, failure_duration=failure_duration,
                tenant=tenant,
            )

        return factory

    def tenant_running(self, tenant: str) -> int:
        """Number of evaluations the tenant is currently running."""
        return self._tenant_running.get(tenant, 0)

    def _tenant_admissible(self, client: "ServiceEvaluator") -> bool:
        """Whether starting one more of ``client``'s requests respects its
        tenant's slot cap (always true without ``tenant_slots``)."""
        if self.tenant_slots is None:
            return True
        cap = self.tenant_slots.get(client.tenant)
        if cap is None:
            return True
        return self._tenant_running.get(client.tenant, 0) < cap

    def _start(
        self,
        client: "ServiceEvaluator",
        config: Configuration,
        at_time: float,
        worker: WorkerState,
        runtime: Optional[float] = None,
        attempt: int = 0,
    ) -> PendingEvaluation:
        runtime = float(client.run_function(config) if runtime is None else runtime)
        seq = self._next_seq
        self._next_seq += 1
        decision = None if self.fault_plan is None else self.fault_plan.decide(seq)
        runtime, duration = resolve_outcome(
            config,
            runtime,
            client.duration_function,
            client.failure_duration,
            self.deadline,
            decision,
        )
        lost = crashed = False
        if decision is not None:
            if decision.crash:
                # The worker dies part-way through; the evaluation is lost and
                # the "completion" event is the moment of death.
                crashed = lost = True
                duration = decision.crash_fraction * duration
            elif decision.lost:
                lost = True
            if lost:
                self._attempts[seq] = attempt
        pending = PendingEvaluation(
            configuration=dict(config),
            worker=worker.index,
            submitted=at_time,
            completes_at=at_time + duration,
            runtime=runtime,
            seq=seq,
            lost=lost,
            crashed=crashed,
        )
        worker.evaluations_running += 1
        worker.busy_until = at_time + duration
        if math.isfinite(duration):
            worker.busy_time += duration
        worker.evaluations += 1
        running = self._tenant_running.get(client.tenant, 0) + 1
        self._tenant_running[client.tenant] = running
        if running > self.tenant_peak_running.get(client.tenant, 0):
            self.tenant_peak_running[client.tenant] = running
        self._running.append((pending, client, seq))
        client._own_running.append(pending)
        client.num_submitted += 1
        client._started_intervals.append((at_time, at_time + duration))
        return pending

    def submit(self, client: "ServiceEvaluator", configurations, runtimes=None) -> int:
        """Accept requests from ``client``: start on idle workers, queue the rest.

        Thread-safe: the idle-worker scan, the starts and the queue appends
        are one critical section, so concurrent submitters cannot start two
        evaluations on one worker or interleave their queue entries.
        """
        if runtimes is not None and len(runtimes) != len(configurations):
            raise ValueError("runtimes and configurations must have equal length")
        with self.lock:
            accepted = 0
            idle = deque(self.idle_workers())
            for i, config in enumerate(configurations):
                runtime = None if runtimes is None else runtimes[i]
                if idle and self._tenant_admissible(client):
                    self._start(client, config, self.now, idle.popleft(), runtime)
                else:
                    self._queue.append((client, dict(config), runtime, 0))
                accepted += 1
            return accepted

    def _handle_loss(self, pending: PendingEvaluation, owner: "ServiceEvaluator") -> None:
        """Retry (with backoff) or give up on an evaluation lost to a fault."""
        attempt = self._attempts.pop(pending.seq, 0)
        if attempt >= self.max_retries:
            # Retries exhausted: declare the configuration failed at the time
            # of the final loss, so the owner tells NaN like any failure.
            self.num_exhausted += 1
            owner._done.append(
                CompletedEvaluation(
                    configuration=pending.configuration,
                    worker=pending.worker,
                    submitted=pending.submitted,
                    completed=pending.completes_at,
                    runtime=float("nan"),
                    seq=pending.seq,
                )
            )
            return
        self.num_retried += 1
        ready_at = pending.completes_at + self.backoff_base * (2.0 ** attempt)
        self._retry_order += 1
        heapq.heappush(
            self._delayed,
            (
                ready_at,
                self._retry_order,
                owner,
                pending.configuration,
                None,
                attempt + 1,
            ),
        )

    def process_until(self, horizon: float) -> None:
        """Fire every pool event at or before ``horizon``.

        Events are completions and retry releases, interleaved in time order
        (a retry whose backoff expires at the same instant a completion fires
        is released first, so it can take the freed worker's place in the
        queue ahead of nothing — ties are rare and deterministic either way).
        Completions fire in ``(completion time, submission order)`` order;
        each freed worker immediately picks up the oldest queued request,
        which starts at the freeing completion's time (and may itself
        complete within the horizon).  An evaluation flagged lost or crashed
        delivers no result: the worker is freed (or dies) and the loss is
        handed to the retry policy.
        """
        with self.lock:
            self._process_until_locked(horizon)

    def _process_until_locked(self, horizon: float) -> None:
        while True:
            next_retry = self._delayed[0][0] if self._delayed else float("inf")
            pos = None
            next_comp = float("inf")
            if self._running:
                pos = min(
                    range(len(self._running)),
                    key=lambda i: (self._running[i][0].completes_at, self._running[i][2]),
                )
                next_comp = self._running[pos][0].completes_at
            if next_retry <= next_comp:
                if next_retry > horizon or math.isinf(next_retry):
                    return
                ready_at, _, client, config, runtime, attempt = heapq.heappop(
                    self._delayed
                )
                idle = self.idle_workers()
                if idle and self._tenant_admissible(client):
                    self._start(client, config, ready_at, idle[0], runtime, attempt)
                else:
                    self._queue.append((client, config, runtime, attempt))
                continue
            if pos is None or next_comp > horizon or math.isinf(next_comp):
                return
            pending, owner, _ = self._running[pos]
            del self._running[pos]
            worker = self.workers[pending.worker]
            worker.evaluations_running -= 1
            if pending.crashed:
                worker.dead = True
            self._tenant_running[owner.tenant] -= 1
            owner._own_running.remove(pending)
            if pending.lost:
                self.num_lost += 1
                self._handle_loss(pending, owner)
            else:
                owner._done.append(
                    CompletedEvaluation(
                        configuration=pending.configuration,
                        worker=pending.worker,
                        submitted=pending.submitted,
                        completed=pending.completes_at,
                        runtime=pending.runtime,
                        seq=pending.seq,
                    )
                )
            self._drain_queue(pending.completes_at)

    def _drain_queue(self, at_time: float) -> None:
        """Start queued requests on idle workers, honouring tenant caps.

        The oldest *admissible* queued request starts on the lowest-index
        idle worker, repeatedly: a completion can free both a worker and a
        tenant slot, unblocking requests of other tenants queued behind a
        capped one.  Without ``tenant_slots`` this degenerates to the
        historic drain — at a completion, at most the freed worker is idle
        while the queue is non-empty, so exactly the oldest queued request
        starts on it.
        """
        while self._queue:
            idle = self.idle_workers()
            if not idle:
                return
            pos = None
            for i, entry in enumerate(self._queue):
                if self._tenant_admissible(entry[0]):
                    pos = i
                    break
            if pos is None:
                return
            client, config, runtime, attempt = self._queue[pos]
            del self._queue[pos]
            self._start(client, config, at_time, idle[0], runtime, attempt)

    # ------------------------------------------------------------------ stats
    def utilization(self, horizon: float) -> float:
        """Fraction of pool worker time spent evaluating within ``[0, horizon]``.

        Evaluations still running at the horizon contribute only the portion
        before it.
        """
        if horizon <= 0:
            return 0.0
        total_busy = 0.0
        with self.lock:
            workers = list(self.workers)
        for worker in workers:
            over = max(0.0, worker.busy_until - horizon)
            if not math.isfinite(over):
                # A hung evaluation (infinite busy_until) contributes nothing
                # beyond what busy_time recorded for its finite predecessors.
                over = 0.0
            total_busy += max(0.0, worker.busy_time - over)
        return float(total_busy / (horizon * self.num_workers))

    # ---------------------------------------------------------- durable state
    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of the pool's full dynamic state.

        Only supported for single-client (private) pools: a shared pool's
        state belongs to every campaign using it, so no one campaign's
        journal may claim it.  Floats survive the JSON round trip bit-exactly.
        """
        if len(self.clients) != 1:
            raise RuntimeError(
                "state snapshots require a private (single-client) pool; "
                f"this pool has {len(self.clients)} clients"
            )
        with self.lock:
            return self._state_dict_locked()

    def _state_dict_locked(self) -> Dict:
        return {
            "now": self.now,
            "next_seq": self._next_seq,
            "retry_order": self._retry_order,
            "num_lost": self.num_lost,
            "num_retried": self.num_retried,
            "num_exhausted": self.num_exhausted,
            "running": [
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
                for p, _, _ in self._running
            ],
            "queue": [
                {"configuration": dict(c), "runtime": r, "attempt": a}
                for _, c, r, a in self._queue
            ],
            "delayed": [
                {
                    "ready_at": ready_at,
                    "order": order,
                    "configuration": dict(c),
                    "runtime": r,
                    "attempt": a,
                }
                for ready_at, order, _, c, r, a in sorted(self._delayed)
            ],
            "attempts": {str(seq): a for seq, a in self._attempts.items()},
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
        }

    def load_state_dict(self, state: Dict, client: "ServiceEvaluator") -> None:
        """Restore a :meth:`state_dict` snapshot onto this (private) pool.

        ``client`` is the pool's sole client; every running, queued and
        delayed request in the snapshot is re-attributed to it.
        """
        if len(state["workers"]) != self.num_workers:
            raise ValueError(
                f"snapshot has {len(state['workers'])} workers, "
                f"pool has {self.num_workers}"
            )
        with self.lock:
            self._load_state_dict_locked(state, client)

    def _load_state_dict_locked(self, state: Dict, client: "ServiceEvaluator") -> None:
        self.now = float(state["now"])
        self._next_seq = int(state["next_seq"])
        self._retry_order = int(state["retry_order"])
        self.num_lost = int(state["num_lost"])
        self.num_retried = int(state["num_retried"])
        self.num_exhausted = int(state["num_exhausted"])
        self._running = []
        client._own_running = []
        # Restored running work all belongs to the sole client; the peak is
        # a statistic and intentionally not restored.
        self._tenant_running = {client.tenant: len(state["running"])}
        for p in state["running"]:
            pending = PendingEvaluation(
                configuration=dict(p["configuration"]),
                worker=int(p["worker"]),
                submitted=float(p["submitted"]),
                completes_at=float(p["completes_at"]),
                runtime=float(p["runtime"]),
                seq=int(p["seq"]),
                lost=bool(p["lost"]),
                crashed=bool(p["crashed"]),
            )
            self._running.append((pending, client, pending.seq))
            client._own_running.append(pending)
        self._queue = deque(
            (client, dict(q["configuration"]), q["runtime"], int(q["attempt"]))
            for q in state["queue"]
        )
        self._delayed = [
            (
                float(d["ready_at"]),
                int(d["order"]),
                client,
                dict(d["configuration"]),
                d["runtime"],
                int(d["attempt"]),
            )
            for d in state["delayed"]
        ]
        heapq.heapify(self._delayed)
        self._attempts = {int(k): int(v) for k, v in state["attempts"].items()}
        for worker, w in zip(self.workers, state["workers"]):
            worker.busy_until = float(w["busy_until"])
            worker.busy_time = float(w["busy_time"])
            worker.evaluations = int(w["evaluations"])
            worker.evaluations_running = int(w["evaluations_running"])
            worker.dead = bool(w["dead"])


class ServiceEvaluator:
    """One campaign's client of a (possibly shared) :class:`SharedWorkerPool`.

    Implements the asynchronous evaluation protocol the search loop drives —
    ``submit``, ``collect``, ``wait_any``, ``advance_to``, ``now``,
    ``num_idle`` / ``num_pending``, ``drain_started_intervals``,
    ``utilization`` and ``state_dict`` / ``load_state_dict`` — against a
    worker pool that may be serving other campaigns concurrently.

    Parameters
    ----------
    run_function:
        Configuration → measured run time in seconds (NaN for failures).
    pool:
        The worker pool to join; ``None`` creates a private pool of
        ``num_workers`` — the evaluator of every campaign without an
        ``evaluator_factory``.
    num_workers:
        Capacity of the private pool when ``pool`` is ``None``.
    failure_duration:
        Virtual time a failed evaluation occupies its worker.
    duration_function:
        Optional override mapping ``(configuration, runtime)`` to the
        evaluation's virtual duration.
    deadline, fault_plan, max_retries, backoff_base:
        Fault-tolerance policy forwarded to the **private** pool (see
        :class:`SharedWorkerPool`).  When joining an existing pool the policy
        belongs to that pool, so passing any of these with ``pool`` raises.
    tenant:
        Tenant label for the pool's per-tenant slot accounting
        (``SharedWorkerPool(tenant_slots=...)``); inert unless the pool caps
        this tenant.
    """

    def __init__(
        self,
        run_function: Callable[[Configuration], float],
        pool: Optional[SharedWorkerPool] = None,
        num_workers: int = 128,
        failure_duration: float = DEFAULT_FAILURE_DURATION,
        duration_function: Optional[Callable[[Configuration, float], float]] = None,
        deadline: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_retries: Optional[int] = None,
        backoff_base: Optional[float] = None,
        tenant: str = "default",
    ):
        if failure_duration <= 0:
            raise ValueError("failure_duration must be positive")
        if pool is not None and any(
            v is not None for v in (deadline, fault_plan, max_retries, backoff_base)
        ):
            raise ValueError(
                "deadline/fault_plan/max_retries/backoff_base belong to the "
                "pool; configure them on the SharedWorkerPool instead"
            )
        self.run_function = run_function
        if pool is None:
            policy = {}
            if max_retries is not None:
                policy["max_retries"] = max_retries
            if backoff_base is not None:
                policy["backoff_base"] = backoff_base
            pool = SharedWorkerPool(
                num_workers, fault_plan=fault_plan, deadline=deadline, **policy
            )
        self.pool = pool
        self.tenant = str(tenant)
        self.failure_duration = float(failure_duration)
        self.duration_function = duration_function
        self.num_submitted = 0
        self.num_collected = 0
        self._own_running: List[PendingEvaluation] = []
        self._done: List[CompletedEvaluation] = []
        self._started_intervals: List[Tuple[float, float]] = []
        self.pool.clients.append(self)

    # ----------------------------------------------------------- delegations
    @property
    def num_workers(self) -> int:
        """Capacity of the underlying pool."""
        return self.pool.num_workers

    @property
    def now(self) -> float:
        """The shared virtual clock."""
        return self.pool.now

    def advance_to(self, time: float) -> None:
        """Move the shared clock forward (never backwards)."""
        self.pool.advance_to(time)

    @property
    def num_idle(self) -> int:
        """Number of idle pool workers."""
        return self.pool.num_idle

    @property
    def num_pending(self) -> int:
        """Number of *this client's* evaluations currently running."""
        return len(self._own_running)

    @property
    def num_queued(self) -> int:
        """Number of this client's requests still waiting for a worker."""
        with self.pool.lock:
            return sum(1 for entry in self.pool._queue if entry[0] is self)

    def drain_started_intervals(self) -> List[Tuple[float, float]]:
        """``(submitted, completes_at)`` of this client's evaluations started
        since the last drain, in start order — includes requests that waited
        in the queue and started when a worker freed up."""
        with self.pool.lock:
            started, self._started_intervals = self._started_intervals, []
        return started

    # ------------------------------------------------------------- submission
    def submit(self, configurations, runtimes=None) -> int:
        """Send requests to the pool at the current time.

        Requests beyond the pool's idle capacity are **queued**, not dropped,
        so the return value is the number of requests accepted (all of
        them).  ``runtimes`` optionally supplies the measured run time per
        configuration, replacing the ``run_function`` calls — batch drivers
        evaluate many campaigns' submissions in one vectorised pass.  Values
        must equal what ``run_function`` would have returned.
        """
        return self.pool.submit(self, configurations, runtimes)

    # -------------------------------------------------------------- collection
    def collect(self, until: Optional[float] = None) -> List[CompletedEvaluation]:
        """Collect this client's evaluations completed at or before ``until``.

        ``until`` defaults to the current shared time.  The returned list is
        ordered by completion time.  Runs under the pool lock: processing can
        append to *other* clients' done lists (their completions fire while
        the clock advances), so the read-filter-rewrite of ``self._done``
        must be atomic with it.
        """
        with self.pool.lock:
            horizon = self.pool.now if until is None else until
            self.pool.process_until(horizon)
            ready = [c for c in self._done if c.completed <= horizon]
            if not ready:
                return []
            self._done = [c for c in self._done if c.completed > horizon]
            ready.sort(key=lambda c: c.completed)
            self.num_collected += len(ready)
            return ready

    def wait_any(self, max_time: float) -> Tuple[float, List[CompletedEvaluation]]:
        """Advance to this client's next completion (capped) and collect.

        Completions of *other* clients sharing the pool are processed along
        the way (freeing workers and draining the queue); the clock stops at
        the first time this client has results, or at ``max_time``.  Raises
        :class:`~repro.core.evaluator.EvaluatorStalledError` when this client
        has outstanding work but the pool has no future event that could ever
        deliver it (every pending evaluation hangs without a deadline, or
        queued work is starved because every worker died).

        The whole advance-then-collect loop holds the pool lock: clients of
        one pool driven from several threads serialise here, and virtual
        time (not thread arrival order) still decides which events fire.
        """
        pool = self.pool
        with pool.lock:
            return self._wait_any_locked(max_time)

    def _wait_any_locked(self, max_time: float) -> Tuple[float, List[CompletedEvaluation]]:
        pool = self.pool
        while True:
            if (
                (self._own_running or self.num_queued)
                and not self._done
                and pool.next_event_time() == math.inf
            ):
                raise EvaluatorStalledError(
                    f"{len(self._own_running)} running and {self.num_queued} "
                    "queued evaluation(s) can never complete "
                    f"({pool.num_dead} of {pool.num_workers} workers dead)"
                )
            target = min(pool.next_event_time(), max_time)
            if target < pool.now:
                target = pool.now
            if math.isinf(target):
                # Nothing will ever happen and this client has nothing
                # outstanding: do not spin the shared clock to infinity.
                return pool.now, []
            pool.advance_to(target)
            collected = self.collect()
            if (
                collected
                or pool.now >= max_time
                or (not pool._running and not pool._delayed)
            ):
                return pool.now, collected

    # ------------------------------------------------------------------ stats
    def utilization(self, horizon: float) -> float:
        """Pool-level utilisation within ``[0, horizon]``.

        With a private pool this is the campaign's own utilisation; with a
        shared pool it reflects the whole service (the per-campaign share is
        not separable at the worker level).
        """
        return self.pool.utilization(horizon)

    # ---------------------------------------------------------- durable state
    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of this client plus its private pool.

        Raises for shared pools (see :meth:`SharedWorkerPool.state_dict`):
        a shared pool's clock and queue belong to every campaign using it.
        """
        return {
            "pool": self.pool.state_dict(),
            "num_submitted": self.num_submitted,
            "num_collected": self.num_collected,
            "done": [
                {
                    "configuration": dict(c.configuration),
                    "worker": c.worker,
                    "submitted": c.submitted,
                    "completed": c.completed,
                    "runtime": c.runtime,
                    "seq": c.seq,
                }
                for c in self._done
            ],
            "started_intervals": [list(t) for t in self._started_intervals],
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this client and pool."""
        self.pool.load_state_dict(state["pool"], self)
        self.num_submitted = int(state["num_submitted"])
        self.num_collected = int(state["num_collected"])
        self._done = [
            CompletedEvaluation(
                configuration=dict(c["configuration"]),
                worker=int(c["worker"]),
                submitted=float(c["submitted"]),
                completed=float(c["completed"]),
                runtime=float(c["runtime"]),
                seq=int(c["seq"]),
            )
            for c in state["done"]
        ]
        self._started_intervals = [
            (float(a), float(b)) for a, b in state["started_intervals"]
        ]
