"""Discrete-event simulation kernel.

This subpackage provides a small, dependency-free discrete-event simulation
(DES) engine in the spirit of SimPy.  It is the foundation for every simulator
in this repository: the Mochi software stack (:mod:`repro.mochi`), the HEPnOS
storage service (:mod:`repro.hepnos`), and the HEP event-selection workflow
(:mod:`repro.hep`).

The engine is deliberately compact but complete enough for queueing-style
models:

* :class:`~repro.sim.engine.Environment` — the event loop and virtual clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout` —
  primitive events.
* :class:`~repro.sim.process.Process` — generator-based simulated processes.
* :class:`~repro.sim.resources.Resource` — capacity-limited resources with
  FIFO or priority queueing (used to model CPU cores, thread pools, network
  links).
* :class:`~repro.sim.resources.Store` — producer/consumer item stores (used to
  model work queues and RPC mailboxes).
* :class:`~repro.sim.resources.Container` — continuous-level containers.

It also hosts the deterministic fault-injection harness
(:class:`~repro.sim.faults.FaultPlan`) used to stress the evaluator's
worker pool with worker crashes, hangs, stragglers and lost results.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.faults import FaultDecision, FaultPlan
from repro.sim.process import Process
from repro.sim.resources import Container, PriorityResource, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FaultDecision",
    "FaultPlan",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
