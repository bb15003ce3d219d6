"""The ``service_http`` server process: ``StudyFrontend`` over a journaled registry.

Started by :mod:`service` as ``python3 server.py --root DIR``.  It prints one
JSON line with its address, then obeys one command per stdin line and
answers each with one JSON line on stdout:

``trace``           wrap the layers (registry, search, surrogates, journal)
                    from now on
``evict NAME ...``  evict the named finished studies from the registry
``stats``           the process's CPU time (:class:`common.ProgramCpu`) and
                    peak RSS, the CPU time of every POST request handled
                    since the last ``stats`` (by path, in order), and the
                    span summary recorded since ``trace``
``stop``            shut the frontend down and exit (also on end of input)

Each request's CPU time is its handler thread's (``time.thread_time``), so
waiting for the registry lock or for a stolen CPU does not count.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import FsyncCounter, ProgramCpu, peak_rss_mb, target_space  # noqa: E402
from repro.core.search import CBOSearch  # noqa: E402
from repro.core.surrogate import RandomForestSurrogate  # noqa: E402
from repro.service import CampaignRegistry, StudyFrontend  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402

NUM_WORKERS = 4
NUM_CANDIDATES = 128


def _client_evaluates(config):
    raise RuntimeError("ask/tell studies are evaluated by the client")


def make_templates():
    """Study templates: the same RF and GP searches the clients ask for."""
    space = target_space()

    def rf(seed: int):
        return CBOSearch(space, _client_evaluates, num_workers=NUM_WORKERS,
                         surrogate=RandomForestSurrogate(seed=seed),
                         n_initial_points=NUM_WORKERS,
                         num_candidates=NUM_CANDIDATES, seed=seed)

    def gp(seed: int):
        return CBOSearch(space, _client_evaluates, num_workers=NUM_WORKERS,
                         surrogate="GP", n_initial_points=NUM_WORKERS,
                         num_candidates=NUM_CANDIDATES, seed=seed)

    return {"rf": rf, "gp": gp}


def time_requests(frontend: StudyFrontend):
    """Record each POST's handler-thread CPU time, by request path.

    Returns a function that hands over the records so far and clears them.
    """
    handler = frontend.server.RequestHandlerClass
    post = handler.do_POST
    log = defaultdict(list)
    lock = threading.Lock()

    def timed_post(self):
        start = time.thread_time()
        post(self)
        elapsed = time.thread_time() - start
        with lock:
            log[self.path].append(elapsed)

    def drain() -> dict:
        with lock:
            records = dict(log)
            log.clear()
        return records

    handler.do_POST = timed_post
    return drain


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True, help="journal root")
    args = parser.parse_args(argv)
    cpu = ProgramCpu()
    FsyncCounter().install()
    registry = CampaignRegistry(make_templates(), root=args.root)
    frontend = StudyFrontend(registry)
    drain_requests = time_requests(frontend)
    frontend.start()
    tracer = None

    def say(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    say({"address": frontend.address})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                tracer = Tracer()
                install_layers(tracer)
                say({"tracing": True})
            elif command.startswith("evict "):
                say({"evicted": [name for name in command.split()[1:] if registry.evict(name)]})
            elif command == "stats":
                say({
                    "cpu_s": cpu(),
                    "peak_rss_mb": peak_rss_mb(),
                    "requests": drain_requests(),
                    "summary": None if tracer is None else tracer.summary(),
                })
            elif command == "stop":
                break
            else:
                say({"error": f"unknown command {command!r}"})
    finally:
        frontend.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
