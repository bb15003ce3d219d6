"""``service_http``: the ask/tell service as tenants use it.

``server.py`` runs ``StudyFrontend`` over a journaled ``CampaignRegistry`` in
its own process.  This process drives it through the public
``HTTPStudyClient`` from ``CONNECTIONS`` closed-loop client threads with no
think time: each connection owns two RF and two GP studies on the 20-parameter
space, cycles suggest → evaluate (client-side ``SurrogateRuntime``) →
report round-robin over them until all finish, has the server evict them
(``CampaignRegistry.evict``: final checkpoint, journal closed, state
dropped), then starts its next *round* of studies with the same seeds.  Every
round must repeat the first one's digest.  Evicting finished studies keeps
the server's memory and open files the same from round to round, so its
peak RSS does not depend on how many rounds a run completes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import Inputs
from repro.service import HTTPStudyClient, RegistryError

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
#: Each connection's round: two studies of each template, alternated.
KINDS = ("rf", "gp", "rf", "gp")
MAX_EVALUATIONS = 32
MAX_TIME = 3600.0
#: Nominal wall time of one connection round on a 2-vCPU VM.  A measurement
#: of ``seconds`` runs ``seconds / ROUND_S`` rounds per connection, however
#: fast they go: a round count that follows the program's speed would flip
#: between sub-runs, and a process's first round costs more than its later
#: ones.
ROUND_S = 2.5
STOP_TIMEOUT_S = 30.0


class Server:
    """The server process and its stdin/stdout control channel."""

    def __init__(self, root: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--root", str(root)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lock = threading.Lock()
        self.address = self._read()["address"]

    def _read(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.process.wait()}")
        return json.loads(line)

    def command(self, command: str) -> Dict:
        with self._lock:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
            return self._read()

    def stop(self) -> None:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Study:
    """One client-side study: its HTTP handle and its evaluation stream."""

    def __init__(self, workload: "ServiceWorkload", connection: int, index: int, round_no: int):
        inputs = workload.inputs
        kind = KINDS[index]
        self.name = f"c{connection}-r{round_no}-{kind}{index}"
        self.runtime = inputs.runtime(100 + connection * len(KINDS) + index)
        self.client = HTTPStudyClient(
            workload.server.address,
            self.name,
            template=kind,
            seed=inputs.seed * 1000 + connection * len(KINDS) + index,
            max_time=MAX_TIME,
            max_evaluations=MAX_EVALUATIONS,
            tenant=f"tenant-{connection}",
        )
        self.digest = hashlib.sha256()
        self.best_runtime: Optional[float] = None


class Connection:
    """One closed-loop client: its rounds, latencies and failures."""

    def __init__(self):
        self.suggest_s: List[float] = []
        self.report_s: List[float] = []
        self.evaluations = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.rounds: List[List[Study]] = []


class ServiceWorkload:
    name = "service_http"

    def __init__(self, seed: int, workdir: Path, cpu: Callable[[], float]):
        self.seed = seed
        self.workdir = workdir
        self.cpu = cpu
        self.server: Optional[Server] = None

    def setup(self) -> float:
        """Start the server and create every connection's first studies.

        Returns the server process's CPU time so far, which the caller adds
        to this process's own set-up CPU time.
        """
        self.inputs = Inputs(self.seed)
        root = self.workdir / "registry"
        root.mkdir(parents=True)
        self.server = Server(root)
        self._next_round = [0] * CONNECTIONS
        self._ready = [self._create_round(c) for c in range(CONNECTIONS)]
        return self.server.command("stats")["cpu_s"]

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _create_round(self, connection: int) -> List[Study]:
        round_no = self._next_round[connection]
        self._next_round[connection] += 1
        return [Study(self, connection, index, round_no) for index in range(len(KINDS))]

    def _drive(self, studies: List[Study], state: Connection, tracer) -> None:
        """Alternate the round's studies until each reports finished."""
        clock = time.perf_counter
        active = list(studies)
        while active:
            for study in list(active):
                client = study.client
                state.attempted += 1
                start = clock()
                batch = client.suggest() if tracer is None else tracer.span("http.suggest", client.suggest)
                state.suggest_s.append(clock() - start)
                if batch is None:
                    active.remove(study)
                    state.attempted += 1
                    status = client.status()
                    study.best_runtime = status["best_runtime"]
                    study.digest.update(repr(status["best_configuration"]).encode())
                    if not status["finished"] or status["num_evaluations"] != MAX_EVALUATIONS:
                        state.failed += 1
                        state.problems.append(f"{study.name}: unfinished ({status})")
                    continue
                values = study.runtime.run_many(batch)
                study.digest.update(repr((batch, values)).encode())
                state.attempted += 1
                start = clock()
                if tracer is None:
                    client.report(values)
                else:
                    tracer.span("http.report", client.report, values)
                state.report_s.append(clock() - start)
                state.evaluations += len(values)

    def _connection(self, connection: int, rounds: int, state: Connection, tracer) -> None:
        """Run ``rounds`` rounds of studies, evicting each when it is done."""
        try:
            for _ in range(rounds):
                studies = self._ready[connection] or self._create_round(connection)
                self._ready[connection] = None
                state.attempted += len(studies)
                self._drive(studies, state, tracer)
                state.rounds.append(studies)
                names = [study.name for study in studies]
                evicted = self.server.command("evict " + " ".join(names))["evicted"]
                if evicted != names:
                    state.failed += 1
                    state.problems.append(f"connection {connection}: evicted {evicted} of {names}")
        except (RegistryError, urllib.error.URLError, OSError) as error:
            state.failed += 1
            state.problems.append(f"connection {connection}: {error!r}")

    def measure(self, seconds: float, tracer=None) -> Dict:
        if tracer is not None:
            self.server.command("trace")
        server_cpu_start = self.server.command("stats")["cpu_s"]  # and clears the request log
        states = [Connection() for _ in range(CONNECTIONS)]
        client_cpu_start = self.cpu()
        start = time.perf_counter()
        rounds = max(1, round(seconds / ROUND_S))
        threads = [
            threading.Thread(target=self._connection, args=(c, rounds, states[c], tracer))
            for c in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        client_cpu = self.cpu() - client_cpu_start
        served = self.server.command("stats")
        requests = served["requests"]
        server_cpu = served["cpu_s"] - server_cpu_start
        problems = [p for s in states for p in s.problems]
        failed = sum(s.failed for s in states)
        digests = []
        for c, state in enumerate(states):
            per_round = [
                "".join(study.digest.hexdigest() for study in studies)
                for studies in state.rounds
            ]
            if len(set(per_round)) > 1:
                failed += 1
                problems.append(f"connection {c}: rounds disagree")
            digests.extend(per_round[:1])
        # A cycle is one batch's suggest and report; pair them per study in
        # request order from the server's per-request CPU times.  The server
        # CPU spent outside those handlers — accepting connections, creating
        # and evicting studies, status reads, whatever the program runs on
        # other threads — is shared evenly over the cycles.
        cycles = []
        for path, suggests in requests.items():
            if path.endswith("/suggest"):
                reports = requests.get(path[: -len("suggest")] + "report", [])
                cycles.extend(a + b for a, b in zip(suggests, reports))
        share = (server_cpu - sum(cycles)) / max(len(cycles), 1)
        cycles = [cycle + share for cycle in cycles]
        if all(state.rounds for state in states):
            best = [study.best_runtime for state in states for study in state.rounds[0]]
        else:
            best = []
        return {
            "units": sum(len(s.rounds) for s in states),
            "wall_s": wall,
            "cpu_s": client_cpu + server_cpu,
            "work": sum(s.evaluations for s in states),
            "cpu_samples": cycles,
            "wall_samples": {
                "suggest": [t for s in states for t in s.suggest_s],
                "report": [t for s in states for t in s.report_s],
            },
            "best": best,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "attempted": sum(s.attempted for s in states),
            "failed": failed,
            "problems": problems,
            "peak_rss_mb": served["peak_rss_mb"],
            "server_summary": served["summary"],
            "client_cpu_s": client_cpu,
        }
