"""The benchmark's own checks, at reduced size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

* ``fleet_e2e``'s per-campaign histories equal solo ``CBOSearch.run`` runs;
* ``service_http``'s histories, read back from the server's journals, equal
  in-process ``StudyClient`` runs of the same templates and seeds;
* tracing changes no result: traced and untraced digests agree, and spans
  recorded from several threads at once keep their parents;
* the CPU clock counts work on other threads and in child processes;
* ``service_http`` leaves no finished study in the server's memory;
* every metric named in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fleet  # noqa: E402
import server  # noqa: E402
import service  # noqa: E402
import store  # noqa: E402
from common import Inputs, ProgramCpu, history_digest  # noqa: E402
from repro.core.journal import open_journal_reader  # noqa: E402
from repro.service import CampaignRegistry, StudyClient  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402

SEED = 7
CPU = ProgramCpu()


@pytest.fixture
def small_fleet(monkeypatch):
    monkeypatch.setattr(fleet, "MAX_EVALUATIONS", 20)
    return 6


def test_fleet_round_matches_solo_runs(tmp_path, small_fleet):
    inputs = Inputs(SEED)
    round_ = fleet.run_round(inputs, tmp_path, CPU, num_campaigns=small_fleet)
    assert fleet.check_round(round_) == []
    assert round_["runner"].num_fleet_fits > 0
    for index, result in enumerate(round_["results"]):
        search = fleet.make_search(inputs, index, inputs.runtime(index))
        solo = search.run(max_time=fleet.MAX_TIME, max_evaluations=fleet.MAX_EVALUATIONS)
        assert history_digest([result.history]) == history_digest([solo.history]), index
        assert result.busy_intervals == solo.busy_intervals


def test_fleet_tracing_changes_no_result(tmp_path, small_fleet):
    inputs = Inputs(SEED)
    plain = fleet.run_round(inputs, tmp_path / "plain", CPU, num_campaigns=small_fleet)
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = fleet.run_round(inputs, tmp_path / "traced", CPU, num_campaigns=small_fleet)
    finally:
        tracer.restore()
    assert history_digest(r.history for r in traced["results"]) == history_digest(
        r.history for r in plain["results"])
    summary = tracer.summary()
    assert summary["runner.tick"][0] == len(traced["ticks"])
    assert summary["rf.fleet_fit"][3] == traced["runner"].num_fleet_fitted_surrogates
    assert summary["journal.fsync"][0] > 0


def test_service_histories_match_in_process_clients(tmp_path):
    workload = service.ServiceWorkload(SEED, tmp_path / "work", CPU)
    workload.setup()
    try:
        result = workload.measure(0.0)
        assert result["failed"] == 0, result["problems"]
        with urllib.request.urlopen(workload.server.address + "/studies") as reply:
            assert json.load(reply)["studies"] == []  # every finished study was evicted
        workload.server.stop()
        workload.server = None
        registry = CampaignRegistry(server.make_templates())
        inputs = Inputs(SEED)
        for connection in range(service.CONNECTIONS):
            for index, kind in enumerate(service.KINDS):
                name = f"c{connection}-r0-{kind}{index}"
                stored = open_journal_reader(
                    tmp_path / "work" / "registry" / name, inputs.space).history()
                client = StudyClient(
                    registry, name, template=kind,
                    seed=SEED * 1000 + connection * len(service.KINDS) + index,
                    max_time=service.MAX_TIME, max_evaluations=service.MAX_EVALUATIONS)
                client.run(inputs.runtime(100 + connection * len(service.KINDS) + index))
                assert history_digest([stored]) == history_digest([client.result().history]), name
    finally:
        workload.teardown()


def test_store_passes_match_reference_traced_or_not(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "REPETITIONS", 2)
    monkeypatch.setattr(store, "ROWS", 40)
    workload = store.StoreWorkload(SEED, tmp_path, CPU)
    workload.setup()
    plain = workload.measure(0.0)
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = workload.measure(0.0, tracer)
    finally:
        tracer.restore()
    load = store.load_campaign

    def lossy_load(directory, space):
        campaign = load(directory, space)
        campaign.results.pop()
        return campaign

    monkeypatch.setattr(store, "load_campaign", lossy_load)
    lossy = workload.measure(0.0)
    workload.teardown()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    assert tracer.summary()["analysis.load"][0] == len(workload.directories)
    # The digest is computed from what a pass loaded, not from the corpus.
    assert lossy["failed"] > 0
    assert lossy["digest"] != plain["digest"]


def test_spans_from_concurrent_threads_keep_their_parents():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(5000)]) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    spans = tracer.spans
    assert len(spans) == 8 * 5000 * 4
    for index, span in enumerate(spans):
        if span[0] == "outer":
            assert span[3] == -1 and span[4] == index
        else:
            parent = spans[span[3]]
            assert parent[0] == "outer" and span[4] == span[3]
            assert parent[1] <= span[1] <= span[2] <= parent[2]


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_program_cpu_counts_other_threads_and_children():
    start = CPU()
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(_spin, [0.2, 0.2]))
    assert CPU() - start >= 0.4
    start = CPU()
    subprocess.run([sys.executable, "-c", "import time\nend = time.process_time() + 0.3\n"
                    "while time.process_time() < end: pass"], check=True)
    assert CPU() - start >= 0.3


def _run(workload: str, trace: int, seconds: float = 0.5) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("analysis_store", 0), ("analysis_store", 1), ("service_http", 1),
])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
