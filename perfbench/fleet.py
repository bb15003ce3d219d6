"""``fleet_e2e``: a paper-shaped journaled fleet, run the way the service runs one.

One *round* is a fleet of campaigns on the 20-parameter space — an equal mix
of cold random-forest, cold Gaussian-process and transfer-learning
(``VAEABOSearch(defer_transfer_fit=True)`` from ``H_p``, with prior
refreshes) campaigns — arriving in waves at an ``ElasticCampaignRunner``
under ``max_inflight`` admission, several tenants, every campaign journaled,
every evaluation batched through ``SurrogateRuntimeFleet.run_batch``.  The
runner ticks as fast as it can.  Rounds repeat with the same seeds while the
time allows; every round must reproduce the first one's digest.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List

from common import Inputs, history_digest
from repro.core.search import CBOSearch, VAEABOSearch
from repro.core.surrogate import RandomForestSurrogate
from repro.hep.surrogate_runtime import SurrogateRuntimeFleet
from repro.service import CampaignSpec, ElasticCampaignRunner

NUM_CAMPAIGNS = 24
MAX_EVALUATIONS = 48
MAX_TIME = 3600.0
NUM_WORKERS = 8
NUM_CANDIDATES = 128
WAVE_SIZE = 6
WAVE_SPACING = 4  # ticks between arrival waves
MAX_INFLIGHT = 12
TENANTS = 3
MAX_INFLIGHT_PER_TENANT = 5


def make_search(inputs: Inputs, index: int, run_function) -> CBOSearch:
    """Campaign ``index`` of a round: RF, GP and transfer campaigns in turn."""
    seed = inputs.seed * 1000 + index
    options = dict(
        num_workers=NUM_WORKERS,
        n_initial_points=NUM_WORKERS,
        num_candidates=NUM_CANDIDATES,
        seed=seed,
    )
    kind = index % 3
    if kind == 0:
        return CBOSearch(inputs.space, run_function,
                         surrogate=RandomForestSurrogate(seed=seed), **options)
    if kind == 1:
        return CBOSearch(inputs.space, run_function, surrogate="GP", **options)
    return VAEABOSearch(
        inputs.space,
        run_function,
        source_history=inputs.source_history,
        defer_transfer_fit=True,
        surrogate=RandomForestSurrogate(seed=seed),
        prior_refresh_interval=16,
        prior_refresh_top_k=8,
        **options,
    )


def make_spec(inputs: Inputs, index: int, run_function, journal_root: Path) -> CampaignSpec:
    return CampaignSpec(
        search=make_search(inputs, index, run_function),
        max_time=MAX_TIME,
        max_evaluations=MAX_EVALUATIONS,
        label=f"campaign-{index}",
        journal_dir=journal_root / f"campaign-{index}",
        tenant=f"tenant-{index % TENANTS}",
    )


def run_round(inputs: Inputs, journal_root: Path, cpu: Callable[[], float],
              num_campaigns: int = NUM_CAMPAIGNS) -> Dict:
    """One fleet round; returns tick times, results and the runner's counters.

    CPU times are read from ``cpu``, a :class:`common.ProgramCpu`: every
    thread and child process the runner uses counts.
    """
    start = time.perf_counter()
    cpu_start = cpu()
    runtimes = [inputs.runtime(index) for index in range(num_campaigns)]
    runner = ElasticCampaignRunner(
        max_inflight=MAX_INFLIGHT,
        max_inflight_per_tenant=MAX_INFLIGHT_PER_TENANT,
        run_batcher=SurrogateRuntimeFleet(runtimes).run_batch,
    )
    for index in range(num_campaigns):
        runner.admit(
            make_spec(inputs, index, runtimes[index], journal_root),
            arrival_tick=(index // WAVE_SIZE) * WAVE_SPACING,
        )
    ticks: List[float] = []
    tick_cpu: List[float] = []
    try:
        while runner.num_inflight or runner.num_waiting:
            tick_start = time.perf_counter()
            tick_cpu_start = cpu()
            runner.tick()
            tick_cpu.append(cpu() - tick_cpu_start)
            ticks.append(time.perf_counter() - tick_start)
    finally:
        runner.close()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu() - cpu_start, "ticks": ticks,
            "tick_cpu": tick_cpu, "results": runner.results(), "runner": runner}


def runner_counters(runner: ElasticCampaignRunner) -> Dict[str, int]:
    """The runner's public ``num_*`` counters, plus its transfer campaigns."""
    counters = {
        name: value for name, value in vars(runner).items()
        if name.startswith("num_") and isinstance(value, int)
    }
    counters["transfer_campaigns"] = sum(
        isinstance(spec.search, VAEABOSearch) for spec in runner.specs)
    return counters


def check_round(round_: Dict) -> List[str]:
    """Failures of one round: quarantines and unmet evaluation budgets."""
    runner = round_["runner"]
    problems = [f"quarantined {q.label} in {q.phase}: {q.error!r}" for q in runner.quarantined]
    for index, result in enumerate(round_["results"]):
        if result is None or result.num_evaluations != MAX_EVALUATIONS:
            got = None if result is None else result.num_evaluations
            problems.append(f"campaign-{index}: {got} of {MAX_EVALUATIONS} evaluations")
    return problems


def fusion_shares(counters: Dict[str, int], solo_asks: int) -> Dict[str, float]:
    """Fused members over all members, from one round's runner counters."""
    fused_fits = counters["num_fleet_fitted_surrogates"] + counters["num_gp_fleet_members"]
    vae_fused = counters["num_vae_fleet_members"] + counters["num_transfer_fleet_members"]
    # Every refresh and every transfer campaign's initial fit trains one
    # VAE, fused or solo.
    vae_total = counters["num_prior_refreshes"] + counters["transfer_campaigns"]
    asks = counters["num_ask_fleet_members"] + solo_asks
    return {
        "fusion.fit_share": fused_fits / max(fused_fits + counters["num_solo_fits"], 1),
        "fusion.ask_share": counters["num_ask_fleet_members"] / max(asks, 1),
        "fusion.vae_share": vae_fused / max(vae_total, 1),
    }


class FleetWorkload:
    name = "fleet_e2e"

    def __init__(self, seed: int, workdir: Path, cpu: Callable[[], float]):
        self.seed = seed
        self.workdir = workdir
        self.cpu = cpu

    def setup(self) -> float:
        """Build the application model and ``H_p`` (timed as set-up)."""
        self.inputs = Inputs(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        return 0.0

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def measure(self, seconds: float, tracer=None) -> Dict:
        """Repeat rounds while another one, as long as the last, fits in
        ``seconds``; always at least one."""
        rounds = []
        spent = 0.0
        attempted = failed = 0
        problems: List[str] = []
        while not rounds or spent + rounds[-1]["wall_s"] <= seconds:
            journal_root = self.workdir / f"round-{len(rounds)}"
            round_ = run_round(self.inputs, journal_root, self.cpu)
            spent += round_["wall_s"]
            attempted += NUM_CAMPAIGNS
            issues = check_round(round_)
            failed += len(issues)
            problems.extend(issues)
            results = round_.pop("results")
            round_["digest"] = history_digest(r.history for r in results if r is not None)
            round_["best"] = [r.best_runtime for r in results if r is not None]
            counters = runner_counters(round_.pop("runner"))
            # Keep only what the metrics need: a kept round would hold every
            # campaign's state and inflate the next rounds' peak RSS.
            del results
            rounds.append(round_)
            shutil.rmtree(journal_root, ignore_errors=True)
        digests = {r["digest"] for r in rounds}
        if len(digests) != 1:
            problems.append(f"rounds disagree: {len(digests)} distinct digests")
        return {
            "units": len(rounds),
            "wall_s": spent,
            "cpu_s": sum(r["cpu_s"] for r in rounds),
            "work": len(rounds) * NUM_CAMPAIGNS * MAX_EVALUATIONS,
            "cpu_samples": [t for r in rounds for t in r["tick_cpu"]],
            "wall_samples": {"tick": [t for r in rounds for t in r["ticks"]]},
            "best": rounds[0]["best"],
            "digest": rounds[0]["digest"],
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "counters": counters,
        }
