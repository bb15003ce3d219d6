"""``analysis_store``: Fig. 3 analysis over a stored corpus, program caches cold.

Set-up writes a corpus of journaled campaigns — setups × variants ×
repetitions on the 20-parameter space — with
``save_campaign(format="journal")``.  The timed phase repeats *passes* back
to back: each clears the journal reader cache, loads every campaign through
``load_campaign``, resolves every repetition's best configuration and
renders ``fig3_table``.  Every pass must render the table built from the
in-memory histories that wrote the corpus.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from common import FAILURE_RUNTIME, Inputs, true_runtimes
from repro.analysis.campaign import CampaignResult, result_from_history
from repro.analysis.csvio import load_campaign, save_campaign
from repro.analysis.figures import fig3_table
from repro.core.history import SearchHistory
from repro.core.journal import clear_journal_cache

SETUPS = ("4n-2s-20p", "8n-2s-20p", "16n-2s-20p")
VARIANTS = ("RAND", "RF", "GP", "RF-TL")
REPETITIONS = 5
ROWS = 300
NUM_WORKERS = 16
MAX_TIME = 3600.0


def synth_history(inputs: Inputs, rng: np.random.Generator) -> SearchHistory:
    """One asynchronous campaign's history on ``NUM_WORKERS`` workers."""
    space = inputs.space
    configs = space.sample(ROWS, rng)
    runtimes = true_runtimes(configs) * rng.lognormal(0.0, 0.05, ROWS)
    history = SearchHistory(space)
    free_at = np.zeros(NUM_WORKERS)
    for config, runtime in zip(configs, runtimes):
        worker = int(np.argmin(free_at))
        submitted = float(free_at[worker])
        failed = runtime >= 0.9 * FAILURE_RUNTIME
        duration = FAILURE_RUNTIME if failed else float(runtime)
        free_at[worker] = submitted + duration
        history.record(config, float("nan") if failed else float(runtime),
                       submitted, submitted + duration, worker)
    return history


class StoreWorkload:
    name = "analysis_store"

    def __init__(self, seed: int, workdir: Path, cpu: Callable[[], float]):
        self.seed = seed
        self.workdir = workdir
        self.cpu = cpu

    def setup(self) -> float:
        """Synthesise the corpus and write it as campaign journals."""
        inputs = Inputs(self.seed)
        self.space = inputs.space
        rng = np.random.default_rng([self.seed, 4])
        root = self.workdir / "corpus"
        self.chain: Dict[str, Dict[str, CampaignResult]] = {}
        self.directories: List[tuple] = []
        for setup in SETUPS:
            for variant in VARIANTS:
                campaign = CampaignResult(label=variant, setup=setup,
                                          max_time=MAX_TIME, num_workers=NUM_WORKERS)
                for _ in range(REPETITIONS):
                    campaign.results.append(result_from_history(
                        synth_history(inputs, rng), MAX_TIME, NUM_WORKERS))
                directory = root / setup / variant
                save_campaign(campaign, directory, format="journal")
                self.chain.setdefault(setup, {})[variant] = campaign
                self.directories.append((setup, variant, directory))
        self.reference_table = fig3_table(self.chain)
        self.reference_best = self._best_digest(self.chain)
        return 0.0

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _best_digest(chain) -> str:
        digest = hashlib.sha256()
        for entry in chain.values():
            for campaign in entry.values():
                for result in campaign.results:
                    digest.update(repr((result.best_configuration, result.best_runtime)).encode())
        return digest.hexdigest()

    def _pass(self, tracer) -> tuple:
        """One cold pass: load every campaign, render Fig. 3.

        ``load_campaign`` resolves each repetition's best configuration
        while it rebuilds the repetition's result.
        """
        clear_journal_cache()
        chain: Dict[str, Dict[str, CampaignResult]] = {}
        for setup, variant, directory in self.directories:
            if tracer is None:
                campaign = load_campaign(directory, self.space)
            else:
                campaign = tracer.span("analysis.load", load_campaign, directory, self.space)
            chain.setdefault(setup, {})[variant] = campaign
        table = fig3_table(chain) if tracer is None else tracer.span("analysis.table", fig3_table, chain)
        return chain, table

    def measure(self, seconds: float, tracer=None) -> Dict:
        passes: List[float] = []
        pass_cpu: List[float] = []
        failed = 0
        clock = time.perf_counter
        start = clock()
        while clock() - start < seconds or not passes:
            pass_start = clock()
            pass_cpu_start = self.cpu()
            if tracer is None:
                chain, table = self._pass(None)
            else:
                chain, table = tracer.span("analysis.pass", self._pass, tracer)
            pass_cpu.append(self.cpu() - pass_cpu_start)
            passes.append(clock() - pass_start)
            best_digest = self._best_digest(chain)
            if table != self.reference_table or best_digest != self.reference_best:
                failed += 1
            if len(passes) == 1:
                # The digest and the best run times are the first pass's own.
                digest = hashlib.sha256((best_digest + table).encode()).hexdigest()
                best = [r.best_runtime for e in chain.values() for c in e.values() for r in c.results]
        return {
            "units": len(passes),
            "wall_s": sum(passes),
            "cpu_s": sum(pass_cpu),
            "work": len(passes) * len(self.directories) * REPETITIONS,
            "cpu_samples": pass_cpu,
            "wall_samples": {"pass": passes},
            "best": best,
            "digest": digest,
            "attempted": len(passes) * len(self.directories),
            "failed": failed * len(self.directories),
            "problems": [f"{failed} passes differ from the in-memory table"] if failed else [],
        }
