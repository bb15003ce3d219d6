"""Batched GP fleet math vs. sequential GP campaigns — wall-clock speedup.

GP-surrogate campaigns pay an :math:`O(n^3)` full refit, an :math:`O(n^2 m)`
incremental factor extension per tell and an :math:`O(n^2 n_c)` posterior
evaluation per ask.  The batched
:class:`~repro.core.surrogate.gaussian_process.GPFleet` shares the NumPy
dispatch overhead of those steps across the K campaigns of one
:class:`~repro.service.CampaignRunner` tick.  This benchmark measures the
effect three ways:

* **extend** — K fitted GPs with *ragged* training sizes advanced through
  rounds of one-row factor extensions, fused (one concatenated cross-kernel
  plus one batched Schur Cholesky per round) vs sequential ``partial_fit``
  calls.  Posteriors are asserted **bitwise identical** per member.
* **full fit** — K GPs fully refitted (hyperparameter grid + factorisation)
  as one stacked ``(K, n, n)`` batched-Cholesky pass vs sequential ``fit``
  calls, posteriors asserted bitwise identical.
* **campaigns** — the acceptance measurement: an 8-GP-campaign fleet through
  the batched runner (fused GP fits and scoring) vs the same campaigns run
  sequentially.  Per-campaign results are asserted
  **bit-identical** (identical proposals; posteriors agree to ≤1e-8 by the
  fleet construction, and in practice to the last bit) — only wall-clock
  changes.

Results are written to ``BENCH_gp_fleet.json`` (repo root by default).
Timings take the best of ``--reps`` repetitions to suppress machine noise;
speedups on this 1-CPU box are reported as measured.

Run with::

    PYTHONPATH=src python benchmarks/bench_gp_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.search import CBOSearch, SearchResult
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import GaussianProcessSurrogate, GPFleet
from repro.service import CampaignRunner, CampaignSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_gp_fleet.json"

FLEET_SIZE = 8
NUM_CAMPAIGNS = 8
MAX_EVALUATIONS = 140
NUM_CANDIDATES = 128


def make_space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            RealParameter("rate", 0.1, 50.0, log=True),
            IntegerParameter("threads", 1, 31),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


def run_function(config) -> float:
    value = abs(math.log(config["batch"]) - 5.0) + 0.3 * math.log(config["rate"])
    value += 0.05 * abs(config["threads"] - 16)
    value += 1.0 if config["pool"] == "prio_wait" else 0.0
    return 30.0 + 12.0 * value


# ------------------------------------------------------------------- members
def member_data(key: int, rows: int, dim: int):
    rng = np.random.default_rng(4000 + key)
    X = rng.random((rows, dim))
    y = np.sin(X @ rng.random(dim) * 3.0) + 0.1 * rng.random(rows)
    return X, y


def assert_posteriors_identical(
    solo: List[GaussianProcessSurrogate],
    fleet: List[GaussianProcessSurrogate],
    dim: int,
) -> None:
    Xq = np.random.default_rng(77).random((64, dim))
    for k, (a, b) in enumerate(zip(solo, fleet)):
        mean_a, std_a = a.predict(Xq)
        mean_b, std_b = b.predict(Xq)
        assert np.array_equal(mean_a, mean_b), f"member {k}: posterior mean"
        assert np.array_equal(std_a, std_b), f"member {k}: posterior std"


def measure_extend(reps: int, fleet_size: int, rows: int, rounds: int, dim: int = 8):
    # Ragged training sizes — the norm for GP campaigns.
    sizes = [rows + 3 * k for k in range(fleet_size)]
    base = [member_data(k, n, dim) for k, n in enumerate(sizes)]
    updates = [
        [member_data(900 + 10 * r + k, 1, dim) for k in range(fleet_size)]
        for r in range(rounds)
    ]

    def fitted():
        gps = [
            GaussianProcessSurrogate(refresh_growth=100.0) for _ in range(fleet_size)
        ]
        for gp, (X, y) in zip(gps, base):
            gp.fit(X, y)
        return gps

    seq_times, fused_times = [], []
    solo = fleet = None
    for _ in range(reps):
        solo = fitted()
        start = time.perf_counter()
        for r in range(rounds):
            for gp, (X, y) in zip(solo, updates[r]):
                gp.partial_fit(X, y)
        seq_times.append(time.perf_counter() - start)
        fleet = fitted()
        group = GPFleet(fleet)
        start = time.perf_counter()
        for r in range(rounds):
            group.partial_fit(
                [X for X, _ in updates[r]], [y for _, y in updates[r]]
            )
        fused_times.append(time.perf_counter() - start)
    assert_posteriors_identical(solo, fleet, dim)
    t_seq, t_fused = min(seq_times), min(fused_times)
    return {
        "fleet_size": fleet_size,
        "rows": sizes,
        "rounds": rounds,
        "sequential_s": t_seq,
        "fused_s": t_fused,
        "speedup": t_seq / max(t_fused, 1e-12),
        "bit_identical": True,
    }


def measure_full_fit(reps: int, fleet_size: int, rows: int, dim: int = 8):
    sets = [member_data(100 + k, rows, dim) for k in range(fleet_size)]
    seq_times, fused_times = [], []
    solo = fleet = None
    for _ in range(reps):
        solo = [GaussianProcessSurrogate() for _ in range(fleet_size)]
        start = time.perf_counter()
        for gp, (X, y) in zip(solo, sets):
            gp.fit(X, y)
        seq_times.append(time.perf_counter() - start)
        fleet = [GaussianProcessSurrogate() for _ in range(fleet_size)]
        start = time.perf_counter()
        GPFleet(fleet).fit([X for X, _ in sets], [y for _, y in sets])
        fused_times.append(time.perf_counter() - start)
    assert_posteriors_identical(solo, fleet, dim)
    t_seq, t_fused = min(seq_times), min(fused_times)
    return {
        "fleet_size": fleet_size,
        "rows": rows,
        "sequential_s": t_seq,
        "fused_s": t_fused,
        "speedup": t_seq / max(t_fused, 1e-12),
        "bit_identical": True,
    }


# ----------------------------------------------------------------- campaigns
def make_campaigns(space: SearchSpace, num_candidates: int) -> List[CBOSearch]:
    return [
        CBOSearch(
            space,
            run_function,
            num_workers=8,
            surrogate="GP",
            num_candidates=num_candidates,
            n_initial_points=6,
            seed=seed,
        )
        for seed in range(NUM_CAMPAIGNS)
    ]


def assert_results_identical(seq: List[SearchResult], bat: List[SearchResult]) -> None:
    for i, (a, b) in enumerate(zip(seq, bat)):
        assert len(a.history) == len(b.history), f"campaign {i}: history length"
        for ev_a, ev_b in zip(a.history, b.history):
            assert ev_a.configuration == ev_b.configuration, f"campaign {i}: configuration"
            assert ev_a.submitted == ev_b.submitted, f"campaign {i}: submitted"
            assert ev_a.completed == ev_b.completed, f"campaign {i}: completed"
            assert (ev_a.objective == ev_b.objective) or (
                math.isnan(ev_a.objective) and math.isnan(ev_b.objective)
            ), f"campaign {i}: objective"
        assert a.busy_intervals == b.busy_intervals, f"campaign {i}: busy intervals"
        assert a.worker_utilization == b.worker_utilization, f"campaign {i}: utilization"
        assert a.best_configuration == b.best_configuration, f"campaign {i}: incumbent"


def measure_campaigns(
    reps: int, max_evaluations: int = MAX_EVALUATIONS, num_candidates: int = NUM_CANDIDATES
) -> Dict[str, object]:
    space = make_space()
    seq_times, bat_times = [], []
    seq_results = bat_results = runner = None
    for _ in range(reps):
        searches = make_campaigns(space, num_candidates)
        start = time.perf_counter()
        seq_results = [
            s.run(max_time=float("inf"), max_evaluations=max_evaluations)
            for s in searches
        ]
        seq_times.append(time.perf_counter() - start)
        specs = [
            CampaignSpec(
                search=search,
                max_time=float("inf"),
                max_evaluations=max_evaluations,
                label=f"gp-{i}",
            )
            for i, search in enumerate(make_campaigns(space, num_candidates))
        ]
        runner = CampaignRunner(specs)
        start = time.perf_counter()
        bat_results = runner.run()
        bat_times.append(time.perf_counter() - start)
    assert_results_identical(seq_results, bat_results)
    assert runner.num_gp_fleet_extends > 0, "no extension was fused"
    assert runner.num_gp_fleet_full_fits > 0, "no full refit was fused"
    t_seq, t_bat = min(seq_times), min(bat_times)
    return {
        "num_campaigns": NUM_CAMPAIGNS,
        "max_evaluations": max_evaluations,
        "num_candidates": num_candidates,
        "evaluations_per_campaign": [r.num_evaluations for r in bat_results],
        "gp_fleet_extends": runner.num_gp_fleet_extends,
        "gp_fleet_full_fits": runner.num_gp_fleet_full_fits,
        "gp_fleet_members": runner.num_gp_fleet_members,
        "gp_fleet_predicts": runner.num_gp_fleet_predicts,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup": t_seq / max(t_bat, 1e-12),
        "bit_identical": True,
    }


def run_benchmark(reps: int = 3, output: Path = DEFAULT_OUTPUT, quick: bool = False):
    if quick:
        extend = measure_extend(1, fleet_size=4, rows=24, rounds=4)
        full_fit = measure_full_fit(1, fleet_size=4, rows=24)
        campaigns = measure_campaigns(1, max_evaluations=40, num_candidates=48)
    else:
        extend = measure_extend(reps, FLEET_SIZE, rows=120, rounds=24)
        full_fit = measure_full_fit(reps, FLEET_SIZE, rows=48)
        campaigns = measure_campaigns(reps)
    print(
        f"extend       seq {extend['sequential_s']*1e3:7.1f}ms  "
        f"fused {extend['fused_s']*1e3:7.1f}ms  speedup {extend['speedup']:.2f}x  (bit-identical)"
    )
    print(
        f"full fit     seq {full_fit['sequential_s']*1e3:7.1f}ms  "
        f"fused {full_fit['fused_s']*1e3:7.1f}ms  speedup {full_fit['speedup']:.2f}x  (bit-identical)"
    )
    print(
        f"campaigns    seq {campaigns['sequential_s']:6.2f}s  "
        f"batched {campaigns['batched_s']:6.2f}s  speedup {campaigns['speedup']:.2f}x  "
        f"({campaigns['gp_fleet_extends']} fused extension passes, "
        f"{campaigns['gp_fleet_full_fits']} stacked full refits covering "
        f"{campaigns['gp_fleet_members']} member fits, bit-identical)"
    )
    target = 1.0 if quick else 1.2
    payload = {
        "benchmark": "gp_fleet",
        "reps": 1 if quick else reps,
        "quick": quick,
        "description": (
            "Batched GPFleet math (concatenated ragged factor extensions, "
            "stacked (K, n, n) batched-Cholesky full refits, fused posterior "
            "scoring) vs sequential GaussianProcessSurrogate calls, and an "
            "8-GP-campaign fleet through the batched CampaignRunner vs "
            "sequential CBOSearch.run loops (per-campaign results asserted "
            "bit-identical; posteriors ≤1e-8 by construction, bitwise in "
            "practice). Times are best-of-reps on a 1-CPU box."
        ),
        "extend": extend,
        "full_fit": full_fit,
        "campaigns": campaigns,
        "acceptance": {
            "criterion": (
                "8-GP-campaign fleet ≥1.2x end-to-end through the batched "
                "runner vs sequential on this box, with per-campaign "
                "proposals asserted identical (posteriors ≤1e-8) at full size"
            ),
            "campaign_speedup": campaigns["speedup"],
            "extend_speedup": extend["speedup"],
            "full_fit_speedup": full_fit["speedup"],
            "bit_identical": bool(
                extend["bit_identical"]
                and full_fit["bit_identical"]
                and campaigns["bit_identical"]
            ),
            "passed": bool(
                campaigns["bit_identical"] and campaigns["speedup"] >= target
            ),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
    print(
        f"acceptance ({payload['acceptance']['criterion']}): "
        f"{campaigns['speedup']:.2f}x campaigns -> {status}"
    )
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="one rep at reduced size")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per mode (best-of)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    args = parser.parse_args(argv)
    return run_benchmark(reps=args.reps, output=args.output, quick=args.quick)


if __name__ == "__main__":
    main()
