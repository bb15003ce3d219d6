"""Batched fleet ask vs. solo per-campaign proposal — wall-clock speedup.

Each :class:`~repro.service.CampaignRunner` tick used to run one
``prepare_ask`` per campaign: a per-member prior draw, candidate encoding,
dedup-key pass and unit-cube projection, each paying NumPy dispatch overhead
on a few hundred rows.  The fleet ask (`prepare_ask_fleet`, which the runner
calls once per group of same-space campaigns) stacks the candidate sheets
and runs those passes once per tick.  This benchmark isolates the ask phase
at 8 and 32 campaigns: K model-phase RF optimizers over one shared space
driven through rounds of proposals, fused (one stacked ``prepare_ask_fleet``
call per round) vs sequential ``prepare_ask`` loops.  The resulting
proposals and every optimizer's RNG state are asserted **bitwise
identical**.  The end-to-end effect of the whole fused tick is the repo
benchmark's ``fleet_e2e`` workload (``perfbench/``).

The fused pass amortises fixed per-member costs, so its advantage is
largest at moderate candidate-sheet sizes (the default 128 rows); at very
large sheets the member-local dedup loop dominates both paths and the
speedup tends to 1.  Results are written to ``BENCH_fleet_ask.json`` (repo
root by default); timings take the best of ``--reps`` repetitions.

Run with::

    PYTHONPATH=src python benchmarks/bench_fleet_ask.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.optimizer import BayesianOptimizer, prepare_ask_fleet
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fleet_ask.json"

NUM_CANDIDATES = 128
ASK_ROUNDS = 20


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


# ------------------------------------------------------------------ ask phase
def make_optimizers(
    fleet_size: int, num_candidates: int
) -> List[BayesianOptimizer]:
    """K model-phase optimizers over one shared space, ragged histories."""
    space = make_space()
    optimizers = []
    for k in range(fleet_size):
        optimizer = BayesianOptimizer(
            space,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=k),
            num_candidates=num_candidates,
            n_initial_points=4,
            seed=k,
        )
        configs = space.sample(10 + k % 5, np.random.default_rng(100 + k))
        optimizer.tell(configs, [run_function(c) for c in configs])
        optimizers.append(optimizer)
    return optimizers


def assert_asks_identical(
    solo: List[BayesianOptimizer], fleet: List[BayesianOptimizer]
) -> None:
    """One more proposal round from both cohorts must match bit for bit."""
    prepared_solo = [optimizer.prepare_ask(4) for optimizer in solo]
    prepared_fleet = prepare_ask_fleet([(optimizer, 4) for optimizer in fleet])
    for k, (a, b) in enumerate(zip(prepared_solo, prepared_fleet)):
        assert a.proposals == b.proposals, f"member {k}: proposals"
        assert a.fresh_configs == b.fresh_configs, f"member {k}: shortfall"
        if a.fresh is not None:
            assert (
                a.fresh.to_configurations() == b.fresh.to_configurations()
            ), f"member {k}: fresh candidates"
            assert a.encoded.tobytes() == b.encoded.tobytes(), f"member {k}: encoding"
            assert a.unit.tobytes() == b.unit.tobytes(), f"member {k}: unit sheet"
    for k, (a, b) in enumerate(zip(solo, fleet)):
        assert (
            a.rng.bit_generator.state == b.rng.bit_generator.state
        ), f"member {k}: RNG state"


def measure_ask_phase(
    reps: int,
    fleet_size: int,
    rounds: int = ASK_ROUNDS,
    num_candidates: int = NUM_CANDIDATES,
) -> Dict[str, object]:
    seq_times, fused_times = [], []
    solo = fleet = None
    for _ in range(reps):
        solo = make_optimizers(fleet_size, num_candidates)
        start = time.perf_counter()
        for _ in range(rounds):
            for optimizer in solo:
                optimizer.prepare_ask(4)
        seq_times.append(time.perf_counter() - start)
        fleet = make_optimizers(fleet_size, num_candidates)
        requests = [(optimizer, 4) for optimizer in fleet]
        start = time.perf_counter()
        for _ in range(rounds):
            prepare_ask_fleet(requests)
        fused_times.append(time.perf_counter() - start)
    assert_asks_identical(solo, fleet)
    t_seq, t_fused = min(seq_times), min(fused_times)
    return {
        "fleet_size": fleet_size,
        "rounds": rounds,
        "num_candidates": num_candidates,
        "sequential_s": t_seq,
        "fused_s": t_fused,
        "speedup": t_seq / max(t_fused, 1e-12),
        "bit_identical": True,
    }


def host_info() -> Dict[str, object]:
    """The host the timings were taken on."""
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_benchmark(reps: int = 3, output: Path = DEFAULT_OUTPUT, quick: bool = False):
    if quick:
        ask_8 = measure_ask_phase(1, fleet_size=4, rounds=6)
        ask_32 = measure_ask_phase(1, fleet_size=8, rounds=6)
    else:
        ask_8 = measure_ask_phase(reps, fleet_size=8)
        ask_32 = measure_ask_phase(reps, fleet_size=32)
    for label, entry in (("ask  x8", ask_8), ("ask x32", ask_32)):
        print(
            f"{label}      seq {entry['sequential_s']*1e3:7.1f}ms  "
            f"fused {entry['fused_s']*1e3:7.1f}ms  "
            f"speedup {entry['speedup']:.2f}x  (bit-identical)"
        )
    target = 1.0 if quick else 1.3
    payload = {
        "benchmark": "fleet_ask",
        "reps": 1 if quick else reps,
        "quick": quick,
        "host": host_info(),
        "description": (
            "Stacked prepare_ask_fleet proposal passes (one fused prior "
            "draw, shared dedup-key/unit/one-hot encoding, member-local "
            "dedup) vs sequential prepare_ask loops at 8 and 32 campaigns, "
            "with proposals and RNG states asserted bit-identical. Times "
            "are best-of-reps."
        ),
        "ask_phase_8": ask_8,
        "ask_phase_32": ask_32,
        "acceptance": {
            "criterion": (
                "ask-phase >=1.3x fused vs sequential at 8+ campaigns on "
                "this host, with proposals, dedup decisions and RNG states "
                "asserted bitwise identical"
            ),
            "ask_phase_8_speedup": ask_8["speedup"],
            "ask_phase_32_speedup": ask_32["speedup"],
            "bit_identical": bool(
                ask_8["bit_identical"] and ask_32["bit_identical"]
            ),
            "passed": bool(
                ask_8["bit_identical"]
                and ask_32["bit_identical"]
                and max(ask_8["speedup"], ask_32["speedup"]) >= target
            ),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
    print(
        f"acceptance ({payload['acceptance']['criterion']}): "
        f"{ask_8['speedup']:.2f}x at 8, {ask_32['speedup']:.2f}x at 32 -> {status}"
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
