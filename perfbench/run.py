"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_e2e --seed 1 --seconds 30 --trace 0

``--trace 0`` splits ``--seconds`` over several sub-runs (``subrun.py``),
each a fresh process that sets the workload up once and measures its share
untraced; their samples are pooled and the end-to-end metrics printed.
``--trace 1`` makes one sub-run that spends half the time untraced and half
with every layer's public entry points wrapped, checks that both halves
computed the same digest, and prints the per-layer metrics.

The last line of standard output is the result object; the line before it is
the full record (host, CPU steal, wall-clock figures, per-sub-run figures),
also written to ``.perfbench_out/``.  The exit status is non-zero when a
correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program sources at {ROOT / 'src' / 'repro'}: run from the root of a checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from common import host_record, percentile, steal_seconds, subrun_environment  # noqa: E402
from fleet import fusion_shares  # noqa: E402
from spans import layer_metrics, merge_summaries  # noqa: E402

#: Workload and metric names and units, as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])

#: Sub-runs per untraced run.  A fleet round takes 6-10 s, so each fleet
#: sub-run makes one round whatever its share of the time; three rounds keep
#: a fleet run near 35 s.  The analysis, whose per-process offset is the
#: largest, splits its time five ways.
SUBRUNS = {"fleet_e2e": 3, "service_http": 4, "analysis_store": 5}

#: A run must end within 180 s; sub-runs still going at this point are stopped.
RUN_DEADLINE_S = 170.0

#: Root spans of each workload's per-layer coverage figure.
ROOTS = {
    "fleet_e2e": ("runner.tick",),
    "service_http": ("registry.suggest", "registry.report"),
    "analysis_store": ("analysis.pass",),
}


def run_subruns(args, workdir: Path, out_dir: Path, started: float):
    """Run the sub-runs one after another; None if one of them failed."""
    count = 1 if args.trace else SUBRUNS[args.workload]
    environment = subrun_environment()
    results = []
    for index in range(count):
        command = [
            sys.executable, str(HERE / "subrun.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / count), "--trace", str(args.trace),
            "--workdir", str(workdir / f"sub-{index}"),
        ]
        if args.trace:
            command += ["--spans", str(out_dir / f"{args.workload}-seed{args.seed}-trace1-spans.json")]
        remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=environment,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            print(f"sub-run {index} passed the {RUN_DEADLINE_S:.0f} s deadline", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"sub-run {index} exited with code {done.returncode}", file=sys.stderr)
            return None
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def pool(results) -> dict:
    """Samples and counts of all sub-runs, with the cross-process checks."""
    pooled = {
        "units": sum(r["units"] for r in results),
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "work": sum(r["work"] for r in results),
        "cpu_samples": [t for r in results for t in r["cpu_samples"]],
        "wall_samples": {
            name: [t for r in results for t in r["wall_samples"][name]]
            for name in results[0]["wall_samples"]
        },
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "digest": results[0]["digest"],
    }
    if len({r["digest"] for r in results}) != 1:
        pooled["failed"] += 1
        pooled["problems"].append("sub-runs computed different results")
    return pooled


def end_to_end(results, pooled) -> dict:
    best = results[0]["best"]
    return {
        "work_per_cpu_s": pooled["work"] / pooled["cpu_s"],
        "cpu_p50_ms": percentile(pooled["cpu_samples"], 0.5) * 1e3,
        "cpu_p90_ms": percentile(pooled["cpu_samples"], 0.9) * 1e3,
        "best_runtime_s": sum(best) / len(best) if best else float("nan"),
        "setup_s": statistics.median(r["setup_cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(workload: str, result: dict) -> dict:
    """Per-layer metrics of a traced sub-run, per unit of repeated work."""
    summaries = [result["summary"]]
    if result.get("server_summary"):
        summaries.append(result["server_summary"])
    summary = merge_summaries(summaries)
    units = result["units"]
    values = layer_metrics(summary, units)
    if workload == "fleet_e2e":
        # Every ask is a fleet pass or a solo complete_ask.
        counters = result["counters"]
        solo_asks = round(summary["ask"][0] / units) - counters["num_ask_fleet_passes"]
        values.update(fusion_shares(counters, solo_asks))
    else:
        values.update({"fusion.fit_share": 0.0, "fusion.ask_share": 0.0, "fusion.vae_share": 0.0})
    client = sum(summary.get(name, [0, 0.0])[1] for name in ("http.suggest", "http.report"))
    served = sum(summary.get(name, [0, 0.0])[1] for name in ("registry.suggest", "registry.report"))
    values["http.wait_s"] = (client - served) / units
    # A root's self time in the summary is exactly what no child span covers.
    rows = [summary[name] for name in ROOTS[workload] if name in summary]
    values["trace.uncovered_share"] = sum(r[2] for r in rows) / max(sum(r[1] for r in rows), 1e-12)
    untraced = result["untraced"]
    values["trace.overhead"] = (result["cpu_s"] / units) / (untraced["cpu_s"] / untraced["units"]) - 1.0
    return values


def detail(pooled) -> dict:
    """The wall-clock figures, with their sample counts."""
    figures = {
        "units": pooled["units"],
        "work": pooled["work"],
        "work_per_s": pooled["work"] / pooled["wall_s"],
        "cpu_samples": len(pooled["cpu_samples"]),
    }
    for name, samples in pooled["wall_samples"].items():
        figures[f"{name}_p50_ms"] = percentile(samples, 0.5) * 1e3
        figures[f"{name}_p90_ms"] = percentile(samples, 0.9) * 1e3
        figures[f"{name}_samples"] = len(samples)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        steal_start = steal_seconds()
        host = host_record(ROOT, workdir)
        results = run_subruns(args, workdir, out_dir, started)
        steal = steal_seconds() - steal_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if results is None:
        return 1
    pooled = pool(results)
    metrics = end_to_end(results, pooled)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "steal_s": steal,
        "run_wall_s": time.perf_counter() - started,
        "digest": pooled["digest"],
        "problems": pooled["problems"],
        "end_to_end": metrics,
        "detail": detail(pooled),
        "subruns": [
            {key: r[key] for key in ("units", "wall_s", "cpu_s", "setup_cpu_s", "setup_wall_s",
                                      "peak_rss_mb", "fsync_calls", "pool_threads", "pool_cpu_s")}
            for r in results
        ],
    }
    if args.trace:
        values = record["per_layer"] = per_layer(args.workload, results[0])
        record["untraced"] = results[0]["untraced"]
    else:
        values = metrics
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(units.keys() - values.keys())
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    for problem in pooled["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = pooled["failed"] == 0 and not pooled["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(pooled["attempted"]),
        "failed": int(pooled["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
