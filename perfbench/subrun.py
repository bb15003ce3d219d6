"""One sub-run of a workload, in a process of its own: set up, measure, report.

``run.py`` starts several of these one after another and pools what they
print.  Timings made in one process carry an offset of that process's own —
memory layout, the CPU it landed on — which on a 2-vCPU Xeon VM moved the
same analysis pass by ±10% from one process to the next, so a run is spread
over several processes instead of resting on one.

Prints a single JSON line: the set-up CPU time, the workload's raw samples
(see the workloads' ``measure``) and, with ``--trace 1``, the untraced half,
the span summary and the path the spans were written to.  CPU times are
whole-program (:class:`common.ProgramCpu`); the CPU time of the BLAS pools
they leave out is reported as ``pool_cpu_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import FsyncCounter, ProgramCpu, peak_rss_mb  # noqa: E402
from fleet import FleetWorkload  # noqa: E402
from service import ServiceWorkload  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402
from store import StoreWorkload  # noqa: E402

WORKLOADS = {w.name: w for w in (FleetWorkload, ServiceWorkload, StoreWorkload)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    cpu = ProgramCpu()
    fsync = FsyncCounter().install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, cpu)
    try:
        wall_start = time.perf_counter()
        cpu_start = cpu()
        elsewhere = workload.setup()
        setup = {
            "setup_cpu_s": cpu() - cpu_start + elsewhere,
            "setup_wall_s": time.perf_counter() - wall_start,
        }
        if args.trace:
            untraced = workload.measure(args.seconds / 2)
            tracer = Tracer()
            install_layers(tracer)
            try:
                result = workload.measure(args.seconds / 2, tracer)
            finally:
                tracer.restore()
            result["untraced"] = {key: untraced[key] for key in ("units", "wall_s", "cpu_s", "digest")}
            for key in ("attempted", "failed", "problems"):
                result[key] += untraced[key]
            if untraced["digest"] != result["digest"]:
                result["failed"] += 1
                result["problems"].append("traced digest differs from untraced")
            result["summary"] = tracer.summary()
            if args.spans is not None:
                args.spans.write_text(json.dumps(tracer.spans))
        else:
            result = workload.measure(args.seconds)
    finally:
        workload.teardown()
        fsync.restore()
    result.update(setup)
    result.setdefault("peak_rss_mb", peak_rss_mb())
    result["fsync_calls"] = fsync.calls
    result["pool_threads"] = cpu.pool_threads
    result["pool_cpu_s"] = cpu.pool_cpu()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
