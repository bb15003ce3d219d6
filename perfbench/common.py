"""Inputs, statistics and host facts shared by the benchmark's workloads.

Everything a workload feeds the program is generated here from the
workload seed: the application model (a random-forest run-time surrogate
trained on samples of a fixed closed-form HEP-like response, no
discrete-event simulator) and the transfer source history ``H_p``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.core.history import SearchHistory
from repro.core.space import SearchSpace
from repro.hep.parameters import DEFAULT_CONFIGURATION, get_setup
from repro.hep.surrogate_runtime import SurrogateRuntime

TARGET_SETUP = "4n-2s-20p"
SOURCE_SETUP = "4n-2s-16p"
FAILURE_RUNTIME = 600.0
MODEL_SAMPLES = 1000  # training samples of the application model
SOURCE_SAMPLES = 200  # evaluations in H_p

# The "application": a fixed response surface over the 20 unit-encoded
# parameters.  Only the samples drawn from it depend on the workload seed,
# so every seed poses a problem of the same difficulty.
_TRUTH = np.random.default_rng(20221012)
_CENTERS = _TRUTH.uniform(0.1, 0.9, 20)
_WEIGHTS = _TRUTH.uniform(0.2, 0.8, 20)
_PAIRS = _TRUTH.integers(0, 20, size=(8, 2))
_PAIR_COEFS = _TRUTH.uniform(-0.8, 0.8, 8)


def target_space() -> SearchSpace:
    return get_setup(TARGET_SETUP).space()


def source_space() -> SearchSpace:
    return get_setup(SOURCE_SETUP).space()


def true_runtimes(configs: Sequence[Dict]) -> np.ndarray:
    """Ground-truth run time (s) of full 20-parameter configurations."""
    space = target_space()
    full = [{**DEFAULT_CONFIGURATION, **config} for config in configs]
    unit = space.to_unit_array(full)
    log_rt = math.log(40.0) + (_WEIGHTS * (unit - _CENTERS) ** 2).sum(axis=1)
    for (i, j), coef in zip(_PAIRS, _PAIR_COEFS):
        log_rt += coef * (unit[:, i] - 0.5) * (unit[:, j] - 0.5)
    # Oversubscribed nodes (both process counts high) run past the
    # failure ceiling, like the killed runs of the real workflow.
    names = space.parameter_names
    crowded = (
        unit[:, names.index("loader_pes_per_node")]
        + unit[:, names.index("pep_pes_per_node")]
    ) > 1.7
    return np.exp(log_rt) * np.where(crowded, 8.0, 1.0)


class Inputs:
    """The application model and ``H_p`` built from one workload seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.space = target_space()
        rng = np.random.default_rng([self.seed, 1])
        configs = self.space.sample(MODEL_SAMPLES, rng)
        model = SurrogateRuntime.from_data(
            self.space,
            configs,
            true_runtimes(configs),
            failure_runtime=FAILURE_RUNTIME,
            seed=self.seed,
        )
        #: The shared forest every campaign's noise stream evaluates.
        self.forest = model.forest
        src = source_space()
        source = SearchHistory(src)
        src_rng = np.random.default_rng([self.seed, 2])
        src_configs = src.sample(SOURCE_SAMPLES, src_rng)
        for i, (config, runtime) in enumerate(
            zip(src_configs, true_runtimes(src_configs))
        ):
            value = float(runtime) if runtime < 0.9 * FAILURE_RUNTIME else float("nan")
            source.record(config, value, float(i), float(i + 1))
        #: The transfer source history H_p (16-parameter space).
        self.source_history = source

    def runtime(self, stream: int) -> SurrogateRuntime:
        """A fresh noise stream over the shared application model."""
        return SurrogateRuntime(
            self.space,
            self.forest,
            failure_runtime=FAILURE_RUNTIME,
            seed=int(np.random.SeedSequence([self.seed, 3, stream]).generate_state(1)[0]),
        )


# ------------------------------------------------------------------ results
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def history_digest(histories: Iterable[SearchHistory]) -> str:
    """SHA-256 over every row of the given histories, in order."""
    digest = hashlib.sha256()
    for history in histories:
        digest.update(len(history).to_bytes(8, "little"))
        for column in (
            history.objectives(),
            history.runtimes(),
            history.submitted_times(),
            history.completed_times(),
        ):
            digest.update(np.ascontiguousarray(column, dtype=float).tobytes())
        for name in history.space.parameter_names:
            digest.update(repr(history.parameter_column(name).tolist()).encode())
    return digest.hexdigest()


class FsyncCounter:
    """Counts ``os.fsync`` calls instead of issuing them.

    Journals must live inside the benchmark's checkout, and on a VM disk
    the flush latency swings by tens of percent between runs.  The
    benchmark skips the device flush — the part of durability that costs
    nothing on tmpfs — and reports the number of flushes as an exact count;
    every write, rename and checkpoint still runs.
    """

    def __init__(self):
        self.calls = 0
        self._original = None

    def __call__(self, fd) -> None:
        self.calls += 1

    def install(self) -> "FsyncCounter":
        self._original = os.fsync
        os.fsync = self
        return self

    def restore(self) -> None:
        if self._original is not None:
            os.fsync = self._original
            self._original = None


class ProgramCpu:
    """CPU time of the whole program, less its BLAS thread pools.

    Counts every thread of this process — the caller, worker pools, request
    handlers, threads that have already ended — and every child process
    waited for (``RUSAGE_CHILDREN``), so work moved to another thread or
    process is still counted.  Left out are the threads the interpreter did
    not start that exist when the clock is made, right after the imports:
    the OpenBLAS pools NumPy and SciPy start when they load, which spend
    most of their time spin-waiting between BLAS calls (6–7 s of CPU per
    fleet round on a 2-vCPU VM).  The real BLAS work those threads take on
    for large products is left out with the spin.  OpenBLAS stops its pools
    before a ``fork``; a stopped pool thread stays excluded with the time
    last read, and the pool it restarts later is counted.
    """

    def __init__(self):
        python_threads = {thread.native_id for thread in threading.enumerate()}
        #: Pool thread id → its CPU time when last read.
        self._pool = {
            int(tid): 0.0 for tid in os.listdir("/proc/self/task")
            if int(tid) not in python_threads
        }
        self._ended = 0.0  # CPU time of pool threads that have stopped
        self.pool_threads = len(self._pool)

    def pool_cpu(self) -> float:
        """CPU time of the excluded pool threads so far."""
        for tid in list(self._pool):
            try:
                # The thread's CPU clock: MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED).
                self._pool[tid] = time.clock_gettime((~tid << 3) | 6)
            except OSError:
                self._ended += self._pool.pop(tid)
        return self._ended + sum(self._pool.values())

    def __call__(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() - self.pool_cpu()
                + children.ru_utime + children.ru_stime)


# --------------------------------------------------------------- host facts
def peak_rss_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def steal_seconds() -> float:
    """CPU steal time accrued by the host so far (all CPUs), in seconds."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _fs_type(path: Path) -> str:
    path = path.resolve()
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, kind = mount, parts[2]
    return kind


def _fsync_probe_ms(directory: Path, count: int = 40) -> Dict[str, float]:
    """Latency of real ``fsync`` after small appends, on the given directory."""
    path = directory / "fsync_probe.bin"
    latencies = []
    with open(path, "ab") as handle:
        for _ in range(count):
            handle.write(b"x" * 256)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            latencies.append((time.perf_counter() - start) * 1e3)
    path.unlink()
    return {"p50_ms": percentile(latencies, 0.5), "p90_ms": percentile(latencies, 0.9), "samples": count}


def _blas() -> Dict[str, object]:
    info: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = config.get("name")
        info["version"] = config.get("version")
    except Exception as error:  # numpy without dict config output
        info["error"] = repr(error)
    try:
        import ctypes
        import glob

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
        if libs:
            lib = ctypes.CDLL(libs[0])
            getter = lib.scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            info["threads"] = int(getter())
    except (OSError, AttributeError) as error:
        info["threads_error"] = repr(error)
    return info


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Environment variables that change how the program runs.  Sub-runs get
#: none of them, so the program runs with its defaults.
PROGRAM_ENV = ("REPRO_STEP_WORKERS",)
#: Environment variables that set the BLAS libraries' thread counts; kept.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def subrun_environment() -> Dict[str, str]:
    """This process's environment without :data:`PROGRAM_ENV`."""
    return {name: value for name, value in os.environ.items() if name not in PROGRAM_ENV}


def host_record(root: Path, journal_root: Path) -> Dict[str, object]:
    """Machine, storage and software facts recorded with every result."""
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_digest": source_digest(root),
        "journal_fs": _fs_type(journal_root),
        "fsync_probe": _fsync_probe_ms(journal_root),
        "environment": {name: os.environ.get(name) for name in BLAS_ENV},
        "cleared_environment": {
            name: os.environ[name] for name in PROGRAM_ENV if name in os.environ
        },
    }
