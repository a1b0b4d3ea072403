"""Timing loop, percentiles, metric catalogue and the environment record."""

from __future__ import annotations

import functools
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tracer as tr

#: seed that any claimed gain must also be checked on; never used while tuning
HELD_OUT_SEED = 1805

#: end-to-end metrics reported with ``--trace 0``: name -> unit
END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "estimates_per_s": "1/s",
    "quality_loss": "loss",
    "peak_rss_mb": "MB",
}
#: printed with the end-to-end metrics but carried by ``failed``/``correct``, since they are 0
ZERO_AT_SEED = {"fail_share": "share", "checks_failed": "count"}

#: the calibration kernel: eigendecompose and multiply one fixed SPD matrix this many times
CALIBRATION_SIZE, CALIBRATION_REPEATS = 150, 32
#: kernel time that scaled timings refer to; about its median on a quiet 2-core x86_64 host
CALIBRATION_REF_S = 0.1


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics reported with ``--trace 1``: name -> unit."""
    units = {}
    for name in tr.SPAN_NAMES:
        units[f"{name}.calls"] = "1/job"
        units[f"{name}.self_s"] = "s/job"
        units[f"{name}.errors"] = "1/job"
    units["kernels.root_iters_per_call"] = "iter/call"
    units["sqa.iters_per_solve"] = "iter/solve"
    units["sqa.halvings_per_iter"] = "1/iter"
    units["sqa.cholesky_per_iter"] = "1/iter"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Phase:
    """Jobs of one timed phase."""

    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall: float = 0.0  # sum of the job times


@functools.cache
def _calibration_matrix() -> np.ndarray:
    B = np.random.default_rng(0).standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    return B @ B.T + CALIBRATION_SIZE * np.eye(CALIBRATION_SIZE)


def calibration_seconds() -> float:
    """Wall time of a fixed kernel that runs no ``wshrink`` code: how fast the host is now.

    The host's speed drifts by tens of percent over minutes.  The kernel's
    time follows most of that drift together with the workloads' job times,
    so timings divided by it stay comparable across runs made at different
    times (``benchmarks/README.md`` gives the measurements).
    """
    A = _calibration_matrix()
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        _, V = np.linalg.eigh(A)
        V @ A
    return time.perf_counter() - t0


def run_phase(workload, seconds: float, tracers: list, records: dict, calibration: list) -> list[Phase]:
    """Run jobs back to back (a closed loop of one caller) until ``seconds`` have passed.

    Each job index runs once under every tracer, on the same pool item and
    in an order that is reversed on every other index, so the phases pair up
    job by job and neither slow host drift nor running second biases their
    differences.  A tracer is installed around its job but outside the
    timed region.  After each job index one ``calibration_seconds`` sample is
    appended to ``calibration``.  Records of the first successful job on each
    pool item go into ``records``.  A job that raises counts all its
    estimates as failed.  Returns one ``Phase`` per tracer.
    """
    phases = [Phase() for _ in tracers]
    start = time.perf_counter()
    i = 0
    pairs = list(zip(phases, tracers))
    while True:
        for phase, tracer in pairs if i % 2 == 0 else pairs[::-1]:
            tracer.job = i
            with tracer:
                t0 = time.perf_counter()
                try:
                    attempted, failed, record = workload.run_job(i, tracer)
                except Exception as exc:  # a failed job is reported, not fatal
                    attempted, failed, record = workload.estimates_per_job, workload.estimates_per_job, None
                    phase.errors.append(f"job {i}: {exc!r}")
                t1 = time.perf_counter()
            phase.times.append(t1 - t0)
            phase.wall += t1 - t0
            phase.attempted += attempted
            phase.failed += failed
            if record is not None:
                records.setdefault(i % workload.POOL, record)
        calibration.append(calibration_seconds())
        i += 1
        if time.perf_counter() - start >= seconds:
            return phases


def tail(times) -> tuple[float, float]:
    """Value at the highest percentile that leaves at least ten jobs above it.

    Returns ``(value, percentile)``; with ten jobs or fewer it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``; git reads nothing above ``root``, not even its config."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent), "GIT_CONFIG_NOSYSTEM": "1",
           "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int, blas_threads: int, wshrink) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "using_numba": bool(wshrink.USING_NUMBA),
        "commit": git_commit(root),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def median(values) -> float:
    return float(statistics.median(values))
