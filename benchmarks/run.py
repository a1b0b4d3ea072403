#!/usr/bin/env python3
"""Benchmark of the ``wshrink`` package; see ``benchmarks/README.md``.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 benchmarks/run.py --workload tune_cv --seed 1 --seconds 35 --trace 0

Every workload, each in its own process::

    python3 benchmarks/run.py --all --seed 1 --seconds 35

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: the workloads are single-threaded; one BLAS thread keeps runs steady on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from wsbench import measure, tracer as tr  # noqa: E402  (numpy only; wshrink is imported later)
from wsbench.workloads import WORKLOADS, Check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-up (import, inputs and one warm-up job) is repeated and its median reported
SETUP_REPEATS = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import wshrink, wshrink.cli; print(time.perf_counter() - t0)")


def load_package():
    """Import ``wshrink`` from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "wshrink" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import wshrink
    import wshrink.cli  # noqa: F401  (the portfolio workload calls it)

    if Path(wshrink.__file__).resolve().parent != SRC / "wshrink":
        print(f"error: imported wshrink from {wshrink.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return wshrink


def import_seconds() -> float:
    """Time of ``import wshrink`` (numpy and scipy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_workload(args) -> int:
    wshrink = load_package()
    cls = WORKLOADS[args.workload]
    watch = tr.SOLVER_WATCH if cls.solver_watch else ()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups, calibration = [], []
        for r in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            workload = cls(wshrink, args.seed, workdir)
            with tr.Tracer(watch) as tracer:  # a different pool item each time: the median is less item-bound
                workload.run_job(r, tracer)
            setups.append(import_s + time.perf_counter() - t0)
            calibration.append(measure.calibration_seconds())

        records: dict = {}
        tracers = [tr.Tracer(watch)] + ([tr.Tracer()] if args.trace else [])
        plain, *traced = measure.run_phase(workload, args.seconds, tracers, records, calibration)
        rss = measure.peak_rss_mb()
        with tr.Tracer(watch) as tracer:  # untimed: make sure every pool item has a record
            for i in range(cls.POOL):
                if i not in records:
                    try:
                        records[i] = workload.run_job(i, tracer)[2]
                    except Exception as exc:  # reported by the coverage check below
                        plain.errors.append(f"pool item {i}: {exc!r}")
        records = {i: r for i, r in records.items() if r is not None}
        checks = workload.checks(records) if records else []
        checks.append(Check("pool_covered", len(records) == cls.POOL,
                            f"{len(records)} of {cls.POOL} pool items produced a result"))
        quality = workload.quality(records) if records else float("nan")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = measure.environment(ROOT, args.seed, BLAS_THREADS, wshrink)
    env["calibration_s"] = measure.median(calibration)
    print(json.dumps({"env": env}))
    phases = [plain, *traced]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    checks_failed = sum(not c.ok for c in checks)
    for c in checks:
        if not c.ok:
            print(f"CHECK FAILED {c.name}: {c.detail}")
    for p in phases:
        for err in p.errors:
            print(f"JOB FAILED {err}")

    # timings in seconds at the reference host speed: slow host drift divides out
    scale = measure.CALIBRATION_REF_S / env["calibration_s"]
    tail, pct = measure.tail(plain.times)
    e2e = {
        "setup_s": measure.median(setups) * scale,
        "job_s_p50": measure.median(plain.times) * scale,
        "job_s_tail": tail * scale,
        "estimates_per_s": (plain.attempted - plain.failed) / (plain.wall * scale),
        "quality_loss": quality,
        "peak_rss_mb": rss,
        "fail_share": failed / attempted,
        "checks_failed": checks_failed,
    }
    units = {**measure.END_TO_END, **measure.ZERO_AT_SEED}
    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} job_s_tail is the p{pct:.1f} of {len(plain.times)} jobs; "
          f"{len(checks)} checks, {checks_failed} failed")
    print(f"{args.workload} timings are scaled by {scale:.4f}, the reference over the median of "
          f"{len(calibration)} calibration samples; unscaled job_s_p50 = {measure.median(plain.times):.6g} s")

    if args.trace:
        traced, traced_tracer = traced[0], tracers[1]
        metrics = tr.layer_metrics(traced_tracer, len(traced.times))
        # traced job i ran right after untraced job i on the same pool item
        metrics["trace.overhead_s"] = measure.median(
            [t - u for t, u in zip(traced.times, plain.times)])
        OUT.mkdir(exist_ok=True)
        first = [s for s in traced_tracer.spans if s.job == 0]
        doc = {"env": env, "workload": args.workload, "traced_jobs": len(traced.times),
               "metrics": metrics,
               "spans_of_first_job": [[s.name, s.start, s.end, s.parent, s.error] for s in first]}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))
        layer_units = measure.per_layer_units()
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {layer_units[name]}")
        result = {name: {"value": value, "unit": layer_units[name]} for name, value in metrics.items()}
    else:
        result = {name: {"value": e2e[name], "unit": unit} for name, unit in measure.END_TO_END.items()}

    print(json.dumps({"correct": checks_failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if checks_failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; the last line collects their results."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "exit_code": proc.returncode}
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
