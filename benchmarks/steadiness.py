#!/usr/bin/env python3
"""Run workloads repeatedly, one seed per run, and report the spread of each end-to-end metric.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is steady when its spread is below a third of its bound in
``BENCHMARK.json``::

    python3 benchmarks/steadiness.py --workloads sparse_synthetic --runs 5 --first-seed 11

Runs are sequential, each in its own process.  Per-run results and the
summary go to ``benchmarks/out/steadiness-<first seed>.json``.  Two such
files, made at different times from the same code, are compared with::

    python3 benchmarks/steadiness.py --compare benchmarks/out/steadiness-1.json benchmarks/out/steadiness-101.json

which reports, per workload and metric, how much worse one set's median is
than the other's, taking either set as the parent.  The exit code is 1 when
a run failed, a spread is not below a third of its bound, or a shift
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from wsbench.workloads import WORKLOADS  # noqa: E402


def spread(values) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def worst_shift(a: float, b: float, better: str) -> float:
    """How much worse the worse of two medians is, as a share of the better one."""
    lo, hi = sorted((a, b))
    return (hi - lo) / lo if better == "lower" else (hi - lo) / hi


def compare(paths, spec) -> int:
    sets = [json.loads(Path(p).read_text())["summary"] for p in paths]
    code = 0
    for m in spec["end_to_end"]:
        for key in sets[0]:
            if not key.endswith("." + m["name"]) or key not in sets[1]:
                continue
            a, b = sets[0][key]["median"], sets[1][key]["median"]
            shift = worst_shift(a, b, m["better"])
            verdict = "ok" if shift <= m["bound"] else "SHIFTED"
            code |= verdict != "ok"
            print(f"{key:34s} {a:<12.6g} {b:<12.6g} worse by {shift:7.4f} bound {m['bound']:<5g} {verdict}")
    return code


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY", help="compare two summaries instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare, spec)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, code = {}, 0
    for name in args.workloads:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                code = 1
                continue
            env = next(json.loads(line)["env"] for line in proc.stdout.splitlines() if line.startswith('{"env"'))
            runs[name].append({"seed": seed, "calibration_s": env["calibration_s"],
                               **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {}
    for name, rows in runs.items():
        if len(rows) < 2:
            continue
        med, q1, q3 = spread([r["calibration_s"] for r in rows])
        print(f"{name:17s} host speed: calibration_s median {med:.5g} spread {(q3 - q1) / med:7.4f} "
              "(the timings are divided by it)")
        for metric, bound in bounds.items():
            med, q1, q3 = spread([r[metric] for r in rows])
            share = (q3 - q1) / med
            verdict = "steady" if share < bound / 3 else "within bound" if share <= bound else "UNSTEADY"
            code |= verdict != "steady"
            summary[f"{name}.{metric}"] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                          "bound": bound, "verdict": verdict}
            print(f"{name:17s} {metric:16s} median {med:<12.6g} spread {share:7.4f} "
                  f"bound {bound:<5g} {verdict}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.first_seed}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
