"""Printed metric names and units match BENCHMARK.json, and a checkout without the package is refused."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import wshrink  # noqa: E402
from wsbench import measure, tracer as tr  # noqa: E402
from wsbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_spec():
    assert measure.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert SPEC["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]


def test_per_layer_metrics_match_spec():
    units = measure.per_layer_units()
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with tr.Tracer() as tracer:
        wshrink.wasserstein_shrinkage(0.5 * wshrink.as_symmetric([[2.0, 1.0], [1.0, 2.0]]), 0.3)
    printed = tr.layer_metrics(tracer, jobs=1)
    printed["trace.overhead_s"] = 0.0
    assert set(printed) == set(units)


def test_spec_names_and_units_are_well_formed():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert all(name.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert all(unit.fullmatch(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])


def test_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"] and SPEC["paths"] == ["benchmarks"]


def test_tail_leaves_ten_jobs_above():
    times = [float(t) for t in range(1, 31)]
    value, pct = measure.tail(times)
    assert sum(t > value for t in times) == 10 and abs(pct - 200 / 3) < 1e-9
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_checkout_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "tune_cv", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_phases_pair_job_by_job():
    class Items:
        POOL, estimates_per_job = 3, 1

        def __init__(self):
            self.seen = []

        def run_job(self, i, tracer):
            self.seen.append((i % self.POOL, len(tracer.targets)))
            return 1, 0, i % self.POOL

    items, records, calibration = Items(), {}, []
    plain, traced = measure.run_phase(items, 0.0, [tr.Tracer(()), tr.Tracer()], records, calibration)
    assert len(plain.times) == len(traced.times) == 1 and records == {0: 0} and len(calibration) == 1
    assert items.seen == [(0, 0), (0, len(tr.TARGETS))]


def test_shift_is_taken_against_the_better_median():
    import steadiness

    assert abs(steadiness.worst_shift(1.0, 1.3, "lower") - 0.3) < 1e-12
    assert abs(steadiness.worst_shift(1.3, 1.0, "lower") - 0.3) < 1e-12
    assert abs(steadiness.worst_shift(4.0, 3.0, "higher") - 0.25) < 1e-12
