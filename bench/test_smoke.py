"""Checks of the benchmark itself: the smoke mode runs every workload
correctly, the declared metrics match ``BENCHMARK.json``, a directory
without the package source is refused, and the p50 estimator is a median.

Run from the repository root: ``python -m pytest -q bench/test_smoke.py``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_smoke_runs_every_workload_correctly():
    done = _run(["bench/run.py", "--smoke"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for workload in ("verify-claims", "table-requests"):
        assert result["metrics"][f"{workload}.wall_s"]["value"] > 0


def test_declared_metrics_match_benchmark_json():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["bench/run.py", "--workload", "verify-claims", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_harrell_davis_median_weighs_the_middle_ranks():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run

    assert run._harrell_davis_median([5.0]) == 5.0
    assert abs(run._harrell_davis_median([1.0, 2.0, 3.0, 4.0]) - 2.5) < 1e-9
    # an outlying top rank barely moves it
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    assert abs(run._harrell_davis_median(values) - 5.0) < 1e-9
    assert run._harrell_davis_median(values[:-1] + [20.0]) < 5.05
