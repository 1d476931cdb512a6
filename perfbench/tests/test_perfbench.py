"""Tests of the benchmark itself, on short runs of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import COVERAGE_FLOOR, METRICS, read_spans  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

NAMES = [w.name for w in WORKLOADS]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_print_with_units(name):
    proc = bench("--workload", name, "--trace", "0")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SEARCHES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END)
    for metric, unit in run.END_TO_END:
        assert result["metrics"][metric]["value"] > 0
        assert any(metric in line and line.rstrip().endswith(unit)
                   for line in proc.stdout.splitlines()[:-1])


#: A per-layer metric that must be non-zero on each workload: the layer
#: it belongs to does the work there.
LAYER_AT_WORK = {
    "dfs-dining3": "policy.schedulable.calls",
    "livelock-dining2": "classify.calls",
    "dpor-dining3": "dpor.races",
    "snapshot-bbuf": "snapshot.restored_steps",
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer(name):
    result = result_of(bench("--workload", name, "--trace", "1"))
    assert result["correct"] and result["attempted"] == 2 * run.TRACE_PAIRS
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (n, u) for _layer, n, u in METRICS]
    assert metrics["trace.coverage_ratio"]["value"] >= COVERAGE_FLOOR
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["vm.step.calls"]["value"] > 0
    assert metrics[LAYER_AT_WORK[name]]["value"] > 0
    # Every transition is one VM step, restored by fast_forward or not.
    assert (metrics["executor.transitions"]["value"]
            == metrics["vm.step.calls"]["value"])
    spans = read_spans(run.OUT / f"spans-{name}.bin")
    step = spans["names"].index("vm.step")
    assert (list(spans["spans"]["name"]).count(step)
            == metrics["vm.step.calls"]["value"])


def test_wrong_verdict_counts_as_failed_run():
    wrong = dataclasses.replace(BY_NAME["dfs-dining3"], expect="LIVELOCK")
    result = run.measure(wrong, seconds=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_SEARCHES


def test_wrong_totals_count_as_failed_run():
    workload = BY_NAME["snapshot-bbuf"]
    wrong = dataclasses.replace(workload, transitions=workload.transitions + 1)
    result = run.measure(wrong, seconds=0)
    assert result["failed"] == result["attempted"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, u) for _layer, n, u in METRICS]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", NAMES[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
