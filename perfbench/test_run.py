"""Smoke tests of the benchmark itself, at a tiny snapshot count.

    python3 -m pytest perfbench/test_run.py -q

Each workload runs once untraced and once traced with ``--smoke``; the tests
check the result line against BENCHMARK.json and that the output checks ran.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            report = HERE / "out" / f"report-{workload}-{SEED}-trace{trace}.json"
            results[workload, trace] = (json.loads(proc.stdout.splitlines()[-1]),
                                        json.loads(report.read_text()))
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_metric_with_its_unit(runs, workload, trace):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_checks_ran(runs, workload, trace):
    _, report = runs[workload, trace]
    ops = {entry["op"] for entry in report["operations"]}
    assert "verify exits 0" in ops
    assert any("identify output is byte-identical" in op for op in ops)
    assert len(ops) >= 6  # plus the workload's own checks


def test_every_per_layer_metric_is_measured_on_some_workload(runs):
    measured = set()
    for workload in WORKLOADS:
        result, _ = runs[workload, 1]
        measured |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_lifting_calls_one_defect_check_per_mode(runs):
    metrics = runs["vdp-approx", 1][0]["metrics"]
    assert (metrics["identify.edmd.check_linear_evolution.calls"]["value"]
            == metrics["identify.evolutions"]["value"] > 0)


def test_fails_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
