"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Every workload must complete on two seeds with every output check
passing, print every end-to-end metric (and, traced, every per-layer
metric) with its unit, and count a corrupted output as failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--size", "tiny", "--seconds", "1"] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return detail, result


def assert_metrics(result, entries):
    assert set(result["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert isinstance(metric["value"], (int, float)), entry["name"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes_and_passes_its_checks(workload, seed):
    detail, result = result_of(bench("--workload", workload,
                                     "--seed", str(seed), "--trace", "0"))
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert detail["failed_share"] == 0.0
    assert_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert detail["host"]["FSYNC_BATCH"] >= 1
    assert detail["seed"] == seed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = result_of(bench("--workload", workload,
                                     "--seed", "1", "--trace", "1"))
    assert result["correct"], detail["problems"]
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert metrics["trace.traced_wall_s"] > 0
    if workload == "service-journal":
        assert metrics["storage.fsyncs"] > 0
        assert metrics["service.recover_replay_s"] > 0
    else:
        assert metrics["supervisor.jobs"] > 0
        assert metrics["report.bytes"] > 0
    if workload == "fleet-cold":
        assert metrics["fastpath.probe_day_s"] > 0
        assert metrics["supervisor.dispatch_overhead_s"] > 0


@pytest.mark.parametrize("workload,corrupt", [
    ("fleet-kernel", "report-byte"),
    ("fleet-cold", "report-byte"),
    ("service-journal", "journal-record"),
])
def test_corrupted_output_counts_as_failed(workload, corrupt):
    detail, result = result_of(bench("--workload", workload, "--seed", "1",
                                     "--trace", "0", "--corrupt", corrupt))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["failed_share"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_checks_count():
    """A traced run that fails a check, or builds another output than
    the timed runs, makes the result incorrect."""
    import argparse

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    metrics = {entry["name"]: 1.0 for entry in SPEC["end_to_end"]}
    timed = {"ops": 10, "failed_ops": 0, "checks": {"report_bytes": None},
             "output_sha256": "a", "metrics": metrics, "sizes": {}}
    setups = [(0.5, {"inputs_sha256": "i", "host": {}})]
    args = argparse.Namespace(workload=WORKLOADS[0], seed=1, size="full")
    for traced, correct in [
            (dict(timed, layers={}), True),
            (dict(timed, layers={}, checks={"report_bytes": "differs"}),
             False),
            (dict(timed, layers={}, output_sha256="b"), False)]:
        __, result = run.summarise(args, ROOT, SPEC, setups,
                                   [timed, timed], traced)
        assert result["correct"] is correct
        assert result["failed"] == (0 if correct else 20)
