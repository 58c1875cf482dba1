"""Smoke test of the benchmark at a tiny size.

    python -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced; every metric that
BENCHMARK.json names must come out, a corrupted output must be counted as a
failure, and a directory without the sftlab sources must be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.stdout.strip(), proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_one_command_runs_every_workload_with_every_end_to_end_metric():
    proc = run("--workload", "all", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    rows = last_json(proc)["workloads"]
    assert list(rows) == WORKLOADS
    for name, row in rows.items():
        assert set(row) == {"correct", "attempted", "failed", "metrics"}
        assert row["correct"] and row["failed"] == 0, name
        assert {m: v["unit"] for m, v in row["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in row["metrics"].values()), row
    printed = proc.stdout.splitlines()
    for name in WORKLOADS:
        assert any(line.startswith(name) and "setup_s=" in line for line in printed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run("--workload", workload, "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc)
    assert line["correct"] and line["failed"] == 0, proc.stdout
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["metrics"]["harness.run_sweep.train_calls"]["value"] == 16


def test_corrupted_output_is_counted_as_failed():
    line = last_json(run("--workload", WORKLOADS[0], "--trace", "0", "--tiny", "--corrupt"))
    assert not line["correct"]
    assert line["failed"] >= 1 and line["failed"] <= line["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
