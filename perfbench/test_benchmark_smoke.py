"""Smoke test of the benchmark at its smallest size: every workload, untraced
and traced, must check out correct and emit exactly the metrics that
BENCHMARK.json lists, with their units."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    res = _run(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    record, result = (json.loads(line) for line in res.stdout.splitlines()[-2:])
    assert record["record"]["digests_checked"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["record"]["failures"]
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, "hex-blobs", 0)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
