"""The benchmark's own test: smoke runs report every declared metric, and no operation fails.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

The smoke mode uses tiny inputs and one round, so the whole file takes a
few minutes, most of it Spark start-up.
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


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def _result(out: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert out.returncode == 0, out.stderr[-4000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_report_every_metric(trace):
    result, lines = _result(_run(ROOT, "--workload", "all", "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert len(result["metrics"]) == len(WORKLOADS) * len(declared)
    for w in WORKLOADS:
        for m in declared:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"], (w, m["name"])
            assert isinstance(got["value"], (int, float)), (w, m["name"])
        share = [ln for ln in lines if ln.startswith(f"metric {w} failed_op_share = ")]
        assert len(share) == 1 and float(share[0].split()[4]) == 0.0


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    result, _ = _result(_run(ROOT, "--workload", "local", "--trace", "0", "--smoke"))
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "local", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
