"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 -m pytest -q perfbench/smoke_test.py

Checks that each run passes its own correctness checks, that the result line
has the contract's shape, and that every metric named in BENCHMARK.json is
emitted with its unit. Also checks that a copy holding only the benchmark,
without the package sources, fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_the_package_sources():
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), "mlp_infer", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
