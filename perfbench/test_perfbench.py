"""The benchmark's own test: result contract, exact work counts, and refusal
to run without the program's sources.

    python -m pytest -q perfbench
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
TIME_UNITS = {"s", "ms", "1/s", "ratio"}


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = {k for k, unit in want.items() if unit not in TIME_UNITS}
    assert counts
    assert ({k: first["metrics"][k] for k in counts}
            == {k: second["metrics"][k] for k in counts})
    called = [k for k in counts if k.endswith(".calls")
              and first["metrics"][k]["value"] > 0]
    assert called


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
