"""Self-tests of the benchmark on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-search", "oracle-queries", "geometry-scale", "cli-pipeline")


def run_bench(root: Path, workload: str, trace: int, seconds: float = 0.3):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def run_worker(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    proc = run_bench(ROOT, "cli-pipeline", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            ln.startswith(metric["name"] + " ") and ln.split()[2] == metric["unit"] for ln in lines
        ), metric["name"]
    assert any(ln.startswith("failed_ops 0 ratio") for ln in lines)


def test_forged_wrong_verdict_is_a_failed_op(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    answers_path = tmp_path / "perfbench" / "answers.json"
    answers = json.loads(answers_path.read_text())
    answers["exact-search"]["bacon_shor-3"] = "4"  # the true distance is 3
    answers_path.write_text(json.dumps(answers))
    proc = run_bench(tmp_path, "exact-search", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    passes = result["attempted"] // 5
    assert result["failed"] == passes >= 2
    assert "bacon_shor-3: wrong verdict" in proc.stderr


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "exact-search", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_at_most_the_pass_wall(workload):
    res = run_worker(workload)
    assert res["failed"] == 0
    assert res["traced_self_s"]
    for self_s, wall in zip(res["traced_self_s"], res["traced_wall_s"]):
        assert 0 < self_s <= wall


def test_workloads_touch_separate_layers():
    geometry = run_worker("geometry-scale")
    assert geometry["per_layer"]["regions.correctable.calls"] == 0
    assert geometry["per_layer"]["codes.distance.calls"] == 0
    assert geometry["layer_calls"]["certify.expansion_sweep"] > 0
    exact = run_worker("exact-search")
    assert not [name for name in exact["layer_calls"] if name.startswith("geometry.")]
    assert exact["layer_calls"]["codes.distance"] > 0
