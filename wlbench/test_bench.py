"""Tests of the benchmark's own code; the smoke runs take about half a minute in all.

    python3 -m pytest wlbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracecli  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_checks_and_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "verify_flat", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_covered_counts_overlapping_children_once():
    # two pool threads: children overlap each other and stick out of the parent span
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)]
    assert tracecli.covered((0.0, 10.0), children) == pytest.approx(7.0)
    span = [1, 0, "harness.replicas", 0.0, 10.0, 0.0]
    assert tracecli.self_time(span, {1: children}) == pytest.approx(3.0)


def test_layer_metrics_reads_zero_for_layers_never_reached():
    doc = {"import_s": 0.5, "floor_s": [],
           "spans": [[2, 1, "profile.build", 0.1, 0.3, 0.0], [1, 0, "cli.main", 0.0, 1.0, 0.0]]}
    out = tracecli.layer_metrics([doc])
    assert [name for name, _ in tracecli.PER_LAYER] == list(out)
    assert out["cli.import_ms"] == pytest.approx(500.0)
    assert out["cli.self_ms"] == pytest.approx(800.0)
    assert out["profile.build_ms"] == pytest.approx(200.0)
    assert out["ensemble.sample_calls"] == 0 and out["harness.replica_ms"] == 0.0


def test_predict_check_catches_a_wrong_variance(tmp_path):
    cfg = workloads.make_config("predict_random", 3, smoke=True)
    N = 10
    facts = {"N": N, "tr_S2": 1.0, "diag_sq": 1.0 / N, "max_diag_N": 1.0, "profile_errors": []}
    V = 4.0 + 2.0 * workloads.two_point_kappa4(workloads.TWO_POINT_P) / N
    for value, ok in ((V, True), (V * (1 + 1e-6), False)):
        pred = {"V": value, "V_integral": V, "E": 0.0, "paths_agree": True}
        (tmp_path / "prediction.json").write_text(json.dumps(pred))
        errors = workloads.check("predict_random", cfg, tmp_path, 0, facts)
        assert (errors == []) is ok, errors
