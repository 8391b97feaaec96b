"""Seconds-long smoke test of the benchmark harness, at toy input sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs untraced and traced. The test checks that every metric
BENCHMARK.json names is emitted with its unit, that nothing failed, and that
traced self times fit inside the traced wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = ("poly", "matrices", "lie", "takiff_algebra", "invariants",
           "decompose", "randgen", "jsonio", "cli")

# summary metrics each workload prints by name, besides the gated ones
NAMED = {
    "cold-lift": {"lift_ladder_s"},
    "decompose-mix": {"decompose_per_s", "decide_p50_s", "decide_p90_s",
                      "refuse_p50_s"},
    "cli-pipeline": {"cli_p50_s", "cli_p90_s"},
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "2026", "--seconds", "0.2", "--trace", str(trace),
         "--size", "toy"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((BENCH / "out" / f"{workload}-seed2026-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, record


def _check_units(metrics: dict, spec: list[dict]) -> dict[str, float]:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
    return {name: metric["value"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = _result(workload, 0)
    values = _check_units(result["metrics"], SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())
    named = record["named"]
    assert ({"setup_s", "pass_s", "probe_s", "failed_ratio", "peak_rss_mb"}
            | NAMED[workload] <= set(named))
    assert named["failed_ratio"]["value"] == 0
    assert record["digests"]["inputs_sha256"] and record["digests"]["outputs_sha256"]
    assert record["environment"]["python"] and record["environment"]["nproc"]
    for case in record["records"]:
        assert case["dim_g_m"] > 0 and case["dim_V_m"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_within_wall_time(workload):
    result, _ = _result(workload, 1)
    values = _check_units(result["metrics"], SPEC["per_layer"])
    wall = values["trace.pass_s"]
    totals = {module: values[f"{module}.total.self_s"] for module in MODULES}
    covered = sum(totals.values()) + values["bench.op.self_s"]
    assert 0 < covered <= wall * (1 + 1e-9)
    for name, value in values.items():
        if name.endswith(".self_s"):
            assert 0 <= value <= wall * (1 + 1e-9), name
    assert values["trace.overhead_ratio"] > 0
    if workload == "cold-lift":
        assert totals["lie"] + totals["matrices"] > 0
        assert totals["poly"] == 0
        assert values["takiff_algebra.build_lift.hit_ratio"] == 0
    elif workload == "decompose-mix":
        assert (totals["poly"] + totals["invariants"] + totals["decompose"]
                > totals["lie"] + totals["matrices"])
        assert values["takiff_algebra.build_lift.hit_ratio"] == 1
        assert values["decompose.precheck.calls_per_input"] >= 1
    else:
        assert totals["jsonio"] > 0 and totals["cli"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
