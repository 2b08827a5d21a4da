"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run with ``python -m pytest -q bench`` from the repository root. It checks
that each run ends with a correct result carrying every metric that
BENCHMARK.json declares, with its unit, and that the report lines name the
workload's own end-to-end metrics, the unit costs and the tracing overhead.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")

REPORTED = {
    ("figures", 0): {"fig16_s": "s", "fig17_s": "s", "failed_ratio": "ratio", "outputs_identical": "count"},
    ("indoor-loaded", 0): {"user_ticks_per_s": "1/s", "failed_ratio": "ratio"},
    ("large-floor", 0): {"points_per_s": "1/s", "failed_ratio": "ratio"},
}
UNIT_COSTS = {
    "figures": ("zoning.classify_points.us_per_point", "zoning.monte_carlo_zone_model.us_per_sample",
                "engine.femto_sinr_experiment.us_per_drop"),
    "indoor-loaded": ("engine.simulate_indoor.us_per_user_tick", "protocol.run_handover.us_per_flow"),
    "large-floor": ("zoning.classify_points.us_per_point", "zoning.monte_carlo_zone_model.us_per_sample"),
}


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, report) if m}
    for name, value in result["metrics"].items():
        assert printed[name] == value["unit"]
    for name, unit in REPORTED.get((workload, trace), {}).items():
        assert printed[name] == unit
    if trace:
        assert printed["trace.overhead_s"] == "s"
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
        for name in UNIT_COSTS[workload]:
            assert any(line.startswith(f"unit-cost {name} ") for line in report), name


def test_input_expectations_hold_in_the_trace():
    _, indoor = run_bench("indoor-loaded", 1)
    _, floor = run_bench("large-floor", 1)
    assert indoor["metrics"]["engine.simulate_indoor.user_ticks"]["value"] == 60 * 20
    assert indoor["metrics"]["zoning.classify_points.calls"]["value"] == 60 * 20 + 1
    assert floor["metrics"]["zoning.plan_grid.ap_count"]["value"] == 121


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures", "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
