#!/usr/bin/env python3
"""hybridnet benchmark: CLI workloads timed end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Each pass runs the workload's CLI commands through ``hybridnet.cli.main``
in a fresh, single-threaded Python process (numpy/OpenBLAS pinned to one
thread), one command at a time: a closed loop with one client. The seed is
passed to every command as ``--seed``.

``--trace 0`` first times several set-up-only interpreter starts, then runs
as many whole passes as fit in ``--seconds`` (at least one) and reports the
median of each end-to-end metric. Times are scaled to the reference core
speed by the probe of ``probe.py``, which measures how much the host's other
load slowed the core during each pass and set-up; the raw times are printed
beside them. ``--trace 1`` runs one untraced pass and one traced pass, in
which every public function of the package's modules is wrapped in a span,
and reports the per-layer metrics; the difference of the two passes' raw
wall times is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit. ``--smoke`` shrinks every workload to a size
that runs in seconds, for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from probe import REFERENCE_KERNEL_S

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Whole run, all passes included, ends within this many seconds.
DEADLINE_S = 170.0
SETUP_PROBES = 9
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The indoor-loaded scenario of the ROADMAP: 60 users, 6 calls/min, 300 s
# holding. Floats carry a dot, since PyYAML reads "6e0" as a string.
INDOOR_LOADED_YAML = "engine:\n  user_count: 60\n  traffic: {arrival_rate_per_min: 6.0, mean_holding_s: 300.0}\n"
SMOKE_FIGURES_YAML = (
    "engine:\n"
    "  fig16: {placements: 2000, zone_samples: 16384, user_count_max: 5}\n"
    "  fig17: {drops: 200, zone_samples: 16384}\n"
    "  fig18: {crossings: 2000, spacing_count: 7}\n"
    "transport:\n"
    "  fig19: {distance_count: 10}\n"
    "  fig20: {distance_count: 10}\n"
    "  fig21: {distance_count: 10}\n"
)
SMOKE_INDOOR_YAML = INDOOR_LOADED_YAML + "  duration_s: 2.0\n"

# Per-layer unit costs in microseconds: metric -> (function, time quantity, work quantity).
UNIT_COST_SOURCES = {
    "zoning.classify_points.us_per_point": ("zoning.classify_points", "total_ns", "points"),
    "zoning.classify_points.us_per_call": ("zoning.classify_points", "total_ns", "calls"),
    "zoning.monte_carlo_zone_model.us_per_sample": ("zoning.monte_carlo_zone_model", "total_ns", "samples"),
    "engine.femto_sinr_experiment.us_per_drop": ("engine.femto_sinr_experiment", "self_ns", "drops"),
    "engine.simulate_indoor.us_per_user_tick": ("engine.simulate_indoor", "total_ns", "user_ticks"),
    "protocol.run_handover.us_per_flow": ("protocol.run_handover", "total_ns", "calls"),
}

def workloads(smoke: bool) -> dict[str, dict]:
    """Commands, config, fixed work count and traced input expectations per workload."""
    figures = [
        {"name": name, "argv": ["experiment", name], "outputs": [f"{name}.csv"],
         "expect": {"zoning.plan_grid.ap_count": 9} if name in ("fig16", "fig17") else {}}
        for name in ("fig16", "fig17", "fig18", "fig19", "fig20", "fig21")
    ]
    samples = 16384 if smoke else 1 << 20
    user_ticks = 60 * (20 if smoke else 1200)
    return {
        "figures": {
            "config": SMOKE_FIGURES_YAML if smoke else None,
            "commands": figures,
            "work": (len(figures), "figures"),
            # ROADMAP aim-1 unit costs and the ROADMAP's baseline in the same unit
            # (single runs at 9 APs; its 0.53 s per 2^20 samples as us per sample).
            "unit_costs": {"zoning.classify_points.us_per_point": 0.8,
                           "zoning.monte_carlo_zone_model.us_per_sample": 0.53e6 / (1 << 20),
                           "engine.femto_sinr_experiment.us_per_drop": None},
        },
        "indoor-loaded": {
            "config": SMOKE_INDOOR_YAML if smoke else INDOOR_LOADED_YAML,
            "commands": [{"name": "indoor-sim", "argv": ["indoor-sim"], "outputs": ["indoor_sim.csv"],
                          "expect": {"engine.simulate_indoor.user_ticks": user_ticks}}],
            "work": (user_ticks, "user_ticks"),
            # The ROADMAP's 55 us per user-tick is at 100 users and default traffic.
            "unit_costs": {"engine.simulate_indoor.us_per_user_tick": 55.0, "protocol.run_handover.us_per_flow": None,
                           "zoning.classify_points.us_per_call": None},
        },
        "large-floor": {
            "config": None,
            "commands": [{"name": "zones", "argv": ["zones", "--room", "100x100", "--radius", "5", "--samples", str(samples)],
                          "outputs": ["zones.csv"], "out_is_file": True, "expect": {"zoning.plan_grid.ap_count": 121}}],
            "work": (samples, "points"),
            "unit_costs": {"zoning.classify_points.us_per_point": None,
                           "zoning.monte_carlo_zone_model.us_per_sample": None},
        },
    }


class Runner:
    """Starts child passes for one workload and collects their results."""

    def __init__(self, workload: dict, seed: int, work_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.config_path = None
        if workload["config"] is not None:
            self.config_path = work_dir / "workload.yaml"
            self.config_path.write_text(workload["config"])
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("HYBRIDNET_")}
        self.env.update({k: "1" for k in THREAD_ENV})
        self.env.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        for key in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(key, None)
        self.count = 0

    def start(self, mode: str) -> dict | None:
        """One child process in mode "setup", "untraced" or "traced"; None on crash or timeout."""
        self.count += 1
        out_dir = self.work_dir / f"pass{self.count}"
        out_dir.mkdir()
        commands = []
        if mode != "setup":
            for command in self.workload["commands"]:
                out = out_dir / command["outputs"][0] if command.get("out_is_file") else out_dir
                argv = command["argv"] + ["--seed", str(self.seed), "--out", str(out)]
                if self.config_path is not None:
                    argv += ["--config", str(self.config_path)]
                commands.append({**command, "argv": argv})
        spec = {"config": str(self.config_path) if self.config_path else None, "commands": commands,
                "out_dir": str(out_dir), "traced": mode == "traced", "result": str(out_dir / "result.json")}
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(spawned)],
            cwd=out_dir, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"pass {self.count} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
            print(f"pass {self.count} exited with code {proc.returncode}", file=sys.stderr)
            return None
        return json.loads((out_dir / "result.json").read_text())


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-function calls, self seconds and work counts, per-module self seconds, unit costs."""
    stats = trace["stats"]
    out: dict[str, float] = {}
    for function, entry in stats.items():
        module = function.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + entry["self_ns"] / 1e9
        out[f"{function}.self_s"] = entry["self_ns"] / 1e9
        out.update({f"{function}.{k}": v for k, v in entry.items() if not k.endswith("_ns")})
    for metric, (function, time_key, work_key) in UNIT_COST_SOURCES.items():
        work = stats[function].get(work_key, 0)
        out[metric] = stats[function][time_key] / 1e3 / work if work else 0.0
    out["trace.wall_s"] = trace["wall_ns"] / 1e9
    out["trace.self_sum_s"] = trace["self_sum_ns"] / 1e9
    return out


def unit_cost_lines(layers: dict[str, float], baselines: dict[str, float | None]) -> list[str]:
    """ROADMAP aim-1 unit costs from the trace, beside the ROADMAP baseline where it has one."""
    return [
        f"unit-cost {metric} at {layers['zoning.plan_grid.ap_count']} APs measured {layers[metric]:.4g} us "
        f"roadmap {'n/a' if baseline is None else f'{baseline:.4g} us'}"
        for metric, baseline in baselines.items()
    ]


def tally(passes: list[dict | None], n_commands: int) -> tuple[int, int, list[str]]:
    """Commands attempted and failed over all passes; a crashed pass fails all its commands."""
    attempted = failed = 0
    problems = []
    for result in passes:
        attempted += n_commands
        if result is None:
            failed += n_commands
            problems.append("pass crashed or timed out")
            continue
        for record in result["commands"]:
            if record["problems"]:
                failed += 1
                problems += [f"{record['name']}: {p}" for p in record["problems"]]
    return attempted, failed, problems


def outputs_identical(result: dict, recorded: dict[str, str]) -> int:
    return sum(1 for name, digest in result["digests"].items() if recorded.get(name) == digest)


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A time measured while the probe's kernel took ``kernel_s``, scaled to the reference core speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def measure_untraced(runner: Runner, workload: dict, seconds: float) -> tuple[list, dict, dict]:
    """Set-up probes, then whole passes while the next one is expected to end within ``seconds``."""
    probes = [runner.start("setup") for _ in range(SETUP_PROBES)]
    if any(p is None for p in probes):
        raise RuntimeError("a set-up probe failed")
    passes = []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(runner.start("untraced"))
        now = time.monotonic()
        if passes[-1] is None or (now - measure_start) + (now - t0) > seconds:
            break
    done = [p for p in passes if p is not None]
    if not done:
        raise RuntimeError("no pass completed")
    work_count, work_unit = workload["work"]
    walls = [at_reference_speed(p["wall_s"], p["kernel_s"]) for p in done]
    setups = [at_reference_speed(p["setup_s"], p["setup_kernel_s"]) for p in probes + done]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in done), "MB"),
        "work_per_s": (statistics.median(work_count / wall for wall in walls), "1/s"),
    }
    report = dict(metrics)
    for name in ("fig16", "fig17"):
        seconds_by_pass = [at_reference_speed(c["seconds"], p["kernel_s"])
                           for p in done for c in p["commands"] if c["name"] == name]
        if seconds_by_pass:
            report[f"{name}_s"] = (statistics.median(seconds_by_pass), "s")
    if work_unit in ("user_ticks", "points"):
        report[f"{work_unit}_per_s"] = metrics["work_per_s"]
    report.update(raw_metrics(done, probes + done))
    return passes, metrics, report


def raw_metrics(passes: list[dict], starts: list[dict]) -> dict:
    """The unscaled times and the core slowdown the probe saw, for the report lines."""
    return {
        "raw.wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "raw.setup_s": (statistics.median(p["setup_s"] for p in starts), "s"),
        "probe.slowdown": (statistics.median(p["kernel_s"] / REFERENCE_KERNEL_S for p in passes), "ratio"),
        "probe.samples": (statistics.median(p["kernel_samples"] for p in passes), "count"),
    }


def measure_traced(runner: Runner, workload: dict, spec: dict, digests: dict) -> tuple[list, dict, dict]:
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    untraced = runner.start("untraced")
    traced = runner.start("traced")
    if untraced is None or traced is None:
        raise RuntimeError("a pass crashed or timed out")
    passes = [untraced, traced]
    attempted, failed, _ = tally(passes, len(workload["commands"]))
    layers = layer_metrics(traced["trace"])
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced["wall_s"]
    layers.update(checks.indoor_ratios(runner.work_dir / f"pass{runner.count}" / "indoor_sim.csv"))
    layers["failed_ratio"] = failed / attempted
    layers["outputs_identical"] = outputs_identical(traced, digests)
    layers["outputs_with_digest"] = len(digests)
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layers and m["name"].rsplit(".", 1)[0] in traced["trace"]["stats"]:
            layers[m["name"]] = 0  # a work count of a traced function this workload never calls
        metrics[m["name"]] = (layers[m["name"]], m["unit"])
    for line in unit_cost_lines(layers, workload["unit_costs"]):
        print(line)
    for command, counts in zip(workload["commands"], traced["trace"]["per_command_counts"]):
        for function, quantities in sorted(counts.items()):
            for quantity, value in sorted(quantities.items()):
                print(f"command-count {command['name']} {function}.{quantity} {value}")
    report = dict(metrics)
    report.update(wall_s=(at_reference_speed(untraced["wall_s"], untraced["kernel_s"]), "s"),
                  setup_s=(at_reference_speed(untraced["setup_s"], untraced["setup_kernel_s"]), "s"),
                  peak_rss_mb=(untraced["peak_rss_mb"], "MB"))
    report.update(raw_metrics([untraced], [untraced]))
    return passes, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workload sizes, for the smoke test")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "hybridnet" / "cli.py").is_file():
        print(f"error: no hybridnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = workloads(args.smoke)
    if args.workload not in all_workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(all_workloads)}", file=sys.stderr)
        return 2
    workload = all_workloads[args.workload]
    recorded = json.loads((BENCH / "digests.json").read_text())
    digests = {} if args.smoke else recorded.get(str(args.seed), {}).get(args.workload, {})

    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload, args.seed, work_dir, started + DEADLINE_S)
    try:
        # Fills the bytecode cache, which users pay for once, not on every run.
        if runner.start("setup") is None:
            raise RuntimeError("the program could not be set up")
        if args.trace:
            passes, metrics, report = measure_traced(runner, workload, spec, digests)
        else:
            passes, metrics, report = measure_untraced(runner, workload, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = tally(passes, len(workload["commands"]))
    first = next(p for p in passes if p is not None)
    if not args.trace:
        report["failed_ratio"] = (failed / attempted, "ratio")
        report["outputs_identical"] = (outputs_identical(first, digests), "count")
        report["outputs_with_digest"] = (len(digests), "count")
    work_count, work_unit = workload["work"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)} "
          f"work {work_count} {work_unit}")
    print("env " + json.dumps(first["env"], sort_keys=True))
    for problem in problems:
        print(f"problem {problem}")
    for name, (value, unit) in sorted(report.items()):
        print(f"metric {name} {value!r} {unit}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
