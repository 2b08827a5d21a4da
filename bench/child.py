"""One pass of a workload in a fresh interpreter; started by run.py.

Usage: child.py SPEC_JSON SPAWN_MONOTONIC

SPEC_JSON names the commands, the config file, the output directory and
whether to trace. SPAWN_MONOTONIC is the parent's ``time.monotonic()``
just before it started this process; the monotonic clock is shared by all
processes, so set-up time covers interpreter start, ``import hybridnet.cli``
and the config load. The result is written as JSON to the spec's
``result`` path. A spec with no commands measures set-up only.

Right after set-up, and all through an untraced pass, the core-speed probe
(``probe.py``) times its kernel; ``run.py`` scales the times by it.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spawned = float(sys.argv[2])
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import hybridnet
    from hybridnet import cli, config as cfgmod

    config = cfgmod.load_config(spec["config"])
    setup_s = time.monotonic() - spawned
    import probe  # after set-up is timed, so that it stays out of setup_s

    if not Path(hybridnet.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hybridnet imported from {hybridnet.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 4
    result = {"setup_s": setup_s, "setup_kernel_s": probe.burst()}
    if spec["commands"]:
        result.update(run_pass(spec, cli, config, probe))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def run_pass(spec: dict, cli, config: dict, probe) -> dict:
    import platform
    import resource

    import numpy as np

    from checks import check_output, sha256
    from tracer import Tracer

    tracer = Tracer()
    # The sampler's handler would land in the self time of whatever span is open.
    sampler = None if spec["traced"] else probe.Sampler()
    if spec["traced"]:
        tracer.install()
    else:
        sampler.start()
    out_dir = Path(spec["out_dir"])
    commands = []
    with tracer.span("bench.pass"):
        started = time.perf_counter()
        for command in spec["commands"]:
            tracer.begin_command()
            t0 = time.perf_counter()
            try:
                code = cli.main(command["argv"])
            except SystemExit as exc:  # argparse rejects a malformed command line
                code = exc.code if isinstance(exc.code, int) else 2
            commands.append({"name": command["name"], "exit": code, "seconds": time.perf_counter() - t0})
        wall_s = time.perf_counter() - started
    kernel_s = sampler.stop() if sampler else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    digests = {}
    for command, record, counts in zip(spec["commands"], commands, tracer.counts_by_command):
        problems = [f"exit code {record['exit']}"] if record["exit"] != 0 else []
        for name in command["outputs"]:
            path = out_dir / name
            problem = check_output(path, config)
            if problem:
                problems.append(problem)
            elif path.exists():
                digests[name] = sha256(path)
        if spec["traced"]:
            for key, want in command["expect"].items():
                function, quantity = key.rsplit(".", 1)
                got = counts.get(function, {}).get(quantity)
                if got != want:
                    problems.append(f"input did not take effect: {key} = {got}, expected {want}")
        record["problems"] = problems

    result = {
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "kernel_samples": sampler.count if sampler else 0,
        "peak_rss_mb": peak_rss_mb,
        "commands": commands,
        "digests": digests,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration", "unknown"),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if spec["traced"]:
        stats = tracer.aggregate()
        tracer.write_csv(out_dir / "spans.csv")
        result["trace"] = {
            "stats": stats,
            "per_command_counts": tracer.counts_by_command,
            "wall_ns": stats["bench.pass"]["total_ns"],
            "self_sum_ns": sum(entry["self_ns"] for entry in stats.values()),
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
