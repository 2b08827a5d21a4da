"""Command-line front end: planning reports, experiment CSVs and traces.

Commands: ``plan``, ``zones``, ``experiment``, ``trace``, ``indoor-sim``.
Common flags (``--config``, ``--seed``, ``--out``, ``--samples``) fall back
to ``HYBRIDNET_CONFIG``, ``HYBRIDNET_SEED``, ``HYBRIDNET_OUT`` and
``HYBRIDNET_SAMPLES``; ``plan`` only prints and takes no ``--out``. The
config file is resolved once, before any command computes or writes;
``--room``, ``--radius``, ``--samples`` and ``--per-hop-ms`` fall back to its
``zoning`` and ``protocol`` keys. ``trace`` checks every trace against the
protocol's safety rules before writing it. Exit codes: 0 success, 2
validation failure (flags, config file), 3 runtime failure (any other
error a command raises, such as a trace that breaks a rule).

All CSV output uses '.' decimals, repr-exact floats and newline-terminated
rows, so a command rerun with the same configuration and seed is
byte-identical. Each experiment writes a JSON run manifest next to its
CSV recording the command, config digest, seed and tool version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import CSV_SCHEMA_VERSION, __version__, config as cfgmod, engine, protocol, transport, zoning
from .protocol import FaultPlan, HandoverKind

EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME = 0, 2, 3

EXPERIMENTS = ("fig16", "fig17", "fig18", "fig19", "fig20", "fig21")

TRACE_KINDS = {
    "lifi-to-femto": HandoverKind.LIFI_TO_FEMTO,
    "femto-to-lifi": HandoverKind.FEMTO_TO_LIFI,
    "lifi-to-lifi": HandoverKind.LIFI_TO_LIFI,
}


def _csv_text(header: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else repr(v) for v in row])
    return buf.getvalue()


def _write_run(args, config: dict, started: float, stem: str, command: str, text: str, **extra) -> Path:
    """Write ``<stem>.csv`` and its JSON run manifest into ``--out`` (default: the working directory)."""
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    csv_path.write_text(text)
    manifest = {
        "command": command,
        "config_digest": cfgmod.config_digest(config),
        "seed": args.seed,
        "tool_version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "outputs": [csv_path.name],
        "duration_s": time.monotonic() - started,
        **extra,
    }
    (out_dir / f"{stem}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return csv_path


def _positive(flag: str, value: float) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{flag}: must be a positive finite number, got {value!r}")
    return value


def _parse_room(text: str) -> tuple[float, float]:
    try:
        a, b = (float(side) for side in text.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"--room: must look like 24x24, got {text!r}") from exc
    return _positive("--room", a), _positive("--room", b)


def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _env_default(name: str, parse=str, fallback=None):
    value = os.environ.get(f"HYBRIDNET_{name}")
    try:
        return fallback if value is None else parse(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"HYBRIDNET_{name}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hybridnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes: bool):
        p.add_argument("--config", default=_env_default("CONFIG"), help="YAML scenario file")
        p.add_argument("--seed", type=_seed, default=_env_default("SEED", _seed, 0))
        if writes:
            p.add_argument("--out", default=_env_default("OUT"), help="output directory or file")

    for name, help_text in (("plan", "grid plan and zone-area report"), ("zones", "zone model as CSV")):
        p_zoning = sub.add_parser(name, help=help_text)
        p_zoning.add_argument("--room", help="AxB in metres (default: zoning.room_x_m/room_y_m)")
        p_zoning.add_argument("--radius", type=float, help="default: zoning.coverage_radius_m")
        p_zoning.add_argument("--samples", type=int, default=_env_default("SAMPLES", int),
                              help="default: zoning.mc_samples")
        common(p_zoning, writes=name == "zones")

    p_exp = sub.add_parser("experiment", help="figure-reproduction run")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    common(p_exp, writes=True)

    p_trace = sub.add_parser("trace", help="execute one handover call flow")
    p_trace.add_argument("kind", choices=sorted(TRACE_KINDS))
    p_trace.add_argument("--per-hop-ms", type=float, help="default: protocol.per_hop_latency_s")
    p_trace.add_argument("--drop-step", type=int, default=None)
    common(p_trace, writes=True)

    p_sim = sub.add_parser("indoor-sim", help="full indoor scenario run")
    common(p_sim, writes=True)
    return parser


def _zoning_args(args, config: dict, sections: dict) -> tuple[float, float]:
    """Room sides; an unset --room, --radius or --samples takes the config's zoning value."""
    room = sections["zoning"]
    args.radius = room.coverage_radius_m if args.radius is None else _positive("--radius", args.radius)
    args.samples = config["zoning"]["mc_samples"] if args.samples is None else args.samples
    if args.samples < zoning.MIN_MC_SAMPLES:
        raise ValueError(f"--samples: must be at least {zoning.MIN_MC_SAMPLES}, got {args.samples}")
    return _parse_room(args.room) if args.room is not None else (room.room_x_m, room.room_y_m)


def cmd_plan(args, config: dict, sections: dict) -> int:
    a, b = _zoning_args(args, config, sections)
    plan = zoning.plan_grid(a, b, args.radius)
    model = zoning.monte_carlo_zone_model(plan, args.samples, seed=args.seed)
    print(f"room: {a} m x {b} m, coverage radius {args.radius} m")
    print(f"ap_count: {plan.ap_count} (n_x={plan.n_x}, n_y={plan.n_y}), "
          f"minimum plan: {zoning.min_ap_count(a, b, args.radius)}")
    print(f"spacing: d_x={plan.d_x_m!r} d_y={plan.d_y_m!r}")
    print(f"overlap: l_x={plan.l_x_m!r} l_y={plan.l_y_m!r}")
    print("ap_centers: " + "; ".join(f"({x!r}, {y!r})" for x, y in plan.ap_centers))
    print(f"fap_center: ({plan.fap_center[0]!r}, {plan.fap_center[1]!r})")
    print(f"zone areas (m^2), analytic vs monte carlo ({args.samples} samples, seed {args.seed}):")
    for name, analytic, mc, prob in model.csv_rows():
        print(f"  {name}: analytic={analytic!r} mc={mc!r} prob={prob!r}")
    z1, z2, z3, z4 = model.analytic_areas_m2
    residual = (z1 + z2 + z3 + z4) - (a * b + z4)  # not sum(): compensated from Python 3.12
    print(f"analytic residual (sum - ab - A_Z4): {residual!r}")
    return EXIT_OK


def cmd_zones(args, config: dict, sections: dict) -> int:
    a, b = _zoning_args(args, config, sections)
    plan = zoning.plan_grid(a, b, args.radius)
    model = zoning.monte_carlo_zone_model(plan, args.samples, seed=args.seed)
    text = _csv_text(("zone", "analytic_area_m2", "mc_area_m2", "probability"), model.csv_rows())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _experiment_rows(name: str, config: dict, sections: dict):
    if name == "fig16":
        counts = list(range(config["engine"]["fig16"]["user_count_max"] + 1))
        rows = engine.idle_probability_experiment(sections["engine.fig16"], counts)
        return ("active_users", "empirical_idle_prob", "eq_idle_prob"), rows
    if name == "fig17":
        rows = engine.femto_sinr_experiment(sections["engine.fig17"], sections["channel.rf"])
        return ("scheme", "frf", "mean_sinr_db", "p5_sinr_db", "p50_sinr_db", "p95_sinr_db"), rows
    if name == "fig18":
        spacings = cfgmod.sweep(config["engine"]["fig18"], "spacing", "m")
        rows = engine.handover_success_experiment(sections["engine.fig18"], spacings)
        return ("ap_distance_m", "lifi_only_success", "hybrid_success"), rows
    if name == "fig19":
        rows = transport.capacity_sweep(
            cfgmod.sweep(config["transport"]["fig19"], "distance", "km"), sections["transport.vehicle"],
            sections["channel.optical"], sections["channel.rf"],
        )
        return ("mbs_distance_km", "direct_bps", "relayed_bps"), rows
    if name == "fig20":
        rows = transport.outage_sweep(
            cfgmod.sweep(config["transport"]["fig20"], "distance", "km"), sections["transport.vehicle"],
            sections["channel.rf"],
        )
        return ("mbs_distance_km", "p_out_direct", "p_out_relayed"), rows
    if name == "fig21":
        rows = transport.reliability_sweep(
            cfgmod.sweep(config["transport"]["fig21"], "distance", "m"), sections["transport.fig21"]
        )
        return ("inter_vehicle_distance_m", "rf_only", "owc_only", "hybrid"), rows
    raise ValueError(f"unknown experiment {name!r}")


def cmd_experiment(args, config: dict, sections: dict) -> int:
    started = time.monotonic()
    header, rows = _experiment_rows(args.name, config, sections)
    csv_path = _write_run(args, config, started, args.name, f"experiment {args.name}", _csv_text(header, rows))
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_trace(args, config: dict, sections: dict) -> int:
    started = time.monotonic()
    kind = TRACE_KINDS[args.kind]
    if args.per_hop_ms is not None and not 0.0 <= args.per_hop_ms < math.inf:
        raise ValueError(f"--per-hop-ms: per-hop latency must be finite and >= 0, got {args.per_hop_ms!r}")
    per_hop_s = sections["policy"].per_hop_latency_s if args.per_hop_ms is None else args.per_hop_ms / 1000.0
    steps = len(protocol.canonical_sequence(kind))
    if args.drop_step is not None and not 1 <= args.drop_step <= steps:
        raise ValueError(f"--drop-step must lie in 1..{steps} for {args.kind}, got {args.drop_step}")
    fault_plan = FaultPlan(drop_counts={args.drop_step: 1}) if args.drop_step is not None else FaultPlan()
    trace = protocol.run_handover(kind, per_hop_s, fault_plan)
    violation = protocol.validate_trace(trace)
    if violation is not None:
        raise RuntimeError(f"{args.kind} trace breaks the protocol at step {violation.step}: {violation.reason}")
    text = protocol.trace_to_csv(trace)
    outcome = {"outcome": trace.outcome, "failed_step": trace.failed_step, "latency_s": trace.latency_s}
    if args.out:
        csv_path = _write_run(args, config, started, f"trace_{kind.value}", f"trace {args.kind}", text, **outcome)
        print(f"wrote {csv_path} ({trace.outcome})")
    else:
        sys.stdout.write(text)
        print(f"# outcome: {json.dumps(outcome, sort_keys=True)}")
    return EXIT_OK


def cmd_indoor_sim(args, config: dict, sections: dict) -> int:
    started = time.monotonic()
    metrics = engine.simulate_indoor(sections["engine"])
    text = _csv_text(("metric", "value"), metrics.csv_rows())
    if args.out:
        csv_path = _write_run(args, config, started, "indoor_sim", "indoor-sim", text)
        print(f"wrote {csv_path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


COMMANDS = {
    "plan": cmd_plan,
    "zones": cmd_zones,
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "indoor-sim": cmd_indoor_sim,
}


def main(argv=None) -> int:
    try:  # the whole file is resolved, every value checked, before any command computes or writes
        args = build_parser().parse_args(argv)
        config = cfgmod.load_config(args.config)
        sections = cfgmod.resolve(config, args.seed)
    except (ValueError, FileNotFoundError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args, config, sections)
    except (ValueError, FileNotFoundError) as exc:  # the flag checks of _zoning_args and cmd_trace
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a program fault, or a trace that fails validation
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
