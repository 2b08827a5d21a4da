"""Command-line front end: planning reports, experiment CSVs and traces.

Commands: ``plan``, ``zones``, ``experiment``, ``trace``, ``indoor-sim``.
Common flags: ``--config``, ``--seed`` (default 0) and ``--out``; ``plan``
only prints and takes no ``--out``. A run's settings come from its flags and
config file only. Every command runs the same way: validate, then compute,
then write. The validation phase parses the flags, lays each of ``--room``,
``--radius``, ``--samples`` and ``--per-hop-ms`` that is set over the
``zoning`` or ``policy`` key it overrides, and resolves the config, so a
flag is checked by its key's rule. ``trace --drop-step`` fails the flow at
the step it names. ``--out``, the CSV file of ``zones`` and the directory
of the others, must not name an existing path of the other kind nor lie
under a file. Exit codes: 0 success, 2 validation failure (flags, config
file, ``--out``), 3 runtime failure (any error after validation). A reader
that closes stdout early ends a command quietly with exit 0, and
``--version`` or ``--help`` quietly with its usual exit.

All CSV output uses '.' decimals, repr-exact floats and newline-terminated
rows, so a command rerun with the same configuration and seed is
byte-identical. Every CSV written to ``--out`` gets a JSON run manifest
beside it recording the command, config digest (flags included), seed and
tool version.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import select
import sys
import time
from pathlib import Path

from . import CSV_SCHEMA_VERSION, __version__, config as cfgmod, engine, protocol, transport, zoning
from .protocol import TRACE_CSV_HEADER, HandoverKind

EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME = 0, 2, 3

EXPERIMENTS = ("fig16", "fig17", "fig18", "fig19", "fig20", "fig21")

TRACE_KINDS = {kind.value.replace("_", "-"): kind for kind in HandoverKind}


def _csv_text(header: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else repr(v) for v in row])
    return buf.getvalue()


def _write(args, config: dict, started: float, command: str, path: Path | None, text: str, **extra) -> None:
    """Write ``text`` to ``path`` with its JSON run manifest beside it, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    manifest = {
        "command": command,
        "config_digest": cfgmod.config_digest(config),
        "seed": args.seed,
        "tool_version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "outputs": [path.name],
        "duration_s": time.monotonic() - started,
        **extra,
    }
    path.with_name(f"{path.stem}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _room_sides(text: str) -> tuple[float, float]:
    try:
        a, b = (float(side) for side in text.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"--room: must look like 24x24, got {text!r}") from exc
    return a, b


# Flags that override config keys: argparse dest -> (flag, what it sets, its keys, the keys' values from its value).
KEY_FLAGS = {
    "room": ("--room", "room sides AxB in metres", ("zoning.room_x_m", "zoning.room_y_m"), _room_sides),
    "radius": ("--radius", "coverage radius in metres", ("zoning.coverage_radius_m",), lambda m: (m,)),
    "samples": ("--samples", "Monte Carlo samples", ("zoning.mc_samples",), lambda n: (n,)),
    "per_hop_ms": ("--per-hop-ms", "per-hop latency in ms", ("policy.per_hop_latency_s",), lambda ms: (ms / 1000.0,)),
}


def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache  # built on the first main() call, then reused: parsing keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hybridnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help: str | None):
        p.add_argument("--config", help="YAML scenario file")
        p.add_argument("--seed", type=_seed, default=0)
        if out_help:
            p.add_argument("--out", help=out_help)

    def key_flag(p, dest: str, **kwargs):
        flag, what, keys, _values = KEY_FLAGS[dest]
        p.add_argument(flag, dest=dest, help=f"{what} (overrides {' and '.join(keys)})", **kwargs)

    for name, help_text in (("plan", "grid plan and zone-area report"), ("zones", "zone model as CSV")):
        p_zoning = sub.add_parser(name, help=help_text)
        key_flag(p_zoning, "room")
        key_flag(p_zoning, "radius", type=float)
        key_flag(p_zoning, "samples", type=int)
        zones_out = "CSV file to write, its manifest beside it (default: stdout)"
        common(p_zoning, out_help=zones_out if name == "zones" else None)

    p_exp = sub.add_parser("experiment", help="figure-reproduction run")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    common(p_exp, out_help="directory to write the figure's CSV and its manifest into (default: the current directory)")

    p_trace = sub.add_parser("trace", help="execute one handover call flow")
    p_trace.add_argument("kind", choices=sorted(TRACE_KINDS))
    key_flag(p_trace, "per_hop_ms", type=float)
    p_trace.add_argument("--drop-step", type=int, default=None)
    common(p_trace, out_help="directory to write the trace CSV and its manifest into (default: stdout)")

    p_sim = sub.add_parser("indoor-sim", help="full indoor scenario run")
    common(p_sim, out_help="directory to write indoor_sim.csv and its manifest into (default: stdout)")
    return parser


def _validate(args) -> tuple[dict, dict]:
    """The validation phase: the config with every set flag laid over its keys, and its resolved sections.

    Each flag is checked by the rules of the keys it overrides, and an error
    names the flag; ``--drop-step``, which overrides no key, must name a step.
    """
    config, overrides, flag_of = cfgmod.load_config(args.config), {}, {}
    for dest, (flag, what, keys, values) in KEY_FLAGS.items():
        if getattr(args, dest, None) is not None:
            for key, value in zip(keys, values(getattr(args, dest))):
                section, name = key.split(".")
                overrides.setdefault(section, {})[name] = value
                flag_of[key] = f"{flag} ({what})"
    try:
        config = cfgmod.deep_merge(config, overrides)
        sections = cfgmod.resolve(config, args.seed)
    except ValueError as exc:
        key = str(exc).split(":")[0]
        if key in flag_of:
            raise ValueError(f"{flag_of[key]}: {exc}") from None
        raise
    if getattr(args, "drop_step", None) is not None:
        steps = len(protocol.canonical_sequence(TRACE_KINDS[args.kind]))
        if not 1 <= args.drop_step <= steps:
            raise ValueError(f"--drop-step must lie in 1..{steps} for {args.kind}, got {args.drop_step}")
    if getattr(args, "out", None):  # zones writes a file at --out, the others a directory, nothing under a file
        path, zones = Path(args.out).absolute(), args.command == "zones"
        found = next(p for p in (path, *path.parents) if os.path.exists(p))  # --out, or its nearest existing ancestor
        if found.is_dir() == (zones and found == path):
            is_ = "under a file" if found != path else "a directory" if zones else "a file"
            wants = "a CSV file" if zones else "a directory"
            raise ValueError(f"--out: {args.out!r} is {is_}; {args.command} writes to {wants}")
    return config, sections


def _zone_model(args, sections: dict) -> tuple[zoning.GridPlan, zoning.ZoneModel]:
    plan = zoning.plan_grid(sections["zoning"])
    return plan, zoning.monte_carlo_zone_model(plan, sections["zoning"].mc_samples, seed=args.seed)


def cmd_plan(args, config: dict, sections: dict) -> None:
    plan, model = _zone_model(args, sections)
    a, b, radius = plan.room_x_m, plan.room_y_m, plan.coverage_radius_m
    print(f"room: {a} m x {b} m, coverage radius {radius} m")
    print(f"ap_count: {plan.ap_count} (n_x={plan.n_x}, n_y={plan.n_y}), "
          f"minimum plan: {zoning.min_ap_count(sections['zoning'])}")
    print(f"spacing: d_x={plan.d_x_m!r} d_y={plan.d_y_m!r}")
    print(f"overlap: l_x={plan.l_x_m!r} l_y={plan.l_y_m!r}")
    print("ap_centers: " + "; ".join(f"({x!r}, {y!r})" for x, y in plan.ap_centers))
    print(f"fap_center: ({plan.fap_center[0]!r}, {plan.fap_center[1]!r})")
    print(f"zone areas (m^2), analytic vs monte carlo ({model.sample_count} samples, seed {args.seed}):")
    for name, analytic, mc, prob in model.csv_rows():
        print(f"  {name}: analytic={analytic!r} mc={mc!r} prob={prob!r}")
    z1, z2, z3, z4 = model.analytic_areas_m2
    residual = (z1 + z2 + z3 + z4) - (a * b + z4)  # not sum(): compensated from Python 3.12
    print(f"analytic residual (sum - ab - A_Z4): {residual!r}")


def cmd_zones(args, config: dict, sections: dict) -> None:
    started = time.monotonic()
    _plan, model = _zone_model(args, sections)
    text = _csv_text(("zone", "analytic_area_m2", "mc_area_m2", "probability"), model.csv_rows())
    _write(args, config, started, "zones", Path(args.out) if args.out else None, text)


def _experiment_rows(name: str, sections: dict):
    if name == "fig16":
        fig16 = sections["engine.fig16"]
        rows = engine.idle_probability_experiment(fig16, list(range(fig16.user_count_max + 1)))
        return ("active_users", "empirical_idle_prob", "eq_idle_prob"), rows
    if name == "fig17":
        rows = engine.femto_sinr_experiment(sections["engine.fig17"], sections["channel.rf"])
        return ("scheme", "frf", "mean_sinr_db", "p5_sinr_db", "p50_sinr_db", "p95_sinr_db"), rows
    if name == "fig18":
        fig18 = sections["engine.fig18"]
        spacings = cfgmod.sweep(fig18.spacing_start_m, fig18.spacing_stop_m, fig18.spacing_count)
        rows = engine.handover_success_experiment(fig18, spacings)
        return ("ap_distance_m", "lifi_only_success", "hybrid_success"), rows
    if name == "fig19":
        fig19 = sections["transport.fig19"]
        distances = cfgmod.sweep(fig19.distance_start_km, fig19.distance_stop_km, fig19.distance_count)
        rows = transport.capacity_sweep(distances, sections["transport.vehicle"], sections["channel.optical"],
                                        sections["channel.rf"])
        return ("mbs_distance_km", "direct_bps", "relayed_bps"), rows
    if name == "fig20":
        fig20 = sections["transport.fig20"]
        distances = cfgmod.sweep(fig20.distance_start_km, fig20.distance_stop_km, fig20.distance_count)
        rows = transport.outage_sweep(distances, sections["transport.vehicle"], sections["channel.rf"])
        return ("mbs_distance_km", "p_out_direct", "p_out_relayed"), rows
    if name == "fig21":
        fig21 = sections["transport.fig21"]
        distances = cfgmod.sweep(fig21.distance_start_m, fig21.distance_stop_m, fig21.distance_count)
        rows = transport.reliability_sweep(distances, fig21)
        return ("inter_vehicle_distance_m", "rf_only", "owc_only", "hybrid"), rows


def cmd_experiment(args, config: dict, sections: dict) -> None:
    started = time.monotonic()
    header, rows = _experiment_rows(args.name, sections)
    path = Path(args.out or Path.cwd()) / f"{args.name}.csv"
    _write(args, config, started, f"experiment {args.name}", path, _csv_text(header, rows))


def cmd_trace(args, config: dict, sections: dict) -> None:
    started = time.monotonic()
    kind = TRACE_KINDS[args.kind]
    trace = protocol.run_handover(kind, sections["policy"], args.drop_step)
    outcome = {"outcome": trace.outcome, "failed_step": trace.failed_step, "latency_s": trace.latency_s}
    path = Path(args.out) / f"trace_{kind.value}.csv" if args.out else None
    _write(args, config, started, f"trace {args.kind}", path, _csv_text(TRACE_CSV_HEADER, trace.csv_rows()), **outcome)
    print(f"# outcome: {json.dumps(outcome, sort_keys=True)}")


def cmd_indoor_sim(args, config: dict, sections: dict) -> None:
    started = time.monotonic()
    text = _csv_text(("metric", "value"), engine.simulate_indoor(sections["engine"]).csv_rows())
    _write(args, config, started, "indoor-sim", Path(args.out) / "indoor_sim.csv" if args.out else None, text)


COMMANDS = {
    "plan": cmd_plan,
    "zones": cmd_zones,
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "indoor-sim": cmd_indoor_sim,
}


def _silence_closed_stdout() -> bool:
    """Whether stdout is a pipe or socket whose reader has closed it, not any stream a write failed on; if so, mute it."""
    poller = select.poll()
    with contextlib.suppress(OSError, ValueError):  # a stream with no file descriptor, such as a captured one, is not
        poller.register(sys.stdout, select.POLLOUT)
    if not any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0)):
        return False
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the interpreter's flush at exit
    return True


def main(argv=None) -> int:
    try:  # the validation phase: every flag and config value is checked before any command computes or writes
        args = build_parser().parse_args(argv)
        config, sections = _validate(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:  # OSError: a missing or unreadable config file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit:  # argparse printed --help, --version or a usage error; in-process callers still get the exit
        try:
            sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
        except BrokenPipeError:
            if not _silence_closed_stdout():
                raise
        raise
    try:
        COMMANDS[args.command](args, config, sections)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
    except Exception as exc:  # a program fault or a failed write
        if isinstance(exc, BrokenPipeError) and _silence_closed_stdout():  # the rest of the output has nowhere to go
            return EXIT_OK
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
