"""Command-line surface tests: schemas, exit codes and byte determinism."""

import builtins
import collections
import gc
import hashlib
import json
import math
import os
import platform
import select
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from hybridnet import channel, cli, config as cfgmod, selection, transport, zoning
from hybridnet.channel import OpticalParams, RfParams, optical_channel_gain
from hybridnet.config import DEFAULT_CONFIG, config_digest, deep_merge, load_config, resolve
from hybridnet.engine import PolicyConfig
from hybridnet.rng import STREAM_LABELS

SMALL_OVERRIDES = """
zoning:
  mc_samples: 16384
engine:
  user_count: 3
  duration_s: 5.0
  fig16:
    placements: 2000
    user_count_max: 6
  fig17:
    drops: 200
  fig18:
    crossings: 2000
    spacing_count: 7
transport:
  fig19: {distance_count: 8}
  fig20: {distance_count: 8}
  fig21: {distance_count: 8}
"""


# The sha256 pins of every command's output, one section per command; each test_golden_digest reads its own.
# "recorded_with" names the Python and numpy versions the pins were last recorded under.
GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
RECORDED_WITH = GOLDEN.pop("recorded_with")
GOLDEN_FIELDS = {"id", "command", "args", "config", "seed", "output", "sha256"}
_READ_SECTIONS = set()


def golden(command: str) -> list:
    """The golden.json entries of ``command``, one test parameter each under its entry's id."""
    _READ_SECTIONS.add(command)
    return [pytest.param(entry, id=entry["id"]) for entry in GOLDEN[command]]


# The declared interval of each numeric key, by dotted path.
DOMAINS = {f"{section}.{f.name}": f.metadata["domain"]
           for section, cls in cfgmod.SECTIONS.items() for f in fields(cls) if "domain" in f.metadata}


def leaves(node: dict, prefix: str = ""):
    """(dotted key, value) of each leaf of a config mapping."""
    for key, value in node.items():
        yield from leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [(f"{prefix}{key}", value)]


def run_golden(entry: dict, tmp_path: Path, capsys) -> bytes:
    """Run one golden.json entry in ``tmp_path`` and return the bytes of its output."""
    argv = [entry["command"], *entry["args"], "--seed", str(entry["seed"])]
    if entry["config"] is not None:
        (tmp_path / "scenario.yaml").write_text(entry["config"])
        argv += ["--config", str(tmp_path / "scenario.yaml")]
    if entry["output"] == "stdout":
        assert cli.main(argv) == 0
        return capsys.readouterr().out.encode()
    out = tmp_path / entry["output"]
    # zones writes its CSV to the --out path; the other commands write into the --out directory.
    assert cli.main([*argv, "--out", str(out if entry["command"] == "zones" else tmp_path)]) == 0
    return out.read_bytes()


def assert_golden(entry: dict, tmp_path: Path, capsys) -> None:
    """Run one golden.json entry; a digest that differs from its pin names the recorded and the running versions."""
    assert hashlib.sha256(run_golden(entry, tmp_path, capsys)).hexdigest() == entry["sha256"], (
        f"pinned under Python {RECORDED_WITH['python']} and numpy {RECORDED_WITH['numpy']}, "
        f"run under Python {platform.python_version()} and numpy {np.__version__}")


def test_every_golden_entry_is_read():
    # Each section is read whole by the test that asks golden() for it, so an
    # entry is read when its section is and it holds the fields run_golden reads.
    assert set(GOLDEN) == _READ_SECTIONS and set(RECORDED_WITH) == {"python", "numpy"}
    for command, entries in GOLDEN.items():
        assert len({entry["id"] for entry in entries}) == len(entries), command
        for entry in entries:
            assert set(entry) == GOLDEN_FIELDS and entry["command"] == command, entry["id"]


def out_flag(argv: list, path: Path) -> list:
    """``--out path`` for a command that writes; ``plan`` only prints and takes no ``--out``."""
    return [] if argv[0] == "plan" else ["--out", str(path)]


# One run of each command, each at its defaults.
COMMANDS = [["plan"], ["zones"], ["experiment", "fig18"], ["trace", "lifi-to-lifi"], ["indoor-sim"]]


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_OVERRIDES)
    return str(path)


class TestPlan:
    def test_reports_nine_aps(self, capsys):
        assert cli.main(["plan", "--room", "24x24", "--radius", "5", "--samples", "16384"]) == 0
        out = capsys.readouterr().out
        assert "ap_count: 9" in out
        assert "d_x=8.0" in out and "l_x=2.0" in out

    def test_rejects_degenerate_room(self, capsys):
        assert cli.main(["plan", "--room", "0x24", "--radius", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_repeat_output_is_identical(self, capsys):
        args = ["plan", "--room", "24x24", "--radius", "5", "--samples", "16384", "--seed", "3"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_takes_no_out(self, tmp_path, capsys):
        # plan only prints: --out is not one of its flags.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["plan", "--samples", "16384", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reads_zoning_from_config(self, tmp_path, capsys):
        path = tmp_path / "floor.yaml"
        path.write_text("zoning: {room_x_m: 100.0, room_y_m: 100.0, mc_samples: 16384}\n")
        assert cli.main(["plan", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ap_count: 121" in out and "(16384 samples" in out
        assert cli.main(["plan", "--config", str(path), "--room", "24x24"]) == 0
        assert "ap_count: 9" in capsys.readouterr().out


class TestZoningFlags:
    @pytest.mark.parametrize("command", ["plan", "zones"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--room", "infx24"], "--room"), (["--room", "nanx24"], "--room"), (["--room", "24xinf"], "--room"),
            (["--radius", "inf"], "--radius"), (["--radius", "nan"], "--radius"), (["--radius", "0"], "--radius"),
            (["--samples", "5"], "--samples"), (["--radius", "1e-9"], "--radius"),
            (["--samples", "100000000000000000000000000000"], "--samples"),
            (["--room", "1e300x1e300", "--radius", "1e299"], "--room"),
            (["--room", "1.7e308x1", "--radius", "1.7e308"], "--room"), (["--radius", "1e151"], "--radius"),
            (["--samples", "9223372036854775807"], "--samples"), (["--samples", "2147483647000"], "--samples"),
            (["--samples", "4294967297"], "--samples"),
        ],
        ids=["room-inf", "room-nan", "room-y-inf", "radius-inf", "radius-nan", "radius-zero", "samples-5",
             "radius-beyond-the-ap-bound", "samples-beyond-int64", "room-1e300", "room-1.7e308", "radius-1e151",
             "samples-int64-max", "samples-2147483647000", "samples-one-past-2**32"],
    )
    def test_bad_value_exits_2_naming_the_flag(self, capsys, command, argv, flag):
        assert cli.main([command, *argv]) == 2
        assert flag in capsys.readouterr().err


class TestEnvironment:
    @staticmethod
    def _run(argv, out, capsys):
        """Exit code, stdout and the files written (each manifest without its duration) by one run of ``argv``."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --version and --help
            code = exc.code
        files = {}
        for path in sorted(p for p in out.parent.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                manifest = json.loads(data)
                assert (manifest.pop("seed"), manifest.pop("config_digest")) == (0, config_digest(DEFAULT_CONFIG))
                manifest.pop("duration_s")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[path.name] = data
        return code, capsys.readouterr().out, files

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], *COMMANDS], ids=lambda argv: argv[0].lstrip("-"))
    def test_no_variable_changes_a_command(self, tmp_path, monkeypatch, capsys, argv):
        # A run's settings come from its flags and its config file only: variables named like them change nothing.
        ignored = tmp_path / "ignored"
        ignored.mkdir()
        out = tmp_path / "run" / ("zones.csv" if argv[0] == "zones" else "out")
        writes = argv[0] in ("zones", "experiment", "indoor-sim")  # trace prints unless given --out
        argv = [*argv, "--out", str(out)] if writes else argv
        variables = {"HYBRIDNET_CONFIG": str(tmp_path / "missing.yaml"), "HYBRIDNET_SEED": "abc",
                     "HYBRIDNET_OUT": str(ignored), "HYBRIDNET_SAMPLES": "abc"}
        for name in variables:
            monkeypatch.delenv(name, raising=False)
        bare = self._run(argv, out, capsys)
        shutil.rmtree(out.parent, ignore_errors=True)
        for name, value in variables.items():
            monkeypatch.setenv(name, value)
        assert self._run(argv, out, capsys) == bare
        assert bare[0] == 0 and bare[1]
        assert (bare[2] != {}) == writes
        if argv[0] == "trace":
            [pin] = [entry["sha256"] for entry in GOLDEN["trace"] if entry["args"] == ["lifi-to-lifi"]]
            assert hashlib.sha256(bare[1].encode()).hexdigest() == pin
        assert list(ignored.iterdir()) == []


class TestInProcess:
    # --version, a usage error, then each command twice: once with flags and once without them.
    CALLS = [["--version"], ["experiment", "fig99"],
             ["experiment", "fig19", "--seed", "3", "--out", "A"], ["experiment", "fig19", "--out", "B"],
             ["zones", "--room", "30x20", "--samples", "10000", "--out", "C/z.csv"],
             ["zones", "--samples", "10000", "--out", "D/z.csv"]]

    def test_main_calls_in_one_process_are_independent(self, tmp_path, monkeypatch, capsys):
        # main() builds its parser once per process and reuses it: no call's flags, defaults or usage error reach
        # the next call, so each writes what it writes after a freshly built parser.
        runs = {}
        for way in ("shared", "fresh"):
            (tmp_path / way).mkdir()
            monkeypatch.chdir(tmp_path / way)
            cli.build_parser.cache_clear()
            results, files = [], {}
            for argv in self.CALLS:
                if way == "fresh":
                    cli.build_parser.cache_clear()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # --version and the usage error
                    code = exc.code
                results.append((code, *capsys.readouterr()))
            if way == "shared":
                assert cli.build_parser.cache_info().misses == 1
            for path in sorted(p for p in (tmp_path / way).rglob("*") if p.is_file()):
                data = json.loads(path.read_text()) if path.suffix == ".json" else path.read_text()
                if isinstance(data, dict):
                    data.pop("duration_s")
                files[path.relative_to(tmp_path / way).as_posix()] = data
            runs[way] = results, files
        assert runs["shared"] == runs["fresh"]
        results, files = runs["shared"]
        assert [code for code, _, _ in results] == [0, 2, 0, 0, 0, 0] and "invalid choice" in results[1][2]
        assert sorted(files) == ["A/fig19.csv", "A/fig19.manifest.json", "B/fig19.csv", "B/fig19.manifest.json",
                                 "C/z.csv", "C/z.manifest.json", "D/z.csv", "D/z.manifest.json"]
        assert (files["A/fig19.manifest.json"]["seed"], files["B/fig19.manifest.json"]["seed"]) == (3, 0)
        assert files["D/z.manifest.json"]["config_digest"] == config_digest(deep_merge(
            DEFAULT_CONFIG, {"zoning": {"mc_samples": 10000}}))
        assert files["C/z.csv"] != files["D/z.csv"]


class TestSeed:
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, command, seed):
        with pytest.raises(SystemExit) as excinfo:  # argparse rejects the flag's value
            cli.main([*command, "--seed", seed, *out_flag(command, tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestZones:
    def test_csv_schema(self, capsys):
        assert cli.main(["zones", "--room", "10x10", "--radius", "5", "--samples", "16384"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "zone,analytic_area_m2,mc_area_m2,probability"
        assert len(lines) == 5

    def test_writes_file(self, tmp_path):
        out = tmp_path / "zones.csv"
        assert cli.main(["zones", "--samples", "16384", "--out", str(out)]) == 0
        assert out.read_text().startswith("zone,")

    # sha256 of zones.csv at seed 0. The zone lookup may change how it finds
    # a point's APs, never which zone a point lands in.
    @pytest.mark.parametrize("entry", golden("zones"))
    def test_golden_digest(self, tmp_path, capsys, entry):
        assert_golden(entry, tmp_path, capsys)


class TestExperiments:
    @pytest.mark.parametrize(
        "name,header",
        [
            ("fig16", "active_users,empirical_idle_prob,eq_idle_prob"),
            ("fig17", "scheme,frf,mean_sinr_db,p5_sinr_db,p50_sinr_db,p95_sinr_db"),
            ("fig18", "ap_distance_m,lifi_only_success,hybrid_success"),
            ("fig19", "mbs_distance_km,direct_bps,relayed_bps"),
            ("fig20", "mbs_distance_km,p_out_direct,p_out_relayed"),
            ("fig21", "inter_vehicle_distance_m,rf_only,owc_only,hybrid"),
        ],
    )
    def test_schema_and_manifest(self, tmp_path, small_config, name, header):
        out = tmp_path / name
        code = cli.main(["experiment", name, "--config", small_config, "--seed", "7", "--out", str(out)])
        assert code == 0
        csv_path = out / f"{name}.csv"
        assert csv_path.read_text().splitlines()[0] == header
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == f"experiment {name}"
        assert manifest["config_digest"].startswith("sha256:")
        assert manifest["outputs"] == [f"{name}.csv"]

    def test_byte_identical_reruns(self, tmp_path, small_config):
        for name in ("fig16", "fig17", "fig18"):
            a = tmp_path / f"{name}_a"
            b = tmp_path / f"{name}_b"
            cli.main(["experiment", name, "--config", small_config, "--seed", "5", "--out", str(a)])
            cli.main(["experiment", name, "--config", small_config, "--seed", "5", "--out", str(b)])
            assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()

    @staticmethod
    def _record_streams(monkeypatch) -> dict:
        # Record the seed sequence of every generator a run draws from, the
        # ones Generator.spawn makes included; two equal (entropy, spawn key)
        # pairs would draw the same numbers. Holding each generator keeps its id unique.
        drawn = {}

        class RecordingGenerator(np.random.Generator):
            def __getattribute__(self, attr):
                if not attr.startswith("_") and attr not in ("spawn", "bit_generator"):
                    seq = super().__getattribute__("bit_generator").seed_seq
                    drawn[id(self)] = (self, (seq.entropy, seq.spawn_key))
                return super().__getattribute__(attr)

        monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
        return drawn

    @pytest.mark.parametrize("name", ["fig16", "fig17"])
    def test_every_stream_of_a_run_is_distinct(self, tmp_path, monkeypatch, name):
        drawn = self._record_streams(monkeypatch)
        monkeypatch.setattr(zoning, "_MC_CHUNK", 17_331)
        big = tmp_path / "big.yaml"  # two placement chunks of at most 17,331
        big.write_text(SMALL_OVERRIDES.replace("placements: 2000", "placements: 20001")
                       .replace("zoning:\n", "zoning:\n  room_x_m: 100.0\n  room_y_m: 100.0\n"))
        assert cli.main(["experiment", name, "--config", str(big), "--out", str(tmp_path / "out")]) == 0
        keys = [key for _gen, key in drawn.values()]
        assert len(set(keys)) == len(keys), sorted(keys)
        assert len(keys) == (2 if name == "fig16" else 1)
        # The zone probabilities are exact: no generator spawned from the zones stream draws.
        zones = STREAM_LABELS.index("zones")
        assert not [key for key in keys if key[1][:1] == (zones,)], sorted(keys)

    def test_fig17_and_fig18_draw_from_distinct_streams(self, tmp_path, monkeypatch, small_config):
        drawn = self._record_streams(monkeypatch)
        for name in ("fig17", "fig18"):
            argv = ["experiment", name, "--config", small_config, "--seed", "3", "--out", str(tmp_path / name)]
            assert cli.main(argv) == 0
        keys = [key for _gen, key in drawn.values()]
        assert len(set(keys)) == len(keys), sorted(keys)

    def test_fig21_hybrid_dominates_row_wise(self, tmp_path, small_config):
        out = tmp_path / "fig21"
        cli.main(["experiment", "fig21", "--config", small_config, "--out", str(out)])
        rows = (out / "fig21.csv").read_text().splitlines()[1:]
        for row in rows:
            _, rf_only, owc_only, hybrid = (float(v) for v in row.split(","))
            assert hybrid >= max(rf_only, owc_only)

    # sha256 of the default-config CSVs at seed 0: fig16 classifies and
    # assigns every placed user to its nearest AP, fig17 reads the exact zone probabilities,
    # fig18 draws crossings and fig19-fig21 sweep the vehicle distance.
    @pytest.mark.parametrize("entry", golden("experiment"))
    def test_golden_digest(self, tmp_path, capsys, entry):
        assert_golden(entry, tmp_path, capsys)

    def test_unknown_name_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["experiment", "fig99"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv,text,key",
        [
            (["experiment", "fig18"], "zoning: [not, a, mapping]\n", "zoning"),
            (["indoor-sim"], "engine: {user_cont: 50}\n", "engine.user_cont"),
            (["indoor-sim"], "engine: {user_count: true}\n", "engine.user_count"),
            (["indoor-sim"], "engine: {user_count: 2.5}\n", "engine.user_count"),
            (["indoor-sim"], "engine: {mobility: 3}\n", "engine.mobility"),
            (["experiment", "fig19"], "transport: {vehicle: {in_vehicle_access: wifi}}\n",
             "transport.vehicle.in_vehicle_access"),
            (["experiment", "fig19"], "engine: {mobility: {tick_s: 0}}\n", "engine.mobility"),
            (["indoor-sim"], "selection: {pairwise_matrix: [[1.0, 2.0, 1.0, 1.0], [0.6, 1.0, 1.0, 1.0], "
             "[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]}\n", "selection.pairwise_matrix"),
            (["indoor-sim"], "selection: {pairwise_matrix: [[1.0, 3.0], [0.3333333333333333, 1.0]]}\n",
             "selection.pairwise_matrix"),
            (["plan"], None, None),
            (["experiment", "fig18"], "zoning: {mc_samples: 0}\n", "zoning.mc_samples"),
            (["experiment", "fig19"], "transport: {fig19: {distance_count: -1}}\n", "transport.fig19.distance_count"),
            (["experiment", "fig20"], "transport: {fig20: {distance_count: 0}}\n", "transport.fig20.distance_count"),
            (["experiment", "fig21"], "transport: {fig21: {distance_count: 0}}\n", "transport.fig21.distance_count"),
            (["experiment", "fig18"], "engine: {fig18: {spacing_count: 0}}\n", "engine.fig18.spacing_count"),
            (["experiment", "fig16"], "engine: {fig16: {user_count_max: -1}}\n", "engine.fig16.user_count_max"),
            (["experiment", "fig18"], "engine: {fig17: {zone_samples: 5}}\n", "engine.fig17.zone_samples: unknown key"),
            (["experiment", "fig17"], "engine: {fig17: {zone_samples: 1048576}}\n",
             "engine.fig17.zone_samples: unknown key"),
            (["experiment", "fig17"], "engine: {fig17: {drops: 0}}\n", "engine.fig17.drops"),
            (["experiment", "fig16"], "engine: {fig16: {placements: 0}}\n", "engine.fig16.placements"),
            (["experiment", "fig16"], "engine: {fig16: {zone_samples: 1048576}}\n",
             "engine.fig16.zone_samples: unknown key"),
            (["experiment", "fig18"], "engine: {fig18: {crossings: 0}}\n", "engine.fig18.crossings"),
            (["experiment", "fig17"], "engine: {fig17: {drops: 83887}}\n", "engine.fig17.drops"),
            (["experiment", "fig18"], "engine: {fig18: {crossings: 4194305}}\n", "engine.fig18.crossings"),
            (["experiment", "fig18"], "engine: {fig18: {spacing_count: 1048577}}\n", "engine.fig18.spacing_count"),
            (["experiment", "fig19"], "transport: {fig19: {distance_count: 1048577}}\n",
             "transport.fig19.distance_count"),
            (["experiment", "fig20"], "transport: {fig20: {distance_count: 1048577}}\n",
             "transport.fig20.distance_count"),
            (["experiment", "fig21"], "transport: {fig21: {distance_count: 1048577}}\n",
             "transport.fig21.distance_count"),
            (["indoor-sim"], "policy: {lifi_slots: 0}\n", "policy.lifi_slots"),
            (["experiment", "fig17"], "channel: {rf: {wall_count: 3}}\n", "channel.rf.wall_count: unknown key"),
            (["experiment", "fig19"], "zoning: {room_x_m: 0.0}\n", "zoning.room_x_m"),
            (["experiment", "fig18"], "zoning: {coverage_radius_m: -1.0}\n", "zoning.coverage_radius_m"),
            (["plan"], "zoning: {room_y_m: -3.0}\n", "zoning.room_y_m"),
            (["experiment", "fig18"], "engine: {fig17: {user_distance_m: 0.0}}\n", "engine.fig17.user_distance_m"),
            (["experiment", "fig18"], "engine: {fig17: {fap_count: -1}}\n", "engine.fig17.fap_count"),
            (["experiment", "fig18"], "engine: {fig17: {hybrid_users_per_home: -1}}\n",
             "engine.fig17.hybrid_users_per_home"),
            (["experiment", "fig18"], "engine: {fig17: {interferer_wall_count: -2}}\n",
             "engine.fig17.interferer_wall_count"),
            (["experiment", "fig18"], "engine: {fig17: {min_link_distance_m: 0.0}}\n",
             "engine.fig17.min_link_distance_m"),
            (["experiment", "fig18"], "engine: {fig17: {deployment_radius_m: -1.0}}\n",
             "engine.fig17.deployment_radius_m"),
            (["experiment", "fig17"], "transport: {fig19: {distance_start_km: 0.0}}\n",
             "transport.fig19.distance_start_km"),
            (["experiment", "fig17"], "transport: {fig20: {distance_stop_km: -1.0}}\n",
             "transport.fig20.distance_stop_km"),
            (["experiment", "fig17"], "transport: {fig21: {distance_stop_m: -5.0}}\n", "transport.fig21.distance_stop_m"),
            (["experiment", "fig17"], "engine: {fig18: {spacing_start_m: -1.0}}\n", "engine.fig18.spacing_start_m"),
            (["experiment", "fig17"], "engine: {mobility: {speed_max_mps: 0.1}}\n", "engine.mobility.speed_max_mps"),
            (["experiment", "fig17"], "engine: {traffic: {voice_fraction: 1.5}}\n", "engine.traffic.voice_fraction"),
            (["experiment", "fig17"], "policy: {t_h1_s: 0.0}\n", "policy.t_h1_s"),
            (["experiment", "fig17"], "policy: {per_hop_latency_s: -0.001}\n", "policy.per_hop_latency_s"),
            (["trace", "lifi-to-lifi"], "protocol: {per_hop_latency_s: 0.003}\n", "protocol: unknown key"),
            (["indoor-sim"], "engine: {user_count: 16385}\n", "engine.user_count: must be in [0, 16384]"),
            (["experiment", "fig17"], "engine: {duration_s: 0.04}\n", "engine.duration_s"),
            (["experiment", "fig17"], "engine: {duration_s: 0.4, mobility: {tick_s: 1.0}}\n", "engine.duration_s"),
            (["indoor-sim"], "engine: {duration_s: 0.004, mobility: {tick_s: 0.01}}\n",
             "engine.duration_s: must be at least one tick_s (0.01)"),
            (["experiment", "fig17"], "channel: {optical: {pd_area_m2: 0.0}}\n", "channel.optical.pd_area_m2"),
            (["experiment", "fig18"], "channel: {rf: {mbs_height_m: 0.0}}\n", "channel.rf.mbs_height_m"),
            (["experiment", "fig17"], "transport: {vehicle: {shadowing_sigma_dB: 0.0}}\n",
             "transport.vehicle.shadowing_sigma_dB"),
            (["experiment", "fig17"], "transport: {fig21: {window_s: 0.0}}\n", "transport.fig21.window_s"),
            (["experiment", "fig19"], "channel: {optical: {half_intensity_angle_deg: 1.0e-9}}\n",
             "channel.optical.half_intensity_angle_deg"),
            (["indoor-sim"], "channel: {optical: {half_intensity_angle_deg: 1.0e-9}}\n",
             "channel.optical.half_intensity_angle_deg"),
            (["experiment", "fig20"], "transport: {vehicle: {access_femto_distance_m: -2.0}}\n",
             "transport.vehicle.access_femto_distance_m"),
            (["experiment", "fig20"], "transport: {vehicle: {access_horizontal_distance_m: -1.0}}\n",
             "transport.vehicle.access_horizontal_distance_m"),
            (["experiment", "fig17"], "channel: {rf: {noise_psd_dBm_per_Hz: 1.0e6}}\n",
             "channel.rf.noise_psd_dBm_per_Hz: must be in [-200.0, -100.0] dBm/Hz, got 1000000.0"),
            (["experiment", "fig17"], "channel: {rf: {fap_tx_dBm: 7000.0}}\n", "channel.rf.fap_tx_dBm"),
            (["experiment", "fig19"], "channel: {rf: {mbs_tx_dBm: -301.0}}\n", "channel.rf.mbs_tx_dBm"),
            (["experiment", "fig17"], "channel: {rf: {femto_bandwidth_Hz: 1.0e300, noise_psd_dBm_per_Hz: 300.0}}\n",
             "channel.rf.noise_psd_dBm_per_Hz: must be in [-200.0, -100.0] dBm/Hz, got 300.0"),
            (["experiment", "fig20"], "channel: {rf: {macro_bandwidth_Hz: 0.5}}\n", "channel.rf.macro_bandwidth_Hz"),
            (["experiment", "fig18"], "engine: {fig18: {spacing_count: 6711}}\n",
             "engine.fig18.spacing_count: must be at most 2**27 // crossings = 6710"),
        ],
        ids=["not-a-mapping", "unknown-key", "bool-for-int", "float-for-int", "leaf-for-mapping",
             "bad-enum", "range-checked-everywhere", "non-reciprocal-ahp", "ahp-not-4x4", "missing-file",
             "mc-samples-below-minimum", "fig19-count-negative", "fig20-count-zero", "fig21-count-zero",
             "fig18-count-zero", "fig16-user-max-negative", "fig17-zone-samples-checked-everywhere",
             "fig17-zone-samples-unknown", "fig17-drops-zero", "fig16-placements-zero",
             "fig16-zone-samples-unknown", "fig18-crossings-zero", "fig17-cells-above-2-to-the-22",
             "fig18-crossings-above-2-to-the-22", "fig18-count-above-2-to-the-20", "fig19-count-above-2-to-the-20",
             "fig20-count-above-2-to-the-20", "fig21-count-above-2-to-the-20", "lifi-slots-zero",
             "rf-wall-count-unknown",
             "room-side-zero", "coverage-radius-negative", "plan-room-side-negative", "fig17-user-distance-zero",
             "fig17-fap-count-negative", "fig17-hybrid-users-negative", "fig17-wall-count-negative",
             "fig17-min-link-distance-zero", "fig17-deployment-radius-negative", "fig19-start-zero",
             "fig20-stop-negative", "fig21-stop-negative", "fig18-start-negative", "speed-max-below-min",
             "voice-fraction-above-one", "dwell-zero", "per-hop-negative", "protocol-section-unknown",
             "user-count-above-2-to-the-14", "duration-below-one-tick",
             "duration-below-one-long-tick", "duration-below-one-short-tick", "optical-pd-area-zero", "rf-height-zero",
             "shadowing-zero", "car-window-zero", "half-intensity-cosine-one-fig19",
             "half-intensity-cosine-one-indoor-sim", "vehicle-femto-distance-negative",
             "vehicle-horizontal-distance-negative", "rf-noise-psd-beyond-finite-power", "rf-fap-tx-beyond-finite-power",
             "rf-mbs-tx-beyond-finite-power", "rf-femto-bandwidth-beyond-finite-noise",
             "rf-macro-bandwidth-below-one-hertz", "fig18-draws-above-2-to-the-27"],
    )
    def test_unparsable_config_is_validation_error(self, tmp_path, capsys, argv, text, key):
        bad = tmp_path / "bad.yaml"
        if text is not None:
            bad.write_text(text)
        assert cli.main([*argv, "--config", str(bad), *out_flag(argv, tmp_path / "out")]) == 2
        assert key is None or key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["plan"], ["zones"], ["experiment", "fig16"]])
    def test_a_directory_as_config_exits_2_naming_it(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--config", str(tmp_path), *out_flag(argv, tmp_path / "out")]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tx_dbm", [-100.0, 100.0])
    @pytest.mark.parametrize("noise_dbm_per_hz", [-200.0, -100.0])
    def test_fig17_is_finite_at_the_ends_of_the_power_domain(self, tmp_path, small_config, tx_dbm, noise_dbm_per_hz):
        path = tmp_path / "rf.yaml"
        path.write_text(Path(small_config).read_text() + f"channel: {{rf: {{fap_tx_dBm: {tx_dbm}, mbs_tx_dBm: {tx_dbm}, "
                        f"noise_psd_dBm_per_Hz: {noise_dbm_per_hz}}}}}\n")
        assert cli.main(["experiment", "fig17", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "fig17.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])

    @pytest.mark.parametrize(("argv", "text", "key"), [
        (["experiment", "fig19"], "channel: {rf: {terminal_height_m: 1.0e6}}\n",
         "channel.rf.terminal_height_m: must be in [0.1, 10.0] m, got 1000000.0"),
        (["indoor-sim"], "channel: {optical: {tx_optical_power_W: 1.0e200}}\n",
         "channel.optical.tx_optical_power_W: must be in [0.001, 100.0] W, got 1e+200"),
        (["experiment", "fig19"], "channel: {rf: {mbs_height_m: 1.0e300}}\n",
         "channel.rf.mbs_height_m: must be in [1.0, 1000.0] m, got 1e+300"),
        (["experiment", "fig20"], "channel: {rf: {center_freq_MHz: 1.0e-300}}\n",
         "channel.rf.center_freq_MHz: must be in [1.0, 100000.0] MHz, got 1e-300"),
        (["indoor-sim"], "channel: {optical: {noise_psd_A2_per_Hz: 1.0e-300, bandwidth_Hz: 1.0e-30}}\n",
         "channel.optical.noise_psd_A2_per_Hz: must be in [1e-30, 1e-15] A^2/Hz, got 1e-300"),
        (["indoor-sim"], "channel: {optical: {noise_psd_A2_per_Hz: 1.0e-300}}\n",
         "channel.optical.noise_psd_A2_per_Hz: must be in [1e-30, 1e-15] A^2/Hz, got 1e-300"),
        (["indoor-sim"], "channel: {optical: {ap_height_m: 1.3e154}}\n",
         "channel.optical.ap_height_m: must be in [0.01, 100.0] m, got 1.3e+154"),
        (["experiment", "fig19"], "transport: {vehicle: {access_horizontal_distance_m: 1.0e154}}\n",
         "transport.vehicle.access_horizontal_distance_m: must be in [0.0, 10000.0] m, got 1e+154"),
        (["indoor-sim"], "channel: {optical: {ap_height_m: 1.0e-300}}\n",
         "channel.optical.ap_height_m: must be in [0.01, 100.0] m, got 1e-300"),
        (["experiment", "fig19"], "channel: {optical: {ap_height_m: 1.0e-170}}\n",
         "channel.optical.ap_height_m: must be in [0.01, 100.0] m, got 1e-170"),
        (["zones"], "zoning: {coverage_radius_m: 1.0e-9}\n",
         "zoning.coverage_radius_m: must be in [0.001, 10000.0] m, got 1e-09"),
        (["experiment", "fig16"], "zoning: {room_x_m: 2097152.0, room_y_m: 0.5, coverage_radius_m: 0.5}\n",
         "zoning.room_x_m: must be in [0.001, 10000.0] m, got 2097152.0"),
        (["indoor-sim"], "zoning: {room_x_m: 1.7e308, room_y_m: 1.7e308, coverage_radius_m: 5.0e-324}\n",
         "zoning.room_x_m: must be in [0.001, 10000.0] m, got 1.7e+308"),
        (["zones"], f"zoning: {{room_x_m: 1{'0' * 400}}}\n", "zoning.room_x_m: expected a finite number"),
        (["zones"], "zoning: {mc_samples: 100000000000000000000000000000}\n",
         "zoning.mc_samples: must fit numpy's int64"),
        (["indoor-sim"], f"selection: {{pairwise_matrix: [[1.0, 1{'0' * 400}, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "
         "[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]}\n", "selection.pairwise_matrix: expected a finite number"),
        (["experiment", "fig16"], "engine: {fig16: {user_count_max: 1000000000}}\n",
         "engine.fig16.user_count_max: must be in [0, 1048576]"),
        (["experiment", "fig16"], "engine: {fig16: {placements: 1000000000000}}\n",
         "engine.fig16.placements: must be in [1, 4294967296]"),
        (["experiment", "fig19"], "channel: {optical: {fov_semi_angle_deg: 1.0e-300}}\n",
         "channel.optical.fov_semi_angle_deg: must be in [1.0, 90.0] deg, got 1e-300"),
        (["experiment", "fig19"], "channel: {optical: {refractive_index: 1.0e200}}\n",
         "channel.optical.refractive_index: must be in [1.0, 3.0], got 1e+200"),
        (["experiment", "fig19"], "engine: {duration_s: 1.0e308}\n",
         "engine.duration_s: must be in [0.001, 1000000.0] s, got 1e+308"),
        (["experiment", "fig19"], "engine: {mobility: {tick_s: 1.0e-310}}\n",
         "engine.mobility.tick_s: must be in [0.001, 10.0] s, got 1e-310"),
        (["indoor-sim"], "engine: {mobility: {tick_s: 1.0e-9}}\n",
         "engine.mobility.tick_s: must be in [0.001, 10.0] s, got 1e-09"),
        (["experiment", "fig19"], "channel: {rf: {vehicle_wall_loss_dB: -1.0e300}}\n",
         "channel.rf.vehicle_wall_loss_dB: must be in [0.0, 100.0] dB, got -1e+300"),
        (["experiment", "fig19"], "transport: {fig19: {distance_start_km: 1.0e-300}}\n",
         "transport.fig19.distance_start_km: must be in [0.001, 1000.0] km, got 1e-300"),
        (["experiment", "fig19"], "channel: {rf: {mbs_height_m: 1.0e20}}\ntransport: {fig19: {distance_stop_km: 1.0e100}}\n",
         "channel.rf.mbs_height_m: must be in [1.0, 1000.0] m, got 1e+20"),
        (["experiment", "fig20"], "transport: {fig20: {distance_start_km: 1.0e-300}}\n",
         "transport.fig20.distance_start_km: must be in [0.001, 1000.0] km, got 1e-300"),
        (["experiment", "fig17"], "channel: {rf: {femto_loss_coeff: -1.0e300}}\n",
         "channel.rf.femto_loss_coeff: must be in [0.0, 100.0] dB/decade, got -1e+300"),
        (["experiment", "fig17"], "channel: {rf: {femto_loss_coeff: 100.0}}\nengine: {fig17: {min_link_distance_m: 1.0e-300, "
         "user_distance_m: 1.0e-300, deployment_radius_m: 0.0}}\n",
         "engine.fig17.user_distance_m: must be in [0.001, 10000.0] m, got 1e-300"),
        (["experiment", "fig20"], "transport: {vehicle: {shadowing_sigma_dB: 5.0e-324}}\n",
         "transport.vehicle.shadowing_sigma_dB: must be in [1e-09, 100.0] dB, got 5e-324"),
        (["experiment", "fig19"], "channel: {optical: {pd_area_m2: 1.0e300, ap_height_m: 1.0e-150}}\n",
         "channel.optical.pd_area_m2: must be in [1e-08, 0.01] m^2, got 1e+300"),
        (["experiment", "fig19"], "channel: {optical: {filter_gain: 1.0e300, fov_semi_angle_deg: 1.0e-150}}\n",
         "channel.optical.fov_semi_angle_deg: must be in [1.0, 90.0] deg, got 1e-150"),
    ], ids=["fig19-terminal-height", "indoor-sim-optical-power", "fig19-mbs-height", "fig20-center-frequency",
            "indoor-sim-optical-bandwidth", "indoor-sim-optical-noise-power", "indoor-sim-ap-height",
            "fig19-access-distance", "indoor-sim-ap-height-1e-300", "fig19-ap-height-1e-170", "zones-radius-1e-9",
            "fig16-one-ap-past-the-bound", "indoor-sim-grid-beyond-the-float-range", "zones-room-beyond-the-float-range",
            "zones-samples-beyond-int64", "indoor-sim-ahp-entry-beyond-the-float-range", "fig16-user-count-max-1e9",
            "fig16-placements-1e12", "fig19-fov-1e-300", "fig19-refractive-index-1e200", "fig19-duration-1e308",
            "fig19-tick-1e-310", "indoor-sim-tick-1e-9", "fig19-wall-loss-minus-1e300", "fig19-start-1e-300",
            "fig19-mbs-height-1e20-stop-1e100", "fig20-start-1e-300", "fig17-femto-loss-coeff-minus-1e300",
            "fig17-loss-coeff-100-links-1e-300", "fig20-shadowing-sigma-5e-324", "fig19-pd-area-1e300-ap-height-1e-150",
            "fig19-filter-gain-1e300-fov-1e-150"])
    @pytest.mark.filterwarnings("error")
    def test_value_beyond_its_finite_domain_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, text, key):
        # Each lies outside its key's declared interval, and the error names the first key of the file that does. With
        # no bound, each would overflow its model: fig19's direct link to an inf capacity, the LiFi signal power to inf,
        # fig19's and fig20's path loss to inf or -inf, the optical gain's 2 pi d^2 to inf; or underflow the optical
        # noise power to 0, and a zero-gain SINR to nan, or the AP height's h^2 to 0, which the gain below the AP
        # divides by; or fig16's in-memory rows or chunk generators past what memory holds. Every warning is an error
        # here, so a rule's own arithmetic may not overflow either.
        path = tmp_path / "huge.yaml"
        path.write_text(text)
        assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fig19_and_indoor_sim_are_finite_at_the_edge_of_both_domains(self, tmp_path, small_config):
        path = tmp_path / "edge.yaml"  # the tallest terminal (the largest a(h_m)) and the most optical power
        path.write_text(Path(small_config).read_text() + "channel: {rf: {terminal_height_m: 10.0}, "
                        "optical: {tx_optical_power_W: 100.0, responsivity_A_per_W: 1.0}}\n")
        runs = [(["experiment", "fig19"], path), (["indoor-sim"], path)]
        for name, ends in (("center_freq_MHz", (1.0, 1.0e5)), ("mbs_height_m", (1.0, 1.0e3))):  # each Hata term's ends
            for end in ends:
                edge = tmp_path / f"{name}-{end}.yaml"
                edge.write_text(Path(small_config).read_text() + f"channel: {{rf: {{{name}: {end!r}}}}}\n")
                runs += [(["experiment", "fig19"], edge), (["experiment", "fig20"], edge)]
        far = tmp_path / "far.yaml"  # both optical distances at their longest
        far.write_text(Path(small_config).read_text() + "channel: {optical: {ap_height_m: 100.0}}\n"
                       "transport: {vehicle: {access_horizontal_distance_m: 10000.0}}\n")
        runs += [(["experiment", "fig19"], far), (["indoor-sim"], far)]
        # The largest macro SNRs: the most power over the least noise, no wall loss, and the mast at 1 m (the steepest
        # distance coefficient, 44.9 dB per decade) at 1e-3 km, or at 1e3 m (25.25) at 1e3 km. fig20 divides their
        # distance from the farthest threshold by the least shadowing sigma.
        outage = "vehicle: {shadowing_sigma_dB: 1.0e-9, sinr_threshold_user_dB: %r, sinr_threshold_relay_dB: %r}"
        for height_m, km in ((1.0, 1.0e-3), (1.0e3, 1.0e3)):
            ends = tmp_path / f"macro-{km}.yaml"
            sweep = f"{{distance_start_km: {km!r}, distance_stop_km: {km!r}, distance_count: 1}}"
            ends.write_text(f"channel: {{rf: {{mbs_height_m: {height_m!r}, mbs_tx_dBm: 100.0, "
                            "noise_psd_dBm_per_Hz: -200.0, macro_bandwidth_Hz: 1.0, vehicle_wall_loss_dB: 0.0}}\n"
                            f"transport: {{fig19: {sweep}, fig20: {sweep}, {outage % (-100.0, -100.0)}}}\n")
            runs += [(["experiment", "fig19"], ends), (["experiment", "fig20"], ends)]
        # The least macro SNR, about -560 dB: the least power over the most noise through the most wall, the highest
        # frequency, the lowest terminal and the steepest distance coefficient at 1e3 km, against the farthest thresholds.
        least = tmp_path / "macro-least.yaml"
        least.write_text("channel: {rf: {mbs_height_m: 1.0, center_freq_MHz: 1.0e5, terminal_height_m: 0.1, "
                         "mbs_tx_dBm: -100.0, noise_psd_dBm_per_Hz: -100.0, macro_bandwidth_Hz: 1.0e12, "
                         "vehicle_wall_loss_dB: 100.0}}\n"
                         "transport: {fig20: {distance_start_km: 1.0e3, distance_stop_km: 1.0e3, distance_count: 1}, "
                         f"{outage % (100.0, 100.0)}}}\n")
        runs += [(["experiment", "fig20"], least)]
        for argv, config in runs:
            assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
            name = "indoor_sim.csv" if argv == ["indoor-sim"] else f"{argv[1]}.csv"
            rows = [row.split(",") for row in (tmp_path / "out" / name).read_text().splitlines()[1:]]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:] if v not in ("lifi", "femtocell"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fov_deg", [1.0, 90.0])
    @pytest.mark.parametrize("side_m", [8.0, 24.0], ids=["1-ap", "9-aps"])
    def test_no_sinr_sample_is_plus_inf_anywhere_in_the_optical_domain(self, tmp_path, capsys, side_m, fov_deg):
        # The most power and responsivity over the least noise power: the largest LiFi SINR is finite, so no +inf dB
        # sample meets a -inf one in the run's math.fsum.
        path = tmp_path / "corner.yaml"
        path.write_text(f"zoning: {{room_x_m: {side_m!r}, room_y_m: {side_m!r}}}\n"
                        "engine: {user_count: 20, duration_s: 10.0, traffic: {arrival_rate_per_min: 6.0}}\n"
                        f"channel: {{optical: {{fov_semi_angle_deg: {fov_deg!r}, noise_psd_A2_per_Hz: 1.0e-30, "
                        "bandwidth_Hz: 1.0, tx_optical_power_W: 100.0, responsivity_A_per_W: 1.0}}\n")
        assert cli.main(["indoor-sim", "--config", str(path)]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
        assert int(rows["admissions.accept_on_lifi"]) > 0
        assert rows["sinr_mean_db"] == "-inf" or math.isfinite(float(rows["sinr_mean_db"]))
        assert all(math.isfinite(float(v)) for k, v in rows.items() if k not in ("sinr_mean_db", "ahp.chosen"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("corner", ["snr_max", "snr_min"])
    def test_figures_and_indoor_sim_are_finite_at_the_snr_corners(self, tmp_path, corner):
        # Each key the corner file sets is at an end of its interval; test_channel's TestDomainCorners shows that the
        # file holds the extremes of H(0) and of the macro SNR. A LiFi sample beyond the 1 degree FOV has zero gain,
        # -inf dB, so the one value allowed to be non-finite is indoor-sim's mean SINR, at -inf.
        path = Path(__file__).with_name(f"{corner}.yaml")
        assert all(value in DOMAINS[key] for key, value in leaves(yaml.safe_load(path.read_text())))
        for argv, name in ((["experiment", "fig17"], "fig17.csv"), (["experiment", "fig19"], "fig19.csv"),
                           (["experiment", "fig20"], "fig20.csv"), (["indoor-sim"], "indoor_sim.csv")):
            assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path)]) == 0
            rows = [row.split(",") for row in (tmp_path / name).read_text().splitlines()[1:]]
            assert rows and all(math.isfinite(float(v)) or (row[0], v) == ("sinr_mean_db", "-inf")
                                for row in rows for v in row[1:] if v not in ("lifi", "femtocell"))

    def test_submillisecond_car_window_runs(self, tmp_path):
        path = tmp_path / "car.yaml"
        path.write_text("transport: {fig21: {window_s: 0.0004}}\n")
        assert cli.main(["experiment", "fig21", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_car_window_length_does_not_size_memory(self, tmp_path):
        # The outage interval is exact, so no array grows with the window.
        def peak(window_s: str) -> int:
            path = tmp_path / "car.yaml"
            path.write_text(f"transport: {{fig21: {{window_s: {window_s}}}}}\n")
            gc.collect()  # so that no earlier garbage is freed inside the traced run
            tracemalloc.start()
            try:
                assert cli.main(["experiment", "fig21", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("30.0")  # first run: module-level caches
        assert abs(peak("1.0e6") - peak("30.0")) < 4096

    @pytest.mark.parametrize("error, message", [(KeyError("distance"), "'distance'"), (ValueError("distance"), "distance"),
                                                (MemoryError(), "MemoryError")], ids=["KeyError", "ValueError", "MemoryError"])
    def test_program_fault_in_a_command_is_runtime_error(self, tmp_path, monkeypatch, capsys, error, message):
        # Only the validation phase exits 2: an error a computation raises exits 3, whatever its type.
        # An error without text, such as MemoryError(), is named by its type.
        def fault(*args):
            raise error

        monkeypatch.setattr(transport, "reliability_sweep", fault)
        assert cli.main(["experiment", "fig21", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"runtime failure: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["trace", "lifi-to-lifi"], ["zones", "--samples", "10000"], ["--version"],
                                      ["--help"]], ids=["trace", "zones", "version", "help"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_ends_quietly(self, tmp_path, argv, unbuffered):
        # A reader that has gone (`hybridnet trace ... | head -c 0`) is no failure: exit 0, nothing on stderr.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "hybridnet.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (0, "")

    def test_write_into_a_closed_fifo_is_runtime_error(self, tmp_path):
        # Only a closed stdout ends quietly: a CSV that cannot reach its --out file exits 3, stdout being healthy.
        config = tmp_path / "big.yaml"
        config.write_text("transport: {fig19: {distance_count: 20000}}\n")  # about 1 MB, more than a pipe holds
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "fig19.csv")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.Popen([sys.executable, "-m", "hybridnet.cli", "experiment", "fig19", "--config", str(config),
                                 "--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            reader = os.open(out / "fig19.csv", os.O_RDONLY | os.O_NONBLOCK)
            try:  # once the CSV starts to arrive, the command is blocked writing the rest
                assert select.select([reader], [], [], 60)[0], "fig19.csv never written"
            finally:
                os.close(reader)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 3
        assert stderr.decode().startswith("runtime failure: [Errno 32] Broken pipe")
        assert stdout == b"" and not (out / "fig19.manifest.json").exists()

    def test_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "example.yaml"
        path.write_text(example)
        assert cli.main(["indoor-sim", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestManifest:
    @pytest.mark.parametrize(
        "argv,out,csv",
        [
            (["experiment", "fig18"], "new/dir", "fig18.csv"),
            (["zones", "--samples", "16384"], "new/dir/zones.csv", "zones.csv"),
            (["trace", "lifi-to-lifi"], "new/dir", "trace_lifi_to_lifi.csv"),
            (["indoor-sim"], "new/dir", "indoor_sim.csv"),
        ],
        ids=["experiment", "zones", "trace", "indoor-sim"],
    )
    def test_every_out_writes_its_csv_and_a_manifest(self, tmp_path, small_config, argv, out, csv):
        # --out may name a directory that does not exist yet; zones' --out names the file.
        assert cli.main([*argv, "--config", small_config, "--seed", "2", "--out", str(tmp_path / out)]) == 0
        csv_path = tmp_path / "new" / "dir" / csv
        assert csv_path.read_text().count("\n") > 1
        manifest = json.loads(csv_path.with_name(f"{csv_path.stem}.manifest.json").read_text())
        assert manifest["outputs"] == [csv] and manifest["seed"] == 2
        assert manifest["command"] == " ".join(argv[:2] if argv[0] in ("experiment", "trace") else argv[:1])

    @pytest.mark.parametrize("argv,out,kind", [
        (["zones"], "dir", "a directory"),
        (["experiment", "fig19"], "file", "a file"),
        (["trace", "lifi-to-lifi"], "file", "a file"),
        (["indoor-sim"], "file", "a file"),
        (["zones", "--samples", "10000"], "file/zones.csv", "under a file"),
        (["experiment", "fig19"], "file/sub", "under a file"),
        (["trace", "lifi-to-lifi"], "file/x", "under a file"),
        (["indoor-sim"], "file/sub", "under a file"),
    ], ids=["zones", "experiment", "trace", "indoor-sim", "zones-under-a-file", "experiment-under-a-file",
            "trace-under-a-file", "indoor-sim-under-a-file"])
    def test_out_of_the_other_kind_fails_validation(self, tmp_path, monkeypatch, capsys, argv, out, kind):
        # zones' --out names its CSV file and the others' a directory: an existing path of the other kind, or a path
        # under a file, exits 2 in the validation phase, so the command neither computes nor writes.
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("kept\n")
        monkeypatch.setitem(cli.COMMANDS, argv[0], lambda *args: pytest.fail("the command ran"))
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out: {str(tmp_path / out)!r} is {kind}; {argv[0]} writes")
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["dir", "file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("command,says", [
        ("zones", "CSV file to write, its manifest beside it (default: stdout)"),
        ("experiment", "directory to write the figure's CSV and its manifest into (default: the current directory)"),
        ("trace", "directory to write the trace CSV and its manifest into (default: stdout)"),
        ("indoor-sim", "directory to write indoor_sim.csv and its manifest into (default: stdout)"),
        ("plan", None),
    ])
    def test_help_says_what_out_takes(self, capsys, command, says):
        # zones writes one CSV file at --out, the others write into a directory; plan only prints.
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        if says is None:
            assert "--out" not in text
        else:
            assert f"--out OUT {says}" in text

    @pytest.mark.parametrize("argv,flags", [
        (["zones", "--samples", "16384"], (["--room", "24x24"], ["--room", "30x24"])),
        (["zones", "--samples", "16384"], (["--radius", "5"], ["--radius", "6"])),
        (["zones"], (["--samples", "16384"], ["--samples", "20000"])),
        (["trace", "lifi-to-lifi"], (["--per-hop-ms", "7"], ["--per-hop-ms", "9"])),
    ], ids=["room", "radius", "samples", "per-hop-ms"])
    def test_flag_is_in_the_config_digest(self, tmp_path, argv, flags):
        digests = []
        for i, flag in enumerate(flags):
            out = tmp_path / str(i)
            assert cli.main([*argv, *flag, "--out", str(out / "zones.csv" if argv[0] == "zones" else out)]) == 0
            digests.append(json.loads(next(out.glob("*.manifest.json")).read_text())["config_digest"])
        assert digests[0] != digests[1]


class TestTrace:
    @pytest.mark.parametrize("kind,rows", [("lifi-to-lifi", 27), ("lifi-to-femto", 25), ("femto-to-lifi", 26)])
    def test_row_counts(self, capsys, kind, rows):
        assert cli.main(["trace", kind]) == 0
        out = capsys.readouterr().out
        data_lines = [l for l in out.splitlines() if l and not l.startswith(("step,", "#"))]
        assert len(data_lines) == rows

    # sha256 of `trace <kind>` stdout; pins every row of each step table.
    @pytest.mark.parametrize("entry", golden("trace"))
    def test_golden_digest(self, tmp_path, capsys, entry):
        assert_golden(entry, tmp_path, capsys)

    def test_drop_step_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "t"
        code = cli.main(["trace", "femto-to-lifi", "--drop-step", "11", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "trace_femto_to_lifi.manifest.json").read_text())
        assert manifest["outcome"] == "failed"
        assert manifest["failed_step"] == 11

    @pytest.mark.parametrize("step", ["0", "-3", "28"])
    def test_drop_step_out_of_range_is_validation_error(self, capsys, step):
        assert cli.main(["trace", "lifi-to-lifi", "--drop-step", step]) == 2
        assert "1..27" in capsys.readouterr().err

    @pytest.mark.parametrize("per_hop_ms,rule", [("-1", "must be in [0.0, 1.0] s"),
                                                  ("nan", "expected a finite number"), ("inf", "expected a finite number")])
    def test_negative_per_hop_latency_is_validation_error(self, tmp_path, capsys, per_hop_ms, rule):
        assert cli.main(["trace", "lifi-to-lifi", "--per-hop-ms", per_hop_ms, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "per-hop latency" in err and "--per-hop-ms" in err and f"policy.per_hop_latency_s: {rule}" in err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_kind_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["trace", "macro-to-femto"])
        assert excinfo.value.code == 2


class TestIndoorSim:
    def test_non_finite_score_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        # No accepted config makes a nan SINR, so a stubbed channel does: the LiFi capacity total is nan. No AHP rank
        # is made from it, and nothing is written.
        monkeypatch.setattr(channel, "optical_sinr", lambda serving, interferers, params: np.full(len(serving), math.nan))
        path = tmp_path / "dark.yaml"
        path.write_text("engine: {user_count: 20, duration_s: 5.0, traffic: {arrival_rate_per_min: 6.0}}\n")
        assert cli.main(["indoor-sim", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "scores must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runs_and_is_deterministic(self, tmp_path, small_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["indoor-sim", "--config", small_config, "--seed", "4", "--out", str(a)]) == 0
        assert cli.main(["indoor-sim", "--config", small_config, "--seed", "4", "--out", str(b)]) == 0
        assert (a / "indoor_sim.csv").read_bytes() == (b / "indoor_sim.csv").read_bytes()
        lines = (a / "indoor_sim.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        assert any(l.startswith("fap_idle_fraction,") for l in lines)

    # sha256 of indoor_sim.csv as written under Python 3.11; the bytes must
    # not depend on the Python version that runs the simulation. Python 3.12
    # made a float sum() compensated, so rounding every all-float sum()
    # exactly in its place must leave the bytes as they are. loaded-120s-seed0
    # is the bench's whole indoor-loaded run: 1,200 ticks, many tick blocks.
    # slot-starved-30s-seed0 redirects 9 calls, blocks 28, rejects 493
    # handover ticks and runs all three handover kinds. In fov30-zero-sinr-seed0
    # a 30 degree FOV leaves LiFi links with a zero SINR: sinr_mean_db is -inf.
    @pytest.mark.parametrize("exact_float_sum", [False, True], ids=["builtin-sum", "exact-sum"])
    @pytest.mark.parametrize("entry", golden("indoor-sim"))
    def test_golden_digest(self, tmp_path, monkeypatch, capsys, entry, exact_float_sum):
        if exact_float_sum:
            plain_sum = sum

            def exact_sum(iterable, /, start=0):
                items = list(iterable)
                if items and all(type(x) is float for x in items):
                    return math.fsum([start, *items])
                return plain_sum(items, start)

            monkeypatch.setattr(builtins, "sum", exact_sum)
        assert_golden(entry, tmp_path, capsys)

    def test_duration_is_checked_against_the_configured_tick(self, tmp_path, capsys):
        path = tmp_path / "short-tick.yaml"
        path.write_text("engine: {duration_s: 0.04, mobility: {tick_s: 0.01}}\n")  # four ticks
        assert cli.main(["indoor-sim", "--config", str(path)]) == 0
        assert "fap_idle_fraction," in capsys.readouterr().out


class TestRunFigures:
    @pytest.mark.parametrize("out_given_by", ["flag", "default"])
    def test_flags_reach_every_experiment(self, tmp_path, small_config, out_given_by):
        # --seed and --config are passed on to every experiment; the output directory is --out, or out/ without it.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        flags = ["--seed", "3", "--config", small_config]
        if out_given_by == "flag":
            out = tmp_path / "figs"
            flags += ["--out", str(out)]
        else:
            out = tmp_path / "out"
        proc = subprocess.run([sys.executable, str(root / "scripts" / "run_figures.py"), *flags], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for name in cli.EXPERIMENTS:
            manifest = json.loads((out / f"{name}.manifest.json").read_text())
            assert manifest["seed"] == 3 and manifest["config_digest"] == config_digest(load_config(small_config))


class TestConfig:
    def test_defaults_round_trip(self):
        resolved = load_config(None)
        assert resolved == DEFAULT_CONFIG
        assert resolved is not DEFAULT_CONFIG
        assert config_digest(resolved) == "sha256:84337c02710b608778069bc39a6336acdffe2d688e87a74dc44e75893cd75595"

    def test_inline_criteria_table_parses(self, tmp_path):
        path = tmp_path / "crit.yaml"
        path.write_text(
            "selection:\n"
            "  pairwise_matrix: [[1.0, 3.0, 3.0, 3.0], [0.3333333333333333, 1.0, 1.0, 1.0],\n"
            "                    [0.3333333333333333, 1.0, 1.0, 1.0], [0.3333333333333333, 1.0, 1.0, 1.0]]\n"
        )
        merged = load_config(str(path))
        scenario = resolve(merged, seed=1)["engine"]
        assert scenario.selection.weights == selection.derive_weights(merged["selection"]["pairwise_matrix"])[0]

    def test_every_resolved_policy_is_the_configured_one(self, tmp_path, capsys):
        path = tmp_path / "policy.yaml"
        path.write_text("policy: {t_h_s: 5.0, lifi_slots: 4, per_hop_latency_s: 0.003}\n")
        sections = resolve(load_config(str(path)), seed=0)
        configured = PolicyConfig(t_h_s=5.0, lifi_slots=4, per_hop_latency_s=0.003)
        policies = [s for s in sections.values() if isinstance(s, PolicyConfig)] + [sections["engine"].policy]
        assert policies == [configured, configured]
        # trace reads the configured per-hop latency
        assert cli.main(["trace", "lifi-to-lifi", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert cli.main(["trace", "lifi-to-lifi", "--per-hop-ms", "3"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "argv",
        [["indoor-sim"], ["indoor-sim", "--config"], ["experiment", "fig18", "--config"], ["plan"],
         ["trace", "lifi-to-lifi"]],
        ids=["indoor-sim", "indoor-sim-config", "fig18-config", "plan", "trace"],
    )
    def test_each_command_builds_every_section_once(self, tmp_path, monkeypatch, capsys, small_config, argv):
        builds, derivations = collections.Counter(), []
        build, derive_weights = cfgmod.build, selection.derive_weights

        def counted_build(config, path, **context):
            builds[path] += 1
            return build(config, path, **context)

        def counted_derive_weights(matrix):
            derivations.append(matrix)
            return derive_weights(matrix)

        monkeypatch.setattr(cfgmod, "build", counted_build)
        monkeypatch.setattr(selection, "derive_weights", counted_derive_weights)
        argv = [*argv, small_config] if argv[-1] == "--config" else argv
        assert cli.main([*argv, *out_flag(argv, tmp_path / "out")]) == 0
        assert builds == dict.fromkeys(cfgmod.SECTIONS, 1)
        assert len(derivations) == 1

    @pytest.mark.parametrize("path", list(cfgmod.SECTIONS))
    def test_build_hands_each_key_to_its_dataclass_as_written(self, path):
        built, section = cfgmod.build(DEFAULT_CONFIG, path), cfgmod._section(DEFAULT_CONFIG, path)
        for f in cfgmod._key_fields(cfgmod.SECTIONS[path]):
            value = getattr(built, f.name)
            assert (value, type(value)) == (section[f.name], type(section[f.name])), f"{path}.{f.name}"

    def test_no_dataclass_is_split_across_sections(self):
        # Each dataclass's keys live in one section, so no field has a second path.
        assert len(set(cfgmod.SECTIONS.values())) == len(cfgmod.SECTIONS)

    def test_every_numeric_key_declares_its_interval(self):
        # One closed interval per int and float key, declared with its field by channel.key: it holds the default,
        # and an int key's bounds are ints.
        for path, cls in cfgmod.SECTIONS.items():
            for f in cfgmod._key_fields(cls):
                if isinstance(f.default, (int, float)):
                    low, high = f.metadata["domain"]
                    assert low < high and low <= f.default <= high, f"{path}.{f.name}"
                    assert isinstance(f.default, float) or type(low) is type(high) is int, f"{path}.{f.name}"

    def test_every_key_is_a_field_of_its_section(self):
        # One schema: each leaf of DEFAULT_CONFIG is a key field of its section's dataclass, and each key field a leaf.
        fields = {f"{path}.{f.name}" for path, cls in cfgmod.SECTIONS.items() for f in cfgmod._key_fields(cls)}
        assert set(dict(leaves(DEFAULT_CONFIG))) == fields

    def test_removed_wall_loss_key_is_unknown(self, tmp_path, capsys):
        # channel.rf.building_wall_loss_dB moved no command's output, so it is no key: a file that sets it exits 2.
        path = tmp_path / "wall.yaml"
        path.write_text("channel: {rf: {building_wall_loss_dB: 20.0}}\n")
        assert cli.main(["experiment", "fig19", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: channel.rf.building_wall_loss_dB: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_per_hop_latency_under_policy_runs_as_under_protocol(self, tmp_path, capsys):
        # The trace pin was recorded with `protocol: {per_hop_latency_s: 0.003}`, before the key moved into `policy`;
        # the indoor-sim pin, too, and recorded again when walkers moved to closed-form legs.
        path = tmp_path / "policy.yaml"
        path.write_text("policy: {per_hop_latency_s: 0.003}\nengine:\n  user_count: 20\n  duration_s: 30.0\n"
                        "  traffic: {arrival_rate_per_min: 6.0, mean_holding_s: 20.0}\n")
        assert cli.main(["trace", "lifi-to-lifi", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[-1].removeprefix("# outcome: "))["latency_s"] == 0.08100000000000003
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dc5e2ecd753de6f38d8b058e2721c7265aa3ed7d018bf03670d6c3c893793d74")
        assert cli.main(["indoor-sim", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert hashlib.sha256((tmp_path / "out" / "indoor_sim.csv").read_bytes()).hexdigest() == (
            "a75e372e36cb6e4e6cfdaf4a79528bcdb52f61161477f9a9826be50fa584a313")

    def test_user_count_is_at_most_2_to_the_14(self):
        # Checked by validation alone: no run of that many terminals is started.
        engine = resolve(deep_merge(DEFAULT_CONFIG, {"engine": {"user_count": 2**14}}), seed=0)["engine"]
        assert engine.user_count == 2**14
        with pytest.raises(ValueError, match=r"^engine.user_count: must be in \[0, 16384\] .*, got 16385$"):
            resolve(deep_merge(DEFAULT_CONFIG, {"engine": {"user_count": 2**14 + 1}}), seed=0)

    def test_mc_samples_is_at_most_2_to_the_32(self):
        assert resolve(deep_merge(DEFAULT_CONFIG, {"zoning": {"mc_samples": 2**32}}), seed=0)
        with pytest.raises(ValueError, match=r"^zoning.mc_samples: must be in \[10000, 4294967296\], got 4294967297$"):
            resolve(deep_merge(DEFAULT_CONFIG, {"zoning": {"mc_samples": 2**32 + 1}}), seed=0)

    @pytest.mark.parametrize("key, most", [("user_count_max", 2**20), ("placements", 2**32)])
    def test_fig16_counts_have_an_upper_bound(self, key, most):
        assert resolve(deep_merge(DEFAULT_CONFIG, {"engine": {"fig16": {key: most}}}), seed=0)
        with pytest.raises(ValueError, match=rf"^engine.fig16.{key}: must be in \[[01], {most}\].*, got {most + 1}$"):
            resolve(deep_merge(DEFAULT_CONFIG, {"engine": {"fig16": {key: most + 1}}}), seed=0)

    def test_fig16_user_records_are_at_most_2_to_the_28_bytes(self, tmp_path, capsys):
        # Checked by validation alone. A 4 m x 4 m room has one AP, so each user's record over the 100,000 placements
        # is 100,000 bytes; with 100,000 slots the walk could reach 100,000 users, about 10 GB of records.
        def fig16(users):
            return deep_merge(DEFAULT_CONFIG, {"zoning": {"room_x_m": 4.0, "room_y_m": 4.0},
                                               "policy": {"lifi_slots": 100_000},
                                               "engine": {"fig16": {"user_count_max": users}}})

        most = 2**28 // 100_000
        assert resolve(fig16(2000), seed=0)["engine.fig16"].user_count_max == 2000
        assert resolve(fig16(most), seed=0)
        with pytest.raises(ValueError, match=rf"^engine.fig16.user_count_max: must be at most {most} \(.*\), "
                                             rf"got {most + 1}$"):
            resolve(fig16(most + 1), seed=0)
        path = tmp_path / "many_slots.yaml"
        path.write_text("zoning: {room_x_m: 4.0, room_y_m: 4.0}\npolicy: {lifi_slots: 100000}\n"
                        "engine: {fig16: {user_count_max: 100000}}\n")
        assert cli.main(["experiment", "fig16", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: engine.fig16.user_count_max: must be at most {most}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, most", [
        ("engine.fig17", "drops", 2**22 // 50), ("engine.fig18", "crossings", 2**22),
        ("engine.fig18", "spacing_count", 2**20), ("transport.fig19", "distance_count", 2**20),
        ("transport.fig20", "distance_count", 2**20), ("transport.fig21", "distance_count", 2**20),
    ])
    def test_array_counts_resolve_at_their_bound(self, section, key, most):
        # Each count that sizes an in-memory array is accepted up to its bound (fig17's at the default 50 FAPs, fig18's
        # spacing count at the 2^27 / 2^20 crossings that its draw bound leaves); one past it exits 2
        # (test_unparsable_config_is_validation_error).
        outer, inner = section.split(".")
        others = {"crossings": 2**27 // most} if key == "spacing_count" else {}
        assert resolve(deep_merge(DEFAULT_CONFIG, {outer: {inner: {key: most, **others}}}), seed=0)

    @pytest.mark.parametrize("spacings, crossings", [(25, 2**22), (32, 2**22), (2**19, 2**8), (6710, 20_000)])
    def test_fig18_draws_at_most_2_to_the_27_offsets(self, spacings, crossings):
        # fig18 draws spacing_count * crossings offsets, about a second at 2^27: the crossings bound 2^22 at the default
        # 25 spacings and each product up to 2^27 resolve, and one spacing more is rejected naming the count (the CLI
        # exits 2 on it: test_unparsable_config_is_validation_error).
        def fig18(count):
            return deep_merge(DEFAULT_CONFIG, {"engine": {"fig18": {"spacing_count": count, "crossings": crossings}}})

        assert resolve(fig18(spacings), seed=0)
        most = 2**27 // crossings
        with pytest.raises(ValueError, match=rf"^engine.fig18.spacing_count: must be at most 2\*\*27 // crossings = "
                                             rf"{most} \(.*\), got {most + 1}$"):
            resolve(fig18(most + 1), seed=0)

    @pytest.mark.filterwarnings("error")
    def test_plan_at_the_edges_of_the_room_domain(self, capsys):
        assert cli.main(["plan", "--room", "1e4x1e4", "--radius", "1e3", "--samples", "10000"]) == 0
        assert cli.main(["plan", "--room", "1e4x0.001", "--radius", "1e4", "--samples", "10000"]) == 0

    def test_a_number_its_key_cannot_hold_is_a_type_error(self):
        for held, beyond in ((2**63 - 1, 2**63), (-2**63, -2**63 - 1)):  # an int key holds numpy's int64
            assert deep_merge(DEFAULT_CONFIG, {"zoning": {"mc_samples": held}})["zoning"]["mc_samples"] == held
            with pytest.raises(ValueError, match="^zoning.mc_samples: must fit numpy's int64"):
                deep_merge(DEFAULT_CONFIG, {"zoning": {"mc_samples": beyond}})
        assert deep_merge(DEFAULT_CONFIG, {"zoning": {"room_x_m": 10**308}})["zoning"]["room_x_m"] == 1e308
        for beyond in (10**309, -(10**309)):  # a float key holds a finite float
            with pytest.raises(ValueError, match="^zoning.room_x_m: expected a finite number"):
                deep_merge(DEFAULT_CONFIG, {"zoning": {"room_x_m": beyond}})

    @pytest.mark.filterwarnings("error")
    def test_every_numeric_key_resolves_or_fails_naming_a_key(self):
        # Each numeric key alone at zero, -1, the float or int64 extremes and a few magnitudes between: the file
        # resolves, or validation raises a ValueError that starts with a key, which the CLI reports with exit 2. A
        # value its rules let through but that overflows a rule's own arithmetic would raise another error here.
        # Each key also takes both ends of its declared interval, where the file resolves or fails a rule that relates
        # keys, and one ulp (an int key: one) outside them, where it fails naming that key.
        probes = {float: (0.0, -1.0, 5e-324, 1e-300, 1e-9, 1e6, 1e150, 1e300, 1.7e308, -1.7e308),
                  int: (0, -1, 1, 2, 2**31, 2**62, -2**62)}
        relational = {"engine.mobility.speed_max_mps", "engine.mobility.pause_max_s", "engine.duration_s",
                      "zoning.coverage_radius_m", "engine.fig16.user_count_max", "engine.fig17.drops",
                      "engine.fig18.spacing_count"}
        keys, failures, resolves = dict(leaves(DEFAULT_CONFIG)), [], 0
        for key, default in keys.items():
            if type(default) not in probes:
                continue
            low, high = DOMAINS[key]
            outside = (low - 1, high + 1) if type(default) is int else (math.nextafter(low, -math.inf),
                                                                        math.nextafter(high, math.inf))
            for value in (*probes[type(default)], low, high, *outside):
                *sections, name = key.split(".")
                override = {name: value}
                for section in reversed(sections):
                    override = {section: override}
                resolves += 1
                try:
                    resolve(deep_merge(DEFAULT_CONFIG, override), seed=0)
                    named = None
                except ValueError as exc:
                    named = str(exc).split(":")[0]
                    if named not in keys:
                        failures.append(f"{key}: {value!r}: {exc}")
                except Exception as exc:
                    failures.append(f"{key}: {value!r}: {type(exc).__name__}: {exc}")
                    continue
                if value in outside and named != key or value in (low, high) and named not in (None, *relational):
                    failures.append(f"{key}: {value!r}: {'resolves' if named is None else f'names {named}'}")
        assert resolves == 963 and not failures, failures

    def test_deep_merge_overrides_leaves(self):
        merged = deep_merge(DEFAULT_CONFIG, {"zoning": {"room_x_m": 30.0}})
        assert merged["zoning"]["room_x_m"] == 30.0
        assert merged["zoning"]["room_y_m"] == 24.0

    def test_digest_tracks_content(self):
        d1 = config_digest(DEFAULT_CONFIG)
        d2 = config_digest(deep_merge(DEFAULT_CONFIG, {"policy": {"fap_slots": 9}}))
        assert d1 != d2
        assert d1 == config_digest(load_config(None))

    def test_fig17_does_not_import_numpy_ma(self, tmp_path):
        # np.percentile would import numpy.ma (through np.unique), about 15 ms of a fresh process
        script = (
            "import sys; from hybridnet import cli; "
            f"assert cli.main(['experiment', 'fig17', '--out', {str(tmp_path)!r}]) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by fig17'"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_yaml_is_imported_only_to_read_a_file(self, tmp_path):
        script = (
            "import sys; from hybridnet import cli; "
            f"assert cli.main(['experiment', 'fig18', '--out', {str(tmp_path)!r}]) == 0; "
            "assert 'yaml' not in sys.modules, 'yaml imported without --config'"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
