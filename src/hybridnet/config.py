"""Scenario configuration: defaults, strict YAML overrides and config digests.

One YAML file configures everything; its sections mirror the module names
(channel, zoning, selection, policy, protocol, engine, transport). Most
sections hold the fields of one dataclass, and the dataclass defaults are
the only place a default is written: ``DEFAULT_CONFIG`` is derived from
them, so an empty file reproduces the baseline setup. A user file is merged
over the defaults strictly and then resolved whole, whichever command reads
it; a bad key or value raises ValueError naming its dotted path.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import selection
from .channel import POSITIVE, OpticalParams, RfParams, at_least
from .engine import (
    FemtoSinrConfig, HandoverSuccessConfig, IdleExperimentConfig, MobilityConfig, PolicyConfig, ScenarioConfig,
    TrafficConfig,
)
from .transport import CarFollowScenario, VehicleLink
from .zoning import MAX_MC_SAMPLES, MIN_MC_SAMPLES, RoomConfig

# Sections whose keys are the fields of one dataclass, less the listed
# fields: those are context that `resolve` passes to `build` (the seed, a
# value from another section, the AHP weights). Dataclass-valued fields
# (room, mobility, ...) are never keys. `protocol` carries the one
# PolicyConfig field that the protocol layer reads; `resolve` hands it to
# `policy`, the one PolicyConfig it returns.
SECTIONS = {
    "channel.optical": (OpticalParams, ()),
    "channel.rf": (RfParams, ()),
    "zoning": (RoomConfig, ()),
    "policy": (PolicyConfig, ("per_hop_latency_s",)),
    "protocol": (PolicyConfig, ("t_h_s", "t_h1_s", "fap_slots", "lifi_slots")),
    "engine": (ScenarioConfig, ("seed", "ahp_weights")),
    "engine.mobility": (MobilityConfig, ()),
    "engine.traffic": (TrafficConfig, ()),
    "engine.fig16": (IdleExperimentConfig, ("seed",)),
    "engine.fig17": (FemtoSinrConfig, ("seed",)),
    "engine.fig18": (HandoverSuccessConfig, ("seed",)),
    "transport.vehicle": (VehicleLink, ()),
    "transport.fig21": (CarFollowScenario, ()),
}

# Keys that no dataclass carries: sweep ranges, counts and the AHP matrix.
# A range-checked key is written as (default, rule, ok), with the rule pair
# of `channel.check_fields`; a sweep's values lie between its two
# endpoints, so checking both checks them all.
_SWEEP_COUNT = (f"in [1, {2**20}] (the figure builds its CSV rows, one per value, in memory)", lambda v: 1 <= v <= 2**20)
_MACRO_SWEEP = {"distance_start_km": (0.1, *POSITIVE), "distance_stop_km": (1.0, *POSITIVE),
                "distance_count": (100, *_SWEEP_COUNT)}
EXTRA_KEYS = {
    "zoning": {"mc_samples": (1 << 20, f"in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]",
                              lambda v: MIN_MC_SAMPLES <= v <= MAX_MC_SAMPLES)},
    "selection": {"pairwise_matrix": [list(row) for row in selection.DEFAULT_MATRIX]},
    "engine.fig16": {"user_count_max": (20, f"in [0, {2**20}] (fig16 builds its CSV rows, one per user count, in memory)",
                                        lambda v: 0 <= v <= 2**20)},  # per-user AP record: <= users * 2**18 * itemsize bytes
    "engine.fig18": {"spacing_start_m": (0.0, *at_least(0.0)), "spacing_stop_m": (12.0, *at_least(0.0)),
                     "spacing_count": (25, *_SWEEP_COUNT)},
    "transport.fig19": _MACRO_SWEEP,
    "transport.fig20": _MACRO_SWEEP,
    "transport.fig21": {"distance_start_m": (5.0, *POSITIVE), "distance_stop_m": (50.0, *POSITIVE),
                        "distance_count": (100, *_SWEEP_COUNT)},
}


def _key_fields(cls, skip):
    return [f for f in fields(cls) if f.name not in skip and not is_dataclass(f.default)]


def _section(config: dict, path: str) -> dict:
    return functools.reduce(dict.__getitem__, path.split("."), config)


def _new_section(config: dict, path: str) -> dict:
    for part in path.split("."):
        config = config.setdefault(part, {})
    return config


def _default_config() -> dict:
    config: dict = {}
    for path, (cls, skip) in SECTIONS.items():
        section = _new_section(config, path)
        for f in _key_fields(cls, skip):
            section[f.name] = f.default
    for path, keys in EXTRA_KEYS.items():
        section = _new_section(config, path)
        for name, value in keys.items():
            section[name] = value[0] if isinstance(value, tuple) else copy.deepcopy(value)
    return config


DEFAULT_CONFIG: dict = _default_config()


def _leaf(path: str, default, value):
    """``value`` checked against the type of ``default``, which must hold it; floats also take ints and numeric strings."""
    if isinstance(default, float):
        if isinstance(value, (int, str)) and not isinstance(value, bool):  # PyYAML reads 2.0e7 and 1e-4 as strings
            try:
                value = float(value)
            except (ValueError, OverflowError):  # not a number, or an int beyond the float range
                pass
        if isinstance(value, float) and math.isfinite(value):
            return value
        raise ValueError(f"{path}: expected a finite number, got {value!r}")
    if isinstance(default, list):
        if isinstance(value, list) and all(isinstance(row, list) for row in value):
            return [[_leaf(path, 0.0, v) for v in row] for row in value]
        raise ValueError(f"{path}: expected a list of rows, got {value!r}")
    if type(value) is not type(default):  # exact type: a YAML bool is no int
        raise ValueError(f"{path}: expected {type(default).__name__}, got {value!r}")
    if isinstance(value, int) and not -2**63 <= value < 2**63:
        raise ValueError(f"{path}: must fit numpy's int64, got {value!r}")
    return value


def _merge(base: dict, override, prefix: str) -> dict:
    if not isinstance(override, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'config file'}: expected a mapping, got {override!r}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ValueError(f"{path}: unknown key")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, path + ".")
        else:
            out[key] = _leaf(path, base[key], value)
    return out


def deep_merge(base: dict, override: dict) -> dict:
    """``override`` laid over a copy of ``base``, strictly.

    Every key of ``override`` must exist in ``base`` with the same shape: a
    mapping over a mapping, a leaf of the base leaf's type over a leaf.
    Float leaves also take ints and numeric strings. A violation raises
    ValueError naming the dotted key.
    """
    return _merge(base, override, "")


def build(config: dict, path: str, **context):
    """The dataclass of section ``path`` from its keys plus ``context``.

    Context (from ``resolve``) supplies fields the section does not carry; a
    field in neither keeps its default. A value the dataclass rejects raises
    ValueError naming the key or the section.
    """
    cls, skip = SECTIONS[path]
    section = _section(config, path)
    values = {f.name: section[f.name] for f in _key_fields(cls, skip)}
    try:
        return cls(**values, **context)
    except ValueError as exc:  # a message that starts with a key's name names the key
        raise ValueError(f"{path}{'.' if str(exc).split(':')[0] in values else ': '}{exc}") from None


def load_config(path: str | Path | None) -> dict:
    """The defaults, strictly overridden by the YAML file at ``path``, if any.

    Only the file's shape is checked here: its keys, mappings and leaf
    types. It builds nothing; ``resolve`` checks the values. PyYAML is
    imported only when a file is read.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    import yaml

    try:
        data = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML: {exc}") from None
    return deep_merge(DEFAULT_CONFIG, {} if data is None else data)


def resolve(config: dict, seed: int) -> dict[str, object]:
    """Every section of ``config`` built once with its real context, keyed by its ``SECTIONS`` path.

    ``protocol`` is the exception: its one field goes into ``policy``, so
    the result holds one PolicyConfig, the configured one.

    The context is the seed and values of other sections, so
    ``engine.duration_s`` is checked against the configured tick, and the
    AHP weights are derived here once. Every value check of the file runs
    here, whatever the caller reads: the dataclass ranges, the ranges of
    ``EXTRA_KEYS``, fig18's draw count, and the AHP matrix's rules in ``selection.derive_weights``.
    """
    for section_path, keys in EXTRA_KEYS.items():
        for name, spec in keys.items():
            value = _section(config, section_path)[name]
            if isinstance(spec, tuple) and not spec[2](value):
                raise ValueError(f"{section_path}.{name}: must be {spec[1]}, got {value!r}")
    try:
        weights, _cr = selection.derive_weights(config["selection"]["pairwise_matrix"])
    except ValueError as exc:
        raise ValueError(f"selection.pairwise_matrix: {exc}") from None

    out = {path: build(config, path) for path in ("channel.optical", "channel.rf", "zoning", "protocol",
                                                  "engine.mobility", "engine.traffic", "transport.vehicle",
                                                  "transport.fig21")}
    room = out["zoning"]
    out["policy"] = build(config, "policy", per_hop_latency_s=out.pop("protocol").per_hop_latency_s)
    out["engine"] = build(
        config, "engine", seed=seed, room=room, mobility=out["engine.mobility"], traffic=out["engine.traffic"],
        policy=out["policy"], optical=out["channel.optical"], rf=out["channel.rf"], ahp_weights=weights,
    )
    out["engine.fig16"] = build(config, "engine.fig16", room=room, policy=out["policy"], seed=seed)
    out["engine.fig17"] = build(config, "engine.fig17", room=room, seed=seed)
    out["engine.fig18"] = fig18 = build(config, "engine.fig18", room=room, seed=seed)
    if (spacings := _section(config, "engine.fig18")["spacing_count"]) * fig18.crossings > 2**27:
        raise ValueError(f"engine.fig18.spacing_count: must be at most 2**27 // crossings = {2**27 // fig18.crossings} "
                         f"(fig18 draws spacing_count * crossings offsets, 2**27 in about a second), got {spacings}")
    return out


def config_digest(config: dict) -> str:
    """Deterministic sha256 over the merged configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def sweep(section: dict, name: str, unit: str) -> list[float]:
    """Evenly spaced values from a section's ``<name>_start_<unit>``, ``<name>_stop_<unit>`` and ``<name>_count``."""
    values = np.linspace(section[f"{name}_start_{unit}"], section[f"{name}_stop_{unit}"], section[f"{name}_count"])
    return [float(v) for v in values]
