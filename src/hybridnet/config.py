"""Scenario configuration: defaults, strict YAML overrides and config digests.

One YAML file configures everything; its sections mirror the module names
(channel, zoning, selection, policy, engine, transport). Every key is a
field of its section's dataclass, and the dataclass defaults are the only
place a default is written: ``DEFAULT_CONFIG`` is derived from them, so an
empty file reproduces the baseline setup. A user file is merged over the
defaults strictly and then resolved whole, whichever command reads it; a
bad key or value raises ValueError naming its dotted path.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

from .channel import OpticalParams, RfParams
from .engine import (
    FemtoSinrConfig, HandoverSuccessConfig, IdleExperimentConfig, MobilityConfig, PolicyConfig, ScenarioConfig,
    TrafficConfig,
)
from .selection import SelectionConfig
from .transport import CapacitySweep, CarFollowScenario, OutageSweep, VehicleLink
from .zoning import RoomConfig

# Every key is a field of its section's dataclass; no dataclass has two sections. Two kinds of field are never keys,
# and `resolve` passes them to `build`: the run seed, and each dataclass-valued field (room, mobility, ...), which
# takes the section built from its type. So a section comes after every section its fields take.
SECTIONS = {
    "channel.optical": OpticalParams,
    "channel.rf": RfParams,
    "zoning": RoomConfig,
    "policy": PolicyConfig,
    "selection": SelectionConfig,
    "engine.mobility": MobilityConfig,
    "engine.traffic": TrafficConfig,
    "engine": ScenarioConfig,
    "engine.fig16": IdleExperimentConfig,
    "engine.fig17": FemtoSinrConfig,
    "engine.fig18": HandoverSuccessConfig,
    "transport.vehicle": VehicleLink,
    "transport.fig19": CapacitySweep,
    "transport.fig20": OutageSweep,
    "transport.fig21": CarFollowScenario,
}


def _key_fields(cls):
    return [f for f in fields(cls) if f.name != "seed" and not is_dataclass(f.default)]


def _section(config: dict, path: str) -> dict:
    return functools.reduce(dict.__getitem__, path.split("."), config)


def _default_config() -> dict:
    config: dict = {}
    for path, cls in SECTIONS.items():
        section = functools.reduce(lambda node, part: node.setdefault(part, {}), path.split("."), config)
        section.update((f.name, f.default) for f in _key_fields(cls))
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
    if isinstance(default, tuple):  # the AHP matrix, a list of rows in YAML
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
    """The dataclass of section ``path`` from its keys plus ``context``, the fields it does not carry.

    A value the dataclass rejects raises ValueError naming the key or the section.
    """
    cls, section = SECTIONS[path], _section(config, path)
    values = {f.name: section[f.name] for f in _key_fields(cls)}
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

    The context of a section is the seed and the sections its dataclass-valued fields take, so
    ``engine.duration_s`` is checked against the configured tick. Every value check of the file runs here,
    whatever the caller reads.
    """
    built: dict[type, object] = {}
    for path, cls in SECTIONS.items():
        keys = _key_fields(cls)
        built[cls] = build(config, path, **{f.name: built[type(f.default)] if is_dataclass(f.default) else seed
                                            for f in fields(cls) if f not in keys})
    return dict(zip(SECTIONS, built.values()))


def config_digest(config: dict) -> str:
    """Deterministic sha256 over the merged configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
