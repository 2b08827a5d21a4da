"""Semantic checks of the CSVs the CLI writes, and the ratios read from them.

The checks apply the acceptance criteria's tolerances rather than byte
digests, so a change that legitimately moves the figures' bytes (a change
of random-number consumption) still passes while a wrong answer fails.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

INDOOR_ROWS = (
    "admissions.accept_on_fap", "admissions.accept_on_lifi", "admissions.redirected", "admissions.blocked",
    "handovers.lifi_to_femto", "handovers.femto_to_lifi", "handovers.lifi_to_lifi", "handovers.rejected",
    "handover_latency_mean_s", "fap_idle_fraction", "sinr_mean_db", "capacity_mean_bps",
    "calls_released", "active_at_end", "ahp.r_lifi", "ahp.r_femto", "ahp.chosen",
)
COUNT_ROWS = tuple(r for r in INDOOR_ROWS if r.startswith(("admissions.", "handovers."))) + ("calls_released", "active_at_end")
EXECUTED_HANDOVER_ROWS = ("handovers.lifi_to_femto", "handovers.femto_to_lifi", "handovers.lifi_to_lifi")

# Acceptance criterion 6 allows 0.01 at 100,000 crossings; the tolerance
# scales as 1/sqrt(crossings) so the check keeps the criterion's confidence
# at the configured crossing count.
FIG18_TOL_AT_100K = 0.01


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    return table[0], table[1:]


def _numeric(rows: list[list[str]]) -> list[list[float]]:
    values = [[float(v) for v in row] for row in rows]
    if not values or any(not math.isfinite(v) for row in values for v in row):
        raise ValueError("empty table or non-finite value")
    return values


def _check_fig16(rows, config):
    placements = config["engine"]["fig16"]["placements"]
    for p, empirical, bound in _numeric(rows):
        sigma = math.sqrt(max(empirical * (1.0 - empirical), 1e-12) / placements)
        if empirical > bound + 3.0 * sigma:
            return f"p={p:g}: empirical {empirical} above bound {bound} + 3 sigma"
    return None


def _check_fig17(rows, config):
    means = {(scheme, int(frf)): float(mean) for scheme, frf, mean, *_ in rows}
    _numeric([row[1:] for row in rows])
    for frf in (1, 4):
        if means[("hybrid", frf)] < means[("pure", frf)]:
            return f"hybrid below pure at reuse {frf}"
    for scheme in ("pure", "hybrid"):
        if means[(scheme, 4)] < means[(scheme, 1)]:
            return f"reuse 4 below reuse 1 for {scheme}"
    return None


def _check_fig18(rows, config):
    r = config["zoning"]["coverage_radius_m"]
    crossings = config["engine"]["fig18"]["crossings"]
    tol = FIG18_TOL_AT_100K * math.sqrt(max(1.0, 100_000 / crossings))
    for d, lifi_only, hybrid in _numeric(rows):
        exact = math.sqrt(r * r - (d / 2.0) ** 2) / r if d < 2.0 * r else 0.0
        if hybrid != 1.0:
            return f"d={d}: hybrid success {hybrid} != 1"
        if abs(lifi_only - exact) > tol:
            return f"d={d}: LiFi-only {lifi_only} not within {tol:.4f} of {exact}"
    return None


def _check_fig19(rows, config):
    _numeric(rows)
    return None


def _check_fig20(rows, config):
    for d, direct, relayed in _numeric(rows):
        if relayed > direct:
            return f"d={d}: relayed outage {relayed} above direct {direct}"
    return None


def _check_fig21(rows, config):
    for d, rf_only, owc_only, hybrid in _numeric(rows):
        if hybrid < max(rf_only, owc_only):
            return f"d={d}: hybrid {hybrid} below max(rf, owc)"
    return None


def _check_zones(rows, config):
    if [row[0] for row in rows] != ["Z1", "Z2", "Z3", "Z4"]:
        return "zones.csv does not list Z1..Z4"
    total = 0.0
    for row in rows:
        total += float(row[3])
    if total != 1.0:
        return f"zone probabilities sum to {total!r}, not exactly 1.0"
    return None


def _check_indoor(rows, config):
    table = dict(rows)
    if [row[0] for row in rows] != list(INDOOR_ROWS):
        return "indoor_sim.csv does not have the fixed row set"
    for key in COUNT_ROWS:
        if not table[key].isdigit():
            return f"{key} = {table[key]!r} is not a non-negative count"
    if not 0.0 <= float(table["fap_idle_fraction"]) <= 1.0:
        return f"fap_idle_fraction {table['fap_idle_fraction']} outside [0, 1]"
    return None


CHECKS = {
    "fig16.csv": _check_fig16, "fig17.csv": _check_fig17, "fig18.csv": _check_fig18,
    "fig19.csv": _check_fig19, "fig20.csv": _check_fig20, "fig21.csv": _check_fig21,
    "zones.csv": _check_zones, "indoor_sim.csv": _check_indoor,
}


def check_output(path: Path, config: dict) -> str | None:
    """None when the CSV passes its check, otherwise the reason it fails."""
    try:
        _header, rows = _rows(path)
        return CHECKS[path.name](rows, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{path.name}: {type(exc).__name__}: {exc}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def indoor_ratios(path: Path) -> dict[str, float]:
    """Handover and admission waste ratios, each with its base; zeros without the CSV."""
    if not path.exists():
        return dict.fromkeys(("policy.handover_executed_ratio", "policy.handover_attempts",
                              "policy.admission_blocked_ratio", "policy.admission_attempts"), 0)
    table = dict(_rows(path)[1])
    executed = sum(int(table[k]) for k in EXECUTED_HANDOVER_ROWS)
    handover_attempts = executed + int(table["handovers.rejected"])
    admissions = sum(int(table[k]) for k in INDOOR_ROWS if k.startswith("admissions."))
    return {
        "policy.handover_executed_ratio": executed / handover_attempts if handover_attempts else 0.0,
        "policy.handover_attempts": handover_attempts,
        "policy.admission_blocked_ratio": int(table["admissions.blocked"]) / admissions if admissions else 0.0,
        "policy.admission_attempts": admissions,
    }
