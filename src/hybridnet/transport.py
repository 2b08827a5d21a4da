"""Vehicle-side models: relay capacity, outage and car-to-car link reliability.

Each model is a sweep over distances, one CSV row per distance (fig19 to
fig21). A roof-mounted relay terminates the macrocell downlink outside the
vehicle body, removing the vehicle-wall penetration loss; passengers then
attach to an in-vehicle LiFi AP or femtocell. The end-to-end relayed rate
is the minimum of the backhaul and access hops; the access hop does not
depend on the distance, so ``capacity_sweep`` computes it once. Outage
places log-normal shadowing on the macro link and compares against
separate receiver thresholds for the in-vehicle user and the relay.

Car-following reliability treats the RF and optical links as availability
predicates: RF is up while the gap is inside the RF range, the optical
link while the heading difference between the two cars stays inside the
receiver field of view. A U-turn sweeps the leader's heading through 180
degrees and back as the follower takes the same turn, producing a
deterministic optical outage interval whose ends ``reliability_sweep``
computes exactly for each gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import OpticalParams, RfParams


@dataclass(frozen=True)
class VehicleLink:
    """The vehicle's in-vehicle access hop, macro-link shadowing, and the user's and relay's SINR thresholds."""

    in_vehicle_access: str = "lifi"  # "lifi" (an in-vehicle LiFi AP) or "fap" (a femtocell)
    shadowing_sigma_dB: float = 8.0
    sinr_threshold_user_dB: float = 9.0
    sinr_threshold_relay_dB: float = 5.0
    access_horizontal_distance_m: float = 0.0
    access_femto_distance_m: float = 2.0

    def __post_init__(self):
        channel.check_fields(self, "'lifi' or 'fap'", lambda v: v in ("lifi", "fap"), "in_vehicle_access")
        channel.check_fields(self, *channel.POSITIVE, "shadowing_sigma_dB")
        channel.check_fields(self, *channel.NON_NEGATIVE_FINITE, "access_horizontal_distance_m")
        channel.check_fields(self, *channel.OPTICAL_DISTANCE, "access_horizontal_distance_m")
        channel.check_fields(self, *channel.POSITIVE_FINITE, "access_femto_distance_m")


@dataclass(frozen=True)
class CapacitySweep:
    """fig19: the macro-link distances, ``distance_count`` values from ``distance_start_km`` to ``distance_stop_km``."""

    distance_start_km: float = 0.1
    distance_stop_km: float = 1.0
    distance_count: int = 100

    def __post_init__(self):
        channel.check_fields(self, *channel.POSITIVE, "distance_start_km", "distance_stop_km")  # so is every distance
        channel.check_fields(self, *channel.SWEEP_COUNT, "distance_count")


@dataclass(frozen=True)
class OutageSweep(CapacitySweep):
    """fig20: the macro-link distances, swept as fig19's."""


@dataclass(frozen=True)
class CarFollowScenario:
    """fig21: the car pair's RF range, optical field of view, speed and U-turn, its time window, and the gaps swept."""

    rf_range_m: float = 30.0
    uturn_radius_m: float = 10.0
    speed_kmh: float = 40.0
    owc_fov_semi_angle_deg: float = 30.0
    window_s: float = 30.0
    uturn_start_s: float = 10.0
    distance_start_m: float = 5.0
    distance_stop_m: float = 50.0
    distance_count: int = 100

    def __post_init__(self):
        channel.check_fields(self, *channel.POSITIVE, "rf_range_m", "uturn_radius_m", "speed_kmh",
                             "owc_fov_semi_angle_deg")
        channel.check_fields(self, *channel.POSITIVE_FINITE, "window_s")
        channel.check_fields(self, "finite", math.isfinite, "uturn_start_s")
        channel.check_fields(self, *channel.POSITIVE, "distance_start_m", "distance_stop_m")  # so is every gap
        channel.check_fields(self, *channel.SWEEP_COUNT, "distance_count")


def macro_snr_dB(distance_km, rf: RfParams, wall_loss_dB: float):
    """Mean downlink SNR of the macro link over the macro bandwidth, through ``wall_loss_dB`` of wall."""
    loss = channel.macro_path_loss(distance_km, rf, wall_loss_dB)
    return rf.mbs_tx_dBm - loss - rf.noise_dBm(rf.macro_bandwidth_Hz)


def access_capacity_bps(link: VehicleLink, optical: OpticalParams, rf: RfParams) -> float:
    """Capacity of the in-vehicle hop (LiFi AP or femtocell, no interferers)."""
    if link.in_vehicle_access == "lifi":
        gain = channel.optical_channel_gain(link.access_horizontal_distance_m, optical)
        return channel.shannon_capacity(channel.optical_sinr(gain, [], optical), optical.bandwidth_Hz)
    rx = rf.fap_tx_dBm - channel.femto_path_loss(link.access_femto_distance_m, rf, wall_count=0)
    return channel.shannon_capacity(channel.rf_sinr(rx, rf.noise_dBm(rf.femto_bandwidth_Hz)), rf.femto_bandwidth_Hz)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# Figure sweeps ------------------------------------------------------------
# The work is elementwise, so a sweep gives the same bits as evaluating each
# distance alone: capacity and outage take all distances in one array pass,
# reliability a few Python float operations per distance.


def capacity_sweep(distances_km, link: VehicleLink, optical: OpticalParams, rf: RfParams):
    """Rows of (distance_km, direct_bps, relayed_bps) for one in-vehicle user at each distance from the MBS.

    Direct connectivity pays the vehicle-wall penetration loss; the relayed
    path removes it on the backhaul and is bounded by the in-vehicle access
    hop, which does not depend on the distance: ``relayed = min(backhaul, access)``.
    """
    d = np.asarray(distances_km, dtype=float)
    direct_snr = macro_snr_dB(d, rf, rf.vehicle_wall_loss_dB)
    backhaul_snr = macro_snr_dB(d, rf, 0.0)
    direct = channel.shannon_capacity(channel.db_to_linear(direct_snr), rf.macro_bandwidth_Hz)
    backhaul = channel.shannon_capacity(channel.db_to_linear(backhaul_snr), rf.macro_bandwidth_Hz)
    relayed = np.minimum(backhaul, access_capacity_bps(link, optical, rf))
    return list(zip(d.tolist(), direct.tolist(), relayed.tolist()))


def outage_sweep(distances_km, link: VehicleLink, rf: RfParams):
    """Rows of (distance_km, p_out_direct, p_out_relayed) at each distance from the MBS.

    Log-normal shadowing with the configured sigma rides on the macro
    link; outage is the probability that the shadowed SNR falls below the
    receiver threshold. The direct path uses the in-vehicle user threshold
    and pays the wall loss; the relayed path uses the relay threshold and
    does not.
    """
    d = np.asarray(distances_km, dtype=float)
    sigma = link.shadowing_sigma_dB
    z_direct = (link.sinr_threshold_user_dB - macro_snr_dB(d, rf, rf.vehicle_wall_loss_dB)) / sigma
    z_relayed = (link.sinr_threshold_relay_dB - macro_snr_dB(d, rf, 0.0)) / sigma
    rows = zip(d.tolist(), z_direct.tolist(), z_relayed.tolist())
    return [(di, _normal_cdf(zd), _normal_cdf(zr)) for di, zd, zr in rows]


def reliability_sweep(distances_m, scenario: CarFollowScenario):
    """Rows of (inter_vehicle_distance_m, rf_only, owc_only, hybrid) up-time fractions over the window.

    The leader turns 180 degrees in T = pi R / v from ``uturn_start_s``, the
    follower tau = d / v later: s seconds into the leader's turn their
    heading difference is 180 max(0, min(s, tau, T, T + tau - s)) / T. It
    exceeds the FOV semi-angle 180 f exactly on (fT, T + tau - fT) if
    min(tau, T) > fT, and never otherwise. RF is up for the whole window
    or not at all, so the hybrid link, up when either component is, is
    always up with RF and is the optical link without it.
    """
    speed_mps = scenario.speed_kmh / 3.6
    turn_s = math.pi * scenario.uturn_radius_m / speed_mps
    edge_s = scenario.owc_fov_semi_angle_deg / 180.0 * turn_s  # fT: the heading gap reaches the FOV
    start_s, window_s = scenario.uturn_start_s, scenario.window_s
    rows = []
    for d in distances_m:
        d = float(d)
        if d <= 0:
            raise ValueError("inter-vehicle distance must be positive")
        delay_s = d / speed_mps
        down_s = 0.0
        if min(delay_s, turn_s) > edge_s:
            down_s = max(0.0, min(start_s + turn_s + delay_s - edge_s, window_s) - max(start_s + edge_s, 0.0))
        owc_only = 1.0 - down_s / window_s
        rf_only = float(d <= scenario.rf_range_m)
        rows.append((d, rf_only, owc_only, 1.0 if rf_only else owc_only))
    return rows
