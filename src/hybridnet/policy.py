"""Admission control, handover decisions and FAP idle-mode management.

New calls route by zone: the femtocell takes everything that cannot or
should not ride LiFi (Zone 1 holes, Zone 4 overlap areas and every
real-time voice call), Zone 2 goes to LiFi, and Zone 3 goes to LiFi only
while the femtocell is idle. When the preferred network has no free slot a
data call overflows to the other covering network; voice never overflows
to LiFi.

Handover decisions follow the zone the terminal moved into, with two dwell
thresholds damping ping-pong: a LiFi user entering the overlap zone defers
to the femtocell only after outstaying ``T_h`` without a stronger target
AP, and a femtocell user in Zone 3 must dwell ``T_h1`` before moving to
LiFi.

The femtocell idles when it serves nobody, or serves exactly one user who
sits in Zone 3 and can be shifted to LiFi first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .zoning import Zone, occupancy_probability


class TrafficClass(enum.Enum):
    RT_VOICE = "rt_voice"
    DATA = "data"


class NetworkKind(enum.Enum):
    LIFI = "lifi"
    FAP = "fap"


class ApMode(enum.Enum):
    ACTIVE = "active"
    IDLE = "idle"


class AdmissionDecision(enum.Enum):
    ACCEPT_ON_FAP = "accept_on_fap"
    ACCEPT_ON_LIFI = "accept_on_lifi"
    REDIRECTED = "redirected"
    BLOCKED = "blocked"


class HandoverDecision(enum.Enum):
    STAY = "stay"
    TO_FAP = "to_fap"
    TO_TARGET_LIFI = "to_target_lifi"
    TO_LIFI = "to_lifi"


@dataclass(frozen=True)
class CallRequest:
    call_id: int
    terminal_id: int
    traffic_class: TrafficClass
    zone: Zone
    arrival_time_s: float


@dataclass
class ApState:
    identity: str
    kind: NetworkKind
    mode: ApMode = ApMode.ACTIVE
    capacity_slots: int = 8
    occupied_slots: int = 0

    def __post_init__(self):
        self.check()

    def check(self):
        if not 0 <= self.occupied_slots <= self.capacity_slots:
            raise ValueError("occupied slots must lie in [0, capacity]")
        if self.mode is ApMode.IDLE and self.occupied_slots != 0:
            raise ValueError("an idle AP cannot hold occupied slots")

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self.occupied_slots

    def occupy(self) -> None:
        """Take one slot, waking the AP if it idles."""
        self.mode = ApMode.ACTIVE
        self.occupied_slots += 1
        self.check()

    def release(self) -> None:
        self.occupied_slots -= 1
        self.check()


@dataclass
class NetworkState:
    """All APs reachable inside one room, keyed by identity."""

    aps: dict[str, ApState] = field(default_factory=dict)

    def add(self, ap: ApState) -> None:
        self.aps[ap.identity] = ap

    def of_kind(self, kind: NetworkKind) -> list[ApState]:
        return [ap for ap in self.aps.values() if ap.kind is kind]

    def first_free(self, kind: NetworkKind, candidates: list[str] | None = None) -> ApState | None:
        pool = self.of_kind(kind) if candidates is None else [self.aps[i] for i in candidates if i in self.aps]
        for ap in pool:
            if ap.kind is kind and ap.free_slots > 0:
                return ap
        return None

    def fap(self) -> ApState | None:
        faps = self.of_kind(NetworkKind.FAP)
        return faps[0] if faps else None


@dataclass
class DwellTimers:
    """Zone-entry clocks plus the two dwell thresholds (seconds)."""

    t_h_s: float = 2.0
    t_h1_s: float = 2.0
    zone4_entry_time_s: float | None = None
    zone3_entry_time_s: float | None = None

    def __post_init__(self):
        if self.t_h_s <= 0 or self.t_h1_s <= 0:
            raise ValueError("dwell thresholds must be positive")


@dataclass(frozen=True)
class AdmissionResult:
    decision: AdmissionDecision
    network: NetworkKind | None
    ap_id: str | None


def _preferred_network(request: CallRequest, fap_idle: bool) -> NetworkKind:
    if request.traffic_class is TrafficClass.RT_VOICE:
        return NetworkKind.FAP
    if request.zone in (Zone.Z1, Zone.Z4):
        return NetworkKind.FAP
    if request.zone is Zone.Z3:
        return NetworkKind.LIFI if fap_idle else NetworkKind.FAP
    return NetworkKind.LIFI  # Z2


def feasible_networks(zone: Zone, traffic_class: TrafficClass) -> tuple[NetworkKind, ...]:
    """Networks whose coverage (and policy) can carry a call in this zone."""
    if traffic_class is TrafficClass.RT_VOICE or zone is Zone.Z1:
        return (NetworkKind.FAP,)
    return (NetworkKind.FAP, NetworkKind.LIFI)


def admit_new_call(
    request: CallRequest,
    state: NetworkState,
    lifi_candidates: list[str] | None = None,
) -> AdmissionResult:
    """Route a newly originating call.

    ``lifi_candidates`` restricts LiFi placement to the APs actually
    covering the terminal (in preference order); by default any LiFi AP
    with a free slot qualifies. Overflow redirects a data call to the other
    feasible network; a full system blocks the call.
    """
    fap = state.fap()
    fap_idle = fap is not None and fap.mode is ApMode.IDLE
    preferred = _preferred_network(request, fap_idle)
    feasible = feasible_networks(request.zone, request.traffic_class)

    def try_place(kind: NetworkKind) -> AdmissionResult | None:
        if kind is NetworkKind.FAP:
            if fap is not None and fap.free_slots > 0:
                return AdmissionResult(AdmissionDecision.ACCEPT_ON_FAP, kind, fap.identity)
            return None
        ap = state.first_free(NetworkKind.LIFI, lifi_candidates)
        if ap is not None:
            return AdmissionResult(AdmissionDecision.ACCEPT_ON_LIFI, kind, ap.identity)
        return None

    placed = try_place(preferred)
    if placed is not None:
        return placed
    for alternative in feasible:
        if alternative is preferred:
            continue
        placed = try_place(alternative)
        if placed is not None:
            return AdmissionResult(AdmissionDecision.REDIRECTED, alternative, placed.ap_id)
    return AdmissionResult(AdmissionDecision.BLOCKED, None, None)


def handover_decision(
    serving_kind: NetworkKind,
    zone: Zone,
    s_serving_dB: float,
    s_target_dB: float,
    timers: DwellTimers,
    now_s: float,
) -> HandoverDecision:
    """Evaluate the handover rules for an in-call terminal in ``zone``.

    LiFi-served: Zone 1 or 3 hands straight to the femtocell; Zone 4 hands
    to the stronger target LiFi AP, or to the femtocell once the dwell
    exceeds ``T_h`` with no stronger target. Femtocell-served: Zone 2 hands
    to LiFi immediately, Zone 3 after dwelling ``T_h1``.
    """
    if not isinstance(serving_kind, NetworkKind) or not isinstance(zone, Zone):
        raise ValueError("unknown serving network or zone")
    if serving_kind is NetworkKind.LIFI:
        if zone in (Zone.Z1, Zone.Z3):
            return HandoverDecision.TO_FAP
        if zone is Zone.Z4:
            if s_target_dB > s_serving_dB:
                return HandoverDecision.TO_TARGET_LIFI
            if timers.zone4_entry_time_s is not None and now_s - timers.zone4_entry_time_s > timers.t_h_s:
                return HandoverDecision.TO_FAP
        return HandoverDecision.STAY
    # femtocell-served
    if zone is Zone.Z2:
        return HandoverDecision.TO_LIFI
    if zone is Zone.Z3:
        if timers.zone3_entry_time_s is not None and now_s - timers.zone3_entry_time_s > timers.t_h1_s:
            return HandoverDecision.TO_LIFI
    return HandoverDecision.STAY


@dataclass(frozen=True)
class ModeUpdate:
    mode: ApMode
    shift_to_lifi: tuple[int, ...]  # terminal ids to move before idling


def fap_mode_update(fap_state: ApState, connected_users_with_zones: list[tuple[int, Zone]]) -> ModeUpdate:
    """Idle-mode selection for one femtocell AP.

    No connected users puts the AP to idle; a single user sitting in
    Zone 3 is shifted to LiFi and the AP then idles; anything else keeps
    it active. Users outside Zone 3 are never shifted.
    """
    if fap_state.kind is not NetworkKind.FAP:
        raise ValueError("mode update applies to femtocell APs")
    if len(connected_users_with_zones) != fap_state.occupied_slots:
        raise ValueError("user list does not match occupancy")
    if not connected_users_with_zones:
        return ModeUpdate(ApMode.IDLE, ())
    if len(connected_users_with_zones) == 1 and connected_users_with_zones[0][1] is Zone.Z3:
        return ModeUpdate(ApMode.IDLE, (connected_users_with_zones[0][0],))
    return ModeUpdate(ApMode.ACTIVE, ())


def fap_idle_probability(p_users: int, zone_probs) -> float:
    """Closed-form probability that the femtocell can idle with ``p`` users.

    ``zone_probs`` are the normalized (Z1, Z2, Z3, Z4) occupancy
    probabilities; with ``q = p(Z1) + p(Z3)`` the value is
    ``sum_{k=0..1} C(p, k) q^k (1-q)^(p-k)``. This counts a lone Zone 1
    user as idle-compatible even though it cannot be shifted to LiFi, so
    it upper-bounds the behavioral idle-mode rule for layouts where the
    overlap zone outweighs the edge zone.
    """
    if p_users < 0:
        raise ValueError("user count must be >= 0")
    probs = tuple(float(v) for v in zone_probs)
    if len(probs) != 4 or any(v < 0 for v in probs):
        raise ValueError("zone_probs must be four non-negative values")
    if not math.isclose(sum(probs), 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError("zone_probs must sum to 1 (normalized Monte Carlo probabilities)")
    q = probs[0] + probs[2]
    total = 0.0
    for k in range(min(1, p_users) + 1):
        total += occupancy_probability(p_users, q, k)
    return total
