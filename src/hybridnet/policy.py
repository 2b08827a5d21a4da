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

The slot ledger is one list of free slots indexed by AP: LiFi AP j, the
AP's column in the grid plan and in the gain matrix, at index j, and the
femtocell last. A terminal in a call records the index of the AP serving
it. A terminal keeps one zone-entry clock, reset whenever it changes zone,
so the dwell a handover decision reads is the time spent in the current
zone. Handover decisions take a batch of terminals as arrays.
"""

from __future__ import annotations

import enum
import math
import numpy as np

from .zoning import Zone, occupancy_probability


class TrafficClass(enum.Enum):
    RT_VOICE = "rt_voice"
    DATA = "data"


class NetworkKind(enum.Enum):
    """The serving network; its value is its code in :func:`handover_decision`'s ``serving_kinds``."""

    LIFI = 0
    FAP = 1


class AdmissionDecision(enum.Enum):
    ACCEPT_ON_FAP = "accept_on_fap"
    ACCEPT_ON_LIFI = "accept_on_lifi"
    REDIRECTED = "redirected"
    BLOCKED = "blocked"


class HandoverDecision(enum.Enum):
    """A handover decision; its value is its code in :func:`handover_decision`'s result."""

    STAY = 0
    TO_FAP = 1
    TO_TARGET_LIFI = 2
    TO_LIFI = 3


def first_free(free_slots, aps) -> int | None:
    """The first AP index of ``aps`` (in preference order) with a free slot in ``free_slots``, if any."""
    return next((ap for ap in aps if free_slots[ap] > 0), None)


def _preferred_network(zone: Zone, traffic_class: TrafficClass, fap_idle: bool) -> NetworkKind:
    if traffic_class is TrafficClass.RT_VOICE:
        return NetworkKind.FAP
    if zone in (Zone.Z1, Zone.Z4):
        return NetworkKind.FAP
    if zone is Zone.Z3:
        return NetworkKind.LIFI if fap_idle else NetworkKind.FAP
    return NetworkKind.LIFI  # Z2


def feasible_networks(zone: Zone, traffic_class: TrafficClass) -> tuple[NetworkKind, ...]:
    """Networks whose coverage (and policy) can carry a call in this zone."""
    if traffic_class is TrafficClass.RT_VOICE or zone is Zone.Z1:
        return (NetworkKind.FAP,)
    return (NetworkKind.FAP, NetworkKind.LIFI)


def admit_new_call(
    zone: Zone, traffic_class: TrafficClass, fap_idle: bool, free_slots, covering_lifi
) -> tuple[AdmissionDecision, int | None]:
    """Route a newly originating call of ``traffic_class`` in ``zone``: ``(decision, AP index)``.

    ``free_slots`` holds each AP's free slots, the femtocell's last;
    ``covering_lifi`` holds the indices of the LiFi APs covering the
    terminal, in preference order, and the call takes the first with a
    free slot. Overflow redirects a data call to the other feasible
    network; a full system blocks the call, and the index is None.
    """
    preferred = _preferred_network(zone, traffic_class, fap_idle)
    pools = {NetworkKind.FAP: (len(free_slots) - 1,), NetworkKind.LIFI: covering_lifi}
    ap = first_free(free_slots, pools[preferred])
    if ap is not None:
        accepted = AdmissionDecision.ACCEPT_ON_FAP if preferred is NetworkKind.FAP else AdmissionDecision.ACCEPT_ON_LIFI
        return accepted, ap
    for alternative in feasible_networks(zone, traffic_class):
        if alternative is not preferred:
            ap = first_free(free_slots, pools[alternative])
            if ap is not None:
                return AdmissionDecision.REDIRECTED, ap
    return AdmissionDecision.BLOCKED, None


_S, _F, _T, _L = (d.value for d in HandoverDecision)  # STAY, TO_FAP, TO_TARGET_LIFI, TO_LIFI
# The handover rules as a table: [serving kind][zone - 1][stronger target?][dwell past the zone's threshold?].
_HANDOVER_RULES = np.array([
    [[[_F, _F], [_F, _F]], [[_S, _S], [_S, _S]], [[_F, _F], [_F, _F]], [[_S, _F], [_T, _T]]],  # LiFi-served, Z1..Z4
    [[[_S, _S], [_S, _S]], [[_L, _L], [_L, _L]], [[_S, _L], [_S, _L]], [[_S, _S], [_S, _S]]],  # femtocell-served
], dtype=np.int8)


def handover_decision(serving_kinds, zone_codes, s_serving_dB, s_target_dB, dwell_s, thresholds) -> np.ndarray:
    """Evaluate the handover rules for a batch of in-call terminals, one row each: their ``HandoverDecision`` values.

    Row i is a terminal served by network ``serving_kinds[i]`` (a
    ``NetworkKind`` value) in the zone whose ``Zone`` value is
    ``zone_codes[i]``; ``dwell_s[i]`` is the time since it entered that
    zone. ``thresholds`` carries ``t_h_s`` and ``t_h1_s`` (the engine's
    ``PolicyConfig``). LiFi-served: Zone 1 or 3 hands straight to the
    femtocell; Zone 4 hands to the stronger target LiFi AP, or to the
    femtocell once the dwell exceeds ``T_h`` with no stronger target.
    Femtocell-served: Zone 2 hands to LiFi immediately, Zone 3 after
    dwelling ``T_h1``. Every other row stays.
    """
    kind = np.asarray(serving_kinds)
    stronger = np.greater(s_target_dB, s_serving_dB)
    outstayed = np.greater(dwell_s, np.where(kind == NetworkKind.LIFI.value, thresholds.t_h_s, thresholds.t_h1_s))
    try:
        cells = np.ravel_multi_index((kind, np.asarray(zone_codes) - 1, stronger, outstayed), _HANDOVER_RULES.shape)
    except (TypeError, ValueError):
        raise ValueError("unknown serving network or zone") from None
    return _HANDOVER_RULES.ravel()[cells]


def fap_mode_update(fap_occupied: int, connected_users_with_zones: list[tuple[int, Zone]]) -> tuple[int, ...]:
    """Terminals to shift to LiFi so that the femtocell, holding ``fap_occupied`` slots, can idle.

    A single user sitting in Zone 3 is shifted; with no connected user, or
    any other set of users, nobody is. Users outside Zone 3 are never
    shifted. The femtocell idles once it holds no slot.
    """
    if len(connected_users_with_zones) != fap_occupied:
        raise ValueError("user list does not match occupancy")
    if len(connected_users_with_zones) == 1 and connected_users_with_zones[0][1] is Zone.Z3:
        return (connected_users_with_zones[0][0],)
    return ()


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
