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

Both rule sets are tables on the codes the simulator holds: a zone is its
``Zone`` value (1..4, as ``classify_points`` returns it), a network is
``LIFI`` or ``FAP``, a call is voice or not, and a handover decision is
``STAY``, ``TO_FAP``, ``TO_TARGET_LIFI`` or ``TO_LIFI``.

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


LIFI, FAP = 0, 1  # network codes
STAY, TO_FAP, TO_TARGET_LIFI, TO_LIFI = range(4)  # handover decision codes


class AdmissionDecision(enum.Enum):
    ACCEPT_ON_FAP = "accept_on_fap"
    ACCEPT_ON_LIFI = "accept_on_lifi"
    REDIRECTED = "redirected"
    BLOCKED = "blocked"


def first_free(free_slots, aps) -> int | None:
    """The first AP index of ``aps`` (in preference order) with a free slot in ``free_slots``, if any."""
    return next((ap for ap in aps if free_slots[ap] > 0), None)


# The admission rules as a table: [voice][zone - 1][femtocell idle?] -> (preferred network, overflow network or None).
_ADMISSION_RULES = (
    (((FAP, None),) * 2, ((LIFI, FAP),) * 2, ((FAP, LIFI), (LIFI, FAP)), ((FAP, LIFI),) * 2),  # data, Z1..Z4
    (((FAP, None),) * 2,) * 4,  # voice: the femtocell only, in every zone
)


def admit_new_call(
    zone: int, voice: bool, fap_idle: bool, free_slots, covering_lifi
) -> tuple[AdmissionDecision, int | None]:
    """Route a newly originating call in the zone whose code is ``zone``: ``(decision, AP index)``.

    ``free_slots`` holds each AP's free slots, the femtocell's last;
    ``covering_lifi`` holds the indices of the LiFi APs covering the
    terminal, in preference order, and the call takes the first with a
    free slot. Overflow redirects a data call to the other covering
    network; a full system blocks the call, and the index is None.
    """
    if zone not in (1, 2, 3, 4):
        raise ValueError("unknown serving network or zone")
    preferred, overflow = _ADMISSION_RULES[voice][zone - 1][fap_idle]
    pools = (covering_lifi, (len(free_slots) - 1,))  # indexed by network code
    ap = first_free(free_slots, pools[preferred])
    if ap is not None:
        return (AdmissionDecision.ACCEPT_ON_LIFI, AdmissionDecision.ACCEPT_ON_FAP)[preferred], ap
    ap = None if overflow is None else first_free(free_slots, pools[overflow])
    return (AdmissionDecision.BLOCKED, None) if ap is None else (AdmissionDecision.REDIRECTED, ap)


_S, _F, _T, _L = STAY, TO_FAP, TO_TARGET_LIFI, TO_LIFI
# The handover rules as a table: [serving network][zone - 1][stronger target?][dwell past the zone's threshold?].
_HANDOVER_RULES = np.array([
    [[[_F, _F], [_F, _F]], [[_S, _S], [_S, _S]], [[_F, _F], [_F, _F]], [[_S, _F], [_T, _T]]],  # LiFi-served, Z1..Z4
    [[[_S, _S], [_S, _S]], [[_L, _L], [_L, _L]], [[_S, _L], [_S, _L]], [[_S, _S], [_S, _S]]],  # femtocell-served
], dtype=np.int8)


def handover_decision(serving_kinds, zone_codes, s_serving_dB, s_target_dB, dwell_s, thresholds) -> np.ndarray:
    """Evaluate the handover rules for a batch of in-call terminals, one row each: their decision codes.

    Row i is a terminal served by network ``serving_kinds[i]`` (``LIFI``
    or ``FAP``) in the zone whose code is ``zone_codes[i]``; ``dwell_s[i]``
    is the time since it entered that zone. ``thresholds`` carries ``t_h_s`` and ``t_h1_s`` (the engine's
    ``PolicyConfig``). LiFi-served: Zone 1 or 3 hands straight to the
    femtocell; Zone 4 hands to the stronger target LiFi AP, or to the
    femtocell once the dwell exceeds ``T_h`` with no stronger target.
    Femtocell-served: Zone 2 hands to LiFi immediately, Zone 3 after
    dwelling ``T_h1``. Every other row stays.
    """
    kind = np.asarray(serving_kinds)
    stronger = np.greater(s_target_dB, s_serving_dB)
    outstayed = np.greater(dwell_s, np.where(kind == LIFI, thresholds.t_h_s, thresholds.t_h1_s))
    try:
        cells = np.ravel_multi_index((kind, np.asarray(zone_codes) - 1, stronger, outstayed), _HANDOVER_RULES.shape)
    except (TypeError, ValueError):
        raise ValueError("unknown serving network or zone") from None
    return _HANDOVER_RULES.ravel()[cells]


def fap_mode_update(fap_occupied: int, served: list[tuple[int, int]]) -> tuple[int, ...]:
    """Terminals to shift to LiFi so that the femtocell, holding ``fap_occupied`` slots, can idle.

    ``served`` pairs each terminal the femtocell serves with its zone code.
    A single user sitting in Zone 3 is shifted; with no connected user, or
    any other set of users, nobody is. Users outside Zone 3 are never
    shifted. The femtocell idles once it holds no slot.
    """
    if len(served) != fap_occupied:
        raise ValueError("user list does not match occupancy")
    if len(served) == 1 and served[0][1] == Zone.Z3.value:
        return (served[0][0],)
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
        raise ValueError("zone_probs must sum to 1 (normalized zone probabilities)")
    q = probs[0] + probs[2]
    total = 0.0
    for k in range(min(1, p_users) + 1):
        total += occupancy_probability(p_users, q, k)
    return total
