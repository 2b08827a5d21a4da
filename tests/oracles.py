"""Reference oracles the tests compare the simulator against.

``placement_idle_reference`` drives one placement through the policy
module user by user, and ``enumerate_idle_probability`` sums it over every
zone assignment; the vectorized fig16 rule and the closed-form bound are
checked against them. ``lifi_assignment_idle_one_hot`` is the all-users-at-once
(one-hot cumulative load) form of that rule, the reference for the
column-by-column form the simulator runs. ``classify_against_every_ap``
measures each point against every AP of a plan, the brute force the
lattice-window zone lookup must reproduce. ``trace_from_csv`` reads a
written trace back for replay validation.
"""

import csv
import io

import numpy as np

from hybridnet import policy
from hybridnet.engine import PolicyConfig
from hybridnet.policy import ApMode, ApState, AdmissionDecision, NetworkKind, TrafficClass
from hybridnet.protocol import TRACE_CSV_HEADER, HandoverKind, HandoverTrace, MessageKind, ProtocolMessage
from hybridnet.zoning import GridPlan, Zone


def placement_idle_reference(
    zones: list[Zone], lifi_slots: int = PolicyConfig.lifi_slots, fap_slots: int = PolicyConfig.fap_slots
) -> bool:
    """Idle outcome of one placement, driven through the policy module.

    Users arrive in list order as data calls against a fresh, idle
    femtocell; the idle-mode rule then runs to a fixed point. Positions are
    abstracted to zones, so all Zone 2/3 users share one LiFi AP; exact for
    user counts at or below the LiFi slot count.
    """
    fap = ApState(NetworkKind.FAP, None, fap_slots, ApMode.IDLE)
    lifi = ApState(NetworkKind.LIFI, 0, lifi_slots)
    fap_users: list[tuple[int, Zone]] = []
    for uid, zone in enumerate(zones):
        decision, ap = policy.admit_new_call(zone, TrafficClass.DATA, fap, [lifi])
        if decision is AdmissionDecision.BLOCKED:
            continue
        ap.occupy()
        if ap is fap:
            fap_users.append((uid, zone))
    while True:
        shift_to_lifi = policy.fap_mode_update(fap, fap_users)
        if not shift_to_lifi:
            if fap.occupied_slots == 0:
                fap.mode = ApMode.IDLE
            return fap.mode is ApMode.IDLE
        shifted = False
        for uid in shift_to_lifi:
            if lifi.free_slots > 0:
                lifi.occupy()
                fap.release()
                fap_users = [(u, z) for u, z in fap_users if u != uid]
                shifted = True
        if not shifted:
            return False


def enumerate_idle_probability(
    zone_probs, p_users: int, lifi_slots: int = PolicyConfig.lifi_slots, fap_slots: int = PolicyConfig.fap_slots
) -> float:
    """Exact idle probability by summing over all zone assignments (4^p)."""
    zones = list(Zone)
    total = 0.0
    stack: list[tuple[list[Zone], float]] = [([], 1.0)]
    while stack:
        prefix, weight = stack.pop()
        if len(prefix) == p_users:
            if placement_idle_reference(prefix, lifi_slots, fap_slots):
                total += weight
            continue
        for zone in zones:
            w = weight * zone_probs[zone.value - 1]
            if w > 0.0:
                stack.append((prefix + [zone], w))
    return total


def sq_distances_to_every_ap(plan: GridPlan, points) -> np.ndarray:
    """(N, K) squared horizontal distances from (N, 2) points to all K APs, as ``dx*dx + dy*dy``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    centers = np.asarray(plan.ap_centers, dtype=float)
    dx = pts[:, 0, None] - centers[:, 0]
    dy = pts[:, 1, None] - centers[:, 1]
    return dx * dx + dy * dy


def classify_against_every_ap(plan: GridPlan, points) -> tuple[np.ndarray, np.ndarray]:
    """Zone code and nearest AP (``argmin``: lowest index on a tie) of each point, one point at a time."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r2, inner2 = plan.coverage_radius_m**2, plan.inner_radius_m**2
    codes, nearest = [], []
    for start in range(0, len(pts), 32):  # 32 rows of distances at a time bound the memory
        for d2 in sq_distances_to_every_ap(plan, pts[start:start + 32]):
            covering = int(np.count_nonzero(d2 <= r2))
            codes.append(4 if covering >= 2 else 1 if covering == 0 else 2 if d2.min() <= inner2 else 3)
            nearest.append(int(d2.argmin()))
    return np.array(codes, dtype=np.int8), np.array(nearest, dtype=np.intp)


def lifi_assignment_idle_one_hot(codes: np.ndarray, nearest: np.ndarray, ap_count: int, lifi_slots: int) -> np.ndarray:
    """Idle outcome of every user-count prefix, as ``engine.lifi_assignment_idle`` computes it, all users at once.

    A running OR marks a prefix with a Zone 1 or Zone 4 user; the running
    load of every AP is the cumulative sum of an (n, p, K) one-hot array of
    Zone 2/3 users, read back at the AP each user adds to.
    """
    needs_fap = np.logical_or.accumulate((codes == 1) | (codes == 4), axis=1)
    on_ap = ((codes == 2) | (codes == 3))[..., None] & (nearest[..., None] == np.arange(ap_count))
    load_at_ap = np.take_along_axis(np.cumsum(on_ap, axis=1, dtype=np.int32), nearest[..., None], axis=2)[..., 0]
    return ~(needs_fap | np.logical_or.accumulate(load_at_ap > lifi_slots, axis=1))


def trace_from_csv(text: str, kind: HandoverKind, outcome: str = "complete", failed_step: int | None = None) -> HandoverTrace:
    """Rebuild a trace from its CSV form for replay validation."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace header: {header}")
    messages = []
    for row in reader:
        if not row:
            continue
        messages.append(
            ProtocolMessage(
                step_number=int(row[0]),
                kind=MessageKind(row[1]),
                sender=row[2],
                receiver=row[3],
                send_time_s=float(row[4]),
                deliver_time_s=float(row[5]),
            )
        )
    latency = messages[-1].deliver_time_s - messages[0].send_time_s if messages else 0.0
    return HandoverTrace(kind=kind, messages=tuple(messages), outcome=outcome, failed_step=failed_step, latency_s=latency)
