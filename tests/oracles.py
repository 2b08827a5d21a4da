"""Reference oracles the tests compare the simulator against.

``placement_idle_reference`` drives one placement through the policy
module user by user, and ``enumerate_idle_probability`` sums it over every
zone assignment; the vectorized fig16 rule and the closed-form bound are
checked against them. ``lifi_assignment_idle_one_hot`` is the all-users-at-once
(one-hot cumulative load) form of that rule, the reference for the
user-by-user form the simulator runs, which locates only the placements
still idle. ``classify_against_every_ap``
measures each point against every AP of a plan, the brute force the
lattice-window zone lookup must reproduce. ``admit_new_call_reference``
and ``handover_decision_reference`` state the admission rules for one new
call and the handover rules for one terminal, the references for the rule
tables of ``policy.admit_new_call`` and ``policy.handover_decision``;
``optical_channel_gain_reference`` is the optical gain as one expression, the reference for the in-place
``channel.optical_channel_gain``. ``car_follow_uptime_sampled`` samples
the car-following optical link one instant at a time, the reference for
the exact outage interval of ``transport.reliability_sweep``.
``trace_from_csv`` reads a written trace back, so a replay can be compared with its run.
``zone_counts_from_whole_chunks`` draws each chunk of the zone model's samples at once, the reference for
``monte_carlo_zone_model``, which draws them a slice at a time.
"""

import csv
import io
import math
from types import SimpleNamespace

import numpy as np

from hybridnet import channel, engine, policy
from hybridnet.channel import OpticalParams, concentrator_gain, lambertian_index
from hybridnet.engine import Metrics, PolicyConfig
from hybridnet.protocol import run_handover
from hybridnet.rng import draw_exponential, spawn_streams
from hybridnet.policy import FAP, LIFI, STAY, TO_FAP, TO_LIFI, TO_TARGET_LIFI, AdmissionDecision
from hybridnet.protocol import TRACE_CSV_HEADER, HandoverKind, HandoverTrace, MessageKind, ProtocolMessage
from hybridnet.zoning import _CLASSIFY_SLICE, _MC_CHUNK, GridPlan, Zone, classify_points, plan_grid


def placement_idle_reference(
    zones: list[int], lifi_slots: int = PolicyConfig.lifi_slots, fap_slots: int = PolicyConfig.fap_slots
) -> bool:
    """Idle outcome of one placement of users with the given zone codes, driven through the policy module.

    Users arrive in list order as data calls against a fresh, idle
    femtocell; the idle-mode rule then runs to a fixed point. Positions are
    abstracted to zones, so all Zone 2/3 users share one LiFi AP, index 0
    of the free-slot list; the femtocell is index 1. Exact for user counts
    at or below the LiFi slot count.
    """
    lifi, fap = 0, 1
    free, fap_idle = [lifi_slots, fap_slots], True
    fap_users: list[tuple[int, int]] = []
    for uid, zone in enumerate(zones):
        decision, ap = policy.admit_new_call(zone, False, fap_idle, free, [lifi])
        if decision is AdmissionDecision.BLOCKED:
            continue
        free[ap] -= 1
        if ap == fap:
            fap_idle = False
            fap_users.append((uid, zone))
    while True:
        shift_to_lifi = policy.fap_mode_update(fap_users)
        if not shift_to_lifi:
            return free[fap] == fap_slots
        shifted = False
        for uid in shift_to_lifi:
            if free[lifi] > 0:
                free[lifi] -= 1
                free[fap] += 1
                fap_users = [(u, z) for u, z in fap_users if u != uid]
                shifted = True
        if not shifted:
            return False


def enumerate_idle_probability(
    zone_probs, p_users: int, lifi_slots: int = PolicyConfig.lifi_slots, fap_slots: int = PolicyConfig.fap_slots
) -> float:
    """Exact idle probability by summing over all zone assignments (4^p)."""
    zones = [zone.value for zone in Zone]
    total = 0.0
    stack: list[tuple[list[int], float]] = [([], 1.0)]
    while stack:
        prefix, weight = stack.pop()
        if len(prefix) == p_users:
            if placement_idle_reference(prefix, lifi_slots, fap_slots):
                total += weight
            continue
        for zone in zones:
            w = weight * zone_probs[zone - 1]
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


def zone_counts_from_whole_chunks(plan: GridPlan, sample_count: int, seed: int) -> tuple[int, int, int, int]:
    """Zone sample counts (Z1..Z4) of the zone model's chunks, each drawn in one ``gen.random((size, 2))`` call,
    scaled to the room column by column and classified in slices."""
    counts = np.zeros(4, dtype=np.int64)
    n_chunks = (sample_count + _MC_CHUNK - 1) // _MC_CHUNK
    for k, gen in enumerate(spawn_streams(seed)["zones"].spawn(n_chunks)):
        pts = gen.random((min(_MC_CHUNK, sample_count - k * _MC_CHUNK), 2))
        pts[:, 0] *= plan.room_x_m
        pts[:, 1] *= plan.room_y_m
        for start in range(0, len(pts), _CLASSIFY_SLICE):
            counts += np.bincount(classify_points(plan, pts[start:start + _CLASSIFY_SLICE]), minlength=5)[1:5]
    return tuple(counts.tolist())


def lifi_assignment_idle_one_hot(codes: np.ndarray, nearest: np.ndarray, ap_count: int, lifi_slots: int) -> np.ndarray:
    """Idle outcome of every user-count prefix, all users at once: entry (i, k) holds for users 0..k of placement i.

    ``engine.lifi_assignment_idle`` counts these entries per user (its
    column sums). This form reads every user of every placement, also after
    the placement has stopped idling, and keeps a per-AP load, so it checks
    that the engine's user-by-user walk, which locates only the placements
    still idle and compares each user with the earlier users' APs, loses no
    entry. A running OR marks a prefix with a Zone 1 or Zone 4 user; the
    running load of every AP is the cumulative sum of an (n, p, K) one-hot
    array of Zone 2/3 users, read back at the AP each user adds to.
    """
    needs_fap = np.logical_or.accumulate((codes == 1) | (codes == 4), axis=1)
    on_ap = ((codes == 2) | (codes == 3))[..., None] & (nearest[..., None] == np.arange(ap_count))
    load_at_ap = np.take_along_axis(np.cumsum(on_ap, axis=1, dtype=np.int32), nearest[..., None], axis=2)[..., 0]
    return ~(needs_fap | np.logical_or.accumulate(load_at_ap > lifi_slots, axis=1))


def feasible_networks_reference(zone: int, voice: bool) -> tuple[int, ...]:
    """The network codes whose coverage (and policy) can carry a new call in the zone whose code is ``zone``."""
    if voice or Zone(zone) is Zone.Z1:
        return (FAP,)
    return (FAP, LIFI)


def admit_new_call_reference(zone: int, voice: bool, fap_idle: bool, free_slots, covering_lifi):
    """The admission rules for one new call, rule by rule (see ``policy.admit_new_call``): ``(decision, AP index)``."""
    zone = Zone(zone)
    if voice or zone in (Zone.Z1, Zone.Z4):
        preferred = FAP
    elif zone is Zone.Z3:
        preferred = LIFI if fap_idle else FAP
    else:  # Zone 2
        preferred = LIFI
    pools = {FAP: (len(free_slots) - 1,), LIFI: covering_lifi}
    ap = policy.first_free(free_slots, pools[preferred])
    if ap is not None:
        return (AdmissionDecision.ACCEPT_ON_FAP if preferred == FAP else AdmissionDecision.ACCEPT_ON_LIFI), ap
    for alternative in feasible_networks_reference(zone.value, voice):
        if alternative != preferred:
            ap = policy.first_free(free_slots, pools[alternative])
            if ap is not None:
                return AdmissionDecision.REDIRECTED, ap
    return AdmissionDecision.BLOCKED, None


def handover_decision_reference(
    serving_kind: int, zone: int, s_serving_dB: float, s_target_dB: float, dwell_s: float, thresholds
) -> int:
    """The handover rules for one in-call terminal, rule by rule (see ``policy.handover_decision``): its decision code."""
    zone = Zone(zone)
    if serving_kind == LIFI:
        if zone in (Zone.Z1, Zone.Z3):
            return TO_FAP
        if zone is Zone.Z4:
            if s_target_dB > s_serving_dB:
                return TO_TARGET_LIFI
            if dwell_s > thresholds.t_h_s:
                return TO_FAP
        return STAY
    # femtocell-served
    if zone is Zone.Z2:
        return TO_LIFI
    if zone is Zone.Z3 and dwell_s > thresholds.t_h1_s:
        return TO_LIFI
    return STAY


def optical_channel_gain_reference(horizontal_distance_m, params: OpticalParams):
    """``channel.optical_channel_gain`` as one expression, one temporary per operation."""
    h = params.ap_height_m
    l = np.asarray(horizontal_distance_m, dtype=float)
    m = lambertian_index(params)
    d2 = l * l + h * h
    cos_theta = h / np.sqrt(d2)
    cos_fov = math.cos(math.radians(params.fov_semi_angle_deg))
    gain = (m + 1.0) * params.pd_area_m2 / (2.0 * math.pi * d2)
    gain = gain * concentrator_gain(params) * params.filter_gain * cos_theta**m * cos_theta
    out = np.where(cos_theta >= cos_fov, gain, 0.0)
    return float(out) if np.isscalar(horizontal_distance_m) else out


def car_follow_uptime_sampled(gap_m: float, scenario, samples: int) -> float:
    """Optical up-time of one gap of ``transport.reliability_sweep``, sampled at the midpoints of ``samples`` cells.

    Each car's turn progress is clipped to [0, 1], and a sample is up while
    180 (lead - follow) is within the FOV semi-angle. Each end of the outage
    interval inside the window miscounts less than one sample, so the result
    is within 2 / samples of the exact up-time.
    """
    speed = scenario.speed_kmh / 3.6
    turn = math.pi * scenario.uturn_radius_m / speed
    dt = scenario.window_s / samples
    up = 0
    for k in range(samples):
        since_turn = (k + 0.5) * dt - scenario.uturn_start_s
        lead = min(max(since_turn / turn, 0.0), 1.0)
        follow = min(max((since_turn - gap_m / speed) / turn, 0.0), 1.0)
        up += 180.0 * (lead - follow) <= scenario.owc_fov_semi_angle_deg
    return up / samples


_OFF_CENTRE = 0.3819660112501051  # 1 - 1/golden ratio: where an arc or wall piece is sampled
# Circles, or a circle and a wall, that meet within this relative slack touch without crossing. Splitting
# an arc at a touching point found by rounding would leave a sliver whose side is decided by rounding, and
# an arc's term is not translation invariant, so a misjudged sliver far from the origin costs ~1e-6 m^2.
_TANGENT = 1e-9


def zone_areas_by_greens_theorem(plan: GridPlan) -> tuple[float, float, float, float]:
    """Zone areas (Z1..Z4) as ``1/2 \u222e (x dy - y dx)`` around each zone, arc by arc: the reference for
    ``zoning.exact_zone_areas``, which integrates along x instead.

    Every coverage and inner circle splits at its crossings with every other circle (no lattice is
    assumed) and with the four wall lines. An arc inside the room bounds a zone when the zone's rule
    differs on its two sides, counter-clockwise when the zone lies inside the circle. The top and right
    walls add their in-zone lengths; with the origin at the room's corner the bottom and left walls add
    nothing. Zone rules read (covering discs, inner discs) at a point, as ``classify_points`` does.
    """
    a, b = plan.room_x_m, plan.room_y_m
    r, ri = plan.coverage_radius_m, plan.inner_radius_m
    circles = [(cx, cy, radius, inner) for cx, cy in plan.ap_centers for radius, inner in ((r, False), (ri, True))
               if radius > 0]
    rules = (lambda cover, inner: cover == 0, lambda cover, inner: cover == 1 and inner > 0,
             lambda cover, inner: cover == 1 and inner == 0, lambda cover, inner: cover >= 2)

    def depths(x, y, skip=None):
        inside = [k != skip and (x - cx) ** 2 + (y - cy) ** 2 < radius**2
                  for k, (cx, cy, radius, _) in enumerate(circles)]
        return (sum(hit and not c[3] for hit, c in zip(inside, circles)),
                sum(hit and c[3] for hit, c in zip(inside, circles)))

    areas = [0.0] * 4
    for k, (cx, cy, radius, inner) in enumerate(circles):
        angles = [0.0, 2.0 * math.pi]
        for j, (ox, oy, other, _) in enumerate(circles):
            d = math.hypot(ox - cx, oy - cy)
            if j != k and abs(radius - other) * (1.0 + _TANGENT) < d < (radius + other) * (1.0 - _TANGENT):
                base = math.atan2(oy - cy, ox - cx)
                spread = math.acos(max(-1.0, min(1.0, (d * d + radius * radius - other * other) / (2.0 * d * radius))))
                angles += [(base + spread) % (2.0 * math.pi), (base - spread) % (2.0 * math.pi)]
        for offset, wall in ((-cx, 0.0), (a - cx, 0.0), (-cy, math.pi / 2.0), (b - cy, math.pi / 2.0)):
            if abs(offset) < radius * (1.0 - _TANGENT):  # the wall line x = const (or y = const) cuts the circle
                spread = math.acos(offset / radius)
                angles += [(wall + spread) % (2.0 * math.pi), (wall - spread) % (2.0 * math.pi)]
        angles.sort()
        for t0, t1 in zip(angles, angles[1:]):
            at = t0 + _OFF_CENTRE * (t1 - t0)  # not the middle, where a circle or a wall may touch the arc
            x, y = cx + radius * math.cos(at), cy + radius * math.sin(at)
            if not (0.0 <= x <= a and 0.0 <= y <= b):
                continue
            cover, inner_count = depths(x, y, skip=k)
            arc = 0.5 * (radius * radius * (t1 - t0) + cx * radius * (math.sin(t1) - math.sin(t0))
                         - cy * radius * (math.cos(t1) - math.cos(t0)))
            for zone, rule in enumerate(rules):
                within, outside = rule(cover + (not inner), inner_count + inner), rule(cover, inner_count)
                if within != outside:
                    areas[zone] += arc if within else -arc
    # Top wall (y = b, run from x = a to 0) and right wall (x = a, run from y = 0 to b).
    for top, length, weight in ((True, a, b), (False, b, a)):
        cuts = [0.0, length]
        for cx, cy, radius, _ in circles:
            along, across = (cx, b - cy) if top else (cy, a - cx)
            if abs(across) < radius * (1.0 - _TANGENT):
                half = math.sqrt(radius * radius - across * across)
                cuts += [min(max(along + side * half, 0.0), length) for side in (-1.0, 1.0)]
        cuts.sort()
        for t0, t1 in zip(cuts, cuts[1:]):
            t = t0 + _OFF_CENTRE * (t1 - t0)
            cover, inner_count = depths(*((t, b) if top else (a, t)))
            for zone, rule in enumerate(rules):
                areas[zone] += 0.5 * weight * (t1 - t0) * rule(cover, inner_count)
    return tuple(areas)


def indoor_run_reference(config, sample_order: str = "tick-major") -> Metrics:
    """``engine.simulate_indoor`` one tick and one terminal at a time, each link sampled on its own.

    The batched run must equal it bit for bit: the same per-terminal
    streams, each terminal's position on each tick from its leg's closed
    form (``sqrt(dx*dx + dy*dy)`` long, ``origin + (now - start) * velocity``
    before its arrival, the waypoint after), a zone and covering
    APs from the distances to every AP, the rule-by-rule admission and
    handover decisions and per-link channel calls. Each network's samples
    are kept in a list and summed once at the end with ``math.fsum``, in
    ``sample_order``: ``tick-major`` as sampled, ``terminal-major`` (stable
    by terminal) or ``reversed``; the mean latency is ``math.fsum`` of each
    kind's count times its latency. It keeps its own slot ledger, LiFi AP
    j at index j and the femtocell last, and asserts on every tick that
    each AP's occupied slots are the calls it serves, within its capacity.
    """
    cfg, plan, streams, n = config, plan_grid(config.room), spawn_streams(config.seed), config.user_count
    mobility, traffic, room, move = streams["mobility"].spawn(n), streams["traffic"].spawn(n), cfg.room, cfg.mobility
    fap, slots = plan.ap_count, [cfg.policy.lifi_slots] * plan.ap_count + [cfg.policy.fap_slots]
    free, fap_idle = list(slots), True
    latency = {k: run_handover(k, cfg.policy).latency_s for k in HandoverKind}
    m, samples = Metrics(), [[] for _network in (LIFI, FAP)]  # per network: (terminal, SINR dB, capacity bps)
    rate = cfg.traffic.arrival_rate_per_min / 60.0

    def interarrival(i):
        return draw_exponential(traffic[i], 1.0 / rate) if rate > 0 else math.inf

    def next_leg(i, u):
        """Terminal i leaves its waypoint as its pause ends; the pause it takes there is drawn with the leg."""
        gen, start, (ox, oy) = mobility[i], u["pause_end"], u["waypoint"]
        wx, wy = float(gen.uniform(0.0, room.room_x_m)), float(gen.uniform(0.0, room.room_y_m))
        speed = float(gen.uniform(move.speed_min_mps, move.speed_max_mps))
        pause = float(gen.uniform(move.pause_min_s, move.pause_max_s))
        dx, dy = wx - ox, wy - oy
        length = math.sqrt(dx * dx + dy * dy)
        if length == 0.0:
            reach, velocity = start, (0.0, 0.0)
        elif speed == 0.0:
            reach, velocity = math.inf, (0.0, 0.0)
        else:
            reach, velocity = start + length / speed, (dx / length * speed, dy / length * speed)
        u.update(origin=(ox, oy), start=start, velocity=velocity, reach=reach, waypoint=(wx, wy), pause_end=reach + pause)

    xy = streams["placement"].uniform(0.0, (room.room_x_m, room.room_y_m), size=(n, 2)).tolist()
    t = [dict(waypoint=(x, y), pause_end=0.0, zone=None, entry=0.0, serving=None, voice=False,
              end=0.0, arrival=interarrival(i), last=-math.inf) for i, (x, y) in enumerate(xy)]

    def hand_over(u, now, kind, target):
        m.handovers[kind.value] += 1
        free[u["serving"]] += 1
        free[target] -= 1
        u["serving"], u["last"] = target, now

    def to_covering_lifi(u, now):
        ap = policy.first_free(free, u["covering"])
        if ap is not None:
            hand_over(u, now, HandoverKind.FEMTO_TO_LIFI, ap)
        return ap is not None

    ticks, idle_ticks = int(round(cfg.duration_s / move.tick_s)), 0
    for step in range(ticks):
        now = step * move.tick_s
        for i, u in enumerate(t):
            while u["pause_end"] <= now:
                next_leg(i, u)
            if now < u["reach"]:  # on its way; it stands on its waypoint from reach to pause_end
                (ox, oy), (vx, vy) = u["origin"], u["velocity"]
                u["x"], u["y"] = ox + (now - u["start"]) * vx, oy + (now - u["start"]) * vy
            else:
                u["x"], u["y"] = u["waypoint"]
            d2 = sq_distances_to_every_ap(plan, [(u["x"], u["y"])])[0]
            dist = np.sqrt(d2)
            u["gain"] = channel.optical_channel_gain(dist, cfg.optical).tolist()
            covering = (j for j in range(plan.ap_count) if d2[j] <= plan.coverage_radius_m**2)
            u["covering"] = sorted(covering, key=lambda j: dist[j])  # nearest first; a tie keeps the lower column
            zone = int(classify_against_every_ap(plan, [(u["x"], u["y"])])[0][0])
            if zone != u["zone"]:
                u["zone"], u["entry"] = zone, now
        for i, u in enumerate(t):
            if u["serving"] is not None and u["end"] <= now:
                free[u["serving"]] += 1
                u["serving"], u["arrival"] = None, now + interarrival(i)
                m.calls_released += 1
        for i, u in enumerate(t):
            if u["serving"] is None and u["arrival"] <= now:
                u["voice"] = float(traffic[i].random()) < cfg.traffic.voice_fraction
                decision, ap = admit_new_call_reference(u["zone"], u["voice"], fap_idle, free, u["covering"])
                m.admissions[decision.value] += 1
                if ap is None:
                    u["arrival"] = now + interarrival(i)
                else:
                    free[ap] -= 1
                    fap_idle = fap_idle and ap != fap
                    u["serving"], u["end"] = ap, now + draw_exponential(traffic[i], cfg.traffic.mean_holding_s)
        in_call = [u for u in t if u["serving"] is not None]
        for u in in_call:
            serving = u["serving"]
            if now - u["last"] < cfg.policy.t_h_s or (serving == fap and u["voice"]):
                continue
            rx = [10.0 * math.log10(cfg.optical.tx_optical_power_W * g) if g > 0 else -math.inf for g in u["gain"]]
            s_serving, s_target, target = -math.inf, -math.inf, None
            if serving != fap and u["zone"] == Zone.Z4.value:
                s_serving = rx[serving] if serving in u["covering"] else -math.inf
                target = next((j for j in u["covering"] if j != serving), None)
                s_target = rx[target] if target is not None else -math.inf
            dwell = now - u["entry"]
            network = FAP if serving == fap else LIFI
            decision = handover_decision_reference(network, u["zone"], s_serving, s_target, dwell, cfg.policy)
            if decision == STAY:
                continue
            if decision == TO_LIFI:
                moved = to_covering_lifi(u, now)
            else:
                kind, ap = ((HandoverKind.LIFI_TO_FEMTO, fap) if decision == TO_FAP
                            else (HandoverKind.LIFI_TO_LIFI, target))
                moved = ap is not None and free[ap] > 0
                if moved:
                    hand_over(u, now, kind, ap)
                    fap_idle = fap_idle and ap != fap
            m.handovers_rejected += not moved
        served = [(k, u["zone"]) for k, u in enumerate(t) if u["serving"] == fap]
        for k in policy.fap_mode_update(served):
            to_covering_lifi(t[k], now)
        fap_idle = fap_idle or free[fap] == slots[fap]
        calls = [sum(u["serving"] == j for u in t) for j in range(len(free))]
        assert [s - f for s, f in zip(slots, free)] == calls and min(free) >= 0, "slot leak"
        idle_ticks += fap_idle
        for i, u in enumerate(t):
            serving = u["serving"]
            if serving is None:
                continue
            if serving == fap:
                fx, fy = plan.fap_center
                dist = max(math.sqrt((u["x"] - fx) * (u["x"] - fx) + (u["y"] - fy) * (u["y"] - fy)), 0.1)
                rx_dbm = cfg.rf.fap_tx_dBm - channel.femto_path_loss(dist, cfg.rf, wall_count=0)
                sinr = channel.rf_sinr(rx_dbm, cfg.rf.noise_dBm(cfg.rf.femto_bandwidth_Hz))
                capacity = channel.shannon_capacity(sinr, cfg.rf.femto_bandwidth_Hz)
            else:
                interferers = [0.0 if j == serving else g for j, g in enumerate(u["gain"])]
                sinr = channel.optical_sinr(u["gain"][serving], interferers, cfg.optical)
                capacity = channel.shannon_capacity(sinr, cfg.optical.bandwidth_Hz)
            samples[FAP if serving == fap else LIFI].append((i, channel.linear_to_db(sinr), capacity))
    m.fap_idle_fraction, m.active_at_end = idle_ticks / ticks, len(in_call)
    m.handover_latency_total_s = math.fsum(m.handovers[k.value] * latency[k] for k in HandoverKind)
    order = {"tick-major": list, "terminal-major": lambda s: sorted(s, key=lambda v: v[0]), "reversed": reversed}
    ordered = [list(order[sample_order](network_samples)) for network_samples in samples]
    m.networks = tuple((len(s), math.fsum(v[1] for v in s), math.fsum(v[2] for v in s)) for s in ordered)
    state = SimpleNamespace(metrics=m, _capacity=slots, _free=free, cfg=cfg)
    engine._IndoorSim._rank_networks(state)  # the ranking of the run's totals, as the engine makes it
    return m


def trace_from_csv(text: str, kind: HandoverKind) -> HandoverTrace:
    """Rebuild a complete trace from its CSV form."""
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
    return HandoverTrace(kind=kind, messages=tuple(messages), failed_step=None, latency_s=latency)
