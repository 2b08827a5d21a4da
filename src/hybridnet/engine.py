"""Deterministic indoor simulation and the three indoor experiments.

``simulate_indoor`` runs a tick-driven loop (default 100 ms) over a room:
random-waypoint mobility, Poisson call arrivals with exponential holding
times, zone tracking and the admission/handover/idle-mode policies. Each
handover kind's call flow is replayed once per run, and every executed
handover adds its kind's latency to the mean. Runs are bit-identical for
a fixed (config, seed) pair; every random draw comes from a labeled
substream.

The experiment entry points reproduce the published comparisons:

  * idle-mode probability vs number of active users (placement model
    against the closed-form bound),
  * femtocell SINR with and without the hybrid idle-mode thinning, for
    frequency-reuse factors 1 and 4,
  * LiFi-to-LiFi handover success vs AP spacing, against the closed-form
    crossing-success curve, with the hybrid fallback pinned at 1.

The SINR experiment reuses one set of interferer positions and uniform
draws across all four schemes, so the published orderings (hybrid above
pure, reuse 4 above reuse 1) hold drop by drop, not just on average.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import channel, policy, selection
from .channel import POSITIVE, OpticalParams, RfParams, at_least, check_fields
from .policy import AdmissionDecision, ApMode, ApState, HandoverDecision, NetworkKind, TrafficClass
from .protocol import HandoverKind, run_handover
from .rng import spawn_streams
from .zoning import _CLASSIFY_SLICE, MIN_MC_SAMPLES, GridPlan, Zone, classify_points, monte_carlo_zone_model, plan_grid

_ZONE_OF_CODE = (None, *Zone)  # indexed by classify_points code: no enum call per terminal


_POSITIVE_FINITE = ("positive and finite", lambda v: 0.0 < v < math.inf)


@dataclass(frozen=True)
class RoomConfig:
    room_x_m: float = 24.0
    room_y_m: float = 24.0
    coverage_radius_m: float = 5.0

    def __post_init__(self):
        check_fields(self, *_POSITIVE_FINITE, "room_x_m", "room_y_m", "coverage_radius_m")

    def plan(self) -> GridPlan:
        return plan_grid(self.room_x_m, self.room_y_m, self.coverage_radius_m)


@dataclass(frozen=True)
class MobilityConfig:
    speed_min_mps: float = 0.5
    speed_max_mps: float = 1.5
    pause_min_s: float = 0.0
    pause_max_s: float = 5.0
    tick_s: float = 0.1

    def __post_init__(self):
        check_fields(self, *POSITIVE, "tick_s")
        check_fields(self, *at_least(0), "speed_min_mps", "pause_min_s")
        check_fields(self, *at_least(self.speed_min_mps), "speed_max_mps")
        check_fields(self, *at_least(self.pause_min_s), "pause_max_s")


@dataclass(frozen=True)
class TrafficConfig:
    arrival_rate_per_min: float = 0.5
    mean_holding_s: float = 120.0
    voice_fraction: float = 0.3

    def __post_init__(self):
        check_fields(self, *at_least(0), "arrival_rate_per_min")
        check_fields(self, *POSITIVE, "mean_holding_s")
        check_fields(self, "in [0, 1]", lambda v: 0.0 <= v <= 1.0, "voice_fraction")


@dataclass(frozen=True)
class PolicyConfig:
    t_h_s: float = 2.0
    t_h1_s: float = 2.0
    fap_slots: int = 8
    lifi_slots: int = 10
    per_hop_latency_s: float = 0.005

    def __post_init__(self):
        check_fields(self, *at_least(1), "fap_slots", "lifi_slots")
        check_fields(self, *POSITIVE, "t_h_s", "t_h1_s")
        check_fields(self, *at_least(0), "per_hop_latency_s")


DEFAULT_AHP_MATRIX = (
    (1.0, 2.0, 2.0, 4.0),
    (0.5, 1.0, 1.0, 2.0),
    (0.5, 1.0, 1.0, 2.0),
    (0.25, 0.5, 0.5, 1.0),
)


@dataclass(frozen=True)
class ScenarioConfig:
    room: RoomConfig = RoomConfig()
    user_count: int = 10
    duration_s: float = 120.0
    seed: int = 0
    mobility: MobilityConfig = MobilityConfig()
    traffic: TrafficConfig = TrafficConfig()
    policy: PolicyConfig = PolicyConfig()
    optical: OpticalParams = OpticalParams()
    rf: RfParams = RfParams()
    ahp_pairwise: tuple[tuple[float, ...], ...] = DEFAULT_AHP_MATRIX

    def __post_init__(self):
        check_fields(self, *at_least(0), "user_count")
        check_fields(self, f"at least one tick_s ({self.mobility.tick_s!r}) once rounded to whole ticks",
                     lambda v: round(v / self.mobility.tick_s) >= 1, "duration_s")


ADMISSION_KEYS = tuple(d.value for d in AdmissionDecision)
HANDOVER_KEYS = tuple(k.value for k in HandoverKind)

# The criteria each network is scored on, in the row order of the AHP
# pairwise matrix, with their normalization modes.
AHP_CRITERIA = (("capacity", "benefit"), ("sinr", "benefit"), ("mobility", "benefit"), ("load", "cost"))
# Fixed mobility scores; the load floor keeps an empty network's cost inversion finite.
AHP_MOBILITY = {NetworkKind.LIFI: 0.3, NetworkKind.FAP: 0.7}
AHP_LOAD_FLOOR = 1e-6


def _added(total: float, samples) -> float:
    """``total`` plus each sample in turn, left to right, as a ``+=`` loop adds them (README, Determinism)."""
    return functools.reduce(operator.add, samples, total)


def _block_ticks(terminal_count: int, ap_count: int) -> int:
    """Ticks per block: the most whose (tick, terminal, AP) entries fit one classify slice, and at least 1."""
    return max(1, _CLASSIFY_SLICE // max(terminal_count * ap_count, 1))


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


@dataclass
class Metrics:
    """Run counts, and the sums behind the run means; every executed handover adds one latency."""

    admissions: dict[str, int] = field(default_factory=lambda: {k: 0 for k in ADMISSION_KEYS})
    handovers: dict[str, int] = field(default_factory=lambda: {k: 0 for k in HANDOVER_KEYS})
    handovers_rejected: int = 0
    handover_latency_total_s: float = 0.0
    fap_idle_fraction: float = 0.0
    link_samples: int = 0  # one SINR and one capacity per in-call terminal per tick
    sinr_total_db: float = 0.0
    capacity_total_bps: float = 0.0
    calls_released: int = 0
    active_at_end: int = 0
    ahp_rank: tuple[float, float, str] | None = None

    def csv_rows(self) -> list[tuple[str, str]]:
        """Flat (metric, value) rows with a fixed ordering."""
        rows = [(f"admissions.{key}", repr(self.admissions[key])) for key in ADMISSION_KEYS]
        rows += [(f"handovers.{key}", repr(self.handovers[key])) for key in HANDOVER_KEYS]
        rows.append(("handovers.rejected", repr(self.handovers_rejected)))
        rows.append(("handover_latency_mean_s", repr(_mean(self.handover_latency_total_s, sum(self.handovers.values())))))
        rows.append(("fap_idle_fraction", repr(self.fap_idle_fraction)))
        rows.append(("sinr_mean_db", repr(_mean(self.sinr_total_db, self.link_samples))))
        rows.append(("capacity_mean_bps", repr(_mean(self.capacity_total_bps, self.link_samples))))
        rows.append(("calls_released", repr(self.calls_released)))
        rows.append(("active_at_end", repr(self.active_at_end)))
        if self.ahp_rank is not None:
            r_lifi, r_femto, chosen = self.ahp_rank
            rows += [("ahp.r_lifi", repr(r_lifi)), ("ahp.r_femto", repr(r_femto)), ("ahp.chosen", chosen)]
        return rows


@dataclass
class _Terminal:
    """One user; ``serving`` is None between calls, when ``traffic_class`` and ``call_end_s`` go unread.
    ``x`` and ``y`` (the mobility state) run up to a block of ticks ahead of the calls, which read the block's rows."""

    index: int
    x: float
    y: float
    waypoint: tuple[float, float] | None = None
    speed: float = 0.0
    pause_until: float = 0.0
    zone: Zone = Zone.Z1
    zone_entry_s: float = 0.0
    serving: ApState | None = None
    traffic_class: TrafficClass = TrafficClass.DATA
    call_end_s: float = 0.0
    next_arrival_s: float = 0.0
    last_handover_s: float = float("-inf")


class _IndoorSim:
    """Single-run state; use :func:`simulate_indoor`."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.plan = config.room.plan()
        self.streams = spawn_streams(config.seed)
        self.fap = ApState(NetworkKind.FAP, None, config.policy.fap_slots, ApMode.IDLE)
        self.lifi = [ApState(NetworkKind.LIFI, j, config.policy.lifi_slots) for j in range(self.plan.ap_count)]
        self.metrics = Metrics()
        self._kind_sums = {kind: (0, 0.0, 0.0) for kind in NetworkKind}  # (samples, SINR dB, capacity bps) sums
        # A fault-free flow's latency depends on its kind and the per-hop delay alone.
        self._handover_latency_s = {k: run_handover(k, config.policy.per_hop_latency_s).latency_s for k in HandoverKind}
        self._terminals = self._init_terminals()

    def _init_terminals(self) -> list[_Terminal]:
        room, placement, terminals = self.cfg.room, self.streams["placement"], []
        for i in range(self.cfg.user_count):
            x, y = float(placement.uniform(0.0, room.room_x_m)), float(placement.uniform(0.0, room.room_y_m))
            terminals.append(_Terminal(index=i, x=x, y=y, next_arrival_s=self._draw_interarrival()))
        return terminals

    def _draw_interarrival(self) -> float:
        rate = self.cfg.traffic.arrival_rate_per_min / 60.0
        return float(self.streams["traffic"].exponential(1.0 / rate)) if rate > 0 else math.inf

    def _draw_holding(self) -> float:
        return float(self.streams["traffic"].exponential(self.cfg.traffic.mean_holding_s))

    def _draw_class(self) -> TrafficClass:
        voice = float(self.streams["traffic"].random()) < self.cfg.traffic.voice_fraction
        return TrafficClass.RT_VOICE if voice else TrafficClass.DATA

    # Mobility and location ----------------------------------------------

    def _move(self, t: _Terminal, now: float) -> None:
        cfg, room = self.cfg.mobility, self.cfg.room
        if t.waypoint is None:
            if now < t.pause_until:
                return
            gen = self.streams["mobility"]
            t.waypoint = (float(gen.uniform(0.0, room.room_x_m)), float(gen.uniform(0.0, room.room_y_m)))
            t.speed = float(gen.uniform(cfg.speed_min_mps, cfg.speed_max_mps))
        step = t.speed * cfg.tick_s
        dx, dy = t.waypoint[0] - t.x, t.waypoint[1] - t.y
        dist = math.hypot(dx, dy)
        if dist <= step:
            t.x, t.y = t.waypoint
            t.waypoint = None
            t.pause_until = now + float(self.streams["mobility"].uniform(cfg.pause_min_s, cfg.pause_max_s))
        elif step > 0.0:
            t.x += dx / dist * step
            t.y += dy / dist * step

    def _move_block(self, steps: range) -> np.ndarray:
        """Move every terminal through the block's ticks, in (tick, terminal) order; the (ticks, N, 2) positions."""
        xy = []
        for step in steps:
            now = step * self.cfg.mobility.tick_s
            for t in self._terminals:
                self._move(t, now)
                xy += (t.x, t.y)
        return np.reshape(np.asarray(xy, dtype=float), (len(steps), len(self._terminals), 2))

    def _locate(self, positions: np.ndarray) -> None:
        """Zone codes, optical gains and covering APs of a block's (ticks, N, 2) positions, in one pass."""
        plan, pts = self.plan, positions.reshape(-1, 2)
        dx2, dy2, _, _ = window = plan.sq_distances(pts, width=max(plan.n_x, plan.n_y))  # the whole lattice: every AP's gain
        d2 = (dy2.T[:, :, None] + dx2.T[:, None, :]).reshape(*positions.shape[:2], plan.ap_count)  # row-major AP order
        covered = d2 <= plan.coverage_radius_m**2
        dist = np.sqrt(d2, out=d2)
        self._positions, self._gain = positions, channel.optical_channel_gain(dist, self.cfg.optical)
        np.copyto(dist, np.inf, where=~covered)  # covering APs sort first, nearest first; a tie keeps the lower column
        self._covering_order, self._covering_count = np.argsort(dist, axis=2, kind="stable"), covered.sum(axis=2).tolist()
        self._codes = classify_points(plan, pts, window).reshape(positions.shape[:2]).tolist()

    def _covering(self, t: _Terminal) -> list[ApState]:
        """The LiFi APs covering the terminal on the current tick, nearest first."""
        count = self._covering_count[self._tick][t.index]
        return [self.lifi[j] for j in self._covering_order[self._tick, t.index, :count].tolist()]

    def _optical_rx_dB(self, t: _Terminal, ap: ApState) -> float:
        gain = float(self._gain[self._tick, t.index, ap.column])
        return 10.0 * math.log10(self.cfg.optical.tx_optical_power_W * gain) if gain > 0 else -math.inf

    # Call lifecycle -----------------------------------------------------

    def _try_start_call(self, t: _Terminal, now: float) -> None:
        traffic_class = self._draw_class()
        decision, ap = policy.admit_new_call(t.zone, traffic_class, self.fap, self._covering(t))
        self.metrics.admissions[decision.value] += 1
        if decision is AdmissionDecision.BLOCKED:
            t.next_arrival_s = now + self._draw_interarrival()
            return
        ap.occupy()
        t.serving, t.traffic_class, t.call_end_s = ap, traffic_class, now + self._draw_holding()

    def _release_call(self, t: _Terminal, now: float) -> None:
        t.serving.release()
        t.serving = None
        self.metrics.calls_released += 1
        t.next_arrival_s = now + self._draw_interarrival()

    def _execute_handover(self, t: _Terminal, now: float, kind: HandoverKind, target: ApState) -> None:
        self.metrics.handovers[kind.value] += 1
        self.metrics.handover_latency_total_s += self._handover_latency_s[kind]
        t.serving.release()
        target.occupy()
        t.serving, t.last_handover_s = target, now

    def _to_covering_lifi(self, t: _Terminal, now: float) -> bool:
        """Hand the terminal to the nearest covering LiFi AP with a free slot, if any."""
        ap = policy.first_free(self._covering(t))
        if ap is not None:
            self._execute_handover(t, now, HandoverKind.FEMTO_TO_LIFI, ap)
        return ap is not None

    def _evaluate_handover(self, t: _Terminal, now: float) -> None:
        serving = t.serving
        if now - t.last_handover_s < self.cfg.policy.t_h_s:
            return
        if serving.kind is NetworkKind.FAP and t.traffic_class is TrafficClass.RT_VOICE:
            return  # voice stays pinned to the femtocell
        s_serving, s_target, target = -math.inf, -math.inf, None
        if serving.kind is NetworkKind.LIFI and t.zone is Zone.Z4:
            covering = self._covering(t)
            if serving in covering:
                s_serving = self._optical_rx_dB(t, serving)
            target = next((ap for ap in covering if ap is not serving), None)
            if target is not None:
                s_target = self._optical_rx_dB(t, target)
        decision = policy.handover_decision(serving.kind, t.zone, s_serving, s_target, now - t.zone_entry_s,
                                            self.cfg.policy)
        if decision is HandoverDecision.STAY:
            return
        if decision is HandoverDecision.TO_FAP:
            if self.fap.free_slots > 0:
                self._execute_handover(t, now, HandoverKind.LIFI_TO_FEMTO, self.fap)
            else:
                self.metrics.handovers_rejected += 1
        elif decision is HandoverDecision.TO_TARGET_LIFI:
            if target is not None and target.free_slots > 0:
                self._execute_handover(t, now, HandoverKind.LIFI_TO_LIFI, target)
            else:
                self.metrics.handovers_rejected += 1
        elif not self._to_covering_lifi(t, now):  # TO_LIFI from the femtocell
            self.metrics.handovers_rejected += 1

    def _apply_idle_mode(self, in_call: list[_Terminal], now: float) -> None:
        """Shift the femtocell's lone Zone 3 user to LiFi if it can; the femtocell idles once it holds no slot."""
        fap = self.fap
        served = [(t.index, t.zone) for t in in_call if t.serving is fap]
        for terminal_id in policy.fap_mode_update(fap, served):
            self._to_covering_lifi(self._terminals[terminal_id], now)
        if fap.occupied_slots == 0:
            fap.mode = ApMode.IDLE

    def _sample_link_quality(self, links: list[tuple[int, int, ApState]]) -> None:
        """Add the SINR and capacity of a block's (tick, terminal, serving AP) links to the run sums, in that order.

        One batched channel pass per network equals per-link calls bit for bit, and each sum adds
        left to right in (tick, terminal) order, as sampling tick by tick does (README, Determinism).
        """
        sinr, bandwidth = np.empty(len(links)), np.empty(len(links))
        kind_rows = [(kind, [i for i, (_, _, ap) in enumerate(links) if ap.kind is kind]) for kind in NetworkKind]
        for kind, rows in kind_rows:
            if rows:
                sample = self._lifi_links if kind is NetworkKind.LIFI else self._femto_links
                sinr[rows], bandwidth[rows] = sample(*zip(*(links[i] for i in rows)))
        sinr_db = channel.linear_to_db(sinr)
        capacity = channel.shannon_capacity(sinr, bandwidth).tolist()
        m = self.metrics
        m.link_samples += len(links)
        m.sinr_total_db, m.capacity_total_bps = _added(m.sinr_total_db, sinr_db), _added(m.capacity_total_bps, capacity)
        for kind, rows in kind_rows:
            count, sinr_total, capacity_total = self._kind_sums[kind]
            self._kind_sums[kind] = (count + len(rows), _added(sinr_total, (sinr_db[i] for i in rows)),
                                     _added(capacity_total, (capacity[i] for i in rows)))

    def _lifi_links(self, ticks: tuple, terminals: tuple, aps: tuple) -> tuple[np.ndarray, float]:
        """SINRs of M LiFi links from their (M, K) gain rows on their ticks; every other AP interferes."""
        serving_at = (np.arange(len(aps)), [ap.column for ap in aps])
        gains = self._gain[ticks, terminals]  # a copy: zeroing the serving column stays local
        serving = gains[serving_at]
        gains[serving_at] = 0.0
        return channel.optical_sinr(serving, gains, self.cfg.optical), self.cfg.optical.bandwidth_Hz

    def _femto_links(self, ticks: tuple, terminals: tuple, _aps: tuple) -> tuple[np.ndarray, float]:
        """SINRs of femtocell links from the terminals' positions on their ticks; no femtocell interferes indoors."""
        rf, (fx, fy) = self.cfg.rf, self.plan.fap_center
        dist = np.asarray([max(math.hypot(x - fx, y - fy), 0.1) for x, y in self._positions[ticks, terminals].tolist()])
        rx = rf.fap_tx_dBm - channel.femto_path_loss(dist, rf, wall_count=0)
        return channel.rf_sinr(rx, [], rf.noise_dBm(rf.femto_bandwidth_Hz)), rf.femto_bandwidth_Hz

    def _check_slot_balance(self) -> None:
        active = sum(1 for t in self._terminals if t.serving is not None)
        occupied = self.fap.occupied_slots + sum(ap.occupied_slots for ap in self.lifi)
        if active != occupied:
            raise RuntimeError(f"slot leak: {occupied} occupied for {active} active calls")

    def _step(self, tick: int, now: float) -> list[_Terminal]:
        """One tick of calls on the block's row ``tick``: zones, releases, arrivals, handovers and idle mode."""
        self._tick = tick
        for t, code in zip(self._terminals, self._codes[tick]):
            zone = _ZONE_OF_CODE[code]
            if zone is not t.zone:
                t.zone, t.zone_entry_s = zone, now
        for t in self._terminals:
            if t.serving is not None and t.call_end_s <= now:
                self._release_call(t, now)
        for t in self._terminals:
            if t.serving is None and t.next_arrival_s <= now:
                self._try_start_call(t, now)
        in_call = [t for t in self._terminals if t.serving is not None]  # no later step starts or ends a call
        for t in in_call:
            self._evaluate_handover(t, now)
        self._apply_idle_mode(in_call, now)
        self._check_slot_balance()
        return in_call

    def run(self) -> Metrics:
        cfg = self.cfg
        ticks = int(round(cfg.duration_s / cfg.mobility.tick_s))
        block = _block_ticks(len(self._terminals), self.plan.ap_count)
        idle_ticks = 0
        for first in range(0, ticks, block):  # a block's moves and link samples feed no call (README, Determinism)
            steps = range(first, min(first + block, ticks))
            links = []
            self._locate(self._move_block(steps))
            for tick, step in enumerate(steps):
                in_call = self._step(tick, step * cfg.mobility.tick_s)
                links += [(tick, t.index, t.serving) for t in in_call]
                idle_ticks += self.fap.mode is ApMode.IDLE
            self._sample_link_quality(links)
        self.metrics.fap_idle_fraction = idle_ticks / ticks
        self.metrics.active_at_end = len(in_call)
        self._rank_networks()
        return self.metrics

    def _rank_networks(self) -> None:
        """Score the two networks from run aggregates and attach the ranking."""
        if not self.metrics.link_samples:
            return
        lifi_load = _mean(_added(0.0, (ap.occupied_slots / ap.capacity_slots for ap in self.lifi)), len(self.lifi))
        loads = {NetworkKind.LIFI: lifi_load, NetworkKind.FAP: self.fap.occupied_slots / self.fap.capacity_slots}
        values = tuple(
            (_mean(capacity, count), max(_mean(sinr, count), 0.0), AHP_MOBILITY[kind], max(loads[kind], AHP_LOAD_FLOOR))
            for kind, (count, sinr, capacity) in self._kind_sums.items()
        )
        weights, _cr = selection.derive_weights(self.cfg.ahp_pairwise)
        modes = tuple(mode for _name, mode in AHP_CRITERIA)
        self.metrics.ahp_rank = selection.rank_networks(values, modes, weights)


def simulate_indoor(config: ScenarioConfig) -> Metrics:
    """Run one indoor scenario; identical configs and seeds give identical metrics."""
    return _IndoorSim(config).run()


# Experiments ------------------------------------------------------------


@dataclass(frozen=True)
class IdleExperimentConfig:
    room: RoomConfig = RoomConfig()
    placements: int = 100_000
    zone_samples: int = 1 << 20
    lifi_slots: int = PolicyConfig.lifi_slots
    seed: int = 0

    def __post_init__(self):
        check_fields(self, *at_least(1), "placements")
        check_fields(self, *at_least(MIN_MC_SAMPLES), "zone_samples")


def lifi_assignment_idle(codes: np.ndarray, nearest: np.ndarray, ap_count: int, lifi_slots: int) -> np.ndarray:
    """Vectorized idle outcome of every user-count prefix of batched placements.

    ``codes``, ``nearest`` and the result have shape (placements, users);
    entry (i, k) holds for users 0..k of placement i. The femtocell ends
    idle exactly when all of them sit in Zone 2 or 3 and no LiFi AP is asked
    for more users than it has slots (users join a per-AP load column by
    column, checked at the AP each one adds to); this matches the sequential
    admission plus idle-mode pipeline, which tests verify.
    """
    n, p = codes.shape
    row_start, load = np.arange(n) * ap_count, np.zeros(n * ap_count, dtype=np.int32)  # a flat (n, ap_count) load
    idle, out = np.ones(n, dtype=bool), np.empty((p, n), dtype=bool)
    for u in range(p):
        on_lifi, cell = (codes[:, u] == 2) | (codes[:, u] == 3), row_start + nearest[:, u]
        load[cell] += on_lifi
        out[u] = idle = idle & on_lifi & (load[cell] <= lifi_slots)
    return out.T


def idle_probability_experiment(config: IdleExperimentConfig, user_counts: list[int]):
    """Rows of (user count, empirical idle probability, closed-form value).

    The empirical column places users uniformly at random and applies the
    admission and idle-mode rules; the closed-form column evaluates the
    two-term binomial bound on the same Monte Carlo zone probabilities.
    Common random numbers: each chunk of placements draws the largest user
    count's users in turn from its own generator, and p users are the first
    p of them; so the empirical column is non-increasing in p, and no row
    depends on the other counts requested.
    """
    if not user_counts or min(user_counts) < 0:
        raise ValueError("user_counts must be non-empty and >= 0")
    plan = config.room.plan()
    model = monte_carlo_zone_model(plan, config.zone_samples, seed=config.seed)
    p_max, chunk = max(user_counts), 20_000
    idle_counts = np.zeros(p_max + 1, dtype=np.int64)
    idle_counts[0] = config.placements  # no active user: always idle
    n_chunks = (config.placements + chunk - 1) // chunk
    for i, gen in enumerate(spawn_streams(config.seed)["placement"].spawn(n_chunks)):
        n = min(chunk, config.placements - i * chunk)
        pts = (gen.random((p_max, n, 2)) * (plan.room_x_m, plan.room_y_m)).reshape(-1, 2)
        codes, nearest = np.empty(len(pts), dtype=np.int8), np.empty(len(pts), dtype=np.intp)
        for part in (slice(s, s + _CLASSIFY_SLICE) for s in range(0, len(pts), _CLASSIFY_SLICE)):
            window = plan.sq_distances(pts[part])
            codes[part], nearest[part] = classify_points(plan, pts[part], window), plan.nearest(window)
        codes, nearest = codes.reshape(p_max, n).T, nearest.reshape(p_max, n).T  # (placements, users)
        idle_counts[1:] += lifi_assignment_idle(codes, nearest, plan.ap_count, config.lifi_slots).sum(axis=0)
    rows = [(p, int(idle_counts[p]) / config.placements, policy.fap_idle_probability(p, model.zone_probs))
            for p in user_counts]
    return rows, model


@dataclass(frozen=True)
class FemtoSinrConfig:
    fap_count: int = 50
    deployment_radius_m: float = 100.0
    user_distance_m: float = 8.0
    drops: int = 2000
    interferer_wall_count: int = 1
    hybrid_users_per_home: int = 5
    min_link_distance_m: float = 1.0
    room: RoomConfig = RoomConfig()
    zone_samples: int = 1 << 20
    seed: int = 0

    def __post_init__(self):
        check_fields(self, *at_least(0), "fap_count", "interferer_wall_count", "hybrid_users_per_home")
        check_fields(self, *at_least(1), "drops")
        check_fields(self, *at_least(MIN_MC_SAMPLES), "zone_samples")
        check_fields(self, *_POSITIVE_FINITE, "user_distance_m", "min_link_distance_m")
        check_fields(self, "non-negative and finite", lambda v: 0.0 <= v < math.inf, "deployment_radius_m")


def femto_sinr_experiment(config: FemtoSinrConfig, rf: RfParams):
    """Rows of (scheme, frf, mean, p5, p50, p95 SINR in dB) for pure and hybrid operation at FRF 1 and 4.

    One reference user sits at a fixed distance from its serving femtocell;
    interfering femtocells drop uniformly over a disk and are thinned two
    ways: reuse-4 keeps an interferer co-channel with probability 1/4, and
    hybrid operation further silences it with the idle-mode probability.
    All schemes share positions and thinning draws, so hybrid can never
    fall below pure on any drop.
    """
    plan = config.room.plan()
    model = monte_carlo_zone_model(plan, config.zone_samples, seed=config.seed)
    p_idle = policy.fap_idle_probability(config.hybrid_users_per_home, model.zone_probs)
    gen = spawn_streams(config.seed)["drops"]

    n, k = config.drops, config.fap_count
    radii = config.deployment_radius_m * np.sqrt(gen.random((n, k)))
    angles = 2.0 * math.pi * gen.random((n, k))
    user = np.asarray([config.user_distance_m, 0.0])
    dx = radii * np.cos(angles) - user[0]
    dy = radii * np.sin(angles) - user[1]
    dist = np.maximum(np.hypot(dx, dy), config.min_link_distance_m)
    u_band = gen.random((n, k))
    u_idle = gen.random((n, k))

    signal_dbm = rf.fap_tx_dBm - channel.femto_path_loss(config.user_distance_m, rf, wall_count=0)
    interf_mw = 10.0 ** ((rf.fap_tx_dBm - channel.femto_path_loss(dist, rf, wall_count=config.interferer_wall_count)) / 10.0)

    rows = []
    for frf in (1, 4):
        co_channel = u_band < (1.0 / frf)
        noise_mw = 10.0 ** (rf.noise_dBm(rf.femto_bandwidth_Hz / frf) / 10.0)
        for scheme in ("pure", "hybrid"):
            mask = co_channel & (u_idle >= p_idle) if scheme == "hybrid" else co_channel
            total_interf = (interf_mw * mask).sum(axis=1)
            sinr_db = signal_dbm - 10.0 * np.log10(noise_mw + total_interf)
            rows.append((scheme, frf, float(sinr_db.mean()), float(np.percentile(sinr_db, 5)),
                         float(np.percentile(sinr_db, 50)), float(np.percentile(sinr_db, 95))))
    return rows


@dataclass(frozen=True)
class HandoverSuccessConfig:
    coverage_radius_m: float = RoomConfig.coverage_radius_m
    crossings: int = 20_000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, *at_least(1), "crossings")


def lifi_crossing_success_exact(ap_distance_m: float, coverage_radius_m: float) -> float:
    """Closed-form success probability of a straight crossing between two APs.

    A crossing at lateral offset y (uniform over [-r, r]) stays covered iff
    the two circles overlap at that offset, giving sqrt(r^2 - (D/2)^2) / r
    for D <= 2r and 0 beyond.
    """
    r = coverage_radius_m
    if ap_distance_m < 0 or r <= 0:
        raise ValueError("distances must be non-negative and radius positive")
    if ap_distance_m >= 2.0 * r:
        return 0.0
    return math.sqrt(r * r - (ap_distance_m / 2.0) ** 2) / r


def handover_success_experiment(config: HandoverSuccessConfig, spacings: list[float]):
    """Rows of (AP spacing, LiFi-only Monte Carlo success, hybrid success).

    LiFi-only success samples straight-line crossings with a uniform
    lateral offset; the hybrid column is identically 1 because the
    femtocell bridges any coverage hole.
    """
    if not spacings or any(d < 0 for d in spacings):
        raise ValueError("spacings must be non-empty and non-negative")
    gen = spawn_streams(config.seed)["crossings"]
    r = config.coverage_radius_m
    rows = []
    for d_apart in spacings:
        offsets = gen.uniform(-r, r, size=config.crossings)
        if d_apart >= 2.0 * r:
            success = np.zeros_like(offsets, dtype=bool)
        else:
            success = offsets**2 <= r * r - (d_apart / 2.0) ** 2
        rows.append((float(d_apart), float(success.mean()), 1.0))
    return rows
