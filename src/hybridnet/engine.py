"""Deterministic indoor simulation and the three indoor experiments.

``simulate_indoor`` runs a tick-driven loop (default 100 ms) over a room:
random-waypoint mobility, Poisson call arrivals with exponential holding
times, zone tracking and the admission/handover/idle-mode policies. Each
handover kind's call flow is replayed once per run, and the mean latency
weighs each kind's latency by its executed handovers. Runs are bit-identical for
a fixed (config, seed) pair; every random draw comes from a labeled
substream, and each terminal walks and calls from its own child streams.

The experiment entry points reproduce the published comparisons:

  * idle-mode probability vs number of active users (placement model
    against the closed-form bound on the exact zone probabilities),
  * femtocell SINR with and without the hybrid idle-mode thinning, whose
    idle probability is that bound, for frequency-reuse factors 1 and 4,
  * LiFi-to-LiFi handover success vs AP spacing, against the closed-form
    crossing-success curve, with the hybrid fallback pinned at 1.

The SINR experiment reuses one set of interferer positions and uniform
draws across all four schemes, so the published orderings (hybrid above
pure, reuse 4 above reuse 1) hold drop by drop, not just on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import channel, policy, selection, zoning
from .channel import NON_NEGATIVE_FINITE, POSITIVE, POSITIVE_FINITE, OpticalParams, RfParams, at_least, check_fields
from .policy import LIFI, STAY, TO_FAP, TO_LIFI, AdmissionDecision
from .protocol import HandoverKind, run_handover
from .rng import spawn_streams
from .zoning import (_CLASSIFY_SLICE, MAX_MC_SAMPLES, RoomConfig, Zone, classify_points,
                     exact_zone_probabilities, plan_grid, sole_covers)


@dataclass(frozen=True)
class MobilityConfig:
    """Random-waypoint mobility: walking speeds, pause lengths and the tick every terminal moves by."""

    speed_min_mps: float = 0.5
    speed_max_mps: float = 1.5
    pause_min_s: float = 0.0
    pause_max_s: float = 5.0
    tick_s: float = 0.1

    def __post_init__(self):
        check_fields(self, *POSITIVE, "tick_s")
        check_fields(self, *at_least(0), "speed_min_mps", "pause_min_s")
        check_fields(self, *at_least(self.speed_min_mps), "speed_max_mps")
        check_fields(self, "such that speed_max_mps * tick_s is finite", lambda v: v * self.tick_s < math.inf, "speed_max_mps")
        check_fields(self, *at_least(self.pause_min_s), "pause_max_s")


@dataclass(frozen=True)
class TrafficConfig:
    """Poisson call arrivals per terminal, exponential holding times and the share of voice calls."""

    arrival_rate_per_min: float = 0.5
    mean_holding_s: float = 120.0
    voice_fraction: float = 0.3

    def __post_init__(self):
        check_fields(self, *at_least(0), "arrival_rate_per_min")
        check_fields(self, *POSITIVE, "mean_holding_s")
        check_fields(self, "in [0, 1]", lambda v: 0.0 <= v <= 1.0, "voice_fraction")


@dataclass(frozen=True)
class PolicyConfig:
    """Dwell thresholds, slots per femtocell and per LiFi AP, and the per-hop latency of a handover flow."""

    t_h_s: float = 2.0
    t_h1_s: float = 2.0
    fap_slots: int = 8
    lifi_slots: int = 10
    per_hop_latency_s: float = 0.005

    def __post_init__(self):
        check_fields(self, *at_least(1), "fap_slots", "lifi_slots")
        check_fields(self, *POSITIVE, "t_h_s", "t_h1_s")
        check_fields(self, *NON_NEGATIVE_FINITE, "per_hop_latency_s")


@dataclass(frozen=True)
class ScenarioConfig:
    """One indoor run: the room, its terminals, duration and seed, and every model's parameters."""

    room: RoomConfig = RoomConfig()
    user_count: int = 10
    duration_s: float = 120.0
    seed: int = 0
    mobility: MobilityConfig = MobilityConfig()
    traffic: TrafficConfig = TrafficConfig()
    policy: PolicyConfig = PolicyConfig()
    optical: OpticalParams = OpticalParams()
    rf: RfParams = RfParams()
    ahp_weights: tuple[float, ...] = selection.DEFAULT_WEIGHTS

    def __post_init__(self):
        check_fields(self, f"in [0, {2**14}] (a run spawns two generators per terminal before its first tick, "
                     f"about 1 s and 30 MB at {2**14})", lambda v: 0 <= v <= 2**14, "user_count")
        check_fields(self, *POSITIVE_FINITE, "duration_s")
        check_fields(self, f"at least one tick_s ({self.mobility.tick_s!r}) once rounded to whole ticks",
                     lambda v: round(v / self.mobility.tick_s) >= 1, "duration_s")


ADMISSION_KEYS = tuple(d.value for d in AdmissionDecision)
HANDOVER_KEYS = tuple(k.value for k in HandoverKind)


def _block_ticks(terminal_count: int, ap_count: int) -> int:
    """Ticks per block: the most whose (tick, terminal, AP) entries fit one classify slice, and at least 1."""
    return max(1, _CLASSIFY_SLICE // max(terminal_count * ap_count, 1))


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _fsum(blocks: list[np.ndarray]) -> float:
    """The correctly rounded sum of every sample of ``blocks``, whatever their order or batching (exact partials)."""
    return math.fsum(chain.from_iterable(block.tolist() for block in blocks))


@dataclass
class Metrics:
    """Run counts, and the totals behind the run means, each a function of its samples alone."""

    admissions: dict[str, int] = field(default_factory=lambda: {k: 0 for k in ADMISSION_KEYS})
    handovers: dict[str, int] = field(default_factory=lambda: {k: 0 for k in HANDOVER_KEYS})
    handovers_rejected: int = 0
    handover_latency_total_s: float = 0.0
    fap_idle_fraction: float = 0.0
    # Per network code: (link samples, SINR dB total, capacity bps total); one sample per in-call terminal per tick.
    networks: tuple[tuple[int, float, float], ...] = ((0, 0.0, 0.0),) * 2
    calls_released: int = 0
    active_at_end: int = 0
    ahp_rank: tuple[float, float, str] | None = None
    # The run totals: each the correctly rounded sum of the two networks' totals.
    link_samples = property(lambda self: sum(count for count, _, _ in self.networks))
    sinr_total_db = property(lambda self: math.fsum(sinr for _, sinr, _ in self.networks))
    capacity_total_bps = property(lambda self: math.fsum(capacity for _, _, capacity in self.networks))

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


_NO_CALL = -1  # the serving AP index of a terminal between calls


class _IndoorSim:
    """Single-run state; use :func:`simulate_indoor`.

    Terminal i is row i of every per-terminal array. Mobility: ``_xy``, the ``_waypoint`` it walks to at
    ``_speed``, and ``_pause_until`` (inf while it walks); it runs up to a block of ticks ahead of the calls,
    which read the block's rows. Calls: ``_ap`` (the serving AP's index in the slot ledger, or ``_NO_CALL``),
    ``_voice``, ``_next_event`` (the call's end during a call, else the next call's arrival), ``_zone`` (the
    zone code) and ``_last_handover``; per (tick, terminal) row of the block, ``_zone_entries``, the handover
    ``_decisions`` and their Zone 4 ``_targets``; and ``_redecide``, the terminals to decide again. The slot
    ledger is ``_free``, the free slots of LiFi AP j at index j and of the femtocell at index ``_femto``, the
    last; ``_capacity`` beside it and ``_fap_idle``, the femtocell's idle mode.

    A tick scans ``_pause_until`` and ``_next_event`` only once their kept minima, ``_first_pause_end`` and
    ``_first_event``, have come. Each is -inf (unknown) until first taken; it is taken again at each block start and
    after the loop that ends pauses or handles due calls, and a pause that begins folds into it. Idle mode looks for
    the femtocell's users only while the ledger shows it holding one call.
    """

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.plan = plan_grid(config.room)
        streams, n, room = spawn_streams(config.seed), config.user_count, config.room
        self._femto = self.plan.ap_count
        self._capacity = [config.policy.lifi_slots] * self._femto + [config.policy.fap_slots]
        self._free, self._fap_idle = list(self._capacity), True
        self.metrics = Metrics()
        self._samples = ([], []), ([], [])  # per network code: each block's SINR dB and capacity bps sample arrays
        # A fault-free flow's latency depends on its kind and the per-hop delay alone.
        self._handover_latency_s = {k: run_handover(k, config.policy).latency_s for k in HandoverKind}
        # One mobility and one traffic stream per terminal: its draws do not depend on the other terminals.
        self._mobility, self._traffic = streams["mobility"].spawn(n), streams["traffic"].spawn(n)
        self._xy = streams["placement"].uniform(0.0, (room.room_x_m, room.room_y_m), size=(n, 2))
        self._waypoint, self._speed, self._pause_until = np.zeros((n, 2)), np.zeros(n), np.zeros(n)
        self._ap = np.full(n, _NO_CALL, dtype=np.intp)
        self._voice, self._next_event = np.zeros(n, bool), np.array([self._draw_interarrival(i) for i in range(n)])
        self._zone, self._zone_entries = np.full(n, Zone.Z1.value, dtype=np.int8), np.zeros((1, n))
        self._last_handover, self._redecide = np.full(n, -math.inf), set()
        self._first_pause_end = self._first_event = -math.inf  # unknown: the next tick scans

    def _draw_interarrival(self, i: int) -> float:
        rate = self.cfg.traffic.arrival_rate_per_min / 60.0
        return self._traffic[i].exponential(1.0 / rate) if rate > 0 else math.inf

    # Mobility and location ----------------------------------------------

    def _move(self, now: float) -> None:
        """Move every terminal one tick in one unmasked vector step; only a terminal that draws runs Python."""
        cfg, room, waypoint, pause_until = self.cfg.mobility, self.cfg.room, self._waypoint, self._pause_until
        if self._first_pause_end <= now:
            for i in (pause_until <= now).nonzero()[0].tolist():  # a pause ends: draw a waypoint and a speed, and walk
                gen = self._mobility[i]
                waypoint[i] = gen.uniform(0.0, room.room_x_m), gen.uniform(0.0, room.room_y_m)
                self._speed[i], pause_until[i] = gen.uniform(cfg.speed_min_mps, cfg.speed_max_mps), math.inf
            self._first_pause_end = pause_until.min(initial=math.inf)
        step, d, walking = self._speed * cfg.tick_s, waypoint - self._xy, pause_until == math.inf
        dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])  # correctly rounded ops, unlike libm's hypot
        arrive = walking & (dist <= step)
        dist[~walking | arrive] = math.inf  # d / inf * step is a signed zero (step is finite), and x + ±0.0 is x
        self._xy += d / dist[:, None] * step[:, None]  # a walker's x + dx / dist * step
        np.copyto(self._xy, waypoint, where=arrive[:, None])
        for i in arrive.nonzero()[0].tolist():
            pause_until[i] = end = now + self._mobility[i].uniform(cfg.pause_min_s, cfg.pause_max_s)
            self._first_pause_end = min(self._first_pause_end, end)

    def _move_block(self, steps: range) -> np.ndarray:
        """Move every terminal through the block's ticks; the (ticks, N, 2) positions."""
        self._first_pause_end = self._pause_until.min(initial=math.inf)
        positions = np.empty((len(steps), len(self._xy), 2))
        for row, step in zip(positions, steps):
            self._move(step * self.cfg.mobility.tick_s)
            row[...] = self._xy
        return positions

    def _locate(self, positions: np.ndarray) -> None:
        """Zone codes, optical gains and covering distances (inf if uncovered) of a block's (ticks, N, 2) positions."""
        plan, pts = self.plan, positions.reshape(-1, 2)
        dx2, dy2, _, _ = window = plan.sq_distances(pts, width=max(plan.n_x, plan.n_y))  # the whole lattice: every AP's gain
        d2 = (dy2.T[:, :, None] + dx2.T[:, None, :]).reshape(*positions.shape[:2], plan.ap_count)  # row-major AP order
        covered = d2 <= plan.coverage_radius_m**2
        dist = np.sqrt(d2, out=d2)
        self._positions, self._gain = positions, channel.optical_channel_gain(dist, self.cfg.optical)
        np.copyto(dist, np.inf, where=~covered)  # covering APs sort first, nearest first; a tie keeps the lower column
        self._covering_dist, self._covering_count = dist, np.count_nonzero(covered, axis=2)
        self._codes = classify_points(plan, pts, window).reshape(positions.shape[:2])

    def _covering(self, i: int) -> list[int]:
        """The indices of the LiFi APs covering terminal i on the current tick, nearest first."""
        return np.argsort(self._covering_dist[self._tick, i], kind="stable")[:self._covering_count[self._tick, i]].tolist()

    def _start_block(self, positions: np.ndarray, steps: range) -> None:
        """Locate a block's positions and take its (ticks, N) zone-entry clocks; its first tick decides every row."""
        self._locate(positions)
        codes, self._times = self._codes, np.array(steps) * self.cfg.mobility.tick_s  # now = step * tick_s
        changed = codes != np.concatenate((self._zone[None], codes[:-1]))
        # A clock is its last zone change's tick, else the one carried in; times rise, so that is the running maximum.
        self._zone_entries = np.maximum.accumulate(np.where(changed, self._times[:, None], self._zone_entries[-1]))
        self._decisions, self._targets = np.empty(codes.shape, dtype=np.int8), np.empty(codes.shape, dtype=np.intp)
        self._redecide.update(range(codes.shape[1]))
        self._first_event = self._next_event.min(initial=math.inf)

    def _decide(self, tick: int, terminals: np.ndarray) -> None:
        """Decide ``terminals``' rows from block tick ``tick`` on, under their calls; each holds until its call changes."""
        ap, thresholds, now = self._ap[terminals], self.cfg.policy, self._times[tick:, None]
        on_fap = ap == self._femto
        eligible = ((ap != _NO_CALL) & ~(now - self._last_handover[terminals] < thresholds.t_h_s)
                    & ~(on_fap & self._voice[terminals]))  # voice stays pinned to the femtocell
        self._decisions[tick:, terminals] = STAY
        offsets, columns = eligible.nonzero()
        if not len(offsets):  # a release, or a handover whose t_h_s guard covers the rest of the block
            return
        ticks, rows = offsets + tick, terminals[columns]  # each eligible row's tick and terminal
        kinds, zones = on_fap[columns].astype(np.int8), self._codes[ticks, rows]  # network codes: LIFI 0, FAP 1
        signals = np.full((2, len(rows)), -math.inf)  # dB: serving and target
        z4 = ((kinds == LIFI) & (zones == Zone.Z4.value)).nonzero()[0]
        if len(z4):  # two APs cover a Zone 4 terminal: the target is the nearest one not serving it
            z4_ticks, z4_rows = ticks[z4], rows[z4]
            serving, order = ap[columns[z4]], np.argsort(self._covering_dist[z4_ticks, z4_rows], axis=1, kind="stable")
            first, second = order[:, :2].T
            self._targets[z4_ticks, z4_rows] = target = np.where(first == serving, second, first)  # a LiFi column
            at = np.tile(z4_ticks, 2), np.tile(z4_rows, 2), np.concatenate((serving, target))
            power = np.where(self._covering_dist[at] < math.inf, self.cfg.optical.tx_optical_power_W * self._gain[at], 0.0)
            signals[:, z4] = channel.linear_to_db(power).reshape(2, -1)  # 0 W, -inf dB, from an AP not covering it
        dwell = self._times[ticks] - self._zone_entries[ticks, rows]
        self._decisions[ticks, rows] = policy.handover_decision(kinds, zones, *signals, dwell, thresholds)

    # Call lifecycle -----------------------------------------------------

    def _occupy(self, i: int, ap: int) -> None:
        """Terminal i takes a slot of AP ``ap``, waking the femtocell if it idles; its rows are decided again."""
        self._free[ap] -= 1
        self._ap[i] = ap
        self._redecide.add(i)
        if ap == self._femto:
            self._fap_idle = False

    def _try_start_call(self, i: int, now: float) -> None:
        gen, traffic = self._traffic[i], self.cfg.traffic
        voice = gen.random() < traffic.voice_fraction
        decision, ap = policy.admit_new_call(self._zone[i], voice, self._fap_idle, self._free, self._covering(i))
        self.metrics.admissions[decision.value] += 1
        if decision is AdmissionDecision.BLOCKED:
            self._next_event[i] = now + self._draw_interarrival(i)
            return
        self._occupy(i, ap)
        self._voice[i], self._next_event[i] = voice, now + gen.exponential(traffic.mean_holding_s)

    def _release_call(self, i: int, now: float) -> None:
        self._free[self._ap[i]] += 1
        self._ap[i] = _NO_CALL
        self._redecide.add(i)
        self.metrics.calls_released += 1
        self._next_event[i] = now + self._draw_interarrival(i)

    def _execute_handover(self, i: int, now: float, kind: HandoverKind, target: int) -> None:
        self.metrics.handovers[kind.value] += 1
        self._free[self._ap[i]] += 1
        self._occupy(i, target)
        self._last_handover[i] = now

    def _to_covering_lifi(self, i: int, now: float) -> bool:
        """Hand terminal i to the nearest covering LiFi AP with a free slot, if any."""
        ap = policy.first_free(self._free, self._covering(i))
        if ap is not None:
            self._execute_handover(i, now, HandoverKind.FEMTO_TO_LIFI, ap)
        return ap is not None

    def _evaluate_handovers(self, now: float) -> None:
        """Decide the terminals in ``_redecide`` (all on a block's first tick) in one policy call; act on rows that move.

        A decision reads only its own terminal's state, so acting in terminal order on the ledger is the per-terminal loop.
        """
        if self._redecide:
            self._decide(self._tick, np.fromiter(self._redecide, dtype=np.intp))
            self._redecide.clear()
        decisions, targets = self._decisions[self._tick], self._targets[self._tick]
        acting = decisions.nonzero()[0]  # the rows that do not stay: STAY is code 0
        for i, column, decision in zip(acting.tolist(), targets[acting].tolist(), decisions[acting].tolist()):
            if decision == TO_LIFI:
                moved = self._to_covering_lifi(i, now)
            else:  # TO_FAP, or TO_TARGET_LIFI, whose stronger target is a covering AP
                target = self._femto if decision == TO_FAP else column
                if moved := self._free[target] > 0:
                    flow = HandoverKind.LIFI_TO_FEMTO if decision == TO_FAP else HandoverKind.LIFI_TO_LIFI
                    self._execute_handover(i, now, flow, target)
            self.metrics.handovers_rejected += not moved

    def _apply_idle_mode(self, now: float) -> None:
        """Shift the femtocell's lone Zone 3 user to LiFi if it can; the femtocell idles once it holds no slot."""
        femto = self._femto
        if self._capacity[femto] - self._free[femto] == 1:  # the policy shifts nobody out of any other count of users
            on_fap = (self._ap == femto).nonzero()[0]
            for i in policy.fap_mode_update(list(zip(on_fap.tolist(), self._zone[on_fap].tolist()))):
                self._to_covering_lifi(i, now)
        if self._free[femto] == self._capacity[femto]:
            self._fap_idle = True

    def _sample_link_quality(self, aps: np.ndarray) -> None:
        """Keep the SINR (dB) and capacity of a block's links per network, for the run totals.

        ``aps`` records each terminal's serving AP index on each of the block's ticks. One
        batched channel pass per network equals per-link calls bit for bit.
        """
        ticks, terminals = (aps != _NO_CALL).nonzero()
        serving = aps[ticks, terminals]
        on_fap = serving == self._femto
        for kind, mask in enumerate((~on_fap, on_fap)):  # indexed by network code
            if mask.any():
                at = ticks[mask], terminals[mask]
                sinr, bandwidth = self._lifi_links(*at, serving[mask]) if kind == LIFI else self._femto_links(*at)
                sinr_db, capacity = self._samples[kind]
                sinr_db.append(channel.linear_to_db(sinr))
                capacity.append(channel.shannon_capacity(sinr, bandwidth))

    def _lifi_links(self, ticks: np.ndarray, terminals: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, float]:
        """SINRs of M LiFi links from their (M, K) gain rows on their ticks; every other AP interferes."""
        serving_at = (np.arange(len(columns)), columns)
        gains = self._gain[ticks, terminals]  # a copy: zeroing the serving column stays local
        serving = gains[serving_at]
        gains[serving_at] = 0.0
        return channel.optical_sinr(serving, gains, self.cfg.optical), self.cfg.optical.bandwidth_Hz

    def _femto_links(self, ticks: np.ndarray, terminals: np.ndarray) -> tuple[np.ndarray, float]:
        """SINRs of femtocell links from the terminals' positions on their ticks; no femtocell interferes indoors."""
        rf, (fx, fy) = self.cfg.rf, self.plan.fap_center
        xy = self._positions[ticks, terminals]
        dx, dy = xy[:, 0] - fx, xy[:, 1] - fy
        rx = rf.fap_tx_dBm - channel.femto_path_loss(np.maximum(np.sqrt(dx * dx + dy * dy), 0.1), rf, wall_count=0)
        return channel.rf_sinr(rx, rf.noise_dBm(rf.femto_bandwidth_Hz)), rf.femto_bandwidth_Hz

    def _check_slot_balance(self) -> None:
        """Each AP's occupied slots are its calls, within its capacity; an idle femtocell holds none."""
        occupied = [capacity - free for capacity, free in zip(self._capacity, self._free)]
        calls = np.bincount(self._ap + 1, minlength=len(occupied) + 1)[1:].tolist()  # bin 0 counts _NO_CALL
        if occupied != calls or min(self._free) < 0 or (self._fap_idle and occupied[-1]):
            raise RuntimeError(f"slot leak: {occupied} occupied for {calls} calls per AP")

    def _step(self, tick: int, now: float) -> None:
        """One tick of calls on the block's row ``tick``: zones, releases, arrivals, handovers and idle mode."""
        self._tick, self._zone = tick, self._codes[tick]
        if self._first_event <= now:  # a call ends or arrives
            due = (self._next_event <= now).nonzero()[0].tolist()
            for i in due:
                if self._ap[i] != _NO_CALL:
                    self._release_call(i, now)
            for i in due:
                if self._next_event[i] <= now:  # a call arrives; one released just now has drawn its next arrival
                    self._try_start_call(i, now)
            self._first_event = self._next_event.min(initial=math.inf)
        self._evaluate_handovers(now)
        self._apply_idle_mode(now)
        self._check_slot_balance()

    def run(self) -> Metrics:
        cfg, n = self.cfg, len(self._xy)
        ticks = int(round(cfg.duration_s / cfg.mobility.tick_s))
        block = _block_ticks(n, self.plan.ap_count)
        idle_ticks = 0
        for first in range(0, ticks, block):  # mobility reads no call, and link samples feed only the run totals
            steps = range(first, min(first + block, ticks))
            aps = np.empty((len(steps), n), dtype=np.intp)
            self._start_block(self._move_block(steps), steps)
            for tick, step in enumerate(steps):
                self._step(tick, step * cfg.mobility.tick_s)
                aps[tick] = self._ap
                idle_ticks += self._fap_idle
            self._sample_link_quality(aps)
        m = self.metrics
        m.fap_idle_fraction = idle_ticks / ticks
        m.active_at_end = int(np.count_nonzero(self._ap != _NO_CALL))
        m.handover_latency_total_s = math.fsum(m.handovers[k.value] * s for k, s in self._handover_latency_s.items())
        m.networks = tuple((sum(map(len, sinr_db)), _fsum(sinr_db), _fsum(capacity)) for sinr_db, capacity in self._samples)
        self._rank_networks()
        return m

    def _rank_networks(self) -> None:
        """Score the two networks from run aggregates and rank them with the scenario's AHP weights."""
        if not self.metrics.link_samples:
            return
        *lifi, fap = ((capacity - free) / capacity for capacity, free in zip(self._capacity, self._free))
        loads = (_mean(math.fsum(lifi), len(lifi)), fap)  # indexed by network code
        values = tuple(
            (_mean(capacity, count), max(_mean(sinr, count), 0.0), selection.MOBILITY[kind], loads[kind])
            for kind, (count, sinr, capacity) in enumerate(self.metrics.networks)
        )
        self.metrics.ahp_rank = selection.rank_networks(values, self.cfg.ahp_weights)


def simulate_indoor(config: ScenarioConfig) -> Metrics:
    """Run one indoor scenario; identical configs and seeds give identical metrics."""
    return _IndoorSim(config).run()


# Experiments ------------------------------------------------------------


@dataclass(frozen=True)
class IdleExperimentConfig:
    """fig16: the room, the slot policy, the number of random user placements and the largest user count."""

    room: RoomConfig = RoomConfig()
    policy: PolicyConfig = PolicyConfig()
    placements: int = 100_000
    seed: int = 0
    user_count_max: int = 20

    def __post_init__(self):
        check_fields(self, f"in [1, {MAX_MC_SAMPLES}], as zoning.mc_samples (a generator per chunk of 2**18 placements)",
                     lambda v: 1 <= v <= MAX_MC_SAMPLES, "placements")
        check_fields(self, f"in [0, {2**20}] (fig16 builds its CSV rows, one per user count, in memory)",
                     lambda v: 0 <= v <= 2**20, "user_count_max")
        aps = math.prod(zoning._ap_lines(self.room))  # a walk stops by user lifi_slots * aps + 1: none idles past it
        record = min(self.placements, zoning._MC_CHUNK) * np.min_scalar_type(aps - 1).itemsize  # one AP per placement
        check_fields(self, f"at most {2**28 // record} (fig16 keeps a {record}-byte AP record per user it walks, "
                     "2**28 bytes in all)",
                     lambda v: min(v, self.policy.lifi_slots * aps + 1) * record <= 2**28, "user_count_max")


def lifi_assignment_idle(locate, placements: int, users: int, ap_count: int, lifi_slots: int) -> np.ndarray:
    """Placements of a batch still idle with each user count: entry p counts those idle with users 0..p-1, p <= users.

    The femtocell idles exactly when every user sits in Zone 2 or 3 and no LiFi AP gets more users than slots, as in
    the sequential admission plus idle-mode pipeline. ``locate(u, rows)``, called for u = 0, 1, ... until no placement
    is idle, gives user u's sole covering AP (-1 outside Zones 2 and 3) in ``rows``, the placements still idle; it may
    reuse that array on its next call. User k's AP is ``seen[k]``, read only in those rows, and u overflows when
    ``lifi_slots`` earlier users sit on its AP.
    """
    ap_type, rows, seen, idle = np.min_scalar_type(ap_count - 1), np.arange(placements), [], [placements]
    while len(rows) and len(seen) < users:  # user len(seen) joins the placements still idle
        cover = locate(len(seen), rows)
        keep, cover = cover >= 0, cover.astype(ap_type)  # a -1 cover wraps, but its placement is dropped
        if len(seen) >= lifi_slots:  # until then no AP holds lifi_slots users; on an idle placement none holds more
            on_ap, earlier = np.zeros(len(rows), np.min_scalar_type(lifi_slots)), np.empty(len(rows), ap_type)
            for ap in seen:
                on_ap += ap.take(rows, out=earlier) == cover
            keep &= on_ap < lifi_slots
        seen.append(np.empty(placements, dtype=ap_type))
        seen[-1][rows] = cover  # a dropped placement's entry is never read
        rows = rows.take(np.flatnonzero(keep))  # an index gathers faster than a boolean mask
        idle.append(len(rows))
    return np.array(idle + [0] * (users + 1 - len(idle)))


def idle_probability_experiment(config: IdleExperimentConfig, user_counts: list[int]) -> list[tuple[int, float, float]]:
    """Rows of (user count, empirical idle probability, closed-form value).

    The empirical column places users uniformly at random and applies the admission and idle-mode rules, locating
    a user only in the placements still idle (each point is located on its own, so every located point gets the
    sole covering AP it gets among all of them); the closed-form column evaluates the two-term binomial bound on the
    exact zone probabilities. Common random numbers: each of the zone model's chunks (``_MC_CHUNK`` placements at any
    AP count) draws users 0, 1, ... in turn from its own generator, user u only for the placements still idle; p users
    are the first p, so the empirical column is non-increasing in p, and no row depends on the other counts.
    """
    if not user_counts or min(user_counts) < 0:
        raise ValueError("user_counts must be non-empty and >= 0")
    plan = plan_grid(config.room).buffered()
    zone_probs = exact_zone_probabilities(plan)
    p_max, chunk = max(user_counts), zoning._MC_CHUNK  # chunk sizes fix which generator draws what
    idle_counts, placement = np.zeros(p_max + 1, dtype=np.int64), spawn_streams(config.seed)["placement"]
    for start in range(0, config.placements, chunk):  # spawn(1) per chunk gives spawn(n)'s streams, one at a time
        gen, size = placement.spawn(1)[0], min(chunk, config.placements - start)
        idle_counts += lifi_assignment_idle(lambda _, rows: sole_covers(plan, gen, len(rows)), size, p_max,
                                            plan.ap_count, config.policy.lifi_slots)
    return [(p, int(idle_counts[p]) / config.placements, policy.fap_idle_probability(p, zone_probs))
            for p in user_counts]


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile's linear rule on sorted finite values, without its numpy.ma import (about 15 ms in a new process)."""
    at = (len(ordered) - 1) * (q / 100)
    i = min(math.floor(at), len(ordered) - 2)  # -1 when n = 1: numpy also reads the one value twice
    lo, hi, t = float(ordered[i]), float(ordered[i + 1]), at - i
    return lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1 - t)


@dataclass(frozen=True)
class FemtoSinrConfig:
    """fig17: the interferers' layout and walls, the reference user's distance, the idle thinning and the drops."""

    fap_count: int = 50
    deployment_radius_m: float = 100.0
    user_distance_m: float = 8.0
    drops: int = 2000
    interferer_wall_count: int = 1
    hybrid_users_per_home: int = 5
    min_link_distance_m: float = 1.0
    room: RoomConfig = RoomConfig()
    seed: int = 0

    def __post_init__(self):
        check_fields(self, *at_least(0), "fap_count", "interferer_wall_count", "hybrid_users_per_home")
        check_fields(self, f"at least 1, with drops * max(fap_count, 1) at most {2**22} (fig17 holds several (drops, "
                     "fap_count) float arrays in memory)", lambda v: 1 <= v * max(self.fap_count, 1) <= 2**22, "drops")
        check_fields(self, *POSITIVE_FINITE, "user_distance_m", "min_link_distance_m")
        check_fields(self, *NON_NEGATIVE_FINITE, "deployment_radius_m")


def femto_sinr_experiment(config: FemtoSinrConfig, rf: RfParams):
    """Rows of (scheme, frf, mean, p5, p50, p95 SINR in dB) for pure and hybrid operation at FRF 1 and 4.

    One reference user sits at a fixed distance from its serving femtocell;
    interfering femtocells drop uniformly over a disk and are thinned two
    ways: reuse-4 keeps an interferer co-channel with probability 1/4, and
    hybrid operation further silences it with the idle-mode probability,
    the closed-form bound on the exact zone probabilities of the room.
    All schemes share positions and thinning draws, so hybrid can never
    fall below pure on any drop.
    """
    p_idle = policy.fap_idle_probability(config.hybrid_users_per_home, exact_zone_probabilities(plan_grid(config.room)))
    gen = spawn_streams(config.seed)["drops"]

    n, k = config.drops, config.fap_count
    radii = config.deployment_radius_m * np.sqrt(gen.random((n, k)))
    angles = 2.0 * math.pi * gen.random((n, k))
    user = np.asarray([config.user_distance_m, 0.0])
    dx = radii * np.cos(angles) - user[0]
    dy = radii * np.sin(angles) - user[1]
    dist = np.maximum(np.hypot(dx, dy), config.min_link_distance_m)
    del radii, angles, dx, dy  # only dist is read from here: four fewer (drops, fap_count) arrays at the peak
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
            ordered = np.sort(sinr_db)
            rows.append((scheme, frf, float(sinr_db.mean()), *(_percentile(ordered, q) for q in (5, 50, 95))))
    return rows


@dataclass(frozen=True)
class HandoverSuccessConfig:
    """fig18: the room whose coverage radius the crossings use, the crossings per AP spacing, and the spacings swept."""

    room: RoomConfig = RoomConfig()
    crossings: int = 20_000
    seed: int = 0
    spacing_start_m: float = 0.0
    spacing_stop_m: float = 12.0
    spacing_count: int = 25

    def __post_init__(self):
        check_fields(self, f"in [1, {2**22}] (fig18 draws each spacing's crossings as one array)",
                     lambda v: 1 <= v <= 2**22, "crossings")
        check_fields(self, *at_least(0.0), "spacing_start_m", "spacing_stop_m")  # so is every spacing between them
        check_fields(self, *channel.SWEEP_COUNT, "spacing_count")
        check_fields(self, f"at most 2**27 // crossings = {2**27 // self.crossings} (fig18 draws spacing_count * "
                     "crossings offsets, 2**27 in about a second)", lambda v: v * self.crossings <= 2**27,
                     "spacing_count")


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
    r = config.room.coverage_radius_m
    rows = []
    for d_apart in spacings:
        offsets = gen.uniform(-r, r, size=config.crossings)
        if d_apart >= 2.0 * r:
            success = np.zeros_like(offsets, dtype=bool)
        else:
            success = offsets**2 <= r * r - (d_apart / 2.0) ** 2
        rows.append((float(d_apart), float(success.mean()), 1.0))
    return rows
