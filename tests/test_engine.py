"""Indoor simulation and experiment tests."""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hybridnet import engine, policy, zoning
from hybridnet.engine import (
    FemtoSinrConfig, HandoverSuccessConfig, IdleExperimentConfig,
    MobilityConfig, PolicyConfig, ScenarioConfig, TrafficConfig,
    _IndoorSim, femto_sinr_experiment,
    handover_success_experiment, idle_probability_experiment,
    lifi_assignment_idle, lifi_crossing_success_exact, simulate_indoor,
)
from hybridnet.channel import OpticalParams, RfParams, femto_path_loss, optical_channel_gain
from hybridnet.protocol import HandoverKind, run_handover
from hybridnet.rng import spawn_streams
from hybridnet.zoning import RoomConfig, Zone, classify_points, exact_zone_probabilities, plan_grid
from oracles import (
    classify_against_every_ap, enumerate_idle_probability, indoor_run_reference, lifi_assignment_idle_one_hot,
    placement_idle_reference, sq_distances_to_every_ap,
)

BUSY = ScenarioConfig(
    user_count=8,
    duration_s=60.0,
    seed=7,
    traffic=TrafficConfig(arrival_rate_per_min=20.0, mean_holding_s=30.0, voice_fraction=0.3),
)


MOBILE = ScenarioConfig(
    user_count=6,
    duration_s=120.0,
    seed=11,
    mobility=MobilityConfig(speed_min_mps=1.0, speed_max_mps=1.5, pause_max_s=1.0),
    traffic=TrafficConfig(arrival_rate_per_min=30.0, mean_holding_s=200.0, voice_fraction=0.0),
)

# Slot-starved: every handover kind under blocking (the slot-starved golden digest).
SLOT_STARVED = ScenarioConfig(
    user_count=20,
    duration_s=30.0,
    seed=0,
    traffic=TrafficConfig(arrival_rate_per_min=6.0, mean_holding_s=20.0),
    policy=PolicyConfig(fap_slots=2, lifi_slots=1),
)


# Voice-heavy, short dwell thresholds, few slots, and terminals that may stand still.
MIXED = ScenarioConfig(
    user_count=30,
    duration_s=25.0,
    seed=5,
    mobility=MobilityConfig(speed_min_mps=0.0, speed_max_mps=3.0, pause_max_s=0.5),
    traffic=TrafficConfig(arrival_rate_per_min=12.0, mean_holding_s=60.0, voice_fraction=0.6),
    policy=PolicyConfig(t_h_s=0.5, t_h1_s=3.0, fap_slots=3, lifi_slots=2),
)


# The bench's indoor-loaded traffic, over 30 s.
LOADED = ScenarioConfig(
    user_count=60,
    duration_s=30.0,
    seed=0,
    traffic=TrafficConfig(arrival_rate_per_min=6.0, mean_holding_s=300.0),
)


class TestSimulateIndoor:
    def test_empty_room(self):
        metrics = simulate_indoor(ScenarioConfig(user_count=0, duration_s=10.0, seed=1))
        assert metrics.fap_idle_fraction == 1.0
        assert sum(metrics.handovers.values()) == 0
        assert sum(metrics.admissions.values()) == 0

    def test_stationary_zone2_user_stays_on_lifi(self):
        config = ScenarioConfig(
            user_count=1,
            duration_s=30.0,
            seed=3,
            mobility=MobilityConfig(speed_min_mps=0.0, speed_max_mps=0.0),
            traffic=TrafficConfig(arrival_rate_per_min=0.0001, mean_holding_s=1e9, voice_fraction=0.0),
        )
        sim = _IndoorSim(config)
        sim._waypoint[0] = 4.0, 0.5  # it stands here until its first leg, of speed 0: Zone 2 of the 24x24 plan
        sim._next_event[0] = 0.0  # a data call arrives on the first tick
        metrics = sim.run()
        assert sim._positions[-1].tolist() == [[4.0, 0.5]]  # the last tick's row of the last block
        assert sim._codes[-1].tolist() == [Zone.Z2.value] and sim._zone.tolist() == [Zone.Z2.value]
        assert sim._ap.tolist() == [0]  # LiFi AP 0, at (4, 4), serves it
        assert metrics.admissions["accept_on_lifi"] == 1
        assert sum(metrics.handovers.values()) == 0
        assert metrics.active_at_end == 1
        assert metrics.fap_idle_fraction == 1.0

    def test_events_set_before_the_run_fire_on_their_ticks(self, monkeypatch):
        # A tick scans for due calls only from their kept minimum, which each block start takes again; a leg starts
        # at its pause end's exact time, in whichever block holds it.
        monkeypatch.setattr(engine, "_block_ticks", lambda terminal_count, ap_count: 4)
        config = ScenarioConfig(user_count=3, duration_s=2.0, seed=3,
                                traffic=TrafficConfig(arrival_rate_per_min=0.0001, mean_holding_s=1e9))
        sim, calls, leg_starts = _IndoorSim(config), [], []
        sim._next_event[...] = 0.0, 0.15, 0.95  # ticks 0 and 2 of block 0, and tick 2 of block 2
        sim._pause_end[...] = 0.1, 0.25, 1.55  # in block 0 twice, and between blocks 3 and 4; each stands until then
        start_call, draw_leg = sim._try_start_call, sim._draw_leg

        def recording_start_call(i, now):
            calls.append((i, round(now / 0.1)))
            start_call(i, now)

        def recording_draw_leg(i):
            leg_starts.append((i, sim._pause_end[i].item()))
            return draw_leg(i)

        sim._try_start_call, sim._draw_leg = recording_start_call, recording_draw_leg
        sim.run()
        assert calls == [(0, 0), (1, 2), (2, 10)]
        assert leg_starts == [(0, 0.1), (1, 0.25), (2, 1.55)]

    def test_fap_idles_once_its_last_slot_is_freed(self):
        sim = _IndoorSim(ScenarioConfig(user_count=1, seed=3))
        sim._next_event[0] = math.inf  # no call of its own on the first tick
        sim._start_block(np.array([[[0.0, 0.0]]]), range(1))  # a one-tick block; Zone 1: only the femtocell covers it
        assert sim._zone_entries.tolist() == [[0.0]] and sim._redecide == {0}  # its first tick decides every row
        sim._step(0, 0.0)
        assert sim._decisions.tolist() == [[policy.STAY]] and sim._redecide == set()  # no call: it stays
        fap, slots = sim._femto, PolicyConfig().fap_slots
        assert sim._ap.tolist() == [engine._NO_CALL]
        assert sim._codes.tolist() == [[Zone.Z1.value]] and sim._zone.tolist() == [Zone.Z1.value]
        assert sim._fap_idle
        sim._try_start_call(0, 0.0)
        assert sim._ap.tolist() == [fap] and sim._free[fap] == slots - 1
        assert not sim._fap_idle and sim._redecide == {0}  # its rows are decided again at the next evaluation
        sim._evaluate_handovers(0.0)
        assert sim._redecide == set() and sim._decisions.tolist() == [[policy.STAY]]  # a Zone 1 call stays
        sim._apply_idle_mode(0.0)
        assert not sim._fap_idle  # a Zone 1 user is never shifted
        sim._release_call(0, 1.0)
        assert sim._ap.tolist() == [engine._NO_CALL] and sim._next_event[0] > 1.0
        assert sim._free[fap] == slots and not sim._fap_idle
        sim._apply_idle_mode(1.0)
        assert sim._fap_idle
        arrival = math.ceil(sim._next_event[0] / 0.1)  # the tick of its next call, drawn outside any tick's loop
        sim._start_block(np.array([[[0.0, 0.0]]]), range(arrival, arrival + 1))  # which a block start takes in
        sim._step(0, arrival * 0.1)
        assert sim._ap.tolist() == [fap] and sim.metrics.admissions["accept_on_fap"] == 2

    def test_idle_mode_shifts_the_lone_zone3_user_to_lifi(self, monkeypatch):
        consulted, update = [], policy.fap_mode_update
        monkeypatch.setattr(policy, "fap_mode_update", lambda served: consulted.append(served) or update(served))
        sim = _IndoorSim(ScenarioConfig(user_count=2, seed=3))
        sim._next_event[...] = math.inf  # no call arrives on its own
        sim._start_block(np.array([[[1.0, 1.0], [8.0, 8.0]]]), range(1))  # Zone 3 of LiFi AP 0, and Zone 1
        fap, lifi_slots = sim._femto, PolicyConfig().lifi_slots
        sim._occupy(0, fap)
        sim._capacity[0] = sim._free[0] = 0  # its one covering AP has no free slot: it stays on the femtocell
        sim._step(0, 0.0)  # its dwell is under T_h1, so no handover moves it
        assert sim._ap.tolist() == [fap, engine._NO_CALL] and not sim._fap_idle
        sim._capacity[0] = sim._free[0] = lifi_slots
        sim._step(0, 0.0)  # the same tick with a free slot: idle mode moves it
        assert sim._decisions.tolist() == [[policy.STAY, policy.STAY]]
        assert sim._ap.tolist() == [0, engine._NO_CALL] and sim._free[0] == lifi_slots - 1
        assert sim.metrics.handovers[HandoverKind.FEMTO_TO_LIFI.value] == 1 and sim._fap_idle  # idle at the tick's end
        assert consulted == [[(0, Zone.Z3.value)]] * 2

    def test_idle_mode_reads_no_serving_index_with_two_femtocell_users(self, monkeypatch):
        consulted, reads, update = [], [], policy.fap_mode_update
        monkeypatch.setattr(policy, "fap_mode_update", lambda served: consulted.append(served) or update(served))

        class ReadCounting(np.ndarray):
            def __eq__(self, other):
                reads.append(other)
                return np.ndarray.__eq__(self, other)

        sim = _IndoorSim(ScenarioConfig(user_count=2, seed=3))
        sim._next_event[...] = math.inf
        sim._start_block(np.array([[[1.0, 1.0], [23.0, 23.0]]]), range(1))  # Zone 3 of LiFi APs 0 and 8
        fap = sim._femto
        sim._occupy(0, fap)
        sim._occupy(1, fap)
        sim._step(0, 0.0)
        sim._ap = sim._ap.view(ReadCounting)
        sim._apply_idle_mode(0.0)
        assert sim._ap.tolist() == [fap, fap] and not sim._fap_idle  # nobody moves
        assert consulted == [] and reads == []  # the ledger's two calls decide it

    @pytest.mark.parametrize("corrupt", ["slot-moved-between-lifi-aps", "over-capacity", "idle-femtocell-serves",
                                         "femtocell-slot-without-a-call"])
    def test_slot_balance_is_checked_per_ap(self, corrupt):
        sim = _IndoorSim(ScenarioConfig(user_count=2, seed=3))
        sim._occupy(0, 0)  # terminal 0 calls on LiFi AP 0
        sim._check_slot_balance()
        if corrupt == "slot-moved-between-lifi-aps":  # the total of occupied slots stays the same
            sim._free[0], sim._free[1] = sim._free[0] + 1, sim._free[1] - 1
        elif corrupt == "over-capacity":  # every AP's slots still match its calls
            sim._capacity[0], sim._free[0] = 1, 0  # AP 0 has one slot, and terminal 0 holds it
            sim._occupy(1, 0)
        elif corrupt == "idle-femtocell-serves":
            sim._occupy(1, sim._femto)
            sim._fap_idle = True
        else:  # the femtocell holds a slot that no terminal's call accounts for
            sim._free[sim._femto] -= 1
        with pytest.raises(RuntimeError, match="slot leak"):
            sim._check_slot_balance()

    @pytest.mark.parametrize("write", ["_occupy", "_release_call"])
    def test_a_ledger_write_is_checked_on_its_own_tick(self, monkeypatch, write):
        # The ledger is checked only after a tick that wrote it, so a write that leaks a slot fails on its own tick.
        sim = _IndoorSim(ScenarioConfig(user_count=1, seed=3, traffic=TrafficConfig(mean_holding_s=1e9)))
        sim._next_event[0] = 0.0 if write == "_release_call" else 0.2  # a call starts at 0 s, or arrives at 0.2 s
        sim._start_block(np.array([[[4.0, 0.5]]] * 3), range(3))  # Zone 2: LiFi AP 0 serves it, the femtocell idles
        sim._step(0, 0.0)
        if write == "_release_call":
            assert sim._ap.tolist() == [0]
            sim._next_event[0], sim._first_event = 0.2, -math.inf  # the call ends at 0.2 s
        sim._step(1, 0.1)  # writes nothing
        original = getattr(sim, write)

        def leaking(i, *args):  # LiFi AP 1 loses a slot that no call holds
            original(i, *args)
            sim._free[1] -= 1

        monkeypatch.setattr(sim, write, leaking)
        with pytest.raises(RuntimeError, match="slot leak"):
            sim._step(2, 0.2)
        assert sim._ap.tolist() == ([0] if write == "_occupy" else [engine._NO_CALL]) and sim._fap_idle

    def test_bit_identical_reruns(self):
        m1 = simulate_indoor(BUSY)
        m2 = simulate_indoor(BUSY)
        assert m1.csv_rows() == m2.csv_rows()
        assert (m1.link_samples, m1.sinr_total_db, m1.capacity_total_bps) == (
            m2.link_samples, m2.sinr_total_db, m2.capacity_total_bps)

    def test_different_seeds_differ(self):
        m1 = simulate_indoor(BUSY)
        m2 = simulate_indoor(ScenarioConfig(**{**BUSY.__dict__, "seed": 8}))
        assert m1.csv_rows() != m2.csv_rows()

    def test_busy_run_produces_activity_and_keeps_slots_balanced(self):
        # _check_slot_balance raises on any leak; reaching the end proves it held.
        metrics = simulate_indoor(BUSY)
        assert sum(metrics.admissions.values()) > 10
        assert metrics.calls_released > 0
        assert metrics.link_samples > 0
        assert (metrics.handover_latency_total_s > 0) == (sum(metrics.handovers.values()) > 0)

    def test_zone_matches_position_after_run(self):
        sim = _IndoorSim(BUSY)
        sim.run()
        pts = sim._positions[-1]  # the last tick's row of the last block
        assert pts.tolist() == sim._on_legs(sim._times[-1:, None])[0].tolist()  # the legs the run ends on
        codes = classify_points(sim.plan, pts).tolist()
        assert sim._codes[-1].tolist() == codes
        assert sim._zone.tolist() == codes

    def test_gain_matrix_matches_position_after_run(self):
        # Handover evaluation and link sampling both read the block's (ticks, N, K) gains.
        sim = _IndoorSim(BUSY)
        sim.run()
        gains = optical_channel_gain(np.sqrt(sq_distances_to_every_ap(sim.plan, sim._positions[-1])), BUSY.optical)
        assert sim._gain.shape[1:] == (BUSY.user_count, sim.plan.ap_count)
        assert sim._gain[-1].tolist() == gains.tolist()

    def test_mobility_keeps_terminals_in_room(self, monkeypatch):
        blocks = []
        locate = _IndoorSim._locate

        def recording_locate(sim, positions):
            blocks.append(positions)
            locate(sim, positions)

        monkeypatch.setattr(_IndoorSim, "_locate", recording_locate)
        sim = _IndoorSim(BUSY)
        sim.run()
        ticks = np.concatenate(blocks)  # (ticks, N, 2): every terminal's position on every tick
        assert ticks.shape == (round(BUSY.duration_s / BUSY.mobility.tick_s), BUSY.user_count, 2)
        assert ticks[-1].tolist() == sim._positions[-1].tolist()
        for x, y in ticks.reshape(-1, 2).tolist():
            assert 0.0 <= x <= 24.0 and 0.0 <= y <= 24.0

    @pytest.mark.parametrize("config", [SLOT_STARVED, LOADED], ids=["slot-starved", "loaded"])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, config):
        derived = engine._block_ticks(config.user_count, plan_grid(config.room).ap_count)
        assert 1 < derived < round(config.duration_s / config.mobility.tick_s)  # several blocks
        runs = []
        for size in (1, 7, derived):
            monkeypatch.setattr(engine, "_block_ticks", lambda terminal_count, ap_count: size)
            m = simulate_indoor(config)
            runs.append((m.csv_rows(), m.link_samples, m.sinr_total_db, m.capacity_total_bps))
        assert runs[0] == runs[1] == runs[2]

    def test_common_random_numbers_across_user_count_and_policy(self, monkeypatch):
        # Each terminal draws from its own mobility and traffic streams, so terminal 0 walks the
        # same path and places its first call at the same time whatever the other terminals do.
        rows = []
        locate = _IndoorSim._locate

        def recording_locate(sim, positions):  # terminal 0's position on every tick
            rows.extend(positions[:, 0].tolist())
            locate(sim, positions)

        monkeypatch.setattr(_IndoorSim, "_locate", recording_locate)
        base, paths = replace(LOADED, duration_s=60.0), {}
        for users, t_h in ((10, 2.0), (60, 2.0), (60, 1.0), (60, 4.0)):
            simulate_indoor(replace(base, user_count=users, policy=PolicyConfig(t_h_s=t_h)))
            paths[users, t_h], rows[:] = list(rows), []
        assert len(paths[10, 2.0]) == 600 and len(set(map(tuple, paths[10, 2.0]))) > 300  # it walks
        assert paths[10, 2.0] == paths[60, 2.0]
        assert paths[60, 1.0] == paths[60, 4.0]
        first_arrival = [_IndoorSim(replace(base, user_count=users))._next_event[0] for users in (10, 60)]
        assert first_arrival[0] == first_arrival[1] < base.duration_s

    @pytest.mark.parametrize("config", [BUSY, replace(MOBILE, duration_s=60.0), SLOT_STARVED, MIXED, replace(
        ScenarioConfig(optical=OpticalParams(fov_semi_angle_deg=30.0)), duration_s=60.0),
        replace(LOADED, room=RoomConfig(100.0, 100.0), user_count=10, duration_s=10.0)],
        ids=["busy", "mobile", "slot-starved", "mixed", "fov30-zero-sinr", "loaded-121-aps"])
    def test_batched_run_equals_the_per_terminal_loop(self, config):
        batched, looped = simulate_indoor(config), indoor_run_reference(config)
        assert batched.csv_rows() == looped.csv_rows()
        assert (batched.link_samples, batched.sinr_total_db, batched.capacity_total_bps) == (
            looped.link_samples, looped.sinr_total_db, looped.capacity_total_bps)
        assert sum(batched.handovers.values()) + batched.handovers_rejected > 0

    @pytest.mark.parametrize("sample_order", ["terminal-major", "reversed"])
    def test_run_totals_do_not_depend_on_the_order_of_their_samples(self, sample_order):
        # Each total is one math.fsum of its samples, so the reference summing them in another order gives the same bits.
        batched, looped = simulate_indoor(MIXED), indoor_run_reference(MIXED, sample_order)
        assert batched.csv_rows() == looped.csv_rows()
        assert (batched.networks, batched.handover_latency_total_s) == (looped.networks, looped.handover_latency_total_s)

    @pytest.mark.parametrize("config", [SLOT_STARVED, MIXED, replace(LOADED, duration_s=20.0)],
                             ids=["slot-starved", "mixed", "loaded-20s"])
    def test_block_decisions_equal_a_fresh_decision_on_every_tick(self, monkeypatch, config):
        # The block's rows, decided on its first tick and again for each terminal whose call changed,
        # must be the rows one handover_decision call over the tick's own state gives.
        evaluate, acted = _IndoorSim._evaluate_handovers, []
        zone, entry = np.full(config.user_count, Zone.Z1.value), np.zeros(config.user_count)  # kept tick by tick

        def checking_evaluate(sim, now):
            codes = sim._codes[sim._tick]
            np.copyto(entry, now, where=codes != zone)
            zone[...] = codes
            decisions, targets = fresh_decisions(sim, now, entry)
            evaluate(sim, now)
            row = sim._decisions[sim._tick].tolist()
            assert row == decisions, f"tick {sim._tick} at {now} s"
            moving = [i for i, d in enumerate(row) if d == policy.TO_TARGET_LIFI]
            assert [sim._targets[sim._tick, i] for i in moving] == [targets[i] for i in moving]
            acted.extend(d for d in row if d != policy.STAY)

        monkeypatch.setattr(_IndoorSim, "_evaluate_handovers", checking_evaluate)
        simulate_indoor(config)
        assert {policy.TO_FAP, policy.TO_LIFI} <= set(acted)

    def test_no_policy_call_decides_zero_rows(self, monkeypatch):
        rows, decide = [], policy.handover_decision

        def counting(kinds, *args):
            rows.append(len(kinds))
            return decide(kinds, *args)

        monkeypatch.setattr(policy, "handover_decision", counting)
        simulate_indoor(LOADED)  # a release, or a guarded handover, re-decides no eligible row: no call
        assert rows and min(rows) > 0

    def test_block_size_fits_one_classify_slice(self):
        block = engine._block_ticks(60, 9)  # the most ticks whose entries fit
        assert block * 60 * 9 <= zoning._CLASSIFY_SLICE < (block + 1) * 60 * 9
        assert engine._block_ticks(0, 9) == zoning._CLASSIFY_SLICE  # an empty room
        assert engine._block_ticks(zoning._CLASSIFY_SLICE, 9) == 1  # one tick is more than a slice: still a block

    def test_handovers_occur_with_mobile_users(self):
        metrics = simulate_indoor(MOBILE)
        assert sum(metrics.handovers.values()) > 0
        assert all(v >= 0 for v in metrics.handovers.values())
        assert metrics.ahp_rank is not None

    def test_each_handover_kind_replays_once_per_run(self, monkeypatch):
        replayed = []

        def counting_run_handover(kind, policy):
            replayed.append(kind)
            return run_handover(kind, policy)

        monkeypatch.setattr(engine, "run_handover", counting_run_handover)
        metrics = simulate_indoor(MOBILE)
        assert sum(metrics.handovers.values()) > len(HandoverKind)
        assert sorted(replayed, key=list(HandoverKind).index) == list(HandoverKind)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(user_count=-1)
        with pytest.raises(ValueError):
            TrafficConfig(mean_holding_s=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(tick_s=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(fap_slots=0)
        with pytest.raises(ValueError, match="^speed_min_mps: "):  # far past any walking speed
            MobilityConfig(speed_min_mps=1e308, speed_max_mps=1e308, tick_s=2.0)
        for side in (0.0, -1.0, math.inf, math.nan):
            for name in ("room_x_m", "room_y_m", "coverage_radius_m"):
                with pytest.raises(ValueError, match=f"^{name}: "):
                    RoomConfig(**{name: side})

    def test_non_finite_duration_rejected_by_name(self):
        for duration in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^duration_s: "):
                ScenarioConfig(duration_s=duration)


def sim_on_legs(origin, velocity, arrival, waypoint, pause_end, **mobility) -> _IndoorSim:
    """A simulator whose terminals left ``origin`` at 0 s with ``velocity``, reach ``waypoint`` at ``arrival`` and stand
    there until ``pause_end``, under ``MobilityConfig(**mobility)``."""
    sim = _IndoorSim(ScenarioConfig(user_count=len(origin), seed=2, mobility=MobilityConfig(**mobility)))
    sim._origin[...], sim._velocity[...], sim._arrival[...] = origin, velocity, arrival
    sim._waypoint[...], sim._pause_end[...] = waypoint, pause_end
    return sim


def next_leg_draws(sim: _IndoorSim, i: int) -> tuple[float, float, float, float]:
    """The waypoint x and y, speed and pause that terminal i draws for its next leg, from a copy of its stream."""
    gen, mobility, room = copy.deepcopy(sim._mobility[i]), sim.cfg.mobility, sim.cfg.room
    return (gen.uniform(0.0, room.room_x_m), gen.uniform(0.0, room.room_y_m),
            gen.uniform(mobility.speed_min_mps, mobility.speed_max_mps), gen.uniform(mobility.pause_min_s, mobility.pause_max_s))


class TestLegs:
    # A terminal is at origin + (t - t0) * velocity before its arrival and on its waypoint from then to its pause end.

    def test_paused_terminal_keeps_its_bits_and_sign(self):
        # Its last legs ran towards negative x and y; a paused terminal's rows are its waypoint's bytes whatever
        # its velocity, so x = 0.0 must stay +0.0.
        waypoint = [[0.0, 0.0], [0.1, 23.9]]
        sim = sim_on_legs([[3.0, 2.0], [5.0, 1.0]], [[-30.0, -20.0], [-49.0, 229.0]], [0.1, 0.1], waypoint, [100.0] * 2)
        positions = sim._move_block(range(1, 6))
        assert positions.tobytes() == np.array([waypoint] * 5).tobytes()

    def test_walker_with_speed_zero_never_arrives_and_keeps_its_bits(self):
        sim = sim_on_legs([[0.3, 7.7]], [[0.0, 0.0]], [0.0], [[0.3, 7.7]], [0.0], speed_min_mps=0.0, speed_max_mps=0.0)
        wx, wy, _, _ = next_leg_draws(sim, 0)
        with np.errstate(all="raise"):  # it divides neither by its speed nor by a zero length
            positions = sim._move_block(range(5))
        assert positions.tobytes() == np.array([[[0.3, 7.7]]] * 5).tobytes()
        assert sim._waypoint.tolist() == [[wx, wy]] and sim._arrival.tolist() == sim._pause_end.tolist() == [math.inf]

    def test_a_zero_length_leg_arrives_as_it_starts(self):
        # The terminal stands on the very waypoint it draws next: its leg arrives at its start, and its pause runs.
        sim = sim_on_legs([[1.0, 1.0]], [[0.0, 0.0]], [0.0], [[1.0, 1.0]], [0.2], pause_min_s=1.0)
        wx, wy, _, pause = next_leg_draws(sim, 0)
        sim._waypoint[0] = wx, wy
        with np.errstate(all="raise"):
            positions = sim._move_block(range(5))
        assert positions.tobytes() == np.array([[[wx, wy]]] * 5).tobytes()
        assert sim._leg_start.tolist() == sim._arrival.tolist() == [0.2] and sim._velocity.tolist() == [[0.0, 0.0]]
        assert sim._pause_end.tolist() == [0.2 + pause]

    def test_a_pause_starts_at_the_exact_arrival_time(self):
        # At 2 m/s the leg ends between ticks, and the pause drawn with it runs from that instant, not from a tick.
        sim = sim_on_legs([[1.0, 1.0]], [[0.0, 0.0]], [0.0], [[1.0, 1.0]], [0.0], speed_min_mps=2.0, speed_max_mps=2.0,
                          pause_min_s=100.0, pause_max_s=100.0)
        wx, wy, speed, pause = next_leg_draws(sim, 0)
        positions, times = sim._move_block(range(200)), np.arange(200) * 0.1
        dx, dy = wx - 1.0, wy - 1.0
        arrival = math.sqrt(dx * dx + dy * dy) / speed
        assert sim._arrival.tolist() == [arrival] and sim._pause_end.tolist() == [arrival + pause]
        assert round(arrival / 0.1) * 0.1 != arrival < times[-1]
        arrived = times >= arrival
        assert (positions[arrived, 0] == (wx, wy)).all() and not (positions[~arrived, 0] == (wx, wy)).all(axis=1).any()

    def test_a_pause_set_from_outside_ends_at_its_time(self):
        # No kept minimum hides it: every block compares every pause end with its last tick.
        sim = sim_on_legs([[1.0, 1.0]], [[0.0, 0.0]], [0.0], [[1.0, 1.0]], [0.2])
        for steps, pause_end in ((range(5), 0.2), (range(5, 10), 0.75)):
            wx, wy, speed, _ = next_leg_draws(sim, 0)
            start = sim._waypoint[0].tolist()
            positions = sim._move_block(steps)
            assert sim._leg_start.tolist() == [pause_end] and sim._origin.tolist() == [start]
            assert sim._waypoint.tolist() == [[wx, wy]] and math.hypot(*sim._velocity[0]) == pytest.approx(speed)
            standing = np.array(steps) * 0.1 <= pause_end
            assert (positions[standing, 0] == start).all() and not (positions[~standing, 0] == start).all(axis=1).any()
            sim._arrival[0], sim._pause_end[0] = 0.0, 0.75  # it stands again, on its waypoint, until 0.75 s

    def test_block_positions_equal_the_scalar_closed_form(self):
        rng = np.random.default_rng(4)
        origin, waypoint, speed = rng.uniform(0.0, 24.0, (50, 2)), rng.uniform(0.0, 24.0, (50, 2)), rng.uniform(0.5, 1.5, 50)
        legs = []
        for (x, y), (wx, wy), v in zip(origin.tolist(), waypoint.tolist(), speed.tolist()):
            dx, dy = wx - x, wy - y
            dist = math.sqrt(dx * dx + dy * dy)
            legs.append(((x, y), (dx / dist * v, dy / dist * v), dist / v, (wx, wy)))
        origins, velocity, arrival, waypoints = map(list, zip(*legs))
        sim = sim_on_legs(origins, velocity, arrival, waypoints, [math.inf] * 50)
        positions = sim._move_block(range(0, 400, 7))  # 0 to 39.9 s: every leg ends on the way
        for tick, row in zip(range(0, 400, 7), positions.tolist()):
            t = tick * 0.1
            assert row == [[x + t * vx, y + t * vy] if t < end else list(w)
                           for (x, y), (vx, vy), end, w in legs], f"at {t} s"
        assert (positions[-1] == waypoint).all()

    def test_positions_at_shared_instants_do_not_depend_on_the_tick(self, monkeypatch):
        # A leg starts at the exact pause end, so with the same draws a tick of tick_s / 2 passes through the same
        # positions at every instant the two ticks share, and nowhere rounds a leg to whole ticks.
        blocks, locate = [], _IndoorSim._locate
        monkeypatch.setattr(_IndoorSim, "_locate", lambda sim, positions: blocks.append(positions) or locate(sim, positions))
        runs = []
        for tick_s in (0.1, 0.05):
            config = replace(MOBILE, duration_s=60.0, mobility=replace(MOBILE.mobility, tick_s=tick_s))
            simulate_indoor(config)
            runs.append(np.concatenate(blocks))
            blocks.clear()
        coarse, fine = runs
        assert fine.shape == (2 * len(coarse), MOBILE.user_count, 2)
        assert coarse.tobytes() == fine[::2].tobytes()
        assert len(np.unique(coarse[:, 0], axis=0)) > 300  # terminal 0 walks


class TestCoveringOrder:
    # Covering APs are sorted where they are read: nearest first, and a tie goes to the lower row-major index.

    def test_covering_equals_brute_force_on_121_ap_blocks(self):
        sim = _IndoorSim(ScenarioConfig(room=RoomConfig(100.0, 100.0), user_count=60, seed=4))
        plan, block, shared = sim.plan, engine._block_ticks(60, 121), 0
        assert plan.ap_count == 121 and block > 1
        for first in range(0, 5 * block, block):
            sim._start_block(sim._move_block(range(first, first + block)), range(first, first + block))
            for tick in range(block):
                sim._tick = tick
                for i, row in enumerate(sq_distances_to_every_ap(plan, sim._positions[tick]).tolist()):
                    expected = [j for _, j in sorted((math.sqrt(d2), j) for j, d2 in enumerate(row)
                                                     if d2 <= plan.coverage_radius_m**2)]
                    assert sim._covering(i) == expected
                    shared += len(expected) > 1
        assert shared > 0  # Zone 4 rows, covered by two APs

    def test_a_tie_goes_to_the_lower_index(self):
        # (8, 4) is 4 m from the APs at (4, 4) and (12, 4), columns 0 and 1 of the default plan: Zone 4.
        sim = _IndoorSim(ScenarioConfig(user_count=1))
        sim._start_block(np.array([[[8.0, 4.0]]]), range(1))
        sim._tick = 0
        assert sim._codes.tolist() == [[Zone.Z4.value]] and sim._covering(0) == [0, 1]
        # At 6 m coverage, (8, 8) lies sqrt(32) m from four APs: a Zone 4 row's target is the first of them not serving.
        sim = _IndoorSim(ScenarioConfig(room=RoomConfig(coverage_radius_m=6.0), user_count=1))
        sim._start_block(np.array([[[8.0, 8.0]]]), range(1))
        sim._tick = 0
        assert sim._covering(0) == [0, 1, 3, 4]
        for serving, target in ((4, 0), (0, 1)):
            sim._ap[0] = serving
            sim._decide(0, np.array([0]))
            assert sim._targets.tolist() == [[target]]


def fresh_decisions(sim, now: float, zone_entry: np.ndarray) -> tuple[list[int], list[int | None]]:
    """The handover decision of every terminal on the current tick from that tick's state alone, and its Zone 4 target.

    One ``policy.handover_decision`` call over the in-call terminals past the ``t_h_s`` guard that are not voice
    on the femtocell; every other terminal stays. ``zone_entry`` holds the tick's zone-entry clocks.
    """
    fap, thresholds, tick = sim._femto, sim.cfg.policy, sim._tick
    decisions, targets, rows, columns = [policy.STAY] * len(sim._ap), [None] * len(sim._ap), [], []
    for i, serving in enumerate(sim._ap.tolist()):
        guarded = now - sim._last_handover[i] < thresholds.t_h_s
        if serving == engine._NO_CALL or guarded or (serving == fap and sim._voice[i]):
            continue
        zone, s_serving, s_target = int(sim._codes[tick, i]), -math.inf, -math.inf
        if serving != fap and zone == Zone.Z4.value:
            targets[i] = target = next(j for j in sim._covering(i) if j != serving)
            tx, gain, dist = sim.cfg.optical.tx_optical_power_W, sim._gain[tick, i], sim._covering_dist[tick, i]
            powers = (tx * gain[j] if dist[j] < math.inf else 0.0 for j in (serving, target))  # 0 W if uncovered
            s_serving, s_target = (10.0 * math.log10(p) if p > 0 else -math.inf for p in powers)
        rows.append(i)
        columns.append((policy.FAP if serving == fap else policy.LIFI, zone, s_serving, s_target, now - zone_entry[i]))
    if rows:
        kinds, zones, s_serving, s_target, dwell = (np.array(column) for column in zip(*columns))
        codes = policy.handover_decision(kinds.astype(np.int8), zones.astype(np.int8), s_serving, s_target, dwell,
                                         thresholds)
        for i, code in zip(rows, codes.tolist()):
            decisions[i] = code
    return decisions, targets


def reading(codes: np.ndarray, nearest: np.ndarray):
    """A ``locate`` for ``lifi_assignment_idle`` that reads user ``u``'s column of (placements, users) arrays: the
    nearest AP of a Zone 2 or 3 user is its sole cover, and any other user has none (-1)."""
    return lambda u, rows: np.where(np.isin(codes[rows, u], (2, 3)), nearest[rows, u], -1)


def idle_outcomes(codes: np.ndarray, nearest: np.ndarray, ap_count: int, lifi_slots: int) -> np.ndarray:
    """Each placement's idle outcome under ``lifi_assignment_idle``: entry (i, u) holds for users 0..u of placement i.

    The rows that ``locate`` is asked for user u + 1 are the placements idle after user u; one trailing user, outside
    every AP, asks for the rows idle after the last. Checks that the counts add up those rows, that no call gets an
    empty ``rows`` and that no call follows a count of 0."""
    placements, users = codes.shape
    locate, calls = reading(codes, nearest), []

    def recording(u, rows):
        calls.append(rows.copy())
        return locate(u, rows) if u < users else np.full(len(rows), -1)

    counts = lifi_assignment_idle(recording, placements, users + 1, ap_count, lifi_slots)
    idle = np.zeros((placements, users), dtype=bool)
    for u, rows in enumerate(calls[1:]):
        idle[rows, u] = True
    assert counts.tolist() == [placements, *idle.sum(axis=0).tolist(), 0]
    assert all(len(rows) for rows in calls) and len(calls) == np.count_nonzero(counts[:users + 1])
    return idle


def spy_placement_spawns(monkeypatch) -> list:
    """Every generator that fig16's placement stream spawns from now on, in order."""
    children = []

    class Placement:  # the placement stream, keeping every generator it spawns
        def __init__(self, gen):
            self.gen = gen

        def spawn(self, n):
            children.extend(self.gen.spawn(n))
            return children[-n:]

    def spying_streams(seed):
        streams = spawn_streams(seed)
        return {**streams, "placement": Placement(streams["placement"])}

    monkeypatch.setattr(engine, "spawn_streams", spying_streams)
    return children


class TestIdleProbabilityExperiment:
    CFG = IdleExperimentConfig(placements=4000, seed=5)
    # 121 APs and 45,000 placements: one chunk of at most _MC_CHUNK = 2**18; with THREE_CHUNKS as _MC_CHUNK, three
    # chunks, the last partial
    WIDE = IdleExperimentConfig(room=RoomConfig(100.0, 100.0), placements=45_000, seed=3)
    THREE_CHUNKS = 17_331

    def test_zero_users_is_certain_idle(self):
        assert idle_probability_experiment(replace(self.CFG, user_count_max=0)) == [(0, 1.0, 1.0)]

    def test_columns_monotone_non_increasing(self):
        # Every user count reads the same placements, so the empirical
        # column is monotone exactly, not just within sampling noise.
        rows = idle_probability_experiment(self.CFG)
        empirical = [r[1] for r in rows]
        closed = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(empirical, empirical[1:]))
        assert all(a >= b for a, b in zip(closed, closed[1:]))
        assert empirical[0] == 1.0 and empirical[-1] < empirical[1]

    def test_row_does_not_depend_on_user_count_max(self):
        rows = idle_probability_experiment(self.WIDE)
        for most in (0, 3, 12):
            assert idle_probability_experiment(replace(self.WIDE, user_count_max=most)) == rows[:most + 1]

    def test_empirical_below_closed_form_bound(self):
        rows = idle_probability_experiment(replace(self.CFG, user_count_max=12))
        for p, empirical, bound in rows:
            sigma = math.sqrt(max(empirical * (1 - empirical), 1e-12) / self.CFG.placements)
            assert empirical <= bound + 3 * sigma

    def test_reference_path_agrees_with_vectorized_rule(self):
        plan = plan_grid(RoomConfig(24.0, 24.0, 5.0))
        gen = np.random.Generator(np.random.PCG64(17))
        for _ in range(60):
            p = int(gen.integers(1, 5))
            pts = gen.random((p, 2)) * 24.0
            codes, nearest = classify_against_every_ap(plan, pts)
            zones = codes.tolist()
            fast = idle_outcomes(codes[None, :], nearest[None, :], plan.ap_count, 10)[0]
            assert fast.shape == (p,)
            for k in range(1, p + 1):  # every prefix of the users is a placement of k users
                assert bool(fast[k - 1]) == placement_idle_reference(zones[:k], lifi_slots=10, fap_slots=8)

    def test_prefix_overflow_of_one_ap(self):
        # Three users in Zone 2 under AP 0 with two LiFi slots: the third overflows,
        # and every longer prefix stays non-idle even when the next user fits elsewhere.
        codes = np.array([[2, 2, 2, 3]])
        nearest = np.array([[0, 0, 0, 1]])
        assert idle_outcomes(codes, nearest, ap_count=2, lifi_slots=2).tolist() == [[True, True, False, False]]
        assert lifi_assignment_idle(reading(codes, nearest), 1, 4, ap_count=2, lifi_slots=2).tolist() == [1, 1, 1, 0, 0]
        assert idle_outcomes(codes, np.array([[0, 1, 0, 1]]), 2, 2).tolist() == [[True] * 4]

    @pytest.mark.parametrize("lifi_slots", [1, 2, 3])
    @pytest.mark.parametrize("ap_count, here, elsewhere", [(2, 0, 1), (256, 255, 254), (300, 299, 43)])
    def test_overflow_is_checked_from_user_lifi_slots_on(self, lifi_slots, ap_count, here, elsewhere):
        # The first lifi_slots users always fit; user lifi_slots (0-based) is the first that can overflow an AP.
        # A Zone 1 user ends idle at once, though its -1 cover wraps to AP 255 in a 256-AP record; 299 and 43
        # are one AP modulo 256, so 300 APs need a wider record.
        users = lifi_slots + 2
        one_ap = [here] * users
        one_elsewhere = [elsewhere] + [here] * (users - 1)  # user lifi_slots is only the lifi_slots-th on its AP
        codes = np.array([[2] * users, [3] * users, [2] * (users - 1) + [1]])
        nearest = np.array([one_ap, one_elsewhere, one_elsewhere])
        fits = [True] * (lifi_slots + 1) + [False]
        expected = [[True] * lifi_slots + [False] * 2, fits, fits]
        assert lifi_assignment_idle_one_hot(codes, nearest, ap_count, lifi_slots).tolist() == expected
        assert idle_outcomes(codes, nearest, ap_count, lifi_slots).tolist() == expected
        assert lifi_assignment_idle(reading(codes, nearest), 3, users, ap_count, lifi_slots).tolist() == (
            [3] * (lifi_slots + 1) + [2, 0])

    @pytest.mark.parametrize("ap_count", [1, 2, 9, 121])
    def test_column_loop_matches_one_hot_reference(self, ap_count):
        # Mostly Zone 2/3 users, so long all-LiFi prefixes pile onto few slots and overflow is common.
        gen = np.random.default_rng(ap_count)
        overflowed = 0
        for p in (0, 1, 7, 25):
            for lifi_slots in (1, 2, 3):
                codes = gen.choice(np.arange(1, 5, dtype=np.int8), size=(400, p), p=[0.03, 0.47, 0.47, 0.03])
                nearest = gen.integers(0, ap_count, size=(400, p))
                expected = lifi_assignment_idle_one_hot(codes, nearest, ap_count, lifi_slots)
                assert idle_outcomes(codes, nearest, ap_count, lifi_slots).tolist() == expected.tolist()
                counts = lifi_assignment_idle(reading(codes, nearest), 400, p, ap_count, lifi_slots)
                assert counts.tolist() == [400, *expected.sum(axis=0).tolist()]
                all_lifi = np.logical_and.accumulate((codes == 2) | (codes == 3), axis=1)
                overflowed += int(np.count_nonzero(all_lifi & ~expected))
        assert overflowed > 100

    def test_fig16_classifies_in_cache_sized_slices(self, monkeypatch):
        cfg = self.WIDE
        expected = idle_probability_experiment(cfg)
        sizes = []

        def counting_window(plan, points, width=2):
            sizes.append(len(points))
            return sq_distances(plan, points, width)

        sq_distances = zoning.GridPlan.sq_distances
        monkeypatch.setattr(zoning.GridPlan, "sq_distances", counting_window)
        got = idle_probability_experiment(cfg)
        # User p is located only where users 0..p-1 left the placement idle.
        located = sum(round(empirical * cfg.placements) for _, empirical, _ in got[:20])
        assert max(sizes) <= zoning._CLASSIFY_SLICE and sum(sizes) == located < 20 * 45_000
        assert got == expected

    def test_locate_is_asked_only_for_placements_still_idle(self, monkeypatch):
        cfg = self.WIDE
        located, runs = np.zeros(20, dtype=np.int64), []

        def recording_idle(locate, placements, users, ap_count, lifi_slots):
            calls, covers = [], np.full((placements, users), -1)

            def recording(u, rows):
                calls.append(rows.copy())
                covers[rows, u] = cover = locate(u, rows)
                return cover

            idle = lifi_assignment_idle(recording, placements, users, ap_count, lifi_slots)
            # The rule on every located user, all users at once; an unlocated user follows the end of idle.
            codes, nearest = np.where(covers >= 0, 2, 1), np.maximum(covers, 0)
            still_idle = np.concatenate([lifi_assignment_idle_one_hot(codes[s:s + 1000], nearest[s:s + 1000], ap_count,
                                                                      lifi_slots) for s in range(0, placements, 1000)])
            assert idle.tolist() == [placements, *still_idle.sum(axis=0).tolist()]
            assert calls[0].tolist() == list(range(placements))
            for u, rows in enumerate(calls[1:]):
                assert rows.tolist() == np.flatnonzero(still_idle[:, u]).tolist()
            for u, rows in enumerate(calls):
                located[u] += len(rows)
            # No call after no placement is idle.
            assert len(calls) == users or (0 < len(calls) < users and idle[len(calls)] == 0)
            runs.append((placements, ap_count))
            return idle

        monkeypatch.setattr(engine, "lifi_assignment_idle", recording_idle)
        monkeypatch.setattr(zoning, "_MC_CHUNK", self.THREE_CHUNKS)
        got = idle_probability_experiment(cfg)
        assert runs == [(17_331, 121), (17_331, 121), (10_338, 121)]
        assert all(placements <= zoning._MC_CHUNK for placements, _ in runs)
        assert located.tolist() == [round(empirical * cfg.placements) for _, empirical, _ in got[:20]]
        assert located[0] == cfg.placements and 0 < located[-1] < located[1]

    def test_default_plan_runs_as_one_chunk(self, monkeypatch):
        runs = []

        def recording_idle(locate, placements, users, ap_count, lifi_slots):
            runs.append((placements, ap_count))
            return np.zeros(users + 1, dtype=np.int64)

        monkeypatch.setattr(engine, "lifi_assignment_idle", recording_idle)
        idle_probability_experiment(IdleExperimentConfig())
        assert runs == [(100_000, 9)]

    def test_many_users_stop_where_no_placement_is_idle(self):
        # Placements stop idling long before 10,000 users: the run keeps no (placements, users) array.
        tracemalloc.start()
        try:
            rows = idle_probability_experiment(IdleExperimentConfig(placements=2000, user_count_max=10_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        empirical = [e for _, e, _ in rows]
        last = max(p for p, e in enumerate(empirical) if e > 0)
        assert 0 < last < 100 and all(e == 0.0 for e in empirical[last + 1:])
        assert rows[:21] == idle_probability_experiment(IdleExperimentConfig(placements=2000))

    def test_each_chunk_draws_two_doubles_per_located_point(self, monkeypatch):
        # User u is drawn only for the placements still idle, users in order: each chunk's generator
        # yields exactly its located points, two doubles each, and no other number.
        cfg, children, chunks = self.WIDE, spy_placement_spawns(monkeypatch), []

        def recording_idle(*args):
            chunks.append([])
            return lifi_assignment_idle(*args)

        def recording_window(plan, points, width=2):
            chunks[-1].append(points.copy())
            return sq_distances(plan, points, width)

        monkeypatch.setattr(engine, "lifi_assignment_idle", recording_idle)
        monkeypatch.setattr(zoning, "_MC_CHUNK", self.THREE_CHUNKS)
        sq_distances = zoning.GridPlan.sq_distances
        monkeypatch.setattr(zoning.GridPlan, "sq_distances", recording_window)
        idle_probability_experiment(cfg)
        assert len(children) == len(chunks) == 3
        fresh = spawn_streams(cfg.seed)["placement"].spawn(3)
        for used, child, points in zip(children, fresh, chunks):
            located = sum(map(len, points))
            advanced = np.random.PCG64()
            advanced.state = child.bit_generator.state
            advanced.advance(2 * located)
            assert used.bit_generator.state == advanced.state
            drawn = child.random((located, 2)) * (cfg.room.room_x_m, cfg.room.room_y_m)
            assert np.concatenate(points).tolist() == drawn.tolist()

    @pytest.mark.parametrize("room, ap_count", [
        (RoomConfig(), 9), (RoomConfig(100.0, 100.0), 121), (RoomConfig(coverage_radius_m=0.1), 14_641),
        (RoomConfig(coverage_radius_m=0.01), 1_442_401)], ids=["9-aps", "121-aps", "14641-aps", "1442401-aps"])
    def test_chunks_do_not_depend_on_the_ap_count(self, monkeypatch, room, ap_count):
        # fig16 draws in the zone model's chunks of 2**18 placements at any AP count, one generator each, so one
        # placement more is one chunk more. The exact zone probabilities are stubbed: they cost 49 s at 1,442,401 APs.
        children, runs = spy_placement_spawns(monkeypatch), []

        def recording_idle(locate, placements, users, ap_count, lifi_slots):
            runs.append((placements, ap_count))
            assert len(runs) <= 2  # stop at once where chunks are smaller
            return lifi_assignment_idle(locate, placements, users, ap_count, lifi_slots)

        monkeypatch.setattr(engine, "exact_zone_probabilities", lambda plan: (0.25,) * 4)
        monkeypatch.setattr(engine, "lifi_assignment_idle", recording_idle)
        rows = idle_probability_experiment(IdleExperimentConfig(room=room, placements=2**18 + 1, user_count_max=1))
        assert runs == [(2**18, ap_count), (1, ap_count)] and len(children) == 2
        assert rows[0][1] == 1.0 and 0.0 < rows[1][1] < 1.0

    def test_exhaustive_enumeration_matches_closed_form(self):
        probs = exact_zone_probabilities(plan_grid(RoomConfig(24.0, 24.0, 5.0)))
        for p in (1, 2, 3):
            enumerated = enumerate_idle_probability(probs, p)
            direct = (probs[1] + probs[2]) ** p  # all users in Zone 2 or 3
            assert enumerated == pytest.approx(direct, abs=1e-12)

    def test_negative_user_count_max_rejected(self):
        with pytest.raises(ValueError, match="user_count_max"):
            replace(self.CFG, user_count_max=-1)

    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # One placement per chunk: each chunk's generator is spawned as it starts.
        monkeypatch.setattr(zoning, "_MC_CHUNK", 1)

        def peak(chunks):
            tracemalloc.start()
            try:
                idle_probability_experiment(IdleExperimentConfig(placements=chunks, user_count_max=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first run: module-level caches
        assert peak(2000) - peak(200) < 200_000

    def test_chunked_run_keeps_its_streams(self, monkeypatch):
        # 25 chunks of 40 placements: chunk k draws from the k-th of the placement stream's children.
        monkeypatch.setattr(zoning, "_MC_CHUNK", 40)
        rows = idle_probability_experiment(IdleExperimentConfig(placements=1000, seed=1, user_count_max=7))
        assert [empirical for _, empirical, _ in rows] == [1.0, 0.799, 0.648, 0.532, 0.429, 0.345, 0.267, 0.206]


class TestFemtoSinrExperiment:
    def test_no_interferers_reduces_to_snr(self):
        cfg = FemtoSinrConfig(fap_count=0, drops=16, seed=2)
        rf = cfg.rf
        results = femto_sinr_experiment(cfg)
        snr_frf1 = rf.fap_tx_dBm - femto_path_loss(8.0, rf, wall_count=0) - rf.noise_dBm(rf.femto_bandwidth_Hz)
        for _scheme, frf, mean_db, *_percentiles in results:
            expected = snr_frf1 + 10 * math.log10(frf)  # narrower band, less noise
            assert mean_db == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orderings_hold_per_seed(self, seed):
        cfg = FemtoSinrConfig(drops=1000, seed=seed)
        results = {(scheme, frf): mean_db for scheme, frf, mean_db, *_ in femto_sinr_experiment(cfg)}
        assert results[("hybrid", 1)] >= results[("pure", 1)]
        assert results[("hybrid", 4)] >= results[("pure", 4)]
        assert results[("pure", 4)] >= results[("pure", 1)]
        assert results[("hybrid", 4)] >= results[("hybrid", 1)]

    def test_single_cochannel_interferer_near_zero_db(self):
        rf = RfParams()
        signal = rf.fap_tx_dBm - femto_path_loss(8.0, rf, wall_count=0)
        interference = signal  # same distance, same wall count
        sinr_db = signal - 10 * math.log10(
            10 ** (interference / 10) + 10 ** (rf.noise_dBm(rf.femto_bandwidth_Hz) / 10)
        )
        assert -0.1 < sinr_db < 0.0

    def test_determinism(self):
        cfg = FemtoSinrConfig(drops=200, seed=4)
        assert femto_sinr_experiment(cfg) == femto_sinr_experiment(cfg)

    def test_drop_floor(self):
        with pytest.raises(ValueError, match="drops"):
            FemtoSinrConfig(drops=0)

    def test_loss_term_stays_in_the_power_domain(self):
        # At N = 100, links from 1e-3 m, the shortest a distance key holds, to 2e4 m, the longest, run finite; a
        # distance one ulp outside its key's interval fails.
        rf = RfParams(femto_loss_coeff=100.0)
        for user_m, radius_m in ((1e-3, 0.0), (1e-3, 1e4), (1e4, 1e4)):
            cfg = FemtoSinrConfig(drops=20, user_distance_m=user_m, min_link_distance_m=1e-3, deployment_radius_m=radius_m,
                                  rf=rf)
            assert all(math.isfinite(v) for row in femto_sinr_experiment(cfg) for v in row[2:])
        for field, value in (("user_distance_m", math.nextafter(1e-3, 0.0)),
                             ("min_link_distance_m", math.nextafter(1e-3, 0.0)),
                             ("deployment_radius_m", math.nextafter(1e4, math.inf))):
            with pytest.raises(ValueError, match=field):
                replace(cfg, **{field: value})

    def test_percentiles_equal_numpy_percentile(self):
        # fig17's p5/p50/p95 come from one sort by np.percentile's linear rule; the ends and random q check the rule.
        gen = np.random.default_rng(17)
        for n in [1, 2, 3, *gen.integers(1, 5001, size=200).tolist()]:
            values = gen.normal(size=n) * 10.0 ** gen.integers(-3, 4)
            qs = (0, 5, 50, 95, 100, *(gen.random(3) * 100.0).tolist())
            assert [engine._percentile(np.sort(values), q) for q in qs] == [float(np.percentile(values, q)) for q in qs], n


def at_spacing(config: HandoverSuccessConfig, spacing_m: float) -> HandoverSuccessConfig:
    """``config`` swept over the one spacing ``spacing_m``."""
    return replace(config, spacing_start_m=spacing_m, spacing_stop_m=spacing_m, spacing_count=1)


class TestHandoverSuccessExperiment:
    CFG = HandoverSuccessConfig(crossings=30_000, seed=9)

    def test_exact_curve_endpoints(self):
        assert lifi_crossing_success_exact(0.0, 5.0) == 1.0
        assert lifi_crossing_success_exact(10.0, 5.0) == 0.0
        assert lifi_crossing_success_exact(12.0, 5.0) == 0.0
        assert lifi_crossing_success_exact(6.0, 5.0) == pytest.approx(math.sqrt(25 - 9) / 5, rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        for d in (0.0, 2.0, 5.0, 8.0, 9.9, 10.0, 12.0):
            [(_, mc, hybrid)] = handover_success_experiment(at_spacing(self.CFG, d))
            assert hybrid == 1.0
            assert mc == pytest.approx(lifi_crossing_success_exact(d, 5.0), abs=0.01)

    def test_coincident_aps_always_succeed(self):
        assert handover_success_experiment(at_spacing(self.CFG, 0.0)) == [(0.0, 1.0, 1.0)]

    def test_validation(self):
        for field in ("spacing_start_m", "spacing_stop_m"):  # a negative spacing, at either end of the sweep
            with pytest.raises(ValueError, match=field):
                replace(self.CFG, **{field: -1.0})
        with pytest.raises(ValueError, match="spacing_count"):
            replace(self.CFG, spacing_count=0)
        with pytest.raises(ValueError):
            lifi_crossing_success_exact(1.0, 0.0)


class TestMonteCarloConvergence:
    def test_doubling_crossings_shrinks_std_error(self):
        # standard error should fall by about 1/sqrt(2) when sample count doubles
        d = 6.0
        estimates_n = []
        estimates_2n = []
        for seed in range(40):
            small = handover_success_experiment(at_spacing(HandoverSuccessConfig(crossings=500, seed=seed), d))
            big = handover_success_experiment(at_spacing(HandoverSuccessConfig(crossings=1000, seed=1000 + seed), d))
            estimates_n.append(small[0][1])
            estimates_2n.append(big[0][1])
        ratio = np.std(estimates_2n) / np.std(estimates_n)
        assert 0.45 < ratio < 1.1
