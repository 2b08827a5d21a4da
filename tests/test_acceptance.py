"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion reports a pass/fail line through the conftest hook. Time
budgets are asserted with ``time.perf_counter`` around the workload only.
"""

import math
import time
from itertools import product as iter_product

import pytest

from hybridnet import cli
from hybridnet.channel import (
    OpticalParams, RfParams,
    femto_path_loss, lambertian_index, macro_path_loss,
    optical_channel_gain, optical_sinr, shannon_capacity,
)
from hybridnet.engine import (
    FemtoSinrConfig, HandoverSuccessConfig, IdleExperimentConfig, PolicyConfig, femto_sinr_experiment,
    handover_success_experiment, idle_probability_experiment,
    lifi_crossing_success_exact,
)
from hybridnet.policy import fap_idle_probability
from hybridnet.protocol import HandoverKind, MessageKind, canonical_sequence, run_handover
from hybridnet.transport import (
    CarFollowScenario, VehicleLink, macro_snr_dB, outage_sweep, reliability_sweep,
)
from hybridnet.zoning import (
    RoomConfig, analytic_zone_areas, exact_zone_probabilities, monte_carlo_zone_model, occupancy_probability, plan_grid,
)
from oracles import enumerate_idle_probability

TABLE = OpticalParams()
RF = RfParams()


def test_criterion_1_grid_planning():
    start = time.perf_counter()
    plan = plan_grid(RoomConfig(24.0, 24.0, 5.0))
    elapsed = time.perf_counter() - start
    assert plan.ap_count == 9
    assert plan.n_x == 3 and plan.n_y == 3
    assert abs(plan.d_x_m - 8.0) <= 1e-12 and abs(plan.d_y_m - 8.0) <= 1e-12
    assert abs(plan.l_x_m - 2.0) <= 1e-12 and abs(plan.l_y_m - 2.0) <= 1e-12
    assert elapsed < 1e-3


def test_criterion_2_formula_oracles():
    start = time.perf_counter()

    # Lambertian order and LOS gain
    m = math.log(2) / -math.log(math.cos(math.radians(60.0)))
    assert lambertian_index(OpticalParams(half_intensity_angle_deg=60.0)) == pytest.approx(m, rel=1e-9)
    g = 1.5**2  # FOV 90 degrees
    h0 = (m + 1) * 1e-4 / (2 * math.pi * 4.0) * g
    assert h0 == pytest.approx(1.7905e-5, abs=1e-9)
    assert optical_channel_gain(0.0, TABLE) == pytest.approx(h0, rel=1e-9)
    cos_t = 2.0 / math.sqrt(8.0)
    h2 = (m + 1) * 1e-4 / (2 * math.pi * 8.0) * g * cos_t**m * cos_t
    assert optical_channel_gain(2.0, TABLE) == pytest.approx(h2, rel=1e-9)

    # electrical SINR and capacity
    sinr = (0.53 * 6.0 * h0) ** 2 / (1e-21 * 20e6)
    assert optical_sinr(h0, [], TABLE) == pytest.approx(sinr, rel=1e-9)
    assert shannon_capacity(sinr, 20e6) == pytest.approx(20e6 * math.log2(1 + sinr), rel=1e-9)

    # macro path loss with the antenna-correction term
    log_f = math.log10(1800.0)
    a_hm = 1.1 * (log_f - 0.7) - (1.56 * log_f - 0.8)
    hata = (69.55 + 26.16 * log_f - 13.82 * math.log10(50.0) - a_hm
            + (44.9 - 6.55 * math.log10(50.0)) * math.log10(0.5))
    assert hata + 20.0 == pytest.approx(142.53, abs=0.005)
    assert macro_path_loss(0.5, RF, 20.0) == pytest.approx(hata + 20.0, rel=1e-9)

    # femto path loss
    femto8 = 20 * log_f + 28 * math.log10(8.0) - 28
    assert femto8 == pytest.approx(62.39, abs=0.005)
    assert femto_path_loss(8.0, RF, wall_count=0) == pytest.approx(femto8, rel=1e-9)

    # zone-2 closed-form area
    a_z2 = analytic_zone_areas(plan_grid(RoomConfig(24.0, 24.0, 5.0)))[1]
    assert a_z2 == pytest.approx(9 * math.pi * 16.0, rel=1e-9)

    # zone occupancy binomial
    assert occupancy_probability(10, 0.25, 2) == pytest.approx(
        math.comb(10, 2) * 0.25**2 * 0.75**8, rel=1e-9
    )

    # idle-mode closed form
    q = 0.2146
    eq_idle = (1 - q) ** 5 + 5 * q * (1 - q) ** 4
    assert fap_idle_probability(5, (q, 0.7854, 0.0, 0.0)) == pytest.approx(eq_idle, rel=1e-9)

    assert time.perf_counter() - start < 1.0


def test_criterion_3_zone_partition():
    start = time.perf_counter()
    plan = plan_grid(RoomConfig(24.0, 24.0, 5.0))
    samples = 10_000_000
    model = monte_carlo_zone_model(plan, samples, seed=42)
    assert sum(model.zone_probs) == 1.0
    assert sum(model.sample_counts) == samples

    # Within 4 multinomial standard errors of the exact probabilities (about 5e-4 for Z4).
    for got, want in zip(model.zone_probs, exact_zone_probabilities(plan)):
        assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / samples)

    a_z1, a_z2, a_z3, a_z4 = analytic_zone_areas(plan)
    seg = 2.0437638599160546
    assert a_z1 == pytest.approx(576 - 9 * math.pi * 25 + 36 * 2 * seg, rel=1e-6)
    assert a_z2 == pytest.approx(9 * math.pi * 16, rel=1e-12)
    assert a_z4 == pytest.approx(36 * 2 * seg, rel=1e-6)
    # documented residual: the closed forms overcount, summing to ab + A_Z4
    assert a_z1 + a_z2 + a_z3 + a_z4 == pytest.approx(576.0 + a_z4, rel=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_4_idle_mode():
    start = time.perf_counter()
    config = IdleExperimentConfig(placements=100_000, seed=9)
    user_counts = list(range(1, 21))
    rows = idle_probability_experiment(config, user_counts)
    zone_probs = exact_zone_probabilities(plan_grid(config.room))

    closed = [fap_idle_probability(p, zone_probs) for p in range(0, 22)]
    assert all(a >= b for a, b in zip(closed, closed[1:]))
    assert all(a > b for a, b in zip(closed[1:], closed[2:]))  # strict from p >= 1

    for p, empirical, bound in rows:
        sigma = math.sqrt(max(empirical * (1.0 - empirical), 1e-12) / config.placements)
        assert empirical <= bound + 3.0 * sigma, f"p={p}: {empirical} > {bound} + 3 sigma"

    for p in (1, 2, 3):
        enumerated = enumerate_idle_probability(zone_probs, p)
        expected = (zone_probs[1] + zone_probs[2]) ** p
        assert enumerated == pytest.approx(expected, abs=1e-12)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_femto_sinr_orderings():
    start = time.perf_counter()
    for seed in range(5):
        cfg = FemtoSinrConfig(fap_count=50, deployment_radius_m=100.0, user_distance_m=8.0,
                              drops=1000, seed=seed)
        means = {(scheme, frf): mean_db for scheme, frf, mean_db, *_ in femto_sinr_experiment(cfg, RF)}
        assert means[("hybrid", 1)] >= means[("pure", 1)], f"seed {seed}"
        assert means[("hybrid", 4)] >= means[("pure", 4)], f"seed {seed}"
        assert means[("pure", 4)] >= means[("pure", 1)], f"seed {seed}"
        assert means[("hybrid", 4)] >= means[("hybrid", 1)], f"seed {seed}"
    assert time.perf_counter() - start < 60.0


def test_criterion_6_handover_success():
    start = time.perf_counter()
    spacings = [0.0, 1.0, 2.5, 4.0, 5.0, 6.0, 7.5, 8.0, 9.0, 9.5, 10.0, 11.0, 12.0]
    rows = handover_success_experiment(HandoverSuccessConfig(crossings=100_000, seed=13), spacings)
    for d, lifi_mc, hybrid in rows:
        assert hybrid == 1.0
        exact = lifi_crossing_success_exact(d, 5.0)
        if d >= 10.0:
            assert lifi_mc == 0.0 and exact == 0.0
        else:
            assert lifi_mc == pytest.approx(exact, abs=0.01)
    assert time.perf_counter() - start < 30.0


def test_criterion_7_protocol_conformance():
    start = time.perf_counter()
    expected_counts = {
        HandoverKind.LIFI_TO_FEMTO: 25,
        HandoverKind.FEMTO_TO_LIFI: 26,
        HandoverKind.LIFI_TO_LIFI: 27,
    }
    for kind, count in expected_counts.items():
        trace = run_handover(kind, PolicyConfig(per_hop_latency_s=0.005))
        assert trace.complete and len(trace.messages) == count
        kinds = [m.kind for m in trace.messages]
        assert kinds.count(MessageKind.HO_COMPLETE) == 1
        assert kinds.index(MessageKind.HO_COMPLETE) < kinds.index(MessageKind.LINK_DELETE)

    # Every single-step drop: the trace is a prefix of its table, with at most one handover-complete, and the
    # serving link is deleted only after the handover completes.
    for kind, count in expected_counts.items():
        table = [(s.kind, s.sender, s.receiver) for s in canonical_sequence(kind)]
        for drop_step in range(1, count + 1):
            trace = run_handover(kind, PolicyConfig(per_hop_latency_s=0.005), drop_step=drop_step)
            assert not trace.complete and trace.failed_step == drop_step
            assert [(m.kind, m.sender, m.receiver) for m in trace.messages] == table[:drop_step - 1]
            completes = [m for m in trace.messages if m.kind is MessageKind.HO_COMPLETE]
            assert len(completes) <= 1
            if any(m.kind is MessageKind.LINK_DELETE for m in trace.messages):
                assert len(completes) == 1
    assert time.perf_counter() - start < 60.0


def test_criterion_8_transport_orderings():
    start = time.perf_counter()
    distances = [0.05 + 0.03 * i for i in range(100)]
    for d in distances:
        gap = macro_snr_dB(d, RF, 0.0) - macro_snr_dB(d, RF, RF.vehicle_wall_loss_dB)
        assert abs(gap - 10.0) <= 1e-12
    for _, p_direct, p_relayed in outage_sweep(distances, VehicleLink(), RF):
        assert p_relayed <= p_direct
    sweep = reliability_sweep([5.0 + 0.45 * i for i in range(100)], CarFollowScenario())
    assert len(sweep) == 100
    for _, rf_only, owc_only, hybrid in sweep:
        assert hybrid >= max(rf_only, owc_only)
    assert time.perf_counter() - start < 30.0


def test_criterion_9_deterministic_csv(tmp_path):
    config_path = tmp_path / "small.yaml"
    config_path.write_text(
        "zoning: {mc_samples: 16384}\n"
        "engine:\n"
        "  fig16: {placements: 2000, user_count_max: 5}\n"
        "  fig17: {drops: 200}\n"
        "  fig18: {crossings: 2000, spacing_count: 7}\n"
        "transport:\n"
        "  fig19: {distance_count: 10}\n"
        "  fig20: {distance_count: 10}\n"
        "  fig21: {distance_count: 10}\n"
    )
    for name in ("fig16", "fig17", "fig18", "fig19", "fig20", "fig21"):
        first = tmp_path / f"{name}_first"
        second = tmp_path / f"{name}_second"
        for out in (first, second):
            code = cli.main(["experiment", name, "--config", str(config_path), "--seed", "21", "--out", str(out)])
            assert code == 0
        assert (first / f"{name}.csv").read_bytes() == (second / f"{name}.csv").read_bytes()
