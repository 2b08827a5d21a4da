"""Vehicle capacity, outage and car-following reliability tests."""

import math
from dataclasses import replace
from statistics import NormalDist

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridnet import channel, transport
from hybridnet.channel import OpticalParams, RfParams
from hybridnet.transport import (
    CarFollowScenario, VehicleLink, capacity_sweep, macro_snr_dB, outage_sweep, reliability_sweep,
)
from oracles import car_follow_uptime_sampled

RF = RfParams()
OPTICAL = OpticalParams()
LINK = VehicleLink()
CAR = CarFollowScenario()


def _hata_db(d_km: float, wall_db: float) -> float:
    log_f = math.log10(1800.0)
    a_hm = 1.1 * (log_f - 0.7) - (1.56 * log_f - 0.8)
    return (
        69.55 + 26.16 * log_f - 13.82 * math.log10(50.0) - a_hm
        + (44.9 - 6.55 * math.log10(50.0)) * math.log10(d_km) + wall_db
    )


class TestVehicleCapacity:
    def test_reference_distance_against_link_budget_oracle(self):
        noise = -174.0 + 10 * math.log10(10e6)
        snr_direct = 46.0 - _hata_db(0.5, 10.0) - noise
        snr_backhaul = 46.0 - _hata_db(0.5, 0.0) - noise
        direct_oracle = 10e6 * math.log2(1 + 10 ** (snr_direct / 10))
        backhaul_oracle = 10e6 * math.log2(1 + 10 ** (snr_backhaul / 10))
        assert direct_oracle == pytest.approx(58e6, rel=0.01)
        assert backhaul_oracle == pytest.approx(91e6, rel=0.01)

        [(_, direct, relayed)] = capacity_sweep([0.5], LINK, OPTICAL, RF)
        assert direct == pytest.approx(direct_oracle, rel=1e-9)
        # the 6 W LiFi access link is far above the backhaul, so it is not the bottleneck
        assert relayed == pytest.approx(backhaul_oracle, rel=1e-9)

    def test_relayed_beats_direct_when_access_is_not_bottleneck(self):
        for d in (0.2, 0.5, 1.0, 2.0):
            [(_, direct, relayed)] = capacity_sweep([d], LINK, OPTICAL, RF)
            assert relayed >= direct

    def test_access_link_can_bottleneck(self):
        # a weak femto access hop caps the relayed rate
        weak_rf = RfParams(fap_tx_dBm=-60.0)
        link = replace(LINK, in_vehicle_access="fap", access_femto_distance_m=8.0)
        [(_, _, relayed)] = capacity_sweep([0.5], link, OPTICAL, weak_rf)
        backhaul = 10e6 * math.log2(1 + 10 ** ((46.0 - _hata_db(0.5, 0.0) + 104.0) / 10))
        assert relayed < backhaul

    def test_zero_vehicle_loss_equalizes_snr(self):
        # with no vehicle wall the direct link and the relay's backhaul see the same SNR in both sweeps
        rf = RfParams(vehicle_wall_loss_dB=0.0)
        [(_, direct, relayed)] = capacity_sweep([0.5], LINK, OPTICAL, rf)
        assert direct == relayed  # the LiFi access hop is not the bottleneck
        link = replace(LINK, sinr_threshold_relay_dB=LINK.sinr_threshold_user_dB)
        [(_, p_direct, p_relayed)] = outage_sweep([0.5], link, rf)
        assert p_direct == p_relayed

    def test_backhaul_gap_is_exactly_the_wall_loss(self):
        for d in (0.1, 0.5, 1.0, 3.0):
            gap = macro_snr_dB(d, RF, 0.0) - macro_snr_dB(d, RF, RF.vehicle_wall_loss_dB)
            assert gap == pytest.approx(10.0, abs=1e-12)

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            capacity_sweep([0.0], LINK, OPTICAL, RF)
        with pytest.raises(ValueError):
            VehicleLink(shadowing_sigma_dB=0.0)
        for field, value in (("access_horizontal_distance_m", -1.0), ("access_horizontal_distance_m", math.inf),
                             ("access_horizontal_distance_m", 1.0e151),
                             ("access_femto_distance_m", 0.0), ("access_femto_distance_m", math.inf),
                             ("in_vehicle_access", "wifi")):
            with pytest.raises(ValueError, match=field):
                VehicleLink(**{field: value})


    def test_access_is_chosen_by_its_label(self):
        # 6 W straight below a 60-degree AP 2 m up: H = 2 A / (2 pi h^2) n^2, SINR = (R P H)^2 / (N0 B)
        gain = 2 * 1e-4 / (2 * math.pi * 2.0**2) * 1.5**2
        lifi_oracle = 20e6 * math.log2(1 + (0.53 * 6.0 * gain) ** 2 / (1e-21 * 20e6))
        # a 7 dBm femtocell 2 m away, no walls, over -104 dBm of noise
        femto_rx = 7.0 - (20 * math.log10(1800.0) + 28.0 * math.log10(2.0) - 28.0)
        femto_oracle = 10e6 * math.log2(1 + 10 ** ((femto_rx + 104.0) / 10))
        lifi = transport.access_capacity_bps(VehicleLink(in_vehicle_access="lifi"), OPTICAL, RF)
        fap = transport.access_capacity_bps(VehicleLink(in_vehicle_access="fap"), OPTICAL, RF)
        assert lifi == pytest.approx(lifi_oracle, rel=1e-9)
        assert fap == pytest.approx(femto_oracle, rel=1e-9)
        assert lifi > fap


class TestVehicleOutage:
    def test_against_normal_cdf_oracle(self):
        oracle = NormalDist()
        for d in (0.2, 0.5, 1.5):
            [(_, p_direct, p_relayed)] = outage_sweep([d], LINK, RF)
            mean_direct = macro_snr_dB(d, RF, RF.vehicle_wall_loss_dB)
            mean_relay = macro_snr_dB(d, RF, 0.0)
            assert p_direct == pytest.approx(oracle.cdf((9.0 - mean_direct) / 8.0), rel=1e-12)
            assert p_relayed == pytest.approx(oracle.cdf((5.0 - mean_relay) / 8.0), rel=1e-12)

    def test_twenty_db_margin_point(self):
        # choose the threshold 20 dB below the mean: outage = Phi(-2.5)
        mean = macro_snr_dB(0.5, RF, RF.vehicle_wall_loss_dB)
        link = replace(LINK, sinr_threshold_user_dB=mean - 20.0)
        [(_, p_direct, _)] = outage_sweep([0.5], link, RF)
        assert p_direct == pytest.approx(0.0062, abs=5e-5)
        assert p_direct == pytest.approx(NormalDist().cdf(-2.5), rel=1e-12)

    def test_relay_never_worse(self):
        for d, p_direct, p_relayed in outage_sweep([0.1 + 0.05 * i for i in range(40)], LINK, RF):
            assert p_relayed <= p_direct

    def test_monotone_in_distance(self):
        rows = outage_sweep([0.1 + 0.1 * i for i in range(20)], LINK, RF)
        for (_, d1, r1), (_, d2, r2) in zip(rows, rows[1:]):
            assert d2 >= d1 and r2 >= r1

    def test_vanishing_shadowing(self):
        link = replace(LINK, shadowing_sigma_dB=1e-9)
        [(_, p_direct, p_relayed)] = outage_sweep([0.1], link, RF)
        assert p_direct == pytest.approx(0.0, abs=1e-12)
        assert p_relayed == pytest.approx(0.0, abs=1e-12)


class TestCarLinkReliability:
    def test_close_gap_no_turn(self):
        scenario = CarFollowScenario(uturn_start_s=1e6)
        assert reliability_sweep([20.0], scenario) == [(20.0, 1.0, 1.0, 1.0)]

    def test_long_gap_straight_driving(self):
        scenario = CarFollowScenario(uturn_start_s=1e6)
        [(_, rf_only, owc_only, hybrid)] = reliability_sweep([40.0], scenario)
        assert rf_only == 0.0 and owc_only == 1.0 and hybrid == 1.0

    def test_turn_breaks_owc_for_expected_interval(self):
        scenario = CarFollowScenario()  # turn at 10 s, 30 s window
        speed = 40.0 / 3.6
        turn = math.pi * 10.0 / speed
        delay = 20.0 / speed
        outage = delay + turn * (1.0 - 2.0 * 30.0 / 180.0)
        expected = 1.0 - outage / 30.0
        [(_, _, owc_only, hybrid)] = reliability_sweep([20.0], scenario)
        assert owc_only == pytest.approx(expected, abs=2e-4)
        assert hybrid == 1.0  # RF bridges the turn at a 20 m gap

    def test_hybrid_dominates_components(self):
        for _, rf_only, owc_only, hybrid in reliability_sweep([5.0 + 0.5 * i for i in range(60)], CAR):
            assert 0.0 <= rf_only <= 1.0 and 0.0 <= owc_only <= 1.0
            assert hybrid >= max(rf_only, owc_only)
            assert hybrid <= 1.0

    @pytest.mark.parametrize("gap_m", [5.0, 10.0, 20.0, 35.0, 50.0])
    def test_owc_uptime_matches_the_closed_form(self, gap_m):
        # The heading difference 180 (lead - follow) rises over the first min(tau, T) seconds of the
        # turn, holds at 180 min(tau, T) / T, and falls back as the follower turns: it exceeds the
        # FOV semi-angle theta for tau + T - 2 theta T / 180 seconds from theta T / 180 into the
        # turn, or never if its peak is within theta. Only the part inside the window counts.
        speed = CAR.speed_kmh / 3.6
        tau, turn = gap_m / speed, math.pi * CAR.uturn_radius_m / speed
        theta, window = CAR.owc_fov_semi_angle_deg, CAR.window_s
        drops = 180.0 * min(tau, turn) / turn > theta
        outage = tau + turn - 2.0 * theta * turn / 180.0 if drops else 0.0
        edge = theta * turn / 180.0
        for start, down in (
            (CAR.uturn_start_s, outage),  # the whole outage inside the window
            (-edge - outage / 2.0, outage / 2.0),  # the turn starts before 0: its first half is cut
            (window + 1.0, 0.0),  # the turn starts after the window
            (window - edge - outage / 3.0, outage / 3.0),  # the outage straddles the window's end
        ):
            [(_, _, owc_only, _)] = reliability_sweep([gap_m], replace(CAR, uturn_start_s=start))
            assert owc_only == pytest.approx(1.0 - down / window, abs=1e-12), start

    @settings(max_examples=50, deadline=None)
    @given(gap_m=st.floats(0.5, 100.0), speed_kmh=st.floats(5.0, 150.0), radius_m=st.floats(1.0, 50.0),
           fov_deg=st.floats(1.0, 270.0), start_s=st.floats(-60.0, 60.0), window_s=st.floats(1.0, 60.0))
    def test_sweep_matches_a_sampled_oracle(self, gap_m, speed_kmh, radius_m, fov_deg, start_s, window_s):
        scenario = CarFollowScenario(uturn_radius_m=radius_m, speed_kmh=speed_kmh, owc_fov_semi_angle_deg=fov_deg,
                                     window_s=window_s, uturn_start_s=start_s)
        # At a peak heading gap equal to the FOV, rounding alone decides whether its plateau is down.
        assume(abs(180.0 * min(gap_m / (math.pi * radius_m), 1.0) - fov_deg) > 1e-9)
        samples = 20_000
        [(d, rf_only, owc_only, hybrid)] = reliability_sweep([gap_m], scenario)
        assert abs(owc_only - car_follow_uptime_sampled(gap_m, scenario, samples)) <= 2.0 / samples
        assert (d, rf_only) == (gap_m, float(gap_m <= scenario.rf_range_m))
        assert hybrid == (1.0 if rf_only else owc_only)

    def test_fov_of_the_whole_turn_never_drops(self):
        # The heading difference peaks at 180 degrees once the gap outlasts the turn.
        scenario = replace(CAR, owc_fov_semi_angle_deg=180.0)
        assert [owc for _, _, owc, _ in reliability_sweep([40.0, 80.0], scenario)] == [1.0, 1.0]

    def test_invalid_scenario(self):
        for window_s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="window_s"):
                CarFollowScenario(window_s=window_s)
        for start_s in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="uturn_start_s"):
                CarFollowScenario(uturn_start_s=start_s)
        with pytest.raises(ValueError):
            reliability_sweep([20.0, 0.0], CAR)


class TestSweeps:
    def test_capacity_sweep_shape(self):
        rows = capacity_sweep([0.2, 0.4, 0.6], LINK, OPTICAL, RF)
        assert len(rows) == 3
        assert all(len(r) == 3 for r in rows)

    def test_sweeps_are_deterministic(self):
        assert outage_sweep([0.3, 0.6], LINK, RF) == outage_sweep([0.3, 0.6], LINK, RF)
        assert reliability_sweep([10.0, 35.0], CAR) == reliability_sweep([10.0, 35.0], CAR)

    @pytest.mark.parametrize("count", [3, 30])
    def test_macro_sweeps_make_a_fixed_number_of_channel_calls(self, monkeypatch, count):
        calls = {"macro_path_loss": 0, "access_capacity_bps": 0}

        def counted(module, name):
            wrapped = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(channel, "macro_path_loss")
        counted(transport, "access_capacity_bps")
        distances = [0.1 + 0.05 * i for i in range(count)]
        assert len(capacity_sweep(distances, LINK, OPTICAL, RF)) == count
        assert calls == {"macro_path_loss": 2, "access_capacity_bps": 1}
        assert len(outage_sweep(distances, LINK, RF)) == count
        assert calls == {"macro_path_loss": 4, "access_capacity_bps": 1}
