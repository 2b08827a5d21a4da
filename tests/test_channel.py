"""Link-budget formula tests against independently evaluated oracles."""

import copy
import itertools
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnet.channel import (
    OpticalParams, RfParams,
    concentrator_gain, db_to_linear, femto_path_loss, lambertian_index, linear_to_db, macro_path_loss,
    optical_channel_gain, optical_sinr, rf_sinr, shannon_capacity,
)
from hybridnet.config import load_config, resolve
from hybridnet.engine import FemtoSinrConfig
from hybridnet.rng import draw_exponential, spawn_streams
from hybridnet.transport import OutageSweep, VehicleLink, macro_snr_dB

from oracles import optical_channel_gain_reference

TABLE = OpticalParams()
RF = RfParams()
# The two corners of the link-budget keys' box that the commands run at: every SINR and SNR at its largest, or least.
CORNERS = {name: Path(__file__).with_name(f"{name}.yaml") for name in ("snr_max", "snr_min")}


class TestLambertianIndex:
    def test_sixty_degrees_is_unity(self):
        assert lambertian_index(OpticalParams(half_intensity_angle_deg=60.0)) == pytest.approx(1.0, rel=1e-12)

    def test_forty_five_degrees(self):
        assert lambertian_index(OpticalParams(half_intensity_angle_deg=45.0)) == pytest.approx(2.0, rel=1e-12)

    def test_thirty_degrees_against_direct_evaluation(self):
        expected = math.log(2) / -math.log(math.cos(math.radians(30.0)))
        assert expected == pytest.approx(4.81884167930642, rel=1e-12)
        assert lambertian_index(OpticalParams(half_intensity_angle_deg=30.0)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 120.0, 1e-9, 6e-7])
    def test_out_of_range_angles_rejected(self, angle):
        # Below about 6e-7 degrees the cosine rounds to 1.0: the order would divide by ln(1) = 0.
        with pytest.raises(ValueError, match=r"^half_intensity_angle_deg: must be in \[1.0, 89.0\] deg"):
            OpticalParams(half_intensity_angle_deg=angle)

    @given(st.floats(min_value=1.0, max_value=89.0))
    def test_always_positive(self, angle):
        assert lambertian_index(OpticalParams(half_intensity_angle_deg=angle)) > 0


class TestConcentratorGain:
    def test_normal_incidence_fov_90(self):
        assert concentrator_gain(TABLE) == pytest.approx(1.5**2 / 1.0, rel=1e-12)

    def test_narrow_fov(self):
        params = OpticalParams(fov_semi_angle_deg=60.0)
        expected = 1.5**2 / math.sin(math.radians(60.0)) ** 2
        assert expected == pytest.approx(3.0, rel=1e-12)
        assert concentrator_gain(params) == pytest.approx(expected, rel=1e-12)


def _gain_oracle(l: float, h: float, params: OpticalParams) -> float:
    # Term-by-term hand evaluation, independent of the implementation path.
    m = math.log(2) / -math.log(math.cos(math.radians(params.half_intensity_angle_deg)))
    d2 = l * l + h * h
    cos_t = h / math.sqrt(d2)
    if math.degrees(math.acos(cos_t)) > params.fov_semi_angle_deg:
        return 0.0
    g = params.refractive_index**2 / math.sin(math.radians(params.fov_semi_angle_deg)) ** 2
    return (m + 1) * params.pd_area_m2 / (2 * math.pi * d2) * g * params.filter_gain * cos_t**m * cos_t


class TestOpticalChannelGain:
    def test_directly_below_ap(self):
        expected = _gain_oracle(0.0, 2.0, TABLE)
        assert expected == pytest.approx(1.7905e-05, rel=1e-4)
        assert optical_channel_gain(0.0, TABLE) == pytest.approx(expected, rel=1e-9)

    def test_two_meters_out(self):
        expected = _gain_oracle(2.0, 2.0, TABLE)
        assert expected == pytest.approx(4.476e-06, rel=1e-3)
        assert optical_channel_gain(2.0, TABLE) == pytest.approx(expected, rel=1e-9)

    def test_fov_cutoff(self):
        params = OpticalParams(fov_semi_angle_deg=45.0)
        assert optical_channel_gain(1.99, params) > 0.0
        assert optical_channel_gain(2.01, params) == 0.0
        assert _gain_oracle(1.99, 2.0, params) > 0.0 and _gain_oracle(2.01, 2.0, params) == 0.0

    def test_degenerate_height(self):
        # The gain always uses the AP height, so a zero height is caught where it is set.
        with pytest.raises(ValueError):
            OpticalParams(ap_height_m=0.0)

    # One indoor tick block: 30 ticks x 60 terminals x 9 APs of horizontal distances.
    BLOCK = np.random.default_rng(5).uniform(0.0, 30.0, size=(30, 60, 9))

    @pytest.mark.parametrize("params", [TABLE, OpticalParams(fov_semi_angle_deg=30.0, half_intensity_angle_deg=45.0),
                                        OpticalParams(half_intensity_angle_deg=20.0, ap_height_m=2.5)],
                             ids=["default", "fov30-order2", "narrow-beam"])
    def test_in_place_equals_the_one_expression_form(self, params):
        expected = optical_channel_gain_reference(self.BLOCK, params)
        assert optical_channel_gain(self.BLOCK, params).tolist() == expected.tolist()
        for l in self.BLOCK[0, 0].tolist() + [0.0, 2.0]:  # a float in, a float out, by the same rounding
            got = optical_channel_gain(l, params)
            assert type(got) is float and got == optical_channel_gain_reference(l, params)

    def test_at_most_two_temporaries_the_size_of_the_input(self):
        optical_channel_gain(self.BLOCK, TABLE)  # warm up
        tracemalloc.start()
        try:
            gain = optical_channel_gain(self.BLOCK, TABLE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result plus two temporaries, and a few boolean masks an eighth of the input's size.
        assert gain.nbytes == self.BLOCK.nbytes and peak <= 3.5 * self.BLOCK.nbytes

    @given(
        l1=st.floats(min_value=0.0, max_value=10.0),
        delta=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_strictly_decreasing_in_horizontal_distance(self, l1, delta):
        g1 = optical_channel_gain(l1, TABLE)
        g2 = optical_channel_gain(l1 + delta, TABLE)
        assert g1 > g2 >= 0.0


class TestOpticalSinr:
    def test_no_interferers_matches_oracle(self):
        h = _gain_oracle(0.0, 2.0, TABLE)
        signal = (0.53 * 6.0 * h) ** 2
        noise = 1e-21 * 20e6
        expected = signal / noise
        assert expected == pytest.approx(1.62e5, rel=1e-2)
        result = optical_sinr(h, [], TABLE)
        assert result == pytest.approx(expected, rel=1e-9)
        assert linear_to_db(result) == pytest.approx(10 * math.log10(expected), rel=1e-9)
        assert linear_to_db(result) == pytest.approx(52.1, abs=0.05)

    def test_equal_interferer_drops_below_unity(self):
        h = _gain_oracle(0.0, 2.0, TABLE)
        assert optical_sinr(h, [h], TABLE) < 1.0

    def test_doubling_interference_strictly_decreases(self):
        h = _gain_oracle(0.0, 2.0, TABLE)
        interferers = [h / 4, h / 8]
        base = optical_sinr(h, interferers, TABLE)
        worse = optical_sinr(h, [2 * g for g in interferers], TABLE)
        assert worse < base

    def test_zero_serving_gain_sentinel(self):
        result = optical_sinr(0.0, [1e-6], TABLE)
        assert result == 0.0
        assert linear_to_db(result) == float("-inf")

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            optical_sinr(-1e-9, [], TABLE)


class TestBatchedSinr:
    """A batch of links equals one call per link, bit for bit."""

    def test_optical_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(3)
        gains = optical_channel_gain(rng.uniform(0.0, 12.0, size=(2_000, 9)), TABLE)
        gains[rng.random(gains.shape) < 0.2] = 0.0
        serving = rng.uniform(0.0, 1e-5, size=2_000)
        serving[:5] = 0.0
        batch = optical_sinr(serving, gains, TABLE)
        batch_db = linear_to_db(batch)
        scale = TABLE.responsivity_A_per_W * TABLE.tx_optical_power_W
        for i, (h, row) in enumerate(zip(serving.tolist(), gains.tolist())):
            single = optical_sinr(h, [g for g in row if g > 0], TABLE)
            assert (batch[i], batch_db[i]) == (single, linear_to_db(single))
            interference = 0.0  # the formula on Python floats, terms left to right
            for g in row:
                interference += (scale * g) ** 2
            assert single == (scale * h) ** 2 / (TABLE.noise_psd_A2_per_Hz * TABLE.bandwidth_Hz + interference)
        assert batch[0] == 0.0 and batch_db[0] == float("-inf")

    def test_rf_rows_equal_scalar_calls(self):
        serving = np.random.default_rng(4).uniform(-110.0, -30.0, size=500)
        batch = rf_sinr(serving, -104.0)
        batch_db = linear_to_db(batch)
        for i, rx in enumerate(serving.tolist()):
            single = rf_sinr(rx, -104.0)
            assert (batch[i], batch_db[i]) == (single, linear_to_db(single))
            assert single == 10.0 ** (rx / 10.0) / 10.0 ** (-104.0 / 10.0)

    def test_db_of_an_array_is_math_log10_of_each_value(self):
        linear = np.random.default_rng(8).uniform(0.0, 1e6, size=2_000)
        linear[[0, 7]] = 0.0
        db = linear_to_db(linear)
        assert isinstance(db, np.ndarray) and db.shape == linear.shape
        assert db.tolist() == [10 * math.log10(v) if v > 0 else float("-inf") for v in linear.tolist()]
        assert db[0] == db[7] == float("-inf") and linear_to_db(0.0) == float("-inf")
        assert db[1:7].tolist() == [linear_to_db(v) for v in linear[1:7].tolist()]


class TestFloatRules:
    """Platform assumptions the batched link sampler and the call draws rely on to keep their bytes.

    A numpy build that breaks one of them moves ``indoor_sim.csv``; these
    tests name the rule that broke.
    """

    def test_float_power_square_is_python_square(self):
        x = np.random.default_rng(5).uniform(0.0, 1e-4, size=20_000) * 3.18
        assert np.float_power(x, 2.0).tolist() == [v**2 for v in x.tolist()]

    def test_float_power_of_ten_is_python_power(self):
        y = np.random.default_rng(6).uniform(-20.0, 5.0, size=20_000)
        assert np.float_power(10.0, y).tolist() == [10.0**v for v in y.tolist()]

    def test_gain_matrix_rows_are_row_gains(self):
        dist = np.random.default_rng(7).uniform(0.0, 20.0, size=(2_000, 9))
        matrix = optical_channel_gain(dist, TABLE)
        for row, gains in zip(dist, matrix):
            assert optical_channel_gain(row, TABLE).tolist() == gains.tolist()

    def test_vector_femto_loss_is_scalar_loss(self):
        z = np.random.default_rng(9).uniform(0.1, 20.0, size=20_000)
        assert femto_path_loss(z, RF, wall_count=0).tolist() == [femto_path_loss(v, RF, wall_count=0) for v in z.tolist()]

    def test_vector_log2_is_scalar_log2(self):
        x = np.random.default_rng(8).uniform(0.0, 1e6, size=20_000)
        assert shannon_capacity(x, 20e6).tolist() == [shannon_capacity(v, 20e6) for v in x.tolist()]

    def test_raw_uniform_is_generator_random(self):
        # rng.draw_exponential inverts (raw >> 11) * 2**-53 of one raw value: Generator.random's double on this numpy.
        gen = spawn_streams(3)["traffic"]
        twin = copy.deepcopy(gen)
        assert [draw_exponential(gen, 2.0) for _ in range(20_000)] == [-2.0 * math.log1p(-twin.random())
                                                                       for _ in range(20_000)]
        assert gen.bit_generator.state == twin.bit_generator.state  # one raw value per draw


class TestShannonCapacity:
    def test_lifi_reference_point(self):
        sinr = 162094.97526298228
        expected = 20e6 * math.log2(1 + sinr)
        assert expected == pytest.approx(3.46e8, rel=1e-2)
        assert shannon_capacity(sinr, 20e6) == pytest.approx(expected, rel=1e-12)

    def test_zero_sinr(self):
        assert shannon_capacity(0.0, 20e6) == 0.0

    def test_unit_point(self):
        assert shannon_capacity(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @given(
        s1=st.floats(min_value=0.0, max_value=1e6),
        delta=st.floats(min_value=1e-6, max_value=1e6),
        b=st.floats(min_value=1.0, max_value=1e8),
    )
    @settings(max_examples=100)
    def test_increasing_in_sinr_linear_in_bandwidth(self, s1, delta, b):
        assert shannon_capacity(s1 + delta, b) > shannon_capacity(s1, b)
        assert shannon_capacity(s1, 2 * b) == pytest.approx(2 * shannon_capacity(s1, b), rel=1e-12)


def _hata_oracle(d_km: float, wall_db: float) -> float:
    log_f = math.log10(1800.0)
    a_hm = 1.1 * (log_f - 0.7) * 1.0 - (1.56 * log_f - 0.8)
    return (
        69.55 + 26.16 * log_f - 13.82 * math.log10(50.0) - a_hm
        + (44.9 - 6.55 * math.log10(50.0)) * math.log10(d_km) + wall_db
    )


class TestMacroPathLoss:
    def test_half_km_through_building(self):
        expected = _hata_oracle(0.5, 20.0)
        assert expected == pytest.approx(142.53, abs=0.005)
        assert macro_path_loss(0.5, RF, 20.0) == pytest.approx(expected, rel=1e-9)

    def test_half_km_through_vehicle(self):
        expected = _hata_oracle(0.5, 10.0)
        assert expected == pytest.approx(132.53, abs=0.005)
        assert macro_path_loss(0.5, RF, RF.vehicle_wall_loss_dB) == pytest.approx(expected, rel=1e-9)

    def test_wall_loss_is_additive(self):
        free = macro_path_loss(0.5, RF, 0.0)
        vehicle = macro_path_loss(0.5, RF, RF.vehicle_wall_loss_dB)
        assert vehicle - free == pytest.approx(10.0, abs=1e-12)

    def test_mobile_antenna_correction_value(self):
        log_f = math.log10(1800.0)
        a_hm = 1.1 * (log_f - 0.7) - (1.56 * log_f - 0.8)
        assert a_hm == pytest.approx(-1.467, abs=5e-4)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            macro_path_loss(0.0, RF, 0.0)
        with pytest.raises(ValueError):
            macro_path_loss(-1.0, RF, 0.0)

    @given(
        d1=st.floats(min_value=0.05, max_value=20.0),
        factor=st.floats(min_value=1.01, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_strictly_increasing_in_distance(self, d1, factor):
        assert macro_path_loss(d1 * factor, RF, 0.0) > macro_path_loss(d1, RF, 0.0)


class TestFemtoPathLoss:
    def test_eight_meters(self):
        expected = 20 * math.log10(1800.0) + 28 * math.log10(8.0) - 28
        assert expected == pytest.approx(62.39, abs=0.005)
        assert femto_path_loss(8.0, RF, wall_count=0) == pytest.approx(expected, rel=1e-9)

    def test_one_wall_adds_four_db(self):
        no_wall = femto_path_loss(8.0, RF, wall_count=0)
        one_wall = femto_path_loss(8.0, RF, wall_count=1)
        assert one_wall - no_wall == pytest.approx(4.0, abs=1e-12)

    def test_one_meter(self):
        expected = 20 * math.log10(1800.0) - 28
        assert expected == pytest.approx(37.11, abs=0.005)
        assert femto_path_loss(1.0, RF, wall_count=0) == pytest.approx(expected, rel=1e-9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            femto_path_loss(0.0, RF, wall_count=0)


class TestRfSinr:
    def test_interference_free_is_snr_subtraction(self):
        assert linear_to_db(rf_sinr(-60.0, -104.0)) == pytest.approx(44.0, abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rf_sinr(float("nan"), -104.0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError):
            rf_sinr(-60.0, noise)

    def test_one_non_finite_power_rejects_the_batch(self):
        with pytest.raises(ValueError):
            rf_sinr(np.array([-60.0, float("inf"), -70.0]), -104.0)


class TestPurity:
    def test_bit_identical_repeat_calls(self):
        calls = [
            lambda: lambertian_index(OpticalParams(half_intensity_angle_deg=33.3)),
            lambda: optical_channel_gain(1.7, TABLE),
            lambda: macro_path_loss(0.77, RF, 20.0),
            lambda: femto_path_loss(3.3, RF, wall_count=0),
            lambda: optical_sinr(1e-5, [1e-6, 2e-6], TABLE),
        ]
        for call in calls:
            assert call() == call()


class TestParamValidation:
    def test_optical_invariants(self):
        with pytest.raises(ValueError):
            OpticalParams(pd_area_m2=0.0)
        with pytest.raises(ValueError):
            OpticalParams(fov_semi_angle_deg=100.0)
        with pytest.raises(ValueError):
            OpticalParams(half_intensity_angle_deg=90.0)
        with pytest.raises(ValueError, match="half_intensity_angle_deg"):  # cos rounds to 1.0: ln(1 / cos) = 0
            OpticalParams(half_intensity_angle_deg=1e-9)
        assert math.isfinite(lambertian_index(OpticalParams(half_intensity_angle_deg=1.0)))

    def test_rf_invariants(self):
        with pytest.raises(ValueError):
            RfParams(mbs_height_m=0.0)
        for name, low, high, unit in (("mbs_tx_dBm", -100.0, 100.0, "dBm"), ("fap_tx_dBm", -100.0, 100.0, "dBm"),
                                      ("noise_psd_dBm_per_Hz", -200.0, -100.0, "dBm/Hz")):
            for value in (-300.000001, 300.000001, 1.0e6, math.nan, math.nextafter(low, -math.inf),
                          math.nextafter(high, math.inf)):
                with pytest.raises(ValueError, match=rf"^{name}: must be in \[{low}, {high}\] {unit}"):
                    RfParams(**{name: value})
            for value in (low, high):
                assert getattr(RfParams(**{name: value}), name) == value
        for name in ("macro_bandwidth_Hz", "femto_bandwidth_Hz"):
            for value in (-1.0, 0.0, 0.999, 1.000001e30, 1.0e300, math.inf, math.nan, math.nextafter(1e12, math.inf)):
                with pytest.raises(ValueError, match=rf"^{name}: must be in \[1.0, 1000000000000.0\] Hz"):
                    RfParams(**{name: value})
            for value in (1.0, 1.0e12):
                assert getattr(RfParams(**{name: value}), name) == value

    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            optical_channel_gain(-1.0, TABLE)
        with pytest.raises(ValueError):
            optical_channel_gain(np.array([[1.0, -0.5]]), TABLE)


def domain(cls, name: str) -> tuple:
    """The declared interval of the key field ``name`` of ``cls``."""
    return next(f.metadata["domain"] for f in fields(cls) if f.name == name)


def corners(cls, *names: str):
    """``cls`` at each corner of the box that the intervals of its keys ``names`` span, other keys at their defaults."""
    for values in itertools.product(*(domain(cls, name) for name in names)):
        yield cls(**dict(zip(names, values)))


def span(values) -> tuple:
    return min(values), max(values)


@pytest.mark.filterwarnings("error")
class TestDomainCorners:
    def test_every_formula_is_finite_at_every_corner_of_its_box(self):
        # Each formula is monotone in each key it reads, or multilinear in their logs (Hata's a(h_m) and distance
        # terms, N log10 z), so its extremes over the box of the keys' intervals lie at the box's corners: finite at
        # every corner, it is finite on the whole box. A formula that reads another's result takes that result's
        # extremes as one more key, so none reads more than six.
        gains = span([optical_channel_gain(0.0, p) for p in corners(
            OpticalParams, "half_intensity_angle_deg", "fov_semi_angle_deg", "pd_area_m2", "filter_gain",
            "refractive_index", "ap_height_m")])
        assert 0.0 < gains[0] and gains[1] < math.inf
        for p in corners(OpticalParams, "responsivity_A_per_W", "tx_optical_power_W", "noise_psd_A2_per_Hz",
                         "bandwidth_Hz"):
            for serving, interferer in itertools.product(gains, (0.0, gains[1])):
                sinr = optical_sinr(serving, [interferer], p)
                assert 0.0 < sinr < math.inf and math.isfinite(linear_to_db(sinr))
                assert math.isfinite(shannon_capacity(sinr, p.bandwidth_Hz))

        hata = span([macro_path_loss(km, rf, wall_dB)
                     for rf in corners(RfParams, "center_freq_MHz", "mbs_height_m", "terminal_height_m")
                     for km in domain(OutageSweep, "distance_start_km")
                     for wall_dB in domain(RfParams, "vehicle_wall_loss_dB")])
        snrs = span([rf.mbs_tx_dBm - loss - rf.noise_dBm(rf.macro_bandwidth_Hz) for loss in hata
                     for rf in corners(RfParams, "mbs_tx_dBm", "noise_psd_dBm_per_Hz", "macro_bandwidth_Hz")])
        for snr_dB, rf in itertools.product(snrs, corners(RfParams, "macro_bandwidth_Hz")):
            assert 0.0 < db_to_linear(snr_dB) < math.inf
            assert math.isfinite(shannon_capacity(float(db_to_linear(snr_dB)), rf.macro_bandwidth_Hz))
        for threshold_dB, snr_dB, sigma_dB in itertools.product(
                domain(VehicleLink, "sinr_threshold_user_dB"), snrs, domain(VehicleLink, "shadowing_sigma_dB")):
            assert math.isfinite((threshold_dB - snr_dB) / sigma_dB)  # fig20's outage quotient

        # A femtocell link is at least the shortest distance key long, and at most fig17's deployment radius plus
        # its user's distance, which is longer than the diagonal of the largest room.
        longest = domain(FemtoSinrConfig, "deployment_radius_m")[1] + domain(FemtoSinrConfig, "user_distance_m")[1]
        femto = span([femto_path_loss(z, rf, walls)
                      for rf in corners(RfParams, "center_freq_MHz", "femto_loss_coeff")
                      for z in (domain(FemtoSinrConfig, "min_link_distance_m")[0], longest)
                      for walls in domain(FemtoSinrConfig, "interferer_wall_count")])
        for rf, loss in itertools.product(corners(RfParams, "fap_tx_dBm", "noise_psd_dBm_per_Hz", "femto_bandwidth_Hz"),
                                          femto):
            rx_mw, noise_mw = db_to_linear(rf.fap_tx_dBm - loss), db_to_linear(rf.noise_dBm(rf.femto_bandwidth_Hz / 4))
            assert 0.0 < rx_mw * domain(FemtoSinrConfig, "fap_count")[1] < math.inf and 0.0 < noise_mw < math.inf
            assert math.isfinite(rf_sinr(rf.fap_tx_dBm - loss, rf.noise_dBm(rf.femto_bandwidth_Hz)))

        # The corner configs that the commands run at hold the extremes of H(0) and of the macro SNR.
        for path, end in ((CORNERS["snr_min"], 0), (CORNERS["snr_max"], 1)):
            sections = resolve(load_config(path), seed=0)
            rf, sweep = sections["channel.rf"], sections["transport.fig20"]
            assert optical_channel_gain(0.0, sections["channel.optical"]) == gains[end]
            assert macro_snr_dB(sweep.distance_start_km, rf, rf.vehicle_wall_loss_dB) == snrs[end]
