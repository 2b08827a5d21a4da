"""Downlink link-budget models for the optical and RF parts of the network.

Optical side: Lambertian line-of-sight channel gain with an idealized
concentrator, electrical-domain SINR (signal and interference terms enter
squared) and Shannon capacity. RF side: Okumura-Hata macrocell path loss
with the mobile-antenna correction term and a wall penetration loss in dB,
plus the indoor femtocell model ``20 log f + N log z + 4 q^2 - 28``.

Conventions:
  * the LiFi AP points straight down and the photodetector straight up, so
    the irradiation and incidence angles coincide and
    ``cos(theta) = h / sqrt(l^2 + h^2)``;
  * macro distances are in km, femto distances in m, frequencies in MHz;
  * dB/linear conversion is always ``10 * log10``.

All functions are pure and accept floats or numpy arrays for the distance
arguments; the SINR functions also take a batch of links. They return the
linear ratio, a float or an array, and ``linear_to_db`` converts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_fields(params, rule: str, ok, *names: str) -> None:
    """Raise ValueError, naming the field, if a field of ``params`` fails ``ok``; ``rule`` says what it must be."""
    for name in names:
        if not ok(getattr(params, name)):
            raise ValueError(f"{name}: must be {rule}, got {getattr(params, name)!r}")


def at_least(minimum) -> tuple:
    """The (rule, ok) pair of :func:`check_fields` for a value of at least ``minimum``."""
    return f"at least {minimum}", lambda v: v >= minimum


POSITIVE = ("positive", lambda v: v > 0)
POSITIVE_FINITE = ("positive and finite", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE_FINITE = ("non-negative and finite", lambda v: 0.0 <= v < math.inf)
# The Lambertian order ln 2 / ln(1 / cos) is finite only while the cosine of the angle rounds below 1.0.
LAMBERTIAN_ANGLE = ("in (0, 90) degrees with a cosine below 1.0 (a finite Lambertian order)",
                    lambda v: 0.0 < v < 90.0 and math.cos(math.radians(v)) < 1.0)
# A dBm power (or dBm/Hz density) in [-300, 300] is a linear power within 1e+-30 mW: the sums it feeds stay finite.
FINITE_POWER_DB = ("in [-300, 300] dB (a linear power within 1e+-30)", lambda v: -300.0 <= v <= 300.0)
# A bandwidth in [1, 1e30] Hz adds 10 log10 B in [0, 300] dB to a noise density, so the noise power is within 1e-30..1e60 mW.
NOISE_BANDWIDTH = ("in [1, 1e30] Hz (10 log10 B within [0, 300] dB)", lambda v: 1.0 <= v <= 1e30)
# An optical distance of at most 1e150 m keeps the gain's 2 pi (l^2 + h^2) below about 1.3e301, inside the float range.
OPTICAL_DISTANCE = ("at most 1e150 m (a finite 2 pi (l^2 + h^2) in the optical gain)", lambda v: v <= 1e150)
# A figure's sweep count: the figure builds its CSV rows, one per swept value, in memory.
SWEEP_COUNT = (f"in [1, {2**20}] (the figure builds its CSV rows, one per value, in memory)", lambda v: 1 <= v <= 2**20)


def sweep(start: float, stop: float, count: int) -> list[float]:
    """A figure's swept values: ``count`` evenly spaced from ``start`` to ``stop``, both included."""
    return np.linspace(start, stop, count).tolist()


def db_to_linear(x_db):
    return np.power(10.0, np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class OpticalParams:
    """LiFi AP / photodetector constants.

    Defaults are the indoor evaluation values: a 60 degree half-intensity
    LED 3 m above the floor, a 1 cm^2 detector at 1 m (so 2 m of vertical
    separation), 6 W of optical power and a 20 MHz modulated band.
    """

    half_intensity_angle_deg: float = 60.0
    fov_semi_angle_deg: float = 90.0
    pd_area_m2: float = 1e-4
    filter_gain: float = 1.0
    refractive_index: float = 1.5
    tx_optical_power_W: float = 6.0
    responsivity_A_per_W: float = 0.53
    noise_psd_A2_per_Hz: float = 1e-21
    bandwidth_Hz: float = 20e6
    ap_height_m: float = 2.0

    def __post_init__(self):
        check_fields(self, *POSITIVE, "pd_area_m2", "filter_gain", "refractive_index",
                     "tx_optical_power_W", "responsivity_A_per_W", "noise_psd_A2_per_Hz", "bandwidth_Hz")
        check_fields(self, *NOISE_BANDWIDTH, "bandwidth_Hz")
        # A height of at least 1e-150 m keeps h^2 at least 1e-300: it cannot underflow to 0, which H(0) would divide by.
        check_fields(self, "at least 1e-150 m (a nonzero h^2 in the optical gain)", lambda h: h >= 1e-150, "ap_height_m")
        check_fields(self, *OPTICAL_DISTANCE, "ap_height_m")
        # Over a noise power in [1e-30, 1e30] A^2 and squared signals of at most 1e60, every SINR is finite.
        check_fields(self, "positive, with N0 B in [1e-30, 1e30] A^2 (a finite SINR)",
                     lambda n0: 1e-30 <= n0 * self.bandwidth_Hz <= 1e30, "noise_psd_A2_per_Hz")
        # The concentrator gain n^2 / sin^2(FOV) is finite: n^2 does not overflow, nor sin^2(FOV) underflow to 0.
        check_fields(self, "at most 1e150 (a finite n^2 in the concentrator gain)", lambda n: n <= 1e150,
                     "refractive_index")
        check_fields(self, "in (0, 90] degrees, with a finite concentrator gain n^2 / sin^2(FOV)",
                     lambda v: 0.0 < v <= 90.0 and math.sin(math.radians(v)) ** 2 > 0.0
                     and concentrator_gain(self) < math.inf, "fov_semi_angle_deg")
        check_fields(self, *LAMBERTIAN_ANGLE, "half_intensity_angle_deg")
        # H(0) = (m+1) A / (2 pi h^2) n^2 / sin^2(FOV) g stays at most 1e300, so no step computing it overflows. Each key
        # is checked on the product of the factors up to its own, in that order: the key that takes it past is named.
        log_gain = math.log10((lambertian_index(self) + 1.0) / (2.0 * math.pi))
        for name, log_factor in (("pd_area_m2", math.log10(self.pd_area_m2)),
                                 ("ap_height_m", -2.0 * math.log10(self.ap_height_m)),
                                 ("refractive_index", 2.0 * math.log10(self.refractive_index)),
                                 ("fov_semi_angle_deg", -2.0 * math.log10(math.sin(math.radians(self.fov_semi_angle_deg)))),
                                 ("filter_gain", math.log10(self.filter_gain))):
            log_gain += log_factor
            check_fields(self, "such that the optical gain H(0), multiplied out up to its factor, is at most 1e300",
                         lambda _: log_gain <= 300.0, name)
        check_fields(self, "positive, with R P H(0) at most 1e30 A (the squared signals and their sums stay finite)",
                     lambda p: self.responsivity_A_per_W * p * optical_channel_gain(0.0, self) <= 1e30, "tx_optical_power_W")


@dataclass(frozen=True)
class RfParams:
    """Macrocell and femtocell RF constants (powers in dBm, f in MHz)."""

    center_freq_MHz: float = 1800.0
    mbs_height_m: float = 50.0
    terminal_height_m: float = 1.0
    mbs_tx_dBm: float = 46.0
    fap_tx_dBm: float = 7.0
    vehicle_wall_loss_dB: float = 10.0
    femto_loss_coeff: float = 28.0
    noise_psd_dBm_per_Hz: float = -174.0
    macro_bandwidth_Hz: float = 10e6
    femto_bandwidth_Hz: float = 10e6

    def __post_init__(self):
        check_fields(self, *POSITIVE, "center_freq_MHz", "mbs_height_m", "terminal_height_m")
        # The Hata terms 26.16 log10 f (and the femtocell's 20 log10 f) and 13.82 log10 h_b stay in [-300, 300] dB.
        for name, coefficient in (("center_freq_MHz", 26.16), ("mbs_height_m", 13.82)):
            check_fields(self, f"such that the Hata term {coefficient} log10({name}) is in [-300, 300] dB (a finite path loss)",
                         lambda v: FINITE_POWER_DB[1](coefficient * math.log10(v)), name)
        check_fields(self, *NOISE_BANDWIDTH, "macro_bandwidth_Hz", "femto_bandwidth_Hz")
        check_fields(self, *FINITE_POWER_DB, "mbs_tx_dBm", "fap_tx_dBm", "noise_psd_dBm_per_Hz")
        check_fields(self, "in [0, 300] dB (a loss, within the power domain)", lambda v: 0.0 <= v <= 300.0,
                     "vehicle_wall_loss_dB")
        # A negative N makes the loss fall with distance, to -inf dB (and a nan SINR) far enough away.
        check_fields(self, "in [0, 100] (a loss that grows with distance; ITU-R P.1238 gives 22 to 33 indoors)",
                     lambda v: 0.0 <= v <= 100.0, "femto_loss_coeff")
        check_fields(self, "such that the Hata term a(h_m) is in [-300, 300] dB (a finite path loss)",
                     lambda _: FINITE_POWER_DB[1](self.mobile_correction_dB()), "terminal_height_m")

    def mobile_correction_dB(self) -> float:
        """The Okumura-Hata mobile-antenna correction a(h_m) of ``terminal_height_m``."""
        log_f = math.log10(self.center_freq_MHz)
        return 1.1 * (log_f - 0.7) * self.terminal_height_m - (1.56 * log_f - 0.8)

    def noise_dBm(self, bandwidth_Hz: float) -> float:
        """Thermal noise power over a bandwidth."""
        return self.noise_psd_dBm_per_Hz + 10.0 * math.log10(bandwidth_Hz)


def lambertian_index(params: OpticalParams) -> float:
    """Emission order of a Lambertian LED: ln 2 / ln(1 / cos(theta_1/2)).

    A 60 degree half-intensity angle gives order 1 (the plain Lambertian
    source); narrower beams give larger orders.
    """
    return math.log(2.0) / math.log(1.0 / math.cos(math.radians(params.half_intensity_angle_deg)))


def concentrator_gain(params: OpticalParams) -> float:
    """Idealized concentrator gain inside the FOV: n^2 / sin^2(FOV)."""
    return params.refractive_index**2 / math.sin(math.radians(params.fov_semi_angle_deg)) ** 2


def optical_channel_gain(horizontal_distance_m, params: OpticalParams):
    """LOS optical channel gain for a down-facing AP over an up-facing PD.

    Returns ``(m+1) A / (2 pi d^2) * g * T_s * cos^m(phi) * cos(theta)``
    with ``d^2 = l^2 + h^2`` and ``h = params.ap_height_m`` when the
    incidence angle is inside the FOV, and exactly 0 beyond it.
    ``horizontal_distance_m`` may be an array; every entry must be >= 0.
    The arithmetic runs in place, in the order of the formula, in the
    result and two temporaries the size of the input.
    """
    h = params.ap_height_m
    l = np.asarray(horizontal_distance_m, dtype=float)
    if np.any(l < 0):
        raise ValueError("horizontal distance must be >= 0")
    m = lambertian_index(params)
    gain = np.multiply(l, l, out=np.empty_like(l))  # d^2 = l*l + h*h, then the gain
    gain += h * h
    cos_theta = np.sqrt(gain, out=np.empty_like(gain))
    np.divide(h, cos_theta, out=cos_theta)
    np.multiply(2.0 * math.pi, gain, out=gain)
    np.divide((m + 1.0) * params.pd_area_m2, gain, out=gain)
    gain *= concentrator_gain(params)  # constant inside the FOV
    gain *= params.filter_gain
    gain *= cos_theta[()] ** m  # a 0-d input powers as a scalar (libm's pow), an array in numpy's loop: as before
    gain *= cos_theta
    # In-FOV test on cosines: theta <= FOV  <=>  cos(theta) >= cos(FOV).
    np.copyto(gain, 0.0, where=~(cos_theta >= math.cos(math.radians(params.fov_semi_angle_deg))))
    return float(gain) if np.isscalar(horizontal_distance_m) else gain


def linear_to_db(linear):
    """``10 * log10`` of a linear ratio, a float or an array (then an array of the same shape); 0 gives -inf.

    Each value is ``math.log10`` of one entry times 10: ``np.log10`` can
    differ from it in the last bit, and the product is one rounding either way.
    """
    if isinstance(linear, np.ndarray):
        db, positive = np.full(linear.shape, -math.inf), linear > 0
        db[positive] = np.fromiter(map(math.log10, linear[positive].tolist()), float, np.count_nonzero(positive))
        return np.multiply(db, 10.0, out=db)
    return 10.0 * math.log10(linear) if linear > 0 else float("-inf")


def optical_sinr(serving_gain, interferer_gains, params: OpticalParams):
    """Electrical-domain linear SINR: squared signal over noise plus squared interference.

    Signal and each interference term are ``(responsivity * P_t * H)^2``;
    the noise floor is ``N_0 * B_o``. A batch of M links passes an (M,)
    array of serving gains and an (M, K) array of interferer gains, one row
    per link; a zero gain adds nothing.
    """
    serving = np.asarray(serving_gain, dtype=float)
    interferers = np.asarray(interferer_gains, dtype=float)
    if np.any(serving < 0) or np.any(interferers < 0):
        raise ValueError("channel gains must be >= 0")
    scale = params.responsivity_A_per_W * params.tx_optical_power_W
    # float_power(x, 2.0) is libm's pow, as Python's x**2 is; np.square is x*x and can differ in the last bit.
    # The terms are added column by column, left to right, so a batch equals per-link calls bit for bit: numpy's
    # pairwise ``sum`` reorders eight or more terms, and a float ``sum()`` is compensated from Python 3.12.
    interference = np.zeros(serving.shape)
    for term in np.moveaxis(np.float_power(scale * interferers, 2.0), -1, 0):
        interference = interference + term
    linear = np.float_power(scale * serving, 2.0) / (params.noise_psd_A2_per_Hz * params.bandwidth_Hz + interference)
    return linear if np.ndim(linear) else float(linear)


def shannon_capacity(sinr_linear, bandwidth_Hz):
    """Achievable rate B * log2(1 + SINR) in bit/s."""
    sinr = np.asarray(sinr_linear, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be >= 0")
    out = bandwidth_Hz * np.log2(1.0 + sinr)
    return float(out) if np.isscalar(sinr_linear) else out


def macro_path_loss(distance_km, rf: RfParams, wall_loss_dB: float):
    """Okumura-Hata urban path loss in dB, plus ``wall_loss_dB`` of wall penetration.

    ``distance_km`` may be a float or array; every entry must be > 0.
    """
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0):
        raise ValueError("macro distance must be > 0 km")
    log_f = math.log10(rf.center_freq_MHz)
    log_hb = math.log10(rf.mbs_height_m)
    loss = (
        69.55
        + 26.16 * log_f
        - 13.82 * log_hb
        - rf.mobile_correction_dB()
        + (44.9 - 6.55 * log_hb) * np.log10(d)
        + wall_loss_dB
    )
    return float(loss) if np.isscalar(distance_km) else loss


def femto_path_loss(distance_m, rf: RfParams, wall_count: int):
    """Indoor femtocell path loss ``20 log f + N log z + 4 q^2 - 28`` in dB through ``q = wall_count`` walls."""
    z = np.asarray(distance_m, dtype=float)
    if np.any(z <= 0):
        raise ValueError("femto distance must be > 0 m")
    q = wall_count
    loss = 20.0 * math.log10(rf.center_freq_MHz) + rf.femto_loss_coeff * np.log10(z) + 4.0 * q * q - 28.0
    return float(loss) if np.isscalar(distance_m) else loss


def rf_sinr(serving_rx_dBm, noise_dBm: float):
    """Linear SINR of interference-free RF links: received power (a float or an array) over noise."""
    serving = np.asarray(serving_rx_dBm, dtype=float)
    if not np.all(np.isfinite(serving)) or not math.isfinite(noise_dBm):
        raise ValueError("powers must be finite dBm values")
    # float_power(10, x) is libm's pow, as Python's 10.0 ** x is.
    linear = np.float_power(10.0, serving / 10.0) / np.float_power(10.0, noise_dBm / 10.0)
    return linear if np.ndim(linear) else float(linear)
