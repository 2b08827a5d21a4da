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
from dataclasses import dataclass, field, fields

import numpy as np


def check_fields(params, rule: str, ok, *names: str) -> None:
    """Raise ValueError, naming the field, if a field of ``params`` fails ``ok``; ``rule`` says what it must be."""
    for name in names:
        if not ok(getattr(params, name)):
            raise ValueError(f"{name}: must be {rule}, got {getattr(params, name)!r}")


def at_least(minimum) -> tuple:
    """The (rule, ok) pair of :func:`check_fields` for a value of at least ``minimum``."""
    return f"at least {minimum}", lambda v: v >= minimum


def key(default, low, high, unit: str = "", why: str = ""):
    """A config key's field: its default and the closed interval [low, high], in ``unit``, that holds every value.

    ``why`` states what a memory or time bound protects; a physical bound states only its unit.
    """
    rule = f"in [{low}, {high}]{f' {unit}' if unit else ''}{f' ({why})' if why else ''}"
    return field(default=default, metadata={"domain": (low, high), "unit": unit, "rule": rule})


def check_domains(params) -> None:
    """Raise ValueError, naming the field, if a field of ``params`` lies outside the interval it declares."""
    for f in fields(params):
        if "domain" in f.metadata:
            low, high = f.metadata["domain"]
            check_fields(params, f.metadata["rule"], lambda v: low <= v <= high, f.name)


def sweep_count(default: int):
    """The field of a figure's sweep count."""
    return key(default, 1, 2**20, why="the figure builds its CSV rows, one per value, in memory")


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

    half_intensity_angle_deg: float = key(60.0, 1.0, 89.0, "deg")
    fov_semi_angle_deg: float = key(90.0, 1.0, 90.0, "deg")
    pd_area_m2: float = key(1e-4, 1e-8, 1e-2, "m^2")
    filter_gain: float = key(1.0, 1e-3, 1.0)
    refractive_index: float = key(1.5, 1.0, 3.0)
    tx_optical_power_W: float = key(6.0, 1e-3, 100.0, "W")
    responsivity_A_per_W: float = key(0.53, 0.01, 1.0, "A/W")
    noise_psd_A2_per_Hz: float = key(1e-21, 1e-30, 1e-15, "A^2/Hz")
    bandwidth_Hz: float = key(20e6, 1.0, 1e12, "Hz")
    ap_height_m: float = key(2.0, 0.01, 100.0, "m")

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class RfParams:
    """Macrocell and femtocell RF constants (powers in dBm, f in MHz)."""

    center_freq_MHz: float = key(1800.0, 1.0, 1e5, "MHz")
    mbs_height_m: float = key(50.0, 1.0, 1e3, "m")
    terminal_height_m: float = key(1.0, 0.1, 10.0, "m")
    mbs_tx_dBm: float = key(46.0, -100.0, 100.0, "dBm")
    fap_tx_dBm: float = key(7.0, -100.0, 100.0, "dBm")
    vehicle_wall_loss_dB: float = key(10.0, 0.0, 100.0, "dB")
    femto_loss_coeff: float = key(28.0, 0.0, 100.0, "dB/decade")  # ITU-R P.1238 gives 22 to 33 indoors
    noise_psd_dBm_per_Hz: float = key(-174.0, -200.0, -100.0, "dBm/Hz")
    macro_bandwidth_Hz: float = key(10e6, 1.0, 1e12, "Hz")
    femto_bandwidth_Hz: float = key(10e6, 1.0, 1e12, "Hz")

    def __post_init__(self):
        check_domains(self)

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
    # A square is x * x, IEEE's correctly rounded square; libm's pow, as in Python's x**2, misrounds some. The terms
    # are added in place, column by column, left to right, so a batch equals per-link calls bit for bit: numpy's
    # pairwise ``sum`` reorders eight or more terms, and a float ``sum()`` is compensated from Python 3.12.
    signal, currents, interference = scale * serving, scale * interferers, np.zeros(serving.shape)
    for term in np.moveaxis(np.multiply(currents, currents, out=currents), -1, 0):
        interference += term
    linear = signal * signal / (params.noise_psd_A2_per_Hz * params.bandwidth_Hz + interference)
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
