"""LiFi grid planning and the four-zone partition of a room.

A rectangular room of size ``a x b`` is covered by a grid of LiFi APs with
circular coverage of radius ``r``. The room splits into four zones:

  Z1  femto-only area (LiFi coverage hole),
  Z2  central LiFi coverage (inner disk of radius ``r - l_z/2``),
  Z3  LiFi edge coverage reached by exactly one AP,
  Z4  area covered by two or more LiFi APs (the high-interference lenses).

The closed-form zone areas evaluate the published expressions verbatim;
they are approximations (the pairwise-overlap term is counted once per AP
rather than once per adjacent pair, and wall clipping is ignored), so their
sum equals ``a*b + A_Z4`` instead of ``a*b``. The exact zone areas
integrate the circles' chords in closed form and sum to ``a*b``; the
probability consumers (fig16's bound, fig17's idle thinning) read the exact
zone probabilities. The Monte Carlo model estimates the same areas by
classifying uniform samples with the exact point classifier. The
classifier reads each point's per-axis window, its squared offsets to the
three lattice lines around it on each axis: the two smallest per axis fix
its nearest and second-nearest AP distance, which decide its zone.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import POSITIVE_FINITE, check_fields
from .rng import spawn_streams

_MC_CHUNK = 1 << 18
# Points classified at once, by the zone model and fig16, sized for cache: a
# slice's window is 0.8 MB; a whole fig16 chunk at once runs 1.4x slower in 40 MB more.
_CLASSIFY_SLICE = 1 << 14

# Fewest and most samples the Monte Carlo zone model accepts: at most 2**14 chunk generators.
MIN_MC_SAMPLES, MAX_MC_SAMPLES = 10**4, 2**32
# Most APs a room's grid may hold; fig16 draws placements in chunks of MAX_AP_COUNT // ap_count, at least 1.
MAX_AP_COUNT = 2**21


class Zone(enum.Enum):
    Z1 = 1
    Z2 = 2
    Z3 = 3
    Z4 = 4


@dataclass(frozen=True)
class GridPlan:
    """AP grid geometry for one room; build with :func:`plan_grid`.

    The plan is its x and y lines, ``d_x_m`` and ``d_y_m`` apart; its APs are their row-major product, x fastest. The
    lattice window of :meth:`sq_distances` needs that pitch to be at least the coverage radius on an axis of three or
    more lines. The femtocell AP sits at the room centre.
    """

    room_x_m: float
    room_y_m: float
    coverage_radius_m: float
    x_lines: tuple[float, ...]
    y_lines: tuple[float, ...]
    d_x_m: float
    d_y_m: float
    l_x_m: float
    l_y_m: float
    n_x = property(lambda self: len(self.x_lines))
    n_y = property(lambda self: len(self.y_lines))
    ap_count = property(lambda self: self.n_x * self.n_y)
    ap_centers = property(lambda self: tuple((x, y) for y in self.y_lines for x in self.x_lines))
    fap_center = property(lambda self: (self.room_x_m / 2.0, self.room_y_m / 2.0))

    def __post_init__(self):
        for axis, lines, pitch in (("x", self.x_lines, self.d_x_m), ("y", self.y_lines, self.d_y_m)):
            if not lines:
                raise ValueError(f"{axis}_lines: must hold at least one line")
            spaced = all(abs((b - a) - pitch) <= 1e-9 * pitch for a, b in zip(lines, lines[1:]))
            if not (0 < pitch < math.inf and spaced):
                raise ValueError(f"{axis}_lines: the {axis} lines are not d_{axis}_m = {pitch!r} apart")
            if len(lines) >= 3 and pitch < self.coverage_radius_m:
                raise ValueError(f"d_{axis}_m: pitch {pitch!r} is below the coverage radius on {len(lines)} lines")
        object.__setattr__(self, "_lines", (np.array(self.x_lines), np.array(self.y_lines)))

    @property
    def inner_radius_m(self) -> float:
        """Radius of the Zone 2 disk around each AP: ``r - l_z/2``, l_z the larger per-axis overlap depth."""
        return self.coverage_radius_m - max(self.l_x_m, self.l_y_m) / 2.0

    def sq_distances(self, points: np.ndarray, width: int = 3) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis window of (N, 2) in-room points: their squared offsets to ``min(width, lines)`` lines on each axis.

        Returns ``(dx2, dy2, col0, row0)``: ``dx2[i, p]`` is point ``p``'s squared offset from x line ``col0[p] + i``
        and ``dy2[j, p]`` from y line ``row0[p] + j``, so ``dy2[j, p] + dx2[i, p]`` is its squared distance to the AP
        in that row and column. The line at or below a point is the second of its window, clipped to the walls.
        """
        pts = np.asarray(points, dtype=float)
        xs, ys = pts.T  # checked by a whole-array min and per-column maxima: pts.min(axis=0) loops per point
        if not (pts.min(initial=0.0) >= 0.0 and xs.max(initial=0.0) <= self.room_x_m
                and ys.max(initial=0.0) <= self.room_y_m):
            raise ValueError("point outside the room rectangle")
        window = []
        for lines, pitch, p in zip(self._lines, (self.d_x_m, self.d_y_m), (xs, ys)):
            w = min(width, len(lines))
            first = np.intp(0) if w == len(lines) else np.minimum(  # a whole-axis window starts at line 0
                np.maximum(np.floor((p - lines[0]) / pitch).astype(np.intp) - 1, 0), len(lines) - w)
            offset = p - lines.take(first + np.arange(w)[:, None])
            window.append((np.square(offset, out=offset), first))
        (dx2, col0), (dy2, row0) = window
        return dx2, dy2, col0, row0

    def sole_cover(self, window: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Row-major index of the one AP covering each point of a :meth:`sq_distances` window; -1 where none or two do.
        A sole cover has no tie (an AP as near would cover the point too), so it is the first per-axis argmin."""
        dmin, second, col, row = _two_nearest(*window[:2])
        r2 = self.coverage_radius_m**2
        return ((dmin <= r2) & (second > r2)) * ((window[3] + row) * self.n_x + window[2] + col + 1) - 1


@dataclass(frozen=True)
class RoomConfig:
    """An ``a x b`` room and the coverage radius ``r`` of its LiFi APs; :func:`plan_grid` lays out its grid."""

    room_x_m: float = 24.0
    room_y_m: float = 24.0
    coverage_radius_m: float = 5.0

    def __post_init__(self):
        check_fields(self, *POSITIVE_FINITE, "room_x_m", "room_y_m", "coverage_radius_m")
        check_fields(self, f"large enough for a grid of at most {MAX_AP_COUNT} APs",
                     lambda _: math.prod(_ap_lines(self)) <= MAX_AP_COUNT, "coverage_radius_m")
        check_fields(self, "at most 1e150 m (each squared offset in the lattice window below 1e300)",
                     lambda v: v <= 1e150, "room_x_m", "room_y_m", "coverage_radius_m")


def _ap_lines(room: RoomConfig) -> tuple[int, int]:
    """APs per axis, ``floor(side/2r + 1)``, capped past ``MAX_AP_COUNT`` so that a ratio beyond the float range floors."""
    return tuple(math.floor(min(side / (2.0 * room.coverage_radius_m) + 1.0, MAX_AP_COUNT + 1.0))
                 for side in (room.room_x_m, room.room_y_m))


def plan_grid(room: RoomConfig) -> GridPlan:
    """Lay out the densest regular AP grid for the room.

    Per-axis AP count is ``n = floor(a/2r + 1)``, pitch ``a / n``
    and overlap depth ``(2 r n - a) / n``; the first x and y line sits
    ``r - l/2`` from the wall so overhang is symmetric. The plan holds the
    lines only; its AP centres are their product.
    """
    a, b, r = room.room_x_m, room.room_y_m, room.coverage_radius_m
    n_x, n_y = _ap_lines(room)
    d_x = a / n_x  # not a / floor((a + 2r) / 2r): its rounding can disagree with n_x
    d_y = b / n_y
    l_x = (2.0 * r * n_x - a) / n_x
    l_y = (2.0 * r * n_y - b) / n_y
    return GridPlan(
        room_x_m=a, room_y_m=b, coverage_radius_m=r,
        x_lines=tuple((r - l_x / 2.0) + i * (2.0 * r - l_x) for i in range(n_x)),
        y_lines=tuple((r - l_y / 2.0) + j * (2.0 * r - l_y) for j in range(n_y)),
        d_x_m=d_x, d_y_m=d_y, l_x_m=l_x, l_y_m=l_y,
    )


def min_ap_count(room: RoomConfig) -> int:
    """Sparsest grid that still tiles the room: floor(a/2r) * floor(b/2r)."""
    return math.prod(math.floor(side / (2.0 * room.coverage_radius_m)) for side in (room.room_x_m, room.room_y_m))


def circle_segment_integral(r: float, overlap: float) -> float:
    """Closed form of ``integral_{r-l/2}^{r} sqrt(r^2 - x^2) dx``."""

    def antiderivative(x: float) -> float:
        return x * math.sqrt(max(r * r - x * x, 0.0)) / 2.0 + (r * r / 2.0) * math.asin(min(max(x / r, -1.0), 1.0))

    return antiderivative(r) - antiderivative(r - overlap / 2.0)


def _circle_antiderivative(r: float, x: float) -> float:
    """``integral_0^x sqrt(r^2 - t^2) dt``, constant beyond ``[-r, r]``: the antiderivative above, in a form
    accurate near ``+-r``, where ``r*r - x*x`` and ``asin(x/r)`` lose half their digits (3e-8 m^2 per piece end
    at r = 5) while ``r - x`` is exact. The form above stays, as the published areas' bytes depend on it."""
    x = min(max(x, -r), r)
    s = math.sqrt((r - x) * (r + x))
    return (x * s + r * r * math.atan2(x, s)) / 2.0


def analytic_zone_areas(plan: GridPlan) -> tuple[float, float, float, float]:
    """Closed-form zone areas (A_Z1, A_Z2, A_Z3, A_Z4) in m^2.

    Evaluated verbatim; the documented residual is
    ``A_Z1 + A_Z2 + A_Z3 + A_Z4 == a*b + A_Z4``.
    """
    a, b, r = plan.room_x_m, plan.room_y_m, plan.coverage_radius_m
    n = plan.n_x * plan.n_y
    seg = circle_segment_integral(r, plan.l_x_m) + circle_segment_integral(r, plan.l_y_m)
    a_z4 = 4.0 * n * seg
    a_z1 = a * b - n * math.pi * r * r + a_z4
    a_z2 = n * math.pi * plan.inner_radius_m**2
    a_z3 = n * math.pi * r * r - a_z2 - a_z4
    return a_z1, a_z2, a_z3, a_z4


# Relative slack within which two circles, or a circle and a wall, count as touching: a touching point
# splits the x-axis too, so that no piece is sampled where two chord ends meet.
_TOUCH = 1e-12


def _crossing_offsets(dx: float, dy: float, r1: float, r2: float) -> tuple[float, ...]:
    """The x offsets, from its centre, at which a circle of radius ``r1`` crosses or touches one of radius ``r2``
    centred ``(dx, dy)`` away; none when they do not meet."""
    d2 = dx * dx + dy * dy
    d = math.sqrt(d2)
    if not abs(r1 - r2) * (1.0 - _TOUCH) <= d <= (r1 + r2) * (1.0 + _TOUCH):
        return ()
    along = (d2 + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - along * along, 0.0))
    return (along * dx - h * dy) / d, (along * dx + h * dy) / d


def exact_zone_areas(plan: GridPlan) -> tuple[float, float, float, float]:
    """Exact zone areas (A_Z1, A_Z2, A_Z3, A_Z4) in m^2; they sum to ``a*b`` up to rounding.

    The x-axis splits at every breakpoint: the extremes of each disc and inner disc, and the x where two
    circles, or a circle and the wall ``y = 0`` or ``y = b``, cross or touch. Between two breakpoints the
    chord ends ``cy +- sqrt(R^2 - (x - cx)^2)``, clipped to the walls, keep their order. So, sorted at the
    piece's middle, they give the y-measure covered at least once, at least twice (Z4), and by an inner
    disc but once only (Z2) as signed sums of chord ends, and each end integrates over the piece with the
    circle antiderivative. Only lattice neighbours' circles can meet: on an axis of three or more lines
    the pitch is at least ``r``, so APs two lines apart are at least ``2r`` apart. Python floats and
    ``math`` only, no quadrature.
    """
    a, b = plan.room_x_m, plan.room_y_m
    cols, rows = plan.x_lines, plan.y_lines
    circles = [(plan.coverage_radius_m, False)] + [(plan.inner_radius_m, True)] * (plan.inner_radius_m > 0)
    breaks = {0.0, a}
    for radius, _ in circles:
        breaks.update(cx + side * radius for cx in cols for side in (-1.0, 1.0))
        for offset in (wall - cy for cy in rows for wall in (0.0, b)):
            h2 = radius * radius - offset * offset
            if h2 >= -_TOUCH * radius * radius:
                breaks.update(cx + side * math.sqrt(max(h2, 0.0)) for cx in cols for side in (-1.0, 1.0))
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):  # one step right, up or diagonally: every pair once
        if di < len(cols) and abs(dj) < len(rows):
            for (r1, _), (r2, _) in itertools.product(circles, repeat=2):
                for offset in _crossing_offsets(di * plan.d_x_m, dj * plan.d_y_m, r1, r2):
                    breaks.update(cx + offset for cx in cols[:len(cols) - di])
    xs = sorted(x for x in breaks if 0.0 <= x <= a)
    covered = twice = inner_once = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        xm, width = (x0 + x1) / 2.0, x1 - x0
        ends = []  # (y at xm, +1 into a disc or -1 out of it, inner disc?, the end's integral over the piece)
        for radius, inner in circles:
            for cx in cols[bisect.bisect_left(cols, xm - radius):bisect.bisect_right(cols, xm + radius)]:
                half = math.sqrt(max(radius * radius - (xm - cx) ** 2, 0.0))
                area = _circle_antiderivative(radius, x1 - cx) - _circle_antiderivative(radius, x0 - cx)
                for cy in rows:
                    lo, hi = cy - half, cy + half
                    if hi > 0.0 and lo < b:
                        ends += [(lo, 1, inner, cy * width - area) if lo > 0.0 else (0.0, 1, inner, 0.0),
                                 (hi, -1, inner, cy * width + area) if hi < b else (b, -1, inner, b * width)]
        ends.sort()
        depth = inner_depth = 0
        for (_, step, inner, lower), (_, _, _, upper) in zip(ends, ends[1:]):
            if inner:
                inner_depth += step
            else:
                depth += step
            if depth:
                covered += upper - lower
            if depth >= 2:
                twice += upper - lower
            elif inner_depth:
                inner_once += upper - lower
    return max(a * b - covered, 0.0), inner_once, max(covered - inner_once - twice, 0.0), twice


def exact_zone_probabilities(plan: GridPlan) -> tuple[float, float, float, float]:
    """Zone occupancy probabilities (Z1..Z4) of a user placed uniformly in the room: the exact areas over ``a*b``."""
    ab = plan.room_x_m * plan.room_y_m
    return tuple(area / ab for area in exact_zone_areas(plan))


def _two_nearest(dx2: np.ndarray, dy2: np.ndarray):
    """Each point's squared distances to its nearest and second-nearest AP, and its nearest's window column and row.
    With ``s1 <= s2`` the two smallest squared offsets on each axis (``s2`` is inf on a one-line axis), those are
    ``s1y + s1x``, at each axis's first line holding ``s1``, and ``min(s1y + s2x, s2y + s1x)``, exact as IEEE
    addition is monotone."""
    stats = []
    for rows in (dx2, dy2):
        least, second, first = rows[0], np.inf, np.zeros(rows.shape[1], dtype=np.min_scalar_type(len(rows)))
        for j, row in enumerate(rows[1:], 1):  # three rows (the default window): the min and the median of three
            first = np.maximum(first, (row < least) * first.dtype.type(j))  # j is above every earlier first
            least, second = np.minimum(least, row), np.minimum(second, np.maximum(least, row))
        stats.append((least, second, first))
    (s1x, s2x, col), (s1y, s2y, row) = stats
    return s1y + s1x, np.minimum(s1y + s2x, s2y + s1x), col, row


def classify_points(plan: GridPlan, points: np.ndarray, window: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Zone codes (1..4) for an (N, 2) array of in-room points.

    Precedence: two or more covering APs make Z4 regardless of the inner
    disk; a single covering AP splits Z2/Z3 on the inner radius; no
    coverage is Z1. The codes read the per-axis window ``plan.sq_distances(points)``
    (a caller that also reads it passes it) through :func:`_two_nearest`.
    """
    dmin, second, _, _ = _two_nearest(*(plan.sq_distances(points) if window is None else window)[:2])
    r2 = plan.coverage_radius_m**2
    in_disk = (dmin <= plan.inner_radius_m**2).view(np.int8)
    # Z1 is 1; a covering AP adds 2 (Z3), less 1 in its inner disk (Z2); a second adds 1 + in_disk (Z4).
    return np.int8(1) + np.int8(2) * (dmin <= r2) - in_disk + (second <= r2) * (in_disk + np.int8(1))


@dataclass(frozen=True)
class ZoneModel:
    """Zone areas and occupancy probabilities for one grid plan.

    ``zone_probs`` and ``mc_areas_m2`` close the partition on Z4, so each
    4-tuple sums (left to right) to exactly 1.0 and exactly ``a*b``; the
    integer ``sample_counts`` are the raw classification tallies.
    """

    analytic_areas_m2: tuple[float, float, float, float]
    mc_areas_m2: tuple[float, float, float, float]
    zone_probs: tuple[float, float, float, float]
    sample_counts: tuple[int, int, int, int]
    sample_count: int

    def csv_rows(self) -> list[tuple[str, float, float, float]]:
        """(zone, analytic_area, mc_area, probability) per zone."""
        return [
            (zone.name, self.analytic_areas_m2[i], self.mc_areas_m2[i], self.zone_probs[i])
            for i, zone in enumerate(Zone)
        ]


def monte_carlo_zone_model(plan: GridPlan, sample_count: int, seed: int) -> ZoneModel:
    """Estimate zone areas by classifying uniform samples over the room.

    Sampling is sharded into fixed-size chunks, each with its own generator
    spawned from the seed's ``zones`` stream, and merged in shard order, so
    results are reproducible. Each chunk is classified in slices, so memory
    stays bounded at large AP counts. Requires ``MIN_MC_SAMPLES`` to ``MAX_MC_SAMPLES``.
    """
    if not MIN_MC_SAMPLES <= sample_count <= MAX_MC_SAMPLES:
        raise ValueError(f"sample_count must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    a, b = plan.room_x_m, plan.room_y_m
    n_chunks = (sample_count + _MC_CHUNK - 1) // _MC_CHUNK
    counts = np.zeros(4, dtype=np.int64)
    for k, gen in enumerate(spawn_streams(seed)["zones"].spawn(n_chunks)):
        pts = gen.random((min(_MC_CHUNK, sample_count - k * _MC_CHUNK), 2))
        pts[:, 0] *= a  # a column at a time: * (a, b) would loop over the points
        pts[:, 1] *= b
        for start in range(0, len(pts), _CLASSIFY_SLICE):
            codes = classify_points(plan, pts[start:start + _CLASSIFY_SLICE])
            counts += np.bincount(codes, minlength=5)[1:5]
    c = [int(v) for v in counts]
    # Close the partition on Z4: the first three probabilities are the
    # exact count ratios and the last is 1 minus their running float sum,
    # which makes the left-to-right sum land on exactly 1.0.
    p1, p2, p3 = c[0] / sample_count, c[1] / sample_count, c[2] / sample_count
    p4 = 1.0 - ((p1 + p2) + p3)
    ab = a * b
    m1, m2, m3 = p1 * ab, p2 * ab, p3 * ab
    m4 = ab - ((m1 + m2) + m3)
    return ZoneModel(
        analytic_areas_m2=analytic_zone_areas(plan),
        mc_areas_m2=(m1, m2, m3, m4),
        zone_probs=(p1, p2, p3, p4),
        sample_counts=(c[0], c[1], c[2], c[3]),
        sample_count=sample_count,
    )


def occupancy_probability(p_users: int, zone_prob: float, m: int) -> float:
    """Probability that exactly ``m`` of ``p_users`` fall in a zone.

    Binomial point mass ``C(p, m) q^m (1-q)^(p-m)`` with ``q`` the zone
    occupancy probability.
    """
    if not 0.0 <= zone_prob <= 1.0:
        raise ValueError("zone probability must lie in [0, 1]")
    if m < 0 or p_users < 0 or m > p_users:
        raise ValueError("need 0 <= m <= p_users")
    return math.comb(p_users, m) * zone_prob**m * (1.0 - zone_prob) ** (p_users - m)
