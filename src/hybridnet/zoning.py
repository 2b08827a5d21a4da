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
lines that bracket it on each axis, or to every line of a short axis: the
two smallest per axis fix the two nearest AP distances, hence its zone.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import check_domains, check_fields, key
from .rng import spawn_streams

_MC_CHUNK = 1 << 18  # points per chunk of the zone model and of fig16; a chunk spawns its generator as it starts
# Points the zone model and fig16 draw and locate at once, in the buffers of a buffered plan. In process, the 121-AP
# model over 2^20 samples costs the same at 2^13 to 2^15 points, 1.4x at 2^12 and 2x at 2^11: numpy's per-call cost.
_CLASSIFY_SLICE = 1 << 14

# Fewest and most samples the Monte Carlo zone model accepts: at most 2**14 chunk generators.
MIN_MC_SAMPLES, MAX_MC_SAMPLES = 10**4, 2**32
# Most APs a room's grid may hold (RoomConfig's rule); a chunk holds _MC_CHUNK points whatever the AP count.
MAX_AP_COUNT = 2**21


class Zone(enum.Enum):
    Z1 = 1
    Z2 = 2
    Z3 = 3
    Z4 = 4


@dataclass(frozen=True)
class GridPlan:
    """AP grid geometry for one room; build with :func:`plan_grid`.

    The plan is its x and y lines, ``d_x_m`` and ``d_y_m`` apart; its APs are their row-major product, x fastest. On
    an axis of three or more lines that pitch is at least ``r``, and :func:`plan_grid` keeps it at least ``4r/3``: the
    two-line window of :meth:`sq_distances` needs that margin, as a point that rounding puts a few ulps into the next
    cell swaps one window line for another, both beyond ``r``. Its kernels allocate what they return; see :meth:`buffered`.
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
        object.__setattr__(self, "_kept", None)

    def buffered(self) -> GridPlan:
        """This plan, keeping the arrays its kernels compute into: a bulk call's slices reuse them, and what a kernel
        returns is valid until the plan's next kernel call."""
        plan = dataclasses.replace(self)
        object.__setattr__(plan, "_kept", {})
        return plan

    def _buffer(self, key: str, shape: tuple, dtype=float) -> np.ndarray:
        """An array of ``shape`` to compute into: a new one, or on a buffered plan a view of the one kept under ``key``."""
        kept, slot = {} if self._kept is None else self._kept, (key, shape[:-1], dtype)
        if slot not in kept or kept[slot].shape[-1] < shape[-1]:
            kept[slot] = np.empty(shape, dtype)
        return kept[slot][..., :shape[-1]]

    @property
    def inner_radius_m(self) -> float:
        """Radius of the Zone 2 disk around each AP: ``r - l_z/2``, l_z the larger per-axis overlap depth."""
        return self.coverage_radius_m - max(self.l_x_m, self.l_y_m) / 2.0

    def sq_distances(self, points: np.ndarray, width: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis window of (N, 2) in-room points: their squared offsets to ``min(width, lines)`` lines on each axis.

        Returns ``(dx2, dy2, col0, row0)``: ``dx2[i, p]`` is point ``p``'s squared offset from x line ``col0[p] + i``
        and ``dy2[j, p]`` from y line ``row0[p] + j``, so ``dy2[j, p] + dx2[i, p]`` is its squared distance to the AP
        in that row and column. Past three lines an axis's window starts at the line at or below a point, clipped to
        ``[0, lines - width]``, so the default two bracket it; an axis of at most three lines is read whole.
        Each pass reads one axis of the points in place, whatever their layout: the ``.T`` of a (2, N) array such as
        a slice of :func:`_uniform_slices`, or plain (N, 2) rows.
        """
        buf, window, n = self._buffer, [], len(points)
        xs, ys = xy = np.asarray(points, dtype=float).T  # checked by a whole-array min and per-axis maxima
        if not (xy.min(initial=0.0) >= 0.0 and xs.max(initial=0.0) <= self.room_x_m
                and ys.max(initial=0.0) <= self.room_y_m):
            raise ValueError("point outside the room rectangle")
        for axis, lines, pitch, p in zip("xy", self._lines, (self.d_x_m, self.d_y_m), (xs, ys)):
            # Up to three lines the whole axis beats a window's divide, clip and gathers (BENCH_40.json: 1.19x at 3)
            w = min(width, len(lines)) if len(lines) > 3 else len(lines)
            offset, first, near = buf(axis, (w, n)), np.intp(0), lines[:, None]  # a whole-axis window: from line 0
            if w < len(lines):  # floor((p - lines[0]) / pitch), clipped to [0, len(lines) - w]: the cast floors it
                cell = np.divide(np.subtract(p, lines[0], out=offset[0]), pitch, out=offset[0])
                first = np.clip(cell, 0, len(lines) - w, out=buf(axis + "0", (n,), np.intp), casting="unsafe")
                for j, row in enumerate(offset):  # row j: line first + j
                    lines[j:].take(first, out=row, mode="clip")
                near = offset
            window.append((np.square(np.subtract(p, near, out=offset), out=offset), first))
        (dx2, col0), (dy2, row0) = window
        return dx2, dy2, col0, row0

    def sole_cover(self, window: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Row-major index of the one AP covering each point of a :meth:`sq_distances` window; -1 where none or two do.
        A sole cover has no tie (an AP as near would cover the point too), so it is the first per-axis argmin."""
        dmin, second, col, row = _two_nearest(*window[:2], self._buffer)
        r2, n = self.coverage_radius_m**2, len(dmin)
        ap, covered = self._buffer("ap", (n,), np.intp), self._buffer("covered", (n,), bool)
        np.add(np.add(np.multiply(np.add(window[3], row, out=ap), self.n_x, out=ap), window[2], out=ap), col, out=ap)
        np.multiply(np.add(ap, 1, out=ap), np.less_equal(dmin, r2, out=covered), out=ap)  # 0 where none covers
        return np.subtract(np.multiply(ap, np.greater(second, r2, out=covered), out=ap), 1, out=ap)  # or two do


@dataclass(frozen=True)
class RoomConfig:
    """An ``a x b`` room, its LiFi APs' coverage radius ``r`` and its zone model's samples; see :func:`plan_grid`."""

    room_x_m: float = key(24.0, 1e-3, 1e4, "m")
    room_y_m: float = key(24.0, 1e-3, 1e4, "m")
    coverage_radius_m: float = key(5.0, 1e-3, 1e4, "m")
    mc_samples: int = key(1 << 20, MIN_MC_SAMPLES, MAX_MC_SAMPLES)

    def __post_init__(self):
        check_domains(self)
        check_fields(self, f"large enough for a grid of at most {MAX_AP_COUNT} APs",
                     lambda _: math.prod(_ap_lines(self)) <= MAX_AP_COUNT, "coverage_radius_m")


def _ap_lines(room: RoomConfig) -> tuple[int, int]:
    """APs per axis, ``floor(side/2r + 1)``."""
    return tuple(math.floor(side / (2.0 * room.coverage_radius_m) + 1.0) for side in (room.room_x_m, room.room_y_m))


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


def _two_nearest(dx2: np.ndarray, dy2: np.ndarray, buffer):
    """Each point's squared distances to its nearest and second-nearest AP, and its nearest's window column and row.
    With ``s1 <= s2`` the two smallest squared offsets on each axis (``s2`` is inf on a one-line axis), those are
    ``s1y + s1x``, at each axis's first line holding ``s1``, and ``min(s1y + s2x, s2y + s1x)``, exact as IEEE
    addition is monotone. Computed into the plan's ``buffer`` (:meth:`GridPlan._buffer`)."""
    stats, n = [], dx2.shape[1]
    for axis, rows in zip("xy", (dx2, dy2)):
        dtype = np.min_scalar_type(len(rows))
        least, second, first = rows[0], buffer(axis + "2nd", (n,)), buffer(axis + "col", (n,), dtype)
        if len(rows) == 1:  # a one-line axis has no second line
            second[...], first[...] = np.inf, 0
        else:  # the first two lines in order, then each further line: three rows give the min and the median of three
            np.less(rows[1], least, out=first)
            np.maximum(least, rows[1], out=second)
            least = np.minimum(least, rows[1], out=buffer(axis + "1st", (n,)))
        less, high = buffer("less", (n,), dtype), buffer("dmin", (n,))  # dmin is computed after the loops
        for j, row in enumerate(rows[2:], 2):
            np.maximum(first, np.multiply(np.less(row, least, out=less), j, out=less), out=first)  # j tops earlier ones
            np.minimum(second, np.maximum(least, row, out=high), out=second)
            np.minimum(least, row, out=least)
        stats.append((least, second, first))
    (s1x, s2x, col), (s1y, s2y, row) = stats
    dmin = np.add(s1y, s1x, out=buffer("dmin", (n,)))
    return dmin, np.minimum(np.add(s1y, s2x, out=s2x), np.add(s2y, s1x, out=s2y), out=s2y), col, row


def classify_points(plan: GridPlan, points: np.ndarray, window: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Zone codes (1..4) for an (N, 2) array of in-room points.

    Precedence: two or more covering APs make Z4 regardless of the inner
    disk; a single covering AP splits Z2/Z3 on the inner radius; no
    coverage is Z1. The codes read the per-axis window ``plan.sq_distances(points)``
    (a caller that also reads it passes it) through :func:`_two_nearest`.
    """
    dmin, second, _, _ = _two_nearest(*(plan.sq_distances(points) if window is None else window)[:2], plan._buffer)
    n, r2 = len(dmin), plan.coverage_radius_m**2
    in_disk, codes, twice = (plan._buffer(key, (n,), np.int8) for key in ("in_disk", "codes", "twice"))
    np.less_equal(dmin, plan.inner_radius_m**2, out=in_disk)
    # Z1 is 1; a covering AP adds 2 (Z3), less 1 in its inner disk (Z2); a second adds 1 + in_disk (Z4).
    np.subtract(np.add(np.multiply(np.less_equal(dmin, r2, out=codes), 2, out=codes), 1, out=codes), in_disk, out=codes)
    return np.add(codes, np.multiply(np.less_equal(second, r2, out=twice), np.add(in_disk, 1, out=in_disk), out=twice),
                  out=codes)


def _uniform_slices(plan: GridPlan, gen: np.random.Generator, count: int):
    """Each slice's start and points of ``gen.random((count, 2))`` scaled to the room, in two buffers of ``plan``. The
    points are axis-major, the ``.T`` of a (2, N) array whose x and y rows are each written contiguous in one pass."""
    for start in range(0, count, _CLASSIFY_SLICE):
        drawn = gen.random(out=plan._buffer("drawn", (2 * min(_CLASSIFY_SLICE, count - start),))).reshape(-1, 2)
        sides = ((plan.room_x_m,), (plan.room_y_m,))
        yield start, np.multiply(drawn.T, sides, out=plan._buffer("points", (2, len(drawn)))).T


def sole_covers(plan: GridPlan, gen: np.random.Generator, count: int) -> np.ndarray:
    """The sole covering AP (:meth:`GridPlan.sole_cover`) of each of ``count`` uniform in-room points from ``gen``."""
    covers = plan._buffer("covers", (count,), np.int32)  # an AP index is below MAX_AP_COUNT = 2**21
    for start, pts in _uniform_slices(plan, gen, count):
        covers[start:start + len(pts)] = plan.sole_cover(plan.sq_distances(pts))
    return covers


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
    results are reproducible. Each chunk is drawn and classified slice by slice in the buffers of
    :meth:`GridPlan.buffered`, so no slice allocates. Requires ``MIN_MC_SAMPLES`` to ``MAX_MC_SAMPLES``.
    """
    if not MIN_MC_SAMPLES <= sample_count <= MAX_MC_SAMPLES:
        raise ValueError(f"sample_count must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    a, b, buffered = plan.room_x_m, plan.room_y_m, plan.buffered()
    counts, zones = np.zeros(4, dtype=np.int64), spawn_streams(seed)["zones"]
    for start in range(0, sample_count, _MC_CHUNK):  # spawn(1) per chunk gives spawn(n)'s streams, one at a time
        gen, size = zones.spawn(1)[0], min(_MC_CHUNK, sample_count - start)
        for _, pts in _uniform_slices(buffered, gen, size):
            codes, hit = classify_points(buffered, pts), buffered._buffer("hit", (len(pts),), bool)
            counts += [np.count_nonzero(np.equal(codes, zone, out=hit)) for zone in (1, 2, 3, 4)]
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
