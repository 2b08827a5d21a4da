"""Grid planning and zone-partition tests with independent geometry oracles."""

import dataclasses
import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridnet.zoning import (
    _CLASSIFY_SLICE, GridPlan, Zone, _uniform_slices, analytic_zone_areas, circle_segment_integral,
    classify_points, exact_zone_areas, exact_zone_probabilities, min_ap_count, monte_carlo_zone_model,
    MAX_AP_COUNT, RoomConfig, occupancy_probability, plan_grid, sole_covers,
)
from oracles import (classify_against_every_ap, sq_distances_to_every_ap, zone_areas_by_greens_theorem,
                     zone_counts_from_whole_chunks)

PLAN_24 = plan_grid(RoomConfig(24.0, 24.0, 5.0))
PLAN_121 = plan_grid(RoomConfig(100.0, 100.0, 5.0))


def single_ap_plan(a: float, b: float, r: float) -> GridPlan:
    """A hand-built one-AP plan for overlap-free cases."""
    return GridPlan(
        room_x_m=a, room_y_m=b, coverage_radius_m=r,
        x_lines=(a / 2.0,), y_lines=(b / 2.0,), d_x_m=a, d_y_m=b, l_x_m=0.0, l_y_m=0.0,
    )


class TestPlanGrid:
    def test_reference_room_has_nine_aps(self):
        assert (PLAN_24.n_x, PLAN_24.n_y) == (3, 3)
        assert PLAN_24.ap_count == 9

    def test_reference_room_spacing_overlap_centers(self):
        assert PLAN_24.d_x_m == pytest.approx(8.0, abs=1e-12)
        assert PLAN_24.l_x_m == pytest.approx((2 * 5 * 3 - 24) / 3, abs=1e-12)
        xs = sorted({x for x, _ in PLAN_24.ap_centers})
        assert xs == pytest.approx([4.0, 12.0, 20.0], abs=1e-12)
        assert PLAN_24.fap_center == (12.0, 12.0)

    def test_small_square_room(self):
        plan = plan_grid(RoomConfig(10.0, 10.0, 5.0))
        assert (plan.n_x, plan.n_y) == (2, 2)
        assert plan.l_x_m == pytest.approx((20 - 10) / 2, abs=1e-12)
        assert plan.d_x_m == pytest.approx(5.0, abs=1e-12)

    def test_room_smaller_than_one_cell(self):
        plan = plan_grid(RoomConfig(8.0, 8.0, 5.0))
        assert (plan.n_x, plan.n_y) == (1, 1)
        assert plan.ap_centers[0] == pytest.approx((4.0, 4.0))

    def test_invalid_dimensions(self):
        for a, b, r in [(0, 24, 5), (24, -1, 5), (24, 24, 0)]:
            with pytest.raises(ValueError):
                RoomConfig(a, b, r)

    @pytest.mark.parametrize("a,b,r", [(math.inf, 24, 5), (math.nan, 24, 5), (24, math.inf, 5), (24, 24, math.inf),
                                       (24, 24, math.nan)])
    def test_non_finite_sizes_rejected(self, a, b, r):
        with pytest.raises(ValueError, match="positive and finite"):
            RoomConfig(a, b, r)

    @given(
        a=st.floats(min_value=1.0, max_value=200.0),
        b=st.floats(min_value=1.0, max_value=200.0),
        r=st.floats(min_value=0.5, max_value=25.0),
    )
    @example(a=1.0, b=199.99999999999997, r=25.0)  # b/2r is just below 4, yet b/2r + 1 rounds up to 5
    @settings(max_examples=200)
    def test_spacing_overlap_consistency(self, a, b, r):
        plan = plan_grid(RoomConfig(a, b, r))
        assert plan.n_x == math.floor(a / (2 * r) + 1)
        assert plan.d_x_m <= 2 * r + 1e-12
        assert plan.l_x_m == pytest.approx(2 * r - plan.d_x_m, rel=1e-9, abs=1e-9)
        assert plan.l_x_m >= -1e-12 and plan.l_y_m >= -1e-12
        assert len(plan.ap_centers) == plan.n_x * plan.n_y


class TestRoomConfig:
    def test_grid_of_at_most_max_ap_count_aps(self):
        # a = 2**21 - 1 and r = 0.5 give floor(a/2r + 1) = 2**21 lines on x, and b = 0.5 one line on y
        assert RoomConfig(2097151.0, 0.5, 0.5)
        with pytest.raises(ValueError, match=f"^coverage_radius_m: must be .* a grid of at most {MAX_AP_COUNT} APs"):
            RoomConfig(2097152.0, 0.5, 0.5)

    @pytest.mark.parametrize("a,b,r", [(24.0, 24.0, 1e-9), (1.7e308, 1.7e308, 5e-324), (1.7e308, 0.5, 0.5)])
    def test_a_grid_beyond_the_float_range_is_rejected(self, a, b, r):
        with pytest.raises(ValueError, match="^coverage_radius_m: must be large enough"):
            RoomConfig(a, b, r)

    @pytest.mark.filterwarnings("error")
    def test_lengths_of_at_most_1e150_m_keep_the_window_finite(self):
        plan = plan_grid(RoomConfig(1e150, 1e150, 1e149))  # 6 x 6 APs; default window width 2
        pts = np.array([[0.0, 0.0], [1e150, 1e150], [0.0, 1e150], [5e149, 5e149]])
        for width in (2, 3, 6):
            dx2, dy2, _, _ = plan.sq_distances(pts, width)
            assert np.isfinite(dy2[:, None, :] + dx2[None, :, :]).all()
        assert classify_points(plan, pts).tolist() == classify_against_every_ap(plan, pts)[0].tolist()
        beyond = np.nextafter(1e150, np.inf)
        for sides, key in (((beyond, 1.0, 1e149), "room_x_m"), ((1.0, beyond, 1e149), "room_y_m"),
                           ((1.0, 1.0, beyond), "coverage_radius_m")):
            with pytest.raises(ValueError, match=f"^{key}: must be at most 1e150 m"):
                RoomConfig(*sides)

    def test_dense_and_wide_rooms_are_accepted(self):
        assert min_ap_count(RoomConfig(24.0, 24.0, 0.01)) == 1200 * 1200  # a 1201 x 1201 grid: 1,442,401 APs
        assert plan_grid(RoomConfig(100.0, 100.0)).ap_count == 121


class TestLatticePrecondition:
    @given(
        a=st.floats(min_value=0.01, max_value=200.0),
        b=st.floats(min_value=0.01, max_value=200.0),
        r=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_planned_grid_is_a_lattice_at_pitch_r(self, a, b, r):
        plan = plan_grid(RoomConfig(a, b, r))  # GridPlan checks the precondition at construction
        assert dataclasses.replace(plan) == plan
        assert plan.ap_centers == tuple((x, y) for y in plan.y_lines for x in plan.x_lines)  # row-major, x fastest
        assert plan.ap_count == plan.n_x * plan.n_y == len(plan.ap_centers)
        for n, pitch, coords in ((plan.n_x, plan.d_x_m, [x for x, _ in plan.ap_centers]),
                                 (plan.n_y, plan.d_y_m, [y for _, y in plan.ap_centers])):
            lines = sorted(set(coords))
            assert len(lines) == n
            if n >= 3:
                assert pitch >= 4.0 * r / 3.0 * (1 - 1e-12) and min(np.diff(lines)) >= r

    def test_the_densest_plan_holds_its_lines_only(self):
        room = RoomConfig(24.0, 24.0, 0.01)  # a 1201 x 1201 grid: 1,442,401 APs
        tracemalloc.start()
        try:
            plan = plan_grid(room)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.ap_count == 1201 * 1201
        assert peak < 2e6  # two tuples of 1201 lines and their arrays; a tuple of every centre would take 180 MB

    @pytest.mark.parametrize("axis", ["x_lines", "y_lines"])
    def test_empty_lines_rejected(self, axis):
        with pytest.raises(ValueError, match=f"^{axis}: must hold at least one line"):
            dataclasses.replace(PLAN_24, **{axis: ()})

    def test_uneven_lines_rejected(self):
        with pytest.raises(ValueError, match="x lines are not d_x_m"):
            dataclasses.replace(PLAN_24, x_lines=(4.0, 11.0, 20.0))
        with pytest.raises(ValueError, match="y lines are not d_y_m"):
            dataclasses.replace(PLAN_24, d_y_m=8.5)
        with pytest.raises(ValueError, match="y lines are not d_y_m"):
            dataclasses.replace(PLAN_24, d_y_m=math.inf)
        with pytest.raises(ValueError, match="y lines are not d_y_m"):
            dataclasses.replace(PLAN_24, d_y_m=8.0 * (1 + 1e-8))
        assert dataclasses.replace(PLAN_24, d_y_m=8.0 * (1 + 1e-10)).d_y_m == 8.0 * (1 + 1e-10)  # within rtol 1e-9

    def test_pitch_below_radius_rejected(self):
        # Three x lines 4 m apart at r = 5: a 3-line window could miss a covering AP.
        with pytest.raises(ValueError, match="d_x_m: pitch 4.0 is below the coverage radius"):
            dataclasses.replace(PLAN_24, d_x_m=4.0, x_lines=(8.0, 12.0, 16.0))
        # Two lines need no window, so any positive pitch is a lattice.
        assert dataclasses.replace(PLAN_24, d_x_m=2.0, x_lines=(11.0, 13.0)).n_x == 2


class TestMinApCount:
    def test_examples(self):
        assert min_ap_count(RoomConfig(24, 24, 5)) == 4
        assert min_ap_count(RoomConfig(10, 10, 5)) == 1
        assert min_ap_count(RoomConfig(20, 10, 5)) == 2


class TestAnalyticAreas:
    def test_segment_integral_against_quadrature(self):
        xs = np.linspace(4.0, 5.0, 200_001)
        quad = np.trapezoid(np.sqrt(25.0 - xs**2), xs)
        closed = circle_segment_integral(5.0, 2.0)
        assert closed == pytest.approx(2.0437, abs=1e-4)
        assert closed == pytest.approx(float(quad), rel=1e-6)

    def test_reference_zone_areas(self):
        a_z1, a_z2, a_z3, a_z4 = analytic_zone_areas(PLAN_24)
        seg = circle_segment_integral(5.0, 2.0)
        assert a_z2 == pytest.approx(9 * math.pi * (5 - 1) ** 2, rel=1e-12)
        assert a_z2 == pytest.approx(452.39, abs=0.005)
        assert a_z4 == pytest.approx(36 * 2 * seg, rel=1e-12)
        assert a_z4 == pytest.approx(147.15, abs=0.005)
        assert a_z1 == pytest.approx(576 - 9 * math.pi * 25 + a_z4, rel=1e-12)
        assert a_z1 == pytest.approx(16.29, abs=0.005)
        assert a_z3 == pytest.approx(107.32, abs=0.005)

    def test_disk_identity_and_residual(self):
        a_z1, a_z2, a_z3, a_z4 = analytic_zone_areas(PLAN_24)
        n_pi_r2 = 9 * math.pi * 25.0
        assert a_z2 + a_z3 + a_z4 == pytest.approx(n_pi_r2, rel=1e-12)
        # The closed forms do not tile the room; the residual is A_Z4.
        assert a_z1 + a_z2 + a_z3 + a_z4 == pytest.approx(576.0 + a_z4, rel=1e-12)

    def test_published_forms_fail_on_a_narrow_room(self):
        # A 10 m x 1 m room at r = 5 has two APs whose discs overhang both long walls, which the closed forms ignore:
        # they give Z3 < 0 and Z1 beyond the room, while the exact areas are non-negative and tile it.
        plan = plan_grid(RoomConfig(10.0, 1.0, 5.0))
        z1, _z2, z3, _z4 = analytic_zone_areas(plan)
        assert z3 == pytest.approx(-43.02, abs=0.005) and z1 == pytest.approx(51.45, abs=0.005)
        exact = exact_zone_areas(plan)
        assert min(exact) >= 0.0 and sum(exact) == pytest.approx(10.0, rel=1e-12)

    def test_analytic_and_mc_areas_reported_side_by_side(self):
        model = monte_carlo_zone_model(PLAN_24, 50_000, seed=2)
        assert all(v >= 0.0 for v in model.analytic_areas_m2)
        assert all(v >= 0.0 for v in model.mc_areas_m2)
        # the two columns are both exposed; the discrepancy stays visible
        rows = model.csv_rows()
        for _, analytic, mc, _ in rows:
            assert analytic >= 0.0 and mc >= 0.0
        assert rows[3][1] != pytest.approx(rows[3][2], rel=0.05)  # Z4 overcount is not hidden


# The plans the exact areas are checked on: the default room, the 121-AP floor, uneven overlaps on the
# two axes, a room covered whole (no Z1), and a two-column plan whose inner discs touch along x.
EXACT_PLANS = [(24.0, 24.0, 5.0), (100.0, 100.0, 5.0), (60.0, 35.0, 3.0), (10.0, 10.0, 5.0), (7.0, 30.0, 2.5)]


class TestExactAreas:
    @staticmethod
    def assert_exact(plan: GridPlan):
        ab = plan.room_x_m * plan.room_y_m
        areas = exact_zone_areas(plan)
        assert sum(areas) == pytest.approx(ab, rel=1e-12)
        # The floor of 1e-12 ab is for a zone the room lacks, 0 to rounding by either method.
        assert areas == pytest.approx(zone_areas_by_greens_theorem(plan), rel=1e-9, abs=1e-12 * ab)

    @pytest.mark.parametrize("a,b,r", EXACT_PLANS)
    def test_agrees_with_greens_theorem(self, a, b, r):
        self.assert_exact(plan_grid(RoomConfig(a, b, r)))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1.0, 25.0), st.floats(1.0, 25.0), st.floats(2.0, 8.0))
    def test_agrees_with_greens_theorem_on_drawn_plans(self, a, b, r):
        self.assert_exact(plan_grid(RoomConfig(a, b, r)))

    def test_one_ap_inside_the_room(self):
        plan = GridPlan(room_x_m=12.0, room_y_m=12.0, coverage_radius_m=5.0, x_lines=(6.0,), y_lines=(6.0,),
                        d_x_m=12.0, d_y_m=12.0, l_x_m=2.0, l_y_m=2.0)
        assert plan.inner_radius_m == 4.0
        z1, z2, z3, z4 = exact_zone_areas(plan)
        assert z2 == pytest.approx(math.pi * 16.0, rel=1e-12)
        assert z3 == pytest.approx(math.pi * (25.0 - 16.0), rel=1e-12)
        assert z4 == 0.0
        assert z1 == pytest.approx(144.0 - math.pi * 25.0, rel=1e-12)

    def test_default_room_costs_at_most_two_milliseconds(self):
        timings = []
        for _ in range(10):  # the fastest of ten, so that a busy host does not fail it
            start = time.perf_counter()
            exact_zone_areas(PLAN_24)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 2e-3

    @pytest.mark.parametrize("a,b,r", EXACT_PLANS)
    def test_monte_carlo_model_within_four_standard_errors(self, a, b, r):
        plan, samples = plan_grid(RoomConfig(a, b, r)), 1 << 20
        model = monte_carlo_zone_model(plan, samples, seed=0)
        for got, want in zip(model.zone_probs, exact_zone_probabilities(plan)):
            assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / samples)


class TestClassifyPoint:
    def test_ap_center_is_zone2(self):
        assert classify_points(PLAN_24, [(4.0, 4.0)]).tolist() == [Zone.Z2.value]

    def test_midpoint_of_adjacent_centers_is_zone4(self):
        # two-circle membership oracle
        d_left = math.hypot(8 - 4, 4 - 4)
        d_right = math.hypot(8 - 12, 4 - 4)
        assert d_left <= 5 and d_right <= 5
        assert classify_points(PLAN_24, [(8.0, 4.0)]).tolist() == [Zone.Z4.value]

    def test_corner_is_zone1(self):
        nearest = min(math.hypot(0.1 - x, 0.1 - y) for x, y in PLAN_24.ap_centers)
        assert nearest > 5.0
        assert classify_points(PLAN_24, [(0.1, 0.1)]).tolist() == [Zone.Z1.value]

    def test_wall_band_splits_on_inner_radius(self):
        # (4, 0.5): 3.5 m from its only covering center, inside the inner disk.
        d = sorted(math.hypot(4.0 - x, 0.5 - y) for x, y in PLAN_24.ap_centers)
        assert d[0] == pytest.approx(3.5) and d[1] > 5.0
        assert classify_points(PLAN_24, [(4.0, 0.5)]).tolist() == [Zone.Z2.value]
        # (6, 0.5): 4.03 m from its only covering center, outside the inner disk.
        d = sorted(math.hypot(6.0 - x, 0.5 - y) for x, y in PLAN_24.ap_centers)
        assert 4.0 < d[0] <= 5.0 and d[1] > 5.0
        assert classify_points(PLAN_24, [(6.0, 0.5)]).tolist() == [Zone.Z3.value]

    def test_outside_room_rejected(self):
        with pytest.raises(ValueError):
            classify_points(PLAN_24, [(-0.1, 5.0)])
        with pytest.raises(ValueError):
            classify_points(PLAN_24, [(5.0, 24.1)])

    @given(
        x=st.floats(min_value=0.0, max_value=24.0),
        y=st.floats(min_value=0.0, max_value=24.0),
    )
    @settings(max_examples=300)
    def test_total_partition(self, x, y):
        zone = Zone(int(classify_points(PLAN_24, [(x, y)])[0]))
        assert zone in (Zone.Z1, Zone.Z2, Zone.Z3, Zone.Z4)
        # agreement with a direct distance-count oracle
        d = [math.hypot(x - cx, y - cy) for cx, cy in PLAN_24.ap_centers]
        covering = sum(1 for v in d if v <= 5.0)
        if covering >= 2:
            assert zone is Zone.Z4
        elif covering == 0:
            assert zone is Zone.Z1
        else:
            assert zone is (Zone.Z2 if min(d) <= 4.0 else Zone.Z3)


def _adversarial_points(plan: GridPlan, gen: np.random.Generator, count: int) -> np.ndarray:
    """Corners plus points whose x and y each sit on an AP line, a midpoint between
    adjacent lines, a coverage or inner-disk boundary of a line, or a wall."""
    axes = []
    for side, coords in ((plan.room_x_m, [x for x, _ in plan.ap_centers]), (plan.room_y_m, [y for _, y in plan.ap_centers])):
        lines = np.array(sorted(set(coords)))
        special = np.concatenate([
            lines, (lines[:-1] + lines[1:]) / 2.0, [0.0, side],
            lines + plan.coverage_radius_m, lines - plan.coverage_radius_m,
            lines + plan.inner_radius_m, lines - plan.inner_radius_m,
        ])
        axes.append(special[(special >= 0.0) & (special <= side)])
    corners = [(0.0, 0.0), (plan.room_x_m, 0.0), (0.0, plan.room_y_m), (plan.room_x_m, plan.room_y_m)]
    return np.vstack([corners, np.column_stack([gen.choice(axes[0], count), gen.choice(axes[1], count)])])


class TestLatticeWindow:
    @given(
        a=st.floats(min_value=1.0, max_value=200.0),
        b=st.floats(min_value=1.0, max_value=200.0),
        r=st.floats(min_value=0.5, max_value=25.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_matches_every_ap_oracle(self, a, b, r, seed):
        plan = plan_grid(RoomConfig(a, b, r))
        gen = np.random.default_rng(seed)
        pts = np.vstack([gen.random((64, 2)) * (a, b), _adversarial_points(plan, gen, 64)])
        codes, nearest = classify_against_every_ap(plan, pts)
        window = plan.sq_distances(pts)
        assert classify_points(plan, pts).tolist() == codes.tolist()
        assert classify_points(plan, pts, window).tolist() == codes.tolist()
        assert plan.sole_cover(window).tolist() == np.where(np.isin(codes, (2, 3)), nearest, -1).tolist()

    def test_whole_lattice_window_holds_every_distance_in_row_major_order(self):
        plan = plan_grid(RoomConfig(60.0, 35.0, 3.0))
        pts = np.random.default_rng(2).random((50, 2)) * (60.0, 35.0)
        dx2, dy2, col0, row0 = plan.sq_distances(pts, width=max(plan.n_x, plan.n_y))
        assert dx2.shape == (plan.n_x, 50) and dy2.shape == (plan.n_y, 50) and not col0.any() and not row0.any()
        d2 = dy2.T[:, :, None] + dx2.T[:, None, :]
        assert d2.reshape(50, plan.ap_count).tolist() == sq_distances_to_every_ap(plan, pts).tolist()

    @pytest.mark.parametrize(
        "xs,ys,r,pitch",
        [
            ([1.0, 3.0, 5.0], [1.0, 3.0, 5.0], 2.0, (2.0, 2.0)),  # pitch exactly r, lines exact in binary
            ([0.35 + i * 0.7 for i in range(3)], [0.35 + i * 0.7 for i in range(3)], 0.7, (0.7, 0.7)),  # lines rounded
            ([1.5], [1.0, 3.0, 5.0], 2.0, (3.0, 2.0)),  # one x line; its pitch is the room's width
            ([1.0, 2.5], [1.0, 3.0, 5.0], 2.0, (1.5, 2.0)),  # two x lines, closer than r
            ([1.0, 3.0, 5.0, 7.0], [1.0, 3.0, 5.0, 7.0], 2.0, (2.0, 2.0)),  # four lines: a two-line window
            ([1.0, 3.0, 5.0, 7.0, 9.0], [1.0, 3.0, 5.0, 7.0, 9.0], 2.0, (2.0, 2.0)),
            ([0.35 + i * 0.7 for i in range(4)], [0.35 + i * 0.7 for i in range(4)], 0.7, (0.7, 0.7)),
            ([0.35 + i * 0.7 for i in range(5)], [0.35 + i * 0.7 for i in range(5)], 0.7, (0.7, 0.7)),
        ],
        ids=["pitch-r-exact", "pitch-r-rounded", "one-line-axis", "two-line-axis", "pitch-r-exact-4-lines",
             "pitch-r-exact-5-lines", "pitch-r-rounded-4-lines", "pitch-r-rounded-5-lines"],
    )
    def test_knife_edges_of_hand_built_plans(self, xs, ys, r, pitch):
        # A point on a line is exactly r from the lines beside it; the order-statistic
        # codes and the window's sole cover must still match the every-AP oracle there,
        # one float either side of it, and on every coverage and inner-disk circle.
        # Up to three lines an axis is read whole; from four on, through the two-line window.
        room = (xs[-1] + xs[0], ys[-1] + ys[0])
        plan = GridPlan(
            room_x_m=room[0], room_y_m=room[1], coverage_radius_m=r, x_lines=tuple(xs), y_lines=tuple(ys),
            d_x_m=pitch[0], d_y_m=pitch[1], l_x_m=0.8 * r, l_y_m=0.8 * r,
        )
        axes = []
        for lines, side in ((np.array(xs), room[0]), (np.array(ys), room[1])):
            edges = np.concatenate([lines + offset for offset in (0.0, r, -r, plan.inner_radius_m, -plan.inner_radius_m)])
            edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
            axes.append(np.unique(np.clip(edges, 0.0, side)))
        pts = np.array(list(product(*axes)))
        codes, nearest = classify_against_every_ap(plan, pts)
        window = plan.sq_distances(pts)
        assert {2, 3, 4} <= set(codes.tolist())  # a lattice at pitch r leaves no Zone 1 hole
        assert classify_points(plan, pts).tolist() == codes.tolist()
        assert classify_points(plan, pts, window).tolist() == codes.tolist()
        assert plan.sole_cover(window).tolist() == np.where(np.isin(codes, (2, 3)), nearest, -1).tolist()

    def test_default_window_is_the_two_lines_that_bracket_each_point(self):
        # On an axis of four or more lines the window starts at the line at or below the point, clipped to
        # [0, lines - 2], and its two rows are the squared offsets to that line and the next: drawn points,
        # cell middles, both walls and the strips between a wall and its nearest line.
        lines = np.array(PLAN_121.x_lines)
        assert PLAN_121.x_lines == PLAN_121.y_lines and len(lines) == 11
        gen = np.random.default_rng(4)
        walls = [0.0, 100.0, lines[0] / 2.0, (lines[-1] + 100.0) / 2.0]
        along = np.concatenate([gen.random(2000) * 100.0, (lines[:-1] + lines[1:]) / 2.0, walls])
        pts = np.column_stack([along, gen.permutation(along)])
        dx2, dy2, col0, row0 = PLAN_121.sq_distances(pts)
        assert dx2.shape == dy2.shape == (2, len(pts))
        for rows, first, p in ((dx2, col0, pts[:, 0]), (dy2, row0, pts[:, 1])):
            start = np.clip(np.searchsorted(lines, p, side="right") - 1, 0, len(lines) - 2)
            assert first.tolist() == start.tolist()
            for j, row in enumerate(rows):
                assert row.tolist() == ((p - lines[start + j]) ** 2).tolist()

    @pytest.mark.parametrize("plan", [PLAN_24, PLAN_121], ids=["9-aps", "121-aps"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_slices_are_axis_major_and_equal_one_whole_draw(self, plan, seed):
        # A whole slice and a three-point one. Each axis of a slice is unit-stride, and it holds, bit for bit, the
        # column of one gen.random((n, 2)) * (a, b) draw; the sole covers of the slices are those of that draw.
        count, buffered = _CLASSIFY_SLICE + 3, plan.buffered()
        whole = np.random.default_rng(seed).random((count, 2)) * (plan.room_x_m, plan.room_y_m)
        axes = []
        for start, pts in _uniform_slices(buffered, np.random.default_rng(seed), count):
            assert pts.shape == (min(_CLASSIFY_SLICE, count - start), 2) and pts.strides[0] == pts.itemsize
            axes.append(pts.T.copy())
        for axis, column in zip(np.concatenate(axes, axis=1), whole.T):
            assert axis.tobytes() == column.tobytes()
        covers = sole_covers(buffered, np.random.default_rng(seed), count)
        assert covers.tolist() == plan.sole_cover(plan.sq_distances(whole)).tolist()

    @pytest.mark.parametrize("width", [3, 11])
    def test_both_point_layouts_give_one_window_and_one_room_check(self, width):
        # The .T of a (2, N) array and plain (N, 2) rows are both read in place: the same window either way, the
        # points left as they were, and a point outside the room raises in both layouts.
        xy = np.random.default_rng(3).random((2, 1000)) * [[PLAN_121.room_x_m], [PLAN_121.room_y_m]]
        drawn = xy.copy()
        windows = [PLAN_121.sq_distances(pts, width) for pts in (xy.T, np.ascontiguousarray(xy.T))]
        for got, want in zip(*windows):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert xy.tobytes() == drawn.tobytes()
        for outside in ((-1e-9, 50.0), (50.0, -1e-9), (100.0 + 1e-9, 50.0), (50.0, 100.0 + 1e-9)):
            xy[:, 7] = outside
            for pts in (xy.T, np.ascontiguousarray(xy.T)):
                with pytest.raises(ValueError, match="outside the room"):
                    PLAN_121.sq_distances(pts, width)

    def test_equidistant_point_has_no_sole_cover(self):
        # (8, 4) is the midpoint of AP 0 at (4, 4) and AP 1 at (12, 4), 4 m from each: both cover it (Zone 4).
        assert PLAN_24.ap_centers[:2] == ((4.0, 4.0), (12.0, 4.0))
        assert PLAN_24.sole_cover(PLAN_24.sq_distances([(8.0, 4.0)])).tolist() == [-1]


class TestMonteCarlo:
    def test_probabilities_and_areas_close_exactly(self):
        model = monte_carlo_zone_model(PLAN_24, 50_000, seed=7)
        assert sum(model.zone_probs) == 1.0
        assert sum(model.mc_areas_m2) == 576.0
        assert sum(model.sample_counts) == model.sample_count

    def test_single_ap_plan_has_no_overlap_zone(self):
        model = monte_carlo_zone_model(single_ap_plan(10.0, 10.0, 5.0), 20_000, seed=3)
        assert model.zone_probs[Zone.Z4.value - 1] == 0.0

    def test_seeded_determinism(self):
        m1 = monte_carlo_zone_model(PLAN_24, 30_000, seed=11)
        m2 = monte_carlo_zone_model(PLAN_24, 30_000, seed=11)
        assert m1.zone_probs == m2.zone_probs
        m3 = monte_carlo_zone_model(PLAN_24, 30_000, seed=12)
        assert m1.zone_probs != m3.zone_probs

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_zone_model(PLAN_24, 9_999, seed=0)

    def test_sample_ceiling_enforced(self):
        with pytest.raises(ValueError, match=r"in \[10000, 4294967296\]"):
            monte_carlo_zone_model(PLAN_24, 2**32 + 1, seed=0)

    def test_against_independent_grid_classifier(self):
        # 6 cm grid keeps this fast; TestExactAreas checks the model against the exact areas.
        model = monte_carlo_zone_model(PLAN_24, 400_000, seed=5)
        grid_probs = _grid_fraction_oracle(PLAN_24, step=0.06)
        for got, want in zip(model.zone_probs, grid_probs):
            assert got == pytest.approx(want, abs=0.01)

    def test_csv_rows_shape(self):
        model = monte_carlo_zone_model(PLAN_24, 10_000, seed=1)
        rows = model.csv_rows()
        assert [r[0] for r in rows] == ["Z1", "Z2", "Z3", "Z4"]
        assert all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("plan", [PLAN_24, PLAN_121], ids=["9-aps", "121-aps"])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("samples", [10**4 + 7, 2**18 + 1, 3 * 2**14 - 1])
    def test_slice_draws_count_as_whole_chunk_draws(self, plan, seed, samples):
        # A chunk's points are drawn a slice at a time, and a generator gives the same doubles whatever the split: a
        # partial last slice (10^4 + 7), a one-point second chunk (2^18 + 1) and a last slice one point short
        # (3 * 2^14 - 1) count as one draw of each chunk does.
        assert monte_carlo_zone_model(plan, samples, seed).sample_counts == zone_counts_from_whole_chunks(plan, samples, seed)

    def test_memory_does_not_grow_with_the_sample_count(self):
        # Each slice is drawn and classified in buffers the call makes once: four chunks of 2^18 samples hold no
        # more memory than one of 2^16.
        def peak(samples):
            tracemalloc.start()
            try:
                monte_carlo_zone_model(PLAN_121, samples, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2**16)  # first run: module-level caches
        small, large = peak(2**16), peak(2**20)
        assert large <= 1.1 * small, (small, large)


def _grid_fraction_oracle(plan: GridPlan, step: float) -> tuple[float, float, float, float]:
    """Zone fractions on a regular grid, written independently of the library."""
    xs = np.arange(step / 2, plan.room_x_m, step)
    ys = np.arange(step / 2, plan.room_y_m, step)
    gx, gy = np.meshgrid(xs, ys)
    px = gx.ravel()
    py = gy.ravel()
    centers = np.asarray(plan.ap_centers)
    d2 = (px[:, None] - centers[None, :, 0]) ** 2 + (py[:, None] - centers[None, :, 1]) ** 2
    r2 = plan.coverage_radius_m**2
    inner = plan.coverage_radius_m - max(plan.l_x_m, plan.l_y_m) / 2.0
    covering = (d2 <= r2).sum(axis=1)
    dmin2 = d2.min(axis=1)
    z4 = covering >= 2
    z1 = covering == 0
    z2 = ~z4 & ~z1 & (dmin2 <= inner**2)
    z3 = ~z4 & ~z1 & ~z2
    n = px.size
    return z1.sum() / n, z2.sum() / n, z3.sum() / n, z4.sum() / n


class TestOccupancyProbability:
    def test_against_exhaustive_enumeration(self):
        p, q, m = 10, 0.25, 2
        total = 0.0
        for assignment in product((0, 1), repeat=p):
            if sum(assignment) == m:
                total += q**m * (1 - q) ** (p - m)
        assert total == pytest.approx(0.2816, abs=5e-5)
        assert occupancy_probability(p, q, m) == pytest.approx(total, rel=1e-12)

    def test_empty_zone(self):
        assert occupancy_probability(10, 0.0, 0) == 1.0

    def test_distribution_sums_to_one(self):
        for p, q in [(5, 0.3), (20, 0.9), (64, 0.123)]:
            total = sum(occupancy_probability(p, q, m) for m in range(p + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            occupancy_probability(5, 0.5, 6)
        with pytest.raises(ValueError):
            occupancy_probability(5, 1.5, 1)
        with pytest.raises(ValueError):
            occupancy_probability(5, 0.5, -1)

    @given(
        p=st.integers(min_value=0, max_value=64),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_sums_to_one_property(self, p, q):
        total = sum(occupancy_probability(p, q, m) for m in range(p + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
