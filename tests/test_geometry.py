"""Torus geometry: metric, grid, segment traversal, nearest holder,
and the exact mean nearest-holder distance with its sandwich bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale import geometry as geo
from ccnscale.errors import NoHolderError

from oracles import nearest_by_scan, sample_segment_cells, torus_dist

units = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestTorusMetric:
    def test_spec_values(self):
        assert geo.torus_distance((0.1, 0.1), (0.1, 0.1)) == 0.0
        assert geo.torus_distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1, rel=1e-12)
        assert geo.torus_distance((0.0, 0.0), (0.5, 0.5)) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(2024)
        p, q, r = rng.random((3, 100_000, 2))

        def dist(u, v):
            d = np.abs(u - v)
            d = np.minimum(d, 1.0 - d)
            return np.hypot(d[:, 0], d[:, 1])

        dpq, dqp = dist(p, q), dist(q, p)
        np.testing.assert_array_equal(dpq, dqp)  # symmetry
        assert dpq.max() <= math.sqrt(0.5) + 1e-15  # diameter of the torus
        dpr, drq = dist(p, r), dist(r, q)
        assert np.all(dpq <= dpr + drq + 1e-12)  # triangle inequality

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.random(200), rng.random(200)
        d = geo.torus_distances(0.37, 0.91, xs, ys)
        for i in range(200):
            assert d[i] == pytest.approx(
                geo.torus_distance((0.37, 0.91), (xs[i], ys[i])), abs=1e-15
            )

    @given(a=units, b=units)
    @settings(max_examples=200, deadline=None)
    def test_delta_is_shortest_signed_displacement(self, a, b):
        d = geo.torus_delta(a, b)
        assert -0.5 < d <= 0.5
        assert (a + d) % 1.0 == pytest.approx(b % 1.0, abs=1e-12)

    def test_delta_half_tie_goes_positive(self):
        assert geo.torus_delta(0.75, 0.25) == 0.5
        assert geo.torus_delta(0.25, 0.75) == 0.5

    def test_wrap_constructor(self):
        p = geo.TorusPoint.wrap(1.25, -0.25)
        assert p == (0.25, 0.75)


class TestCellGrid:
    def test_spec_cells(self):
        grid = geo.CellGrid(4)
        assert grid.cell_of((0.0, 0.0)) == (0, 0)
        assert grid.cell_of((0.999, 0.0)) == (0, 3)
        assert grid.cell_of((0.26, 0.51)) == (2, 1)

    def test_out_of_range_coordinate_clamps(self):
        # x = 1.0 is outside [0,1) but must not index past the grid.
        assert geo.CellGrid(4).cell_of((1.0, 1.0)) == (3, 3)

    def test_side_properties(self):
        grid = geo.CellGrid(5)
        assert grid.g == 5
        assert grid.s == 0.2
        assert grid.a == 0.04
        assert grid.cell_width == 0.2
        assert grid.cell_area == 0.04
        assert grid.n_cells == 25

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            geo.CellGrid(0)

    @given(a0=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_from_area_rounding_bound(self, a0):
        grid = geo.CellGrid.from_area(a0)
        assert abs(grid.a - a0) / a0 <= 2.0 / grid.side + 1e-12

    def test_grid_side_examples(self):
        assert geo.grid_side(1.0) == 1
        assert geo.grid_side(0.04) == 5
        assert geo.grid_side(1 / 49) == 7
        with pytest.raises(ValueError):
            geo.grid_side(0.0)
        with pytest.raises(ValueError):
            geo.grid_side(1.5)

    def test_cell_center_roundtrip(self):
        grid = geo.CellGrid(7)
        for row in range(7):
            for col in range(7):
                assert grid.cell_of(grid.cell_center(row, col)) == (row, col)

    def test_cell_id_is_row_major(self):
        grid = geo.CellGrid(4)
        assert grid.cell_id((0.26, 0.51)) == 2 * 4 + 1


class TestSegment:
    def test_length_zero(self):
        p = geo.TorusPoint(0.3, 0.3)
        assert geo.Segment(p, p).length == 0.0

    def test_wraparound_length(self):
        seg = geo.Segment(geo.TorusPoint(0.9, 0.5), geo.TorusPoint(0.1, 0.5))
        assert seg.delta == pytest.approx((0.2, 0.0))
        assert seg.length == pytest.approx(0.2)

    @given(x0=units, y0=units, x1=units, y1=units)
    @settings(max_examples=200, deadline=None)
    def test_geodesic_never_exceeds_torus_diameter(self, x0, y0, x1, y1):
        seg = geo.Segment(geo.TorusPoint(x0, y0), geo.TorusPoint(x1, y1))
        assert seg.length <= math.sqrt(0.5) + 1e-15
        assert seg.length == pytest.approx(torus_dist(x0, y0, x1, y1), abs=1e-12)


class TestCellsOnSegment:
    def test_single_cell_segment(self):
        grid = geo.CellGrid(4)
        seg = geo.Segment(geo.TorusPoint(0.30, 0.30), geo.TorusPoint(0.45, 0.45))
        assert geo.cells_on_segment(seg, grid) == [(1, 1)]

    def test_axis_parallel_two_and_a_half_cells(self):
        # Start mid-cell, go +x for 2.5 cell widths: 4 cells crossed.
        grid = geo.CellGrid(8)
        s = grid.s
        seg = geo.Segment(
            geo.TorusPoint(0.5 * s, 0.5 * s), geo.TorusPoint(3.0 * s, 0.5 * s)
        )
        assert geo.cells_on_segment(seg, grid) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_corner_crossing_steps_diagonally(self):
        grid = geo.CellGrid(4)
        seg = geo.Segment(geo.TorusPoint(1 / 8, 1 / 8), geo.TorusPoint(5 / 8, 5 / 8))
        assert geo.cells_on_segment(seg, grid) == [(0, 0), (1, 1), (2, 2)]

    def test_wraparound_crossing(self):
        grid = geo.CellGrid(4)
        seg = geo.Segment(geo.TorusPoint(0.95, 0.5), geo.TorusPoint(0.05, 0.5))
        assert geo.cells_on_segment(seg, grid) == [(2, 3), (2, 0)]

    def test_single_cell_grid_collapses(self):
        grid = geo.CellGrid(1)
        seg = geo.Segment(geo.TorusPoint(0.9, 0.9), geo.TorusPoint(0.3, 0.2))
        assert geo.cells_on_segment(seg, grid) == [(0, 0)]

    def _check_one(self, seg, grid):
        cells = geo.cells_on_segment(seg, grid)
        g = grid.side
        assert cells[0] == grid.cell_of(seg.start)
        assert cells[-1] == grid.cell_of(seg.end)
        assert len(cells) <= 2 * (math.ceil(seg.length / grid.s) + 2)
        assert len(set(cells)) == len(cells) or g <= 2  # tiny tori revisit
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            assert (r0, c0) != (r1, c1)
            dr = min((r1 - r0) % g, (r0 - r1) % g)
            dc = min((c1 - c0) % g, (c0 - c1) % g)
            assert dr <= 1 and dc <= 1  # 8-neighborhood connectivity
        sampled = sample_segment_cells(
            seg.start.x, seg.start.y, seg.end.x, seg.end.y, g, oversample=300
        )
        assert sampled <= set(cells)

    def test_random_segments_against_sampling_oracle(self):
        rng = np.random.default_rng(99)
        for g in (1, 2, 3, 5, 8, 16, 37):
            grid = geo.CellGrid(g)
            for _ in range(60):
                seg = geo.Segment(
                    geo.TorusPoint(*rng.random(2)), geo.TorusPoint(*rng.random(2))
                )
                self._check_one(seg, grid)

    def test_boundary_aligned_segments(self):
        # Endpoints sitting exactly on cell edges, axis-aligned runs.
        grid = geo.CellGrid(5)
        for seg in (
            geo.Segment(geo.TorusPoint(0.2, 0.4), geo.TorusPoint(0.6, 0.4)),
            geo.Segment(geo.TorusPoint(0.0, 0.0), geo.TorusPoint(0.0, 0.4)),
            geo.Segment(geo.TorusPoint(0.4, 0.2), geo.TorusPoint(0.4, 0.8)),
        ):
            self._check_one(seg, grid)


class TestNearestHolder:
    def test_single_holder(self):
        assert geo.nearest_holder((0.5, 0.5), [(0.25, 0.25)]) == (
            0,
            pytest.approx(math.hypot(0.25, 0.25)),
        )

    def test_coincident_holder_distance_zero(self):
        idx, d = geo.nearest_holder((0.3, 0.7), [(0.9, 0.9), (0.3, 0.7)])
        assert (idx, d) == (1, 0.0)

    def test_tie_breaks_to_lowest_index(self):
        holders = [(0.6, 0.5), (0.4, 0.5)]  # both at distance 0.1
        idx, d = geo.nearest_holder((0.5, 0.5), holders)
        assert idx == 0
        assert d == pytest.approx(0.1)

    def test_empty_holder_set(self):
        with pytest.raises(NoHolderError):
            geo.nearest_holder((0.5, 0.5), [])

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(31)
        holders = [tuple(v) for v in rng.random((1000, 2))]
        xs = [h[0] for h in holders]
        ys = [h[1] for h in holders]
        for _ in range(200):
            p = tuple(rng.random(2))
            want_i, want_d = nearest_by_scan(p[0], p[1], xs, ys)
            got_i, got_d = geo.nearest_holder(p, holders)
            assert got_i == want_i
            assert got_d == pytest.approx(want_d, abs=1e-12)


class TestExpectedNearestDistance:
    def test_first_two_values_exact(self):
        assert geo.expected_nearest_distance_exact(1) == pytest.approx(
            2.0 / (3.0 * math.sqrt(math.pi)), rel=1e-15
        )
        assert geo.expected_nearest_distance_exact(2) == pytest.approx(
            (2.0 / 3.0) * (4.0 / 5.0) / math.sqrt(math.pi), rel=1e-15
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            geo.expected_nearest_distance_exact(0)

    def test_monotone_decreasing(self):
        vals = [geo.expected_nearest_distance_exact(x) for x in range(1, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_log_space_branch_agrees_with_product(self):
        # One value past the switch, recomputed by the plain product.
        x = 100_001
        prod = 1.0
        for k in range(1, x + 1):
            prod *= 2.0 * k / (2.0 * k + 1.0)
        want = prod / math.sqrt(math.pi)
        assert geo.expected_nearest_distance_exact(x) == pytest.approx(want, rel=1e-9)

    def test_scaled_value_is_near_half(self):
        for x in (10, 100, 10_000, 200_000):
            scaled = geo.expected_nearest_distance_exact(x) * math.sqrt(x)
            assert 0.4 <= scaled <= 0.6

    def test_scaled_value_flattens(self):
        s4 = geo.expected_nearest_distance_exact(10**4) * math.sqrt(10**4)
        s5 = geo.expected_nearest_distance_exact(10**5) * math.sqrt(10**5)
        assert abs(s5 / s4 - 1.0) < 0.01

    def test_asymptotic_form(self):
        assert geo.asymptotic_nearest_distance(4.0) == 0.25
        with pytest.raises(ValueError):
            geo.asymptotic_nearest_distance(0.0)
        ratio = geo.expected_nearest_distance_exact(
            50_000
        ) / geo.asymptotic_nearest_distance(50_000)
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_monte_carlo_agreement_smoke(self):
        # Light version of the validation experiment: 3e4 uniform draws.
        rng = np.random.default_rng(12345)
        x = 5
        trials = 30_000
        pts = rng.random((trials, x, 2))
        d = np.abs(pts - 0.5)
        d = np.minimum(d, 1.0 - d)
        dmin = np.hypot(d[..., 0], d[..., 1]).min(axis=1)
        want = geo.expected_nearest_distance_exact(x)
        assert float(dmin.mean()) == pytest.approx(want, rel=0.04)


class TestDoubleFactorialRatioBounds:
    def test_spec_example(self):
        lower, mid, upper = geo.double_factorial_ratio_bounds(5, 3)
        assert lower == pytest.approx(0.5, rel=1e-15)
        assert mid == pytest.approx(0.64, rel=1e-12)
        assert upper == pytest.approx(0.8, rel=1e-15)

    def test_adjacent_odd_pairs_sandwich(self):
        for n2 in range(3, 1000, 2):
            lower, mid, upper = geo.double_factorial_ratio_bounds(n2 + 2, n2)
            assert lower - 1e-12 <= mid <= upper + 1e-12

    def test_extreme_pair(self):
        lower, mid, upper = geo.double_factorial_ratio_bounds(2001, 3)
        assert lower - 1e-12 <= mid <= upper + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geo.double_factorial_ratio_bounds(6, 3)
        with pytest.raises(ValueError):
            geo.double_factorial_ratio_bounds(5, 4)
        with pytest.raises(ValueError):
            geo.double_factorial_ratio_bounds(3, 5)
        with pytest.raises(ValueError):
            geo.double_factorial_ratio_bounds(5, 1)
