"""Torus geometry: the kernel's metric, per-axis displacement rule, cell
rule and cell walk, the grid, and the exact mean nearest-holder distance
with its sandwich bounds.  Whole routed walks and nearest-holder searches
are tested where they run: through ``sim.trace_request`` (``test_sim``)
and the kernel backends (``test_kernels``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale import geometry as geo
from ccnscale._kernels import _ref

from oracles import cell_of, sample_segment_cells, torus_dist

units = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def _cell(x, y, g):
    """(row, col) of a point by the kernel's scalar rule and by its
    vectorised one, which must agree."""
    row, col = _ref._cell_index(y, g), _ref._cell_index(x, g)
    assert _ref.grid_cells([x], [y], g).tolist() == [row * g + col]
    return row, col


class TestTorusMetric:
    def test_spec_values(self):
        assert _ref._dist2(0.1, 0.1, 0.1, 0.1) == 0.0
        assert _ref._dist2(0.05, 0.5, 0.95, 0.5) == pytest.approx(0.01, rel=1e-12)
        assert _ref._dist2(0.0, 0.0, 0.5, 0.5) == 0.5

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(2024)
        p, q, r = rng.random((3, 2000, 2))

        def dist(u, v):
            return math.sqrt(_ref._dist2(*u, *v))

        for a, b, c in zip(p, q, r):
            dab = dist(a, b)
            assert dab == dist(b, a)  # symmetry
            assert dab <= math.sqrt(0.5) + 1e-15  # diameter of the torus
            assert dab <= dist(a, c) + dist(c, b) + 1e-12  # triangle inequality
            assert dab == pytest.approx(torus_dist(*a, *b), rel=1e-15)

    @given(a=units, b=units)
    @settings(max_examples=200, deadline=None)
    def test_delta_is_shortest_signed_displacement(self, a, b):
        d = _ref._wrap_delta(a, b)
        assert -0.5 < d <= 0.5
        assert (a + d) % 1.0 == pytest.approx(b % 1.0, abs=1e-12)

    def test_delta_half_tie_goes_positive(self):
        assert _ref._wrap_delta(0.75, 0.25) == 0.5
        assert _ref._wrap_delta(0.25, 0.75) == 0.5


class TestCellGrid:
    def test_spec_cells(self):
        assert _cell(0.0, 0.0, 4) == (0, 0)
        assert _cell(0.999, 0.0, 4) == (0, 3)
        assert _cell(0.26, 0.51, 4) == (2, 1)

    def test_out_of_range_coordinate_clamps(self):
        # x = 1.0 is outside [0,1) but must not index past the grid.
        assert _cell(1.0, 1.0, 4) == (3, 3)

    def test_side_properties(self):
        grid = geo.CellGrid(5)
        assert grid.side == 5
        assert grid.a == 0.04

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
        g = 7
        for row in range(g):
            for col in range(g):
                assert _cell((col + 0.5) / g, (row + 0.5) / g, g) == (row, col)


class TestCellsOnSegment:
    """The kernel's raw cell walk, ``_ref.segment_cells``, between two
    points, before any routing rule is applied."""

    def _check_one(self, start, end, g):
        cells = [divmod(c, g) for c in _ref.segment_cells(*start, *end, g)]
        assert cells[0] == cell_of(*start, g)
        assert cells[-1] == cell_of(*end, g)
        length = torus_dist(*start, *end)
        assert len(cells) <= 2 * (math.ceil(length * g) + 2)
        assert len(set(cells)) == len(cells)
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            assert (r0, c0) != (r1, c1)
            dr = min((r1 - r0) % g, (r0 - r1) % g)
            dc = min((c1 - c0) % g, (c0 - c1) % g)
            assert dr <= 1 and dc <= 1  # 8-neighborhood connectivity
        sampled = sample_segment_cells(*start, *end, g, oversample=300)
        assert sampled <= set(cells)

    def test_random_segments_against_sampling_oracle(self):
        rng = np.random.default_rng(99)
        for g in (1, 2, 3, 5, 8, 16, 37):
            for _ in range(60):
                self._check_one(tuple(rng.random(2)), tuple(rng.random(2)), g)


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
        # The leading order 1 / (2 sqrt(X)).
        ratio = geo.expected_nearest_distance_exact(50_000) * 2 * math.sqrt(50_000)
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
