"""The protocol interference rule and TDM cell scheduling: frame structure,
seam safety on awkward grid sizes, and the exhaustive placement audit."""

import dataclasses
import itertools

import numpy as np
import pytest

from ccnscale.geometry import CellGrid
from ccnscale import sched


class TestInterferes:
    """The protocol rule, ``sched._offset_violates``: can a transmitter in
    the cell at offset (dr, dc) disturb some link from the reference cell
    to its 3x3 block?  Distances are in cell sides, so the guard factor
    (1 + delta)² applies to squared lattice distances."""

    def test_competitor_on_top_of_receiver(self):
        # A corner of the cell itself or of a neighbour can sit on the receiver.
        for dr, dc in itertools.product((-1, 0, 1), repeat=2):
            assert sched._offset_violates(dr, dc, 64, guard=2.25), (dr, dc)

    def test_zero_distance_transmission_is_unaffected(self):
        # On a one-cell torus every sender sits on its receiver: the guard
        # radius is zero, and nothing can violate it.
        for dr, dc in ((0, 0), (0, 1), (1, 1)):
            assert not sched._offset_violates(dr, dc, 1, guard=4.0)

    def test_exactly_at_twice_guard_is_clear(self):
        # delta = 0.5: at offset (8, 8) the closest competitor is exactly
        # 2 (1 + delta) = 3 times its link's length from the receiver.
        assert not sched._offset_violates(8, 8, 64, guard=2.25)
        assert not sched._offset_violates(8, 8, 64, guard=9.0)
        assert sched._offset_violates(8, 8, 64, guard=9.0 * (1 + 1e-12))

    def test_inside_guard_radius(self):
        # delta = 1: a competitor one cell inside the reuse distance 8
        # reaches the longest link's guard zone.
        assert sched.reuse_distance(1.0) == 8
        assert sched._offset_violates(0, 7, 64, guard=4.0)
        assert not sched._offset_violates(0, 8, 64, guard=4.0)

    def test_boundary_is_non_interfering(self):
        # delta = 1, offset (6, 6): the closest placement has
        # dist(tx2, rx1) == (1 + delta) dist(tx1, rx1) exactly, and the
        # rule is a strict "<".
        assert not sched._offset_violates(6, 6, 64, guard=4.0)
        assert sched._offset_violates(6, 6, 64, guard=4.0 * (1 + 1e-12))

    def test_wraparound_distances_are_used(self):
        # Offset g - 1 is a neighbour through the seam; g / 2 is the
        # farthest a cell can be.
        assert sched._offset_violates(0, 63, 64, guard=4.0)
        assert sched._offset_violates(63, 63, 64, guard=4.0)
        assert not sched._offset_violates(0, 32, 64, guard=4.0)


class TestBounds:
    def test_interference_bound_values(self):
        assert sched.interference_bound(1.0) == 64
        assert sched.interference_bound(0.5) == 36
        assert sched.interference_bound(3.0) == 256
        assert sched.interference_bound(0.25) == 25

    def test_interference_bound_requires_positive_delta(self):
        with pytest.raises(ValueError):
            sched.interference_bound(0.0)

    def test_reuse_distance_values(self):
        assert sched.reuse_distance(0.25) == 6
        assert sched.reuse_distance(0.5) == 7
        assert sched.reuse_distance(1.0) == 8
        assert sched.reuse_distance(2.0) == 11


class TestBuildSchedule:
    def test_single_cell_grid(self):
        s = sched.build_schedule(CellGrid(1), delta=1.0)
        assert s.C == 1
        assert s.frame_ok
        assert s.colors.tolist() == [[0]]

    def test_delta_one_64_grid_meets_bound(self):
        s = sched.build_schedule(CellGrid(64), delta=1.0)
        assert s.reuse == 8
        assert s.period == 8
        assert s.C == 64
        assert s.bound == 64
        assert s.frame_ok  # 64 <= 65
        assert sched.audit_schedule(s) == 0

    def test_delta_half_32_grid_is_sound_but_long(self):
        # The reuse period needed for zero violations is 7, seam-safety
        # pushes it to 8 on a 32-grid, so C = 64 exceeds N+1 = 37.  The
        # schedule stays interference-free; the bound flag records the miss.
        s = sched.build_schedule(CellGrid(32), delta=0.5)
        assert s.period == 8
        assert s.C == 64
        assert not s.frame_ok
        assert sched.audit_schedule(s) == 0

    def test_frame_flag_truth_table_at_64(self):
        expected = {0.25: False, 0.5: False, 1.0: True, 2.0: False}
        for delta, ok in expected.items():
            s = sched.build_schedule(CellGrid(64), delta=delta)
            assert s.frame_ok is ok, delta

    def test_delta_two_on_divisible_grid_meets_bound(self):
        s = sched.build_schedule(CellGrid(44), delta=2.0)
        assert s.period == 11
        assert s.C == 121
        assert s.frame_ok  # 121 <= 145
        assert sched.audit_schedule(s) == 0

    def test_frame_length_constant_across_divisible_grids(self):
        cs = {sched.build_schedule(CellGrid(g), delta=1.0).C for g in range(8, 72, 8)}
        assert cs == {64}

    def test_every_cell_active_once_per_frame(self):
        s = sched.build_schedule(CellGrid(24), delta=1.0)
        colors = s.colors
        assert colors.shape == (24, 24)
        assert colors.min() == 0
        assert colors.max() == s.C - 1
        # Slots partition the grid evenly when the period divides g.
        counts = np.bincount(colors.ravel(), minlength=s.C)
        assert set(counts.tolist()) == {(24 // s.period) ** 2}

    def test_awkward_grid_degenerates_to_unique_colors(self):
        # g=13 admits no period in [8, 13) without unsafe seams, so each
        # cell gets its own slot; soundness is preserved.
        s = sched.build_schedule(CellGrid(13), delta=1.0)
        assert s.period == 13
        assert s.C == 169
        assert not s.frame_ok
        assert sched.audit_schedule(s) == 0


class TestAudit:
    def test_zero_violations_across_grid_and_delta(self):
        for delta in (0.25, 0.5, 1.0, 2.0):
            for g in (1, 2, 3, 5, 7, 8, 11, 12, 16, 24, 32, 33, 48, 64):
                s = sched.build_schedule(CellGrid(g), delta=delta)
                assert sched.audit_schedule(s) == 0, (delta, g)

    def test_literal_audit_agrees_on_shared_colors(self):
        for g, delta in ((12, 0.25), (16, 1.0), (14, 0.5)):
            s = sched.build_schedule(CellGrid(g), delta=delta)
            assert s.period < g or g <= s.reuse  # colors actually shared
            assert sched.audit_schedule(s, literal=True) == 0
            assert sched.audit_schedule(s) == 0

    def _all_same_color(self, g, delta):
        grid = CellGrid(g)
        good = sched.build_schedule(grid, delta)
        return dataclasses.replace(
            good,
            colors=np.zeros((g, g), dtype=np.int64),
            C=1,
            period=1,
        )

    def test_negative_control_is_caught(self):
        bad = self._all_same_color(8, 1.0)
        assert sched.audit_schedule(bad) > 0
        assert sched.audit_schedule(bad, literal=True) > 0

    def test_audit_counts_are_mode_consistent_for_soundness(self):
        # Both modes agree on the zero/nonzero verdict (counts may
        # differ: the memoized mode counts offsets, the literal mode
        # counts ordered cell pairs).
        bad = self._all_same_color(6, 0.5)
        assert (sched.audit_schedule(bad) > 0) == (
            sched.audit_schedule(bad, literal=True) > 0
        )
