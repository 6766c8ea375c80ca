"""Protocol-model interference and interference-free TDM cell scheduling.

A transmission from ``tx1`` to ``rx1`` succeeds when every other
concurrent transmitter ``tx2`` satisfies

    dist(tx2, rx1) >= (1 + delta) * dist(tx1, rx1).

Cells are activated in a periodic time-division frame: cell (row, col)
gets slot ``(row mod p) * p + (col mod p)`` for a reuse period p chosen
so that any two same-slot cells are far enough apart that no placement
of transmitters and receivers (receivers may sit anywhere in the
transmitting cell's 8-neighborhood) violates the rule above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .geometry import CellGrid, TorusPoint, torus_distance

__all__ = [
    "interferes",
    "interference_bound",
    "reuse_distance",
    "TdmSchedule",
    "build_schedule",
    "audit_schedule",
]


def interferes(
    tx1: "TorusPoint | tuple[float, float]",
    rx1: "TorusPoint | tuple[float, float]",
    tx2: "TorusPoint | tuple[float, float]",
    delta: float,
) -> bool:
    """True when transmitter ``tx2`` disturbs the tx1 -> rx1 reception.

    That is, when dist(tx2, rx1) < (1 + delta) * dist(tx1, rx1); the
    comparison is done on squared distances.
    """
    guard = (1.0 + delta) * (1.0 + delta)
    d1 = torus_distance(tx1, rx1)
    d2 = torus_distance(tx2, rx1)
    return d2 * d2 < guard * d1 * d1


def interference_bound(delta: float) -> int:
    """Upper bound N = ceil(16 (1+delta)^2) on interfering cells.

    The TDM frame aims at length at most N + 1 (not always achievable
    for small delta; see :func:`build_schedule`).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return ceil(16.0 * (1.0 + delta) * (1.0 + delta))


def reuse_distance(delta: float) -> int:
    """Reuse distance in cells: ceil((1+delta) * sqrt(8)) + 2.

    sqrt(8) covers the maximal sender-receiver separation across the
    8-neighborhood (range r = sqrt(8 a)); the +2 covers the receiver
    sitting up to one cell away from its transmitter on each axis.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return ceil((1.0 + delta) * sqrt(8.0)) + 2


def _axis_period(g: int, k: int) -> int:
    """Smallest reuse period p that is seam-safe on a g-cell torus axis.

    Same-slot rows sit at raw spacings that are multiples of p, plus a
    wrap-around spacing of g mod p; both must reach the reuse distance
    k, so p >= k and (g mod p == 0 or g mod p >= k).  Falls back to
    p = g (every row its own phase) when no smaller period works.
    """
    if g <= k:
        return g
    for p in range(k, g):
        if g % p == 0 or g % p >= k:
            return p
    return g


@dataclass(frozen=True)
class TdmSchedule:
    """Periodic interference-free slot assignment for a cell grid.

    ``colors[row, col]`` is the cell's slot in [0, C); every cell
    is active exactly once per frame.  ``frame_ok`` records whether the
    frame length achieved the N + 1 bound (it cannot for small delta:
    the reuse period forces at least k² slots, and k² exceeds N + 1 for
    delta < ~0.77; the interference-freedom audit, not the bound, is
    what the schedule guarantees).
    """

    grid: CellGrid
    delta: float
    reuse: int  # reuse distance k in cells
    period: int  # seam-safe axis period p >= min(k, g)
    C: int  # frame length in slots, p²
    colors: np.ndarray = field(repr=False)
    frame_ok: bool

    @property
    def r(self) -> float:
        """Transmission range sqrt(8 a): reaches the 8 neighboring cells."""
        return sqrt(8.0 * self.grid.a)

    @property
    def bound(self) -> int:
        """Interfering-cell bound N for this delta."""
        return interference_bound(self.delta)

    def slot_of(self, row: int, col: int) -> int:
        g = self.grid.side
        return int(self.colors[row % g, col % g])


def build_schedule(grid: CellGrid, delta: float) -> TdmSchedule:
    """Color the grid so same-slot cells never interfere.

    Slot = (row mod p) * p + (col mod p) with p the seam-safe axis
    period for reuse distance k = ceil((1+delta) sqrt(8)) + 2.  The
    frame length C = p² is independent of the grid for g >= k whenever
    p = k divides g; ``frame_ok`` is C <= N + 1.
    """
    g = grid.side
    k = reuse_distance(delta)
    p = _axis_period(g, k)
    rows = np.arange(g, dtype=np.int64) % p
    colors = (rows[:, None] * p + rows[None, :]).astype(np.int64)
    c = p * p
    return TdmSchedule(
        grid=grid,
        delta=delta,
        reuse=k,
        period=p,
        C=c,
        colors=colors,
        frame_ok=c <= interference_bound(delta) + 1,
    )


def _circ(d: int, g: int) -> int:
    d %= g
    return min(d, g - d)


def _offset_violates(dr: int, dc: int, g: int, guard: float) -> bool:
    """Worst-case interference check for two cells at offset (dr, dc).

    Places tx1 on the 4 corners of a reference cell, rx1 on the 16
    lattice corners of that cell's 3x3 neighborhood block, tx2 on the 4
    corners of the offset cell, and tests the protocol rule for every
    combination.  All coordinates are cell-corner lattice points, so
    distances are exact integer arithmetic in units of the cell side
    (scaled out of the squared comparison).
    """
    for t1x in (0, 1):
        for t1y in (0, 1):
            for rx in (-1, 0, 1, 2):
                for ry in (-1, 0, 1, 2):
                    du = _circ(rx - t1x, g)
                    dv = _circ(ry - t1y, g)
                    d1sq = du * du + dv * dv
                    if d1sq == 0:
                        continue  # receiver on top of its sender
                    lim = guard * d1sq
                    for t2x in (dc, dc + 1):
                        for t2y in (dr, dr + 1):
                            eu = _circ(t2x - rx, g)
                            ev = _circ(t2y - ry, g)
                            if eu * eu + ev * ev < lim:
                                return True
    return False


def audit_schedule(schedule: TdmSchedule, literal: bool = False) -> int:
    """Count worst-case protocol violations between same-slot cell pairs.

    A sound schedule returns 0.  The default audit exploits translation
    symmetry: whether a pair of cells can interfere depends only on
    their (row, col) offset, so each distinct same-slot offset is tested
    once against extremal corner placements.  ``literal=True`` instead
    enumerates every same-slot cell pair directly (quadratic in cell
    count; intended for small grids as a cross-check).
    """
    g = schedule.grid.side
    guard = (1.0 + schedule.delta) * (1.0 + schedule.delta)
    colors = schedule.colors

    if literal:
        cells = [(r, c) for r in range(g) for c in range(g)]
        violations = 0
        for i, (r1, c1) in enumerate(cells):
            for r2, c2 in cells[i + 1 :]:
                if colors[r1, c1] != colors[r2, c2]:
                    continue
                if _offset_violates(r2 - r1, c2 - c1, g, guard) or _offset_violates(
                    r1 - r2, c1 - c2, g, guard
                ):
                    violations += 1
        return violations

    p = schedule.period
    # Raw same-slot offsets on one axis: multiples of p in [0, g).
    axis = sorted({d for d in range(0, g, p)} | {(g - d) % g for d in range(0, g, p)})
    violations = 0
    for dr in axis:
        for dc in axis:
            if dr == 0 and dc == 0:
                continue
            if _offset_violates(dr, dc, g, guard):
                violations += 1
    return violations
