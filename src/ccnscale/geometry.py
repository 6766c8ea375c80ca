"""Geometry on the unit torus: the cell grid, and the exact mean
nearest-holder distance.

All positions live in the half-open unit square [0, 1) x [0, 1) with
wrap-around (torus) metric.  The square is partitioned into g x g equal
cells; cell (row, col) covers [col/g, (col+1)/g) x [row/g, (row+1)/g).
The cell of a point and the metric are the routing kernel's rules
(``_kernels._ref._cell_index``, ``grid_cells`` and ``_dist2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, log, pi, sqrt

__all__ = [
    "CellGrid",
    "grid_side",
    "expected_nearest_distance_exact",
    "double_factorial_ratio_bounds",
]

# Above this holder count the exact factorial form of the mean
# nearest-holder distance is evaluated in log space to avoid underflow
# of the individual factors.
_LGAMMA_SWITCH = 100_000


def grid_side(cell_area: float) -> int:
    """Number of cells per axis for a target cell area (nearest integer).

    The realized area 1/g² differs from the target by at most a 2/g
    relative factor; downstream computations use the realized value.
    """
    if not cell_area > 0.0 or cell_area > 1.0:
        raise ValueError(f"cell area must be in (0, 1], got {cell_area}")
    return max(1, round(1.0 / sqrt(cell_area)))


@dataclass(frozen=True)
class CellGrid:
    """Partition of the unit torus into ``side`` x ``side`` square cells."""

    side: int

    def __post_init__(self) -> None:
        if self.side < 1:
            raise ValueError(f"grid side must be >= 1, got {self.side}")

    @property
    def a(self) -> float:
        """Cell area, 1/g²."""
        return 1.0 / (self.side * self.side)

    @staticmethod
    def from_area(cell_area: float) -> "CellGrid":
        return CellGrid(grid_side(cell_area))


@lru_cache(maxsize=4096)
def expected_nearest_distance_exact(X: int) -> float:
    """Exact mean geodesic distance to the nearest of X uniform holders.

    For X points placed independently and uniformly on a unit-area
    region, the mean distance from a fixed point to the nearest of them
    is

        (1 / sqrt(pi)) * prod_{k=1..X} 2k / (2k + 1)
            = 4^X (X!)^2 / ((2X + 1)! sqrt(pi)),

    evaluated as the running product for small X and via ``lgamma`` in
    log space for large X.  Scales like 1 / (2 sqrt(X)).
    """
    if X < 1:
        raise ValueError(f"holder count must be at least 1, got {X}")
    if X <= _LGAMMA_SWITCH:
        prod = 1.0
        for k in range(1, X + 1):
            prod *= (2.0 * k) / (2.0 * k + 1.0)
        return prod / sqrt(pi)
    log_val = X * log(4.0) + 2.0 * lgamma(X + 1.0) - lgamma(2.0 * X + 2.0)
    return exp(log_val) / sqrt(pi)


def double_factorial_ratio_bounds(n1: int, n2: int) -> tuple[float, float, float]:
    """Sandwich bounds for squared ratios of odd double-factorial products.

    For odd n define g(n) = ((n-1)/n)·((n-3)/(n-2))···(2/3).  For odd
    n1 > n2 >= 3 the squared ratio obeys

        n2 / (n1 + 1)  <=  (g(n1) / g(n2))²  <=  (n2 + 1) / n1.

    Returns ``(lower, ratio_squared, upper)``.  This inequality is what
    makes the mean nearest-holder distance scale as 1/(2·sqrt(X)).
    """
    for v in (n1, n2):
        if v % 2 == 0:
            raise ValueError(f"arguments must be odd, got {v}")
    if not n1 > n2 or n2 < 3:
        raise ValueError(f"need n1 > n2 >= 3, got n1={n1}, n2={n2}")

    def _g(n: int) -> float:
        prod = 1.0
        k = n
        while k >= 3:
            prod *= (k - 1.0) / k
            k -= 2
        return prod

    ratio = _g(n1) / _g(n2)
    return n2 / (n1 + 1.0), ratio * ratio, (n2 + 1.0) / n1
