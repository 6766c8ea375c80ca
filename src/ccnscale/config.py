"""Run configuration shared by the simulator and the experiment driver.

A :class:`NetworkConfig` pins every parameter of one experiment point:
network size, popularity exponent, catalog growth, cache size,
interference margin, base-station density, cell rule, bandwidth, and
Monte-Carlo controls.  It is immutable and hashable so sweep drivers
can key result rows by it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .alloc import AllocationProblem
from .popularity import PopularityModel, zipf
from .scaling import default_cell_area

__all__ = ["Mode", "NetworkConfig"]


class Mode(enum.Enum):
    """Network composition: wireless nodes only, or nodes plus wired
    base stations that hold the whole catalog."""

    ADHOC = "adhoc"
    HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class NetworkConfig:
    """One experiment point.

    The catalog size is the continuous rule M = ceil(n^beta).  Without
    base stations beta must stay below 1 so the combined cache space
    can hold the catalog.  Base-station count comes from ``f`` when
    given, else n^mu; ``f = 0`` in heterogeneous mode degenerates to
    the pure ad hoc network.  ``cell_area`` fixes the cell size a, at
    least 1/n; when omitted the occupancy rule a = 2 ln(n)/n applies
    (requires n >= 2).
    """

    n: int
    alpha: float
    beta: float
    K: float = 1.0
    delta: float = 1.0
    mode: Mode = Mode.ADHOC
    mu: float | None = None
    f: float | None = None
    cell_area: float | None = None
    W: float = 1.0
    trials: int = 1
    seed: int = 0
    concentration_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.W > 0:
            raise ValueError(f"W must be positive, got {self.W}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not self.concentration_factor > 0:
            raise ValueError(
                f"concentration factor must be positive, "
                f"got {self.concentration_factor}"
            )
        a_min = 1.0 / self.n
        if self.cell_area is not None and not a_min <= self.cell_area <= 1.0:
            # More cells than nodes leave cells empty (condition 1 fails),
            # and the holder cap 1/a - f would exceed n.
            raise ValueError(
                f"cell area must be in [1/n, 1] = [{a_min:g}, 1], "
                f"got {self.cell_area}"
            )
        if self.mode is Mode.ADHOC:
            if self.mu is not None or self.f is not None:
                raise ValueError("mu/f require heterogeneous mode")
            if self.beta >= 1.0:
                raise ValueError(
                    "beta must be < 1 without base stations (caches must "
                    f"be able to hold one copy of everything), got {self.beta}"
                )
        else:
            if self.mu is None and self.f is None:
                raise ValueError("heterogeneous mode needs mu or f")
            if self.mu is not None and self.f is not None:
                raise ValueError("give mu or f, not both")
            if self.mu is not None and not 0.0 <= self.mu < 1.0:
                raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
            if self.f is not None and self.f < 0.0:
                raise ValueError(f"f must be >= 0, got {self.f}")
        # fail fast when the default cell rule is unavailable
        self.a

    @property
    def M(self) -> int:
        """Catalog size ceil(n^beta)."""
        return math.ceil(self.n**self.beta)

    @property
    def a(self) -> float:
        """Cell area: the fixed override, or 2 ln(n)/n."""
        if self.cell_area is not None:
            return self.cell_area
        try:
            return default_cell_area(self.n)
        except ValueError as exc:
            raise ValueError(
                f"default cell rule needs n >= 2 (got n={self.n}); "
                "set cell_area explicitly"
            ) from exc

    @property
    def f_count(self) -> float:
        """Base-station budget: 0 in ad hoc mode, else f or n^mu."""
        if self.mode is Mode.ADHOC:
            return 0.0
        if self.f is not None:
            return float(self.f)
        return float(self.n) ** self.mu

    @property
    def base_station_count(self) -> int:
        """Number of base stations actually placed: floor(f_count)."""
        return math.floor(self.f_count)

    def popularity(self) -> PopularityModel:
        """Zipf popularity over the ceil(n^beta)-item catalog."""
        return zipf(self.M, self.alpha)

    def problem(self) -> AllocationProblem:
        """The cache-allocation problem at this point.

        Heterogeneous mode requires f_count >= 1 (the optimizer models
        base stations as full catalog copies in every cell's reach).
        """
        f = self.f_count
        if self.mode is Mode.HETEROGENEOUS and f < 1:
            raise ValueError(f"heterogeneous mode needs f >= 1, got {f}")
        return AllocationProblem(self.popularity(), self.n, self.K, self.a, f)
