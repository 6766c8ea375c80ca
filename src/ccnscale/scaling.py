"""Closed-form asymptotic predictors: hop counts, delay/throughput
orders, regime thresholds, and the m1/m2 scaling of the optimal
allocation.

All order expressions are evaluated with constant 1 — they exist for
log-log slope regression and ratio checks, never as absolute values.
The catalog size enters as the continuous power M = n^beta (no
rounding: slopes stay exact), and the default cell-area rule is
a(n) = 2 ln(n)/n, the smallest area keeping every cell occupied with
high probability.  Every formula branches on the band of alpha that
:func:`ccnscale.popularity.zipf_regime` names (breakpoints at 1 and 3/2)
and, for the heterogeneous mode, on mu = 1 - beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import Callable

from .errors import UnsupportedRegimeError
from .popularity import ZipfRegime, zipf_regime

__all__ = [
    "ScalingRegime",
    "default_cell_area",
    "expected_hops",
    "predicted_delay_order",
    "predicted_throughput_order",
    "m1_m2_orders",
    "improvement_threshold",
    "improves_order",
]


def default_cell_area(n: int) -> float:
    """Cell area 2 ln(n)/n: the occupancy threshold (natural log)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 2.0 * log(n) / n


def expected_hops(a: float, X: float, f: float = 0.0) -> float:
    """Mean hop count max(1, 1/sqrt(a (X + f))) for X holders.

    ``f`` counts base stations, which also hold the content.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"cell area must be in (0, 1], got {a}")
    total = X + f
    if total <= 0.0:
        raise ValueError("content must have at least one holder or base station")
    return max(1.0, 1.0 / sqrt(a * total))


@dataclass(frozen=True)
class ScalingRegime:
    """Parameter point of the scaling laws.

    ``mu is None`` selects the pure ad hoc network; otherwise there are
    f(n) = n^mu base stations.  ``cell_area`` overrides the default
    2 ln(n)/n rule (ad hoc formulas only; the heterogeneous orders are
    stated for the default rule).
    """

    alpha: float
    beta: float
    K: float = 1.0
    mu: float | None = None
    cell_area: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.mu is not None and not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if self.mu is None and self.beta >= 1.0:
            raise ValueError(
                "beta must be < 1 without base stations (caches must be "
                f"able to hold one copy of everything), got {self.beta}"
            )
        if self.mu is not None and self.cell_area is not None:
            raise UnsupportedRegimeError(
                "heterogeneous orders are stated for the default cell-area "
                "rule only"
            )

    def a(self, n: int) -> float:
        return self.cell_area(n) if self.cell_area else default_cell_area(n)

    def M(self, n: int) -> float:
        """Catalog size as a continuous power n^beta."""
        return float(n) ** self.beta

    def f(self, n: int) -> float:
        if self.mu is None:
            return 0.0
        return float(n) ** self.mu

    @property
    def heterogeneous(self) -> bool:
        return self.mu is not None

    def tail_reaches_floor(self, n: int) -> bool:
        """Whether the unpopular tail is served at the allocation floor.

        Ad hoc allocations always end at the floor (m2 <= M).  With
        base stations the floor regime exists only when f(n) is large
        against n/M: beta >= 1 - mu for alpha <= 3/2, and
        beta > (3/(2 alpha))(1 - mu) for alpha > 3/2.
        """
        if self.mu is None:
            return True
        if zipf_regime(self.alpha) <= ZipfRegime.THREE_HALVES:
            return self.beta >= 1.0 - self.mu
        return self.beta > (3.0 / (2.0 * self.alpha)) * (1.0 - self.mu)

    def label(self, n: int = 10**6) -> str:
        band = zipf_regime(self.alpha).label
        if self.mu is None:
            return f"adhoc:{band}"
        kind = "floored-tail" if self.tail_reaches_floor(n) else "adhoc-like"
        return f"het:{kind}:{band}"


def _adhoc_delay(alpha: float, M: float, na: float) -> float:
    band = zipf_regime(alpha)
    if band is ZipfRegime.ABOVE_THREE_HALVES:
        return 1.0
    if band is ZipfRegime.THREE_HALVES:
        return max(1.0, log(M) ** 1.5 / sqrt(na))
    if band is ZipfRegime.BETWEEN:
        return max(1.0, M ** (1.5 - alpha) / sqrt(na))
    if band is ZipfRegime.ONE:
        return max(1.0, sqrt(M) / (log(M) * sqrt(na)))
    return max(1.0, sqrt(M / na))


def _het_delay(alpha: float, n: int, f: float) -> float:
    band = zipf_regime(alpha)
    if band is ZipfRegime.ABOVE_THREE_HALVES:
        return 1.0
    if band is ZipfRegime.THREE_HALVES:
        return log(n)
    if band is ZipfRegime.BETWEEN:
        return (n / f) ** (1.5 - alpha) / sqrt(log(n))
    return sqrt(n / (f * log(n)))


def predicted_delay_order(reg: ScalingRegime, n: int) -> float:
    """Delay order D*(n), constant-1 normalization.

    Ad hoc branches cover any cell rule a(n) >= 2 ln(n)/n; the
    heterogeneous branches assume the default rule.  A heterogeneous
    point whose tail never reaches the floor behaves like ad hoc.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if reg.M(n) <= 1.0:
        raise UnsupportedRegimeError(
            f"catalog collapses to one content at n={n}, beta={reg.beta}"
        )
    if reg.heterogeneous and reg.tail_reaches_floor(n):
        return _het_delay(reg.alpha, n, reg.f(n))
    return _adhoc_delay(reg.alpha, reg.M(n), n * reg.a(n))


def predicted_throughput_order(reg: ScalingRegime, n: int) -> float:
    """Throughput order: exactly 1/(n a(n) D*(n)).

    Built from the delay order so the throughput-delay tradeoff
    D * lambda = Theta(1/(n a)) holds identically.
    """
    return 1.0 / (n * reg.a(n) * predicted_delay_order(reg, n))


def m1_m2_orders(reg: ScalingRegime, n: int) -> tuple[float, float]:
    """Order expressions for the regime thresholds (m1, m2).

    Constant-1 normalization; compare against solve() output by ratio,
    not value.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    alpha = reg.alpha
    band = zipf_regime(alpha)
    M = reg.M(n)
    a = reg.a(n)
    na = n * a
    if not reg.heterogeneous or not reg.tail_reaches_floor(n):
        if band is ZipfRegime.ABOVE_THREE_HALVES:
            m1 = min(M, na)
            m2 = min(
                M + 1.0,
                (2.0 * alpha - 3.0) / (2.0 * alpha) * n * reg.K * a ** (1.0 - 1.5 / alpha),
            )
        elif band is ZipfRegime.THREE_HALVES:
            m1 = min(M, na / log(n))
            m2 = M + 1.0
        else:
            m1 = max(1.0, min(M, na, na ** (1.5 / alpha) / M ** (1.5 / alpha - 1.0)))
            m2 = M + 1.0
        return m1, m2
    f = reg.f(n)
    if band is ZipfRegime.ABOVE_THREE_HALVES:
        m1 = 1.0 + (2.0 * alpha - 3.0) / alpha * reg.K * log(n)
        m2 = (n / f) ** (1.5 / alpha) * log(n) ** (1.0 - 1.5 / alpha)
    elif band is ZipfRegime.THREE_HALVES:
        m1 = 1.0
        m2 = n / (f * log(n))
    else:
        m1 = 1.0
        m2 = n / f
    return m1, min(M + 1.0, m2)


def improvement_threshold(beta: float) -> float:
    """Exponent mu above which base stations improve the order.

    f(n) must exceed n/M = n^(1-beta); for beta >= 1 any f >= 1 helps.
    The improvement also requires alpha < 3/2 — above that caching the
    few dominant contents already achieves constant delay.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return max(0.0, 1.0 - beta)


def improves_order(alpha: float, beta: float, mu: float) -> bool:
    """Whether n^mu base stations beat the ad hoc order at this (alpha, beta)."""
    return (
        mu > improvement_threshold(beta)
        and zipf_regime(alpha) < ZipfRegime.THREE_HALVES
    )
