"""Exact solver for the cache-allocation convex program.

One parametric problem covers both network modes:

    minimize    sum_m  p_m / sqrt(a * (X_m + f))
    subject to  lower <= X_m <= upper,      sum_m X_m <= n*K

with ``f = 0, lower = 1`` for the pure ad hoc network (every content
keeps at least one wireless copy) and ``f >= 1, lower = 0`` when f base
stations hold every content.  ``upper = 1/a - f`` caps holders at one
per cell, where the hop count floors at one.

The optimum is a water-filling: interior contents share a single level
c with X_m + f = c * p_m^(2/3), clipped to the box.  The solver finds c
by bisection on the clipped budget, classifies the three regimes
(saturated / interior / floored, thresholds m1 and m2), snaps the
interior to the closed form driven by the residual budget K', and
verifies the KKT conditions before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, SolverError, UnsupportedRegimeError
from .popularity import PopularityModel

__all__ = [
    "AllocationProblem",
    "Allocation",
    "solve",
    "kkt_residual",
    "interior_ratio",
    "optimized_delay",
    "round_to_integers",
]

# Classification tolerances for "at a bound" under floating point.
_LOWER_TOL = 1e-12
_KKT_TOL = 1e-8

# Budget bisection: stop when the clipped sum is within 1e-9 of the
# budget or the bracket has collapsed to 1e-14 relative width.
_BUDGET_RTOL = 1e-9
_BRACKET_RTOL = 1e-14


@dataclass(frozen=True)
class AllocationProblem:
    """One instance of the cache-allocation program."""

    pop: PopularityModel
    n: int
    K: float
    a: float
    f: float = 0.0
    lower: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        if not self.K > 0:
            raise ValueError(f"cache size must be positive, got K={self.K}")
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"cell area must be in (0, 1], got a={self.a}")
        if self.f < 0:
            raise ValueError(f"base-station count must be >= 0, got f={self.f}")
        if self.lower < 0:
            raise ValueError(f"lower bound must be >= 0, got {self.lower}")
        if self.f == 0 and self.lower < 1:
            raise ValueError(
                "without base stations every content needs a holder: "
                f"lower must be >= 1 when f = 0, got {self.lower}"
            )

    @staticmethod
    def ad_hoc(pop: PopularityModel, n: int, K: float, a: float) -> "AllocationProblem":
        return AllocationProblem(pop=pop, n=n, K=K, a=a, f=0.0, lower=1.0)

    @staticmethod
    def heterogeneous(
        pop: PopularityModel, n: int, K: float, a: float, f: float
    ) -> "AllocationProblem":
        if f < 1:
            raise ValueError(f"heterogeneous mode needs f >= 1, got {f}")
        return AllocationProblem(pop=pop, n=n, K=K, a=a, f=f, lower=0.0)

    @property
    def upper(self) -> float:
        """Per-content holder cap 1/a - f (one effective holder per cell)."""
        return 1.0 / self.a - self.f

    @property
    def budget(self) -> float:
        return self.n * self.K

    @property
    def degenerate(self) -> bool:
        """True when the box collapses: f >= 1/a - lower leaves no room."""
        return self.upper <= self.lower


@dataclass(frozen=True)
class Allocation:
    """Solution of the allocation program.

    ``X`` is non-increasing with the three-regime shape: X = upper for
    m < m1, interior for m1 <= m < m2, X = lower for m >= m2 (indices
    1-based; m1 = M+1 means no saturated content, m2 = M+1 no floored
    content).  ``Kprime`` is the residual per-node budget feeding the
    interior regime; ``multiplier`` the budget-constraint scalar.
    """

    X: np.ndarray = field(repr=False)
    m1: int
    m2: int
    Kprime: float
    multiplier: float
    objective: float
    degenerate: bool = False


def _grad_magnitude(p: np.ndarray, x: np.ndarray, a: float, f: float) -> np.ndarray:
    """|d objective / dX_m| = p_m / (2 sqrt(a) (X_m + f)^{3/2})."""
    return p / (2.0 * math.sqrt(a) * (x + f) ** 1.5)


def _classify(x: np.ndarray, lower: float, upper: float) -> tuple[int, int]:
    """1-based thresholds: m1 = first X < upper, m2 = first X at lower."""
    m_count = len(x)
    below_upper = np.nonzero(x < upper)[0]
    m1 = int(below_upper[0]) + 1 if len(below_upper) else m_count + 1
    at_lower = np.nonzero(x <= lower + _LOWER_TOL * max(1.0, upper))[0]
    m2 = int(at_lower[0]) + 1 if len(at_lower) else m_count + 1
    return m1, max(m1, m2)


def _residual_budget(prob: AllocationProblem, m1: int, m2: int) -> float:
    """Interior budget n*K' implied by the regime thresholds.

    Derived from sum X = n K with (m1-1) contents at upper and
    (M - m2 + 1) at lower:

        n K' = n K - (m1-1)*upper - (M-m2+1)*lower + (m2-m1)*f,

    which reduces to the ad hoc form K - (m1-1)/(n a) - (M-m2+1)/n and
    the heterogeneous form K - (m1-1)/(n a) + (m2-1) f/n.
    """
    m_count = prob.pop.m_count
    return (
        prob.budget
        - (m1 - 1) * prob.upper
        - (m_count - m2 + 1) * prob.lower
        + (m2 - m1) * prob.f
    )


def solve(prob: AllocationProblem) -> Allocation:
    """Solve the program exactly; see the module docstring for the shape.

    Raises :class:`InfeasibleError` when f = 0 and M*lower exceeds the
    budget (not enough memory for one copy of everything), and
    :class:`~ccnscale.errors.SolverError` if the KKT certificate check fails.
    """
    p = prob.pop.p
    m_count = prob.pop.m_count
    if np.any(np.diff(p) > 0):
        raise ValueError("popularity vector must be non-increasing")
    lower, upper, f, a = prob.lower, prob.upper, prob.f, prob.a
    budget = prob.budget

    if prob.degenerate:
        x = np.full(m_count, lower)
        alloc = Allocation(
            X=x,
            m1=1,
            m2=1,
            Kprime=_residual_budget(prob, 1, 1) / prob.n,
            multiplier=0.0,
            objective=float(np.sum(p / np.sqrt(a * (x + f)))),
            degenerate=True,
        )
        return alloc

    if f == 0 and m_count * lower > budget:
        raise InfeasibleError(
            f"budget n*K = {budget:g} cannot give {m_count} contents "
            f"{lower:g} holders each"
        )

    p23 = p ** (2.0 / 3.0)

    if m_count * upper <= budget:
        # Over-provisioned: the cap binds everywhere, budget slack, multiplier 0.
        x = np.full(m_count, upper)
        m1, m2 = m_count + 1, m_count + 1
        alloc = Allocation(
            X=x,
            m1=m1,
            m2=m2,
            Kprime=_residual_budget(prob, m1, m2) / prob.n,
            multiplier=0.0,
            objective=float(np.sum(p / np.sqrt(a * (x + f)))),
        )
        _verify_kkt(alloc, prob)
        return alloc

    def clipped_sum(c: float) -> float:
        return float(np.sum(np.clip(c * p23 - f, lower, upper)))

    # Bracket the water level: at c_lo everything clips to lower
    # (feasible), at c_hi everything clips to upper (over budget).
    c_lo = (lower + f) / p23[0]
    c_hi = (upper + f) / p23[-1]
    for _ in range(200):
        if (c_hi - c_lo) <= _BRACKET_RTOL * c_hi:
            break
        c_mid = 0.5 * (c_lo + c_hi)
        b = clipped_sum(c_mid) - budget
        if abs(b) <= _BUDGET_RTOL * budget:
            c_lo = c_hi = c_mid
            break
        if b > 0.0:
            c_hi = c_mid
        else:
            c_lo = c_mid
    c = c_lo
    x = np.clip(c * p23 - f, lower, upper)

    m1, m2 = _classify(x, lower, upper)

    # Snap the interior to the closed form: X_m = (p_m^{2/3}/S) nK' - f.
    # This lands the budget exactly; keep the bisected solution if the
    # snapped values stray outside the box (classification edge case).
    if m2 > m1:
        s_interior = math.fsum(p23[m1 - 1 : m2 - 1])
        n_kprime = _residual_budget(prob, m1, m2)
        c_exact = n_kprime / s_interior
        interior = c_exact * p23[m1 - 1 : m2 - 1] - f
        if interior.min() > lower and interior.max() < upper:
            x = x.copy()
            x[m1 - 1 : m2 - 1] = interior
            x[: m1 - 1] = upper
            x[m2 - 1 :] = lower
            c = c_exact

    multiplier = 1.0 / (2.0 * math.sqrt(a) * c**1.5)
    alloc = Allocation(
        X=x,
        m1=m1,
        m2=m2,
        Kprime=_residual_budget(prob, m1, m2) / prob.n,
        multiplier=multiplier,
        objective=float(np.sum(p / np.sqrt(a * (x + f)))),
    )
    _verify_kkt(alloc, prob)
    return alloc


def kkt_residual(alloc: Allocation, prob: AllocationProblem) -> float:
    """Largest relative violation of the stationarity conditions.

    With gradient magnitude g_m = p_m/(2 sqrt(a) (X_m+f)^{3/2}) and
    multiplier lam, optimality requires g_m >= lam at the upper bound,
    g_m = lam in the interior, g_m <= lam at the lower bound, and no
    budget slack when lam > 0.  Residuals are scaled by max(g_m, lam).
    """
    p = prob.pop.p
    x = alloc.X
    lower, upper = prob.lower, prob.upper
    lam = alloc.multiplier
    g = _grad_magnitude(p, x, prob.a, prob.f)
    scale = np.maximum(g, lam)
    tol_up = _LOWER_TOL * max(1.0, abs(upper))
    at_upper = x >= upper - tol_up
    at_lower = x <= lower + tol_up
    interior = ~(at_upper | at_lower)
    res = np.zeros_like(g)
    res[at_upper] = np.maximum(0.0, lam - g[at_upper])
    res[at_lower] = np.maximum(0.0, g[at_lower] - lam)
    res[interior] = np.abs(g[interior] - lam)
    worst = float(np.max(res / scale)) if len(res) else 0.0
    if lam > 0:
        slack = prob.budget - float(np.sum(x))
        worst = max(worst, max(0.0, slack) / prob.budget)
    return worst


def _verify_kkt(alloc: Allocation, prob: AllocationProblem) -> None:
    res = kkt_residual(alloc, prob)
    if res > _KKT_TOL:
        raise SolverError(
            f"optimality certificate failed: KKT residual {res:.3e} > {_KKT_TOL:g}"
        )


def interior_ratio(prob: AllocationProblem) -> float:
    """m1/m2 normalized by its predicted order (a*max(f,1))^{3/(2 alpha)}.

    Constant across n-sweeps when the three-regime structure is present.
    Requires Zipf popularity and a solved instance with
    1 < m1 <= m2 <= M.
    """
    if prob.pop.alpha is None:
        raise UnsupportedRegimeError("interior ratio is defined for Zipf popularity")
    if prob.degenerate:
        raise UnsupportedRegimeError("no interior region: upper <= lower")
    alpha = prob.pop.alpha
    if not alpha > 0:
        raise UnsupportedRegimeError("interior ratio needs alpha > 0")
    alloc = solve(prob)
    m_count = prob.pop.m_count
    if not (1 < alloc.m1 <= alloc.m2 <= m_count):
        raise UnsupportedRegimeError(
            f"three-regime structure absent: m1={alloc.m1}, m2={alloc.m2}, M={m_count}"
        )
    order = (prob.a * max(prob.f, 1.0)) ** (3.0 / (2.0 * alpha))
    return (alloc.m1 / alloc.m2) / order


def optimized_delay(alloc: Allocation, prob: AllocationProblem) -> float:
    """Mean delay of the optimal allocation, in mean-hop units.

    Exact three-term form: saturated contents cost one hop each,
    interior contents S^{3/2}/sqrt(n K' a) with S the interior sum of
    p^{2/3}, floored contents p_m/sqrt(a (lower+f)).  Equals the direct
    sum over p_m * max(1, 1/sqrt(a (X_m+f))) for non-degenerate
    problems.
    """
    if len(alloc.X) != prob.pop.m_count:
        raise ValueError("allocation does not match the problem's catalog size")
    p = prob.pop.p
    m1, m2 = alloc.m1, alloc.m2
    term_saturated = math.fsum(p[: m1 - 1])
    if m2 > m1:
        s_interior = math.fsum(p[m1 - 1 : m2 - 1] ** (2.0 / 3.0))
        n_kprime = prob.n * alloc.Kprime
        term_interior = s_interior**1.5 / math.sqrt(n_kprime * prob.a)
    else:
        term_interior = 0.0
    term_floor = math.fsum(p[m2 - 1 :]) / math.sqrt(prob.a * (prob.lower + prob.f))
    return term_saturated + term_interior + term_floor


def round_to_integers(alloc: Allocation, prob: AllocationProblem) -> np.ndarray:
    """Largest-remainder integer rounding of the allocation.

    Keeps every entry within [lower, upper] and the total within
    floor(n*K); each entry moves by less than one; remainder ties break
    toward the lower index.
    """
    x = alloc.X
    base = np.floor(x)
    remainder = x - base
    budget_int = math.floor(prob.budget)
    room = int(budget_int - base.sum())
    order = np.lexsort((np.arange(len(x)), -remainder))
    out = base.copy()
    for idx in order:
        if room <= 0:
            break
        if remainder[idx] > 0.0 and out[idx] + 1.0 <= prob.upper:
            out[idx] += 1.0
            room -= 1
    return out.astype(np.int64)
