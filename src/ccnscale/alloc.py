"""Exact solver for the cache-allocation convex program.

One parametric problem covers both network modes:

    minimize    sum_m  p_m / sqrt(a * (X_m + f))
    subject to  lower <= X_m <= upper,      sum_m X_m <= n*K

with ``f = 0, lower = 1`` for the pure ad hoc network (every content
keeps at least one wireless copy) and ``f >= 1, lower = 0`` when f base
stations hold every content.  ``upper = 1/a - f`` caps holders at one
per cell.  Content m costs max(1, 1/sqrt(a (X_m + f))) hops, and
X_m <= upper gives a (X_m + f) <= 1, so the max never binds: the optimal
value is the mean hop count, the network's delay in hop units.

The optimum is a water-filling: interior contents share a single level
c with X_m + f = c * p_m^(2/3), clipped to the box.  The clipped budget
S(c) = sum_m clip(c p_m^(2/3) - f, lower, upper) is piecewise linear in
c, and because p is non-increasing its breakpoints are monotone in m.
With one prefix sum of p^(2/3), S(c) costs two bisections over the
contents, so the solver bisects over the breakpoint indices to find the
linear piece holding the budget and takes c in closed form on it.  It
then classifies the three regimes (saturated / interior / floored,
thresholds m1 and m2), snaps the interior to the closed form driven by
the residual budget K', sums the optimal value exactly in three terms
(saturated, interior, floored), and verifies the KKT conditions before
returning.  Sums that must be exact use :func:`_fsum`, a vectorised,
correctly rounded sum: it adds the integer mantissas of each run of
equal exponent, and the non-increasing arrays the solver sums hold a
few long runs per block.  Apart from the allocation it returns, a solve
holds at most two catalog-sized arrays at once (p^(2/3) and its prefix
sum, then p^(2/3) and X).  p^(2/3) is freed before the exact sums of
the optimal value; :func:`_fsum` and :func:`kkt_residual` work in blocks
of :data:`_BLOCK` elements, the certificate in three block-sized scratch
arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

# Elements per block of _fsum and kkt_residual: their temporaries stay
# small while per-block overhead stays a small share of the work.  _fsum
# adds 27-bit mantissa halves in float64 run sums and buckets, which is
# exact while a block's sum stays below 2**53, that is for blocks of up
# to 2**26; at 2**15 it stays below 2**42.
_BLOCK = 1 << 15


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
    interior regime; ``multiplier`` the budget-constraint scalar;
    ``objective`` the optimal value, the mean hop count (see the module
    docstring), correctly rounded term by term.
    """

    X: np.ndarray = field(repr=False)
    m1: int
    m2: int
    Kprime: float
    multiplier: float
    objective: float
    degenerate: bool = False


def _fsum(x: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array: the same bits as ``math.fsum``.

    Each element is split by ``frexp`` into a 53-bit integer mantissa and
    an exponent, and the mantissa into 27- and 26-bit halves.  Block by
    block, each half is summed over every run of equal exponent with
    ``np.add.reduceat``, and the run sums are then added per exponent with
    ``bincount``.  Every partial sum is an integer below 2**42, so these
    sums are exact.  On the non-increasing arrays the solver sums, equal
    exponents are adjacent and a block holds a few long runs; any other
    array takes the same path with shorter runs.  The buckets of all blocks
    are combined into one Python integer and divided by a power of two,
    which rounds once, to nearest even.
    """
    if len(x) == 0:
        return 0.0
    partials = []  # (integer sum, exponent of its unit bit)
    for start in range(0, len(x), _BLOCK):
        mant, exp = np.frexp(x[start : start + _BLOCK])
        runs = np.flatnonzero(exp[1:] != exp[:-1])  # each run's start, less one
        runs += 1
        runs = np.concatenate(([0], runs))
        mant *= 2.0**27
        high = np.floor(mant)
        with np.errstate(invalid="ignore"):  # inf - inf: fsum reports it below
            mant -= high  # the low 26 bits, as a fraction
            mant *= 2.0**26
            high = np.add.reduceat(high, runs)
            mant = np.add.reduceat(mant, runs)
        exp = exp[runs]
        base = int(exp.min())
        exp = exp.astype(np.intp)  # bincount's index type, converted once
        exp -= base
        high_sums = np.bincount(exp, weights=high).tolist()
        low_sums = np.bincount(exp, weights=mant).tolist()
        try:
            total = sum(
                ((int(h) << 26) + int(lo)) << k
                for k, (h, lo) in enumerate(zip(high_sums, low_sums))
            )
        except (OverflowError, ValueError):  # an inf or nan: let fsum report it
            return math.fsum(x)
        partials.append((total, base))
    base = min(b for _, b in partials)
    total = sum(t << (b - base) for t, b in partials)
    shift = base - 53
    if shift >= 0:
        return float(total << shift)
    return total / (1 << -shift)


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
    budget (not enough memory for one copy of everything) or when the box
    is empty (upper = 1/a - f < lower: with lower = 0, more base stations
    than cells), and
    :class:`~ccnscale.errors.SolverError` if the KKT certificate check fails.
    """
    p = prob.pop.p
    m_count = prob.pop.m_count
    if np.any(p[1:] > p[:-1]):
        raise ValueError("popularity vector must be non-increasing")
    lower, upper, f, a = prob.lower, prob.upper, prob.f, prob.a
    budget = prob.budget

    if f == 0 and m_count * lower > budget:
        raise InfeasibleError(
            f"budget n*K = {budget:g} cannot give {m_count} contents "
            f"{lower:g} holders each"
        )

    if upper < lower:
        raise InfeasibleError(
            f"empty box: the holder cap 1/a - f = {upper:g} is below the floor "
            f"{lower:g} (f = {f:g} base stations, 1/a = {1 / a:g} cells)"
        )

    if prob.degenerate or m_count * upper <= budget:
        # X = upper everywhere: a point box (upper = lower) fixes it, all
        # floored; an over-provisioned budget leaves slack, all saturated.
        # Either way the multiplier is 0.
        m1 = m2 = 1 if prob.degenerate else m_count + 1
        x = np.full(m_count, upper)
        multiplier = s_interior = 0.0
    else:
        p23 = p ** (2.0 / 3.0)
        # Python-float views: bisect indexes them without making numpy scalars.
        q = memoryview(p23)
        cum = memoryview(np.cumsum(p23))

        def first(seq, pred) -> int:
            """First index where ``pred`` holds; it must hold on a suffix."""
            return bisect_left(seq, True, key=pred)

        def clipped_budget(c: float) -> float:
            # k1 contents clip to upper, the k2 - k1 after them are interior.
            k1 = first(q, lambda v: c * v - f < upper)
            k2 = first(q, lambda v: c * v - f <= lower)
            interior = (cum[k2 - 1] if k2 else 0.0) - (cum[k1 - 1] if k1 else 0.0)
            return k1 * upper + (m_count - k2) * lower + c * interior - (k2 - k1) * f

        def level_at(bound: float, m: int) -> float:
            """Breakpoint: the level c at which content m reaches ``bound``."""
            return (bound + f) / q[m]

        def first_over_budget(bound: float) -> int:
            # The breakpoints rise with m, and S rises with c.
            return first(
                range(m_count), lambda m: clipped_budget(level_at(bound, m)) > budget
            )

        # On the piece of S that holds the budget, contents [0, j) are
        # saturated and [i, M) floored.  S at the last content's upper
        # breakpoint is M*upper > budget, so j < M.
        j = first_over_budget(upper)
        i = first_over_budget(lower)
        cum.release()
        if i > j:
            s_interior = _fsum(p23[j:i])
            c = _residual_budget(prob, j + 1, i + 1) / s_interior
        else:
            # Flat piece (a tie): every c on it meets the budget; take the middle.
            s_interior = 0.0
            c_lo = max(
                level_at(upper, j - 1) if j else 0.0,
                level_at(lower, i - 1) if i else 0.0,
            )
            c = 0.5 * (c_lo + min(level_at(upper, j), level_at(lower, i)))

        # Classify at c as the clipped water level would be.  A content that
        # the piece puts at a bound stays there: at a tie, c sits on that
        # content's breakpoint and rounding must not make it interior.
        floor_tol = lower + _LOWER_TOL * max(1.0, upper)
        m1 = first(q, lambda v: c * v - f < upper) + 1
        m2 = first(q, lambda v: min(max(c * v - f, lower), upper) <= floor_tol) + 1
        m1 = max(m1, j + 1)
        m2 = max(m1, min(m2, i + 1))
        q.release()
        if (m1, m2) != (j + 1, i + 1):
            s_interior = _fsum(p23[m1 - 1 : m2 - 1])

        # Snap the interior to the closed form: X_m = (p_m^{2/3}/S) nK' - f.
        # This lands the budget exactly.  Without an interior, or if the
        # snapped values stray outside the box (classification edge case),
        # keep the clipped water level, which also keeps values within the
        # classification tolerance of a bound.
        x = np.full(m_count, lower)
        snapped = False
        if m2 > m1:
            n_kprime = _residual_budget(prob, m1, m2)
            c_exact = n_kprime / s_interior
            interior = x[m1 - 1 : m2 - 1]
            np.multiply(p23[m1 - 1 : m2 - 1], c_exact, out=interior)
            interior -= f
            if interior.min() > lower and interior.max() < upper:
                x[: m1 - 1] = upper
                c = c_exact
                snapped = True
        if not snapped:
            np.multiply(p23, c, out=x)
            x -= f
            np.clip(x, lower, upper, out=x)

        multiplier = 1.0 / (2.0 * math.sqrt(a) * c**1.5)
        del p23  # before the exact sums

    kprime = _residual_budget(prob, m1, m2) / prob.n
    # The mean hop count, exactly, in three terms: a saturated content
    # costs one hop, the interior S^{3/2}/sqrt(n K' a) with S its sum of
    # p^(2/3), and a floored content 1/sqrt(a (lower + f)).
    objective = _fsum(p[: m1 - 1])
    if m2 > m1:
        objective += s_interior**1.5 / math.sqrt(prob.n * kprime * a)
    objective += _fsum(p[m2 - 1 :]) / math.sqrt(a * (lower + f))
    alloc = Allocation(
        X=x,
        m1=m1,
        m2=m2,
        Kprime=kprime,
        multiplier=multiplier,
        objective=objective,
        degenerate=prob.degenerate,
    )
    _verify_kkt(alloc, prob)
    return alloc


def kkt_residual(alloc: Allocation, prob: AllocationProblem) -> float:
    """Largest relative violation of the KKT conditions.

    With gradient magnitude g_m = p_m/(2 sqrt(a) (X_m+f)^{3/2}) and
    multiplier lam, optimality requires g_m >= lam at the upper bound,
    g_m = lam in the interior, g_m <= lam at the lower bound, and no
    budget slack when lam > 0; these residuals are scaled by
    max(g_m, lam).  Feasibility requires sum X <= n K, whose overrun is
    scaled by n K, and lower <= X_m <= upper, whose violations are
    scaled by max(1, |upper|).  A content at both bounds, fixed by a
    point box, has no stationarity condition, and neither has one with
    X_m + f < 0, where the gradient is undefined and the box term alone
    reports it.  A NaN in X makes the result NaN.
    """
    p = prob.pop.p
    x = alloc.X
    lower, upper, f = prob.lower, prob.upper, prob.f
    lam = alloc.multiplier
    tol_up = _LOWER_TOL * max(1.0, abs(upper))
    scale = 2.0 * math.sqrt(prob.a)
    worst = 0.0
    if len(x):
        # Three block-sized scratch arrays: g, g - lam and lam - g.
        size = min(len(x), _BLOCK)
        g_buf, d_buf, e_buf = np.empty(size), np.empty(size), np.empty(size)
        block_worst = []
        for start in range(0, len(x), _BLOCK):
            xb = x[start : start + _BLOCK]
            g, d, e = g_buf[: len(xb)], d_buf[: len(xb)], e_buf[: len(xb)]
            # g = p / (2 sqrt(a) (X + f)^1.5), in place and in that order.
            # (X + f)^1.5 is undefined below -f, where only the box term applies.
            np.add(xb, f, out=g)
            below = g < 0.0  # exactly where X < -f: a float sum is 0 only if exact
            np.copyto(g, lower + f, where=below)
            g **= 1.5
            g *= scale
            np.divide(p[start : start + _BLOCK], g, out=g)
            # max(g - lam, lam - g) with the first zeroed at the upper bound
            # and the second at the lower one: |g - lam| in the interior,
            # max(0, lam - g) and max(0, g - lam) at one bound, 0 at both.
            # lam - g is exactly -(g - lam).
            np.subtract(g, lam, out=d)
            np.negative(d, out=e)
            np.copyto(d, 0.0, where=xb >= upper - tol_up)
            np.copyto(e, 0.0, where=xb <= lower + tol_up)
            np.maximum(e, d, out=d)
            np.copyto(d, 0.0, where=below)  # below -f: no stationarity condition
            np.maximum(g, lam, out=g)
            d /= g
            block_worst.append(np.max(d))
        box = max(lower - float(x.min()), float(x.max()) - upper)
        # np.max, not max(): a nan in any block must reach the result.
        worst = max(float(np.max(block_worst)), box / max(1.0, abs(upper)))
    excess = float(np.sum(x)) - prob.budget
    if lam > 0:
        excess = abs(excess)  # no slack either
    return max(worst, excess / prob.budget)


def _verify_kkt(alloc: Allocation, prob: AllocationProblem) -> None:
    res = kkt_residual(alloc, prob)
    if not res <= _KKT_TOL:  # a NaN residual fails too
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
    """Mean delay of the optimal allocation, in mean-hop units: the optimal
    value ``alloc.objective`` that :func:`solve` computes exactly (the
    module docstring shows why the two are one number)."""
    if len(alloc.X) != prob.pop.m_count:
        raise ValueError("allocation does not match the problem's catalog size")
    return alloc.objective


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
    out = base.copy()
    if room > 0:
        # In order of largest remainder, then lowest index, the first
        # ``room`` entries that can rise by one without passing ``upper``.
        order = np.lexsort((np.arange(len(x)), -remainder))
        ok = (remainder > 0.0) & (base + 1.0 <= prob.upper)
        out[order[ok[order]][:room]] += 1.0
    return out.astype(np.int64)
