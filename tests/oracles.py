"""Independent reference implementations used only by the test suite.

Every non-trivial computed value in the package is cross-checked against
one of these oracles, each written as directly (and slowly) as possible
so that agreement is meaningful:

* ``harmonic_fsum``        — one compensated summation, no chunking.
* ``sample_segment_cells`` — dense point sampling along a segment.
* ``nearest_by_scan``      — brute-force nearest neighbour on the torus.
* ``project_box_simplex``  — Euclidean projection onto {l <= x <= u,
                             sum x <= budget} by bisection on the shift.
* ``solve_spg``            — spectral projected gradient (Barzilai-
                             Borwein steps, nonmonotone line search) for
                             the cache-allocation program; fast enough
                             to run live against many random instances.
* ``solve_pg``             — plain projected gradient with a diminishing
                             step.  Too slow for live use; it was run
                             offline to freeze expected allocations that
                             the test suite pins exactly.
* ``solve_bisect``         — the package's earlier solver: bisection on
                             the water level with full-array clips.  The
                             one-pass solver must return its bits.
* ``round_by_loop``        — the package's earlier largest-remainder
                             rounding, one entry at a time.  The
                             vectorised rounding must return its array.
* ``harmonic``             — the generalized harmonic number, summed in
                             chunks whose totals are combined by fsum; it
                             was the package's Zipf normalizer.
* ``zipf_by_harmonic``     — the package's earlier Zipf construction:
                             fresh arrays for the powers and each
                             division, normalized by ``harmonic()``.  The
                             in-place construction must return its bits.
* ``from_weights``         — a popularity model from custom weights in any
                             order, as the package once built it, so that
                             the random instances keep their bits.
* ``kkt_residual_by_masks`` — the package's earlier KKT certificate over
                             the whole catalog, with masked copies.  The
                             blocked certificate must return its value.
* ``bucket_order_by_argsort`` — the package's earlier holder bucket
                             order: bucket ids for every holder and one
                             stable argsort over all of them.  The
                             instance's grouped sort must return its arrays.
* ``invert_by_sorted_blocks`` — the package's earlier request draw: the
                             binary search on sorted blocks of uniforms.
                             The guide-table draw must return its bits and
                             leave the generator in its state.
* ``holder_sets_by_full_sorts`` — the package's earlier holder draw: a
                             full sort of the keys in every redraw round.
                             The draw that re-sorts in place must return
                             its arrays and leave the generator in its state.
"""

from __future__ import annotations

import math

import numpy as np


def harmonic_fsum(m_count: int, alpha: float) -> float:
    return math.fsum(m ** (-alpha) for m in range(1, m_count + 1))


def torus_dist(ax, ay, bx, by):
    dx = abs(ax - bx)
    dx = min(dx, 1.0 - dx)
    dy = abs(ay - by)
    dy = min(dy, 1.0 - dy)
    return math.hypot(dx, dy)


def wrap_delta(a: float, b: float) -> float:
    d = b - a
    if d > 0.5:
        return d - 1.0
    if d < -0.5:
        return d + 1.0
    if d == -0.5:
        return 0.5
    return d


def cell_of(x: float, y: float, g: int) -> tuple[int, int]:
    col = min(int(x * g), g - 1)
    row = min(int(y * g), g - 1)
    return row, col


def sample_segment_cells(x0, y0, x1, y1, g, oversample=200):
    """Cells touched by densely sampled points of the geodesic segment.

    A subset of the true crossed-cell set (sampling can miss a cell the
    segment barely clips, never invent one), so the tested property is
    ``sampled <= computed``.
    """
    dx = wrap_delta(x0, x1)
    dy = wrap_delta(y0, y1)
    length = math.hypot(dx, dy)
    steps = max(4, int(length * g * oversample) + 2)
    seen = set()
    for i in range(steps + 1):
        t = i / steps
        seen.add(cell_of((x0 + t * dx) % 1.0, (y0 + t * dy) % 1.0, g))
    return seen


def nearest_by_scan(px, py, xs, ys, exclude=-1):
    """Brute-force nearest holder; ties to the lowest index."""
    best_i, best_d = -1, math.inf
    for i in range(len(xs)):
        if i == exclude:
            continue
        d = torus_dist(px, py, xs[i], ys[i])
        if d < best_d or (d == best_d and i < best_i):
            best_d = d
            best_i = i
    return best_i, best_d


# ---------------------------------------------------------------------------
# Optimization oracles for the cache-allocation program
#
#   minimize    sum_m p_m / sqrt(a * (x_m + f))
#   subject to  lower <= x_m <= upper,   sum_m x_m <= budget
# ---------------------------------------------------------------------------


def objective(x, p, a, f):
    return float(np.sum(p / np.sqrt(a * (x + f))))


def gradient(x, p, a, f):
    return -0.5 * p * a / (a * (x + f)) ** 1.5


def project_box_simplex(y, lower, upper, budget):
    """Project y onto {lower <= x <= upper, sum x <= budget} (Euclidean).

    If clipping to the box already satisfies the budget, that is the
    projection.  Otherwise the budget is active and the projection is
    clip(y - tau) with tau >= 0 found by bisection on the monotone
    function sum(clip(y - tau)) - budget.
    """
    clipped = np.clip(y, lower, upper)
    if clipped.sum() <= budget:
        return clipped
    lo, hi = 0.0, float(np.max(y) - lower)
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = np.clip(y - tau, lower, upper).sum()
        if s > budget:
            lo = tau
        else:
            hi = tau
    return np.clip(y - hi, lower, upper)


def solve_spg(p, a, f, lower, upper, budget, max_iter=20000, tol=1e-12):
    """Spectral projected gradient solve of the allocation program.

    Independent of the package's bisection-on-the-multiplier approach:
    pure first-order iterations with Barzilai-Borwein step lengths and a
    nonmonotone (10-step memory) Armijo line search.  Converges to the
    unique optimum of this strictly convex program.
    """
    m = len(p)
    x = project_box_simplex(np.full(m, budget / m), lower, upper, budget)
    g = gradient(x, p, a, f)
    step = 1.0
    f_hist = [objective(x, p, a, f)]
    for _ in range(max_iter):
        d = project_box_simplex(x - step * g, lower, upper, budget) - x
        dnorm = float(np.max(np.abs(d)))
        if dnorm < tol * max(1.0, float(np.max(np.abs(x)))):
            break
        f_ref = max(f_hist[-10:])
        gd = float(g @ d)
        lam = 1.0
        fx = f_hist[-1]
        while True:
            x_new = x + lam * d
            f_new = objective(x_new, p, a, f)
            if f_new <= f_ref + 1e-4 * lam * gd or lam < 1e-16:
                break
            lam *= 0.5
        g_new = gradient(x_new, p, a, f)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-30 else 1.0
        step = min(max(step, 1e-10), 1e10)
        x, g = x_new, g_new
        f_hist.append(f_new)
    return x


def solve_pg(p, a, f, lower, upper, budget, iters=1_000_000, step0=1e-3):
    """Plain projected gradient with a diminishing step (offline oracle)."""
    m = len(p)
    x = project_box_simplex(np.full(m, budget / m), lower, upper, budget)
    for t in range(1, iters + 1):
        g = gradient(x, p, a, f)
        x = project_box_simplex(x - step0 / math.sqrt(t) * g, lower, upper, budget)
    return x


def random_instances(seed: int, count: int, m_max: int = 30):
    """Yield random non-degenerate AllocationProblem instances.

    Mixes ad hoc (f=0, lower=1) and heterogeneous (f>=1, lower=0)
    modes, Zipf and custom-weight popularity.  Degenerate boxes
    (upper <= lower) are excluded by construction: the projection
    oracle needs a non-empty feasible box.
    """
    from ccnscale.alloc import AllocationProblem
    from ccnscale.popularity import zipf

    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, m_max + 1))
        if rng.random() < 0.7:
            pop = zipf(m, float(rng.uniform(0.0, 3.0)))
        else:
            pop = from_weights(rng.uniform(0.1, 10.0, size=m))
        g = int(rng.integers(2, 13))
        a = 1.0 / (g * g)
        K = float(rng.uniform(0.3, 3.0))
        heterogeneous = rng.random() < 0.5
        if heterogeneous:
            f = float(rng.uniform(1.0, max(1.0, 1.0 / a - 0.5)))
            n = int(rng.integers(m, 2000))
            yield AllocationProblem(pop=pop, n=n, K=K, a=a, f=f)
        else:
            n_min = max(m, int(math.ceil(m / K)) + 1)
            n = int(rng.integers(n_min, n_min + 2000))
            yield AllocationProblem(pop=pop, n=n, K=K, a=a)


def solve_bisect(prob):
    """The allocation solver as it was before the one-pass water level.

    Bisects the water level c on the clipped budget with full-array
    clips, classifies the regimes on the clipped solution, snaps the
    interior to the closed form and keeps the bisected solution if the
    snap leaves the box.  Returns ``(X, m1, m2, multiplier)`` for
    non-degenerate problems that are not over-provisioned; the KKT check
    is left to the caller.
    """
    p = prob.pop.p
    m_count = prob.pop.m_count
    lower, upper, f, a = prob.lower, prob.upper, prob.f, prob.a
    budget = prob.budget
    p23 = p ** (2.0 / 3.0)

    def residual_budget(m1, m2):
        return (
            budget
            - (m1 - 1) * upper
            - (m_count - m2 + 1) * lower
            + (m2 - m1) * f
        )

    def clipped_sum(c):
        return float(np.sum(np.clip(c * p23 - f, lower, upper)))

    c_lo = (lower + f) / p23[0]
    c_hi = (upper + f) / p23[-1]
    for _ in range(200):
        if (c_hi - c_lo) <= 1e-14 * c_hi:
            break
        c_mid = 0.5 * (c_lo + c_hi)
        b = clipped_sum(c_mid) - budget
        if abs(b) <= 1e-9 * budget:
            c_lo = c_hi = c_mid
            break
        if b > 0.0:
            c_hi = c_mid
        else:
            c_lo = c_mid
    c = c_lo
    x = np.clip(c * p23 - f, lower, upper)

    below_upper = np.nonzero(x < upper)[0]
    m1 = int(below_upper[0]) + 1 if len(below_upper) else m_count + 1
    at_lower = np.nonzero(x <= lower + 1e-12 * max(1.0, upper))[0]
    m2 = max(m1, int(at_lower[0]) + 1 if len(at_lower) else m_count + 1)

    if m2 > m1:
        s_interior = math.fsum(p23[m1 - 1 : m2 - 1])
        c_exact = residual_budget(m1, m2) / s_interior
        interior = c_exact * p23[m1 - 1 : m2 - 1] - f
        if interior.min() > lower and interior.max() < upper:
            x = x.copy()
            x[m1 - 1 : m2 - 1] = interior
            x[: m1 - 1] = upper
            x[m2 - 1 :] = lower
            c = c_exact

    multiplier = 1.0 / (2.0 * math.sqrt(a) * c**1.5)
    return x, m1, m2, multiplier


def round_by_loop(x, budget, upper):
    """Largest-remainder rounding of ``x``, one entry at a time.

    Visits the entries by largest remainder, then lowest index, and raises
    each by one while the room ``floor(budget) - sum(floor(x))`` lasts, if
    its remainder is positive and it stays at most ``upper``.
    """
    x = np.asarray(x, dtype=np.float64)
    base = np.floor(x)
    remainder = x - base
    room = int(math.floor(budget) - base.sum())
    order = np.lexsort((np.arange(len(x)), -remainder))
    out = base.copy()
    for idx in order:
        if room <= 0:
            break
        if remainder[idx] > 0.0 and out[idx] + 1.0 <= upper:
            out[idx] += 1.0
            room -= 1
    return out.astype(np.int64)


# Chunk size for the generalized-harmonic accumulation.  Each chunk is
# pairwise-summed by numpy and the chunk totals are combined exactly with
# math.fsum, keeping the relative error at or below 1e-12 up to M = 1e8
# without materializing the full term array.  With one chunk the sum is
# numpy's pairwise sum of the term array alone: the normalizer zipf()
# takes from the array it has built, bit for bit, for M up to this size.
_HARMONIC_CHUNK = 1 << 22


def harmonic(m_count: int, alpha: float) -> float:
    """Generalized harmonic number ``H_alpha(M) = sum_{m=1..M} m^{-alpha}``.

    Parameters
    ----------
    m_count:
        Number of terms ``M >= 1``.
    alpha:
        Exponent, ``alpha >= 0``.

    Returns
    -------
    float
        The sum, accurate to a relative error of at most ``1e-12`` for
        ``M <= 10**8``.
    """
    if m_count < 1:
        raise ValueError(f"harmonic() needs M >= 1, got {m_count}")
    if alpha < 0:
        raise ValueError(f"harmonic() needs alpha >= 0, got {alpha}")
    if alpha == 0:
        return float(m_count)
    partials = []
    for start in range(1, m_count + 1, _HARMONIC_CHUNK):
        stop = min(m_count, start + _HARMONIC_CHUNK - 1)
        terms = np.arange(start, stop + 1, dtype=np.float64) ** (-alpha)
        partials.append(float(terms.sum()))
    return math.fsum(partials)


def zipf_by_harmonic(m_count: int, alpha: float) -> np.ndarray:
    """Zipf probabilities as the package built them before its in-place
    construction: ``ranks ** -alpha / harmonic(M, alpha)``, renormalized."""
    ranks = np.arange(1, m_count + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    p = weights / harmonic(m_count, alpha)
    return p / p.sum()


def from_weights(weights):
    """A ``PopularityModel`` of custom positive weights in any order: the
    weights sorted non-increasingly (a stable sort, so ties keep caller
    order), divided by their sum and renormalized once."""
    from ccnscale.popularity import PopularityModel

    w = np.asarray(weights, dtype=np.float64)
    p = w[np.argsort(-w, kind="stable")] / w.sum()
    return PopularityModel(p=p / p.sum())


def kkt_residual_by_masks(alloc, prob) -> float:
    """The KKT residual as the package computed it before working in blocks:
    whole-catalog gradient, masked assignments per regime."""
    p = prob.pop.p
    x = alloc.X
    lower, upper = prob.lower, prob.upper
    lam = alloc.multiplier
    # Below -f the gradient is undefined and only the box term applies.
    below = x < -prob.f
    g = p / (2.0 * math.sqrt(prob.a) * (np.where(below, lower, x) + prob.f) ** 1.5)
    scale = np.maximum(g, lam)
    tol_up = 1e-12 * max(1.0, abs(upper))
    at_upper = x >= upper - tol_up
    at_lower = x <= lower + tol_up
    interior = ~(at_upper | at_lower)
    res = np.zeros_like(g)
    res[at_upper] = np.maximum(0.0, lam - g[at_upper])
    res[at_lower] = np.maximum(0.0, g[at_lower] - lam)
    res[at_upper & at_lower] = 0.0
    res[interior] = np.abs(g[interior] - lam)
    res[below] = 0.0
    worst = 0.0
    if len(x):
        box = max(lower - float(x.min()), float(x.max()) - upper)
        worst = max(float(np.max(res / scale)), box / max(1.0, abs(upper)))
    excess = float(np.sum(x)) - prob.budget
    if lam > 0:
        excess = abs(excess)
    return max(worst, excess / prob.budget)


def bucket_order_by_argsort(xs, ys, h_idx, h_start):
    """``(hc_idx, hc_cell)`` as ``NetworkInstance`` built them before it
    sorted only the ring-searched contents: each holder's bucket on its
    content's own grid, every content's, and one stable argsort of the key
    ``grid offset + bucket``, which keeps each bucket in node order when
    ``h_idx`` ascends within each content."""
    from ccnscale._kernels import _ref

    h_idx = np.asarray(h_idx, dtype=np.int64)
    sizes = np.diff(np.asarray(h_start, dtype=np.int64))
    side = _ref.grid_sides(sizes)
    grid_size = side * side
    cell = _ref.grid_cells(xs[h_idx], ys[h_idx], np.repeat(side, sizes))
    key = np.repeat(np.cumsum(grid_size) - grid_size, sizes) + cell
    order = np.argsort(key, kind="stable")
    return h_idx[order], cell[order]


def invert_by_sorted_blocks(rng, p, size, block=1 << 14):
    """``rng.choice(p.size, size=size, p=p)`` as int64, as the package drew
    requests before its guide table: each block of uniforms sorted, the
    CDF searched at the sorted block, and the results put back in place."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, block):
        u = rng.random(min(block, size - lo))
        order = u.argsort()
        out[lo:lo + u.size][order] = cdf.searchsorted(u[order], "right")
    return out


def holder_sets_by_full_sorts(rng, n, counts):
    """``(idx, start)`` as the package drew holder sets before it re-sorted
    the keys in place: the keys ``content·n + node`` sorted in full in
    every round, each repeated key redrawn, the dense contents' left-out
    draws replaced by their complements."""
    counts = np.asarray(counts, dtype=np.int64)
    dense = 2 * counts > n
    drawn = np.where(dense, n - counts, counts)
    key = rng.integers(0, n, size=drawn.sum(), dtype=np.int64)
    key += np.repeat(np.arange(counts.size, dtype=np.int64) * n, drawn)
    while True:
        key.sort()
        dup = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not dup.size:
            break
        key[dup] += rng.integers(0, n, size=dup.size, dtype=np.int64) - key[dup] % n
    key %= n
    start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    sets, at = [], 0
    for m in range(counts.size):
        s = key[at:at + drawn[m]]
        at += drawn[m]
        if dense[m]:
            keep = np.ones(n, dtype=bool)
            keep[s] = False
            s = np.flatnonzero(keep)
        sets.append(s)
    return np.concatenate((np.zeros(0, dtype=np.int64), *sets)), start
