"""Monte-Carlo realizations of the caching network.

One trial places nodes (and base stations) uniformly on the unit
torus, draws holder sets per content according to an integer cache
allocation, lets every node request one content, routes each request
to its nearest holder along the grid cells crossed by the geodesic,
and measures per-cell line loads, hop counts, and the realized
throughput and delay of the slotted fluid model.

An instance stores each content's holder set once, in the CSR arrays
that the kernel reads (one index array, content-major, and one offset
per content), the node coordinates once, as one (2, n) array, the
station coordinates as one (2, b) array, and the node count per cell.
The kernel's reference, ``_kernels._ref``, lays out each content's holders
(``sort_buckets``): they stay ascending in a content of one bucket and
are sorted into buckets, in place, in a content searched ring by ring.
Requests are drawn by inverting the popularity CDF on sorted blocks of
uniforms, bit-identical to ``Generator.choice``.  Both keep their
transient arrays to a few blocks beyond what they return.

Routing and load accounting run in a kernel backend (compiled when
available, pure Python otherwise; bit-identical results), which holds
the only copy of the routing rules: ``measure`` calls its
``trace_batch``, and ``trace_request`` routes one request with the
reference's ``trace_one``.  The compiled backend splits a large batch
of requests into parts, one thread each on up to two of the CPUs the
process may use, and adds up their loads, which are integer counts, so
the results do not depend on the split.  Every hop
is charged to its transmitting cell, so the total cell load equals the
total hop count exactly on every trial — the bookkeeping identity the
tests pin.

The fluid model: each cell is active once per frame of N + 1 slots
(N the interfering-cell bound), the bottleneck cell divides its slot
among the lines crossing it, and a request's round trip costs twice
its hop count in active slots.  Hence

    realized_throughput = W / ((N + 1) * max_load)
    realized_delay      = 2 * (N + 1) * mean_hops.

If a cell is empty of nodes (condition 1) or the load concentrates
beyond the configured factor (condition 2), the trial falls back to a
plain time-division policy: throughput W/n, delay 2 (N + 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import _ref
from .config import NetworkConfig
from .errors import NoHolderError
from .geometry import CellGrid
from .popularity import PopularityModel
from .sched import TdmSchedule, build_schedule

__all__ = [
    "NetworkInstance",
    "Measurement",
    "FieldStats",
    "TrialStats",
    "build_instance",
    "draw_requests",
    "trace_request",
    "measure",
    "run_trials",
]


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """One realization of node/base-station positions and holder sets.

    The holder sets are stored once, in the kernel's CSR form: content
    m's holders are ``_h_idx[_h_start[m]:_h_start[m + 1]]``; a node may
    hold several contents.  The constructor takes that pair as
    ``holder_idx`` and ``holder_start``, each list strictly ascending, and
    :meth:`from_holders` builds it from per-content lists.  ``holders``
    gives the lists back, ascending and read-only.  Base stations hold
    every content and are indexed ``n + b`` where routing needs a single
    index space.  The node coordinates are stored once, as the rows
    ``_xs`` and ``_ys`` of one (2, n) array, and ``nodes`` is its (n, 2)
    transposed view; ``base_stations`` is likewise the (b, 2) view of one
    (2, b) array, so each of its columns is contiguous.  ``_occupancy``
    holds the node count per cell.

    Each content has a bucket grid of its own, of the side
    ``_kernels._ref.grid_sides`` gives its holder count, and
    ``_kernels._ref.sort_buckets`` sorts its holders by bucket, then node,
    in place; a content of one bucket keeps its node order.  ``_hc_cell[j]``
    is the flat bucket id ``row * side + col`` of node ``_h_idx[j]`` on its
    content's grid, and the kernel turns these ids into its bucket table
    (``_kernels._ref.bucket_table``).  The kernels read the holders only
    as ``_hc_idx``, through that table, with one search whether a content
    has one bucket or many; ``_hc_idx`` is the same object as ``_h_idx``,
    which the kernels' argument list still carries but neither reads.
    """

    nodes: np.ndarray  # (n, 2) float64 positions
    base_stations: np.ndarray  # (b, 2) float64 positions
    holder_idx: InitVar[np.ndarray]  # every content's holders, content-major
    holder_start: InitVar[np.ndarray]  # (M + 1,) offsets into holder_idx
    grid: CellGrid
    schedule: TdmSchedule

    _xs: np.ndarray = field(init=False, repr=False)
    _ys: np.ndarray = field(init=False, repr=False)
    _occupancy: np.ndarray = field(init=False, repr=False)
    _h_idx: np.ndarray = field(init=False, repr=False)
    _h_start: np.ndarray = field(init=False, repr=False)
    _hc_idx: np.ndarray = field(init=False, repr=False)
    _hc_cell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, holder_idx, holder_start) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 1:
            raise ValueError("nodes must be an (n, 2) array with n >= 1")
        bs = np.asarray(self.base_stations, dtype=np.float64).reshape(-1, 2)
        for name, pts in (("node", nodes), ("base-station", bs)):
            if pts.size and not (pts.min() >= 0.0 and pts.max() < 1.0):
                raise ValueError(f"{name} coordinates must lie in [0, 1)")
        n = nodes.shape[0]
        g = self.grid.side

        coords = np.ascontiguousarray(nodes.T)
        xs, ys = coords
        # Counted a block of nodes at a time, so the cell ids stay small.
        occupancy = np.zeros(g * g, dtype=np.int64)
        for lo in range(0, n, _ref.BLOCK):
            cell = _ref.grid_cells(*coords[:, lo:lo + _ref.BLOCK], g)
            occupancy += np.bincount(cell, minlength=g * g)
        occupancy.flags.writeable = False

        h_idx = np.asarray(holder_idx)
        h_start = np.asarray(holder_start)
        if h_idx.ndim != 1 or (h_idx.size and h_idx.dtype.kind not in "iu"):
            raise ValueError("holder_idx must be a 1-d integer array")
        int_start = h_start.ndim == 1 and h_start.dtype.kind in "iu"
        if not (int_start and h_start[:1].tolist() == [0]):
            raise ValueError("holder_start must be a 1-d integer array starting at 0")
        # A copy: the bucket order is written into it below.
        h_idx = h_idx.astype(np.int64)
        h_start = h_start.astype(np.int64, copy=False)
        sizes = np.diff(h_start)
        if sizes.size and sizes.min() < 0:
            raise ValueError("holder_start must not descend")
        if h_start[-1] != h_idx.size:
            raise ValueError(f"holder_start must end at len(holder_idx) = {h_idx.size}")

        # Each index lies in [0, n) and exceeds the one before, unless it opens a list.
        ok = np.ones(h_idx.size, dtype=bool)
        ok[1:] = h_idx[1:] > h_idx[:-1]
        ok[h_start[:-1][sizes > 0]] = True
        ok &= (h_idx >= 0) & (h_idx < n)
        if not ok.all():
            m = np.searchsorted(h_start, ok.argmin(), side="right") - 1
            raise ValueError(f"content {m}: holders must strictly ascend in [0, {n})")
        del ok, sizes
        hc_cell = _ref.sort_buckets(xs, ys, h_idx, h_start)

        object.__setattr__(self, "nodes", coords.T)
        object.__setattr__(self, "base_stations", np.ascontiguousarray(bs.T).T)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_occupancy", occupancy)
        object.__setattr__(self, "_h_idx", h_idx)
        object.__setattr__(self, "_h_start", h_start)
        object.__setattr__(self, "_hc_idx", h_idx)
        object.__setattr__(self, "_hc_cell", hc_cell)

    @classmethod
    def from_holders(
        cls,
        nodes: np.ndarray,
        base_stations: np.ndarray,
        holders,
        grid: CellGrid,
        schedule: TdmSchedule,
    ) -> NetworkInstance:
        """An instance from per-content holder lists.

        ``holders[m]`` lists the node indices caching content m: a 1-d
        integer sequence, strictly ascending in [0, n).  A bad list raises
        ``ValueError`` naming its content.
        """
        arrays = _holder_arrays(holders)
        start = np.cumsum([0, *map(len, arrays)], dtype=np.int64)
        idx = np.concatenate((np.zeros(0, dtype=np.int64), *arrays))
        return cls(nodes, base_stations, idx, start, grid, schedule)

    @cached_property
    def holders(self) -> tuple[np.ndarray, ...]:
        """Per-content holder lists, ascending, as read-only views of one array.

        ``_h_idx`` keeps a ring-searched content in bucket order, so the
        keys ``content·n + node`` are sorted once, as in
        :func:`_draw_holder_sets`, and taken mod n.
        """
        sizes = np.diff(self._h_start)
        key = np.repeat(np.arange(sizes.size, dtype=np.int64) * self.n, sizes)
        key += self._h_idx
        key.sort()
        key %= self.n
        key.flags.writeable = False
        bounds = self._h_start.tolist()
        return tuple(key[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def m_count(self) -> int:
        return self._h_start.size - 1

    def cell_occupancy(self) -> np.ndarray:
        """Node count per cell (length g², row-major), read-only."""
        return self._occupancy


def _holder_arrays(holders) -> tuple[np.ndarray, ...]:
    """Each holder list as an int64 array; raise naming the first bad list.

    A list must be 1-d and of integer dtype; an empty list may have any
    dtype (``np.asarray([])`` is float64).
    """
    arrays = []
    for m, h in enumerate(holders):
        try:
            arr = np.asarray(h)
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(
                f"content {m}: holders must be a 1-d list of integer node indices"
            )
        arrays.append(arr.astype(np.int64))
    return tuple(arrays)


@dataclass(frozen=True, eq=False)
class Measurement:
    """Per-trial measurement of the slotted fluid model.

    ``lines_per_cell[j]`` counts the transmitting-cell charges of all
    request lines in cell j; its sum equals ``hops_total`` exactly.
    ``request_hops[i]`` is the hop count of node i's request.
    """

    lines_per_cell: np.ndarray
    request_hops: np.ndarray
    hops_total: int
    max_load: float
    mean_load: float
    mean_hops: float
    realized_delay: float
    realized_throughput: float
    condition1_ok: bool
    condition2_ok: bool
    fallback_used: bool


def _draw_holder_sets(
    rng: np.random.Generator, n: int, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A uniform ``counts[m]``-subset of ``range(n)`` per content m, as CSR.

    Returns ``(idx, start)``: content m's set is ``idx[start[m]:start[m + 1]]``,
    sorted ascending.  Every (content, slot) pair gets a uniform node
    from one ``rng.integers`` call.  The keys ``content·n + node`` are
    sorted, and each slot whose key equals its predecessor's draws a new
    node, until no key repeats.  The rule never looks at node labels, so
    each set is a uniform subset and the contents are independent.  A
    content on more than half the nodes draws the nodes it leaves out and
    keeps the rest, so no content redraws more than half its slots in a
    round and the rounds fall off geometrically.  The sorted keys mod n
    are already content-major and ascending; only those left-out draws
    are replaced by their complements.
    """
    dense = 2 * counts > n
    drawn = np.where(dense, n - counts, counts)
    key = rng.integers(0, n, size=drawn.sum(), dtype=np.int64)
    key += np.repeat(np.arange(counts.size, dtype=np.int64) * n, drawn)
    while True:
        key.sort()
        dup = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not dup.size:
            break
        # Swap the node part of each repeated key for a fresh node.
        key[dup] += rng.integers(0, n, size=dup.size, dtype=np.int64) - key[dup] % n
    key %= n
    start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    ends = np.cumsum(drawn)
    pieces, prev = [], 0
    for m in np.flatnonzero(dense).tolist():
        lo, hi = ends[m] - drawn[m], ends[m]
        keep = np.ones(n, dtype=bool)
        keep[key[lo:hi]] = False
        pieces += (key[prev:lo], np.flatnonzero(keep))
        prev = hi
    if pieces:
        key = np.concatenate((*pieces, key[prev:]))
    return key, start


def build_instance(
    cfg: NetworkConfig, allocation, seed: int
) -> NetworkInstance:
    """Draw one network realization for an integer cache allocation.

    The RNG draw order is fixed: node positions, then base-station
    positions, then the holder sets of all contents in one vectorised
    draw: every (content, slot) pair gets a uniform node, and each slot
    that repeats a node of its content is redrawn until none does (a
    content on more than half the nodes draws the nodes it leaves out
    instead).  Each holder set is a uniform ``allocation[m]``-subset,
    independent across contents.  A seed replay is bit-identical, and a
    heterogeneous run with zero base stations consumes exactly the same
    stream as an ad hoc one.  The instance then sorts each content's
    holders into its buckets (see :class:`NetworkInstance`).
    """
    allocation = np.asarray(allocation, dtype=np.int64)
    if allocation.shape != (cfg.M,):
        raise ValueError(f"allocation shape {allocation.shape} != ({cfg.M},)")
    n = cfg.n
    if np.any(allocation < 0) or np.any(allocation > n):
        raise ValueError("holder counts must lie in [0, n]")

    rng = np.random.default_rng(seed)
    nodes = rng.random((n, 2))
    bs = rng.random((cfg.base_station_count, 2))
    h_idx, h_start = _draw_holder_sets(rng, n, allocation)
    grid = CellGrid.from_area(cfg.a)
    schedule = build_schedule(grid, cfg.delta)
    return NetworkInstance(
        nodes=nodes,
        base_stations=bs,
        holder_idx=h_idx,
        holder_start=h_start,
        grid=grid,
        schedule=schedule,
    )


def draw_requests(
    inst: NetworkInstance, pop: PopularityModel, seed: int
) -> np.ndarray:
    """One popularity-weighted content index per node, deterministic.

    The requests, as int64, are those of ``default_rng(seed).choice(M,
    size=n, p=pop.p)``, bit for bit: see :func:`_invert_sorted`.
    """
    if pop.m_count != inst.m_count:
        raise ValueError(
            f"popularity covers {pop.m_count} contents, instance has "
            f"{inst.m_count}"
        )
    return _invert_sorted(np.random.default_rng(seed), pop.p, inst.n)


# Requests are drawn in blocks of this many uniforms (see _invert_sorted).
_REQUEST_BLOCK = 1 << 14
# Generator.choice's tolerance on the sum of p.
_P_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


def _invert_sorted(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(p.size, size=size, p=p)`` as int64, by inversion on
    sorted uniforms (Devroye, *Non-Uniform Random Variate Generation*,
    §III.2), leaving ``rng`` in the same state.

    ``choice`` inverts the CDF ``cdf = p.cumsum(); cdf /= cdf[-1]`` at each
    uniform ``u`` of ``rng.random(size)``: the request is the number of
    entries of ``cdf`` at most ``u``, found by a binary search whose
    branches a random ``u`` makes unpredictable.  Here each block of
    ``_REQUEST_BLOCK`` uniforms of that stream is sorted, the same search
    runs on the sorted block, where consecutive searches take nearly the
    same path, and the results go back to their places.  The draw holds
    the output and ``cdf`` (n + M int64s) and four blocks; ``choice`` and
    the cast held 2n + M.  ``PopularityModel`` checks ``p`` at construction
    as ``choice`` does (1-d, non-empty, no NaN, none negative, sum near 1);
    the signs and the sum are checked again here, as ``choice`` checks them
    on every call, so a vector changed after construction is refused.
    """
    if (p < 0).any():
        raise ValueError("popularity weights must not be negative")
    cdf = p.cumsum()
    if not abs(cdf[-1] - 1.0) <= _P_SUM_TOL:
        raise ValueError(f"popularity vector sums to {cdf[-1]}, not 1")
    cdf /= cdf[-1]
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, _REQUEST_BLOCK):
        u = rng.random(min(_REQUEST_BLOCK, size - lo))
        order = u.argsort()
        out[lo:lo + u.size][order] = cdf.searchsorted(u[order], "right")
    return out


def _trace_args(inst: NetworkInstance, *request) -> tuple:
    """Kernel arguments; ``request`` is ``req`` or ``requester, m``.

    ``_h_idx`` keeps its slot, which the benchmark's copy of this tuple
    has, though the kernels search ``_hc_idx`` alone."""
    return (
        inst._xs, inst._ys, inst.grid.side, *request,
        inst._h_idx, inst._h_start, inst._hc_idx, inst._hc_cell,
        inst.base_stations[:, 0], inst.base_stations[:, 1],
    )


def trace_request(
    inst: NetworkInstance, requester: int, m: int
) -> tuple[int, list[tuple[int, int]]]:
    """Route one request by the rules of ``measure``.

    Returns (hop count, cells as (row, col) in traversal order).  The
    requester's own cache never serves as target; base stations are
    never excluded and lose distance ties to nodes.  A requester who is
    the sole holder serves itself locally (one hop, own cell).  Raises
    :class:`NoHolderError` when nobody holds the content at all.

    The pure-Python reference routes the request whichever backend is
    active: the compiled library traces whole batches only, and the two
    backends agree bit for bit.
    """
    n = inst.n
    if not 0 <= requester < n:
        raise ValueError(f"requester index {requester} outside [0, {n})")
    if not 0 <= m < inst.m_count:
        raise ValueError(f"content index {m} outside [0, {inst.m_count})")
    status, cells = _ref.trace_one(*_trace_args(inst, requester, m))
    if status == 2:
        raise NoHolderError(f"content {m}: no holder and no base station")
    g = inst.grid.side
    return max(1, len(cells) - 1), [(cid // g, cid % g) for cid in cells]


def measure(
    inst: NetworkInstance,
    requests,
    *,
    W: float = 1.0,
    concentration_factor: float = 4.0,
) -> Measurement:
    """Route one request per node and measure the fluid model.

    Never raises on routing: a request nobody can serve is charged one
    hop in its own cell, keeping the load/hop identity intact (the
    feasibility of the allocation is the caller's contract), and one
    ``RuntimeWarning`` gives the number of such requests.  Raises
    ``RuntimeError`` if the kernel's cell loads do not sum to its hops.
    """
    requests = np.asarray(requests, dtype=np.int64)
    if requests.shape != (inst.n,):
        raise ValueError(
            f"need one request per node: shape {requests.shape} != ({inst.n},)"
        )
    if requests.size and (requests.min() < 0 or requests.max() >= inst.m_count):
        raise ValueError("request content indices outside catalog")
    if not W > 0:
        raise ValueError(f"W must be positive, got {W}")
    if not concentration_factor > 0:
        raise ValueError(
            f"concentration factor must be positive, got {concentration_factor}"
        )

    hops, loads, status = _kernels.trace_batch(*_trace_args(inst, requests))
    if unroutable := int(np.count_nonzero(status == 2)):
        warnings.warn(
            f"{unroutable} requests had no holder and no base station; each "
            "was charged one hop in its own cell", RuntimeWarning, stacklevel=2,
        )
    hops_total = int(hops.sum())
    # Not an assert, which -O strips: a kernel fault must not pass silently.
    if (charged := int(loads.sum())) != hops_total:
        raise RuntimeError(
            f"kernel charged {charged} cell loads for {hops_total} hops"
        )
    n = inst.n
    mean_hops = hops_total / n
    max_load = float(loads.max())
    mean_load = hops_total / loads.size

    condition1_ok = bool(inst.cell_occupancy().min() >= 1)
    condition2_ok = bool(max_load <= concentration_factor * mean_load)
    fallback_used = not (condition1_ok and condition2_ok)

    frame = inst.schedule.bound + 1  # N + 1 slots
    if fallback_used:
        realized_throughput = W / n
        realized_delay = 2.0 * frame
    else:
        realized_throughput = W / (frame * max_load)
        realized_delay = 2.0 * frame * mean_hops

    return Measurement(
        lines_per_cell=loads,
        request_hops=hops,
        hops_total=hops_total,
        max_load=max_load,
        mean_load=mean_load,
        mean_hops=mean_hops,
        realized_delay=realized_delay,
        realized_throughput=realized_throughput,
        condition1_ok=condition1_ok,
        condition2_ok=condition2_ok,
        fallback_used=fallback_used,
    )


@dataclass(frozen=True)
class FieldStats:
    """Mean, standard error of the mean, and range across trials."""

    mean: float
    stderr: float
    min: float
    max: float


def _stats(values: list[float]) -> FieldStats:
    arr = np.asarray(values, dtype=np.float64)
    stderr = (
        float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    )
    return FieldStats(
        mean=float(arr.mean()),
        stderr=stderr,
        min=float(arr.min()),
        max=float(arr.max()),
    )


@dataclass(frozen=True, eq=False)
class TrialStats:
    """Aggregates over independent trials (order-insensitive merge)."""

    trials: int
    seeds: tuple[int, ...]
    max_load: FieldStats
    mean_load: FieldStats
    mean_hops: FieldStats
    realized_delay: FieldStats
    realized_throughput: FieldStats
    condition1_rate: float
    condition2_rate: float
    fallback_rate: float
    measurements: tuple[Measurement, ...]


def _trial_streams(trial_seed: int) -> tuple[int, int]:
    """Derive disjoint (instance, request) seeds from one trial seed."""
    inst_ss, req_ss = np.random.SeedSequence(trial_seed).spawn(2)
    return (
        int(inst_ss.generate_state(1, dtype=np.uint64)[0]),
        int(req_ss.generate_state(1, dtype=np.uint64)[0]),
    )


def run_trials(
    cfg: NetworkConfig,
    allocation,
    trials: int | None = None,
    seeds=None,
) -> TrialStats:
    """Measure independent realizations and aggregate their statistics.

    Trial t uses the per-trial seed ``seeds[t]`` (default: derived from
    ``cfg.seed``), split into one stream for the instance draw and one
    for the request draw.  Trials share nothing, so they can run in any
    order; the aggregation below is a commutative merge keyed by trial
    index.
    """
    if seeds is not None:
        seeds = [int(s) for s in seeds]
        if trials is not None and trials != len(seeds):
            raise ValueError(
                f"{len(seeds)} seeds given for {trials} trials"
            )
        trials = len(seeds)
    else:
        if trials is None:
            trials = cfg.trials
        state = np.random.SeedSequence(cfg.seed).generate_state(
            trials, dtype=np.uint64
        )
        seeds = [int(s) for s in state]
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")

    pop = cfg.popularity()
    results = []
    for s in seeds:
        inst_seed, req_seed = _trial_streams(s)
        inst = build_instance(cfg, allocation, inst_seed)
        reqs = draw_requests(inst, pop, req_seed)
        results.append(
            measure(
                inst,
                reqs,
                W=cfg.W,
                concentration_factor=cfg.concentration_factor,
            )
        )
        # Released before the next trial builds, so one instance is alive at a time.
        del inst, reqs

    return TrialStats(
        trials=trials,
        seeds=tuple(seeds),
        max_load=_stats([r.max_load for r in results]),
        mean_load=_stats([r.mean_load for r in results]),
        mean_hops=_stats([r.mean_hops for r in results]),
        realized_delay=_stats([r.realized_delay for r in results]),
        realized_throughput=_stats([r.realized_throughput for r in results]),
        condition1_rate=sum(r.condition1_ok for r in results) / trials,
        condition2_rate=sum(r.condition2_ok for r in results) / trials,
        fallback_rate=sum(r.fallback_used for r in results) / trials,
        measurements=tuple(results),
    )
