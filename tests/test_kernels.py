"""Backend parity: compiled and pure-Python kernels must agree bitwise.

Every test here compares the two implementations on identical inputs and
requires exact equality — not approximate — because the simulator's
reproducibility guarantee ("same seed, same numbers") must hold no matter
which backend the host machine ends up with.  The nearest-holder scan is
also checked against a brute-force oracle, on the pure-Python backend even
where no compiler can build the other one.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccnscale import _kernels, sim
from ccnscale._kernels import _ref
from ccnscale.config import Mode, NetworkConfig
from ccnscale.geometry import CellGrid
from ccnscale.sched import build_schedule

from oracles import nearest_by_scan


def _compiler_on_path() -> bool:
    cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
    return shutil.which(cc[0]) is not None


# Without a C compiler the compiled backend may be unavailable, and the
# tests that need it skip.  With one, a failure to load it is a test failure,
# never a silent skip of the parity suite.
try:
    from ccnscale._kernels import _fast
except ImportError as exc:
    if _compiler_on_path():
        raise ImportError(
            f"a C compiler is on PATH, yet the compiled kernel failed: {exc}"
        ) from exc
    _fast = None

needs_fast = pytest.mark.skipif(
    _fast is None, reason="no C compiler to build the compiled kernel"
)


def _random_positions(rng: np.random.Generator, n: int):
    pts = rng.random((n, 2))
    return pts[:, 0].copy(), pts[:, 1].copy()


# ---------------------------------------------------------------------------
# test instances and brute-force routes
# ---------------------------------------------------------------------------


def _instance(nodes, holders, g, stations=()):
    return sim.NetworkInstance.from_holders(
        nodes=nodes,
        base_stations=stations,
        holders=tuple(np.array(h, dtype=np.int64) for h in holders),
        grid=CellGrid(g),
        schedule=build_schedule(CellGrid(g), 1.0),
    )


def _scan_winner(inst, i, m):
    """The id that a brute-force scan of content m's holders and then the
    stations picks for node i's request, and its coordinates; ``(-1,
    None)`` when there is no candidate.  Ids order holders before
    stations, so the scan's lowest-index rule lets nodes win distance ties
    and the lowest station win among stations."""
    n, xs, ys = inst.n, inst._xs, inst._ys
    held = inst.holders[m]
    cx = np.concatenate([xs[held], inst.base_stations[:, 0]])
    cy = np.concatenate([ys[held], inst.base_stations[:, 1]])
    own = np.flatnonzero(held == i)
    k, _ = nearest_by_scan(xs[i], ys[i], cx, cy, int(own[0]) if own.size else -1)
    if k < 0:
        return -1, None
    return (int(held[k]) if k < len(held) else n + k - len(held)), (cx[k], cy[k])


def _walk(inst, i, m, end):
    """Node i's request for content m as ``(status, cells)`` when it goes
    to ``end``, the winner's coordinates: the walk of
    ``_ref.segment_cells``, or without a winner the requester's own cell."""
    px, py, g = inst._xs[i], inst._ys[i], inst.grid.side
    if end is None:
        own = _ref._cell_index(py, g) * g + _ref._cell_index(px, g)
        return (1 if i in inst.holders[m] else 2), [own]
    return 0, _ref.segment_cells(px, py, *end, g)


def _scan_winners(inst):
    """Yield ``(m, winners, walks)`` for each content m: the id that
    :func:`_scan_winner` picks for each node's request of m, and the
    requests' walks by node."""
    for m in range(len(inst.holders)):
        found = [_scan_winner(inst, i, m) for i in range(inst.n)]
        walks = {i: _walk(inst, i, m, end) for i, (_, end) in enumerate(found)}
        yield m, [win for win, _ in found], walks


def _assert_routes(backend, inst, req, walks):
    """Node i's request for content ``req[i]`` takes ``walks[i]``, a
    ``(status, cells)`` pair, for each node i in ``walks``.

    The reference returns each walk from ``trace_one``.  The compiled
    kernel's walks are not observable: its ``trace_batch`` gives each
    walked request the walk's status and hop count, charges the cells the
    walks charge when they cover every node, and agrees with the
    reference's ``trace_batch`` (:func:`_assert_trace_equal`).
    """
    if backend is _ref:
        for i, walk in walks.items():
            assert _ref.trace_one(*sim._trace_args(inst, i, req[i])) == walk, i
        return
    hops, loads, status = _fast.trace_batch(*sim._trace_args(inst, req))
    for i, (s, cells) in walks.items():
        assert (status[i], hops[i]) == (s, max(1, len(cells) - 1)), i
    if len(walks) == inst.n:
        want = np.zeros_like(loads)
        for _, cells in walks.values():
            np.add.at(want, cells[:-1] or cells, 1)
        np.testing.assert_array_equal(loads, want)
    _assert_trace_equal(inst, req)


def _assert_walks_to(backend, inst, i, m, end):
    """With every node requesting content m, ``backend`` routes node i's
    request to ``end``, or without one serves it in the requester's cell."""
    _assert_routes(backend, inst, np.full(inst.n, m), {i: _walk(inst, i, m, end)})


def _assert_routes_to_scan_winner(inst, i, m):
    end = _scan_winner(inst, i, m)[1]
    _assert_walks_to(_ref, inst, i, m, end)
    _assert_walks_to(_fast, inst, i, m, end)


# ---------------------------------------------------------------------------
# the walk: segment_cells through trace_one and trace_batch
# ---------------------------------------------------------------------------


def _assert_walks_along(backend, segments, g):
    """``backend`` walks each segment as ``_ref.segment_cells`` does, and
    returns those walks' cells: node 2k stands at the start of segment k,
    and node 2k + 1, at its end, is the one holder of content k, which both
    nodes request (node 2k + 1 serves itself)."""
    nodes = np.asarray(segments, dtype=np.float64).reshape(-1, 2)
    inst = _instance(nodes, [[2 * k + 1] for k in range(len(segments))], g)
    walks = {}
    for k, (x0, y0, x1, y1) in enumerate(segments):
        walks[2 * k] = (0, _ref.segment_cells(x0, y0, x1, y1, g))
        walks[2 * k + 1] = _walk(inst, 2 * k + 1, k, None)
    _assert_routes(backend, inst, np.arange(len(nodes)) // 2, walks)
    return [walks[2 * k][1] for k in range(len(segments))]


def _assert_both_walk_along(segments, g):
    for backend in (_ref, _fast):
        _assert_walks_along(backend, segments, g)


@needs_fast
class TestSegmentCellsParity:
    @pytest.mark.parametrize("g", [1, 2, 3, 8, 16, 64])
    def test_random_segments(self, g):
        rng = np.random.default_rng(1000 + g)
        segments = []
        for _ in range(400):
            x0, y0 = rng.random(), rng.random()
            x1 = (x0 + rng.uniform(-0.5, 0.5)) % 1.0
            y1 = (y0 + rng.uniform(-0.5, 0.5)) % 1.0
            segments.append((x0, y0, x1, y1))
        _assert_both_walk_along(segments, g)

    @pytest.mark.parametrize("g", [2, 5, 16])
    def test_lattice_aligned_segments(self, g):
        # Endpoints and directions sitting exactly on cell boundaries hit
        # the corner-crossing branch and the half-torus rule.
        cases = [
            (0.0, 0.0, 0.5, 0.5),
            (0.0, 0.0, 0.5, 0.0),
            (1.0 / g, 1.0 / g, -0.5, -0.5),
            (0.5, 0.5, 0.25, -0.25),
            (0.25, 0.75, 0.0, -0.5),
            (1.0 - 0.5 / g, 0.5 / g, 0.5, 0.5),
        ]
        _assert_both_walk_along(
            [(x0, y0, (x0 + dx) % 1.0, (y0 + dy) % 1.0) for x0, y0, dx, dy in cases],
            g,
        )

    def test_zero_displacement(self):
        _assert_both_walk_along([(0.3, 0.7, 0.3, 0.7)], 8)


@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_lattice_line_walk_is_symmetric(backend):
    # A holder on the line x = 6/7 of a 7x7 grid, one cell across the wrap:
    # the request takes 1 hop in either direction, over the same two cells.
    # Nodes 0 and 1 each request the content that only the other holds.
    inst = _instance(np.array([[0.0, 0.5], [6 / 7, 0.5]]), [[1], [0]], 7)
    walks = {0: (0, [21, 27]), 1: (0, [27, 21])}
    _assert_routes(backend, inst, np.array([0, 1]), walks)


def _walks_both_ways(backend, pairs, g):
    """For each pair of points (a, b), the cells of the walks a -> b and
    b -> a, which ``backend`` takes on one instance (see
    :func:`_assert_walks_along`)."""
    segments = [(*a, *b) for a, b in pairs] + [(*b, *a) for a, b in pairs]
    cells = _assert_walks_along(backend, segments, g)
    return cells[: len(pairs)], cells[len(pairs) :]


@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_corner_walk_is_symmetric(backend):
    # The segment passes the lattice corners (12/12, 7/12) and (2/12, 8/12)
    # of a 12x12 grid: diagonal steps in both directions, 4 hops each way.
    pair = ((10 / 12, 0.5), (2 / 12, 8 / 12))
    (forward,), (reverse,) = _walks_both_ways(backend, [pair], 12)
    assert forward == [82, 83, 84, 85, 98]
    assert reverse == forward[::-1]


@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_walks_between_lattice_points_are_symmetric(backend):
    # Every endpoint on a lattice corner i/g, so walks pass through corners
    # whenever the displacements share a factor.  A displacement of exactly
    # half the torus on an axis is left out: the half-torus rule sends the
    # walk and its reverse the same way round, along different geodesics.
    rng = np.random.default_rng(12)
    for g in range(1, 41):
        pairs = []
        while len(pairs) < 40:
            i0, j0, i1, j1 = (int(v) for v in rng.integers(0, g, 4))
            if 2 * ((i1 - i0) % g) == g or 2 * ((j1 - j0) % g) == g:
                continue
            pairs.append(((i0 / g, j0 / g), (i1 / g, j1 / g)))
        forward, reverse = _walks_both_ways(backend, pairs, g)
        for (a, b), f, r in zip(pairs, forward, reverse):
            assert f == r[::-1], (g, a, b)


# ---------------------------------------------------------------------------
# the holder search: linear scan and ring search
# ---------------------------------------------------------------------------


def _query_instance(rng, n, sizes, g):
    """n random nodes, then one query node per content; content t has
    ``sizes[t]`` random holders among the first n nodes."""
    nodes = rng.random((n + len(sizes), 2))
    holders = [np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]
    return _instance(nodes, holders, g)


@needs_fast
class TestNearestParity:
    @pytest.mark.parametrize("g", [1, 2, 8, 32])
    def test_linear_random(self, g):
        # 1-60 holders, scanned linearly; every third request comes from a
        # holder, which the scan skips (alone, it serves itself).
        rng = np.random.default_rng(2000 + g)
        n = 200
        inst = _query_instance(rng, n, rng.integers(1, 61, size=50), g)
        for m, held in enumerate(inst.holders):
            assert len(held) <= _ref.RING_MIN_HOLDERS
            requester = int(held[0]) if m % 3 == 0 else n + m
            _assert_routes_to_scan_winner(inst, requester, m)

    def test_linear_accepts_range_candidates(self):
        # The binding takes any integer sequence, here the holders as a range
        # in the slot the kernels search.
        rng = np.random.default_rng(3)
        inst = _instance(rng.random((11, 2)), [range(1, 11)], 4)
        req = np.zeros(11, dtype=np.int64)
        args = list(sim._trace_args(inst, req))
        args[6] = range(1, 11)  # hc_idx
        got = _fast.trace_batch(*args)
        want = _ref.trace_batch(*sim._trace_args(inst, req))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        _assert_routes_to_scan_winner(inst, 0, 0)

    def test_linear_empty_candidates(self):
        # Nobody holds content 0; node 1 alone holds content 1.  Node 1's
        # cell on the 4x4 grid is 2 * 4 + 2.
        inst = _instance(np.array([[0.1, 0.2], [0.5, 0.5]]), [[], [1]], 4)
        for m, status in ((0, 2), (1, 1)):
            for backend in (_ref, _fast):
                _assert_routes(backend, inst, np.full(2, m), {1: (status, [10])})

    @pytest.mark.parametrize("order", [[1, 0], [0, 1]])
    def test_linear_tie_breaks_to_lowest_index(self, order):
        # Nodes order[0] and order[1] mirror-placed around the requester,
        # node 2: identical distance, so node 0 must win.
        xs = np.full(3, 0.5)
        xs[order] = [0.25, 0.75]
        inst = _instance(np.column_stack([xs, np.full(3, 0.5)]), [[0, 1]], 8)
        for backend in (_ref, _fast):
            _assert_walks_to(backend, inst, 2, 0, (xs[0], 0.5))

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 16, 64])
    def test_ring_matches_linear_and_backends_agree(self, g):
        # 65-200 holders, searched ring by ring; every fourth request comes
        # from a holder.
        rng = np.random.default_rng(4000 + g)
        n = 500
        inst = _query_instance(rng, n, rng.integers(65, 201, size=25), g)
        for m, held in enumerate(inst.holders):
            assert len(held) > _ref.RING_MIN_HOLDERS
            requester = int(held[0]) if m % 4 == 0 else n + m
            _assert_routes_to_scan_winner(inst, requester, m)


class TestNearestOracle:
    def test_linear_matches_scan_oracle(self):
        # Not marked needs_fast: the reference runs even without a compiler.
        rng = np.random.default_rng(31)
        xs, ys = _random_positions(rng, 1000)
        xl, yl = xs.tolist(), ys.tolist()
        for trial in range(200):
            px, py = rng.random(), rng.random()
            exclude = int(rng.integers(1000)) if trial % 2 else -1
            got = _ref.nearest_linear(px, py, xl, yl, range(1000), exclude)
            i, d = nearest_by_scan(px, py, xs, ys, exclude)
            assert got[0] == i
            assert math.sqrt(got[1]) == pytest.approx(d, abs=1e-12)


# ---------------------------------------------------------------------------
# trace_batch on full network instances
# ---------------------------------------------------------------------------


def _assert_trace_equal(inst, req):
    hf, lf, sf = _fast.trace_batch(*sim._trace_args(inst, req))
    hr, lr, sr = _ref.trace_batch(*sim._trace_args(inst, req))
    np.testing.assert_array_equal(hf, hr)
    np.testing.assert_array_equal(lf, lr)
    np.testing.assert_array_equal(sf, sr)


def _assert_trace_one_agrees(req, **args):
    """``_ref.trace_one`` routes each request of ``req`` with the status and
    hop count that ``trace_batch`` gives it."""
    hops, _, status = _ref.trace_batch(req=req, **args)
    for i, m in enumerate(req):
        s, cells = _ref.trace_one(requester=i, m=m, **args)
        assert (s, max(1, len(cells) - 1)) == (status[i], hops[i])


@needs_fast
class TestTraceBatchParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_small_grids(self, seed):
        # Instances assembled directly so grid sizes g in {1, 2, 3} and
        # degenerate holder layouts are all exercised.  Seeds 6-11 place
        # 56-71 stations, across RING_MIN_HOLDERS, so both station searches
        # run.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 120))
        g = int(rng.integers(1, 4))
        m_count = int(rng.integers(1, 6))
        nodes = rng.random((n, 2))
        if seed < 6:
            nbs = int(rng.integers(0, 3))
        else:
            nbs = _ref.RING_MIN_HOLDERS - 8 + 3 * (seed - 6)
        bs = rng.random((nbs, 2))
        holders = []
        for _ in range(m_count):
            k = int(rng.integers(0, n + 1))
            holders.append(
                np.sort(rng.choice(n, size=k, replace=False).astype(np.int64))
            )
        inst = sim.NetworkInstance.from_holders(
            nodes=nodes,
            base_stations=bs,
            holders=tuple(holders),
            grid=CellGrid(g),
            schedule=build_schedule(CellGrid(g), 1.0),
        )
        req = rng.integers(0, m_count, size=n).astype(np.int64)
        # Keep requests pointing at non-empty holder sets unless a base
        # station exists to absorb them.
        if nbs == 0:
            nonempty = [m for m, h in enumerate(holders) if len(h)]
            if not nonempty:
                pytest.skip("all holder sets empty and no base stations")
            lookup = np.array(
                [m if len(holders[m]) else nonempty[0] for m in range(m_count)]
            )
            req = lookup[req]
        _assert_trace_equal(inst, req)

    @pytest.mark.parametrize(
        "n,alpha,mode_kw",
        [
            (2000, 0.8, {}),
            (2000, 1.2, {}),
            (6000, 0.8, {}),  # crosses RING_MIN_HOLDERS for hot contents
            (4000, 0.8, {"mode": Mode.HETEROGENEOUS, "mu": 0.3}),
            (3000, 1.2, {"mode": Mode.HETEROGENEOUS, "f": 5.0}),
            (10_000, 0.8, {}),
            # 86 stations: the station ring search
            (20_000, 0.8, {"mode": Mode.HETEROGENEOUS, "mu": 0.45}),
        ],
    )
    def test_configured_instances(self, n, alpha, mode_kw):
        from ccnscale.alloc import round_to_integers, solve

        cfg = NetworkConfig(n=n, alpha=alpha, beta=0.9, seed=17, **mode_kw)
        prob = cfg.problem()
        allocation = round_to_integers(solve(prob), prob)
        inst = sim.build_instance(cfg, allocation, seed=99)
        req = sim.draw_requests(inst, cfg.popularity(), seed=101)
        counts = np.diff(inst._h_start)
        if n >= 6000:
            assert counts.max() > _ref.RING_MIN_HOLDERS  # ring path exercised
        if mode_kw.get("mu", 0.0) >= 0.45:  # station ring search exercised
            assert len(inst.base_stations) > _ref.RING_MIN_HOLDERS
        assert counts.min() >= 0
        _assert_trace_equal(inst, req)

    def test_strided_views_accepted(self):
        # The columns of a row-major (b, 2) array are strided views; the
        # compiled backend must copy them rather than reinterpret the buffer.
        cfg = NetworkConfig(
            n=500, alpha=0.8, beta=0.8, mode=Mode.HETEROGENEOUS, f=9.0, seed=5
        )
        allocation = np.zeros(cfg.M, dtype=np.int64)  # BS-only service
        inst = sim.build_instance(cfg, allocation, seed=6)
        req = sim.draw_requests(inst, cfg.popularity(), seed=7)
        bs = np.ascontiguousarray(inst.base_stations)
        assert not bs[:, 0].flags.c_contiguous
        args = (*sim._trace_args(inst, req)[:-2], bs[:, 0], bs[:, 1])
        hf, lf, sf = _fast.trace_batch(*args)
        hr, lr, sr = _ref.trace_batch(*args)
        np.testing.assert_array_equal(hf, hr)
        np.testing.assert_array_equal(lf, lr)
        np.testing.assert_array_equal(sf, sr)
        assert set(np.unique(sf)) <= {0}  # every request reached a station

    def test_nodes_win_distance_ties_against_base_stations(self):
        # Node 0 at the centre of a 8x8 grid has its holder (node 1) two
        # cells to the left and a base station two cells to the right, at
        # exactly the same distance; node 1 holds only its own request and
        # goes to the station.  The node must win the tie, which charges
        # cell (4, 3) twice instead of cell (4, 5).
        args = dict(
            xs=np.array([0.5, 0.25]),
            ys=np.array([0.5, 0.5]),
            g=8,
            req=np.array([0, 0]),
            h_idx=np.array([1]),
            h_start=np.array([0, 1]),
            hc_idx=np.array([1]),
            hc_cell=np.array([0]),  # the one bucket of the content's grid
            bs_x=np.array([0.75]),
            bs_y=np.array([0.5]),
        )
        for backend in (_fast, _ref):
            hops, loads, status = backend.trace_batch(**args)
            assert list(hops) == [2, 4]
            assert loads[4 * 8 + 3] == 2 and loads[4 * 8 + 5] == 1
            assert list(status) == [0, 0]
        _assert_trace_one_agrees(**args)

    @pytest.mark.parametrize(
        "xs,g,hops",
        [
            # The holder sits on a lattice line across the wrap: one hop
            # each way, since each walk counts its steps from the end cells.
            ([0.0, 6 / 7], 7, [1, 1]),
            # The holder is exactly half a torus away: the displacement is +0.5.
            ([0.75, 0.25], 8, [4, 4]),
        ],
    )
    def test_lattice_boundary_rules(self, xs, g, hops):
        # Nodes 0 and 1 each request the content that only the other holds,
        # in the one bucket (0) of the content's own grid.
        xs = np.array(xs)
        args = dict(
            xs=xs, ys=np.full(2, 0.5), g=g, req=np.array([0, 1]),
            h_idx=np.array([1, 0]), h_start=np.array([0, 1, 2]),
            hc_idx=np.array([1, 0]), hc_cell=np.array([0, 0]),
            bs_x=np.array([]), bs_y=np.array([]),
        )
        got = _fast.trace_batch(**args)
        want = _ref.trace_batch(**args)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert list(want[0]) == hops
        _assert_trace_one_agrees(**args)

    def test_measurement_identity_holds_on_compiled_backend(self):
        cfg = NetworkConfig(n=1500, alpha=1.2, beta=0.9, seed=23)
        from ccnscale.alloc import round_to_integers, solve

        prob = cfg.problem()
        allocation = round_to_integers(solve(prob), prob)
        inst = sim.build_instance(cfg, allocation, seed=31)
        req = sim.draw_requests(inst, cfg.popularity(), seed=37)
        hops, loads, status = _fast.trace_batch(*sim._trace_args(inst, req))
        assert int(hops.sum()) == int(loads.sum())
        assert set(np.unique(status)) <= {0, 1, 2}


# ---------------------------------------------------------------------------
# base stations searched ring by ring
# ---------------------------------------------------------------------------


def _station_cases() -> dict:
    """Hand-built (nodes, holders, stations), each with more than
    RING_MIN_HOLDERS stations.  Coordinates are multiples of 1/128, so
    the distance ties below are exact."""
    rng = np.random.default_rng(77)

    def dyadic(k, lo, hi):
        return np.floor(rng.uniform(lo, hi, size=(k, 2)) * 128) / 128

    lattice = np.arange(16) / 16
    corners = np.array([(x, y) for y in lattice for x in lattice])
    wrap = np.array([(63 / 64, k / 128) for k in range(70)] + [(1 / 64, 0.25)])
    far = np.array([(0.5, k / 128) for k in range(1, 70)])
    return {
        # 256 stations, each on a corner of the 16x16 station grid; a node
        # at a cell centre is equidistant from four stations.
        "corner": (
            np.vstack([corners[[17, 90, 255]] + 1 / 32, dyadic(30, 0, 1)]),
            [[], [3, 7, 11, 20]],
            corners,
        ),
        # Stations on x = 63/64 serve nodes on x = 0 across the wrap; the
        # last station ties at (0, 0.25) with station 32 across the wrap.
        "wrap": (
            np.vstack([[(0.0, 0.25), (1 / 128, 0.5)], dyadic(20, 0, 1 / 32)]),
            [[], [1, 5]],
            wrap,
        ),
        # Station 0 ties with node 1 for the requests of nodes 0 and 2 for
        # content 0; the node must win.  The other stations lie on x = 0.5.
        "node-tie": (
            np.vstack(
                [[(0.25, 0.5), (0.25 - 3 / 64, 0.5), (0.25, 0.5 + 1 / 64)],
                 dyadic(20, 0, 1)]
            ),
            [[1], [], [4, 9]],
            np.vstack([[(0.25 + 3 / 64, 0.5)], far]),
        ),
        # 65 stations in one far corner, the nodes around (0.4, 0.4): the
        # search runs out to rings that wrap onto themselves.
        "far-cluster": (
            dyadic(25, 0.35, 0.45),
            [[], [2]],
            dyadic(65, 56 / 64, 60 / 64),
        ),
    }


_STATION_CASES = _station_cases()


@pytest.mark.parametrize("g", [1, 2, 3, 8])
@pytest.mark.parametrize("case", sorted(_STATION_CASES))
@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_station_ring_search_finds_the_scan_winner(backend, case, g):
    # Every request is won by the candidate that a brute-force scan picks:
    # the reference's station ring search, seeded with the node winner,
    # finds it, and each backend walks there.
    nodes, holders, stations = _STATION_CASES[case]
    assert len(stations) > _ref.RING_MIN_HOLDERS
    inst = _instance(nodes, holders, g, stations)
    n, xs, ys = inst.n, inst._xs, inst._ys
    bs_x, bs_y = stations[:, 0], stations[:, 1]
    side, bs_idx, bs_tab = _ref.station_layout(bs_x, bs_y)
    for m, winners, walks in _scan_winners(inst):
        for i, want in enumerate(winners if backend is _ref else ()):
            px, py = xs[i], ys[i]
            node = _ref.nearest_linear(px, py, xs, ys, inst.holders[m], i)
            got = _ref.nearest(
                px, py, bs_x, bs_y, bs_idx, bs_tab, 0, side, -1,
                node[0], node[1], n,
            )
            assert got[0] == want, (m, i)
        _assert_routes(backend, inst, np.full(n, m), walks)
    if backend is _fast:
        _assert_trace_equal(inst, np.arange(n) % len(holders))


@needs_fast
@pytest.mark.parametrize("nbs", [64, 65])
@pytest.mark.parametrize("k", [64, 65])
def test_trace_on_both_sides_of_ring_min_holders(k, nbs):
    # k holders of content 0 and nbs stations: RING_MIN_HOLDERS members
    # are scanned linearly, one more are searched ring by ring.  Content 1
    # has two holders, so stations win most of its requests.  Coordinates
    # are multiples of 1/32, so distance ties are exact and frequent.
    assert _ref.RING_MIN_HOLDERS == 64
    rng = np.random.default_rng(100 * k + nbs)
    n = 200
    nodes = rng.integers(0, 32, size=(n, 2)) / 32
    stations = rng.integers(0, 32, size=(nbs, 2)) / 32
    holders = [np.sort(rng.choice(n, size=k, replace=False)), [3, 150]]
    inst = _instance(nodes, holders, 6, stations)
    for m, _, walks in _scan_winners(inst):
        for backend in (_ref, _fast):
            _assert_routes(backend, inst, np.full(n, m), walks)
    _assert_trace_equal(inst, np.arange(n) % 2)


@pytest.mark.parametrize("nbs", [*range(201), 251])
def test_station_layout_sorts_by_cell_then_index(nbs):
    # Coordinates on the cell edges k/side, at 0 and just below the wrap
    # at 1, and at random; repeats put several stations in one cell.  Up to
    # RING_MIN_HOLDERS stations are scanned and share one bucket; more get
    # a grid of side floor(sqrt(b)).
    rng = np.random.default_rng(nbs)
    side = math.isqrt(nbs) if nbs > _ref.RING_MIN_HOLDERS else 1
    edges = np.arange(max(math.isqrt(nbs), 1)) / max(math.isqrt(nbs), 1)
    pool = np.concatenate([edges, [0.0, np.nextafter(1.0, 0.0)], rng.random(8)])
    bs = rng.choice(pool, size=(nbs, 2))
    cells = [
        _ref._cell_index(y, side) * side + _ref._cell_index(x, side)
        for x, y in bs.tolist()
    ]
    want = sorted(range(nbs), key=lambda b: (cells[b], b))
    got_side, idx, tab = _ref.station_layout(bs[:, 0], bs[:, 1])
    assert got_side == side
    assert idx.dtype == tab.dtype == np.int64
    assert idx.tolist() == want
    # Bucket c is the slice idx[tab[c]:tab[c + 1]].
    assert len(tab) == side * side + 1
    for c in range(side * side):
        assert [cells[b] for b in idx[tab[c]:tab[c + 1]]] == [c] * (tab[c + 1] - tab[c])
    assert tab[0] == 0 and tab[-1] == nbs


@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_seeded_linear_scan_matches_ring_search(backend):
    # The station search, seeded with the node winner and with station b
    # competing as n + b, returns the lexicographic minimum of (d2, id)
    # over the holders and the stations, whether it scans 64 or fewer
    # stations in their layout order or searches more ring by ring; with
    # no holder (content 1) it starts unseeded.  Lattice coordinates make
    # ties, between nodes and stations too.
    rng = np.random.default_rng(5)
    n, g = 300, 8
    nodes = rng.integers(0, 64, size=(n, 2)) / 64
    sides = set()
    for trial in range(80):
        members = np.sort(rng.choice(n, size=int(rng.integers(1, 120)), replace=False))
        stations = rng.integers(0, 64, size=(int(rng.integers(1, 128)), 2)) / 64
        sides.add(len(stations) > _ref.RING_MIN_HOLDERS)
        inst = _instance(nodes, [members, []], g, stations)
        i = int(members[0]) if trial % 3 == 0 else int(rng.integers(n))
        px, py = nodes[i]
        by_station = [
            (_ref._dist2(px, py, x, y), n + b)
            for b, (x, y) in enumerate(stations.tolist())
        ]
        by_holder = [
            (_ref._dist2(px, py, *nodes[c]), int(c)) for c in members if c != i
        ]
        for m, candidates in ((0, by_holder + by_station), (1, by_station)):
            win = min(candidates)[1]
            end = nodes[win] if win < n else stations[win - n]
            _assert_walks_to(backend, inst, i, m, end)
    assert sides == {False, True}


# ---------------------------------------------------------------------------
# holders searched ring by ring on per-content bucket grids
# ---------------------------------------------------------------------------


def _holder_cases() -> dict:
    """Hand-built (nodes, holders), each with a content of more than
    RING_MIN_HOLDERS holders, which is searched on a bucket grid of its
    own, of side floor(sqrt(k)) for k holders.  Coordinates are multiples
    of 1/128, so the distance ties below are exact."""
    rng = np.random.default_rng(78)

    def dyadic(k, lo, hi):
        return np.floor(rng.uniform(lo, hi, size=(k, 2)) * 128) / 128

    lattice = np.arange(16) / 16
    corners = np.array([(x, y) for y in lattice for x in lattice])
    even = [16 * r + c for r in range(0, 16, 2) for c in range(0, 16, 2)]
    wrap = np.array([(63 / 64, k / 128) for k in range(70)] + [(1 / 64, 0.25)])
    far = np.array([(0.5, k / 128) for k in range(1, 80)])
    return {
        # Content 0 holds the 64 bucket corners of its 8x8 grid and node
        # 256, content 1 all 256 corners of its 16x16 grid: a node at a
        # bucket centre, such as node 17 for content 0, is equidistant
        # from four holders.
        "corner": (
            np.vstack([corners, corners[[17, 90, 255]] + 1 / 32, dyadic(30, 0, 1)]),
            [even + [256], range(256), [3, 7, 11, 20]],
        ),
        # Content 0's holders on x = 63/64 serve nodes on x = 0 across the
        # wrap; its last holder (node 72) ties at (0, 0.25) with node 34
        # across the wrap.
        "wrap": (
            np.vstack([[(0.0, 0.25), (1 / 128, 0.5)], wrap, dyadic(20, 0, 1 / 32)]),
            [range(2, 73), [1, 5]],
        ),
        # Node 0 has four holders of content 0 at distance 3/64, one on
        # each side; the other 79 holders lie on x = 0.5.
        "tie": (
            np.vstack(
                [[(0.25, 0.5), (0.25 - 3 / 64, 0.5), (0.25 + 3 / 64, 0.5),
                  (0.25, 0.5 - 3 / 64), (0.25, 0.5 + 3 / 64)],
                 far, dyadic(20, 0, 1)]
            ),
            [range(1, 84), [2, 9]],
        ),
        # 65 holders in one far corner of their 8x8 grid, the other nodes
        # around (0.4, 0.4): the search runs out to rings that wrap onto
        # themselves.
        "far-cluster": (
            np.vstack([dyadic(65, 56 / 64, 60 / 64), dyadic(25, 0.35, 0.45)]),
            [range(65), [70]],
        ),
        # 300 holders on a 17x17 grid, finer than every node grid below.
        "dense": (dyadic(320, 0, 1), [range(10, 310), [0, 1]]),
    }


_HOLDER_CASES = _holder_cases()


@pytest.mark.parametrize("g", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("case", sorted(_HOLDER_CASES))
@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_holder_ring_search_finds_the_scan_winner(backend, case, g):
    # Every request is won by the holder that a brute-force scan picks:
    # the reference's ring search over the content's own buckets finds it,
    # and each backend walks there on the node grid of side g.
    nodes, holders = _HOLDER_CASES[case]
    inst = _instance(nodes, holders, g)
    xs, ys = inst._xs, inst._ys
    side, base, tab = _ref.bucket_table(inst._h_start, inst._hc_cell)
    big = [
        m for m, held in enumerate(inst.holders) if len(held) > _ref.RING_MIN_HOLDERS
    ]
    assert big and all(side[m] == math.isqrt(len(inst.holders[m])) for m in big)
    for m, winners, walks in _scan_winners(inst):
        for i, want in enumerate(winners if backend is _ref and m in big else ()):
            got = _ref.nearest(
                xs[i], ys[i], xs, ys, inst._hc_idx, tab, base[m], side[m], i
            )
            assert got[0] == want, (m, i)
        _assert_routes(backend, inst, np.full(inst.n, m), walks)
    if backend is _fast:
        _assert_trace_equal(inst, np.arange(inst.n) % len(holders))


@pytest.mark.parametrize("k,side", [(64, 1), (65, 8), (80, 8), (81, 9), (82, 9)])
@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_holder_grid_side_breakpoints(backend, k, side):
    # k holders of content 0: RING_MIN_HOLDERS are scanned in one bucket,
    # more get a grid of side floor(sqrt(k)), which steps at 81.  Content 1
    # has two holders.  Coordinates are multiples of 1/32, so distance
    # ties are exact and frequent.
    rng = np.random.default_rng(k)
    n = 200
    nodes = rng.integers(0, 32, size=(n, 2)) / 32
    holders = [np.sort(rng.choice(n, size=k, replace=False)), [3, 150]]
    inst = _instance(nodes, holders, 6)
    assert _ref.bucket_table(inst._h_start, inst._hc_cell)[0].tolist() == [side, 1]
    for m, _, walks in _scan_winners(inst):
        _assert_routes(backend, inst, np.full(n, m), walks)
    if backend is _fast:
        _assert_trace_equal(inst, np.arange(n) % 2)


class _ReadLog(list):
    """A bucket table that logs the positions the search reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)


def _count_slices(monkeypatch, tab):
    """Log each slice that ``_ref.nearest`` scans through ``nearest_linear``
    as the buckets it covers: the search reads its bounds ``tab[first]``
    and ``tab[last + 1]`` just before the call, so it covers ``last + 1 -
    first`` buckets.  Returns the list the counts go to."""
    covered = []
    nearest_linear = _ref.nearest_linear

    def scan(*args):
        first, end = tab.reads[-2:]
        covered.append(end - first)
        return nearest_linear(*args)

    monkeypatch.setattr(_ref, "nearest_linear", scan)
    return covered


@pytest.mark.parametrize("g", [1, 2, 3, 8, 10])
def test_ring_search_ends_at_ring_half_the_side(monkeypatch, g):
    # Five members share bucket 0, and the query sits in bucket
    # (g // 2, g // 2), across the torus, so the winner lies in ring g // 2.
    # That ring reaches every bucket: the search's slices cover the
    # (2 * (g // 2) + 1)**2 buckets of rings 0 to g // 2, and none beyond.
    rng = np.random.default_rng(g)
    xs, ys = ((0.5 + rng.uniform(-0.4, 0.4, size=(2, 5))) / g).tolist()
    tab = _ReadLog([0] + [5] * (g * g))
    covered = _count_slices(monkeypatch, tab)
    q = (g // 2 + 0.5) / g
    got = _ref.nearest(q, q, xs, ys, list(range(5)), tab, 0, g, -1)
    assert sum(covered) == (2 * (g // 2) + 1) ** 2
    d2, k = min((_ref._dist2(q, q, x, y), k) for k, (x, y) in enumerate(zip(xs, ys)))
    assert got == (k, d2, False)


def _grid_layout(xs, ys, g):
    """``(idx, tab)``: the points sorted stably by bucket on a grid of side
    g, and the CSR table of their buckets, as ``_ref.nearest`` reads them."""
    cell = _ref.grid_cells(xs, ys, g)
    idx = np.argsort(cell, kind="stable")
    return idx.tolist(), np.searchsorted(cell[idx], np.arange(g * g + 1)).tolist()


@pytest.mark.parametrize("g", [2, 3, 8, 9])
def test_ring_search_prunes_ring_one_by_the_bucket_edges(monkeypatch, g):
    # Member 0 sits near the centre of the query's bucket, nearer than all
    # four of its edges, and wins in ring 0: ring 1 drops all four sides
    # and ring 2 lies beyond, so the search scans one slice, ring 0.  Each
    # ring-1 neighbour holds a member just past the shared edge, too far
    # to win.  A query near its bucket's top edge keeps that side, and the
    # search scans more.  Buckets in the first and last rows and columns
    # have neighbours across the torus seam.
    s = 1 / g
    for row, col in ((0, 0), (g - 1, g - 1), (g // 2, 0), (0, g - 1)):
        centre = ((col + 0.5) * s, (row + 0.5) * s)
        pts = [(centre[0] + 0.05 * s, centre[1] - 0.05 * s)]
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            pts.append((((col + dc) % g + 0.5 - 0.45 * dc) * s,
                        ((row + dr) % g + 0.5 - 0.45 * dr) * s))
        xs, ys = np.array(pts).T
        idx, tab = _grid_layout(xs, ys, g)
        for query, pruned in ((centre, True), ((centre[0], (row + 0.98) * s), False)):
            log = _ReadLog(tab)
            covered = _count_slices(monkeypatch, log)
            got = _ref.nearest(*query, xs.tolist(), ys.tolist(), idx, log, 0, g, -1)
            monkeypatch.undo()
            assert got[0] == nearest_by_scan(*query, xs, ys)[0]
            if pruned:
                assert got[0] == 0 and covered == [1], (row, col)
            else:
                assert sum(covered) > 1, (row, col)


def _line_pool(side, rng):
    """Coordinates on and next to the bucket lines k / side of a grid of
    side ``side``, at the torus seam (0 and just below 1), on the bucket
    centres, and at random."""
    lines = np.arange(side) / side
    return np.concatenate([
        lines, np.nextafter(lines[1:], 0.0), np.nextafter(lines, 1.0),
        (np.arange(side) + 0.5) / side, [0.0, np.nextafter(1.0, 0.0)],
        rng.random(8),
    ])


def _exact_scan(px, py, xs, ys, exclude=-1, seed=(-1, math.inf)):
    """``(id, d2)``: the lexicographic minimum of (d2, id) over the points
    other than ``exclude`` and the seed ``(id, d2)``, in the kernels' own
    arithmetic (``_ref._dist2``), which a linear scan returns."""
    best = min(
        [(_ref._dist2(px, py, x, y), k) for k, (x, y) in enumerate(zip(xs, ys))
         if k != exclude] + [seed[::-1]]
    )
    return best[1], best[0]


@pytest.mark.parametrize("g", [2, 3, 8, 9])
def test_pruned_search_on_bucket_lines_matches_a_linear_scan(g):
    # Members and queries on and next to the bucket lines, in the first and
    # last rows and columns: the search, unseeded or seeded with the
    # winner's own distance under a higher id (so a ring-1 member that ties
    # it must still win), returns the linear scan's (id, d2).  Members on
    # the 1/16 lattice, on bucket lines at sides 2 and 8, have exact
    # distances, and there the scan oracle picks the same winner.
    rng = np.random.default_rng(900 + g)
    pool = _line_pool(g, rng)
    edge = [0.0, 1 / g, (g - 1) / g, np.nextafter(1.0, 0.0), np.nextafter(1 / g, 0.0)]
    queries = [(x, y) for x in edge + list(pool[:6]) for y in edge + list(pool[-6:])]
    lattice = rng.integers(0, 16, size=(70, 2)) / 16
    for pts, exact in ((rng.choice(pool, size=(70, 2)), False), (lattice, True)):
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        idx, tab = _grid_layout(pts[:, 0], pts[:, 1], g)
        for k, (px, py) in enumerate(queries):
            exclude = k % len(xs) if k % 3 == 0 else -1
            want = _exact_scan(px, py, xs, ys, exclude)
            got = _ref.nearest(px, py, xs, ys, idx, tab, 0, g, exclude)
            assert got[:2] == want, (px, py)
            seed = (len(xs), want[1])
            got = _ref.nearest(px, py, xs, ys, idx, tab, 0, g, exclude, *seed)
            assert got[:2] == want, (px, py)
            if exact:
                assert want[0] == nearest_by_scan(px, py, xs, ys, exclude)[0]


def _tie_instance(side):
    """Nodes whose requests tie, at one distance, between a candidate in
    their own bucket and one of lower id on the next bucket's line across
    a gap test: on a grid of side ``side``, the right edge 3 / side, the
    top edge 7 / side, and the torus seam on each axis.  At side 10 both
    edges, computed as 3 * (1 / 10) and 7 * (1 / 10), round above the
    lines 3 / 10 and 7 / 10 on which the winners sit, so the gap test
    needs its margin GAP_EPS to keep them.

    Node layout: the four ring-1 winners (B), then their four ring-0 rivals
    (A), the four requesters (Q), and far fillers up to ``side**2 + 1``
    candidates.  Content 0 is held by the B, A and fillers, so its grid has
    side ``side``; the stations stand where those nodes stand, in the same
    order, so they share that grid; content 1 has no holder and is served
    by the stations alone.  B and A lie 2**-6 from their Q along one axis;
    each subtraction is exact, so the tie is exact."""
    d = 2.0 ** -6
    x3, y7 = 3 / side, 7 / side
    b = [(x3, 0.2), (0.2, y7), (0.0, 0.4), (0.6, 0.0)]
    q = [(x3 - d, 0.2), (0.2, y7 - d), (1 - d, 0.4), (0.6, 1 - d)]
    a = [(x3 - 2 * d, 0.2), (0.2, y7 - 2 * d), (1 - 2 * d, 0.4), (0.6, 1 - 2 * d)]
    rng = np.random.default_rng(side)
    fill = rng.uniform([0.7, 0.55], [0.9, 0.85], size=(side * side + 1 - 8, 2))
    nodes = np.vstack([b, a, q, fill])
    cands = np.vstack([b, a, fill])
    holders = [[*range(8), *range(12, len(nodes))], []]
    # On a node grid of side 128, a walk to B and one to A charge different
    # cells, so the outputs tell the two winners apart.
    return _instance(nodes, holders, 128, cands), len(b)


@pytest.mark.parametrize("side", [8, 9, 10])
@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_ties_across_a_gap_test_go_to_the_lower_id(backend, side):
    # Node B (lower id) wins content 0 for its Q over A; for content 1,
    # station B (lower station index) wins over station A.  Both sit on
    # their grids' lines, and the stations put the batch in cell order.
    inst, k = _tie_instance(side)
    grids = _ref.bucket_table(inst._h_start, inst._hc_cell)[0].tolist()
    assert grids == [side, 1] and _ref.station_layout(*inst.base_stations.T)[0] == side
    for m in (0, 1):
        walks = _exact_walks(inst, m)
        for j in range(k):
            q, b, a = 2 * k + j, inst.base_stations[j], inst.base_stations[k + j]
            assert walks[q] == _walk(inst, q, m, b) != _walk(inst, q, m, a)
        _assert_routes(backend, inst, np.full(inst.n, m), walks)
    if backend is _fast:
        _assert_trace_equal(inst, np.arange(inst.n) % 2)


@pytest.mark.parametrize("g", [2, 3, 8, 9])
def test_query_on_a_bucket_line_keeps_the_side_an_ulp_away(g):
    # A query on the line k / g, a member one ulp to one side (lower id) and
    # one two ulps to the other: the query's own gap to the line is about
    # 0, below the margin, so the side is kept whatever the best distance.
    for k in range(1, g):
        v = k / g
        near, far = np.nextafter(v, 0.0), np.nextafter(np.nextafter(v, 1.0), 1.0)
        for xs, ys, q in (([near, far], [0.3, 0.3], (v, 0.3)),
                          ([0.3, 0.3], [near, far], (0.3, v))):
            idx, tab = _grid_layout(np.array(xs), np.array(ys), g)
            got = _ref.nearest(*q, xs, ys, idx, tab, 0, g, -1)
            assert got[:2] == _exact_scan(*q, xs, ys) and got[0] == 0, (k, q)


def _exact_walks(inst, m):
    """Each node's request for content m as ``(status, cells)``, routed to
    the candidate that :func:`_exact_scan` picks: holders by node id, then
    station b as n + b."""
    n, xs, ys = inst.n, inst._xs, inst._ys
    held = [int(c) for c in inst.holders[m]]
    assert held == sorted(held)  # so list order is id order
    cx = np.concatenate([xs[held], inst.base_stations[:, 0]]).tolist()
    cy = np.concatenate([ys[held], inst.base_stations[:, 1]]).tolist()
    walks = {}
    for i in range(n):
        k, _ = _exact_scan(xs[i], ys[i], cx, cy, held.index(i) if i in held else -1)
        walks[i] = _walk(inst, i, m, None if k < 0 else (cx[k], cy[k]))
    return walks


@pytest.mark.parametrize("side", [8, 9])
@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_search_on_bucket_lines_finds_the_exact_winner(backend, side):
    # Nodes, holders and stations on and next to the bucket lines of their
    # grid of side `side`, and at the seam: every request goes to the
    # candidate a linear scan in the kernels' arithmetic picks, and the
    # backends agree on every output.
    rng = np.random.default_rng(950 + side)
    pool = _line_pool(side, rng)
    k = side * side + 1
    nodes = rng.choice(pool, size=(150, 2))
    stations = rng.choice(pool, size=(k, 2))
    holders = [np.sort(rng.choice(150, size=k, replace=False)), [4, 77]]
    inst = _instance(nodes, holders, 6, stations)
    assert _ref.station_layout(*stations.T)[0] == side
    for m in range(2):
        _assert_routes(backend, inst, np.full(inst.n, m), _exact_walks(inst, m))
    if backend is _fast:
        _assert_trace_equal(inst, np.arange(inst.n) % 2)


class _Recorder:
    """Stands in for the compiled library and records each call's arguments."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = []

    def ccn_trace_batch(self, *args):
        self.calls.append(args)
        return self.lib.ccn_trace_batch(*args)


@needs_fast
@pytest.mark.parametrize("nbs", [0, 3])
def test_compiled_kernel_visits_requesters_in_cell_order(monkeypatch, nbs):
    # With stations, the kernel writes its visit order to the int32 buffer
    # the binding passes: the nodes by cell on the node grid, stably, as a
    # stable argsort of their cells gives.  It counts the cells in the loads
    # buffer, which must come back holding the loads alone.  Without
    # stations it visits in index order and gets an empty buffer.
    rng = np.random.default_rng(nbs)
    nodes = rng.integers(0, 16, size=(400, 2)) / 16
    holders = [np.sort(rng.choice(400, size=k, replace=False)) for k in (1, 30, 90)]
    inst = _instance(nodes, holders, 7, rng.random((nbs, 2)))
    req = rng.integers(0, 3, size=400)
    recorder = _Recorder(_fast._lib)
    monkeypatch.setattr(_fast, "_lib", recorder)
    got = _fast.trace_batch(*sim._trace_args(inst, req))
    (args,) = recorder.calls
    order = args[14]
    assert order.dtype == np.int32
    if nbs:
        cells = _ref.grid_cells(nodes[:, 0], nodes[:, 1], 7)
        np.testing.assert_array_equal(order, np.argsort(cells, kind="stable"))
    else:
        assert order.size == 0
    want = _ref.trace_batch(*sim._trace_args(inst, req))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "backend",
    [_ref, pytest.param(_fast, marks=needs_fast)],
    ids=["python", "compiled"],
)
def test_trace_batch_rejects_more_nodes_than_an_int32_indexes(monkeypatch, backend):
    # The compiled kernel's visit order is int32; the bound is lowered here
    # so that two nodes pass it.
    monkeypatch.setattr(_ref, "MAX_NODES", 1)
    with pytest.raises(ValueError, match="at most 1 nodes"):
        backend.trace_batch(**_tiny_trace_args())


def test_bucket_table_is_csr_of_the_bucket_ids():
    # Three sets of 2, 0 and 70 members, the last on an 8x8 grid: bucket c
    # of set m is the slice tab[base[m] + c]:tab[base[m] + c + 1].
    rng = np.random.default_rng(6)
    cell = np.concatenate([[0, 0], np.sort(rng.integers(0, 64, size=70))])
    side, base, tab = _ref.bucket_table([0, 2, 2, 72], cell)
    assert side.tolist() == [1, 1, 8]
    assert base.tolist() == [0, 1, 2, 66]
    assert len(tab) == 67 and tab[0] == 0 and tab[-1] == 72
    assert tab[:3].tolist() == [0, 2, 2]
    for c in range(64):
        lo, hi = tab[2 + c], tab[2 + c + 1]
        assert (cell[lo:hi] == c).all() and np.count_nonzero(cell[2:] == c) == hi - lo


@pytest.mark.parametrize(
    "start,cell",
    [
        ([0, 2], [0, 1]),  # a set of two has one bucket
        ([0, 1], [-1]),
        ([0, 70], [64] * 70),  # off the 8x8 grid
        ([0, 2, 1], [0, 0]),  # offsets descend
    ],
)
def test_bucket_table_rejects(start, cell):
    with pytest.raises(ValueError):
        _ref.bucket_table(start, cell)


def test_compiled_kernel_allocates_nothing():
    # The binding passes every buffer, so no allocation can fail in C.
    source = (Path(_ref.__file__).parent / "trace.c").read_text()
    named = re.findall(r"\b(?:malloc|calloc|realloc|free|qsort)\b|stdlib\.h", source)
    assert named == []


_SOURCE = Path(_ref.__file__).parent / "trace.c"


@pytest.fixture(scope="module")
def kernel_object(tmp_path_factory):
    """``trace.c`` compiled to an object with -Werror, which fails on any
    warning.  GCC reports an unused static function only when it compiles,
    and never an unused static inline one, so the object is built at -O0,
    which inlines nothing: every static function that an entry point
    reaches is emitted, and one that none reaches is missing."""
    return _compile_with_warnings(tmp_path_factory.mktemp("kernel"), "-O0")


def _compile_with_warnings(tmp_dir, level):
    """``trace.c`` compiled to an object at optimisation ``level`` with
    -Wall -Wextra -Werror; returns its path."""
    if not _compiler_on_path():
        pytest.skip("no C compiler on PATH")
    cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
    obj = Path(tmp_dir) / "trace.o"
    flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", level]
    proc = subprocess.run(
        [*cc, *flags, "-c", "-o", str(obj), str(_SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return obj


@needs_fast
def test_kernel_source_compiles_clean_at_the_package_level(tmp_path):
    # GCC reports some warnings, such as -Wmaybe-uninitialized, only when
    # it optimises, so the source is also built at the level of the
    # package's own build.
    (level,) = [flag for flag in _fast.CFLAGS if flag.startswith("-O")]
    _compile_with_warnings(tmp_path, level)


def _nm(obj, *flags) -> str:
    """What ``nm`` lists for ``obj``, one symbol a line."""
    if shutil.which("nm") is None:
        pytest.skip("no nm on PATH to list the object's symbols")
    return subprocess.run(
        ["nm", *flags, str(obj)], capture_output=True, text=True, check=True
    ).stdout


@needs_fast
def test_compiled_library_exports_only_the_entry_points(kernel_object):
    listed = _nm(kernel_object, "-g", "--defined-only").splitlines()
    defined = {line.split()[-1] for line in listed}
    assert defined == {"ccn_trace_batch"}
    for name in ("segment_cells", "nearest_linear", "nearest", "trace_one"):
        assert not hasattr(_fast, name)
    assert not hasattr(_kernels, "trace_one")


def test_kernel_source_compiles_clean_and_uses_every_helper(kernel_object):
    symbols = _nm(kernel_object).split()
    static = re.findall(r"^static\b[^(;=]*?(\w+)\(", _SOURCE.read_text(), re.M)
    assert "segment_cells" in static
    assert set(static) <= {name.lstrip("_") for name in symbols}


def _tiny_trace_args(**override):
    """Two nodes on a 2x2 grid; the one content is held by node 1, in the
    one bucket (0) of the content's own grid."""
    args = dict(
        xs=np.array([0.1, 0.6]),
        ys=np.array([0.2, 0.7]),
        g=2,
        req=np.array([0, 0]),
        h_idx=np.array([1]),
        h_start=np.array([0, 1]),
        hc_idx=np.array([1]),
        hc_cell=np.array([0]),
        bs_x=np.array([]),
        bs_y=np.array([]),
    )
    args.update(override)
    return args


# Arguments that would make the C kernel read or write out of bounds.
_MALFORMED = [
    {"req": np.array([0, 1])},  # content 1 does not exist
    {"req": np.array([0])},  # one request for two nodes
    {"h_idx": np.array([2])},
    {"hc_idx": np.array([-1])},
    {"h_start": np.array([0, 2])},
    {"xs": np.array([-0.1, 0.6])},
    {"ys": np.array([float("nan"), 0.7])},
    {"bs_x": np.array([0.5]), "bs_y": np.array([])},
    {"hc_cell": np.array([1])},  # one holder has one bucket, 0
    {"hc_cell": np.array([-1])},
    {"g": 0},
    {"g": _ref.MAX_GRID_SIDE},  # the walk's fixed point would overflow
    {"xs": np.array([1.0, 0.6])},  # coordinates lie in [0, 1)
    {"xs": np.array([1.5, 0.6])},
    {"req": np.array([-1, 0])},
]


@needs_fast
class TestCompiledInputChecks:
    """The C kernel trusts its inputs, so the binding rejects any that would
    make it read or write out of bounds."""

    def test_tiny_instance_matches_reference(self):
        got = _fast.trace_batch(**_tiny_trace_args())
        want = _ref.trace_batch(**_tiny_trace_args())
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("override", _MALFORMED)
    def test_trace_batch_rejects(self, override):
        with pytest.raises(ValueError):
            _fast.trace_batch(**_tiny_trace_args(**override))


class TestReferenceInputChecks:
    """The reference rejects what the compiled binding rejects, so the two
    backends accept the same inputs; no compiler is needed."""

    @pytest.mark.parametrize("override", _MALFORMED)
    def test_trace_batch_rejects(self, override):
        with pytest.raises(ValueError):
            _ref.trace_batch(**_tiny_trace_args(**override))


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def _run_with_backend(value: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, CCNSCALE_BACKEND=value)
    return subprocess.run(
        [sys.executable, "-c", "from ccnscale import get_backend; print(get_backend())"],
        capture_output=True,
        text=True,
        env=env,
    )


class TestBackendSelection:
    def test_force_python(self):
        proc = _run_with_backend("python")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "python"

    @needs_fast
    def test_force_compiled(self):
        proc = _run_with_backend("compiled")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "compiled"

    @needs_fast
    def test_default_prefers_compiled(self):
        proc = _run_with_backend("")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "compiled"

    def test_invalid_value_raises(self):
        proc = _run_with_backend("turbo")
        assert proc.returncode != 0
        assert "CCNSCALE_BACKEND" in proc.stderr

    def test_module_level_exports_match_backend(self):
        assert _kernels.BACKEND_NAME in {"python", "compiled"}
        assert _kernels.RING_MIN_HOLDERS == 64
        # A reason is recorded exactly when the compiled backend is not active.
        assert (_kernels.BACKEND_REASON == "") == (_kernels.BACKEND_NAME == "compiled")


# ---------------------------------------------------------------------------
# loading and building the compiled kernel
# ---------------------------------------------------------------------------

_REPORT = (
    "from ccnscale import _kernels; "
    "print(_kernels.BACKEND_NAME); print(_kernels.BACKEND_REASON)"
)
_KERNEL_DIR = Path(_kernels.__file__).parent


def _python(code: str, cache, **env) -> subprocess.Popen:
    """Start ``python -c code`` with an own kernel build cache."""
    full = {**os.environ, "XDG_CACHE_HOME": str(cache), "CCNSCALE_BACKEND": "", **env}
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=full,
    )


def _finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    out, err = proc.communicate(timeout=300)
    return proc.returncode, out, err


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


class TestLoader:
    def test_missing_compiler_falls_back_with_reason(self, cache):
        code, out, err = _finish(_python(_REPORT, cache, CC="/nonexistent"))
        assert code == 0, err
        name, reason = out.splitlines()
        assert name == "python"
        assert "/nonexistent" in reason

    def test_missing_compiler_fails_forced_compiled(self, cache):
        code, out, err = _finish(
            _python(_REPORT, cache, CC="/nonexistent", CCNSCALE_BACKEND="compiled")
        )
        assert code != 0
        assert "CCNSCALE_BACKEND=compiled" in err
        assert "/nonexistent" in err

    @needs_fast
    def test_concurrent_first_imports_share_one_build(self, cache):
        def sources():
            return sorted(p.name for p in _KERNEL_DIR.iterdir() if p.is_file())

        before = sources()
        procs = [_python(_REPORT, cache) for _ in range(2)]
        results = [_finish(p) for p in procs]
        for code, out, err in results:
            assert code == 0, err
            assert out.splitlines()[0] == "compiled", out
        built = [p.name for p in cache.rglob("*") if p.is_file()]
        assert built == ["trace.so"]  # no temporary file left behind
        assert sources() == before  # nothing written next to the sources

    @needs_fast
    def test_cache_hit_starts_no_process(self, cache):
        assert _finish(_python(_REPORT, cache))[0] == 0
        forbid = (
            "import subprocess\n"
            "def _no(*a, **k): raise AssertionError('process started')\n"
            "subprocess.Popen = subprocess.run = _no\n"
        )
        code, out, err = _finish(_python(forbid + _REPORT, cache))
        assert code == 0, err
        assert out.splitlines()[0] == "compiled", out

    @needs_fast
    @pytest.mark.parametrize(
        "stale, missing",
        # a library that defines some other symbol, but not the entry point
        [("long long ccn_other(void) { return 0; }\n", "ccn_trace_batch")],
        ids=["missing-function"],
    )
    def test_library_without_kernel_symbol_falls_back(
        self, cache, tmp_path, stale, missing
    ):
        assert _finish(_python(_REPORT, cache))[0] == 0
        (built,) = cache.rglob("trace.so")
        src = tmp_path / "stale.c"
        src.write_text(stale)
        cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
        subprocess.run(
            [*cc, "-shared", "-fPIC", "-o", str(built), str(src)],
            check=True, capture_output=True,
        )
        code, out, err = _finish(_python(_REPORT, cache))
        assert code == 0, err
        name, reason = out.splitlines()
        assert name == "python"
        assert str(built) in reason and missing in reason
        code, out, err = _finish(_python(_REPORT, cache, CCNSCALE_BACKEND="compiled"))
        assert code != 0
        assert "ImportError" in err and missing in err
