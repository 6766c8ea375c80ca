"""Pure-Python kernel backend, and the reference for the compiled one.

``trace.c`` (loaded by ``_fast``) ports this file operation for operation:
both backends perform the same IEEE-754 double arithmetic in the same
order, so results (cell lists, nearest indices, hop counts, per-cell loads)
are bit-identical whichever backend is active.  Keep the two files in
lockstep.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf, isqrt

import numpy as np

BACKEND_NAME = "python"

# Contents with more holders than this are looked up via expanding-ring
# search over grid buckets; smaller sets are scanned linearly.  Both
# strategies return identical results; this only trades speed.
RING_MIN_HOLDERS = 64


def _cell_index(x: float, g: int) -> int:
    i = int(x * g)
    return g - 1 if i >= g else i


def _wrap_delta(a: float, b: float) -> float:
    """Geodesic displacement a -> b in (-0.5, 0.5], ties toward +0.5."""
    d = b - a
    if d > 0.5:
        return d - 1.0
    if d < -0.5:
        return d + 1.0
    if d == -0.5:
        return 0.5
    return d


def _dist2(ax: float, ay: float, bx: float, by: float) -> float:
    dx = abs(ax - bx)
    if dx > 0.5:
        dx = 1.0 - dx
    dy = abs(ay - by)
    if dy > 0.5:
        dy = 1.0 - dy
    return dx * dx + dy * dy


def segment_cells(x0: float, y0: float, x1: float, y1: float, g: int) -> list[int]:
    """Cells crossed by the geodesic segment from (x0,y0) to (x1,y1).

    Both endpoints lie in [0, 1).  Returns flat ids ``row * g + col`` of
    torus cells, in traversal order, from the cell containing (x0, y0) to
    the cell containing (x1, y1).  The geodesic displacement
    (:func:`_wrap_delta`) fixes the step direction on each axis; the step
    count is the integer cell difference in that direction, mod g, so the
    walk ends on the end cell by construction and, with fewer than g steps
    per axis, never repeats a cell.  The float crossing times only order
    the steps (Amanatides & Woo grid traversal); a segment passing exactly
    through a lattice corner steps diagonally.
    """
    col = _cell_index(x0, g)
    row = _cell_index(y0, g)
    dx = _wrap_delta(x0, x1)
    dy = _wrap_delta(y0, y1)
    sx = 1 if dx > 0.0 else (-1 if dx < 0.0 else 0)
    sy = 1 if dy > 0.0 else (-1 if dy < 0.0 else 0)
    nx = (_cell_index(x1, g) - col) * sx % g
    ny = (_cell_index(y1, g) - row) * sy % g
    cells = [row * g + col]
    if sx > 0:
        tx = ((col + 1.0) / g - x0) / dx
        dtx = 1.0 / (g * dx)
    elif sx < 0:
        tx = (col / float(g) - x0) / dx
        dtx = -1.0 / (g * dx)
    else:
        tx = inf
        dtx = inf
    if sy > 0:
        ty = ((row + 1.0) / g - y0) / dy
        dty = 1.0 / (g * dy)
    elif sy < 0:
        ty = (row / float(g) - y0) / dy
        dty = -1.0 / (g * dy)
    else:
        ty = inf
        dty = inf
    while nx > 0 or ny > 0:
        if ny == 0 or (nx > 0 and tx < ty):
            col += sx
            tx += dtx
            nx -= 1
        elif nx == 0 or ty < tx:
            row += sy
            ty += dty
            ny -= 1
        else:  # exact corner crossing: one diagonal step
            col += sx
            row += sy
            tx += dtx
            ty += dty
            nx -= 1
            ny -= 1
        cells.append((row % g) * g + (col % g))
    return cells


def nearest_linear(px, py, xs, ys, cand, exclude):
    """Scan candidate node indices; return (index, d2, saw_excluded).

    Ties in distance resolve to the lowest node index.
    """
    best_i = -1
    best_d2 = inf
    saw_excluded = False
    for idx in cand:
        if idx == exclude:
            saw_excluded = True
            continue
        d2 = _dist2(px, py, xs[idx], ys[idx])
        if d2 < best_d2 or (d2 == best_d2 and idx < best_i):
            best_d2 = d2
            best_i = idx
    return best_i, best_d2, saw_excluded


def nearest_ring(
    px, py, xs, ys, hc_idx, hc_cell, lo, hi, g, exclude,
    best_i=-1, best_d2=inf, offset=0,
):
    """Expanding-ring search over per-cell buckets of one candidate set.

    ``hc_idx[lo:hi]``/``hc_cell[lo:hi]`` hold the set's indices into
    ``xs``/``ys`` and their cell ids, sorted by (cell, index).  Candidate
    ``k`` competes as ``offset + k`` against the best so far, ``(best_i,
    best_d2)``: it wins when closer, or as close with a lower id.  Once a
    best exists, the search stops at the first ring that lies beyond its
    distance.  Equivalent to a linear scan seeded with the same best,
    including ties-to-lowest-id.
    """
    qcol = _cell_index(px, g)
    qrow = _cell_index(py, g)
    saw_excluded = False
    s = 1.0 / g
    rmax = g // 2 + 1
    for ring in range(rmax + 1):
        if best_i >= 0 and ring >= 2:
            reach = (ring - 1) * s
            if reach * reach > best_d2:
                break
        if ring == 0:
            offsets = ((0, 0),)
        else:
            offsets = _ring_offsets(ring)
        for dr, dc in offsets:
            rr = (qrow + dr) % g
            cc = (qcol + dc) % g
            cid = rr * g + cc
            j = bisect_left(hc_cell, cid, lo, hi)
            while j < hi and hc_cell[j] == cid:
                idx = hc_idx[j]
                j += 1
                if idx == exclude:
                    saw_excluded = True
                    continue
                d2 = _dist2(px, py, xs[idx], ys[idx])
                if d2 < best_d2 or (d2 == best_d2 and offset + idx < best_i):
                    best_d2 = d2
                    best_i = offset + idx
    return best_i, best_d2, saw_excluded


def _ring_offsets(r: int):
    out = []
    for dc in range(-r, r + 1):
        out.append((-r, dc))
        out.append((r, dc))
    for dr in range(-r + 1, r):
        out.append((dr, -r))
        out.append((dr, r))
    return out


def _station_index(bs_x, bs_y):
    """The stations' bucket layout for :func:`nearest_ring`.

    Returns ``(side, idx, cell)``: a grid of side ``floor(sqrt(b))`` for
    ``b`` stations, so that a cell holds about one station (the cell size
    of Bentley, Weide & Yao), the station indices sorted by (cell, index),
    and their cell ids.  With at most ``RING_MIN_HOLDERS`` stations, which
    are scanned linearly, ``idx`` and ``cell`` are empty.
    """
    nbs = len(bs_x)
    side = isqrt(nbs)
    if nbs <= RING_MIN_HOLDERS:
        return side, [], []
    cells = [
        _cell_index(y, side) * side + _cell_index(x, side)
        for x, y in zip(bs_x, bs_y)
    ]
    order = sorted(range(nbs), key=cells.__getitem__)
    return side, order, [cells[b] for b in order]


def trace_one(xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Route node ``requester``'s request for content ``m``; returns (status, cells).

    Find the nearest holder (ring or linear search) excluding the
    requester itself, then let base stations compete as extra candidates,
    never excluded: station ``b`` is candidate ``n + b``, so a node wins a
    distance tie against a station and the lowest station index wins
    among stations.  More than ``RING_MIN_HOLDERS`` stations are searched
    by :func:`nearest_ring` on the grid of :func:`_station_index`, seeded
    with the node winner, so the search stops at the first ring beyond
    it; fewer are scanned linearly.  Both give the same winner.  Then
    walk the grid cells along the geodesic to the winner.  ``cells``
    holds the flat ids of the walk in traversal order, ending on the
    winner's cell; a request that no other cache can serve gets just the
    requester's own cell.

    status: 0 ok, 1 served locally (requester is the sole holder),
    2 routing failure (no holder, no base station).
    """
    return _route(
        xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y,
        _station_index(bs_x, bs_y),
    )


def _route(
    xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y, stations
):
    """:func:`trace_one` with the station layout of :func:`_station_index`."""
    n = len(xs)
    lo, hi = h_start[m], h_start[m + 1]
    px, py = xs[requester], ys[requester]
    if hi - lo > RING_MIN_HOLDERS:
        best_i, best_d2, saw_self = nearest_ring(
            px, py, xs, ys, hc_idx, hc_cell, lo, hi, g, requester
        )
    else:
        best_i, best_d2, saw_self = nearest_linear(
            px, py, xs, ys, h_idx[lo:hi], requester
        )
    bs_g, bs_idx, bs_cell = stations
    if bs_idx:
        best_i, best_d2, _ = nearest_ring(
            px, py, bs_x, bs_y, bs_idx, bs_cell, 0, len(bs_idx), bs_g, -1,
            best_i, best_d2, n,
        )
    else:
        for b in range(len(bs_x)):
            d2 = _dist2(px, py, bs_x[b], bs_y[b])
            idx = n + b
            if d2 < best_d2 or (d2 == best_d2 and idx < best_i):
                best_d2 = d2
                best_i = idx

    if best_i < 0:
        own = _cell_index(py, g) * g + _cell_index(px, g)
        return (1 if saw_self else 2), [own]

    hx = xs[best_i] if best_i < n else bs_x[best_i - n]
    hy = ys[best_i] if best_i < n else bs_y[best_i - n]
    return 0, segment_cells(px, py, hx, hy, g)


def trace_batch(xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Trace one request per node; returns (hops, loads, status).

    Node ``i`` requests content ``req[i]``, routed by :func:`trace_one`.
    Every transmitting cell of its walk is charged (all but the last cell;
    a single-cell walk charges it once); hops are cells minus one, at least 1.
    """
    n = len(xs)
    xs, ys, bs_x, bs_y = (
        np.asarray(a, dtype=np.float64).tolist() for a in (xs, ys, bs_x, bs_y)
    )
    req, h_idx, h_start, hc_idx, hc_cell = (
        np.asarray(a, dtype=np.int64).tolist()
        for a in (req, h_idx, h_start, hc_idx, hc_cell)
    )

    hops = np.zeros(n, dtype=np.int64)
    loads = np.zeros(g * g, dtype=np.int64)
    loads_l = [0] * (g * g)
    status = np.zeros(n, dtype=np.int64)
    stations = _station_index(bs_x, bs_y)

    for i in range(n):
        status[i], cells = _route(
            xs, ys, g, i, req[i], h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y,
            stations,
        )
        if len(cells) == 1:
            loads_l[cells[0]] += 1
            hops[i] = 1
        else:
            for cid in cells[:-1]:
                loads_l[cid] += 1
            hops[i] = len(cells) - 1

    loads[:] = loads_l
    return hops, loads, status
