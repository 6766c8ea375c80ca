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


def nearest_linear(
    px, py, xs, ys, cand, exclude, best_i=-1, best_d2=inf, offset=0,
):
    """Scan the candidate indices ``cand`` into ``xs``/``ys``.

    Candidate ``k`` competes as ``offset + k`` against the best so far,
    ``(best_i, best_d2)``: it wins when closer, or as close with a lower
    id.  The winner is the lexicographic minimum of (d2, id), so the order
    of ``cand`` does not matter.  Returns ``(best_i, best_d2,
    saw_excluded)``.
    """
    saw_excluded = False
    for idx in cand:
        if idx == exclude:
            saw_excluded = True
            continue
        d2 = _dist2(px, py, xs[idx], ys[idx])
        if d2 < best_d2 or (d2 == best_d2 and offset + idx < best_i):
            best_d2 = d2
            best_i = offset + idx
    return best_i, best_d2, saw_excluded


def nearest_ring(
    px, py, xs, ys, hc_idx, hc_cell, lo, hi, g, exclude,
    best_i=-1, best_d2=inf, offset=0,
):
    """Expanding-ring search over per-cell buckets of one candidate set.

    ``hc_idx[lo:hi]``/``hc_cell[lo:hi]`` hold the set's indices into
    ``xs``/``ys`` and their cell ids on a grid of side ``g``, sorted by
    (cell, index).  Candidates compete as in :func:`nearest_linear`.  Once
    a best exists, the search stops at the first ring that lies beyond its
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


def nearest(
    px, py, xs, ys, cand, hc_idx, hc_cell, lo, hi, g, exclude,
    best_i=-1, best_d2=inf, offset=0,
):
    """Nearest member of one candidate set, seeded with ``(best_i, best_d2)``.

    A set with more than ``RING_MIN_HOLDERS`` members is searched by
    :func:`nearest_ring` over its buckets ``hc_idx``/``hc_cell[lo:hi]``;
    a smaller one is scanned by :func:`nearest_linear` over
    ``cand[lo:hi]``, which holds the same members.  Both give the same
    winner.
    """
    if hi - lo > RING_MIN_HOLDERS:
        return nearest_ring(
            px, py, xs, ys, hc_idx, hc_cell, lo, hi, g, exclude,
            best_i, best_d2, offset,
        )
    return nearest_linear(
        px, py, xs, ys, cand[lo:hi], exclude, best_i, best_d2, offset
    )


def station_layout(bs_x, bs_y):
    """The stations' bucket layout, which both backends search.

    Returns ``(side, idx, cell)``: a grid of side ``floor(sqrt(b))`` for
    ``b`` stations, so that a cell holds about one station (the cell size
    of Bentley, Weide & Yao), the station indices sorted by (cell, index)
    as int64, and their cell ids.  The cell of a coordinate is the one
    :func:`_cell_index` gives.
    """
    bs_x = np.asarray(bs_x, dtype=np.float64)
    bs_y = np.asarray(bs_y, dtype=np.float64)
    side = isqrt(len(bs_x))

    def cell_index(v):
        return np.minimum((v * side).astype(np.int64), side - 1)

    cells = cell_index(bs_y) * side + cell_index(bs_x)
    idx = np.argsort(cells, kind="stable").astype(np.int64, copy=False)
    return side, idx, cells[idx]


def trace_one(xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Route node ``requester``'s request for content ``m``; returns (status, cells).

    Find the nearest holder excluding the requester itself, then let base
    stations compete as extra candidates, never excluded: station ``b`` is
    candidate ``n + b``, so a node wins a distance tie against a station
    and the lowest station index wins among stations.  Holders and
    stations go through the same :func:`nearest`, the stations on the grid
    of :func:`station_layout` and seeded with the node winner, so a ring
    search stops at the first ring beyond it.  Then walk the grid cells
    along the geodesic to the winner.  ``cells`` holds the flat ids of the
    walk in traversal order, ending on the winner's cell; a request that
    no other cache can serve gets just the requester's own cell.

    status: 0 ok, 1 served locally (requester is the sole holder),
    2 routing failure (no holder, no base station).
    """
    return _route(
        xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y,
        station_layout(bs_x, bs_y),
    )


def _route(
    xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y, stations
):
    """:func:`trace_one` with the station layout of :func:`station_layout`."""
    n = len(xs)
    px, py = xs[requester], ys[requester]
    best_i, best_d2, saw_self = nearest(
        px, py, xs, ys, h_idx, hc_idx, hc_cell, h_start[m], h_start[m + 1], g,
        requester,
    )
    side, bs_idx, bs_cell = stations
    best_i, best_d2, _ = nearest(
        px, py, bs_x, bs_y, bs_idx, bs_idx, bs_cell, 0, len(bs_idx), side, -1,
        best_i, best_d2, n,
    )

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
    side, bs_idx, bs_cell = station_layout(bs_x, bs_y)
    stations = side, bs_idx.tolist(), bs_cell.tolist()

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
