"""Pure-Python kernel backend, and the reference for the compiled one.

``trace.c`` (loaded by ``_fast``) ports the routing in this file operation
for operation: both backends perform the same IEEE-754 double arithmetic
in the same order, so results (cell lists, nearest indices, hop counts,
per-cell loads) are bit-identical whichever backend is active.  Keep the
two files in lockstep.

This module alone builds the layout of every candidate set the kernels
search, holders and stations (:func:`grid_sides`, :func:`sort_buckets`,
:func:`bucket_table`, :func:`station_layout`).  Both kernels search every
set one way, ring by ring over its buckets (:func:`nearest`), each row of
a ring one slice of the bucket table, and ring 1 only on the sides of the
query's bucket that its edges do not rule out; a set of one bucket is ring
0 of its own grid.  This ``trace_batch`` visits the requesters in index
order, the compiled one in cell order when there are base stations; the
order changes no output.  Both backends' ``trace_batch`` check their
arguments with :func:`checked_args`, so they reject the same malformed
inputs.
"""

from __future__ import annotations

from math import inf

import numpy as np

BACKEND_NAME = "python"

# A set of more members than this gets a grid side above 1 (grid_sides).
# Any side gives the same winner; this trades speed.
RING_MIN_HOLDERS = 64
# sort_buckets sorts groups of about this many members, and the instance
# counts its nodes per cell in blocks of this many, to bound temporaries.
BLOCK = 1 << 14

# The walk works in cell units with FIX_BITS fraction bits, as integers:
# a coordinate x becomes floor(x * g * 2**FIX_BITS).  Grid sides stay below
# MAX_GRID_SIDE, so these integers stay below 2**62 and the products that
# order crossings below 2**125 (the compiled kernel's __int128).
FIX_BITS = 40
MAX_GRID_SIDE = 1 << 22
# Node indices fit the compiled kernel's int32 visit order (trace_batch).
MAX_NODES = (1 << 31) - 1
_FIX_SCALE = float(1 << FIX_BITS)


def _cell_index(x: float, g: int) -> int:
    i = int(x * g)
    return g - 1 if i >= g else i


def _fixed(x: float, g: int) -> int:
    """``x`` in cell units, as an integer with FIX_BITS fraction bits; its
    integer part is ``_cell_index(x, g)``."""
    q = int(x * g * _FIX_SCALE)
    top = (g << FIX_BITS) - 1
    return top if q > top else q


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
    per axis, never repeats a cell.  The crossing times order the steps
    (Amanatides & Woo grid traversal).  They are compared exactly, on the
    endpoints in cell units as integers (:func:`_fixed`): the time of a
    crossing is its distance along the axis over that axis's length, and
    both sides are scaled by the product of the two lengths.  A segment
    through a lattice corner steps diagonally, and a walk visits the cells
    of its reverse walk in reverse order, unless the half-torus rule of
    :func:`_wrap_delta` sends the two along different geodesics.
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
    # Lengths of the walk along each axis and the distances to the first
    # crossings, in fixed-point cell units.
    span = g << FIX_BITS
    u0 = _fixed(x0, g)
    v0 = _fixed(y0, g)
    lx = (_fixed(x1, g) - u0) * sx
    ly = (_fixed(y1, g) - v0) * sy
    if lx < 0:
        lx += span
    if ly < 0:
        ly += span
    ex = ((col + 1) << FIX_BITS) - u0 if sx > 0 else u0 - (col << FIX_BITS)
    ey = ((row + 1) << FIX_BITS) - v0 if sy > 0 else v0 - (row << FIX_BITS)
    # The next x crossing time minus the next y crossing time, both scaled
    # by lx * ly, and its changes when a step passes an x or a y line.
    d = ex * ly - ey * lx
    dkx = ly << FIX_BITS
    dky = lx << FIX_BITS
    while nx > 0 or ny > 0:
        if ny == 0 or (nx > 0 and d < 0):
            col = _wrap(col + sx, g)
            d += dkx
            nx -= 1
        elif nx == 0 or d > 0:
            row = _wrap(row + sy, g)
            d -= dky
            ny -= 1
        else:  # corner crossing: one diagonal step
            col = _wrap(col + sx, g)
            row = _wrap(row + sy, g)
            d += dkx - dky
            nx -= 1
            ny -= 1
        cells.append(row * g + col)
    return cells


def _wrap(v: int, g: int) -> int:
    """``v % g`` for ``v`` in [-g, 2g), without a division."""
    if v < 0:
        return v + g
    if v >= g:
        return v - g
    return v


def nearest_linear(
    px, py, xs, ys, members, exclude, best_i=-1, best_d2=inf, offset=0,
):
    """Scan the member indices ``members`` into ``xs``/``ys``.

    Member ``k`` competes as ``offset + k`` against the best so far,
    ``(best_i, best_d2)``: it wins when closer, or as close with a lower
    id.  The winner is the lexicographic minimum of (d2, id), so the order
    of ``members`` does not matter.  Returns ``(best_i, best_d2,
    saw_excluded)``.
    """
    saw_excluded = False
    for idx in members:
        if idx == exclude:
            saw_excluded = True
            continue
        d2 = _dist2(px, py, xs[idx], ys[idx])
        if d2 < best_d2 or (d2 == best_d2 and offset + idx < best_i):
            best_d2 = d2
            best_i = offset + idx
    return best_i, best_d2, saw_excluded


def nearest(
    px, py, xs, ys, idx, tab, base, g, exclude, best_i=-1, best_d2=inf, offset=0,
):
    """Nearest member of one candidate set, seeded with ``(best_i, best_d2)``.

    The set lies on a grid of side ``g`` of its own (:func:`grid_sides`).
    Its bucket ``c`` (flat id ``row * g + col``) holds the indices into
    ``xs``/``ys`` at ``idx[tab[base + c]:tab[base + c + 1]]``, the layout
    of :func:`bucket_table`, so the buckets of one row are one slice.  The
    search visits the buckets ring by ring around the query's, up to ring
    ``g // 2``, which reaches every bucket, and scans each row of a ring
    that it visits as one slice (two where the row crosses the torus seam)
    by :func:`nearest_linear`, so candidates compete as there.  A set of
    one bucket is ring 0 alone, ``idx[tab[base]:tab[base + 1]]``.

    Ring 1 drops the column (or row) of buckets on a side of the query's
    bucket whose edge lies beyond the best distance found in ring 0 (see
    :data:`GAP_EPS`).  From ring 2 on, the search stops at the first ring
    that lies beyond the best distance.  The winner is the lexicographic
    minimum of (d2, id) over the scanned members and the seed, which does
    not depend on the scan order, and a bucket is skipped only when every
    member's computed d2 exceeds the best one, so the result equals a
    linear scan seeded with the same best, including ties-to-lowest-id.
    """
    qcol = _cell_index(px, g)
    qrow = _cell_index(py, g)
    saw_excluded = False
    s = 1.0 / g
    for ring in range(g // 2 + 1):
        if ring == 0:
            rows = ((qrow, qcol, qcol),)
        elif ring == 1:
            rows = _ring1_rows(px, py, qrow, qcol, s, best_d2)
        else:
            if best_i >= 0:
                reach = (ring - 1) * s
                if reach * reach > best_d2:
                    break
            rows = _ring_rows(qrow, qcol, ring)
        for row, c0, c1 in rows:
            for first, last in _row_slices(row, c0, c1, g):
                best_i, best_d2, saw = nearest_linear(
                    px, py, xs, ys, idx[tab[base + first]:tab[base + last + 1]],
                    exclude, best_i, best_d2, offset,
                )
                saw_excluded |= saw
    return best_i, best_d2, saw_excluded


# Ring 1 drops the buckets on a side of the query's bucket when the gap to
# that edge, less GAP_EPS, squares to more than the best d2.  The edge is
# (qcol + 1) * s with s = 1 / g, and a member sits in a bucket by
# int(x * g); each of these roundings, and those of the gap and of _dist2,
# moves a distance by at most a few units of 2**-53 on the unit torus.
# So every member beyond the edge has a computed |dx| (or |dy|) at least
# the gap less GAP_EPS, and its d2 exceeds the best: ties are never dropped.
GAP_EPS = 1e-12


def _beyond(gap: float, best_d2: float) -> bool:
    """Whether every member past an edge ``gap`` away lies beyond ``best_d2``."""
    return gap > 0.0 and gap * gap > best_d2


def _ring1_rows(px, py, qrow, qcol, s, best_d2):
    """Ring 1 around bucket (qrow, qcol) as ``(row, c0, c1)`` spans, less the
    columns and rows on a side whose edge lies beyond ``best_d2``.

    On a grid of side 2 the buckets on both sides of the query are one, and
    it is scanned when either side is kept."""
    left = not _beyond(px - qcol * s - GAP_EPS, best_d2)
    right = not _beyond((qcol + 1) * s - px - GAP_EPS, best_d2)
    below = not _beyond(py - qrow * s - GAP_EPS, best_d2)
    above = not _beyond((qrow + 1) * s - py - GAP_EPS, best_d2)
    c0, c1 = qcol - left, qcol + right
    rows = []
    if below:
        rows.append((qrow - 1, c0, c1))
    if above:
        rows.append((qrow + 1, c0, c1))
    if left:
        rows.append((qrow, qcol - 1, qcol - 1))
    if right:
        rows.append((qrow, qcol + 1, qcol + 1))
    return rows


def _ring_rows(qrow, qcol, r):
    """Ring ``r >= 1`` around bucket (qrow, qcol) as ``(row, c0, c1)`` spans:
    its bottom and top rows whole, then one bucket on each side per row."""
    rows = [(qrow - r, qcol - r, qcol + r), (qrow + r, qcol - r, qcol + r)]
    for dr in range(-r + 1, r):
        rows.append((qrow + dr, qcol - r, qcol - r))
        rows.append((qrow + dr, qcol + r, qcol + r))
    return rows


def _row_slices(row, c0, c1, g):
    """Columns ``c0..c1`` of ``row`` (unwrapped, ``c0 <= c1 <= c0 + g``) as
    ``(first, last)`` flat bucket ids on the grid of side ``g``: one run,
    or two where the span crosses the torus seam."""
    r = _wrap(row, g) * g
    a, b = _wrap(c0, g), _wrap(c1, g)
    if a <= b and c1 - c0 < g:
        return ((r + a, r + b),)
    return ((r + a, r + g - 1), (r, r + b))


def grid_sides(sizes) -> np.ndarray:
    """Side of each candidate set's bucket grid, as int64.

    A set of ``k > RING_MIN_HOLDERS`` members gets a grid of side
    ``floor(sqrt(k))``, at least 8, so that a bucket holds about one
    member (the cell size of Bentley, Weide & Yao); a smaller set gets
    side 1, one bucket, which :func:`nearest` scans as its ring 0.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    # The float square root floors exactly for sizes below 2**52.
    side = np.sqrt(sizes).astype(np.int64)
    return np.where(sizes > RING_MIN_HOLDERS, side, 1)


def grid_cells(x, y, side) -> np.ndarray:
    """Flat bucket ids ``row * side + col`` of the points ``(x, y)``, as int64.

    ``side`` is one grid side for all points or one per point.  The cell
    of a coordinate is the one :func:`_cell_index` gives.
    """
    def cell_index(v):
        i = (np.asarray(v, dtype=np.float64) * side).astype(np.int64)
        i -= i >= side  # v * side rounds up to side just below v = 1
        return i

    cell = cell_index(y)
    cell *= side
    cell += cell_index(x)
    return cell


def bucket_table(start, cell):
    """The CSR bucket table of candidate sets, which both backends search.

    Set ``m`` is the members ``[start[m], start[m + 1])`` of one member
    array, sorted by bucket within the set, and ``cell`` holds each
    member's bucket id on the set's own grid, whose side ``side[m]``
    :func:`grid_sides` gives.  Returns ``(side, base, tab)``, all int64:
    bucket ``c`` of set ``m`` holds the members ``[tab[base[m] + c],
    tab[base[m] + c + 1])``.  ``base`` is the running sum of the grid
    sizes ``side**2``, so ``tab`` has one entry per bucket plus one.
    Raises ValueError when ``start`` descends or a bucket id lies off its
    set's grid.
    """
    start = np.asarray(start, dtype=np.int64)
    sizes = np.diff(start)
    if (sizes < 0).any():
        raise ValueError("set offsets must not descend")
    side = grid_sides(sizes)
    base = np.zeros(len(start), dtype=np.int64)
    np.cumsum(side * side, out=base[1:])
    cell = np.asarray(cell, dtype=np.int64)[start[0]:start[-1]]
    if cell.size:
        held = sizes > 0
        top = np.maximum.reduceat(cell, start[:-1][held] - start[0])
        if cell.min() < 0 or (top >= (side * side)[held]).any():
            raise ValueError("bucket id outside its set's grid")
    # tab[k + 1] counts the members of bucket k, the set's base plus its
    # bucket id, and then becomes the running sum in place.
    key = np.repeat(base[:-1] + 1, sizes)
    key += cell
    tab = np.bincount(key, minlength=base[-1] + 1).astype(np.int64, copy=False)
    del key
    np.cumsum(tab, out=tab)
    tab += start[0]
    return side, base, tab


def sort_buckets(xs, ys, idx, start) -> np.ndarray:
    """Sort every set's members into bucket order, in place in ``idx``, and
    return their bucket ids, int64 and aligned with ``idx``.

    Set ``m`` is ``idx[start[m]:start[m + 1]]``, ascending indices into
    ``xs``/``ys``, on its grid of the side :func:`grid_sides` gives.  A set
    of one bucket keeps its order, all in bucket 0.  The others sort in
    groups that end where their running member count passes a multiple of
    ``BLOCK``, by one ``np.sort`` of the key ``(grid offset + bucket) *
    total + j``, ``j`` the member's place in the group: by set, bucket and
    index, as a stable sort by bucket would order them.  The grids hold at
    most ``total`` buckets, so each set keeps its own span of keys.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    sizes = np.diff(start)
    sets = np.flatnonzero(grid_sides(sizes) > 1)
    cell = np.zeros(len(idx), dtype=np.int64)
    ends = np.cumsum(sizes[sets])
    for group in np.split(sets, np.flatnonzero(np.diff(ends // BLOCK)) + 1):
        if not group.size:
            continue
        k = sizes[group]
        side = grid_sides(k)
        total = int(k.sum())
        pos = np.repeat(start[group] - (np.cumsum(k) - k), k)
        pos += np.arange(total)
        member = idx[pos]
        key = grid_cells(xs[member], ys[member], np.repeat(side, k))
        grid0 = np.repeat(np.cumsum(side * side) - side * side, k)
        key += grid0
        key *= total
        key += np.arange(total)
        key.sort()
        idx[pos] = member[key % total]
        key //= total
        key -= grid0
        cell[pos] = key
    return cell


def station_layout(bs_x, bs_y):
    """The stations' bucket layout, which both backends search.

    The stations form one set, laid out by :func:`sort_buckets`.  Returns
    ``(side, idx, tab)``: its grid side, the station indices sorted by
    (bucket, index) as int64, and the :func:`bucket_table` of that set, so
    bucket ``c`` holds the stations ``idx[tab[c]:tab[c + 1]]``.
    """
    idx = np.arange(len(bs_x), dtype=np.int64)
    start = [0, idx.size]
    side, _, tab = bucket_table(start, sort_buckets(bs_x, bs_y, idx, start))
    return int(side[0]), idx, tab


def trace_one(xs, ys, g, requester, m, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Route node ``requester``'s request for content ``m``; returns (status, cells).

    Content ``m``'s holders are ``hc_idx[h_start[m]:h_start[m + 1]]``,
    sorted by bucket on the content's own grid, with the bucket ids in
    ``hc_cell`` (see :func:`bucket_table` and ``sim.NetworkInstance``).
    ``h_idx`` is not read: it keeps its place in the kernels' argument
    list, which the benchmark builds.  Find the nearest holder excluding the
    requester itself, then let base stations compete as extra candidates,
    never excluded: station ``b`` is candidate ``n + b``, so a node wins a
    distance tie against a station and the lowest station index wins among
    stations.  Holders and stations go through the same :func:`nearest`,
    the stations on the layout of :func:`station_layout` and seeded with
    the node winner, so a ring search stops at the first ring beyond it.
    Then walk the node grid's cells along the geodesic to the winner.
    ``cells`` holds the flat ids of the walk in traversal order, ending on
    the winner's cell; a request that no other cache can serve gets just
    the requester's own cell.

    status: 0 ok, 1 served locally (requester is the sole holder),
    2 routing failure (no holder, no base station).
    """
    # Only content m's bucket table is built; the search sees it as content 0.
    table = bucket_table(h_start[m:m + 2], hc_cell)
    return _route(
        xs, ys, g, requester, 0, hc_idx, table, bs_x, bs_y,
        station_layout(bs_x, bs_y),
    )


def _route(xs, ys, g, requester, m, hc_idx, holders, bs_x, bs_y, stations):
    """:func:`trace_one` with the holders' :func:`bucket_table` and the
    stations' :func:`station_layout`."""
    n = len(xs)
    px, py = xs[requester], ys[requester]
    h_side, h_base, h_tab = holders
    best_i, best_d2, saw_self = nearest(
        px, py, xs, ys, hc_idx, h_tab, h_base[m], h_side[m], requester,
    )
    side, bs_idx, bs_tab = stations
    best_i, best_d2, _ = nearest(
        px, py, bs_x, bs_y, bs_idx, bs_tab, 0, side, -1, best_i, best_d2, n,
    )

    if best_i < 0:
        own = _cell_index(py, g) * g + _cell_index(px, g)
        return (1 if saw_self else 2), [own]

    hx = xs[best_i] if best_i < n else bs_x[best_i - n]
    hy = ys[best_i] if best_i < n else bs_y[best_i - n]
    return 0, segment_cells(px, py, hx, hy, g)


def _coords(values, name: str) -> np.ndarray:
    """Contiguous float64 coordinates, which must lie in [0, 1): the kernels
    turn them into cell ids that index their outputs."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.size and not ((a >= 0.0) & (a < 1.0)).all():
        raise ValueError(f"{name}: coordinates must lie in [0, 1)")
    return a


def _indices(values, bound: int, name: str) -> np.ndarray:
    """Contiguous int64 indices, which must lie in [0, bound)."""
    a = np.ascontiguousarray(values, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= bound):
        raise ValueError(f"{name}: index outside [0, {bound})")
    return a


def _same_length(*arrays: np.ndarray) -> None:
    if len({len(a) for a in arrays}) > 1:
        raise ValueError(f"array lengths differ: {[len(a) for a in arrays]}")


def checked_args(xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """The arguments of :func:`trace_batch`, checked, in the same order.

    Both backends' ``trace_batch`` call this first, so they reject the same
    inputs.  Arrays become contiguous float64 coordinates or int64 indices.
    Raises ValueError unless the grid side lies in [1, MAX_GRID_SIDE)
    (which bounds the walk's fixed-point arithmetic), there are at most
    MAX_NODES nodes (the kernel's visit order is int32), every coordinate in
    [0, 1), every index in its range, ``h_start`` holds at least one
    offset, and paired arrays have equal lengths.  ``bucket_table`` checks
    the bucket ids in ``hc_cell``.  With these checks the compiled kernel
    never reads or writes out of bounds.
    """
    if not 1 <= g < MAX_GRID_SIDE:
        raise ValueError(f"grid side must lie in [1, {MAX_GRID_SIDE}), got {g}")
    g = int(g)
    xs, ys = _coords(xs, "xs"), _coords(ys, "ys")
    bs_x, bs_y = _coords(bs_x, "bs_x"), _coords(bs_y, "bs_y")
    _same_length(xs, ys)
    _same_length(bs_x, bs_y)
    n = len(xs)
    if n > MAX_NODES:
        raise ValueError(f"at most {MAX_NODES} nodes, got {n}")
    h_idx = _indices(h_idx, n, "h_idx")
    hc_idx = _indices(hc_idx, n, "hc_idx")
    hc_cell = np.ascontiguousarray(hc_cell, dtype=np.int64)
    _same_length(h_idx, hc_idx, hc_cell)
    h_start = _indices(h_start, len(h_idx) + 1, "h_start")
    if len(h_start) == 0:
        raise ValueError("h_start must hold at least one offset")
    req = _indices(req, len(h_start) - 1, "req")
    _same_length(xs, req)
    return xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y


def trace_batch(xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Trace one request per node; returns (hops, loads, status).

    Node ``i`` requests content ``req[i]``, routed by :func:`trace_one`;
    ``h_idx`` is not read (see there).  Every transmitting cell of its walk
    is charged (all but the last cell; a single-cell walk charges it
    once); hops are cells minus one, at least 1.  The requesters are
    visited in index order.  The compiled kernel visits them in cell order
    when there are base stations; a request writes only its own hops and
    status and adds to the loads, so the order changes no output, and the
    parity tests check that.  Malformed arguments raise ValueError
    (:func:`checked_args`).
    """
    xs, ys, g, req, _, h_start, hc_idx, hc_cell, bs_x, bs_y = checked_args(
        xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y
    )
    n = len(xs)
    holders = [a.tolist() for a in bucket_table(h_start, hc_cell)]
    side, bs_idx, bs_tab = station_layout(bs_x, bs_y)
    stations = side, bs_idx.tolist(), bs_tab.tolist()
    xs, ys, bs_x, bs_y, req, hc_idx = (
        a.tolist() for a in (xs, ys, bs_x, bs_y, req, hc_idx)
    )

    hops = np.zeros(n, dtype=np.int64)
    loads = np.zeros(g * g, dtype=np.int64)
    loads_l = [0] * (g * g)
    status = np.zeros(n, dtype=np.int64)

    for i in range(n):
        status[i], cells = _route(
            xs, ys, g, i, req[i], hc_idx, holders, bs_x, bs_y, stations
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
