/* Compiled routing kernel: a C99 port of _ref.py.
 *
 * Every function performs the same IEEE-754 double operations in the same
 * order as its counterpart in _ref.py, so cell lists, nearest indices, hop
 * counts and per-cell loads are bit-identical whichever backend is active.
 * Keep the two files in lockstep.  Build with -ffp-contract=off, so the
 * compiler cannot fuse multiply-adds into differently rounded FMA
 * instructions, and never with -ffast-math.
 *
 * Inputs are trusted: the ctypes binding in _fast.py checks array lengths,
 * index ranges and coordinates before calling in.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* Contents with more holders than this are looked up via expanding-ring
 * search over grid buckets; smaller sets are scanned linearly.  Both
 * strategies return identical results; this only trades speed. */
const i64 ccn_ring_min_holders = 64;

static inline i64 cell_index(double x, i64 g)
{
    i64 i = (i64)(x * g);
    return i >= g ? g - 1 : i;
}

/* Result in [0, g) for any sign of v, like Python's % operator. */
static inline i64 mod(i64 v, i64 g)
{
    i64 r = v % g;
    return r < 0 ? r + g : r;
}

/* Geodesic displacement a -> b in (-0.5, 0.5], ties toward +0.5. */
static inline double wrap_delta(double a, double b)
{
    double d = b - a;
    if (d > 0.5) return d - 1.0;
    if (d < -0.5) return d + 1.0;
    if (d == -0.5) return 0.5;
    return d;
}

static inline double dist2(double ax, double ay, double bx, double by)
{
    double dx = ax - bx, dy;
    if (dx < 0.0) dx = -dx;
    if (dx > 0.5) dx = 1.0 - dx;
    dy = ay - by;
    if (dy < 0.0) dy = -dy;
    if (dy > 0.5) dy = 1.0 - dy;
    return dx * dx + dy * dy;
}

/* Writes the flat ids of the cells crossed by the geodesic segment from
 * (x0, y0) to (x1, y1) to buf and returns their count (see
 * _ref.segment_cells).  Each axis takes fewer than g steps, so the walk has
 * at most 2g - 1 cells and buf must hold that many. */
i64 ccn_segment_cells(double x0, double y0, double x1, double y1, i64 g,
                      i64 *buf)
{
    i64 col = cell_index(x0, g), row = cell_index(y0, g), count = 1;
    double dx = wrap_delta(x0, x1), dy = wrap_delta(y0, y1);
    i64 sx = dx > 0.0 ? 1 : (dx < 0.0 ? -1 : 0);
    i64 sy = dy > 0.0 ? 1 : (dy < 0.0 ? -1 : 0);
    i64 nx = mod((cell_index(x1, g) - col) * sx, g);
    i64 ny = mod((cell_index(y1, g) - row) * sy, g);
    double tx, ty, dtx, dty;
    buf[0] = row * g + col;
    if (sx > 0) {
        tx = ((col + 1.0) / g - x0) / dx;
        dtx = 1.0 / (g * dx);
    } else if (sx < 0) {
        tx = (col / (double)g - x0) / dx;
        dtx = -1.0 / (g * dx);
    } else {
        tx = INFINITY;
        dtx = INFINITY;
    }
    if (sy > 0) {
        ty = ((row + 1.0) / g - y0) / dy;
        dty = 1.0 / (g * dy);
    } else if (sy < 0) {
        ty = (row / (double)g - y0) / dy;
        dty = -1.0 / (g * dy);
    } else {
        ty = INFINITY;
        dty = INFINITY;
    }
    while (nx > 0 || ny > 0) {
        if (ny == 0 || (nx > 0 && tx < ty)) {
            col += sx; tx += dtx; nx -= 1;
        } else if (nx == 0 || ty < tx) {
            row += sy; ty += dty; ny -= 1;
        } else { /* exact corner crossing: one diagonal step */
            col += sx; row += sy; tx += dtx; ty += dty; nx -= 1; ny -= 1;
        }
        buf[count++] = mod(row, g) * g + mod(col, g);
    }
    return count;
}

/* Candidate idx at squared distance d2 replaces the best so far; ties in
 * distance resolve to the lowest index. */
static inline void consider(double d2, i64 idx, i64 *best_i, double *best_d2)
{
    if (d2 < *best_d2 || (d2 == *best_d2 && idx < *best_i)) {
        *best_d2 = d2;
        *best_i = idx;
    }
}

i64 ccn_nearest_linear(double px, double py, const double *xs,
                       const double *ys, const i64 *cand, i64 n_cand,
                       i64 exclude, double *out_d2, int *out_saw)
{
    i64 best_i = -1;
    double best_d2 = INFINITY;
    *out_saw = 0;
    for (i64 k = 0; k < n_cand; k++) {
        i64 idx = cand[k];
        if (idx == exclude) {
            *out_saw = 1;
            continue;
        }
        consider(dist2(px, py, xs[idx], ys[idx]), idx, &best_i, &best_d2);
    }
    *out_d2 = best_d2;
    return best_i;
}

/* Scans the holders of one bucket: hc_cell[lo:hi] is sorted, so the
 * bucket starts at the leftmost position of cid (bisect_left). */
static void scan_bucket(double px, double py, const double *xs,
                        const double *ys, const i64 *hc_idx,
                        const i64 *hc_cell, i64 lo, i64 hi, i64 cid,
                        i64 exclude, i64 *best_i, double *best_d2, int *saw)
{
    i64 j, top = hi;
    while (lo < top) {
        i64 mid = (lo + top) / 2;
        if (hc_cell[mid] < cid) lo = mid + 1; else top = mid;
    }
    for (j = lo; j < hi && hc_cell[j] == cid; j++) {
        if (hc_idx[j] == exclude) {
            *saw = 1;
            continue;
        }
        consider(dist2(px, py, xs[hc_idx[j]], ys[hc_idx[j]]), hc_idx[j],
                 best_i, best_d2);
    }
}

i64 ccn_nearest_ring(double px, double py, const double *xs, const double *ys,
                     const i64 *hc_idx, const i64 *hc_cell, i64 lo, i64 hi,
                     i64 g, i64 exclude, double *out_d2, int *out_saw)
{
    i64 qcol = cell_index(px, g), qrow = cell_index(py, g);
    i64 best_i = -1, rmax = g / 2 + 1;
    double best_d2 = INFINITY, s = 1.0 / g;
#define SCAN(r, c) scan_bucket(px, py, xs, ys, hc_idx, hc_cell, lo, hi, \
        mod(r, g) * g + mod(c, g), exclude, &best_i, &best_d2, out_saw)
    *out_saw = 0;
    for (i64 ring = 0; ring <= rmax; ring++) {
        if (best_i >= 0 && ring >= 2) {
            double reach = (ring - 1) * s;
            if (reach * reach > best_d2) break;
        }
        if (ring == 0) {
            SCAN(qrow, qcol);
            continue;
        }
        /* Same bucket visit order as _ref._ring_offsets(). */
        for (i64 dc = -ring; dc <= ring; dc++) {
            SCAN(qrow - ring, qcol + dc);
            SCAN(qrow + ring, qcol + dc);
        }
        for (i64 dr = -ring + 1; dr < ring; dr++) {
            SCAN(qrow + dr, qcol - ring);
            SCAN(qrow + dr, qcol + ring);
        }
    }
#undef SCAN
    *out_d2 = best_d2;
    return best_i;
}

/* Routes one request (see _ref.trace_one): writes its walk's cell ids to
 * buf, which holds 2g - 1 cells, and a nonzero status to *status (callers
 * zero it, so a routed request touches no page of it); returns the cell
 * count.  Inlined into ccn_trace_batch's loop. */
static inline i64 trace_one(i64 n, const double *xs, const double *ys,
                             i64 g, i64 requester, i64 m, const i64 *h_idx,
                             const i64 *h_start, const i64 *hc_idx,
                             const i64 *hc_cell, i64 nbs, const double *bs_x,
                             const double *bs_y, i64 *buf, i64 *status)
{
    i64 lo = h_start[m], hi = h_start[m + 1];
    i64 best_i;
    double px = xs[requester], py = ys[requester], best_d2, hx, hy;
    int saw_self;
    if (hi - lo > ccn_ring_min_holders)
        best_i = ccn_nearest_ring(px, py, xs, ys, hc_idx, hc_cell, lo, hi, g,
                                  requester, &best_d2, &saw_self);
    else
        best_i = ccn_nearest_linear(px, py, xs, ys, h_idx + lo, hi - lo,
                                    requester, &best_d2, &saw_self);
    /* Base stations rank after every node, so nodes win distance ties. */
    for (i64 b = 0; b < nbs; b++)
        consider(dist2(px, py, bs_x[b], bs_y[b]), n + b, &best_i, &best_d2);

    if (best_i < 0) {
        buf[0] = cell_index(py, g) * g + cell_index(px, g);
        *status = saw_self ? 1 : 2;
        return 1;
    }
    hx = best_i < n ? xs[best_i] : bs_x[best_i - n];
    hy = best_i < n ? ys[best_i] : bs_y[best_i - n];
    return ccn_segment_cells(px, py, hx, hy, g, buf);
}

i64 ccn_trace_one(i64 n, const double *xs, const double *ys, i64 g,
                  i64 requester, i64 m, const i64 *h_idx, const i64 *h_start,
                  const i64 *hc_idx, const i64 *hc_cell, i64 nbs,
                  const double *bs_x, const double *bs_y, i64 *buf,
                  i64 *status)
{
    return trace_one(n, xs, ys, g, requester, m, h_idx, h_start, hc_idx,
                     hc_cell, nbs, bs_x, bs_y, buf, status);
}

/* Traces one request per node into hops, loads and status (all zeroed by
 * the caller); see _ref.trace_batch for the rules.  Returns 0, or -1 when
 * the path buffer cannot be allocated. */
int ccn_trace_batch(i64 n, const double *xs, const double *ys, i64 g,
                    const i64 *req, const i64 *h_idx, const i64 *h_start,
                    const i64 *hc_idx, const i64 *hc_cell, i64 nbs,
                    const double *bs_x, const double *bs_y, i64 *hops,
                    i64 *loads, i64 *status)
{
    i64 *buf = malloc((size_t)(2 * g - 1) * sizeof *buf);
    if (buf == NULL) return -1;
    for (i64 i = 0; i < n; i++) {
        i64 ncells = trace_one(n, xs, ys, g, i, req[i], h_idx, h_start,
                               hc_idx, hc_cell, nbs, bs_x, bs_y, buf,
                               &status[i]);
        if (ncells == 1) {
            loads[buf[0]] += 1;
            hops[i] = 1;
        } else {
            for (i64 j = 0; j < ncells - 1; j++) loads[buf[j]] += 1;
            hops[i] = ncells - 1;
        }
    }
    free(buf);
    return 0;
}
