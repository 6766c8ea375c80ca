/* Compiled routing kernel: a C99 port of _ref.py.
 *
 * Every function performs the same IEEE-754 double operations in the same
 * order as its counterpart in _ref.py, so cell lists, nearest indices, hop
 * counts and per-cell loads are bit-identical whichever backend is active.
 * dist2 computes the same values by other means (fabs and selects), to
 * avoid branches.  Keep the two files in lockstep.  Build with
 * -ffp-contract=off, so the compiler cannot fuse multiply-adds into
 * differently rounded FMA instructions, and never with -ffast-math.
 *
 * Holders and stations are searched in one bucket format, the CSR table of
 * _ref.bucket_table: each candidate set has a grid of its own, of side
 * side[m], and its bucket c is the slice idx[tab[base[m] + c] ..
 * tab[base[m] + c + 1]), so a ring search reads each bucket it visits as
 * one slice.  _ref lays out every set; the kernel reads only the grid
 * side, and searches a set ring by ring when its side is above 1.
 *
 * The library exports one entry point, ccn_trace_batch; every helper is
 * static.  sim.trace_request routes a single request with _ref.trace_one.
 * Inputs are trusted: the ctypes binding in _fast.py checks array lengths,
 * index ranges and coordinates before calling in.  The binding passes
 * every buffer, the bucket tables of holders and stations
 * (_ref.bucket_table, _ref.station_layout) and the path buffer included;
 * the kernel allocates nothing.
 */

#include <math.h>
#include <stdint.h>

typedef int64_t i64;
typedef __int128 i128;

/* The walk works in cell units with FIX_BITS fraction bits, as integers
 * (see _ref.FIX_BITS).  The binding keeps g below _ref.MAX_GRID_SIDE =
 * 2^22, so these integers stay below 2^62 and the products that order
 * crossings below 2^125. */
#define FIX_BITS 40

static inline i64 cell_index(double x, i64 g)
{
    i64 i = (i64)(x * g);
    return i >= g ? g - 1 : i;
}

/* x in cell units, as an integer with FIX_BITS fraction bits; its integer
 * part is cell_index(x, g) (see _ref._fixed). */
static inline i64 fixed(double x, i64 g)
{
    i64 q = (i64)(x * g * (double)((i64)1 << FIX_BITS));
    i64 top = (g << FIX_BITS) - 1;
    return q > top ? top : q;
}

/* Result in [0, g) for any sign of v, like Python's % operator. */
static inline i64 mod(i64 v, i64 g)
{
    i64 r = v % g;
    return r < 0 ? r + g : r;
}

/* v mod g for v in [-g, 2g), without a division (see _ref._wrap). */
static inline i64 wrap(i64 v, i64 g)
{
    return v < 0 ? v + g : (v >= g ? v - g : v);
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
    /* fabs and the selects compile without branches; fabs(-0.0) is +0.0
     * where _ref keeps -0.0, which squares to the same +0.0. */
    double dx = fabs(ax - bx), dy = fabs(ay - by);
    dx = dx > 0.5 ? 1.0 - dx : dx;
    dy = dy > 0.5 ? 1.0 - dy : dy;
    return dx * dx + dy * dy;
}

/* Writes the flat ids of the cells crossed by the geodesic segment from
 * (x0, y0) to (x1, y1) to buf and returns their count (see
 * _ref.segment_cells).  Each axis takes fewer than g steps, so the walk has
 * at most 2g - 1 cells and buf must hold that many.  The walk carries the
 * wrapped row and column, so no step divides.  Crossings are ordered
 * exactly, in integers: the endpoints in fixed-point cell units. */
static inline i64 segment_cells(double x0, double y0, double x1, double y1,
                                i64 g, i64 *buf)
{
    i64 col = cell_index(x0, g), row = cell_index(y0, g), count = 1;
    double dx = wrap_delta(x0, x1), dy = wrap_delta(y0, y1);
    i64 sx = dx > 0.0 ? 1 : (dx < 0.0 ? -1 : 0);
    i64 sy = dy > 0.0 ? 1 : (dy < 0.0 ? -1 : 0);
    i64 nx = mod((cell_index(x1, g) - col) * sx, g);
    i64 ny = mod((cell_index(y1, g) - row) * sy, g);
    i64 span = g << FIX_BITS, u0 = fixed(x0, g), v0 = fixed(y0, g);
    i64 lx = (fixed(x1, g) - u0) * sx, ly = (fixed(y1, g) - v0) * sy;
    lx += lx < 0 ? span : 0;
    ly += ly < 0 ? span : 0;
    i64 ex = sx > 0 ? ((col + 1) << FIX_BITS) - u0 : u0 - (col << FIX_BITS);
    i64 ey = sy > 0 ? ((row + 1) << FIX_BITS) - v0 : v0 - (row << FIX_BITS);
    /* The next x crossing time minus the next y crossing time, both scaled
     * by lx * ly, and its changes when a step passes an x or a y line. */
    i128 d = (i128)ex * ly - (i128)ey * lx;
    i128 dkx = (i128)ly << FIX_BITS, dky = (i128)lx << FIX_BITS;
    buf[0] = row * g + col;
    while (nx > 0 || ny > 0) {
        if (ny == 0 || (nx > 0 && d < 0)) {
            col = wrap(col + sx, g); d += dkx; nx -= 1;
        } else if (nx == 0 || d > 0) {
            row = wrap(row + sy, g); d -= dky; ny -= 1;
        } else { /* corner crossing: one diagonal step */
            col = wrap(col + sx, g); row = wrap(row + sy, g);
            d += dkx - dky; nx -= 1; ny -= 1;
        }
        buf[count++] = row * g + col;
    }
    return count;
}

/* Linear scan of cand[0:n_cand] (see _ref.nearest_linear): candidate
 * cand[k] competes as offset + cand[k] against the best so far, which
 * *best_i and *best_d2 hold on entry and on return; distance ties resolve
 * to the lowest id.  Sets *saw when cand holds exclude. */
static inline void nearest_linear(double px, double py, const double *xs,
                                  const double *ys, const i64 *cand,
                                  i64 n_cand, i64 exclude, i64 offset,
                                  i64 *best_i, double *best_d2, int *saw)
{
    i64 bi = *best_i;
    double bd2 = *best_d2;
    for (i64 k = 0; k < n_cand; k++) {
        i64 idx = cand[k];
        double d2;
        if (idx == exclude) {
            *saw = 1;
            continue;
        }
        d2 = dist2(px, py, xs[idx], ys[idx]);
        if (d2 < bd2 || (d2 == bd2 && offset + idx < bi)) {
            bd2 = d2;
            bi = offset + idx;
        }
    }
    *best_i = bi;
    *best_d2 = bd2;
}

/* Expanding-ring search over the buckets of one candidate set on its grid
 * of side g (see _ref.nearest_ring): bucket c is the slice
 * idx[tab[base + c] .. tab[base + c + 1]), scanned by nearest_linear, so
 * candidates compete as there.  Once a best exists, the search stops at
 * the first ring that lies beyond its distance.  Sets *saw when a visited
 * bucket holds exclude. */
static inline void nearest_ring(double px, double py, const double *xs,
                                const double *ys, const i64 *idx,
                                const i64 *tab, i64 base, i64 g, i64 exclude,
                                i64 offset, i64 *best_i, double *best_d2,
                                int *saw)
{
    i64 qcol = cell_index(px, g), qrow = cell_index(py, g), rmax = g / 2 + 1;
    double s = 1.0 / g;
    tab += base;
#define SCAN(r, c) do { \
        i64 cid_ = wrap(r, g) * g + wrap(c, g); \
        nearest_linear(px, py, xs, ys, idx + tab[cid_], \
                       tab[cid_ + 1] - tab[cid_], exclude, offset, best_i, \
                       best_d2, saw); \
    } while (0)
    for (i64 ring = 0; ring <= rmax; ring++) {
        if (*best_i >= 0 && ring >= 2) {
            double reach = (ring - 1) * s;
            if (reach * reach > *best_d2) break;
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
}

/* Nearest member of one candidate set (see _ref.nearest): the ring search
 * over its buckets idx/tab from base when its grid side g is above 1, else
 * a linear scan of cand[lo:hi], which holds the same members. */
static inline void nearest(double px, double py, const double *xs,
                           const double *ys, const i64 *cand, const i64 *idx,
                           const i64 *tab, i64 base, i64 lo, i64 hi, i64 g,
                           i64 exclude, i64 offset, i64 *best_i,
                           double *best_d2, int *saw)
{
    if (g > 1)
        nearest_ring(px, py, xs, ys, idx, tab, base, g, exclude, offset,
                     best_i, best_d2, saw);
    else
        nearest_linear(px, py, xs, ys, cand + lo, hi - lo, exclude, offset,
                       best_i, best_d2, saw);
}

/* Routes one request (see _ref.trace_one): writes its walk's cell ids to
 * buf, which holds 2g - 1 cells, and a nonzero status to *status (callers
 * zero it, so a routed request touches no page of it); returns the cell
 * count.  Content m's holders are searched on the bucket table h_side,
 * h_base, h_tab of _ref.bucket_table over hc_idx; the nbs stations on the
 * layout of _ref.station_layout: a grid of side bs_side, the station
 * indices bs_idx sorted by bucket, and their table bs_tab.  Inlined into
 * ccn_trace_batch's loop. */
static inline i64 trace_one(i64 n, const double *xs, const double *ys,
                            i64 g, i64 requester, i64 m, const i64 *h_idx,
                            const i64 *h_start, const i64 *hc_idx,
                            const i64 *h_side, const i64 *h_base,
                            const i64 *h_tab, i64 nbs, const double *bs_x,
                            const double *bs_y, i64 bs_side,
                            const i64 *bs_idx, const i64 *bs_tab, i64 *buf,
                            i64 *status)
{
    i64 best_i = -1;
    double px = xs[requester], py = ys[requester], best_d2 = INFINITY, hx, hy;
    int saw_self = 0, saw_none = 0;
    nearest(px, py, xs, ys, h_idx, hc_idx, h_tab, h_base[m], h_start[m],
            h_start[m + 1], h_side[m], requester, 0, &best_i, &best_d2,
            &saw_self);
    /* Station b competes as n + b, after every node: a node wins a distance
     * tie, and the lowest station index wins among stations.  The search
     * starts from the node winner, so a ring search stops at the first
     * ring beyond that node. */
    nearest(px, py, bs_x, bs_y, bs_idx, bs_idx, bs_tab, 0, 0, nbs, bs_side, -1,
            n, &best_i, &best_d2, &saw_none);

    if (best_i < 0) {
        buf[0] = cell_index(py, g) * g + cell_index(px, g);
        *status = saw_self ? 1 : 2;
        return 1;
    }
    hx = best_i < n ? xs[best_i] : bs_x[best_i - n];
    hy = best_i < n ? ys[best_i] : bs_y[best_i - n];
    return segment_cells(px, py, hx, hy, g, buf);
}

/* Traces one request per node into hops, loads and status (all zeroed by
 * the caller), with buf as the path buffer of trace_one; see
 * _ref.trace_batch for the rules.
 *
 * A holder search starts with a chain of dependent loads from scattered
 * places: h_start[m], then the holder slice, h_side[m] and h_base[m], then
 * the coordinates of the holders a linear scan reads (a content of one
 * bucket, h_side[m] == 1).  The loop requests each link a few requests
 * ahead (group prefetching, Chen, Ailamaki, Gibbons & Mowry, ICDE 2004),
 * once the link before it has had time to arrive.  __builtin_prefetch is
 * a cache hint only: it does no arithmetic and changes no result, so
 * _ref.py has nothing to mirror, and it never faults (h_idx + h_start[m]
 * may point one past the end of h_idx). */
void ccn_trace_batch(i64 n, const double *xs, const double *ys, i64 g,
                     const i64 *req, const i64 *h_idx, const i64 *h_start,
                     const i64 *hc_idx, const i64 *h_side, const i64 *h_base,
                     const i64 *h_tab, i64 nbs, const double *bs_x,
                     const double *bs_y, i64 bs_side, const i64 *bs_idx,
                     const i64 *bs_tab, i64 *buf, i64 *hops, i64 *loads,
                     i64 *status)
{
    for (i64 i = 0; i < n; i++) {
        if (i + 16 < n)
            __builtin_prefetch(&h_start[req[i + 16]]);
        if (i + 8 < n) {
            i64 m = req[i + 8];
            __builtin_prefetch(&h_idx[h_start[m]]);
            __builtin_prefetch(&h_side[m]);
            __builtin_prefetch(&h_base[m]);
        }
        if (i + 4 < n) {
            i64 m = req[i + 4];
            if (h_side[m] == 1) {
                for (i64 k = h_start[m], hi = h_start[m + 1]; k < hi; k++) {
                    __builtin_prefetch(&xs[h_idx[k]]);
                    __builtin_prefetch(&ys[h_idx[k]]);
                }
            }
        }
        i64 ncells = trace_one(n, xs, ys, g, i, req[i], h_idx, h_start,
                               hc_idx, h_side, h_base, h_tab, nbs, bs_x, bs_y,
                               bs_side, bs_idx, bs_tab, buf, &status[i]);
        if (ncells == 1) {
            loads[buf[0]] += 1;
            hops[i] = 1;
        } else {
            for (i64 j = 0; j < ncells - 1; j++) loads[buf[j]] += 1;
            hops[i] = ncells - 1;
        }
    }
}
