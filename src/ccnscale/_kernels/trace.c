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
 * tab[base[m] + c + 1]), so the buckets of one grid row are one slice.
 * _ref lays out every set.  One search, nearest, serves every set ring by
 * ring over its buckets and reads each row of a ring as one slice (two
 * across the torus seam); ring 1 leaves out the buckets on a side whose
 * edge lies beyond the best distance found in ring 0.  A set of one
 * bucket (side 1) is ring 0 of its own grid.  The holders are passed only
 * as hc_idx and their bucket table.
 *
 * With base stations, ccn_trace_batch visits the requesters in cell order
 * (cell_order); without them, in index order.  It splits the visit order
 * into contiguous parts, traces each in a POSIX thread of its own (the
 * first in the calling thread; start_part starts the others on other
 * CPUs) and adds up their loads.  No output depends on the order or on
 * the split.
 *
 * The two files differ in form in one place: the walk.  _ref.segment_cells
 * returns the list of cells, which _ref.trace_one returns and
 * _ref.trace_batch charges; here segment_cells charges each cell to loads
 * as it walks, the same cells, so no path buffer is kept.
 *
 * The library exports one entry point, ccn_trace_batch; every helper is
 * static.  sim.trace_request routes a single request with _ref.trace_one.
 * Inputs are trusted: the ctypes binding in _fast.py checks array lengths,
 * index ranges and coordinates before calling in.  The binding passes
 * every buffer, the bucket tables of holders and stations
 * (_ref.bucket_table, _ref.station_layout), the visit-order buffer and the
 * loads of the extra parts included; the kernel allocates no memory.  A
 * thread that pthread_create cannot start runs its part inline, so a call
 * cannot fail.  Build with -pthread.
 */

#ifdef __linux__
#define _GNU_SOURCE /* sched_getcpu, CPU_CLR, pthread_*affinity_np */
#include <sched.h>
#endif
#include <math.h>
#include <pthread.h>
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

/* Walks the cells crossed by the geodesic segment from (x0, y0) to
 * (x1, y1) (see _ref.segment_cells) and returns their count.  It charges
 * the walk as it goes: 1 to loads[cell] for every cell but the last, the
 * holder's, or for the only cell when the walk has one.  The walk carries
 * the wrapped row and column, so no step divides.  Crossings are ordered
 * exactly, in integers: the endpoints in fixed-point cell units. */
static inline i64 segment_cells(double x0, double y0, double x1, double y1,
                                i64 g, i64 *loads)
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
    while (nx > 0 || ny > 0) {
        loads[row * g + col] += 1;
        if (ny == 0 || (nx > 0 && d < 0)) {
            col = wrap(col + sx, g); d += dkx; nx -= 1;
        } else if (nx == 0 || d > 0) {
            row = wrap(row + sy, g); d -= dky; ny -= 1;
        } else { /* corner crossing: one diagonal step */
            col = wrap(col + sx, g); row = wrap(row + sy, g);
            d += dkx - dky; nx -= 1; ny -= 1;
        }
        count += 1;
    }
    if (count == 1) loads[row * g + col] += 1;
    return count;
}

/* Linear scan of members[0:count] (see _ref.nearest_linear): member
 * members[k] competes as offset + members[k] against the best so far,
 * which *best_i and *best_d2 hold on entry and on return; distance ties
 * resolve to the lowest id.  Sets *saw when members holds exclude. */
static inline void nearest_linear(double px, double py, const double *xs,
                                  const double *ys, const i64 *members,
                                  i64 count, i64 exclude, i64 offset,
                                  i64 *best_i, double *best_d2, int *saw)
{
    i64 bi = *best_i;
    double bd2 = *best_d2;
    for (i64 k = 0; k < count; k++) {
        i64 idx = members[k];
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

/* Ring 1 drops the buckets on a side whose edge, GAP_EPS nearer, lies
 * beyond the best d2 (see _ref.GAP_EPS, which states why no tie is lost). */
#define GAP_EPS 1e-12

static inline int beyond(double gap, double best_d2)
{
    return gap > 0.0 && gap * gap > best_d2;
}

/* Nearest member of one candidate set on its grid of side g (see
 * _ref.nearest): bucket c is the slice idx[tab[base + c] ..
 * tab[base + c + 1]), and the buckets of a row form one slice, which
 * nearest_linear scans, so candidates compete as there.  Buckets are visited
 * ring by ring up to ring g / 2, which reaches every bucket, each row of a
 * ring as one slice, or two across the torus seam; a set of one bucket is
 * ring 0 alone, scanned without the ring set-up.  Ring 1 drops the column
 * (or row) on a side whose edge lies beyond the best d2 after ring 0
 * (_ref._ring1_rows); from ring 2 on, the search stops at the first ring
 * that lies beyond the best distance.  Sets *saw when a visited bucket
 * holds exclude. */
static inline void nearest(double px, double py, const double *xs,
                           const double *ys, const i64 *idx, const i64 *tab,
                           i64 base, i64 g, i64 exclude, i64 offset,
                           i64 *best_i, double *best_d2, int *saw)
{
    tab += base;
    if (g == 1) {
        nearest_linear(px, py, xs, ys, idx + tab[0], tab[1] - tab[0], exclude,
                       offset, best_i, best_d2, saw);
        return;
    }
    i64 qcol = cell_index(px, g), qrow = cell_index(py, g), rmax = g / 2;
    double s = 1.0 / g;
/* Buckets first .. last, flat ids of one row: one slice. */
#define SCAN(first, last) \
    nearest_linear(px, py, xs, ys, idx + tab[first], \
                   tab[(last) + 1] - tab[first], exclude, offset, best_i, \
                   best_d2, saw)
/* Columns c0 .. c1 of a row, unwrapped (see _ref._row_slices). */
#define SCAN_ROW(row, c0, c1) do { \
        i64 r_ = wrap(row, g) * g, a_ = wrap(c0, g), b_ = wrap(c1, g); \
        if (a_ <= b_ && (c1) - (c0) < g) { \
            SCAN(r_ + a_, r_ + b_); \
        } else { \
            SCAN(r_ + a_, r_ + g - 1); \
            SCAN(r_, r_ + b_); \
        } \
    } while (0)
    SCAN_ROW(qrow, qcol, qcol);
    /* Ring 1, less the sides beyond the best (see _ref._ring1_rows). */
    int left = !beyond(px - qcol * s - GAP_EPS, *best_d2);
    int right = !beyond((qcol + 1) * s - px - GAP_EPS, *best_d2);
    int below = !beyond(py - qrow * s - GAP_EPS, *best_d2);
    int above = !beyond((qrow + 1) * s - py - GAP_EPS, *best_d2);
    i64 c0 = qcol - left, c1 = qcol + right;
    if (below) SCAN_ROW(qrow - 1, c0, c1);
    if (above) SCAN_ROW(qrow + 1, c0, c1);
    if (left) SCAN_ROW(qrow, qcol - 1, qcol - 1);
    if (right) SCAN_ROW(qrow, qcol + 1, qcol + 1);
    /* Same spans as _ref._ring_rows. */
    for (i64 ring = 2; ring <= rmax; ring++) {
        if (*best_i >= 0) {
            double reach = (ring - 1) * s;
            if (reach * reach > *best_d2) break;
        }
        SCAN_ROW(qrow - ring, qcol - ring, qcol + ring);
        SCAN_ROW(qrow + ring, qcol - ring, qcol + ring);
        for (i64 dr = -ring + 1; dr < ring; dr++) {
            SCAN_ROW(qrow + dr, qcol - ring, qcol - ring);
            SCAN_ROW(qrow + dr, qcol + ring, qcol + ring);
        }
    }
#undef SCAN_ROW
#undef SCAN
}

/* Routes one request (see _ref.trace_one): charges its walk to loads
 * (segment_cells), writes a nonzero status to *status (callers zero it,
 * so a routed request touches no page of it) and returns its hop count:
 * the walk's cells less one, or 1 for a walk of one cell and for a
 * request that finds no holder, which charges the requester's own cell.
 * Content m's holders are searched on the bucket table h_side, h_base,
 * h_tab of _ref.bucket_table over hc_idx; the stations on the layout of
 * _ref.station_layout: a grid of side bs_side, the station indices bs_idx
 * sorted by bucket, and their table bs_tab.  Inlined into trace_range's
 * loop. */
static inline i64 trace_one(i64 n, const double *xs, const double *ys,
                            i64 g, i64 requester, i64 m, const i64 *hc_idx,
                            const i64 *h_side, const i64 *h_base,
                            const i64 *h_tab, const double *bs_x,
                            const double *bs_y, i64 bs_side,
                            const i64 *bs_idx, const i64 *bs_tab, i64 *loads,
                            i64 *status)
{
    i64 best_i = -1;
    double px = xs[requester], py = ys[requester], best_d2 = INFINITY, hx, hy;
    int saw_self = 0, saw_none = 0;
    nearest(px, py, xs, ys, hc_idx, h_tab, h_base[m], h_side[m], requester, 0,
            &best_i, &best_d2, &saw_self);
    /* Station b competes as n + b, after every node: a node wins a distance
     * tie, and the lowest station index wins among stations.  The search
     * starts from the node winner, so a ring search stops at the first
     * ring beyond that node. */
    nearest(px, py, bs_x, bs_y, bs_idx, bs_tab, 0, bs_side, -1, n, &best_i,
            &best_d2, &saw_none);

    if (best_i < 0) {
        loads[cell_index(py, g) * g + cell_index(px, g)] += 1;
        *status = saw_self ? 1 : 2;
        return 1;
    }
    hx = best_i < n ? xs[best_i] : bs_x[best_i - n];
    hy = best_i < n ? ys[best_i] : bs_y[best_i - n];
    i64 cells = segment_cells(px, py, hx, hy, g, loads);
    return cells > 1 ? cells - 1 : 1;
}

/* Writes to order the nodes 0 .. n-1 sorted by their cell on the node grid
 * of side g, row * g + col, stably: np.argsort(_ref.grid_cells(xs, ys, g),
 * kind="stable").  A counting sort that counts in count, g * g entries,
 * zero on entry and again on return.  The binding keeps n below 2^31. */
static void cell_order(i64 n, const double *xs, const double *ys, i64 g,
                       i64 *count, int32_t *order)
{
    i64 cells = g * g, sum = 0;
    for (i64 i = 0; i < n; i++)
        count[cell_index(ys[i], g) * g + cell_index(xs[i], g)] += 1;
    for (i64 c = 0; c < cells; c++) {
        i64 k = count[c];
        count[c] = sum;
        sum += k;
    }
    for (i64 i = 0; i < n; i++)
        order[count[cell_index(ys[i], g) * g + cell_index(xs[i], g)]++] =
            (int32_t)i;
    for (i64 c = 0; c < cells; c++) count[c] = 0;
}

/* One call's inputs and per-request outputs, which its parts share; order
 * is the visit order, or NULL for index order. */
struct batch {
    i64 n, g, bs_side;
    const double *xs, *ys, *bs_x, *bs_y;
    const i64 *req, *hc_idx, *h_side, *h_base, *h_tab, *bs_idx, *bs_tab;
    const int32_t *order;
    i64 *hops, *status;
};

/* Traces the requesters at positions k0 .. k1-1 of the visit order into
 * hops and status, and adds their walks to loads.
 *
 * A holder search starts with a chain of dependent loads from scattered
 * places: h_side[m] and h_base[m], then the content's bucket bounds from
 * h_tab[h_base[m]], then the first holders in hc_idx, then the
 * coordinates of the holders of a content of one bucket (h_side[m] == 1),
 * which nearest scans at once.  In cell order the requesters' own entries
 * of req, xs and ys are scattered as well.  The loop requests each link a
 * few requests ahead in the visit order (group prefetching, Chen,
 * Ailamaki, Gibbons & Mowry, ICDE 2004), once the link before it has had
 * time to arrive, and never beyond its range.  __builtin_prefetch is a
 * cache hint only: it does no arithmetic and changes no result, so _ref.py
 * has nothing to mirror, and it never faults (an entry of h_tab may point
 * one past the end of hc_idx). */
static void trace_range(const struct batch *b, i64 k0, i64 k1, i64 *loads)
{
    i64 n = b->n, g = b->g, bs_side = b->bs_side;
    const double *xs = b->xs, *ys = b->ys, *bs_x = b->bs_x, *bs_y = b->bs_y;
    const i64 *req = b->req, *hc_idx = b->hc_idx, *h_side = b->h_side;
    const i64 *h_base = b->h_base, *h_tab = b->h_tab, *bs_idx = b->bs_idx;
    const i64 *bs_tab = b->bs_tab;
    const int32_t *order = b->order;
    i64 *hops = b->hops, *status = b->status;
    int by_cell = order != NULL;
/* The k-th requester in the visit order. */
#define NODE(k) (by_cell ? (i64)order[k] : (k))
    for (i64 k = k0; k < k1; k++) {
        if (by_cell) {
            if (k + 24 < k1) __builtin_prefetch(&req[order[k + 24]]);
            if (k + 8 < k1) {
                i64 j = order[k + 8];
                __builtin_prefetch(&xs[j]);
                __builtin_prefetch(&ys[j]);
            }
        }
        if (k + 16 < k1) {
            i64 m = req[NODE(k + 16)];
            __builtin_prefetch(&h_side[m]);
            __builtin_prefetch(&h_base[m]);
        }
        if (k + 8 < k1)
            __builtin_prefetch(&h_tab[h_base[req[NODE(k + 8)]]]);
        if (k + 6 < k1)
            __builtin_prefetch(&hc_idx[h_tab[h_base[req[NODE(k + 6)]]]]);
        if (k + 3 < k1) {
            i64 m = req[NODE(k + 3)];
            if (h_side[m] == 1) {
                const i64 *t = h_tab + h_base[m];
                for (i64 j = t[0], hi = t[1]; j < hi; j++) {
                    __builtin_prefetch(&xs[hc_idx[j]]);
                    __builtin_prefetch(&ys[hc_idx[j]]);
                }
            }
        }
        i64 i = NODE(k);
        hops[i] = trace_one(n, xs, ys, g, i, req[i], hc_idx, h_side, h_base,
                            h_tab, bs_x, bs_y, bs_side, bs_idx, bs_tab, loads,
                            &status[i]);
    }
#undef NODE
}

/* One part of a split call: a range of the visit order and the loads it
 * adds to.  On Linux, placed marks a part whose thread start_part created
 * on other CPUs than the caller's, and allowed is the mask it restores. */
struct part {
    const struct batch *batch;
    i64 k0, k1;
    i64 *loads;
#ifdef __linux__
    int placed;
    cpu_set_t allowed;
#endif
};

static void *trace_part(void *arg)
{
    const struct part *p = arg;
#ifdef __linux__
    if (p->placed)
        pthread_setaffinity_np(pthread_self(), sizeof p->allowed, &p->allowed);
#endif
    trace_range(p->batch, p->k0, p->k1, p->loads);
    return NULL;
}

/* Starts part p in a thread of its own; returns 0 when it cannot.
 *
 * On Linux the thread is created on the CPUs, of those the caller may
 * use, other than the caller's own, and trace_part first allows it all of
 * them again: a 2-vCPU guest left a new thread queued behind its creator
 * on one CPU for most of a 40 ms call, so two parts ran no faster than
 * one, while a thread started elsewhere ran beside it (BENCH_29.json).
 * The mask is restored before the part is traced, so the scheduler can
 * still move the thread back, as when the other CPUs are busy.  Where no
 * such mask can be set, the thread is created as usual. */
static int start_part(pthread_t *thread, struct part *p)
{
    pthread_attr_t *use = NULL;
#ifdef __linux__
    pthread_attr_t attr;
    cpu_set_t others;
    int cpu = sched_getcpu();
    p->placed = 0;
    if (cpu >= 0 && sched_getaffinity(0, sizeof p->allowed, &p->allowed) == 0) {
        others = p->allowed;
        CPU_CLR(cpu, &others);
        if (CPU_COUNT(&others) > 0 && pthread_attr_init(&attr) == 0) {
            use = &attr;
            p->placed =
                pthread_attr_setaffinity_np(&attr, sizeof others, &others) == 0;
        }
    }
#endif
    int ok = pthread_create(thread, use, trace_part, p) == 0;
    if (use) pthread_attr_destroy(use);
#ifdef __linux__
    if (!ok) p->placed = 0; /* traced inline, in the caller's thread */
#endif
    return ok;
}

/* The most parts, and so threads, one call splits into, whatever parts
 * the binding passes; _fast._parts picks the count. */
#define PART_LIMIT 8

/* Traces one request per node into hops, loads and status (all zeroed by
 * the caller); see _ref.trace_batch for the rules.
 *
 * With stations (bs_tab's last entry, the station count, above 0), the
 * requesters are visited in cell order (cell_order, into order, which
 * holds n entries; loads serves as its count before any load is added):
 * neighbouring requesters then search the same station buckets, which
 * stay in cache (Mellor-Crummey, Whalley & Kennedy, IJPP 29(3), 2001).
 * Without stations, the nodes are visited in index order and order is not
 * read: there the holder searches of consecutive requesters scatter over
 * the contents anyway, and the order gained nothing.
 *
 * The visit order is split into parts contiguous ranges, at most
 * PART_LIMIT and at most n.  Part 0 runs in the calling thread into loads;
 * part t >= 1 runs in a thread of its own into the t-th slice of g * g
 * entries of spare, which holds parts - 1 slices zeroed by the caller,
 * and after the join that slice is added to loads.  A request writes only
 * its own hops and status, and the loads are integer counts, so neither
 * the order nor the split changes any output.  A part whose thread cannot
 * be started runs inline, so the call cannot fail; with one part, no
 * thread is started. */
void ccn_trace_batch(i64 n, const double *xs, const double *ys, i64 g,
                     const i64 *req, const i64 *hc_idx, const i64 *h_side,
                     const i64 *h_base, const i64 *h_tab, const double *bs_x,
                     const double *bs_y, i64 bs_side, const i64 *bs_idx,
                     const i64 *bs_tab, int32_t *order, i64 *hops,
                     i64 *loads, i64 *status, i64 parts, i64 *spare)
{
    int by_cell = bs_tab[bs_side * bs_side] > 0;
    if (by_cell) cell_order(n, xs, ys, g, loads, order);
    struct batch b = {
        n, g, bs_side, xs, ys, bs_x, bs_y, req, hc_idx, h_side, h_base,
        h_tab, bs_idx, bs_tab, by_cell ? order : NULL, hops, status,
    };
    struct part part[PART_LIMIT];
    pthread_t thread[PART_LIMIT];
    int started[PART_LIMIT] = {0};
    i64 cells = g * g;
    if (parts > PART_LIMIT) parts = PART_LIMIT;
    if (parts > n) parts = n;
    for (i64 t = 1; t < parts; t++) {
        part[t] = (struct part){.batch = &b, .k0 = n * t / parts,
                                .k1 = n * (t + 1) / parts,
                                .loads = spare + (t - 1) * cells};
        started[t] = start_part(&thread[t], &part[t]);
        if (!started[t]) trace_part(&part[t]);
    }
    trace_range(&b, 0, parts > 1 ? n / parts : n, loads);
    for (i64 t = 1; t < parts; t++) {
        if (started[t]) pthread_join(thread[t], NULL);
        for (i64 c = 0; c < cells; c++) loads[c] += part[t].loads[c];
    }
}
