/*
 * Bookkeeping of the lockstep graph wave (repro.index.graph_wave).
 *
 * Per wave, wave_expand picks each active row's next route-pool columns,
 * gathers their CSR neighbours that the row has not seen yet (marking
 * them seen) and lays the frontier out row by row; wave_merge folds a
 * scored frontier back into the route and result pools.  No
 * floating-point arithmetic happens here: the kernel compares, copies
 * and moves similarities NumPy computed, so it leaves the pools, the
 * seen bitsets and the counters exactly as the NumPy bookkeeping in
 * graph_wave.py does.
 *
 * Every array belongs to the calling traversal except the CSR
 * adjacency, which frozen snapshots share and the kernel only reads.
 * Pool and frontier similarities are finite or -inf (score_stack maps
 * whatever does not beat its threshold, NaN included, to -inf), so `>`
 * is the order NumPy's stable argsort of the negated values sorts by.
 *
 * Built by repro/index/wave_kernel.py and called through ctypes.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Mirrors wave_kernel.WaveState field for field. */
typedef struct {
    int64_t b;         /* rows in the wave */
    int64_t width;     /* pool columns per row */
    int64_t n;         /* graph vertices */
    int64_t m;         /* expansions per row per wave */
    int64_t row_cap;   /* most frontier entries one row can gather */
    const int32_t *flat;     /* CSR neighbour ids */
    const int64_t *offsets;  /* CSR row starts, n + 1 */
    const int64_t *width_arr;  /* per row: route pool width */
    const int64_t *cap_arr;    /* per row: result pool cap */
    const uint8_t *active;     /* per row: traverses */
    const uint8_t *const *excluded;  /* per row: n-byte bitset or NULL */
    int64_t *route_ids;   /* (b, width) */
    double *route_sims;   /* (b, width) */
    uint8_t *route_dead;  /* (b, width) */
    int64_t *res_ids;     /* (b, width) */
    double *res_sims;     /* (b, width) */
    uint8_t *seen;        /* (b, n) */
    int64_t *hops;        /* (b) */
    double *thr;          /* (b) out: each row's result floor */
    int64_t *owner;       /* (b * row_cap) out: frontier rows */
    int64_t *cand;        /* (b * row_cap) out: frontier vertex ids */
    int64_t *rows;        /* (b) out: rows a merge touched */
} wave_state;

enum { NO_EXPANSION = -1, NO_MEMORY = -2, OVERFLOW = -3, INVALID = -4 };

/* Runs this short are insertion-sorted; the merges above them keep
 * every sort O(f log f). */
#define RUN 8

/* Ascending sort of distinct ids; tmp holds n entries. */
static void sort_ids(int64_t *a, int64_t *tmp, int64_t n)
{
    if (n <= RUN) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = a[i], j = i;
            for (; j > 0 && a[j - 1] > v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    int64_t h = n / 2, i = 0, j = h, o = 0;
    sort_ids(a, tmp, h);
    sort_ids(a + h, tmp, n - h);
    memcpy(tmp, a, (size_t)h * sizeof *a);
    while (i < h && j < n) {
        int64_t x = tmp[i], y = a[j];
        int right = y < x;  /* branch-free: the outcome is a coin flip */
        a[o++] = right ? y : x;
        i += !right;
        j += right;
    }
    while (i < h)
        a[o++] = tmp[i++];
}

/*
 * The same ids in ascending order, through a zeroed bitset of n bits
 * when the words between the smallest and the largest id are few
 * against a comparison sort of the ids; the bitset is zero again after.
 */
static void order_ids(int64_t *a, int64_t g, int64_t lo, int64_t hi,
                      uint64_t *bits, int64_t *tmp)
{
    if (g < 2)
        return;
    int64_t first = lo >> 6, last = hi >> 6;
    if (last - first >= 8 * g) {
        sort_ids(a, tmp, g);
        return;
    }
    for (int64_t j = 0; j < g; j++)
        bits[a[j] >> 6] |= (uint64_t)1 << (a[j] & 63);
    int64_t o = 0;
    for (int64_t w = first; w <= last; w++) {
        uint64_t word = bits[w];
        bits[w] = 0;
        while (word) {
            a[o++] = (w << 6) + __builtin_ctzll(word);
            word &= word - 1;
        }
    }
}

/* Stable sort of the positions idx[0..n) by key, largest first. */
static void sort_desc(int64_t *idx, int64_t *tmp, int64_t n, const double *key)
{
    if (n <= RUN) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = idx[i], j = i;
            for (; j > 0 && key[v] > key[idx[j - 1]]; j--)
                idx[j] = idx[j - 1];
            idx[j] = v;
        }
        return;
    }
    int64_t h = n / 2, i = 0, j = h, o = 0;
    sort_desc(idx, tmp, h, key);
    sort_desc(idx + h, tmp, n - h, key);
    memcpy(tmp, idx, (size_t)h * sizeof *idx);
    while (i < h && j < n) {
        int64_t x = tmp[i], y = idx[j];
        int right = key[y] > key[x];  /* a tie keeps the left one first */
        idx[o++] = right ? y : x;
        i += !right;
        j += right;
    }
    while (i < h)
        idx[o++] = tmp[i++];
}

/*
 * Fold f >= 1 frontier entries (order: their positions, best first, each
 * scoring above the pool's last column) into a pool row kept best first:
 * the first `width` entries of the stable merge, pool ahead of frontier
 * on ties.  Columns from `limit` on are cut to -inf, and to dead when the
 * pool tracks liveness (dead != NULL); an entry enters the route pool
 * dead unless its score is finite.
 */
static void merge_row(int64_t width, int64_t limit, int64_t *ids, double *sims,
                      uint8_t *dead, const int64_t *f_ids, const double *f_sims,
                      const int64_t *order, int64_t f, int64_t *o_ids,
                      double *o_sims, uint8_t *o_dead)
{
    /* Columns at least as good as the best entrant keep their place:
     * start at the first one below it. */
    double best = f_sims[order[0]];
    int64_t lo = 0, hi = width - 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (sims[mid] < best)
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t i = lo, j = 0;
    for (int64_t t = lo; t < width; t++) {
        /* i + j == t, so the pool never runs out first */
        if (j < f && f_sims[order[j]] > sims[i]) {
            int64_t e = order[j++];
            o_ids[t] = f_ids[e];
            o_sims[t] = f_sims[e];
            if (dead)
                o_dead[t] = (uint8_t)!isfinite(f_sims[e]);
        } else {
            o_ids[t] = ids[i];
            o_sims[t] = sims[i];
            if (dead)
                o_dead[t] = dead[i];
            i++;
        }
    }
    /* Columns before lo that reach past limit were cut when filled. */
    memcpy(ids + lo, o_ids + lo, (size_t)(width - lo) * sizeof *ids);
    for (int64_t t = lo; t < width; t++)
        sims[t] = t < limit ? o_sims[t] : -INFINITY;
    if (dead)
        for (int64_t t = lo; t < width; t++)
            dead[t] = (uint8_t)(o_dead[t] | (t >= limit));
}

/*
 * One wave's selection and gather.  Per row: record its result floor in
 * thr; kill route columns below it; expand the first m live columns (the
 * pool is sorted best first, so these are its m best); append their
 * unseen neighbours to the frontier in adjacency order, marking them
 * seen, and order the row's share by id when m > 1.  Returns the
 * frontier size, or NO_EXPANSION when no row expanded anything.
 */
static int64_t expand_rows(const wave_state *s, uint64_t *bits, int64_t *tmp)
{
    const int64_t width = s->width, n = s->n, m = s->m;
    int64_t f = 0, expanded = 0;
    for (int64_t r = 0; r < s->b; r++) {
        int64_t cap = s->cap_arr[r];
        double thr = s->res_sims[r * width + (cap > 0 ? cap - 1 : 0)];
        s->thr[r] = thr;
        if (!s->active[r])
            continue;
        const int64_t *ids = s->route_ids + r * width;
        const double *sims = s->route_sims + r * width;
        uint8_t *dead = s->route_dead + r * width;
        uint8_t *seen = s->seen + r * n;
        int64_t start = f, taken = 0, lo = n, hi = -1;
        for (int64_t c = 0; c < width; c++) {
            if (sims[c] < thr) {
                /* the pool is sorted: every later column is below too */
                memset(dead + c, 1, (size_t)(width - c));
                break;
            }
            if (taken == m || dead[c] || !isfinite(sims[c]))
                continue;
            dead[c] = 1;
            taken++;
            int64_t v = ids[c];
            for (int64_t e = s->offsets[v]; e < s->offsets[v + 1]; e++) {
                int64_t u = s->flat[e];
                if (seen[u])
                    continue;
                if (f - start == s->row_cap)
                    return OVERFLOW;
                seen[u] = 1;
                s->owner[f] = r;
                s->cand[f++] = u;
                lo = u < lo ? u : lo;
                hi = u > hi ? u : hi;
            }
        }
        s->hops[r] += taken;
        expanded += taken;
        if (m > 1)
            order_ids(s->cand + start, f - start, lo, hi, bits, tmp);
    }
    return expanded ? f : NO_EXPANSION;
}

int64_t wave_expand(const wave_state *s)
{
    uint64_t *bits = calloc((size_t)(s->n >> 6) + 1, sizeof *bits);
    int64_t *tmp = malloc((size_t)(s->row_cap + 1) * sizeof *tmp);
    int64_t f = NO_MEMORY;
    if (bits && tmp)
        f = expand_rows(s, bits, tmp);
    free(bits);
    free(tmp);
    return f;
}

/*
 * The positions of key[0..g) above cutoff, best first, ties in position
 * order: the frontier entries that can enter a pool whose last column
 * holds cutoff (on a tie the pool keeps its place).
 */
static int64_t entrants(const double *key, int64_t g, double cutoff,
                        int64_t *order, int64_t *tmp)
{
    int64_t e = 0;
    for (int64_t j = 0; j < g; j++)
        if (key[j] > cutoff)
            order[e++] = j;
    sort_desc(order, tmp, e, key);
    return e;
}

/* wave_merge over scratch it allocated: order holds 3 f + width entries,
 * o_sims and o_dead width each. */
static int64_t merge_rows(const wave_state *s, const int64_t *owner,
                          const int64_t *cand, const double *sims, int64_t f,
                          int64_t *order, double *o_sims, uint8_t *o_dead)
{
    const int64_t width = s->width;
    int64_t *admitted = order + f, *tmp = order + 2 * f, *o_ids = order + 3 * f;
    int64_t rows = 0;
    for (int64_t start = 0, end; start < f; start = end) {
        int64_t r = owner[start];
        /* rows ascend, so each is visited once and s->rows cannot overflow */
        if (r < 0 || r >= s->b || (rows && r <= s->rows[rows - 1]))
            return INVALID;
        for (end = start; end < f && owner[end] == r; end++)
            if (cand[end] < 0 || cand[end] >= s->n)
                return INVALID;
        const int64_t *g_ids = cand + start;
        const double *key = sims + start;
        int64_t *ids = s->route_ids + r * width, *res_ids = s->res_ids + r * width;
        double *pool = s->route_sims + r * width, *res = s->res_sims + r * width;
        double pool_floor = pool[width - 1], res_floor = res[width - 1];
        const uint8_t *excl = s->excluded[r];
        s->rows[rows++] = r;

        /* One sort serves both pools: each takes the entries above its
         * own floor, a prefix of the sorted order; the result pool then
         * drops the excluded ones, which score -inf there.  A pool
         * nothing enters is left as it was. */
        int64_t e = entrants(key, end - start,
                             pool_floor < res_floor ? pool_floor : res_floor,
                             order, tmp);
        int64_t into_pool = 0, into_res = 0;
        while (into_pool < e && key[order[into_pool]] > pool_floor)
            into_pool++;
        if (into_pool)
            merge_row(width, s->width_arr[r], ids, pool,
                      s->route_dead + r * width, g_ids, key, order, into_pool,
                      o_ids, o_sims, o_dead);
        for (int64_t k = 0; k < e && key[order[k]] > res_floor; k++)
            if (!excl || !excl[g_ids[order[k]]])
                admitted[into_res++] = order[k];
        if (into_res)
            merge_row(width, s->cap_arr[r], res_ids, res, NULL, g_ids, key,
                      admitted, into_res, o_ids, o_sims, NULL);
    }
    return rows;
}

/*
 * Fold a scored, owner-sorted frontier into both pools: the route pool
 * takes every entry (cut to the row's width), the result pool the
 * admissible ones (cut to the row's cap).  Writes the rows it touched
 * to s->rows and returns how many, or INVALID (leaving the rows before
 * the bad one merged) for a row out of order or range or an id out of
 * range.
 */
int64_t wave_merge(const wave_state *s, const int64_t *owner, const int64_t *cand,
                   const double *sims, int64_t f)
{
    const int64_t width = s->width;
    int64_t *order = malloc((size_t)(3 * f + width + 1) * sizeof *order);
    double *o_sims = malloc((size_t)(width + 1) * sizeof *o_sims);
    uint8_t *o_dead = malloc((size_t)width + 1);
    int64_t rows = NO_MEMORY;
    if (order && o_sims && o_dead)
        rows = merge_rows(s, owner, cand, sims, f, order, o_sims, o_dead);
    free(order);
    free(o_sims);
    free(o_dead);
    return rows;
}
