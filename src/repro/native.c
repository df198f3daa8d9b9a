/*
 * The native kernels: the lockstep graph wave's bookkeeping and dense
 * arithmetic (repro.index.graph_wave), and the table sums that score
 * product-quantised rows (repro.store.pq).
 *
 * Per wave, wave_expand picks each active row's next route-pool columns,
 * gathers their CSR neighbours that the row has not seen yet (marking
 * them seen) and lays the frontier out row by row; gather_dot scores the
 * frontier's dense rows and adc_gather its PQ rows; wave_merge folds the
 * scored frontier back into the route and result pools.  The two
 * bookkeeping calls do no floating-point arithmetic: they compare, copy
 * and move the similarities they are given, so they leave the pools, the
 * seen bitsets and the counters exactly as the NumPy bookkeeping in
 * graph_wave.py does.
 *
 * gather_dot and adc_gather are all the arithmetic there is.
 *
 * gather_dot runs under this float contract.  A dense row's similarity
 * against a query row, both D float32 values long, is
 *
 *     float a[8] = {+0.0f, ..., +0.0f};
 *     for d = 0 .. D-1 in order:  a[d % 8] += fl(x[d] * q[d]);
 *     sim = (double)(((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)));
 *
 * every operation a rounded float32 one: no FMA (FLAGS carries
 * -ffp-contract=off, since clang contracts by default) and no
 * reassociation (no -ffast-math or kin).  Eight lanes rather than one
 * sequential sum so that the loop vectorises; the order is fixed, so the
 * bits do not depend on the SIMD width the compiler picks, and a NumPy
 * lane loop (the tests' oracle) reproduces them.
 *
 * adc_gather needs no contract of its own.  A PQ row's score against a
 * query's M lookup tables is
 *
 *     float s = +0.0f;
 *     for m = 0 .. M-1 in order:  s = fl(s + lut[m][code[m]]);
 *
 * which is the order and the rounding of the NumPy sum it replaces
 * (pq._adc_sum adds one float32 vector per sub-space into zeros), so
 * the two paths agree bit for bit, signed zeros, subnormals and
 * infinities included.  A NaN stays a NaN, but where two NaNs meet the
 * payload that survives is the hardware's pick of operand, which
 * NumPy's own loops do not fix either (its vector and scalar adds pick
 * differently).  Finite tables, the only kind a finite query and
 * codebook make, never get there.  M is a handful to a few dozen
 * sub-spaces, so the sequential sum costs little; the time it saves is
 * NumPy's gathered copies of the codes and the table entries.
 *
 * Every array belongs to the caller except the CSR adjacency, the dense
 * matrix and the PQ codes, which frozen snapshots share and the kernels
 * only read.  Pool and frontier similarities are finite or -inf
 * (gather_dot and score_stack map whatever does not beat its threshold,
 * NaN included, to -inf), so `>` is the order NumPy's stable argsort of
 * the negated values sorts by.
 *
 * Built by repro/native.py and called through ctypes.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Mirrors native.WaveState field for field. */
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

/* The contract's dot product of two rows of dim float32 values. */
static double lane_dot(const float *x, const float *q, int64_t dim)
{
    float a[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    int64_t d = 0;
    for (; d + 8 <= dim; d += 8)
        for (int k = 0; k < 8; k++)
            a[k] += x[d + k] * q[d + k];
    for (int k = 0; d < dim; d++, k++)  /* d is a multiple of 8 here */
        a[k] += x[d] * q[d];
    return (double)(((a[0] + a[1]) + (a[2] + a[3])) +
                    ((a[4] + a[5]) + (a[6] + a[7])));
}

/*
 * Score f frontier entries: out[j] is the contract's dot product of
 * dense row cand[j] (of n rows, dim wide) with query row owner[j] (of
 * b), or -inf when that is not above thr[owner[j]] (NaN included).
 * Adds one to evals[owner[j]] per entry.  Both matrices are read in
 * place.  Returns f, or INVALID (writing nothing) when an owner or an
 * id is out of range.
 */
int64_t gather_dot(const float *x, int64_t n, int64_t dim, const float *q,
                   int64_t b, const int64_t *owner, const int64_t *cand,
                   int64_t f, const double *thr, int64_t *evals, double *out)
{
    for (int64_t j = 0; j < f; j++)
        if (owner[j] < 0 || owner[j] >= b || cand[j] < 0 || cand[j] >= n)
            return INVALID;
    for (int64_t j = 0; j < f; j++) {
        int64_t r = owner[j];
        double sim = lane_dot(x + cand[j] * dim, q + r * dim, dim);
        out[j] = sim > thr[r] ? sim : -INFINITY;
        evals[r]++;
    }
    return f;
}

/*
 * Score f PQ rows: out[j] is the sequential float32 sum, from +0.0f and
 * in sub-space order, of luts[owner[j], m, codes[cand[j], m]] for m = 0
 * .. m_sub-1.  codes (n rows of m_sub uint8) and luts (b blocks of m_sub
 * tables of ncent float32) are read in place, and every code is trusted
 * to lie below ncent (PQStore checks its codes once, when it is built).
 * Returns f, or INVALID (writing nothing) when an owner or an id is out
 * of range.
 */
int64_t adc_gather(const uint8_t *codes, int64_t n, int64_t m_sub,
                   const float *luts, int64_t b, int64_t ncent,
                   const int64_t *owner, const int64_t *cand, int64_t f,
                   float *out)
{
    for (int64_t j = 0; j < f; j++)
        if (owner[j] < 0 || owner[j] >= b || cand[j] < 0 || cand[j] >= n)
            return INVALID;
    for (int64_t j = 0; j < f; j++) {
        const uint8_t *code = codes + cand[j] * m_sub;
        const float *lut = luts + owner[j] * m_sub * ncent;
        float s = 0.0f;
        for (int64_t m = 0; m < m_sub; m++, lut += ncent)
            s += lut[code[m]];
        out[j] = s;
    }
    return f;
}
