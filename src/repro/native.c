/*
 * The native kernels: the lockstep graph wave (repro.index.graph_wave) —
 * its bookkeeping, its one row scorer and the call that runs a whole
 * traversal — the lexical scorer's posting-list scatter
 * (repro.sparse.inverted), and the index build's integer bookkeeping and
 * neighbour selection (repro.index.nndescent and repro.index.components).
 *
 * Per wave, wave_expand picks each active row's next route-pool columns,
 * gathers their CSR neighbours that the row has not seen yet (marking
 * them seen) and lays the frontier out row by row; score_rows scores the
 * frontier; wave_merge folds the scored frontier back into the route and
 * result pools.  The two bookkeeping calls do no floating-point
 * arithmetic: they compare, copy and move the similarities they are
 * given, so they leave the pools, the seen bitsets and the counters
 * exactly as their NumPy oracle in the test suite (tests/oracles.py) does.
 *
 * The search makes one traversal call, wave_run: it empties every row's
 * routing state (the arrays are kept per graph and reused, so it finds
 * the last traversal's there), then takes its init (each row's prefix of
 * the graph's entry order, marked seen, scored and merged) and every
 * wave, expand, score, merge, the same functions in the same order as
 * the test suite's step loop calls them through wave_expand, score_rows
 * and wave_merge, until no row expands.  It leaves the same bits as
 * those calls, wave by wave, on routing state the step loop empties the
 * same way.  A row whose beam would cover what it can report is scanned
 * instead: one score_rows call over every vertex.
 *
 * score_rows is the one row scorer, for every kind of row.  A row whose
 * query has a concat vector (Lemma 1) is one dot product with the
 * omega-scaled concatenation.  Every other row (a compressed store's, or
 * a query's that needs a modality the index weights zeroed) is
 *
 *     double s = +0.0;
 *     for each modality i the row carries, in order:
 *         s += w2[r, i] * (double) dot_i;
 *
 * in float64, every operation rounded (no contraction), where dot_i is
 * the float32 inner product of the stored row with the row's query:
 *   - dense (the zero-weight fallback): the lane contract below over the
 *     stored float32 row;
 *   - int8: the lane contract over the codes, each product
 *     fl((float)code[d] * q_scaled[d]), plus the query's offset in one
 *     float32 add (q_scaled = step * q and offset = low . q, both float32,
 *     come prepared with the query stack);
 *   - PQ: the sequential table sum below.
 *
 * score_rows, prune_rows and lex_scatter are all the arithmetic there
 * is.  lex_scatter adds a query's BM25 or TF-IDF term contributions at
 * their posting rows in float64, term by term in ascending order, each
 * in the operation order of the NumPy loop it replaced (stated above
 * it), so that loop, the tests' oracle, gives the same bits.  The local
 * join's kernels, join_number and join_fill, and the angle selection's
 * greedy_pick do none: they number ids, copy similarities a NumPy matmul
 * computed and read a boolean matrix NumPy compared.  prune_rows, the
 * MRNG / alpha-RNG selection, scores the candidate pairs its greedy scan
 * reads under the lane contract, and compares them in float64 as its
 * NumPy oracle does, which scores every pair with a lane loop of the same
 * bits.  So the oracle builds the same graph, bit for bit.
 *
 * The lane contract.  A dense row's similarity against another (a query
 * row, or a candidate), both D float32 values long, is
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
 * lane loop (the tests' oracle) reproduces them.  An int8 row runs the
 * same lanes over codes widened to float32, which is exact.
 *
 * The PQ sum.  A PQ row's score against a query's M lookup tables is
 *
 *     float s = +0.0f;
 *     for m = 0 .. M-1 in order:  s = fl(s + lut[m][code[m]]);
 *
 * which is the order and the rounding of the NumPy sum it replaced (the
 * tests' oracle adc_sum adds one float32 vector per sub-space into
 * zeros), so the two agree bit for bit, signed zeros, subnormals and
 * infinities included.  A NaN stays a NaN, but where two NaNs meet the
 * payload that survives is the hardware's pick of operand, which
 * NumPy's own loops do not fix either (its vector and scalar adds pick
 * differently).  Finite tables, the only kind a finite query and
 * codebook make, never get there.  M is a handful to a few dozen
 * sub-spaces, so the sequential sum costs little.
 *
 * Every array belongs to the caller except the CSR adjacency and the
 * stored rows (the concatenation, the dense rows, the int8 and PQ
 * codes), which frozen snapshots share and the kernels only read.  Pool
 * and frontier similarities are finite or -inf (score_rows maps whatever
 * does not beat its threshold, NaN included, to -inf), so `>` is the
 * order NumPy's stable argsort of the negated values sorts by.
 *
 * Built by repro/native.py at import, which fails without a C compiler,
 * and called through ctypes.
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
    /* Sized exactly (a pool is never 0 wide), so a column written past
     * the pool's width is an out-of-bounds write the sanitizers report. */
    const int64_t width = s->width;
    int64_t *order = malloc((size_t)(3 * f + width) * sizeof *order);
    double *o_sims = malloc((size_t)width * sizeof *o_sims);
    uint8_t *o_dead = malloc((size_t)width);
    int64_t rows = NO_MEMORY;
    if (order && o_sims && o_dead)
        rows = merge_rows(s, owner, cand, sims, f, order, o_sims, o_dead);
    free(order);
    free(o_sims);
    free(o_dead);
    return rows;
}

/* The contract's eight-lane float32 sum of x[d] * q[d], d = 0 .. dim-1,
 * over float32 rows (lane_sum) and over uint8 codes, each widened to
 * float32 exactly before its product (lane_sum_u8). */
#define LANE_SUM(name, type)                                                 \
    static float name(const type *x, const float *q, int64_t dim)            \
    {                                                                        \
        float a[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};       \
        int64_t d = 0;                                                       \
        for (; d + 8 <= dim; d += 8)                                         \
            for (int k = 0; k < 8; k++)                                      \
                a[k] += (float)x[d + k] * q[d + k];                          \
        for (int k = 0; d < dim; d++, k++) /* d is a multiple of 8 here */   \
            a[k] += (float)x[d] * q[d];                                      \
        return ((a[0] + a[1]) + (a[2] + a[3])) +                             \
               ((a[4] + a[5]) + (a[6] + a[7]));                              \
    }
LANE_SUM(lane_sum, float)
LANE_SUM(lane_sum_u8, uint8_t)

/* The contract's dot product of two rows of dim float32 values. */
static double lane_dot(const float *x, const float *q, int64_t dim)
{
    return (double)lane_sum(x, q, dim);
}

/* The kinds of stored rows an operand holds (native.py mirrors them). */
enum { DENSE_ROWS = 0, INT8_ROWS = 1, PQ_ROWS = 2 };

/* One modality of the row scorer (native.Operand): a store's hot rows and
 * the stack of queries prepared for them. */
typedef struct {
    int64_t kind;          /* DENSE_ROWS, INT8_ROWS or PQ_ROWS */
    int64_t width;         /* values a row: d, or PQ's M sub-spaces */
    int64_t ncent;         /* PQ: entries per table */
    const void *rows;      /* (n, width): float32, or uint8 codes */
    const float *queries;  /* (stack, width): the queries, int8's step-scaled
                            * ones, or PQ's (stack, width, ncent) tables */
    const float *offset;   /* int8: (stack) each query's offset */
    const int64_t *slot;   /* (b): a row's query in the stack, -1 for none */
    const double *w2;      /* (b): a row's omega^2 of this modality */
} operand;

/* The row scorer (native.ScorerState). */
typedef struct {
    int64_t b;             /* rows: the batch's queries */
    int64_t n;             /* vertices: the rows of every matrix below */
    const uint8_t *fast;   /* (b): scored on the concatenation; NULL: all */
    const float *concat;   /* (n, dim): the omega-scaled concatenation */
    int64_t dim;
    const float *qmat;     /* (b, dim): each fast row's query */
    int64_t m;             /* operands, in modality order */
    const operand *mods;
    int64_t *evals;        /* (b): joint evaluations, one per entry */
} row_scorer;

/* A row off the concatenation: over its operands in modality order,
 * s += w2 * (double) dot in float64, dot the row kind's float32 one. */
static double modality_sum(const row_scorer *sc, int64_t r, int64_t v)
{
    double s = 0.0;
    for (int64_t i = 0; i < sc->m; i++) {
        const operand *o = sc->mods + i;
        const int64_t k = o->slot[r], w = o->width;
        if (k < 0)
            continue;
        float dot = 0.0f;
        if (o->kind == PQ_ROWS) {
            const uint8_t *code = (const uint8_t *)o->rows + v * w;
            const float *lut = o->queries + k * w * o->ncent;
            for (int64_t t = 0; t < w; t++, lut += o->ncent)
                dot += lut[code[t]];
        } else if (o->kind == INT8_ROWS) {
            dot = lane_sum_u8((const uint8_t *)o->rows + v * w,
                              o->queries + k * w, w) + o->offset[k];
        } else {
            dot = lane_sum((const float *)o->rows + v * w, o->queries + k * w, w);
        }
        s += o->w2[r] * (double)dot;
    }
    return s;
}

/*
 * Score f frontier entries: out[j] is row owner[j]'s similarity to vertex
 * cand[j], or -inf when that is not above thr[owner[j]] (NaN included).
 * Adds one to evals[owner[j]] per entry.  Every matrix is read in place.
 * Returns f, or INVALID (writing nothing) when an owner or an id is out
 * of range.
 */
int64_t score_rows(const row_scorer *sc, const int64_t *owner,
                   const int64_t *cand, int64_t f, const double *thr,
                   double *out)
{
    for (int64_t j = 0; j < f; j++)
        if (owner[j] < 0 || owner[j] >= sc->b || cand[j] < 0 || cand[j] >= sc->n)
            return INVALID;
    const uint8_t *fast = sc->fast;
    const float *concat = sc->concat, *qmat = sc->qmat;
    const int64_t dim = sc->dim;
    int64_t *evals = sc->evals;
    for (int64_t j = 0; j < f; j++) {
        int64_t r = owner[j], v = cand[j];
        double sim = !fast || fast[r]
                         ? lane_dot(concat + v * dim, qmat + r * dim, dim)
                         : modality_sum(sc, r, v);
        out[j] = sim > thr[r] ? sim : -INFINITY;
        evals[r]++;
    }
    return f;
}

/* The init frontier's size, the sum of len[0..b), or INVALID for a
 * length outside [0, n] or an entry id it covers outside [0, n). */
static int64_t init_size(const wave_state *s, const int64_t *entry,
                         const int64_t *len)
{
    int64_t f = 0, longest = 0;
    for (int64_t r = 0; r < s->b; r++) {
        if (len[r] < 0 || len[r] > s->n)
            return INVALID;
        longest = len[r] > longest ? len[r] : longest;
        f += len[r];
    }
    for (int64_t j = 0; j < longest; j++)
        if (entry[j] < 0 || entry[j] >= s->n)
            return INVALID;
    return f;
}

/* Algorithm 2's init frontier, laid out as the step loop's init lays
 * it out: row by row, row r's first len[r] vertices of the entry order
 * in that order, each marked seen.  Trusts what init_size checked. */
static void init_frontier(const wave_state *s, const int64_t *entry,
                          const int64_t *len, int64_t *owner, int64_t *cand)
{
    int64_t f = 0;
    for (int64_t r = 0; r < s->b; r++) {
        uint8_t *seen = s->seen + r * s->n;
        for (int64_t j = 0; j < len[r]; j++) {
            seen[entry[j]] = 1;
            owner[f] = r;
            cand[f++] = entry[j];
        }
    }
}

/* Every row's routing state empty: route pools at -inf, dead, their ids
 * 0, seen bitsets clear. */
static void clear_routes(const wave_state *s)
{
    const int64_t cells = s->b * s->width;
    memset(s->route_ids, 0, (size_t)cells * sizeof *s->route_ids);
    for (int64_t c = 0; c < cells; c++)
        s->route_sims[c] = -INFINITY;
    memset(s->route_dead, 1, (size_t)cells);
    memset(s->seen, 0, (size_t)(s->b * s->n));
}

/*
 * A whole traversal, scored by sc (b rows over n vertices, as s).  It
 * starts every row's routing state empty (clear_routes), whatever the
 * arrays held: the caller keeps them from one traversal to the next.
 * The result pools and hop counts are the caller's to start.  First
 * its init: each row r's first len[r] vertices of the entry order (n of
 * them) are marked seen and laid out as one frontier, row by row, which
 * score_rows scores against a -inf threshold and merge_rows folds into
 * the pools.  Then every wave: expand_rows, score_rows, merge_rows, until
 * no row expands.  Each wave's frontier size goes to sizes, which holds
 * cap of them; n + 1 always suffice, since a row that expands nothing
 * never expands again and no row expands a vertex twice.  Returns the
 * number of waves, or INVALID (writing nothing) for a scorer of another
 * shape, an init length outside [0, n] or an entry id outside [0, n);
 * after that OVERFLOW when a wave finds sizes full, INVALID where
 * score_rows or merge_rows refuse and NO_MEMORY, each leaving the
 * traversal part way through a wave.
 */
int64_t wave_run(const wave_state *s, const int64_t *entry, const int64_t *len,
                 const row_scorer *sc, int64_t *sizes, int64_t cap)
{
    if (sc->b != s->b || sc->n != s->n)
        return INVALID;
    const int64_t f_init = init_size(s, entry, len);
    if (f_init < 0)
        return f_init;
    /* Scratch for the largest frontier, once: a wave's holds at most
     * row_cap entries a row. */
    const int64_t f_wave = s->b * s->row_cap;
    const int64_t f_max = f_init > f_wave ? f_init : f_wave;
    uint64_t *bits = calloc((size_t)(s->n >> 6) + 1, sizeof *bits);
    int64_t *tmp = malloc((size_t)(s->row_cap + 1) * sizeof *tmp);
    int64_t *init = malloc((size_t)(2 * f_init + 1) * sizeof *init);
    double *sims = malloc((size_t)(f_max + 1) * sizeof *sims);
    /* The merge's scratch sized exactly, as in wave_merge. */
    int64_t *order = malloc((size_t)(3 * f_max + s->width) * sizeof *order);
    double *o_sims = malloc((size_t)s->width * sizeof *o_sims);
    uint8_t *o_dead = malloc((size_t)s->width);
    int64_t waves = 0, status = NO_MEMORY;
    if (bits && tmp && init && sims && order && o_sims && o_dead) {
        int64_t *owner = init, *cand = init + f_init;
        clear_routes(s);
        init_frontier(s, entry, len, owner, cand);
        for (int64_t r = 0; r < s->b; r++)
            s->thr[r] = -INFINITY;
        status = score_rows(sc, owner, cand, f_init, s->thr, sims);
        if (status >= 0)
            status = merge_rows(s, owner, cand, sims, f_init, order, o_sims,
                                o_dead);
        while (status >= 0) {
            int64_t f = expand_rows(s, bits, tmp);
            if (f == NO_EXPANSION) {
                status = waves;
                break;
            }
            if (f < 0 || waves == cap) {
                status = f < 0 ? f : OVERFLOW;
                break;
            }
            sizes[waves++] = f;
            if (f == 0)
                continue;
            status = score_rows(sc, s->owner, s->cand, f, s->thr, sims);
            if (status >= 0)
                status = merge_rows(s, s->owner, s->cand, sims, f, order,
                                    o_sims, o_dead);
        }
    }
    free(bits);
    free(tmp);
    free(init);
    free(sims);
    free(order);
    free(o_sims);
    free(o_dead);
    return status;
}

/*
 * The lexical scatter (repro.sparse.inverted.sparse_scores_inverted):
 * a query's BM25 or TF-IDF score on every row of a sparse plane, through
 * the plane's postings (CSC: term t's rows indices[indptr[t] ..
 * indptr[t + 1]), distinct, with their term frequencies tf).  The count
 * query terms are taken in the order given, ascending in the query's
 * canonical form; a term outside [0, vocab) has no postings.  At each of
 * term t's rows r it adds, in float64, every operation rounded,
 *
 *     bm25:   norm = k1 * ((1 - b) + b * (dl[r] / avgdl));
 *             out[r] += w[t] * ((tf * (k1 + 1)) / (tf + norm));
 *     tfidf:  out[r] += w[t] * tf;
 *
 * which are the operations, in their order, of the per-term NumPy loop
 * it replaced (the tests' oracle), so the two agree bit for bit.  bm25
 * holds {k1, b, avgdl}, or is NULL for TF-IDF.  out (n values) comes
 * zeroed; touched (n entries suffice) receives the rows any term
 * reached, ascending, each once.  Returns their number, or INVALID (with
 * out part written) for a posting row outside [0, n).
 */
int64_t lex_scatter(const int64_t *indptr, const int64_t *indices,
                    const double *tf, int64_t vocab, const double *dl,
                    int64_t n, const int64_t *terms, const double *w,
                    int64_t count, const double *bm25, double *out,
                    int64_t *touched)
{
    uint64_t *bits = calloc((size_t)(n >> 6) + 1, sizeof *bits);
    if (!bits)
        return NO_MEMORY;
    const double k1 = bm25 ? bm25[0] : 0.0, b = bm25 ? bm25[1] : 0.0;
    const double avgdl = bm25 ? bm25[2] : 1.0;
    const double keep = 1.0 - b, scale = k1 + 1.0;
    int64_t g = 0, lo = n, hi = -1;
    for (int64_t q = 0; q < count; q++) {
        const int64_t t = terms[q];
        if (t < 0 || t >= vocab)
            continue;
        const double wt = w[q];
        for (int64_t e = indptr[t]; e < indptr[t + 1]; e++) {
            const int64_t r = indices[e];
            if (r < 0 || r >= n) {
                free(bits);
                return INVALID;
            }
            const double f = tf[e];
            out[r] += bm25 ? wt * ((f * scale) /
                                   (f + k1 * (keep + b * (dl[r] / avgdl))))
                           : wt * f;
            const uint64_t bit = (uint64_t)1 << (r & 63);
            if (!(bits[r >> 6] & bit)) {
                bits[r >> 6] |= bit;
                touched[g++] = r;
                lo = r < lo ? r : lo;
                hi = r > hi ? r : hi;
            }
        }
    }
    /* bits holds exactly the touched rows, which order_ids reads as its
     * zeroed bitset with them marked */
    int64_t status = g;
    int64_t *tmp = malloc((size_t)(g + 1) * sizeof *tmp);
    if (tmp)
        order_ids(touched, g, lo, hi, bits, tmp);
    else
        status = NO_MEMORY;
    free(tmp);
    free(bits);
    return status;
}

/*
 * The build's local join (repro.index.nndescent.block_candidate_sims)
 * is join_number, one BLAS matmul in NumPy, then join_fill.
 *
 * join_number marks the count candidate ids of a block (any order,
 * repeats allowed) and numbers the distinct ones ascending: uniq[p] is
 * the p-th smallest and pos[uniq[p]] = p; no other entry of pos (n of
 * them) is written.  Returns the number of distinct ids, or INVALID
 * (writing nothing) when an id lies outside [0, n).
 */
int64_t join_number(const int32_t *cand, int64_t count, int64_t n,
                    int32_t *pos, int64_t *uniq)
{
    uint64_t *bits = calloc((size_t)(n >> 6) + 1, sizeof *bits);
    if (!bits)
        return NO_MEMORY;
    for (int64_t j = 0; j < count; j++) {
        int32_t v = cand[j];
        if (v < 0 || v >= n) {
            free(bits);
            return INVALID;
        }
        bits[v >> 6] |= (uint64_t)1 << (v & 63);
    }
    int64_t u = 0;
    for (int64_t w = 0; w <= n >> 6; w++) {
        for (uint64_t word = bits[w]; word; word &= word - 1) {
            int64_t v = (w << 6) + __builtin_ctzll(word);
            pos[v] = (int32_t)u;
            uniq[u++] = v;
        }
    }
    free(bits);
    return u;
}

/*
 * Fill a block's b x c candidate similarities from sub, the b block
 * rows against the u ids join_number numbered (b x u, row-major):
 * sims[r, j] = sub[r, pos[cand[r, j]]].  A row's self-references
 * (cand[r, j] == block[r]) and every repeat of a candidate but its last
 * column get -inf, so each distinct candidate keeps its similarity
 * once; the last column is the one NumPy's scatter, the tests' oracle,
 * lets win.  Returns b * c, or INVALID (with part of sims written) for an id
 * outside [0, n) or one pos numbers outside [0, u).
 */
int64_t join_fill(const int32_t *cand, int64_t b, int64_t c,
                  const int64_t *block, int64_t n, const int32_t *pos,
                  int64_t u, const float *sub, float *sims)
{
    /* stamp[p] == r + 1: row r has met the candidate numbered p */
    int64_t *stamp = calloc((size_t)u + 1, sizeof *stamp);
    if (!stamp)
        return NO_MEMORY;
    for (int64_t r = 0; r < b; r++) {
        const int32_t *ids = cand + r * c;
        const float *row = sub + r * u;
        float *out = sims + r * c;
        const int64_t self = block[r], mark = r + 1;
        for (int64_t j = c - 1; j >= 0; j--) {
            int32_t v = ids[j];
            int32_t p = v >= 0 && v < n ? pos[v] : -1;
            if (p < 0 || p >= u) {
                free(stamp);
                return INVALID;
            }
            /* branch-free: whether a column repeats is a coin flip */
            float pick[2] = {-INFINITY, row[p]};
            int keep = (v != self) & (stamp[p] != mark);
            stamp[p] = mark;
            out[j] = pick[keep];
        }
    }
    free(stamp);
    return b * c;
}

/*
 * The alpha-RNG selection (MRNG at alpha = 1) of rows vertices at once.
 * Row r of cand (rows x c) lists vertex r's candidates closest first, -1
 * for padding anywhere in the row, and row r of sims their similarities
 * to the vertex.  Per row, over its candidates in order: the first is
 * picked; a later candidate j is picked unless a candidate u picked
 * before it blocks it, until gamma are picked.  The scan asks the picked
 * ones in pick order and stops at the first that blocks, and only then
 * scores the pair: cc = lane_dot(x[j], x[u]), under the contract above.
 * u blocks j when, in float64,
 *
 *     (alpha * alpha) * (2 total - 2 cc) <= 2 total - 2 sims[j],
 *
 * squared distances through d^2 = 2 S - 2 IP (every concatenated row has
 * the squared norm total), evaluated in that order.  Row r's picks go to
 * picked[r * c ...], in candidate order, and their number to counts[r].
 * Returns rows, or INVALID (writing nothing) when an id is neither -1 nor
 * in [0, n).
 */
int64_t prune_rows(const float *x, int64_t n, int64_t dim, const int64_t *cand,
                   const double *sims, int64_t rows, int64_t c, int64_t gamma,
                   double total, double alpha, int64_t *picked, int64_t *counts)
{
    for (int64_t j = 0; j < rows * c; j++)
        if (cand[j] < -1 || cand[j] >= n)
            return INVALID;
    /* per row: its candidates' positions, padding dropped, then the
     * positions picked so far */
    int64_t *valid = malloc((size_t)(2 * c + 1) * sizeof *valid);
    if (!valid)
        return NO_MEMORY;
    int64_t *sel = valid + c;
    const double a2 = alpha * alpha, two_s = 2.0 * total;
    for (int64_t r = 0; r < rows; r++) {
        const int64_t *ids = cand + r * c;
        const double *sim = sims + r * c;
        int64_t m = 0, count = 0;
        for (int64_t j = 0; j < c; j++)
            if (ids[j] >= 0)
                valid[m++] = j;
        for (int64_t t = 0; t < m && (t == 0 || count < gamma); t++) {
            const int64_t j = valid[t];
            const float *xj = x + ids[j] * dim;
            const double d_v = two_s - 2.0 * sim[j];
            int64_t s = 0;
            for (; s < count; s++) {
                double cc = lane_dot(xj, x + ids[sel[s]] * dim, dim);
                if (a2 * (two_s - 2.0 * cc) <= d_v)
                    break;
            }
            if (s == count)
                sel[count++] = j;
        }
        for (int64_t s = 0; s < count; s++)
            picked[r * c + s] = ids[sel[s]];
        counts[r] = count;
    }
    free(valid);
    return rows;
}

/*
 * The angle selection's greedy pick over a c x c domination matrix
 * (dominated[j * c + s] != 0: candidate s, once picked, blocks j), its
 * rows in candidate order, closest first.  Candidate 0 is always
 * picked; then, in order, each candidate no picked one blocks, until
 * gamma are picked.  Writes the picks, ascending, to selected (c
 * entries suffice) and returns how many, or INVALID when c < 1.
 */
int64_t greedy_pick(const uint8_t *dominated, int64_t c, int64_t gamma,
                    int64_t *selected)
{
    if (c < 1)
        return INVALID;
    int64_t count = 1;
    selected[0] = 0;
    for (int64_t j = 1; j < c && count < gamma; j++) {
        const uint8_t *blocked = dominated + j * c;
        int64_t s = 0;
        while (s < count && !blocked[selected[s]])
            s++;
        if (s == count)
            selected[count++] = j;
    }
    return count;
}
