/* The compiled loops: the direct dynamics' direct_trials and rwre's
 * first_returns, each a range of trials per call on Philox streams it keys
 * itself and reads inline (direct_trials also one trial on a given numpy bit
 * generator).  direct_trials holds each walker as a pointer to the weight of
 * the edge on its site's right, so an event reads and reinforces weights
 * through it, two walkers meet when their pointers are equal, and the sites
 * are worked out from the pointers only when a window grows and when a trial
 * ends.  It decides a step by a product, and by the division that defines
 * it only near a tie, with the same outcome bit for bit.  Its one source
 * loop, run_trials, is inlined twice: once with no bit generator and no log,
 * which the keyed trials of a batch take, so that loop tests neither per
 * event.  reinforce_sim.native builds this file into one shared library at
 * -O3, linked with numpy's libnpyrandom, and types its entries for ctypes;
 * direct and rwre call them through it. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <numpy/random/bitgen.h>

/* numpy's standard gamma draw, the one Generator.gamma makes; declared here
 * because numpy/random/distributions.h includes Python.h. */
double random_standard_gamma(bitgen_t *bitgen_state, double shape);

/* A Philox4x64-10 stream, numpy's Philox bit for bit (Salmon et al., SC'11):
 * the two key words are numpy's hash of the seed, and each block of four
 * words is the ten-round cipher of the counter, which goes up by one, with
 * the carry, before the block is made.  philox_word serves the words in
 * order; the loops here inline it, and the exported bitgen_t callbacks
 * below, which numpy's gamma draw calls, wrap it: next_uint32 serves each
 * word's low half, then keeps its high half for the next call, as numpy
 * does, and next_double is the word's top 53 bits times 2**-53.  The block,
 * made every fourth word, is philox_block, a call that is never inlined, so
 * the event loops that read the words stay small: inlined, the ten rounds
 * left direct_trials' loop at 14 to 20 ns per event at -O3 as the compiler's
 * code layout varied, and called, at 14 under each layout tried. */
struct philox {
    uint64_t counter[4], key[2], buffer[4];
    int buffer_pos, has_uint32;
    uint32_t uinteger;
};

static uint64_t __attribute__((noinline)) philox_block(struct philox *s)
{
    for (int i = 0; i < 4 && ++s->counter[i] == 0; i++)
        ;
    uint64_t x[4] = {s->counter[0], s->counter[1], s->counter[2], s->counter[3]};
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * x[0];
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * x[2];
        uint64_t y[4] = {(uint64_t)(p1 >> 64) ^ x[1] ^ k0, (uint64_t)p1,
                         (uint64_t)(p0 >> 64) ^ x[3] ^ k1, (uint64_t)p0};
        for (int i = 0; i < 4; i++)
            x[i] = y[i];
    }
    for (int i = 0; i < 4; i++)
        s->buffer[i] = x[i];
    s->buffer_pos = 1;
    return x[0];
}

static inline uint64_t philox_word(struct philox *s)
{
    return s->buffer_pos < 4 ? s->buffer[s->buffer_pos++] : philox_block(s);
}

/* A uniform on [0, 1) from the top 53 bits of a word, as numpy makes it. */
static inline double unit_double(uint64_t word)
{
    return (double)(word >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t philox_next64(void *state)
{
    return philox_word(state);
}

uint32_t philox_next32(void *state)
{
    struct philox *s = state;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t next = philox_word(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

double philox_next_double(void *state)
{
    return unit_double(philox_word(state));
}

/* Make s stream (seed, trial, role) of distributions.RngStream, a fresh one:
 * the counter [0, 0, trial, role], under the seed's key words, with nothing
 * buffered. */
static void philox_key(struct philox *s, const uint64_t key[2], uint64_t trial, uint64_t role)
{
    *s = (struct philox){{0, 0, trial, role}, {key[0], key[1]}, {0, 0, 0, 0}, 4, 0, 0};
}

/* A weight window: the weights of the edges [lo, lo + width) at w, an edge
 * named by the site on its left, sites counted from l0. */
struct window {
    double *w;
    int64_t lo, width;
};

/* Widen walker i's window, win[home[i]], to the edges [lo, hi) too, and to
 * the other walker's window if the two would then touch, which both walkers
 * then share; new edges weigh a.  A walker stays on the sites of its
 * window's edges, so walkers in windows that do not touch cannot meet.
 * Returns 0, or -1 if memory runs out. */
static int cover(struct window win[2], int64_t home[2], int64_t n, int64_t i, int64_t lo,
                 int64_t hi, double a)
{
    struct window *own = &win[home[i]], *other = &win[home[n - 1 - i]], *parts[2] = {own, NULL};
    for (int c = 0; c < 2 && parts[c]; c++) {
        lo = parts[c]->lo < lo ? parts[c]->lo : lo;
        hi = parts[c]->lo + parts[c]->width > hi ? parts[c]->lo + parts[c]->width : hi;
        if (other != own && lo <= other->lo + other->width && other->lo <= hi)
            parts[1] = other;
    }
    double *w = malloc((size_t)(hi - lo + 1) * sizeof(double));  /* and one spare */
    if (!w)
        return -1;
    for (int64_t k = 0; k < hi - lo; k++)
        w[k] = a;
    for (int c = 0; c < 2 && parts[c]; c++) {
        for (int64_t k = 0; k < parts[c]->width; k++)
            w[parts[c]->lo - lo + k] = parts[c]->w[k];
        free(parts[c]->w);
        *parts[c] = (struct window){NULL, lo, 0};
    }
    if (parts[1])
        home[n - 1 - i] = home[i];
    *own = (struct window){w, lo, hi - lo};
    return 0;
}

/* Point walkers 0, ..., n - 1 at the weight of the edge on their sites'
 * right, walker j at x[j] in its window win[home[j]], whose weights [lo[j],
 * hi[j]) it may read and step within. */
static void place(const struct window win[2], const int64_t home[2], const int64_t x[2],
                  int64_t n, double *p[2], double *lo[2], double *hi[2])
{
    for (int64_t j = 0; j < n; j++) {
        lo[j] = win[home[j]].w;
        hi[j] = lo[j] + win[home[j]].width;
        p[j] = lo[j] + (x[j] - win[home[j]].lo);
    }
}

/* Trials t0, t0 + 1, ..., t0 + trials - 1 (mod 2**64) of direct.run_direct,
 * one after another: each on rng if rng is not NULL, else trial t on stream
 * (seed, t), keyed here from the seed's key words as distributions.RngStream
 * keys it and read inline, as philox_word.  A trial runs up to budget events
 * of the n walkers (1 or 2), walker 0 from site 0 and walker 1 from gap, each
 * event on the next two words of its stream, with the outcomes that
 * run_direct states (see the step below): the mover, int(n * u) for
 * the first word's uniform u, is 0 for a lone walker and the word's top bit
 * for two; the step's uniform is the top 53 bits of the next word times
 * 2**-53, as numpy's Generator.random makes it (rng's next_double).  A trial
 * stops after the limit-th meeting, checked before an event draws.  Walker
 * i's first window holds the edges within reach sites of its start, and
 * doubles on the side the walker reaches.  A walker is a pointer, p[i], to
 * the weight of the edge on its site's right; its site x[i] is brought up to
 * date from p[i]'s offset in its window only when a window grows and when
 * the trial ends.  A window holds one spare cell past its last edge, so a
 * walker's pointer never leaves its window's allocation, and two walkers
 * coincide exactly when their pointers are equal.  Row i of out, six int64,
 * gets trial t0 + i's meetings, events run, walkers' offsets from their
 * starts and their windows' widths.  If log is not NULL, (*log)[e] gets 2 *
 * walker + 1 if event e + 1 moves its walker right, 2 * walker if left, for
 * a run of one trial, in a buffer (NULL at first) that doubles as the events
 * run, which the caller frees.  Returns 0, or -1 if memory runs out.
 * direct_trials below is this function, inlined twice. */
static inline __attribute__((always_inline)) int64_t
run_trials(uint64_t key0, uint64_t key1, uint64_t t0, int64_t trials, bitgen_t *rng, int64_t n,
           double a, double delta, int64_t gap, int64_t reach, int64_t budget, int64_t limit,
           int8_t **log, int64_t *out)
{
    struct philox s;
    int64_t cap = 0, failed = 0;
    for (int64_t t = 0; t < trials && !failed; t++, out += 6) {
        struct window win[2] = {{NULL, 0, 0}, {NULL, gap, 0}};
        int64_t home[2] = {0, 1}, x[2] = {0, gap}, meetings = n == 2 && gap == 0, e = 0;
        double *p[2] = {NULL, NULL}, *lo[2], *hi[2];
        philox_key(&s, (const uint64_t[2]){key0, key1}, t0 + (uint64_t)t, 0);
        for (int64_t j = 0; j < n && !failed; j++)
            failed = cover(win, home, n, j, x[j] - reach, x[j] + reach, a);
        place(win, home, x, n, p, lo, hi);
        for (; !failed && e < budget && meetings < limit; e++) {
            if (log && e == cap) {
                int8_t *grown = realloc(*log, (size_t)(cap = 2 * cap + 1));
                if ((failed = !grown))
                    break;
                *log = grown;
            }
            int64_t i = ((rng ? rng->next_uint64(rng->state) : philox_word(&s)) >> 63) & (n - 1);
            if (p[i] <= lo[i] || p[i] >= hi[i]) {  /* an edge beside walker i is outside */
                for (int64_t j = 0; j < n; j++)
                    x[j] = win[home[j]].lo + (p[j] - lo[j]);
                struct window *v = &win[home[i]];
                while (!failed && x[i] <= v->lo)
                    failed = cover(win, home, n, i, v->lo - v->width, v->lo, a);
                while (!failed && x[i] >= v->lo + v->width)
                    failed = cover(win, home, n, i, v->lo, v->lo + 2 * v->width, a);
                if (failed)
                    break;
                place(win, home, x, n, p, lo, hi);  /* a merge frees the other's window */
            }
            double *q = p[i], u = rng ? rng->next_double(rng->state) : unit_double(philox_word(&s));
            /* The step goes right when u < num / den, for num = q[0] + delta
             * and den = (q[-1] + q[0]) + delta, rounded as run_direct rounds
             * them.  When m = u * den is at least 2**-900 and differs from
             * num by more than num * 2**-40, m < num decides it with no
             * division, and exactly so.  Each operation then errs by a
             * factor within 2**-53 of 1 (m is normal; num * 2**-40 is exact
             * unless num < 2**-982, far below m), and 0 < num <= den, as a >
             * 0 and delta >= 0.  If m < num, u den < num (1 - 2**-42), so u
             * < (num / den)(1 - 2**-42), and num / den, normal as it exceeds
             * u >= 2**-53, does not round to u or below.  If m > num, u den
             * > num, so u > num / den, which rounds to at most the double u.
             * An infinite den makes m infinite, left as num / den = 0, or
             * NaN at u = 0, which fails the test, as m - num does for an
             * infinite num. */
            double num = q[0] + delta, den = (q[-1] + q[0]) + delta, m = u * den;
            int right = m >= 0x1p-900 && fabs(m - num) > num * 0x1p-40 ? m < num : u < num / den;
            q[right - 1] += 1.0;
            p[i] = q + 2 * right - 1;
            if (log)
                (*log)[e] = (int8_t)(2 * i + right);
            meetings += p[0] == p[1];
        }
        out[0] = meetings;
        out[1] = e;
        for (int j = 0; j < 2; j++) {
            out[2 + j] = j < n ? win[home[j]].lo + (p[j] - lo[j]) - j * gap : 0;
            out[4 + j] = win[home[j]].width;
            free(win[j].w);
        }
    }
    return -failed;
}

/* run_trials, compiled once for the keyed, unlogged trials of
 * direct.run_direct_batch, with no per-event test of rng or log, and once
 * for the rest. */
int64_t direct_trials(uint64_t key0, uint64_t key1, uint64_t t0, int64_t trials,
                      bitgen_t *rng, int64_t n, double a, double delta, int64_t gap,
                      int64_t reach, int64_t budget, int64_t limit, int8_t **log, int64_t *out)
{
    if (!rng && !log)
        return run_trials(key0, key1, t0, trials, NULL, n, a, delta, gap, reach, budget, limit,
                          NULL, out);
    return run_trials(key0, key1, t0, trials, rng, n, a, delta, gap, reach, budget, limit, log,
                      out);
}

/* One Beta(alpha, beta) draw as distributions.sample_beta makes it: x =
 * gamma(alpha), then y = gamma(beta), both drawn again while x + y == 0. */
static double beta_draw(bitgen_t *rng, double alpha, double beta)
{
    double x, y;
    do {
        x = random_standard_gamma(rng, alpha);
        y = random_standard_gamma(rng, beta);
    } while (x + y == 0.0);
    return x / (x + y);
}

/* Sites a chain's first array holds; it doubles when the chain reaches its end. */
#define FIRST_SITES 64

/* One trial of rwre.first_returns: the first event (1, 2, ...) after which
 * both chains stand at 0, or 0 if none does within budget events; -1 if
 * memory runs out.  Each event reads two words of walk: chain two moves if
 * the first word's top bit is set, which is its uniform (top 53 bits times
 * 2**-53) being >= 0.5, chain one otherwise, and it steps right if the
 * second word's uniform is below its site's forward probability.  walk is
 * read inline, as philox_word.  Chain c draws site k's probability from
 * env[c], Beta(alpha[c], beta[c]), on its first visit to site k >= 1, into
 * p[c][k], an array of cap[c] doubles that it doubles when full; site 0
 * reflects.  sites[c], if sites is not NULL, gets the number of sites
 * chain c drew. */
static int64_t first_return(struct philox *walk, bitgen_t env[2], const double alpha[2],
                            const double beta[2], int64_t budget, double *p[2], int64_t cap[2],
                            int64_t *sites)
{
    int64_t n[2] = {1, 1}, z[2] = {0, 0}, first = 0;
    p[0][0] = p[1][0] = 1.0;  /* p[c][k]: site k's forward probability */
    for (int64_t e = 1; e <= budget && !first; e++) {
        int c = (int)(philox_word(walk) >> 63);
        double u = unit_double(philox_word(walk));
        int64_t k = z[c];
        if (k == n[c]) {
            if (n[c] == cap[c]) {
                double *q = realloc(p[c], 2 * cap[c] * sizeof(double));
                if (!q)
                    return -1;
                p[c] = q;
                cap[c] *= 2;
            }
            p[c][n[c]++] = beta_draw(&env[c], alpha[c], beta[c]);
        }
        z[c] = u < p[c][k] ? k + 1 : k - 1;
        if (z[0] == 0 && z[1] == 0)
            first = e;
    }
    if (sites) {
        sites[0] = n[0] - 1;
        sites[1] = n[1] - 1;
    }
    return first;
}

/* Trials t0, t0 + 1, ..., t0 + n - 1 (mod 2**64) of rwre.first_returns under
 * the seed's key words: trial t's walk is stream (seed, t), and chain c's
 * environment is stream (seed, t, role[c]), each keyed here as
 * distributions.RngStream keys it.  first[i] gets trial t0 + i's first
 * return, 0 for none within budget events; sites[2 i] and sites[2 i + 1],
 * if sites is not NULL, get the number of sites its chains drew.  Returns
 * 0, or -1 if memory runs out. */
int64_t first_returns(uint64_t key0, uint64_t key1, uint64_t t0, int64_t n, uint64_t role1,
                      uint64_t role2, double alpha1, double beta1, double alpha2, double beta2,
                      int64_t budget, int64_t *first, int64_t *sites)
{
    const uint64_t key[2] = {key0, key1}, role[3] = {0, role1, role2};
    const double alpha[2] = {alpha1, alpha2}, beta[2] = {beta1, beta2};
    double *p[2] = {malloc(FIRST_SITES * sizeof(double)), malloc(FIRST_SITES * sizeof(double))};
    int64_t cap[2] = {FIRST_SITES, FIRST_SITES}, done = p[0] && p[1] ? 0 : -1;
    struct philox s[3];
    /* the environment streams, as numpy's gamma draw reads them */
    bitgen_t env[2] = {{&s[1], philox_next64, philox_next32, philox_next_double, philox_next64},
                       {&s[2], philox_next64, philox_next32, philox_next_double, philox_next64}};
    for (int64_t i = 0; i < n && !done; i++) {
        for (int j = 0; j < 3; j++)
            philox_key(&s[j], key, t0 + (uint64_t)i, role[j]);
        first[i] = first_return(&s[0], env, alpha, beta, budget, p, cap,
                                sites ? sites + 2 * i : NULL);
        done = first[i] < 0 ? -1 : 0;
    }
    free(p[0]);
    free(p[1]);
    return done;
}
