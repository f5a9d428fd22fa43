/* The compiled loops, one trial per call: the direct dynamics' event loop
 * run_events and rwre's first_return.  reinforce_sim.direct builds this file
 * into one shared library, linked with numpy's libnpyrandom, and both
 * modules call it through ctypes. */
#include <stdint.h>
#include <stdlib.h>
#include <numpy/random/bitgen.h>

/* numpy's standard gamma draw, the one Generator.gamma makes; declared here
 * because numpy/random/distributions.h includes Python.h. */
double random_standard_gamma(bitgen_t *bitgen_state, double shape);

/* Walker i stands at index at[i] of its window w[i], the index of the edge
 * on its right; the window holds width[i] edge weights.  Two walkers share
 * one window once their windows would touch, and only then can they meet. */
struct trial {
    double *w[2];
    int64_t width[2];
    int64_t at[2];
    int64_t meetings;
};

/* Run up to k events of the n walkers, each on the next two uniforms of rng
 * as direct.run_direct states it, in the same floating-point operations and
 * order.  rng is the bit generator of the trial's numpy Generator, and its
 * next_double is the draw of Generator.random, so the loop reads the
 * stream's own uniform sequence.  Returns the number of events run: k, or
 * fewer after the limit-th meeting or once a walker stands at the edge of
 * its window, which is checked before an event draws.  log[e], if log is
 * not NULL, gets 2 * walker + 1 if the call's event e moves its walker
 * right, 2 * walker if left. */
int64_t run_events(struct trial *t, bitgen_t *rng, int64_t k, int64_t n, double delta,
                   int64_t limit, int8_t *log)
{
    for (int64_t e = 0; e < k; e++) {
        for (int64_t j = 0; j < n; j++)
            if (t->at[j] < 1 || t->at[j] >= t->width[j])
                return e;
        int64_t i = (int64_t)(rng->next_double(rng->state) * (double)n), x = t->at[i];
        double *w = t->w[i];
        double wl = w[x - 1], wr = w[x];
        int right = rng->next_double(rng->state) < (wr + delta) / ((wl + wr) + delta);
        w[x - 1 + right] += 1.0;
        t->at[i] = x - 1 + 2 * right;
        if (log)
            log[e] = (int8_t)(2 * i + right);
        if (t->w[0] == t->w[1] && t->at[0] == t->at[1] && ++t->meetings >= limit)
            return e + 1;
    }
    return k;
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
 * memory runs out.  Each event reads two uniforms of walk: chain two moves
 * if the first is >= 0.5, chain one otherwise, and it steps right if the
 * second is below its site's forward probability.  Chain c draws site k's
 * probability from env[c], Beta(alpha[c], beta[c]), on its first visit to
 * site k >= 1; site 0 reflects.  sites[c], if sites is not NULL, gets the
 * number of sites chain c drew. */
int64_t first_return(bitgen_t *walk, bitgen_t *env1, bitgen_t *env2, double alpha1,
                     double beta1, double alpha2, double beta2, int64_t budget, int64_t *sites)
{
    bitgen_t *env[2] = {env1, env2};
    double alpha[2] = {alpha1, alpha2}, beta[2] = {beta1, beta2};
    double *p[2] = {malloc(FIRST_SITES * sizeof(double)), malloc(FIRST_SITES * sizeof(double))};
    int64_t n[2] = {1, 1}, cap[2] = {FIRST_SITES, FIRST_SITES}, z[2] = {0, 0}, first = 0;
    if (!p[0] || !p[1])
        first = -1;
    else
        p[0][0] = p[1][0] = 1.0;  /* p[c][k]: site k's forward probability */
    for (int64_t e = 1; e <= budget && !first; e++) {
        int c = walk->next_double(walk->state) >= 0.5;
        double u = walk->next_double(walk->state);
        int64_t k = z[c];
        if (k == n[c]) {
            if (n[c] == cap[c]) {
                double *q = realloc(p[c], 2 * cap[c] * sizeof(double));
                if (!q) {
                    first = -1;
                    break;
                }
                p[c] = q;
                cap[c] *= 2;
            }
            p[c][n[c]++] = beta_draw(env[c], alpha[c], beta[c]);
        }
        z[c] = u < p[c][k] ? k + 1 : k - 1;
        if (z[0] == 0 && z[1] == 0)
            first = e;
    }
    if (sites) {
        sites[0] = n[0] - 1;
        sites[1] = n[1] - 1;
    }
    free(p[0]);
    free(p[1]);
    return first;
}
