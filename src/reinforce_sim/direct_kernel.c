/* The direct dynamics' event loop, one trial at a time; reinforce_sim.direct
 * builds this file into a shared library and calls run_events through ctypes. */
#include <stdint.h>
#include <numpy/random/bitgen.h>

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
