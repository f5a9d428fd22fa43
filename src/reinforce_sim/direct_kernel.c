/* The direct dynamics' event loop, one trial at a time; reinforce_sim.direct
 * builds this file into a shared library and calls run_events through ctypes. */
#include <stdint.h>

/* Walker i stands at index at[i] of its window w[i], the index of the edge
 * on its right; the window holds width[i] edge weights.  Two walkers share
 * one window once their windows would touch, and only then can they meet. */
struct trial {
    double *w[2];
    int64_t width[2];
    int64_t at[2];
    int64_t meetings;
};

/* Run events e, e + 1, ..., k - 1 of a chunk, event e on the uniform pair
 * u[2e], u[2e + 1], each as direct.run_direct states it, in the same
 * floating-point operations and order.  Returns the first event not run:
 * k, or less after the limit-th meeting or at an event whose edges leave
 * its walker's window.  log[e], if log is not NULL, gets 2 * walker + 1 if
 * event e moves its walker right, 2 * walker if left. */
int64_t run_events(struct trial *t, const double *u, int64_t e, int64_t k, double n,
                   double delta, int64_t limit, int8_t *log)
{
    for (; e < k; e++) {
        int64_t i = (int64_t)(u[2 * e] * n), x = t->at[i];
        if (x < 1 || x >= t->width[i])
            return e;
        double *w = t->w[i];
        double wl = w[x - 1], wr = w[x];
        int right = u[2 * e + 1] < (wr + delta) / ((wl + wr) + delta);
        w[x - 1 + right] += 1.0;
        t->at[i] = x - 1 + 2 * right;
        if (log)
            log[e] = (int8_t)(2 * i + right);
        if (t->w[0] == t->w[1] && t->at[0] == t->at[1] && ++t->meetings >= limit)
            return e + 1;
    }
    return k;
}
