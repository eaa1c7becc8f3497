/*
 * Simulated-annealing sweeps of one chain: the compiled twin of the numpy
 * row step in samplers.py, run on the same threshold tape with the same
 * floating-point operations in the same order, so both give the same bits.
 *
 * samplers.py builds this file with
 *     cc -O2 -ffp-contract=off -shared -fPIC
 * and loads it with ctypes.  No fused multiply-add and no fast-math: every
 * sum below is rounded as written.
 *
 * A sweep visits the variables in index order.  Variable p's neighbours
 * are nbr_row[nbr_start[p] .. nbr_start[p + 1] - 1], ascending, each with
 * its coupling nbr_w[i] to p.
 */
#include <stdint.h>
#include <string.h>

/*
 * Sweeps t0 .. t0 + width - 1 of chain c of a group.
 *
 * thr holds the chain's thresholds -ln(u) / beta_t for these sweeps,
 * `width` rows of n in variable order.  A step flips its variable when
 * dE < thr.  spin (+1 or -1), field, best_spin and energy (current, best)
 * are the group's chains-first state.  The group shares trajectory, the
 * lowest best energy over its chains before the first sweep and after
 * each sweep, and accepted, the accepted flips of each sweep.  start is
 * scratch for n variables.
 *
 * After a flip, each neighbour field takes w s in its own add, where s is
 * the variable's spin before the flip.  A step that does not flip changes
 * nothing, so the energy cannot reach a new low there.
 */
void anneal_chain(int64_t n, const int64_t *nbr_start, const int64_t *nbr_row,
                  const double *nbr_w, const double *thr,
                  double *start, double *spin, double *field,
                  double *best_spin, double *energy, double *trajectory,
                  int64_t *accepted, int64_t c, int64_t t0, int64_t width)
{
    spin += c * n;
    field += c * n;
    best_spin += c * n;
    energy += 2 * c;
    trajectory += t0 + 1;
    accepted += t0;
    for (int64_t t = 0; t < width; t++) {
        const double *u = thr + t * n;
        double e = energy[0], low = energy[1];
        int64_t first = -1, flips = 0;
        memcpy(start, spin, n * sizeof *spin);
        for (int64_t p = 0; p < n; p++) {
            double s = spin[p];
            double de = field[p] * s;
            if (!(de < u[p]))
                continue;
            /* The energy after each flip; the sweep's first lowest. */
            e += de;
            if (e < low) {
                low = e;
                first = p;
            }
            spin[p] = -s;
            flips++;
            for (int64_t i = nbr_start[p]; i < nbr_start[p + 1]; i++)
                field[nbr_row[i]] += nbr_w[i] * s;
        }
        /* Below the best so far: the state at the sweep's first lowest
         * energy holds the variables up to it from now, the rest from the
         * sweep's start, since a sweep visits each variable once. */
        if (first >= 0) {
            energy[1] = low;
            memcpy(best_spin, spin, (first + 1) * sizeof *spin);
            memcpy(best_spin + first + 1, start + first + 1, (n - first - 1) * sizeof *spin);
        }
        energy[0] = e;
        if (energy[1] < trajectory[t])
            trajectory[t] = energy[1];
        accepted[t] += flips;
    }
}
