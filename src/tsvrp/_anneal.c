/*
 * Simulated-annealing sweeps of one chain: the compiled twin of the numpy
 * class step in samplers.py, run on the same threshold tape with the same
 * floating-point operations in the same order, so both give the same bits.
 *
 * samplers.py builds this file with
 *     cc -O2 -ffp-contract=off -shared -fPIC
 * and loads it with ctypes.  No fused multiply-add and no fast-math: every
 * sum below is rounded as written.
 *
 * Rows are variables in visit order: colour classes in turn, each class's
 * members ascending.  The rows fall into pairs, (0, 1), (2, 3), ... within
 * each class, a class's last member alone when the class is odd.  Pair k
 * covers rows pair_start[k] .. pair_start[k + 1] - 1; its neighbour rows
 * are nbr_row[nbr_start[k] .. nbr_start[k + 1] - 1], each with the two
 * couplings nbr_w[2 i], nbr_w[2 i + 1] to the pair's members (zero where a
 * member has none).  No pair's neighbour is a member of its own class.
 */
#include <stdint.h>
#include <string.h>

/*
 * Sweeps t0 .. t0 + width - 1 of chain c of a group.
 *
 * thr holds the chain's thresholds -ln(u) / beta_t for these sweeps,
 * `width` rows of n in variable order; visit[p] is the variable of row p.
 * A step flips its row when dE < thr.  spin (+1 or -1), field, best_spin
 * and energy (current, best) are the group's chains-first state, and
 * trajectory has sweeps + 1 entries per chain; accepted, one per sweep,
 * sums the accepted flips over the group.  start is scratch for n rows.
 *
 * The numpy step adds each pair's w0 d0 + w1 d1, with d = spin * accept in
 * {-1, -0, 0, 1}, to every neighbour field.  Where neither member flipped
 * that sum is a zero, which leaves every nonzero field as it is, so only
 * pairs with a flip are added here.
 */
void anneal_chain(int64_t n, int64_t pairs, const int64_t *pair_start,
                  const int64_t *nbr_start, const int64_t *nbr_row,
                  const double *nbr_w, const int64_t *visit, int64_t sweeps,
                  const double *thr, double *start, double *spin,
                  double *field, double *best_spin, double *energy,
                  double *trajectory, int64_t *accepted, int64_t c,
                  int64_t t0, int64_t width)
{
    spin += c * n;
    field += c * n;
    best_spin += c * n;
    energy += 2 * c;
    trajectory += c * (sweeps + 1) + t0 + 1;
    accepted += t0;
    for (int64_t t = 0; t < width; t++) {
        const double *u = thr + t * n;
        double e = energy[0], low = energy[1];
        int64_t first = -1, flips = 0;
        memcpy(start, spin, n * sizeof *spin);
        for (int64_t k = 0; k < pairs; k++) {
            int64_t a = pair_start[k], m = pair_start[k + 1] - a;
            double d[2] = {0.0, 0.0};
            int moved = 0;
            for (int64_t i = 0; i < m; i++) {
                int64_t p = a + i;
                double s = spin[p];
                double de = field[p] * s;
                double ok = de < u[visit[p]];
                /* The energy after each row; the sweep's first lowest. */
                e += de * ok;
                if (e < low) {
                    low = e;
                    first = p;
                }
                d[i] = s * ok;
                if (ok != 0.0) {
                    spin[p] = -s;
                    moved = 1;
                    flips++;
                }
            }
            if (!moved)
                continue;
            for (int64_t i = nbr_start[k]; i < nbr_start[k + 1]; i++) {
                const double *w = nbr_w + 2 * i;
                field[nbr_row[i]] += m == 2 ? w[0] * d[0] + w[1] * d[1] : w[0] * d[0];
            }
        }
        /* Below the best so far: the state at the sweep's first lowest
         * energy holds the rows up to it from now, the rest from the
         * sweep's start, since a sweep visits each row once. */
        if (first >= 0) {
            energy[1] = low;
            memcpy(best_spin, spin, (first + 1) * sizeof *spin);
            memcpy(best_spin + first + 1, start + first + 1, (n - first - 1) * sizeof *spin);
        }
        energy[0] = e;
        trajectory[t] = energy[1];
        accepted[t] += flips;
    }
}
