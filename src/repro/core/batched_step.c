/*
 * One iteration of BatchedXorEngine.step, as a plain C function.
 *
 * The NumPy step in batched.py is the reference; this kernel reaches the
 * same state after every iteration, lane by lane and counter by counter.
 * It has no Python API: repro/core/native.py compiles this file with the
 * system C compiler, loads it with ctypes and hands it the engine's
 * arrays, all C-contiguous:
 *
 *   ss, se, bs, be  (n_rows, n) register planes: RegSmall and RegBig
 *                   start/end coordinates, (0, -1) for an empty register
 *   active          (n_rows,) lane mask, one byte per lane
 *   iterations      (n_rows,) per-lane iteration counts
 *   stats           (5, n_rows) swaps, moves, xor_splits, shifts,
 *                   busy_cells; NULL when the engine collects no stats
 *   frozen_busy     (n_rows,) RegSmall occupancy banked left of the window
 *   small_prefix    (n_rows, n + 1) prefix sums of the initial RegSmall
 *                   occupancy (both NULL together with stats)
 *   out             4 int64 results, described below
 *
 * plus the window [lo, hi) and step_count, the iteration number recorded
 * on every lane active at the start of the step.
 *
 * The step works in place on the active lanes of the column window
 * [lo, hi) and writes the next window to out[0], out[1].  Each lane is
 * walked right to left, so a cell's RegBig datum can be shifted into the
 * cell to its right, which has already been processed, in the same pass.
 * Inactive lanes hold only empty RegBig registers, so skipping them
 * leaves the state the NumPy step (which runs every lane) reaches.
 *
 * The return value is -1, or the lowest lane whose datum would shift past
 * the last cell (possible only when hi == n).  Then out[2], out[3] hold
 * that datum and nothing has been written: the capacity check runs before
 * the pass.
 *
 * The file defines the step twice, for int32 and for int64 planes: the
 * part below the #else is included once per coordinate type.
 */
#include <stdint.h>

#ifndef COORD

#define COORD int32_t
#define CELL repro_cell_i32
#define STEP repro_batched_step_i32
#include __FILE__
#undef COORD
#undef CELL
#undef STEP

#define COORD int64_t
#define CELL repro_cell_i64
#define STEP repro_batched_step_i64
#include __FILE__
#undef COORD
#undef CELL
#undef STEP

#else

/* Steps 1 and 2 on one cell: normalize, then the in-cell XOR with the
   (0, -1) reset of a register it empties.  Counts the swap, move or
   changing split it performs; returns whether RegBig still holds a run. */
static inline int CELL(COORD *s0, COORD *s1, COORD *b0, COORD *b1,
                       int64_t *swaps, int64_t *moves, int64_t *splits)
{
    int has_b = *b1 >= *b0;
    if (*s1 >= *s0 && has_b) {
        if (*s0 > *b0 || (*s0 == *b0 && *s1 > *b1)) {
            const COORD t0 = *s0, t1 = *s1;
            *s0 = *b0; *s1 = *b1; *b0 = t0; *b1 = t1;
            ++*swaps;
        }
    } else if (has_b) {
        *s0 = *b0; *s1 = *b1; *b0 = 0; *b1 = -1;
        ++*moves;
        return 0;
    }
    if (!has_b)
        return 0;
    {
        const COORD se = *s1 < *b0 - 1 ? *s1 : *b0 - 1;
        const COORD reach = *s1 + 1 > *b0 ? *s1 + 1 : *b0;
        const COORD bs = *b1 + 1 < reach ? *b1 + 1 : reach;
        const COORD be = *s1 > *b1 ? *s1 : *b1;
        *splits += se != *s1 || bs != *b0 || be != *b1;
        *s1 = se; *b0 = bs; *b1 = be;
    }
    if (*s1 < *s0) { *s0 = 0; *s1 = -1; }
    if (*b1 < *b0) { *b0 = 0; *b1 = -1; return 0; }
    return 1;
}

int64_t STEP(COORD *restrict ss, COORD *restrict se,
             COORD *restrict bs, COORD *restrict be,
             int64_t n_rows, int64_t n,
             uint8_t *restrict active, int64_t *restrict iterations,
             int64_t *restrict stats, int64_t *restrict frozen_busy,
             const int64_t *restrict small_prefix,
             int64_t lo, int64_t hi, int64_t step_count,
             int64_t *restrict out)
{
    const int64_t shift_hi = hi + 1 < n ? hi + 1 : n;
    int64_t first = n, last = -1;  /* occupied RegBig columns, all lanes */

    /* step 3's capacity check, before anything is written: the last
       cell's RegBig must be empty after steps 1 and 2 */
    if (hi == n && lo < hi) {
        for (int64_t lane = 0; lane < n_rows; ++lane) {
            const int64_t i = lane * n + n - 1;
            COORD s0 = ss[i], s1 = se[i], b0 = bs[i], b1 = be[i];
            int64_t ignored = 0;
            if (active[lane] && CELL(&s0, &s1, &b0, &b1, &ignored, &ignored, &ignored)) {
                out[2] = b0;
                out[3] = b1;
                return lane;
            }
        }
    }

    for (int64_t lane = 0; lane < n_rows; ++lane) {
        if (!active[lane])
            continue;
        COORD *const ls = ss + lane * n, *const le = se + lane * n;
        COORD *const lbs = bs + lane * n, *const lbe = be + lane * n;
        int64_t swaps = 0, moves = 0, splits = 0, shifts = 0, live = 0;
        int64_t lane_first = -1;
        /* RegSmall occupancy of the cell right of the current one; the
           cell at hi (when hi < n) is outside the window and untouched */
        int right_small = hi < n ? le[hi] >= ls[hi] : 0;

        for (int64_t c = hi - 1; c >= lo; --c) {
            COORD s0 = ls[c], s1 = le[c], b0 = lbs[c], b1 = lbe[c];
            const int has_b = CELL(&s0, &s1, &b0, &b1, &swaps, &moves, &splits);
            ls[c] = s0;
            le[c] = s1;
            /* step 3: shift RegBig one cell right */
            if (has_b) {
                ++shifts;
                if (lane_first < 0 && c > last)
                    last = c;
                lane_first = c;
            }
            if (c + 1 < n) {
                lbs[c + 1] = b0;
                lbe[c + 1] = b1;
                live += right_small | has_b;
            }
            right_small = s1 >= s0;
        }
        if (lo < n) {
            lbs[lo] = 0;
            lbe[lo] = -1;
        }
        live += right_small;  /* cell lo: its RegSmall, RegBig now empty */

        if (lane_first >= 0 && lane_first < first)
            first = lane_first;
        iterations[lane] = step_count;
        active[lane] = lane_first >= 0;
        if (stats) {
            const int64_t *prefix = small_prefix + lane * (n + 1);
            stats[lane] += swaps;
            stats[n_rows + lane] += moves;
            stats[2 * n_rows + lane] += splits;
            stats[3 * n_rows + lane] += shifts;
            stats[4 * n_rows + lane] +=
                frozen_busy[lane] + live + prefix[n] - prefix[shift_hi];
        }
    }

    /* the window after the shift: occupied columns moved one right;
       hi never shrinks, so the static prefix right of it stays valid */
    int64_t new_lo, new_hi;
    if (last >= 0) {
        new_lo = first + 1;
        new_hi = last + 2 > hi ? last + 2 : hi;
        if (new_hi > n)
            new_hi = n;
    } else {
        new_lo = new_hi = shift_hi;
    }
    /* bank the RegSmall occupancy of columns sliding out on the left,
       for every lane as the NumPy step does */
    if (stats && new_lo > lo) {
        for (int64_t lane = 0; lane < n_rows; ++lane) {
            const COORD *ls = ss + lane * n, *le = se + lane * n;
            int64_t banked = 0;
            for (int64_t c = lo; c < new_lo; ++c)
                banked += le[c] >= ls[c];
            frozen_busy[lane] += banked;
        }
    }
    out[0] = new_lo;
    out[1] = new_hi;
    return -1;
}

#endif
