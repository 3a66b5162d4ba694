/*
 * BatchedXorEngine's iteration as plain C functions: one iteration
 * (step), and iterations until every lane terminates (run).
 *
 * The NumPy step in batched.py is the reference; these functions reach
 * the same state after every iteration, lane by lane and counter by
 * counter.  They have no Python API: repro/core/native.py compiles this
 * file with the system C compiler, loads it with ctypes and hands it the
 * engine's arrays, all C-contiguous:
 *
 *   ss, se, bs, be  (n_rows, n) register planes: RegSmall and RegBig
 *                   start/end coordinates, (0, -1) for an empty register
 *   active          (n_rows,) lane mask, one byte per lane
 *   iterations      (n_rows,) per-lane iteration counts
 *   stats           (5, n_rows) swaps, moves, xor_splits, shifts,
 *                   busy_cells; NULL when the engine collects no stats
 *   lanes           (3, n_rows) per-lane state: the window lo and hi,
 *                   and the number of occupied RegSmall registers
 *   state           6 int64, read and written: the batch's window lo
 *                   and hi and the iterations run so far; then, after a
 *                   fault, the datum's start and end and the lane
 *
 * Each active lane walks only its own window [lo, hi), which holds every
 * occupied RegBig register of the lane (Corollary 1.1 holds lane by
 * lane).  The window is walked right to left, so a cell's RegBig datum
 * can be shifted into the cell to its right, which has already been
 * processed, in the same pass.  Afterwards the window is the lane's
 * occupied columns: [first + 1, last + 2), first and last taken before
 * the shift.  Cells outside it have no RegBig run, so stepping them
 * would change nothing.
 *
 * busy_cells needs no look outside the window either: a cell is busy
 * when its RegSmall holds a run, or its RegBig does and its RegSmall
 * does not.  The lane keeps a count of its occupied RegSmall registers
 * (one more per move into an empty RegSmall, one less per RegSmall the
 * XOR empties), and the walk counts the data that land on a cell with
 * an empty RegSmall.
 *
 * The batch's window in state[0], state[1] is the NumPy step's: from
 * the first to past the last occupied column over all lanes, with a hi
 * that never shrinks.  Nothing here reads state[0]; the NumPy step does.
 *
 * The file defines the functions twice, for int32 and for int64 planes:
 * the part below the #else is included once per coordinate type.
 */
#include <stdint.h>

#ifndef COORD

/* Why run returned.  native.py mirrors these codes. */
enum {
    RUN_DONE = 0,       /* every lane terminated */
    RUN_CAPPED = 1,     /* lanes still active at max_iterations */
    RUN_UNBOUNDED = 2,  /* state[5] is still active at its Theorem 1 bound */
    RUN_OVERFLOW = 3    /* state[5]'s datum state[3..4] would leave the array */
};

#define COORD int32_t
#define CELL repro_cell_i32
#define STEP repro_batched_step_i32
#define RUN repro_batched_run_i32
#include __FILE__
#undef COORD
#undef CELL
#undef STEP
#undef RUN

#define COORD int64_t
#define CELL repro_cell_i64
#define STEP repro_batched_step_i64
#define RUN repro_batched_run_i64
#include __FILE__
#undef COORD
#undef CELL
#undef STEP
#undef RUN

#else

/* Steps 1 and 2 on one cell: normalize, then the in-cell XOR with the
   (0, -1) reset of a register it empties.  Counts the swap, move or
   changing split it performs and a RegSmall it empties; returns whether
   RegBig still holds a run. */
static inline int CELL(COORD *s0, COORD *s1, COORD *b0, COORD *b1,
                       int64_t *swaps, int64_t *moves, int64_t *splits,
                       int64_t *emptied)
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
    if (*s1 < *s0) { *s0 = 0; *s1 = -1; ++*emptied; }
    if (*b1 < *b0) { *b0 = 0; *b1 = -1; return 0; }
    return 1;
}

/* One iteration over the active lanes, recording iteration state[2] + 1
   on each.  Returns -1, or the lowest lane whose datum would shift past
   the last cell: then state[3..5] hold that datum and lane and nothing
   has been written, since the capacity check runs before the pass. */
int64_t STEP(COORD *restrict ss, COORD *restrict se,
             COORD *restrict bs, COORD *restrict be,
             int64_t n_rows, int64_t n,
             uint8_t *restrict active, int64_t *restrict iterations,
             int64_t *restrict stats, int64_t *restrict lanes,
             int64_t *restrict state)
{
    int64_t *const lane_lo = lanes, *const lane_hi = lanes + n_rows;
    int64_t *const small = lanes + 2 * n_rows;
    const int64_t hi = state[1], step_count = state[2] + 1;
    int64_t first = n, last = -1;  /* occupied RegBig columns, all lanes */

    /* step 3's capacity check, before anything is written: the last
       cell's RegBig must be empty after steps 1 and 2 */
    for (int64_t lane = 0; lane < n_rows; ++lane) {
        if (!active[lane] || lane_hi[lane] < n || lane_lo[lane] >= n)
            continue;
        const int64_t i = lane * n + n - 1;
        COORD s0 = ss[i], s1 = se[i], b0 = bs[i], b1 = be[i];
        int64_t ignored = 0;
        if (CELL(&s0, &s1, &b0, &b1, &ignored, &ignored, &ignored, &ignored)) {
            state[3] = b0;
            state[4] = b1;
            state[5] = lane;
            return lane;
        }
    }

    for (int64_t lane = 0; lane < n_rows; ++lane) {
        if (!active[lane])
            continue;
        const int64_t lo_i = lane_lo[lane], hi_i = lane_hi[lane];
        COORD *const ls = ss + lane * n, *const le = se + lane * n;
        COORD *const lbs = bs + lane * n, *const lbe = be + lane * n;
        int64_t swaps = 0, moves = 0, splits = 0, emptied = 0;
        int64_t shifts = 0, landed = 0, lane_first = -1, lane_last = -1;
        /* RegSmall occupancy of the cell right of the current one; the
           cell at hi_i (when hi_i < n) is outside the window, untouched */
        int right_small = hi_i < n ? le[hi_i] >= ls[hi_i] : 0;

        for (int64_t c = hi_i - 1; c >= lo_i; --c) {
            COORD s0 = ls[c], s1 = le[c], b0 = lbs[c], b1 = lbe[c];
            const int has_b = CELL(&s0, &s1, &b0, &b1, &swaps, &moves, &splits, &emptied);
            ls[c] = s0;
            le[c] = s1;
            /* step 3: shift RegBig one cell right */
            if (has_b) {
                ++shifts;
                if (lane_last < 0)
                    lane_last = c;
                lane_first = c;
            }
            if (c + 1 < n) {
                lbs[c + 1] = b0;
                lbe[c + 1] = b1;
                landed += has_b & !right_small;
            }
            right_small = s1 >= s0;
        }
        if (lo_i < n) {
            lbs[lo_i] = 0;
            lbe[lo_i] = -1;
        }

        iterations[lane] = step_count;
        active[lane] = lane_first >= 0;
        if (lane_first >= 0) {
            lane_lo[lane] = lane_first + 1;
            lane_hi[lane] = lane_last + 2 < n ? lane_last + 2 : n;
            if (lane_first < first)
                first = lane_first;
            if (lane_last > last)
                last = lane_last;
        }
        if (stats) {
            small[lane] += moves - emptied;
            stats[lane] += swaps;
            stats[n_rows + lane] += moves;
            stats[2 * n_rows + lane] += splits;
            stats[3 * n_rows + lane] += shifts;
            stats[4 * n_rows + lane] += small[lane] + landed;
        }
    }

    /* the batch's window after the shift: occupied columns moved one
       right, hi never shrinks */
    if (last >= 0) {
        state[0] = first + 1;
        state[1] = last + 2 > hi ? last + 2 : hi;
        if (state[1] > n)
            state[1] = n;
    } else {
        state[0] = state[1] = hi + 1 < n ? hi + 1 : n;
    }
    state[2] = step_count;
    return -1;
}

/* Iterations until every lane terminates.  Before each one it makes the
   checks of BatchedXorEngine.run, in its order: no lane active (done),
   state[2] >= max_iterations, then the lowest active lane whose
   iteration count reached its Theorem 1 bound (k1 + k2), then the
   capacity check.  Returns the RUN_* code; the arrays and state[0..2]
   are left as they were after the last iteration run. */
int64_t RUN(COORD *restrict ss, COORD *restrict se,
            COORD *restrict bs, COORD *restrict be,
            int64_t n_rows, int64_t n,
            uint8_t *restrict active, int64_t *restrict iterations,
            int64_t *restrict stats, int64_t *restrict lanes,
            const int64_t *restrict bound, int64_t max_iterations,
            int64_t *restrict state)
{
    for (;;) {
        int64_t lane = 0;
        while (lane < n_rows && !active[lane])
            ++lane;
        if (lane == n_rows)
            return RUN_DONE;
        if (state[2] >= max_iterations)
            return RUN_CAPPED;
        for (; lane < n_rows; ++lane) {
            if (active[lane] && iterations[lane] >= bound[lane]) {
                state[5] = lane;
                return RUN_UNBOUNDED;
            }
        }
        if (STEP(ss, se, bs, be, n_rows, n, active, iterations, stats, lanes, state) >= 0)
            return RUN_OVERFLOW;
    }
}

#endif
