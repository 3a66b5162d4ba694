"""Batched whole-image simulation of the systolic XOR.

The paper's headline claim is that the systolic array processes *all*
runs concurrently.  A row-at-a-time simulator walks an image in a Python
loop, paying per-row load/dispatch overhead that dominates run-length
workloads (cf. Ehrensperger et al. and Breuel on RLE morphology).  This
engine lifts the batch dimension into the arrays: the register files of
**every row of an image at once** live in planar ``(n_rows, n_cells)``
integer arrays, and the paper's three steps run as single masked kernels
across the whole batch.  A batch of one lane (:meth:`BatchedXorEngine.diff`)
is the single-row engine.

State layout
------------
``ss``, ``se``, ``bs``, ``be``
    Four contiguous ``(n_rows, n_cells)`` integer planes (int32 unless a
    row is multi-gigapixel wide — the kernels are memory-bound, so the
    narrow dtype halves their traffic): the ``RegSmall``
    and ``RegBig`` start/end coordinates of every cell of every lane
    (planar rather than interleaved ``(..., 2)`` so each comparison and
    minimum streams over contiguous memory).  ``end < start`` is the
    empty register, normalized to the same ``(0, -1)`` sentinel as
    :class:`~repro.core.registers.RunRegister` so per-lane snapshots
    compare directly against the reference machine.
``active``
    ``(n_rows,)`` boolean mask.  A lane terminates early — all its cells
    raise ``C`` (Theorem 1) — independently of its batch mates; its mask
    bit flips off, freezing the lane's registers at their final state
    while the remaining lanes keep stepping.
``iterations``
    ``(n_rows,)`` per-lane iteration counts, recorded at mask-flip time —
    the quantity Table 1 reports, identical lane-by-lane to what the
    reference machine measures on the same row pair.

Early exit and the column window
--------------------------------
Stepping a terminated lane is a natural state no-op (nothing to swap,
move, XOR or shift once ``RegBig`` is empty), so the kernels run
unmasked and the ``active`` mask only gates bookkeeping (iteration
counts, the ``busy_cells`` counter).  Columns are windowed: Corollary
1.1 empties ``RegBig`` left to right while step 3 marches the occupied
band one cell right per iteration, so the engine tracks the band
``[lo, hi)`` of columns where *any* lane still holds a ``RegBig`` run
and slices every kernel to it.  ``RegSmall`` cells left of the band are
frozen (their occupancy is banked into a running ``busy_cells`` prefix);
cells right of it still hold their initial load (prefix-summed at load
time) — so stats stay exact without touching either region.

Stats are accumulated per lane (axis-1 reductions), so each row's
:class:`~repro.systolic.stats.ActivityStats` matches the reference
machine's counters exactly — the shared batch width does not distort
them because every counter only fires on occupied cells.

The equivalence tests compare per-iteration snapshots of every lane
against :class:`~repro.core.machine.SystolicXorMachine`; only the Python
loops over rows and cells are gone, the state evolution is identical.

The step kernel
---------------
The iteration body — normalize, in-cell XOR, shift, the per-lane
counters and the next window — also exists as C, ``batched_step.c``,
which :mod:`repro.core.native` compiles, caches and loads on the first
step of a process.  :meth:`BatchedXorEngine.step` runs it whenever it
loaded and the NumPy body (:meth:`_numpy_step`) otherwise; the NumPy
body is also the reference the tests step the kernel against, state by
state.  The C iteration walks each lane's own window rather than the
batch's: Corollary 1.1 holds lane by lane.  An untraced, unprobed
:meth:`BatchedXorEngine.run` on the native kernel is one C call that
makes the iteration cap and Theorem 1 checks itself and holds no GIL;
otherwise the checks, tracer and probe hooks stay in Python, one call
per iteration.  A traced ``row_batch`` span records which kernel ran
(``kernel="native"`` or ``"numpy"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, GeometryError, SystolicError
from repro.rle.row import RLERow, _checked_width, _stack_rows
from repro.core import native
from repro.core.machine import XorRunResult, default_cell_count
from repro.core.xor_cell import CellSnapshot
from repro.systolic.stats import ActivityStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import EngineProfiler
    from repro.obs.tracing import Tracer

__all__ = ["BatchedXorEngine"]

#: Per-lane counters accumulated when ``collect_stats`` is on, in the
#: order they are stacked in ``self._stat_rows``.
_STAT_NAMES = ("swaps", "moves", "xor_splits", "shifts", "busy_cells")


def _activity(values: Sequence[int]) -> ActivityStats:
    """One lane's counters (zero counters absent, matching the
    event-driven reference)."""
    return ActivityStats({name: value for name, value in zip(_STAT_NAMES, values) if value})


class BatchedXorEngine:
    """Array-at-once, *batch*-at-once systolic XOR simulator.

    Use :meth:`diff_rows` (or :meth:`diff` for a single pair) for
    one-shot runs, or :meth:`load` / :meth:`step` / :meth:`snapshot` for
    instrumented stepping (the equivalence tests do).

    Parameters
    ----------
    n_cells:
        Fixed array size shared by every lane, or ``None`` to size the
        batch to the widest row pair via
        :func:`~repro.core.machine.default_cell_count`.
    collect_stats:
        Accumulate the reference machine's activity counters per lane
        (a few extra axis-1 reductions per step).
    tracer:
        Optional :class:`repro.obs.tracing.Tracer`; when set, batch runs
        record nested ``row_batch`` → ``step`` spans.  The default
        ``None`` keeps the hot loop untouched (one attribute lookup per
        ``run`` call decides which loop executes).
    probe:
        Optional :class:`repro.obs.profile.EngineProfiler`; when set,
        every iteration records active-lane count, busy cells and the
        Corollary-1.1 empty-prefix front (a few extra reductions per
        step — opt-in profiling, not for benchmark runs).
    """

    def __init__(
        self,
        n_cells: Optional[int] = None,
        collect_stats: bool = True,
        tracer: Optional["Tracer"] = None,
        probe: Optional["EngineProfiler"] = None,
    ) -> None:
        self.n_cells = n_cells
        self.collect_stats = collect_stats
        self.tracer = tracer
        self.probe = probe
        shape = (0, 0)
        self.ss = np.zeros(shape, dtype=np.int64)
        self.se = np.zeros(shape, dtype=np.int64)
        self.bs = np.zeros(shape, dtype=np.int64)
        self.be = np.zeros(shape, dtype=np.int64)
        self.active: np.ndarray = np.zeros(0, dtype=bool)
        self.iterations: np.ndarray = np.zeros(0, dtype=np.int64)
        self.k1: np.ndarray = np.zeros(0, dtype=np.int64)
        self.k2: np.ndarray = np.zeros(0, dtype=np.int64)
        self._stat_rows: np.ndarray = np.zeros((len(_STAT_NAMES), 0), dtype=np.int64)
        self._frozen_busy: np.ndarray = np.zeros(0, dtype=np.int64)
        self._small_prefix: np.ndarray = np.zeros((0, 1), dtype=np.int64)
        self._lo = 0
        self._hi = 0
        self._step_count = 0
        # the native kernel bound to this batch; None after a load and
        # whenever the NumPy step's bookkeeping is the current one
        self._binding: Optional[native.BoundStep] = None

    # ------------------------------------------------------------------ #
    # Load / extract                                                     #
    # ------------------------------------------------------------------ #
    def load(self, rows_a: Sequence[RLERow], rows_b: Sequence[RLERow]) -> None:
        """The paper's initial load, for every lane at once: run *i* of
        each image row into cell *i* of that row's lane."""
        if len(rows_a) != len(rows_b):
            raise GeometryError(
                f"batch sides differ: {len(rows_a)} vs {len(rows_b)} rows"
            )
        n_rows = len(rows_a)
        self.k1 = np.fromiter((r.run_count for r in rows_a), dtype=np.int64, count=n_rows)
        self.k2 = np.fromiter((r.run_count for r in rows_b), dtype=np.int64, count=n_rows)
        # each side's runs, lane after lane, flattened once
        bounds_a, bounds_b = _stack_rows(rows_a), _stack_rows(rows_b)
        widest = int(np.maximum(self.k1, self.k2).max()) if n_rows else 0
        if self.n_cells is not None:
            n = self.n_cells
            if widest > n:
                raise CapacityError(
                    f"inputs with up to {widest} runs cannot load into {n} cells"
                )
        else:
            # widest lane sizes the shared batch; per Corollary 1.2 no
            # lane ever occupies a cell past its own k1+k2, so the extra
            # cells of narrower lanes stay empty throughout
            n = max(
                (default_cell_count(a, b) for a, b in zip(self.k1.tolist(), self.k2.tolist())),
                default=1,
            )
        # register coordinates are pixel offsets, so int32 holds any
        # realistic row and halves the memory traffic of every kernel;
        # fall back to int64 for pathological multi-gigapixel rows
        max_coord = max(
            (int(bounds[1].max()) for bounds in (bounds_a, bounds_b) if bounds.size),
            default=0,
        )
        dtype = np.int32 if max_coord < 2**31 - 1 else np.int64
        self.ss = np.zeros((n_rows, n), dtype=dtype)
        self.se = np.full((n_rows, n), -1, dtype=dtype)
        self.bs = np.zeros((n_rows, n), dtype=dtype)
        self.be = np.full((n_rows, n), -1, dtype=dtype)
        self._scatter(self.ss, self.se, self.k1, bounds_a)
        self._scatter(self.bs, self.be, self.k2, bounds_b)
        # lanes whose RegBig bank is empty at load time are done in 0
        # iterations (every cell already raises C)
        self.active = self.k2 > 0
        self.iterations = np.zeros(n_rows, dtype=np.int64)
        self._stat_rows = np.zeros((len(_STAT_NAMES), n_rows), dtype=np.int64)
        self._frozen_busy = np.zeros(n_rows, dtype=np.int64)
        if self.collect_stats:
            # initial RegSmall occupancy per (lane, column) prefix-summed,
            # so busy_cells can account for the untouched region right of
            # the column window without scanning it
            occupied = (self.se >= self.ss).astype(np.int64)
            self._small_prefix = np.zeros((n_rows, n + 1), dtype=np.int64)
            np.cumsum(occupied, axis=1, out=self._small_prefix[:, 1:])
        # the column window: every occupied RegBig column lies in [lo, hi)
        self._lo = 0
        self._hi = int(self.k2.max()) if n_rows and self.active.any() else 0
        self._step_count = 0
        self._binding = None

    @staticmethod
    def _scatter(
        starts: np.ndarray, ends: np.ndarray, counts: np.ndarray, bounds: np.ndarray
    ) -> None:
        """Scatter one side's flattened runs (``counts[i]`` of them for
        lane ``i``) into cells ``0..counts[i]-1`` of each lane."""
        total = bounds.shape[1]
        if total == 0:
            return
        lane = np.repeat(np.arange(len(counts)), counts)
        cell = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        starts[lane, cell] = bounds[0]
        ends[lane, cell] = bounds[1]

    def extract(self, row: int, width: Optional[int] = None) -> RLERow:
        """Read lane ``row``'s XOR out of its ``RegSmall`` bank."""
        row = range(self.n_rows)[row]
        return self._extract(slice(row, row + 1), [_checked_width(width)])[0]

    def _extract(self, lanes: slice, widths: Sequence[Optional[int]]) -> List[RLERow]:
        """The XOR rows of ``lanes``: their ``RegSmall`` banks read with
        one mask into one compact int64 array, copied out lane by lane
        (a row holding a view would keep the whole batch's array alive
        for as long as it is cached; an empty lane shares the empty
        tuple, as a row built from no runs does).

        Raises :class:`~repro.errors.GeometryError` when a lane's XOR
        does not fit its width — inputs of different widths leave the
        wider one's runs past the narrower width."""
        ss, se = self.ss[lanes], self.se[lanes]
        occupied = se >= ss
        stops = np.cumsum(occupied.sum(axis=1)).tolist()
        bounds = np.empty((2, stops[-1] if stops else 0), dtype=np.int64)
        bounds[0] = ss[occupied]
        bounds[1] = se[occupied]
        rows: List[RLERow] = []
        for start, stop, width in zip([0] + stops[:-1], stops, widths):
            if start == stop:
                rows.append(RLERow._trusted((), width))
                continue
            lane = bounds[:, start:stop].copy()
            if width is not None and lane[1, -1] >= width:
                last = (int(lane[0, -1]), int(lane[1, -1] - lane[0, -1]) + 1)
                raise GeometryError(f"run {last} does not fit in width {width}")
            rows.append(RLERow._trusted(lane, width))
        return rows

    def snapshot(self, row: int) -> Tuple[CellSnapshot, ...]:
        """Lane ``row``'s per-cell snapshots in the reference format."""
        return tuple(
            ((int(self.ss[row, i]), int(self.se[row, i])),
             (int(self.bs[row, i]), int(self.be[row, i])))
            for i in range(self.ss.shape[1])
        )

    # ------------------------------------------------------------------ #
    # Stepping                                                           #
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self.ss.shape[0]

    @property
    def batch_cells(self) -> int:
        """Cells per lane actually allocated for this batch."""
        return self.ss.shape[1]

    @property
    def small(self) -> np.ndarray:
        """The ``RegSmall`` bank as one ``(n_rows, n_cells, 2)`` array
        (assembled on demand; the planar planes are the hot state)."""
        return np.stack((self.ss, self.se), axis=-1)

    @property
    def big(self) -> np.ndarray:
        """The ``RegBig`` bank as one ``(n_rows, n_cells, 2)`` array."""
        return np.stack((self.bs, self.be), axis=-1)

    @property
    def is_done(self) -> bool:
        """Every lane terminated (all ``RegBig`` registers empty)."""
        return not self.active.any()

    def step(self) -> None:
        """One iteration of steps 1–3 over every *active* lane.

        The iteration body runs in the native kernel when
        :data:`repro.core.native.LOADER` has one, else in NumPy
        (:meth:`_numpy_step`, the reference); both reach the same state.
        """
        if not self.is_done:
            self._step(native.LOADER.kernel(), self.k1 + self.k2)

    def _step(self, kernel: Optional[native.StepKernel], bound: np.ndarray) -> None:
        """One iteration on a batch with active lanes, after the Theorem 1
        check against ``bound`` (each lane's ``k1 + k2``)."""
        over = self.active & (self.iterations >= bound)
        if over.any():
            raise self._unbounded_error(int(np.flatnonzero(over)[0]), bound)
        if kernel is not None:
            self._native_step(kernel)
        else:
            if self._binding is not None:
                self._leave_native()
            self._numpy_step()
        if self.probe is not None:
            self._sample_probe()

    def _bind(self, kernel: native.StepKernel) -> native.BoundStep:
        """The native kernel bound to this batch: bound on its first
        native step, and again after NumPy steps (the binding rebuilds its
        per-lane state from the planes and the window)."""
        binding = self._binding
        if binding is None:
            binding = self._binding = kernel.bind(
                (self.ss, self.se, self.bs, self.be),
                self.active,
                self.iterations,
                self._stat_rows if self.collect_stats else None,
                (self._lo, self._hi),
                self._step_count,
            )
        return binding

    def _native_step(self, kernel: native.StepKernel) -> None:
        """One iteration in the native kernel."""
        binding = self._bind(kernel)
        lane = binding.step()
        if lane >= 0:
            raise self._capacity_error(lane, binding.datum)
        self._lo, self._hi, self._step_count = binding.position

    def _native_run(
        self, kernel: native.StepKernel, bound: np.ndarray, max_iterations: Optional[int]
    ) -> None:
        """Every iteration in one native call, which makes the checks of
        the per-step loop in its order and stops where it would raise."""
        binding = self._bind(kernel)
        stop = binding.run(bound, max_iterations)
        self._lo, self._hi, self._step_count = binding.position
        if stop is native.Stop.CAPPED:
            raise self._capped_error(max_iterations)
        if stop is native.Stop.UNBOUNDED:
            raise self._unbounded_error(binding.lane, bound)
        if stop is native.Stop.OVERFLOW:
            raise self._capacity_error(binding.lane, binding.datum)

    def _leave_native(self) -> None:
        """Hand the batch from the native kernel to the NumPy step.  The
        kernel banks no ``RegSmall`` occupancy left of the window, so
        bank it now: no ``RegBig`` run reaches those columns again, and
        their occupancy is what the NumPy step would have banked."""
        if self.collect_stats:
            lo = self._lo
            self._frozen_busy = (self.se[:, :lo] >= self.ss[:, :lo]).sum(axis=1, dtype=np.int64)
        self._binding = None

    def _capped_error(self, max_iterations: Optional[int]) -> SystolicError:
        return SystolicError(
            f"{int(self.active.sum())} lanes still active after "
            f"{self._step_count} iterations (cap {max_iterations})"
        )

    def _unbounded_error(self, lane: int, bound: np.ndarray) -> SystolicError:
        return SystolicError(
            f"lane {lane}: no termination after {int(self.iterations[lane])} "
            f"iterations (bound {int(bound[lane])})"
        )

    def _capacity_error(self, lane: int, datum: Tuple[int, int]) -> CapacityError:
        return CapacityError(
            f"lane {lane}: datum {datum} shifted past the last cell "
            f"(batch of {self.batch_cells} cells is too small)"
        )

    def _numpy_step(self) -> None:
        """One iteration in NumPy: the fallback and the reference."""
        active = self.active
        n = self.batch_cells
        lo, hi = self._lo, self._hi
        ss = self.ss[:, lo:hi]
        se = self.se[:, lo:hi]
        bs = self.bs[:, lo:hi]
        be = self.be[:, lo:hi]
        has_s = se >= ss
        has_b = be >= bs

        # --- step 1: normalize -------------------------------------- #
        both = has_s & has_b
        swap = both & ((ss > bs) | ((ss == bs) & (se > be)))
        sw = np.nonzero(swap)
        if sw[0].size:
            tmp = ss[sw].copy()
            ss[sw] = bs[sw]
            bs[sw] = tmp
            tmp = se[sw].copy()
            se[sw] = be[sw]
            be[sw] = tmp
        move = has_b & ~has_s
        mv = np.nonzero(move)
        if mv[0].size:
            ss[mv] = bs[mv]
            se[mv] = be[mv]
            bs[mv] = 0
            be[mv] = -1
            has_b = has_b & ~move
        if self.collect_stats:
            self._stat_rows[0] += swap.sum(axis=1)
            self._stat_rows[1] += move.sum(axis=1)

        # --- step 2: in-cell XOR ------------------------------------ #
        both = (se >= ss) & has_b
        if both.any():
            new_se = np.minimum(se, bs - 1)
            new_bs = np.minimum(be + 1, np.maximum(se + 1, bs))
            new_be = np.maximum(se, be)
            if self.collect_stats:
                changed = both & (
                    (new_se != se) | (new_bs != bs) | (new_be != be)
                )
                self._stat_rows[2] += changed.sum(axis=1)
            se[:, :] = np.where(both, new_se, se)
            bs[:, :] = np.where(both, new_bs, bs)
            be[:, :] = np.where(both, new_be, be)
            # normalize only registers step 2 touched — cells outside
            # ``both`` kept their already-canonical contents
            em = np.nonzero(both & (se < ss))
            if em[0].size:
                ss[em] = 0
                se[em] = -1
            em = np.nonzero(both & (be < bs))
            if em[0].size:
                bs[em] = 0
                be[em] = -1
            has_b = be >= bs

        # --- step 3: shift RegBig right ------------------------------ #
        if hi == n and has_b.shape[1] and has_b[:, -1].any():
            lane = int(np.flatnonzero(has_b[:, -1])[0])
            raise self._capacity_error(lane, (int(bs[lane, -1]), int(be[lane, -1])))
        if self.collect_stats:
            self._stat_rows[3] += has_b.sum(axis=1)
        lane_alive = has_b.any(axis=1)
        col_occupied = np.flatnonzero(has_b.any(axis=0))
        shift_hi = min(hi + 1, n)
        self.bs[:, lo + 1:shift_hi] = self.bs[:, lo:shift_hi - 1]
        self.be[:, lo + 1:shift_hi] = self.be[:, lo:shift_hi - 1]
        self.bs[:, lo] = 0
        self.be[:, lo] = -1

        self._step_count += 1
        self.iterations[active] = self._step_count

        # the window after the shift: occupied columns moved one right.
        # ``hi`` never shrinks — columns right of it must stay untouched
        # since load for the busy_cells static prefix to remain valid.
        if col_occupied.size:
            new_lo = lo + int(col_occupied[0]) + 1
            new_hi = min(max(hi, lo + int(col_occupied[-1]) + 2), n)
        else:
            new_lo = new_hi = shift_hi

        if self.collect_stats:
            # busy = frozen RegSmall cells left of the window
            #      + live cells inside [lo, shift_hi)
            #      + untouched initial RegSmall cells right of it
            live = (
                (self.se[:, lo:shift_hi] >= self.ss[:, lo:shift_hi])
                | (self.be[:, lo:shift_hi] >= self.bs[:, lo:shift_hi])
            )
            busy = (
                self._frozen_busy
                + live.sum(axis=1)
                + (self._small_prefix[:, n] - self._small_prefix[:, shift_hi])
            )
            self._stat_rows[4] += busy * active
            # bank the RegSmall occupancy of columns sliding out on the
            # left — no RegBig run can ever reach them again
            if new_lo > lo:
                self._frozen_busy += (
                    self.se[:, lo:new_lo] >= self.ss[:, lo:new_lo]
                ).sum(axis=1)

        # flip the mask on lanes whose RegBig bank just emptied — their
        # iteration count was written above and never advances again
        self.active = active & lane_alive
        self._lo, self._hi = new_lo, new_hi

    def _sample_probe(self) -> None:
        """Feed one iteration's convergence measurements to the probe.

        Reduces over the full register planes (not the column window) so
        the samples stay meaningful regardless of windowing internals.
        """
        has_s = self.se >= self.ss
        has_b = self.be >= self.bs
        n = self.batch_cells
        lane_has_big = has_b.any(axis=1)
        # per-lane Corollary-1.1 front: first column still holding a
        # RegBig run (lanes with an empty bank have front n)
        first_big = np.where(lane_has_big, np.argmax(has_b, axis=1), n)
        active = self.active
        if active.any():
            mean_front = float(first_big[active].mean())
        else:
            mean_front = float(n)
        self.probe.on_step(
            step=self._step_count,
            active_lanes=int(active.sum()),
            busy_cells=int((has_s | has_b).sum()),
            empty_prefix=int(first_big.min()) if self.n_rows else n,
            empty_prefix_mean=mean_front,
        )

    def _check_cap(self, max_iterations: Optional[int]) -> None:
        if max_iterations is not None and self._step_count >= max_iterations:
            raise self._capped_error(max_iterations)

    def run(self, max_iterations: Optional[int] = None) -> None:
        """Step until every lane terminates.

        Theorem 1 is enforced per lane: a lane still active past its own
        ``k1 + k2`` bound raises :class:`~repro.errors.SystolicError`
        (``max_iterations`` optionally caps the whole batch instead).

        On the native kernel with no tracer and no probe, the whole run
        is one call into C.  With a tracer attached, the whole run is one
        ``row_batch`` span and every iteration a nested ``step`` span.
        Either way an error leaves the state the per-step loop leaves.
        """
        kernel = native.LOADER.kernel()
        bound = self.k1 + self.k2
        tracer = self.tracer
        if tracer is None:
            if kernel is not None and self.probe is None:
                self._native_run(kernel, bound, max_iterations)
                return
            while not self.is_done:
                self._check_cap(max_iterations)
                self._step(kernel, bound)
            return
        with tracer.span(
            "row_batch",
            rows=self.n_rows,
            cells=self.batch_cells,
            kernel="numpy" if kernel is None else "native",
        ) as batch_span:
            while not self.is_done:
                self._check_cap(max_iterations)
                with tracer.span(
                    "step",
                    index=self._step_count,
                    active_lanes=int(self.active.sum()),
                ):
                    self._step(kernel, bound)
            batch_span.set_attribute("iterations", self._step_count)

    # ------------------------------------------------------------------ #
    # One-shot drivers                                                   #
    # ------------------------------------------------------------------ #
    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        max_iterations: Optional[int] = None,
    ) -> List[XorRunResult]:
        """Difference ``rows_a[i] XOR rows_b[i]`` for every ``i`` in one
        batch; returns one :class:`XorRunResult` per lane (same contract
        as running :meth:`SystolicXorMachine.diff
        <repro.core.machine.SystolicXorMachine.diff>` per row, except
        ``n_cells`` reports the shared batch width and no phase trace is
        recorded)."""
        self.load(rows_a, rows_b)
        self.run(max_iterations=max_iterations)
        n = self.batch_cells
        rows = self._extract(
            slice(None),
            [ra.width if ra.width is not None else rb.width for ra, rb in zip(rows_a, rows_b)],
        )
        return [
            XorRunResult(
                result=row, iterations=iterations, k1=k1, k2=k2, n_cells=n, stats=_activity(stats)
            )
            for row, iterations, k1, k2, stats in zip(
                rows,
                self.iterations.tolist(),
                self.k1.tolist(),
                self.k2.tolist(),
                self._stat_rows.T.tolist(),
            )
        ]

    def diff(
        self,
        row_a: RLERow,
        row_b: RLERow,
        max_iterations: Optional[int] = None,
    ) -> XorRunResult:
        """Single-pair convenience: a batch of one lane."""
        return self.diff_rows([row_a], [row_b], max_iterations=max_iterations)[0]
