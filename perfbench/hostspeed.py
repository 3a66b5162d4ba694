"""Host speed: how fast the shared host runs Python at each moment.

Other tenants of the host slow every process on it, in phases of
seconds to minutes: one fixed ``image_diff`` took 135-150 ms in quiet
phases and 250-290 ms in busy ones, with its CPU time moving alike.  A
run's raw timings therefore measure the host as much as the program.

A station samples the host by running :func:`kernel` — a fixed
pure-Python run-length XOR owned by the benchmark, which no change to
the program can alter — on its own thread, outside every op's timed
window, and timing it with the thread's CPU clock (waits for the CPU or
the interpreter lock are not counted).  A sample's *factor* is
:data:`REFERENCE_S` over the kernel's time: 1 on a host where the kernel
takes 10 ms, 0.5 on one twice as slow.  The benchmark multiplies each
op's time by the mean factor of the samples near it, which states the
timing metrics on that reference host.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: The kernel's CPU time on the reference host the metrics are stated on.
REFERENCE_S = 0.010
#: A station samples after an op once this long has passed since its
#: previous sample (about 4 % of a station's time).
SAMPLE_EVERY_S = 0.25
#: An op's factor is the mean over the samples this close to it in time:
#: a single 10 ms sample jitters by about 15 %, the host's phases last
#: seconds.
NEAR_S = 0.5
#: Calls that warm the kernel up (the interpreter specialises its loop
#: after the first few) before any sample counts.
WARM_UP = 3

_SPAN = 40_000


def _toggles(step: int, offset: int) -> List[int]:
    return list(range(offset, _SPAN, step))


_A = _toggles(7, 3)
_B = _toggles(11, 5)


def kernel() -> int:
    """XOR of two fixed run-length rows given as sorted toggle positions,
    merged in pure Python (equal toggles cancel); the same work every
    call.  Returns the output's toggle count."""
    count = 0
    for _ in range(9):
        a, b = _A, _B
        i = j = 0
        out: List[int] = []
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x < y:
                out.append(x)
                i += 1
            elif y < x:
                out.append(y)
                j += 1
            else:
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        count += len(out)
    return count


class HostSpeed:
    """The samples one run takes: ``(time, factor)`` in time order.
    Stations sample from their own threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._times: List[float] = []
        self._factors: List[float] = []
        for _ in range(WARM_UP):
            kernel()

    def sample(self) -> float:
        """Run the kernel once; record and return its factor."""
        started = time.thread_time()
        kernel()
        factor = REFERENCE_S / (time.thread_time() - started)
        now = time.perf_counter()
        with self._lock:
            at = bisect.bisect(self._times, now)
            self._times.insert(at, now)
            self._factors.insert(at, factor)
        return factor

    def factor_at(self, moment: float) -> float:
        """The mean factor of the samples within :data:`NEAR_S` of
        ``moment`` (a ``time.perf_counter`` reading), or of the nearest
        sample when none is that close."""
        with self._lock:
            lo = bisect.bisect_left(self._times, moment - NEAR_S)
            hi = bisect.bisect_right(self._times, moment + NEAR_S)
            if lo < hi:
                return statistics.mean(self._factors[lo:hi])
            at = bisect.bisect(self._times, moment)
            near = [k for k in (at - 1, at) if 0 <= k < len(self._times)]
            return self._factors[min(near, key=lambda k: abs(self._times[k] - moment))]

    def mean_factor(self, since: float) -> float:
        """Mean factor of the samples taken after ``since``: the host's
        speed over a phase, for work measured only as a whole."""
        with self._lock:
            return statistics.mean(f for t, f in zip(self._times, self._factors) if t > since)

    def bracket(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` between two samples: its result, and the mean of the
        two factors, for work timed only as a whole."""
        before = self.sample()
        out = fn()
        return out, (before + self.sample()) / 2

    def __len__(self) -> int:
        with self._lock:
            return len(self._times)
