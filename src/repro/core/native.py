"""The batched engine's native step kernel: build, cache and load.

``batched_step.c`` performs one iteration of
:meth:`BatchedXorEngine.step <repro.core.batched.BatchedXorEngine.step>`,
or every iteration of an untraced, unprobed
:meth:`BatchedXorEngine.run <repro.core.batched.BatchedXorEngine.run>`,
as plain C functions with no Python API.  The first engine step of a
process asks :data:`LOADER` for them.  The loader compiles the source with
the system ``cc`` in a subprocess, writes the shared library into this
package's ``__pycache__`` under a name keyed by the source hash and the
platform (published by atomic rename, so racing processes each end up
with a whole file), and loads it with :mod:`ctypes`.  Later processes
find the library and only load it.

Any failure — no compiler, a compile error, an unwritable cache, a
library that does not load — leaves the NumPy step in force, and
:meth:`KernelLoader.describe` says why.  Only availability selects the
kernel; the NumPy step is the fallback and the reference the tests step
against.
"""

from __future__ import annotations

import ctypes
import enum
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Final, Iterator, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import SystolicError

__all__ = ["LOADER", "SOURCE", "BoundStep", "KernelLoader", "StepKernel", "Stop"]

#: The kernel source, shipped as package data next to this module.
SOURCE: Final = Path(__file__).with_name("batched_step.c")

#: Seconds one compile may take before the loader gives up on it.
COMPILE_TIMEOUT_S: Final = 120.0

_CFLAGS: Final = ("-O2", "-std=c99", "-shared", "-fPIC")

Array = npt.NDArray[Any]
Planes = Tuple[Array, Array, Array, Array]

_P = ctypes.c_void_p
_I = ctypes.c_int64
#: ss, se, bs, be, n_rows, n, active, iterations, stats, lanes: the
#: arguments both functions start with — see ``batched_step.c``.
_HEAD: Final = (_P, _P, _P, _P, _I, _I, _P, _P, _P, _P)
#: Exported function names per plane itemsize (int32 and int64 planes).
_SYMBOLS: Final = (
    (4, "repro_batched_step_i32", "repro_batched_run_i32"),
    (8, "repro_batched_step_i64", "repro_batched_run_i64"),
)
#: ``max_iterations`` for an uncapped run: no step count reaches it.
_NO_CAP: Final = 2**63 - 1


class Stop(enum.IntEnum):
    """Why :meth:`BoundStep.run` returned (``batched_step.c``'s codes)."""

    DONE = 0  #: every lane terminated
    CAPPED = 1  #: lanes still active at ``max_iterations``
    UNBOUNDED = 2  #: :attr:`BoundStep.lane` still active at its Theorem 1 bound
    OVERFLOW = 3  #: :attr:`BoundStep.lane`'s :attr:`~BoundStep.datum` would leave the array


def _address(array: Optional[Array]) -> Optional[int]:
    return None if array is None else int(array.ctypes.data)


def _require(array: Array, name: str, dtype: "np.dtype[Any]", shape: Tuple[int, ...]) -> None:
    if array.dtype != dtype or array.shape != shape:
        raise SystolicError(
            f"{name}: expected {dtype} {shape}, got {array.dtype} {array.shape}"
        )
    if not (array.flags.c_contiguous and array.flags.writeable):
        raise SystolicError(f"{name}: expected a writeable C-contiguous array")


class BoundStep:
    """The kernel's functions with one batch's arrays bound.

    The arrays are validated once, here, and referenced for as long as
    the binding lives, so the pointers handed to C stay valid.  The
    binding also owns the kernel's per-lane state, which the NumPy step
    does not keep.  It is rebuilt from the planes: every lane's window
    starts as the batch's ``window`` (it holds every lane's ``RegBig``
    runs) and is narrowed to the lane's own by its first iteration, so
    the batch may have taken NumPy steps before.
    """

    def __init__(
        self,
        functions: Tuple[Callable[..., int], Callable[..., int]],
        planes: Planes,
        active: Array,
        iterations: Array,
        stat_rows: Optional[Array],
        window: Tuple[int, int],
        step_count: int,
    ) -> None:
        n_rows, n = planes[0].shape
        int64 = np.dtype(np.int64)
        for name, plane in zip(("ss", "se", "bs", "be"), planes):
            _require(plane, name, planes[0].dtype, (n_rows, n))
        _require(active, "active", np.dtype(np.bool_), (n_rows,))
        _require(iterations, "iterations", int64, (n_rows,))
        if stat_rows is not None:
            _require(stat_rows, "stats", int64, (5, n_rows))
        lo, hi = window
        if not 0 <= lo <= hi <= n:
            raise SystolicError(f"window [{lo}, {hi}) outside {n} cells")
        lanes = np.zeros((3, n_rows), dtype=np.int64)
        lanes[0], lanes[1] = lo, hi
        if stat_rows is not None:
            ss, se = planes[0], planes[1]
            np.sum(se >= ss, axis=1, out=lanes[2])
        self._n_rows = n_rows
        self._state = np.array([lo, hi, step_count, 0, 0, -1], dtype=np.int64)
        self._arrays = (planes, active, iterations, stat_rows, lanes, self._state)
        self._step, self._run = functions
        self._head = (
            *(_address(plane) for plane in planes),
            n_rows,
            n,
            _address(active),
            _address(iterations),
            _address(stat_rows),
            _address(lanes),
        )
        self._tail = _address(self._state)

    def step(self) -> int:
        """Run one iteration.  Returns ``-1``, or the lane whose datum
        would shift past the last cell (nothing written)."""
        return int(self._step(*self._head, self._tail))

    def run(self, bound: Array, max_iterations: Optional[int]) -> Stop:
        """Iterate until every lane terminates or a check fails, in one
        call that holds no GIL: the checks of ``BatchedXorEngine.run``,
        in its order, before each iteration.  ``bound`` is each lane's
        Theorem 1 bound, ``k1 + k2``."""
        _require(bound, "bound", np.dtype(np.int64), (self._n_rows,))
        # clamped to int64: every cap below 0 stops before the first
        # iteration, as 0 does
        cap = _NO_CAP if max_iterations is None else min(max(max_iterations, -1), _NO_CAP)
        return Stop(self._run(*self._head, _address(bound), cap, self._tail))

    @property
    def position(self) -> Tuple[int, int, int]:
        """The batch's ``(lo, hi)`` window and the iterations run, after
        the last iteration."""
        lo, hi, step_count = self._state[:3].tolist()
        return lo, hi, step_count

    @property
    def lane(self) -> int:
        """The lane of the last :attr:`Stop.UNBOUNDED` or capacity stop."""
        return int(self._state[5])

    @property
    def datum(self) -> Tuple[int, int]:
        """The datum of the last capacity stop, as ``(start, end)``."""
        start, end = self._state[3:5].tolist()
        return start, end


class StepKernel:
    """A loaded kernel library: a step and a run function per plane width."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._library = ctypes.CDLL(str(path))
        self._functions: Dict[int, Tuple[Callable[..., int], Callable[..., int]]] = {}
        for itemsize, step_symbol, run_symbol in _SYMBOLS:
            step = getattr(self._library, step_symbol)
            step.argtypes = (*_HEAD, _P)
            step.restype = ctypes.c_int64
            run = getattr(self._library, run_symbol)
            run.argtypes = (*_HEAD, _P, _I, _P)
            run.restype = ctypes.c_int64
            self._functions[itemsize] = (step, run)

    def bind(
        self,
        planes: Planes,
        active: Array,
        iterations: Array,
        stat_rows: Optional[Array],
        window: Tuple[int, int],
        step_count: int,
    ) -> BoundStep:
        """Bind one batch's state: the four ``(n_rows, n)`` planes, the
        lane mask and iteration counts, the stat rows when the engine
        collects stats, and the batch's ``[lo, hi)`` window and
        iterations run so far."""
        dtype = planes[0].dtype
        if dtype.kind != "i" or dtype.itemsize not in self._functions:
            raise SystolicError(f"no step kernel for {dtype} planes")
        return BoundStep(
            self._functions[dtype.itemsize], planes, active, iterations, stat_rows, window, step_count
        )


class KernelLoader:
    """Builds and loads the step kernel once per process, on first use.

    ``source`` is the C file and ``cache_dir`` the directory the shared
    library is cached in (this package's ``__pycache__`` for
    :data:`LOADER`).
    """

    def __init__(self, source: Path, cache_dir: Path) -> None:
        self.source = source
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._loaded = False
        self._kernel: Optional[StepKernel] = None
        self._failure = ""

    def library_path(self) -> Path:
        """Where the library for the current source and platform lives."""
        # blake2b is built in; a first OpenSSL sha256 call measured about
        # a megabyte of resident memory in a shard worker
        digest = hashlib.blake2b(self.source.read_bytes(), digest_size=8).hexdigest()
        platform = sysconfig.get_platform().replace("-", "_").replace(".", "_")
        return self.cache_dir / f"{self.source.stem}.{digest}.{platform}.so"

    def kernel(self) -> Optional[StepKernel]:
        """The loaded kernel, or ``None`` when the NumPy step is in force.
        The first call builds or loads it; later calls return that."""
        with self._lock:
            if not self._loaded:
                self._kernel, self._failure = self._load()
                self._loaded = True
            return self._kernel

    def describe(self) -> str:
        """``"native"``, or ``"numpy (<why the kernel did not load>)"``."""
        kernel = self.kernel()
        with self._lock:
            return "native" if kernel is not None else f"numpy ({self._failure})"

    @contextmanager
    def withheld(self) -> Iterator[None]:
        """Hand out no kernel inside the block, so engines take the NumPy
        step: how the tests step the reference and the engine benchmark
        times the fallback.  Not for concurrent use."""
        with self._lock:
            saved = self._loaded, self._kernel, self._failure
            self._loaded, self._kernel, self._failure = True, None, "withheld"
        try:
            yield
        finally:
            with self._lock:
                self._loaded, self._kernel, self._failure = saved

    def _load(self) -> Tuple[Optional[StepKernel], str]:
        try:
            path = self.library_path()
        except OSError as exc:
            return None, f"cannot read {self.source.name}: {exc}"
        if path.exists():
            try:
                return StepKernel(path), ""
            except (OSError, AttributeError):
                pass  # unloadable cached file: build it again
        compiler = shutil.which("cc")
        if compiler is None:
            return None, "no C compiler: cc not found on PATH"
        try:
            self._compile(compiler, path)
            return StepKernel(path), ""
        except subprocess.CalledProcessError as exc:
            detail = exc.stderr.decode(errors="replace").strip().splitlines()
            return None, f"cc failed: {detail[0] if detail else exc}"
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    def _compile(self, compiler: str, path: Path) -> None:
        """Compile into a private temporary file, then publish it under
        ``path`` by atomic rename."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=self.cache_dir)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp, str(self.source)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=COMPILE_TIMEOUT_S,
                check=True,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


#: The process's loader; engines ask it for the kernel on every step.
LOADER: Final = KernelLoader(SOURCE, SOURCE.parent / "__pycache__")
