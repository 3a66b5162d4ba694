"""The batched engine's native step kernel: build, cache and load.

``batched_step.c`` performs one iteration of
:meth:`BatchedXorEngine.step <repro.core.batched.BatchedXorEngine.step>`
as a plain C function with no Python API.  The first engine step of a
process asks :data:`LOADER` for it.  The loader compiles the source with
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

__all__ = ["LOADER", "SOURCE", "BoundStep", "KernelLoader", "StepKernel"]

#: The kernel source, shipped as package data next to this module.
SOURCE: Final = Path(__file__).with_name("batched_step.c")

#: Seconds one compile may take before the loader gives up on it.
COMPILE_TIMEOUT_S: Final = 120.0

_CFLAGS: Final = ("-O2", "-std=c99", "-shared", "-fPIC")

Array = npt.NDArray[Any]
Planes = Tuple[Array, Array, Array, Array]
#: ``(stat_rows, frozen_busy, small_prefix)`` of an engine collecting stats.
StatArrays = Tuple[Array, Array, Array]

_P = ctypes.c_void_p
_I = ctypes.c_int64
#: ss, se, bs, be, n_rows, n, active, iterations, stats, frozen_busy,
#: small_prefix, lo, hi, step_count, out — see ``batched_step.c``.
_ARGTYPES: Final = (_P, _P, _P, _P, _I, _I, _P, _P, _P, _P, _P, _I, _I, _I, _P)

#: Exported step function per plane itemsize (int32 and int64 planes).
_SYMBOLS: Final = ((4, "repro_batched_step_i32"), (8, "repro_batched_step_i64"))


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
    """The step function with one batch's arrays bound.

    The arrays are validated once, here, and referenced for as long as
    the binding lives, so the pointers handed to C stay valid.
    """

    def __init__(
        self,
        step: Callable[..., int],
        planes: Planes,
        active: Array,
        iterations: Array,
        stats: Optional[StatArrays],
    ) -> None:
        n_rows, n = planes[0].shape
        int64 = np.dtype(np.int64)
        for name, plane in zip(("ss", "se", "bs", "be"), planes):
            _require(plane, name, planes[0].dtype, (n_rows, n))
        _require(active, "active", np.dtype(np.bool_), (n_rows,))
        _require(iterations, "iterations", int64, (n_rows,))
        if stats is not None:
            shapes = ((5, n_rows), (n_rows,), (n_rows, n + 1))
            for name, array, shape in zip(("stats", "frozen_busy", "small_prefix"), stats, shapes):
                _require(array, name, int64, shape)
        self.active = active
        self._cells = n
        self._out = np.zeros(4, dtype=np.int64)
        self._arrays = (planes, active, iterations, stats, self._out)
        self._step = step
        self._head = (
            *(_address(plane) for plane in planes),
            n_rows,
            n,
            _address(active),
            _address(iterations),
            *(_address(array) for array in (stats or (None, None, None))),
        )
        self._tail = _address(self._out)

    def __call__(self, lo: int, hi: int, step_count: int) -> int:
        """Run one iteration over the window ``[lo, hi)``, recording
        ``step_count`` on the active lanes.  Returns ``-1``, or the lane
        whose datum would shift past the last cell (nothing written)."""
        if not 0 <= lo <= hi <= self._cells:
            raise SystolicError(f"window [{lo}, {hi}) outside {self._cells} cells")
        return int(self._step(*self._head, lo, hi, step_count, self._tail))

    @property
    def window(self) -> Tuple[int, int]:
        """The ``[lo, hi)`` window after the last successful step."""
        lo, hi = self._out[:2].tolist()
        return lo, hi

    @property
    def datum(self) -> Tuple[int, int]:
        """The datum of the last capacity error, as ``(start, end)``."""
        start, end = self._out[2:].tolist()
        return start, end


class StepKernel:
    """A loaded kernel library: one step function per plane width."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._library = ctypes.CDLL(str(path))
        self._steps: Dict[int, Callable[..., int]] = {}
        for itemsize, symbol in _SYMBOLS:
            step = getattr(self._library, symbol)
            step.argtypes = _ARGTYPES
            step.restype = ctypes.c_int64
            self._steps[itemsize] = step

    def bind(
        self,
        planes: Planes,
        active: Array,
        iterations: Array,
        stats: Optional[StatArrays],
    ) -> BoundStep:
        """Bind one batch's state: the four ``(n_rows, n)`` planes, the
        lane mask and iteration counts, and — when the engine collects
        stats — the stat rows, frozen busy counts and RegSmall prefix."""
        dtype = planes[0].dtype
        if dtype.kind != "i" or dtype.itemsize not in self._steps:
            raise SystolicError(f"no step kernel for {dtype} planes")
        return BoundStep(self._steps[dtype.itemsize], planes, active, iterations, stats)


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
