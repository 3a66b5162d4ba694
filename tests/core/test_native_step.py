"""The native step kernel against the NumPy step, and the loader behind it.

``BatchedXorEngine.step`` runs ``batched_step.c`` whenever the loader
built it and the NumPy body otherwise.  The NumPy body is the reference:
a native engine and a NumPy engine stepped side by side must hold the
same state after every iteration.  The loader must compile once per
cache, survive processes racing on an empty cache, and leave the NumPy
step in force on any failure.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.errors import ReproError
from repro.rle.row import RLERow

INT32_EDGE = 2**31 - 1
SRC = Path(native.__file__).resolve().parents[2]


@pytest.fixture
def native_kernel():
    kernel = native.LOADER.kernel()
    if kernel is None:
        pytest.skip(f"no native kernel here: {native.LOADER.describe()}")
    return kernel


def test_native_kernel_loads_wherever_cc_exists():
    """Otherwise a host with a compiler would test the fallback twice."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    assert native.LOADER.kernel() is not None, native.LOADER.describe()
    assert native.LOADER.describe() == "native"


# --------------------------------------------------------------------- #
# Side by side                                                           #
# --------------------------------------------------------------------- #
@st.composite
def lane_row(draw, width):
    """One row of ``width`` pixels: random, empty, full, touching the
    width, or split into adjacent (non-canonical) runs."""
    shape = draw(st.sampled_from(("random", "empty", "full", "edge", "adjacent")))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    bits = rng.random(width) < draw(st.floats(0.0, 1.0))
    if shape == "empty":
        bits[:] = False
    elif shape == "full":
        bits[:] = True
    elif shape == "edge" and width:
        bits[-1] = True
    row = RLERow.from_bits(bits)
    if shape != "adjacent":
        return row
    pieces = []
    for run in row.runs:
        cuts = sorted(set(rng.integers(1, run.length, size=2).tolist())) if run.length > 1 else []
        edges = [run.start, *(run.start + cut for cut in cuts), run.end + 1]
        pieces.extend((lo, hi - lo) for lo, hi in zip(edges, edges[1:]))
    return RLERow(pieces, width=width)


def beyond_int32(row_a, row_b, reach):
    """The pair moved right so its last run ends at ``2**31 - 1 + reach``."""
    last = max(row.runs[-1].end for row in (row_a, row_b) if row.run_count)
    shift = INT32_EDGE + reach - last
    return tuple(
        RLERow([(run.start + shift, run.length) for run in row.runs])
        for row in (row_a, row_b)
    )


@st.composite
def batches(draw):
    """``(rows_a, rows_b, n_cells, collect_stats, max_iterations)``."""
    n_rows = draw(st.integers(0, 6))
    widths = [draw(st.integers(0, 48)) for _ in range(n_rows)]
    pairs = [(draw(lane_row(w)), draw(lane_row(w))) for w in widths]
    occupied = [i for i, (a, b) in enumerate(pairs) if a.run_count or b.run_count]
    if occupied and draw(st.booleans()):
        lane = draw(st.sampled_from(occupied))
        pairs[lane] = beyond_int32(*pairs[lane], reach=draw(st.integers(0, 3)))
    widest = max((max(a.run_count, b.run_count) for a, b in pairs), default=0)
    # a fixed n_cells at (or just above) the widest lane: the capacity edge
    n_cells = draw(st.one_of(st.none(), st.integers(widest, widest + 2)))
    return (
        [a for a, _ in pairs],
        [b for _, b in pairs],
        n_cells,
        draw(st.booleans()),
        draw(st.sampled_from((None, 0, 1, 3))),
    )


def outcome(call):
    try:
        call()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def assert_same_state(got, want):
    for plane in ("ss", "se", "bs", "be"):
        assert getattr(got, plane).dtype == getattr(want, plane).dtype
        assert np.array_equal(getattr(got, plane), getattr(want, plane)), plane
    assert (got._lo, got._hi, got._step_count) == (want._lo, want._hi, want._step_count)
    assert np.array_equal(got.active, want.active)
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got._stat_rows, want._stat_rows)


def step_side_by_side(rows_a, rows_b, n_cells=None, collect_stats=True):
    """Step a native and a NumPy engine in lockstep, comparing state after
    every iteration; returns the error both raised, or ``None``."""
    fast = BatchedXorEngine(n_cells=n_cells, collect_stats=collect_stats)
    reference = BatchedXorEngine(n_cells=n_cells, collect_stats=collect_stats)
    fast.load(rows_a, rows_b)
    reference.load(rows_a, rows_b)
    assert_same_state(fast, reference)
    while not reference.is_done:
        error = outcome(fast.step)
        with native.LOADER.withheld():
            assert outcome(reference.step) == error
        if error is not None:
            return error
        assert_same_state(fast, reference)
    assert fast.is_done
    return None


def diff_outcome(rows_a, rows_b, n_cells, collect_stats, max_iterations):
    engine = BatchedXorEngine(n_cells=n_cells, collect_stats=collect_stats)
    try:
        results = engine.diff_rows(rows_a, rows_b, max_iterations=max_iterations)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [
        (r.result, r.iterations, r.k1, r.k2, r.n_cells, r.stats.as_dict())
        for r in results
    ]


@pytest.mark.usefixtures("native_kernel")
class TestSideBySide:
    @given(batches())
    @settings(max_examples=150)
    def test_identical_state_every_iteration(self, case):
        rows_a, rows_b, n_cells, collect_stats, _ = case
        error = step_side_by_side(rows_a, rows_b, n_cells, collect_stats)
        wide = any(r.run_count and r.runs[-1].end >= INT32_EDGE for r in rows_a + rows_b)
        if wide:
            engine = BatchedXorEngine(n_cells=n_cells)
            engine.load(rows_a, rows_b)
            assert engine.ss.dtype == np.int64
        if error is None:
            # both kernels also agree with the reference cell machine
            results = BatchedXorEngine(n_cells=n_cells).diff_rows(rows_a, rows_b)
            machine = SystolicXorMachine()
            for a, b, res in zip(rows_a, rows_b, results):
                ref = machine.diff(a, b)
                assert res.result == ref.result
                assert res.iterations == ref.iterations
                assert res.stats.as_dict() == ref.stats.as_dict()
        else:
            assert error.startswith("CapacityError: lane ")

    @given(batches())
    @settings(max_examples=60)
    def test_identical_results_and_errors(self, case):
        native_outcome = diff_outcome(*case)
        with native.LOADER.withheld():
            assert diff_outcome(*case) == native_outcome

    def test_capacity_error_names_the_same_lane(self):
        """Lane 0 fits; lane 1's RegBig datum is pushed out of the single
        cell, and both kernels blame lane 1 with the same datum."""
        rows_a = [RLERow.from_pairs([(0, 2)], width=8), RLERow.from_pairs([(0, 1)], width=8)]
        rows_b = [RLERow.from_pairs([(0, 2)], width=8), RLERow.from_pairs([(2, 1)], width=8)]
        error = step_side_by_side(rows_a, rows_b, n_cells=1)
        assert error == (
            "CapacityError: lane 1: datum (2, 2) shifted past the last cell "
            "(batch of 1 cells is too small)"
        )

    def test_iteration_cap_zero(self):
        rows = [RLERow.from_pairs([(0, 2)], width=20)], [RLERow.from_pairs([(5, 2)], width=20)]
        native_outcome = diff_outcome(*rows, None, True, 0)
        assert native_outcome.startswith("SystolicError: 1 lanes still active")
        with native.LOADER.withheld():
            assert diff_outcome(*rows, None, True, 0) == native_outcome


# --------------------------------------------------------------------- #
# The loader                                                             #
# --------------------------------------------------------------------- #
PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    from repro.core import native
    from repro.core.batched import BatchedXorEngine
    from repro.rle.row import RLERow

    native.LOADER = native.KernelLoader(native.SOURCE, Path(sys.argv[1]))
    a = RLERow.from_pairs([(1, 3), (7, 2)], width=12)
    b = RLERow.from_pairs([(2, 4)], width=12)
    result = BatchedXorEngine().diff(a, b)
    print(native.LOADER.describe(), result.result.to_pairs(), result.iterations)
    """
)
PROBE_OK = "native [(1, 1), (4, 2), (7, 2)] 3"


def fake_cc(directory, body):
    """A ``cc`` on a PATH of its own: ``body`` is its shell script."""
    directory.mkdir()
    script = directory / "cc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return directory


@pytest.fixture
def real_cc():
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no cc on PATH")
    return compiler


def start_probe(cache, path_dir):
    """A fresh interpreter diffing one pair with its kernel cached in
    ``cache``, finding ``cc`` in ``path_dir`` first."""
    env = dict(
        os.environ,
        PATH=f"{path_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(SRC),
    )
    return subprocess.Popen(
        [sys.executable, "-c", PROBE, str(cache)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_probe(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


def cache_files(cache):
    return sorted(p.name for p in cache.iterdir())


class TestLoader:
    def test_cold_cache_compiles_once_then_only_loads(self, tmp_path, real_cc):
        log = tmp_path / "compiles.log"
        counting = fake_cc(tmp_path / "bin", f'echo x >> "{log}"\nexec "{real_cc}" "$@"\n')
        cache = tmp_path / "cache"
        assert finish_probe(start_probe(cache, counting)) == PROBE_OK
        assert log.read_text().count("x") == 1
        built = cache_files(cache)
        assert len(built) == 1 and built[0].endswith(".so")
        stamp = (cache / built[0]).stat().st_mtime_ns
        for _ in range(2):
            assert finish_probe(start_probe(cache, counting)) == PROBE_OK
        assert log.read_text().count("x") == 1
        assert cache_files(cache) == built
        assert (cache / built[0]).stat().st_mtime_ns == stamp

    def test_processes_racing_on_an_empty_cache_both_load(self, tmp_path, real_cc):
        # the pause keeps both compiles in flight at once
        slow = fake_cc(tmp_path / "bin", f'sleep 0.5\nexec "{real_cc}" "$@"\n')
        cache = tmp_path / "cache"
        racers = [start_probe(cache, slow) for _ in range(2)]
        assert [finish_probe(proc) for proc in racers] == [PROBE_OK] * 2
        built = cache_files(cache)
        assert len(built) == 1 and built[0].endswith(".so")

    @pytest.mark.parametrize(
        "compiler, reason",
        [
            (None, "no C compiler: cc not found on PATH"),
            ('echo "cc: error: unsupported target" >&2\nexit 1\n',
             "cc failed: cc: error: unsupported target"),
        ],
        ids=["missing", "failing"],
    )
    def test_no_working_compiler_leaves_the_numpy_step(
        self, tmp_path, monkeypatch, compiler, reason
    ):
        bin_dir = tmp_path / "bin"
        if compiler is None:
            bin_dir.mkdir()
        else:
            fake_cc(bin_dir, compiler)
        monkeypatch.setenv("PATH", str(bin_dir))
        loader = native.KernelLoader(native.SOURCE, tmp_path / "cache")
        assert loader.kernel() is None
        assert loader.describe() == f"numpy ({reason})"
        assert not any(p.suffix == ".tmp" for p in (tmp_path / "cache").glob("*"))

        rng = np.random.default_rng(3)
        rows_a = [RLERow.from_bits(rng.random(60) < 0.4) for _ in range(8)]
        rows_b = [RLERow.from_bits(rng.random(60) < 0.4) for _ in range(8)]
        with native.LOADER.withheld():
            expected = diff_outcome(rows_a, rows_b, None, True, None)
        monkeypatch.setattr(native, "LOADER", loader)
        assert diff_outcome(rows_a, rows_b, None, True, None) == expected

    def test_source_change_changes_the_cache_key(self, tmp_path):
        source = tmp_path / native.SOURCE.name
        shutil.copyfile(native.SOURCE, source)
        loader = native.KernelLoader(source, tmp_path)
        before = loader.library_path()
        assert before == native.KernelLoader(native.SOURCE, tmp_path).library_path()
        source.write_text(source.read_text() + "/* edited */\n")
        after = loader.library_path()
        assert after != before
        assert after.parent == before.parent == tmp_path
        assert after.name.startswith("batched_step.") and after.suffix == ".so"
