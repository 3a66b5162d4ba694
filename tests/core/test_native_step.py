"""The native step kernel against the NumPy step, and the loader behind it.

``BatchedXorEngine.step`` runs ``batched_step.c`` whenever the loader
built it and the NumPy body otherwise.  The NumPy body is the reference:
a native engine and a NumPy engine stepped side by side must hold the
same state after every iteration.  An untraced ``run`` on the native
kernel is one call into C, which must stop where the per-step loops
stop.  The loader must compile once per cache, survive processes racing
on an empty cache, and leave the NumPy step in force on any failure.
"""

import os
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.errors import ReproError
from repro.obs.tracing import Tracer
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


@st.composite
def skewed_batches(draw):
    """A :func:`batches` case with one lane up to 2,000 px wide among the
    narrow ones: most lanes' own windows are far narrower than the
    batch's."""
    rows_a, rows_b, n_cells, collect_stats, max_iterations = draw(batches())
    width = draw(st.integers(100, 2000))
    lane = draw(st.integers(0, len(rows_a)))
    rows_a.insert(lane, draw(lane_row(width)))
    rows_b.insert(lane, draw(lane_row(width)))
    if n_cells is not None:
        n_cells = max(n_cells, rows_a[lane].run_count, rows_b[lane].run_count)
    return rows_a, rows_b, n_cells, collect_stats, max_iterations


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


def loaded(rows_a, rows_b, n_cells=None, collect_stats=True, **engine_args):
    engine = BatchedXorEngine(n_cells=n_cells, collect_stats=collect_stats, **engine_args)
    engine.load(rows_a, rows_b)
    return engine


@pytest.fixture
def native_calls(monkeypatch):
    """Counts of calls into the bound kernel, per entry point."""
    calls = {"step": 0, "run": 0}

    def spy(name):
        original = getattr(native.BoundStep, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(native.BoundStep, name, counted)

    spy("step")
    spy("run")
    return calls


def run_three_ways(engines, max_iterations=None):
    """Run three engines loaded with one batch: in one native call, in the
    traced per-step loop on the native kernel, and on the NumPy step.
    All three must raise the same error.  The first two must leave the
    same state, and the NumPy one too unless a capacity error stopped
    the run (its step has already applied steps 1 and 2 when it raises,
    where the native kernel writes nothing).  Returns the error."""
    fast, stepped, reference = engines
    stepped.tracer = Tracer()
    error = outcome(lambda: fast.run(max_iterations=max_iterations))
    assert outcome(lambda: stepped.run(max_iterations=max_iterations)) == error
    with native.LOADER.withheld():
        assert outcome(lambda: reference.run(max_iterations=max_iterations)) == error
    assert_same_state(fast, stepped)
    if error is None or not error.startswith("CapacityError"):
        assert_same_state(fast, reference)
    return error


@pytest.mark.usefixtures("native_kernel")
class TestOneCallRun:
    """An untraced, unprobed ``run`` on the native kernel is one call into
    C.  It must stop where the per-step loop stops, raising the same error
    and leaving the same state."""

    @given(st.one_of(batches(), batches(), batches(), batches(), skewed_batches()), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_end_state_and_error_as_the_per_step_loops(self, case, data):
        rows_a, rows_b, n_cells, collect_stats, max_iterations = case
        engines = [loaded(rows_a, rows_b, n_cells, collect_stats) for _ in range(3)]
        occupied = np.flatnonzero(engines[0].k2).tolist()
        if occupied and data.draw(st.integers(0, 4), label="forge") == 0:
            # a Theorem 1 violation: a lane's bound lowered below the
            # iterations it may need
            lane = data.draw(st.sampled_from(occupied), label="lane")
            drop = data.draw(st.integers(1, int(engines[0].k1[lane]) + 2), label="drop")
            for engine in engines:
                engine.k1[lane] -= drop
        run_three_ways(engines, max_iterations)

    @pytest.mark.parametrize("max_iterations", [0, 1, 3])
    def test_iteration_cap(self, max_iterations):
        rows_a = [RLERow.from_pairs([(0, 2), (9, 3)], width=20)] * 2
        rows_b = [RLERow.from_pairs([(5, 2), (10, 1), (14, 4)], width=20), RLERow.empty(20)]
        error = run_three_ways([loaded(rows_a, rows_b) for _ in range(3)], max_iterations)
        assert error == (
            f"SystolicError: 1 lanes still active after {max_iterations} iterations "
            f"(cap {max_iterations})"
        )

    def test_capacity_edge(self):
        rows_a = [RLERow.from_pairs([(0, 2)], width=8), RLERow.from_pairs([(0, 1)], width=8)]
        rows_b = [RLERow.from_pairs([(0, 2)], width=8), RLERow.from_pairs([(2, 1)], width=8)]
        engines = [loaded(rows_a, rows_b, n_cells=1) for _ in range(3)]
        assert run_three_ways(engines) == (
            "CapacityError: lane 1: datum (2, 2) shifted past the last cell "
            "(batch of 1 cells is too small)"
        )
        assert engines[0]._step_count == 0

    def test_theorem_1_violation(self):
        rows_a = [RLERow.from_pairs([(0, 1), (4, 1)], width=8)] * 2
        rows_b = [RLERow.from_pairs([(2, 1)], width=8)] * 2
        engines = [loaded(rows_a, rows_b) for _ in range(3)]
        for engine in engines:
            engine.k1[1] = 0  # bound 1; the lane needs 2 iterations
        assert run_three_ways(engines) == (
            "SystolicError: lane 1: no termination after 1 iterations (bound 1)"
        )

    def test_untraced_run_is_one_native_call(self, native_calls):
        rng = np.random.default_rng(5)
        rows_a = [RLERow.from_bits(rng.random(300) < 0.4) for _ in range(6)]
        rows_b = [RLERow.from_bits(rng.random(300) < 0.4) for _ in range(6)]
        engine = loaded(rows_a, rows_b)
        engine.run()
        assert engine.is_done and engine._step_count > 1
        assert native_calls == {"step": 0, "run": 1}

    def test_traced_run_keeps_one_step_span_per_iteration(self, native_calls):
        rng = np.random.default_rng(6)
        rows_a = [RLERow.from_bits(rng.random(300) < 0.4) for _ in range(6)]
        rows_b = [RLERow.from_bits(rng.random(300) < 0.4) for _ in range(6)]
        tracer = Tracer()
        engine = loaded(rows_a, rows_b, tracer=tracer)
        engine.run()
        steps = [span for span in tracer.spans if span.name == "step"]
        assert len(steps) == engine._step_count > 1
        assert [span.attributes["index"] for span in steps] == list(range(engine._step_count))
        assert native_calls == {"step": engine._step_count, "run": 0}
        (batch,) = [span for span in tracer.spans if span.name == "row_batch"]
        assert batch.attributes["kernel"] == "native"

    def test_threads_running_batches_at_once(self):
        """The one call holds no GIL, so batches of different threads run
        in C at the same time; each must still get its own results."""
        rng = np.random.default_rng(7)
        work = [
            tuple([RLERow.from_bits(rng.random(400) < 0.4) for _ in range(8)] for _ in "ab")
            for _ in range(4)
        ]
        expected = [diff_outcome(a, b, None, True, None) for a, b in work]
        got = [[] for _ in work]

        def serve(i):
            for _ in range(25):
                got[i].append(diff_outcome(*work[i], None, True, None))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(work))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want] * 25 for want in expected]

    @given(batches(), st.lists(st.booleans(), min_size=1))
    @settings(max_examples=60)
    def test_switching_kernels_mid_batch(self, case, schedule):
        """A batch that alternates kernels step by step (the native
        binding rebuilds its per-lane state from the planes, the NumPy
        step its banked busy counts) matches one that never leaves
        the NumPy step."""
        rows_a, rows_b, n_cells, collect_stats, _ = case
        mixed = loaded(rows_a, rows_b, n_cells, collect_stats)
        reference = loaded(rows_a, rows_b, n_cells, collect_stats)
        step = 0
        while not reference.is_done:
            if schedule[step % len(schedule)]:
                error = outcome(mixed.step)
            else:
                with native.LOADER.withheld():
                    error = outcome(mixed.step)
            with native.LOADER.withheld():
                assert outcome(reference.step) == error
            if error is not None:
                return
            assert_same_state(mixed, reference)
            step += 1
        assert mixed.is_done


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
