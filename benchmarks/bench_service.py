"""A7 — DiffService: cache hit rate and served throughput vs the
uncached functional API on a repeated-frame workload.

The service exists for one deployment shape: a resident differencing
process fed a stream of frames where most content repeats (static
surveillance backgrounds, golden PCB references, rescanned documents).
This bench quantifies the payoff on exactly that shape — a synthetic
motion clip replayed several times:

- **hit rate**: fraction of row requests served from the
  content-addressed cache.  Asserted ≥ 90 % (the PR's acceptance
  floor); static background rows repeat within a pass and everything
  repeats across passes, so a healthy cache should sail past it.
- **throughput**: row pairs per second through the warmed service vs
  ``diff_images`` recomputing every row, same options, same frames.
- **identity**: the served results must be byte-identical to a
  cache-off service run (the tentpole invariant, spot-checked here on
  real workload data and proved property-style in ``tests/service/``).

Outputs ``results/service.txt`` (rendered summary) and
``results/service.json`` (machine-readable, via
:func:`write_json_artifact`).

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks the clip and skips timing
and artifacts but keeps both the hit-rate floor and the identity gate —
CI runs this on every push (``make service-smoke``).
"""

import os
import time

import pytest

from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.service import DiffService, ShardedDiffService
from repro.workloads.motion import generate_sequence

from conftest import write_artifact, write_json_artifact

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

FRAME_SIZE = 48 if SMOKE else 128
N_FRAMES = 6 if SMOKE else 10
#: Smoke replays the tiny clip more times: misses are bounded by the
#: unique content, so extra passes are pure hits and push the measured
#: rate safely past the floor even at toy scale.
PASSES = 6 if SMOKE else 4
SEED = 2024

#: The PR's acceptance floor for the repeated-frame workload.
HIT_RATE_FLOOR = 0.90

OPTIONS = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(
        height=FRAME_SIZE, width=FRAME_SIZE, n_frames=N_FRAMES, seed=SEED
    )


def frame_pairs(clip):
    for _ in range(PASSES):
        yield from zip(clip, clip[1:])


def run_through_service(clip, cache_bytes):
    with DiffService(OPTIONS, cache_bytes=cache_bytes, max_latency=0.0) as service:
        results = [service.diff_images(a, b) for a, b in frame_pairs(clip)]
        return results, service.stats()


class TestServiceGates:
    def test_hit_rate_floor(self, clip):
        """≥90 % of row requests on the repeated-frame clip must be
        cache hits — the service's reason to exist."""
        _, stats = run_through_service(clip, cache_bytes=64 * 1024 * 1024)
        assert stats["requests"] > 0
        assert stats["hit_rate"] >= HIT_RATE_FLOOR, (
            f"hit rate {stats['hit_rate']:.1%} below the "
            f"{HIT_RATE_FLOOR:.0%} floor"
        )

    def test_served_results_identical_to_uncached(self, clip):
        """Cache on vs cache off, same clip: every row of every frame
        pair byte-identical."""
        cached, _ = run_through_service(clip, cache_bytes=64 * 1024 * 1024)
        uncached, stats = run_through_service(clip, cache_bytes=0)
        assert stats["hit_rate"] == 0.0
        for c_res, u_res in zip(cached, uncached):
            assert [r.to_pairs() for r in c_res.image] == [
                r.to_pairs() for r in u_res.image
            ]
            for c, u in zip(c_res.row_results, u_res.row_results):
                assert c.result.to_pairs() == u.result.to_pairs()
                assert c.iterations == u.iterations
                assert c.n_cells == u.n_cells
                assert c.stats.items() == u.stats.items()


@pytest.mark.skipif(SMOKE, reason="timing skipped in smoke mode")
class TestServiceThroughput:
    def test_artifact(self, clip, results_dir):
        pairs = list(frame_pairs(clip))
        n_rows = sum(a.height for a, _ in pairs)

        # uncached baseline: the functional API recomputes every row
        t0 = time.perf_counter()
        for a, b in pairs:
            diff_images(a, b, options=OPTIONS)
        uncached_seconds = time.perf_counter() - t0

        # warmed service: first pass populates, the rest mostly hit
        t0 = time.perf_counter()
        _, stats = run_through_service(clip, cache_bytes=64 * 1024 * 1024)
        service_seconds = time.perf_counter() - t0

        speedup = uncached_seconds / service_seconds if service_seconds else 0.0
        payload = {
            "workload": {
                "frame_size": FRAME_SIZE,
                "n_frames": N_FRAMES,
                "passes": PASSES,
                "frame_pairs": len(pairs),
                "row_requests": n_rows,
                "seed": SEED,
            },
            "cache": {
                "hit_rate": stats["hit_rate"],
                "hits": stats["hits"],
                "misses": stats["misses"],
                "entries": stats["entries"],
                "bytes": stats["bytes"],
                "evictions": stats["evictions"],
            },
            "batching": {
                "batches": stats["batches"],
                "requests": stats["requests"],
            },
            "throughput": {
                "uncached_seconds": uncached_seconds,
                "service_seconds": service_seconds,
                "uncached_rows_per_second": n_rows / uncached_seconds,
                "service_rows_per_second": n_rows / service_seconds,
                "speedup": speedup,
            },
            "hit_rate_floor": HIT_RATE_FLOOR,
        }
        write_json_artifact(results_dir, "service.json", payload)

        lines = [
            "DiffService on a repeated-frame motion clip",
            f"  {len(pairs)} frame pairs ({N_FRAMES} frames x {PASSES} passes, "
            f"{FRAME_SIZE}x{FRAME_SIZE})",
            f"  row requests        : {n_rows}",
            f"  cache hit rate      : {stats['hit_rate']:.1%} "
            f"(floor {HIT_RATE_FLOOR:.0%})",
            f"  uncached throughput : {n_rows / uncached_seconds:,.0f} rows/s "
            f"({uncached_seconds:.3f}s)",
            f"  service throughput  : {n_rows / service_seconds:,.0f} rows/s "
            f"({service_seconds:.3f}s)",
            f"  speedup             : {speedup:.2f}x",
        ]
        write_artifact(results_dir, "service.txt", "\n".join(lines))

        assert stats["hit_rate"] >= HIT_RATE_FLOOR
        # the warmed service must not be slower than recomputing
        assert speedup > 1.0


# --------------------------------------------------------------------- #
# The sharded tier (see docs/SERVING.md)                                 #
# --------------------------------------------------------------------- #
#: Speedup floor for the multi-worker bench.  Only enforced when the
#: host actually has enough cores to parallelize — on a smaller box the
#: bench still runs every correctness gate and reports the measured
#: number, it just cannot demand physics the hardware does not have.
SHARDED_SPEEDUP_FLOOR = 2.5

SHARDED_WORKERS = 4
SHARDED_ROWS = 512 if SMOKE else 4096
SHARDED_WIDTH = 512
SHARDED_CHUNK = 1024  # pairs per request, the serving-shaped unit


def make_unique_pairs(n_rows, width, seed):
    """Non-repeating row pairs: every request misses, so the bench
    measures engine throughput across shards, not cache luck."""
    from repro.workloads.random_rows import generate_row_pair
    from repro.workloads.spec import BaseRowSpec, ErrorSpec

    base = BaseRowSpec(width=width, density=0.30)
    errors = ErrorSpec(fraction=0.05)
    rows_a, rows_b = [], []
    for y in range(n_rows):
        ra, rb, _mask = generate_row_pair(base, errors, seed=seed * 100_003 + y)
        rows_a.append(ra)
        rows_b.append(rb)
    return rows_a, rows_b


def assert_row_results_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.result.to_pairs() == w.result.to_pairs()
        assert g.iterations == w.iterations
        assert g.n_cells == w.n_cells
        assert g.stats.items() == w.stats.items()


def fold_snapshots(snapshots):
    folded = snapshots[0]
    for snapshot in snapshots[1:]:
        folded = folded.merge(snapshot)
    return folded


def run_sharded_bench(workers, n_rows, width, seed=SEED, chunk=SHARDED_CHUNK):
    """Single-process vs sharded throughput on identical traffic.

    Returns the results payload.  Raises AssertionError if the sharded
    results are not byte-identical to the single-process service's, or
    if the merged cross-worker snapshot differs from the fold of the
    per-worker snapshots.
    """
    rows_a, rows_b = make_unique_pairs(n_rows, width, seed)
    chunks = [
        (rows_a[i : i + chunk], rows_b[i : i + chunk])
        for i in range(0, n_rows, chunk)
    ]

    with DiffService(OPTIONS, cache_bytes=0, max_latency=0.0) as single:
        single.diff_rows(rows_a[:8], rows_b[:8])  # warm the worker thread
        t0 = time.perf_counter()
        reference = []
        for ca, cb in chunks:
            reference.extend(single.diff_rows(ca, cb))
        single_seconds = time.perf_counter() - t0

    with ShardedDiffService(OPTIONS, workers=workers, cache_bytes=0) as sharded:
        sharded.ping()  # workers up before the clock starts
        sharded.diff_rows(rows_a[:8], rows_b[:8])
        t0 = time.perf_counter()
        served = []
        for ca, cb in chunks:
            served.extend(sharded.diff_rows(ca, cb))
        sharded_seconds = time.perf_counter() - t0
        per_worker = sharded.worker_snapshots()
        merged = sharded.merged_snapshot()
        stats = sharded.stats()

    assert_row_results_identical(served, reference)
    assert fold_snapshots(per_worker) == merged, (
        "merged cross-worker snapshot differs from the fold of the "
        "per-worker snapshots"
    )
    merged_requests = merged.counter_total("repro_service_requests_total")
    # the warmup rows ride in the counters too
    assert merged_requests == stats["requests"], (
        f"merged metrics report {merged_requests:g} requests, "
        f"stats report {stats['requests']:g}"
    )

    speedup = single_seconds / sharded_seconds if sharded_seconds else 0.0
    return {
        "workload": {
            "rows": n_rows,
            "width": width,
            "chunk": chunk,
            "seed": seed,
            "unique_content": True,
        },
        "workers": workers,
        "host_cpus": os.cpu_count(),
        "throughput": {
            "single_seconds": single_seconds,
            "sharded_seconds": sharded_seconds,
            "single_rows_per_second": n_rows / single_seconds,
            "sharded_rows_per_second": n_rows / sharded_seconds,
            "speedup": speedup,
        },
        "merged_requests": merged_requests,
        "speedup_floor": SHARDED_SPEEDUP_FLOOR,
        "speedup_floor_enforced": (os.cpu_count() or 1) >= workers,
    }


class TestShardedGates:
    """Correctness gates for the sharded tier — run in smoke mode too."""

    def test_sharded_identity_on_clip(self, clip):
        """Whole-image diffs through 2 shard workers, byte-identical to
        the single-process service on the same clip."""
        pairs = list(zip(clip, clip[1:]))
        with DiffService(OPTIONS, max_latency=0.0) as single:
            reference = [single.diff_images(a, b) for a, b in pairs]
        with ShardedDiffService(OPTIONS, workers=2) as sharded:
            served = [sharded.diff_images(a, b) for a, b in pairs]
        for s_res, r_res in zip(served, reference):
            assert [r.to_pairs() for r in s_res.image] == [
                r.to_pairs() for r in r_res.image
            ]
            assert_row_results_identical(s_res.row_results, r_res.row_results)

    def test_merged_snapshot_equals_worker_fold(self, clip):
        """The front-end's merged registry must equal the fold of the
        per-worker snapshots — no lost or double-counted series."""
        pairs = list(zip(clip, clip[1:]))
        with ShardedDiffService(OPTIONS, workers=2) as sharded:
            for a, b in pairs:
                sharded.diff_images(a, b)
            per_worker = sharded.worker_snapshots()
            merged = sharded.merged_snapshot()
            stats = sharded.stats()
        assert fold_snapshots(per_worker) == merged
        total = merged.counter_total("repro_service_requests_total")
        assert total == stats["requests"] > 0


@pytest.mark.skipif(SMOKE, reason="timing skipped in smoke mode")
class TestShardedThroughput:
    def test_sharded_artifact(self, results_dir):
        payload = run_sharded_bench(SHARDED_WORKERS, SHARDED_ROWS, SHARDED_WIDTH)
        write_json_artifact(results_dir, "sharded.json", payload)
        through = payload["throughput"]
        lines = [
            f"Sharded serving tier: {payload['workers']} workers vs one process",
            f"  {payload['workload']['rows']} unique row pairs x "
            f"{payload['workload']['width']} px, "
            f"{payload['workload']['chunk']} pairs/request",
            f"  single-process : {through['single_rows_per_second']:,.0f} rows/s "
            f"({through['single_seconds']:.3f}s)",
            f"  sharded        : {through['sharded_rows_per_second']:,.0f} rows/s "
            f"({through['sharded_seconds']:.3f}s)",
            f"  speedup        : {through['speedup']:.2f}x "
            f"(floor {SHARDED_SPEEDUP_FLOOR}x, "
            + (
                "enforced"
                if payload["speedup_floor_enforced"]
                else f"not enforced: host has {payload['host_cpus']} CPU(s))"
            ),
        ]
        write_artifact(results_dir, "sharded.txt", "\n".join(lines))
        if payload["speedup_floor_enforced"]:
            assert through["speedup"] >= SHARDED_SPEEDUP_FLOOR, (
                f"sharded speedup {through['speedup']:.2f}x below the "
                f"{SHARDED_SPEEDUP_FLOOR}x floor on a "
                f"{payload['host_cpus']}-core host"
            )


# --------------------------------------------------------------------- #
# The persistent tier (see docs/API.md, "Persistent cache")              #
# --------------------------------------------------------------------- #
#: Acceptance floor: a process that restarts over a populated
#: ``--cache-dir`` must serve the clip this much faster than the cold
#: process that populated it.  Conservative on purpose — warm serving
#: skips every engine computation, so healthy runs land far above it.
PERSISTENT_SPEEDUP_FLOOR = 1.5

#: The persistent bench runs the *systolic* engine — the paper's
#: cell-level simulation, the expensive computation this cache exists
#: to make restart-durable.  The batched engine recomputes a dense row
#: faster than any per-row disk probe; persisting its results is a
#: capacity play (RAM budget), not a latency one, and a restart bench
#: over it would measure nothing but file I/O.
PERSISTENT_ENGINE = "systolic"

#: Unique dense row pairs (the sharded bench's generator): every row is
#: first-touch, which is exactly what a restart replays — content the
#: previous process computed but this one has not.
PERSISTENT_ROWS = 128 if SMOKE else 512
PERSISTENT_WIDTH = 512
PERSISTENT_CHUNK = 128


def _persistent_child_main(argv):
    """One measured process life: serve the workload over ``cache_dir``.

    Run as a real subprocess so "restart" means an OS process boundary,
    not a reopened object.  Timing is in-child (interpreter startup,
    import and workload-generation cost excluded).  Prints one JSON
    line: the serve time, the total time (close/flush included),
    cache/disk stats, and a digest over every field of every row result
    — the cold/warm identity check.
    """
    import hashlib
    import json

    cache_dir, n_rows, width, seed = (
        argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    )
    rows_a, rows_b = make_unique_pairs(n_rows, width, seed)
    chunks = [
        (rows_a[i : i + PERSISTENT_CHUNK], rows_b[i : i + PERSISTENT_CHUNK])
        for i in range(0, n_rows, PERSISTENT_CHUNK)
    ]
    options = DiffOptions(engine=PERSISTENT_ENGINE, cache_dir=cache_dir)
    t0 = time.perf_counter()
    service = DiffService(options, max_latency=0.0)
    results = []
    for chunk_a, chunk_b in chunks:
        results.extend(service.diff_rows(chunk_a, chunk_b))
    serve_seconds = time.perf_counter() - t0
    stats = service.stats()
    service.close()  # flush: makes the *next* process warm
    total_seconds = time.perf_counter() - t0

    digest = hashlib.blake2b(digest_size=16)
    for r in results:
        digest.update(
            repr(
                (
                    r.result.to_pairs(), r.result.width, r.iterations,
                    r.k1, r.k2, r.n_cells, r.stats.items(),
                )
            ).encode()
        )
    print(
        json.dumps(
            {
                "digest": digest.hexdigest(),
                "serve_seconds": serve_seconds,
                "total_seconds": total_seconds,
                "row_requests": stats["requests"],
                "stats": stats,
            }
        )
    )
    return 0


def _spawn_persistent_child(cache_dir, n_rows, width, seed):
    import json
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, __file__, "--persistent-child",
            cache_dir, str(n_rows), str(width), str(seed),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"persistent bench child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_persistent_bench(
    n_rows=PERSISTENT_ROWS, width=PERSISTENT_WIDTH, seed=SEED
):
    """Cold process vs warm-restarted process over one ``cache_dir``.

    Two child processes serve the identical workload: the first over an
    empty store (computes everything, flushes on close), the second
    over what the first left behind.  Returns the results payload.
    Raises AssertionError if the two processes' results are not
    byte-identical — a warm restart must never change an answer.
    """
    import shutil
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="repro-persistent-bench-")
    try:
        cold = _spawn_persistent_child(cache_dir, n_rows, width, seed)
        warm = _spawn_persistent_child(cache_dir, n_rows, width, seed)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    assert warm["digest"] == cold["digest"], (
        "warm-restarted process served different bytes than the cold one"
    )
    assert warm["stats"]["disk_warm_entries"] > 0, "second process opened cold"
    speedup = (
        cold["serve_seconds"] / warm["serve_seconds"]
        if warm["serve_seconds"]
        else 0.0
    )
    return {
        "workload": {
            "engine": PERSISTENT_ENGINE,
            "rows": n_rows,
            "width": width,
            "chunk": PERSISTENT_CHUNK,
            "row_requests": cold["row_requests"],
            "seed": seed,
        },
        "cold": {
            "serve_seconds": cold["serve_seconds"],
            "total_seconds": cold["total_seconds"],
            "hit_rate": cold["stats"]["hit_rate"],
            "disk_writes": cold["stats"]["disk_writes"],
        },
        "warm": {
            "serve_seconds": warm["serve_seconds"],
            "total_seconds": warm["total_seconds"],
            "hit_rate": warm["stats"]["hit_rate"],
            "disk_warm_entries": warm["stats"]["disk_warm_entries"],
            "disk_hits": warm["stats"]["disk_hits"],
            "disk_quarantined": warm["stats"]["disk_quarantined"],
        },
        "throughput": {
            "cold_rows_per_second": cold["row_requests"] / cold["serve_seconds"],
            "warm_rows_per_second": warm["row_requests"] / warm["serve_seconds"],
            "warm_restart_speedup": speedup,
        },
        "speedup_floor": PERSISTENT_SPEEDUP_FLOOR,
        "results_identical": True,
    }


class TestPersistentGates:
    """Correctness gates for warm restart — run in smoke mode too."""

    def test_cold_vs_warm_process_identity_and_warmth(self):
        payload = run_persistent_bench()
        assert payload["results_identical"]
        # the second process never computed: every request served from
        # RAM after one disk promotion per unique row pair
        assert payload["warm"]["hit_rate"] >= HIT_RATE_FLOOR
        assert payload["warm"]["disk_hits"] > 0
        assert payload["warm"]["disk_quarantined"] == 0
        # cold run's flush persisted the working set it had
        assert payload["warm"]["disk_warm_entries"] > 0


@pytest.mark.skipif(SMOKE, reason="timing skipped in smoke mode")
class TestPersistentThroughput:
    def test_persistent_artifact(self, results_dir):
        payload = run_persistent_bench()
        write_json_artifact(results_dir, "persistent.json", payload)
        through = payload["throughput"]
        lines = [
            "Persistent cache: cold process vs warm restart",
            f"  {payload['workload']['rows']} unique row pairs x "
            f"{payload['workload']['width']} px, "
            f"{payload['workload']['engine']} engine, "
            f"{payload['workload']['chunk']} pairs/request",
            f"  row requests        : {int(payload['workload']['row_requests'])}",
            f"  cold process        : {through['cold_rows_per_second']:,.0f} rows/s "
            f"({payload['cold']['serve_seconds']:.3f}s)",
            f"  warm restart        : {through['warm_rows_per_second']:,.0f} rows/s "
            f"({payload['warm']['serve_seconds']:.3f}s)",
            f"  restart speedup     : {through['warm_restart_speedup']:.2f}x "
            f"(floor {PERSISTENT_SPEEDUP_FLOOR}x)",
            f"  warm hit rate       : {payload['warm']['hit_rate']:.1%}",
        ]
        write_artifact(results_dir, "persistent.txt", "\n".join(lines))
        assert through["warm_restart_speedup"] >= PERSISTENT_SPEEDUP_FLOOR, (
            f"warm restart {through['warm_restart_speedup']:.2f}x below "
            f"the {PERSISTENT_SPEEDUP_FLOOR}x floor"
        )


def _persistent_main(argv=None):
    """``python benchmarks/bench_service.py --persistent``: the
    acceptance entry point — run the cold/warm restart bench directly,
    write ``results/persistent.json``, and gate on the speedup floor."""
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--persistent", action="store_true", required=True)
    parser.add_argument(
        "--min-speedup", type=float, default=PERSISTENT_SPEEDUP_FLOOR
    )
    args = parser.parse_args(argv)

    payload = run_persistent_bench()
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    (results / "persistent.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    through = payload["throughput"]
    print(
        f"cold process : {through['cold_rows_per_second']:,.0f} rows/s "
        f"({payload['cold']['serve_seconds']:.3f}s)"
    )
    print(
        f"warm restart : {through['warm_rows_per_second']:,.0f} rows/s "
        f"({payload['warm']['serve_seconds']:.3f}s, "
        f"{int(payload['warm']['disk_warm_entries'])} entries warm, "
        f"hit rate {payload['warm']['hit_rate']:.1%})"
    )
    print(f"speedup      : {through['warm_restart_speedup']:.2f}x")
    print("results byte-identical across the restart")
    if through["warm_restart_speedup"] < args.min_speedup:
        print(
            f"ERROR: warm-restart speedup "
            f"{through['warm_restart_speedup']:.2f}x below the "
            f"{args.min_speedup}x floor"
        )
        return 1
    return 0


def _sharded_main(argv=None):
    """``python benchmarks/bench_service.py --sharded --workers 4``: the
    acceptance entry point — run the multi-process bench directly,
    write ``results/sharded.json``, and gate on the speedup floor
    (enforced by default only when the host has >= workers cores; force
    it with ``--min-speedup``)."""
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sharded", action="store_true", required=True)
    parser.add_argument("--workers", type=int, default=SHARDED_WORKERS)
    parser.add_argument("--rows", type=int, default=SHARDED_ROWS)
    parser.add_argument("--width", type=int, default=SHARDED_WIDTH)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this speedup (default: 2.5 when the host has "
        ">= workers cores, otherwise report-only)",
    )
    args = parser.parse_args(argv)

    payload = run_sharded_bench(args.workers, args.rows, args.width)
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    (results / "sharded.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    through = payload["throughput"]
    print(
        f"single-process : {through['single_rows_per_second']:,.0f} rows/s "
        f"({through['single_seconds']:.3f}s)"
    )
    print(
        f"sharded ({args.workers}w)   : {through['sharded_rows_per_second']:,.0f} "
        f"rows/s ({through['sharded_seconds']:.3f}s)"
    )
    print(f"speedup        : {through['speedup']:.2f}x")
    print("results identical, merged snapshot == per-worker fold")
    floor = args.min_speedup
    if floor is None and payload["speedup_floor_enforced"]:
        floor = SHARDED_SPEEDUP_FLOOR
    if floor is not None and through["speedup"] < floor:
        print(
            f"ERROR: speedup {through['speedup']:.2f}x below the "
            f"{floor}x floor"
        )
        return 1
    if floor is None:
        print(
            f"(speedup floor not enforced: host has "
            f"{payload['host_cpus']} CPU(s) for {args.workers} workers)"
        )
    return 0


if __name__ == "__main__":
    import sys

    if "--persistent-child" in sys.argv:
        child_args = sys.argv[sys.argv.index("--persistent-child") + 1 :]
        sys.exit(_persistent_child_main(child_args))
    elif "--persistent" in sys.argv:
        sys.exit(_persistent_main())
    else:
        sys.exit(_sharded_main())
