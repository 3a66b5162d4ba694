"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``demo``       the paper's Figure 1/3 worked example, traced cycle by cycle
``figure5``    regenerate Figure 5 (iterations vs. error percentage)
``table1``     regenerate Table 1 (systolic vs. sequential, sizes 128–2048)
``ablation``   future-work ablations: broadcast bus and compaction pass
``inspect``    synthetic PCB inspection end-to-end demo
``bench-engines``  time the engines on one Figure-5-style image and
               cross-check their results against the sequential baseline
``profile``    run one instrumented diff and export the observability
               documents: metrics JSON + Prometheus text, Chrome trace,
               and the per-iteration convergence profile
               (see docs/OBSERVABILITY.md)
``serve``      run a repeated-frame clip through the cached
               :class:`~repro.service.DiffService` and report cache
               hit rate / batching stats (see docs/API.md); with
               ``--min-hit-rate`` it doubles as the CI smoke gate.
               ``--workers N`` shards the service over N processes
               routed by row fingerprint, ``--listen HOST:PORT`` serves
               it over TCP, and ``--selftest`` round-trips the clip
               through a client and gates on byte-identity, merged
               metrics, health, distributed tracing and structured-log
               schema (see docs/SERVING.md).  ``--stream`` serves the
               clip as a streaming frame-delta session instead — one
               key frame plus XOR deltas with adaptive rekeying
               (``--rekey-ratio``/``--max-chain``), decode-identity
               checked, composing with ``--workers``/``--listen``/
               ``--selftest`` for the TCP stream gate
               (see docs/API.md "Streaming sessions")
``top``        poll a running sharded server's ``health``/``stats`` ops
               and render a one-line-per-sample live fleet view
               (status, latency quantiles, SLO burn, cache hit rate)
``lint``       run ``rlelint``, the domain-aware static analyzer
               (see docs/STATIC_ANALYSIS.md)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systolic RLE image difference (Ercal, Allen & Feng, IPPS 1999) — reproduction toolkit",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="trace the paper's worked example")

    p5 = sub.add_parser("figure5", help="regenerate Figure 5")
    p5.add_argument("--width", type=int, default=10_000, help="row width in pixels")
    p5.add_argument("--reps", type=int, default=10, help="repetitions per point")
    p5.add_argument("--csv", type=str, default=None, help="write the series to CSV")

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--reps", type=int, default=30, help="repetitions per point")
    t1.add_argument("--csv", type=str, default=None, help="write the table to CSV")

    ab = sub.add_parser("ablation", help="future-work ablations")
    ab.add_argument(
        "which", choices=("bus", "compaction"), help="which ablation to run"
    )
    ab.add_argument("--reps", type=int, default=10)

    ins = sub.add_parser("inspect", help="synthetic PCB inspection demo")
    ins.add_argument("--seed", type=int, default=7)
    ins.add_argument("--defects", type=int, default=4)
    ins.add_argument("--size", type=int, default=192, help="board edge length")

    ver = sub.add_parser(
        "verify", help="run a random case with trace recording and check the certificate"
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--width", type=int, default=512)
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the run to show the verifier rejecting it",
    )

    thy = sub.add_parser(
        "theory", help="analytic iteration model vs a quick measurement"
    )
    thy.add_argument("--width", type=int, default=10_000)
    thy.add_argument("--reps", type=int, default=6)

    rtl = sub.add_parser("rtl", help="hardware cell: area estimate / Verilog")
    rtl.add_argument(
        "what", choices=("area", "verilog"), help="print gate budget or HDL source"
    )

    be = sub.add_parser(
        "bench-engines",
        help="time the engines on a Figure-5-style image; fail on divergence",
    )
    be.add_argument("--rows", type=int, default=128, help="image height")
    be.add_argument("--width", type=int, default=4_000, help="row width in pixels")
    be.add_argument(
        "--error-fraction", type=float, default=0.05, help="fraction of differing pixels"
    )
    be.add_argument("--seed", type=int, default=0)
    be.add_argument(
        "--engines",
        type=str,
        default="batched,sequential",
        help="comma-separated engine list (first engine's runtime is the baseline)",
    )

    pf = sub.add_parser(
        "profile",
        help="instrumented diff: export metrics, Chrome trace and convergence profile",
    )
    pf.add_argument("--rows", type=int, default=64, help="image height")
    pf.add_argument("--width", type=int, default=2_000, help="row width in pixels")
    pf.add_argument(
        "--error-fraction", type=float, default=0.05, help="fraction of differing pixels"
    )
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument(
        "--out-dir", type=str, default="results/profile", help="artifact directory"
    )
    pf.add_argument(
        "--validate",
        action="store_true",
        help="schema-validate every emitted document (exit 1 on violation)",
    )

    from repro.core.options import ENGINE_NAMES

    sv = sub.add_parser(
        "serve",
        help="run a synthetic clip through the cached DiffService; "
        "report hit rate and batching stats",
    )
    sv.add_argument("--height", type=int, default=96, help="frame height")
    sv.add_argument("--width", type=int, default=96, help="frame width")
    sv.add_argument("--frames", type=int, default=8, help="frames in the clip")
    sv.add_argument(
        "--passes", type=int, default=2, help="times the clip is replayed"
    )
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--engine", choices=ENGINE_NAMES, default="batched", help="engine to serve with"
    )
    sv.add_argument(
        "--cache-mb", type=float, default=32.0, help="cache budget in MiB (0 disables)"
    )
    sv.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        help="exit 1 if the final cache hit rate is below this fraction",
    )
    sv.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="persist the cache to this directory (disk tier under the "
        "RAM LRU: warm restarts, corruption quarantine; with --workers "
        "the directory is partitioned per worker)",
    )
    sv.add_argument(
        "--disk-mb",
        type=float,
        default=None,
        help="with --cache-dir: on-disk byte budget in MiB "
        "(default: 256)",
    )
    sv.add_argument(
        "--resilient",
        action="store_true",
        help="serve through ResilientDiffService (deadlines, retries, breaker)",
    )
    sv.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (implies --resilient)",
    )
    sv.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="engine batch retries before giving up (with --resilient)",
    )
    sv.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        help="inject faults into this fraction of engine batches "
        "(seeded by --chaos-seed; implies --resilient)",
    )
    sv.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault schedule",
    )
    sv.add_argument(
        "--max-shed",
        type=int,
        default=None,
        help="exit 1 if more than this many requests were shed "
        "(with --resilient; default: no gate)",
    )
    sv.add_argument(
        "--min-availability",
        type=float,
        default=None,
        help="exit 1 if the served fraction of frame pairs falls below "
        "this floor (default: no gate)",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard the service over this many worker processes routed "
        "by row fingerprint (0 = in-process; see docs/SERVING.md)",
    )
    sv.add_argument(
        "--listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="with --workers: serve the sharded tier over TCP on this "
        "address (port 0 picks a free port)",
    )
    sv.add_argument(
        "--selftest",
        action="store_true",
        help="with --listen: round-trip the clip through a TCP client, "
        "verify byte-identity with a single-process DiffService and "
        "merged-metrics sanity, then exit (the CI smoke mode)",
    )
    sv.add_argument(
        "--stream",
        action="store_true",
        help="serve the clip as a streaming frame-delta session "
        "(stream_open / stream_frame / stream_close) instead of "
        "per-pair diffs; decoded frames are checked byte-identical "
        "(see docs/API.md 'Streaming sessions')",
    )
    sv.add_argument(
        "--rekey-ratio",
        type=float,
        default=None,
        help="with --stream: rekey when the delta runs accumulated "
        "since the key frame exceed this multiple of the key frame's "
        "runs (default: the StreamPolicy default)",
    )

    tp = sub.add_parser(
        "top",
        help="live fleet stats for a running sharded server "
        "(health, latency quantiles, SLO burn, cache hit rate)",
    )
    tp.add_argument(
        "address", metavar="HOST:PORT", help="a running `repro serve --listen` server"
    )
    tp.add_argument(
        "--interval", type=float, default=2.0, help="seconds between samples"
    )
    tp.add_argument(
        "--samples",
        type=int,
        default=0,
        help="stop after this many samples (0 = run until interrupted)",
    )

    from repro.analysis.lint.cli import configure_parser as configure_lint_parser

    lint = sub.add_parser(
        "lint",
        help="static analysis: invariant, exception, hot-path and typing rules",
    )
    configure_lint_parser(lint)

    return parser


# --------------------------------------------------------------------- #
def _cmd_demo() -> int:
    from repro.rle.row import RLERow
    from repro.core.machine import SystolicXorMachine
    from repro.systolic.trace import render_trace_table

    row_a = RLERow.from_pairs([(10, 3), (16, 2), (23, 2), (27, 3)], width=40)
    row_b = RLERow.from_pairs([(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)], width=40)
    print("Image 1 row:", row_a.to_pairs())
    print("Image 2 row:", row_b.to_pairs())
    machine = SystolicXorMachine(record_trace=True, paranoid=True)
    result = machine.diff(row_a, row_b)
    print()
    print(render_trace_table(result.trace.entries, max_cells=6))
    print()
    print(f"XOR result : {result.result.to_pairs()}")
    print(f"iterations : {result.iterations} (Theorem 1 bound: {result.termination_bound})")
    return 0


def _cmd_figure5(width: int, reps: int, csv: Optional[str]) -> int:
    from repro.analysis.experiments import figure5_sweep
    from repro.analysis.aggregate import aggregate
    from repro.analysis.asciiplot import ascii_plot
    from repro.analysis.report import format_table, to_csv

    records = figure5_sweep(width=width, repetitions=reps)
    rows = aggregate(
        records, ["error_fraction"], ["iterations", "run_difference", "k3"]
    )
    print(
        format_table(
            rows,
            columns=["error_fraction", "iterations", "run_difference", "k3", "n"],
            title=f"Figure 5 — {width} px rows, 30% density, {reps} reps/point",
        )
    )
    series = {
        "iterations": [(r["error_fraction"], r["iterations"]) for r in rows],
        "|k1-k2|": [(r["error_fraction"], r["run_difference"]) for r in rows],
        "k3 (runs in XOR)": [(r["error_fraction"], r["k3"]) for r in rows],
    }
    print()
    print(
        ascii_plot(
            series,
            title="Figure 5: iterations vs. fraction of differing pixels",
            xlabel="fraction of pixels differing",
        )
    )
    if csv:
        to_csv(rows, csv)
        print(f"\nwrote {csv}")
    return 0


def _cmd_table1(reps: int, csv: Optional[str]) -> int:
    from repro.analysis.experiments import table1_sweep
    from repro.analysis.aggregate import aggregate
    from repro.analysis.report import format_table, to_csv

    records = table1_sweep(repetitions=reps)
    rows = aggregate(
        records,
        ["errors", "width"],
        ["systolic_iterations", "sequential_iterations"],
    )
    print(
        format_table(
            rows,
            columns=[
                "errors",
                "width",
                "systolic_iterations",
                "sequential_iterations",
                "n",
            ],
            title=f"Table 1 — average iterations vs image size ({reps} reps/point)",
        )
    )
    if csv:
        to_csv(rows, csv)
        print(f"\nwrote {csv}")
    return 0


def _cmd_ablation(which: str, reps: int) -> int:
    from repro.analysis.aggregate import aggregate
    from repro.analysis.report import format_table

    if which == "bus":
        from repro.analysis.experiments import bus_ablation_sweep

        records = bus_ablation_sweep(repetitions=reps)
        rows = aggregate(
            records,
            ["error_fraction"],
            ["systolic_iterations", "bus_cycles", "speedup", "ripple_cycles_saved"],
        )
        print(
            format_table(
                rows,
                columns=[
                    "error_fraction",
                    "systolic_iterations",
                    "bus_cycles",
                    "speedup",
                    "ripple_cycles_saved",
                ],
                title="Ablation: pure systolic vs broadcast-bus shifts",
            )
        )
    else:
        from repro.analysis.experiments import compaction_sweep

        records = compaction_sweep(repetitions=reps)
        rows = aggregate(
            records,
            ["error_fraction"],
            [
                "raw_runs",
                "canonical_runs",
                "mergeable_pairs",
                "systolic_compaction_cycles",
                "bus_compaction_cycles",
            ],
        )
        print(
            format_table(
                rows,
                columns=[
                    "error_fraction",
                    "raw_runs",
                    "canonical_runs",
                    "mergeable_pairs",
                    "systolic_compaction_cycles",
                    "bus_compaction_cycles",
                ],
                title="Ablation: final compaction pass, systolic vs bus",
            )
        )
    return 0


def _cmd_inspect(seed: int, defects: int, size: int) -> int:
    from repro.workloads.pcb import PCBLayout, generate_inspection_case
    from repro.inspection.pipeline import InspectionSystem

    layout = PCBLayout(height=size, width=size)
    reference, scan, truth = generate_inspection_case(
        layout, n_defects=defects, seed=seed
    )
    print(
        f"board {size}x{size}: {reference.total_runs} reference runs, "
        f"density {reference.density():.2f}, {len(truth)} injected defects"
    )
    system = InspectionSystem(reference)
    report = system.inspect(scan)
    print(report.summary())
    print("stage seconds:", {k: round(v, 4) for k, v in report.stage_seconds.items()})
    return 0


def _cmd_verify(seed: int, width: int, inject_fault: bool) -> int:
    import numpy as np

    from repro.rle.row import RLERow
    from repro.core.machine import SystolicXorMachine
    from repro.core.verifier import verify_trace
    from repro.systolic.faults import Fault, FaultInjector
    from repro.systolic.trace import TraceRecorder

    rng = np.random.default_rng(seed)
    row_a = RLERow.from_bits(rng.random(width) < 0.3)
    row_b = RLERow.from_bits(rng.random(width) < 0.3)
    machine = SystolicXorMachine()
    array, _stats = machine.build_array(row_a, row_b)
    recorder = TraceRecorder().attach(array)
    if inject_fault:
        # a single-event upset on cell 0's RegSmall right after the first
        # normalize — always occupied for non-empty inputs, so the fault
        # is guaranteed to bite
        def upset(cell):
            if not cell.small.is_empty:
                cell.small.start += 1

        FaultInjector(
            [Fault(iteration=1, phase="normalize", cell_index=0, mutate=upset,
                   description="SEU on cell 0 RegSmall")]
        ).attach(array)
    try:
        array.run(max_iterations=row_a.run_count + row_b.run_count + 5)
    except Exception as exc:  # corrupted runs may fail hard
        print(f"(run aborted: {exc})")
    report = verify_trace(recorder.entries, row_a, row_b)
    print(
        f"inputs: k1={row_a.run_count}, k2={row_b.run_count}; "
        f"trace covers {report.iterations_checked} iterations"
    )
    if report.ok:
        print("certificate ACCEPTED — every transition legal, result correct")
        return 0
    print(f"certificate REJECTED — {len(report.problems)} problem(s):")
    for problem in report.problems[:8]:
        print("  ", problem)
    return 1


def _cmd_theory(width: int, reps: int) -> int:
    from repro.analysis.experiments import figure5_sweep
    from repro.analysis.aggregate import aggregate
    from repro.analysis.report import format_table
    from repro.analysis.theory import delta_distribution, predicted_iterations
    from repro.workloads.spec import BaseRowSpec, ErrorSpec

    base = BaseRowSpec(width=width, density=0.30)
    model = delta_distribution(base, ErrorSpec(fraction=0.05))
    print(
        f"model: p_transition = 2/(E[R]+E[G]) = {model.p_transition:.4f}  "
        f"=> E[dK per error run] = {model.mean:.3f}"
    )
    fractions = (0.01, 0.02, 0.05, 0.10)
    records = figure5_sweep(fractions=fractions, width=width, repetitions=reps)
    rows = aggregate(records, ["error_fraction"], ["iterations"])
    for r in rows:
        f = float(r["error_fraction"])
        r["predicted"] = predicted_iterations(base, ErrorSpec(fraction=f), f)
    print(
        format_table(
            rows,
            columns=["error_fraction", "iterations", "predicted", "n"],
            title="predicted vs measured systolic iterations (no fitted constants)",
        )
    )
    return 0


def _cmd_rtl(what: str) -> int:
    if what == "area":
        from repro.systolic.rtl import RTLCell, WORD_WIDTH

        est = RTLCell.area_estimate()
        print(f"XOR cell @ {WORD_WIDTH}-bit coordinates (NAND2-equivalents):")
        for key, value in est.items():
            print(f"  {key:<14} {value:>6}")
    else:
        from repro.systolic.verilog import emit_cell_module

        print(emit_cell_module())
    return 0


def _cmd_bench_engines(
    rows: int, width: int, error_fraction: float, seed: int, engines: str
) -> int:
    import time
    from contextlib import nullcontext

    from repro.core import native
    from repro.core.options import ENGINE_NAMES, DiffOptions
    from repro.core.pipeline import diff_images
    from repro.rle.image import RLEImage
    from repro.workloads.random_rows import generate_row_pair
    from repro.workloads.spec import BaseRowSpec, ErrorSpec

    base = BaseRowSpec(width=width, density=0.30)
    errors = ErrorSpec(fraction=error_fraction)
    rows_a, rows_b = [], []
    for y in range(rows):
        ra, rb, _mask = generate_row_pair(base, errors, seed=seed * 100_003 + y)
        rows_a.append(ra)
        rows_b.append(rb)
    image_a = RLEImage(rows_a, width=width)
    image_b = RLEImage(rows_b, width=width)
    print(
        f"image: {rows} rows x {width} px, density 0.30, "
        f"{error_fraction:.0%} differing pixels, seed {seed}"
    )
    print(f"step kernel: {native.LOADER.describe()}")

    names = [name.strip() for name in engines.split(",") if name.strip()]
    bad = [name for name in names if name not in ENGINE_NAMES]
    if bad or not names:
        print(
            f"error: unknown engine(s) {', '.join(bad) or '(none given)'} — "
            f"choose from {', '.join(ENGINE_NAMES)}"
        )
        return 2
    baseline = diff_images(image_a, image_b, options=DiffOptions(engine="sequential"))
    baseline_pixels = [r.to_pairs() for r in baseline.image]
    # with the native step loaded, batched/numpy times the fallback too
    runs = [(name, name) for name in names]
    if "batched" in names and native.LOADER.kernel() is not None:
        runs.append(("batched/numpy", "batched"))
    timings = []
    diverged = False
    for label, name in runs:
        fallback = label == "batched/numpy"
        with native.LOADER.withheld() if fallback else nullcontext():
            t0 = time.perf_counter()
            result = diff_images(image_a, image_b, options=DiffOptions(engine=name))
            elapsed = time.perf_counter() - t0
        ok = [r.to_pairs() for r in result.image] == baseline_pixels
        diverged |= not ok
        timings.append((label, elapsed, result.total_iterations, ok))
    ref_time = timings[0][1]
    print(f"{'engine':<14} {'seconds':>9} {'speedup':>8} {'total_iters':>12} match")
    for label, elapsed, total_iters, ok in timings:
        speedup = ref_time / elapsed if elapsed else float("inf")
        print(
            f"{label:<14} {elapsed:>9.4f} {speedup:>7.2f}x {total_iters:>12} "
            f"{'ok' if ok else 'DIVERGED'}"
        )
    if diverged:
        print("ERROR: at least one engine diverged from the sequential baseline")
        return 1
    return 0


def _cmd_profile(
    rows: int,
    width: int,
    error_fraction: float,
    seed: int,
    out_dir: str,
    validate: bool,
) -> int:
    import json
    from pathlib import Path

    from repro.core.options import DiffOptions
    from repro.core.pipeline import diff_images
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import EngineProfiler
    from repro.obs.tracing import Tracer
    from repro.rle.image import RLEImage
    from repro.workloads.random_rows import generate_row_pair
    from repro.workloads.spec import BaseRowSpec, ErrorSpec

    base = BaseRowSpec(width=width, density=0.30)
    errors = ErrorSpec(fraction=error_fraction)
    rows_a, rows_b = [], []
    for y in range(rows):
        ra, rb, _mask = generate_row_pair(base, errors, seed=seed * 100_003 + y)
        rows_a.append(ra)
        rows_b.append(rb)
    image_a = RLEImage(rows_a, width=width)
    image_b = RLEImage(rows_b, width=width)
    print(
        f"image: {rows} rows x {width} px, density 0.30, "
        f"{error_fraction:.0%} differing pixels, seed {seed}"
    )

    registry = MetricsRegistry()
    tracer = Tracer()
    probe = EngineProfiler()
    result = diff_images(
        image_a,
        image_b,
        options=DiffOptions(
            engine="batched", tracer=tracer, metrics=registry, probe=probe
        ),
    )
    print(
        f"diff: {result.total_iterations} total iterations over {rows} rows "
        f"(max {result.max_iterations}, mean {result.mean_iterations:.1f}); "
        f"{result.difference_pixels} differing pixels"
    )
    print()
    print("convergence (Corollary 1.1 — the RegBig front drains left to right):")
    print(probe.render_table())

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_doc = registry.to_json()
    trace_doc = tracer.to_chrome_trace()
    profile_doc = probe.to_dict()
    written = []
    for name, payload in (
        ("metrics.json", metrics_doc),
        ("trace.json", trace_doc),
        ("profile.json", profile_doc),
    ):
        path = out / name
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        written.append(path)
    prom_path = out / "metrics.prom"
    prom_path.write_text(registry.to_prometheus_text(), encoding="utf-8")
    written.append(prom_path)
    print()
    for path in written:
        print(f"wrote {path}")

    if validate:
        from repro.errors import ObservabilityError
        from repro.obs.schema import (
            validate_chrome_trace,
            validate_metrics_json,
            validate_nested,
            validate_profile_json,
        )

        try:
            validate_metrics_json(metrics_doc)
            validate_chrome_trace(
                trace_doc, required_names=("image_diff", "row_batch", "step")
            )
            validate_nested(trace_doc, "image_diff", "row_batch")
            validate_nested(trace_doc, "row_batch", "step")
            validate_profile_json(profile_doc)
        except ObservabilityError as exc:
            print(f"VALIDATION FAILED: {exc}")
            return 1
        print("validation: all documents conform to their schemas")
    return 0


def _cmd_serve(
    height: int,
    width: int,
    frames: int,
    passes: int,
    seed: int,
    engine: str,
    cache_mb: float,
    min_hit_rate: Optional[float],
    resilient: bool = False,
    deadline: Optional[float] = None,
    max_retries: int = 2,
    chaos_rate: float = 0.0,
    chaos_seed: int = 0,
    max_shed: Optional[int] = None,
    min_availability: Optional[float] = None,
    stream: bool = False,
    rekey_ratio: Optional[float] = None,
    cache_dir: Optional[str] = None,
    disk_mb: Optional[float] = None,
) -> int:
    from repro.errors import ReproError, ServiceOverloadError
    from repro.core.options import DiffOptions, validate_engine
    from repro.obs.metrics import MetricsRegistry
    from repro.service import (
        ChaosEngine,
        ChaosSchedule,
        DiffService,
        ResiliencePolicy,
        ResilientDiffService,
    )
    from repro.workloads.motion import generate_sequence

    resilient = resilient or deadline is not None or chaos_rate > 0
    clip = generate_sequence(height=height, width=width, n_frames=frames, seed=seed)
    registry = MetricsRegistry()
    options = DiffOptions(
        engine=validate_engine(engine),
        metrics=registry,
        cache_dir=cache_dir,
        disk_budget=(
            int(disk_mb * 1024 * 1024) if disk_mb is not None else None
        ),
    )
    cache_bytes = int(cache_mb * 1024 * 1024)
    print(
        f"clip: {frames} frames of {height}x{width}, {passes} pass(es), "
        f"engine {engine}, cache "
        + (f"{cache_mb:g} MiB" if cache_bytes > 0 else "disabled")
        + (f", persisted to {cache_dir}" if cache_dir is not None else "")
        + (", resilient" if resilient else "")
        + (f", chaos rate {chaos_rate:g} (seed {chaos_seed})" if chaos_rate else "")
    )
    chaos = (
        ChaosEngine(ChaosSchedule.bernoulli(seed=chaos_seed, rate=chaos_rate))
        if chaos_rate
        else None
    )
    if resilient:
        policy = ResiliencePolicy(deadline=deadline, max_retries=max_retries)
        service = ResilientDiffService(
            options,
            policy=policy,
            cache_bytes=cache_bytes,
            compute=chaos,
        )
    else:
        service = DiffService(options, cache_bytes=cache_bytes)
    total_pixels = served = failed = 0
    stream_stats = None
    with service:
        if stream:
            from repro.rle.ops2d import xor_images
            from repro.service import StreamingDiffService, StreamPolicy

            policy = (
                StreamPolicy(rekey_ratio=rekey_ratio)
                if rekey_ratio is not None
                else None
            )
            mismatches = 0
            with StreamingDiffService(
                service, policy=policy, metrics=registry
            ) as streams:
                sid = streams.open()
                decoded = None
                for _ in range(passes):
                    for frame in clip:
                        try:
                            fd = streams.append_frame(sid, frame)
                        except ServiceOverloadError:
                            failed += 1
                            continue
                        except ReproError as exc:
                            failed += 1
                            print(
                                f"  frame failed: {type(exc).__name__}: {exc}"
                            )
                            continue
                        served += 1
                        total_pixels += (
                            0 if fd.frame_index == 0 else fd.delta.pixel_count
                        )
                        decoded = (
                            fd.delta
                            if decoded is None
                            else xor_images(decoded, fd.delta)
                        )
                        if not decoded.same_pixels(frame):
                            mismatches += 1
                stream_stats = streams.close_session(sid)
            if mismatches:
                print(
                    f"ERROR: {mismatches} decoded frame(s) not byte-identical "
                    f"to the source clip"
                )
                return 1
        else:
            for _ in range(passes):
                for prev, cur in zip(clip, clip[1:]):
                    try:
                        total_pixels += service.diff_images(prev, cur).difference_pixels
                        served += 1
                    except ServiceOverloadError:
                        failed += 1  # shed by the breaker; already counted in stats
                    except ReproError as exc:
                        failed += 1
                        print(f"  pair failed: {type(exc).__name__}: {exc}")
        stats = service.stats()
    if stream and stream_stats is not None:
        print(
            f"stream: {int(stream_stats['frames'])} frames appended, "
            f"{int(stream_stats['rekeys'])} rekeys, "
            f"compression {stream_stats['compression_ratio']:.2f}x "
            f"({int(stream_stats['shipped_runs'])} shipped / "
            f"{int(stream_stats['raw_runs'])} raw runs); decoded frames "
            f"byte-identical"
        )
        print(f"served {served} frames ({int(stats['requests'])} row requests)")
    else:
        pairs = passes * max(frames - 1, 0)
        print(f"served {pairs} frame pairs ({int(stats['requests'])} row requests)")
    print(f"motion pixels flagged: {total_pixels}")
    print(
        f"cache: {int(stats.get('hits', 0))} hits / "
        f"{int(stats.get('misses', 0))} misses "
        f"(hit rate {stats['hit_rate']:.1%}), "
        f"{int(stats.get('entries', 0))} entries, "
        f"{int(stats.get('bytes', 0))} bytes, "
        f"{int(stats.get('evictions', 0))} evictions"
    )
    if cache_dir is not None:
        print(
            f"disk tier: {int(stats.get('disk_warm_entries', 0))} entries "
            f"warm at open, {int(stats.get('disk_hits', 0))} hits / "
            f"{int(stats.get('disk_misses', 0))} misses, "
            f"{int(stats.get('disk_entries', 0))} entries, "
            f"{int(stats.get('disk_bytes', 0))} bytes, "
            f"{int(stats.get('disk_quarantined', 0))} quarantined"
        )
    print(
        f"batching: {int(stats['batches'])} engine batches "
        f"({stats['requests'] / stats['batches']:.1f} requests/batch)"
        if stats["batches"]
        else "batching: no batches ran"
    )
    availability = served / (served + failed) if served + failed else 1.0
    if resilient:
        print(
            f"resilience: {served}/{served + failed} pairs served "
            f"({availability:.1%} availability), "
            f"{int(stats['resilience_retries'])} retries, "
            f"{int(stats['resilience_deadline_expirations'])} deadline "
            f"expirations, {int(stats['resilience_degraded_serves'])} "
            f"degraded serves, {int(stats['resilience_shed'])} shed, "
            f"breaker state {stats['breaker_state']:g} "
            f"({int(stats['breaker_transitions'])} transitions)"
        )
        if chaos is not None:
            injected = chaos.stats()
            calls = injected.pop("calls", 0)
            print(
                f"chaos: {sum(injected.values())} faults injected over "
                f"{calls} engine batches ({injected})"
            )
    if min_hit_rate is not None and stats["hit_rate"] < min_hit_rate:
        print(
            f"ERROR: hit rate {stats['hit_rate']:.1%} below required "
            f"{min_hit_rate:.1%}"
        )
        return 1
    if max_shed is not None and stats.get("resilience_shed", 0) > max_shed:
        print(
            f"ERROR: {int(stats['resilience_shed'])} requests shed, "
            f"more than the allowed {max_shed}"
        )
        return 1
    if min_availability is not None and availability < min_availability:
        print(
            f"ERROR: availability {availability:.1%} below required "
            f"{min_availability:.1%}"
        )
        return 1
    return 0


def _parse_listen(listen: str) -> Optional[tuple]:
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        return None
    return (host or "127.0.0.1", int(port))


def _cmd_serve_sharded(
    height: int,
    width: int,
    frames: int,
    passes: int,
    seed: int,
    engine: str,
    cache_mb: float,
    min_hit_rate: Optional[float],
    workers: int,
    listen: Optional[str],
    selftest: bool,
    stream: bool = False,
    rekey_ratio: Optional[float] = None,
    cache_dir: Optional[str] = None,
    disk_mb: Optional[float] = None,
) -> int:
    from repro.core.options import DiffOptions, validate_engine
    from repro.rle.ops2d import xor_images
    from repro.service import (
        DiffService,
        ServerThread,
        ShardClient,
        ShardedDiffService,
        StreamPolicy,
    )
    from repro.workloads.motion import generate_sequence

    address = None
    if listen is not None:
        address = _parse_listen(listen)
        if address is None:
            print(f"error: --listen expects HOST:PORT, got {listen!r}")
            return 2
    if selftest and address is None:
        print("error: --selftest requires --listen")
        return 2

    clip = generate_sequence(height=height, width=width, n_frames=frames, seed=seed)
    options = DiffOptions(
        engine=validate_engine(engine),
        cache_dir=cache_dir,
        disk_budget=(
            int(disk_mb * 1024 * 1024) if disk_mb is not None else None
        ),
    )
    cache_bytes = int(cache_mb * 1024 * 1024)
    print(
        f"clip: {frames} frames of {height}x{width}, {passes} pass(es), "
        f"engine {engine}, cache "
        + (f"{cache_mb:g} MiB/worker" if cache_bytes > 0 else "disabled")
        + (
            f", persisted to {cache_dir} (per-worker partitions)"
            if cache_dir is not None
            else ""
        )
        + f", {workers} shard worker(s)"
    )
    with ShardedDiffService(
        options, workers=workers, cache_bytes=cache_bytes
    ) as service:
        service.ping()
        policy = (
            StreamPolicy(rekey_ratio=rekey_ratio)
            if rekey_ratio is not None
            else None
        )
        total_pixels = pairs_served = 0
        stream_stats = None
        if address is None:
            if stream:
                # no TCP: drive the session straight through the
                # sharded service (routed to one shard by session id)
                sid = service.stream_open(policy=policy)
                decoded = None
                for _ in range(passes):
                    for frame in clip:
                        fd = service.stream_frame(sid, frame)
                        pairs_served += 1
                        if fd.frame_index > 0:
                            total_pixels += fd.delta.pixel_count
                        decoded = (
                            fd.delta
                            if decoded is None
                            else xor_images(decoded, fd.delta)
                        )
                        if not decoded.same_pixels(frame):
                            print(
                                f"ERROR: decoded frame {fd.frame_index} is "
                                f"not byte-identical to the source"
                            )
                            return 1
                stream_stats = service.stream_close(sid)
            else:
                # no TCP: drive the clip straight through the sharded service
                for _ in range(passes):
                    for prev, cur in zip(clip, clip[1:]):
                        total_pixels += service.diff_images(prev, cur).difference_pixels
                        pairs_served += 1
        else:
            with ServerThread(service, host=address[0], port=address[1]) as server:
                print(f"listening on {server.host}:{server.port}")
                if not selftest:
                    import threading

                    try:
                        threading.Event().wait()  # serve until interrupted
                    except KeyboardInterrupt:
                        print("interrupted — shutting down")
                    return 0
                mismatches = 0
                with ShardClient(server.host, server.port) as client, DiffService(
                    options, cache_bytes=cache_bytes
                ) as reference:
                    if client.ping() != workers:
                        print("ERROR: ping did not reach every worker")
                        return 1
                    if stream:
                        sid = client.stream_open(
                            rekey_ratio=rekey_ratio,
                        )
                        decoded = None
                        for _ in range(passes):
                            for frame in clip:
                                fd = client.stream_frame(sid, frame)
                                pairs_served += 1
                                if fd.frame_index > 0:
                                    total_pixels += fd.delta.pixel_count
                                decoded = (
                                    fd.delta
                                    if decoded is None
                                    else xor_images(decoded, fd.delta)
                                )
                                if not decoded.same_pixels(frame):
                                    mismatches += 1
                        stream_stats = client.stream_close(sid)
                    else:
                        for _ in range(passes):
                            for prev, cur in zip(clip, clip[1:]):
                                remote = client.diff_rows(list(prev), list(cur))
                                local = reference.diff_images(prev, cur)
                                pairs_served += 1
                                total_pixels += local.difference_pixels
                                for r, l in zip(remote, local.row_results):
                                    if (
                                        r.result.to_pairs() != l.result.to_pairs()
                                        or r.iterations != l.iterations
                                        or r.stats.items() != l.stats.items()
                                    ):
                                        mismatches += 1
                    observability_error = _selftest_observability(
                        client, workers
                    )
                if mismatches:
                    print(
                        f"ERROR: {mismatches} "
                        + (
                            "decoded frame(s) not byte-identical to the "
                            "source clip"
                            if stream
                            else "row result(s) diverged from the "
                            "single-process DiffService"
                        )
                    )
                    return 1
                if observability_error is not None:
                    print(f"ERROR: {observability_error}")
                    return 1
                if stream:
                    if stream_stats is None or stream_stats.get("rekeys", 0) < 1:
                        print(
                            "ERROR: no adaptive keyframe rekey occurred on "
                            "the motion workload"
                        )
                        return 1
                    print(
                        f"selftest: {pairs_served} frames streamed over TCP, "
                        f"decoded byte-identical, "
                        f"{int(stream_stats['rekeys'])} rekeys, compression "
                        f"{stream_stats['compression_ratio']:.2f}x"
                    )
                else:
                    print(
                        f"selftest: {pairs_served} frame pairs round-tripped "
                        f"over TCP, byte-identical to the single-process "
                        f"service"
                    )
        stats = service.stats()
        merged = service.merged_snapshot()
        per_worker = service.worker_snapshots()
    folded = per_worker[0]
    for snapshot in per_worker[1:]:
        folded = folded.merge(snapshot)
    if folded != merged:
        print("ERROR: merged snapshot differs from the per-worker fold")
        return 1
    merged_requests = merged.counter_total("repro_service_requests_total")
    if merged_requests != stats["requests"]:
        print(
            f"ERROR: merged metrics report {merged_requests:g} requests, "
            f"stats report {stats['requests']:g}"
        )
        return 1
    if stream:
        print(
            f"served {pairs_served} frames ({int(stats['requests'])} row "
            f"requests)"
        )
        if stream_stats is not None:
            print(
                f"stream: {int(stream_stats['frames'])} frames appended, "
                f"{int(stream_stats['rekeys'])} rekeys, compression "
                f"{stream_stats['compression_ratio']:.2f}x "
                f"({int(stream_stats['shipped_runs'])} shipped / "
                f"{int(stream_stats['raw_runs'])} raw runs)"
            )
    else:
        print(
            f"served {pairs_served} frame pairs ({int(stats['requests'])} "
            f"row requests)"
        )
    print(f"motion pixels flagged: {total_pixels}")
    print(
        f"cache (all shards): {int(stats.get('hits', 0))} hits / "
        f"{int(stats.get('misses', 0))} misses "
        f"(hit rate {stats['hit_rate']:.1%}), "
        f"{int(stats.get('entries', 0))} entries"
    )
    print(
        f"merged metrics: {merged_requests:g} requests across "
        f"{int(stats['workers'])} workers — consistent with stats"
    )
    if min_hit_rate is not None and stats["hit_rate"] < min_hit_rate:
        print(
            f"ERROR: hit rate {stats['hit_rate']:.1%} below required "
            f"{min_hit_rate:.1%}"
        )
        return 1
    return 0


def _selftest_observability(client, workers: int) -> Optional[str]:
    """The selftest's distributed-observability gate, run over the same
    TCP client that drove the clip: health, one stitched cross-process
    trace, and schema-valid structured logs.  Returns an error message
    or ``None``."""
    from repro.errors import ObservabilityError
    from repro.obs.schema import validate_chrome_trace, validate_log_record

    health = client.health()
    if health["status"] != "healthy" or health["workers_alive"] != workers:
        return (
            f"health reports {health['status']!r} with "
            f"{health['workers_alive']:g}/{workers} workers alive"
        )
    request_id = client.last_request_id
    if not request_id:
        return "diff_rows response carried no request_id"
    trace = client.trace(request_id)
    try:
        validate_chrome_trace(trace)
    except ObservabilityError as exc:
        return f"stitched trace failed schema validation: {exc}"
    lanes = {event["tid"] for event in trace["traceEvents"]}
    if len(lanes) < 2:
        return (
            f"trace for request {request_id} spans {len(lanes)} process "
            f"lane(s); expected the front-end plus at least one worker"
        )
    logs = client.logs()
    try:
        for record in logs:
            validate_log_record(record)
    except ObservabilityError as exc:
        return f"structured log failed schema validation: {exc}"
    if not any(record["request_id"] == request_id for record in logs):
        return f"no structured log event carries request id {request_id}"
    print(
        f"selftest: request {request_id} traced across {len(lanes)} "
        f"process lanes, {len(logs)} schema-valid log events, "
        f"p99 {health['latency_p99'] * 1000:.2f} ms"
    )
    return None


def _cmd_top(address_arg: str, interval: float, samples: int) -> int:
    import time as _time

    from repro.service import ShardClient

    address = _parse_listen(address_arg)
    if address is None:
        print(f"error: expected HOST:PORT, got {address_arg!r}")
        return 2
    header = (
        f"{'status':>9} {'alive':>7} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'slo!':>6} {'req':>8} {'hit%':>6} {'logs':>6} {'traces':>7}"
    )
    with ShardClient(address[0], address[1]) as client:
        print(header)
        taken = 0
        try:
            while True:
                health = client.health()
                stats = client.stats()
                alive = f"{int(health['workers_alive'])}/{int(health['workers'])}"
                print(
                    f"{health['status']:>9} {alive:>7} "
                    f"{stats['latency_p50'] * 1000:>8.2f} "
                    f"{stats['latency_p99'] * 1000:>8.2f} "
                    f"{int(stats['slo_breaches']):>6} "
                    f"{int(stats.get('requests', 0)):>8} "
                    f"{stats['hit_rate'] * 100:>6.1f} "
                    f"{int(health['log_records']):>6} "
                    f"{int(health['traces_stored']):>7}",
                    flush=True,
                )
                taken += 1
                if samples > 0 and taken >= samples:
                    break
                _time.sleep(interval)
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "figure5":
        return _cmd_figure5(args.width, args.reps, args.csv)
    if args.command == "table1":
        return _cmd_table1(args.reps, args.csv)
    if args.command == "ablation":
        return _cmd_ablation(args.which, args.reps)
    if args.command == "inspect":
        return _cmd_inspect(args.seed, args.defects, args.size)
    if args.command == "verify":
        return _cmd_verify(args.seed, args.width, args.inject_fault)
    if args.command == "theory":
        return _cmd_theory(args.width, args.reps)
    if args.command == "rtl":
        return _cmd_rtl(args.what)
    if args.command == "bench-engines":
        return _cmd_bench_engines(
            args.rows, args.width, args.error_fraction, args.seed, args.engines
        )
    if args.command == "profile":
        return _cmd_profile(
            args.rows,
            args.width,
            args.error_fraction,
            args.seed,
            args.out_dir,
            args.validate,
        )
    if args.command == "serve":
        if args.workers:
            if args.resilient or args.deadline is not None or args.chaos_rate:
                # workers already serve through ResilientDiffService;
                # chaos hooks are in-process only
                print(
                    "error: --workers is incompatible with --resilient/"
                    "--deadline/--chaos-rate (each shard worker already "
                    "serves through ResilientDiffService; chaos injection "
                    "is in-process only)"
                )
                return 2
            return _cmd_serve_sharded(
                args.height,
                args.width,
                args.frames,
                args.passes,
                args.seed,
                args.engine,
                args.cache_mb,
                args.min_hit_rate,
                args.workers,
                args.listen,
                args.selftest,
                args.stream,
                args.rekey_ratio,
                args.cache_dir,
                args.disk_mb,
            )
        if args.listen is not None or args.selftest:
            print("error: --listen/--selftest require --workers N (N >= 1)")
            return 2
        return _cmd_serve(
            args.height,
            args.width,
            args.frames,
            args.passes,
            args.seed,
            args.engine,
            args.cache_mb,
            args.min_hit_rate,
            args.resilient,
            args.deadline,
            args.max_retries,
            args.chaos_rate,
            args.chaos_seed,
            args.max_shed,
            args.min_availability,
            args.stream,
            args.rekey_ratio,
            args.cache_dir,
            args.disk_mb,
        )
    if args.command == "top":
        return _cmd_top(args.address, args.interval, args.samples)
    if args.command == "lint":
        from repro.analysis.lint.cli import run as run_lint

        return run_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
