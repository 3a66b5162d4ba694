"""The four workloads: closed loops of seeded ops against the program.

Each station (a thread of this one load-generator process) runs whole
passes of its seeded op sequence until it has spent ``seconds`` inside
op calls.  Inputs are generated and outputs checked against the NumPy
oracle outside every op's timed window; an op that raises is a failed
op, and a TCP station then reconnects and carries on.  Every timing is
stated on the reference host of :mod:`hostspeed`, from the samples the
stations take between ops.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
import ledger
from hostspeed import SAMPLE_EVERY_S, HostSpeed
from procs import Server, WireCounter, child_pids, cpu_seconds, open_client, peak_rss_mb, probe_setup
from repro import DiffOptions, image_diff
from repro.errors import ReproError
from repro.obs.context import RequestContext
from repro.obs.tracing import Tracer
from repro.service import ShardedDiffService, ShardRing

#: A failed op counts as taking the client's whole socket timeout, so it
#: sorts above every success in the latency percentiles.
FAILED_LATENCY_S = 30.0
#: What a failed op raises: typed program errors, dropped or refused
#: connections, and unparseable replies.
FAILURES = (ReproError, OSError, ValueError)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The TCP server's request-line limit at this commit (asyncio's default
#: stream limit); requests above it are counted as oversized.
LINE_LIMIT = 64 * 1024
#: Stitched traces the TCP server keeps (its ``TraceStore`` capacity).
TRACES_KEPT = 64
#: Times a traced run replays its first measured pass (fresh blocks on
#: ``unique-rows``), to steady the replayed layer rows.
REPLAYS = 3
STATIONS = 2


@dataclass
class Op:
    station: int
    pass_no: int
    ended: float
    seconds: float
    cpu_s: float
    rows: int
    ok: bool
    sent: int = 0
    request_id: Optional[str] = None


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    speed: HostSpeed = field(default_factory=HostSpeed)
    ops: List[Op] = field(default_factory=list)
    mismatches: int = 0
    #: Set-up times, each already stated on the reference host.
    setup: List[float] = field(default_factory=list)
    #: When the measured phase began (``time.perf_counter``).
    measured_from: float = 0.0
    #: CPU of the program's own processes (server, workers) over the
    #: measured phase; the caller's CPU inside calls is on each op.
    process_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    wire_bytes: Optional[int] = None
    runs_per_row: float = 0.0
    hit_share: float = 0.0
    layers: Optional[Dict[str, float]] = None

    @property
    def ok_rows(self) -> int:
        return sum(op.rows for op in self.ops if op.ok)


def closed_loop(
    station: int,
    seconds: float,
    passes: Callable[[int], Sequence[Any]],
    call: Callable[[Any], Tuple[Any, Optional[str]]],
    check: Callable[[Any, Any], bool],
    rows: Callable[[Any], int],
    cpu_clock: Callable[[], float],
    speed: HostSpeed,
    wire: Optional[WireCounter] = None,
    on_failure: Optional[Callable[[], None]] = None,
    max_passes: Optional[int] = None,
) -> Tuple[List[Op], int]:
    """Whole passes of ``passes(k)`` until ``seconds`` were spent inside
    ``call``, sampling the host's speed before the first op and then
    every :data:`SAMPLE_EVERY_S` between ops.  Returns the ops and the
    number of wrong outputs."""
    ops: List[Op] = []
    wrong = 0
    busy = 0.0
    pass_no = 0
    speed.sample()
    sampled = time.perf_counter()
    while busy < seconds and (max_passes is None or pass_no < max_passes):
        for item in passes(pass_no):
            sent = wire.sent if wire is not None else 0
            started, cpu = time.perf_counter(), cpu_clock()
            try:
                out, request_id = call(item)
                ok = True
            except FAILURES:
                out = request_id = None
                ok = False
            ended = time.perf_counter()
            cpu, elapsed = cpu_clock() - cpu, ended - started
            busy += elapsed
            if ok and not check(item, out):
                ok = False
                wrong += 1
            if not ok and on_failure is not None:
                on_failure()
            sent = wire.sent - sent if wire is not None else 0
            ops.append(Op(station, pass_no, ended, elapsed, cpu, rows(item), ok, sent, request_id))
            if time.perf_counter() - sampled >= SAMPLE_EVERY_S:
                speed.sample()
                sampled = time.perf_counter()
        pass_no += 1
    return ops, wrong


def in_parallel(n: int, body: Callable[[int], Any]) -> List[Any]:
    """Run ``body(i)`` on ``n`` threads released together; re-raise the
    first failure."""
    barrier = threading.Barrier(n)
    results: List[Any] = [None] * n
    errors: List[BaseException] = []

    def target(i: int) -> None:
        try:
            barrier.wait()
            results[i] = body(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


# --------------------------------------------------------------------- #
# End-to-end metrics                                                    #
# --------------------------------------------------------------------- #
def _quantiles(values: List[float]) -> Tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def host_factor(run: Run) -> float:
    """The measured phase's mean factor: 1 on the reference host, below 1
    on a slower one."""
    return run.speed.mean_factor(run.measured_from)


def end_to_end(run: Run) -> Dict[str, float]:
    """The untraced metrics a user sees, every timing stated on the
    reference host: each op's time and CPU by the factor of the host
    samples near it, the program's process CPU by the measured phase's
    mean factor.  ``rows_per_s`` is each station's rows served per second
    spent inside calls, summed over the stations that run side by side."""
    rows_in: Dict[int, int] = defaultdict(int)
    busy: Dict[int, float] = defaultdict(float)
    seconds: List[float] = []
    cpu = run.process_cpu_s * host_factor(run)
    for op in run.ops:
        factor = run.speed.factor_at(op.ended)
        rows_in[op.station] += op.rows if op.ok else 0
        busy[op.station] += op.seconds * factor
        seconds.append(op.seconds * factor if op.ok else FAILED_LATENCY_S)
        cpu += op.cpu_s * factor
    rate = sum(rows_in[station] / busy[station] for station in busy)
    p50, p90 = _quantiles(sorted(seconds))
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if not op.ok)
    rows = run.ok_rows
    metrics = {
        "rows_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ops_ok_share": (attempted - failed) / attempted,
        "ops_failed_share": failed / attempted,
        "cpu_ms_per_row": cpu * 1e3 / rows if rows else 0.0,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": run.peak_rss_mb,
    }
    if run.wire_bytes is not None:
        metrics["wire_bytes_per_row"] = run.wire_bytes / rows if rows else 0.0
    return metrics


def layer_metrics(run: Run) -> Dict[str, float]:
    """The traced run's ledger, its time rows stated on the reference
    host by the measured phase's mean factor (the replays follow it
    within seconds)."""
    assert run.layers is not None
    factor = host_factor(run)
    return {name: value * factor if name.endswith("us_per_row") else value for name, value in run.layers.items()}


def provenance(run: Run) -> Dict[str, float]:
    """Measured input properties of the run."""
    return {
        "rows_per_op": statistics.mean(op.rows for op in run.ops),
        "runs_per_row": run.runs_per_row,
        "cache_hit_share": run.hit_share,
        "oversized_share": sum(1 for op in run.ops if op.sent > LINE_LIMIT) / len(run.ops),
    }


# --------------------------------------------------------------------- #
# fig5-strip — image_diff on the batched engine, no service             #
# --------------------------------------------------------------------- #
#: Times the image assembly is replayed to measure ``core.pipeline``.
ASSEMBLY_REPEATS = 20


def _probe_setups(run: Run, seed: int) -> None:
    for _ in range(SETUP_SAMPLES):
        seconds, factor = run.speed.bracket(lambda: probe_setup(run.workload, seed))
        run.setup.append(seconds * factor)


def fig5_strip(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("fig5-strip")
    _probe_setups(run, seed)
    pool = inputs.strip_pool(seed)
    run.runs_per_row = statistics.mean(pair.runs_per_row for _, _, pair in pool)
    options = DiffOptions(engine="batched")
    image_diff(pool[0][0], pool[0][1], options)
    iterations = [0]
    # the traced run turns on the program's own tracer: traced vs
    # untraced numbers show its cost at this size, and its image_diff
    # span times each op inside the library
    tracers: List[Tracer] = []
    in_spans = [0.0]
    last: List[Any] = [None]

    def call(item: Any) -> Tuple[Any, None]:
        if not trace:
            return image_diff(item[0], item[1], options), None
        tracers[:] = [Tracer()]
        return image_diff(item[0], item[1], DiffOptions(engine="batched", tracer=tracers[0])), None

    def check(item: Any, result: Any) -> bool:
        iterations[0] += result.total_iterations
        if trace:
            in_spans[0] += sum(s.duration for s in tracers[0].spans if s.name == "image_diff")
            last[0] = result
        return inputs.matches(result.image.rows, item[2].expected)

    run.measured_from = time.perf_counter()
    run.ops, run.mismatches = closed_loop(
        0, seconds, lambda k: pool, call, check, lambda item: inputs.STRIP_ROWS, time.process_time, run.speed
    )
    run.peak_rss_mb = peak_rss_mb([os.getpid()])
    if trace:
        ok = [op for op in run.ops if op.ok]
        rows = run.ok_rows
        assembled = len(ok) * ledger.assembly_seconds(
            last[0].row_results, inputs.STRIP_WIDTH, options, ASSEMBLY_REPEATS
        )
        run.layers = ledger.merge(
            {
                "core.batched.us_per_row": (in_spans[0] - assembled) / rows * 1e6,
                "core.batched.iterations_per_row": iterations[0] / rows,
                "core.batched.computed_share": 1.0,
                "core.pipeline.us_per_row": assembled / rows * 1e6,
                "unaccounted.us_per_row": (sum(op.seconds for op in ok) - in_spans[0]) / rows * 1e6,
            }
        )
    return run


# --------------------------------------------------------------------- #
# unique-rows — in-process ShardedDiffService, every pair first-touch   #
# --------------------------------------------------------------------- #
def unique_rows(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("unique-rows")
    _probe_setups(run, seed)
    with ShardedDiffService(DiffOptions(engine="batched"), workers=STATIONS) as service:
        service.ping()
        workers = child_pids(os.getpid())
        warm = inputs.unique_block(seed, 0, requests=1)[0]
        service.diff_rows(warm.rows_a, warm.rows_b)
        before = ledger.counters_from(service.merged_snapshot().counter_total)
        cpu_before = cpu_seconds(workers)
        runs_per_row: List[float] = []

        def passes(k: int) -> List[inputs.Pair]:
            block = inputs.unique_block(seed, k + 1)
            runs_per_row.extend(pair.runs_per_row for pair in block)
            return block

        def call(pair: inputs.Pair) -> Tuple[Any, str]:
            ctx = RequestContext.new()
            return service.diff_rows(pair.rows_a, pair.rows_b, ctx=ctx), ctx.request_id

        def check(pair: inputs.Pair, results: Any) -> bool:
            return inputs.matches([r.result for r in results], pair.expected)

        run.measured_from = time.perf_counter()
        run.ops, run.mismatches = closed_loop(
            0, seconds, passes, call, check, lambda pair: len(pair.rows_a), time.process_time, run.speed
        )
        run.process_cpu_s = cpu_seconds(workers) - cpu_before
        run.peak_rss_mb = peak_rss_mb([os.getpid(), *workers])
        run.runs_per_row = statistics.mean(runs_per_row)
        delta = _delta(before, ledger.counters_from(service.merged_snapshot().counter_total))
        counted = ledger.counter_layers(delta)
        run.hit_share = counted["service.cache.hit_share"]
        if trace:
            matched = _matched(
                run.ops[-TRACES_KEPT:], service.trace_store.to_chrome_trace, "sharded_diff_rows", "shard_diff_rows"
            )
            spans, stacks = ledger.replay_stacks(STATIONS)
            try:
                rows = pipe = 0
                for block in range(1, REPLAYS + 1):
                    requests = [(p.rows_a, p.rows_b) for p in inputs.unique_block(seed, block)]
                    got_rows, got_bytes = ledger.replay_rows(spans, stacks, requests, tcp=False)
                    rows, pipe = rows + got_rows, pipe + got_bytes
            finally:
                ledger.close_stacks(stacks)
            run.layers = ledger.merge(
                ledger.sharded_ledger(matched, spans, rows),
                counted,
                {
                    "core.batched.iterations_per_row": ledger.iterations_per_row(spans),
                    "service.shard.pipe_bytes_per_row": pipe / rows,
                },
            )
    return run


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def _matched(
    ops: Sequence[Op], fetch_trace: Callable[[str], Dict[str, Any]], front_span: str, worker_span: str
) -> List[Tuple[float, float, List[float], int]]:
    """``(L, F, [W per worker], rows)`` of each ok op whose stitched trace
    the program still holds."""
    out = []
    for op in ops:
        if op.ok:
            front, workers = ledger.trace_spans(fetch_trace(op.request_id), front_span, worker_span)
            if front > 0:
                out.append((op.seconds, front, workers, op.rows))
    return out


# --------------------------------------------------------------------- #
# The TCP workloads                                                     #
# --------------------------------------------------------------------- #
class TcpStation:
    """One station's connection, reopened after a failed op."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.wire = WireCounter()
        self.client = open_client(port, self.wire)

    def reconnect(self) -> None:
        self.client.close()
        self.client = open_client(self.port, self.wire)

    def call(self, fn: Callable[[Any], Any]) -> Tuple[Any, Optional[str]]:
        """``fn(client)``; a failed call's captured lines are dropped."""
        mark = len(self.wire.lines)
        try:
            out = fn(self.client)
        except FAILURES:
            del self.wire.lines[mark:]
            raise
        return out, self.client.last_request_id


def _start_server(run: Run) -> Server:
    """Launch the server ``SETUP_SAMPLES`` times, timing each launch up
    to its first ping; keep the last one running."""
    server: Optional[Server] = None
    for _ in range(SETUP_SAMPLES):
        if server is not None:
            server.stop()
        server, factor = run.speed.bracket(Server)
        run.setup.append(server.setup_s * factor)
    assert server is not None
    return server


def _tcp_run(
    run: Run,
    seconds: float,
    trace: bool,
    items: Sequence[Sequence[Any]],
    open_station: Callable[[TcpStation, int], None],
    op: Callable[[TcpStation, int, Any], Any],
    check: Callable[[int, Any, Any], bool],
    rows: Callable[[Any], int],
    on_failure: Callable[[TcpStation, int], None],
    front_span: str,
    worker_span: str,
    replay: Callable[[List[List[int]]], Tuple[ledger.Spans, int, int]],
) -> None:
    """Shared body of the two TCP workloads: warm-up pass, measured
    passes, /proc and counter readings, and (traced) the ledger."""
    server = _start_server(run)
    stations: List[TcpStation] = []
    control = None
    try:
        stations = [TcpStation(server.port) for _ in range(STATIONS)]
        control = open_client(server.port)
        for i, station in enumerate(stations):
            open_station(station, i)

        def loop(i: int, measured: bool) -> Tuple[List[Op], int]:
            station = stations[i]

            def passes(k: int) -> Sequence[Any]:
                station.wire.capture = trace and measured and k == 0
                return items[i]

            return closed_loop(
                i,
                seconds if measured else float("inf"),
                passes,
                lambda item: station.call(lambda client: op(station, i, item)),
                lambda item, out: check(i, item, out),
                rows,
                time.thread_time,
                run.speed,
                wire=station.wire,
                on_failure=lambda: on_failure(station, i),
                max_passes=None if measured else 1,
            )

        in_parallel(STATIONS, lambda i: loop(i, measured=False))
        before = ledger.counters_from(_doc_total(control.metrics_json()))
        cpu_before = cpu_seconds(server.pids)
        for station in stations:
            station.wire.sent = station.wire.received = 0
        run.measured_from = time.perf_counter()
        results = in_parallel(STATIONS, lambda i: loop(i, measured=True))
        cpu_after = cpu_seconds(server.pids)
        run.peak_rss_mb = peak_rss_mb(server.pids)
        run.ops = [op for ops, _ in results for op in ops]
        run.mismatches = sum(wrong for _, wrong in results)
        run.process_cpu_s = cpu_after - cpu_before
        run.wire_bytes = sum(s.wire.sent + s.wire.received for s in stations)
        counted = ledger.counter_layers(_delta(before, ledger.counters_from(_doc_total(control.metrics_json()))))
        run.hit_share = counted["service.cache.hit_share"]
        if trace:
            kept = set(control.trace())
            matched = _matched([o for o in run.ops if o.request_id in kept], control.trace, front_span, worker_span)
            # replay the first measured pass: the items each station served
            served = []
            for i in range(STATIONS):
                first = [o for o in run.ops if o.station == i and o.pass_no == 0]
                served.append([n for n, o in enumerate(first) if o.ok])
            spans, rows, pipe = replay(served)
            # the captured lines alternate request, response on each socket
            exchanges = [pair for s in stations for pair in zip(s.wire.lines[0::2], s.wire.lines[1::2])]
            for _ in range(REPLAYS):
                ledger.replay_json(spans, [line for s in stations for line in s.wire.lines])
                ledger.replay_socket(spans, exchanges)
            run.layers = ledger.merge(
                ledger.sharded_ledger(matched, spans, rows),
                counted,
                {
                    "core.batched.iterations_per_row": ledger.iterations_per_row(spans),
                    "service.shard.pipe_bytes_per_row": pipe / rows,
                    "service.frontend.wire_bytes_per_row": run.wire_bytes / run.ok_rows,
                },
            )
    finally:
        for client in [s.client for s in stations] + ([control] if control is not None else []):
            client.close()
        if not server.alive():
            print("server exited early; stderr tail:\n" + "".join(server.stderr_tail))
        server.stop()


def _doc_total(doc: Dict[str, Any]) -> Callable[..., float]:
    return lambda name, **labels: ledger.counter_total(doc, name, **labels)


def pcb_inspect(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("pcb-inspect")
    boards = inputs.pcb_passes(seed, STATIONS)
    run.runs_per_row = statistics.mean(scan.pair.runs_per_row for seq in boards for scan in seq)

    def replay(served: List[List[int]]) -> Tuple[ledger.Spans, int, int]:
        requests = [
            (list(boards[i][n].reference), list(boards[i][n].scan)) for i in range(STATIONS) for n in served[i]
        ]
        spans, stacks = ledger.replay_stacks(STATIONS)
        try:
            ledger.replay_rows(spans, stacks, requests, tcp=True)  # the warm-up pass
            spans.reset()
            rows = pipe = 0
            for _ in range(REPLAYS):
                got_rows, got_bytes = ledger.replay_rows(spans, stacks, requests, tcp=True)
                rows, pipe = rows + got_rows, pipe + got_bytes
        finally:
            ledger.close_stacks(stacks)
        return spans, rows, pipe

    _tcp_run(
        run,
        seconds,
        trace,
        boards,
        open_station=lambda station, i: None,
        op=lambda station, i, scan: station.client.diff_images(scan.reference, scan.scan),
        check=lambda i, scan, results: inputs.matches([r.result for r in results], scan.pair.expected),
        rows=lambda scan: scan.reference.height,
        on_failure=lambda station, i: station.reconnect(),
        front_span="sharded_diff_rows",
        worker_span="shard_diff_rows",
        replay=replay,
    )
    return run


def session_ids(seed: int, n: int) -> List[str]:
    """Seed-derived session ids, one placed on each shard.  The front-end
    places a session by the first shard in the ring order of its id's
    8-byte BLAKE2b digest; one camera per worker keeps the load split
    the same for every seed."""
    ring = ShardRing(n)
    ids = []
    for camera in range(n):
        j = 0
        while ring.preference(blake2b(f"cam{camera}-{seed}-{j}".encode(), digest_size=8).digest())[0] != camera:
            j += 1
        ids.append(f"cam{camera}-{seed}-{j}")
    return ids


def motion_stream(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("motion-stream")
    clips = inputs.motion_clips(seed, STATIONS)
    run.runs_per_row = statistics.mean(f.total_runs / f.height for clip in clips for f in clip.frames)
    sessions = session_ids(seed, STATIONS)
    decoded: List[Optional[np.ndarray]] = [None] * STATIONS
    reopened = [0] * STATIONS
    items = [list(enumerate(clip.frames)) for clip in clips]

    def open_station(station: TcpStation, i: int) -> None:
        station.client.stream_open(session_id=sessions[i])

    def check(i: int, item: Tuple[int, Any], delta: Any) -> bool:
        bits = inputs.decode(delta.delta.rows, inputs.CLIP_SIZE)
        state = decoded[i]
        decoded[i] = bits if delta.frame_index == 0 or state is None else state ^ bits
        return bool(np.array_equal(decoded[i], clips[i].bitmaps[item[0]]))

    def on_failure(station: TcpStation, i: int) -> None:
        # the lost frame may or may not have joined the chain: start a
        # fresh session so decoding restarts from a key frame
        station.reconnect()
        reopened[i] += 1
        sessions[i] = station.client.stream_open(session_id=f"{sessions[i]}-r{reopened[i]}")
        decoded[i] = None

    def replay(served: List[List[int]]) -> Tuple[ledger.Spans, int, int]:
        spans, stacks = ledger.replay_stacks(STATIONS)
        try:
            for i in range(STATIONS):
                stacks[i].streams.open(session_id=f"replay-{i}")
                ledger.replay_frames(spans, stacks[i], f"replay-{i}", clips[i].frames, tcp=True)
            spans.reset()
            rows = pipe = 0
            for _ in range(REPLAYS):
                for i in range(STATIONS):
                    frames = [clips[i].frames[n] for n in served[i]]
                    got_rows, got_bytes = ledger.replay_frames(spans, stacks[i], f"replay-{i}", frames, tcp=True)
                    rows, pipe = rows + got_rows, pipe + got_bytes
        finally:
            ledger.close_stacks(stacks)
        return spans, rows, pipe

    _tcp_run(
        run,
        seconds,
        trace,
        items,
        open_station=open_station,
        op=lambda station, i, item: station.client.stream_frame(sessions[i], item[1]),
        check=check,
        rows=lambda item: item[1].height,
        on_failure=on_failure,
        front_span="sharded_stream_frame",
        worker_span="shard_stream_frame",
        replay=replay,
    )
    return run


WORKLOADS: Dict[str, Callable[[int, float, bool], Run]] = {
    "fig5-strip": fig5_strip,
    "unique-rows": unique_rows,
    "pcb-inspect": pcb_inspect,
    "motion-stream": motion_stream,
}
