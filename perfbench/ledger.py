"""The per-layer ledger of a traced run.

Layers are measured from outside the program:

* the benchmark's own span around each op (``L``, the client's view);
* the program's exported traces — the front-end's ``sharded_*`` span
  (``F``) and each shard worker's ``shard_*`` span (``W``) of a request,
  stitched by the server — and its ``repro_*`` counters;
* an in-process replay of the run's requests through the public calls a
  shard worker makes (``ResilientDiffService`` over ``DiffService`` over
  ``DiffCache`` and ``compute_row_diffs``, ``StreamingDiffService``), the
  ``shard``/``stream`` wire codecs and ``json`` on the captured lines,
  each call wrapped in a benchmark span, and the captured lines sent
  over a loopback socket to an echo thread (the socket hop alone).

A span's self time is its duration minus its children's.  Every layer
row is a self time in microseconds per row; what no span covers is the
``unaccounted`` row, so the rows of a workload add up to its traced
per-row latency.  Shard workers run side by side, so their layers are
scaled by the measured share of the slowest worker's span in the sum of
both (``max W / sum W``) — the part of their work that blocks the
request.
"""

from __future__ import annotations

import json
import pickle
import socket
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import DiffOptions
from repro.obs.context import RequestContext, encode_context
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.rle.image import RLEImage
from repro.service import (
    ResilientDiffService,
    ShardRing,
    StreamingDiffService,
    compute_row_diffs,
)
from repro.service.shard import decode_result, decode_row, encode_result, encode_row, encode_span
from repro.service.stream import (
    decode_frame_delta,
    decode_image,
    encode_frame_delta,
    encode_image,
)

#: (name, unit) of every per-layer metric, in ledger order, as named in
#: ``BENCHMARK.json``.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = tuple(
    (metric["name"], metric["unit"])
    for metric in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
)

#: Worker-side layers of the service stack, innermost last.
WORKER_LAYERS = ("service.stream", "service.resilience", "service.service", "service.cache", "core.batched")


def empty_ledger() -> Dict[str, float]:
    return {name: 0.0 for name, _ in LAYER_METRICS}


class Spans:
    """Self time per layer for the calls the benchmark wraps.

    Single-threaded: the replay runs on one thread.  Each wrapped call is
    a span; its self time is its duration minus its child spans'.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self._open: List[float] = []
        self.computed_rows = 0
        self.computed_iterations = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def span(*args: Any, **kwargs: Any) -> Any:
            self._open.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                children = self._open.pop()
                self.self_s[name] += duration - children
                if self._open:
                    self._open[-1] += duration

        return span

    def reset(self) -> None:
        self.self_s.clear()
        self.computed_rows = self.computed_iterations = 0


class _TimedCache:
    """A ``DiffCache`` whose probe calls are spans (``service.cache``)."""

    def __init__(self, cache: Any, spans: Spans) -> None:
        self._cache = cache
        self.key_for = spans.wrap("service.cache", cache.key_for)
        self.get = spans.wrap("service.cache", cache.get)
        self.put = spans.wrap("service.cache", cache.put)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cache, name)


class WorkerStack:
    """What one shard worker runs, built the way the worker builds it,
    with the public calls between its layers wrapped in spans."""

    def __init__(self, spans: Spans) -> None:
        def compute(options: DiffOptions, rows_a: Sequence, rows_b: Sequence) -> list:
            results = compute_row_diffs(options, rows_a, rows_b)
            spans.computed_rows += len(results)
            spans.computed_iterations += sum(r.iterations for r in results)
            return results

        registry = MetricsRegistry()
        log = StructuredLog()
        self.service = ResilientDiffService(
            DiffOptions(engine="batched", metrics=registry),
            compute=spans.wrap("core.batched", compute),
            log=log,
        )
        inner = self.service.service
        inner.cache = _TimedCache(inner.cache, spans)
        inner.diff_rows = spans.wrap("service.service", inner.diff_rows)
        inner.diff_images = spans.wrap("service.service", inner.diff_images)
        self.service.diff_rows = spans.wrap("service.resilience", self.service.diff_rows)
        self.service.diff_images = spans.wrap("service.resilience", self.service.diff_images)
        self.streams = StreamingDiffService(self.service, metrics=registry, log=log)
        self.streams.append_frame = spans.wrap("service.stream", self.streams.append_frame)

    def close(self) -> None:
        self.streams.close()
        self.service.close()


def _timed(spans: Spans, name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return spans.wrap(name, fn)(*args)


def _pipe_bytes(request: Any, reply: Any) -> int:
    """Pickled size of one request/reply pair on a worker pipe."""
    return len(pickle.dumps(request)) + len(pickle.dumps(reply))


_SPAN_WIRE = encode_span("shard_span", 0.001, {"request_id": "0" * 16, "worker": 0, "rows": 0})


def replay_rows(
    spans: Spans,
    stacks: List[WorkerStack],
    requests: Sequence[Tuple[Sequence, Sequence]],
    tcp: bool,
) -> Tuple[int, int]:
    """Replay ``diff_rows`` requests as the sharded tier serves them:
    routed by row fingerprint, the shard codecs around each worker call,
    and (``tcp``) the TCP front-end's row codecs.  Returns rows replayed
    and computed pipe bytes."""
    ring = ShardRing(len(stacks))
    ctx_wire = encode_context(RequestContext.new())
    rows = pipe_bytes = 0
    for rows_a, rows_b in requests:
        by_shard: Dict[int, List[int]] = defaultdict(list)
        for i, row in enumerate(rows_a):
            by_shard[ring.shard_for_row(row)].append(i)
        for shard, idx in by_shard.items():
            sub_a = [rows_a[i] for i in idx]
            sub_b = [rows_b[i] for i in idx]
            # front-end side (inside F, outside W): encode the rows
            wire_a = _timed(spans, "codec.front", lambda: [encode_row(r) for r in sub_a])
            wire_b = _timed(spans, "codec.front", lambda: [encode_row(r) for r in sub_b])
            # worker side, inside W: decode, then serve
            dec_a = _timed(spans, "codec.worker", lambda: [decode_row(w) for w in wire_a])
            dec_b = _timed(spans, "codec.worker", lambda: [decode_row(w) for w in wire_b])
            results = stacks[shard].service.diff_rows(dec_a, dec_b)
            # worker encodes its reply after its span; the front-end decodes it
            wires = _timed(spans, "codec.front", lambda: [encode_result(r) for r in results])
            _timed(spans, "codec.front", lambda: [decode_result(w) for w in wires])
            pipe_bytes += _pipe_bytes(
                ("diff_rows", 0, (tuple(wire_a), tuple(wire_b), ctx_wire)),
                ("ok", 0, (tuple(wires), (_SPAN_WIRE,), ())),
            )
            if tcp:
                # client encodes rows; server decodes them from JSON and
                # encodes the results back; client decodes those
                _timed(spans, "codec.tcp", lambda: [encode_row(r) for r in sub_a + sub_b])
                _timed(spans, "codec.tcp", lambda: [decode_row(w) for w in wire_a + wire_b])
                _timed(spans, "codec.tcp", lambda: [decode_result(encode_result(r)) for r in results])
        rows += len(rows_a)
    return rows, pipe_bytes


def replay_frames(
    spans: Spans, stack: WorkerStack, session_id: str, frames: Sequence, tcp: bool
) -> Tuple[int, int]:
    """Replay one session's frames through the worker's stream service
    and the stream codecs.  Returns rows replayed and pipe bytes."""
    ctx_wire = encode_context(RequestContext.new())
    rows = pipe_bytes = 0
    for frame in frames:
        wire = _timed(spans, "codec.front", encode_image, frame)
        decoded = _timed(spans, "codec.worker", decode_image, wire)
        delta = stack.streams.append_frame(session_id, decoded)
        delta_wire = _timed(spans, "codec.front", encode_frame_delta, delta)
        _timed(spans, "codec.front", decode_frame_delta, delta_wire)
        pipe_bytes += _pipe_bytes(
            ("stream_frame", 0, (session_id, wire, ctx_wire)),
            ("ok", 0, (delta_wire, (_SPAN_WIRE,), ())),
        )
        if tcp:
            _timed(spans, "codec.tcp", lambda: decode_image(encode_image(frame)))
            _timed(spans, "codec.tcp", lambda: decode_frame_delta(encode_frame_delta(delta)))
        rows += frame.height
    return rows, pipe_bytes


def replay_json(spans: Spans, lines: Sequence[bytes]) -> None:
    """Both ends' JSON work on captured wire lines: a request line is
    dumped by the client and loaded by the server, a response line
    dumped by the server and loaded by the client."""
    for line in lines:
        obj = _timed(spans, "json", json.loads, line)
        _timed(spans, "json", json.dumps, obj)


def assembly_seconds(row_results: Sequence[Any], width: int, options: DiffOptions, repeats: int) -> float:
    """Median seconds of ``image_diff``'s image assembly — an ``RLEImage``
    over the engine's result rows, canonical ones when ``options`` asks
    for them, as the batched path builds it — replayed on one op's
    results."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        RLEImage((r.canonical_result if options.canonical else r.result for r in row_results), width=width)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def replay_socket(spans: Spans, exchanges: Sequence[Tuple[bytes, bytes]]) -> None:
    """The socket hop alone: each captured request line is sent over a
    loopback TCP connection to an echo thread, which reads it and answers
    with the captured response line; the client's send-to-reply time is
    the ``tcp`` span."""
    listener = socket.create_server(("127.0.0.1", 0))

    def echo() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            for _, reply in exchanges:
                if not reader.readline():
                    return
                conn.sendall(reply)

    thread = threading.Thread(target=echo)
    thread.start()
    try:
        with socket.create_connection(listener.getsockname()) as sock, sock.makefile("rb") as reader:
            for request, _ in exchanges:
                started = time.perf_counter()
                sock.sendall(request)
                reader.readline()
                spans.self_s["tcp"] += time.perf_counter() - started
    finally:
        thread.join()
        listener.close()


def trace_spans(trace: Dict[str, Any], front: str, worker: str) -> Tuple[float, List[float]]:
    """``(F, [W per worker])`` in seconds from one stitched trace."""
    f = 0.0
    w: Dict[int, float] = defaultdict(float)
    for event in trace.get("traceEvents", ()):
        if event["name"] == front:
            f += event["dur"] / 1e6
        elif event["name"] == worker:
            w[event["tid"]] += event["dur"] / 1e6
    return f, list(w.values())


def sharded_ledger(
    matched: Sequence[Tuple[float, float, List[float], int]],
    spans: Spans,
    replayed_rows: int,
) -> Dict[str, float]:
    """Layer rows (µs/row) of a sharded workload.

    ``matched`` holds ``(L, F, [W_k], rows)`` for the requests whose
    stitched trace was fetched; ``spans`` the replay's self times over
    ``replayed_rows`` rows.  By construction the rows sum to ``L``/row.
    """
    rows = sum(m[3] for m in matched)
    if not rows or not replayed_rows:
        return {}
    latency = sum(m[0] for m in matched) / rows
    front = sum(m[1] for m in matched) / rows
    w_max = sum(max(m[2], default=0.0) for m in matched) / rows
    w_sum = sum(sum(m[2]) for m in matched) / rows
    parallel = w_max / w_sum if w_sum else 1.0

    def replayed(name: str) -> float:
        return spans.self_s.get(name, 0.0) / replayed_rows

    worker = {name: replayed(name) for name in WORKER_LAYERS}
    codec_worker, codec_front = replayed("codec.worker"), replayed("codec.front")
    # replayed on TCP workloads only, so 0 on the in-process one
    codec_tcp, json_s, tcp_s = replayed("codec.tcp"), replayed("json"), replayed("tcp")
    layers = {
        "service.frontend.json_us_per_row": json_s,
        "service.frontend.tcp_us_per_row": tcp_s,
        "service.frontend.pipe_us_per_row": front - w_max - codec_front,
        "service.shard.codec_us_per_row": codec_tcp + codec_front + parallel * codec_worker,
        "unaccounted.us_per_row": latency - front - json_s - codec_tcp - tcp_s
        + parallel * (w_sum - codec_worker - sum(worker.values())),
    }
    for name, seconds in worker.items():
        layers[f"{name}.us_per_row"] = parallel * seconds
    return {name: seconds * 1e6 for name, seconds in layers.items()}


def counter_total(doc: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter family's series in a ``repro.metrics/v1`` document
    (the ``metrics`` op), over the series whose labels include ``labels``."""
    total = 0.0
    for family in doc.get("metrics", ()):
        if family["name"] != name:
            continue
        for series in family["series"]:
            if all(series["labels"].get(k) == v for k, v in labels.items()):
                total += series.get("value", 0.0)
    return total


#: The ``repro_*`` counters the ledger reads, as (key, family, labels).
COUNTERS = (
    ("hits", "repro_cache_hits_total", {}),
    ("misses", "repro_cache_misses_total", {}),
    ("evictions", "repro_cache_evictions_total", {}),
    ("retries", "repro_resilience_retries_total", {}),
    ("served_hit", "repro_service_requests_total", {"outcome": "hit"}),
    ("served_computed", "repro_service_requests_total", {"outcome": "computed"}),
    ("served_coalesced", "repro_service_requests_total", {"outcome": "coalesced"}),
    ("rekeys", "repro_stream_rekeys_total", {}),
    ("raw_runs", "repro_stream_raw_runs_total", {}),
    ("shipped_runs", "repro_stream_shipped_runs_total", {}),
)


def counters_from(total: Callable[..., float]) -> Dict[str, float]:
    """Read :data:`COUNTERS` through ``total(family, **labels)``."""
    return {key: total(family, **labels) for key, family, labels in COUNTERS}


def counter_layers(delta: Dict[str, float]) -> Dict[str, float]:
    """Ledger rows read from the program's counters over the phase."""
    probes = delta["hits"] + delta["misses"]
    served = delta["served_hit"] + delta["served_computed"] + delta["served_coalesced"]
    return {
        "core.batched.computed_share": delta["served_computed"] / served if served else 0.0,
        "service.cache.hit_share": delta["hits"] / probes if probes else 0.0,
        "service.cache.evictions": delta["evictions"],
        "service.service.coalesced_share": delta["served_coalesced"] / served if served else 0.0,
        "service.resilience.retries": delta["retries"],
        "service.stream.rekeys": delta["rekeys"],
        "service.stream.shipped_run_share": (
            delta["shipped_runs"] / delta["raw_runs"] if delta["raw_runs"] else 0.0
        ),
    }


def replay_stacks(n: int) -> Tuple[Spans, List[WorkerStack]]:
    spans = Spans()
    return spans, [WorkerStack(spans) for _ in range(n)]


def close_stacks(stacks: Sequence[WorkerStack]) -> None:
    for stack in stacks:
        stack.close()


def iterations_per_row(spans: Spans) -> float:
    return spans.computed_iterations / spans.computed_rows if spans.computed_rows else 0.0


def merge(*parts: Optional[Dict[str, float]]) -> Dict[str, float]:
    out = empty_ledger()
    for part in parts:
        if part:
            out.update(part)
    return out
