"""Warm restart across real process boundaries.

Everything in ``tests/service`` reopens the store inside one
interpreter; these tests cross actual ``fork``/``exec`` lines, which is
the contract the persistent tier exists for:

- populate in a child process, exit cleanly, serve from a *fresh*
  process: hit-rate floor met and every result byte-identical to the
  cold run's;
- populate and then ``SIGKILL`` the child mid-life (no ``close()``, no
  ``flush()``): the next process recovers whatever ``put`` already made
  durable, takes over the writer lock the kernel released, and serves;
- two *live* processes over one directory: exactly one holds the
  writer lock, the second degrades to read-only, and the index is not
  corrupted by the overlap;
- the ``repro serve`` CLI — single-process and ``--workers 2`` — run
  twice over one ``--cache-dir`` as separate OS processes, with the
  second run passing a 90 % hit-rate gate purely from disk.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.store import RowStore

#: Child-process preamble: a deterministic 30-pair workload and a
#: result digest, shared by every scenario so cold/warm comparisons are
#: exact.
_PREAMBLE = """
import hashlib, json, sys
from repro.rle.row import RLERow
from repro.core.options import DiffOptions
from repro.service import DiffService

OPTS = DiffOptions(engine="batched", cache_dir=sys.argv[1])
PAIRS = [
    (
        RLERow.from_pairs([(i % 9, 3), (i % 7 + 14, 2), (30, 4)], width=48),
        RLERow.from_pairs([(i % 9 + 1, 3), (i % 7 + 15, 2)], width=48),
    )
    for i in range(30)
]

def digest(results):
    h = hashlib.blake2b(digest_size=16)
    for r in results:
        h.update(repr((r.result.to_pairs(), r.result.width, r.iterations,
                       r.k1, r.k2, r.n_cells, r.stats.items())).encode())
    return h.hexdigest()
"""

_SERVE = _PREAMBLE + """
service = DiffService(OPTS, max_latency=0.0)
results = [service.row_diff(a, b) for a, b in PAIRS]
info = service.cache.info()
service.close()
print(json.dumps({"digest": digest(results), "info": info}))
"""

_POPULATE_THEN_DIE = _PREAMBLE + """
import os
from repro.service import RowStore
from repro.service.cache import DiffCache

store = RowStore(sys.argv[1])
cache = DiffCache(store=store)
service = DiffService(DiffOptions(engine="batched"), max_latency=0.0)
for a, b in PAIRS:
    cache.store(a, b, DiffOptions(engine="batched"), service.row_diff(a, b))
cache.flush()
print(json.dumps({"writes": store.info()["disk_writes"]}), flush=True)
os.kill(os.getpid(), 9)  # no close(): the crash path
"""

_HOLD_LOCK = _PREAMBLE + """
import os, time
from repro.service import RowStore

store = RowStore(sys.argv[1])
assert store.writable
open(sys.argv[2], "w").close()  # ready marker
deadline = time.time() + 30
while not os.path.exists(sys.argv[3]) and time.time() < deadline:
    time.sleep(0.05)
store.close()
"""


def _run(script: str, *argv: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(tmp_path, *extra: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--height", "48", "--width", "48", "--frames", "4",
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )


class TestCleanRestart:
    def test_fresh_process_serves_warm_and_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        cold = _run(_SERVE, cache_dir)
        warm = _run(_SERVE, cache_dir)
        assert warm["digest"] == cold["digest"]
        assert cold["info"]["hit_rate"] == 0.0
        assert warm["info"]["hit_rate"] == 1.0  # every row straight from disk
        assert warm["info"]["disk_warm_entries"] == cold["info"]["entries"]
        assert warm["info"]["disk_hits"] == warm["info"]["hits"]

    def test_third_process_still_warm(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        cold = _run(_SERVE, cache_dir)
        _run(_SERVE, cache_dir)
        third = _run(_SERVE, cache_dir)
        assert third["digest"] == cold["digest"]
        assert third["info"]["hit_rate"] == 1.0


class TestCrashRestart:
    def test_sigkilled_writer_leaves_a_recoverable_store(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", _POPULATE_THEN_DIE, cache_dir],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == -signal.SIGKILL
        writes = json.loads(proc.stdout.strip().splitlines()[-1])["writes"]
        assert writes == 30
        # the kernel released the dead writer's flock: we take over,
        # the journal replays (torn tail tolerated), entries survive
        with RowStore(cache_dir) as store:
            assert store.writable
            assert store.warm_entries == writes
        # and a fresh serving process runs 100% warm
        warm = _run(_SERVE, cache_dir)
        assert warm["info"]["hit_rate"] == 1.0


class TestConcurrentOpen:
    def test_second_live_process_degrades_read_only(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        baseline = _run(_SERVE, cache_dir)
        ready = str(tmp_path / "ready")
        done = str(tmp_path / "done")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", _HOLD_LOCK, cache_dir, ready, done],
            env=env,
        )
        try:
            deadline = time.time() + 30
            while not os.path.exists(ready) and time.time() < deadline:
                time.sleep(0.05)
            assert os.path.exists(ready), "lock-holder child never came up"
            # while the child holds the flock, this process reads but
            # cannot write — and a full serve still works (recompute +
            # promote-to-RAM, writes silently skipped)
            overlapped = _run(_SERVE, cache_dir)
            assert overlapped["digest"] == baseline["digest"]
            assert overlapped["info"]["disk_writable"] == 0.0
            assert overlapped["info"]["hit_rate"] == 1.0
        finally:
            open(done, "w").close()
            assert holder.wait(timeout=30) == 0
        # overlap over: the next opener writes again, index intact
        with RowStore(cache_dir) as store:
            assert store.writable
            assert store.warm_entries == baseline["info"]["entries"]


class TestServeCLIAcrossProcesses:
    def test_single_process_hit_rate_gate(self, tmp_path):
        first = _cli(tmp_path)
        assert first.returncode == 0, first.stdout + first.stderr
        second = _cli(tmp_path, "--min-hit-rate", "0.9")
        assert second.returncode == 0, second.stdout + second.stderr
        assert "hit rate 100.0%" in second.stdout

    def test_sharded_workers_partition_and_restart_warm(self, tmp_path):
        first = _cli(tmp_path, "--workers", "2")
        assert first.returncode == 0, first.stdout + first.stderr
        assert "per-worker partitions" in first.stdout
        for worker in ("worker-0", "worker-1"):
            assert (tmp_path / "cache" / worker / "index.log").exists()
        second = _cli(tmp_path, "--workers", "2", "--min-hit-rate", "0.9")
        assert second.returncode == 0, second.stdout + second.stderr
        assert "hit rate 100.0%" in second.stdout
