"""Process plumbing: the ``repro serve`` server under test, ``/proc``
readers for program CPU and peak memory, the set-up probe, and a
byte-counting wrapper around ``ShardClient``.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, List, Optional

from repro.service import ShardClient

ROOT = Path(__file__).resolve().parent.parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU of each live process in ``pids``."""
    total = 0.0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb(pids: List[int]) -> float:
    """Summed peak resident set (``VmHWM``) of the processes in ``pids``."""
    total = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024
    return total


def child_pids(pid: int) -> List[int]:
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children.extend(int(c) for c in (task / "children").read_text().split())
    return sorted(children)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its first successful
    op on a library workload, minus the time it spent making the input."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)],
        cwd=ROOT,
        env=program_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=120,
        check=True,
    )
    report = json.loads(out.stdout.decode().strip().splitlines()[-1])
    return report["done"] - started - report["gen_s"]


def _drain(stream, sink) -> None:
    for line in iter(stream.readline, b""):
        sink(line.decode(errors="replace"))
    stream.close()


class Server:
    """``repro serve --workers 2 --listen 127.0.0.1:0`` in its own process.

    ``setup_s`` is the time from launch to the first successful ``ping``
    through a client.  The server's stdout and stderr are drained by two
    threads; stderr is kept (its tail) for diagnostics only.
    """

    def __init__(self) -> None:
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2", "--listen", "127.0.0.1:0"],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.stderr_tail: Deque[str] = deque(maxlen=40)
        lines: "queue.Queue[str]" = queue.Queue()
        self._threads = [
            threading.Thread(target=_drain, args=(self.proc.stdout, lines.put), daemon=True),
            threading.Thread(target=_drain, args=(self.proc.stderr, self.stderr_tail.append), daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        self.worker_pids: List[int] = []
        try:
            self.port = self._await_listening(lines, deadline=started + 120)
            with ShardClient("127.0.0.1", self.port) as client:
                client.ping()
            self.setup_s = time.monotonic() - started
            self.worker_pids = child_pids(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, lines: "queue.Queue[str]", deadline: float) -> int:
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start listening") from None
            if line.startswith("listening on"):
                return int(line.strip().rsplit(":", 1)[1])

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self.worker_pids]

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        """Interrupt the server, wait for it and its workers to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in self.worker_pids:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            if Path(f"/proc/{pid}").exists():
                os.kill(pid, signal.SIGKILL)
        for thread in self._threads:
            thread.join(timeout=10)


class WireCounter:
    """Request and response bytes on one client socket; optionally keeps
    the lines themselves (the traced run replays their JSON)."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.capture = False
        self.lines: List[bytes] = []


class _CountingSocket:
    def __init__(self, sock, counter: WireCounter) -> None:
        self._sock = sock
        self._counter = counter

    def sendall(self, data: bytes) -> None:
        self._counter.sent += len(data)
        if self._counter.capture:
            self._counter.lines.append(data)
        self._sock.sendall(data)

    def close(self) -> None:
        self._sock.close()


class _CountingReader:
    def __init__(self, reader, counter: WireCounter) -> None:
        self._reader = reader
        self._counter = counter

    def readline(self) -> bytes:
        line = self._reader.readline()
        self._counter.received += len(line)
        if self._counter.capture:
            self._counter.lines.append(line)
        return line

    def close(self) -> None:
        self._reader.close()


def open_client(port: int, counter: Optional[WireCounter] = None) -> ShardClient:
    """A ``ShardClient``; with ``counter``, its socket and reader are
    wrapped so every byte sent and received is counted (the client keeps
    no byte counts of its own)."""
    client = ShardClient("127.0.0.1", port)
    if counter is not None:
        client._sock = _CountingSocket(client._sock, counter)
        client._reader = _CountingReader(client._reader, counter)
    return client
