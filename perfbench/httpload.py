"""Load generation over raw keep-alive HTTP/1.1 connections.

The client side of the benchmark: a minimal HTTP/1.1 connection (one
``sendall`` per request, ``TCP_NODELAY`` on, response read up to its last
body byte), an open-loop generator that times every request from the moment it
was *due*, and a closed-loop generator that measures capacity.  Only the
standard library is used, so the client costs the server as little CPU as
possible on a small box.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Seconds a single request may take before the client gives up on it.
REQUEST_TIMEOUT = 20.0


class HTTPFailure(OSError):
    """The connection broke or the peer sent something that is not HTTP."""


class Connection:
    """One keep-alive HTTP/1.1 connection to ``host:port``.

    The connection stays in delayed-ACK (interactive) mode, the mode Linux
    moves a busy keep-alive client into by itself.  Left to the kernel's
    heuristics, the mode flips with timing noise, and a server that writes
    a response in two segments without ``TCP_NODELAY`` then costs either
    ~0 or ~40 ms per response from one run to the next; pinned, it costs
    the same on every run.
    """

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT):
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def request(self, method: str, path: str, body: bytes = b""
                ) -> Tuple[int, bytes, float]:
        """Send one request; returns ``(status, body, time_of_last_byte)``."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        lines = self._buffer[:end].decode("latin-1").split("\r\n")
        self._buffer = self._buffer[end + 4:]
        try:
            status = int(lines[0].split()[1])
            length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                          if line.lower().startswith("content-length:"))
        except (IndexError, ValueError, StopIteration) as error:
            raise HTTPFailure(f"malformed response head {lines[0]!r}") from error
        while len(self._buffer) < length:
            self._fill()
        done = time.perf_counter()
        payload, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, payload, done

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise HTTPFailure("connection closed by the server")
        self._buffer += chunk


@dataclass
class Sample:
    """One request of a load phase (``perf_counter`` seconds)."""

    request_id: int
    due: float
    sent: float
    done: float
    ok: bool
    rows: int = 0

    @property
    def latency(self) -> float:
        """Seconds from the due time to the last response byte; a failed
        request counts as infinitely slow."""
        return self.done - self.due if self.ok else float("inf")


#: ``send(connection, index, request_id) -> (ok, done_time, rows)``.
Sender = Callable[[Connection, int, int], Tuple[bool, float, int]]


class Client:
    """Sends requests over one connection, reconnecting after a failure.

    The ``index``-th request of a client carries id ``base + index``.
    """

    def __init__(self, host: str, port: int, send: Sender, base: int = 0):
        self.host, self.port, self.send, self.base = host, port, send, base
        self.connection: Optional[Connection] = None

    def connect(self) -> None:
        if self.connection is None:
            self.connection = Connection(self.host, self.port)

    def call(self, index: int) -> Tuple[bool, float, int]:
        try:
            self.connect()
            return self.send(self.connection, index, self.base + index)
        except OSError:
            # A broken keep-alive connection cannot be reused: the next
            # request opens a fresh one.  The pause keeps a closed loop
            # against a dead server from spinning.
            if self.connection is not None:
                self.connection.close()
            self.connection = None
            done = time.perf_counter()
            time.sleep(0.01)
            return False, done, 0

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def open_loop(client: Client, count: int, rate: float, start: float,
              first: int = 0) -> List[Sample]:
    """Send ``count`` requests due at ``start + i / rate``, one at a time,
    with request indices ``first`` to ``first + count - 1``.

    A request whose predecessor is still outstanding at its due time is sent
    late, and its latency still runs from the due time, so a stall is
    charged to every request it delays (no coordinated omission).
    """
    samples = []
    for step in range(count):
        due = start + step / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        index = first + step
        ok, done, rows = client.call(index)
        samples.append(Sample(client.base + index, due, sent, done, ok, rows))
    return samples


def closed_loop(client: Client, stop: float) -> List[Sample]:
    """Send requests back to back until ``stop``; each is due when sent."""
    samples = []
    index = 0
    while time.perf_counter() < stop:
        sent = time.perf_counter()
        ok, done, rows = client.call(index)
        samples.append(Sample(client.base + index, sent, sent, done, ok, rows))
        index += 1
    return samples


def run_threads(targets: Sequence[Callable[[], List[Sample]]]) -> List[List[Sample]]:
    """Run each target on its own thread; returns their samples in order
    and re-raises the first exception a target raised."""
    results: List[Optional[List[Sample]]] = [None] * len(targets)
    errors: List[BaseException] = []

    def runner(slot: int, target: Callable[[], List[Sample]]) -> None:
        try:
            results[slot] = target()
        except BaseException as error:  # surfaced on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=runner, args=(slot, target),
                                name=f"perfbench-load-{slot}")
               for slot, target in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [result or [] for result in results]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in ``(0, 1]``)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]
