"""Asyncio HTTP front end: the one way :class:`ServingApp` is served.

:class:`AsyncServingServer` accepts connections on an asyncio event loop, so
a slow client costs a coroutine, not a thread:

* request *parsing* (status line, headers, body) happens on the loop with
  per-phase timeouts — a half-open or trickling connection occupies only a
  coroutine and some buffer space;
* request *execution* runs the blocking :class:`ServingApp` handlers on a
  bounded thread pool (``run_in_executor``).  Only complete, validated
  requests ever reach the pool, so slow clients cannot occupy it.  The
  :class:`~repro.serve.batching.MicroBatcher`'s leader/follower protocol
  works across the pool's threads: concurrent single-row queries stack into
  one batched product, and batching never changes a byte of any response;
* each response leaves in one ``write`` of head and body, and asyncio sets
  ``TCP_NODELAY`` on every accepted TCP socket, so a keep-alive client never
  waits out Nagle's algorithm against its own delayed ACK.

Every response body is ``json.dumps(<ServingApp result>)`` — the same bytes
an in-process caller of the app would serialize.  With the app's ``workers``
backend enabled, the executor threads feed worker *processes*, giving the
multi-process serving path of ``repro serve --workers N``; without it,
every model scatter-gathers over in-process threads.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple, Union

from repro.interval.scalar import IntervalError
from repro.serve.http import MAX_BODY_BYTES, RequestError, ServingApp
from repro.serve.store import ModelStore

#: Upper bound on the request line plus headers (one header line is also
#: bounded by asyncio's default readline limit of 64 KiB).
MAX_HEADER_BYTES = 32 * 1024

#: Default seconds a client may take to deliver the request head / the
#: body (overridable per server: ``head_timeout`` / ``body_timeout``).
#: Long enough for slow mobile links, short enough that a trickling
#: client's buffers are reclaimed; healthy clients are unaffected.
HEAD_TIMEOUT = 30.0
BODY_TIMEOUT = 60.0

logger = logging.getLogger(__name__)


class _BadRequest(Exception):
    """Protocol-level failure; the connection closes after the reply."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class AsyncServingServer:
    """Asyncio front end over a :class:`ServingApp`.

    Parameters
    ----------
    app:
        The shared application state, or a :class:`ModelStore` / store path
        to build one from.
    host, port:
        Bind address; ``port=0`` binds an ephemeral port (``self.address``
        has the real one once started).
    executor_threads:
        Size of the pool running the blocking app handlers.  This bounds
        *executing* requests only — parsing happens on the loop — and sets
        the widest micro-batch a single delay window can collect from
        concurrent connections.
    verbose:
        Log each request (method, path, status) at INFO level through this
        module's logger.
    head_timeout, body_timeout:
        Seconds a client may take to deliver the request head / body
        (defaults :data:`HEAD_TIMEOUT` / :data:`BODY_TIMEOUT`).
    """

    def __init__(self, app: Union[ServingApp, ModelStore, str],
                 host: str = "127.0.0.1", port: int = 8080,
                 executor_threads: int = 16, verbose: bool = False,
                 head_timeout: float = HEAD_TIMEOUT,
                 body_timeout: float = BODY_TIMEOUT):
        if head_timeout <= 0 or body_timeout <= 0:
            raise ValueError("head/body timeouts must be positive")
        self.app = app if isinstance(app, ServingApp) else ServingApp(app)
        self.host = host
        self.port = port
        self.verbose = verbose
        self.head_timeout = float(head_timeout)
        self.body_timeout = float(body_timeout)
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix="repro-async-exec")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()
        self._done = threading.Event()
        self._stopping: Optional[asyncio.Event] = None
        self._connections: set = set()
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away or spoke garbage; nothing to answer
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_one_request(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> bool:
        """Parse, dispatch and answer one request; returns keep-alive."""
        try:
            method, path, headers, close_requested, expects_continue = \
                await self._read_head(reader)
        except _BadRequest as error:
            if error.status == 408 and not str(error).startswith("timed out"):
                return False  # clean EOF between requests: just close
            await self._respond(writer, {"error": str(error)}, error.status,
                                close=True)
            return False
        try:
            body = await self._read_body(reader, writer, headers,
                                         expects_continue)
        except _BadRequest as error:
            # The body is unread or unreadable either way: the connection
            # cannot be reused, its next bytes are not a request line.
            await self._respond(writer, {"error": str(error)}, error.status,
                                close=True)
            return False
        status, payload, extra_headers = await self._dispatch(method, path, body)
        if self.verbose:
            logger.info("%s %s -> %d", method, path, status)
        await self._respond(writer, payload, status, close=close_requested,
                            extra_headers=extra_headers)
        return not close_requested

    async def _read_head(self, reader: asyncio.StreamReader):
        """Read and parse the request line and headers, bounded in time and
        bytes."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.head_timeout)
        except asyncio.TimeoutError:
            raise _BadRequest("timed out reading the request head", 408)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                raise _BadRequest("connection closed between requests", 408)
            raise _BadRequest("connection closed mid-request", 400)
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large", 413)
        if len(head) > MAX_HEADER_BYTES:
            raise _BadRequest("request head too large", 413)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, path, version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(f"malformed header line {line!r}")
            name = name.strip().lower()
            if name == "content-length" and name in headers:
                # Which one frames the body is ambiguous, and guessing
                # leaves the rest of the body to be read as a request.
                raise _BadRequest("repeated Content-Length header")
            headers[name] = value.strip()
        connection = headers.get("connection", "").lower()
        close_requested = (connection == "close"
                           or (version == "HTTP/1.0"
                               and connection != "keep-alive"))
        expects_continue = (version == "HTTP/1.1" and
                            headers.get("expect", "").lower() == "100-continue")
        return method, path, headers, close_requested, expects_continue

    async def _read_body(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         headers: Dict[str, str],
                         expects_continue: bool) -> bytes:
        raw_length = headers.get("content-length", "0")
        # 1*DIGIT only (RFC 9110 section 8.6): int() would also take a
        # sign, underscores and non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest(f"invalid Content-Length {raw_length!r}")
        if "transfer-encoding" in headers:
            raise _BadRequest("chunked request bodies are not supported")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _BadRequest("request body too large", 413)
        if length == 0:
            return b""
        if expects_continue:
            # The client holds the body back until told to send it (curl
            # waits 1s otherwise); the checks above may still refuse it.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), timeout=self.body_timeout)
        except asyncio.TimeoutError:
            raise _BadRequest("timed out reading the request body", 408)
        except asyncio.IncompleteReadError:
            raise _BadRequest("connection closed mid-body", 400)

    # ------------------------------------------------------------------ #
    # Dispatch (blocking app work runs on the executor)
    # ------------------------------------------------------------------ #
    async def _dispatch(self, method: str, path: str, body: bytes
                        ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        if method == "GET":
            if path == "/healthz":
                return await self._call(self.app.healthz)
            if path == "/models":
                return await self._call(self.app.models)
            return 404, {"error": f"unknown path {path!r}"}, {}
        if method != "POST":
            return 404, {"error": f"unsupported method {method!r}"}, {}
        routes = {"/recommend": self.app.recommend,
                  "/neighbors": self.app.neighbors}
        handler = routes.get(path)
        if handler is None:
            return 404, {"error": f"unknown path {path!r}"}, {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"invalid JSON body: {error}"}, {}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        return await self._call(handler, payload)

    async def _call(self, handler, *args
                    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Run one blocking app handler on the executor, mapping exceptions
        to their statuses (and ``Retry-After`` headers)."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor, lambda: handler(*args))
            return 200, result, {}
        except RequestError as error:
            headers: Dict[str, str] = {}
            if error.retry_after is not None:
                headers["Retry-After"] = \
                    str(max(1, int(-(-error.retry_after // 1))))
            return error.status, {"error": str(error)}, headers
        except (ValueError, IntervalError) as error:
            return 400, {"error": str(error)}, {}
        except Exception as error:  # never drop a connection without a reply
            return 500, {"error": f"internal error: {error}"}, {}

    async def _respond(self, writer: asyncio.StreamWriter,
                       payload: Dict[str, object], status: int,
                       close: bool = False,
                       extra_headers: Optional[Dict[str, str]] = None) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            status = 500
            body = json.dumps(
                {"error": "response contains non-finite values"}).encode()
        reason = HTTPStatus(status).phrase
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (extra_headers or {}).items())
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def _serve(self, ready: Optional[Callable[[Tuple[str, int]], None]]
                     ) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=128)
        self.address = self._server.sockets[0].getsockname()[:2]
        logger.info("serving front end listening on %s:%d", *self.address)
        self._started.set()
        try:
            if ready is not None:
                ready(self.address)
            # start_server is already accepting; park until stop() fires.
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Cancel parked connections (e.g. slow clients mid-head) and
            # wait them out, so no coroutine outlives the loop and finds
            # it closed at garbage-collection time.
            pending = [conn for conn in list(self._connections)
                       if not conn.done()]
            for connection in pending:
                connection.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # One extra beat lets the transports' close callbacks run.
            await asyncio.sleep(0)
            await asyncio.sleep(0)

    def run(self, ready: Optional[Callable[[Tuple[str, int]], None]] = None
            ) -> None:
        """Serve until :meth:`stop` or Ctrl-C (the blocking CLI entry point).

        ``ready`` is called with the bound address once the listener accepts
        connections.  Reaps the app's engines — including worker processes —
        on the way out.
        """
        loop = self._loop = asyncio.new_event_loop()
        task = loop.create_task(self._serve(ready))
        try:
            loop.run_until_complete(task)
        except KeyboardInterrupt:
            # Run the loop just long enough for _serve's finally block to
            # close the listener and cancel parked connections — otherwise
            # the suspended coroutine is GC'd mid-finally ("coroutine
            # ignored GeneratorExit").  A second Ctrl-C still gets through.
            task.cancel()
            try:
                loop.run_until_complete(task)
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
        finally:
            loop.close()
            self._release()
            self._done.set()

    def start_background(self) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns the bound address.

        The test-suite (and embedding) entry point; pair with :meth:`stop`.
        """
        threading.Thread(target=self.run, daemon=True,
                         name="repro-async-serve").start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("serving front end failed to start")
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop a started server and release everything (idempotent): the
        listener, the executor, and the app's engines — after this, no
        worker process of this server is running."""
        if self._loop is None:  # never ran: only the app needs releasing
            self._release()
            return
        if self._stopping is not None:
            try:
                # _serve() owns the orderly teardown, then run() releases
                # the executor and the app's engines.
                self._loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:  # loop already closed: run() has returned
                pass
        self._done.wait()

    def _release(self) -> None:
        self._executor.shutdown(wait=True)
        self.app.close()
        logger.info("serving front end stopped")


def create_server(
    store: Union[ModelStore, str],
    host: str = "127.0.0.1",
    port: int = 8080,
    max_batch: int = 64,
    batch_delay: float = 0.002,
    verbose: bool = False,
    kernel=None,
    workers: bool = False,
    executor_threads: int = 16,
    head_timeout: float = HEAD_TIMEOUT,
    body_timeout: float = BODY_TIMEOUT,
    request_timeout: Optional[float] = None,
    degraded: str = "fail",
    worker_options: Optional[Dict[str, object]] = None,
    dtype: Optional[str] = None,
) -> AsyncServingServer:
    """Build the serving front end over a model store.

    ``max_batch`` / ``batch_delay`` (seconds) tune micro-batching, which
    never changes any answer; ``workers=True`` serves every model through
    one worker process per shard instead of in-process threads, with
    byte-identical answers.  ``kernel``, ``request_timeout``, ``degraded``,
    ``worker_options`` and ``dtype`` are :class:`ServingApp`'s; the rest are
    :class:`AsyncServingServer`'s.  ``port=0`` binds an ephemeral port.
    """
    app = ServingApp(store, max_batch=max_batch, batch_delay=batch_delay,
                     kernel=kernel, workers=workers,
                     request_timeout=request_timeout, degraded=degraded,
                     worker_options=worker_options, dtype=dtype)
    return AsyncServingServer(app, host=host, port=port,
                              executor_threads=executor_threads,
                              verbose=verbose,
                              head_timeout=head_timeout,
                              body_timeout=body_timeout)
