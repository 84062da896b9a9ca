"""Tests of the asyncio serving front end.

Four properties anchor the suite:

* **byte parity** — every response (status *and* body, success and error
  paths) is byte-identical to the in-process :class:`ServingApp`'s answer
  serialized with ``json.dumps``;
* **one write per response** — each response reaches the transport in a
  single write, on a socket with ``TCP_NODELAY`` set, so keep-alive
  clients never wait out Nagle's algorithm;
* **slow-client isolation** — clients trickling their requests occupy
  coroutines, not executor threads, so every healthy request is answered,
  byte for byte, while a crowd of slow clients is connected;
* **hitless reshard** — a query loop running across a live republish sees
  zero non-200 responses and byte-identical bodies throughout, served by
  the worker-process backend.
"""

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.core import registry
from repro.core.isvd import isvd
from repro.interval.random import random_interval_matrix
from repro.serve.async_http import AsyncServingServer, create_server
from repro.serve.http import RequestError, ServingApp
from repro.serve.shard import ShardedModelStore


def _request(address, method, path, payload=None):
    """One HTTP exchange; returns (status, raw body bytes)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def model_matrix():
    matrix = random_interval_matrix((20, 12), interval_intensity=0.5, rng=42)
    decomposition = registry.get("isvd4").fit(matrix, 5, target="b")
    return matrix, decomposition


def _in_process(app, method, path, payload=None):
    """The (status, body) the front end must send for one request: the
    in-process app's answer, serialized the way the server serializes it."""
    routes = {("GET", "/models"): app.models,
              ("POST", "/recommend"): app.recommend,
              ("POST", "/neighbors"): app.neighbors}
    handler = routes.get((method, path))
    if handler is None:
        return 404, json.dumps({"error": f"unknown path {path!r}"}).encode()
    try:
        result = handler() if payload is None else handler(payload)
    except RequestError as error:
        return error.status, json.dumps({"error": str(error)}).encode()
    return 200, json.dumps(result, allow_nan=False).encode()


@pytest.fixture(scope="module")
def served(tmp_path_factory, model_matrix):
    """A started server and an in-process app over one shared store."""
    matrix, decomposition = model_matrix
    store = ShardedModelStore(tmp_path_factory.mktemp("store"))
    store.save_sharded("m1", decomposition, 1, matrix=matrix)

    app = ServingApp(store)
    server = create_server(store, port=0, max_batch=8, batch_delay=0.001)
    address = server.start_background()
    try:
        yield {"matrix": matrix, "address": address, "app": app,
               "store": store}
    finally:
        server.stop()
        app.close()


class TestByteParityWithThreadedServer:
    """Byte parity with the in-process app (the class keeps its historical
    name so test ids stay stable)."""

    def _assert_both(self, served, method, path, payload=None):
        expected = _in_process(served["app"], method, path, payload)
        actual = _request(served["address"], method, path, payload)
        assert actual == expected  # status AND body, byte for byte
        return actual

    def test_models_and_healthz(self, served):
        self._assert_both(served, "GET", "/models")
        status, body = _request(served["address"], "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_recommend_and_neighbors(self, served):
        matrix = served["matrix"]
        payload = {"model": "m1", "k": 4,
                   "lower": matrix.lower.tolist(),
                   "upper": matrix.upper.tolist()}
        self._assert_both(served, "POST", "/recommend", payload)
        self._assert_both(served, "POST", "/neighbors", dict(payload, k=3))
        single = {"model": "m1", "k": 4,
                  "lower": matrix.lower[0].tolist(),
                  "upper": matrix.upper[0].tolist()}
        self._assert_both(served, "POST", "/recommend", single)
        self._assert_both(served, "POST", "/neighbors", single)

    def test_error_paths_match(self, served):
        matrix = served["matrix"]
        rows = {"lower": matrix.lower.tolist(),
                "upper": matrix.upper.tolist()}
        for method, path, payload in [
            ("POST", "/recommend", {"model": "absent", "k": 2, **rows}),
            ("POST", "/recommend", {"model": "m1"}),  # no rows
            ("POST", "/recommend", {"model": "m1", "k": 0, **rows}),
            ("POST", "/nowhere", {"model": "m1"}),
            ("GET", "/nowhere", None),
        ]:
            status, _ = self._assert_both(served, method, path, payload)
            assert status in (400, 404)

    def test_keep_alive_carries_multiple_requests(self, served):
        connection = http.client.HTTPConnection(*served["address"],
                                                timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/models")
                response = connection.getresponse()
                assert response.status == 200
                response.read()  # drain so the connection is reusable
        finally:
            connection.close()


class TestOneWritePerResponse:
    def test_keep_alive_responses_leave_in_one_write_with_nodelay(
            self, served):
        nodelay = []
        writes = []

        class RecordingServer(AsyncServingServer):
            async def _handle_connection(self, reader, writer):
                sock = writer.get_extra_info("socket")
                transport = writer.transport
                write = transport.write

                def recording_write(data):
                    nodelay.append(sock.getsockopt(socket.IPPROTO_TCP,
                                                   socket.TCP_NODELAY))
                    writes.append(bytes(data))
                    write(data)

                transport.write = recording_write
                await super()._handle_connection(reader, writer)

        server = RecordingServer(served["store"], port=0)
        address = server.start_background()
        matrix = served["matrix"]
        body = json.dumps({"model": "m1", "k": 3,
                           "lower": matrix.lower[0].tolist(),
                           "upper": matrix.upper[0].tolist()}).encode()
        replies = []
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            for _ in range(2):
                connection.request("POST", "/recommend", body=body)
                response = connection.getresponse()
                assert response.status == 200
                replies.append(response.read())
        finally:
            connection.close()
            server.stop()
        assert len(writes) == 2
        assert len(nodelay) == 2 and all(nodelay)
        for write, reply in zip(writes, replies):
            assert write.startswith(b"HTTP/1.1 200 OK\r\n")
            assert write.endswith(b"\r\n\r\n" + reply)


class TestProtocolErrors:
    def _raw(self, address, data, timeout=10):
        with socket.create_connection(address, timeout=timeout) as raw:
            raw.sendall(data)
            raw.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_malformed_request_line_is_400(self, served):
        reply = self._raw(served["address"], b"NONSENSE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_bad_json_body_is_400(self, served):
        body = b"{not json"
        head = (f"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        reply = self._raw(served["address"], head + body)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_non_object_json_body_is_400(self, served):
        body = b"[1, 2, 3]"
        head = (f"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        reply = self._raw(served["address"], head + body)
        assert reply.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize("content_length", [
        b"Content-Length: banana",
        b"Content-Length: +43",
        b"Content-Length: 4_3",
        b"Content-Length: 43\r\nContent-Length: 3",
    ], ids=["banana", "plus-sign", "underscore", "repeated"])
    def test_invalid_content_length_is_400(self, served, content_length):
        # Only ASCII digits frame a body (RFC 9110 section 8.6), and a second
        # Content-Length line is refused: read with the last one, the
        # body's tail below would be parsed as a smuggled second request.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: xxxxxxx\r\n\r\n"
        body = b"{} " + smuggled
        assert len(body) == 43
        reply = self._raw(served["address"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          + content_length + b"\r\n\r\n" + body)
        assert reply.startswith(b"HTTP/1.1 400")
        assert reply.count(b"HTTP/1.1 ") == 1  # the connection was closed
        error = json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]
        assert "Content-Length" in error

    def test_oversized_body_is_413_before_reading_it(self, served):
        reply = self._raw(served["address"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: 99999999999\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413")

    def test_chunked_bodies_are_rejected(self, served):
        reply = self._raw(served["address"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          b"Transfer-Encoding: chunked\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_expect_100_continue_is_answered_before_the_body(self, served):
        payload = {"model": "m1", "k": 3,
                   "lower": served["matrix"].lower[0].tolist(),
                   "upper": served["matrix"].upper[0].tolist()}
        body = json.dumps(payload).encode()
        with socket.create_connection(served["address"], timeout=10) as raw:
            raw.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                        b"Expect: 100-continue\r\nConnection: close\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode())
            with raw.makefile("rb") as replies:
                # The interim line arrives while the body is still unsent.
                assert replies.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert replies.readline() == b"\r\n"
                raw.sendall(body)
                reply = replies.read()
        head, _, answer = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert (200, answer) == _in_process(served["app"], "POST",
                                            "/recommend", payload)

    def test_clean_disconnect_gets_no_error_response(self, served):
        # Opening and closing without sending anything is not an error the
        # server should answer (or log a traceback for).
        with socket.create_connection(served["address"], timeout=10):
            pass
        status, _ = _request(served["address"], "GET", "/models")
        assert status == 200  # server is unbothered


class TestStatusLinesAndLogging:
    def test_dtype_pin_refusal_is_409_conflict(self, tmp_path, model_matrix):
        matrix, _ = model_matrix
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m32", isvd(matrix, 5, method="isvd4", target="b",
                                       dtype="float32"), 1, matrix=matrix)
        server = create_server(store, port=0, dtype="float64")
        address = server.start_background()
        body = json.dumps({"model": "m32", "k": 2,
                           "lower": matrix.lower[0].tolist(),
                           "upper": matrix.upper[0].tolist()}).encode()
        try:
            with socket.create_connection(address, timeout=10) as raw:
                raw.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                            b"Connection: close\r\n"
                            + f"Content-Length: {len(body)}\r\n\r\n".encode()
                            + body)
                with raw.makefile("rb") as replies:
                    reply = replies.readline()
        finally:
            server.stop()
        assert reply == b"HTTP/1.1 409 Conflict\r\n"

    def test_verbose_logs_method_path_and_status(self, served, caplog):
        server = create_server(served["store"], port=0, verbose=True)
        address = server.start_background()
        try:
            with caplog.at_level(logging.INFO,
                                 logger="repro.serve.async_http"):
                status, _ = _request(address, "GET", "/nowhere")
        finally:
            server.stop()
        assert status == 404
        messages = [record.getMessage() for record in caplog.records
                    if record.name == "repro.serve.async_http"]
        assert "GET /nowhere -> 404" in messages


class TestSlowClientsDoNotStarveHealthyOnes:
    N_SLOW = 8
    N_CLIENTS = 4
    REQUESTS_PER_CLIENT = 25
    CAP = 60.0  # seconds; generous, only a hang should ever reach it

    def _healthy_clients(self, address, payload):
        """Send a fixed number of healthy keep-alive requests from
        ``N_CLIENTS`` threads; returns every (status, body) and whether all
        clients finished within ``CAP``."""
        body = json.dumps(payload).encode()
        replies = []
        lock = threading.Lock()

        def client():
            connection = http.client.HTTPConnection(*address, timeout=30)
            try:
                for _ in range(self.REQUESTS_PER_CLIENT):
                    connection.request(
                        "POST", "/recommend", body=body,
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    reply = (response.status, response.read())
                    with lock:
                        replies.append(reply)
            finally:
                connection.close()

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(self.N_CLIENTS)]
        deadline = time.monotonic() + self.CAP
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))
        return replies, not any(thread.is_alive() for thread in threads)

    def test_healthy_throughput_survives_a_crowd_of_slow_clients(
            self, tmp_path, model_matrix):
        matrix, decomposition = model_matrix
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m1", decomposition, 1, matrix=matrix)
        # A small executor: if slow clients reached it, 8 of them would
        # hold all 4 threads and no healthy request could be answered.
        server = AsyncServingServer(
            ServingApp(store, max_batch=8, batch_delay=0.001),
            port=0, executor_threads=4)
        # Count what reaches the executor: one submission per request the
        # loop has fully parsed and dispatched.
        submitted = []
        submit = server._executor.submit

        def counting_submit(fn, *args, **kwargs):
            submitted.append(fn)
            return submit(fn, *args, **kwargs)

        server._executor.submit = counting_submit
        address = server.start_background()
        payload = {"model": "m1", "k": 3,
                   "lower": matrix.lower[:1].tolist(),
                   "upper": matrix.upper[:1].tolist()}
        reference_app = ServingApp(store)
        expected = _in_process(reference_app, "POST", "/recommend", payload)
        reference_app.close()
        slow_sockets = []
        try:
            # Slow clients: a valid request head opening, then… nothing.
            # Each holds a coroutine inside the head-read timeout.
            for _ in range(self.N_SLOW):
                slow = socket.create_connection(address, timeout=30)
                slow.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n")
                slow_sockets.append(slow)
            parked_by = time.monotonic() + self.CAP
            while (len(server._connections) < self.N_SLOW
                   and time.monotonic() < parked_by):
                time.sleep(0.01)
            parked = len(server._connections)
            submitted_while_parked = len(submitted)
            replies, finished = self._healthy_clients(address, payload)
            still_parked = len(server._connections)
        finally:
            for slow in slow_sockets:
                slow.close()
            server.stop()
        assert parked == self.N_SLOW
        # The parked connections never occupied an executor thread...
        assert submitted_while_parked == 0
        # ...so every healthy request was answered, exactly, within the cap,
        # while all of them stayed parked.
        assert finished, f"healthy clients still running after {self.CAP}s"
        n_healthy = self.N_CLIENTS * self.REQUESTS_PER_CLIENT
        assert len(replies) == n_healthy
        assert all(reply == expected for reply in replies)
        assert len(submitted) == n_healthy
        assert still_parked >= self.N_SLOW


class TestHitlessReshard:
    def test_zero_non_200_and_identical_bodies_across_republish(
            self, tmp_path, model_matrix):
        matrix, decomposition = model_matrix
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m1", decomposition, 2, matrix=matrix)
        server = create_server(store, port=0, max_batch=8,
                                     batch_delay=0.001, workers=True)
        address = server.start_background()
        payload = {"model": "m1", "k": 4,
                   "lower": matrix.lower.tolist(),
                   "upper": matrix.upper.tolist()}
        failures = []
        bodies = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, body = _request(address, "POST", "/recommend",
                                            payload)
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    failures.append(repr(error))
                    return
                if status != 200:
                    failures.append((status, body))
                    return
                bodies.append(body)

        try:
            # Pin down the pre-reshard answer first.
            status, reference = _request(address, "POST", "/recommend",
                                         payload)
            assert status == 200
            client = threading.Thread(target=hammer)
            client.start()
            try:
                # Republish the same factors mid-traffic: generation 1 -> 2.
                # The swap must be invisible except for generation metadata.
                store.save_sharded("m1", decomposition, 2, matrix=matrix)
                # Keep querying until the app has demonstrably swapped to
                # the new generation, then a little longer.
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    status, body = _request(address, "GET", "/healthz")
                    assert status == 200
                    serving = json.loads(body)["serving"]
                    if serving.get("m1", {}).get("generation") == 2:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("app never served generation 2")
            finally:
                stop.set()
                client.join(timeout=60)
            assert not failures, f"non-200 during reshard: {failures[:3]}"
            assert bodies, "the query loop never completed a request"
            assert all(body == reference for body in bodies), \
                "a response changed bytes across the reshard"
        finally:
            server.stop()
