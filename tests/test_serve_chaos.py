"""Chaos tier: live servers under injected faults, end to end.

Where :mod:`tests.test_serve_faults` proves each recovery mechanism in
isolation, this tier proves the *service-level* claims with concurrent
HTTP traffic against worker fleets armed with fault plans:

* **zero wrong bytes** — every 200 response from a crash-riddled fleet is
  byte-identical to the in-process reference server over the same store;
  faults may cost availability (503/504), never correctness;
* **degraded responses are flagged** — under ``--degraded partial`` every
  answer missing a shard carries ``"degraded": true`` and the exact
  missing-shard list, and item-space answers never degrade at all;
* **latency is bounded by the deadline** — p99 under chaos stays within
  the request timeout (plus client-side slack), because stalls surface as
  504s instead of open-ended hangs;
* **the breaker lifecycle is observable** — ``/healthz`` (and therefore
  ``repro models --url``) reports open breakers, restart counts and last
  failure reasons while the chaos is ongoing.

Marked ``chaos`` so CI can run it as its own job under a hard timeout.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import registry
from repro.interval.random import random_interval_matrix
from repro.serve.async_http import create_server
from repro.serve.resilience import RetryPolicy
from repro.serve.shard import ShardedModelStore, ShardedQueryEngine

pytestmark = pytest.mark.chaos

#: Worker tuning shared by the scenarios: fast retries, and a breaker
#: generous enough that transient-crash scenarios never trip it (the
#: breaker gets its own scenario with a tight threshold).
FAST_WORKERS = dict(retry=RetryPolicy(attempts=3, backoff=0.02,
                                      max_backoff=0.1, jitter=0.0),
                    monitor_interval=0.1)


def _request(address, method, path, payload=None, timeout=30):
    """One HTTP exchange; returns (status, body bytes, headers dict)."""
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


@pytest.fixture(scope="module")
def model():
    matrix = random_interval_matrix((24, 10), interval_intensity=0.5, rng=7)
    decomposition = registry.get("isvd4").fit(matrix, 4, target="b")
    return matrix, decomposition


@pytest.fixture(scope="module")
def store(tmp_path_factory, model):
    matrix, decomposition = model
    sharded = ShardedModelStore(tmp_path_factory.mktemp("chaos-models"))
    sharded.save_sharded("m", decomposition, 3, matrix=matrix)
    return sharded


@pytest.fixture(scope="module")
def payloads(model):
    matrix, _ = model
    rows = {"lower": matrix.lower.tolist(), "upper": matrix.upper.tolist()}
    return {"recommend": {"model": "m", "k": 4, **rows},
            "neighbors": {"model": "m", "k": 3, **rows}}


@pytest.fixture(scope="module")
def reference(store, payloads):
    """Ground-truth bodies from the in-process (fault-free) router."""
    server = create_server(store, port=0, max_batch=8, batch_delay=0.001)
    address = server.start_background()
    try:
        bodies = {}
        for name, payload in payloads.items():
            status, body, _ = _request(address, "POST", f"/{name}", payload)
            assert status == 200
            bodies[name] = body
        return bodies
    finally:
        server.stop()


def _chaos_server(store, faults, *, degraded="fail", request_timeout=5.0,
                  **worker_overrides):
    options = dict(FAST_WORKERS, faults=faults, **worker_overrides)
    server = create_server(store, port=0, max_batch=8,
                           batch_delay=0.001, workers=True,
                           request_timeout=request_timeout,
                           degraded=degraded, worker_options=options)
    return server, server.start_background()


class TestCrashChaosKeepsBytesExact:
    def test_concurrent_traffic_over_crashing_workers(self, store, payloads,
                                                      reference):
        # Every worker crashes on its third candidates request: with four
        # clients hammering /neighbors, workers die and respawn
        # continuously for the whole run.  Availability may dip (504 when a crash storm
        # outlasts the deadline) — bytes may not.
        server, address = _chaos_server(
            store, "before_reply=crash(op=candidates,after=2)",
            request_timeout=5.0, breaker_threshold=1000)
        try:
            outcomes = []  # (status, body, elapsed) triples, all threads
            errors = []
            # Traffic runs until enough successes, not for a fixed window:
            # every crash costs a worker respawn, whose duration depends on
            # the host, so a success count per window would be a timing
            # threshold.  The deadline only bounds a fleet that stopped
            # serving altogether.
            wanted = 10
            give_up_at = time.monotonic() + 120.0

            def successes_so_far():
                return sum(1 for status, _, _ in list(outcomes)
                           if status == 200)

            def hammer():
                while (successes_so_far() < wanted
                       and time.monotonic() < give_up_at):
                    started = time.monotonic()
                    try:
                        status, body, _ = _request(
                            address, "POST", "/neighbors",
                            payloads["neighbors"], timeout=30)
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))
                        return
                    outcomes.append(
                        (status, body, time.monotonic() - started))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors  # no dropped connections, ever
            statuses = [status for status, _, _ in outcomes]
            successes = [body for status, body, _ in outcomes
                         if status == 200]
            assert len(successes) >= wanted  # the fleet kept serving
            assert set(statuses) <= {200, 503, 504}  # crash never leaks a 500
            # The headline invariant: zero non-degraded wrong bytes.
            assert all(body == reference["neighbors"] for body in successes)
            # p99 latency is bounded by the request deadline (+ merge and
            # client slack) — a crash mid-request costs a retry, not a hang.
            latencies = sorted(elapsed for _, _, elapsed in outcomes)
            p99 = latencies[min(len(latencies) - 1,
                                int(0.99 * len(latencies)))]
            assert p99 < 5.0 + 2.0
            # The chaos was real: the fleet actually died and recovered.
            status, body, _ = _request(address, "GET", "/healthz")
            assert status == 200
            workers = json.loads(body)["serving"]["m"]["workers"]
            assert sum(worker["restarts"] for worker in workers) >= 3
        finally:
            server.stop()


class TestStallsBecomeDeadlines:
    def test_stalled_gather_returns_504_within_budget(self, store, model,
                                                      payloads, reference):
        # Every candidates request stalls for 3s against a 1s deadline:
        # /neighbors must come back as a prompt 504, while /recommend
        # (item space, unfaulted) stays exact throughout.
        server, address = _chaos_server(
            store, "before_reply=stall(seconds=3,op=candidates)",
            request_timeout=1.0)
        try:
            # Warm the fleet first, so the timer below measures the
            # deadline, not the lazy worker spawn: spawning the fleet takes
            # longer than the 1s deadline itself, so the engine is loaded
            # directly, then one unfaulted request must come back exact.
            supervisor = server.app.engine("m").supervisor
            status, body, _ = _request(address, "POST", "/recommend",
                                       payloads["recommend"])
            assert (status, body) == (200, reference["recommend"])
            restarts_before = sum(worker["restarts"]
                                  for worker in supervisor.liveness())
            started = time.monotonic()
            status, body, _ = _request(address, "POST", "/neighbors",
                                       payloads["neighbors"])
            elapsed = time.monotonic() - started
            assert status == 504
            assert "deadline" in json.loads(body)["error"]
            assert elapsed < 2.5  # deadline cut the 3s stall short
            # The timed-out exchanges left their workers dead.  Wait until
            # the supervisor's monitor has respawned them (a spawn lasts as
            # long as the worker's imports).
            give_up_at = time.monotonic() + 60.0
            respawned = False
            while not respawned and time.monotonic() < give_up_at:
                workers = supervisor.liveness()
                respawned = (all(worker["alive"] for worker in workers)
                             and sum(worker["restarts"] for worker in workers)
                             > restarts_before)
                if not respawned:
                    time.sleep(0.05)
            assert respawned, workers
            restarts_after = sum(worker["restarts"] for worker in workers)
            # The respawned fleet must answer exactly, on the first try: a
            # squared_distances op (which the candidates stall does not
            # match) reaches every worker and returns the in-process bytes.
            matrix, _ = model
            in_process = ShardedQueryEngine(store.load_shards("m")[0])
            try:
                expected = in_process.neighbor_squared_distances(matrix)
            finally:
                in_process.close()
            actual = server.app.engine("m").neighbor_squared_distances(matrix)
            assert actual.tobytes() == expected.tobytes()
            assert sum(worker["restarts"]
                       for worker in supervisor.liveness()) == restarts_after
            # The item-space query never depended on the workers.
            status, body, _ = _request(address, "POST", "/recommend",
                                       payloads["recommend"])
            assert (status, body) == (200, reference["recommend"])
        finally:
            server.stop()


class TestBreakerAndDegradedMode:
    FAULT = "before_reply=crash(op=candidates,shard=1)"
    BREAKER = dict(breaker_threshold=2, breaker_window=30.0,
                   breaker_cooldown=60.0)

    def test_fail_fast_url_surface_503_with_retry_after(self, store,
                                                        payloads, reference):
        server, address = _chaos_server(store, self.FAULT, degraded="fail",
                                        **self.BREAKER)
        try:
            status, body, headers = _request(address, "POST", "/neighbors",
                                             payloads["neighbors"])
            assert status == 503
            assert "shard 1" in json.loads(body)["error"]
            assert int(headers["Retry-After"]) >= 1
            # Item-space traffic never reaches a shard: the router's own
            # projector answers it.
            status, body, _ = _request(address, "POST", "/recommend",
                                       payloads["recommend"])
            assert (status, body) == (200, reference["recommend"])
        finally:
            server.stop()

    def test_partial_mode_flags_every_degraded_answer(self, store, payloads,
                                                      reference, capsys):
        server, address = _chaos_server(store, self.FAULT,
                                        degraded="partial", **self.BREAKER)
        try:
            answers = []
            for _ in range(6):
                status, body, _ = _request(address, "POST", "/neighbors",
                                           payloads["neighbors"])
                assert status == 200
                answers.append(json.loads(body))
            # Every answer missing shard 1 says so — loudly and exactly.
            for answer in answers:
                assert answer["degraded"] is True
                assert answer["missing_shards"] == [1]
            # Degradation is deterministic: the live-shard merge is exact,
            # so every degraded body is the same bytes as every other.
            assert len({json.dumps(a, sort_keys=True) for a in answers}) == 1
            # Item-space answers never degrade, even in partial mode.
            status, body, _ = _request(address, "POST", "/recommend",
                                       payloads["recommend"])
            assert (status, body) == (200, reference["recommend"])
            assert "degraded" not in json.loads(body)

            # The crash loop tripped shard 1's breaker, and the whole story
            # is visible from the health surface...
            status, body, _ = _request(address, "GET", "/healthz")
            health = json.loads(body)
            assert health["status"] == "degraded"
            workers = health["serving"]["m"]["workers"]
            broken = workers[1]
            assert broken["breaker"]["state"] == "open"
            assert broken["restarts"] >= 1
            assert broken["last_failure"]
            assert all(worker["breaker"]["state"] == "closed"
                       for worker in workers if worker["shard"] != 1)

            # ...including through the operator CLI pointed at the server.
            from repro.cli import main
            assert main(["models", "--url",
                         f"http://{address[0]}:{address[1]}"]) == 0
            out = capsys.readouterr().out
            assert "server status: degraded" in out
            assert "open" in out
        finally:
            server.stop()


class TestChaosLeavesNoResidue:
    def test_fleet_shutdown_reaps_every_worker(self, store, payloads):
        # A stalled worker must not survive server shutdown as an orphan —
        # the CI chaos job additionally greps the process table after the
        # whole tier to enforce this globally.
        server, address = _chaos_server(
            store, "before_reply=stall(seconds=2,op=candidates)",
            request_timeout=0.5)
        app = server.app
        engine = app.engine("m")
        status, _, _ = _request(address, "POST", "/neighbors",
                                payloads["neighbors"])
        assert status == 504
        pids = [worker["pid"] for worker in engine.liveness()]
        server.stop()
        deadline = time.monotonic() + 10.0
        import os
        remaining = set(pids)
        while remaining and time.monotonic() < deadline:
            for pid in list(remaining):
                try:
                    os.kill(pid, 0)
                except OSError:
                    remaining.discard(pid)
            time.sleep(0.05)
        assert not remaining, f"orphaned worker pids: {sorted(remaining)}"
