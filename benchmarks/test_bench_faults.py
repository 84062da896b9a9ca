"""Benchmark F-faults: the price of failure on the worker serving path.

The fault-tolerance layer turns three failure modes into bounded,
measurable costs, and this suite puts numbers on each one (the ``faults``
section of the perf snapshot):

* ``restart_recovery_ms`` — a SIGKILLed worker's shard answering again:
  detection + respawn + handshake + the retried request, end to end;
* ``stall_p99_ms`` — p99 request latency while a fault makes every
  worker's second request stall for 5s: the call timeout must convert
  those stalls into sub-second retries (gate: p99 far below the stall);
* ``breaker_open_fail_fast_ms`` — a request against an open circuit
  breaker: failing fast is the whole point, so it must cost about a
  millisecond, not a respawn attempt (gate: < 250ms even on noisy CI).

Every clocked query is a neighbour query, because only reference-space
work reaches a worker: item-space queries are answered by the router's
own fold-in projector and cannot see a worker fail.

The model is deliberately small — these clocks measure the resilience
machinery, not BLAS.
"""

import tempfile
import time

import numpy as np
import pytest

from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.serve.query import QueryEngine
from repro.serve.resilience import RetryPolicy
from repro.serve.shard import ShardedModelStore
from repro.serve.worker import ShardUnavailableError, WorkerShardedQueryEngine

N_USERS, N_ITEMS, RANK, N_SHARDS, TOP_K = 6000, 200, 8, 3, 5

#: Stall scenario: the injected stall vs the call timeout that defuses it.
STALL_SECONDS = 5.0
CALL_TIMEOUT = 0.3
N_STALL_QUERIES = 16

FAST_RETRY = RetryPolicy(attempts=3, backoff=0.02, max_backoff=0.1,
                         jitter=0.0)


def _decomposition() -> IntervalDecomposition:
    rng = np.random.default_rng(4242)
    u = rng.normal(size=(N_USERS, RANK))
    sigma_center = np.sort(rng.uniform(1.0, 10.0, size=RANK))[::-1]
    sigma_radius = rng.uniform(0.0, 0.2, size=RANK)
    sigma = IntervalMatrix(np.diag(sigma_center - sigma_radius),
                           np.diag(sigma_center + sigma_radius), check=False)
    v = rng.normal(size=(N_ITEMS, RANK))
    return IntervalDecomposition(u=u, sigma=sigma, v=v, target="b",
                                 method="synthetic-faults", rank=RANK)


@pytest.fixture(scope="module")
def model_store():
    decomposition = _decomposition()
    with tempfile.TemporaryDirectory() as directory:
        store = ShardedModelStore(directory)
        store.save_sharded("bench", decomposition, N_SHARDS)
        yield store, decomposition


@pytest.fixture(scope="module")
def query_rows():
    rng = np.random.default_rng(7)
    midpoints = rng.uniform(1.0, 5.0, size=(8, N_ITEMS))
    radius = rng.uniform(0.0, 0.3, size=midpoints.shape)
    return IntervalMatrix(midpoints - radius, midpoints + radius)


def test_bench_restart_recovery(benchmark, model_store, query_rows):
    """Kill a worker, then clock the next query: detection, respawn,
    handshake and the retried request — with byte parity at the end."""
    store, decomposition = model_store
    reference = QueryEngine(decomposition).nearest_neighbors(query_rows,
                                                            TOP_K)
    engine = WorkerShardedQueryEngine(store, "bench", retry=FAST_RETRY,
                                      breaker_threshold=1000,
                                      monitor_interval=60.0)
    try:
        import os
        import signal

        def kill_then_query():
            victim = engine.supervisor._handles[1]
            os.kill(victim.pid, signal.SIGKILL)
            while victim.process.poll() is None:
                time.sleep(0.002)
            begin = time.perf_counter()
            result = engine.nearest_neighbors(query_rows, TOP_K)
            elapsed = time.perf_counter() - begin
            return result, elapsed

        recoveries = []
        (result, elapsed) = benchmark.pedantic(kill_then_query,
                                               rounds=3, iterations=1)
        recoveries.append(elapsed)
        np.testing.assert_array_equal(result.indices, reference.indices)
        np.testing.assert_array_equal(result.scores, reference.scores)

        benchmark.extra_info["model_shape"] = f"{N_USERS}x{N_ITEMS}"
        benchmark.extra_info["shards"] = N_SHARDS
        benchmark.extra_info["restart_recovery_ms"] = round(
            min(recoveries) * 1000.0, 2)
    finally:
        engine.close()


def test_bench_stall_p99(benchmark, model_store, query_rows):
    """p99 latency while every worker's second request stalls 5s: the call
    timeout must keep the tail far below the stall it absorbs."""
    store, decomposition = model_store
    single = query_rows.row(0)
    reference = QueryEngine(decomposition).nearest_neighbors(single, TOP_K)
    engine = WorkerShardedQueryEngine(
        store, "bench", call_timeout=CALL_TIMEOUT, retry=FAST_RETRY,
        breaker_threshold=1000, monitor_interval=60.0,
        faults=(f"before_reply=stall(seconds={STALL_SECONDS},"
                "op=candidates,shard=0,after=1)"))
    try:
        def stall_pass():
            latencies = []
            for _ in range(N_STALL_QUERIES):
                begin = time.perf_counter()
                result = engine.nearest_neighbors(single, TOP_K)
                latencies.append(time.perf_counter() - begin)
                np.testing.assert_array_equal(result.indices,
                                              reference.indices)
            return latencies

        latencies = benchmark.pedantic(stall_pass, rounds=1, iterations=1)
        p50, p99 = np.percentile(latencies, [50, 99])
        benchmark.extra_info["stall_queries"] = N_STALL_QUERIES
        benchmark.extra_info["stall_seconds"] = STALL_SECONDS
        benchmark.extra_info["call_timeout_s"] = CALL_TIMEOUT
        benchmark.extra_info["stall_p50_ms"] = round(p50 * 1000.0, 2)
        benchmark.extra_info["stall_p99_ms"] = round(p99 * 1000.0, 2)
        # The gate: a 5s stall must never cost 5s — the timeout plus one
        # respawned retry bounds the tail.
        assert p99 < STALL_SECONDS, (
            f"stalled requests reached p99={p99 * 1000:.0f}ms; the "
            f"{CALL_TIMEOUT}s call timeout is not cutting the 5s stall")
    finally:
        engine.close()


def test_bench_breaker_fail_fast(benchmark, model_store, query_rows):
    """A request against an open breaker: no respawn, no socket, just a
    prompt ShardUnavailableError with a retry hint."""
    store, _ = model_store
    engine = WorkerShardedQueryEngine(
        store, "bench", retry=FAST_RETRY, degraded="fail",
        breaker_threshold=2, breaker_window=60.0, breaker_cooldown=600.0,
        monitor_interval=60.0,
        faults="before_reply=crash(op=candidates,shard=0)")
    try:
        # Trip shard 0's breaker with two genuinely failing gathers.
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                engine.nearest_neighbors(query_rows, 3)
        assert engine.supervisor.breaker_state(0) == "open"

        def fail_fast():
            begin = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as exc_info:
                engine.nearest_neighbors(query_rows, 3)
            elapsed = time.perf_counter() - begin
            assert exc_info.value.retry_after > 0.0
            return elapsed

        elapsed = benchmark.pedantic(fail_fast, rounds=5, iterations=1)
        fail_fast_ms = round(elapsed * 1000.0, 3)
        benchmark.extra_info["breaker_open_fail_fast_ms"] = fail_fast_ms
        assert fail_fast_ms < 250.0, (
            f"open-breaker requests take {fail_fast_ms}ms — failing fast "
            "is failing slowly")
    finally:
        engine.close()
