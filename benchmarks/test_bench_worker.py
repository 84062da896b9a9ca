"""Benchmark E-worker: multi-process shard workers vs in-process threads.

Serves the same webscale-preset-shaped model as ``test_bench_shard.py``
(100k users x 2k items, rank 16, 4 row-range shards), but through the
:class:`~repro.serve.worker.WorkerShardedQueryEngine` — one worker
*process* per shard, npy frames over localhost sockets — and compares it
against the in-process thread-scatter :class:`ShardedQueryEngine`:

* **byte parity, always** — every benchmarked query's worker answers are
  asserted byte-identical to the unsharded :class:`QueryEngine`; the
  process boundary and the wire are execution details, never semantics;
* **throughput gate, on real multicore only** — worker-process batched
  nearest-neighbour search must beat the thread scatter by >= 1.5x *when
  at least 4 usable cores exist*.  Threads time-slice one GIL for
  everything outside BLAS; processes do not.  On a 1-core container the
  processes time-slice too and pay the wire on top, so the gate arms only
  when the parallelism it measures is physically available (both figures
  are always recorded).

Both tests time neighbour queries because those are what still cross
processes: item-space queries (top-k items) are answered by the router's
own fold-in projector on either backend, so timing them would compare one
code path with itself.  Per-request latency percentiles (p50/p95/p99) of
the worker path are recorded for the serving snapshot.
"""

import tempfile
import time

import numpy as np
import pytest

from repro.core.result import IntervalDecomposition
from repro.datasets.ratings import SPARSE_SCALE_PRESETS
from repro.interval.array import IntervalMatrix
from repro.serve.query import QueryEngine
from repro.serve.shard import (
    ShardedModelStore,
    ShardedQueryEngine,
    ShardPlanner,
    usable_cpu_count,
)
from repro.serve.worker import WorkerShardedQueryEngine

PRESET = SPARSE_SCALE_PRESETS["webscale"]
N_USERS, N_ITEMS = PRESET.n_users, PRESET.n_items
RANK, TOP_K, N_SHARDS = 16, 10, 4
N_QUERIES = 256
#: Row-at-a-time requests in the latency-percentile pass (each pays a full
#: fold-in + socket round-trips, so a smaller count keeps the pass honest
#: without dominating the suite).
N_LATENCY_QUERIES = 128

#: Gate: worker processes over thread scatter, armed on >= 4 usable cores.
MIN_WORKER_SPEEDUP = 1.5
GATE_CORES = 4


def _webscale_decomposition() -> IntervalDecomposition:
    """Same synthetic target-b geometry as ``test_bench_shard.py``."""
    rng = np.random.default_rng(20240)
    u = rng.normal(size=(N_USERS, RANK))
    sigma_center = np.sort(rng.uniform(1.0, 10.0, size=RANK))[::-1]
    sigma_radius = rng.uniform(0.0, 0.2, size=RANK)
    sigma = IntervalMatrix(np.diag(sigma_center - sigma_radius),
                           np.diag(sigma_center + sigma_radius), check=False)
    v = rng.normal(size=(N_ITEMS, RANK))
    return IntervalDecomposition(u=u, sigma=sigma, v=v, target="b",
                                 method="synthetic-webscale", rank=RANK)


@pytest.fixture(scope="module")
def engines():
    decomposition = _webscale_decomposition()
    unsharded = QueryEngine(decomposition)
    threaded = ShardedQueryEngine(ShardPlanner(N_SHARDS).split(decomposition))
    with tempfile.TemporaryDirectory() as directory:
        store = ShardedModelStore(directory)
        store.save_sharded("bench", decomposition, N_SHARDS)
        workers = WorkerShardedQueryEngine(store, "bench")
        try:
            yield unsharded, threaded, workers
        finally:
            workers.close()
            threaded.close()


@pytest.fixture(scope="module")
def query_rows():
    rng = np.random.default_rng(99)
    midpoints = rng.uniform(1.0, 5.0, size=(N_QUERIES, N_ITEMS))
    radius = rng.uniform(0.0, 0.5, size=midpoints.shape)
    return IntervalMatrix(midpoints - radius, midpoints + radius)


def _best_of(fn, rounds=3):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, value
    return best, result


def test_bench_worker_batched_topk(benchmark, engines, query_rows):
    """Worker-process batched top-k neighbours vs the in-process thread
    scatter; byte parity asserted on every benchmarked query."""
    unsharded, threaded, workers = engines

    worker_result = benchmark.pedantic(
        lambda: workers.nearest_neighbors(query_rows, TOP_K), rounds=3,
        iterations=1)
    worker_seconds = benchmark.stats.stats.min

    threads_seconds, threads_result = _best_of(
        lambda: threaded.nearest_neighbors(query_rows, TOP_K))
    reference = unsharded.nearest_neighbors(query_rows, TOP_K)

    # Parity first: whatever the clocks say, the answers must be the
    # unsharded engine's answers, bit for bit, from both backends.
    np.testing.assert_array_equal(worker_result.indices, reference.indices)
    np.testing.assert_array_equal(worker_result.scores, reference.scores)
    np.testing.assert_array_equal(threads_result.indices, reference.indices)
    np.testing.assert_array_equal(threads_result.scores, reference.scores)

    cores = usable_cpu_count()
    gate_active = cores >= GATE_CORES
    benchmark.extra_info["shards"] = N_SHARDS
    benchmark.extra_info["model_shape"] = f"{N_USERS}x{N_ITEMS}"
    benchmark.extra_info["queries"] = N_QUERIES
    benchmark.extra_info["usable_cores"] = cores
    benchmark.extra_info["gate_active"] = gate_active
    benchmark.extra_info["worker_batched_qps"] = round(
        N_QUERIES / worker_seconds, 1)
    benchmark.extra_info["threads_batched_qps"] = round(
        N_QUERIES / threads_seconds, 1)
    benchmark.extra_info["worker_over_threads"] = round(
        threads_seconds / worker_seconds, 2)

    if gate_active:
        assert worker_seconds * MIN_WORKER_SPEEDUP <= threads_seconds, (
            f"worker-process neighbour top-k is only "
            f"{threads_seconds / worker_seconds:.2f}x the thread scatter "
            f"on {cores} cores (gate: {MIN_WORKER_SPEEDUP}x)"
        )


def test_bench_worker_request_latency(benchmark, engines, query_rows):
    """Per-request latency percentiles of the worker path (row-at-a-time,
    each request a fold-in plus socket round-trips); parity per row."""
    unsharded, _, workers = engines
    single_rows = [query_rows.row(i) for i in range(N_LATENCY_QUERIES)]
    reference = unsharded.nearest_neighbors(
        IntervalMatrix(query_rows.lower[:N_LATENCY_QUERIES],
                       query_rows.upper[:N_LATENCY_QUERIES], check=False),
        TOP_K)

    def row_pass():
        results, latencies = [], []
        for row in single_rows:
            begin = time.perf_counter()
            results.append(workers.nearest_neighbors(row, TOP_K))
            latencies.append(time.perf_counter() - begin)
        return results, latencies

    results, latencies = benchmark.pedantic(row_pass, rounds=2, iterations=1)
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result.indices[0], reference.indices[i])
        np.testing.assert_array_equal(result.scores[0], reference.scores[i])

    p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
    benchmark.extra_info["latency_queries"] = N_LATENCY_QUERIES
    benchmark.extra_info["latency_p50_ms"] = round(p50 * 1000.0, 3)
    benchmark.extra_info["latency_p95_ms"] = round(p95 * 1000.0, 3)
    benchmark.extra_info["latency_p99_ms"] = round(p99 * 1000.0, 3)
    benchmark.extra_info["worker_row_qps"] = round(
        N_LATENCY_QUERIES / sum(latencies), 1)
