"""Tests of the multi-process shard workers: parity, restarts, no orphans.

The headline property mirrors the in-process sharding suite: the
:class:`~repro.serve.worker.WorkerShardedQueryEngine` returns **byte
identical** answers to the single :class:`~repro.serve.query.QueryEngine`
and to the in-process :class:`~repro.serve.shard.ShardedQueryEngine`, for
every query type — the process boundary and the npy wire never change a
bit.  On top of that: workers restart after being killed, generation
pinning fails loudly when a reshard races a spawn, and shutdown leaves no
worker process behind.
"""

import os
import signal
import time

import numpy as np
import pytest

from fresh_interpreter import run

from repro.core import registry
from repro.interval.array import IntervalMatrix
from repro.interval.sparse import SparseIntervalMatrix
from repro.serve.query import QueryEngine
from repro.serve.shard import ShardedModelStore, ShardedQueryEngine, ShardPlanner
from repro.serve.worker import (
    MANIFEST_ENV,
    TOKEN_ENV,
    ShardWorkerSupervisor,
    WorkerError,
    WorkerShardedQueryEngine,
)


@pytest.fixture
def fitted(small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4, target="b")
    return small_interval_matrix, decomposition


@pytest.fixture
def published(tmp_path, fitted):
    matrix, decomposition = fitted
    store = ShardedModelStore(tmp_path / "models")
    store.save_sharded("m", decomposition, 3, matrix=matrix)
    return store, matrix, decomposition


@pytest.fixture
def worker_engine(published):
    store, _, _ = published
    engine = WorkerShardedQueryEngine(store, "m")
    yield engine
    engine.close()


def _assert_same_result(expected, actual):
    np.testing.assert_array_equal(expected.indices, actual.indices)
    np.testing.assert_array_equal(expected.scores, actual.scores)


def _pids(engine):
    return [worker["pid"] for worker in engine.liveness()]


def _assert_all_dead(pids):
    deadline = time.monotonic() + 10.0
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker processes survived shutdown: {remaining}"


class TestParity:
    def test_every_query_type_is_byte_identical(self, published, worker_engine):
        _, matrix, decomposition = published
        single = QueryEngine(decomposition)
        threaded = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        try:
            for reference in (single, threaded):
                _assert_same_result(reference.top_k_items(matrix, 5),
                                    worker_engine.top_k_items(matrix, 5))
                _assert_same_result(reference.nearest_neighbors(matrix, 4),
                                    worker_engine.nearest_neighbors(matrix, 4))
                np.testing.assert_array_equal(
                    reference.reconstruct_rows(matrix),
                    worker_engine.reconstruct_rows(matrix))
                np.testing.assert_array_equal(
                    reference.neighbor_squared_distances(matrix),
                    worker_engine.neighbor_squared_distances(matrix))
                np.testing.assert_array_equal(
                    reference.neighbor_distances(matrix),
                    worker_engine.neighbor_distances(matrix))
                np.testing.assert_array_equal(
                    reference.scores_for_users(),
                    worker_engine.scores_for_users())
                indices = [0, 11, 7, 7, -1, 5]
                np.testing.assert_array_equal(
                    reference.scores_for_users(indices),
                    worker_engine.scores_for_users(indices))
                _assert_same_result(reference.top_k_for_users(indices, 3),
                                    worker_engine.top_k_for_users(indices, 3))
        finally:
            threaded.close()

    def test_single_row_and_batched_queries_agree(self, published, worker_engine):
        _, matrix, _ = published
        batched = worker_engine.top_k_items(matrix, 4)
        for i in range(matrix.shape[0]):
            row = matrix.row(i)
            one = worker_engine.top_k_items(
                IntervalMatrix(row.lower.reshape(1, -1),
                               row.upper.reshape(1, -1), check=False), 4)
            np.testing.assert_array_equal(batched.indices[i], one.indices[0])
            np.testing.assert_array_equal(batched.scores[i], one.scores[0])

    def test_sparse_rows_answer_through_the_shared_projector(
            self, published, worker_engine):
        _, matrix, decomposition = published
        dense_rows = matrix.midpoint()[:4].copy()
        dense_rows[:, ::3] = 0.0  # unrated items leave the pattern
        sparse = SparseIntervalMatrix.from_dense(
            IntervalMatrix.from_scalar(dense_rows))
        single = QueryEngine(decomposition)
        _assert_same_result(single.top_k_items(sparse, 5),
                            worker_engine.top_k_items(sparse, 5))
        np.testing.assert_array_equal(single.reconstruct_rows(sparse),
                                      worker_engine.reconstruct_rows(sparse))
        _assert_same_result(single.nearest_neighbors(sparse, 3),
                            worker_engine.nearest_neighbors(sparse, 3))

    def test_candidates_merge_contract(self, published, worker_engine):
        _, matrix, decomposition = published
        threaded = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        try:
            _assert_same_result(
                threaded.nearest_neighbor_candidates(matrix, 4),
                worker_engine.nearest_neighbor_candidates(matrix, 4))
        finally:
            threaded.close()

    def test_engine_metadata_matches(self, published, worker_engine):
        _, _, decomposition = published
        assert worker_engine.n_shards == 3
        assert worker_engine.n_users == int(decomposition.shape[0])
        assert worker_engine.n_items == int(decomposition.shape[1])
        assert worker_engine.generation == 1


class TestSupervision:
    def test_liveness_reports_every_worker(self, worker_engine):
        report = worker_engine.liveness()
        assert [w["shard"] for w in report] == [0, 1, 2]
        assert all(w["alive"] for w in report)
        assert all(isinstance(w["pid"], int) for w in report)
        assert all(w["restarts"] == 0 for w in report)

    def test_killed_worker_restarts_and_answers(self, published, worker_engine):
        _, matrix, decomposition = published
        expected = QueryEngine(decomposition).nearest_neighbors(matrix, 5)
        victim = _pids(worker_engine)[1]
        os.kill(victim, signal.SIGKILL)
        # The next shard-backed query restarts the worker transparently
        # (call-path restart) and still answers byte-identically.
        _assert_same_result(expected,
                            worker_engine.nearest_neighbors(matrix, 5))
        report = worker_engine.liveness()
        assert all(w["alive"] for w in report)
        assert report[1]["restarts"] >= 1
        assert report[1]["pid"] != victim

    def test_monitor_respawns_crashed_worker_without_traffic(
            self, published):
        store, _, _ = published
        engine = WorkerShardedQueryEngine(store, "m", monitor_interval=0.05)
        try:
            victim = _pids(engine)[2]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                report = engine.liveness()
                if report[2]["alive"] and report[2]["pid"] != victim:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("monitor did not respawn the killed worker")
        finally:
            engine.close()

    def test_concurrent_restart_race_spawns_exactly_one_worker(
            self, published):
        # Two callers and the background monitor all notice the same corpse
        # at once; the per-shard restart lock must collapse the race to
        # exactly one spawn per death — a double spawn would leak a worker
        # process outside the supervisor's bookkeeping.
        import threading

        store, _, _ = published
        engine = WorkerShardedQueryEngine(store, "m", monitor_interval=0.05,
                                          breaker_threshold=100)
        supervisor = engine.supervisor
        spawned = []
        real_spawn = supervisor._spawn

        def counting_spawn(shard):
            handle = real_spawn(shard)
            spawned.append(handle.pid)
            return handle

        supervisor._spawn = counting_spawn
        try:
            for round_index in range(6):
                victim = supervisor._handles[1]
                os.kill(victim.pid, signal.SIGKILL)
                # Wait for the kernel to finish the kill, so no caller can
                # race a still-live victim into a clean (spawn-free) reply.
                deadline = time.monotonic() + 5.0
                while victim.process.poll() is None \
                        and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert victim.process.poll() is not None

                barrier = threading.Barrier(2)
                errors = []

                def racer():
                    barrier.wait()
                    try:
                        reply, _ = supervisor.call(1, {"op": "ping"})
                        assert reply["ok"]
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

                threads = [threading.Thread(target=racer) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []
                # Let the monitor take a few extra looks at the new worker:
                # it must adopt, not re-spawn.
                time.sleep(0.15)
                assert len(spawned) == round_index + 1, \
                    f"round {round_index}: spawns {spawned}"
            assert supervisor.liveness()[1]["restarts"] == 6
        finally:
            engine.close()
        _assert_all_dead(spawned)

    def test_close_leaves_no_orphan_processes(self, published):
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(store, "m")
        pids = _pids(engine)
        assert len(pids) == 3
        engine.nearest_neighbors(matrix, 3)  # exercise before shutdown
        engine.close()
        _assert_all_dead(pids)
        # Closed engines fail loudly on shard-backed queries instead of
        # hanging; item-space queries never needed a worker.
        with pytest.raises(WorkerError):
            engine.nearest_neighbors(matrix, 3)
        _assert_same_result(QueryEngine(decomposition).top_k_items(matrix, 3),
                            engine.top_k_items(matrix, 3))
        engine.close()  # idempotent

    def test_supervisor_closed_socket_reaps_worker(self, published):
        # End-of-stream is the worker's shutdown signal: no shutdown frame
        # needed, so even an abruptly-dying supervisor leaves no orphans.
        store, _, _ = published
        manifest = store.manifest("m")
        supervisor = ShardWorkerSupervisor(store.directory, "m", manifest)
        supervisor.start()
        pids = [w["pid"] for w in supervisor.liveness()]
        for handle in supervisor._handles:
            # A dying process closes every descriptor: both the socket and
            # the buffered stream wrapping it (which holds its own ref).
            handle.stream.close()
            handle.connection.close()
        _assert_all_dead(pids)
        supervisor.close()


class TestGenerationPinning:
    def test_stale_generation_spawn_fails_loudly(self, published, fitted):
        store, _, decomposition = published
        stale_manifest = store.manifest("m")
        store.save_sharded("m", decomposition, 3)  # bump to generation 2
        supervisor = ShardWorkerSupervisor(store.directory, "m",
                                           stale_manifest)
        try:
            with pytest.raises(WorkerError, match="stale manifest generation"):
                supervisor.start()
        finally:
            supervisor.close()

    def test_worker_without_manifest_exits_2_in_one_line(
            self, published, monkeypatch):
        # The shipped manifest is the worker's only pin: a worker started
        # without one refuses to guess a generation from the sidecar.
        store, _, _ = published
        monkeypatch.setenv(TOKEN_ENV, "token")
        monkeypatch.delenv(MANIFEST_ENV, raising=False)
        completed = run("-m", "repro.serve.worker",
                        "--store", str(store.directory), "--model", "m",
                        "--shard", "0", "--connect-port", "9")
        assert completed.returncode == 2
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1, completed.stderr
        assert "no pinned manifest" in lines[0]

    def test_engine_pinned_generation_survives_one_reshard(
            self, published, fitted):
        # The generation an engine spawned against stays on disk through
        # the *next* publish (kept-previous-generation GC), so in-flight
        # engines keep restarting workers and answering.
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(store, "m")
        try:
            expected = QueryEngine(decomposition).nearest_neighbors(matrix, 5)
            store.save_sharded("m", decomposition, 2)  # generation 2
            os.kill(_pids(engine)[0], signal.SIGKILL)
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            assert engine.generation == 1
        finally:
            engine.close()


class TestServingAppWorkers:
    def test_app_serves_worker_backend_with_byte_parity(
            self, published):
        from repro.serve.http import ServingApp

        store, matrix, decomposition = published
        app = ServingApp(store, workers=True)
        try:
            engine = app.engine("m")
            assert isinstance(engine, WorkerShardedQueryEngine)
            payload = {"model": "m", "k": 3,
                       "lower": matrix.lower.tolist(),
                       "upper": matrix.upper.tolist()}
            reference = ServingApp(store)  # in-process backend
            try:
                assert app.recommend(dict(payload)) \
                    == reference.recommend(dict(payload))
                assert app.neighbors(dict(payload)) \
                    == reference.neighbors(dict(payload))
            finally:
                reference.close()
            health = app.healthz()
            assert health["status"] == "ok"
            serving = health["serving"]["m"]
            assert serving["backend"] == "workers"
            assert serving["generation"] == 1
            assert [w["alive"] for w in serving["workers"]] == [True] * 3
        finally:
            app.close()

    def test_one_and_four_shards_serve_the_same_bytes_on_both_backends(
            self, tmp_path, fitted):
        import json

        from repro.serve.http import ServingApp

        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        for name, n_shards in (("one", 1), ("four", 4)):
            store.save_sharded(name, decomposition, n_shards, matrix=matrix)
            merged, _ = store.load_merged(name)
            for factor in ("u", "sigma", "v"):
                for endpoint in ("lower", "upper"):
                    want = getattr(getattr(decomposition, factor), endpoint,
                                   getattr(decomposition, factor))
                    got = getattr(getattr(merged, factor), endpoint,
                                  getattr(merged, factor))
                    assert (got.dtype, got.tobytes()) \
                        == (want.dtype, want.tobytes())
        bodies = set()
        for workers, backend in ((False, "sharded-threads"), (True, "workers")):
            app = ServingApp(store, workers=workers)
            try:
                for name, n_shards in (("one", 1), ("four", 4)):
                    for rows in ({"lower": matrix.lower.tolist(),
                                  "upper": matrix.upper.tolist()},
                                 {"row": matrix.midpoint()[0].tolist()}):
                        payload = dict(rows, model=name, k=3)
                        replies = [app.recommend(dict(payload)),
                                   app.neighbors(dict(payload))]
                        for reply in replies:
                            assert reply.pop("model") == name
                        bodies.add((json.dumps(rows), json.dumps(replies)))
                    entry = app.healthz()["serving"][name]
                    assert (entry["backend"], entry["shards"],
                            entry["generation"]) == (backend, n_shards, 1)
            finally:
                app.close()
        assert len(bodies) == 2  # one body per query, whatever the layout

    def test_app_close_reaps_workers_and_republish_tracks_generation(
            self, published):
        from repro.serve.http import ServingApp

        store, matrix, decomposition = published
        app = ServingApp(store, workers=True)
        engine = app.engine("m")
        pids = _pids(engine)
        # A reshard bumps the generation; the app swaps engines (new
        # worker fleet) on the next request.
        store.save_sharded("m", decomposition, 2, matrix=matrix)
        fresh = app.engine("m")
        assert fresh is not engine
        assert fresh.generation == 2 and fresh.n_shards == 2
        _assert_all_dead(pids)  # the displaced fleet was reaped
        health = app.healthz()
        assert health["serving"]["m"]["generation"] == 2
        fresh_pids = _pids(fresh)  # liveness resets once the app closes
        app.close()
        _assert_all_dead(fresh_pids)
