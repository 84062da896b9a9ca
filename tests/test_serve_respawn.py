"""Worker restarts: one in-flight respawn per shard, bounded by deadlines.

A respawn lasts as long as the worker's imports.  A request whose deadline
is shorter must get its :class:`DeadlineExceededError` without waiting for
the spawn, the respawn it joined must still complete for the requests
after it, every caller that finds the same worker dead must share one
respawn, a respawn held up on one shard must not hold up another shard's,
and neither closing the fleet mid-respawn nor a failed fleet start may
orphan a worker.
"""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import registry
from repro.serve.query import QueryEngine
from repro.serve.resilience import Deadline
from repro.serve.shard import ShardedModelStore
from repro.serve.worker import (
    DeadlineExceededError,
    WorkerError,
    WorkerShardedQueryEngine,
)


@pytest.fixture
def published(tmp_path, small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4,
                                              target="b")
    store = ShardedModelStore(tmp_path / "models")
    store.save_sharded("m", decomposition, 2, matrix=small_interval_matrix)
    return store, small_interval_matrix, decomposition


def _kill(handle):
    handle.process.kill()
    handle.process.wait()


def _worker_pids(directory):
    """Pids of live processes whose command line names ``directory``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_text().split()[2]
        except OSError:
            continue
        if str(directory).encode() in cmdline and state != "Z":
            pids.append(int(entry))
    return pids


def test_expired_restart_returns_before_the_respawn_it_joined(published):
    store, matrix, decomposition = published
    engine = WorkerShardedQueryEngine(store, "m")
    supervisor = engine.supervisor
    try:
        failed = supervisor._handles[0]
        _kill(failed)
        with pytest.raises(DeadlineExceededError):
            supervisor._restart(0, failed, deadline=Deadline.after(0.01))
        # The caller did not wait for the spawn: the dead handle is still
        # the shard's worker when its 504 material is raised.
        assert supervisor._handles[0] is failed
        # The next caller adopts that respawn instead of starting another.
        replacement = supervisor._restart(0, failed)
        assert replacement is not failed and replacement.alive()
        assert supervisor.liveness()[0]["restarts"] == 1
        expected = QueryEngine(decomposition).nearest_neighbors(matrix, 3)
        answer = engine.nearest_neighbors(matrix, 3)
        np.testing.assert_array_equal(answer.indices, expected.indices)
        np.testing.assert_array_equal(answer.scores, expected.scores)
    finally:
        engine.close()


@pytest.mark.parametrize("held_at", ["_accept", "_probe"])
def test_a_held_respawn_does_not_hold_up_another_shard(published, held_at):
    """Shard 0's respawn is held before its hello (``_accept``, inside
    ``_spawn``) or after it (``_probe``); shard 1's respawn completes."""
    store, _, _ = published
    engine = WorkerShardedQueryEngine(store, "m")
    supervisor = engine.supervisor
    gate = threading.Event()
    original = getattr(supervisor, held_at)

    def held(first, *args):
        if getattr(first, "shard", first) == 0:  # a handle or a shard index
            assert gate.wait(timeout=60.0)
        return original(first, *args)

    setattr(supervisor, held_at, held)
    try:
        failed0, failed1 = supervisor._handles
        _kill(failed0)
        _kill(failed1)
        # Concurrent requests that all find shard 0 dead share its respawn.
        for _ in range(3):
            with pytest.raises(DeadlineExceededError):
                supervisor._restart(0, failed0,
                                    deadline=Deadline.after(0.01))
        replacement1 = supervisor._restart(1, failed1,
                                           deadline=Deadline.after(30.0))
        assert replacement1.alive()
        assert supervisor._handles[0] is failed0  # still held
        gate.set()
        replacement0 = supervisor._restart(0, failed0)
        assert replacement0.alive()
        assert [worker["restarts"] for worker in supervisor.liveness()] \
            == [1, 1]
    finally:
        gate.set()
        engine.close()


def test_restart_after_close_is_a_worker_error(published):
    store, _, _ = published
    engine = WorkerShardedQueryEngine(store, "m")
    supervisor = engine.supervisor
    failed = supervisor._handles[0]
    engine.close()
    with pytest.raises(WorkerError, match="closed"):
        supervisor._restart(0, failed, deadline=Deadline.after(1.0))


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_close_during_a_respawn_leaves_no_worker(published):
    store, _, _ = published
    engine = WorkerShardedQueryEngine(store, "m")
    supervisor = engine.supervisor
    failed = supervisor._handles[0]
    _kill(failed)
    with pytest.raises(DeadlineExceededError):
        supervisor._restart(0, failed, deadline=Deadline.after(0.01))
    engine.close()  # the respawn is still in flight
    assert _worker_pids(store.directory) == []


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_a_failed_fleet_start_leaves_no_worker(tmp_path, small_interval_matrix):
    """One shard's archive is gone under the pinned manifest: its worker
    exits, the fleet start fails naming that shard, and the workers that
    did start are reaped."""
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4,
                                              target="b")
    store = ShardedModelStore(tmp_path / "models")
    record = store.save_sharded("m", decomposition, 3,
                                matrix=small_interval_matrix)
    store._shard_path("m", 2, record.generation).unlink()
    with pytest.raises(WorkerError, match="shard 2 of 'm'"):
        WorkerShardedQueryEngine(store, "m")
    assert _worker_pids(store.directory) == []
