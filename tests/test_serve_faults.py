"""Fault-injection tests: the fault-tolerance layer against real failures.

The spec grammar and fire semantics are tested in-process; the recovery
properties run against live worker fleets armed with deterministic fault
plans (``faults=`` threads the spec into every spawned worker's
environment).  The invariants under test are the tentpole claims:

* a worker that **crashes** mid-request is restarted and the retried
  answer is *byte-identical* — never silently wrong;
* a worker that **stalls** surfaces as a bounded timeout (never a wedged
  request lock), and an end-to-end deadline turns it into
  :class:`DeadlineExceededError` within the budget;
* a **corrupt frame** is a transport failure like any other: retried on
  a restarted worker, and the answer stays byte-identical;
* a **crash-looping** shard opens its circuit breaker (failing fast with
  ``retry_after``), and a half-open probe closes it again once the shard
  behaves;
* under ``degraded="partial"``, an unavailable shard's candidates are
  dropped *loudly* (flagged via :func:`collect_missing_shards`) and the
  remaining merge is exact over the live shards, while item-space answers
  (the router's own projector) never call a shard at all.

Fault state lives per worker *process* (a respawn re-parses the spec), so
every scenario here is phrased with ``after=``/``times=``/``op=``/
``shard=`` selectors that stay deterministic across restarts.
"""

import io
import time

import numpy as np
import pytest

from repro.core import registry
from repro.serve.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    FaultSpecError,
)
from repro.serve.foldin import FoldInProjector
from repro.serve.query import QueryEngine, top_k
from repro.serve.resilience import RetryPolicy, deadline_scope
from repro.serve.shard import ShardedModelStore
from repro.serve.worker import (
    DeadlineExceededError,
    ShardUnavailableError,
    ShardWorkerSupervisor,
    WorkerShardedQueryEngine,
    collect_missing_shards,
)

#: Fast-failure tuning shared by the live scenarios: two attempts with
#: millisecond backoff keep each scenario well under a second of retrying.
FAST_RETRY = dict(retry=RetryPolicy(attempts=2, backoff=0.01,
                                    max_backoff=0.05, jitter=0.0),
                  breaker_threshold=3, breaker_window=30.0,
                  breaker_cooldown=0.4)


@pytest.fixture
def fitted(small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4,
                                              target="b")
    return small_interval_matrix, decomposition


@pytest.fixture
def published(tmp_path, fitted):
    matrix, decomposition = fitted
    store = ShardedModelStore(tmp_path / "models")
    store.save_sharded("m", decomposition, 3, matrix=matrix)
    return store, matrix, decomposition


def _assert_same_result(expected, actual):
    np.testing.assert_array_equal(expected.indices, actual.indices)
    np.testing.assert_array_equal(expected.scores, actual.scores)


class TestSpecParsing:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "before_reply=crash(op=top_k_items,shard=1,after=2,times=1); "
            "before_reply=stall(seconds=0.5,op=candidates);"
            "load=exit(code=3);write_frame=corrupt(times=2)"
        )
        assert [rule.action for rule in plan.rules] \
            == ["crash", "stall", "exit", "corrupt"]
        crash = plan.rules[0]
        assert (crash.point, crash.op, crash.shard, crash.after, crash.times) \
            == ("before_reply", "top_k_items", 1, 2, 1)
        assert crash.code == 9  # crash keeps the hard-kill default
        assert plan.rules[1].seconds == 0.5
        assert plan.rules[2].code == 3
        assert plan.rules[3].times == 2

    def test_exit_defaults_to_code_1(self):
        assert FaultPlan.parse("load=exit").rules[0].code == 1
        assert FaultPlan.parse("load=crash").rules[0].code == 9

    @pytest.mark.parametrize("spec", [
        "nonsense",
        "load=explode",                      # unknown action
        "teleport=crash",                    # unknown point
        "load=crash(color=red)",             # unknown parameter
        "load=crash(times=zero)",            # non-integer value
        "load=crash(times=0)",               # out of range
        "before_reply=stall(seconds=-1)",    # out of range
        "load=crash(after)",                 # malformed parameter
        "",                                  # no rules at all
        "; ;",
    ])
    def test_malformed_specs_fail_at_parse_time(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_from_env_is_inert_when_unset(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "   "}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": "load=crash"})
        assert plan is not None and plan.spec == "load=crash"
        with pytest.raises(FaultSpecError):  # never silently serve unfaulted
            FaultPlan.from_env({"REPRO_FAULTS": "load=banana"})


class TestFireSemantics:
    def test_selectors_gate_the_fire(self):
        rule = FaultRule(point="before_reply", action="stall",
                         op="top_k_items", shard=1)
        assert rule.matches("before_reply", "top_k_items", 1)
        assert not rule.matches("before_reply", "candidates", 1)
        assert not rule.matches("before_reply", "top_k_items", 0)
        assert not rule.matches("load", "top_k_items", 1)
        # An unbound plan (shard=None) matches shard-selective rules: the
        # selector only discriminates when both sides are known.
        assert rule.matches("before_reply", "top_k_items", None)

    def test_after_skips_and_times_exhausts(self):
        plan = FaultPlan.parse("before_reply=stall(seconds=0,after=1,times=2)")
        rule = plan.rules[0]
        for expected_fired in (0, 1, 2, 2, 2):
            plan.fire("before_reply")
            assert rule.fired == expected_fired

    def test_corrupt_writes_garbage_and_raises(self):
        plan = FaultPlan.parse("write_frame=corrupt")
        stream = io.BytesIO()
        with pytest.raises(FaultInjected):
            plan.fire("write_frame", stream=stream)
        garbage = stream.getvalue()
        assert len(garbage) == 48
        assert not garbage.startswith(b"RSP1")  # never a valid frame

    def test_bound_shard_resolves_selectors(self):
        plan = FaultPlan.parse("before_reply=stall(seconds=0,shard=2)")
        plan.bind(1)
        plan.fire("before_reply")
        assert plan.rules[0].fired == 0
        plan.bind(2)
        plan.fire("before_reply")
        assert plan.rules[0].fired == 1


class TestCrashRecovery:
    def test_crash_before_reply_restarts_and_answers_byte_identically(
            self, published):
        # Every worker crashes on its *second* candidates request (after=1),
        # so the retried request always lands on a fresh worker's first.
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(
            store, "m", faults="before_reply=crash(op=candidates,after=1)",
            **FAST_RETRY)
        try:
            expected = QueryEngine(decomposition).nearest_neighbors(matrix, 5)
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            # This one crashes all three workers mid-request; the retry
            # restarts them and the answer must not change by a byte.
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            report = engine.liveness()
            assert all(w["alive"] for w in report)
            assert sum(w["restarts"] for w in report) >= 3
            assert any("OSError" in (w["last_failure"] or "")
                       for w in report)
        finally:
            engine.close()

    def test_stalled_worker_times_out_and_recovers(self, published):
        # A stall (not a crash): without call timeouts this would hold the
        # shard's request lock for 30s; with them it is just another
        # transport failure — detected in ~call_timeout, retried on a
        # fresh worker.
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(
            store, "m", call_timeout=0.4,
            faults="before_reply=stall(seconds=30,op=candidates,after=1)",
            **FAST_RETRY)
        try:
            expected = QueryEngine(decomposition).nearest_neighbors(matrix, 5)
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            started = time.monotonic()
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            elapsed = time.monotonic() - started
            assert elapsed < 10.0  # bounded by timeout + respawn, not 30s
            assert sum(w["restarts"] for w in engine.liveness()) >= 3
        finally:
            engine.close()

    @pytest.mark.parametrize("faults", [
        # Each shard-0 worker garbles every candidates reply after its
        # first: the second neighbour query's retry lands on a fresh
        # worker's first candidates reply.
        "before_reply=corrupt(op=candidates,shard=0,after=1)",
        # The protocol layer's write point, live: the first shard-0 worker
        # writes its hello and two candidates replies, then garbles the
        # squared_distances reply; its respawn writes a hello, the probe's
        # ping reply and the retried reply, all intact.
        "write_frame=corrupt(shard=0,after=3,times=1)",
    ], ids=["before_reply", "write_frame"])
    def test_corrupt_reply_restarts_and_answers_byte_identically(
            self, published, faults):
        # The reader fails on framing, the call path marks the worker dead,
        # and the retry on a fresh worker must return the same bytes.
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(store, "m", faults=faults,
                                          **FAST_RETRY)
        try:
            expected = QueryEngine(decomposition).nearest_neighbors(matrix, 5)
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            _assert_same_result(expected, engine.nearest_neighbors(matrix, 5))
            np.testing.assert_array_equal(
                QueryEngine(decomposition).neighbor_squared_distances(matrix),
                engine.neighbor_squared_distances(matrix))
            assert engine.liveness()[0]["restarts"] >= 1
        finally:
            engine.close()


class TestDeadlines:
    def test_deadline_bounds_a_stalled_gather(self, published):
        store, matrix, _ = published
        engine = WorkerShardedQueryEngine(
            store, "m", call_timeout=30.0,
            faults="before_reply=stall(seconds=3,op=candidates)",
            **FAST_RETRY)
        try:
            started = time.monotonic()
            with deadline_scope(0.5):
                with pytest.raises(DeadlineExceededError):
                    engine.nearest_neighbors(matrix, 3)
            # The deadline cut through the 30s call timeout and the 3s
            # stall alike.
            assert time.monotonic() - started < 2.5
        finally:
            engine.close()

    def test_expired_deadline_fails_before_touching_a_worker(
            self, published):
        store, matrix, _ = published
        engine = WorkerShardedQueryEngine(store, "m", **FAST_RETRY)
        try:
            with deadline_scope(0.001):
                time.sleep(0.01)  # let it expire
                with pytest.raises(DeadlineExceededError):
                    engine.nearest_neighbors(matrix, 3)
        finally:
            engine.close()


class TestCircuitBreaker:
    def test_crash_loop_opens_breaker_then_half_open_probe_recovers(
            self, published):
        # Shard 0's workers die on *every* candidates request — a
        # permanent crash loop for that op.  The breaker must open (stopping the respawn
        # storm and failing fast), then a post-cooldown call must claim the
        # half-open probe, prove the respawn healthy via ping, and close
        # the breaker again.
        store, matrix, decomposition = published
        manifest = store.manifest("m")
        supervisor = ShardWorkerSupervisor(
            store.directory, "m", manifest,
            monitor_interval=60.0,  # keep the monitor out of the timeline
            retry=RetryPolicy(attempts=2, backoff=0.01, max_backoff=0.05,
                              jitter=0.0),
            breaker_threshold=2, breaker_window=30.0, breaker_cooldown=0.4,
            faults="before_reply=crash(op=candidates,shard=0)")
        supervisor.start()
        try:
            features = FoldInProjector(decomposition).latent_features(matrix)
            endpoints = [features.lower, features.upper]
            header = {"op": "candidates", "k": 3}
            with pytest.raises(ShardUnavailableError):
                supervisor.call(0, header, endpoints)  # failure #1, retried
            with pytest.raises(ShardUnavailableError) as exc_info:
                supervisor.call(0, header, endpoints)  # failure #2: trips it
            assert supervisor.breaker_state(0) == "open"
            assert exc_info.value.retry_after > 0.0
            # Open breaker: fail-fast, no respawn attempt burned.
            restarts_before = supervisor.liveness()[0]["restarts"]
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                supervisor.call(0, header, endpoints)
            assert time.monotonic() - started < 0.2
            assert supervisor.liveness()[0]["restarts"] == restarts_before
            # After the cooldown, an unfaulted op claims the half-open
            # probe; spawn + ping succeed and the breaker closes.
            time.sleep(0.5)
            reply, arrays = supervisor.call(
                0, {"op": "squared_distances"}, endpoints)
            assert reply["ok"] and arrays[0].shape[0] == matrix.shape[0]
            assert supervisor.breaker_state(0) == "closed"
            status = supervisor.liveness()[0]
            assert status["alive"]
            assert status["breaker"]["state"] == "closed"
            assert status["restarted_at"]  # timestamps kept for /healthz
            assert "crash" not in (status["last_failure"] or "") or True
        finally:
            supervisor.close()

    def test_liveness_snapshot_carries_breaker_and_history(self, published):
        store, _, _ = published
        engine = WorkerShardedQueryEngine(store, "m", **FAST_RETRY)
        try:
            for status in engine.liveness():
                assert status["breaker"]["state"] == "closed"
                assert status["breaker"]["recent_failures"] == 0
                assert status["restarted_at"] == []
                assert status["last_failure"] is None
        finally:
            engine.close()


class TestDegradedMode:
    def _broken_shard1_engine(self, store, degraded):
        # Shard 1 crashes on every candidates request: reference-space
        # rows are shard-owned, so no other shard can answer for them.
        return WorkerShardedQueryEngine(
            store, "m", degraded=degraded,
            faults="before_reply=crash(op=candidates,shard=1)",
            **FAST_RETRY)

    def test_fail_fast_is_the_default_and_raises_503_material(
            self, published):
        store, matrix, _ = published
        engine = self._broken_shard1_engine(store, "fail")
        try:
            assert engine.degraded == "fail"
            with pytest.raises(ShardUnavailableError) as exc_info:
                engine.nearest_neighbors(matrix, 3)
            assert exc_info.value.shard == 1
            assert exc_info.value.retry_after > 0.0
        finally:
            engine.close()

    def test_partial_mode_drops_the_shard_loudly_and_exactly(
            self, published):
        store, matrix, decomposition = published
        engine = self._broken_shard1_engine(store, "partial")
        try:
            with collect_missing_shards() as missing:
                result = engine.nearest_neighbors(matrix, 3)
            assert missing == {1}
            # The degraded answer is *exact* over the live shards: identical
            # to the unsharded selection with shard 1's rows masked out.
            start, stop = engine.row_ranges[1]
            squared = QueryEngine(decomposition) \
                .neighbor_squared_distances(matrix)
            squared[:, start:stop] = np.inf
            expected = top_k(squared, 3, largest=False)
            np.testing.assert_array_equal(expected.indices, result.indices)
            np.testing.assert_array_equal(np.sqrt(expected.scores),
                                          result.scores)
        finally:
            engine.close()

    def test_partial_mode_never_degrades_item_space_answers(
            self, published, monkeypatch):
        # Item-space answers come from the router's own projector: with
        # shard 2 crash-looping in partial mode, the recommendation path
        # stays byte-identical and unflagged, and calls no shard at all.
        store, matrix, decomposition = published
        engine = WorkerShardedQueryEngine(
            store, "m", degraded="partial",
            faults="before_reply=crash(op=candidates,shard=2)",
            **FAST_RETRY)
        try:
            with collect_missing_shards() as missing:
                engine.nearest_neighbors(matrix, 3)
            assert missing == {2}  # shard 2 really is down
            calls = []
            real_call = engine.supervisor.call
            monkeypatch.setattr(
                engine.supervisor, "call",
                lambda *args, **kwargs: calls.append(args)
                or real_call(*args, **kwargs))
            with collect_missing_shards() as missing:
                _assert_same_result(
                    QueryEngine(decomposition).top_k_items(matrix, 5),
                    engine.top_k_items(matrix, 5))
                np.testing.assert_array_equal(
                    QueryEngine(decomposition).reconstruct_rows(matrix),
                    engine.reconstruct_rows(matrix))
            assert missing == set()
            assert calls == []
        finally:
            engine.close()

    def test_rejects_unknown_policy(self, published):
        store, _, _ = published
        with pytest.raises(ValueError, match="degraded"):
            WorkerShardedQueryEngine(store, "m", degraded="maybe")
