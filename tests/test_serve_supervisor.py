"""Model-based test of :class:`ShardWorkerSupervisor`'s restart logic.

The supervisor's ``_spawn`` is replaced by a factory of fake handles whose
"processes" live until they are killed or their socket closes (a real
worker exits on end-of-stream), and every shard's circuit breaker runs on
a fake clock.  Random sequences of kills, restarts (with and without a
deadline, from the current or a replaced handle, with the spawn failing or
not), clock steps and ``close`` calls then run against a reference model:
a shadow breaker driven with the calls the supervisor must make.  No
process or socket is created.
"""

import time
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve.resilience import (
    BREAKER_HALF_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ShardUnavailableError,
    WorkerError,
)
from repro.serve.worker import ShardWorkerSupervisor, WorkerHandle

from strategies import (
    FakeClock,
    breaker_params,
    clock_steps,
    common_settings,
    restart_deadlines,
    supervisor_shards,
)


class FakeProcess:
    """A worker process that runs until killed or until its socket closes."""

    def __init__(self, pid):
        self.pid = pid
        self.returncode = None

    def poll(self):
        return self.returncode

    def exit(self, status):
        if self.returncode is None:
            self.returncode = status

    def kill(self):
        self.exit(-9)

    def terminate(self):
        self.exit(-15)

    def wait(self, timeout=None):
        return self.returncode


class FakeConnection:
    """The connect-back socket (and its stream): closing it is the worker's
    end-of-stream, so its process exits."""

    def __init__(self, process):
        self.process = process

    def shutdown(self, how):
        self.process.exit(0)

    def close(self):
        self.process.exit(0)


class SupervisorModel(RuleBasedStateMachine):

    @initialize(n_shards=supervisor_shards, params=breaker_params)
    def start(self, n_shards, params):
        threshold, window, cooldown = params
        self.n_shards = n_shards
        self.clock = FakeClock()
        manifest = SimpleNamespace(record=SimpleNamespace(
            shards=n_shards, dtype="float64", generation=1))
        self.supervisor = ShardWorkerSupervisor("unused-store", "m", manifest)

        def breaker():
            return CircuitBreaker(threshold=threshold, window=float(window),
                                  cooldown=float(cooldown), clock=self.clock)

        self.supervisor._breakers = [breaker() for _ in range(n_shards)]
        self.shadows = [breaker() for _ in range(n_shards)]
        self.spawned = [[] for _ in range(n_shards)]  # every handle made
        self.spawns = [0] * n_shards  # spawn attempts, failed ones too
        self.adopted = [0] * n_shards  # respawns the fleet adopted
        self.charged = set()  # ids of handles whose death was charged
        self.fail_next_spawn = False
        self.closed = False
        self.supervisor._spawn = self.fake_spawn
        self.supervisor._probe = lambda handle: None
        # The fleet start, without the monitor thread: the model drives
        # every restart itself.
        self.supervisor._handles = [self.fake_spawn(shard)
                                    for shard in range(n_shards)]

    def fake_spawn(self, shard):
        self.spawns[shard] += 1
        if self.fail_next_spawn:
            raise WorkerError(f"worker for shard {shard} exited with status "
                              "1 before connecting")
        process = FakeProcess(pid=1000 * (shard + 1) + self.spawns[shard])
        connection = FakeConnection(process)
        handle = WorkerHandle(shard, process, connection, connection,
                              generation=1)
        self.spawned[shard].append(handle)
        return handle

    def teardown(self):
        self.supervisor.close()

    # ----------------------------------------------------------------- #
    # Rules
    # ----------------------------------------------------------------- #
    @precondition(lambda self: not self.closed)
    @rule(data=st.data())
    def kill(self, data):
        shard = data.draw(st.integers(0, self.n_shards - 1), label="shard")
        self.supervisor._handles[shard].process.kill()

    @rule(data=st.data(), deadline=restart_deadlines,
          spawn_fails=st.booleans(), replaced=st.booleans())
    def restart(self, data, deadline, spawn_fails, replaced):
        shard = data.draw(st.integers(0, self.n_shards - 1), label="shard")
        spawns_before = self.spawns[shard]
        history = self.spawned[shard]
        current = self.supervisor._handles[shard]
        if self.closed:
            failed = history[-1]
        elif replaced and len(history) > 1:
            failed = history[0]  # an earlier worker, already replaced
        else:
            failed = current
        expected = self.expect_restart(shard, failed, current, spawn_fails)

        self.fail_next_spawn = spawn_fails
        try:
            outcome = self.supervisor._restart(
                shard, failed,
                deadline=None if deadline is None
                else Deadline(time.monotonic() + deadline))
        except DeadlineExceededError:
            assert deadline == 0.0
            # The caller gave up; the respawn it joined runs to its end.
            respawn = self.supervisor._respawns[shard]
            error = respawn.exception()
            outcome = error if error is not None else respawn.result()
        except (ShardUnavailableError, WorkerError) as error:
            outcome = error
        finally:
            self.fail_next_spawn = False

        if isinstance(expected, type):
            assert isinstance(outcome, expected), outcome
        else:
            assert outcome is expected or (expected == "new" and outcome
                                           is self.spawned[shard][-1])
        if expected is ShardUnavailableError or self.closed \
                or failed is not current:
            # An open breaker, a closed fleet or a stale handle spawns
            # nothing.
            assert self.spawns[shard] == spawns_before
        else:
            assert self.spawns[shard] == spawns_before + 1

    def expect_restart(self, shard, failed, current, spawn_fails):
        """What ``_restart(shard, failed)`` must return (a handle, ``"new"``)
        or raise (an error class), applying the breaker calls it must make
        to the shadow breaker."""
        if self.closed:
            return WorkerError
        if failed is not current:
            return current
        shadow = self.shadows[shard]
        if id(failed) not in self.charged:
            self.charged.add(id(failed))
            shadow.record_failure("worker process died")
        if not shadow.allow():
            return ShardUnavailableError
        probing = shadow.state == BREAKER_HALF_OPEN
        if spawn_fails:
            shadow.record_failure("respawn failed")
            return WorkerError
        if probing:
            shadow.record_success()
        self.adopted[shard] += 1
        return "new"

    @rule(seconds=clock_steps)
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def close(self):
        self.supervisor.close()
        self.closed = True

    # ----------------------------------------------------------------- #
    # Invariants
    # ----------------------------------------------------------------- #
    @invariant()
    def at_most_one_live_worker_per_shard(self):
        for shard in range(self.n_shards):
            live = [handle for handle in self.spawned[shard]
                    if handle.process.poll() is None]
            assert len(live) <= 1
            if live and not self.closed:
                assert self.supervisor._handles[shard] is live[0]

    @invariant()
    def restarts_count_the_adopted_respawns(self):
        report = self.supervisor.liveness()
        assert [entry["restarts"] for entry in report] == self.adopted

    @invariant()
    def each_breaker_matches_its_shadow(self):
        for shard in range(self.n_shards):
            actual = self.supervisor._breakers[shard].snapshot()
            shadow = self.shadows[shard].snapshot()
            assert actual["state"] == shadow["state"]
            assert actual["recent_failures"] == shadow["recent_failures"]

    @invariant()
    def nothing_is_alive_after_close(self):
        if self.closed:
            assert all(handle.process.poll() is not None
                       for handles in self.spawned for handle in handles)
            assert self.supervisor._handles == [None] * self.n_shards


SupervisorModel.TestCase.settings = settings(
    **common_settings(max_examples=100), stateful_step_count=30)
TestSupervisorModel = SupervisorModel.TestCase
