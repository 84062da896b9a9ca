"""Unit tests of the resilience primitives (fake clocks, no processes).

:class:`Deadline`, :class:`RetryPolicy` and :class:`CircuitBreaker` are
mechanism, not policy — they must be provably correct on their own before
the worker supervisor composes them, so everything here runs against
injected clocks and seeded RNGs: no sleeps, no sockets, no workers.
"""

import random
import threading

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)

from strategies import FakeClock, breaker_params, clock_steps, common_settings


class TestDeadline:
    def test_remaining_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(1.5)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_absolute_instant_is_shared_across_layers(self):
        # Two layers computing remaining() against the same Deadline agree
        # exactly — no slack accumulates from re-deriving durations.
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        clock.advance(3.0)
        assert deadline.at == pytest.approx(1010.0)
        assert Deadline(deadline.at, clock=clock).remaining() \
            == deadline.remaining()

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(0.0)
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(-1.0)


class TestDeadlineScope:
    def test_none_scope_is_a_no_op(self):
        assert current_deadline() is None
        with deadline_scope(None) as deadline:
            assert deadline is None
            assert current_deadline() is None
        assert current_deadline() is None

    def test_scope_sets_and_restores_the_thread_local(self):
        with deadline_scope(5.0) as deadline:
            assert current_deadline() is deadline
            assert deadline.remaining() <= 5.0
        assert current_deadline() is None

    def test_nested_scope_keeps_the_tighter_deadline(self):
        with deadline_scope(1.0) as outer:
            with deadline_scope(100.0) as inner:
                # The inner scope asked for more time than the outer allows:
                # the outer (tighter) deadline wins.
                assert inner is outer
                assert current_deadline() is outer
            with deadline_scope(0.001) as tighter:
                assert tighter is not outer
                assert tighter.at < outer.at
            assert current_deadline() is outer

    def test_scopes_are_thread_local(self):
        seen = []

        def probe():
            seen.append(current_deadline())

        with deadline_scope(5.0):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        # The worker thread never saw the request thread's deadline — which
        # is exactly why the router passes deadlines into thunks explicitly.
        assert seen == [None]


class TestRetryPolicy:
    def test_exponential_growth_capped_without_jitter(self):
        policy = RetryPolicy(attempts=5, backoff=0.1, multiplier=2.0,
                             max_backoff=0.35, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.35)  # capped
        assert policy.delay(3) == pytest.approx(0.35)

    def test_jitter_spreads_within_the_band_and_never_negative(self):
        policy = RetryPolicy(backoff=0.1, multiplier=1.0, jitter=0.5,
                             rng=random.Random(42))
        delays = [policy.delay(0) for _ in range(200)]
        assert all(0.05 <= delay <= 0.15 for delay in delays)
        assert max(delays) - min(delays) > 0.01  # actually spread

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match=">= 0"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match=">= 0"):
            RetryPolicy().delay(-1)


class TestCircuitBreaker:
    def test_trips_open_at_threshold_within_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, window=10.0, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure("crash 1")
        breaker.record_failure("crash 2")
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        breaker.record_failure("crash 3")
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.last_failure == "crash 3"

    def test_window_aging_forgives_old_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, window=10.0, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure("old")
        breaker.record_failure("old")
        clock.advance(11.0)  # both age out of the window
        breaker.record_failure("new")
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_then_single_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure("crash")
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        # The first allow() after the cooldown claims the half-open probe;
        # concurrent callers are still refused until the probe resolves.
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()

    def test_probe_success_closes_and_clears_the_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, window=100.0, cooldown=1.0,
                                 clock=clock)
        breaker.record_failure("a")
        breaker.record_failure("b")
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        # The window was cleared: one fresh failure does not re-trip.
        breaker.record_failure("c")
        assert breaker.state == BREAKER_CLOSED

    def test_probe_failure_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure("crash")
        clock.advance(5.0)
        assert breaker.allow()  # half-open
        breaker.record_failure("probe died")
        assert breaker.state == BREAKER_OPEN
        assert breaker.retry_after() == pytest.approx(5.0)  # fresh cooldown
        assert not breaker.allow()

    def test_closed_state_success_does_not_erase_the_window(self):
        # A worker that crashes, respawns fine, crashes again... is exactly
        # the loop the breaker exists to stop: only the half-open probe (or
        # window aging) forgives — but record_success() is only ever called
        # by the probe path, so failures simply accumulate here.
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, window=100.0, cooldown=1.0,
                                 clock=clock)
        for i in range(3):
            assert breaker.allow()  # each respawn is permitted...
            breaker.record_failure(f"crash {i}")
        assert breaker.state == BREAKER_OPEN  # ...but the loop still trips it

    def test_snapshot_is_json_shaped(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, window=10.0, cooldown=4.0,
                                 clock=clock)
        breaker.record_failure("boom")
        breaker.record_failure("boom again")
        snapshot = breaker.snapshot()
        assert snapshot["state"] == BREAKER_OPEN
        assert snapshot["recent_failures"] == 2
        assert snapshot["threshold"] == 2
        assert snapshot["retry_after"] == pytest.approx(4.0)
        assert snapshot["last_failure"] == "boom again"
        import json
        json.dumps(snapshot)  # must be wire-serializable for /healthz

    def test_allow_claims_are_race_free(self):
        # Many threads racing the end of a cooldown: exactly one wins the
        # half-open probe.
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=1.0,
                                 clock=clock)
        breaker.record_failure("crash")
        clock.advance(1.0)
        wins = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            if breaker.allow():
                wins.append(threading.get_ident())

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="positive"):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError, match="positive"):
            CircuitBreaker(cooldown=-1)


class CircuitBreakerModel(RuleBasedStateMachine):
    """:class:`CircuitBreaker` against a small reference model, driven by a
    fake clock through random sequences of failures, successes, ``allow``
    calls and time steps."""

    @initialize(params=breaker_params)
    def start(self, params):
        self.threshold, self.window, self.cooldown = params
        self.clock = FakeClock()
        self.breaker = CircuitBreaker(
            threshold=self.threshold, window=float(self.window),
            cooldown=float(self.cooldown), clock=self.clock)
        self.state = BREAKER_CLOSED
        self.failures = []  # model: timestamps of recorded failures
        self.opened_at = None
        self.probes = 0  # allow() grants since the breaker last opened

    def _in_window(self):
        now = self.clock.now
        return [at for at in self.failures if now - at <= self.window]

    @rule()
    def record_failure(self):
        self.failures.append(self.clock.now)
        self.failures = self._in_window()
        if (self.state == BREAKER_HALF_OPEN
                or (self.state == BREAKER_CLOSED
                    and len(self.failures) >= self.threshold)):
            self.state, self.opened_at, self.probes = \
                BREAKER_OPEN, self.clock.now, 0
        self.breaker.record_failure(f"failure at {self.clock.now}")

    @rule()
    def record_success(self):
        self.state, self.failures, self.opened_at = BREAKER_CLOSED, [], None
        self.breaker.record_success()

    @rule()
    def allow(self):
        expected = (self.state == BREAKER_CLOSED
                    or (self.state == BREAKER_OPEN
                        and self.clock.now - self.opened_at >= self.cooldown))
        if expected and self.state == BREAKER_OPEN:
            self.state = BREAKER_HALF_OPEN
        granted = self.breaker.allow()
        assert granted == expected
        if granted and self.state != BREAKER_CLOSED:
            self.probes += 1

    @rule(seconds=clock_steps)
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def state_matches_the_model(self):
        assert self.breaker.state == self.state

    @invariant()
    def one_probe_per_cooldown_expiry(self):
        assert self.probes <= 1

    @invariant()
    def half_open_refuses_everyone_else(self):
        if self.state == BREAKER_HALF_OPEN:
            assert not self.breaker.allow()

    @invariant()
    def retry_after_is_the_remaining_cooldown(self):
        retry_after = self.breaker.retry_after()
        assert retry_after >= 0.0
        if self.state == BREAKER_CLOSED:
            assert retry_after == 0.0
        if self.state == BREAKER_OPEN:
            assert retry_after == max(
                0.0, self.opened_at + self.cooldown - self.clock.now)

    @invariant()
    def snapshot_counts_only_in_window_failures(self):
        snapshot = self.breaker.snapshot()
        assert snapshot["recent_failures"] == len(self._in_window())
        assert snapshot["state"] == self.state


CircuitBreakerModel.TestCase.settings = settings(
    **common_settings(max_examples=200), stateful_step_count=40)
TestCircuitBreakerModel = CircuitBreakerModel.TestCase
