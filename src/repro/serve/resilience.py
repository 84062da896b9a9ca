"""Resilience primitives for the sharded serving path.

Three small, independently testable pieces that the scatter-gather router
(:mod:`repro.serve.shard`) and the worker supervisor
(:mod:`repro.serve.worker`) compose into their fault-tolerance layer:

* :class:`Deadline` — an absolute point on the monotonic clock, threaded
  from the HTTP front ends through the scatter-gather router down to every
  per-worker socket operation, so a stalled worker can bound a *request*
  instead of hanging it.  :func:`deadline_scope` carries the current
  request's deadline in a thread-local (the blocking handlers run one
  request per thread); nested scopes keep the tighter deadline.
* :class:`RetryPolicy` — bounded exponential backoff with jitter,
  replacing the supervisor's previous single blind retry.  Jitter is
  essential under fan-out: synchronized retries from many front-end
  threads against one recovering worker are a thundering herd.
* :class:`CircuitBreaker` — a per-shard crash-loop breaker.  Every
  observed worker death lands in a sliding window; too many inside the
  window *opens* the breaker, which stops the respawn storm (a corrupt
  shard file would otherwise burn a process spawn per monitor tick,
  forever).  After a cooldown the breaker lets exactly one caller through
  (*half-open*) to probe with a fresh spawn + ping; success closes the
  breaker, failure re-opens it for another cooldown.

The module also defines the errors a shard call can raise
(:class:`WorkerError` and its subclasses) and :func:`collect_missing_shards`,
the request scope a degraded gather reports dropped shards into.  It imports
nothing from :mod:`repro` — mechanism, not policy — so it can be
unit-tested with fake clocks and reused by future multi-host supervisors.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Set

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "RetryPolicy",
    "ShardUnavailableError",
    "WorkerError",
    "WorkerRequestError",
    "collect_missing_shards",
    "current_deadline",
    "deadline_scope",
]


class WorkerError(RuntimeError):
    """A shard worker failed: bad frame, dead process, or a remote error."""


class WorkerRequestError(WorkerError):
    """The worker itself reported the request as bad (``ok: false``).

    The worker is healthy and the transport is fine — retrying or
    restarting would only repeat the same rejection, so the supervisor
    surfaces this immediately and without touching the worker.
    """


class ShardUnavailableError(WorkerError):
    """A shard cannot serve right now: retries exhausted or breaker open.

    ``retry_after`` is the supervisor's estimate (seconds) of when an
    attempt could succeed — the HTTP layer forwards it as a ``Retry-After``
    header on the 503 it maps this error to.
    """

    def __init__(self, shard: int, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.shard = shard
        self.retry_after = max(0.0, float(retry_after))


class DeadlineExceededError(WorkerError):
    """The request's end-to-end deadline expired before a shard answered."""


# --------------------------------------------------------------------- #
# Degradation reporting (request-thread-local)
# --------------------------------------------------------------------- #
_degradation = threading.local()


@contextmanager
def collect_missing_shards() -> Iterator[Set[int]]:
    """Collect the shard indices a degraded-mode query had to drop.

    The HTTP layer wraps each request in this scope; routers running in
    ``degraded="partial"`` mode report dropped shards into it (on the
    request thread, after the gather).  Routers that never degrade —
    in-process ones, or worker routers in the default fail-fast mode —
    simply leave the set empty, so callers need no backend-specific
    branches.
    """
    previous = getattr(_degradation, "missing", None)
    missing: Set[int] = set()
    _degradation.missing = missing
    try:
        yield missing
    finally:
        _degradation.missing = previous


def note_missing_shards(shards: Sequence[int]) -> None:
    """Report dropped shards into the active :func:`collect_missing_shards`
    scope of this thread (a no-op outside one)."""
    missing = getattr(_degradation, "missing", None)
    if missing is not None:
        missing.update(shards)


class Deadline:
    """An absolute instant on the monotonic clock a request must beat.

    Absolute (not a duration) so it can be handed across layers and
    threads without accumulating slack: every layer computes its own
    ``remaining()`` against the same instant.
    """

    __slots__ = ("at", "_clock")

    def __init__(self, at: float, clock: Callable[[], float] = time.monotonic):
        self.at = float(at)
        self._clock = clock

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """The deadline ``seconds`` from now."""
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        return cls(clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


_scope = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The active request deadline of this thread (``None`` when unbounded).

    Scatter fan-out runs on pool threads that do *not* inherit this
    thread-local — the router captures the deadline once on the request
    thread and passes it explicitly into every per-shard call.
    """
    return getattr(_scope, "deadline", None)


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Bound everything inside the ``with`` block by a fresh deadline.

    ``None`` (no deadline configured) is a no-op scope, so callers never
    need to branch.  When a tighter deadline is already active, it wins —
    an inner scope can only shrink the time budget, never extend it.
    """
    previous = current_deadline()
    if seconds is None:
        yield previous
        return
    deadline = Deadline.after(seconds)
    if previous is not None and previous.at < deadline.at:
        deadline = previous
    _scope.deadline = deadline
    try:
        yield deadline
    finally:
        _scope.deadline = previous


class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``attempts`` counts every try including the first; ``delay(i)`` is the
    pause before retry ``i`` (0-based), capped at ``max_backoff`` and
    spread by ``jitter`` (a fraction: 0.5 means the delay lands uniformly
    within +/-50% of the exponential value).
    """

    def __init__(self, attempts: int = 3, backoff: float = 0.05,
                 multiplier: float = 2.0, max_backoff: float = 2.0,
                 jitter: float = 0.5,
                 rng: Optional[random.Random] = None):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if backoff < 0 or max_backoff < 0:
            raise ValueError("backoff bounds must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.attempts = int(attempts)
        self.backoff = float(backoff)
        self.multiplier = float(multiplier)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random()

    def delay(self, retry_index: int) -> float:
        """Seconds to wait before 0-based retry ``retry_index``."""
        if retry_index < 0:
            raise ValueError(f"retry index must be >= 0, got {retry_index}")
        base = min(self.backoff * self.multiplier ** retry_index,
                   self.max_backoff)
        spread = self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, base * (1.0 + spread))


#: Circuit-breaker states (the classic three).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Sliding-window crash-loop breaker (thread-safe).

    * **closed** — failures are recorded into a sliding window;
      ``threshold`` failures inside ``window`` seconds trip it open.
      Successes are *not* recorded in this state: a worker that crashes,
      respawns fine, and crashes again is exactly the loop the breaker
      exists to stop, so only the window aging out forgives failures.
    * **open** — :meth:`allow` refuses everything until ``cooldown``
      seconds have passed, then lets exactly one caller through as the
      half-open probe.
    * **half-open** — the probe is in flight; everyone else is refused.
      :meth:`record_success` (probe worked) resets to closed and clears
      the window; :meth:`record_failure` re-opens for a fresh cooldown.
    """

    def __init__(self, threshold: int = 5, window: float = 30.0,
                 cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if window <= 0 or cooldown <= 0:
            raise ValueError("window and cooldown must be positive")
        self.threshold = int(threshold)
        self.window = float(window)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: deque = deque()  # monotonic timestamps
        self._state = BREAKER_CLOSED
        self._opened_at: Optional[float] = None
        self.last_failure: Optional[str] = None

    def _prune(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window:
            self._failures.popleft()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def record_failure(self, reason: str) -> None:
        """One observed failure (a worker death or a failed respawn)."""
        with self._lock:
            now = self._clock()
            self._failures.append(now)
            self._prune(now)
            self.last_failure = reason
            if self._state == BREAKER_HALF_OPEN:
                # The probe failed: back to open, fresh cooldown.
                self._state = BREAKER_OPEN
                self._opened_at = now
            elif (self._state == BREAKER_CLOSED
                    and len(self._failures) >= self.threshold):
                self._state = BREAKER_OPEN
                self._opened_at = now

    def record_success(self) -> None:
        """The half-open probe (or an explicit reset) succeeded."""
        with self._lock:
            self._failures.clear()
            self._state = BREAKER_CLOSED
            self._opened_at = None

    def allow(self) -> bool:
        """May an attempt proceed right now?

        Closed: always.  Open: only once the cooldown has elapsed — and
        that single ``True`` *claims* the half-open probe, so concurrent
        callers cannot all storm the recovering shard at once.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                assert self._opened_at is not None
                if self._clock() - self._opened_at >= self.cooldown:
                    self._state = BREAKER_HALF_OPEN
                    return True
            return False

    def retry_after(self) -> float:
        """Seconds until the next attempt could be allowed (0 when closed)."""
        with self._lock:
            if self._state != BREAKER_OPEN or self._opened_at is None:
                return 0.0
            return max(0.0, self._opened_at + self.cooldown - self._clock())

    def snapshot(self) -> Dict[str, object]:
        """Health-endpoint view of the breaker (JSON-serializable)."""
        with self._lock:
            now = self._clock()
            self._prune(now)
            retry_after = 0.0
            if self._state == BREAKER_OPEN and self._opened_at is not None:
                retry_after = max(0.0,
                                  self._opened_at + self.cooldown - now)
            return {
                "state": self._state,
                "recent_failures": len(self._failures),
                "threshold": self.threshold,
                "retry_after": round(retry_after, 3),
                "last_failure": self.last_failure,
            }
