"""Micro-batching of concurrent single-row queries.

The HTTP service receives many independent single-row queries at once (one
per connection thread).  Answering each with its own tiny matrix product
wastes the hardware: one stacked ``q x m`` product is far cheaper than
``q`` separate ``1 x m`` calls.  The engines compute it with a
batch-invariant einsum, not BLAS, so stacking changes no row's bits.
:class:`MicroBatcher` closes that gap without changing results:

* the first thread to submit into an empty batch becomes the batch *leader*;
* the leader waits up to ``max_delay`` seconds (or until ``max_batch``
  requests have stacked up) for followers to join;
* the leader runs the whole batch through one callable and distributes the
  per-request results; followers just wait on the batch event.

Under no concurrency the only cost is the leader's bounded wait; under load
the window fills instantly and every product serves ``max_batch`` queries.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence


class _Batch:
    """One in-flight group of requests sharing a single execution."""

    __slots__ = ("requests", "closed", "done", "results", "error")

    def __init__(self) -> None:
        self.requests: List[object] = []
        self.closed = False
        self.done = threading.Event()
        self.results: Optional[List[object]] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Stacks concurrent submissions into single calls of a batch function.

    Parameters
    ----------
    run_batch:
        Callable receiving the list of pending requests and returning one
        result per request, in order.  Runs on the leader's thread.  For
        batching to be semantically invisible — the serving layer's
        batch-invariance guarantee — ``run_batch`` over a stack of requests
        must return exactly what it would return for each request alone;
        the engines' row-local scoring and total-order selection provide
        that property for every query operation.
    max_batch:
        Close the batch as soon as this many requests have joined
        (``>= 1``; ``1`` disables stacking).
    max_delay:
        Longest time (seconds, ``>= 0``) the leader waits for followers.
        Keep this at network-jitter scale: it bounds the latency a lone
        request pays.
    """

    def __init__(self, run_batch: Callable[[Sequence[object]], Sequence[object]],
                 max_batch: int = 64, max_delay: float = 0.002):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self._run_batch = run_batch
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._condition = threading.Condition()
        self._open_batch: Optional[_Batch] = None
        self.batches_run = 0
        self.requests_served = 0

    def stats(self) -> dict:
        """Consistent snapshot of the batching counters (for ``/healthz``).

        ``mean_batch_size`` is the figure to watch: near 1.0 under load
        means requests are not overlapping inside ``max_delay`` windows and
        the stacking is buying nothing.
        """
        with self._condition:
            batches, requests = self.batches_run, self.requests_served
        return {
            "batches_run": batches,
            "requests_served": requests,
            "mean_batch_size": (requests / batches) if batches else None,
        }

    def submit(self, request: object) -> object:
        """Submit one request; blocks until its result is available.

        The calling thread either becomes the leader of a new batch (and
        runs ``run_batch`` for everyone after the window closes) or joins
        the open batch and waits.  Returns this request's entry of the batch
        result; an exception raised by ``run_batch`` propagates to every
        waiter of that batch.
        """
        with self._condition:
            batch = self._open_batch
            if batch is None or batch.closed:
                batch = self._open_batch = _Batch()
                leader = True
            else:
                leader = False
            index = len(batch.requests)
            batch.requests.append(request)
            if len(batch.requests) >= self.max_batch:
                batch.closed = True
                self._condition.notify_all()

        if leader:
            self._lead(batch)
        else:
            batch.done.wait()

        if batch.error is not None:
            raise batch.error
        return batch.results[index]

    def _lead(self, batch: _Batch) -> None:
        deadline = time.monotonic() + self.max_delay
        with self._condition:
            while not batch.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
            batch.closed = True
            if self._open_batch is batch:
                self._open_batch = None
        try:
            results = list(self._run_batch(batch.requests))
            if len(results) != len(batch.requests):
                raise RuntimeError(
                    f"batch function returned {len(results)} results "
                    f"for {len(batch.requests)} requests"
                )
            batch.results = results
        except BaseException as error:  # propagate to every waiter
            batch.error = error
        finally:
            with self._condition:
                self.batches_run += 1
                self.requests_served += len(batch.requests)
            batch.done.set()
