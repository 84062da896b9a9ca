"""The HTTP JSON service's application layer over a model store.

Endpoints (all responses are JSON):

* ``GET /healthz`` — liveness: ``{"status": "ok", "models": <count>}``;
* ``GET /models`` — metadata of every published model;
* ``POST /recommend`` — body ``{"model": name, "rows": ... , "k": 5}``;
  returns per-row top-k item indices and scores;
* ``POST /neighbors`` — same body shape; returns per-row nearest stored-row
  indices and interval distances.

Query rows are given either as ``"rows": [[...]]`` (scalar values, treated
as degenerate intervals), as ``{"lower": [[...]], "upper": [[...]]}``
endpoint pairs, or as a single ``"row": [...]`` — single rows go through the
:class:`~repro.serve.batching.MicroBatcher`, so concurrent clients share one
batched product without changing any result.

Every model is served through the one scatter-gather router,
:class:`~repro.serve.shard.ShardedQueryEngine`, with one shard per row-range
archive the model was published in — in-process (``sharded-threads``), or
one worker process each (``workers``).  Both backends return byte-identical
answers, and so does every shard count, so the wire format of a response
does not depend on how the model is stored or served.

This module holds the transport-free application (:class:`ServingApp`); the
HTTP front end that serves it is :mod:`repro.serve.async_http` — standard
library only, matching the rest of the package (numpy/scipy only).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Optional, Tuple, Union
from zipfile import BadZipFile

import numpy as np

from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike, get_kernel
from repro.interval.scalar import IntervalError
from repro.serve.batching import MicroBatcher
from repro.serve.query import (
    TopKResult,
    top_k,
    top_k_from_candidates,
)
from repro.serve.resilience import (
    DeadlineExceededError,
    ShardUnavailableError,
    WorkerError,
    collect_missing_shards,
    deadline_scope,
)
from repro.serve.shard import ShardedModelStore, ShardedQueryEngine
from repro.serve.store import ModelStore, ModelStoreError
from repro.serve.worker import WorkerShardedQueryEngine

#: Upper bound on accepted request bodies (a 1k-item interval row is ~50 kB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class RequestError(ValueError):
    """Client error: malformed body, unknown model, bad row shape...

    ``retry_after`` (seconds, optional) becomes a ``Retry-After`` header —
    set on the 503s an unavailable shard maps to, so well-behaved clients
    back off for as long as the circuit breaker will refuse them anyway.
    """

    def __init__(self, message: str, status: int = 400,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def rows_from_payload(payload: Dict[str, object]) -> Tuple[IntervalMatrix, bool]:
    """Parse the query rows of a request body.

    Returns ``(rows, is_single)`` where ``is_single`` is True when the client
    sent one row (``"row"`` or a 1-D ``"rows"``) — the micro-batchable case.
    """
    try:
        if "row" in payload:
            values = np.asarray(payload["row"], dtype=float)
            if values.ndim != 1:
                raise RequestError("'row' must be a flat list of numbers")
            return _finite(IntervalMatrix.from_scalar(values[np.newaxis, :])), True
        if "lower" in payload or "upper" in payload:
            if "lower" not in payload or "upper" not in payload:
                raise RequestError("provide both 'lower' and 'upper'")
            lower = np.asarray(payload["lower"], dtype=float)
            upper = np.asarray(payload["upper"], dtype=float)
            single = lower.ndim == 1
            if single:
                lower, upper = lower[np.newaxis, :], upper[np.newaxis, :]
            return _finite(IntervalMatrix(lower, upper)), single
        if "rows" in payload:
            values = np.asarray(payload["rows"], dtype=float)
            single = values.ndim == 1
            if single:
                values = values[np.newaxis, :]
            return _finite(IntervalMatrix.from_scalar(values)), single
    except RequestError:
        raise
    except (TypeError, ValueError, IntervalError) as error:
        raise RequestError(f"invalid query rows: {error}") from error
    raise RequestError("provide query rows as 'row', 'rows', or 'lower'/'upper'")


def _finite(rows: IntervalMatrix) -> IntervalMatrix:
    """Reject non-finite query rows; inf endpoints would propagate NaN/inf
    through the fold-in products into responses that are not valid JSON."""
    if not (np.isfinite(rows.lower).all() and np.isfinite(rows.upper).all()):
        raise RequestError("query rows must contain only finite numbers")
    return rows


class ServingApp:
    """The service's state: a model store, cached engines, micro-batchers.

    ``kernel`` selects the interval-product kernel every engine is built
    with (resolved once at startup so a typo fails at boot, not per request);
    ``None`` keeps the paper-faithful default.  With ``workers=True``,
    every model serves through one *worker process* per shard
    (:class:`~repro.serve.worker.WorkerShardedQueryEngine`) instead of the
    in-process thread router — answers stay byte-identical either way.

    ``request_timeout`` (seconds, ``None`` = unbounded) is the end-to-end
    deadline each query runs under: it bounds worker socket waits, retry
    backoff and restart attempts alike, and expiry surfaces as a 504.
    ``degraded`` selects what an unavailable shard does to a neighbour
    query: ``"fail"`` (default) keeps the all-or-nothing byte-identity
    contract and returns a 503 with ``Retry-After``; ``"partial"`` answers
    from the live shards and flags the response with ``"degraded": true``
    plus the missing shard list.  ``worker_options`` passes resilience
    tuning (``call_timeout``, ``retry``, ``breaker_threshold``, ...,
    ``faults``) through to :class:`WorkerShardedQueryEngine`.

    ``dtype`` pins the server to one factor precision (``"float64"`` or
    ``"float32"``): a model whose sidecar records a different dtype is
    refused with a 409 instead of silently served — deploys that assume
    one precision's bytes must not mix in another's.  ``None`` (default)
    serves every model at its recorded precision.
    """

    def __init__(self, store: Union[ModelStore, str], max_batch: int = 64,
                 batch_delay: float = 0.002, kernel: KernelLike = None,
                 workers: bool = False,
                 request_timeout: Optional[float] = None,
                 degraded: str = "fail",
                 worker_options: Optional[Dict[str, object]] = None,
                 dtype: Optional[str] = None):
        if degraded not in ("fail", "partial"):
            raise ValueError(
                f"degraded policy must be 'fail' or 'partial', got {degraded!r}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {request_timeout}")
        if dtype is not None and dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype pin must be 'float32' or 'float64', got {dtype!r}")
        self.dtype = dtype
        if not isinstance(store, ShardedModelStore):
            store = ShardedModelStore(
                store.directory if isinstance(store, ModelStore) else store)
        self.store = store
        self.kernel = get_kernel(kernel)
        self.max_batch = max_batch
        self.batch_delay = batch_delay
        self.workers = bool(workers)
        self.request_timeout = request_timeout
        self.degraded = degraded
        self.worker_options = dict(worker_options or {})
        self._lock = threading.Lock()
        self._engines: Dict[str, Tuple[object, ShardedQueryEngine, object]] = {}
        self._batchers: Dict[Tuple[str, str, Tuple[object, ...]],
                             MicroBatcher] = {}
        #: Per-model single-flight locks: loading a model is O(model bytes)
        #: (NPZ decompress + per-shard fingerprint hashing), so concurrent
        #: first requests must not each load-and-discard their own copy.
        self._load_locks: Dict[str, threading.Lock] = {}

    def _current_record(self, name: str):
        """The model's current store metadata, as a 404 when it is gone."""
        try:
            return self.store.record(name)
        except ModelStoreError as error:
            self._evict(name)  # deleted models must not pin factors in memory
            raise RequestError(str(error), status=404) from error

    @staticmethod
    def _version_of(record) -> Tuple[object, ...]:
        """The engine-cache key identifying one publish of a model.

        ``generation`` is part of the key: a reshard bumps it even when the
        factor content is unchanged, and the cached engine (whose workers
        are pinned to one generation's files) must follow the manifest.
        """
        return (record.created_at, record.fingerprint, record.method,
                record.rank, record.shards, record.generation)

    def _current_version(self, name: str) -> Tuple[object, ...]:
        """The cache key a model's current publish would be stored under."""
        return self._version_of(self._current_record(name))

    def engine(self, name: str) -> ShardedQueryEngine:
        """The router serving a published model, reloaded when the model is
        republished.

        The cached router is validated against the store's current metadata
        on every access (one small JSON read), so ``repro decompose
        --save-model`` over an existing name takes effect without restarting
        the server.  A model deleted mid-request surfaces as 404, not a
        dropped connection.
        """
        return self._resolve(name)[1]

    def _resolve(self, name: str
                 ) -> Tuple[Tuple[object, ...], ShardedQueryEngine, object]:
        """``(version, router, record)`` of a model: the router that serves
        it, the version key and record it was validated against — one store
        metadata read per call."""
        # (The initial version read happens outside the single-flight lock —
        # cheap cache hits must not serialize — and is re-read under the
        # lock before any load.)
        version = self._current_version(name)
        with self._lock:
            cached = self._engines.get(name)
            load_lock = self._load_locks.setdefault(name, threading.Lock())
        if cached is not None and cached[0] == version:
            return cached
        # Single-flight per model: loading is O(model bytes), so a burst of
        # first requests (or requests racing a republish) must produce one
        # load, not one per thread.  Different models still load in parallel.
        with load_lock:
            # Re-read the metadata now that we hold the lock: a republish
            # may have landed while we waited, and caching fresh factors
            # under a stale version key would force the next request to
            # reload them all over again.
            record = self._current_record(name)
            version = self._version_of(record)
            with self._lock:
                cached = self._engines.get(name)
            if cached is not None and cached[0] == version:
                return cached
            if self.dtype is not None and record.dtype != self.dtype:
                raise RequestError(
                    f"model {name!r} is stored as {record.dtype} but this "
                    f"server is pinned to {self.dtype}", status=409)
            worker_options = dict(self.worker_options)
            if self.dtype is not None:
                worker_options.setdefault("dtype", self.dtype)
            try:
                if self.workers:
                    engine: ShardedQueryEngine = WorkerShardedQueryEngine(
                        self.store, name, kernel=self.kernel,
                        degraded=self.degraded, **worker_options)
                else:
                    shards, manifest = self.store.load_shards(name)
                    engine = ShardedQueryEngine(
                        shards, row_ranges=manifest.row_ranges,
                        kernel=self.kernel)
            except (ModelStoreError, OSError, BadZipFile, KeyError,
                    ValueError, WorkerError) as error:
                # Covers readers racing a delete (metadata read above,
                # factors unlinked before the NPZ load), truncated archives,
                # and not-a-decomposition files (KeyError: a factor array
                # missing from an externally written NPZ); ValueError
                # includes IntervalError; WorkerError covers shard workers
                # that could not come up on the model's files.
                self._evict(name)
                raise RequestError(f"model {name!r} is not loadable: {error}",
                                   status=404) from error
            resolved = (version, engine, record)
            with self._lock:
                displaced = self._engines.get(name)
                self._engines[name] = resolved
                # Batchers are bound to one publish's engine; drop the
                # displaced ones so they cannot pin its factors.
                for key in [k for k in self._batchers
                            if k[0] == name and k[2] != version]:
                    del self._batchers[key]
        if displaced is not None:
            # Release the displaced router's scatter pool without blocking
            # (it keeps answering in-flight queries, serially).
            displaced[1].close(wait=False)
        return resolved

    def _evict(self, name: str) -> None:
        """Drop a model's cached engine and batchers (e.g. after deletion).

        The per-model load lock deliberately stays: popping it would hand a
        loader racing an evict+republish a *different* lock object for the
        same name, breaking single-flight exactly in the window it exists
        for (a stale loader could then overwrite and close a fresher
        engine).  A bare ``threading.Lock`` per name ever queried is a few
        dozen bytes — not worth that race.
        """
        with self._lock:
            cached = self._engines.pop(name, None)
            for key in [k for k in self._batchers if k[0] == name]:
                del self._batchers[key]
        if cached is not None:
            cached[1].close(wait=False)

    def _batcher(self, name: str, operation: str,
                 resolved: Optional[Tuple[Tuple[object, ...],
                                          ShardedQueryEngine, object]] = None
                 ) -> MicroBatcher:
        """The micro-batcher for one publish of a model and one operation.

        Batchers are keyed by the engine version ``resolved`` (default: the
        current one): a batch runs on the engine its requests were already
        resolved and width-checked against, so it never re-reads the store
        and never mixes requests validated against two publishes.
        """
        version, engine, _ = resolved or self._resolve(name)

        def run_batch(requests):
            # The whole batch executes on the *leader's* thread, so the
            # followers' thread-local degradation scopes never see what the
            # gather dropped — each result therefore carries the batch's
            # missing-shard set back explicitly, and _run_query folds it
            # into its own request's scope.
            with collect_missing_shards() as missing:
                results = run_batch_inner(requests)
            dropped: FrozenSet[int] = frozenset(missing)
            return [(result, dropped) for result in results]

        def run_batch_inner(requests):
            rows_list, ks = zip(*requests)
            stacked = IntervalMatrix(
                np.vstack([rows.lower for rows in rows_list]),
                np.vstack([rows.upper for rows in rows_list]),
                check=False,
            )
            # One batched einsum product scores the whole stack (einsum, not
            # BLAS, so no row's bits depend on the stack); selection runs per
            # request with its own k.  top_k is row-local, so every answer is
            # exactly what a direct single-row call would return — including
            # boundary tie-breaking, which slicing a shared top-max(k) list
            # would get wrong.  Neighbour selection ranks on squared
            # distances (the engines' own selection key) and takes sqrt only
            # on the per-request winners.
            if operation == "recommend":
                scores = engine.reconstruct_rows(stacked)
                return [
                    top_k(scores[i:i + 1], k, largest=True)
                    for i, k in enumerate(ks)
                ]
            # The router reduces each shard to top-max(ks) candidates before
            # the gather, so the batch's working set is q x (shards * k),
            # not the full q x n distance matrix; the per-request merge is
            # byte-identical to a direct call for every k <= max(ks) (top-k
            # lists are prefixes of each other under the total order).
            gathered = engine.nearest_neighbor_candidates(stacked, max(ks))
            results = []
            for i, k in enumerate(ks):
                selected = top_k_from_candidates(
                    gathered.scores[i:i + 1], gathered.indices[i:i + 1],
                    k, largest=False)
                results.append(TopKResult(selected.indices,
                                          np.sqrt(selected.scores)))
            return results

        key = (name, operation, version)
        with self._lock:
            batcher = self._batchers.get(key)
            if batcher is None:
                batcher = MicroBatcher(run_batch, max_batch=self.max_batch,
                                       max_delay=self.batch_delay)
                cached = self._engines.get(name)
                # A request that resolved a just-displaced publish gets a
                # private batcher: registering it would pin stale factors.
                if cached is not None and cached[0] == version:
                    self._batchers[key] = batcher
            return batcher

    # ------------------------------------------------------------------ #
    # Operations (shared by the HTTP handler and in-process callers)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_k(payload: Dict[str, object]) -> int:
        k = payload.get("k", 10)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise RequestError("'k' must be a positive integer")
        return k

    def _run_query(self, operation: str, payload: Dict[str, object]) -> Dict[str, object]:
        name = payload.get("model")
        if not isinstance(name, str):
            raise RequestError("'model' (a published model name) is required")
        k = self._parse_k(payload)
        rows, single = rows_from_payload(payload)
        with deadline_scope(self.request_timeout), \
                collect_missing_shards() as missing:
            try:
                resolved = self._resolve(name)
                engine = resolved[1]
                if rows.shape[1] != engine.n_items:
                    # Validated before submitting so a malformed request can
                    # never poison the other requests sharing its micro-batch.
                    raise RequestError(
                        f"query rows must have {engine.n_items} columns, "
                        f"got {rows.shape[1]}"
                    )
                if single and self.max_batch > 1:
                    result, dropped = self._batcher(
                        name, operation, resolved).submit((rows, k))
                    missing.update(dropped)
                elif operation == "recommend":
                    result = engine.top_k_items(rows, k)
                else:
                    result = engine.nearest_neighbors(rows, k)
            except ShardUnavailableError as error:
                raise RequestError(str(error), status=503,
                                   retry_after=error.retry_after) from error
            except DeadlineExceededError as error:
                raise RequestError(str(error), status=504) from error
        value_key = "scores" if operation == "recommend" else "distances"
        index_key = "items" if operation == "recommend" else "neighbors"
        response: Dict[str, object] = {
            "model": name,
            "k": k,
            index_key: result.indices.tolist(),
            value_key: result.scores.tolist(),
        }
        if missing:
            # Explicitly flagged, never silent: a partial answer that looks
            # complete would be worse than the 503 it replaced.
            response["degraded"] = True
            response["missing_shards"] = sorted(missing)
        return response

    def recommend(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Top-k item recommendation for the payload's query rows."""
        return self._run_query("recommend", payload)

    def neighbors(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Nearest stored rows for the payload's query rows."""
        return self._run_query("neighbors", payload)

    def models(self) -> Dict[str, object]:
        """Metadata of every published model."""
        return {"models": [record.to_dict() for record in self.store.list()]}

    def healthz(self) -> Dict[str, object]:
        """Liveness payload, including what is actually being served.

        ``serving`` reports every model with a loaded engine: the served
        *generation* (so an operator can confirm a reshard took effect),
        the backend kind, per-shard worker liveness for process-backed
        models, and micro-batching counters.  Worker entries carry their
        resilience state too: restart count and timestamps, the last
        failure reason, and the circuit-breaker snapshot.  The overall
        ``status`` degrades to ``"degraded"`` when any served model has a
        dead worker or a breaker that is not closed.
        """
        with self._lock:
            cached = dict(self._engines)
            batcher_stats = {
                f"{name}:{operation}": batcher.stats()
                for (name, operation, _), batcher in self._batchers.items()
            }
        serving: Dict[str, object] = {}
        degraded = False
        for name, (_, engine, record) in sorted(cached.items()):
            backend = "workers" if self.workers else "sharded-threads"
            entry: Dict[str, object] = {
                "generation": record.generation,
                "shards": record.shards,
                "backend": backend,
            }
            if backend == "workers":
                workers = engine.liveness()
                entry["workers"] = workers
                for worker in workers:
                    breaker = worker.get("breaker") or {}
                    if (not worker["alive"]
                            or breaker.get("state", "closed") != "closed"):
                        degraded = True
            serving[name] = entry
        payload: Dict[str, object] = {
            "status": "degraded" if degraded else "ok",
            "models": len(self.store),
            "serving": serving,
        }
        if batcher_stats:
            payload["batching"] = batcher_stats
        return payload

    def close(self) -> None:
        """Release every cached engine (reaping worker processes) and
        batcher.  The app stays usable — the next request reloads — but the
        server shutdown path must call this so no worker outlives the
        front end."""
        with self._lock:
            engines, self._engines = dict(self._engines), {}
            self._batchers.clear()
        for _, engine, _ in engines.values():
            engine.close(wait=True)
