"""Online serving of fitted interval decompositions.

The subsystem has seven layers, each usable on its own (see
``docs/ARCHITECTURE.md`` for the data-flow walkthrough):

* :class:`~repro.serve.store.ModelStore` — the directory of published
  models (a JSON manifest plus row-range shard archives per name): lists,
  inspects and deletes them;
* :class:`~repro.serve.foldin.FoldInProjector` — maps unseen interval rows
  into a stored model's latent space via least squares, so queries never
  re-run a factorization;
* :class:`~repro.serve.query.QueryEngine` — batched, vectorized top-k
  recommendation and nearest-neighbour retrieval over one model, with
  :class:`~repro.serve.batching.MicroBatcher` stacking concurrent
  single-row queries into one batched einsum product;
* :mod:`repro.serve.shard` — row-range sharding:
  :class:`~repro.serve.shard.ShardPlanner` splits a model along the user
  dimension, :class:`~repro.serve.shard.ShardedModelStore` publishes
  every model as generation-versioned per-shard archives (hitless
  republish) and loads them, and
  :class:`~repro.serve.shard.ShardedQueryEngine` — the one scatter-gather
  router — answers item-space queries (``/recommend``) from its shared
  fold-in projector, scatters reference-space queries across its shards
  and gathers with a byte-stable merge, calling each shard through one
  small interface, so the same router serves in-process shards and worker
  processes;
* :mod:`repro.serve.protocol` — the length-prefixed npy frame format
  between the front end and shard workers (no pickle on the wire);
* :mod:`repro.serve.worker` — per-shard **worker processes**:
  :class:`~repro.serve.worker.ShardWorkerSupervisor` spawns, health-checks
  and restarts one worker per shard, and
  :class:`~repro.serve.worker.WorkerShardedQueryEngine` is the router over
  them — it only builds worker shards, so every answer is the router's;
  :mod:`repro.serve.resilience` supplies the deadlines, retry backoff,
  per-shard circuit breakers and shard-call errors that keep one stalled
  or crash-looping worker from taking the service with it (only
  shard-backed queries can see a worker fail), and
  :mod:`repro.serve.faults` is the deterministic fault-injection harness
  the chaos test tier proves all of it against;
* :mod:`repro.serve.http` / :mod:`repro.serve.async_http` — a stdlib-only
  HTTP JSON service (``/models``, ``/recommend``, ``/neighbors``,
  ``/healthz``) exposed by the CLI as ``repro serve`` / ``repro query``:
  :class:`~repro.serve.http.ServingApp` holds the engines and batchers, and
  one asyncio front end (:func:`create_server`) serves it for every
  backend, parsing requests on the event loop so slow clients cannot
  exhaust executor threads.
"""

import importlib

# Exported names resolve on first access (PEP 562), so importing one
# submodule does not pull in the rest: a shard worker never loads the HTTP
# front end, asyncio or the micro-batcher.  No name below is also the name
# of a submodule, so an imported submodule can never shadow an export.
_EXPORTS = {
    "async_http": ("AsyncServingServer", "create_server"),
    "batching": ("MicroBatcher",),
    "faults": ("FaultInjected", "FaultPlan", "FaultSpecError"),
    "foldin": ("FoldInProjector",),
    "http": ("ServingApp",),
    "protocol": ("ProtocolError", "decode_frame", "encode_frame",
                 "read_frame", "write_frame"),
    "query": ("QueryEngine", "TopKResult", "top_k", "top_k_from_candidates"),
    "resilience": ("CircuitBreaker", "Deadline", "DeadlineExceededError",
                   "RetryPolicy", "ShardUnavailableError", "WorkerError",
                   "WorkerRequestError", "collect_missing_shards",
                   "current_deadline", "deadline_scope"),
    "shard": ("ShardedModelStore", "ShardedQueryEngine", "ShardManifest",
              "ShardPlanner", "merge_shards", "plan_row_ranges",
              "usable_cpu_count"),
    "store": ("ModelRecord", "ModelStore", "ModelStoreError"),
    "worker": ("ShardWorkerSupervisor", "WorkerShardedQueryEngine"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
