"""Traced launcher: the ``repro`` CLI with spans around its public layers.

Usage::

    python3 perfbench/tracer.py SPANS.json <repro arguments...>

Before dispatching to :func:`repro.cli.main`, the launcher replaces public
functions and methods of each layer (front end, store, batching, shard
router, query engine, fold-in, worker supervisor, framing, fit, kernels,
I/O, data generation) with wrappers that record a span: name, start, end,
the span that caused it, and a few attributes (request id, rows, bytes).
Spans stay in memory and are written to ``SPANS.json`` when the program
exits — for ``serve``, after Ctrl-C (SIGINT) shuts the server down.

Scatter pools do not inherit the caller's thread-local span stack, so the
routers' ``_run`` is wrapped to carry the parent span into pool threads.
Worker processes are not traced; the front end sees them through
``ShardWorkerSupervisor.call``.  A sample of those calls is replayed after
shutdown on an in-process ``QueryEngine`` of the same shard, which prices
the compute part of each call and so isolates the worker hop.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Keep every Nth replayable worker call for the hop replay.
HOP_SAMPLE_EVERY = 4
HOP_SAMPLE_LIMIT = 256
HOP_OPS = ("reconstruct_rows", "top_k_items", "squared_distances", "candidates")

Info = Callable[[tuple, dict, object, float], Optional[Dict[str, object]]]


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str,
             info: Optional[Info] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, info))

    def traced(self, original: Callable, name: str,
               info: Optional[Info] = None) -> Callable:
        """``original`` recording a ``name`` span per call; ``info`` turns
        ``(args, kwargs, result, seconds)`` into the span's attributes."""
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if info is not None:
                    try:
                        attrs = info(args, kwargs, result, end - start)
                    except Exception as error:  # attributes must never break a call
                        attrs = {"info_error": repr(error)}
                recorder.spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def carry_context(self, owner: type) -> None:
        """Make ``owner._run(tasks)`` run each task under the caller's span."""
        original = owner._run
        recorder = self

        @functools.wraps(original)
        def run(engine, tasks):
            stack = recorder._stack()
            parent = stack[-1] if stack else None

            def bind(task):
                def bound():
                    saved = getattr(recorder._local, "stack", None)
                    recorder._local.stack = [] if parent is None else [parent]
                    try:
                        return task()
                    finally:
                        recorder._local.stack = saved
                return bound

            return original(engine, [bind(task) for task in tasks])

        owner._run = run


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 0


def _resolve(path: str):
    """``"serve.http:ServingApp.recommend"`` -> ``(owner, attribute)``, or
    ``None`` when the module, class or attribute no longer exists."""
    module_name, _, dotted = path.partition(":")
    try:
        # import_module, not ``from package import name``: some packages
        # re-export a function under the name of its module.
        owner = importlib.import_module(f"repro.{module_name}")
    except ImportError:
        return None
    *owners, attribute = dotted.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attribute):
        return None
    return owner, attribute


ROUTER_METHODS = ("reconstruct_rows", "top_k_items", "neighbor_squared_distances",
                  "neighbor_distances", "nearest_neighbor_candidates",
                  "nearest_neighbors", "scores_for_users", "top_k_for_users")
ENGINE_METHODS = ("reconstruct_rows", "scores_for_users", "top_k_items",
                  "neighbor_squared_distances", "squared_distances_to_references",
                  "neighbor_distances", "top_k_for_users", "nearest_neighbors")
FOLDIN_METHODS = ("fold_in", "fold_in_interval", "latent_features",
                  "reconstruct_rows")
#: Modules that import these functions by name, so they are rebound there too.
REBIND = {"top_k": ("serve.shard", "serve.worker", "serve.http"),
          "top_k_from_candidates": ("serve.shard", "serve.worker", "serve.http"),
          "interval_gram": ("core.isvd",)}


def trace_points(hops: dict) -> List[tuple]:
    """``(path, span name, attributes)`` of every wrapped function."""

    def request(route):
        def info(args, kwargs, result, seconds):
            payload = args[1] if len(args) > 1 else {}
            return {"id": payload.get("id"), "route": route}
        return info

    def rows(args, kwargs, result, seconds):
        return {"rows": _rows(args[1])}

    def call(args, kwargs, result, seconds):
        supervisor, shard_index, header = args[0], args[1], args[2]
        arrays = args[3] if len(args) > 3 else kwargs.get("arrays", ())
        op = header.get("op")
        hops["calls"] = hops.get("calls", 0) + 1
        if (op in HOP_OPS and result is not None
                and hops["calls"] % HOP_SAMPLE_EVERY == 0
                and len(hops["samples"]) < HOP_SAMPLE_LIMIT):
            hops["context"] = supervisor
            hops["samples"].append((shard_index, dict(header),
                                    [a.copy() for a in arrays],
                                    time.perf_counter() - seconds, seconds))
        return {"op": op, "shard": shard_index}

    def fit(args, kwargs, result, seconds):
        return {"timings": dict(getattr(result, "timings", {}) or {})}

    return [
        ("serve.http:ServingApp.recommend", "app", request("recommend")),
        ("serve.http:ServingApp.neighbors", "app", request("neighbors")),
        ("serve.http:rows_from_payload", "http.rows_from_payload", None),
        ("serve.store:ModelStore.record", "store.record", None),
        ("serve.shard:ShardedModelStore.load_shards", "store.load", None),
        ("serve.worker:WorkerShardedQueryEngine.__init__", "store.load", None),
        ("serve.shard:ShardedModelStore.save_sharded", "store.save_sharded", None),
        ("serve.batching:MicroBatcher.submit", "batching.submit", None),
        *((f"serve.shard:ShardedQueryEngine.{name}", "shard.route", None)
          for name in ROUTER_METHODS),
        *((f"serve.query:QueryEngine.{name}", "query.engine", None)
          for name in ENGINE_METHODS),
        ("serve.query:top_k", "query.top_k", None),
        ("serve.query:top_k_from_candidates", "query.top_k", None),
        *((f"serve.foldin:FoldInProjector.{name}", "foldin", rows)
          for name in FOLDIN_METHODS),
        ("serve.worker:ShardWorkerSupervisor.call", "worker.call", call),
        ("serve.worker:ShardWorkerSupervisor._exchange", "worker.exchange", None),
        ("serve.protocol:encode_frame", "protocol.encode",
         lambda a, k, result, seconds: {"bytes": len(result or b"")}),
        ("serve.protocol:_decode_body", "protocol.decode",
         lambda a, k, result, seconds: {"bytes": len(a[0])}),
        ("core.registry:FactorizerInfo.fit", "isvd.fit", fit),
        ("interval.linalg:interval_gram", "kernels.gram", None),
        ("io:load_interval_npz", "io.load_npz", None),
        ("io:interval_fingerprint", "io.fingerprint", None),
        ("io:decomposition_fingerprint", "io.fingerprint", None),
        ("datasets.ratings:make_sparse_rating_matrix", "ratings.generate", None),
    ]


def install(recorder: Recorder, hops: dict) -> List[str]:
    """Wrap every traced layer; returns the paths that no longer exist.

    Their metrics would read 0 rather than measure anything, so the
    launcher refuses to run when any path is returned.
    """
    missing = []
    for path, name, info in trace_points(hops):
        found = _resolve(path)
        if found is None:
            missing.append(path)
            continue
        owner, attribute = found
        original = getattr(owner, attribute)
        traced = recorder.traced(original, name, info)
        setattr(owner, attribute, traced)
        for module_name in REBIND.get(attribute, ()):
            module = importlib.import_module(f"repro.{module_name}")
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, traced)

    for path in ("serve.shard:ShardedQueryEngine._run",
                 "serve.worker:WorkerShardedQueryEngine._run"):
        found = _resolve(path)
        if found is None:
            missing.append(path)
        else:
            recorder.carry_context(found[0])

    found = _resolve("serve.batching:MicroBatcher.__init__")
    if found is None:
        missing.append("serve.batching:MicroBatcher.__init__")
        return missing
    batcher = found[0]
    batcher_init = batcher.__init__

    def init(self, run_batch, *args, **kwargs):
        run_batch = recorder.traced(
            run_batch, "batching.run",
            lambda a, k, result, seconds: {"size": len(a[0])})
        batcher_init(self, run_batch, *args, **kwargs)

    batcher.__init__ = init
    return missing


def replay_hops(hops: dict) -> List[list]:
    """``[op, call_start, call_s, replay_s]`` per sampled worker call: the
    same frame executed on an in-process engine of the same shard (best of
    three)."""
    supervisor = hops.get("context")
    if supervisor is None:
        return []
    from repro.serve import worker
    from repro.serve.query import QueryEngine
    from repro.serve.shard import ShardedModelStore

    store = ShardedModelStore(supervisor.directory)
    engines = {}
    replayed = []
    for shard_index, header, arrays, call_start, call_s in hops["samples"]:
        if shard_index not in engines:
            decomposition, _ = store.load_shard(supervisor.name, shard_index,
                                                manifest=supervisor.manifest)
            engines[shard_index] = (
                QueryEngine(decomposition, kernel=supervisor.kernel_key),
                supervisor.manifest.row_ranges[shard_index][0])
        engine, row_start = engines[shard_index]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            worker._run_op(engine, row_start, header["op"], header, arrays)
            best = min(best, time.perf_counter() - start)
        replayed.append([header["op"], call_start, call_s, best])
    return replayed


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    hops: dict = {"samples": []}
    missing = install(recorder, hops)
    if missing:
        print("perfbench tracer: the program no longer has "
              + ", ".join(missing)
              + "; update trace_points() in perfbench/tracer.py",
              file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.enabled = False
        spans = list(recorder.spans)
        with open(spans_path, "w") as handle:
            json.dump({"spans": spans, "hops": replay_hops(hops)}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
