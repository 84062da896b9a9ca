"""Per-layer metrics from the spans of a traced run.

A span is ``(id, parent, name, start, end, attrs)`` as written by
``tracer.py``.  Request-scoped figures count only spans descending from an
``app`` span (``ServingApp.recommend`` / ``.neighbors``) that started inside
the measured window, and are given per request: total busy time of the
layer's outermost spans divided by the requests served.  A layer's self
time is its span's duration minus the part of that interval its child
layer's spans cover.  ``README.md`` lists which end-to-end metric each
figure should move.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import httpload

Span = Tuple[int, Optional[int], str, float, float, Optional[dict]]


class Trace:
    """Spans of one traced process, indexed for ancestry queries."""

    def __init__(self, spans: Sequence[Span], hops: Sequence[list] = ()):
        self.spans = [tuple(span) for span in spans]
        self.hops = list(hops)
        self.by_id = {span[0]: span for span in self.spans}
        self._app: Dict[int, Optional[Span]] = {}

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[2] == name]

    def ancestors(self, span: Span) -> Iterable[Span]:
        parent = span[1]
        while parent is not None and parent in self.by_id:
            span = self.by_id[parent]
            yield span
            parent = span[1]

    def app_of(self, span: Span) -> Optional[Span]:
        """The request (``app`` span) a span ran for, if any."""
        if span[0] not in self._app:
            found = span if span[2] == "app" else None
            if found is None:
                found = next((a for a in self.ancestors(span) if a[2] == "app"), None)
            self._app[span[0]] = found
        return self._app[span[0]]

    def outermost(self, name: str) -> List[Span]:
        """Spans of ``name`` not nested inside another span of ``name``."""
        return [span for span in self.named(name)
                if not any(a[2] == name for a in self.ancestors(span))]

    def total(self, name: str) -> float:
        return sum(span[4] - span[3] for span in self.outermost(name))


def load_trace(path: Path) -> Trace:
    with open(path) as handle:
        payload = json.load(handle)
    return Trace(payload["spans"], payload["hops"])


def duration(span: Span) -> float:
    return span[4] - span[3]


def covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Window:
    """The request-scoped view of a serving trace."""

    def __init__(self, trace: Trace, start: float, end: float):
        self.trace = trace
        self.apps = {span[0]: span for span in trace.named("app")
                     if start <= span[3] <= end}
        self.requests = max(1, len(self.apps))

    def spans(self, name: str, outermost: bool = True) -> List[Span]:
        spans = self.trace.outermost(name) if outermost else self.trace.named(name)
        return [span for span in spans
                if (self.trace.app_of(span) or (None,))[0] in self.apps]

    def per_request_ms(self, name: str) -> float:
        return sum(map(duration, self.spans(name))) * 1000.0 / self.requests

    def per_request(self, name: str, attr: str) -> float:
        return sum((span[5] or {}).get(attr, 0)
                   for span in self.spans(name, outermost=False)) / self.requests


def frontend(window: Window, samples: Sequence[httpload.Sample]
             ) -> Tuple[float, float]:
    """Median front-end time and app time of client requests, matched to
    their ``app`` spans by the body's id."""
    app_by_id = {(span[5] or {}).get("id"): span for span in window.apps.values()}
    outside, inside = [], []
    for sample in samples:
        span = app_by_id.get(sample.request_id)
        if sample.ok and span is not None:
            inside.append(duration(span) * 1000.0)
            outside.append((sample.done - sample.sent) * 1000.0 - inside[-1])
    return (statistics.median(outside) if outside else 0.0,
            statistics.median(inside) if inside else 0.0)


def per_layer_metrics(serve: Trace, decompose: Trace, generate: Trace,
                      measured: dict, health: dict, untraced: dict,
                      imports: Dict[str, float], failed_frac: float
                      ) -> Dict[str, float]:
    window = Window(serve, *measured["window"])
    request_ms, app_ms = frontend(window, measured["closed"]["recommend"])

    submits = window.spans("batching.submit")
    runs = window.spans("batching.run")
    batched = sum((span[5] or {}).get("size", 0) for span in runs)
    wait_ms = 0.0
    if submits and batched:
        wait_ms = (mean([duration(s) for s in submits])
                   - sum(duration(s) * s[5]["size"] for s in runs) / batched) * 1000.0
    batch_stats = list((health.get("batching") or {}).values())
    batches = sum(stat.get("batches_run") or 0 for stat in batch_stats)
    served = sum(stat.get("requests_served") or 0 for stat in batch_stats)

    routes = window.spans("shard.route")
    route_ids = {span[0] for span in routes}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in window.spans("query.engine"):
        owner = next((a[0] for a in serve.ancestors(span) if a[0] in route_ids), None)
        if owner is not None:
            children.setdefault(owner, []).append((span[3], span[4]))
    route_self = sum(duration(span) - covered(children.get(span[0], []), span[3], span[4])
                     for span in routes)

    folds = window.spans("foldin")
    calls = [span for span in window.spans("worker.call", outermost=False)
             if (span[5] or {}).get("op") != "ping"]
    exchanges = window.spans("worker.exchange", outermost=False)
    restarts = sum(worker.get("restarts", 0)
                   for entry in (health.get("serving") or {}).values()
                   for worker in entry.get("workers") or [])
    start, end = measured["window"]
    hops = [(call_s - replay_s) * 1000.0
            for _, call_start, call_s, replay_s in serve.hops
            if start <= call_start <= end]

    fits = decompose.named("isvd.fit")
    timings: Dict[str, float] = {}
    for span in fits:
        for phase, seconds in ((span[5] or {}).get("timings") or {}).items():
            timings[phase] = timings.get(phase, 0.0) + seconds
    traced_p50 = measured["recommend_p50_ms"]

    return {
        "recommend_p95_ms": measured["recommend_p95_ms"],
        "neighbors_p95_ms": measured["neighbors_p95_ms"],
        "frontend.request_ms": request_ms,
        "frontend.app_ms": app_ms,
        "http.rows_from_payload_ms": window.per_request_ms("http.rows_from_payload"),
        "store.record_ms": window.per_request_ms("store.record"),
        "store.record_calls": len(window.spans("store.record")) / window.requests,
        "store.load_s": serve.total("store.load"),
        "store.save_sharded_s": decompose.total("store.save_sharded"),
        "batching.submit_ms": mean([duration(s) for s in submits]) * 1000.0,
        "batching.wait_ms": wait_ms,
        "batching.mean_batch": served / batches if batches else 0.0,
        "batching.batches": float(batches),
        "shard.route_ms": sum(map(duration, routes)) * 1000.0 / window.requests,
        "shard.route_self_ms": route_self * 1000.0 / window.requests,
        "query.engine_ms": window.per_request_ms("query.engine"),
        "query.top_k_ms": window.per_request_ms("query.top_k"),
        "foldin.ms": window.per_request_ms("foldin"),
        "foldin.rows_per_call": mean([(s[5] or {}).get("rows", 0) for s in folds]),
        "worker.call_ms": mean([duration(s) for s in calls]) * 1000.0,
        "worker.calls_per_request": len(calls) / window.requests,
        "worker.hop_ms": mean(hops),
        "worker.retries": float(max(0, len(exchanges) - len(
            window.spans("worker.call", outermost=False)))),
        "worker.restarts": float(restarts),
        "worker.import_ms": imports["worker.import_ms"],
        "cli.import_ms": imports["cli.import_ms"],
        "protocol.encode_ms": window.per_request_ms("protocol.encode"),
        "protocol.decode_ms": window.per_request_ms("protocol.decode"),
        "protocol.bytes_out": window.per_request("protocol.encode", "bytes"),
        "protocol.bytes_in": window.per_request("protocol.decode", "bytes"),
        "isvd.fit_s": sum(map(duration, fits)),
        "isvd.preprocessing_s": timings.get("preprocessing", 0.0),
        "isvd.decomposition_s": timings.get("decomposition", 0.0),
        "isvd.alignment_s": timings.get("alignment", 0.0),
        "isvd.recomposition_s": timings.get("recomposition", 0.0),
        "kernels.gram_s": decompose.total("kernels.gram"),
        "kernels.gram_calls": float(len(decompose.outermost("kernels.gram"))),
        "io.load_npz_s": decompose.total("io.load_npz"),
        "io.fingerprint_s": decompose.total("io.fingerprint"),
        "io.fingerprint_load_s": serve.total("io.fingerprint"),
        "ratings.generate_s": generate.total("ratings.generate"),
        "server.cpu_ms_per_request": untraced["cpu_ms_per_request"],
        "client.late_ms": untraced["late_p95_ms"],
        "tracing.overhead_frac": traced_p50 / untraced["recommend_p50_ms"] - 1.0,
        "slo_miss_frac": untraced["slo_miss_frac"],
        "failed_frac": failed_frac,
    }
