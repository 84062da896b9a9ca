#!/usr/bin/env python
"""Build the tracked perf snapshot (``BENCH_<n>.json``) from a benchmark report.

Usage::

    python -m pytest benchmarks -q --benchmark-json=benchmark-report.json
    python benchmarks/make_snapshot.py benchmark-report.json BENCH_5.json

pytest-benchmark's raw report is per-run noise (machine info, timestamps,
every statistical moment); the snapshot distills the *reproduced numbers*
that define the perf trajectory — kernel wall-clocks, serving throughput,
the sparse-vs-dense gram comparison, and the sharded scatter-gather serving
numbers — into a small stable JSON that can
live in the repository and be diffed commit to commit.  CI regenerates it on
every run and uploads it as an artifact; the tracked copy in the repo root is
the reference point from the commit that introduced it.

The script fails when a required key is missing, so a benchmark silently
dropping its ``extra_info`` breaks the build instead of the trajectory.
"""

import json
import sys

#: Snapshot layout: section -> (source benchmark module, extra_info keys).
#: Harvesting is scoped per module because key names collide across suites
#: (test_bench_engine.py publishes its own "speedup", for instance) — an
#: unscoped merge would let whichever benchmark ran last own the headline.
SECTIONS = {
    "kernel": ("test_bench_kernels", (
        "endpoint4_ms", "exact_ms", "rump_ms",
        "rump_over_endpoint4", "exact_over_endpoint4",
    )),
    "serve": ("test_bench_serve", (
        "unbatched_qps", "batched_qps", "speedup",
        "qps", "blas_calls", "mean_batch",
        "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    )),
    "sparse": ("test_bench_sparse", (
        "shape", "density", "nnz",
        "sparse_gram_ms", "dense_gram_ms_measured", "dense_rows_measured",
        "dense_gram_ms_full_estimate", "sparse_speedup",
        "sparse_endpoint_mb", "dense_endpoint_mb", "sparse_storage_ratio",
    )),
    "shard": ("test_bench_shard", (
        "shards", "model_shape", "queries",
        "sharded_batched_qps", "sharded_unbatched_qps", "shard_speedup",
        "topk_sharded_ms", "topk_unsharded_ms",
        "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
        "parity_queries", "neighbor_sharded_ms", "neighbor_unsharded_ms",
        "scatter_block_mb", "monolithic_block_mb",
    )),
    "worker": ("test_bench_worker", (
        "shards", "model_shape", "queries", "usable_cores", "gate_active",
        "worker_batched_qps", "threads_batched_qps", "worker_over_threads",
        "latency_queries", "worker_row_qps",
        "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    )),
    "faults": ("test_bench_faults", (
        "shards", "model_shape", "restart_recovery_ms",
        "stall_queries", "stall_seconds", "call_timeout_s",
        "stall_p50_ms", "stall_p99_ms",
        "breaker_open_fail_fast_ms",
    )),
    "precision": ("test_bench_precision", (
        "shape", "rows_measured",
        "gram_f64_ms", "gram_f32_ms",
        "f32_speedup", "f32_storage_ratio",
        "sparse_f64_gram_ms", "sparse_f32_gram_ms",
        "sparse_f32_speedup", "sparse_f32_storage_ratio",
    )),
}

#: Section keys whose absence fails the build (the headline numbers).
REQUIRED = {
    "kernel": ("endpoint4_ms", "rump_ms", "rump_over_endpoint4"),
    "serve": ("batched_qps", "speedup", "latency_p95_ms"),
    "sparse": ("sparse_gram_ms", "sparse_speedup", "sparse_storage_ratio"),
    "shard": ("shards", "sharded_batched_qps", "shard_speedup",
              "latency_p95_ms"),
    "worker": ("worker_batched_qps", "worker_over_threads", "usable_cores",
               "latency_p95_ms"),
    "faults": ("restart_recovery_ms", "stall_p99_ms",
               "breaker_open_fail_fast_ms"),
    "precision": ("gram_f32_ms", "f32_speedup", "f32_storage_ratio"),
}


def build_snapshot(report: dict) -> dict:
    """Distill a pytest-benchmark JSON report into the snapshot layout."""
    per_module = {}
    for bench in report.get("benchmarks", ()):
        module = bench.get("fullname", "").split("::")[0]
        module = module.rsplit("/", 1)[-1].removesuffix(".py")
        per_module.setdefault(module, {}).update(bench.get("extra_info", {}))
    snapshot = {}
    for section, (module, keys) in SECTIONS.items():
        extras = per_module.get(module, {})
        missing = [key for key in REQUIRED[section] if key not in extras]
        if missing:
            raise SystemExit(
                f"benchmark report is missing {section} keys {missing} "
                f"(from {module}.py)"
            )
        snapshot[section] = {key: extras[key] for key in keys if key in extras}
    machine = report.get("machine_info", {})
    snapshot["meta"] = {
        "python_version": machine.get("python_version", "unknown"),
        "benchmarks": len(report.get("benchmarks", ())),
    }
    return snapshot


def main(argv):
    if len(argv) != 3:
        raise SystemExit(
            "usage: make_snapshot.py <benchmark-report.json> <snapshot-out.json>"
        )
    with open(argv[1]) as handle:
        report = json.load(handle)
    snapshot = build_snapshot(report)
    with open(argv[2], "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"perf snapshot written to {argv[2]}")
    for section, values in snapshot.items():
        if section != "meta":
            print(f"  {section}: {values}")


if __name__ == "__main__":
    main(sys.argv)
