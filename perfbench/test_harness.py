"""Self-test of the benchmark harness at tiny geometry.

Run from the repository root (the tier-1 suite does not collect this
directory)::

    python3 -m pytest perfbench -q

Nothing here depends on how many requests fit in a wall-clock window: the
end-to-end checks look only at metric names, units and correctness.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import httpload  # noqa: E402
import oracle  # noqa: E402


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--preset", "demo"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, trace, section", [
    ("serve-rows", 0, "end_to_end"),
    ("serve-workers-batch", 1, "per_layer"),
])
def test_printed_metrics_match_benchmark_json(workload, trace, section):
    spec = benchmark_spec()
    assert workload in {entry["name"] for entry in spec["workloads"]}
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in spec[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected


@pytest.fixture(scope="module")
def pool():
    from repro.core import registry
    from repro.datasets.ratings import make_sparse_rating_matrix
    from repro.serve.query import QueryEngine

    matrix = make_sparse_rating_matrix(preset="demo", n_users=300, seed=5)
    info = registry.get("isvd4")
    engine = QueryEngine(info.fit(matrix, 8, target=info.default_target))
    lower, upper = oracle.query_rows("demo", 4, engine.n_items, seed=6)
    return oracle.build_pool(engine, "recommend", "web", 5, lower, upper, 2)


def test_oracle_accepts_only_the_exact_reference_bytes(pool):
    reference = pool.expected(0)
    assert pool.check(0, 200, reference)
    assert not pool.check(0, 500, reference)
    # One flipped digit in one score is a different float: rejected.
    position = max(i for i, byte in enumerate(reference) if chr(byte).isdigit())
    digit = reference[position:position + 1]
    corrupted = (reference[:position] + (b"1" if digit != b"1" else b"2")
                 + reference[position + 1:])
    assert not pool.check(0, 200, corrupted)
    # A correct answer to another body is also rejected.
    assert not pool.check(0, 200, pool.expected(1))


def test_request_bodies_carry_the_id_and_stay_valid_json(pool):
    body = json.loads(pool.body(1, 4242))
    assert body["id"] == 4242 and body["k"] == 5
    assert np.asarray(body["lower"]).shape == (2, len(body["lower"][0]))


def test_tracer_refuses_to_run_when_a_traced_function_is_gone(tmp_path):
    # A renamed layer must stop the traced run, not read 0 in its metrics.
    script = (
        "import sys, tracer\n"
        "points = tracer.trace_points\n"
        "tracer.trace_points = lambda hops: points(hops) + "
        "[('serve.http:ServingApp.renamed', 'app', None)]\n"
        "sys.exit(tracer.main([sys.argv[1], 'list-methods']))\n")
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "spans.json")],
        cwd=HERE, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert completed.returncode == 2
    assert "serve.http:ServingApp.renamed" in completed.stderr
    assert not (tmp_path / "spans.json").exists()


class SlowClient:
    """Answers every request after ``delay`` seconds, successfully."""

    base = 100

    def __init__(self, delay: float):
        self.delay = delay

    def call(self, index: int):
        time.sleep(self.delay)
        return True, time.perf_counter(), 1


def test_open_loop_times_requests_from_their_due_time():
    # Requests are due every 10 ms but each takes 30 ms: the generator falls
    # further behind with every request, and each latency must include the
    # wait since the request was due, not just its own 30 ms.
    start = time.perf_counter() + 0.01
    samples = httpload.open_loop(SlowClient(0.03), 5, 100.0, start)
    for index, sample in enumerate(samples):
        assert sample.request_id == 100 + index
        assert sample.due == pytest.approx(start + index * 0.01)
        assert sample.latency == sample.done - sample.due
        assert sample.sent - sample.due >= 0.02 * index - 1e-3
        assert sample.latency >= 0.03 + 0.02 * index - 1e-3


def test_failed_requests_count_as_infinitely_slow():
    sample = httpload.Sample(1, 0.0, 0.0, 0.5, ok=False)
    assert sample.latency == float("inf")
    assert httpload.percentile([1.0, 2.0, float("inf")], 0.95) == float("inf")


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert httpload.percentile(values, 0.5) == 100
    assert httpload.percentile(values, 0.95) == 190
    assert sum(value > httpload.percentile(values, 0.95) for value in values) == 10
