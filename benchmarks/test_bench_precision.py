"""float32 precision mode: gram wall-clock and endpoint storage at webscale.

The PR-10 tentpole gate: at the webscale preset geometry (100k x 2k rating
matrix), the dense interval Gram at float32 must run **>= 1.8x faster** than
float64 and hold its endpoints in **~2x less memory** (gated at >= 1.9x —
exactly 2.0 for raw endpoint arrays).

The dense Gram is measured on a row subsample, the same honesty device
test_bench_sparse.py uses: the Gram is an exact sum over rows, so wall-clock
scales linearly in rows and the float32/float64 *ratio* is row-count
invariant — the published ``rows_measured`` records what was timed.

The sparse path is recorded ungated too: CSR index arrays don't shrink with
the value dtype, so its float32 speedup (~1.2x) and storage ratio (~1.5x)
are structurally below the dense gates — publishing the real numbers beats
pretending the gate applies.

Soundness is asserted in the same run: the float32 Gram must contain a
float64-computed member Gram, so the speed being gated is the speed of a
*sound* enclosure, not of a kernel that quietly dropped its inflation.

The matrix, its dense subsample and the timed float64 sparse Gram are
session fixtures of ``benchmarks/conftest.py``, shared with
test_bench_sparse.py.
"""

import time

import numpy as np

from repro.datasets.ratings import SPARSE_SCALE_PRESETS
from repro.interval.linalg import interval_gram

#: The webscale geometry the gate is defined at: 100k x 2k at 1% density.
PRESET = SPARSE_SCALE_PRESETS["webscale"]

#: Gates from the issue's acceptance criteria.
MIN_F32_SPEEDUP = 1.8
MIN_F32_STORAGE_RATIO = 1.9


def _interleaved_best(fns, rounds=3):
    """Best-of-``rounds`` wall-clock per fn, rounds interleaved across fns.

    The gate is a *ratio* of two measurements, so drift (BLAS threadpool
    state, allocator pressure from earlier suites) must hit both sides
    equally: each fn runs once unmeasured to warm up, then the timed rounds
    alternate f64/f32 instead of timing one dtype's block after the other.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_bench_precision_gram_float32_vs_float64(benchmark, webscale_sparse,
                                                webscale_dense_sample):
    """The tentpole gate: >=1.8x wall-clock, ~2x endpoint storage at f32."""
    n_users, n_items = webscale_sparse.shape
    assert (n_users, n_items) == (PRESET.n_users, PRESET.n_items)
    dense = webscale_dense_sample
    dense32 = dense.astype(np.float32, outward=True)

    f64_seconds, f32_seconds = _interleaved_best(
        [lambda: interval_gram(dense), lambda: interval_gram(dense32)])
    # Keep one measured round in the benchmark table itself (the float32
    # path is the one the gate certifies).
    gram32 = benchmark.pedantic(interval_gram, args=(dense32,),
                                rounds=1, iterations=1)
    assert gram32.dtype == np.float32

    # Sound-enclosure spot check in the same run: a float64 member Gram must
    # land inside the float32 result.
    member = np.random.default_rng(0).uniform(dense32.lower, dense32.upper)
    member_gram = member.T @ member
    assert np.all(gram32.lower.astype(np.float64) <= member_gram)
    assert np.all(gram32.upper.astype(np.float64) >= member_gram)

    f64_bytes = dense.lower.nbytes + dense.upper.nbytes
    f32_bytes = dense32.lower.nbytes + dense32.upper.nbytes
    speedup = f64_seconds / f32_seconds
    storage_ratio = f64_bytes / f32_bytes

    benchmark.extra_info["shape"] = f"{n_users}x{n_items}"
    benchmark.extra_info["rows_measured"] = dense.shape[0]
    benchmark.extra_info["gram_f64_ms"] = round(f64_seconds * 1000.0, 1)
    benchmark.extra_info["gram_f32_ms"] = round(f32_seconds * 1000.0, 1)
    benchmark.extra_info["f32_speedup"] = round(speedup, 2)
    benchmark.extra_info["f32_storage_ratio"] = round(storage_ratio, 2)

    assert speedup >= MIN_F32_SPEEDUP, (
        f"float32 gram only {speedup:.2f}x faster than float64 "
        f"(gate: {MIN_F32_SPEEDUP}x)"
    )
    assert storage_ratio >= MIN_F32_STORAGE_RATIO, (
        f"float32 endpoints only {storage_ratio:.2f}x smaller than float64 "
        f"(gate: {MIN_F32_STORAGE_RATIO}x)"
    )


def test_bench_precision_sparse_gram(benchmark, webscale_sparse,
                                     webscale_sparse_gram_seconds):
    """Ungated: the sparse path's real float32 numbers at full webscale.

    CSR indices stay 8/4-byte regardless of the value dtype, so neither the
    dense speedup nor the dense storage ratio is reachable here; the
    snapshot records what float32 actually buys on this path.
    """
    sparse32 = webscale_sparse.astype(np.float32, outward=True)
    f64_seconds = webscale_sparse_gram_seconds
    start = time.perf_counter()
    interval_gram(sparse32)
    f32_seconds = time.perf_counter() - start
    gram32 = benchmark.pedantic(interval_gram, args=(sparse32,),
                                rounds=1, iterations=1)
    assert gram32.dtype == np.float32

    benchmark.extra_info["sparse_f64_gram_ms"] = round(f64_seconds * 1000.0, 1)
    benchmark.extra_info["sparse_f32_gram_ms"] = round(f32_seconds * 1000.0, 1)
    benchmark.extra_info["sparse_f32_speedup"] = round(
        f64_seconds / f32_seconds, 2)
    benchmark.extra_info["sparse_f32_storage_ratio"] = round(
        webscale_sparse.endpoint_nbytes() / sparse32.endpoint_nbytes(), 2)
