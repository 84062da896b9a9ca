"""Sparse vs dense interval linear algebra at past-dense-memory scale.

The gate of the PR-4 tentpole: the ISVD Gram step on a 100k x 2k rating
matrix at 1% density must run **>= 5x faster** and hold its endpoints in
**>= 10x less memory** through the sparse path than through the dense path.

The sparse side is measured directly at full scale (the whole point is that
it fits: ~40 MB of CSR endpoints).  The dense side *cannot* be measured
honestly at full scale inside a smoke benchmark — its endpoint pair alone is
3.2 GB and the four Gram products are ~3.2 TFLOP, minutes of wall-clock on a
CI runner — so it is measured on a row subsample and extrapolated linearly:
the Gram product ``MᵀM = Σ_rows mᵀm`` is an exact sum over rows, so both its
FLOPs and its wall-clock scale linearly in the row count (the published
``dense_rows_measured`` records the subsample so the artifact is honest about
what was timed).  The dense storage figure is exact arithmetic
(``2 * n * m * 8`` bytes), not an estimate.

A parity case pins correctness at the same time: on the shared subsample the
sparse and dense Gram endpoints agree to tight tolerance (bit-for-bit parity
on exactly-representable data is covered by tests/test_interval_sparse.py).

The matrix, its dense subsample and the timed sparse Gram are session
fixtures of ``benchmarks/conftest.py``, shared with test_bench_precision.py.
"""

import time

import numpy as np

from repro.core.isvd import isvd
from repro.datasets.ratings import SPARSE_SCALE_PRESETS, make_sparse_rating_matrix
from repro.interval.linalg import interval_gram

#: Full benchmark geometry (the ISSUE's gate): 100k x 2k at 1% density.
PRESET = SPARSE_SCALE_PRESETS["webscale"]

#: Gates from the issue's acceptance criteria.
MIN_SPEEDUP = 5.0
MIN_STORAGE_RATIO = 10.0


def _best_of(fn, rounds=2):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_sparse_gram_vs_dense(benchmark, webscale_sparse,
                                    webscale_dense_sample,
                                    webscale_sparse_gram_seconds):
    """The tentpole gate: >=5x wall-clock, >=10x endpoint storage at webscale."""
    n_users, n_items = webscale_sparse.shape
    assert (n_users, n_items) == (PRESET.n_users, PRESET.n_items)
    dense_rows = webscale_dense_sample.shape[0]

    dense_sample_seconds = _best_of(lambda: interval_gram(webscale_dense_sample))
    dense_full_estimate = dense_sample_seconds * (n_users / dense_rows)
    sparse_seconds = webscale_sparse_gram_seconds
    # Keep one measured round in the benchmark table itself (the sparse path
    # is the production one).
    gram = benchmark.pedantic(interval_gram, args=(webscale_sparse,),
                              rounds=1, iterations=1)
    assert gram.shape == (n_items, n_items)

    sparse_bytes = webscale_sparse.endpoint_nbytes()
    dense_bytes = 2 * n_users * n_items * 8  # exact: two float64 endpoint arrays
    speedup = dense_full_estimate / sparse_seconds
    storage_ratio = dense_bytes / sparse_bytes

    benchmark.extra_info["shape"] = f"{n_users}x{n_items}"
    benchmark.extra_info["density"] = round(webscale_sparse.density, 5)
    benchmark.extra_info["nnz"] = webscale_sparse.nnz
    benchmark.extra_info["sparse_gram_ms"] = round(sparse_seconds * 1000.0, 1)
    benchmark.extra_info["dense_gram_ms_measured"] = round(
        dense_sample_seconds * 1000.0, 1)
    benchmark.extra_info["dense_rows_measured"] = dense_rows
    benchmark.extra_info["dense_gram_ms_full_estimate"] = round(
        dense_full_estimate * 1000.0, 1)
    benchmark.extra_info["sparse_speedup"] = round(speedup, 2)
    benchmark.extra_info["sparse_endpoint_mb"] = round(sparse_bytes / 1e6, 1)
    benchmark.extra_info["dense_endpoint_mb"] = round(dense_bytes / 1e6, 1)
    benchmark.extra_info["sparse_storage_ratio"] = round(storage_ratio, 1)

    assert speedup >= MIN_SPEEDUP, (
        f"sparse gram only {speedup:.1f}x faster than the dense path "
        f"(gate: {MIN_SPEEDUP}x)"
    )
    assert storage_ratio >= MIN_STORAGE_RATIO, (
        f"sparse endpoints only {storage_ratio:.1f}x smaller than dense "
        f"(gate: {MIN_STORAGE_RATIO}x)"
    )


def test_bench_sparse_gram_parity(benchmark, webscale_sparse,
                                  webscale_dense_sample):
    """Sparse and dense Gram agree on the shared subsample (float tolerance)."""
    dense_rows = webscale_dense_sample.shape[0]
    sparse_sample = webscale_sparse.rows(np.arange(dense_rows))
    result = benchmark.pedantic(interval_gram, args=(sparse_sample,),
                                rounds=1, iterations=1)
    reference = interval_gram(webscale_dense_sample)
    assert result.allclose(reference, atol=1e-8, rtol=1e-10)
    benchmark.extra_info["parity_rows"] = dense_rows


def test_bench_sparse_isvd_end_to_end(benchmark):
    """Full ISVD4 on a sparse matrix whose dense form would be ~1.3 GB.

    Ungated: records that the whole decomposition (gram + eigh + interval U/V
    recovery) completes at a scale the dense path cannot hold comfortably,
    and how long it takes.
    """
    matrix = make_sparse_rating_matrix(preset=None, n_users=20_000, n_items=400,
                                       density=0.02, seed=7)
    decomposition = benchmark.pedantic(
        isvd, args=(matrix, 8), kwargs={"method": "isvd4", "target": "b"},
        rounds=1, iterations=1,
    )
    assert decomposition.rank == 8
    assert decomposition.shape == (20_000, 400)
    benchmark.extra_info["sparse_isvd_shape"] = "20000x400"
    benchmark.extra_info["sparse_isvd_nnz"] = matrix.nnz
