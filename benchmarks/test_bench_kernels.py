"""Micro-benchmarks of the interval-algebra kernels underlying every experiment.

These are not tied to a specific table/figure; they track the cost of the
interval matrix product (which dominates ISVD2/3/4 and the target-a
reconstruction) and of the full ISVD variants at the paper's default shape, so
performance regressions in the substrate are visible.

The kernel-comparison cases additionally publish (via ``extra_info``, exported
to the CI reproduced-numbers artifact) the wall-clock of each registered
interval-product kernel — the paper-faithful-but-unsound ``endpoint4``, the
sound-and-tight ``exact``, and Rump's sound midpoint-radius ``rump`` — and
assert the headline claim of the kernel subsystem: ``rump`` buys soundness
within ~1.5x of ``endpoint4`` at 512x512, while ``exact`` documents the real
cost of tightness (its mixed x mixed correction is O(n*m*p) elementwise work,
not BLAS).
"""

import time

import pytest

from repro.core.isvd import isvd
from repro.datasets.synthetic import SyntheticConfig, make_uniform_interval_matrix
from repro.interval.kernels import available_kernels, get_kernel
from repro.interval.linalg import interval_matmul
from repro.interval.random import random_interval_matrix

MATRIX = make_uniform_interval_matrix(SyntheticConfig(shape=(40, 250), rank=20), rng=7)

#: Mixed-sign dense-interval operand at the comparison shape: every entry is a
#: genuine interval and about half of them are negative (none straddles
#: zero), the case where ``endpoint4`` is unsound.
COMPARISON_SHAPE = 512
COMPARISON = random_interval_matrix(
    (COMPARISON_SHAPE, COMPARISON_SHAPE),
    interval_density=1.0, interval_intensity=1.0, value_range=(-1.0, 1.0), rng=11,
)

#: Wall-clock budget for ``rump`` relative to ``endpoint4`` (best-of timings).
RUMP_BUDGET = 1.5


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_interval_matmul(benchmark):
    """Interval Gram-matrix product M^T M at the paper's default shape."""
    result = benchmark(interval_matmul, MATRIX.T, MATRIX)
    assert result.shape == (250, 250)


@pytest.mark.parametrize("kernel", sorted(available_kernels()))
def test_bench_kernel_product(benchmark, kernel):
    """One 512x512 interval product per registered kernel, metadata attached."""
    info = get_kernel(kernel)
    result = benchmark.pedantic(
        interval_matmul, args=(COMPARISON, COMPARISON),
        kwargs={"kernel": kernel}, rounds=3, iterations=1,
    )
    assert result.shape == (COMPARISON_SHAPE, COMPARISON_SHAPE)
    benchmark.extra_info["kernel"] = info.key
    benchmark.extra_info["sound"] = info.sound
    benchmark.extra_info["tight"] = info.tight
    benchmark.extra_info["cost_class"] = info.cost


def test_bench_rump_within_budget_of_endpoint4(benchmark):
    """The headline trade: soundness (rump) within ~1.5x of the paper kernel.

    Compared on best-of wall-clocks so scheduler noise cannot fail the run;
    both numbers and their ratio land in the reproduced-numbers artifact.
    The gate is on mixed-sign operands, where ``endpoint4`` is unsound.
    ``exact`` is timed alongside for the record but has no budget — tightness
    is allowed to cost whatever it costs.
    """
    seconds = {
        kernel: _best_of(lambda k=kernel: interval_matmul(COMPARISON, COMPARISON, kernel=k))
        for kernel in available_kernels()
    }
    benchmark.extra_info.update(
        {f"{kernel}_ms": round(value * 1000.0, 3) for kernel, value in seconds.items()}
    )
    ratio = seconds["rump"] / seconds["endpoint4"]
    benchmark.extra_info["rump_over_endpoint4"] = round(ratio, 3)
    benchmark.extra_info["exact_over_endpoint4"] = round(
        seconds["exact"] / seconds["endpoint4"], 3)
    # Keep one measured round in the benchmark table itself.
    benchmark.pedantic(
        interval_matmul, args=(COMPARISON, COMPARISON), kwargs={"kernel": "rump"},
        rounds=1, iterations=1,
    )
    assert ratio <= RUMP_BUDGET, (
        f"rump took {ratio:.2f}x endpoint4 wall-clock (budget {RUMP_BUDGET}x)"
    )


@pytest.mark.parametrize("kernel", ["endpoint4", "rump"])
def test_bench_isvd4_per_kernel(benchmark, kernel):
    """End-to-end ISVD4 cost under each production-viable kernel choice."""
    decomposition = benchmark.pedantic(
        isvd, args=(MATRIX, 20), kwargs={"target": "b", "kernel": kernel},
        rounds=2, iterations=1,
    )
    assert decomposition.rank == 20
    benchmark.extra_info["kernel"] = kernel


@pytest.mark.parametrize("method", ["isvd0", "isvd1", "isvd2", "isvd3", "isvd4"])
def test_bench_isvd_methods(benchmark, method):
    """End-to-end decomposition cost of each ISVD variant (default configuration)."""
    target = "c" if method == "isvd0" else "b"
    decomposition = benchmark.pedantic(
        isvd, args=(MATRIX, 20), kwargs={"method": method, "target": target},
        rounds=2, iterations=1,
    )
    assert decomposition.rank == 20
