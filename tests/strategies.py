"""Shared hypothesis strategies and random-matrix builders for the suite.

One home for the generator idioms the property tiers kept reinventing:
bounded float draws, random dense interval-matrix pairs, integer-valued
sparse patterns, real-valued models with query rows and random row
splits, the brute-force product hull, circuit-breaker parameters with a
fake clock and its steps, worker-supervisor shard counts and restart
deadlines, and micro-batcher request groups — the matrix generators
dtype-parametrized so the float32 precision tier (``tests/precision/``)
exercises the exact same input families as the float64 property tests.

Everything here is deterministic given its parameters: strategies draw
*parameters* (shapes, seeds, densities) and the builders expand them with
``np.random.default_rng(seed)``, which keeps hypothesis shrinking effective
(a failing example is a small tuple, not a giant matrix) and failure
reproduction trivial (the printed tuple regenerates the exact input).
"""

import itertools

import numpy as np
from hypothesis import HealthCheck
from hypothesis import strategies as st

from repro.interval.array import IntervalMatrix

#: Endpoint dtypes the dtype-parametrized tiers sweep.
DTYPES = (np.float64, np.float32)


def common_settings(max_examples=25):
    """The suite's shared ``@settings`` kwargs: example-count bounded, no
    per-example deadline (BLAS warm-up spikes would flake), slow-input
    health check suppressed (matrix builds are legitimately not instant)."""
    return dict(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def bounded_floats(min_value=-1e3, max_value=1e3, width=64):
    """Finite, bounded, non-subnormal float draws.

    The bound keeps products and sums well inside both float32 and float64
    range (no overflow-to-inf artifacts hiding real bugs), and excluding
    subnormals keeps float32 arithmetic on the fast, correctly-rounded
    path that the error budgets are calibrated for.
    """
    return st.floats(min_value=min_value, max_value=max_value,
                     allow_nan=False, allow_infinity=False,
                     allow_subnormal=False, width=width)


#: (rows, inner, cols, seed) for a random dense interval product pair.
interval_matrix_params = st.tuples(
    st.integers(2, 6),       # rows
    st.integers(2, 6),       # inner dim
    st.integers(1, 5),       # cols
    st.integers(0, 10_000),  # seed
)

#: Tiny shapes whose brute-force vertex hull stays enumerable.
tiny_interval_matrix_params = st.tuples(
    st.integers(1, 2),       # rows
    st.integers(2, 3),       # inner dim
    st.integers(1, 2),       # cols
    st.integers(0, 10_000),  # seed
)

#: (rows, cols, interval intensity, seed) for one random interval matrix.
matrix_params = st.tuples(
    st.integers(6, 16),          # rows
    st.integers(6, 16),          # cols
    st.floats(0.0, 1.0),         # interval intensity
    st.integers(0, 10_000),      # seed
)

#: (rows, cols, seed, density) for a sparse integer interval matrix.
sparse_pair_params = st.tuples(
    st.integers(2, 8),        # rows
    st.integers(2, 6),        # cols
    st.integers(0, 10_000),   # seed
    st.floats(0.1, 0.7),      # density
)

#: Memory layouts of one endpoint array: C order, F order, a transposed
#: view of a C array, and a strided view no BLAS call accepts.
ENDPOINT_LAYOUTS = ("C", "F", "transposed", "strided")

#: (rows, inner, cols, seed, four endpoint layouts) for a non-negative
#: interval product pair with exact zeros and degenerate entries.
nonnegative_pair_params = st.tuples(
    st.integers(1, 64),       # rows
    st.integers(1, 64),       # inner dim
    st.integers(1, 64),       # cols
    st.integers(0, 10_000),   # seed
    st.tuples(*[st.sampled_from(ENDPOINT_LAYOUTS)] * 4),
)

#: (threshold, window, cooldown) of a circuit breaker.  Whole seconds, so
#: whole-second fake-clock steps land exactly on window and cooldown edges.
breaker_params = st.tuples(
    st.integers(1, 4),        # threshold
    st.integers(1, 10),       # window (s)
    st.integers(1, 6),        # cooldown (s)
)

#: Fake-clock steps (whole seconds) between circuit-breaker operations.
clock_steps = st.integers(0, 8)


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


#: Shard count of a worker supervisor under test.
supervisor_shards = st.integers(1, 3)

#: The deadline a restart waits under: none, already expired (the caller
#: gives up at once and the respawn completes without it), or ample.
restart_deadlines = st.sampled_from([None, 0.0, 30.0])

#: (stored rows, items, rank, interval-valued factors, seed) for a
#: real-valued decomposition.
real_model_params = st.tuples(
    st.integers(2, 40),       # stored rows
    st.integers(2, 12),       # items
    st.integers(1, 8),        # rank
    st.booleans(),            # interval U and V (target a) or scalar (target b)
    st.integers(0, 10_000),   # seed
)

#: (rows, seed) of a batch of real-valued interval query rows.
query_rows_params = st.tuples(
    st.integers(1, 9),        # rows
    st.integers(0, 10_000),   # seed
)

#: (parts, seed) of a contiguous row split cut at random points.
row_split_params = st.tuples(
    st.integers(1, 6),        # parts (capped at the row count)
    st.integers(0, 10_000),   # seed
)

#: ``max_batch`` of a micro-batcher under test.
batcher_max_batch = st.integers(1, 4)

#: One group of concurrent micro-batcher requests, as a per-request flag
#: "this request makes ``run_batch`` raise" (about one request in eight).
request_groups = st.lists(st.integers(0, 7).map(lambda draw: draw == 0),
                          min_size=1, max_size=12)


def random_matrix(params, dtype=np.float64):
    """Expand :data:`matrix_params` into one random interval matrix."""
    from repro.interval.random import random_interval_matrix

    rows, cols, intensity, seed = params
    matrix = random_interval_matrix((rows, cols), interval_density=1.0,
                                    interval_intensity=intensity, rng=seed)
    if np.dtype(dtype) != matrix.dtype:
        matrix = matrix.astype(np.dtype(dtype), outward=True)
    return matrix


def random_interval_pair(params, mixed_sign=True, dtype=np.float64):
    """Expand :data:`interval_matrix_params` into a random product pair.

    Returns ``(a, b, rng)`` where ``a @ b`` is well-defined and ``rng`` has
    advanced past the draws, for follow-up sampling (Monte-Carlo members).
    With ``mixed_sign=False`` both operands are entrywise non-negative —
    the sign-consistent regime where ``endpoint4`` is exact.  A non-default
    ``dtype`` rounds endpoints outward, so the narrowed pair still encloses
    the float64 pair it was drawn as.
    """
    rows, inner, cols, seed = params
    rng = np.random.default_rng(seed)
    if mixed_sign:
        a_lo = rng.normal(size=(rows, inner))
        b_lo = rng.normal(size=(inner, cols))
    else:  # guaranteed entrywise non-negative operands
        a_lo = rng.random((rows, inner)) * 3.0
        b_lo = rng.random((inner, cols)) * 3.0
    a_hi = a_lo + rng.random((rows, inner)) * 2.0
    b_hi = b_lo + rng.random((inner, cols)) * 2.0
    a = IntervalMatrix(a_lo, a_hi)
    b = IntervalMatrix(b_lo, b_hi)
    if np.dtype(dtype) != a.dtype:
        a = a.astype(np.dtype(dtype), outward=True)
        b = b.astype(np.dtype(dtype), outward=True)
    return a, b, rng


def with_layout(values, layout):
    """``values`` (2-D) stored in one of :data:`ENDPOINT_LAYOUTS`."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    padded = np.zeros((values.shape[0], 2 * values.shape[1]), values.dtype)
    padded[:, ::2] = values
    return padded[:, ::2]


def nonnegative_interval_pair(params, dtype=np.float64):
    """Expand :data:`nonnegative_pair_params` into ``(a, b)``.

    Endpoints are ``>= +0.0`` with exact zeros in both, about half of the
    entries degenerate (``lower == upper``, where the four endpoint
    products tie in exact arithmetic and only their rounding tells them
    apart), and each endpoint array in its own drawn memory layout.
    """
    rows, inner, cols, seed, layouts = params
    rng = np.random.default_rng(seed)

    def endpoints(shape):
        upper = rng.random(shape)
        upper[rng.random(shape) < 0.3] = 0.0
        lower = np.where(rng.random(shape) < 0.5, upper, upper * rng.random(shape))
        lower[rng.random(shape) < 0.1] = 0.0
        return lower.astype(dtype), upper.astype(dtype)

    a_lo, a_hi = endpoints((rows, inner))
    b_lo, b_hi = endpoints((inner, cols))
    a = IntervalMatrix(with_layout(a_lo, layouts[0]), with_layout(a_hi, layouts[1]))
    b = IntervalMatrix(with_layout(b_lo, layouts[2]), with_layout(b_hi, layouts[3]))
    return a, b


def real_valued_decomposition(params, dtype=np.float64):
    """Expand :data:`real_model_params` into a decomposition to serve.

    Factors are real-valued, so every product rounds: a kernel whose
    rounding depends on the operand's shape or offset shows in the last
    bits, which integer-valued factors (exact in any summation order) hide.
    Target ``a`` carries interval ``U``, ``Sigma`` and ``V``; target ``b``
    scalar ``U`` and ``V`` around an interval ``Sigma``, the served shape.
    """
    from repro.core.result import IntervalDecomposition

    n_rows, n_items, rank, interval_factors, seed = params
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def factor(rows, cols, scale):
        lower = (rng.normal(size=(rows, cols)) * scale).astype(dtype)
        if not interval_factors:
            return lower
        width = (rng.random((rows, cols)) * scale * 0.3).astype(dtype)
        return IntervalMatrix(lower, lower + width)

    sigma_lo = np.sort(rng.uniform(1.0, 5.0, rank))[::-1]
    sigma_hi = sigma_lo + rng.uniform(0.0, 0.5, rank)
    return IntervalDecomposition(
        u=factor(n_rows, rank, 1.0),
        sigma=IntervalMatrix(np.diag(sigma_lo).astype(dtype),
                             np.diag(sigma_hi).astype(dtype), check=False),
        v=factor(n_items, rank, 1.0 / np.sqrt(n_items)),
        target="a" if interval_factors else "b", method="real", rank=rank)


def real_interval_rows(params, n_items, dtype=np.float64):
    """Expand :data:`query_rows_params` into real-valued interval rows."""
    rows, seed = params
    rng = np.random.default_rng(seed)
    lower = rng.uniform(0.0, 5.0, size=(rows, n_items))
    width = rng.uniform(0.0, 1.0, size=(rows, n_items))
    return IntervalMatrix(lower.astype(dtype), (lower + width).astype(dtype))


def row_split(n_rows, params):
    """Expand :data:`row_split_params` into ``(start, stop)`` ranges.

    The ranges are contiguous, non-empty and cover ``n_rows``; the cut
    points are drawn at random, so the parts are generally uneven.
    """
    parts, seed = params
    parts = min(parts, n_rows)
    cuts = np.random.default_rng(seed).choice(
        np.arange(1, n_rows), parts - 1, replace=False)
    bounds = [0, *sorted(int(cut) for cut in cuts), n_rows]
    return list(zip(bounds[:-1], bounds[1:]))


def integer_interval_matrix(rng, rows, cols, density, dtype=np.float64):
    """Random integer-valued interval matrix with ``[0, 0]`` cells elsewhere.

    Integer endpoints keep every kernel product exactly representable in
    float64 (and, at these magnitudes, in float32), so sparse/dense and
    blocked/unblocked executions must agree to the byte — any difference
    is a real bug, not summation-order noise.
    """
    mask = rng.random((rows, cols)) < density
    lower = np.where(mask, rng.integers(-8, 9, (rows, cols)), 0).astype(dtype)
    width = np.where(mask, rng.integers(0, 5, (rows, cols)), 0).astype(dtype)
    return IntervalMatrix(lower, lower + width)


def sparse_integer_pair(params, dtype=np.float64):
    """Expand :data:`sparse_pair_params` into (dense matrix, sparse view)."""
    from repro.interval.sparse import SparseIntervalMatrix

    rows, cols, seed, density = params
    dense = integer_interval_matrix(np.random.default_rng(seed), rows, cols,
                                    density, dtype=dtype)
    return dense, SparseIntervalMatrix.from_dense(dense)


def brute_force_hull(a, b):
    """Interval hull of ``a @ b`` by enumerating every endpoint vertex.

    Valid because the product is multilinear in the entries, so its extrema
    over the box of member matrices are attained at vertices.  Exponential in
    the number of entries — tiny shapes only.  Vertices are enumerated (and
    multiplied) in float64 regardless of the operands' storage dtype, so the
    result also serves as the high-precision reference hull the float32
    enclosure tests compare against.
    """
    lower = np.full((a.shape[0], b.shape[1]), np.inf)
    upper = np.full((a.shape[0], b.shape[1]), -np.inf)
    a_vertices = itertools.product(
        *[(a.lower.flat[i], a.upper.flat[i]) for i in range(a.size)])
    a_vertices = [np.array(v, dtype=float).reshape(a.shape) for v in a_vertices]
    b_vertices = itertools.product(
        *[(b.lower.flat[i], b.upper.flat[i]) for i in range(b.size)])
    b_vertices = [np.array(v, dtype=float).reshape(b.shape) for v in b_vertices]
    for am in a_vertices:
        for bm in b_vertices:
            product = am @ bm
            lower = np.minimum(lower, product)
            upper = np.maximum(upper, product)
    return lower, upper
