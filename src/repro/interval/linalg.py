"""Interval linear-algebra kernels used by the ISVD family.

Implements the supporting routines of the paper's supplementary material:

* Algorithm 1  — interval-valued matrix multiplication (:func:`interval_matmul`)
* Algorithm 2  — vector average replacement (:func:`average_replacement_vector`)
* Algorithm 3  — matrix average replacement (:func:`average_replacement_matrix`)
* Algorithm 4  — inverse of a non-negative interval diagonal core (:func:`inverse_core`)
* Algorithm 5  — L2-norm column normalization (:func:`norm_mat`)

plus interval dot products, interval Frobenius norms, and the condition-number
guarded (pseudo-)inverse used by ISVD3/ISVD4 (Section 4.4.2.2).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike, get_kernel
from repro.interval.scalar import Interval, IntervalError
from repro.interval.sparse import SparseIntervalMatrix, as_interval_operand, issparse

MatrixLike = Union[IntervalMatrix, SparseIntervalMatrix, np.ndarray]

#: Singular values below this fraction of the largest one are zeroed when the
#: paper's pseudo-inverse fallback is used (Section 4.4.2.2 uses 0.1).
PSEUDO_INVERSE_CUTOFF = 0.1

#: Condition-number threshold above which ISVD3/4 switch to the pseudo-inverse.
DEFAULT_CONDITION_THRESHOLD = 1e8


def interval_matmul(a: MatrixLike, b: MatrixLike, matmul=None,
                    kernel: KernelLike = None,
                    ) -> Union[IntervalMatrix, SparseIntervalMatrix]:
    """Interval-valued matrix product ``a @ b`` (supplementary Algorithm 1).

    Operands may be dense interval matrices, plain scalar ndarrays, or
    :class:`~repro.interval.sparse.SparseIntervalMatrix` instances.  The
    default construction is the paper's pseudo-code: the elementwise min/max
    over the four endpoint-matrix products.

    ``matmul`` overrides the scalar product primitive (default
    ``numpy.matmul``); the serving layer passes a batch-size-invariant kernel
    so micro-batched queries reproduce unbatched results bit for bit.  Sparse
    operands run in scipy's sparse BLAS instead, on the kernels that support
    it (``endpoint4`` and ``rump``; ``exact`` raises).  When *both* operands
    are sparse the result is a :class:`SparseIntervalMatrix`; a dense partner
    makes the result dense.

    ``kernel`` selects the interval-product kernel from
    :mod:`repro.interval.kernels` (a key or a
    :class:`~repro.interval.kernels.KernelInfo`): ``"endpoint4"`` (default),
    ``"exact"``, or ``"rump"``.

    Notes
    -----
    The default four-product construction is **not** a sound enclosure of the
    product range in general: min/max over the four endpoint products is
    taken *after* the sum over the inner dimension, so cancellations between
    summands of opposite sign shrink the reported interval below the true
    range.  ``[[-1,1], [-1,1]] @ [[2], [-2]]`` returns the degenerate
    ``[0, 0]`` while the achievable range is ``[-4, 4]``.  The construction
    is exact precisely on sign-consistent operands (no entry of either
    operand straddling zero with a mixed-sign partner); it is kept as the
    default because it is what the original authors compute, so reproduction
    figures match the paper.  Pass ``kernel="exact"`` for the true hull or
    ``kernel="rump"`` for a fast sound enclosure.
    """
    a = as_interval_operand(a)
    b = as_interval_operand(b)
    if matmul is None:
        matmul = np.matmul
    if a.shape[-1] != b.shape[0]:
        raise IntervalError(
            f"incompatible shapes for interval matmul: {a.shape} @ {b.shape}"
        )
    lower, upper = get_kernel(kernel).product(a, b, matmul=matmul)
    if issparse(lower) and issparse(upper):
        return SparseIntervalMatrix(lower, upper, check=False)
    return IntervalMatrix(lower, upper, check=False)


def interval_gram(matrix: MatrixLike, kernel: KernelLike = None) -> IntervalMatrix:
    """Dense interval Gram matrix ``matrix.T @ matrix`` (the ISVD2/3/4 step).

    The result is always a dense ``m x m`` :class:`IntervalMatrix` (the
    eigen-decomposition that consumes it needs dense endpoint arrays).  A
    dense input runs the kernel's one product, so the result is
    ``interval_matmul(matrix.T, matrix, kernel=kernel)`` byte for byte.  A
    :class:`~repro.interval.sparse.SparseIntervalMatrix` runs its endpoint
    products through scipy's sparse BLAS — the ``n x m`` input is never
    densified, so an ``n`` of 100k rows at 1% density costs megabytes and
    milliseconds instead of gigabytes and minutes (``exact`` has no sparse
    execution and raises).
    """
    matrix = as_interval_operand(matrix)
    if matrix.ndim != 2:
        raise IntervalError("interval_gram expects a 2-D interval matrix")
    lower, upper = get_kernel(kernel).gram(matrix)
    return IntervalMatrix(np.asarray(lower), np.asarray(upper), check=False)


def interval_dot(x: MatrixLike, y: MatrixLike, kernel: KernelLike = "exact") -> Interval:
    """Interval dot product of two 1-D interval vectors.

    The default kernel is ``"exact"`` — unlike the matrix product, the dot
    product has always been computed here as the sum of per-element interval
    products, which *is* the exact hull, so the default is unchanged.  Pass
    ``kernel="endpoint4"`` for the (unsound) four-endpoint construction or
    ``"rump"`` for the midpoint-radius enclosure.
    """
    x = IntervalMatrix.coerce(x)
    y = IntervalMatrix.coerce(y)
    if x.shape != y.shape or x.ndim != 1:
        raise IntervalError(f"interval_dot expects matching 1-D vectors, got {x.shape}, {y.shape}")
    lower, upper = get_kernel(kernel).product(x, y)
    return Interval(float(lower), float(upper))


def interval_self_dot(x: MatrixLike) -> Interval:
    """Dot product of an interval vector with itself (Theorem 2 semantics).

    Uses the range image of the squares, so the result is scalar exactly when
    the input vector is scalar — matching the paper's Theorem 2.
    """
    x = IntervalMatrix.coerce(x)
    if x.ndim != 1:
        raise IntervalError("interval_self_dot expects a 1-D vector")
    squares = x.square()
    return Interval(float(squares.lower.sum()), float(squares.upper.sum()))


def interval_frobenius_norm(m: MatrixLike) -> Interval:
    """Interval Frobenius norm of an interval matrix."""
    return IntervalMatrix.coerce(m).frobenius_norm()


def average_replacement_vector(v: IntervalMatrix) -> IntervalMatrix:
    """Replace misordered interval entries of a vector by their average (Alg. 2)."""
    if v.ndim != 1:
        raise IntervalError("average_replacement_vector expects a 1-D vector")
    return average_replacement_matrix(v)


def average_replacement_matrix(m: IntervalMatrix) -> IntervalMatrix:
    """Replace misordered interval entries by their average (Alg. 3).

    Entries with ``lower > upper`` — which can legitimately appear when the
    minimum and maximum components are decomposed independently — are replaced
    by the degenerate interval at their midpoint.  Valid entries are untouched.
    """
    misordered = m.lower > m.upper
    if not misordered.any():
        return IntervalMatrix(m.lower.copy(), m.upper.copy())
    midpoint = 0.5 * (m.lower + m.upper)
    lower = np.where(misordered, midpoint, m.lower)
    upper = np.where(misordered, midpoint, m.upper)
    return IntervalMatrix(lower, upper)


def inverse_core(sigma: IntervalMatrix) -> np.ndarray:
    """Scalar inverse of a non-negative interval diagonal core matrix (Alg. 4).

    The paper shows (Section 4.4.2.1) that the epsilon-optimal inverse of an
    interval diagonal entry ``[s_lo, s_hi]`` is the *scalar* ``2 / (s_lo + s_hi)``;
    zero diagonal entries invert to zero, and half-zero entries fall back to
    ``2 / s`` on the non-zero endpoint.

    Each diagonal entry must be a valid interval (``lo <= hi``): a misordered
    entry like ``[5, 0]`` is not an interval at all, and silently averaging
    its endpoints would hide an upstream alignment/decomposition bug, so it
    raises :class:`~repro.interval.scalar.IntervalError` instead.
    """
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise IntervalError(f"inverse_core expects a square matrix, got {sigma.shape}")
    r = sigma.shape[0]
    inverse = np.zeros((r, r), dtype=float)
    lo = np.diag(sigma.lower)
    hi = np.diag(sigma.upper)
    misordered = lo > hi
    if misordered.any():
        raise IntervalError(
            f"{int(misordered.sum())} diagonal entries have lower > upper; "
            "correct the core with average replacement before inverting it"
        )
    if (lo < 0).any() or (hi < 0).any():
        raise IntervalError("inverse_core expects a non-negative diagonal core")
    for i in range(r):
        if hi[i] == 0.0:  # lo <= hi and lo >= 0, so the whole entry is zero
            inverse[i, i] = 0.0
        elif lo[i] == 0.0:
            inverse[i, i] = 2.0 / hi[i]
        else:
            inverse[i, i] = 2.0 / (lo[i] + hi[i])
    return inverse


def norm_mat(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """L2-normalize the columns of a scalar matrix (Alg. 5).

    Returns
    -------
    normalized:
        The matrix with each column scaled to unit L2 norm (zero columns are
        left untouched).
    column_norms:
        The original column norms, used by the decomposition targets to rescale
        the core matrix.
    """
    a = np.asarray(a)
    if a.dtype != np.float32:
        a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise IntervalError(f"norm_mat expects a 2-D matrix, got ndim={a.ndim}")
    column_norms = np.linalg.norm(a, axis=0)
    safe = np.where(column_norms == 0.0, 1.0, column_norms)
    return a / safe, column_norms


def safe_inverse(
    a: np.ndarray,
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
    cutoff: float = PSEUDO_INVERSE_CUTOFF,
) -> np.ndarray:
    """Invert a scalar matrix, falling back to a truncated pseudo-inverse.

    Mirrors Section 4.4.2.2: if the matrix is non-square or ill-conditioned
    (condition number above ``condition_threshold``), compute a Moore–Penrose
    pseudo-inverse in which singular values below ``cutoff`` times the largest
    singular value are treated as zero.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise IntervalError("safe_inverse expects a 2-D matrix")
    square = a.shape[0] == a.shape[1]
    if square:
        condition = np.linalg.cond(a)
        if np.isfinite(condition) and condition <= condition_threshold:
            return np.linalg.inv(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return a.T.copy()
    threshold = cutoff * s[0]
    s_inv = np.where(s > threshold, 1.0 / np.where(s > threshold, s, 1.0), 0.0)
    return vt.T @ np.diag(s_inv) @ u.T


def diag_interval(values: IntervalMatrix) -> IntervalMatrix:
    """Build an interval diagonal matrix from a 1-D interval vector."""
    if values.ndim != 1:
        raise IntervalError("diag_interval expects a 1-D interval vector")
    r = values.shape[0]
    lower = np.zeros((r, r), dtype=values.lower.dtype)
    upper = np.zeros((r, r), dtype=values.upper.dtype)
    np.fill_diagonal(lower, values.lower)
    np.fill_diagonal(upper, values.upper)
    return IntervalMatrix(lower, upper, check=False)


def diagonal_of(m: IntervalMatrix) -> IntervalMatrix:
    """Extract the diagonal of an interval matrix as a 1-D interval vector."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise IntervalError("diagonal_of expects a square matrix")
    return IntervalMatrix(np.diag(m.lower).copy(), np.diag(m.upper).copy(), check=False)


def interval_euclidean_distance(a: IntervalMatrix, b: IntervalMatrix) -> float:
    """Interval Euclidean distance used by the paper's NN classification.

    ``dist(a, b) = sqrt(sum_i (a_lo[i] - b_lo[i])^2 + (a_hi[i] - b_hi[i])^2)``
    (Section 6.1.2).  Both operands are 1-D interval vectors.
    """
    a = IntervalMatrix.coerce(a)
    b = IntervalMatrix.coerce(b)
    if a.shape != b.shape:
        raise IntervalError(f"distance requires matching shapes: {a.shape} vs {b.shape}")
    return float(
        np.sqrt(((a.lower - b.lower) ** 2).sum() + ((a.upper - b.upper) ** 2).sum())
    )
