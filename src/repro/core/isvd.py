"""The ISVD family: singular value decomposition of interval-valued matrices.

Implements the five strategies of Section 4 (and supplementary Algorithms 7-11):

========  =============================================  ==========================
Method    Strategy                                       Distinguishing step
========  =============================================  ==========================
ISVD0     Average and decompose                          plain SVD of the midpoint
ISVD1     Decompose and align                            SVD of M_lo and M_hi, then ILSA
ISVD2     Decompose, solve, align                        eigen-decomposition of M^T M
                                                          (interval product), recover U,
                                                          then ILSA
ISVD3     Decompose, align, solve                        ILSA first, then U recovered by
                                                          interval algebra through the
                                                          (pseudo-)inverse of V_avg
ISVD4     Decompose, align, solve, recompute             as ISVD3, plus a final
                                                          recomputation of V from U
========  =============================================  ==========================

Every method (except ISVD0, which is inherently scalar and therefore only
supports decomposition target ``c``) can emit any of the three decomposition
targets of Section 3.4.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.ilsa import AlignmentResult, align_factor_set, ilsa
from repro.core.result import DecompositionTarget, IntervalDecomposition
from repro.core.targets import build_decomposition
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike
from repro.interval.linalg import (
    DEFAULT_CONDITION_THRESHOLD,
    interval_gram,
    interval_matmul,
    inverse_core,
    safe_inverse,
)
from repro.interval.sparse import as_interval_operand, is_sparse_interval


class ISVDError(ValueError):
    """Raised for invalid ISVD configurations."""


class ISVDMethod(str, Enum):
    """The five interval-SVD strategies of the paper."""

    ISVD0 = "isvd0"
    ISVD1 = "isvd1"
    ISVD2 = "isvd2"
    ISVD3 = "isvd3"
    ISVD4 = "isvd4"

    @classmethod
    def coerce(cls, value: Union[str, "ISVDMethod"]) -> "ISVDMethod":
        """Accept enum members or case-insensitive strings like ``"ISVD4"``."""
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())

    @property
    def display_name(self) -> str:
        """Upper-case name used in reports (e.g. ``ISVD3``)."""
        return self.value.upper()


def truncated_svd(matrix: np.ndarray, rank: int,
                  dtype=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``r`` SVD returning ``(U, singular_values, V)`` with ``V`` of shape ``m x r``.

    ``dtype`` sets the LAPACK compute dtype; ``None`` keeps the historical
    float64 path.
    """
    matrix = np.asarray(matrix, dtype=float if dtype is None else dtype)
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = min(rank, s.shape[0])
    return u[:, :rank], s[:rank], vt[:rank, :].T


def truncated_eigh(matrix: np.ndarray, rank: int,
                   dtype=None) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``r`` eigen-decomposition of a symmetric matrix.

    Returns ``(V, sqrt_eigenvalues)`` where negative eigenvalues (which can
    appear for the endpoint matrices of an interval product) are clipped to
    zero before the square root, as the singular values of the interval SVD
    must be non-negative.  ``dtype`` sets the LAPACK compute dtype; ``None``
    keeps the historical float64 path.  Only the top ``r`` eigenpairs are
    computed (LAPACK ``?syevr`` over an index range), in descending order.
    """
    # Imported here: repro.core loads eagerly and serving never fits.
    from scipy.linalg import eigh

    matrix = np.asarray(matrix, dtype=float if dtype is None else dtype)
    matrix = 0.5 * (matrix + matrix.T)  # guard against asymmetry from round-off
    n = matrix.shape[0]
    rank = min(rank, n)
    eigenvalues, eigenvectors = eigh(matrix, subset_by_index=[n - rank, n - 1],
                                     driver="evr", overwrite_a=True)
    values = np.clip(eigenvalues[::-1], 0.0, None)
    return np.ascontiguousarray(eigenvectors[:, ::-1]), np.sqrt(values)


def _validate_inputs(matrix: IntervalMatrix, rank: int) -> None:
    if matrix.ndim != 2:
        raise ISVDError("ISVD expects a 2-D interval matrix")
    n, m = matrix.shape
    if rank < 1 or rank > min(n, m):
        raise ISVDError(f"rank must be in [1, min(n, m)={min(n, m)}], got {rank}")


def _resolve_dtype(dtype) -> Optional[np.dtype]:
    """Resolve :func:`isvd`'s ``dtype=`` to a compute dtype.

    Any numpy spelling of float32 (``"float32"``, ``"f4"``, ``"single"``,
    ``np.float32``) selects float32; ``None`` and float64 resolve to
    ``None``, so an explicit float64 takes the byte-identical default path.
    """
    if dtype is None:
        return None
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved == np.float64:
        return None
    if resolved == np.float32:
        return resolved
    raise ISVDError(f"unsupported dtype {dtype!r}; use float64 or float32")


def _match_storage(array: np.ndarray, matrix) -> np.ndarray:
    """Cast a scalar recovery matrix to the interval matrix's endpoint dtype.

    The small inverse products are computed in float64 for accuracy; casting
    them down *before* the big ``n x r`` interval product keeps that product
    (and its result) in the storage dtype.  Float64 inputs pass through
    untouched.
    """
    dtype = getattr(matrix, "dtype", None)
    if dtype is None or array.dtype == dtype:
        return array
    return array.astype(dtype)


# --------------------------------------------------------------------------- #
# ISVD0 — average and decompose
# --------------------------------------------------------------------------- #
def isvd0(matrix: IntervalMatrix, rank: int,
          dtype: Optional[np.dtype] = None) -> IntervalDecomposition:
    """Naive baseline: SVD of the midpoint matrix (Section 4.1, Algorithm 7).

    The result is always a target-``c`` (all scalar) decomposition.
    """
    matrix = IntervalMatrix.coerce(matrix)
    _validate_inputs(matrix, rank)
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    averaged = matrix.midpoint()
    timings["preprocessing"] = time.perf_counter() - start

    start = time.perf_counter()
    u, s, v = truncated_svd(averaged, rank, dtype=dtype)
    timings["decomposition"] = time.perf_counter() - start
    timings["alignment"] = 0.0
    timings["recomposition"] = 0.0

    return IntervalDecomposition(
        u=u, sigma=np.diag(s), v=v,
        target=DecompositionTarget.C, method="ISVD0", rank=rank, timings=timings,
    )


# --------------------------------------------------------------------------- #
# ISVD1 — decompose and align
# --------------------------------------------------------------------------- #
def isvd1(
    matrix: IntervalMatrix,
    rank: int,
    target: Union[str, DecompositionTarget] = DecompositionTarget.B,
    align_method: str = "hungarian",
    dtype: Optional[np.dtype] = None,
) -> IntervalDecomposition:
    """Decompose the min and max matrices independently, then align (Alg. 8)."""
    matrix = IntervalMatrix.coerce(matrix)
    _validate_inputs(matrix, rank)
    timings: Dict[str, float] = {"preprocessing": 0.0}

    start = time.perf_counter()
    u_lo, s_lo, v_lo = truncated_svd(matrix.lower, rank, dtype=dtype)
    u_hi, s_hi, v_hi = truncated_svd(matrix.upper, rank, dtype=dtype)
    timings["decomposition"] = time.perf_counter() - start

    start = time.perf_counter()
    alignment = ilsa(v_lo, v_hi, method=align_method)
    u_lo, s_lo_mat, v_lo = align_factor_set(alignment, u_lo, np.diag(s_lo), v_lo)
    timings["alignment"] = time.perf_counter() - start

    start = time.perf_counter()
    decomposition = build_decomposition(
        u_lo, s_lo_mat, v_lo, u_hi, np.diag(s_hi), v_hi,
        target=target, method="ISVD1", rank=rank, timings=timings,
        metadata={"alignment": alignment},
    )
    decomposition.timings["recomposition"] = time.perf_counter() - start
    return decomposition


# --------------------------------------------------------------------------- #
# Shared eigen-decomposition step for ISVD2/3/4
# --------------------------------------------------------------------------- #
def _gram_eigendecompositions(
    matrix: IntervalMatrix, rank: int, kernel: KernelLike = None,
    dtype: Optional[np.dtype] = None,
) -> Tuple[IntervalMatrix, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-decompose the interval Gram matrix ``A = M^T M`` (Section 4.3.1).

    Returns ``(A, V_lo, sigma_lo, V_hi, sigma_hi)`` where the sigma vectors are
    the square roots of the top-``r`` eigenvalues of ``A_lo`` and ``A_hi``.
    ``kernel`` selects the interval-product kernel for the Gram step; the
    product runs through :func:`~repro.interval.linalg.interval_gram`: a
    dense ``matrix`` gives the bytes of ``interval_matmul(matrix.T, matrix)``
    and a sparse one never densifies.  ``dtype`` is the
    LAPACK compute dtype of the eigen steps (``None``: float64, whatever the
    matrix's dtype).
    """
    gram = interval_gram(matrix, kernel=kernel)
    v_lo, s_lo = truncated_eigh(gram.lower, rank, dtype=dtype)
    v_hi, s_hi = truncated_eigh(gram.upper, rank, dtype=dtype)
    return gram, v_lo, s_lo, v_hi, s_hi


def _recover_u_from_v(matrix: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Recover left singular vectors via ``U = M (V^T)^+ Sigma^{-1}`` (Section 4.3.2).

    ``matrix`` may be a scipy sparse endpoint matrix: ``sparse @ dense``
    evaluates in sparse BLAS and yields the (dense, ``n x r``) result directly.
    """
    s = np.asarray(s)
    if s.dtype != np.float32:
        s = np.asarray(s, dtype=float)
    s_inv = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    return np.asarray(matrix @ np.linalg.pinv(v.T)) @ np.diag(s_inv)


# --------------------------------------------------------------------------- #
# ISVD2 — decompose, solve, align
# --------------------------------------------------------------------------- #
def isvd2(
    matrix: IntervalMatrix,
    rank: int,
    target: Union[str, DecompositionTarget] = DecompositionTarget.B,
    align_method: str = "hungarian",
    kernel: KernelLike = None,
    dtype: Optional[np.dtype] = None,
) -> IntervalDecomposition:
    """Eigen-decompose the interval Gram matrix, solve for U, then align (Alg. 9)."""
    matrix = as_interval_operand(matrix)
    _validate_inputs(matrix, rank)
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    _, v_lo, s_lo, v_hi, s_hi = _gram_eigendecompositions(
        matrix, rank, kernel=kernel, dtype=dtype)
    timings["preprocessing"] = 0.0
    timings["decomposition"] = time.perf_counter() - start

    start = time.perf_counter()
    u_lo = _recover_u_from_v(matrix.lower, v_lo, s_lo)
    u_hi = _recover_u_from_v(matrix.upper, v_hi, s_hi)
    timings["decomposition"] += time.perf_counter() - start

    start = time.perf_counter()
    alignment = ilsa(v_lo, v_hi, method=align_method)
    u_lo, s_lo_mat, v_lo = align_factor_set(alignment, u_lo, np.diag(s_lo), v_lo)
    timings["alignment"] = time.perf_counter() - start

    start = time.perf_counter()
    decomposition = build_decomposition(
        u_lo, s_lo_mat, v_lo, u_hi, np.diag(s_hi), v_hi,
        target=target, method="ISVD2", rank=rank, timings=timings,
        metadata={"alignment": alignment},
    )
    decomposition.timings["recomposition"] = time.perf_counter() - start
    return decomposition


# --------------------------------------------------------------------------- #
# ISVD3 — decompose, align, solve
# --------------------------------------------------------------------------- #
def _aligned_gram_factors(
    matrix: IntervalMatrix, rank: int, align_method: str, kernel: KernelLike = None,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, AlignmentResult, Dict[str, float]]:
    """Shared first phase of ISVD3/ISVD4: eigen-decompose, then align V and Sigma."""
    timings: Dict[str, float] = {"preprocessing": 0.0}

    start = time.perf_counter()
    _, v_lo, s_lo, v_hi, s_hi = _gram_eigendecompositions(
        matrix, rank, kernel=kernel, dtype=dtype)
    timings["decomposition"] = time.perf_counter() - start

    start = time.perf_counter()
    alignment = ilsa(v_lo, v_hi, method=align_method)
    v_lo = alignment.apply_to_columns(v_lo, flip_signs=True)
    s_lo = alignment.apply_to_diagonal(s_lo)
    timings["alignment"] = time.perf_counter() - start
    return v_lo, s_lo, v_hi, s_hi, alignment, timings


def _solve_interval_u(
    matrix: IntervalMatrix,
    v_lo: np.ndarray,
    s_lo: np.ndarray,
    v_hi: np.ndarray,
    s_hi: np.ndarray,
    condition_threshold: float,
    kernel: KernelLike = None,
) -> Tuple[IntervalMatrix, np.ndarray, np.ndarray]:
    """Recover interval-valued U via ``U = M (V^T)^{-1} Sigma^{-1}`` (Section 4.4.2).

    Returns ``(U_interval, v_t_inverse, core_inverse)`` so ISVD4 can reuse the
    inverses for the V-recomputation step.  ``kernel`` selects the
    interval-product kernel for the recovery product.
    """
    v_avg = 0.5 * (v_lo + v_hi)
    v_t_inverse = safe_inverse(v_avg.T, condition_threshold=condition_threshold)
    core = IntervalMatrix(
        np.diag(np.minimum(s_lo, s_hi)), np.diag(np.maximum(s_lo, s_hi)), check=False
    )
    core_inverse = inverse_core(core)
    recovery = _match_storage(v_t_inverse @ core_inverse, matrix)
    u_interval = interval_matmul(matrix, recovery, kernel=kernel)
    return u_interval, v_t_inverse, core_inverse


def isvd3(
    matrix: IntervalMatrix,
    rank: int,
    target: Union[str, DecompositionTarget] = DecompositionTarget.B,
    align_method: str = "hungarian",
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
    kernel: KernelLike = None,
    dtype: Optional[np.dtype] = None,
) -> IntervalDecomposition:
    """Align the right factors first, then solve for U with interval algebra (Alg. 10)."""
    matrix = as_interval_operand(matrix)
    _validate_inputs(matrix, rank)

    v_lo, s_lo, v_hi, s_hi, alignment, timings = _aligned_gram_factors(
        matrix, rank, align_method, kernel=kernel, dtype=dtype,
    )

    start = time.perf_counter()
    u_interval, _, _ = _solve_interval_u(
        matrix, v_lo, s_lo, v_hi, s_hi, condition_threshold, kernel=kernel
    )
    timings["decomposition"] += time.perf_counter() - start

    start = time.perf_counter()
    decomposition = build_decomposition(
        u_interval.lower, np.diag(s_lo), v_lo,
        u_interval.upper, np.diag(s_hi), v_hi,
        target=target, method="ISVD3", rank=rank, timings=timings,
        metadata={"alignment": alignment},
    )
    decomposition.timings["recomposition"] = time.perf_counter() - start
    return decomposition


# --------------------------------------------------------------------------- #
# ISVD4 — decompose, align, solve, recompute
# --------------------------------------------------------------------------- #
def isvd4(
    matrix: IntervalMatrix,
    rank: int,
    target: Union[str, DecompositionTarget] = DecompositionTarget.B,
    align_method: str = "hungarian",
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
    kernel: KernelLike = None,
    dtype: Optional[np.dtype] = None,
) -> IntervalDecomposition:
    """ISVD3 plus a final recomputation of V from the recovered U (Alg. 11).

    The recomputation ``V = (Sigma^{-1} U^{-1} M)^T`` tightens the interval
    factor V because U inherits the alignment's precision (Section 4.5).
    """
    matrix = as_interval_operand(matrix)
    _validate_inputs(matrix, rank)

    v_lo, s_lo, v_hi, s_hi, alignment, timings = _aligned_gram_factors(
        matrix, rank, align_method, kernel=kernel, dtype=dtype,
    )

    start = time.perf_counter()
    u_interval, _, core_inverse = _solve_interval_u(
        matrix, v_lo, s_lo, v_hi, s_hi, condition_threshold, kernel=kernel
    )

    u_avg = u_interval.midpoint()
    u_inverse = safe_inverse(u_avg, condition_threshold=condition_threshold)
    recompute = _match_storage(core_inverse @ u_inverse, matrix)
    v_interval = interval_matmul(recompute, matrix, kernel=kernel).T
    timings["decomposition"] += time.perf_counter() - start

    start = time.perf_counter()
    decomposition = build_decomposition(
        u_interval.lower, np.diag(s_lo), v_interval.lower,
        u_interval.upper, np.diag(s_hi), v_interval.upper,
        target=target, method="ISVD4", rank=rank, timings=timings,
        metadata={"alignment": alignment},
    )
    decomposition.timings["recomposition"] = time.perf_counter() - start
    return decomposition


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
def isvd(
    matrix: Union[IntervalMatrix, np.ndarray],
    rank: int,
    method: Union[str, ISVDMethod] = ISVDMethod.ISVD4,
    target: Union[str, DecompositionTarget] = DecompositionTarget.B,
    align_method: str = "hungarian",
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
    kernel: KernelLike = None,
    dtype=None,
) -> IntervalDecomposition:
    """Decompose an interval-valued matrix with the requested ISVD strategy.

    Parameters
    ----------
    matrix:
        Interval matrix (or scalar ndarray, treated as degenerate intervals),
        or a :class:`~repro.interval.sparse.SparseIntervalMatrix`.  The
        gram-based strategies (ISVD2/3/4) execute sparse input through
        scipy's sparse BLAS without ever materializing the dense endpoint
        matrices; ISVD0/ISVD1 decompose the endpoint matrices directly and
        densify sparse input first (their SVDs are dense).
    rank:
        Target rank ``r <= min(n, m)``.
    method:
        One of :class:`ISVDMethod` (or its string name).  Default: ISVD4, the
        paper's best-performing strategy.
    target:
        Decomposition target ``a`` / ``b`` / ``c`` (Section 3.4).  ISVD0
        supports only ``c``.
    align_method:
        ``"hungarian"`` (optimal) or ``"greedy"`` ILSA assignment.
    condition_threshold:
        Condition number above which ISVD3/ISVD4 switch to the truncated
        pseudo-inverse (Section 4.4.2.2).
    kernel:
        Interval-product kernel (:mod:`repro.interval.kernels`) used by the
        ISVD2/3/4 gram and factor-recovery products; a dense gram is that
        kernel's product ``matrix.T @ matrix``, byte for byte.  ``None``
        keeps the paper-faithful ``endpoint4`` default; ISVD0/ISVD1 never
        form interval products, so they accept and ignore the parameter.
    dtype:
        Endpoint dtype, float64 or float32 in any numpy spelling
        (``"float32"``, ``np.float32``, ...); anything else raises
        :class:`ISVDError`.  ``None`` or float64 keep the historical
        full-precision path byte for byte; float32 stores and accumulates
        endpoints, gram products and LAPACK steps in float32.  The input
        matrix is cast up front (with an outward endpoint nudge so the cast
        itself never narrows an interval), and all factors come back in
        float32.

    Returns
    -------
    IntervalDecomposition
        Factors per the requested target, with per-phase timings attached.
    """
    method = ISVDMethod.coerce(method)
    target = DecompositionTarget.coerce(target)
    matrix = as_interval_operand(matrix)
    if is_sparse_interval(matrix) and method in (ISVDMethod.ISVD0, ISVDMethod.ISVD1):
        matrix = matrix.to_dense()

    dtype = _resolve_dtype(dtype)
    if dtype is not None and matrix.dtype != dtype:
        matrix = matrix.astype(dtype, outward=True)

    if method is ISVDMethod.ISVD0:
        if target is not DecompositionTarget.C:
            raise ISVDError("ISVD0 produces scalar factors only (decomposition target 'c')")
        return isvd0(matrix, rank, dtype=dtype)
    if method is ISVDMethod.ISVD1:
        return isvd1(matrix, rank, target=target, align_method=align_method,
                     dtype=dtype)
    if method is ISVDMethod.ISVD2:
        return isvd2(matrix, rank, target=target, align_method=align_method,
                     kernel=kernel, dtype=dtype)
    if method is ISVDMethod.ISVD3:
        return isvd3(
            matrix, rank, target=target, align_method=align_method,
            condition_threshold=condition_threshold, kernel=kernel,
            dtype=dtype,
        )
    return isvd4(
        matrix, rank, target=target, align_method=align_method,
        condition_threshold=condition_threshold, kernel=kernel,
        dtype=dtype,
    )
