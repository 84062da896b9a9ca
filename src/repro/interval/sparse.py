"""Sparse interval matrices: a CSR endpoint pair sharing one sparsity pattern.

The dense :class:`~repro.interval.array.IntervalMatrix` stores every entry of
both endpoint matrices, which wastes ~99% of its memory (and all of its matmul
FLOPs) on structural zeros for workloads like the paper's rating matrices,
where a cell is the degenerate interval ``[0, 0]`` unless the user actually
rated the item.  :class:`SparseIntervalMatrix` stores only the observed cells:
one CSR sparsity pattern (``indices`` / ``indptr``) shared by two data arrays,
the lower and upper endpoint values.  Cells outside the pattern are the scalar
zero interval, exactly as in the dense rating construction.

The validation contract matches the dense type: every *stored* entry must
satisfy ``lower <= upper`` and carry no NaN (implicit zeros are trivially
valid).  Misordered stored entries raise
:class:`~repro.interval.scalar.IntervalError` unless ``check=False``.

Sparse execution lives in :mod:`repro.interval.kernels`: the ``endpoint4`` and
``rump`` kernels multiply sparse operands through scipy's sparse BLAS
(sparse x dense and sparse x sparse), and :func:`repro.interval.linalg.interval_gram`
computes the ISVD Gram step without ever densifying the input.  The ``exact``
kernel has no sparse path — its mixed-sign correction is inherently dense — and
raises rather than silently materializing the dense operands.

``scipy.sparse`` is imported only when sparse data first appears: inside the
functions that build CSR arrays (the constructors, and the casts and interval
views, which rebuild arrays on the shared pattern).  The dense hot paths test
operands with :func:`issparse`, which never imports scipy, so a process that
only serves dense factors — a ``repro serve`` front end or a ``--workers``
shard — loads no ``scipy`` module.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from repro.interval.array import IntervalMatrix
from repro.interval.scalar import IntervalError

if TYPE_CHECKING:
    import scipy.sparse as sp


def issparse(value) -> bool:
    """``scipy.sparse.issparse`` without importing ``scipy.sparse``.

    Exact: importing any ``scipy.sparse`` submodule imports the package
    first, so no object can be a scipy sparse matrix/array before
    ``scipy.sparse`` is in ``sys.modules``.
    """
    module = sys.modules.get("scipy.sparse")
    return module is not None and module.issparse(value)


def _endpoint_dtype(lower, upper) -> np.dtype:
    """Common endpoint dtype of a pair of operands: float32 only when both
    already are (the opt-in low-precision mode), float64 otherwise — so the
    default path stays byte-identical and integer/list inputs still land on
    float64."""
    if (getattr(lower, "dtype", None) == np.float32
            and getattr(upper, "dtype", None) == np.float32):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _row_keys(matrix: "sp.csr_array") -> np.ndarray:
    """Global row-major cell keys (``row * n_cols + col``) of a CSR pattern."""
    rows = np.repeat(np.arange(matrix.shape[0], dtype=np.int64),
                     np.diff(matrix.indptr))
    return rows * np.int64(matrix.shape[1]) + matrix.indices.astype(np.int64)


def _unify_patterns(lower: "sp.csr_array",
                    upper: "sp.csr_array") -> Tuple["sp.csr_array", "sp.csr_array"]:
    """Expand two CSR matrices onto the union of their sparsity patterns.

    Cells present in only one operand get an explicit stored zero in the
    other, so both results share one (sorted) pattern.  scipy's sparse
    addition prunes numerically-zero results, so the union is built from the
    merged cell keys instead.
    """
    import scipy.sparse as sp

    shape = lower.shape
    keys_lower = _row_keys(lower)
    keys_upper = _row_keys(upper)
    union = np.union1d(keys_lower, keys_upper)
    lower_data = np.zeros(union.size, dtype=lower.data.dtype)
    lower_data[np.searchsorted(union, keys_lower)] = lower.data
    upper_data = np.zeros(union.size, dtype=upper.data.dtype)
    upper_data[np.searchsorted(union, keys_upper)] = upper.data
    rows = (union // shape[1]).astype(np.int64)
    cols = (union % shape[1]).astype(np.int64)
    pattern = sp.csr_array((lower_data, (rows, cols)), shape=shape)
    pattern.sort_indices()
    return pattern, sp.csr_array((upper_data, pattern.indices, pattern.indptr),
                                 shape=shape)


class SparseIntervalMatrix:
    """A 2-D sparse matrix whose stored entries are closed intervals.

    Parameters
    ----------
    lower:
        Lower endpoint values: a scipy sparse matrix/array or anything
        ``scipy.sparse.csr_array`` accepts.
    upper:
        Upper endpoint values, same shape.  If the two operands' sparsity
        patterns differ, both are expanded onto the union pattern (the missing
        entries become explicit zeros) so one pattern describes both.
    check:
        When True (default), validates that every stored entry satisfies
        ``lower <= upper`` and contains no NaN, raising
        :class:`~repro.interval.scalar.IntervalError` otherwise.

    Examples
    --------
    >>> import scipy.sparse as sp
    >>> m = SparseIntervalMatrix(sp.csr_array([[1.0, 0.0]]), sp.csr_array([[2.0, 0.0]]))
    >>> m.shape, m.nnz
    ((1, 2), 1)
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper, *, check: bool = True):
        import scipy.sparse as sp

        dtype = _endpoint_dtype(lower, upper)
        lower = sp.csr_array(lower, dtype=dtype)
        upper = sp.csr_array(upper, dtype=dtype)
        if lower.shape != upper.shape:
            raise IntervalError(
                f"lower/upper shape mismatch: {lower.shape} vs {upper.shape}"
            )
        if lower.ndim != 2:
            raise IntervalError("SparseIntervalMatrix requires 2-D operands")
        for side in (lower, upper):
            side.sum_duplicates()
            side.sort_indices()
        if (lower.nnz != upper.nnz
                or not np.array_equal(lower.indices, upper.indices)
                or not np.array_equal(lower.indptr, upper.indptr)):
            lower, upper = _unify_patterns(lower, upper)
        # Re-point the upper matrix at the lower's pattern arrays so the
        # pattern is physically shared, not merely equal (the csr constructor
        # may copy index arrays, so assign the attributes directly).
        upper.indices = lower.indices
        upper.indptr = lower.indptr
        if check:
            if np.isnan(lower.data).any() or np.isnan(upper.data).any():
                raise IntervalError("interval matrices must not contain NaN")
            if (lower.data > upper.data).any():
                bad = int((lower.data > upper.data).sum())
                raise IntervalError(
                    f"{bad} stored entries have lower > upper; use check=False "
                    "for intermediate matrices"
                )
        self.lower = lower
        self.upper = upper

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, matrix: Union[IntervalMatrix, np.ndarray],
                   *, check: bool = True) -> "SparseIntervalMatrix":
        """Convert a dense interval matrix, dropping ``[0, 0]`` cells.

        A cell enters the pattern when either endpoint is non-zero, so the
        conversion is lossless: ``from_dense(m).to_dense()`` reproduces ``m``
        byte for byte.
        """
        import scipy.sparse as sp

        matrix = IntervalMatrix.coerce(matrix)
        if matrix.ndim != 2:
            raise IntervalError("from_dense expects a 2-D interval matrix")
        mask = (matrix.lower != 0.0) | (matrix.upper != 0.0)
        pattern = sp.csr_array(mask)
        pattern.sort_indices()
        # np.nonzero / boolean masking iterate row-major, matching the sorted
        # CSR enumeration order, so the data lines up with the pattern.
        lower = sp.csr_array((matrix.lower[mask], pattern.indices, pattern.indptr),
                             shape=matrix.shape)
        upper = sp.csr_array((matrix.upper[mask], pattern.indices, pattern.indptr),
                             shape=matrix.shape)
        return cls(lower, upper, check=check)

    @classmethod
    def from_coo(cls, rows, cols, lower_data, upper_data,
                 shape: Tuple[int, int], *, check: bool = True) -> "SparseIntervalMatrix":
        """Build from coordinate triplets (duplicates are summed per endpoint)."""
        import scipy.sparse as sp

        rows = np.asarray(rows)
        cols = np.asarray(cols)
        dtype = _endpoint_dtype(np.asarray(lower_data), np.asarray(upper_data))
        lower = sp.csr_array((np.asarray(lower_data, dtype=dtype), (rows, cols)),
                             shape=shape)
        upper = sp.csr_array((np.asarray(upper_data, dtype=dtype), (rows, cols)),
                             shape=shape)
        return cls(lower, upper, check=check)

    @classmethod
    def coerce(cls, value) -> "SparseIntervalMatrix":
        """Pass sparse matrices through; convert anything dense via ``from_dense``."""
        if isinstance(value, SparseIntervalMatrix):
            return value
        return cls.from_dense(value)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """Logical (rows, cols) shape."""
        return self.lower.shape

    @property
    def ndim(self) -> int:
        """Always 2."""
        return 2

    @property
    def size(self) -> int:
        """Total number of logical entries (including implicit zeros)."""
        return int(self.shape[0]) * int(self.shape[1])

    @property
    def nnz(self) -> int:
        """Number of stored cells (the shared pattern's size)."""
        return int(self.lower.nnz)

    @property
    def density(self) -> float:
        """Fraction of cells stored explicitly."""
        return self.nnz / self.size if self.size else 0.0

    @property
    def dtype(self) -> np.dtype:
        """Endpoint dtype (shared by the lower and upper data arrays)."""
        return self.lower.dtype

    @property
    def T(self) -> "SparseIntervalMatrix":
        """Transpose (endpointwise)."""
        return SparseIntervalMatrix(self.lower.T.tocsr(), self.upper.T.tocsr(),
                                    check=False)

    def astype(self, dtype, *, outward: bool = False) -> "SparseIntervalMatrix":
        """Endpoint cast to another dtype (no-op when already there).

        Same contract as :meth:`IntervalMatrix.astype`: a narrowing cast
        rounds to nearest (order-preserving but possibly shrinking), and
        ``outward=True`` nudges inward-rounded endpoints one ulp back out
        so the cast encloses the original stored intervals.
        """
        dtype = np.dtype(dtype)
        if dtype == self.lower.dtype:
            return self
        lower_data = self.lower.data.astype(dtype)
        upper_data = self.upper.data.astype(dtype)
        if outward:
            lower_data = np.where(
                lower_data.astype(self.lower.dtype) > self.lower.data,
                np.nextafter(lower_data, dtype.type(-np.inf)), lower_data)
            upper_data = np.where(
                upper_data.astype(self.upper.dtype) < self.upper.data,
                np.nextafter(upper_data, dtype.type(np.inf)), upper_data)
        return SparseIntervalMatrix(self._on_pattern(lower_data),
                                    self._on_pattern(upper_data), check=False)

    def copy(self) -> "SparseIntervalMatrix":
        """Deep copy of both endpoint matrices."""
        return SparseIntervalMatrix(self.lower.copy(), self.upper.copy(), check=False)

    def endpoint_nbytes(self) -> int:
        """Bytes of the representation: two data arrays plus one shared pattern.

        This is the sparse side of the memory model documented in the README:
        ``nnz * (2 * 8 + indices itemsize) + indptr`` versus the dense
        ``2 * rows * cols * 8``.
        """
        return int(self.lower.data.nbytes + self.upper.data.nbytes
                   + self.lower.indices.nbytes + self.lower.indptr.nbytes)

    # ------------------------------------------------------------------ #
    # Interval views
    # ------------------------------------------------------------------ #
    def _on_pattern(self, data) -> "sp.csr_array":
        """CSR array of per-cell ``data`` on the shared pattern."""
        import scipy.sparse as sp

        return sp.csr_array((data, self.lower.indices, self.lower.indptr),
                            shape=self.shape)

    def midpoint(self) -> "sp.csr_array":
        """Sparse elementwise midpoints (same pattern as the endpoints)."""
        return self._on_pattern(0.5 * (self.lower.data + self.upper.data))

    def radius(self) -> "sp.csr_array":
        """Sparse elementwise radii (half spans)."""
        return self._on_pattern(0.5 * (self.upper.data - self.lower.data))

    def span(self) -> "sp.csr_array":
        """Sparse elementwise spans ``upper - lower``."""
        return self._on_pattern(self.upper.data - self.lower.data)

    def is_valid(self) -> bool:
        """True when every stored entry satisfies ``lower <= upper``."""
        return bool((self.lower.data <= self.upper.data).all())

    def max_span(self) -> float:
        """Largest span over all entries (implicit zeros have span 0)."""
        if self.nnz == 0:
            return 0.0
        return float(max((self.upper.data - self.lower.data).max(), 0.0))

    def mean_span(self) -> float:
        """Average span over all logical entries."""
        if self.size == 0:
            return 0.0
        return float((self.upper.data - self.lower.data).sum() / self.size)

    # ------------------------------------------------------------------ #
    # Conversions / slicing
    # ------------------------------------------------------------------ #
    def to_dense(self) -> IntervalMatrix:
        """Materialize the full dense :class:`IntervalMatrix`."""
        return IntervalMatrix(self.lower.toarray(), self.upper.toarray(),
                              check=False)

    def rows(self, indices) -> "SparseIntervalMatrix":
        """Sub-matrix of the selected rows (still sparse)."""
        indices = np.asarray(indices)
        return SparseIntervalMatrix(self.lower[indices], self.upper[indices],
                                    check=False)

    def row_pattern(self, index: int) -> np.ndarray:
        """Column indices of the cells stored in one row."""
        start, stop = self.lower.indptr[index], self.lower.indptr[index + 1]
        return self.lower.indices[start:stop]

    def __matmul__(self, other):
        from repro.interval.linalg import interval_matmul

        return interval_matmul(self, other)

    def __repr__(self) -> str:
        return (
            f"SparseIntervalMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4g}, valid={self.is_valid()})"
        )


IntervalOperand = Union[SparseIntervalMatrix, IntervalMatrix, np.ndarray]


def is_sparse_interval(value) -> bool:
    """True for :class:`SparseIntervalMatrix` operands."""
    return isinstance(value, SparseIntervalMatrix)


def as_interval_operand(value: IntervalOperand) -> Union[SparseIntervalMatrix, IntervalMatrix]:
    """Coerce to an interval operand, preserving sparsity.

    Sparse interval matrices pass through untouched; everything else goes
    through :meth:`IntervalMatrix.coerce` (scalar ndarrays become degenerate
    dense intervals).  This is the coercion every sparse-aware entry point
    (``interval_matmul``, ``interval_gram``, ``isvd``, the experiment engine)
    uses in place of a bare ``IntervalMatrix.coerce``.
    """
    if isinstance(value, SparseIntervalMatrix):
        return value
    return IntervalMatrix.coerce(value)
