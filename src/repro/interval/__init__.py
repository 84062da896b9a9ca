"""Interval algebra substrate.

This subpackage implements the interval-valued data model the paper builds on
(Section 2.1): a scalar :class:`~repro.interval.scalar.Interval` value type,
dense :class:`~repro.interval.array.IntervalMatrix` arrays backed by numpy,
and the interval linear-algebra kernels (interval matrix multiplication,
average replacement, diagonal-core inversion, L2 column normalization) that
the ISVD algorithms are built from.

The interval matrix product is selectable (:mod:`repro.interval.kernels`):
the paper-faithful ``endpoint4`` construction stays the default, with sound
``exact`` and ``rump`` alternatives selectable wherever a product runs.
"""

from repro.interval.scalar import Interval
from repro.interval.array import IntervalMatrix
from repro.interval.sparse import (
    SparseIntervalMatrix,
    as_interval_operand,
    is_sparse_interval,
)
from repro.interval.kernels import (
    DEFAULT_KERNEL,
    KernelInfo,
    available_kernels,
    get_kernel,
    kernel_infos,
)
from repro.interval.linalg import (
    interval_matmul,
    interval_gram,
    average_replacement_matrix,
    average_replacement_vector,
    inverse_core,
    norm_mat,
    interval_dot,
    interval_frobenius_norm,
)
from repro.interval.random import (
    random_interval_matrix,
    intervalize,
)

__all__ = [
    "Interval",
    "IntervalMatrix",
    "SparseIntervalMatrix",
    "as_interval_operand",
    "is_sparse_interval",
    "DEFAULT_KERNEL",
    "KernelInfo",
    "available_kernels",
    "get_kernel",
    "kernel_infos",
    "interval_matmul",
    "interval_gram",
    "average_replacement_matrix",
    "average_replacement_vector",
    "inverse_core",
    "norm_mat",
    "interval_dot",
    "interval_frobenius_norm",
    "random_interval_matrix",
    "intervalize",
]
