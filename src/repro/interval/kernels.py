"""Selectable interval matrix-product kernels.

Every hot path of the library — the ISVD gram/U/V steps, target-a
reconstruction, and the serving fold-in — funnels through one operation: the
product of two interval matrices.  The paper's construction (supplementary
Algorithm 1, :data:`endpoint4` here) takes the elementwise min/max over the
four *endpoint-matrix* products.  That is **not** a sound enclosure of the
true product range: min/max must be taken per summand *before* the sum over
the inner dimension, and for mixed-sign operands the four-product shortcut
under-covers.  The canonical counterexample::

    A = [[-1, 1], [-1, 1]]   (one row, two entries, each the interval [-1, 1])
    B = [[2], [-2]]          (scalar column)

    endpoint4:  all four endpoint products are 0      ->  [0, 0]
    true range: x1 * 2 + x2 * (-2),  x1, x2 in [-1, 1] ->  [-4, 4]

This module keeps ``endpoint4`` as the paper-faithful default (reproduction
figures stay byte-identical) and registers two sound alternatives behind one
registry:

``exact``
    The tightest possible enclosure (the interval hull of all products of
    member matrices, entries varying independently).  Vectorized by splitting
    both operands into sign classes — entrywise non-negative, non-positive,
    and zero-straddling ("mixed") — so all class pairs except mixed x mixed
    reduce to masked scalar matmuls; the mixed x mixed remainder needs a
    per-summand min/max and is computed as a memory-bounded chunked
    broadcast.  Asymptotically O(n*m*p) elementwise work in the worst case:
    correctness is not BLAS-shaped, and this kernel documents that cost.

``rump``
    Rump's midpoint-radius fast enclosure: center ``Ac Bc``, radius
    ``|Ac| Br + Ar |Bc| + Ar Br``.  Three BLAS calls as implemented (the
    classical four, with two radius products fused into one), the same
    complexity class as ``endpoint4``, sound everywhere, at most a constant
    factor wider than ``exact`` (the classical bound is 1.5x overestimation
    of the radius).

Select a kernel anywhere an interval product runs: ``interval_matmul(a, b,
kernel="rump")``, ``isvd(..., kernel="exact")``, ``QueryEngine(...,
kernel="rump")``, or ``--interval-kernel`` on the CLI.

Each kernel has one product function, ``_product(a, b, matmul)``, for dense
and sparse operands alike: the operands' storage picks the scalar ``matmul``.
A :class:`~repro.interval.sparse.SparseIntervalMatrix` operand gets
``operator.matmul`` (scipy's sparse BLAS); dense operands get the caller's
primitive or ``numpy.matmul``.  The Gram product ``Mᵀ M`` is that same
product, with the sparse results densified for a sparse ``M``.  The one
specialisation is ``endpoint4``'s sparse gram: its two cross products are
mutual transposes, so it runs three sparse products (SpGEMMs) instead of
four.

On non-negative operands ``endpoint4``'s sparse gram skips the cross
products: the min and max of the four products are ``Lᵀ L`` and ``Uᵀ U``
themselves, so it runs two SpGEMMs and returns the same bytes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.interval.array import IntervalMatrix
from repro.interval.scalar import IntervalError
from repro.interval.sparse import is_sparse_interval, issparse

#: The paper's construction stays the default so reproduction outputs are
#: byte-identical to the seed implementation.
DEFAULT_KERNEL = "endpoint4"

#: Upper bound on the elements of one (n, chunk, p) temporary in the exact
#: kernel's mixed x mixed correction (~32 MB of float64 per temporary).
_MIXED_CHUNK_ELEMENTS = 4_000_000


# --------------------------------------------------------------------------- #
# Low-precision enclosure inflation (directed-rounding-style)
# --------------------------------------------------------------------------- #
def enclosure_pad(magnitude: np.ndarray, inner_dim: int, dtype) -> np.ndarray:
    """Per-entry radius pad making a float32 product a true enclosure.

    numpy has no directed-rounding mode, so a float32 interval product is
    computed round-to-nearest and each endpoint may land on the wrong side
    of the exact value.  The classical forward-error bound for a length-n
    dot product is ``|fl(x.y) - x.y| <= gamma_n * (|x|.|y|)`` with
    ``gamma_n = n*eps / (1 - n*eps)``; ``magnitude`` is the entrywise bound
    ``max(|lower|, |upper|)_A @ max(|lower|, |upper|)_B``, which dominates
    ``|x|.|y|`` over every member product the kernel summed.  The
    coefficient is doubled because the magnitude product itself was
    computed with the same rounding error, and a multiple of the smallest
    normal guards against products underflowing below the bound entirely.
    The sound kernels add this pad — then nudge one more ulp outward via
    ``np.nextafter`` — whenever they execute in float32, so ``exact`` and
    ``rump`` remain true enclosures in low precision (verified by the
    brute-force suite in ``tests/precision/``, not assumed).
    """
    dtype = np.dtype(dtype)
    eps = float(np.finfo(dtype).eps)
    n_ops = int(inner_dim) + 8  # inner sum plus the kernel's few extra adds
    gamma = (n_ops * eps) / (1.0 - n_ops * eps)
    return (2.0 * gamma) * magnitude + dtype.type(np.finfo(dtype).tiny * n_ops)


def _operand_magnitude(operand):
    """Entrywise magnitude bound ``max(|lower|, |upper|)`` of an operand
    (sparse operands keep their pattern)."""
    if is_sparse_interval(operand):
        import scipy.sparse as sp

        data = np.maximum(np.abs(operand.lower.data), np.abs(operand.upper.data))
        return sp.csr_array((data, operand.lower.indices, operand.lower.indptr),
                            shape=operand.shape)
    return np.maximum(np.abs(operand.lower), np.abs(operand.upper))


def _inflate_product(lower, upper, a, b, matmul: Callable):
    """Outward-inflate a float32 product of a sound kernel (no-op otherwise)."""
    if lower.dtype != np.float32:
        return lower, upper
    magnitude = matmul(_operand_magnitude(a), _operand_magnitude(b))
    if issparse(lower):
        # Cells structurally absent from the magnitude product are exactly
        # [0, 0] (every summand has a structural zero), so padding only the
        # stored pattern is sound.
        pad = magnitude.tocsr()
        pad.data = np.asarray(enclosure_pad(pad.data, a.shape[-1], lower.dtype),
                              dtype=lower.dtype)
        lower = (lower - pad).tocsr()
        upper = (upper + pad).tocsr()
        lower.data = np.nextafter(lower.data, np.float32(-np.inf))
        upper.data = np.nextafter(upper.data, np.float32(np.inf))
        return lower, upper
    pad = enclosure_pad(magnitude, a.shape[-1], lower.dtype)
    return (np.nextafter(lower - pad, np.float32(-np.inf)),
            np.nextafter(upper + pad, np.float32(np.inf)))


def _densified_matmul(x, y) -> np.ndarray:
    """Sparse x sparse scalar product, materialized as a dense array (the
    sparse gram's primitive: its ``m x m`` result is small and dense)."""
    return (x @ y).toarray()


@dataclass(frozen=True)
class KernelInfo:
    """One registered interval-product kernel: capability metadata + callables.

    Attributes
    ----------
    key:
        Registry key (``"endpoint4"`` / ``"exact"`` / ``"rump"``).
    summary:
        One-line description for ``repro list-methods``-style tables.
    sound:
        True when the result encloses the true product range for *every*
        input.  ``endpoint4`` is not sound: it under-covers on mixed-sign
        operands (it is exact only on sign-consistent ones).
    tight:
        True when the result is the interval hull itself (no overestimation).
    paper_faithful:
        True for the construction the original authors use; reproduction
        paths must keep this one to stay byte-identical.
    cost:
        Coarse cost class, e.g. ``"4 blas"`` or ``"blas + O(nmp) mixed"``.
    sparse:
        True when the kernel's product runs on
        :class:`SparseIntervalMatrix` operands through scipy's sparse BLAS
        instead of densifying them.  Kernels without sparse support raise on
        sparse operands rather than silently materializing a dense copy.
    """

    key: str
    summary: str
    sound: bool
    tight: bool
    paper_faithful: bool
    cost: str
    sparse: bool
    _product: Callable = field(repr=False)
    #: A sparse gram that beats ``_product(M.T, M, ...)``.  It is returned
    #: as is, with no float32 inflation, so only an unsound kernel may set it.
    _sparse_gram: Optional[Callable] = field(repr=False, default=None)

    def product(self, a, b,
                matmul: Optional[Callable] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of ``a @ b`` under this kernel.

        ``matmul`` overrides the scalar product primitive (default
        ``numpy.matmul``); the serving layer passes its batch-size-invariant
        einsum so micro-batching never changes served bytes.  Sparse operands
        route through scipy's sparse BLAS (``matmul`` does not apply there);
        when both operands are sparse the returned endpoints are sparse too.
        """
        if is_sparse_interval(a) or is_sparse_interval(b):
            if not self.sparse:
                supported = ", ".join(sorted(
                    key for key, info in _KERNELS.items() if info.sparse))
                raise IntervalError(
                    f"kernel {self.key!r} has no sparse execution; densify the "
                    f"operands with .to_dense() or use one of: {supported}"
                )
            matmul = operator.matmul
        elif matmul is None:
            matmul = np.matmul
        return self._enclosure(a, b, matmul)

    def gram(self, matrix) -> Tuple[np.ndarray, np.ndarray]:
        """Dense endpoint arrays of the Gram product ``matrix.T @ matrix``.

        The ISVD2/3/4 hot path.  A dense ``matrix`` runs
        ``product(matrix.T, matrix)`` itself, so the gram and the product
        are the same bytes.  A :class:`SparseIntervalMatrix` on a kernel with
        sparse execution runs the same product in scipy's sparse BLAS and
        only the (small, dense) ``m x m`` results are materialized; on a
        kernel without it, ``product`` raises.
        """
        if not (self.sparse and is_sparse_interval(matrix)):
            return self.product(matrix.T, matrix)
        if self._sparse_gram is not None:
            return self._sparse_gram(matrix)
        return self._enclosure(matrix.T, matrix, _densified_matmul)

    def _enclosure(self, a, b, matmul: Callable) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel's product over ``matmul``, inflated when it is sound."""
        lower, upper = self._product(a, b, matmul)
        if self.sound:
            lower, upper = _inflate_product(lower, upper, a, b, matmul)
        return lower, upper


KernelLike = Union[str, KernelInfo, None]


def get_kernel(kernel: KernelLike = None) -> KernelInfo:
    """Resolve a kernel key (or pass an info through); ``None`` is the default.

    Raises :class:`~repro.interval.scalar.IntervalError` for unknown keys, so
    a typo in ``--interval-kernel`` or a config file fails loudly instead of
    silently computing with the wrong enclosure semantics.
    """
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, KernelInfo):
        return kernel
    try:
        return _KERNELS[str(kernel).lower()]
    except KeyError:
        raise IntervalError(
            f"unknown interval kernel {kernel!r}; available: {', '.join(available_kernels())}"
        ) from None


def available_kernels() -> List[str]:
    """Sorted list of registered kernel keys."""
    return sorted(_KERNELS)


def kernel_infos() -> List[KernelInfo]:
    """All registered kernels, sorted by key."""
    return [_KERNELS[key] for key in available_kernels()]


# --------------------------------------------------------------------------- #
# endpoint4 — the paper's four-endpoint construction (supplementary Alg. 1)
# --------------------------------------------------------------------------- #
def _nonnegative(*endpoints) -> bool:
    """True when every endpoint array is finite and ``>= +0.0``.

    Over such operands every summand of ``LᵀL``, ``LᵀU`` and ``UᵀU`` is
    ordered the same way, and rounding is monotone, so when all four
    products sum each entry in one order the four-product min/max is
    exactly ``(LᵀL, UᵀU)``.  ``-0.0`` (signed-zero sums may differ), NaN
    (``signbit`` passes it) and ``inf`` (``0 * inf`` is NaN) all fail the
    test.  Sparse endpoints are judged by their stored values.
    """
    for endpoint in endpoints:
        values = endpoint.data if issparse(endpoint) else endpoint
        if np.signbit(values).any() or not np.isfinite(values).all():
            return False
    return True


def _endpoint4_product(a, b, matmul: Callable) -> Tuple[np.ndarray, np.ndarray]:
    products = (
        matmul(a.lower, b.lower),
        matmul(a.lower, b.upper),
        matmul(a.upper, b.lower),
        matmul(a.upper, b.upper),
    )
    if issparse(products[0]):
        # sparse x sparse stays sparse end to end: the elementwise
        # minimum/maximum of the four sparse products treats absent cells
        # as 0, exactly like the dense reduction over a structurally-zero
        # column.
        first, *rest = products
        lower = upper = first
        for product in rest:
            lower = lower.minimum(product)
            upper = upper.maximum(product)
        return lower.tocsr(), upper.tocsr()
    stacked = np.stack(products)
    return stacked.min(axis=0), stacked.max(axis=0)


def _endpoint4_sparse_gram(m) -> Tuple[np.ndarray, np.ndarray]:
    """Gram product of a sparse operand in scipy's sparse BLAS."""
    # The two cross endpoint products of a Gram matrix are mutual transposes
    # (LᵀU = (UᵀL)ᵀ — same summand products, reassociated), so signed data
    # computes one and transposes it: 3 products instead of 4.  On
    # non-negative data scipy sums all four in one stored-index order, so
    # LᵀL <= LᵀU <= UᵀU entry by entry (see _nonnegative) and the min/max
    # are the two outer products: 2 products.
    lower_t = m.lower.T.tocsr()
    upper_t = m.upper.T.tocsr()
    low = (lower_t @ m.lower).toarray()
    high = (upper_t @ m.upper).toarray()
    if _nonnegative(m.lower, m.upper):
        return low, high
    cross = (lower_t @ m.upper).toarray()
    stacked = np.stack([low, cross, cross.T, high])
    return stacked.min(axis=0), stacked.max(axis=0)


# --------------------------------------------------------------------------- #
# exact — sign-class decomposition of the interval hull
# --------------------------------------------------------------------------- #
def _exact_product(a: IntervalMatrix, b: IntervalMatrix,
                   matmul: Callable) -> Tuple[np.ndarray, np.ndarray]:
    # The hull needs per-summand case analysis, so 1-D operands are promoted
    # to matrices and the result squeezed back to numpy.matmul's shape.
    al, au = np.atleast_2d(a.lower), np.atleast_2d(a.upper)
    squeeze_rows = a.lower.ndim == 1
    if b.lower.ndim == 1:
        bl, bu = b.lower[:, np.newaxis], b.upper[:, np.newaxis]
        squeeze_cols = True
    else:
        bl, bu = b.lower, b.upper
        squeeze_cols = False

    # Sign classes per entry.  Degenerate zeros land in the non-negative
    # class; every entry belongs to exactly one class, so each summand of the
    # product is accounted for exactly once below.
    a_pos = al >= 0.0
    a_neg = ~a_pos & (au <= 0.0)
    a_mix = ~(a_pos | a_neg)
    b_pos = bl >= 0.0
    b_neg = ~b_pos & (bu <= 0.0)
    b_mix = ~(b_pos | b_neg)

    # For sign-consistent A entries the extremal B endpoint depends only on
    # the sign of B's own endpoint, so clipping B at zero folds all three B
    # classes into two matmuls per bound:
    #   a >= 0:  lo = al*max(bl,0) + au*min(bl,0),  hi = au*max(bu,0) + al*min(bu,0)
    #   a <= 0:  lo = al*max(bu,0) + au*min(bu,0),  hi = au*max(bl,0) + al*min(bl,0)
    bl_pos, bl_neg = np.maximum(bl, 0.0), np.minimum(bl, 0.0)
    bu_pos, bu_neg = np.maximum(bu, 0.0), np.minimum(bu, 0.0)

    ap_l, ap_u = np.where(a_pos, al, 0.0), np.where(a_pos, au, 0.0)
    lower = matmul(ap_l, bl_pos) + matmul(ap_u, bl_neg)
    upper = matmul(ap_u, bu_pos) + matmul(ap_l, bu_neg)

    an_l, an_u = np.where(a_neg, al, 0.0), np.where(a_neg, au, 0.0)
    lower += matmul(an_l, bu_pos) + matmul(an_u, bu_neg)
    upper += matmul(an_u, bl_pos) + matmul(an_l, bl_neg)

    # Mixed A entries against sign-consistent B entries are still one product
    # per bound:  b >= 0: [al*bu, au*bu];  b <= 0: [au*bl, al*bl].  When A has
    # no mixed entry at all, every one of these operands is the zero matrix,
    # so the four matmuls (and the mixed x mixed correction below) are skipped
    # outright — sign-consistent left operands pay for 8 BLAS calls, not 12.
    a_has_mixed = bool(a_mix.any())
    if a_has_mixed:
        am_l, am_u = np.where(a_mix, al, 0.0), np.where(a_mix, au, 0.0)
        bp_u = np.where(b_pos, bu, 0.0)
        bn_l = np.where(b_neg, bl, 0.0)
        lower += matmul(am_l, bp_u) + matmul(am_u, bn_l)
        upper += matmul(am_u, bp_u) + matmul(am_l, bn_l)

    # Mixed x mixed is the irreducible part: the bound is a per-summand
    # min/max of two products — [min(al*bu, au*bl), max(al*bl, au*bu)] — and
    # cannot be expressed with a constant number of matmuls.  Entries outside
    # the mixed classes are zeroed, so their min/max contributions vanish and
    # no boolean masking is needed inside the chunk loop.
    if a_has_mixed and b_mix.any():
        bm_l = np.where(b_mix, bl, 0.0)
        bm_u = np.where(b_mix, bu, 0.0)
        columns = np.flatnonzero(a_mix.any(axis=0) & b_mix.any(axis=1))
        n, p = al.shape[0], bl.shape[1]
        step = max(1, int(_MIXED_CHUNK_ELEMENTS // max(1, n * p)))
        for start in range(0, columns.size, step):
            j = columns[start:start + step]
            a_lo = am_l[:, j][:, :, np.newaxis]
            a_hi = am_u[:, j][:, :, np.newaxis]
            b_lo = bm_l[j][np.newaxis, :, :]
            b_hi = bm_u[j][np.newaxis, :, :]
            lower += np.minimum(a_lo * b_hi, a_hi * b_lo).sum(axis=1)
            upper += np.maximum(a_lo * b_lo, a_hi * b_hi).sum(axis=1)

    if squeeze_cols:
        lower, upper = lower[..., 0], upper[..., 0]
    if squeeze_rows:
        lower, upper = lower[0], upper[0]
    return lower, upper


# --------------------------------------------------------------------------- #
# rump — midpoint-radius fast enclosure (Rump 1999)
# --------------------------------------------------------------------------- #
def _rump_product(a, b, matmul: Callable) -> Tuple[np.ndarray, np.ndarray]:
    # Midpoint/radius of a sparse operand share its sparsity pattern, so the
    # whole construction runs in whichever storage the operands use.
    a_center, a_radius = a.midpoint(), a.radius()
    b_center, b_radius = b.midpoint(), b.radius()
    center = matmul(a_center, b_center)
    # |Ac| Br + Ar (|Bc| + Br): three radius products fused into two matmuls.
    radius = matmul(abs(a_center), b_radius) + matmul(
        a_radius, abs(b_center) + b_radius
    )
    if issparse(center) and issparse(radius):
        return (center - radius).tocsr(), (center + radius).tocsr()
    return center - radius, center + radius


_KERNELS: Dict[str, KernelInfo] = {info.key: info for info in (
    KernelInfo(
        key="endpoint4",
        summary="paper's four-endpoint-product min/max (Alg. 1); unsound on mixed signs",
        sound=False, tight=False, paper_faithful=True,
        cost="4 blas (sparse gram: 2 on >= 0 data)", sparse=True,
        _product=_endpoint4_product,
        _sparse_gram=_endpoint4_sparse_gram,
    ),
    KernelInfo(
        key="exact",
        summary="sign-class-decomposed interval hull; tightest, O(nmp) on mixed x mixed",
        sound=True, tight=True, paper_faithful=False, cost="12 blas + O(nmp) mixed",
        sparse=False,
        _product=_exact_product,
    ),
    KernelInfo(
        key="rump",
        summary="midpoint-radius enclosure (Rump); sound, 3 blas, slightly wider",
        sound=True, tight=False, paper_faithful=False, cost="3 blas", sparse=True,
        _product=_rump_product,
    ),
)}
