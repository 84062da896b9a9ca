"""Fold-in of unseen interval rows into a fitted model's latent space.

Serving a decomposition means answering queries for rows the model was never
fitted on (a new user's rating ranges, a new face's interval features) without
re-running the factorization.  The classic LSI fold-in does this for scalar
SVD: a new row ``x`` becomes ``u = x V Sigma^{-1}``, the least-squares
solution of ``u (Sigma V^T) ~= x``.  :class:`FoldInProjector` generalizes the
idea to every decomposition the registry can produce:

* the **scalar path** projects through the Moore-Penrose pseudo-inverse of
  the midpoint item map ``Sigma_mid V_mid^T`` — exact for the scalar-factor
  methods and the natural choice wherever scoring happens on midpoints;
* the **interval path** (for interval-factor targets) projects the lower and
  upper endpoints separately through the pseudo-inverses built from the
  lower/upper ``V``/``Sigma`` factors, then sorts the endpoints, yielding a
  valid interval latent row.

Because ``pinv`` restricted to the latent row span is an exact left inverse
of the item map, folding in anything the model can itself produce (a served
reconstruction row) recovers it to numerical tolerance — the property the
test suite checks for every registered method and target.

Sparse query rows (:class:`~repro.interval.sparse.SparseIntervalMatrix`) get
*observed-only* semantics: a cell absent from the sparsity pattern means "the
user never rated this item", not "the user rated it zero", so only the
observed columns enter the least-squares projection — each row solves against
the item map restricted to its own observed columns.  This is the classic
masked fold-in of CF serving, and it is what makes a 20-rating query row
meaningful against a 2 000-item model.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple, Union

import numpy as np

from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike, get_kernel
from repro.interval.linalg import interval_matmul
from repro.interval.sparse import SparseIntervalMatrix, is_sparse_interval

Rows = Union[np.ndarray, IntervalMatrix, SparseIntervalMatrix]


def batch_invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product whose per-row results do not depend on the batch size.

    BLAS gemm chooses blocking (and therefore accumulation order) from the
    output shape, so the same logical row can differ in the last ulp between
    a ``1 x m`` call and a ``q x m`` call.  The serving layer promises that
    micro-batching never changes an answer, so its hot path uses einsum's
    fixed reduction order — each output row depends only on its own input
    row.  Latent ranks are small, so the BLAS throughput given up is minor.
    """
    return np.einsum("ij,jk->ik", a, b)


class FoldInProjector:
    """Maps unseen interval rows into a decomposition's latent row space.

    Each pseudo-inverse (``m x r``) is computed once, on the first dense
    fold-in that needs it, so folding a batch of rows is a single matrix
    product; an engine that only scores stored users never computes one.

    Every method accepts ``rows`` as a dense ``(q, m)``
    :class:`IntervalMatrix` / ndarray (a 1-D length-``m`` row is promoted to
    one query row, scalars to degenerate intervals) or a ``(q, m)``
    :class:`~repro.interval.sparse.SparseIntervalMatrix` of partially
    observed rows, where ``m`` is the model's item count.

    ``kernel`` selects the interval-product kernel
    (:mod:`repro.interval.kernels`) for the latent-feature product of
    :meth:`latent_features`; the scalar fold-in paths are kernel-independent.

    **Batch-invariance guarantee.**  Dense projections run through
    :func:`batch_invariant_matmul` and sparse projections solve one least
    squares per row, so each folded row is a pure function of its own input
    row and the model: stacking rows into larger batches (micro-batching,
    shard scatter) never changes any result bit.
    """

    def __init__(self, decomposition: IntervalDecomposition,
                 kernel: KernelLike = None):
        self.decomposition = decomposition
        self.kernel = get_kernel(kernel)
        self.rank = decomposition.rank
        self.n_items = int(decomposition.v.shape[0])

        #: Scalar item map ``Sigma_mid V_mid^T`` (r x m).
        self.item_map = decomposition.item_map()

        sigma_lo, sigma_hi = decomposition.sigma_endpoints()
        v_lo, v_hi = decomposition.v_endpoints()
        if decomposition.is_interval_factors or decomposition.is_interval_core:
            #: Endpoint item maps (r x m), kept for the masked sparse path
            #: whose per-row column restriction cannot reuse a global pinv.
            self._map_lower = sigma_lo @ v_lo.T
            self._map_upper = sigma_hi @ v_hi.T
        else:
            self._map_lower = self._map_upper = self.item_map

    @cached_property
    def _pinv_mid(self) -> np.ndarray:
        return np.linalg.pinv(self.item_map)

    @cached_property
    def _pinv_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._map_lower is self.item_map:  # scalar factors: one pinv
            return self._pinv_mid, self._pinv_mid
        return np.linalg.pinv(self._map_lower), np.linalg.pinv(self._map_upper)

    # ------------------------------------------------------------------ #
    # Input normalization
    # ------------------------------------------------------------------ #
    def _coerce_rows(self, rows: Rows) -> Union[IntervalMatrix, SparseIntervalMatrix]:
        if not is_sparse_interval(rows):
            rows = IntervalMatrix.coerce(rows)
            if rows.ndim == 1:
                rows = IntervalMatrix(rows.lower[np.newaxis, :], rows.upper[np.newaxis, :],
                                      check=False)
        if rows.ndim != 2 or rows.shape[1] != self.n_items:
            raise ValueError(
                f"expected query rows of width {self.n_items}, got shape {rows.shape}"
            )
        return rows

    def _masked_least_squares(self, rows: SparseIntervalMatrix, values: np.ndarray,
                              item_map: np.ndarray) -> np.ndarray:
        """Per-row least squares restricted to each row's observed columns.

        ``values`` is a data array aligned with the rows' shared CSR pattern.
        Each row solves ``min_u || u @ item_map[:, observed] - values_row ||``;
        a row with no observations folds to the zero latent vector (scoring it
        yields the model's all-zero baseline, the natural cold-start answer).
        """
        indptr = rows.lower.indptr
        indices = rows.lower.indices
        latent = np.zeros((rows.shape[0], self.rank), dtype=item_map.dtype)
        for i in range(rows.shape[0]):
            start, stop = indptr[i], indptr[i + 1]
            if start == stop:
                continue
            columns = indices[start:stop]
            design = item_map[:, columns].T
            latent[i] = np.linalg.lstsq(design, values[start:stop], rcond=None)[0]
        return latent

    # ------------------------------------------------------------------ #
    # Projections
    # ------------------------------------------------------------------ #
    def fold_in(self, rows: Rows) -> np.ndarray:
        """Scalar latent coordinates (``q x r``) of the rows' midpoints.

        ``u = x_mid pinv(Sigma_mid V_mid^T)`` — the least-squares latent row
        whose reconstruction best approximates the query row.  Sparse rows
        solve the same least-squares problem restricted to their observed
        columns (unobserved items exert no pull toward a zero rating).
        """
        rows = self._coerce_rows(rows)
        if is_sparse_interval(rows):
            midpoints = 0.5 * (rows.lower.data + rows.upper.data)
            return self._masked_least_squares(rows, midpoints, self.item_map)
        return batch_invariant_matmul(rows.midpoint(), self._pinv_mid)

    def fold_in_interval(self, rows: Rows) -> IntervalMatrix:
        """Interval latent coordinates (``q x r``) of the rows.

        Lower and upper endpoints are projected separately through the
        endpoint pseudo-inverses; the results are sorted elementwise so the
        latent row is a valid interval even when a projector column flips the
        ordering (pseudo-inverses may contain negative entries).  Sparse rows
        project each endpoint through the observed-column least squares
        against the matching endpoint item map.
        """
        rows = self._coerce_rows(rows)
        if is_sparse_interval(rows):
            lower = self._masked_least_squares(rows, rows.lower.data, self._map_lower)
            upper = self._masked_least_squares(rows, rows.upper.data, self._map_upper)
        else:
            pinv_lower, pinv_upper = self._pinv_endpoints
            lower = batch_invariant_matmul(rows.lower, pinv_lower)
            upper = batch_invariant_matmul(rows.upper, pinv_upper)
        return IntervalMatrix(np.minimum(lower, upper), np.maximum(lower, upper))

    def latent_features(self, rows: Rows) -> IntervalMatrix:
        """Fold rows in and return ``u x Sigma`` features (``q x r``).

        These live in the same space as the stored rows' features
        (:meth:`~repro.core.result.IntervalDecomposition.projection`), so a
        folded-in query row can be compared against the training rows with
        the paper's interval distance (nearest-neighbour serving).
        """
        u = self.fold_in_interval(rows)
        sigma = self.decomposition.sigma
        if not isinstance(sigma, IntervalMatrix):
            sigma = np.asarray(sigma)
            if sigma.dtype != np.float32:
                sigma = np.asarray(sigma, dtype=float)
            sigma = IntervalMatrix.from_scalar(sigma)
        return interval_matmul(u, sigma, matmul=batch_invariant_matmul,
                               kernel=self.kernel)

    def reconstruct_rows(self, rows: Rows) -> np.ndarray:
        """Served (midpoint) reconstruction of the query rows (``q x m``).

        Fold-in followed by the item map: the model's best rank-``r`` account
        of each query row, used directly as recommendation scores.
        """
        return batch_invariant_matmul(self.fold_in(rows), self.item_map)
