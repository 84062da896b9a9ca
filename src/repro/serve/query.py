"""Vectorized query answering over one fitted decomposition.

The two paper workloads the serving layer answers online:

* **recommendation** — predicted ratings are the midpoint reconstruction of
  the (folded-in) user row, the same semantics :mod:`repro.eval.cf` scores
  offline; ``top_k_items`` returns the best-scoring item indices;
* **retrieval** — ``nearest_neighbors`` compares a folded-in query row
  against the training rows' latent features with the paper's interval
  Euclidean distance (:func:`repro.eval.knn.pairwise_interval_distances`).

Both entry points are batched: a ``q``-row query is one batch-invariant
einsum product (:func:`~repro.serve.foldin.batch_invariant_matmul`, not
BLAS, whose rounding depends on the batch shape) plus one vectorized
selection, never a Python loop over rows.  Retrieval scores against the
stored rows' endpoint features, stacked once when the engine is built.
Selection ranks under a *total order* — score first, ties (including ties
at the selection boundary) by ascending index — so results are
reproducible bit for bit across batch sizes, thread counts, and row-range
shardings (:mod:`repro.serve.shard` relies on this to merge per-shard
top-k lists).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.result import IntervalDecomposition
from repro.eval.knn import pairwise_interval_squared_distances, stack_references
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike
from repro.serve.foldin import FoldInProjector, Rows, batch_invariant_matmul


class TopKResult(NamedTuple):
    """Per-row top-k indices and their scores (rows in query order)."""

    indices: np.ndarray
    """``(q, k)`` integer array of item/row indices, best first."""

    scores: np.ndarray
    """``(q, k)`` float array aligned with ``indices``."""


def top_k(scores: np.ndarray, k: int, largest: bool = True) -> TopKResult:
    """Fully deterministic per-row top-k selection under a *total order*.

    Parameters
    ----------
    scores:
        ``(q, m)`` float array of per-row candidate scores.  Scores must not
        contain NaN (the serving layer validates inputs finite; NaN has no
        place in a total order).
    k:
        Number of entries to select per row; clipped to ``m``.
    largest:
        Select the highest scores (recommendation) or the lowest (distances).

    Every row is ranked under the total order *(score, then ascending
    index)* — including items tying exactly at the selection boundary, which
    are admitted in ascending-index order.  Selection is therefore a pure
    function of the row's values: independent of batch size, of numpy's
    partition order, and — critically for the sharding layer — of *how the
    score row was partitioned*.  A per-shard top-k over row-range slices
    merged with :func:`top_k_from_candidates` reproduces this function's
    output bit for bit, which is what makes scatter-gather serving
    byte-stable (see :mod:`repro.serve.shard`).

    Selection uses ``argpartition`` (O(m) per row, the hot path never sorts
    whole score rows) plus one comparison pass that detects rows whose
    boundary ties were picked arbitrarily; only those rows are re-selected
    under the total order, then every row's ``k`` entries are ordered by
    (score, index).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q, m = scores.shape
    k = min(k, m)
    keys = -scores if largest else scores
    if k >= m:
        order = np.argsort(keys, axis=1, kind="stable")
    else:
        candidates = np.argpartition(keys, k - 1, axis=1)[:, :k]
        candidate_keys = np.take_along_axis(keys, candidates, axis=1)
        # The selected *set* is ambiguous only when entries tying exactly at
        # the boundary (the k-th smallest key) were left outside the
        # partition's pick; those rows are re-selected under the total order
        # (everything strictly below the boundary, then the lowest-index
        # boundary ties).  Exact cross-entry ties are rare on float scores,
        # so the hot path stays one argpartition plus one comparison pass.
        boundary = candidate_keys.max(axis=1, keepdims=True)
        ambiguous = np.flatnonzero(
            (keys == boundary).sum(axis=1) > (candidate_keys == boundary).sum(axis=1))
        for row in ambiguous:
            row_keys = keys[row]
            below = np.flatnonzero(row_keys < boundary[row, 0])
            ties = np.flatnonzero(row_keys == boundary[row, 0])
            candidates[row] = np.concatenate([below, ties[: k - below.size]])
            candidate_keys[row] = row_keys[candidates[row]]
        inner = np.lexsort((candidates, candidate_keys), axis=1)
        order = np.take_along_axis(candidates, inner, axis=1)
    return TopKResult(order, np.take_along_axis(scores, order, axis=1))


def top_k_from_candidates(scores: np.ndarray, indices: np.ndarray, k: int,
                          largest: bool = True) -> TopKResult:
    """Top-k selection over *labelled* candidates, under :func:`top_k`'s order.

    Parameters
    ----------
    scores:
        ``(q, c)`` float array of candidate scores (no NaN).
    indices:
        ``(q, c)`` integer array of the candidates' original indices; entries
        must be distinct within a row.
    k:
        Number of entries to select per row; clipped to ``c``.
    largest:
        Same convention as :func:`top_k`.

    This is the *gather* half of scatter-gather top-k: each shard reduces its
    row range with :func:`top_k` (whose candidates provably contain every
    global winner), the per-shard winners are concatenated with their global
    indices, and this function selects among them under the same total order
    (score, then ascending index).  The composition is bit-identical to
    running :func:`top_k` over the unpartitioned score row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scores.shape != indices.shape:
        raise ValueError(
            f"scores {scores.shape} and indices {indices.shape} must align"
        )
    k = min(k, scores.shape[1])
    keys = -scores if largest else scores
    order = np.lexsort((indices, keys), axis=1)[:, :k]
    return TopKResult(np.take_along_axis(indices, order, axis=1),
                      np.take_along_axis(scores, order, axis=1))


class QueryEngine:
    """Answers batched top-k and nearest-neighbour queries for one model.

    Everything reusable is precomputed at construction: the scalar item map
    and its pseudo-inverses (via :class:`FoldInProjector`), the stored rows'
    latent coordinates, and their interval features, stacked once with their
    squared norms.  A query is then pure matrix arithmetic on the
    precomputed state — no factorization runs.

    ``kernel`` selects the interval-product kernel
    (:mod:`repro.interval.kernels`) used when folding query rows into latent
    features for retrieval; ``None`` keeps the paper-faithful default.

    Query rows may be dense (ndarray / :class:`IntervalMatrix`) or a
    :class:`~repro.interval.sparse.SparseIntervalMatrix` of partially observed
    rows, which fold in with observed-only least squares (see
    :class:`FoldInProjector`); scoring and selection downstream are identical.

    **Batch-invariance guarantee.**  Every scoring path is row-local (einsum
    fold-in, per-row least squares, element-local distances) and every
    selection is a total order, so the answer for one query row is a pure
    function of that row and the model — independent of how many rows share
    the call, of micro-batching, and of row-range sharding.
    """

    def __init__(self, decomposition: IntervalDecomposition,
                 kernel: KernelLike = None,
                 projector: Optional[FoldInProjector] = None):
        self.decomposition = decomposition
        #: ``projector`` lets callers share one precomputed fold-in projector
        #: across engines whose item-side factors are bitwise identical —
        #: the sharded router replicates ``Sigma``/``V`` into every shard,
        #: so computing the pseudo-inverse SVDs once is enough.  When given,
        #: it overrides ``kernel`` for the fold-in paths.
        self.projector = (FoldInProjector(decomposition, kernel=kernel)
                          if projector is None else projector)
        self.item_map = self.projector.item_map
        self.n_items = self.projector.n_items
        #: Latent coordinates of the rows the model was fitted on (n x r).
        self.user_latent = decomposition.u_scalar()
        #: The stored rows' interval features ``U x Sigma``, stacked once into
        #: one C-contiguous ``n x 2r`` endpoint array with its row norms: the
        #: references never change within one engine, so no query batch
        #: restacks or re-reduces the ``n`` rows.  Computed with the
        #: batch-invariant matmul so each feature row is a pure function of
        #: its own ``U`` row — an engine built over a row-range shard of
        #: ``U`` holds exactly this array's matching slice.
        self._references = stack_references(decomposition.projection(
            matmul=batch_invariant_matmul))
        points = self._references.points
        rank = points.shape[1] // 2
        #: Interval features of the stored rows, for retrieval: views into
        #: the stacked array, so the engine keeps one copy of the references.
        self.reference_features = IntervalMatrix(
            points[:, :rank], points[:, rank:], check=False)

    @property
    def n_users(self) -> int:
        """Number of rows the model was fitted on."""
        return int(self.user_latent.shape[0])

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def reconstruct_rows(self, user_rows: Rows) -> np.ndarray:
        """Predicted scores (``q x m``) for unseen user rows, via fold-in.

        ``user_rows`` is anything :class:`FoldInProjector` accepts: a dense
        ``(q, m)`` interval matrix / ndarray (a 1-D row is promoted to one
        query row) or a sparse matrix of partially observed rows.  Each
        output row is a pure function of its input row (batch-invariant).
        """
        return self.projector.reconstruct_rows(user_rows)

    def scores_for_users(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted scores (``len(indices) x m``) of stored users.

        ``indices`` selects rows of the trained ``U`` (all of them by
        default), in query order.  Row-local like every scoring path: the
        scores of user ``i`` do not depend on which other users share the
        call, so any partition of the indices concatenates to the same bytes.
        """
        latent = (self.user_latent if indices is None
                  else self.user_latent[np.asarray(indices, dtype=int)])
        return batch_invariant_matmul(latent, self.item_map)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def top_k_items(self, user_rows: Rows, k: int) -> TopKResult:
        """Best-``k`` item indices and scores for each query row (batched).

        Returns a :class:`TopKResult` of ``(q, min(k, n_items))`` arrays,
        ranked under :func:`top_k`'s total order (score descending, ties by
        ascending item index).  Batch-invariant: stacking more query rows
        into one call never changes any row's answer.
        """
        return top_k(self.reconstruct_rows(user_rows), k, largest=True)

    def neighbor_squared_distances(self, query_rows: Rows) -> np.ndarray:
        """Squared interval distances (``q x n``) to every stored row.

        The raw selection matrix behind :meth:`nearest_neighbors`; square
        root being monotone, selection runs on squared distances and ``sqrt``
        is applied only to selected entries.  The micro-batcher uses this to
        share one distance computation across requests with different ``k``
        while selecting per request.  Entry ``(i, j)`` depends only on query
        row ``i`` and stored row ``j`` — batch-invariant in both directions.
        """
        features = self.projector.latent_features(query_rows)
        return self.squared_distances_to_references(features)

    def squared_distances_to_references(self, features: IntervalMatrix) -> np.ndarray:
        """Squared distances of already-folded-in latent features (``q x r``)
        to this engine's stored rows, against the references stacked once.

        Split out from :meth:`neighbor_squared_distances` so the sharded
        engine can fold queries in once and scatter only this reference-side
        product across its row-range shards.
        """
        return pairwise_interval_squared_distances(
            features, self._references, matmul=batch_invariant_matmul)

    def neighbor_distances(self, query_rows: Rows) -> np.ndarray:
        """Interval distances (``q x n``) of query rows to every stored row."""
        return np.sqrt(self.neighbor_squared_distances(query_rows))

    def top_k_for_users(self, indices: Sequence[int], k: int) -> TopKResult:
        """Best-``k`` items for stored users, from their trained latent rows."""
        return top_k(self.scores_for_users(indices), k, largest=True)

    def nearest_neighbors(self, query_rows: Rows, k: int) -> TopKResult:
        """``k`` nearest stored rows per query row, by interval distance.

        Returns a :class:`TopKResult` of ``(q, min(k, n_users))`` arrays:
        stored-row indices (nearest first) and their distances.  Selection
        runs on squared distances under :func:`top_k`'s total order; the
        returned scores are the square roots of the selected entries, so the
        values match :meth:`neighbor_distances` bit for bit.
        """
        selected = top_k(self.neighbor_squared_distances(query_rows), k,
                         largest=False)
        return TopKResult(selected.indices, np.sqrt(selected.scores))
