"""1-NN classification with the paper's interval Euclidean distance.

The face-classification experiment (Figure 8(b)) projects every image onto the
latent space (``U x Sigma`` features) and classifies test rows by their nearest
training row.  For interval-valued features the paper uses the distance::

    dist(a, b) = sqrt( sum_k (a_lo[k] - b_lo[k])^2 + (a_hi[k] - b_hi[k])^2 )

which reduces to (sqrt 2 times) the ordinary Euclidean distance for degenerate
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.eval.metrics import f1_macro
from repro.interval.array import IntervalMatrix

Features = Union[np.ndarray, IntervalMatrix]

__all__ = [
    "IntervalNearestNeighbor",
    "StackedReferences",
    "endpoint_features",
    "nn_classification_f1",
    "pairwise_interval_distances",
    "pairwise_interval_squared_distances",
    "stack_references",
]


def endpoint_features(features: Features) -> np.ndarray:
    """Stack lower and upper endpoints side by side as scalar features.

    With this representation the squared Euclidean distance between stacked
    rows equals the paper's interval distance squared, so a single vectorized
    computation covers both scalar and interval features.  The result is a
    new C-contiguous ``n x 2r`` array.
    """
    if isinstance(features, IntervalMatrix):
        return np.hstack([features.lower, features.upper])
    features = np.asarray(features)
    if features.dtype != np.float32:
        features = np.asarray(features, dtype=float)
    return np.hstack([features, features])


@dataclass(frozen=True)
class StackedReferences:
    """A reference set in the form every distance query reads.

    ``points`` is the C-contiguous ``n x 2r`` :func:`endpoint_features`
    array and ``squared_norms`` its ``n`` per-row squared norms.  A caller
    that queries one fixed reference set repeatedly (the serving engine, the
    NN classifier) builds this once with :func:`stack_references`, so no
    query batch copies or reduces the ``n`` reference rows again.
    """

    points: np.ndarray
    squared_norms: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or not self.points.flags.c_contiguous:
            raise ValueError("points must be a C-contiguous 2-D array")
        if self.squared_norms.shape != (self.points.shape[0],):
            raise ValueError(
                f"squared_norms must have shape ({self.points.shape[0]},), "
                f"got {self.squared_norms.shape}"
            )


def stack_references(features: Features) -> StackedReferences:
    """Stack ``features`` once for repeated distance queries against them."""
    points = endpoint_features(features)
    return StackedReferences(points, (points**2).sum(axis=1))


def pairwise_interval_squared_distances(
        queries: Features, references: Union[Features, StackedReferences],
        matmul=None) -> np.ndarray:
    """Squared interval Euclidean distances between query and reference rows.

    The (clipped-nonnegative) squared form of
    :func:`pairwise_interval_distances`, exposed separately because *square
    root is a monotone map*: top-k selection can run on the squared matrix
    and apply ``sqrt`` only to the few selected entries, saving a full pass
    over a potentially huge ``q x n`` array.  The serving layer's sharded
    nearest-neighbour path selects this way; each entry depends only on its
    own (query, reference) pair, so a column block computed against a
    row-range shard of the references is bit-identical to the matching slice
    of the full matrix.

    ``references`` is raw features or a :class:`StackedReferences` built
    once by :func:`stack_references`; both give the same bytes, but only the
    latter skips restacking the reference rows on every call.

    ``matmul`` overrides the kernel of the cross-term product (default
    ``numpy.matmul``); the serving layer passes a batch-size-invariant kernel
    so a query row's distances do not depend on how many rows it was stacked
    with.  The squared-norm terms are per-row reductions and invariant as is.
    """
    if matmul is None:
        matmul = np.matmul
    if not isinstance(references, StackedReferences):
        references = stack_references(references)
    query_points = endpoint_features(queries)
    if query_points.shape[1] != references.points.shape[1]:
        raise ValueError("query and reference features must have the same width")
    # The cross term reads the transposed *view* of the C-contiguous points:
    # einsum over a contiguous transposed copy rounds differently.  The
    # distances are then assembled in place, without three more ``q x n``
    # temporaries; scaling by -2 is exact and addition commutes, so this
    # rounds exactly as ``|q|^2 - 2 q.r + |r|^2`` evaluated left to right.
    squared = matmul(query_points, references.points.T)
    squared *= -2.0
    squared += (query_points**2).sum(axis=1, keepdims=True)
    squared += references.squared_norms
    return np.clip(squared, 0.0, None, out=squared)


def pairwise_interval_distances(queries: Features,
                                references: Union[Features, StackedReferences],
                                matmul=None) -> np.ndarray:
    """Matrix of interval Euclidean distances between query and reference rows.

    ``sqrt`` of :func:`pairwise_interval_squared_distances`; see there for
    the ``references`` and ``matmul`` arguments.
    """
    return np.sqrt(pairwise_interval_squared_distances(
        queries, references, matmul=matmul))


class IntervalNearestNeighbor:
    """A 1-nearest-neighbour classifier over scalar or interval features."""

    def __init__(self) -> None:
        self._references: Optional[StackedReferences] = None
        self._labels: Optional[np.ndarray] = None

    def fit(self, features: Features, labels: np.ndarray) -> "IntervalNearestNeighbor":
        """Store the training rows, stacked once, and their labels.

        The stacked training rows and their squared norms are fixed once the
        classifier is fitted, so they are built here instead of by every
        :meth:`predict` batch.
        """
        self._references = stack_references(features)
        self._labels = np.asarray(labels)
        if self._references.points.shape[0] != self._labels.shape[0]:
            raise ValueError("number of feature rows and labels must match")
        if self._references.points.shape[0] == 0:
            raise ValueError("training set must not be empty")
        return self

    def predict(self, features: Features) -> np.ndarray:
        """Label of the nearest training row for each query row."""
        if self._references is None or self._labels is None:
            raise RuntimeError("call fit() before predict()")
        queries = endpoint_features(features)
        squared = (
            (queries**2).sum(axis=1, keepdims=True)
            - 2.0 * queries @ self._references.points.T
            + self._references.squared_norms
        )
        nearest = np.argmin(squared, axis=1)
        return self._labels[nearest]


def nn_classification_f1(
    train_features: Features,
    train_labels: np.ndarray,
    test_features: Features,
    test_labels: np.ndarray,
) -> float:
    """Macro F1 of 1-NN classification (the Figure 8(b) metric)."""
    classifier = IntervalNearestNeighbor().fit(train_features, train_labels)
    predictions = classifier.predict(test_features)
    return f1_macro(np.asarray(test_labels), predictions)
