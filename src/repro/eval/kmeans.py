"""K-means clustering over scalar or interval features.

The clustering-based classification experiments (Figure 8(c), Table 3) run
K-means with K equal to the number of individuals and score the clustering
against the true identities with NMI.  For interval-valued features the
distance is the paper's interval Euclidean distance, which is equivalent to
running ordinary K-means on the stacked ``[lower | upper]`` endpoint features —
that equivalence is what this module exploits (and tests verify).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.eval.knn import endpoint_features
from repro.eval.metrics import normalized_mutual_information
from repro.interval.array import IntervalMatrix
from repro.interval.random import SeedLike, default_rng

Features = Union[np.ndarray, IntervalMatrix]


class IntervalKMeans:
    """Lloyd's K-means with k-means++ initialization over (interval) features.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    max_iter:
        Maximum number of Lloyd iterations.
    n_init:
        Number of random restarts; the assignment with the lowest inertia wins.
    tol:
        Center-movement threshold for convergence.
    seed:
        Seed for initialization.
    """

    def __init__(self, n_clusters: int, max_iter: int = 100, n_init: int = 4,
                 tol: float = 1e-6, seed: Optional[int] = None):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.n_init = n_init
        self.tol = tol
        self.seed = seed
        self.labels_: Optional[np.ndarray] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _plus_plus_init(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = points.shape[0]
        centers = np.empty((self.n_clusters, points.shape[1]))
        first = rng.integers(n)
        centers[0] = points[first]
        closest = ((points - centers[0]) ** 2).sum(axis=1)
        for k in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                centers[k] = points[rng.integers(n)]
            else:
                probabilities = closest / total
                centers[k] = points[rng.choice(n, p=probabilities)]
            closest = np.minimum(closest, ((points - centers[k]) ** 2).sum(axis=1))
        return centers

    def _lloyd(self, points: np.ndarray, centers: np.ndarray) -> tuple:
        labels = np.zeros(points.shape[0], dtype=int)
        points_sq = (points**2).sum(axis=1, keepdims=True)
        for _ in range(self.max_iter):
            distances = (
                points_sq
                - 2.0 * points @ centers.T
                + (centers**2).sum(axis=1)
            )
            labels = np.argmin(distances, axis=1)
            # Centroid update as one membership matmul instead of a Python
            # loop over clusters: sums = Mᵀ points with M the one-hot
            # membership matrix; empty clusters keep their previous center,
            # exactly as the per-cluster loop did.
            membership = (labels[:, np.newaxis]
                          == np.arange(self.n_clusters)).astype(points.dtype)
            counts = membership.sum(axis=0)
            sums = membership.T @ points
            new_centers = np.where(
                counts[:, np.newaxis] > 0,
                sums / np.maximum(counts, 1.0)[:, np.newaxis],
                centers,
            )
            movement = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if movement <= self.tol:
                break
        inertia = float(
            ((points - centers[labels]) ** 2).sum()
        )
        return labels, centers, inertia

    # ------------------------------------------------------------------ #
    def fit(self, features: Features) -> "IntervalKMeans":
        """Cluster the rows of a scalar or interval feature matrix."""
        points = endpoint_features(features)
        if points.shape[0] < self.n_clusters:
            raise ValueError(
                f"cannot form {self.n_clusters} clusters from {points.shape[0]} rows"
            )
        rng = default_rng(self.seed)
        best = None
        for _ in range(self.n_init):
            centers = self._plus_plus_init(points, rng)
            labels, centers, inertia = self._lloyd(points, centers)
            if best is None or inertia < best[2]:
                best = (labels, centers, inertia)
        self.labels_, self.cluster_centers_, self.inertia_ = best
        return self

    def fit_predict(self, features: Features) -> np.ndarray:
        """Cluster and return the per-row cluster labels."""
        return self.fit(features).labels_


def kmeans_nmi(
    features: Features,
    labels: np.ndarray,
    n_clusters: Optional[int] = None,
    seed: SeedLike = None,
    method: Optional[str] = None,
    rank: Optional[int] = None,
    target: Optional[str] = None,
) -> float:
    """Cluster the features and score the result against true labels with NMI.

    When ``method`` (a factorizer-registry key) is given, ``features`` is
    treated as the raw interval matrix and replaced by the ``U x Sigma``
    latent features of that method's rank-``rank`` decomposition first.
    """
    labels = np.asarray(labels)
    rng = None if seed is None else default_rng(seed)
    if method is not None:
        from repro.eval.features import latent_features

        if rank is None:
            raise ValueError("rank is required when clustering via a method key")
        # Draw both seeds from one generator so the factorization and the
        # k-means initialization get decorrelated streams.
        fit_seed = None if rng is None else int(rng.integers(2**31 - 1))
        features = latent_features(features, method, rank, target=target, seed=fit_seed)
    if n_clusters is None:
        n_clusters = int(np.unique(labels).size)
    seed_int = None if rng is None else int(rng.integers(2**31 - 1))
    clustering = IntervalKMeans(n_clusters=n_clusters, seed=seed_int).fit_predict(features)
    return normalized_mutual_information(labels, clustering)
