"""Regression tests for the PR-4 performance satellites.

* references stacked once, with their squared norms, in the NN classifier
  and the query engine (:class:`StackedReferences`, accepted by
  :func:`pairwise_interval_distances` in place of raw features), so no
  query copies the reference rows again;
* the vectorized K-means centroid update (one membership matmul instead of a
  Python loop over clusters), pinned to the loop implementation's labels on
  fixed seeds;
* the ``exact`` kernel's mixed x mixed chunk bound (the module constant
  ``_MIXED_CHUNK_ELEMENTS``), which never changes the result bytes, and the
  skip of the mixed-sign machinery for sign-consistent left operands.
"""

import numpy as np
import pytest

from strategies import brute_force_hull, random_interval_pair

from repro.eval.kmeans import IntervalKMeans
from repro.eval import knn
from repro.eval.knn import (
    IntervalNearestNeighbor,
    StackedReferences,
    pairwise_interval_distances,
    stack_references,
)
from repro.interval import kernels
from repro.interval.array import IntervalMatrix
from repro.interval.linalg import interval_matmul
from repro.interval.random import random_interval_matrix


class TestReferenceStacking:
    def _features(self, seed, rows=12, rank=4):
        return random_interval_matrix((rows, rank), interval_density=1.0,
                                      interval_intensity=0.7, rng=seed)

    def test_stacked_references_are_byte_identical_to_raw_features(self):
        queries = self._features(0, rows=5)
        references = self._features(1)
        stacked = stack_references(references)
        assert stacked.points.flags.c_contiguous
        assert stacked.points.shape == (12, 8)
        baseline = pairwise_interval_distances(queries, references)
        fast = pairwise_interval_distances(queries, stacked)
        assert fast.tobytes() == baseline.tobytes()

    def test_wrong_shape_squared_norms_raise(self):
        points = stack_references(self._features(1)).points
        with pytest.raises(ValueError, match="squared_norms"):
            StackedReferences(points, np.zeros(3))
        with pytest.raises(ValueError, match="C-contiguous"):
            StackedReferences(np.asfortranarray(points), np.zeros(12))

    def test_nn_classifier_stacks_references_at_fit_time(self):
        references = self._features(2)
        labels = np.arange(12) % 3
        classifier = IntervalNearestNeighbor().fit(references, labels)
        assert classifier._references.points.shape == (12, 8)
        assert classifier._references.squared_norms.shape == (12,)
        # Predictions are unchanged by the stacking.
        queries = self._features(3, rows=6)
        predictions = classifier.predict(queries)
        brute = []
        stacked_refs = np.hstack([references.lower, references.upper])
        stacked_queries = np.hstack([queries.lower, queries.upper])
        for row in stacked_queries:
            brute.append(labels[np.argmin(((stacked_refs - row) ** 2).sum(axis=1))])
        np.testing.assert_array_equal(predictions, np.asarray(brute))

    @staticmethod
    def _engine():
        from repro.core.isvd import isvd
        from repro.serve.query import QueryEngine

        matrix = random_interval_matrix((15, 9), interval_density=1.0,
                                        interval_intensity=0.6, rng=4)
        return matrix, QueryEngine(isvd(matrix, 3, method="isvd3", target="b"))

    def test_query_engine_passes_its_stacked_references(self, monkeypatch):
        import repro.serve.query as query_module

        matrix, engine = self._engine()
        assert engine._references.squared_norms.shape == (15,)

        seen = {}
        original = query_module.pairwise_interval_squared_distances

        def spy(queries, references, matmul=None):
            seen["references"] = references
            return original(queries, references, matmul=matmul)

        monkeypatch.setattr(query_module,
                            "pairwise_interval_squared_distances", spy)
        engine.neighbor_distances(matrix.row(0))
        assert seen["references"] is engine._references

    def test_reference_features_are_views_of_the_one_stacked_copy(self):
        _, engine = self._engine()
        points = engine._references.points
        assert np.shares_memory(engine.reference_features.lower, points)
        assert np.shares_memory(engine.reference_features.upper, points)
        np.testing.assert_array_equal(
            points, np.hstack([engine.reference_features.lower,
                               engine.reference_features.upper]))

    def test_queries_never_restack_the_references(self, monkeypatch):
        from repro.serve.shard import _run_op

        matrix, engine = self._engine()
        calls = []
        original = knn.endpoint_features

        def spy(features):
            calls.append(features.shape)
            return original(features)

        monkeypatch.setattr(knn, "endpoint_features", spy)
        rows = IntervalMatrix(matrix.lower[:2], matrix.upper[:2])
        engine.nearest_neighbors(rows, 4)
        features = engine.projector.latent_features(rows)
        _run_op(engine, 0, "candidates", {"op": "candidates", "k": 4},
                [features.lower, features.upper])
        # The spy saw the query rows of both calls, never the 15 stored rows.
        assert calls == [(2, 3), (2, 3)]


class TestVectorizedKMeans:
    @staticmethod
    def _loop_lloyd(model: IntervalKMeans, points: np.ndarray,
                    centers: np.ndarray) -> np.ndarray:
        """The pre-vectorization Lloyd iteration, kept as the reference."""
        labels = np.zeros(points.shape[0], dtype=int)
        for _ in range(model.max_iter):
            distances = (
                (points**2).sum(axis=1, keepdims=True)
                - 2.0 * points @ centers.T
                + (centers**2).sum(axis=1)
            )
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            for k in range(model.n_clusters):
                members = points[labels == k]
                if members.shape[0] > 0:
                    new_centers[k] = members.mean(axis=0)
            movement = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if movement <= model.tol:
                break
        return labels

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_labels_identical_to_loop_implementation(self, seed):
        rng = np.random.default_rng(seed)
        # Well-separated blobs: the fixture the satellite pins.
        blobs = [rng.normal(loc=center, scale=0.4, size=(30, 5))
                 for center in (-6.0, 0.0, 6.0, 12.0)]
        points = np.vstack(blobs)
        model = IntervalKMeans(n_clusters=4, n_init=1, seed=seed)
        init_rng = np.random.default_rng(seed)
        centers = model._plus_plus_init(points, init_rng)
        expected = self._loop_lloyd(model, points, centers.copy())
        labels, _, _ = model._lloyd(points, centers.copy())
        np.testing.assert_array_equal(labels, expected)

    def test_empty_clusters_keep_previous_centers(self):
        # Two coincident far-apart blobs but K=3: one center will end up
        # empty after the first assignment and must survive unchanged.
        points = np.vstack([np.full((10, 2), -5.0), np.full((10, 2), 5.0)])
        model = IntervalKMeans(n_clusters=3, n_init=1, seed=0)
        centers = np.array([[-5.0, -5.0], [5.0, 5.0], [100.0, 100.0]])
        labels, final_centers, _ = model._lloyd(points, centers)
        assert set(labels) == {0, 1}
        np.testing.assert_array_equal(final_centers[2], [100.0, 100.0])

    def test_fit_end_to_end_still_clusters(self):
        rng = np.random.default_rng(1)
        points = np.vstack([rng.normal(-4, 0.3, (20, 3)),
                            rng.normal(4, 0.3, (20, 3))])
        labels = IntervalKMeans(n_clusters=2, seed=0).fit_predict(points)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_interval_features_still_supported(self):
        features = random_interval_matrix((24, 4), interval_density=1.0,
                                          interval_intensity=0.5, rng=2)
        model = IntervalKMeans(n_clusters=3, seed=5).fit(features)
        assert model.labels_.shape == (24,)
        assert model.inertia_ >= 0.0


class TestMixedChunkTuning:
    MIXED = IntervalMatrix(np.full((6, 7), -1.0), np.full((6, 7), 1.0))

    # Chunk of 1 element forces one column per iteration of the correction
    # loop; a huge chunk collapses it to a single pass.
    @pytest.mark.parametrize("chunk", [1, 10, 10**9])
    def test_chunk_size_does_not_change_exact_results(self, monkeypatch, chunk):
        b = IntervalMatrix(np.full((7, 5), -2.0), np.full((7, 5), 2.0))
        reference = interval_matmul(self.MIXED, b, kernel="exact")
        monkeypatch.setattr(kernels, "_MIXED_CHUNK_ELEMENTS", chunk)
        result = interval_matmul(self.MIXED, b, kernel="exact")
        assert result.lower.tobytes() == reference.lower.tobytes()
        assert result.upper.tobytes() == reference.upper.tobytes()

    @pytest.mark.parametrize("chunk", [1, 10, 10**9])
    def test_exact_is_the_vertex_hull_at_any_chunk_size(self, monkeypatch, chunk):
        monkeypatch.setattr(kernels, "_MIXED_CHUNK_ELEMENTS", chunk)
        for seed in range(4):
            a, b, _ = random_interval_pair((2, 3, 2, seed))
            lower, upper = brute_force_hull(a, b)
            result = interval_matmul(a, b, kernel="exact")
            np.testing.assert_allclose(result.lower, lower, atol=1e-10)
            np.testing.assert_allclose(result.upper, upper, atol=1e-10)

    def test_sign_consistent_left_operand_skips_mixed_machinery(self, monkeypatch):
        # A tiny chunk bound would make the mixed x mixed loop astronomically
        # slow if it ran; with a sign-consistent left operand it must not run
        # at all, so this stays instant and correct.
        monkeypatch.setattr(kernels, "_MIXED_CHUNK_ELEMENTS", 1)
        rng = np.random.default_rng(3)
        a_lo = rng.random((5, 6)) + 0.5
        a = IntervalMatrix(a_lo, a_lo + rng.random((5, 6)))
        b = IntervalMatrix(np.full((6, 4), -1.0), np.full((6, 4), 1.0))
        result = interval_matmul(a, b, kernel="exact")
        e4 = interval_matmul(a, b, kernel="endpoint4")
        # Sign-consistent left x anything: endpoint4 equals the hull only
        # entrywise-sound cases; here just assert soundness containment.
        assert result.contains(e4, tol=1e-9)
