"""Tests for the ISVD0..ISVD4 decomposition family (Section 4)."""

import numpy as np
import pytest

from repro.core.accuracy import harmonic_mean_accuracy, reconstruction_accuracy
from repro.core.isvd import (
    ISVDError,
    ISVDMethod,
    isvd,
    isvd0,
    isvd1,
    isvd2,
    isvd3,
    isvd4,
    truncated_eigh,
    truncated_svd,
)
from repro.core.reconstruct import reconstruct
from repro.core.result import DecompositionTarget
from repro.interval.array import IntervalMatrix
from repro.interval.random import random_interval_matrix

ALL_METHODS = ["isvd0", "isvd1", "isvd2", "isvd3", "isvd4"]
ALIGNED_METHODS = ["isvd1", "isvd2", "isvd3", "isvd4"]


@pytest.fixture(scope="module")
def interval_matrix():
    return random_interval_matrix((20, 30), interval_density=1.0,
                                  interval_intensity=0.5, rng=7)


class TestHelpers:
    def test_truncated_svd_shapes(self, rng):
        matrix = rng.normal(size=(10, 15))
        u, s, v = truncated_svd(matrix, 4)
        assert u.shape == (10, 4) and s.shape == (4,) and v.shape == (15, 4)

    def test_truncated_svd_reconstruction_full_rank(self, rng):
        matrix = rng.normal(size=(6, 8))
        u, s, v = truncated_svd(matrix, 6)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, matrix, atol=1e-8)

    def test_truncated_svd_rank_clipped(self, rng):
        matrix = rng.normal(size=(4, 5))
        u, s, v = truncated_svd(matrix, 100)
        assert s.shape == (4,)

    def test_truncated_eigh_matches_svd_for_gram(self, rng):
        matrix = rng.normal(size=(8, 6))
        gram = matrix.T @ matrix
        _, s, _ = truncated_svd(matrix, 6)
        _, eig_s = truncated_eigh(gram, 6)
        np.testing.assert_allclose(np.sort(eig_s), np.sort(s), atol=1e-6)

    def test_truncated_eigh_clips_negative_eigenvalues(self):
        matrix = -np.eye(3)
        _, values = truncated_eigh(matrix, 3)
        assert np.all(values >= 0.0)

    def test_truncated_eigh_returns_descending_top_pairs(self, rng):
        factor = rng.normal(size=(40, 30))
        spd = factor.T @ factor + 1e-3 * np.eye(30)
        vectors, values = truncated_eigh(spd, 7)
        assert vectors.shape == (30, 7) and values.shape == (7,)
        assert np.all(np.diff(values) <= 0.0)
        np.testing.assert_allclose(spd @ vectors, vectors * values**2,
                                   rtol=0.0, atol=1e-9 * values[0] ** 2)

    def test_truncated_eigh_top_values_match_full_eigh(self, rng):
        factor = rng.normal(size=(120, 80))
        spd = factor.T @ factor + np.eye(80)
        _, values = truncated_eigh(spd, 12)
        expected = np.linalg.eigh(spd)[0][::-1][:12]
        np.testing.assert_allclose(values**2, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rank", [5, 9])
    def test_truncated_eigh_full_and_clipped_rank(self, rng, rank):
        factor = rng.normal(size=(8, 5))
        vectors, values = truncated_eigh(factor.T @ factor, rank)
        assert vectors.shape == (5, 5) and values.shape == (5,)
        np.testing.assert_allclose(np.sort(values)[::-1], values)

    def test_truncated_eigh_keeps_float32(self, rng):
        factor = rng.normal(size=(20, 10)).astype(np.float32)
        vectors, values = truncated_eigh(factor.T @ factor, 4, dtype=np.float32)
        assert vectors.dtype == np.float32 and values.dtype == np.float32

    def test_method_coercion(self):
        assert ISVDMethod.coerce("ISVD4") is ISVDMethod.ISVD4
        assert ISVDMethod.coerce(ISVDMethod.ISVD1) is ISVDMethod.ISVD1
        assert ISVDMethod.ISVD3.display_name == "ISVD3"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            ISVDMethod.coerce("isvd9")


class TestInputValidation:
    def test_rank_too_large_raises(self, interval_matrix):
        with pytest.raises(ISVDError):
            isvd(interval_matrix, rank=100)

    def test_rank_zero_raises(self, interval_matrix):
        with pytest.raises(ISVDError):
            isvd(interval_matrix, rank=0)

    def test_isvd0_rejects_non_c_targets(self, interval_matrix):
        with pytest.raises(ISVDError):
            isvd(interval_matrix, rank=5, method="isvd0", target="b")

    def test_scalar_ndarray_is_accepted(self, rng):
        matrix = rng.uniform(0, 1, size=(10, 12))
        decomposition = isvd(matrix, rank=3, method="isvd1", target="b")
        assert decomposition.rank == 3


class TestScalarConsistency:
    """On degenerate (scalar) interval matrices every ISVD reduces to plain SVD."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_scalar_input_reconstructs_like_svd(self, method, rng):
        matrix = rng.uniform(0, 1, size=(12, 16))
        wrapped = IntervalMatrix.from_scalar(matrix)
        rank = 12
        target = "c" if method == "isvd0" else "b"
        decomposition = isvd(wrapped, rank=rank, method=method, target=target)
        rebuilt = reconstruct(decomposition)
        np.testing.assert_allclose(rebuilt.midpoint(), matrix, atol=1e-6)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_scalar_input_full_accuracy(self, method, rng):
        matrix = IntervalMatrix.from_scalar(rng.uniform(0, 1, size=(10, 10)))
        target = "c" if method == "isvd0" else "b"
        decomposition = isvd(matrix, rank=10, method=method, target=target)
        assert harmonic_mean_accuracy(matrix, decomposition) > 0.999


class TestTargets:
    @pytest.mark.parametrize("method", ALIGNED_METHODS)
    def test_target_a_returns_interval_factors(self, method, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method=method, target="a")
        assert decomposition.is_interval_factors
        assert decomposition.is_interval_core

    @pytest.mark.parametrize("method", ALIGNED_METHODS)
    def test_target_b_returns_scalar_factors_interval_core(self, method, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method=method, target="b")
        assert not decomposition.is_interval_factors
        assert decomposition.is_interval_core

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_target_c_returns_all_scalar(self, method, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method=method, target="c") \
            if method != "isvd0" else isvd0(interval_matrix, 5)
        assert not decomposition.is_interval_factors
        assert not decomposition.is_interval_core

    @pytest.mark.parametrize("method", ALIGNED_METHODS)
    def test_target_b_factor_columns_unit_norm(self, method, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method=method, target="b")
        np.testing.assert_allclose(np.linalg.norm(decomposition.u, axis=0), 1.0, atol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(decomposition.v, axis=0), 1.0, atol=1e-8)

    @pytest.mark.parametrize("method", ALIGNED_METHODS)
    def test_interval_outputs_are_valid_intervals(self, method, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method=method, target="a")
        assert decomposition.u.is_valid()
        assert decomposition.sigma.is_valid()
        assert decomposition.v.is_valid()


class TestAccuracyBehaviour:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_reasonable_accuracy_on_moderate_intervals(self, method, interval_matrix):
        target = "c" if method == "isvd0" else "b"
        decomposition = isvd(interval_matrix, rank=15, method=method, target=target)
        assert harmonic_mean_accuracy(interval_matrix, decomposition) > 0.5

    def test_accuracy_increases_with_rank(self, interval_matrix):
        accuracies = [
            harmonic_mean_accuracy(
                interval_matrix, isvd(interval_matrix, rank=r, method="isvd4", target="b")
            )
            for r in (2, 8, 18)
        ]
        assert accuracies[0] < accuracies[1] < accuracies[2]

    def test_isvd4_not_worse_than_isvd0_on_wide_intervals(self):
        matrix = random_interval_matrix((30, 40), interval_density=1.0,
                                        interval_intensity=1.0, rng=3)
        naive = harmonic_mean_accuracy(matrix, isvd(matrix, 10, method="isvd0", target="c"))
        aligned = harmonic_mean_accuracy(matrix, isvd(matrix, 10, method="isvd4", target="b"))
        assert aligned >= naive - 0.02

    def test_alignment_metadata_present(self, interval_matrix):
        decomposition = isvd(interval_matrix, rank=5, method="isvd1", target="b")
        assert "alignment" in decomposition.metadata

    def test_both_align_methods_supported(self, interval_matrix):
        hungarian = isvd(interval_matrix, rank=5, method="isvd2", target="b",
                         align_method="hungarian")
        greedy = isvd(interval_matrix, rank=5, method="isvd2", target="b",
                      align_method="greedy")
        assert hungarian.rank == greedy.rank == 5

    def test_isvd4_v_factor_better_aligned_than_isvd3(self):
        """ISVD4's recomputation makes V_lo and V_hi more similar (Section 4.5, Fig. 5)."""
        from repro.core.ilsa import matched_cosines

        matrix = random_interval_matrix((30, 25), interval_density=1.0,
                                        interval_intensity=1.0, rng=11)
        v3 = isvd(matrix, 10, method="isvd3", target="a").v
        v4 = isvd(matrix, 10, method="isvd4", target="a").v
        cos3 = np.abs(matched_cosines(v3.lower, v3.upper)).mean()
        cos4 = np.abs(matched_cosines(v4.lower, v4.upper)).mean()
        assert cos4 >= cos3 - 1e-9


class TestTimings:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_timings_recorded_for_all_phases(self, method, interval_matrix):
        target = "c" if method == "isvd0" else "b"
        decomposition = isvd(interval_matrix, rank=5, method=method, target=target)
        for phase in ("preprocessing", "decomposition", "alignment", "recomposition"):
            assert phase in decomposition.timings
            assert decomposition.timings[phase] >= 0.0

    def test_method_name_recorded(self, interval_matrix):
        assert isvd(interval_matrix, 5, method="isvd3", target="b").method == "ISVD3"


class TestSparseAndEdgeCases:
    def test_sparse_matrix(self, sparse_interval_matrix):
        decomposition = isvd(sparse_interval_matrix, rank=5, method="isvd4", target="b")
        assert harmonic_mean_accuracy(sparse_interval_matrix, decomposition) > 0.2

    def test_rank_one(self, interval_matrix):
        decomposition = isvd(interval_matrix, rank=1, method="isvd4", target="b")
        assert decomposition.sigma.shape == (1, 1)

    def test_tall_matrix(self):
        matrix = random_interval_matrix((40, 8), interval_intensity=0.5, rng=5)
        decomposition = isvd(matrix, rank=4, method="isvd2", target="b")
        assert decomposition.shape == (40, 8)

    def test_wide_matrix(self):
        matrix = random_interval_matrix((8, 40), interval_intensity=0.5, rng=5)
        decomposition = isvd(matrix, rank=4, method="isvd3", target="b")
        assert decomposition.shape == (8, 40)

    def test_all_zero_matrix(self):
        matrix = IntervalMatrix.zeros((6, 6))
        decomposition = isvd(matrix, rank=2, method="isvd1", target="b")
        rebuilt = reconstruct(decomposition)
        np.testing.assert_allclose(rebuilt.midpoint(), 0.0, atol=1e-8)

    def test_direct_function_entry_points(self, interval_matrix):
        assert isvd1(interval_matrix, 4).method == "ISVD1"
        assert isvd2(interval_matrix, 4).method == "ISVD2"
        assert isvd3(interval_matrix, 4).method == "ISVD3"
        assert isvd4(interval_matrix, 4).method == "ISVD4"
