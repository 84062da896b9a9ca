"""Enclosure soundness of the sound interval kernels at float32.

The ``exact`` and ``rump`` kernels promise *enclosures*: every member
product of the operand intervals lies inside the reported interval.  At
float32 that promise survives only because the kernels inflate their
endpoints by a directed-rounding-style pad (``enclosure_pad`` plus an
outward ``nextafter`` nudge).  These tests verify the promise rather than
assume it, two ways:

* **vertex hulls** — on tiny shapes the true product hull is computed by
  enumerating every endpoint vertex in float64 (the product is multilinear,
  so its range is attained at vertices); the float32 result must contain
  that hull outright;
* **Monte-Carlo members** — on regular shapes, random member matrices
  drawn inside the float32 boxes are multiplied in float64 and must land
  inside the float32 result.

The float64 reference's own rounding (~``eps64``) is orders of magnitude
below the float32 inflation (~``eps32``), so all containment assertions
are exact — no tolerance, by design.  ``endpoint4`` is deliberately
absent: it is documented as unsound at any precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import (
    brute_force_hull,
    common_settings,
    integer_interval_matrix,
    interval_matrix_params,
    matrix_params,
    random_interval_pair,
    random_matrix,
    tiny_interval_matrix_params,
)

from repro.interval.linalg import interval_gram, interval_matmul
from repro.interval.sparse import SparseIntervalMatrix

SOUND_KERNELS = ("exact", "rump")
COMMON_SETTINGS = common_settings(max_examples=25)


def _assert_contains(result, lower_ref, upper_ref):
    """Exact (tolerance-free) containment of a float64 reference box."""
    res_lower = np.asarray(result.lower, dtype=np.float64)
    res_upper = np.asarray(result.upper, dtype=np.float64)
    assert np.all(res_lower <= lower_ref), (
        f"lower endpoint overshoots the reference by "
        f"{np.max(res_lower - lower_ref)}"
    )
    assert np.all(res_upper >= upper_ref), (
        f"upper endpoint undershoots the reference by "
        f"{np.max(upper_ref - res_upper)}"
    )


class TestVertexHullEnclosure:
    @pytest.mark.parametrize("kernel", SOUND_KERNELS)
    @settings(**COMMON_SETTINGS)
    @given(tiny_interval_matrix_params)
    def test_float32_product_encloses_true_hull(self, kernel, params):
        a, b, _ = random_interval_pair(params, dtype=np.float32)
        hull_lower, hull_upper = brute_force_hull(a, b)
        result = interval_matmul(a, b, kernel=kernel)
        assert result.dtype == np.float32
        _assert_contains(result, hull_lower, hull_upper)


class TestMemberContainment:
    @pytest.mark.parametrize("kernel", SOUND_KERNELS)
    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params)
    def test_float32_product_contains_member_products(self, kernel, params):
        a, b, rng = random_interval_pair(params, dtype=np.float32)
        result = interval_matmul(a, b, kernel=kernel)
        assert result.dtype == np.float32
        for _ in range(8):
            a_member = rng.uniform(a.lower, a.upper)
            b_member = rng.uniform(b.lower, b.upper)
            product = a_member @ b_member
            _assert_contains(result, product, product)

    @pytest.mark.parametrize("kernel", SOUND_KERNELS)
    @settings(**COMMON_SETTINGS)
    @given(matrix_params)
    def test_float32_gram_contains_member_grams(self, kernel, params):
        matrix = random_matrix(params, dtype=np.float32)
        gram = interval_gram(matrix, kernel=kernel)
        assert gram.dtype == np.float32
        rng = np.random.default_rng(params[-1] + 1)
        for _ in range(6):
            member = rng.uniform(matrix.lower, matrix.upper)
            reference = member.T @ member
            _assert_contains(gram, reference, reference)


class TestSparseEnclosure:
    @settings(**COMMON_SETTINGS)
    @given(matrix_params)
    def test_float32_sparse_rump_gram_contains_member_grams(self, params):
        rows, cols, _, seed = params
        rng = np.random.default_rng(seed)
        dense = integer_interval_matrix(rng, rows, cols, 0.4,
                                        dtype=np.float32)
        sparse = SparseIntervalMatrix.from_dense(dense)
        assert sparse.dtype == np.float32
        gram = interval_gram(sparse, kernel="rump")
        assert gram.dtype == np.float32
        for _ in range(6):
            member = rng.uniform(dense.lower, dense.upper)
            reference = member.T @ member
            _assert_contains(gram, reference, reference)
