"""Tests of the sparse interval linear-algebra subsystem.

The load-bearing facts checked here:

* :class:`SparseIntervalMatrix` keeps the dense validation contract (stored
  ``lower <= upper``, no NaN) over one shared CSR pattern, and converts
  losslessly to/from the dense representation;
* sparse execution of the ``endpoint4`` and ``rump`` kernels agrees with the
  dense execution **bit for bit** on integer-valued operands (where every
  product and partial sum is exactly representable, so any byte difference
  is a structural bug, not floating-point reassociation);
* a dense Gram is byte-identical to ``interval_matmul(m.T, m)`` for every
  kernel, dtype and row count, and a kernel's ``sparse`` flag says exactly
  whether it runs sparse operands;
* sparse input threads end to end: isvd2/3/4, the registry (densifying
  fallback for non-sparse-aware methods), the experiment engine's cache
  fingerprints, NPZ round-trips, the sparse ratings generators, fold-in with
  observed-only least squares, and the CLI;
* ``scipy.sparse`` loads only when sparse data first appears: the
  :func:`~repro.interval.sparse.issparse` guard never imports it, and dense
  results are the same bytes whether or not it was loaded first.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh_interpreter import run_json
from strategies import (
    common_settings,
    integer_interval_matrix,
    sparse_integer_pair,
    sparse_pair_params,
)

from repro.core.isvd import isvd
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import available_kernels, get_kernel
from repro.interval.linalg import interval_gram, interval_matmul
from repro.interval.random import random_interval_matrix
from repro.interval.scalar import IntervalError
from repro.interval.sparse import (
    SparseIntervalMatrix,
    as_interval_operand,
    is_sparse_interval,
    issparse,
)

COMMON_SETTINGS = common_settings(max_examples=25)

#: Kernels with a sparse execution path (the parity suite's subjects).
SPARSE_KERNELS = ("endpoint4", "rump")

#: Endpoint dtypes of the sparse x dense and gram parity cases; integer data
#: is exact in both.  Sparse x sparse stays float64: its float32 inflation
#: pads only stored cells, by design, so it differs from the dense result.
DTYPES = (np.float64, np.float32)

pair_params = sparse_pair_params

_pair = sparse_integer_pair


def _bytes_equal(sparse_result, dense_result) -> bool:
    produced = sparse_result.to_dense() if is_sparse_interval(sparse_result) else sparse_result
    return (produced.lower.tobytes() == dense_result.lower.tobytes()
            and produced.upper.tobytes() == dense_result.upper.tobytes())


class TestConstruction:
    def test_from_dense_roundtrip_is_byte_identical(self):
        dense = integer_interval_matrix(np.random.default_rng(0), 9, 5, 0.4)
        sparse = SparseIntervalMatrix.from_dense(dense)
        back = sparse.to_dense()
        assert back.lower.tobytes() == dense.lower.tobytes()
        assert back.upper.tobytes() == dense.upper.tobytes()

    def test_zero_zero_cells_are_dropped(self):
        dense = IntervalMatrix([[0.0, 1.0], [0.0, 0.0]], [[0.0, 2.0], [3.0, 0.0]])
        sparse = SparseIntervalMatrix.from_dense(dense)
        # (0,1) has nonzero endpoints; (1,0) has upper 3; (0,0) and (1,1) drop.
        assert sparse.nnz == 2
        assert sparse.to_dense() == dense or sparse.to_dense().allclose(dense, atol=0)

    def test_misordered_stored_entry_raises(self):
        lower = sp.csr_array(np.array([[5.0, 0.0]]))
        upper = sp.csr_array(np.array([[1.0, 0.0]]))
        with pytest.raises(IntervalError, match="lower > upper"):
            SparseIntervalMatrix(lower, upper)
        unchecked = SparseIntervalMatrix(lower, upper, check=False)
        assert not unchecked.is_valid()

    def test_nan_raises(self):
        lower = sp.csr_array(np.array([[np.nan, 0.0]]))
        with pytest.raises(IntervalError, match="NaN"):
            SparseIntervalMatrix(lower, sp.csr_array(np.array([[1.0, 0.0]])))

    def test_shape_mismatch_raises(self):
        with pytest.raises(IntervalError, match="shape mismatch"):
            SparseIntervalMatrix(sp.csr_array(np.zeros((2, 2))),
                                 sp.csr_array(np.zeros((2, 3))))

    def test_mismatched_patterns_are_unified(self):
        lower = sp.csr_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
        upper = sp.csr_array(np.array([[2.0, 3.0], [0.0, 0.0]]))
        matrix = SparseIntervalMatrix(lower, upper)
        # The union pattern stores (0,0) and (0,1); (0,1)'s lower is an
        # explicit 0 <= 3, a valid interval.
        assert matrix.nnz == 2
        dense = matrix.to_dense()
        np.testing.assert_array_equal(dense.lower, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(dense.upper, [[2.0, 3.0], [0.0, 0.0]])

    def test_pattern_union_surfaces_hidden_misordering(self):
        # An entry present only in `upper` with a negative value implies
        # lower(=0) > upper there: the union must expose it to validation.
        lower = sp.csr_array(np.array([[1.0, 0.0]]))
        upper = sp.csr_array(np.array([[2.0, -3.0]]))
        with pytest.raises(IntervalError, match="lower > upper"):
            SparseIntervalMatrix(lower, upper)

    def test_pattern_is_physically_shared(self):
        matrix = SparseIntervalMatrix.from_dense(
            integer_interval_matrix(np.random.default_rng(1), 6, 4, 0.5))
        assert matrix.lower.indices is matrix.upper.indices
        assert matrix.lower.indptr is matrix.upper.indptr

    def test_from_coo_sums_duplicates_per_endpoint(self):
        matrix = SparseIntervalMatrix.from_coo(
            [0, 0], [1, 1], [1.0, 2.0], [3.0, 4.0], shape=(2, 3))
        assert matrix.nnz == 1
        assert matrix.to_dense().lower[0, 1] == 3.0
        assert matrix.to_dense().upper[0, 1] == 7.0

    def test_transpose_midpoint_radius_span(self):
        dense = integer_interval_matrix(np.random.default_rng(2), 7, 4, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        assert sparse.T.shape == (4, 7)
        np.testing.assert_array_equal(sparse.T.to_dense().lower, dense.lower.T)
        np.testing.assert_array_equal(sparse.midpoint().toarray(), dense.midpoint())
        np.testing.assert_array_equal(sparse.radius().toarray(), dense.radius())
        np.testing.assert_array_equal(sparse.span().toarray(), dense.span())
        assert sparse.max_span() == dense.max_span()
        assert sparse.mean_span() == pytest.approx(dense.mean_span())

    def test_storage_accounting_beats_dense(self):
        dense = integer_interval_matrix(np.random.default_rng(3), 50, 40, 0.05)
        sparse = SparseIntervalMatrix.from_dense(dense)
        dense_bytes = dense.lower.nbytes + dense.upper.nbytes
        assert sparse.endpoint_nbytes() < dense_bytes / 5

    def test_coercion_helpers(self):
        dense = integer_interval_matrix(np.random.default_rng(4), 3, 3, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        assert as_interval_operand(sparse) is sparse
        assert isinstance(as_interval_operand(dense), IntervalMatrix)
        assert isinstance(as_interval_operand(np.eye(3)), IntervalMatrix)
        assert is_sparse_interval(sparse) and not is_sparse_interval(dense)
        assert SparseIntervalMatrix.coerce(sparse) is sparse
        assert SparseIntervalMatrix.coerce(dense).nnz == sparse.nnz

    def test_rows_slice_and_row_pattern(self):
        dense = integer_interval_matrix(np.random.default_rng(5), 6, 5, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        subset = sparse.rows([1, 3])
        assert subset.shape == (2, 5)
        np.testing.assert_array_equal(subset.to_dense().lower, dense.lower[[1, 3]])
        observed = sparse.row_pattern(1)
        expected = np.flatnonzero((dense.lower[1] != 0) | (dense.upper[1] != 0))
        np.testing.assert_array_equal(np.sort(observed), expected)


#: Digests every dense and sparse product and gram of all kernels at both
#: dtypes; ``SPARSE_FIRST`` picks the import order, and the first printed
#: value says whether the dense half ran with ``scipy.sparse`` unloaded.
_ORDER_DIGESTS = """
import hashlib, json, sys
import numpy as np
if SPARSE_FIRST:
    import scipy.sparse
from repro.interval.kernels import available_kernels, get_kernel
from repro.interval.linalg import interval_gram, interval_matmul
from repro.interval.random import random_interval_matrix
from repro.interval.sparse import SparseIntervalMatrix, is_sparse_interval

def digest(result):
    if is_sparse_interval(result):
        result = result.to_dense()
    return hashlib.sha256(result.lower.tobytes() + result.upper.tobytes()).hexdigest()

operands = {}
for dtype in ("float64", "float32"):
    a, b = (random_interval_matrix(shape=shape, matrix_density=0.5,
                                   value_range=(-1.0, 1.0),
                                   rng=np.random.default_rng(seed)).astype(dtype)
            for seed, shape in ((1, (40, 12)), (2, (12, 7))))
    operands[dtype] = a, b
digests = {}
for dtype, (a, b) in operands.items():
    for kernel in available_kernels():
        digests[f"{kernel}/{dtype}/matmul"] = digest(interval_matmul(a, b, kernel=kernel))
        digests[f"{kernel}/{dtype}/gram"] = digest(interval_gram(a, kernel=kernel))
dense_ran_without_scipy = "scipy.sparse" not in sys.modules
for dtype, (a, b) in operands.items():
    sparse_a = SparseIntervalMatrix.from_dense(a)
    sparse_b = SparseIntervalMatrix.from_dense(b)
    for kernel in available_kernels():
        if not get_kernel(kernel).sparse:
            continue
        for name, left, right in (("sparse@dense", sparse_a, b),
                                  ("dense@sparse", a.T, sparse_a),
                                  ("sparse@sparse", sparse_a, sparse_b)):
            digests[f"{kernel}/{dtype}/{name}"] = digest(
                interval_matmul(left, right, kernel=kernel))
        digests[f"{kernel}/{dtype}/sparse-gram"] = digest(
            interval_gram(sparse_a, kernel=kernel))
print(json.dumps([dense_ran_without_scipy, digests]))
"""


class TestSparseGuard:
    def test_dense_values_are_not_sparse_and_load_no_scipy(self):
        answers, loaded = run_json(
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.interval.array import IntervalMatrix\n"
            "from repro.interval.sparse import issparse\n"
            "answers = [issparse(value) for value in\n"
            "           (np.eye(2), IntervalMatrix.from_scalar(np.eye(2)), None)]\n"
            "print(json.dumps([answers, 'scipy.sparse' in sys.modules]))\n")
        assert answers == [False, False, False]
        assert loaded is False

    @pytest.mark.parametrize("build", [sp.csr_array, sp.csr_matrix, sp.coo_array],
                             ids=lambda build: build.__name__)
    def test_scipy_sparse_values_are_sparse(self, build):
        assert issparse(build(np.eye(2)))

    def test_results_do_not_depend_on_when_scipy_sparse_loads(self):
        dense_first, lazy = run_json("SPARSE_FIRST = False\n" + _ORDER_DIGESTS)
        sparse_first, eager = run_json("SPARSE_FIRST = True\n" + _ORDER_DIGESTS)
        assert (dense_first, sparse_first) == (True, False)
        # 3 kernels x 2 dtypes x (matmul, gram), plus 2 sparse kernels x
        # 2 dtypes x (3 sparse products, sparse gram).
        assert len(lazy) == 3 * 2 * 2 + 2 * 2 * 4
        assert lazy == eager


class TestSparseDenseParity:
    """The parity suite: sparse execution must equal dense execution exactly."""

    @settings(**COMMON_SETTINGS)
    @given(pair_params, pair_params, st.sampled_from(SPARSE_KERNELS))
    def test_sparse_times_sparse_bit_for_bit(self, left, right, kernel):
        a_dense, a_sparse = _pair(left)
        rows, cols, seed, density = right
        b_dense = integer_interval_matrix(
            np.random.default_rng(seed + 1), a_dense.shape[1], cols, density)
        b_sparse = SparseIntervalMatrix.from_dense(b_dense)
        expected = interval_matmul(a_dense, b_dense, kernel=kernel)
        result = interval_matmul(a_sparse, b_sparse, kernel=kernel)
        assert is_sparse_interval(result)
        assert _bytes_equal(result, expected)

    @settings(**COMMON_SETTINGS)
    @given(pair_params, st.sampled_from(SPARSE_KERNELS), st.sampled_from(DTYPES))
    def test_sparse_times_dense_bit_for_bit(self, params, kernel, dtype):
        a_dense, a_sparse = _pair(params)
        a_dense, a_sparse = a_dense.astype(dtype), a_sparse.astype(dtype)
        rng = np.random.default_rng(params[2] + 7)
        b = IntervalMatrix.from_scalar(
            rng.integers(-5, 6, (a_dense.shape[1], 3)).astype(dtype))
        expected = interval_matmul(a_dense, b, kernel=kernel)
        result = interval_matmul(a_sparse, b, kernel=kernel)
        assert isinstance(result, IntervalMatrix)
        assert result.dtype == dtype
        assert _bytes_equal(result, expected)

    @settings(**COMMON_SETTINGS)
    @given(pair_params, st.sampled_from(SPARSE_KERNELS), st.sampled_from(DTYPES))
    def test_gram_bit_for_bit(self, params, kernel, dtype):
        dense, sparse = _pair(params)
        dense, sparse = dense.astype(dtype), sparse.astype(dtype)
        expected = interval_gram(dense, kernel=kernel)
        result = interval_gram(sparse, kernel=kernel)
        assert isinstance(result, IntervalMatrix)
        assert result.dtype == dtype
        assert _bytes_equal(result, expected)

    def test_exact_kernel_refuses_sparse_operands(self):
        _, sparse = _pair((4, 4, 0, 0.5))
        with pytest.raises(IntervalError, match="no sparse execution"):
            interval_matmul(sparse, sparse, kernel="exact")
        with pytest.raises(IntervalError, match="no sparse execution"):
            interval_gram(sparse, kernel="exact")

    def test_sparse_capability_metadata(self):
        by_key = {info.key: info for info in map(get_kernel, available_kernels())}
        assert by_key["endpoint4"].sparse
        assert by_key["rump"].sparse
        assert not by_key["exact"].sparse

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_sparse_flag_matches_sparse_execution(self, kernel):
        dense, sparse = _pair((5, 4, 2, 0.5))
        if get_kernel(kernel).sparse:
            assert _bytes_equal(interval_gram(sparse, kernel=kernel),
                                interval_gram(dense, kernel=kernel))
            assert _bytes_equal(interval_matmul(sparse.T, dense, kernel=kernel),
                                interval_matmul(dense.T, dense, kernel=kernel))
        else:
            with pytest.raises(IntervalError, match="no sparse execution"):
                interval_gram(sparse, kernel=kernel)


class TestDenseGram:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gram_is_byte_identical_to_matmul(self, dtype):
        matrix = random_interval_matrix((20, 8), interval_density=1.0,
                                        interval_intensity=0.8,
                                        rng=3).astype(dtype)
        for kernel in available_kernels():
            product = interval_matmul(matrix.T, matrix, kernel=kernel)
            gram = interval_gram(matrix, kernel=kernel)
            assert gram.dtype == dtype
            assert gram.lower.tobytes() == product.lower.tobytes()
            assert gram.upper.tobytes() == product.upper.tobytes()

    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("rows", [1, 3, 16, 37, 200])
    def test_gram_is_byte_identical_to_matmul_on_mixed_signs(self, kernel, rows):
        # Centred draws put every sign class (and so the exact kernel's
        # mixed x mixed loop) in play; one row is the degenerate Gram.
        rng = np.random.default_rng(rows)
        lower = rng.normal(size=(rows, 9))
        matrix = IntervalMatrix(lower, lower + rng.random((rows, 9)))
        product = interval_matmul(matrix.T, matrix, kernel=kernel)
        gram = interval_gram(matrix, kernel=kernel)
        assert gram.lower.tobytes() == product.lower.tobytes()
        assert gram.upper.tobytes() == product.upper.tobytes()

    @settings(**COMMON_SETTINGS)
    @given(pair_params, st.sampled_from(available_kernels()))
    def test_gram_is_byte_identical_to_matmul_on_integer_data(self, params, kernel):
        dense, _ = _pair(params)
        product = interval_matmul(dense.T, dense, kernel=kernel)
        assert _bytes_equal(interval_gram(dense, kernel=kernel), product)


class TestSparseISVD:
    @pytest.mark.parametrize("method", ["isvd2", "isvd3", "isvd4"])
    def test_gram_methods_accept_sparse_and_match_dense(self, method):
        dense = integer_interval_matrix(np.random.default_rng(8), 20, 8, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        reference = isvd(dense, 4, method=method, target="a")
        result = isvd(sparse, 4, method=method, target="a")
        # The gram step is bitwise identical on integer data; the U recovery
        # multiplies by non-integer inverses, so sparse BLAS order may differ
        # in the last ulp.
        assert result.u.allclose(reference.u, atol=1e-9, rtol=1e-9)
        assert result.v.allclose(reference.v, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("method,target", [("isvd0", "c"), ("isvd1", "b")])
    def test_dense_only_methods_densify_sparse_input(self, method, target):
        dense = integer_interval_matrix(np.random.default_rng(9), 12, 6, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        reference = isvd(dense, 3, method=method, target=target)
        result = isvd(sparse, 3, method=method, target=target)
        assert np.asarray(result.u_scalar()).tobytes() == \
            np.asarray(reference.u_scalar()).tobytes()

    def test_registry_densifies_for_non_sparse_aware_methods(self):
        from repro.core import registry

        # Build a small non-negative matrix for NMF.
        rng = np.random.default_rng(11)
        base = np.where(rng.random((10, 6)) < 0.5, rng.integers(1, 5, (10, 6)), 0)
        dense = IntervalMatrix.from_scalar(base.astype(float))
        sparse = SparseIntervalMatrix.from_dense(dense)
        info = registry.get("nmf")
        assert not info.sparse_aware
        result = info.fit(sparse, 2, seed=0)
        reference = info.fit(dense, 2, seed=0)
        assert np.allclose(np.asarray(result.u), np.asarray(reference.u))

    def test_registry_marks_gram_family_sparse_aware(self):
        from repro.core import registry

        aware = {info.key for info in registry.infos() if info.sparse_aware}
        assert aware == {"isvd2", "isvd3", "isvd4"}


class TestEngineAndIO:
    def test_fingerprint_stable_and_representation_sensitive(self):
        from repro.io import interval_fingerprint

        dense = integer_interval_matrix(np.random.default_rng(12), 8, 5, 0.5)
        sparse = SparseIntervalMatrix.from_dense(dense)
        assert interval_fingerprint(sparse) == interval_fingerprint(sparse.copy())
        assert interval_fingerprint(sparse) != interval_fingerprint(dense)
        other = SparseIntervalMatrix.from_dense(
            integer_interval_matrix(np.random.default_rng(13), 8, 5, 0.5))
        assert interval_fingerprint(sparse) != interval_fingerprint(other)

    def test_npz_roundtrip_preserves_sparse_representation(self, tmp_path):
        from repro.io import load_interval_npz, save_interval_npz

        sparse = SparseIntervalMatrix.from_dense(
            integer_interval_matrix(np.random.default_rng(14), 9, 6, 0.4))
        path = tmp_path / "sparse.npz"
        save_interval_npz(sparse, path)
        loaded = load_interval_npz(path)
        assert is_sparse_interval(loaded)
        assert loaded.nnz == sparse.nnz
        assert _bytes_equal(loaded, sparse.to_dense())

    def test_dense_npz_still_loads_dense(self, tmp_path):
        from repro.io import load_interval_npz, save_interval_npz

        dense = integer_interval_matrix(np.random.default_rng(15), 4, 4, 0.5)
        path = tmp_path / "dense.npz"
        save_interval_npz(dense, path)
        assert isinstance(load_interval_npz(path), IntervalMatrix)

    def test_engine_caches_sparse_decompositions(self, tmp_path):
        from repro.experiments.engine import ExperimentEngine

        sparse = SparseIntervalMatrix.from_dense(
            integer_interval_matrix(np.random.default_rng(16), 15, 6, 0.5))
        engine = ExperimentEngine(cache_dir=tmp_path)
        first, hit = engine.decompose(sparse, "isvd4", 3, target="b")
        assert not hit
        second, hit = engine.decompose(sparse, "isvd4", 3, target="b")
        assert hit
        assert np.allclose(second.u_scalar(), first.u_scalar())
        # The dense equivalent must not be served the sparse cache entry.
        _, hit = engine.decompose(sparse.to_dense(), "isvd4", 3, target="b")
        assert not hit


class TestSparseFoldIn:
    def _model(self, seed=17, n=14, m=8, rank=3):
        dense = integer_interval_matrix(np.random.default_rng(seed), n, m, 0.7)
        return isvd(dense, rank, method="isvd3", target="b"), dense

    def test_fully_observed_sparse_row_matches_dense_fold_in(self):
        from repro.serve.foldin import FoldInProjector

        decomposition, dense = self._model()
        projector = FoldInProjector(decomposition)
        row = dense.row(0)
        full = IntervalMatrix(row.lower[np.newaxis, :] + 1.0,
                              row.upper[np.newaxis, :] + 2.0)
        sparse_rows = SparseIntervalMatrix.from_dense(full)
        assert sparse_rows.nnz == full.size  # every column observed
        dense_latent = projector.fold_in(full)
        sparse_latent = projector.fold_in(sparse_rows)
        # Same least-squares problem (all columns observed), solved via pinv
        # vs per-row lstsq: equal to numerical tolerance.
        np.testing.assert_allclose(sparse_latent, dense_latent, atol=1e-8)
        interval_dense = projector.fold_in_interval(full)
        interval_sparse = projector.fold_in_interval(sparse_rows)
        assert interval_sparse.allclose(interval_dense, atol=1e-8)

    def test_partially_observed_row_recovers_model_latent(self):
        from repro.serve.foldin import FoldInProjector

        decomposition, _ = self._model()
        projector = FoldInProjector(decomposition)
        latent_true = decomposition.u_scalar()[2][np.newaxis, :]
        scores = latent_true @ projector.item_map  # (1, m)
        observed = np.array([0, 2, 3, 5, 7])  # > rank columns
        rows = np.zeros(1, dtype=int).repeat(observed.size)
        sparse_row = SparseIntervalMatrix.from_coo(
            rows, observed, scores[0, observed], scores[0, observed],
            shape=(1, projector.n_items))
        folded = projector.fold_in(sparse_row)
        np.testing.assert_allclose(folded, latent_true, atol=1e-8)

    def test_unobserved_columns_do_not_pull_toward_zero(self):
        from repro.serve.foldin import FoldInProjector

        decomposition, _ = self._model()
        projector = FoldInProjector(decomposition)
        latent_true = decomposition.u_scalar()[1][np.newaxis, :]
        scores = latent_true @ projector.item_map
        observed = np.array([1, 2, 4, 6])
        # Dense row with zeros at unobserved columns: the zeros act as
        # observations and bias the projection; the sparse row must not.
        dense_row = np.zeros((1, projector.n_items))
        dense_row[0, observed] = scores[0, observed]
        sparse_row = SparseIntervalMatrix.from_coo(
            np.zeros(observed.size, dtype=int), observed,
            scores[0, observed], scores[0, observed],
            shape=(1, projector.n_items))
        sparse_latent = projector.fold_in(sparse_row)
        np.testing.assert_allclose(sparse_latent, latent_true, atol=1e-8)
        dense_latent = projector.fold_in(dense_row)
        assert not np.allclose(dense_latent, latent_true, atol=1e-4)

    def test_empty_row_folds_to_zero_latent(self):
        from repro.serve.foldin import FoldInProjector

        decomposition, _ = self._model()
        projector = FoldInProjector(decomposition)
        empty = SparseIntervalMatrix(
            sp.csr_array((2, projector.n_items), dtype=float),
            sp.csr_array((2, projector.n_items), dtype=float))
        np.testing.assert_array_equal(projector.fold_in(empty),
                                      np.zeros((2, decomposition.rank)))

    def test_wrong_width_sparse_rows_raise(self):
        from repro.serve.foldin import FoldInProjector

        decomposition, _ = self._model()
        projector = FoldInProjector(decomposition)
        bad = SparseIntervalMatrix(
            sp.csr_array((1, projector.n_items + 1), dtype=float),
            sp.csr_array((1, projector.n_items + 1), dtype=float))
        with pytest.raises(ValueError, match="width"):
            projector.fold_in(bad)

    def test_query_engine_answers_sparse_queries(self):
        from repro.serve.query import QueryEngine

        decomposition, dense = self._model()
        engine = QueryEngine(decomposition)
        observed = np.array([0, 1, 3, 4, 6])
        sparse_row = SparseIntervalMatrix.from_coo(
            np.zeros(observed.size, dtype=int), observed,
            np.full(observed.size, 2.0), np.full(observed.size, 4.0),
            shape=(1, engine.n_items))
        top = engine.top_k_items(sparse_row, k=3)
        assert top.indices.shape == (1, 3)
        neighbors = engine.nearest_neighbors(sparse_row, k=2)
        assert neighbors.indices.shape == (1, 2)
        scores = engine.reconstruct_rows(sparse_row)
        assert scores.shape == (1, engine.n_items)
        assert np.isfinite(scores).all()


class TestSparseRatings:
    def test_sparse_rating_matrix_matches_dense_construction(self):
        from repro.datasets.ratings import (
            make_ratings_dataset,
            rating_interval_matrix,
            sparse_rating_interval_matrix,
        )

        dataset = make_ratings_dataset(preset="movielens", n_users=30, n_items=40,
                                       seed=5)
        dense = rating_interval_matrix(dataset, alpha=0.5)
        sparse = sparse_rating_interval_matrix(dataset, alpha=0.5)
        assert _bytes_equal(sparse, dense)
        assert sparse.nnz == int(dataset.observed_mask.sum())

    def test_direct_generator_shape_density_and_validity(self):
        from repro.datasets.ratings import make_sparse_rating_matrix

        matrix = make_sparse_rating_matrix(preset=None, n_users=500, n_items=80,
                                           density=0.05, seed=3)
        assert matrix.shape == (500, 80)
        assert matrix.is_valid()
        # Cells are sampled without replacement: the count is exact.
        assert matrix.nnz == round(500 * 80 * 0.05)
        stars = matrix.midpoint().data
        assert stars.min() >= 1.0 and stars.max() <= 5.0

    @pytest.mark.parametrize("density", [0.5, 0.8, 1.0])
    def test_direct_generator_exact_at_high_densities(self, density):
        from repro.datasets.ratings import make_sparse_rating_matrix

        matrix = make_sparse_rating_matrix(preset=None, n_users=40, n_items=25,
                                           density=density, seed=2)
        assert matrix.nnz == round(40 * 25 * density)
        assert matrix.is_valid()

    def test_direct_generator_is_seed_deterministic(self):
        from repro.datasets.ratings import make_sparse_rating_matrix
        from repro.io import interval_fingerprint

        a = make_sparse_rating_matrix(preset="demo", seed=9)
        b = make_sparse_rating_matrix(preset="demo", seed=9)
        c = make_sparse_rating_matrix(preset="demo", seed=10)
        assert interval_fingerprint(a) == interval_fingerprint(b)
        assert interval_fingerprint(a) != interval_fingerprint(c)

    def test_scale_presets_exist_and_resolve(self):
        from repro.datasets.ratings import SPARSE_SCALE_PRESETS, make_sparse_rating_matrix

        assert set(SPARSE_SCALE_PRESETS) == {"demo", "webscale"}
        webscale = SPARSE_SCALE_PRESETS["webscale"]
        assert (webscale.n_users, webscale.n_items) == (100_000, 2_000)
        assert webscale.density == 0.01
        with pytest.raises(ValueError, match="unknown preset"):
            make_sparse_rating_matrix(preset="netflix")

    def test_generator_validates_geometry(self):
        from repro.datasets.ratings import make_sparse_rating_matrix

        with pytest.raises(ValueError, match="density"):
            make_sparse_rating_matrix(preset=None, n_users=10, n_items=10,
                                      density=0.0)
        with pytest.raises(ValueError, match="n_users"):
            make_sparse_rating_matrix(preset=None, n_users=0, n_items=10,
                                      density=0.5)
        with pytest.raises(ValueError, match="alpha"):
            make_sparse_rating_matrix(preset="demo", alpha=-1.0)

    def test_decomposable_end_to_end(self):
        from repro.datasets.ratings import make_sparse_rating_matrix

        matrix = make_sparse_rating_matrix(preset=None, n_users=120, n_items=30,
                                           density=0.2, seed=1)
        decomposition = isvd(matrix, 5, method="isvd4", target="b")
        assert decomposition.rank == 5
        assert decomposition.shape == (120, 30)


class TestSparseCLI:
    def test_generate_ratings_then_decompose_sparse(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import load_interval_npz

        path = tmp_path / "ratings.npz"
        assert main(["generate", str(path), "--kind", "ratings",
                     "--rows", "80", "--cols", "25", "--density", "0.3",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "sparse ratings interval matrix" in out
        assert is_sparse_interval(load_interval_npz(path))

        assert main(["decompose", "--npz", str(path), "--method", "isvd4",
                     "--rank", "4", "--sparse"]) == 0
        out = capsys.readouterr().out
        assert "stored cells" in out
        assert "H-mean reconstruction accuracy" in out

    def test_generate_ratings_requires_npz(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="npz"):
            main(["generate", str(tmp_path / "x.csv"), "--kind", "ratings"])

    def test_decompose_sparse_flag_converts_dense_input(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_interval_npz

        dense = integer_interval_matrix(np.random.default_rng(20), 15, 8, 0.4)
        path = tmp_path / "dense.npz"
        save_interval_npz(dense, path)
        assert main(["decompose", "--npz", str(path), "--method", "isvd3",
                     "--rank", "3", "--sparse"]) == 0
        assert "density" in capsys.readouterr().out
