"""Tests of the pluggable interval-product kernel subsystem.

The load-bearing facts checked here:

* the paper's ``endpoint4`` construction under-covers on mixed-sign operands
  (the ``[0, 0]`` vs ``[-4, 4]`` counterexample) — the confirmed bug the
  kernel registry exists to make explicit and fixable;
* ``exact`` is the interval hull (brute-force vertex enumeration agrees);
* ``exact`` and ``rump`` enclose every Monte-Carlo-sampled realization of a
  random interval product (the soundness property ``endpoint4`` lacks);
* ``endpoint4`` equals ``exact`` on sign-consistent operands, which is why
  the paper's figures are unaffected by the bug on non-negative data;
* on non-negative operands every ``endpoint4`` product and gram returns
  the bytes of the four-product min/max, in every storage, layout and
  dtype, including the sparse gram, which runs two SpGEMMs there; one
  signed, NaN, infinite or ``-0.0`` entry keeps those bytes too;
* the kernel threads end to end: isvd, reconstruct, fold-in, engine.
"""

import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import (
    DTYPES,
    brute_force_hull,
    common_settings,
    interval_matrix_params,
    nonnegative_interval_pair,
    nonnegative_pair_params,
    random_interval_pair,
    tiny_interval_matrix_params,
)

from repro.core.isvd import isvd
from repro.core.reconstruct import reconstruct, reconstruct_target_a
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import (
    DEFAULT_KERNEL,
    KernelInfo,
    available_kernels,
    get_kernel,
    kernel_infos,
)
from repro.interval.linalg import interval_dot, interval_matmul
from repro.interval.random import random_interval_matrix
from repro.interval.scalar import Interval, IntervalError
from repro.interval.sparse import SparseIntervalMatrix
from repro.serve.foldin import batch_invariant_matmul

COMMON_SETTINGS = common_settings(max_examples=25)

#: The issue's counterexample: one interval row, one scalar column.
COUNTER_A = IntervalMatrix([[-1.0, -1.0]], [[1.0, 1.0]])
COUNTER_B = IntervalMatrix.from_scalar([[2.0], [-2.0]])

_random_pair = random_interval_pair


class TestRegistry:
    def test_three_kernels_registered(self):
        assert available_kernels() == ["endpoint4", "exact", "rump"]

    def test_default_is_paper_faithful_endpoint4(self):
        info = get_kernel(None)
        assert info.key == DEFAULT_KERNEL == "endpoint4"
        assert info.paper_faithful and not info.sound

    def test_capability_metadata(self):
        by_key = {info.key: info for info in kernel_infos()}
        assert not by_key["endpoint4"].sound
        assert by_key["exact"].sound and by_key["exact"].tight
        assert by_key["rump"].sound and not by_key["rump"].tight
        assert [i for i in kernel_infos() if i.paper_faithful] == [by_key["endpoint4"]]

    def test_get_by_key_case_insensitive(self):
        assert get_kernel("RUMP").key == "rump"

    def test_get_passes_info_through(self):
        info = get_kernel("exact")
        assert get_kernel(info) is info

    def test_unknown_kernel_raises_with_choices(self):
        with pytest.raises(IntervalError, match="endpoint4"):
            get_kernel("midpoint")

    def test_infos_are_immutable(self):
        with pytest.raises(AttributeError):
            get_kernel("rump").sound = False


class TestFourEndpointEnclosureBug:
    """Regression: the confirmed under-coverage of the paper's construction."""

    def test_endpoint4_collapses_to_degenerate_zero(self):
        result = interval_matmul(COUNTER_A, COUNTER_B, kernel="endpoint4")
        assert result.lower[0, 0] == 0.0 and result.upper[0, 0] == 0.0

    def test_default_kernel_reproduces_the_bug(self):
        # Byte-identical reproduction requires the default to stay endpoint4,
        # bug included; this pins that contract.
        result = interval_matmul(COUNTER_A, COUNTER_B)
        assert result.lower[0, 0] == 0.0 and result.upper[0, 0] == 0.0

    def test_exact_recovers_the_true_range(self):
        result = interval_matmul(COUNTER_A, COUNTER_B, kernel="exact")
        assert result.lower[0, 0] == -4.0 and result.upper[0, 0] == 4.0

    def test_rump_encloses_the_true_range(self):
        result = interval_matmul(COUNTER_A, COUNTER_B, kernel="rump")
        assert result.lower[0, 0] <= -4.0 and result.upper[0, 0] >= 4.0

    def test_monte_carlo_escapes_endpoint4(self):
        rng = np.random.default_rng(42)
        e4 = interval_matmul(COUNTER_A, COUNTER_B, kernel="endpoint4")
        exact = interval_matmul(COUNTER_A, COUNTER_B, kernel="exact")
        escaped = False
        for _ in range(200):
            sample = rng.uniform(COUNTER_A.lower, COUNTER_A.upper)
            product = sample @ COUNTER_B.lower
            assert exact.contains(IntervalMatrix.from_scalar(product), tol=1e-12)
            if not e4.contains(IntervalMatrix.from_scalar(product), tol=1e-12):
                escaped = True
        assert escaped, "sampled products should fall outside the endpoint4 interval"


class TestExactIsTheHull:
    @settings(**COMMON_SETTINGS)
    @given(tiny_interval_matrix_params)
    def test_matches_brute_force_vertex_enumeration(self, params):
        a, b, _ = _random_pair(params)
        lower, upper = brute_force_hull(a, b)
        result = interval_matmul(a, b, kernel="exact")
        np.testing.assert_allclose(result.lower, lower, atol=1e-10)
        np.testing.assert_allclose(result.upper, upper, atol=1e-10)


class TestSoundnessProperty:
    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params, st.sampled_from(["exact", "rump"]))
    def test_kernels_enclose_monte_carlo_realizations(self, params, kernel):
        a, b, rng = _random_pair(params)
        result = interval_matmul(a, b, kernel=kernel)
        for _ in range(25):
            a_sample = rng.uniform(a.lower, a.upper)
            b_sample = rng.uniform(b.lower, b.upper)
            product = IntervalMatrix.from_scalar(a_sample @ b_sample)
            assert result.contains(product, tol=1e-9)

    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params)
    def test_nesting_endpoint4_in_exact_in_rump(self, params):
        a, b, _ = _random_pair(params)
        e4 = interval_matmul(a, b, kernel="endpoint4")
        exact = interval_matmul(a, b, kernel="exact")
        rump = interval_matmul(a, b, kernel="rump")
        # The four endpoint products are achievable member products, so the
        # unsound interval sits inside the hull; rump over-approximates it.
        assert exact.contains(e4, tol=1e-9)
        assert rump.contains(exact, tol=1e-9)

    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params)
    def test_all_kernels_valid_and_same_shape(self, params):
        a, b, _ = _random_pair(params)
        for kernel in available_kernels():
            result = interval_matmul(a, b, kernel=kernel)
            assert result.shape == (a.shape[0], b.shape[1])
            assert result.is_valid()


class TestSignConsistentEquivalence:
    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params)
    def test_endpoint4_equals_exact_on_nonnegative_operands(self, params):
        a, b, _ = _random_pair(params, mixed_sign=False)
        assert (a.lower >= 0).all() and (b.lower >= 0).all()
        e4 = interval_matmul(a, b, kernel="endpoint4")
        exact = interval_matmul(a, b, kernel="exact")
        assert e4.allclose(exact, atol=1e-10)

    @settings(**COMMON_SETTINGS)
    @given(interval_matrix_params)
    def test_endpoint4_equals_exact_on_nonpositive_left_operand(self, params):
        a, b, _ = _random_pair(params, mixed_sign=False)
        a = IntervalMatrix(-a.upper, -a.lower)
        e4 = interval_matmul(a, b, kernel="endpoint4")
        exact = interval_matmul(a, b, kernel="exact")
        assert e4.allclose(exact, atol=1e-10)

    def test_degenerate_operands_all_kernels_agree_exactly(self):
        rng = np.random.default_rng(5)
        a = IntervalMatrix.from_scalar(rng.normal(size=(4, 3)))
        b = IntervalMatrix.from_scalar(rng.normal(size=(3, 5)))
        expected = a.lower @ b.lower
        for kernel in available_kernels():
            result = interval_matmul(a, b, kernel=kernel)
            np.testing.assert_allclose(result.lower, expected, atol=1e-12)
            np.testing.assert_allclose(result.upper, expected, atol=1e-12)


def _densified(x, y):
    return (x @ y).toarray()


def _four_product_reference(a, b, matmul):
    """Supplementary Alg. 1 as written: min/max over all four products."""
    products = np.stack([matmul(x, y)
                         for x in (a.lower, a.upper) for y in (b.lower, b.upper)])
    return products.min(axis=0), products.max(axis=0)


#: ``endpoint4`` products and grams on non-negative operands: ``case(a, b)``
#: returns the kernel's endpoints and the reference's.  Only the sparse gram
#: takes the two-product path; the other cases run all four products.
E4 = get_kernel("endpoint4")
NONNEGATIVE_CASES = {
    "matmul": lambda a, b: (
        E4.product(a, b), _four_product_reference(a, b, np.matmul)),
    "batch_invariant_matmul": lambda a, b: (
        E4.product(a, b, batch_invariant_matmul),
        _four_product_reference(a, b, batch_invariant_matmul)),
    "dense_gram": lambda a, b: (
        E4.gram(a), _four_product_reference(a.T, a, np.matmul)),
    "sparse_gram": lambda a, b: (
        E4.gram(a), _four_product_reference(a.T, a, _densified)),
    "sparse@dense": lambda a, b: (
        E4.product(a, b), _four_product_reference(a, b, operator.matmul)),
    "dense@sparse": lambda a, b: (
        E4.product(a, b), _four_product_reference(a, b, operator.matmul)),
}


def _storage(case, a, b):
    """The case's operands: sparse where its name says so."""
    if case == "sparse_gram" or case == "sparse@dense":
        a = SparseIntervalMatrix.from_dense(a)
    if case == "dense@sparse":
        b = SparseIntervalMatrix.from_dense(b)
    return a, b


def _assert_same_bytes(result, expected):
    for got, want in zip(result, expected):
        got = np.asarray(got)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def _poisoned(matrix, endpoint, value, rng):
    """``matrix`` with one stored ``endpoint`` entry replaced by ``value``."""
    lower, upper = matrix.lower.copy(), matrix.upper.copy()
    target = lower if endpoint == "lower" else upper
    if isinstance(matrix, SparseIntervalMatrix):
        assume(target.nnz > 0)
        target.data[rng.integers(target.nnz)] = value
        upper.indices, upper.indptr = lower.indices, lower.indptr
        return SparseIntervalMatrix(lower, upper, check=False)
    target[np.unravel_index(rng.integers(target.size), target.shape)] = value
    return IntervalMatrix(lower, upper, check=False)


class TestNonNegativeEndpoint4:
    """On non-negative operands ``endpoint4`` keeps the four-product bytes.

    The sparse gram returns ``(LᵀL, UᵀU)`` there without the cross
    product.  Each case must give the bytes of the paper's four-product
    min/max, which the tests compute themselves: operands have exact
    zeros, degenerate entries (where the four products tie and only
    rounding separates them) and endpoints in differing memory layouts.
    """

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(NONNEGATIVE_CASES))
    @settings(**COMMON_SETTINGS)
    @given(nonnegative_pair_params)
    def test_equals_the_four_product_reference(self, case, dtype, params):
        a, b = _storage(case, *nonnegative_interval_pair(params, dtype=dtype))
        result, expected = NONNEGATIVE_CASES[case](a, b)
        _assert_same_bytes(result, expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(**COMMON_SETTINGS)
    @given(nonnegative_pair_params)
    def test_sparse_times_sparse_keeps_its_csr_arrays(self, dtype, params):
        a, b = nonnegative_interval_pair(params, dtype=dtype)
        a = SparseIntervalMatrix.from_dense(a)
        b = SparseIntervalMatrix.from_dense(b)
        products = [x @ y for x in (a.lower, a.upper) for y in (b.lower, b.upper)]
        lower = upper = products[0]
        for product in products[1:]:
            lower, upper = lower.minimum(product), upper.maximum(product)
        for got, want in zip(E4.product(a, b), (lower.tocsr(), upper.tocsr())):
            for part in ("indptr", "indices", "data"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("value", [-0.0, np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("case", sorted(NONNEGATIVE_CASES))
    @settings(**COMMON_SETTINGS)
    @given(nonnegative_pair_params, st.sampled_from(["a", "b"]),
           st.sampled_from(["lower", "upper"]), st.integers(0, 10_000))
    def test_one_bad_entry_keeps_the_reference_bytes(self, case, value, dtype, params,
                                                     operand, endpoint, seed):
        a, b = _storage(case, *nonnegative_interval_pair(params, dtype=dtype))
        rng = np.random.default_rng(seed)
        if operand == "a" or case.endswith("gram"):
            a = _poisoned(a, endpoint, value, rng)
        else:
            b = _poisoned(b, endpoint, value, rng)
        with np.errstate(invalid="ignore"):
            result, expected = NONNEGATIVE_CASES[case](a, b)
        _assert_same_bytes(result, expected)


class TestShapesAndPrimitives:
    def test_vector_operands_match_numpy_shapes(self):
        matrix = IntervalMatrix.from_scalar(np.arange(6.0).reshape(2, 3))
        vector = IntervalMatrix.from_scalar(np.ones(3))
        for kernel in available_kernels():
            assert interval_matmul(matrix, vector, kernel=kernel).shape == (2,)
        row = IntervalMatrix.from_scalar(np.ones(2))
        for kernel in available_kernels():
            assert interval_matmul(row, matrix, kernel=kernel).shape == (3,)

    def test_interval_dot_default_is_exact(self):
        x = IntervalMatrix(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        y = IntervalMatrix.from_scalar(np.array([2.0, -2.0]))
        assert interval_dot(x, y) == Interval(-4.0, 4.0)

    def test_interval_dot_endpoint4_under_covers(self):
        x = IntervalMatrix(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        y = IntervalMatrix.from_scalar(np.array([2.0, -2.0]))
        assert interval_dot(x, y, kernel="endpoint4") == Interval(0.0, 0.0)

    def test_custom_matmul_primitive_is_honoured(self):
        calls = []

        def counting_matmul(x, y):
            calls.append((x.shape, y.shape))
            return np.matmul(x, y)

        a, b, _ = _random_pair((3, 4, 2, 0))
        for kernel in available_kernels():
            baseline = interval_matmul(a, b, kernel=kernel)
            calls.clear()
            result = interval_matmul(a, b, matmul=counting_matmul, kernel=kernel)
            assert calls, f"kernel {kernel} bypassed the custom matmul"
            assert result.allclose(baseline)


class TestEndToEndThreading:
    def test_isvd_accepts_kernel_and_default_is_unchanged(self):
        matrix = random_interval_matrix((10, 8), interval_density=1.0,
                                        interval_intensity=0.8, rng=3)
        default = isvd(matrix, 4, method="isvd4", target="a")
        endpoint4 = isvd(matrix, 4, method="isvd4", target="a", kernel="endpoint4")
        assert default.u.allclose(endpoint4.u, atol=0.0, rtol=0.0)
        for kernel in ("exact", "rump"):
            other = isvd(matrix, 4, method="isvd4", target="a", kernel=kernel)
            assert other.shape == matrix.shape
            assert other.u.sorted_endpoints().is_valid()

    def test_sound_kernels_widen_isvd_u(self):
        # Mixed-sign singular-vector inverses are exactly where endpoint4's
        # cancellation bites, so sound kernels can only produce wider U.
        matrix = random_interval_matrix((12, 9), interval_density=1.0,
                                        interval_intensity=1.0, rng=11)
        narrow = isvd(matrix, 3, method="isvd3", target="a", kernel="endpoint4")
        wide = isvd(matrix, 3, method="isvd3", target="a", kernel="exact")
        assert wide.u.mean_span() >= narrow.u.mean_span() - 1e-12

    def test_reconstruct_accepts_kernel(self):
        matrix = random_interval_matrix((8, 6), interval_density=1.0,
                                        interval_intensity=0.5, rng=7)
        decomposition = isvd(matrix, 3, method="isvd3", target="a")
        default = reconstruct(decomposition)
        assert default.allclose(reconstruct_target_a(decomposition, kernel="endpoint4"))
        for kernel in ("exact", "rump"):
            result = reconstruct(decomposition, kernel=kernel)
            assert result.shape == matrix.shape
            assert result.contains(default, tol=1e-9)

    def test_registry_fit_threads_kernel_option(self):
        from repro.core import registry

        matrix = random_interval_matrix((9, 7), interval_density=1.0,
                                        interval_intensity=0.8, rng=2)
        info = registry.get("isvd4")
        assert info.kernel_aware
        via_registry = info.fit(matrix, 3, target="a", kernel="rump")
        direct = isvd(matrix, 3, method="isvd4", target="a", kernel="rump")
        assert via_registry.u.allclose(direct.u, atol=0.0, rtol=0.0)

    def test_only_interval_product_methods_are_kernel_aware(self):
        from repro.core import registry

        aware = {info.key for info in registry.infos() if info.kernel_aware}
        assert aware == {"isvd2", "isvd3", "isvd4"}

    def test_foldin_latent_features_respect_kernel(self):
        from repro.serve.foldin import FoldInProjector

        matrix = random_interval_matrix((10, 8), interval_density=1.0,
                                        interval_intensity=0.8, rng=4)
        decomposition = isvd(matrix, 3, method="isvd3", target="a")
        default = FoldInProjector(decomposition).latent_features(matrix.row(0))
        rump = FoldInProjector(decomposition, kernel="rump").latent_features(matrix.row(0))
        endpoint4 = FoldInProjector(decomposition, kernel="endpoint4")
        assert default.allclose(endpoint4.latent_features(matrix.row(0)),
                                atol=0.0, rtol=0.0)
        assert rump.contains(default, tol=1e-9)

    def test_engine_kernel_reaches_decompositions_and_cache_key(self, tmp_path):
        from repro.experiments.engine import ExperimentEngine

        matrix = random_interval_matrix((10, 8), interval_density=1.0,
                                        interval_intensity=0.8, rng=9)
        plain = ExperimentEngine(cache_dir=tmp_path)
        rump = ExperimentEngine(cache_dir=tmp_path, kernel="rump")
        base, hit = plain.decompose(matrix, "isvd4", 3, target="a")
        assert not hit
        widened, hit = rump.decompose(matrix, "isvd4", 3, target="a")
        assert not hit, "kernel must be part of the cache key"
        assert widened.u.mean_span() >= base.u.mean_span() - 1e-12
        again, hit = rump.decompose(matrix, "isvd4", 3, target="a")
        assert hit
        assert again.u.allclose(widened.u)

    def test_engine_normalizes_explicit_default_kernel(self, tmp_path):
        from repro.experiments.engine import ExperimentEngine

        matrix = random_interval_matrix((8, 6), interval_density=1.0,
                                        interval_intensity=0.5, rng=6)
        plain = ExperimentEngine(cache_dir=tmp_path)
        explicit = ExperimentEngine(cache_dir=tmp_path, kernel="endpoint4")
        assert explicit.kernel is None
        plain.decompose(matrix, "isvd4", 3, target="a")
        _, hit = explicit.decompose(matrix, "isvd4", 3, target="a")
        assert hit, "explicit endpoint4 must reuse the default run's cache entries"

    def test_engine_rejects_unknown_kernel_at_construction(self):
        from repro.experiments.engine import ExperimentEngine

        with pytest.raises(IntervalError, match="unknown interval kernel"):
            ExperimentEngine(kernel="typo")

    def test_engine_does_not_pass_kernel_to_unaware_methods(self):
        from repro.experiments.engine import ExperimentEngine

        matrix = random_interval_matrix((8, 6), interval_density=1.0,
                                        interval_intensity=0.5, rng=1)
        engine = ExperimentEngine(kernel="rump")
        # isvd1 never forms interval products; the engine must not feed the
        # option into its fit (nor poison its cache keys).
        decomposition, _ = engine.decompose(matrix, "isvd1", 3, target="b")
        assert decomposition.method == "ISVD1"
