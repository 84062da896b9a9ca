"""End-to-end error budgets: float32 engines vs the float64 reference.

Each test fits the same interval model twice — once at float64 (the
reference) and once at float32 — then drives the full serving surface
(scores, top-k, nearest neighbours) through
:class:`~repro.serve.query.QueryEngine` and asserts every deviation against
the budgets declared in :mod:`budgets`.  No tolerance appears inline; see
that module for the calibration story.

The model family is deliberately well-conditioned (separated spectrum,
moderate interval radii): the budgets certify the *implementation*, not
the conditioning of adversarial inputs, and hypothesis varies the draw
within the family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import budgets
from strategies import common_settings

from repro.core.isvd import isvd
from repro.interval.array import IntervalMatrix
from repro.serve.query import QueryEngine

RANK = 6
TOP_K = 5

COMMON_SETTINGS = common_settings(max_examples=10)

model_seeds = st.integers(0, 10_000)


def make_model_matrix(seed, n_users=40, n_items=24, rank=RANK):
    """Well-conditioned low-rank interval matrix: separated spectrum,
    interval radii ~1% of the signal scale."""
    rng = np.random.default_rng(seed)
    user_factors = rng.normal(size=(n_users, rank))
    item_factors = rng.normal(size=(n_items, rank))
    spectrum = np.linspace(rank, 1.0, rank)
    base = (user_factors * spectrum) @ item_factors.T
    radius = rng.random(base.shape) * 0.05
    return IntervalMatrix(base - radius, base + radius)


def _engines(matrix):
    reference = QueryEngine(isvd(matrix, RANK, method="isvd4", target="b"))
    low = QueryEngine(
        isvd(matrix, RANK, method="isvd4", target="b", dtype="float32"))
    return reference, low


def _sigma_midpoints(decomposition):
    sigma = decomposition.sigma
    if isinstance(sigma, IntervalMatrix):
        sigma = sigma.midpoint()
    return np.sort(np.asarray(sigma, dtype=np.float64).ravel())[::-1]


def _mean_overlap(indices_a, indices_b):
    return float(np.mean([
        len(set(row_a) & set(row_b)) / len(row_a)
        for row_a, row_b in zip(indices_a, indices_b)
    ]))


class TestErrorBudget:
    @settings(**COMMON_SETTINGS)
    @given(model_seeds)
    def test_singular_values_within_budget(self, seed):
        matrix = make_model_matrix(seed)
        reference, low = _engines(matrix)
        sigma_ref = _sigma_midpoints(reference.decomposition)[:RANK]
        sigma_low = _sigma_midpoints(low.decomposition)[:RANK]
        relative = np.max(np.abs(sigma_low - sigma_ref) / np.abs(sigma_ref))
        assert relative <= budgets.SIGMA_RTOL, (
            f"sigma deviation {relative:.3e} over budget "
            f"{budgets.SIGMA_RTOL:.1e}"
        )

    @settings(**COMMON_SETTINGS)
    @given(model_seeds)
    def test_scores_within_budget(self, seed):
        matrix = make_model_matrix(seed)
        reference, low = _engines(matrix)
        scores_ref = reference.scores_for_users()
        scores_low = np.asarray(low.scores_for_users(), dtype=np.float64)
        relative = (np.max(np.abs(scores_low - scores_ref))
                    / np.max(np.abs(scores_ref)))
        assert relative <= budgets.SCORE_RTOL, (
            f"score deviation {relative:.3e} over budget "
            f"{budgets.SCORE_RTOL:.1e}"
        )

    @settings(**COMMON_SETTINGS)
    @given(model_seeds)
    def test_top_k_rank_fidelity(self, seed):
        matrix = make_model_matrix(seed)
        reference, low = _engines(matrix)
        users = list(range(10))
        topk_ref = reference.top_k_for_users(users, TOP_K)
        topk_low = low.top_k_for_users(users, TOP_K)
        overlap = _mean_overlap(topk_low.indices, topk_ref.indices)
        assert overlap >= budgets.TOPK_OVERLAP_MIN, (
            f"top-{TOP_K} overlap {overlap:.3f} under floor "
            f"{budgets.TOPK_OVERLAP_MIN}"
        )

    @settings(**COMMON_SETTINGS)
    @given(model_seeds)
    def test_nearest_neighbors_within_budget(self, seed):
        matrix = make_model_matrix(seed)
        reference, low = _engines(matrix)
        queries = matrix.midpoint()[:6]
        nn_ref = reference.nearest_neighbors(queries, TOP_K)
        nn_low = low.nearest_neighbors(queries, TOP_K)
        overlap = _mean_overlap(nn_low.indices, nn_ref.indices)
        assert overlap >= budgets.NN_OVERLAP_MIN, (
            f"NN overlap {overlap:.3f} under floor "
            f"{budgets.NN_OVERLAP_MIN}"
        )
        # Distances compare sorted so a budget failure reports magnitude
        # drift, not the (already asserted) set disagreement.
        distances_ref = np.sort(nn_ref.scores, axis=1)
        distances_low = np.sort(
            np.asarray(nn_low.scores, dtype=np.float64), axis=1)
        relative = (np.max(np.abs(distances_low - distances_ref))
                    / np.max(np.abs(distances_ref)))
        assert relative <= budgets.DISTANCE_RTOL, (
            f"NN distance deviation {relative:.3e} over budget "
            f"{budgets.DISTANCE_RTOL:.1e}"
        )

    @settings(**COMMON_SETTINGS)
    @given(model_seeds)
    def test_fold_in_scores_within_budget(self, seed):
        matrix = make_model_matrix(seed)
        reference, low = _engines(matrix)
        rows = matrix.midpoint()[-4:]
        folded_ref = reference.reconstruct_rows(rows)
        folded_low = np.asarray(low.reconstruct_rows(rows), dtype=np.float64)
        relative = (np.max(np.abs(folded_low - folded_ref))
                    / np.max(np.abs(folded_ref)))
        assert relative <= budgets.SCORE_RTOL, (
            f"fold-in deviation {relative:.3e} over budget "
            f"{budgets.SCORE_RTOL:.1e}"
        )


def test_kernel_product_budget_formula_matches_gamma():
    """The closed-form kernel budget is the documented gamma expression —
    a guard against the helper drifting from its own docstring."""
    inner_dim, magnitude = 12, 3.5
    expected = (budgets.PRODUCT_GAMMA_FACTOR
                * budgets.gamma(inner_dim + 8, budgets.EPS["float32"])
                * magnitude)
    assert budgets.product_budget(inner_dim, magnitude, "float32") == expected


def test_float32_storage_reduction():
    """The ~2x endpoint-storage headline, asserted on actual array bytes."""
    matrix = make_model_matrix(0)
    narrowed = matrix.astype(np.float32, outward=True)
    ratio = ((matrix.lower.nbytes + matrix.upper.nbytes)
             / (narrowed.lower.nbytes + narrowed.upper.nbytes))
    assert ratio >= budgets.STORAGE_REDUCTION_MIN
