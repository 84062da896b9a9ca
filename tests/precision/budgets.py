"""Declared per-op error budgets for float32 execution.

This module is the **single auditable home** of every numeric tolerance the
precision tier asserts.  No test under ``tests/precision/`` may carry its
own atol/rtol: each assertion names a budget declared here, so loosening a
bound is a reviewable one-line diff with a paper trail, not a magic number
drifting in a test body.

Budget model
------------
For a reduction of length ``n`` accumulated in a dtype with unit roundoff
``eps``, the classical worst-case relative error of a dot product is::

    gamma_n = n * eps / (1 - n * eps)

(Higham, *Accuracy and Stability of Numerical Algorithms*, §3.5).  Exact
per-op budgets below are stated as safety multiples of ``gamma_n`` where
the op is a single reduction, and as empirically calibrated relative
errors (with documented headroom) where the op composes many reductions
through an SVD — singular subspaces are only conditionally stable, so no
closed form is honest there.

End-to-end budgets were calibrated against the float64 reference on the
suite's own model family (well-separated spectra, moderate interval
widths) and carry >= 4x headroom over the worst observed error; a failure
therefore means the implementation regressed, not that the draw was
unlucky.
"""

import numpy as np

#: Unit roundoff by storage dtype name.
EPS = {
    "float32": float(np.finfo(np.float32).eps),
    "float64": float(np.finfo(np.float64).eps),
}


def gamma(n_ops: int, eps: float) -> float:
    """Worst-case relative error bound of an ``n_ops``-term reduction."""
    product = n_ops * eps
    return product / (1.0 - product)


# --------------------------------------------------------------------- #
# Kernel-level budgets (single reduction; closed-form bound applies)
# --------------------------------------------------------------------- #

#: Safety multiple of ``gamma_n * magnitude`` a float32 interval product's
#: endpoint may sit from the float64 reference endpoint.  4x covers the
#: endpoint combination (min/max over up to four products) on top of the
#: single-reduction bound.
PRODUCT_GAMMA_FACTOR = 4.0

#: Same bound for the gram fast path (one extra reduction of the diagonal).
GRAM_GAMMA_FACTOR = 4.0


def product_budget(inner_dim: int, magnitude: float, dtype: str) -> float:
    """Absolute tolerance for one interval-product endpoint at ``dtype``.

    ``magnitude`` is the largest |endpoint| product magnitude of the
    operands (``max|a| * max|b| * inner_dim`` is a safe caller-side value).
    """
    return PRODUCT_GAMMA_FACTOR * gamma(inner_dim + 8, EPS[dtype]) * magnitude


# --------------------------------------------------------------------- #
# End-to-end budgets (SVD-composed; empirically calibrated, documented)
# --------------------------------------------------------------------- #

#: Relative error of recommendation scores (fold-in reconstruction) against
#: the float64 reference engine, normalized by the score matrix's scale
#: (max |score|).  float32 carries the factorization itself in float32.
SCORE_RTOL = 5e-6

#: Relative error of nearest-neighbour *distances* against the float64
#: reference, normalized by the largest reference distance.  Looser than
#: SCORE_RTOL because in-sample queries sit near their own reconstruction,
#: so small distances lose leading digits to cancellation (worst observed
#: on the calibration family: ~5e-4).
DISTANCE_RTOL = 5e-3

#: Minimum mean top-k overlap (|intersection| / k) between the low-precision
#: engine's top-k item sets and the float64 reference's.  Rank inversions
#: happen exactly where two scores sit within SCORE_RTOL of each other, so
#: the floor is below 1.0 by design; on the calibration family the observed
#: overlap never fell below 1.0, so the floor carries ample slack for less
#: separated spectra.
TOPK_OVERLAP_MIN = 0.9

#: Same floor for nearest-neighbour candidate sets.
NN_OVERLAP_MIN = 0.9

#: Relative error of the singular values of a low-precision factorization
#: against the float64 reference (sorted, positionally compared).  Singular
#: *values* are perfectly conditioned (Weyl), so this budget is tight —
#: failures here point at the factorization plumbing, not at conditioning.
SIGMA_RTOL = 3e-6

#: Storage-size ratio the float32 endpoint representation must achieve
#: against float64 (the "~2x storage reduction" headline; exactly 2.0 for
#: raw endpoint arrays).
STORAGE_REDUCTION_MIN = 1.9
