"""Interval-valued Latent Semantic Alignment (ILSA, paper Section 3.3).

When the minimum and maximum components of an interval-valued matrix are
decomposed separately, the resulting two sets of basis vectors are unordered
relative to each other: the h-th column of ``V_lo`` need not describe the same
latent concept as the h-th column of ``V_hi``, and matched vectors may point in
opposite directions.  ILSA pairs the two sets so that matched columns are as
parallel as possible:

* **Problem 1 (stable matching)** — a greedy assignment following the
  supplementary Algorithm 6 (pick the most-similar partner per column, resolve
  conflicts with spare columns), with O(r^2) cost.
* **Problem 2 (optimal assignment)** — the linear assignment problem maximizing
  the total |cos| similarity, solved with the Hungarian algorithm
  (``scipy.optimize.linear_sum_assignment``) in O(r^3).

After the pairing, any matched pair with a negative cosine has the min-side
column multiplied by -1 so both columns point in a similar direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class AlignmentError(ValueError):
    """Raised for invalid inputs to the alignment routines."""


def cosine_similarity_matrix(v_lower: np.ndarray, v_upper: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities ``cos(v_lower[:, i], v_upper[:, j])``.

    Zero columns yield zero similarity rather than NaN.
    """
    v_lower = np.asarray(v_lower, dtype=float)
    v_upper = np.asarray(v_upper, dtype=float)
    if v_lower.ndim != 2 or v_upper.ndim != 2:
        raise AlignmentError("alignment expects 2-D factor matrices")
    if v_lower.shape != v_upper.shape:
        raise AlignmentError(
            f"factor shape mismatch: {v_lower.shape} vs {v_upper.shape}"
        )
    lower_norms = np.linalg.norm(v_lower, axis=0)
    upper_norms = np.linalg.norm(v_upper, axis=0)
    lower_norms = np.where(lower_norms == 0.0, 1.0, lower_norms)
    upper_norms = np.where(upper_norms == 0.0, 1.0, upper_norms)
    return (v_lower / lower_norms).T @ (v_upper / upper_norms)


@dataclass
class AlignmentResult:
    """Pairing between min-side and max-side basis vectors.

    Attributes
    ----------
    mapping:
        ``mapping[j]`` is the index of the min-side column paired with max-side
        column ``j``.  It is always a permutation of ``0..r-1``.
    signs:
        ``signs[j]`` is ``-1`` when the paired min-side column must be flipped
        so that the matched columns point in a similar direction, otherwise ``+1``.
    similarity:
        The full ``r x r`` cosine-similarity matrix between min and max columns.
    matched_similarity:
        ``matched_similarity[j] = |cos|`` of the matched pair for column ``j``.
    method:
        ``"greedy"`` or ``"hungarian"``.
    """

    mapping: np.ndarray
    signs: np.ndarray
    similarity: np.ndarray
    matched_similarity: np.ndarray
    method: str

    @property
    def rank(self) -> int:
        """Number of aligned basis vectors."""
        return int(self.mapping.shape[0])

    @property
    def total_similarity(self) -> float:
        """Objective value of Problem 2: the summed |cos| over matched pairs."""
        return float(self.matched_similarity.sum())

    def is_permutation(self) -> bool:
        """Sanity check: the mapping visits every min-side column exactly once."""
        return sorted(self.mapping.tolist()) == list(range(self.rank))

    def apply_to_columns(self, matrix: np.ndarray, flip_signs: bool = True) -> np.ndarray:
        """Permute (and optionally sign-flip) the columns of a min-side matrix.

        Column ``j`` of the output is column ``mapping[j]`` of the input,
        multiplied by ``signs[j]`` when ``flip_signs`` is requested.
        """
        matrix = np.asarray(matrix)
        if matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[1] != self.rank:
            raise AlignmentError(
                f"matrix has {matrix.shape[1]} columns but alignment rank is {self.rank}"
            )
        permuted = matrix[:, self.mapping]
        if flip_signs:
            signs = self.signs.astype(permuted.dtype, copy=False)
            permuted = permuted * signs[np.newaxis, :]
        return permuted

    def apply_to_diagonal(self, diagonal: np.ndarray) -> np.ndarray:
        """Permute the entries of a min-side diagonal (singular values)."""
        diagonal = np.asarray(diagonal)
        if diagonal.dtype != np.float32:
            diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.ndim == 2:
            diagonal = np.diag(diagonal)
        if diagonal.shape[0] != self.rank:
            raise AlignmentError("diagonal length does not match alignment rank")
        return diagonal[self.mapping]


def _greedy_mapping(preference: np.ndarray) -> np.ndarray:
    """Greedy conflict-resolving assignment (supplementary Algorithm 6).

    For each max-side column ``j`` pick the min-side column with the highest
    preference; when several max-side columns claim the same min-side column,
    the best claimant keeps it and the others are reassigned to the best
    remaining spare columns.
    """
    r = preference.shape[0]
    mapping = np.argmax(preference, axis=0)

    assigned, counts = np.unique(mapping, return_counts=True)
    if assigned.size == r:
        return mapping

    spare = [i for i in range(r) if i not in set(assigned.tolist())]
    for winner_index in assigned[counts > 1]:
        claimants = np.flatnonzero(mapping == winner_index)
        # Best claimant (highest preference) keeps the column.
        order = np.argsort(-preference[winner_index, claimants])
        losers = claimants[order[1:]]
        for j in losers:
            if not spare:
                break
            best_spare = max(spare, key=lambda i: preference[i, j])
            mapping[j] = best_spare
            spare.remove(best_spare)
    return mapping


def _hungarian_mapping(preference: np.ndarray) -> np.ndarray:
    """Optimal assignment maximizing the total preference (Problem 2)."""
    # Imported here: scipy.optimize is the costliest import of the package,
    # and a process that serves a published model never aligns.
    from scipy.optimize import linear_sum_assignment

    row_ind, col_ind = linear_sum_assignment(-preference)
    mapping = np.empty(preference.shape[0], dtype=int)
    # row_ind[k] is a min-side column paired with max-side column col_ind[k].
    mapping[col_ind] = row_ind
    return mapping


def ilsa(
    v_lower: np.ndarray,
    v_upper: np.ndarray,
    method: str = "hungarian",
) -> AlignmentResult:
    """Align min-side and max-side basis vectors (the ILSA procedure).

    Parameters
    ----------
    v_lower:
        Basis vectors obtained from the minimum component (columns are vectors).
    v_upper:
        Basis vectors obtained from the maximum component (same shape).
    method:
        ``"hungarian"`` (optimal, default) or ``"greedy"`` (stable-matching
        style, matching the supplementary pseudo-code).

    Returns
    -------
    AlignmentResult
        The permutation of min-side columns, per-column sign corrections, and
        similarity diagnostics.
    """
    if method not in ("hungarian", "greedy"):
        raise AlignmentError(f"unknown alignment method: {method!r}")
    similarity = cosine_similarity_matrix(v_lower, v_upper)
    preference = np.abs(similarity)

    if method == "hungarian":
        mapping = _hungarian_mapping(preference)
    else:
        mapping = _greedy_mapping(preference)

    r = preference.shape[0]
    columns = np.arange(r)
    matched_cos = similarity[mapping, columns]
    signs = np.where(matched_cos < 0.0, -1.0, 1.0)
    matched_similarity = np.abs(matched_cos)
    return AlignmentResult(
        mapping=mapping,
        signs=signs,
        similarity=similarity,
        matched_similarity=matched_similarity,
        method=method,
    )


def matched_cosines(v_lower: np.ndarray, v_upper: np.ndarray) -> np.ndarray:
    """Cosine similarity of *positionally* matched columns (no re-pairing).

    This is the "before alignment" series plotted in Figures 3 and 5 of the
    paper: ``cos(V_lo[:, i], V_hi[:, i])`` for each column index ``i``.
    """
    similarity = cosine_similarity_matrix(v_lower, v_upper)
    return np.diag(similarity).copy()


def align_factor_set(
    alignment: AlignmentResult,
    u_lower: np.ndarray,
    sigma_lower: np.ndarray,
    v_lower: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply an alignment to the full min-side factor set ``(U_lo, Sigma_lo, V_lo)``.

    Columns of ``U_lo`` and ``V_lo`` are permuted and sign-flipped together (so
    their product is unchanged), and the singular values are re-ordered to stay
    attached to their vectors.
    """
    u_aligned = alignment.apply_to_columns(u_lower, flip_signs=True)
    v_aligned = alignment.apply_to_columns(v_lower, flip_signs=True)
    sigma_diag = alignment.apply_to_diagonal(sigma_lower)
    return u_aligned, np.diag(sigma_diag), v_aligned


@dataclass
class AlignmentReport:
    """Before/after diagnostics used by the Figure 3 / Figure 5 experiments."""

    before: np.ndarray
    after: np.ndarray
    method: str = "hungarian"
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_before(self) -> float:
        """Mean |cos| of positionally matched columns before alignment."""
        return float(np.abs(self.before).mean()) if self.before.size else 0.0

    @property
    def mean_after(self) -> float:
        """Mean |cos| of matched columns after alignment."""
        return float(np.abs(self.after).mean()) if self.after.size else 0.0

    @property
    def improvement(self) -> float:
        """Absolute improvement in mean |cos| produced by the alignment."""
        return self.mean_after - self.mean_before


def alignment_report(
    v_lower: np.ndarray, v_upper: np.ndarray, method: str = "hungarian"
) -> AlignmentReport:
    """Compute the before/after matched-cosine series for a pair of factor sets."""
    before = np.abs(matched_cosines(v_lower, v_upper))
    result = ilsa(v_lower, v_upper, method=method)
    after = result.matched_similarity
    return AlignmentReport(before=before, after=after, method=method,
                           extras={"mapping": result.mapping, "signs": result.signs})
