"""Result containers for interval-valued decompositions.

A decomposition returns factor matrices whose nature depends on the
*decomposition target* chosen by the application (paper Section 3.4):

* target ``A`` — interval-valued ``U``, ``Sigma`` and ``V``;
* target ``B`` — scalar ``U`` and ``V`` with an interval-valued core ``Sigma``;
* target ``C`` — scalar ``U``, ``Sigma`` and ``V``.

:class:`IntervalDecomposition` normalizes all three shapes into one container
so downstream code (reconstruction, classification, collaborative filtering)
can be written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.interval.array import IntervalMatrix


class DecompositionTarget(str, Enum):
    """Application semantics for the decomposition output (Section 3.4)."""

    A = "a"
    """Interval-valued ``U``, ``Sigma`` and ``V`` (most general)."""

    B = "b"
    """Scalar ``U`` and ``V``; interval-valued core ``Sigma``."""

    C = "c"
    """Scalar ``U``, ``Sigma`` and ``V`` (compatible with classic SVD tooling)."""

    @classmethod
    def coerce(cls, value: Union[str, "DecompositionTarget"]) -> "DecompositionTarget":
        """Accept ``'a'/'b'/'c'`` strings (any case) or enum members."""
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


FactorMatrix = Union[np.ndarray, IntervalMatrix]


def _is_interval(matrix: FactorMatrix) -> bool:
    return isinstance(matrix, IntervalMatrix)


@dataclass
class IntervalDecomposition:
    """The output of an interval-valued decomposition ``M ~= U Sigma V^T``.

    Attributes
    ----------
    u, sigma, v:
        Factor and core matrices.  Each is either a scalar ``numpy.ndarray`` or
        an :class:`~repro.interval.array.IntervalMatrix`, as dictated by the
        decomposition target.  ``v`` is stored column-major as in the paper
        (``m x r``); reconstruction uses ``V^T``.
    target:
        The decomposition target (a / b / c).
    method:
        Human-readable name of the algorithm that produced the result
        (e.g. ``"ISVD4"``).
    rank:
        Target rank of the decomposition.
    timings:
        Optional per-phase wall-clock timings in seconds (preprocessing,
        decomposition, alignment, recomposition) used by the Figure 6(b)
        experiment.
    metadata:
        Free-form extras recorded by the algorithms (condition numbers,
        alignment permutation, iteration counts...).
    """

    u: FactorMatrix
    sigma: FactorMatrix
    v: FactorMatrix
    target: DecompositionTarget
    method: str
    rank: int
    timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.target = DecompositionTarget.coerce(self.target)
        self._validate_shapes()
        self._validate_target_kinds()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate_shapes(self) -> None:
        u_shape = self.u.shape
        v_shape = self.v.shape
        s_shape = self.sigma.shape
        if len(u_shape) != 2 or len(v_shape) != 2 or len(s_shape) != 2:
            raise ValueError("decomposition factors must be 2-D matrices")
        if s_shape[0] != s_shape[1]:
            raise ValueError(f"core matrix must be square, got {s_shape}")
        if u_shape[1] != s_shape[0] or v_shape[1] != s_shape[0]:
            raise ValueError(
                f"rank mismatch: U is {u_shape}, Sigma is {s_shape}, V is {v_shape}"
            )
        if s_shape[0] != self.rank:
            raise ValueError(f"declared rank {self.rank} != core size {s_shape[0]}")

    def _validate_target_kinds(self) -> None:
        if self.target is DecompositionTarget.A:
            return  # any mix is tolerated; factors are usually interval-valued
        if self.target is DecompositionTarget.B:
            if _is_interval(self.u) or _is_interval(self.v):
                raise ValueError("target B requires scalar U and V factors")
        if self.target is DecompositionTarget.C:
            if _is_interval(self.u) or _is_interval(self.v) or _is_interval(self.sigma):
                raise ValueError("target C requires scalar U, Sigma and V")

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        """Shape ``(n, m)`` of the matrix this decomposition approximates."""
        return (self.u.shape[0], self.v.shape[0])

    @property
    def is_interval_core(self) -> bool:
        """True when the core matrix is interval-valued."""
        return _is_interval(self.sigma)

    @property
    def is_interval_factors(self) -> bool:
        """True when either factor matrix is interval-valued."""
        return _is_interval(self.u) or _is_interval(self.v)

    def u_scalar(self) -> np.ndarray:
        """Scalar view of ``U`` (midpoints when interval-valued)."""
        return self.u.midpoint() if _is_interval(self.u) else np.asarray(self.u)

    def v_scalar(self) -> np.ndarray:
        """Scalar view of ``V`` (midpoints when interval-valued)."""
        return self.v.midpoint() if _is_interval(self.v) else np.asarray(self.v)

    def sigma_scalar(self) -> np.ndarray:
        """Scalar view of ``Sigma`` (midpoints when interval-valued)."""
        return self.sigma.midpoint() if _is_interval(self.sigma) else np.asarray(self.sigma)

    @property
    def dtype(self) -> np.dtype:
        """Endpoint dtype of the factors (float32 for a float32 fit)."""
        u = self.u.lower if _is_interval(self.u) else np.asarray(self.u)
        return u.dtype

    @staticmethod
    def _endpoints(matrix: FactorMatrix) -> Tuple[np.ndarray, np.ndarray]:
        if _is_interval(matrix):
            return matrix.lower, matrix.upper
        scalar = np.asarray(matrix)
        if scalar.dtype != np.float32:
            scalar = np.asarray(scalar, dtype=float)
        return scalar, scalar

    def u_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` endpoint arrays of ``U`` (equal when scalar)."""
        return self._endpoints(self.u)

    def sigma_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` endpoint arrays of ``Sigma`` (equal when scalar)."""
        return self._endpoints(self.sigma)

    def v_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` endpoint arrays of ``V`` (equal when scalar)."""
        return self._endpoints(self.v)

    def item_map(self) -> np.ndarray:
        """Scalar latent-to-row map ``Sigma V^T`` (``rank x m``).

        This is the linear map that turns a latent row ``u`` into its
        (midpoint) reconstruction ``u Sigma V^T``; the serving layer scores
        every query through it and the fold-in projector inverts it.
        """
        return self.sigma_scalar() @ self.v_scalar().T

    def singular_values(self) -> IntervalMatrix:
        """Diagonal of the core as a 1-D interval vector (degenerate if scalar)."""
        if _is_interval(self.sigma):
            return IntervalMatrix(
                np.diag(self.sigma.lower).copy(), np.diag(self.sigma.upper).copy(), check=False
            )
        diag = np.diag(np.asarray(self.sigma)).copy()
        return IntervalMatrix(diag, diag.copy())

    def projection(self, matmul=None) -> IntervalMatrix:
        """Row projections ``U x Sigma`` used as features for classification.

        For interval factors this is the interval product ``[U_lo S_lo, U_hi S_hi]``
        style enclosure computed with interval matrix algebra; for scalar
        factors it degenerates to the ordinary product.

        ``matmul`` overrides the scalar product primitive (default
        ``numpy.matmul``).  The serving layer passes its batch-size-invariant
        kernel so each feature row is a pure function of its own ``U`` row —
        the property that lets a row-range shard of ``U`` reproduce the
        matching slice of the unsharded features bit for bit.
        """
        from repro.interval.linalg import interval_matmul

        u = self.u if _is_interval(self.u) else IntervalMatrix.from_scalar(np.asarray(self.u))
        sigma = (
            self.sigma
            if _is_interval(self.sigma)
            else IntervalMatrix.from_scalar(np.asarray(self.sigma))
        )
        return interval_matmul(u, sigma, matmul=matmul)

    def describe(self) -> str:
        """One-line human-readable summary."""
        kinds = [
            "interval" if _is_interval(self.u) else "scalar",
            "interval" if _is_interval(self.sigma) else "scalar",
            "interval" if _is_interval(self.v) else "scalar",
        ]
        return (
            f"{self.method} (target {self.target.value}): "
            f"U[{kinds[0]}] {self.u.shape}, Sigma[{kinds[1]}] {self.sigma.shape}, "
            f"V[{kinds[2]}] {self.v.shape}"
        )


@dataclass
class FactorizationHistory:
    """Loss trajectory recorded by the iterative (PMF-style) models."""

    losses: list = field(default_factory=list)
    epochs: int = 0

    def record(self, loss: float) -> None:
        """Append one epoch's training loss."""
        self.losses.append(float(loss))
        self.epochs += 1

    @property
    def final_loss(self) -> Optional[float]:
        """Loss after the last recorded epoch, or ``None`` if never recorded."""
        return self.losses[-1] if self.losses else None

    def improved(self) -> bool:
        """True when the last loss is lower than the first one."""
        return len(self.losses) >= 2 and self.losses[-1] <= self.losses[0]
