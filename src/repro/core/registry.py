"""Unified registry of interval-valued factorization algorithms.

Every algorithm family in the code base — the ISVD0..ISVD4 strategies, the
NMF / I-NMF and PMF / I-PMF / AI-PMF iterative models, the LP eigen-bound
competitor and the interval PCA baseline — is reachable here through one
string key and one call shape::

    from repro.core import registry
    decomposition = registry.get("isvd4").fit(matrix, rank, target="b")

The registry is the architectural seam between the algorithms and everything
that drives them (the experiment engine, the CLI, the evaluation entry
points): callers never special-case an algorithm family again, and new
backends plug in with a single :func:`register` call.

Each entry is a :class:`FactorizerInfo` carrying capability metadata next to
the fit callable:

* ``targets`` — which decomposition targets (a/b/c, Section 3.4) the method
  can emit, and ``default_target``, the one it is usually run with;
* ``scalar_only`` — True when every factor the method produces is scalar
  (ISVD0, NMF, PMF), i.e. interval structure of the input is collapsed;
* ``stochastic`` — True when the result depends on a random initialization
  seed (the iterative models); deterministic methods ignore ``seed``;
* ``requires_nonnegative`` — True for the NMF family, which rejects inputs
  with negative entries;
* ``kernel_aware`` — True when the method routes its interval products
  through the pluggable kernel registry (:mod:`repro.interval.kernels`) and
  therefore honours a ``kernel=`` fit option (ISVD2/3/4, whose gram and
  factor-recovery steps are interval products);
* ``dtype_aware`` — True when the method honours a ``dtype=`` fit option
  selecting the endpoint dtype: the ISVD family, which can store and
  accumulate endpoints in float32 instead of the float64 default;
* ``cost`` — coarse cost class: ``"closed-form"`` (a fixed number of dense
  linear-algebra kernels), ``"iterative"`` (gradient / multiplicative update
  loops) or ``"expensive"`` (methods the paper reports as impractically slow,
  kept for comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # Protocol is purely documentation; tolerate very old typing modules.
    from typing import Protocol
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

from repro.core.inmf import INMF, NMF
from repro.core.ipmf import AIPMF, IPMF, PMF
from repro.core.isvd import isvd
from repro.core.result import DecompositionTarget, IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.sparse import as_interval_operand, is_sparse_interval


class RegistryError(ValueError):
    """Raised for unknown method keys or unsupported method/target combinations."""


class IntervalFactorizer(Protocol):
    """Call shape every registered fit function satisfies."""

    def __call__(
        self,
        matrix: IntervalMatrix,
        rank: int,
        target: str,
        seed: Optional[int] = None,
        **options: object,
    ) -> IntervalDecomposition:  # pragma: no cover - protocol definition
        ...


@dataclass(frozen=True)
class FactorizerInfo:
    """One registered factorization method: capability metadata + fit callable."""

    key: str
    display_name: str
    targets: Tuple[str, ...]
    default_target: str
    cost: str
    summary: str
    scalar_only: bool = False
    stochastic: bool = False
    requires_nonnegative: bool = False
    kernel_aware: bool = False
    sparse_aware: bool = False
    dtype_aware: bool = False
    _fit: Callable[..., IntervalDecomposition] = field(repr=False, default=None)

    def supports_target(self, target: Union[str, DecompositionTarget]) -> bool:
        """True when the method can emit the given decomposition target."""
        return DecompositionTarget.coerce(target).value in self.targets

    def fit(
        self,
        matrix: Union[IntervalMatrix, np.ndarray],
        rank: int,
        target: Union[str, DecompositionTarget, None] = None,
        seed: Optional[int] = None,
        **options: object,
    ) -> IntervalDecomposition:
        """Run the factorization and return an :class:`IntervalDecomposition`.

        ``target`` defaults to the method's preferred target; requesting one
        the method cannot emit raises :class:`RegistryError`.  ``seed`` feeds
        the random initialization of stochastic methods and is ignored by
        deterministic ones, so the experiment engine can pass it uniformly.

        A :class:`~repro.interval.sparse.SparseIntervalMatrix` passes through
        untouched to ``sparse_aware`` methods (the gram-based ISVD family,
        which executes it in sparse BLAS) and is densified for every other
        method — their update rules are inherently dense, so the conversion
        only moves the memory cost to the call boundary where it is visible.
        """
        if target is None:
            target = self.default_target
        target = DecompositionTarget.coerce(target).value
        if target not in self.targets:
            raise RegistryError(
                f"method {self.key!r} supports decomposition targets "
                f"{'/'.join(self.targets)}, not {target!r}"
            )
        matrix = as_interval_operand(matrix)
        if is_sparse_interval(matrix) and not self.sparse_aware:
            matrix = matrix.to_dense()
        return self._fit(matrix, rank, target=target, seed=seed, **options)


_REGISTRY: Dict[str, FactorizerInfo] = {}


def register(info: FactorizerInfo) -> FactorizerInfo:
    """Add a method to the registry (last registration of a key wins)."""
    if not info.targets or info.default_target not in info.targets:
        raise RegistryError(
            f"method {info.key!r}: default target {info.default_target!r} "
            f"must be one of its supported targets {info.targets}"
        )
    _REGISTRY[info.key] = info
    return info


def get(key: str) -> FactorizerInfo:
    """Look up a method by key; raises :class:`RegistryError` with the valid keys."""
    try:
        return _REGISTRY[str(key).lower()]
    except KeyError:
        raise RegistryError(
            f"unknown factorization method {key!r}; available: {', '.join(available())}"
        ) from None


def available() -> List[str]:
    """Sorted list of registered method keys."""
    return sorted(_REGISTRY)


def infos() -> List[FactorizerInfo]:
    """All registered methods, sorted by key."""
    return [_REGISTRY[key] for key in available()]


def decompose(
    matrix: Union[IntervalMatrix, np.ndarray],
    method: str,
    rank: int,
    target: Union[str, DecompositionTarget, None] = None,
    seed: Optional[int] = None,
    **options: object,
) -> IntervalDecomposition:
    """Convenience one-shot: ``get(method).fit(...)``."""
    return get(method).fit(matrix, rank, target=target, seed=seed, **options)


# --------------------------------------------------------------------------- #
# ISVD family (deterministic, closed form)
# --------------------------------------------------------------------------- #
def _isvd_fit(method: str) -> Callable[..., IntervalDecomposition]:
    def fit(matrix, rank, target, seed=None, **options):
        return isvd(matrix, rank, method=method, target=target, **options)

    return fit


register(FactorizerInfo(
    key="isvd0", display_name="ISVD0", targets=("c",), default_target="c",
    cost="closed-form", scalar_only=True, dtype_aware=True,
    summary="SVD of the midpoint matrix (average and decompose, Alg. 7)",
    _fit=_isvd_fit("isvd0"),
))
register(FactorizerInfo(
    key="isvd1", display_name="ISVD1", targets=("a", "b", "c"), default_target="b",
    cost="closed-form", dtype_aware=True,
    summary="endpoint SVDs aligned with ILSA (decompose and align, Alg. 8)",
    _fit=_isvd_fit("isvd1"),
))
register(FactorizerInfo(
    key="isvd2", display_name="ISVD2", targets=("a", "b", "c"), default_target="b",
    cost="closed-form", kernel_aware=True, sparse_aware=True, dtype_aware=True,
    summary="Gram eigen-decomposition, solve U, then align (Alg. 9)",
    _fit=_isvd_fit("isvd2"),
))
register(FactorizerInfo(
    key="isvd3", display_name="ISVD3", targets=("a", "b", "c"), default_target="b",
    cost="closed-form", kernel_aware=True, sparse_aware=True, dtype_aware=True,
    summary="align first, then solve U with interval algebra (Alg. 10)",
    _fit=_isvd_fit("isvd3"),
))
register(FactorizerInfo(
    key="isvd4", display_name="ISVD4", targets=("a", "b", "c"), default_target="b",
    cost="closed-form", kernel_aware=True, sparse_aware=True, dtype_aware=True,
    summary="ISVD3 plus V recomputation; the paper's best strategy (Alg. 11)",
    _fit=_isvd_fit("isvd4"),
))


# --------------------------------------------------------------------------- #
# NMF family (stochastic, non-negative, iterative)
# --------------------------------------------------------------------------- #
def _fit_nmf(matrix, rank, target, seed=None, max_iter=200, tol=1e-6, **_):
    model = NMF(rank=rank, max_iter=max_iter, tol=tol, seed=seed).fit(matrix)
    return IntervalDecomposition(
        u=model.u, sigma=np.eye(rank), v=model.v,
        target=target, method="NMF", rank=rank,
        metadata={"final_loss": model.history.final_loss,
                  "epochs": model.history.epochs},
    )


def _fit_inmf(matrix, rank, target, seed=None, max_iter=200, tol=1e-6, **_):
    model = INMF(rank=rank, max_iter=max_iter, tol=tol, seed=seed).fit(matrix)
    v = IntervalMatrix(
        np.minimum(model.v_lower, model.v_upper),
        np.maximum(model.v_lower, model.v_upper),
    )
    return IntervalDecomposition(
        u=model.u, sigma=np.eye(rank), v=v,
        target=target, method="I-NMF", rank=rank,
        metadata={"final_loss": model.history.final_loss,
                  "epochs": model.history.epochs},
    )


register(FactorizerInfo(
    key="nmf", display_name="NMF", targets=("c",), default_target="c",
    cost="iterative", scalar_only=True, stochastic=True, requires_nonnegative=True,
    summary="Lee-Seung multiplicative updates on the midpoint matrix",
    _fit=_fit_nmf,
))
register(FactorizerInfo(
    key="inmf", display_name="I-NMF", targets=("a",), default_target="a",
    cost="iterative", stochastic=True, requires_nonnegative=True,
    summary="interval NMF: shared scalar U, interval non-negative V",
    _fit=_fit_inmf,
))


# --------------------------------------------------------------------------- #
# PMF family (stochastic, iterative)
# --------------------------------------------------------------------------- #
def _pmf_kwargs(rank, seed, options):
    kwargs = dict(rank=rank, seed=seed)
    for name in ("learning_rate", "reg_u", "reg_v", "epochs", "batch_size", "center"):
        if name in options:
            kwargs[name] = options[name]
    return kwargs


def _fit_pmf(matrix, rank, target, seed=None, mask=None, **options):
    model = PMF(**_pmf_kwargs(rank, seed, options))
    model.fit(matrix.midpoint(), mask=mask)
    return IntervalDecomposition(
        u=model.u, sigma=np.eye(rank), v=model.v,
        target=target, method="PMF", rank=rank,
        metadata={"global_mean": model.global_mean,
                  "final_loss": model.history.final_loss},
    )


def _fit_pmf_interval(cls, matrix, rank, target, seed, mask, options):
    model = cls(**_pmf_kwargs(rank, seed, options))
    model.fit(matrix, mask=mask)
    v = IntervalMatrix(
        np.minimum(model.v_lower, model.v_upper),
        np.maximum(model.v_lower, model.v_upper),
    )
    return IntervalDecomposition(
        u=model.u, sigma=np.eye(rank), v=v,
        target=target, method=cls.method_name, rank=rank,
        metadata={"global_mean": model.global_mean,
                  "final_loss": model.history.final_loss},
    )


def _fit_ipmf(matrix, rank, target, seed=None, mask=None, **options):
    return _fit_pmf_interval(IPMF, matrix, rank, target, seed, mask, options)


def _fit_aipmf(matrix, rank, target, seed=None, mask=None, **options):
    return _fit_pmf_interval(AIPMF, matrix, rank, target, seed, mask, options)


register(FactorizerInfo(
    key="pmf", display_name="PMF", targets=("c",), default_target="c",
    cost="iterative", scalar_only=True, stochastic=True,
    summary="probabilistic matrix factorization of the midpoint ratings",
    _fit=_fit_pmf,
))
register(FactorizerInfo(
    key="ipmf", display_name="I-PMF", targets=("a",), default_target="a",
    cost="iterative", stochastic=True,
    summary="interval PMF: shared scalar U, interval factor V",
    _fit=_fit_ipmf,
))
register(FactorizerInfo(
    key="aipmf", display_name="AI-PMF", targets=("a",), default_target="a",
    cost="iterative", stochastic=True,
    summary="the paper's aligned interval PMF (I-PMF + ILSA, Alg. 15)",
    _fit=_fit_aipmf,
))


# --------------------------------------------------------------------------- #
# Competitors and baselines (imported lazily: LP pulls in scipy)
# --------------------------------------------------------------------------- #
def _fit_lp(matrix, rank, target, seed=None, mode="perturbation", **_):
    from repro.baselines.lp_eig import lp_isvd

    return lp_isvd(matrix, rank, target=target, mode=mode)


def _fit_interval_pca(matrix, rank, target, seed=None, **_):
    from repro.baselines.interval_pca import CentersPCA

    if rank < 1:
        raise RegistryError(f"interval-pca requires rank >= 1, got {rank}")
    # PCA reconstructs the *centered* matrix; the feature means are folded back
    # in as a constant component so U Sigma V^T approximates the matrix itself.
    # The mean component counts toward the requested rank (like the leading
    # direction of an uncentered SVD), so the decomposition — and the feature
    # width other methods are compared against — is exactly ``rank``.
    n = matrix.shape[0]
    n_components = rank - 1
    if n_components == 0:
        mean = matrix.midpoint().mean(axis=0)
        score_lower = score_upper = np.empty((n, 0))
        components = np.empty((0, matrix.shape[1]))
        explained_variance = np.empty(0)
    else:
        model = CentersPCA(n_components=n_components).fit(matrix)
        components = model.components_
        mean = model.mean_
        scores = model.transform(matrix)
        score_lower, score_upper = scores.lower, scores.upper
        explained_variance = model.explained_variance_
    k = components.shape[0]
    u = IntervalMatrix(
        np.hstack([score_lower, np.ones((n, 1))]),
        np.hstack([score_upper, np.ones((n, 1))]),
    )
    v = np.vstack([components, mean[np.newaxis, :]]).T
    return IntervalDecomposition(
        u=u, sigma=np.eye(k + 1), v=v,
        target=target, method="IntervalPCA", rank=k + 1,
        metadata={"n_components": k, "explained_variance": explained_variance},
    )


register(FactorizerInfo(
    key="lp", display_name="LP", targets=("a", "b", "c"), default_target="b",
    cost="expensive",
    summary="LP / perturbation eigen-bound competitor (Deif 1991)",
    _fit=_fit_lp,
))
register(FactorizerInfo(
    key="interval-pca", display_name="IntervalPCA", targets=("a",), default_target="a",
    cost="closed-form",
    summary="centers PCA of the midpoints with interval-valued projections",
    _fit=_fit_interval_pca,
))
