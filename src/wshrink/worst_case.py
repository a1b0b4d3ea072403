"""Least-favorable Gaussian distributions attaining the worst-case loss.

For a candidate precision matrix ``X`` and ambiguity radius ``rho``, the
worst-case expectation over the covariance ball is attained by a zero-mean
normal distribution whose covariance has the closed form
``S* = gamma^2 (gamma I - X)^{-1} cov (gamma I - X)^{-1}``, with the
multiplier ``gamma`` solving a scalar stationarity equation on
``(lambda_max(X), inf)``, concave and increasing like the shrinkage multiplier's.
``extremal_gamma`` solves it in the eigenbasis of ``X`` (``analytical._multiplier_at``,
which the SQA solver shares), and ``extremal_covariance`` forms ``S*`` from the SQA
solver's validated point (``sqa._cone_point``), whose gradient ``S* - X^-1`` it is.

At the optimal shrinkage estimator ``X*`` the worst case is ``S* = X*^{-1}``:
``X*`` shares the eigenvectors of ``cov``, and each of its eigenvalues ``x``
minimizes ``-log x + gamma^2 lam / (gamma - x)``, whose stationarity condition
``1 / x = gamma^2 lam / (gamma - x)^2`` makes ``1 / x`` the eigenvalue of ``S*``;
a zero sample eigenvalue maps to ``x = gamma`` and ``1 / gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytical import _check_rho, _multiplier_at, _path, _spectrum
from .gaussian import _cone_inputs, induced_metric_V
from .sqa import _cone_point


@dataclass(frozen=True)
class WorstCaseDistribution:
    """Extremal covariance, its multiplier, and the attained quantities."""

    covariance: np.ndarray
    multiplier: float
    attained_distance: float
    attained_value: float


def extremal_gamma(cov, X, rho: float) -> float:
    """Multiplier of the worst-case covariance for a fixed positive definite ``X`` and a
    PSD, possibly rank-deficient ``cov``, on the domain that the ``gaussian`` module docstring
    states (``gaussian._cone_inputs``, whose ``eigh`` of ``X`` ``analytical._multiplier_at``
    reads); raises ``EstimationError`` when it does not converge.
    """
    _check_rho(rho)
    S, _, d, U = _cone_inputs(cov, X)
    return _multiplier_at(S, d, U, rho)[0]


def extremal_covariance(cov, X, gamma: float) -> WorstCaseDistribution:
    """Worst-case covariance ``S* = gamma^2 (gamma I - X)^-1 cov (gamma I - X)^-1`` for a
    PSD ``cov``, a positive definite ``X`` and a multiplier above ``lambda_max(X)``, on the
    domain that the ``gaussian`` module docstring states.

    ``S*`` is the first term of the reformulation's gradient ``S* - X^-1``, and comes from
    the same validated SQA point (``sqa._cone_point``) and its Cholesky factors, so the
    first call of a process loads SciPy.
    """
    point = _cone_point(cov, X, gamma)
    worst = point.GinvSGinv
    return WorstCaseDistribution(
        covariance=worst,
        multiplier=point.gamma,
        attained_distance=induced_metric_V(worst, point.cov),
        attained_value=float(np.sum(worst * point.X)),
    )


def extremal_for_optimal(cov, rho: float) -> WorstCaseDistribution:
    """Worst-case covariance ``X*^{-1}`` at the optimal shrinkage estimator ``X*``.

    Each shrunk eigenvalue ``x`` satisfies ``1 / x = gamma^2 lam / (gamma - x)^2``
    (see the module docstring), and ``x = gamma`` on the null space of ``cov``, so
    rank deficiency is allowed.  ``X*`` comes from the radius path, from one validated
    decomposition of ``cov`` or of ``SampleMoments`` (``_spectrum``); sharing its
    eigenvectors, ``S*`` attains the distance ``||x^{-1/2} - sqrt(lam)||`` and the value
    ``<S*, X*> = p``.  When ``V`` holds only the r range eigenvectors of moments with
    fewer rows than columns, ``S* = I / gamma + V diag(1 / x_r - 1 / gamma) V^T``.
    """
    _check_rho(rho)
    lam, V = _spectrum(cov)
    solution = next(_path(V, lam, [rho]))
    x, p, r = solution.shrunk_eigenvalues, lam.size, V.shape[1]
    complement = 0.0 if r == p else 1.0 / solution.dual_multiplier
    W = V * np.sqrt(np.maximum(1.0 / x[p - r :] - complement, 0.0))  # x may exceed gamma by an ulp
    worst = W @ W.T
    worst.flat[:: p + 1] += complement
    return WorstCaseDistribution(covariance=worst, multiplier=solution.dual_multiplier,
                                 attained_distance=float(np.linalg.norm(1.0 / np.sqrt(x) - np.sqrt(lam))),
                                 attained_value=float(p))
