"""Least-favorable Gaussian distributions attaining the worst-case loss.

For a candidate precision matrix ``X`` and ambiguity radius ``rho``, the
worst-case expectation over the covariance ball is attained by a zero-mean
normal distribution whose covariance has the closed form
``S* = gamma^2 (gamma I - X)^{-1} cov (gamma I - X)^{-1}``, with the
multiplier ``gamma`` solving a scalar stationarity equation on
``(lambda_max(X), inf)``, concave and increasing like the shrinkage multiplier's.

At the optimal shrinkage estimator ``X*`` the worst case is ``S* = X*^{-1}``:
``X*`` shares the eigenvectors of ``cov``, and each of its eigenvalues ``x``
minimizes ``-log x + gamma^2 lam / (gamma - x)``, whose stationarity condition
``1 / x = gamma^2 lam / (gamma - x)^2`` makes ``1 / x`` the eigenvalue of ``S*``;
a zero sample eigenvalue maps to ``x = gamma`` and ``1 / gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .analytical import GAMMA_TOL, _check_rho, _eigenbasis_objective, _path, _spectrum
from .gaussian import RANK_RTOL, _symmetric_pair, as_symmetric, induced_metric_V, psd_spectrum


@dataclass(frozen=True)
class WorstCaseDistribution:
    """Extremal covariance, its multiplier, and the attained quantities."""

    covariance: np.ndarray
    multiplier: float
    attained_distance: float
    attained_value: float


def extremal_gamma(cov, X, rho: float) -> float:
    """Multiplier of the worst-case covariance for a fixed positive definite ``X`` and a
    PSD, possibly rank-deficient ``cov`` (see ``_multiplier_at``, which checks only the
    ``diag(U^T cov U) >= 0`` it needs); raises ``EstimationError`` when it does not converge.
    """
    _check_rho(rho)
    S, Xs = _symmetric_pair(cov, X)
    d, U = np.linalg.eigh(Xs)
    if psd_spectrum(d, "X")[0] == 0.0:
        raise ValueError("X must be positive definite, not rank deficient")
    return _multiplier_at(S, d, U, rho)[0]


def _multiplier_at(S, d, U, rho: float):
    """``(gamma, f(X, gamma))`` at ``gamma = argmin f(X, .)`` on ``[lambda_max(X), inf)``,
    for ``X = U diag(d) U^T`` (``d`` ascending, positive) and a validated PSD ``S``.

    With ``m = diag(U^T S U)``, ``f = -sum log d + gamma (rho^2 + sum m d / (gamma - d))``
    (``analytical._eigenbasis_objective``), whose slope over ``rho^2``,
    ``1 - sum m d^2 / (rho^2 (gamma - d)^2)``,
    is concave and increasing.  Each term alone puts its root beyond ``d_a (1 + sqrt(m_a)
    / rho)``; every gap at its smallest puts it below ``d_max + sqrt(sum m d^2) / rho``.
    Terms with ``m_a = 0`` (below the rank cut) vanish; if the slope is then nonnegative at
    ``d_max``, that boundary is the minimum, as the analytical multiplier is on rank-deficient
    input, and ``f`` is its limit there.
    """
    m = psd_spectrum(np.sum(U * (S @ U), axis=0), "cov")
    dm, mp, rho2 = d[m > 0.0], m[m > 0.0], rho * rho

    def residual(g, _):
        gap = g[:, None] - dm
        t = mp * (dm / gap) ** 2 / rho2
        return 1.0 - t.sum(axis=1), 2.0 * (t / gap).sum(axis=1)

    gamma = lower = max(float(d[-1]), float(np.max(dm * (1.0 + np.sqrt(mp) / rho), initial=0.0)))
    if residual(np.array([lower]), None)[0][0] < 0.0:
        upper = d[-1] + np.sqrt(mp @ (dm * dm)) / rho
        gamma = float(_kernels.monotone_newton(residual, lower, upper, GAMMA_TOL)[0][0])
    return gamma, _eigenbasis_objective(d, m, gamma, rho)


def extremal_covariance(cov, X, gamma: float) -> WorstCaseDistribution:
    """Worst-case covariance for a given feasible multiplier, finite and positive."""
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    S, Xs = _symmetric_pair(cov, X)
    p = S.shape[0]
    e = np.linalg.eigvalsh(Xs)
    if gamma - float(e[-1]) <= RANK_RTOL * max(abs(gamma), float(e[-1])):
        raise ValueError("gamma I - X must be positive definite")
    A = gamma * np.eye(p) - Xs
    B = np.linalg.solve(A, S)
    worst = gamma * gamma * np.linalg.solve(A, B.T).T
    worst = as_symmetric(worst, rtol=1.0)
    return WorstCaseDistribution(
        covariance=worst,
        multiplier=float(gamma),
        attained_distance=induced_metric_V(worst, S),
        attained_value=float(np.sum(worst * Xs)),
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
