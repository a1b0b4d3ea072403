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
from .analytical import GAMMA_TOL, _check_rho, _path
from .gaussian import RANK_RTOL, as_symmetric, induced_metric_V, psd_spectrum, spectral_decompose


@dataclass(frozen=True)
class WorstCaseDistribution:
    """Extremal covariance, its multiplier, and the attained quantities."""

    covariance: np.ndarray
    multiplier: float
    attained_distance: float
    attained_value: float


def extremal_gamma(cov, X, rho: float) -> float:
    """Multiplier of the worst-case covariance for a fixed estimator.

    Solves the stationarity equation of the dual objective on
    ``(lambda_max(X), inf)`` by monotone Newton within bounds relative to
    ``lambda_max(X)``; raises ``EstimationError`` when it does not converge.
    Requires ``cov`` positive definite; for a rank-deficient sample
    covariance use ``extremal_for_optimal`` or regularize first.
    """
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    Xs = as_symmetric(X, name="X")
    if S.shape != Xs.shape:
        raise ValueError("cov and X dimensions differ")
    d, U = np.linalg.eigh(Xs)
    for w, name in ((np.linalg.eigvalsh(S), "cov"), (d, "X")):
        if psd_spectrum(w, name)[0] == 0.0:
            raise ValueError(f"{name} must be positive definite, not rank deficient")
    m = np.einsum("ia,ij,ja->a", U, S, U)

    # in the eigenbasis of X the stationarity residual over rho^2 is 1 - sum_a m_a d_a^2 /
    # (rho^2 (gamma - d_a)^2), concave and increasing on (d_max, inf).  Each term alone puts
    # the root beyond d_a (1 + sqrt(m_a) / rho); every gap at its smallest, gamma - d_max,
    # puts it below d_max + sqrt(sum m d^2) / rho.
    def residual(g, _):
        gap = g[:, None] - d
        t = m * (d / gap) ** 2 / (rho * rho)
        return 1.0 - t.sum(axis=1), 2.0 * (t / gap).sum(axis=1)

    m = np.maximum(m, 0.0)  # roundoff negatives of a positive definite cov
    lower = np.max(d * (1.0 + np.sqrt(m) / rho))
    gamma, _, _ = _kernels.monotone_newton(residual, lower, d[-1] + np.sqrt(m @ (d * d)) / rho, GAMMA_TOL)
    return float(gamma[0])


def extremal_covariance(cov, X, gamma: float) -> WorstCaseDistribution:
    """Worst-case covariance for a given feasible multiplier."""
    S = as_symmetric(cov, name="cov")
    Xs = as_symmetric(X, name="X")
    if S.shape != Xs.shape:
        raise ValueError("cov and X dimensions differ")
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
    decomposition of ``cov``; sharing its eigenvectors, ``S*`` attains the distance
    ``||x^{-1/2} - sqrt(lam)||`` and the value ``<S*, X*> = p``.
    """
    _check_rho(rho)
    dec = spectral_decompose(cov)
    lam = psd_spectrum(dec.eigenvalues, "cov")
    solution = next(_path(dec.eigenvectors, lam, [rho]))
    root = np.sqrt(solution.shrunk_eigenvalues)
    W = dec.eigenvectors / root
    return WorstCaseDistribution(covariance=W @ W.T, multiplier=solution.dual_multiplier,
                                 attained_distance=float(np.linalg.norm(1.0 / root - np.sqrt(lam))),
                                 attained_value=float(lam.size))
