"""Least-favorable Gaussian distributions attaining the worst-case loss.

For a candidate precision matrix ``X`` and ambiguity radius ``rho``, the
worst-case expectation over the covariance ball is attained by a zero-mean
normal distribution whose covariance has the closed form
``S* = gamma^2 (gamma I - X)^{-1} cov (gamma I - X)^{-1}``, with the
multiplier ``gamma`` solving a scalar stationarity equation on
``(lambda_max(X), inf)``.  At the optimal shrinkage estimator the extremal
covariance is available eigenvalue-wise even for rank-deficient input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import _kernels
from .analytical import _check_rho, _solve_gamma_info
from .gaussian import RANK_RTOL, as_symmetric, induced_metric_V, psd_spectrum, spectral_decompose, sqrtm_psd


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
    ``(lambda_max(X), inf)`` by bracketed root finding with Newton polish.
    Requires ``cov`` positive definite; for a rank-deficient sample
    covariance use ``extremal_for_optimal`` or regularize first.
    """
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    Xs = as_symmetric(X, name="X")
    if S.shape != Xs.shape:
        raise ValueError("cov and X dimensions differ")
    for M, name in ((S, "cov"), (Xs, "X")):
        if psd_spectrum(np.linalg.eigvalsh(M), name)[0] == 0.0:
            raise ValueError(f"{name} must be positive definite, not rank deficient")

    d, U = np.linalg.eigh(Xs)
    m_diag = np.einsum("ia,ij,ja->a", U, S, U)
    dmax = float(d[-1])

    # in the eigenbasis of X the stationarity residual collapses to
    # rho^2 - sum_a m_a d_a^2 / (gamma - d_a)^2, strictly increasing in gamma
    def resid(gamma: float) -> float:
        q = d / (gamma - d)
        return rho * rho - float(m_diag @ (q * q))

    def resid_prime(gamma: float) -> float:
        return 2.0 * float(m_diag @ (d * d / (gamma - d) ** 3))

    lo = dmax * (1.0 + 1e-8) + 1e-12
    for _ in range(60):
        if resid(lo) < 0.0:
            break
        lo = dmax + (lo - dmax) * 1e-3
    hi = dmax + 1.0
    for _ in range(200):
        if resid(hi) > 0.0:
            break
        hi *= 2.0
    if not (resid(lo) < 0.0 < resid(hi)):
        raise RuntimeError("failed to bracket the extremal multiplier")

    gamma = float(brentq(resid, lo, hi, xtol=1e-15 * max(1.0, hi), rtol=4.0 * np.finfo(float).eps))
    for _ in range(8):
        f = resid(gamma)
        if abs(f) <= 1e-10:
            break
        fp = resid_prime(gamma)
        if fp <= 0.0:
            break
        nxt = gamma - f / fp
        if nxt <= dmax:
            break
        gamma = nxt
    return gamma


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
    """Worst-case covariance at the optimal shrinkage estimator.

    Shares the eigenvectors of ``cov``; eigenvalue-wise it equals
    ``gamma^2 lam / (gamma - x)^2`` on positive sample eigenvalues and
    ``1 / gamma`` on the null space, so rank deficiency is allowed.
    """
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    dec = spectral_decompose(S)
    lam = psd_spectrum(dec.eigenvalues, "cov")
    gamma, _, _ = _solve_gamma_info(lam, rho)
    x = _kernels.shrink_eigenvalues(lam, gamma)
    s = np.empty_like(lam)
    pos = lam > 0.0
    s[pos] = gamma * gamma * lam[pos] / (gamma - x[pos]) ** 2
    s[~pos] = 1.0 / gamma
    V = dec.eigenvectors
    worst = as_symmetric((V * s) @ V.T, rtol=1.0)
    return WorstCaseDistribution(
        covariance=worst,
        multiplier=float(gamma),
        attained_distance=induced_metric_V(worst, S),
        attained_value=float(np.sum(s * x)),
    )


def sample_within_radius(cov, rho: float, count: int, rng: np.random.Generator):
    """Random PSD matrices within distance ``rho`` of ``cov``.

    Draws ``cov^{1/2} (I + E) cov^{1/2}`` for a small random symmetric ``E``
    and halves ``E`` until the ball constraint holds.  Used for dominance
    spot checks; interior coverage matters, exactness does not.
    """
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    root = sqrtm_psd(S, "cov")
    p = S.shape[0]
    out = []
    for _ in range(int(count)):
        A = rng.standard_normal((p, p))
        E = 0.5 * (A + A.T)
        norm = float(np.linalg.norm(E, 2))
        if norm > 0.0:
            E *= 0.5 / norm
        candidate = as_symmetric(root @ (np.eye(p) + E) @ root, rtol=1.0)
        for _ in range(100):
            if induced_metric_V(candidate, S) <= rho:
                break
            E *= 0.5
            candidate = as_symmetric(root @ (np.eye(p) + E) @ root, rtol=1.0)
        out.append(candidate)
    return out
