"""Independent reference math for the correctness checks.

Nothing here calls ``wshrink``: the multiplier is found with
``scipy.optimize.brentq`` on the residual written out from its formula, the
eigenvalue map uses the paper's direct (unrationalized) form, and every score
is recomputed with ``np.linalg.slogdet``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

#: eigenvalues below this share of the largest one count as exactly zero
RANK_RTOL = 1e-12


def clean_spectrum(cov):
    """Ascending eigenpairs of a PSD matrix with the relative rank cut applied."""
    lam, V = np.linalg.eigh(cov)
    lam = np.where(lam < RANK_RTOL * max(lam[-1], 0.0), 0.0, lam)
    return lam, V


def multiplier(lam, rho):
    """Positive root of ``phi(g) = (rho^2 - sum(lam)/2) g - p + sum(sqrt(lam^2 g^2 + 4 lam g))/2``."""
    const = rho * rho - 0.5 * lam.sum()

    def phi(g):
        return const * g - lam.size + 0.5 * np.sqrt(lam * lam * g * g + 4.0 * lam * g).sum()

    hi = lam.size / (rho * rho)
    while phi(hi) < 0.0:
        hi *= 2.0
    return brentq(phi, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def shrink(lam, gamma):
    """Precision eigenvalues ``gamma (1 - 2 / (1 + sqrt(1 + 4 / (lam gamma))))``; ``gamma`` where ``lam = 0``."""
    out = np.full(lam.shape, float(gamma))
    pos = lam > 0.0
    out[pos] = gamma * (1.0 - 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / (lam[pos] * gamma))))
    return out


def shrinkage(cov, rho):
    """Reference robust precision matrix and its optimal objective value."""
    lam, V = clean_spectrum(cov)
    gamma = multiplier(lam, rho)
    x = shrink(lam, gamma)
    pos = lam > 0.0
    objective = (-np.log(x).sum() + gamma * (rho * rho - lam.sum())
                 + gamma * gamma * np.sum(lam[pos] / (gamma - x[pos])))
    return (V * x) @ V.T, float(objective)


def covariance(rows, divisor):
    """Sample mean and covariance around it with an explicit divisor."""
    mean = rows.mean(axis=0)
    resid = rows - mean
    return mean, resid.T @ resid / divisor


def validation_nll(precision, train_mean, validation_rows):
    """Held-out Gaussian NLL ``-log det X + <S_val, X>`` around the training mean."""
    resid = np.atleast_2d(validation_rows) - train_mean
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0.0:
        return np.inf
    return float(-logdet + np.sum(resid.T @ resid / resid.shape[0] * precision))


def stein_loss(precision, sigma):
    """Stein's loss ``-log det(X S) + <X, S> - p``."""
    sign, logdet = np.linalg.slogdet(precision @ sigma)
    if sign <= 0.0:
        return np.inf
    return float(-logdet + np.sum(precision * sigma) - sigma.shape[0])


def robust_objective(precision, cov, rho):
    """Worst-case log-loss of a precision matrix over the Wasserstein ball.

    ``-log det X + min_{g > lambda_max(X)} g (rho^2 - tr S) + g^2 <(g I - X)^{-1}, S>``;
    the inner function is convex in ``g`` and its derivative changes sign once.
    """
    x, U = np.linalg.eigh(precision)
    if x[0] <= 0.0:
        return np.inf
    s = np.einsum("ij,ik,kj->j", U, cov, U)
    s[s < RANK_RTOL * s.max()] = 0.0  # S is PSD: roundoff below the rank cut is zero
    base = rho * rho - np.trace(cov)

    def inner(g):
        return g * base + g * g * np.sum(s / (g - x))

    def slope(g):
        return base + np.sum(s * g * (g - 2.0 * x) / (g - x) ** 2)

    lo = x[-1] * (1.0 + 1e-12)
    if slope(lo) >= 0.0:
        return float(-np.log(x).sum() + inner(lo))
    hi = 2.0 * lo
    while slope(hi) <= 0.0:
        hi *= 2.0
    g = brentq(slope, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return float(-np.log(x).sum() + inner(g))


def min_variance_weights(precision):
    """``X 1 / (1' X 1)``."""
    t = precision.sum(axis=1)
    return t / t.sum()
