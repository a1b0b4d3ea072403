"""Quasi-closed-form Wasserstein shrinkage estimator for the unconstrained cone.

Given a sample covariance with spectral decomposition ``sum_i lam_i v_i v_i^T``
and an ambiguity radius ``rho > 0``, the robust precision estimator shares the
sample eigenvectors and has eigenvalues ``x_i = map(lam_i, gamma*)``.  The dual
multiplier ``gamma*`` is the unique positive root of the strictly increasing
residual ``phi(g) = rho^2 g - n0 - sum_{lam > 0} map(lam, g) / g``, with ``n0``
zero eigenvalues (see ``_kernels``).  This module provides the convex
objective shared with the iterative solver, an a priori root bracket, the root
solve, the eigenvalue map, and the assembled estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from . import _kernels
from .gaussian import RANK_RTOL, as_symmetric, psd_spectrum, spectral_decompose

#: default stopping tolerance on the scalar residual phi(gamma)
DEFAULT_GAMMA_TOL = 1e-12


@dataclass(frozen=True)
class BisectionBracket:
    """Validated root bracket for the dual-multiplier equation.

    ``residual`` is the scalar function phi whose unique positive root is the
    multiplier; after validation ``residual(gamma_min) <= 0 <= residual(gamma_max)``.
    """

    gamma_min: float
    gamma_max: float
    residual: Callable[[float], float]


@dataclass(frozen=True)
class ShrinkageSolution:
    """Estimator, dual multiplier, and solve metadata.

    ``shrunk_eigenvalues`` aligns with the ascending eigenvalues of the input
    covariance (for the analytical path) or of the returned precision matrix
    (for the iterative solver).
    """

    precision: np.ndarray
    dual_multiplier: float
    shrunk_eigenvalues: np.ndarray
    objective: float
    radius: float
    iterations: int


def _check_rho(rho: float):
    if not np.isfinite(rho) or rho <= 0.0:
        raise ValueError(f"radius must be a positive real, got {rho!r}")


def gamma_bracket(eigenvalues, rho: float) -> BisectionBracket:
    """A priori bracket containing the root of the multiplier equation.

    The lower endpoint is the positive zero of an upper envelope of phi and the
    upper endpoint is ``min(p / rho^2, sqrt(sum 1/lam_i) / rho)``, with the
    harmonic term dropped whenever some eigenvalue vanishes.
    """
    _check_rho(rho)
    return _bracket(psd_spectrum(eigenvalues), rho)


def _bracket(lam: np.ndarray, rho: float) -> BisectionBracket:
    """``gamma_bracket`` for a spectrum already cleaned by ``psd_spectrum``."""
    p = lam.size
    lmax = float(lam.max())
    rho2 = rho * rho
    # rationalized form of (p^2 lmax + 2 p rho^2 - p sqrt(p^2 lmax^2 + 4 p rho^2 lmax)) / (2 rho^4),
    # immune to cancellation for small rho
    gmin = 2.0 * p / (p * lmax + 2.0 * rho2 + np.sqrt((p * lmax) ** 2 + 4.0 * p * rho2 * lmax))
    gmax = p / rho2
    if lam.min() > 0.0:
        gmax = min(gmax, float(np.sqrt(np.sum(1.0 / lam))) / rho)

    pos = lam[lam > 0.0]
    residual = partial(_kernels.gamma_residual, pos=pos, n_zero=p - pos.size, rho=rho)

    for _ in range(64):
        if residual(gmin) <= 0.0 or gmin <= 0.0:
            break
        gmin *= 0.5
    for _ in range(64):
        if residual(gmax) >= 0.0:
            break
        gmax *= 2.0
    if residual(gmin) > 0.0 or residual(gmax) < 0.0:
        raise RuntimeError("internal error: failed to bracket the multiplier root")
    return BisectionBracket(gamma_min=float(gmin), gamma_max=float(gmax), residual=residual)


def _solve_gamma_info(lam: np.ndarray, rho: float, tol: float = DEFAULT_GAMMA_TOL):
    """Root solve for a spectrum already cleaned by ``psd_spectrum`` and a checked
    radius; returns ``(gamma, iterations, residual)``."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    bracket = _bracket(lam, rho)
    return _kernels.solve_gamma_bracketed(lam, rho, bracket.gamma_min, bracket.gamma_max, tol)


def solve_gamma(eigenvalues, rho: float, tol: float = DEFAULT_GAMMA_TOL) -> float:
    """Unique positive root of the dual-multiplier equation."""
    _check_rho(rho)
    gamma, _, _ = _solve_gamma_info(psd_spectrum(eigenvalues), rho, tol)
    return gamma


def eigenvalue_map(lam, gamma_star: float):
    """Shrunk precision eigenvalue(s) for sample eigenvalue(s) ``lam``.

    Scalar in, scalar out; array in, array out.  ``lam = 0`` maps to
    ``gamma_star`` exactly (explicit branch, no division by zero).
    """
    if gamma_star <= 0.0:
        raise ValueError("gamma_star must be positive")
    arr = np.asarray(lam, dtype=np.float64)
    out = _kernels.shrink_eigenvalues(np.atleast_1d(arr).ravel(), gamma_star)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _objective_at(cov, X, gamma: float, rho: float) -> float | None:
    """Objective of the convex reformulation, or None when ``(X, gamma)`` is
    outside the cone ``0 < X < gamma I``; the inputs are taken as validated."""
    p = X.shape[0]
    try:
        LX = np.linalg.cholesky(X)
        LA = np.linalg.cholesky(gamma * np.eye(p) - X)
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * float(np.log(np.diag(LX)).sum())
    trace_term = float(np.trace(scipy.linalg.cho_solve((LA, True), cov)))
    return -logdet + gamma * (rho * rho - float(np.trace(cov))) + gamma * gamma * trace_term


def reformulation_objective(cov, X, gamma: float, rho: float) -> float:
    """Objective of the convex reformulation at a feasible point.

    ``f(X, gamma) = -log det X + gamma (rho^2 - tr cov)
    + gamma^2 <(gamma I - X)^{-1}, cov>`` for ``0 < X < gamma I``.
    Raises ``ValueError`` outside that domain.
    """
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    Xs = as_symmetric(X, name="X")
    if S.shape != Xs.shape:
        raise ValueError("cov and X dimensions differ")
    e = np.linalg.eigvalsh(Xs)
    if e[0] <= 0.0:
        raise ValueError("X must be positive definite")
    if gamma - e[-1] <= RANK_RTOL * max(abs(gamma), float(e[-1])):
        raise ValueError("gamma I - X must be positive definite")
    value = _objective_at(S, Xs, gamma, rho)
    if value is None:
        raise ValueError("X and gamma I - X must be numerically positive definite")
    return value


def wasserstein_shrinkage(cov, rho: float, tol: float = DEFAULT_GAMMA_TOL) -> ShrinkageSolution:
    """Robust precision estimator for a PSD sample covariance.

    The result is positive definite even when ``cov`` is rank deficient and
    commutes with ``cov`` (same eigenvector frame).  ``rho = 0`` is rejected:
    the nominal problem has no finite solution for rank-deficient ``cov``, and
    the plain inverse should be used explicitly otherwise.
    """
    _check_rho(rho)
    dec = spectral_decompose(cov)
    lam = psd_spectrum(dec.eigenvalues, "cov")
    gamma, iters, _ = _solve_gamma_info(lam, rho, tol)
    x = _kernels.shrink_eigenvalues(lam, gamma)
    V = dec.eigenvectors
    precision = as_symmetric((V * x) @ V.T, rtol=1.0)

    # objective evaluated in the shared eigenbasis; zero sample eigenvalues
    # contribute nothing to the trace term (their limit value)
    pos = lam > 0.0
    trace_term = float(np.sum(lam[pos] / (gamma - x[pos]))) if pos.any() else 0.0
    objective = float(-np.log(x).sum() + gamma * (rho * rho - lam.sum()) + gamma * gamma * trace_term)

    return ShrinkageSolution(
        precision=precision,
        dual_multiplier=float(gamma),
        shrunk_eigenvalues=x,
        objective=objective,
        radius=float(rho),
        iterations=iters,
    )
