"""Quasi-closed-form Wasserstein shrinkage estimator for the unconstrained cone.

Given a sample covariance with spectral decomposition ``sum_i lam_i v_i v_i^T``
and an ambiguity radius ``rho > 0``, the robust precision estimator shares the
sample eigenvectors and has eigenvalues ``x_i = map(lam_i, gamma*)``.  The dual
multiplier ``gamma*`` is the unique positive root of the strictly increasing
residual ``phi(g) = rho^2 g - n0 - sum_{lam > 0} map(lam, g) / g``, with ``n0``
zero eigenvalues; it is concave, so Newton climbs to it from within the
a priori bracket (see ``_kernels``).  This module provides the convex
objective shared with the iterative solver, the bracket, the root solve, the
eigenvalue map, the assembled estimator and its radius path.

The estimator is held in factored form, a ``FactoredPrecision`` of the
sample eigenvectors ``V`` and the map ``x``, so that ``X = V diag(x) V^T``.
A consumer that needs only ``X 1`` or another product gets it in O(p^2) from
the factors; ``np.asarray`` of the factors, or a solution's ``.precision``,
forms the dense matrix on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.linalg

from . import _kernels
from .errors import EstimationError
from .gaussian import RANK_RTOL, as_symmetric, psd_spectrum, spectral_decompose

#: stopping tolerance on the scalar residual phi(gamma)
GAMMA_TOL = 1e-12
#: halvings of ``gamma_min`` and doublings of ``gamma_max`` that may repair a rounded bracket
BRACKET_STEPS = 64


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
class FactoredPrecision:
    """The precision matrix ``V diag(x) V^T`` held as its eigenpairs.

    ``np.asarray`` of it forms the dense matrix as ``W @ W.T`` with
    ``W = V diag(sqrt(x))``, exactly symmetric (see ``gaussian``); a consumer
    that needs only a product, such as ``X 1 = V (x * V^T 1)``, forms it from
    the factors without the p x p matrix.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __array__(self, dtype=None, copy=None):
        W = self.eigenvectors * np.sqrt(self.eigenvalues)
        dense = W @ W.T
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass(frozen=True)
class ShrinkageSolution:
    """Estimator, dual multiplier, and solve metadata.

    ``estimate`` is the precision as its solver produces it: a
    ``FactoredPrecision`` from the analytical path, a dense matrix from the
    iterative solver.  ``precision`` is the dense matrix, formed from the
    factors on first request.  ``shrunk_eigenvalues`` aligns with the
    ascending eigenvalues of the input covariance (for the analytical path)
    or of the returned precision matrix (for the iterative solver).
    """

    estimate: np.ndarray | FactoredPrecision
    dual_multiplier: float
    shrunk_eigenvalues: np.ndarray
    objective: float
    radius: float
    iterations: int

    @cached_property
    def precision(self) -> np.ndarray:
        return np.asarray(self.estimate)


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
    lam = psd_spectrum(eigenvalues)
    gmin, gmax = (float(b[0]) for b in _gamma_bounds(lam, np.array([rho])))
    pos = lam[lam > 0.0]
    residual = partial(_kernels.gamma_residual, pos=pos, n_zero=lam.size - pos.size, rho=rho)

    for _ in range(BRACKET_STEPS):
        if residual(gmin) <= 0.0 or gmin <= 0.0:
            break
        gmin *= 0.5
    for _ in range(BRACKET_STEPS):
        if residual(gmax) >= 0.0:
            break
        gmax *= 2.0
    if residual(gmin) > 0.0 or residual(gmax) < 0.0:
        raise EstimationError(f"failed to bracket the multiplier root in {BRACKET_STEPS} steps (rho={rho:g})")
    return BisectionBracket(gamma_min=gmin, gamma_max=gmax, residual=residual)


def _gamma_bounds(lam: np.ndarray, radii: np.ndarray):
    """``gamma_bracket``'s endpoints for each radius, before any repair."""
    p, lmax = lam.size, float(lam.max())
    rho2 = radii * radii
    # rationalized form of (p^2 lmax + 2 p rho^2 - p sqrt(p^2 lmax^2 + 4 p rho^2 lmax)) / (2 rho^4),
    # immune to cancellation for small rho
    gmin = 2.0 * p / (p * lmax + 2.0 * rho2 + np.sqrt((p * lmax) ** 2 + 4.0 * p * rho2 * lmax))
    gmax = p / rho2
    if lam.min() > 0.0:
        gmax = np.minimum(gmax, np.sqrt(np.sum(1.0 / lam)) / radii)
    return gmin, gmax


def _solve_gammas(lam: np.ndarray, radii: np.ndarray):
    """Multipliers of checked ``radii`` for a spectrum already cleaned by
    ``psd_spectrum``, in one kernel call; returns ``(gammas, iterations, residuals)``."""
    pos = lam[lam > 0.0]
    n_zero, rho2 = lam.size - pos.size, radii * radii
    return _kernels.monotone_newton(lambda g, idx: _kernels.gamma_residual_slope(g, pos, n_zero, rho2[idx]),
                                    *_gamma_bounds(lam, radii), GAMMA_TOL)


def eigenvalue_map(lam, gamma_star: float):
    """Shrunk precision eigenvalue(s) for sample eigenvalue(s) ``lam``.

    Scalar in, scalar out; array in, array out.  ``lam = 0`` maps to
    ``gamma_star`` exactly (explicit branch, no division by zero).
    """
    if not np.isfinite(gamma_star) or gamma_star <= 0.0:
        raise ValueError(f"gamma_star must be finite and positive, got {gamma_star!r}")
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


def wasserstein_shrinkage(cov, rho: float) -> ShrinkageSolution:
    """Robust precision estimator for a PSD sample covariance.

    The result is positive definite even when ``cov`` is rank deficient and
    commutes with ``cov`` (same eigenvector frame).  ``rho = 0`` is rejected:
    the nominal problem has no finite solution for rank-deficient ``cov``, and
    the plain inverse should be used explicitly otherwise.
    """
    _check_rho(rho)
    return next(wasserstein_shrinkage_path(cov, [rho]))


def wasserstein_shrinkage_path(cov, radii):
    """Yield ``wasserstein_shrinkage(cov, rho)`` for each of ``radii``, from one
    ``eigh`` and one multiplier solve; an invalid radius raises when reached.

    Each solution's ``estimate`` is a ``FactoredPrecision`` that shares the
    eigenvectors of ``cov``: no radius forms a p x p matrix until its
    ``.precision`` (or ``np.asarray(solution.estimate)``) is requested.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    dec = spectral_decompose(cov)
    lam = psd_spectrum(dec.eigenvalues, "cov")
    valid = np.isfinite(radii) & (radii > 0.0)  # an invalid radius is solved at 1.0 and raises when reached
    gammas, iters, _ = _solve_gammas(lam, np.where(valid, radii, 1.0))
    for rho, gamma, it in zip(radii, gammas, iters):
        _check_rho(rho)
        yield _solution(dec.eigenvectors, lam, float(gamma), float(rho), int(it))


def _solution(V, lam, gamma: float, rho: float, iters: int) -> ShrinkageSolution:
    """The estimator at a solved radius from the eigenpairs of ``cov``, in factored form."""
    x = _kernels.shrink_eigenvalues(lam, gamma)

    # objective evaluated in the shared eigenbasis; zero sample eigenvalues
    # contribute nothing to the trace term (their limit value)
    pos = lam > 0.0
    trace_term = float(np.sum(lam[pos] / (gamma - x[pos])))
    objective = float(-np.log(x).sum() + gamma * (rho * rho - lam.sum()) + gamma * gamma * trace_term)

    return ShrinkageSolution(
        estimate=FactoredPrecision(eigenvectors=V, eigenvalues=x),
        dual_multiplier=gamma,
        shrunk_eigenvalues=x,
        objective=objective,
        radius=rho,
        iterations=iters,
    )
