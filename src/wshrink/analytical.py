"""Quasi-closed-form Wasserstein shrinkage estimator for the unconstrained cone.

Given a sample covariance with spectral decomposition ``sum_i lam_i v_i v_i^T``
and an ambiguity radius ``rho > 0``, the robust precision estimator shares the
sample eigenvectors and has eigenvalues ``x_i = map(lam_i, gamma*)``.  The dual
multiplier ``gamma*`` is the unique positive root of the strictly increasing
residual ``phi(g) = rho^2 g - n0 - sum_{lam > 0} map(lam, g) / g``, with ``n0``
zero eigenvalues; it is concave, so Newton climbs to it from within the
a priori bracket ``gamma_bracket``, which needs no repair (see ``_kernels``).
This module provides the convex objective in its eigenbasis form and the
multiplier that minimizes it at a fixed ``X`` (``_multiplier_at``), shared with
the worst case and the SQA solver, the bracket, the root solve, the eigenvalue
map, the assembled estimator and its radius path.  The objective's Cholesky form,
which needs no eigenbasis, is ``sqa.reformulation_objective``; this module needs
NumPy only.

The estimator takes a covariance or ``SampleMoments`` (``_spectrum`` alone
picks the decomposition) and is held in factored form, a
``FactoredPrecision`` of orthonormal eigenvectors ``V``, their eigenvalues
``x`` and a complement ``c``: ``X = V diag(x) V^T + c (I - V V^T)``.  From
the covariance, ``V`` holds all p sample eigenvectors and ``c = 0``.  Moments
with fewer rows than columns never form the covariance: the n x n Gram
matrix of their residuals is decomposed, ``V`` is the p x r range of the
data, and every zero sample eigenvalue maps to ``c = gamma*``.  A consumer
that needs only ``X 1`` or another product gets it from the factors; ``np.asarray``
of the factors, or a solution's ``.precision``, forms the dense matrix on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .evaluation import SampleMoments, _covariance_of
from .gaussian import psd_spectrum, spectral_decompose

#: stopping tolerance on the scalar residual phi(gamma)
GAMMA_TOL = 1e-12


@dataclass(frozen=True)
class FactoredPrecision:
    """The precision matrix ``V diag(x) V^T + c (I - V V^T)`` held as its eigenpairs.

    ``eigenvectors`` ``V`` is p x r with orthonormal columns and
    ``eigenvalues`` ``x`` their r eigenvalues; ``complement`` ``c`` is the
    eigenvalue on the orthogonal complement of ``V``'s columns, 0 when ``V``
    is square.  ``np.asarray`` forms the dense matrix, exactly symmetric (see
    ``gaussian``): ``W @ W.T`` with ``W = V diag(sqrt(x))`` when ``c = 0``,
    else ``c I - W @ W.T`` with ``W = V diag(sqrt(c - x))``, for ``x <= c``
    (an excess of a few ulps, from rounding, counts as equal).  A consumer
    that needs only a product, such as ``X 1 = c 1 + V ((x - c) * V^T 1)``,
    forms it from the factors without the p x p matrix.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    complement: float = 0.0

    def __array__(self, dtype=None, copy=None):
        c = self.complement
        if not c:
            W = self.eigenvectors * np.sqrt(self.eigenvalues)
            dense = W @ W.T
        else:
            W = self.eigenvectors * np.sqrt(np.maximum(c - self.eigenvalues, 0.0))
            dense = np.negative(W @ W.T)
            dense.flat[:: dense.shape[0] + 1] += c
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


def gamma_bracket(lam: np.ndarray, radii: np.ndarray):
    """A priori bracket ``(gamma_min, gamma_max)`` of the multiplier equation, one entry
    per radius, for a cleaned spectrum ``lam`` and positive ``radii``.

    The lower end is the positive zero of an upper envelope of phi; the upper end is
    ``min(p / rho^2, sqrt(sum 1/lam_i) / rho)``, with the harmonic term dropped
    whenever some eigenvalue vanishes.  ``_path`` starts ``monotone_newton`` from it.
    """
    p, lmax = lam.size, float(lam.max())
    rho2 = radii * radii
    # rationalized form of (p^2 lmax + 2 p rho^2 - p sqrt(p^2 lmax^2 + 4 p rho^2 lmax)) / (2 rho^4),
    # immune to cancellation for small rho
    gmin = 2.0 * p / (p * lmax + 2.0 * rho2 + np.sqrt((p * lmax) ** 2 + 4.0 * p * rho2 * lmax))
    gmax = p / rho2
    if lam.min() > 0.0:
        gmax = np.minimum(gmax, np.sqrt(np.sum(1.0 / lam)) / radii)
    return gmin, gmax


def eigenvalue_map(lam, gamma_star: float):
    """Shrunk precision eigenvalue(s) for sample eigenvalue(s) ``lam``.

    Scalar in, scalar out; array in, array out.  ``lam = 0`` maps to
    ``gamma_star`` exactly (explicit branch, no division by zero).  A negative or
    non-finite ``lam`` raises ``ValueError`` naming it.
    """
    if not np.isfinite(gamma_star) or gamma_star <= 0.0:
        raise ValueError(f"gamma_star must be finite and positive, got {gamma_star!r}")
    arr = np.asarray(lam, dtype=np.float64)
    bad = ~np.isfinite(arr) | (arr < 0.0)
    if bad.any():
        raise ValueError(f"sample eigenvalues must be finite and nonnegative, got {float(arr[bad][0])!r}")
    out = _kernels.shrink_eigenvalues(np.atleast_1d(arr).ravel(), gamma_star)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _eigenbasis_objective(d, m, gamma: float, rho: float) -> float:
    """``f(X, gamma) = -sum log d + gamma (rho^2 + sum_{m > 0} m d / (gamma - d))``, the
    reformulation objective in an eigenbasis ``U`` of ``X = U diag(d) U^T``, with
    ``m = diag(U^T cov U)``: the paper's ``-sum log d + gamma (rho^2 - tr cov) + gamma^2
    sum m / (gamma - d)``, since ``gamma / (gamma - d) - 1 = d / (gamma - d)``, with no terms
    that cancel.  Terms with ``m = 0`` take their limit value 0, also where ``d`` reaches ``gamma``."""
    pos = m > 0.0
    return float(-np.log(d).sum() + gamma * (rho * rho + np.sum(m[pos] * d[pos] / (gamma - d[pos]))))


def _multiplier_at(S, d, U, rho: float):
    """``(gamma, f(X, gamma))`` at ``gamma = argmin f(X, .)`` on ``[lambda_max(X), inf)``,
    for ``X = U diag(d) U^T`` (``d`` ascending, positive) and a validated PSD ``S``, a
    point of the domain that the ``gaussian`` module docstring states: ``extremal_gamma``
    validates it by ``gaussian._cone_inputs``, and ``sqa_solve`` passes its own iterate
    or a previous solution that ``gaussian._positive_definite`` accepts.

    With ``m = diag(U^T S U)``, ``f = -sum log d + gamma (rho^2 + sum m d / (gamma - d))``
    (``_eigenbasis_objective``), whose slope over ``rho^2``,
    ``1 - sum m d^2 / (rho^2 (gamma - d)^2)``,
    is concave and increasing.  Each term alone puts its root beyond ``d_a (1 + sqrt(m_a)
    / rho)``; every gap at its smallest puts it below ``d_max + sqrt(sum m d^2) / rho``.
    ``m`` is cleaned by ``psd_spectrum``, and its terms with ``m_a = 0`` (below the rank
    cut) vanish; if the slope is then nonnegative at ``d_max``, that boundary is the
    minimum, as the analytical multiplier is on rank-deficient input, and ``f`` is its
    limit there.  It gives the worst case's multiplier
    (``worst_case.extremal_gamma``) and, in ``sqa.sqa_solve``, the multiplier of a previous
    solution's start and of a ridged solve's answer.
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


def wasserstein_shrinkage(source, rho: float) -> ShrinkageSolution:
    """Robust precision estimator for a PSD sample covariance or its ``SampleMoments``
    (on the Gram route when they have fewer rows than columns; see ``_spectrum``).

    The result is positive definite even when the covariance is rank
    deficient and commutes with it (same eigenvector frame).  ``rho = 0`` is
    rejected: the nominal problem has no finite solution for a rank-deficient
    covariance, and the plain inverse should be used explicitly otherwise.
    """
    _check_rho(rho)
    return next(wasserstein_shrinkage_path(source, [rho]))


def wasserstein_shrinkage_path(source, radii):
    """Yield ``wasserstein_shrinkage(source, rho)`` for each of ``radii``, from one
    decomposition of the covariance, or of the Gram matrix of ``SampleMoments`` with
    fewer rows than columns, and one multiplier solve; an invalid radius raises when
    reached.  Each ``estimate`` is a ``FactoredPrecision``: no radius forms a p x p
    matrix until its ``.precision`` (or ``np.asarray(solution.estimate)``) is requested.
    """
    lam, V = _spectrum(source)
    yield from _path(V, lam, radii)


def _spectrum(source):
    """``(lam, V)``: the cleaned, ascending length-p spectrum of a covariance or of
    ``SampleMoments``, and the eigenvectors of its last ``V.shape[1]`` entries.

    Moments with fewer rows than columns decompose ``R R^T = W diag(mu) W^T``,
    ``R = residuals / sqrt(divisor)``, which shares its nonzero eigenvalues with
    ``cov = R^T R``; ``V = R^T W / sqrt(mu)`` over those that cleaning
    ``[0] * (p - n) + mu`` leaves positive.  Only ``R R^T`` is validated: data
    whose products overflow raise ``ValueError`` there.  Any other input
    decomposes the covariance, and ``V`` holds all p eigenvectors.
    """
    if isinstance(source, SampleMoments) and source.residuals.shape[0] < source.residuals.shape[1]:
        R = source.residuals / np.sqrt(source.divisor)
        n, p = R.shape
        dec = spectral_decompose(R @ R.T)
        lam = psd_spectrum(np.concatenate([np.zeros(p - n), dec.eigenvalues]), "cov")
        r = int(np.count_nonzero(lam))
        return lam, (R.T @ dec.eigenvectors[:, n - r :]) / np.sqrt(lam[p - r :])
    dec = spectral_decompose(_covariance_of(source))
    return psd_spectrum(dec.eigenvalues, "cov"), dec.eigenvectors


def _path(V, lam, radii):
    """Solutions at ``radii`` from a cleaned spectrum ``lam`` whose last ``V.shape[1]``
    entries are the eigenvalues of ``V``'s columns (all p of them, or the nonzero ones),
    from one multiplier solve for all radii.  The one route from ``_spectrum`` to the
    shrinkage solution: the radius paths, ``extremal_for_optimal`` and the SQA warm start."""
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    # an invalid radius is solved at 1.0 and raises when reached
    checked = np.where(np.isfinite(radii) & (radii > 0.0), radii, 1.0)
    pos, rho2 = lam[lam > 0.0], checked * checked
    gammas, iters, _ = _kernels.monotone_newton(
        lambda g, idx: _kernels.gamma_residual_slope(g, pos, lam.size - pos.size, rho2[idx]),
        *gamma_bracket(lam, checked), GAMMA_TOL)
    for rho, gamma, it in zip(radii, gammas, iters):
        _check_rho(rho)
        yield _solution(V, lam, float(gamma), float(rho), int(it))


def _solution(V, lam, gamma: float, rho: float, iters: int) -> ShrinkageSolution:
    """The estimator at a solved radius, in factored form: ``V`` spans all of R^p
    (complement 0) or only the range of ``cov`` (complement ``gamma``)."""
    x = _kernels.shrink_eigenvalues(lam, gamma)
    objective = _eigenbasis_objective(x, lam, gamma, rho)
    r = V.shape[1]
    complement = 0.0 if r == lam.size else gamma
    return ShrinkageSolution(
        estimate=FactoredPrecision(eigenvectors=V, eigenvalues=x[lam.size - r :], complement=complement),
        dual_multiplier=gamma,
        shrunk_eigenvalues=x,
        objective=objective,
        radius=rho,
        iterations=iters,
    )
