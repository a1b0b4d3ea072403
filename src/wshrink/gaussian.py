"""Symmetric-matrix primitives and the Wasserstein metric on covariances.

Everything downstream (shrinkage, the sparsity-constrained solver, worst-case
distributions) is built on the operations here: exact symmetrization, spectral
decomposition with a deterministic sign convention, PSD square roots, and the
covariance metric induced by the type-2 Wasserstein distance between
zero-mean normal distributions.

It also holds the package's one PSD policy, ``psd_spectrum``: every decision
that a spectrum is PSD, or that a matrix is rank deficient, goes through it,
or applies its cut itself where the matrix must be positive definite
(``_positive_definite``, so an indefinite ``X`` is not positive definite
rather than not PSD).  Its tolerances are relative to the largest eigenvalue,
so the decisions are unchanged when a matrix is scaled by any positive
factor.  Three decisions stay with a factorization of an estimate instead:
the SQA solver's own trial points (``sqa._Workspace``, whose Cholesky factors
are its cone test), ``stein_loss``'s Cholesky factors and the sign of
``gaussian_validation_nll``'s ``slogdet``.

The reformulation objective, its gradient and the worst-case covariance
``S* = gamma^2 (gamma I - X)^-1 cov (gamma I - X)^-1`` are defined at a caller's
point ``(cov, X, gamma)`` with ``cov`` PSD and ``0 < X < gamma I``.  That domain
is decided here, once, by ``_cone_inputs``, with ``psd_spectrum``'s cut
``RANK_RTOL``: ``cov`` and ``X`` symmetric of one shape, ``cov`` PSD by
``psd_spectrum``, ``lambda_min(X) >= RANK_RTOL lambda_max(X) > 0``
(``_positive_definite``), and, where a multiplier is given, ``gamma`` finite,
positive and ``gamma - lambda_max(X) > RANK_RTOL max(gamma, lambda_max(X))``.
Every rule is relative, so scaling ``(cov, X, gamma)`` by ``c > 0`` changes no
decision.

A PSD matrix rebuilt from a nonnegative spectrum ``w`` is ``W @ W.T`` with
``W = V diag(sqrt(w))``: numpy forms a product of a factor with its own
transpose by BLAS ``syrk``, exactly symmetric and at half the flops, so
``as_symmetric`` mirrors only input that is not exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: eigenvalues below RANK_RTOL * lambda_max count as exactly zero (rank decisions)
RANK_RTOL = 1e-12
#: an eigenvalue below -PSD_TOL * lambda_max makes a matrix not PSD; above, it is roundoff
PSD_TOL = 1e-8


def psd_spectrum(eigenvalues, name: str = "spectrum") -> np.ndarray:
    """Validate the eigenvalues of a nominally PSD matrix and clean them.

    Raises ``ValueError`` on an empty or non-finite spectrum, or when an
    eigenvalue lies below ``-PSD_TOL * lambda_max``.  Returns a copy in which
    eigenvalues below ``RANK_RTOL * lambda_max`` (roundoff negatives included)
    are exact zeros, so the matrix is positive definite exactly when the
    smallest returned eigenvalue is positive.  ``name`` labels the matrix in
    error messages.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).reshape(-1)
    if lam.size == 0:
        raise ValueError(f"{name} has no eigenvalues")
    if not np.isfinite(lam).all():
        raise ValueError(f"{name} has non-finite eigenvalues")
    top = max(float(lam.max()), 0.0)
    if lam.min() < -PSD_TOL * top:
        raise ValueError(f"{name} is not PSD (min eigenvalue {lam.min():.3e})")
    return np.where(lam < RANK_RTOL * top, 0.0, lam)


def as_symmetric(matrix, rtol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix and return an exactly symmetric copy.

    Exactly symmetric input, such as a product of a factor with its own
    transpose, is returned as a plain copy.  Otherwise the upper triangle is
    authoritative: the returned array mirrors it so that ``out[i, j] ==
    out[j, i]`` holds exactly.  Raises ``ValueError`` on non-square,
    non-finite, or asymmetric (beyond ``rtol``, scale-relative) input.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    if np.array_equal(M, M.T):  # checked first: the tolerance test allocates p x p float temporaries
        return M.copy()
    if np.abs(M - M.T).max() > rtol * float(np.abs(M).max()):
        raise ValueError(f"{name} is not symmetric within tolerance {rtol:g}")
    return np.triu(M) + np.triu(M, 1).T


def _positive_definite(d) -> bool:
    """Whether ascending eigenvalues ``d`` are those of a positive definite matrix by the
    rank cut of ``psd_spectrum``: ``d[0] >= RANK_RTOL d[-1] > 0``, which indefinite ``d`` fail."""
    return bool(0.0 < d[0] >= RANK_RTOL * d[-1])


def _cone_inputs(cov, X, gamma=None):
    """``(S, X, d, U)`` for a caller's point of the domain in the module docstring, with
    ``S`` and ``X`` exactly symmetric copies and ``X = U diag(d) U^T`` (``d`` ascending).

    Checks, in this order, each raising ``ValueError``: ``cov`` and ``X`` symmetric
    (``as_symmetric``) of one shape; ``cov`` PSD (``psd_spectrum``); ``X`` positive
    definite (``_positive_definite``); and, unless ``gamma`` is None, ``gamma`` finite and
    positive and above ``lambda_max(X)`` by more than ``RANK_RTOL`` relative.
    """
    S, Xs = as_symmetric(cov, name="cov"), as_symmetric(X, name="X")
    if S.shape != Xs.shape:
        raise ValueError("cov and X dimensions differ")
    psd_spectrum(np.linalg.eigvalsh(S), "cov")
    d, U = np.linalg.eigh(Xs)
    if not _positive_definite(d):
        raise ValueError("X must be positive definite")
    if gamma is not None and not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    if gamma is not None and gamma - d[-1] <= RANK_RTOL * max(gamma, float(d[-1])):
        raise ValueError("gamma I - X must be positive definite")
    return S, Xs, d, U


def _check_int(value, name: str) -> int:
    """``value`` as an ``int``: a Python or NumPy integer, not a ``bool``.  Raises
    ``ValueError`` naming anything else, so a count, an index or a seed is never truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending.

    Eigenvector signs are fixed by making each column's largest-magnitude
    component positive, so repeated decompositions of the same matrix agree.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(matrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix with a deterministic sign convention."""
    w, V = np.linalg.eigh(as_symmetric(matrix))
    anchor = np.abs(V).argmax(axis=0)
    signs = np.sign(V[anchor, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    V *= signs
    return SpectralDecomposition(eigenvalues=w, eigenvectors=V)


def sqrtm_psd(matrix, name: str = "matrix") -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The input goes through ``as_symmetric`` and its spectrum through
    ``psd_spectrum``, each once, with ``name`` in their errors: indefinite
    input is rejected, and eigenvalues below the rank cut, roundoff included,
    count as zero so rank-deficient covariances are handled uniformly.  The
    root ``W @ W.T`` does not depend on the eigenvector signs, so they are
    left unnormalized.
    """
    w, V = np.linalg.eigh(as_symmetric(matrix, name=name))
    W = V * np.sqrt(np.sqrt(psd_spectrum(w, name)))
    return W @ W.T


def induced_metric_V(S1, S2) -> float:
    """Wasserstein-induced metric between PSD matrices.

    ``V(S1, S2) = sqrt(tr S1 + tr S2 - 2 tr sqrt(sqrt(S2) S1 sqrt(S2)))``;
    this equals the Gaussian Wasserstein distance at equal means.  Each input
    is validated and decomposed once, by ``sqrtm_psd``.

    Evaluated through the equivalent orthogonal-Procrustes form
    ``min_U || sqrt(S1) - sqrt(S2) U ||_F``: computing a norm of a difference
    instead of a difference of traces keeps near-zero distances accurate to
    machine precision instead of its square root.

    The worst-case functions of ``worst_case`` do not call it: they read the closed form
    of their transport map (see that module's docstring), which also avoids this form's
    cancellation where the two matrices are close.  The tests use it as their reference.
    """
    ra = sqrtm_psd(S1, "S1")
    rb = sqrtm_psd(S2, "S2")
    if ra.shape != rb.shape:
        raise ValueError("dimension mismatch")
    W, _, Zt = np.linalg.svd(rb @ ra)
    return float(np.linalg.norm(ra - rb @ (W @ Zt)))
