"""Symmetric-matrix primitives and the Wasserstein metric on covariances.

Everything downstream (shrinkage, the sparsity-constrained solver, worst-case
distributions) is built on the operations here: exact symmetrization, spectral
decomposition with a deterministic sign convention, PSD square roots, and the
covariance metric induced by the type-2 Wasserstein distance between
zero-mean normal distributions.

It also holds the package's one PSD policy, ``psd_spectrum``: every decision
that a spectrum is PSD, or that a matrix is rank deficient, goes through it.
Its tolerances are relative to the largest eigenvalue, so the decisions are
unchanged when a matrix is scaled by any positive factor.

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
    """
    ra = sqrtm_psd(S1, "S1")
    rb = sqrtm_psd(S2, "S2")
    if ra.shape != rb.shape:
        raise ValueError("dimension mismatch")
    W, _, Zt = np.linalg.svd(rb @ ra)
    return float(np.linalg.norm(ra - rb @ (W @ Zt)))
