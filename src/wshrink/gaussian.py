"""Symmetric-matrix primitives and the geometry of Gaussian distributions.

Everything downstream (shrinkage, the sparsity-constrained solver, worst-case
distributions) is built on the operations here: exact symmetrization, spectral
decomposition with a deterministic sign convention, PSD square roots, the
covariance metric induced by the type-2 Wasserstein distance, and the
Kullback-Leibler divergence with proper handling of degenerate covariances.

It also holds the package's one PSD policy, ``psd_spectrum``: every decision
that a spectrum is PSD, or that a matrix is rank deficient, goes through it.
Its tolerances are relative to the largest eigenvalue, so the decisions are
unchanged when a matrix is scaled by any positive factor.
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

    The upper triangle is authoritative: the returned array mirrors it so that
    ``out[i, j] == out[j, i]`` holds exactly.  Raises ``ValueError`` on
    non-square, non-finite, or asymmetric (beyond ``rtol``, scale-relative)
    input.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    if np.abs(M - M.T).max() > rtol * float(np.abs(M).max()):
        raise ValueError(f"{name} is not symmetric within tolerance {rtol:g}")
    return _mirror_upper(M)


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of a square matrix: its upper triangle, mirrored."""
    return np.triu(M) + np.triu(M, 1).T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending.

    Eigenvector signs are fixed by making each column's largest-magnitude
    component positive, so repeated decompositions of the same matrix agree.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.T


def spectral_decompose(matrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix with a deterministic sign convention."""
    M = as_symmetric(matrix)
    w, V = np.linalg.eigh(M)
    anchor = np.abs(V).argmax(axis=0)
    signs = np.sign(V[anchor, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    return SpectralDecomposition(eigenvalues=w, eigenvectors=V * signs)


def sqrtm_psd(matrix, name: str = "matrix") -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The spectrum goes through ``psd_spectrum``: indefinite input is rejected,
    and eigenvalues below the rank cut, roundoff included, count as zero so
    rank-deficient covariances are handled uniformly.
    """
    dec = spectral_decompose(matrix)
    w = psd_spectrum(dec.eigenvalues, name)
    V = dec.eigenvectors
    return as_symmetric((V * np.sqrt(w)) @ V.T, rtol=1.0)


@dataclass(frozen=True)
class GaussianModel:
    """Normal distribution with a possibly rank-deficient covariance.

    The covariance must be symmetric and pass ``psd_spectrum``; roundoff
    negatives are clamped to zero on construction.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        if not np.isfinite(mean).all():
            raise ValueError("mean contains non-finite entries")
        cov = as_symmetric(self.covariance, name="covariance")
        if cov.shape[0] != mean.size:
            raise ValueError("mean and covariance dimensions differ")
        lam, V = np.linalg.eigh(cov)  # cov is validated: no second as_symmetric pass
        w = psd_spectrum(lam, "covariance")
        if lam[0] < 0.0:
            cov = _mirror_upper((V * w) @ V.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _check_same_dim(p1: GaussianModel, p2: GaussianModel):
    if p1.dim != p2.dim:
        raise ValueError(f"dimension mismatch: {p1.dim} vs {p2.dim}")


def induced_metric_V(S1, S2) -> float:
    """Wasserstein-induced metric between PSD matrices.

    ``V(S1, S2) = sqrt(tr S1 + tr S2 - 2 tr sqrt(sqrt(S2) S1 sqrt(S2)))``;
    this equals the Gaussian Wasserstein distance at equal means.  Inputs that
    fail ``psd_spectrum`` are rejected (by ``sqrtm_psd``).

    Evaluated through the equivalent orthogonal-Procrustes form
    ``min_U || sqrt(S1) - sqrt(S2) U ||_F``: computing a norm of a difference
    instead of a difference of traces keeps near-zero distances accurate to
    machine precision instead of its square root.
    """
    A = as_symmetric(S1, name="S1")
    B = as_symmetric(S2, name="S2")
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    ra = sqrtm_psd(A, "S1")
    rb = sqrtm_psd(B, "S2")
    W, _, Zt = np.linalg.svd(rb @ ra)
    return float(np.linalg.norm(ra - rb @ (W @ Zt)))


def wasserstein_gaussian(p1: GaussianModel, p2: GaussianModel) -> float:
    """Type-2 Wasserstein distance between two normal distributions."""
    _check_same_dim(p1, p2)
    shift = float(np.sum((p1.mean - p2.mean) ** 2))
    vsq = induced_metric_V(p1.covariance, p2.covariance) ** 2
    return float(np.sqrt(max(shift + vsq, 0.0)))


def kl_divergence(p1: GaussianModel, p2: GaussianModel) -> float:
    """Kullback-Leibler divergence D(P1 || P2); ``inf`` when P1 is not
    absolutely continuous with respect to P2.

    Both covariances nonsingular gives the closed form.  If P2 is degenerate,
    the divergence is computed on P2's support after checking that P1 puts no
    mass (covariance or mean shift) outside it; any mass outside, or a P1
    covariance that is singular on that support, yields ``inf``.
    """
    _check_same_dim(p1, p2)
    S1, S2 = p1.covariance, p2.covariance
    dmean = p2.mean - p1.mean

    dec2 = spectral_decompose(S2)
    w2 = psd_spectrum(dec2.eigenvalues, "P2 covariance")
    keep = w2 > 0.0

    if not keep.all():
        E0 = dec2.eigenvectors[:, ~keep]
        leak_tol = 1e-10 * max(float(np.trace(S1)), float(np.trace(S2)))
        mass_outside = float(np.abs(E0.T @ S1 @ E0).max(initial=0.0))
        mean_outside = float(np.linalg.norm(E0.T @ dmean))
        if mass_outside > leak_tol or mean_outside > np.sqrt(leak_tol):
            return float("inf")

    E = dec2.eigenvectors[:, keep]
    k = int(keep.sum())
    if k == 0:
        return 0.0
    d2 = w2[keep]
    A = as_symmetric(E.T @ S1 @ E, rtol=1.0)
    wA = psd_spectrum(np.linalg.eigvalsh(A), "P1 covariance on the support of P2")
    if wA[0] == 0.0:
        return float("inf")
    dm = E.T @ dmean
    quad = float(np.sum(dm * dm / d2))
    trace_term = float(np.sum((A / d2[:, None]).diagonal()))
    logdet1 = float(np.log(wA).sum())
    logdet2 = float(np.log(d2).sum())
    val = 0.5 * (quad + trace_term - k - logdet1 + logdet2)
    return max(val, 0.0)
