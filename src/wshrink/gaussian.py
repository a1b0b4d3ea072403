"""Symmetric-matrix primitives and the geometry of Gaussian distributions.

Everything downstream (shrinkage, the sparsity-constrained solver, worst-case
distributions) is built on the operations here: exact symmetrization, spectral
decomposition with a deterministic sign convention, PSD square roots, the
covariance metric induced by the type-2 Wasserstein distance, and the
Kullback-Leibler divergence with proper handling of degenerate covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: eigenvalues below RANK_RTOL * lambda_max are treated as exactly zero
RANK_RTOL = 1e-12
#: most-negative eigenvalue tolerated in a nominally PSD matrix before clamping
CLAMP_TOL = 1e-10
#: rejection threshold for PSD-required inputs
PSD_TOL = 1e-8


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
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > rtol * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {rtol:g}")
    upper = np.triu(M)
    return upper + np.triu(M, 1).T


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


def sqrtm_psd(matrix) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Roundoff negatives in the spectrum are clamped to zero so rank-deficient
    covariances are handled uniformly.
    """
    dec = spectral_decompose(matrix)
    w = np.maximum(dec.eigenvalues, 0.0)
    V = dec.eigenvectors
    return as_symmetric((V * np.sqrt(w)) @ V.T, rtol=1.0)


@dataclass(frozen=True)
class GaussianModel:
    """Normal distribution with a possibly rank-deficient covariance.

    The covariance must be symmetric with eigenvalues above ``-CLAMP_TOL``
    (scale-relative); roundoff negatives are clamped to zero on construction.
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
        dec = spectral_decompose(cov)
        w = dec.eigenvalues
        top = max(float(w[-1]), 0.0)
        if w[0] < -CLAMP_TOL * max(1.0, top):
            raise ValueError(f"covariance is not PSD (min eigenvalue {w[0]:.3e})")
        if w[0] < 0.0:
            cov = as_symmetric((dec.eigenvectors * np.maximum(w, 0.0)) @ dec.eigenvectors.T, rtol=1.0)
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
    this equals the Gaussian Wasserstein distance at equal means.  Inputs with
    an eigenvalue below ``-PSD_TOL`` (scale-relative) are rejected.

    Evaluated through the equivalent orthogonal-Procrustes form
    ``min_U || sqrt(S1) - sqrt(S2) U ||_F``: computing a norm of a difference
    instead of a difference of traces keeps near-zero distances accurate to
    machine precision instead of its square root.
    """
    A = as_symmetric(S1, name="S1")
    B = as_symmetric(S2, name="S2")
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    for M, name in ((A, "S1"), (B, "S2")):
        w = np.linalg.eigvalsh(M)
        if w[0] < -PSD_TOL * max(1.0, float(w[-1])):
            raise ValueError(f"{name} is not PSD (min eigenvalue {w[0]:.3e})")
    ra = sqrtm_psd(A)
    rb = sqrtm_psd(B)
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
    w2 = dec2.eigenvalues
    top2 = max(float(w2[-1]), 0.0)
    keep = w2 > RANK_RTOL * top2
    if top2 == 0.0:
        keep = np.zeros_like(keep)

    if not keep.all():
        E0 = dec2.eigenvectors[:, ~keep]
        leak_tol = 1e-10 * max(1.0, float(np.trace(S1)), float(np.trace(S2)))
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
    wA = np.linalg.eigvalsh(A)
    if wA[0] <= RANK_RTOL * max(float(wA[-1]), 0.0) or wA[0] <= 0.0:
        return float("inf")
    dm = E.T @ dmean
    quad = float(np.sum(dm * dm / d2))
    trace_term = float(np.sum((A / d2[:, None]).diagonal()))
    logdet1 = float(np.log(wA).sum())
    logdet2 = float(np.log(d2).sum())
    val = 0.5 * (quad + trace_term - k - logdet1 + logdet2)
    return max(val, 0.0)
