"""Numeric kernels of the analytical estimator: the eigenvalue map, the
dual-multiplier residual and its root solve.

A sweep eigendecomposes each fold once and runs these kernels once per fold
per grid point.  The eigenvalue map sends a sample eigenvalue ``lam > 0`` to
``x(lam, g) = 4 / (lam * (1 + sqrt(1 + 4/(lam*g)))^2)`` and ``lam = 0`` to ``g``.
Through the identity ``sqrt(lam^2 g^2 + 4 lam g)/2 - lam g/2 = 1 - x(lam, g)/g``
the residual whose positive root is the multiplier reads, for ``n0`` zero
eigenvalues and radius ``rho``::

    phi(g) = rho^2 g - n0 - sum_{lam > 0} x(lam, g) / g

Every term is computed without subtraction, so ``phi`` keeps full relative
precision even when ``sum(lam)`` dwarfs ``rho^2``.  ``phi`` is strictly
increasing from ``phi(0+) = -p``, so it has a unique positive root.  The solver
bisects until the bracket is narrow (1e-2 relative width), then switches to
Newton steps safeguarded by the bracket.  ``benchmarks/run.py`` times the
solver and the map under their names here.
"""

from __future__ import annotations

import numpy as np

#: no compiled path exists; kept because benchmark env records read ``wshrink.USING_NUMBA``
USING_NUMBA = False

_EPS = float(np.finfo(np.float64).eps)

#: relative bracket width below which bisection hands over to Newton
_NEWTON_SWITCH = 1e-2


def _map_positive(pos, gamma):
    """Eigenvalue map for strictly positive eigenvalues ``pos`` (broadcasts)."""
    s = 1.0 + np.sqrt(1.0 + 4.0 / (pos * gamma))
    return 4.0 / (pos * s * s)


def shrink_eigenvalues(lam, gamma):
    """Map sample eigenvalues to estimator eigenvalues at multiplier ``gamma``.

    The rationalized form is subtraction-free, so it keeps full precision at
    both tiny and huge ``lam * gamma``.  Zero eigenvalues map to ``gamma`` exactly.
    """
    lam, gamma = np.asarray(lam, dtype=np.float64), float(gamma)
    out = np.full(lam.shape, gamma)
    mask = lam > 0.0
    out[mask] = _map_positive(lam[mask], gamma)
    return out


def gamma_residual(gamma, pos, n_zero, rho):
    """phi at scalar or array ``gamma``, given the positive eigenvalues ``pos``
    and the number ``n_zero`` of zero eigenvalues."""
    g = gamma if np.isscalar(gamma) else np.asarray(gamma, dtype=np.float64)[..., None]
    return rho * rho * gamma - n_zero - _map_positive(pos, g).sum(axis=-1) / gamma


def solve_gamma_bracketed(lam, rho, lo, hi, tol, max_iter=200):
    """Bracketed bisection/Newton root solve of phi.

    Requires ``phi(lo) <= 0 <= phi(hi)``.  Returns ``(gamma, iterations, residual)``.
    """
    lam = np.asarray(lam, dtype=np.float64)
    pos = lam[lam > 0.0]
    n_zero = lam.size - pos.size
    rho, lo, hi = float(rho), float(lo), float(hi)

    def dphi(g):
        root = np.sqrt(pos * pos * g * g + 4.0 * pos * g)
        return rho * rho + 0.5 * (pos * ((pos * g + 2.0) / root - 1.0)).sum()

    gamma = 0.5 * (lo + hi)
    best, best_res = gamma, np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        f = gamma_residual(gamma, pos, n_zero, rho)
        if abs(f) < best_res:
            best, best_res = gamma, abs(f)
        if abs(f) <= tol:
            return gamma, iters, f
        if f > 0.0:
            hi = gamma
        else:
            lo = gamma
        if hi - lo <= 4.0 * _EPS * max(hi, 1e-300):
            return best, iters, best_res
        if hi - lo <= _NEWTON_SWITCH * hi:
            d = dphi(gamma)
            nxt = gamma - f / d if d > 0.0 else 0.5 * (lo + hi)
            if not (lo < nxt < hi):
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        gamma = nxt
    return best, iters, best_res
