"""Numeric kernels of the analytical estimator: the eigenvalue map, the
dual-multiplier residual and the package's one root solver.

The eigenvalue map sends a sample eigenvalue ``lam > 0`` to
``x(lam, g) = 4 / (lam * (1 + sqrt(1 + 4/(lam*g)))^2)`` and ``lam = 0`` to ``g``.
Through the identity ``sqrt(lam^2 g^2 + 4 lam g)/2 - lam g/2 = 1 - x(lam, g)/g``
the residual whose positive root is the multiplier reads, for ``n0`` zero
eigenvalues and radius ``rho``::

    phi(g) = rho^2 g - n0 - sum_{lam > 0} x(lam, g) / g

Every term is computed without subtraction, so ``phi`` keeps full relative
precision even when ``sum(lam)`` dwarfs ``rho^2``.  With ``x/g = h(lam g)`` and
``h(u) = 1 + u/2 - sqrt(u^2 + 4u)/2`` convex and decreasing, ``phi`` is concave
and increases from ``phi(0+) = -p``, so Newton started below the root climbs
to it monotonically (the tangent lies above the graph), and so does the Newton
step from any point above it.  ``monotone_newton`` starts from the a priori
bracket ``analytical.gamma_bracket``, needs no bisection and no repair of that
bracket, and solves all radii of a sweep in one call.
``benchmarks/run.py`` times the solver and the map under their names here.
"""

from __future__ import annotations

import numpy as np

from .errors import EstimationError

#: no compiled path exists; kept because benchmark env records read ``wshrink.USING_NUMBA``
USING_NUMBA = False

_EPS = float(np.finfo(np.float64).eps)

#: residual evaluations after which a multiplier that has not converged is an error
MAX_ITER = 200


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


def gamma_residual_slope(gamma, pos, n_zero, rho2):
    """``(phi, phi')`` at an array of multipliers, each paired with its squared radius in ``rho2``.

    With ``u = lam g`` and ``r = sqrt(1 + 4/u)``, ``-h'(u) = h(u) / (u r)``, so
    the slope ``rho^2 + sum h / (r g)`` is subtraction-free like ``phi``.
    """
    u = pos * gamma[:, None]
    r = np.sqrt(1.0 + 4.0 / u)
    s = 1.0 + r
    h = 4.0 / (u * s * s)
    return rho2 * gamma - n_zero - h.sum(axis=1), rho2 + (h / r).sum(axis=1) / gamma


def monotone_newton(residual, lower, upper, tol):
    """Roots of concave, strictly increasing residuals within ``lower <= root <= upper``, one per entry.

    ``residual(g, idx)`` returns ``(f, f')`` at the multipliers ``g`` of the
    entries ``idx``.  By concavity the Newton step from ``upper`` lands below
    the root; the iterates climb from the larger of that point and ``lower``.
    An entry is frozen once ``|f| <= tol`` or its step is below the float
    resolution of its multiplier, so it ends where a solve of its own would.
    Returns ``(roots, residual evaluations, residuals at the roots)``; raises
    ``EstimationError`` after ``MAX_ITER`` evaluations.
    """
    hi = np.asarray(upper, dtype=np.float64).reshape(-1)
    active = np.arange(hi.size)
    f, slope = residual(hi, active)
    g = np.maximum(lower, hi - f / slope)
    iters = np.ones(g.size, dtype=np.int64)
    for it in range(2, MAX_ITER + 1):
        ga = g[active]
        fa, slope = residual(ga, active)
        step = fa / slope
        done = (np.abs(fa) <= tol) | (np.abs(step) <= 4.0 * _EPS * ga)
        if done.any():
            f[active[done]], iters[active[done]] = fa[done], it
            active, ga, step = active[~done], ga[~done], step[~done]
            if not active.size:
                return g, iters, f
        g[active] = ga - step
    raise EstimationError(f"multiplier root solve did not converge in {MAX_ITER} iterations "
                          f"({active.size} of {g.size} left at {g[active][0]:.6e})")


#: the name the benchmark tracer wraps, layer ``kernels.solve_gamma_bracketed``
solve_gamma_bracketed = monotone_newton
