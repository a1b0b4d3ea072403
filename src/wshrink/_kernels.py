"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The dual-multiplier root solve and the eigenvalue shrinkage map run once per
fold per grid point inside cross-validation sweeps, which makes them the
package's hottest scalar loops.  When numba is importable they are compiled
with ``@njit``; setting the environment variable ``WSHRINK_NO_NUMBA=1``
(checked once at import) selects the vectorized numpy fallback instead.
``USING_NUMBA`` reports which path is active (``benchmarks/run.py`` records
it with every run), and both implementations are exported so they can be
compared.

The residual solved here is, for nonnegative eigenvalues ``lam`` and radius
``rho``::

    phi(g) = (rho^2 - sum(lam)/2) * g - p + sum(sqrt(lam^2 g^2 + 4 lam g)) / 2

``phi`` is strictly increasing with ``phi(0) = -p < 0``, so it has a unique
positive root.  The solver bisects until the bracket is narrow (1e-2 relative
width), then switches to Newton steps safeguarded by the bracket.
"""

from __future__ import annotations

import os

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: relative bracket width below which bisection hands over to Newton
_NEWTON_SWITCH = 1e-2


def _numba_disabled() -> bool:
    return os.environ.get("WSHRINK_NO_NUMBA", "").strip().lower() not in ("", "0", "false")


def gamma_residual_numpy(gamma, lam, rho):
    """phi(gamma) for scalar or array ``gamma``, vectorized over eigenvalues."""
    lam = np.asarray(lam, dtype=np.float64)
    g = np.asarray(gamma, dtype=np.float64)[..., None]
    const = rho * rho - 0.5 * lam.sum()
    root = np.sqrt(lam * lam * g * g + 4.0 * lam * g)
    out = const * np.squeeze(g, -1) - lam.size + 0.5 * root.sum(axis=-1)
    return out if out.ndim else float(out)


def solve_gamma_numpy(lam, rho, lo, hi, tol, max_iter=200):
    """Bracketed bisection/Newton root solve of phi; numpy path.

    Returns ``(gamma, iterations, residual)``.  Assumes ``phi(lo) <= 0 <=
    phi(hi)`` up to rounding; the bracket is re-expanded defensively if
    rounding put the root just outside.
    """
    lam = np.asarray(lam, dtype=np.float64)
    p = lam.size
    pos = lam[lam > 0.0]
    const = rho * rho - 0.5 * lam.sum()

    def phi(g):
        return const * g - p + 0.5 * np.sqrt(pos * pos * g * g + 4.0 * pos * g).sum()

    def dphi(g):
        root = np.sqrt(pos * pos * g * g + 4.0 * pos * g)
        return rho * rho + 0.5 * (pos * ((pos * g + 2.0) / root - 1.0)).sum()

    for _ in range(200):
        if phi(lo) <= 0.0 or lo <= 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if phi(hi) >= 0.0:
            break
        hi *= 2.0

    gamma = 0.5 * (lo + hi)
    best, best_res = gamma, np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        f = phi(gamma)
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


def shrink_eigenvalues_numpy(lam, gamma):
    """Map sample eigenvalues to estimator eigenvalues at multiplier ``gamma``.

    Evaluates ``gamma * (1 - 2 / (1 + sqrt(1 + 4/(lam*gamma))))`` in the fully
    rationalized form ``4 / (lam * (1 + sqrt(1 + 4/(lam*gamma)))^2)``, which is
    subtraction-free and keeps full precision at both tiny and huge
    ``lam * gamma``.  Zero eigenvalues map to ``gamma`` exactly.
    """
    lam = np.asarray(lam, dtype=np.float64)
    out = np.full(lam.shape, float(gamma))
    mask = lam > 0.0
    lp = lam[mask]
    s = 1.0 + np.sqrt(1.0 + 4.0 / (lp * gamma))
    out[mask] = 4.0 / (lp * s * s)
    return out


# --- numba twins (loop style) -------------------------------------------------


def _phi_loop(g, lam, const, p):
    acc = 0.0
    for i in range(p):
        li = lam[i]
        if li > 0.0:
            acc += np.sqrt(li * li * g * g + 4.0 * li * g)
    return const * g - p + 0.5 * acc


def _dphi_loop(g, lam, rho, p):
    acc = 0.0
    for i in range(p):
        li = lam[i]
        if li > 0.0:
            root = np.sqrt(li * li * g * g + 4.0 * li * g)
            acc += li * ((li * g + 2.0) / root - 1.0)
    return rho * rho + 0.5 * acc


def _solve_gamma_loop(lam, rho, lo, hi, tol, max_iter):
    p = lam.shape[0]
    total = 0.0
    for i in range(p):
        total += lam[i]
    const = rho * rho - 0.5 * total

    for _ in range(200):
        if _phi_loop(lo, lam, const, p) <= 0.0 or lo <= 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if _phi_loop(hi, lam, const, p) >= 0.0:
            break
        hi *= 2.0

    gamma = 0.5 * (lo + hi)
    best = gamma
    best_res = np.inf
    iters = 0
    for it in range(1, max_iter + 1):
        iters = it
        f = _phi_loop(gamma, lam, const, p)
        if abs(f) < best_res:
            best = gamma
            best_res = abs(f)
        if abs(f) <= tol:
            return gamma, iters, f
        if f > 0.0:
            hi = gamma
        else:
            lo = gamma
        if hi - lo <= 4.0 * _EPS * max(hi, 1e-300):
            return best, iters, best_res
        if hi - lo <= _NEWTON_SWITCH * hi:
            d = _dphi_loop(gamma, lam, rho, p)
            if d > 0.0:
                nxt = gamma - f / d
            else:
                nxt = 0.5 * (lo + hi)
            if nxt <= lo or nxt >= hi:
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        gamma = nxt
    return best, iters, best_res


def _shrink_eigenvalues_loop(lam, gamma):
    out = np.empty(lam.shape[0])
    for i in range(lam.shape[0]):
        li = lam[i]
        if li > 0.0:
            s = 1.0 + np.sqrt(1.0 + 4.0 / (li * gamma))
            out[i] = 4.0 / (li * s * s)
        else:
            out[i] = gamma
    return out


USING_NUMBA = False
solve_gamma_numba = None
shrink_eigenvalues_numba = None

if not _numba_disabled():
    try:
        from numba import njit

        _phi_loop = njit(cache=True)(_phi_loop)
        _dphi_loop = njit(cache=True)(_dphi_loop)
        solve_gamma_numba = njit(cache=True)(_solve_gamma_loop)
        shrink_eigenvalues_numba = njit(cache=True)(_shrink_eigenvalues_loop)
        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an optional accelerator
        pass


def solve_gamma_bracketed(lam, rho, lo, hi, tol, max_iter=200):
    """Dispatch the root solve to the active path (numba or numpy)."""
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    if USING_NUMBA:
        gamma, iters, res = solve_gamma_numba(lam, float(rho), float(lo), float(hi), float(tol), max_iter)
        return float(gamma), int(iters), float(res)
    return solve_gamma_numpy(lam, float(rho), float(lo), float(hi), float(tol), max_iter)


def shrink_eigenvalues(lam, gamma):
    """Dispatch the eigenvalue map to the active path (numba or numpy)."""
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    if USING_NUMBA:
        return shrink_eigenvalues_numba(lam, float(gamma))
    return shrink_eigenvalues_numpy(lam, float(gamma))
