"""The dual-multiplier residual kernel and the monotone Newton root solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wshrink import _kernels
from wshrink.errors import EstimationError


def test_residual_vectorizes_over_gamma():
    pos = np.array([0.5, 2.0])
    grid = np.array([0.1, 1.0, 3.0])
    batch = _kernels.gamma_residual(grid, pos, 1, 1.0)
    singles = [_kernels.gamma_residual(g, pos, 1, 1.0) for g in grid]
    assert_allclose(batch, singles)


def test_residual_matches_closed_form():
    # phi(g) = (rho^2 - sum(lam)/2) g - p + sum(sqrt(lam^2 g^2 + 4 lam g)) / 2, on
    # moderate values where that form does not cancel
    lam = np.array([0.0, 0.3, 1.0, 2.5])
    pos, rho = lam[1:], 0.8
    for g in (0.2, 1.0, 4.0):
        direct = (rho**2 - 0.5 * lam.sum()) * g - lam.size + 0.5 * np.sqrt(lam**2 * g**2 + 4 * lam * g).sum()
        assert_allclose(_kernels.gamma_residual(g, pos, 1, rho), direct, rtol=1e-12)


def test_slope_matches_difference_quotient():
    pos, rho = np.array([1e-3, 0.3, 2.5, 40.0]), np.array([0.8, 0.8, 0.8])
    g = np.array([0.05, 1.0, 30.0])
    _, slope = _kernels.gamma_residual_slope(g, pos, 2, rho**2)
    h = 1e-6 * g
    quotient = (_kernels.gamma_residual(g + h, pos, 2, 0.8) - _kernels.gamma_residual(g - h, pos, 2, 0.8)) / (2 * h)
    assert_allclose(slope, quotient, rtol=1e-7)


def test_newton_climbs_from_below_and_freezes_each_entry():
    # rho^2 g - c/g is concave and increasing, with root sqrt(c) / rho
    c, rho2 = 2.5, np.array([0.01, 1.0, 100.0])
    root = np.sqrt(c / rho2)
    lower, upper = 1e-6 * root, 1e3 * root
    seen = []

    def residual(g, idx):
        seen.append((g.copy(), idx.copy()))
        return rho2[idx] * g - c / g, rho2[idx] + c / g**2

    roots, iters, f = _kernels.monotone_newton(residual, lower, upper, 1e-14)
    assert np.abs(f).max() <= 1e-14
    assert_allclose(roots, root, rtol=1e-13)  # |f| <= 1e-14 over the slope 2 rho^2 at the root
    for k in range(3):
        trail = [g[list(idx).index(k)] for g, idx in seen if k in idx]
        assert len(trail) == iters[k] and trail[0] == upper[k]
        climb = trail[1:]  # the step from the upper bound lands below the root
        assert lower[k] <= climb[0] < root[k] and all(a < b for a, b in zip(climb, climb[1:]))
        assert climb[-1] == roots[k]  # frozen where it met the tolerance


def test_unconverged_entries_raise(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_ITER", 3)
    residual = lambda g, idx: (g - 1.0 / g, 1.0 + 1.0 / g**2)  # noqa: E731
    with pytest.raises(EstimationError, match="did not converge in 3 iterations"):
        _kernels.monotone_newton(residual, [1e-9], [1e9], 1e-12)
