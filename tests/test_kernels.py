"""The dual-multiplier residual kernel."""

import numpy as np
from numpy.testing import assert_allclose

from wshrink import _kernels


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
