import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from wshrink import _kernels, gaussian, worst_case
from wshrink.analytical import wasserstein_shrinkage
from wshrink.errors import EstimationError
from wshrink.evaluation import sample_moments
from wshrink.gaussian import as_symmetric, induced_metric_V, sqrtm_psd
from wshrink.worst_case import extremal_covariance, extremal_for_optimal, extremal_gamma

from conftest import covariances, random_psd_singular, random_spd


@st.composite
def extremal_problems(draw):
    """``(cov, X, rho)`` with the root ``gamma`` at relative distance about
    ``delta`` from ``lambda_max(X)``, for ``delta`` between 1e-7 and 10."""
    p = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cov = random_spd(p, rng, cond=10.0 ** draw(st.floats(min_value=0.0, max_value=4.0)))
    X = random_spd(p, rng, cond=10.0 ** draw(st.floats(min_value=0.0, max_value=4.0)))
    delta = 10.0 ** draw(st.floats(min_value=-7.0, max_value=1.0))
    d, U = np.linalg.eigh(X)
    m = np.einsum("ia,ij,ja->a", U, cov, U)
    # the gap gamma - lambda_max lies between sqrt(m_max) lambda_max / rho and sqrt(sum m d^2) / rho
    rho = float(np.sqrt(m @ d**2)) / (delta * d[-1])
    return cov, X, rho


def brentq_extremal_gamma(cov, X, rho):
    """Independent oracle: brentq on the stationarity residual in the eigenbasis of ``X``."""
    d, U = np.linalg.eigh(X)
    m = np.einsum("ia,ij,ja->a", U, cov, U)
    residual = lambda g: rho**2 - float(m @ (d / (g - d)) ** 2)  # noqa: E731
    lo = d[-1] * (1.0 + 0.5 * np.sqrt(m[-1]) / rho)
    hi = d[-1] + 2.0 * float(np.sqrt(m @ d**2)) / rho
    return brentq(residual, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


class TestExtremalGamma:
    @given(problem=extremal_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_brentq_oracle(self, problem):
        cov, X, rho = problem
        assert_allclose(extremal_gamma(cov, X, rho), brentq_extremal_gamma(cov, X, rho), rtol=1e-12)

    @given(problem=extremal_problems(), k=st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, problem, k):
        # cov -> c cov, X -> X / c, rho -> sqrt(c) rho gives gamma -> gamma / c, also
        # when the root lies within 1e-6 relative of lambda_max(X)
        cov, X, rho = problem
        c = 10.0**k
        gamma = extremal_gamma(cov, X, rho)
        assert_allclose(c * extremal_gamma(c * cov, X / c, np.sqrt(c) * rho), gamma, rtol=1e-12)

    def test_unconverged_multiplier_raises(self, rng, monkeypatch):
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        with pytest.raises(EstimationError, match="did not converge"):
            extremal_gamma(random_spd(4, rng), random_spd(4, rng, scale=0.5), 0.8)

    def test_scalar_chain(self):
        gamma = extremal_gamma([[1.0]], [[0.25]], 1.0)
        assert_allclose(gamma, 0.5, atol=1e-10)

    def test_exceeds_largest_eigenvalue(self, rng):
        cov = random_spd(4, rng)
        X = random_spd(4, rng, scale=0.5)
        gamma = extremal_gamma(cov, X, 0.8)
        assert gamma > np.linalg.eigvalsh(X)[-1]

    def test_isotropic_closed_form(self):
        # X = c I and cov = I give gamma = c (1 + sqrt(p) / rho)
        p, c, rho = 4, 0.3, 0.7
        gamma = extremal_gamma(np.eye(p), c * np.eye(p), rho)
        assert_allclose(gamma, c * (1.0 + np.sqrt(p) / rho), rtol=1e-10)

    def test_matches_bisection_oracle(self, rng):
        cov = random_spd(3, rng)
        X = random_spd(3, rng, scale=0.4)
        rho = 0.6
        gamma = extremal_gamma(cov, X, rho)

        def residual(g):
            R = np.linalg.inv(g * np.eye(3) - X)
            return rho**2 - np.trace(cov) + 2 * g * np.trace(R @ cov) - g**2 * np.trace(R @ cov @ R)

        top = np.linalg.eigvalsh(X)[-1]
        oracle = brentq(residual, top * (1 + 1e-10) + 1e-14, top + 100.0, xtol=1e-14)
        assert_allclose(gamma, oracle, rtol=1e-9)

    def test_small_radius_limit(self, rng):
        cov = random_spd(3, rng)
        X = random_spd(3, rng, scale=0.4)
        gamma = extremal_gamma(cov, X, 1e-4)
        worst = extremal_covariance(cov, X, gamma)
        assert gamma > 1e2  # multiplier blows up as the ball shrinks
        assert np.abs(worst.covariance - cov).max() <= 1e-3 * np.abs(cov).max()

    def test_singular_covariance_matches_brentq_oracle(self, rng):
        # the residual needs only m = diag(U^T cov U) >= 0: a rank-deficient cov
        # whose null space misses the top eigenvector of X keeps the root above lambda_max(X)
        for rank in (1, 2, 4):
            for rho in (1e-2, 0.3, 10.0):
                cov, X = random_psd_singular(5, rank, rng), random_spd(5, rng, scale=0.5)
                assert_allclose(extremal_gamma(cov, X, rho), brentq_extremal_gamma(cov, X, rho), rtol=1e-12)

    def test_boundary_minimum_on_null_space(self):
        # cov vanishes on the top eigenvector of X, and at rho = 10 the slope is already
        # positive at lambda_max(X): the minimum over the multiplier is that boundary
        cov, X = np.diag([2.0, 1.0, 0.0]), np.diag([0.3, 0.2, 0.5])
        assert extremal_gamma(cov, X, 10.0) == 0.5
        gamma = extremal_gamma(cov, X, 1.0)
        assert gamma > 0.5
        assert_allclose(gamma, brentq(lambda g: 1.0 - 2.0 * 0.09 / (g - 0.3) ** 2 - 0.04 / (g - 0.2) ** 2,
                                      0.5 + 1e-12, 10.0, xtol=1e-15), rtol=1e-12)

    def test_rejects_indefinite_covariance(self, rng):
        with pytest.raises(ValueError, match="PSD"):
            extremal_gamma(np.diag([1.0, -0.5]), 0.1 * np.eye(2), 1.0)


class TestExtremalCovariance:
    def test_scalar_chain(self):
        worst = extremal_covariance([[1.0]], [[0.25]], 0.5)
        assert_allclose(worst.covariance, [[4.0]], atol=1e-12)
        assert_allclose(worst.attained_distance, 1.0, atol=1e-10)
        assert_allclose(worst.attained_value, 1.0, atol=1e-12)

    def test_vanishing_estimator_limit(self):
        # for X -> 0 the extremal covariance inflates cov isotropically:
        # S = (1 + rho / sqrt(tr cov))^2 cov
        p, rho = 3, 0.7
        cov = np.eye(p)
        c = 1e-9
        gamma = extremal_gamma(cov, c * np.eye(p), rho)
        worst = extremal_covariance(cov, c * np.eye(p), gamma)
        expected = (1.0 + rho / np.sqrt(p)) ** 2 * cov
        assert np.abs(worst.covariance - expected).max() <= 1e-6

    def test_large_multiplier_recovers_cov(self, rng):
        cov = random_spd(4, rng)
        X = random_spd(4, rng, scale=0.3)
        worst = extremal_covariance(cov, X, 1e8)
        assert np.abs(worst.covariance - cov).max() <= 1e-6 * np.abs(cov).max()

    def test_value_matches_dual_objective(self, rng):
        for _ in range(5):
            cov = random_spd(4, rng)
            X = random_spd(4, rng, scale=0.4)
            rho = float(rng.uniform(0.3, 1.5))
            gamma = extremal_gamma(cov, X, rho)
            worst = extremal_covariance(cov, X, gamma)
            R = np.linalg.inv(gamma * np.eye(4) - X)
            dual = gamma * (rho**2 - np.trace(cov)) + gamma**2 * np.trace(R @ cov)
            assert abs(worst.attained_value - dual) <= 1e-8 * max(1.0, abs(dual))
            assert abs(worst.attained_distance - rho) <= 1e-6

    def test_rejects_infeasible_multiplier(self, rng):
        X = random_spd(3, rng)
        top = np.linalg.eigvalsh(X)[-1]
        with pytest.raises(ValueError, match="positive definite"):
            extremal_covariance(np.eye(3), X, top * 0.5)


class TestExtremalForOptimal:
    def test_scalar_chain(self):
        worst = extremal_for_optimal([[1.0]], 1.0)
        assert_allclose(worst.covariance, [[4.0]], atol=1e-10)
        assert_allclose(worst.attained_distance, 1.0, atol=1e-10)

    def test_null_directions_get_inverse_multiplier(self, rng):
        cov = np.diag([2.0, 1.0, 0.0])
        worst = extremal_for_optimal(cov, 0.8)
        sol = wasserstein_shrinkage(cov, 0.8)
        w = np.linalg.eigvalsh(worst.covariance)
        assert abs(w[0] - 1.0 / sol.dual_multiplier) <= 1e-10

    def test_consistent_with_fixed_estimator_route(self, rng):
        cov = random_spd(5, rng)
        rho = 0.9
        sol = wasserstein_shrinkage(cov, rho)
        via_optimal = extremal_for_optimal(cov, rho)
        gamma = extremal_gamma(cov, sol.precision, rho)
        via_fixed = extremal_covariance(cov, sol.precision, gamma)
        assert abs(gamma - sol.dual_multiplier) <= 1e-7 * gamma
        assert np.abs(via_optimal.covariance - via_fixed.covariance).max() <= 1e-8 * np.abs(
            via_fixed.covariance
        ).max()

    def test_shares_eigenvectors_with_input(self, rng):
        cov = random_spd(4, rng)
        worst = extremal_for_optimal(cov, 0.5)
        comm = worst.covariance @ cov - cov @ worst.covariance
        assert np.linalg.norm(comm) <= 1e-8 * np.linalg.norm(cov) * np.linalg.norm(worst.covariance)

    @given(cov=covariances(), radius=st.floats(min_value=1e-3, max_value=1e2))
    @settings(max_examples=100, deadline=None)
    def test_distance_active_even_rank_deficient(self, cov, radius):
        # the worst case lies on the boundary of the ball, rank-deficient cov included
        rho = np.sqrt(np.trace(cov)) * radius
        worst = extremal_for_optimal(cov, rho)
        assert abs(worst.attained_distance - rho) <= 1e-9 * rho
        assert abs(worst.attained_distance - induced_metric_V(worst.covariance, cov)) <= 1e-9 * rho

    @given(cov=covariances(), radius=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=200, deadline=None)
    def test_is_the_inverse_of_the_optimal_estimator(self, cov, radius):
        # S* = X*^-1, rank-deficient cov included.  The product's rounding grows with
        # cond(X*), about 1/radius^2 here: radius 1e-3 can exceed 1e-9 on that alone
        rho = np.sqrt(np.trace(cov)) * radius
        worst = extremal_for_optimal(cov, rho)
        p = cov.shape[0]
        assert np.abs(worst.covariance @ wasserstein_shrinkage(cov, rho).precision - np.eye(p)).max() <= 1e-9
        assert worst.attained_value == p
        assert abs(worst.attained_distance - rho) <= 1e-9 * rho

    @pytest.mark.parametrize("n, p, scale", [(5, 8, 1.0), (1, 6, 1e-4), (12, 40, 1e3), (30, 31, 1.0)])
    @pytest.mark.parametrize("rho", [0.05, 0.5, 5.0])
    def test_moments_with_fewer_rows_than_columns(self, n, p, scale, rho):
        # the Gram route's V spans only the range of the data: S* = I / gamma + V diag(1/x - 1/gamma) V^T
        moments = sample_moments(scale * np.random.default_rng(n * p).standard_normal((n, p)))
        rho = rho * scale
        via_moments = extremal_for_optimal(moments, rho)
        via_covariance = extremal_for_optimal(moments.covariance, rho)
        expected = via_covariance.covariance
        assert np.abs(via_moments.covariance - expected).max() <= 1e-10 * np.abs(expected).max()
        assert abs(via_moments.multiplier - via_covariance.multiplier) <= 1e-10 * via_covariance.multiplier
        assert abs(via_moments.attained_distance - via_covariance.attained_distance) <= (
            1e-10 * via_covariance.attained_distance)
        assert via_moments.attained_value == p

    def test_validates_and_decomposes_cov_once(self, rng, monkeypatch):
        calls = {"as_symmetric": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        as_symmetric_counted = counted("as_symmetric", gaussian.as_symmetric)
        for module in (gaussian, worst_case):
            monkeypatch.setattr(module, "as_symmetric", as_symmetric_counted)
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        extremal_for_optimal(random_psd_singular(5, 3, rng), 0.7)
        assert calls == {"as_symmetric": 1, "eigh": 1}


def sample_within_radius(cov, rho: float, count: int, rng: np.random.Generator):
    """Random PSD matrices within distance ``rho`` of ``cov``.

    Draws ``cov^{1/2} (I + E) cov^{1/2}`` for a small random symmetric ``E``
    and halves ``E`` until the ball constraint holds.  Used for dominance
    spot checks; interior coverage matters, exactness does not.
    """
    S = as_symmetric(cov, name="cov")
    root = sqrtm_psd(S, "cov")
    p = S.shape[0]
    out = []
    for _ in range(int(count)):
        A = rng.standard_normal((p, p))
        E = 0.5 * (A + A.T)
        norm = float(np.linalg.norm(E, 2))
        if norm > 0.0:
            E *= 0.5 / norm
        candidate = as_symmetric(root @ (np.eye(p) + E) @ root, rtol=1.0)
        for _ in range(100):
            if induced_metric_V(candidate, S) <= rho:
                break
            E *= 0.5
            candidate = as_symmetric(root @ (np.eye(p) + E) @ root, rtol=1.0)
        out.append(candidate)
    return out


class TestDominance:
    def test_worst_case_dominates_sampled_feasible_points(self, rng):
        for _ in range(5):
            cov = random_spd(4, rng)
            rho = float(rng.uniform(0.3, 1.2))
            sol = wasserstein_shrinkage(cov, rho)
            worst = extremal_for_optimal(cov, rho)
            for S in sample_within_radius(cov, rho, 50, rng):
                assert induced_metric_V(S, cov) <= rho + 1e-9
                value = float(np.sum(S * sol.precision))
                assert value <= worst.attained_value + 1e-8

    def test_sampler_returns_psd_within_ball(self, rng):
        cov = random_spd(3, rng)
        samples = sample_within_radius(cov, 0.5, 10, rng)
        assert len(samples) == 10
        for S in samples:
            assert np.linalg.eigvalsh(S)[0] >= -1e-12
            assert induced_metric_V(S, cov) <= 0.5 + 1e-9
