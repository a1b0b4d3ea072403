import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshrink import _kernels
from wshrink.applications import LabeledDataset, pooled_moments
from wshrink.analytical import (
    GAMMA_TOL,
    _path,
    eigenvalue_map,
    gamma_bracket,
    wasserstein_shrinkage,
    wasserstein_shrinkage_path,
)
from wshrink.errors import EstimationError
from wshrink.evaluation import sample_moments
from wshrink.gaussian import psd_spectrum, spectral_decompose
from wshrink.sqa import reformulation_objective, sqa_gradient

from conftest import covariances, random_psd_singular, random_rotation, random_spd, tracemalloc_peak


def solve_gamma(eigenvalues, rho):
    """The dual multiplier, through the radius path that the estimators run."""
    lam = psd_spectrum(eigenvalues)
    return next(_path(np.eye(lam.size), lam, [rho])).dual_multiplier

FIG1_EIGENVALUES = 10.0 ** (np.arange(1, 6) - 3.0)  # 1e-2 .. 1e2


class TestObjective:
    def test_scalar_example(self):
        value = reformulation_objective([[1.0]], [[0.25]], 0.5, 1.0)
        assert_allclose(value, np.log(4.0) + 1.0, atol=1e-12)

    def test_zero_covariance(self):
        p = 3
        value = reformulation_objective(np.zeros((p, p)), 0.5 * np.eye(p), 1.0, 1.0)
        assert_allclose(value, p * np.log(2.0) + 1.0, atol=1e-12)

    def test_matches_eigenbasis_evaluation(self, rng):
        for _ in range(5):
            cov = random_spd(5, rng)
            X = random_spd(5, rng, scale=0.3)
            gamma = float(np.linalg.eigvalsh(X)[-1] * 1.8 + 0.5)
            rho = 0.7
            value = reformulation_objective(cov, X, gamma, rho)
            # independent path through the eigendecomposition of X
            w, U = np.linalg.eigh(X)
            M = U.T @ cov @ U
            trace_term = float(np.sum(np.diag(M) / (gamma - w)))
            expected = -np.log(w).sum() + gamma * (rho**2 - np.trace(cov)) + gamma**2 * trace_term
            assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="positive definite"):
            reformulation_objective(np.eye(2), np.diag([1.0, -0.1]), 2.0, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            reformulation_objective(np.eye(2), np.eye(2), 0.5, 1.0)

    def test_convex_along_feasible_segment(self, rng):
        cov = random_spd(4, rng)
        X1, X2 = 0.2 * np.eye(4), 0.3 * random_spd(4, rng, scale=1.0) + 0.1 * np.eye(4)
        gamma1, gamma2 = 2.0, 3.0
        f = lambda t: reformulation_objective(  # noqa: E731
            cov, (1 - t) * X1 + t * X2, (1 - t) * gamma1 + t * gamma2, 1.0
        )
        ts = np.linspace(0.0, 1.0, 9)
        vals = np.array([f(t) for t in ts])
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert (vals[1:-1] <= chords + 1e-10).all()


def residual(gamma, lam, rho):
    """phi at one multiplier, for a cleaned spectrum ``lam``."""
    pos = lam[lam > 0.0]
    return _kernels.gamma_residual_slope(np.array([gamma]), pos, lam.size - pos.size, rho * rho)[0][0]


class TestBracket:
    def test_scalar_example(self):
        gmin, gmax = gamma_bracket(np.array([1.0]), np.array([1.0]))
        assert_allclose(gmin, [(3.0 - np.sqrt(5.0)) / 2.0], atol=1e-12)
        assert_allclose(gmax, [1.0], atol=1e-12)

    def test_all_zero_eigenvalues(self):
        _, gmax = gamma_bracket(np.zeros(4), np.array([0.5]))
        assert_allclose(gmax, [4.0 / 0.25], atol=1e-12)

    def test_fig1_instance_straddles_root(self):
        (gmin,), (gmax,) = gamma_bracket(FIG1_EIGENVALUES, np.array([1.0]))
        assert residual(gmin, FIG1_EIGENVALUES, 1.0) <= 0.0 <= residual(gmax, FIG1_EIGENVALUES, 1.0)

    @given(
        lam=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e8)), min_size=1, max_size=30),
        radii=st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_brackets_the_path_root(self, lam, radii):
        # the bounds that _path starts the root solve from, for every radius at once
        lam, radii = np.sort(psd_spectrum(lam)), np.array(radii)
        gmin, gmax = gamma_bracket(lam, radii)
        for k, solution in enumerate(_path(np.eye(lam.size), lam, radii)):
            root = solution.dual_multiplier
            assert gmin[k] <= root * (1 + 1e-12) and root <= gmax[k] * (1 + 1e-12)
            single = gamma_bracket(lam, radii[k : k + 1])
            assert single[0][0] == gmin[k] and single[1][0] == gmax[k]


class TestSolveGamma:
    def test_scalar_root(self):
        assert_allclose(solve_gamma([1.0], 1.0), 0.5, atol=1e-11)

    def test_zero_eigenvalue_collapse(self):
        assert_allclose(solve_gamma([0.0], 1.0), 1.0, atol=1e-12)

    def test_monotone_in_radius(self):
        lam = FIG1_EIGENVALUES
        gammas = [solve_gamma(lam, rho) for rho in np.geomspace(0.01, 100.0, 30)]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_unconverged_multiplier_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels, "MAX_ITER", 2)
        with pytest.raises(EstimationError, match="did not converge in 2 iterations"):
            wasserstein_shrinkage(np.diag(FIG1_EIGENVALUES), 1.0)

    def test_residual_below_tolerance(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.0, 5.0, int(rng.integers(1, 15)))
            rho = float(rng.uniform(0.1, 3.0))
            root = solve_gamma(lam, rho)
            assert abs(residual(root, psd_spectrum(lam), rho)) <= GAMMA_TOL

    @given(
        lam=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)), min_size=1, max_size=40),
        rho=st.floats(min_value=1e-2, max_value=1e2),
        k=st.integers(min_value=-8, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_equivariance(self, lam, rho, k):
        # cov -> c cov, rho -> sqrt(c) rho gives gamma -> gamma / c; the residual
        # must not cancel when sum(lam) dwarfs rho^2
        lam, c = np.array(lam), 10.0**k
        root = solve_gamma(lam, rho)
        scaled = c * solve_gamma(c * lam, np.sqrt(c) * rho)
        assert abs(scaled - root) <= 1e-10 * root


class TestEigenvalueMap:
    def test_scalar_chain(self):
        assert_allclose(eigenvalue_map(1.0, 0.5), 0.25, atol=1e-14)

    def test_zero_maps_to_gamma(self):
        for gamma in (0.3, 1.0, 17.0):
            assert eigenvalue_map(0.0, gamma) == gamma

    def test_large_eigenvalue_asymptote(self):
        lam = 1e6
        x = eigenvalue_map(lam, 1.0)
        assert 0.0 < 1.0 / lam - x <= 2e-12  # approaches 1/lam from below

    @given(
        lam=st.floats(min_value=1e-2, max_value=1e2),
        gamma=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_identity(self, lam, gamma):
        x = eigenvalue_map(lam, gamma)
        assert 0.0 < x <= gamma
        lhs = gamma * gamma * x * lam
        rhs = (gamma - x) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(
        lam=st.floats(min_value=1e-8, max_value=1e8),
        gamma=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_identity_extreme_scales(self, lam, gamma):
        # gamma - x evaluated by its cancellation-free rewrite; the naive
        # subtraction loses half the digits when lam * gamma is tiny
        x = eigenvalue_map(lam, gamma)
        assert 0.0 < x <= gamma
        gap = gamma * 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / (lam * gamma)))
        lhs = gamma * gamma * x * lam
        assert abs(lhs - gap**2) <= 1e-12 * max(1.0, abs(lhs))

    def test_array_shape_preserved(self):
        out = eigenvalue_map(np.array([[0.0, 1.0], [4.0, 9.0]]), 0.5)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.5

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_multiplier(self, gamma):
        # nan used to map to [nan, nan] and inf to [1, inf]
        with pytest.raises(ValueError, match="gamma_star must be finite and positive"):
            eigenvalue_map(np.array([1.0, 0.0]), gamma)


class TestShrinkage:
    def test_scalar_chain(self):
        sol = wasserstein_shrinkage([[1.0]], 1.0)
        assert_allclose(sol.dual_multiplier, 0.5, atol=1e-11)
        assert_allclose(sol.precision, [[0.25]], atol=1e-11)
        assert_allclose(sol.objective, np.log(4.0) + 1.0, atol=1e-10)

    def test_rotation_equivariance(self, rng):
        cov = random_spd(5, rng)
        base = wasserstein_shrinkage(cov, 0.8).precision
        for _ in range(3):
            R = random_rotation(5, rng)
            rotated = wasserstein_shrinkage(R @ cov @ R.T, 0.8).precision
            assert np.abs(rotated - R @ base @ R.T).max() <= 1e-8

    def test_small_radius_recovers_inverse(self, rng):
        cov = random_spd(6, rng)
        inv = np.linalg.inv(cov)
        X = wasserstein_shrinkage(cov, 1e-6).precision
        assert np.linalg.norm(X - inv) / np.linalg.norm(inv) <= 1e-3

    def test_rank_deficient_input_gives_pd_estimate(self, rng):
        cov = random_psd_singular(6, 3, rng)
        sol = wasserstein_shrinkage(cov, 0.5)
        assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

    def test_commutes_with_input(self, rng):
        cov = random_spd(5, rng)
        X = wasserstein_shrinkage(cov, 0.7).precision
        comm = X @ cov - cov @ X
        assert np.linalg.norm(comm) <= 1e-8 * np.linalg.norm(cov) * np.linalg.norm(X)

    def test_solution_invariants(self, rng):
        cov = random_psd_singular(7, 4, rng)
        sol = wasserstein_shrinkage(cov, 0.9)
        x = sol.shrunk_eigenvalues
        assert (x > 0.0).all()
        assert (x <= sol.dual_multiplier + 1e-14).all()
        lhs = sol.radius**2 * sol.dual_multiplier**2
        assert abs(lhs - x.sum()) <= 1e-8 * max(1.0, x.sum())

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="positive"):
            wasserstein_shrinkage(np.eye(3), 0.0)

    def test_stationarity_of_solution(self, rng):
        cov = random_spd(6, rng)
        sol = wasserstein_shrinkage(cov, 0.6)
        g_mat, g_gamma = sqa_gradient(cov, sol.precision, sol.dual_multiplier, 0.6)
        norm = np.sqrt(np.sum(g_mat**2) + g_gamma**2)
        scale = max(1.0, np.linalg.norm(1.0 / sol.shrunk_eigenvalues))
        assert norm <= 1e-6 * scale


class TestMomentsInput:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.integers(min_value=1, max_value=60),
        n_per_p=st.floats(min_value=0.0, max_value=2.0),
        pooled=st.booleans(),
        log10_scale=st.floats(min_value=-4.0, max_value=4.0),
        log10_offset=st.floats(min_value=-4.0, max_value=4.0),
        radius=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_covariance(self, seed, p, n_per_p, pooled, log10_scale, log10_offset, radius):
        # moments with fewer rows than columns take the Gram route, the others the covariance
        # route; either way the solution is the covariance's to rounding.  Rows sit at an offset
        # from 1e-4 to 1e4 times their spread, and pooled moments centre each of 2 classes apart.
        n = max(4 if pooled else 1, int(n_per_p * p))
        rng = np.random.default_rng(seed)
        scale = 10.0**log10_scale
        data = scale * (rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p) + 10.0**log10_offset)
        if pooled:
            moments = pooled_moments(LabeledDataset(data, np.arange(n) % 2))
        else:
            moments = sample_moments(data, divisor=max(n - 1, 1))
        cov = moments.covariance
        rho = radius * np.sqrt(np.trace(cov) + scale**2)
        via_moments, via_cov = wasserstein_shrinkage(moments, rho), wasserstein_shrinkage(cov, rho)
        assert_allclose(via_moments.dual_multiplier, via_cov.dual_multiplier, rtol=1e-10)
        assert_allclose(via_moments.objective, via_cov.objective, rtol=1e-10)
        X = via_cov.precision
        assert np.abs(via_moments.precision - X).max() <= 1e-9 * np.abs(X).max()


class TestSensitivity:
    """Radius sensitivity on the five-eigenvalue log-spaced instance."""

    def _solve_grid(self, rhos):
        cov = np.diag(FIG1_EIGENVALUES)
        return [wasserstein_shrinkage(cov, rho) for rho in rhos]

    def test_multiplier_and_eigenvalues_decrease(self):
        rhos = np.geomspace(1e-2, 10.0, 50)
        sols = self._solve_grid(rhos)
        gammas = [s.dual_multiplier for s in sols]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        X = np.array([s.shrunk_eigenvalues for s in sols])
        assert (np.diff(X, axis=0) < 0.0).all()
        assert all(g <= 5.0 / r**2 for g, r in zip(gammas, rhos))

    def test_order_reversal_and_condition_number(self):
        rhos = np.geomspace(1e-2, 10.0, 50)
        sols = self._solve_grid(rhos)
        for s in sols:
            assert (np.diff(s.shrunk_eigenvalues) <= 1e-14).all()  # descending vs ascending lam
        conds = [s.shrunk_eigenvalues.max() / s.shrunk_eigenvalues.min() for s in sols]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(conds, conds[1:]))

    def test_limits_at_large_radius(self):
        sol = wasserstein_shrinkage(np.diag(FIG1_EIGENVALUES), 1e3)
        small = wasserstein_shrinkage(np.diag(FIG1_EIGENVALUES), 1e-2)
        assert (sol.shrunk_eigenvalues < 1e-2 * small.shrunk_eigenvalues).all()
        conds = [
            wasserstein_shrinkage(np.diag(FIG1_EIGENVALUES), rho).shrunk_eigenvalues
            for rho in (1e2, 1e3, 1e4, 1e5)
        ]
        ratios = [x.max() / x.min() for x in conds]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1.001  # converges to 1 as the radius grows


class TestDivisorScaling:
    def test_bessel_equivalence(self, rng):
        # changing the degrees-of-freedom divisor is, up to scaling, the same
        # as shrinking the radius: solve(cov / k, rho) == k * solve(cov, sqrt(k) rho)
        cov = random_spd(4, rng)
        rho = 0.8
        for kappa in (0.5, 0.95, 2.0):
            a = wasserstein_shrinkage(cov, np.sqrt(kappa) * rho)
            b = wasserstein_shrinkage(cov / kappa, rho)
            assert np.abs(b.precision - kappa * a.precision).max() <= 1e-8 * np.abs(b.precision).max()
            assert abs(b.dual_multiplier - kappa * a.dual_multiplier) <= 1e-8 * b.dual_multiplier


class TestShrinkagePath:
    @given(
        cov=covariances(),
        radii=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_radius_solves(self, cov, radii):
        # radii relative to sqrt(tr cov): every scale c sees the same range of shrinkage
        radii = np.sqrt(np.trace(cov) + 1e-300) * np.array(radii)
        solutions = list(wasserstein_shrinkage_path(cov, radii))
        assert len(solutions) == len(radii)
        for rho, path_sol in zip(radii, solutions):
            sol = wasserstein_shrinkage(cov, rho)
            scale = np.abs(sol.precision).max()
            assert np.abs(path_sol.precision - sol.precision).max() <= 1e-12 * scale
            assert abs(path_sol.dual_multiplier - sol.dual_multiplier) <= 1e-12 * sol.dual_multiplier
            assert path_sol.radius == sol.radius

    def test_decomposes_once(self, monkeypatch, rng):
        # one eigh and one root-solver call serve every radius of the path
        calls = {"eigh": 0, "monotone_newton": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(_kernels, "monotone_newton", counted("monotone_newton", _kernels.monotone_newton))
        solutions = list(wasserstein_shrinkage_path(random_spd(5, rng), np.geomspace(0.1, 10.0, 7)))
        assert len(solutions) == 7 and calls == {"eigh": 1, "monotone_newton": 1}

    @given(
        cov=covariances(),
        radii=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_multipliers_match_per_radius_bit_for_bit(self, cov, radii):
        # the one kernel call of a path freezes each radius where a one-radius solve stops
        radii = np.sqrt(np.trace(cov) + 1e-300) * np.array(radii)
        lam = psd_spectrum(spectral_decompose(cov).eigenvalues)
        for rho, solution in zip(radii, wasserstein_shrinkage_path(cov, radii)):
            single = wasserstein_shrinkage(cov, rho)
            gamma = single.dual_multiplier
            assert solution.dual_multiplier == gamma and solution.iterations == single.iterations
            assert abs(residual(gamma, lam, rho)) <= GAMMA_TOL

    def test_unconverged_multiplier_raises_before_the_first_precision(self, monkeypatch, rng):
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        path = wasserstein_shrinkage_path(random_spd(4, rng), [0.5, 1.0])
        with pytest.raises(EstimationError, match="did not converge"):
            next(path)

    def test_invalid_radius_raises_when_reached(self, rng):
        path = wasserstein_shrinkage_path(random_spd(3, rng), [0.5, -1.0])
        assert next(path).radius == 0.5
        with pytest.raises(ValueError, match="radius"):
            next(path)

    def test_holds_one_precision_at_a_time(self, rng):
        # The whole 21-radius path peaks no higher than one wasserstein_shrinkage
        # call, up to half a precision (8 p^2 bytes): each radius frees its
        # temporaries, and the path keeps no solution it has yielded.  Keeping
        # them all would add 20 precisions.
        p = 60
        cov = random_psd_singular(p, 40, rng)
        single = tracemalloc_peak(lambda: wasserstein_shrinkage(cov, 1e-3))
        path = tracemalloc_peak(lambda: collections.deque(
            wasserstein_shrinkage_path(cov, np.geomspace(1e-3, 1.0, 21)), maxlen=0))
        assert path - single < 0.5 * 8 * p * p

    def test_one_solve_peaks_below_five_matrices(self, rng):
        # about 3.2 matrices (8 p^2 bytes each): the validated copy, eigh's work
        # and eigenvectors, W = V sqrt(x) and W @ W.T.  Mirroring (V x) @ V.T and
        # validating through M - M.T reads 6.2.
        p = 60
        cov = random_psd_singular(p, 40, rng)
        assert tracemalloc_peak(lambda: wasserstein_shrinkage(cov, 1e-3)) < 5 * 8 * p * p

    @given(cov=covariances(), radii=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_precisions_exactly_symmetric(self, cov, radii):
        radii = np.sqrt(np.trace(cov) + 1e-300) * np.array(radii)
        X = wasserstein_shrinkage(cov, radii[0]).precision
        assert np.array_equal(X, X.T)
        for solution in wasserstein_shrinkage_path(cov, radii):
            assert np.array_equal(solution.precision, solution.precision.T)
