import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshrink.analytical import FactoredPrecision, wasserstein_shrinkage, wasserstein_shrinkage_path
from wshrink.applications import (
    BacktestConfig,
    BenchmarkResult,
    LabeledDataset,
    SyntheticSpec,
    analytical_estimator,
    analytical_path_estimator,
    known_zero_pattern,
    lda_classify,
    lda_fit,
    min_variance_weights,
    pooled_moments,
    rolling_backtest,
    sample_gaussian,
    sparse_estimator,
    synthetic_benchmark,
    synthetic_sigma0,
    zero_pattern_of,
)
import wshrink
from wshrink import applications, sqa
from wshrink.cli import _oos_square
from wshrink.errors import ConvergenceError, EstimationError
from wshrink.evaluation import SampleMoments, TuningGrid, cross_validate, sample_moments, stein_loss
from wshrink.sqa import SolverConfig, SparsityPattern
from wshrink.worst_case import _multiplier_at

from conftest import random_rotation, random_spd


class TestSyntheticGroundTruth:
    def test_identity_injection(self):
        spec = SyntheticSpec(dim=3, density=0.5, n_samples=10)
        sigma0 = synthetic_sigma0(spec, C=np.eye(3))
        assert_allclose(sigma0, np.eye(3) / 1.001, rtol=1e-12)

    def test_single_nonzero_rank_one_correction(self):
        spec = SyntheticSpec(dim=3, density=1.0 / 9.0, n_samples=10, seed=4)
        C = np.zeros((3, 3))
        C[1, 2] = -1.0
        sigma0 = synthetic_sigma0(spec, C=C)
        # (1e-3 I + e2 e2')^{-1}: 1e3 on the off-cell axes, 1/1.001 on e2
        expected = np.diag([1e3, 1e3, 1.0 / 1.001])
        assert_allclose(sigma0, expected, rtol=1e-10)

    def test_spectrum_lower_bound(self):
        spec = SyntheticSpec(dim=8, density=0.5, n_samples=10, seed=1)
        sigma0 = synthetic_sigma0(spec)
        rng = np.random.default_rng(1)
        k = int(0.5 * 64)
        cells = rng.choice(64, size=k, replace=False)
        signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
        C = np.zeros((8, 8))
        C.flat[cells] = signs
        bound = 1.0 / (np.linalg.eigvalsh(C.T @ C)[-1] + 1e-3)
        assert np.linalg.eigvalsh(sigma0)[0] >= bound * (1.0 - 1e-10)

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(dim=6, density=0.4, n_samples=10, seed=42)
        assert_allclose(synthetic_sigma0(spec), synthetic_sigma0(spec), rtol=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="density"):
            SyntheticSpec(dim=5, density=0.0, n_samples=10)
        with pytest.raises(ValueError, match="floor"):
            SyntheticSpec(dim=2, density=0.1, n_samples=10)

    @pytest.mark.parametrize("field,value", [("dim", 3.0), ("dim", True), ("n_samples", 10.5),
                                             ("n_samples", np.float64(10.0)), ("trials", 2.0),
                                             ("seed", 1.5), ("seed", "1")])
    def test_spec_rejects_non_integer_counts(self, field, value):
        args = {"dim": 3, "density": 0.5, "n_samples": 10, "trials": 2, "seed": 0, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            SyntheticSpec(**args)

    def test_spec_accepts_numpy_integers(self):
        spec = SyntheticSpec(dim=np.int64(3), density=0.5, n_samples=np.int32(10), trials=np.int64(1),
                             seed=np.int64(4))
        assert_allclose(synthetic_sigma0(spec), synthetic_sigma0(SyntheticSpec(3, 0.5, 10, 1, 4)), rtol=0)


class TestSampling:
    def test_zero_covariance_gives_zero_samples(self):
        X = sample_gaussian(np.zeros((3, 3)), 7, 0)
        assert np.abs(X).max() == 0.0

    def test_deterministic_given_seed(self):
        S = np.diag([1.0, 2.0])
        assert_allclose(sample_gaussian(S, 5, 3), sample_gaussian(S, 5, 3), rtol=0)

    def test_law_of_large_numbers(self):
        X = sample_gaussian(np.eye(2), 100_000, 0)
        emp = sample_moments(X).covariance
        assert np.linalg.norm(emp - np.eye(2)) / np.linalg.norm(np.eye(2)) <= 0.05

    def test_rank_deficient_covariance_supported(self, rng):
        S = np.diag([1.0, 0.0, 2.0])
        X = sample_gaussian(S, 1000, 5)
        assert np.abs(X[:, 1]).max() <= 1e-12
        # rotated rank-k covariances: the rounding-level eigenvalues of the null space are cut
        # to zero, so the rows lie in the range up to rounding, not up to their square root
        for _ in range(20):
            p = int(rng.integers(3, 12))
            k = int(rng.integers(1, p))
            Q = random_rotation(p, rng)
            B = Q[:, :k] * rng.uniform(0.5, 2.0, k)
            X = sample_gaussian(B @ B.T, 200, rng)
            assert np.abs(X @ Q[:, k:]).max() <= 1e-12 * np.abs(X).max()

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="sigma0 is not PSD"):
            sample_gaussian(np.diag([1.0, -4.0]), 5, 0)

    def test_rejects_non_integer_row_count(self):
        with pytest.raises(ValueError, match=r"n must be an integer, got 10\.5"):
            sample_gaussian(np.eye(2), 10.5, 0)


class TestZeroPatterns:
    def test_detects_true_zeros(self):
        M = np.array([[2.0, 0.0, 0.5], [0.0, 3.0, 0.0], [0.5, 0.0, 1.0]])
        pat = zero_pattern_of(M)
        assert pat.pairs == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    def test_known_fraction_subsets(self):
        M = np.eye(6)
        full = zero_pattern_of(M)  # all 15 off-diagonal pairs
        half = known_zero_pattern(full, 0.5, seed=0)
        assert len(half) == 2 * round(0.5 * 15)
        assert half.pairs <= full.pairs
        again = known_zero_pattern(full, 0.5, seed=0)
        assert half.pairs == again.pairs
        assert known_zero_pattern(full, 1.0, seed=0).pairs == full.pairs
        assert len(known_zero_pattern(full, 0.0, seed=0)) == 0

    @pytest.mark.parametrize("seed", [1.5, 2.0, None])
    def test_known_fraction_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            known_zero_pattern(zero_pattern_of(np.eye(6)), 0.5, seed)


class TestLda:
    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="2 samples"):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="2 classes"):
            LabeledDataset(np.zeros((4, 2)), np.array([1, 1, 1, 1]))

    def test_class_means_recovered(self, rng):
        mu0, mu1 = np.array([0.0, 0.0]), np.array([5.0, -1.0])
        X = np.vstack([mu0 + 1e-3 * rng.standard_normal((4, 2)),
                       mu1 + 1e-3 * rng.standard_normal((4, 2))])
        y = np.array([0] * 4 + [1] * 4)
        model = lda_fit(LabeledDataset(X, y), lambda m: np.eye(2))
        assert np.abs(model.means[0] - mu0).max() <= 5e-3
        assert np.abs(model.means[1] - mu1).max() <= 5e-3

    def test_pooled_covariance_hand_example(self):
        X = np.array([[0.0], [2.0], [10.0], [14.0]])
        y = np.array([0, 0, 1, 1])
        m = pooled_moments(LabeledDataset(X, y))
        # residuals (-1, 1, -2, 2), divisor n - classes = 2
        assert m.divisor == 2.0
        assert_allclose(m.covariance, [[(1.0 + 1.0 + 4.0 + 4.0) / 2.0]])

    def test_identity_precision_reduces_to_nearest_mean(self, rng):
        X = np.vstack([np.zeros((3, 2)), np.ones((3, 2)) * 4.0]) + 0.01 * rng.standard_normal((6, 2))
        y = np.array(["a"] * 3 + ["b"] * 3)
        model = lda_fit(LabeledDataset(X, y), lambda m: np.eye(2))
        assert lda_classify(model, np.array([0.1, -0.2])) == "a"
        assert lda_classify(model, np.array([3.9, 4.2])) == "b"

    def test_exact_mean_classified_to_its_class(self, rng):
        X = rng.standard_normal((8, 3))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = lda_fit(LabeledDataset(X, y), lambda m: np.eye(3))
        assert lda_classify(model, model.means[0]) == 0
        assert lda_classify(model, model.means[1]) == 1

    def test_anisotropic_precision_flips_euclidean_decision(self):
        means = np.array([[0.0, 0.0], [4.0, 1.0]])
        X = np.vstack([means[0] + [[0.1, 0], [-0.1, 0]], means[1] + [[0.1, 0], [-0.1, 0]]])
        y = np.array([0, 0, 1, 1])
        z = np.array([2.5, 0.2])  # Euclidean-closer to class 1, vertically closer to class 0
        iso = lda_fit(LabeledDataset(X, y), lambda m: np.eye(2))
        aniso = lda_fit(LabeledDataset(X, y), lambda m: np.diag([0.01, 100.0]))
        assert lda_classify(iso, z) == 1
        assert lda_classify(aniso, z) == 0

    def test_batch_classification(self, rng):
        X = np.vstack([np.zeros((2, 2)), np.ones((2, 2))]) + 0.01 * rng.standard_normal((4, 2))
        y = np.array([0, 0, 1, 1])
        model = lda_fit(LabeledDataset(X, y), lambda m: np.eye(2))
        labels = lda_classify(model, np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert labels.tolist() == [0, 1]

    def test_pooled_covariance_unbiased_on_simulation(self, rng):
        sigma0 = random_spd(2, rng)
        mus = np.array([[0.0, 0.0], [3.0, -2.0]])
        factor = np.linalg.cholesky(sigma0)
        total = np.zeros((2, 2))
        trials = 10_000
        for _ in range(trials):
            z = rng.standard_normal((8, 2)) @ factor.T
            X = z + np.repeat(mus, 4, axis=0)
            y = np.repeat([0, 1], 4)
            total += pooled_moments(LabeledDataset(X, y)).covariance
        avg = total / trials
        assert np.linalg.norm(avg - sigma0) / np.linalg.norm(sigma0) <= 0.03


class TestPortfolio:
    @pytest.mark.parametrize("field, value", [("window", 10.5), ("window", 10.0), ("stride", 2.5), ("stride", True)])
    def test_config_rejects_non_integer_sizes(self, field, value):
        # 10.5 would reach range() and slicing inside rolling_backtest as a TypeError
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            BacktestConfig(**{field: value})

    def test_identity_gives_equal_weights(self):
        assert_allclose(min_variance_weights(np.eye(4)), np.full(4, 0.25))

    def test_diagonal_example(self):
        assert_allclose(min_variance_weights(np.diag([4.0, 1.0])), [0.8, 0.2])

    def test_weights_sum_to_one_exactly(self, rng):
        w = min_variance_weights(random_spd(6, rng))
        assert w.sum() == 1.0

    def test_minimum_variance_optimality(self, rng):
        X = random_spd(5, rng)
        S = np.linalg.inv(X)
        w = min_variance_weights(X)
        base = w @ S @ w
        for _ in range(100):
            v = rng.standard_normal(5)
            v /= v.sum()
            assert base <= v @ S @ v + 1e-12

    def test_near_zero_denominator_rejected(self):
        X = np.array([[1.0, -1.0], [-1.0, 1.0]]) + 1e-14 * np.eye(2)
        with pytest.raises(ValueError, match="zero"):
            min_variance_weights(X)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_weights_and_sharpe_scale_free(self, c, rng):
        X = random_spd(5, rng)
        assert_allclose(min_variance_weights(c * X), min_variance_weights(X), rtol=1e-12)
        R = rng.standard_normal((40, 4)) * 0.01 + 0.002
        cfg = BacktestConfig(window=12, stride=3)
        base = rolling_backtest(R, lambda m: np.linalg.inv(m.covariance), cfg)
        scaled = rolling_backtest(c * R, lambda m: np.linalg.inv(m.covariance), cfg)
        assert np.isfinite(scaled.sharpe)
        assert_allclose(scaled.sharpe, base.sharpe, rtol=1e-10)

    def test_constant_returns_flagged(self):
        R = np.ones((20, 3)) * 0.02
        result = rolling_backtest(R, lambda m: np.eye(3), BacktestConfig(window=10, stride=2))
        assert result.std <= 1e-12
        assert np.isnan(result.sharpe)

    def test_single_estimation_matches_direct(self, rng):
        R = rng.standard_normal((30, 3)) * 0.01
        cfg = BacktestConfig(window=20, stride=10)
        result = rolling_backtest(R, lambda m: np.linalg.inv(m.covariance), cfg)
        assert result.n_estimations == 1
        m = sample_moments(R[:20], divisor=19.0)
        w = min_variance_weights(np.linalg.inv(m.covariance))
        series = R[20:] @ w
        assert_allclose(result.mean, series.mean(), rtol=1e-12)
        assert_allclose(result.std, series.std(ddof=1), rtol=1e-12)

    def test_identity_stub_equals_equal_weight(self, rng):
        R = rng.standard_normal((40, 4)) * 0.02
        result = rolling_backtest(R, lambda m: np.eye(4), BacktestConfig(window=12, stride=3))
        series = R[12:] @ np.full(4, 0.25)
        assert_allclose(result.mean, series.mean(), rtol=1e-12)
        assert_allclose(result.std, series.std(ddof=1), rtol=1e-12)

    def test_estimator_failure_reports_window(self):
        R = np.random.default_rng(0).standard_normal((30, 3))

        def broken(moments):
            raise ValueError("nope")

        with pytest.raises(RuntimeError, match="window starting at row 0"):
            rolling_backtest(R, broken, BacktestConfig(window=25, stride=5))

    def test_weights_failure_reports_window(self):
        R = np.random.default_rng(0).standard_normal((30, 2))
        unit_sum_near_zero = np.array([[1.0, -1.0], [-1.0, 1.0]]) + 1e-14 * np.eye(2)
        with pytest.raises(RuntimeError, match="window starting at row 0") as info:
            rolling_backtest(R, lambda m: unit_sum_near_zero, BacktestConfig(window=25, stride=5))
        assert isinstance(info.value.__cause__, ValueError)


class TestFactoredPath:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.integers(min_value=1, max_value=60),
        n_per_p=st.floats(min_value=0.0, max_value=1.0),
        log10_scale=st.integers(min_value=-8, max_value=8),
        radii=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_factored_solutions_match_dense(self, seed, p, n_per_p, log10_scale, radii):
        # n from 2 to 2p: n <= p gives a rank-deficient covariance
        n = 2 + int(n_per_p * (2 * p - 2))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** (0.5 * log10_scale)
        cov = sample_moments(scale * rng.standard_normal((n, p)), divisor=n - 1).covariance
        rows = scale * rng.standard_normal((3, p))
        radii = np.sqrt(np.trace(cov)) * np.array(radii)
        for rho, solution in zip(radii, wasserstein_shrinkage_path(cov, radii)):
            dense = wasserstein_shrinkage(cov, rho).precision
            assert isinstance(solution.estimate, FactoredPrecision)
            assert np.array_equal(np.asarray(solution.estimate), dense)
            assert np.array_equal(solution.precision, dense)
            w = min_variance_weights(dense)
            assert np.abs(min_variance_weights(solution.estimate) - w).max() <= 1e-12 * np.abs(w).max()
            oos = _oos_square(dense, None, rows)
            assert abs(_oos_square(solution.estimate, None, rows) - oos) <= 1e-12 * oos

    def test_factored_guard_at_least_as_strict(self):
        # sum |X_ij| <= p tr X bounds the dense guard's scale: a matrix it rejects is rejected factored too
        V = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        factored = FactoredPrecision(eigenvectors=V, eigenvalues=np.array([2.0, 1e-14]))
        with pytest.raises(ValueError, match="zero"):
            min_variance_weights(np.asarray(factored))
        with pytest.raises(ValueError, match="zero"):
            min_variance_weights(factored)

    def test_sweep_and_backtest_never_form_the_matrix(self, monkeypatch, rng):
        def refuse(self, dtype=None, copy=None):
            raise AssertionError("a p x p precision was formed")

        covariance = SampleMoments.__dict__["covariance"].func
        formed, eigh_sizes, eigh = [], [], np.linalg.eigh
        monkeypatch.setattr(FactoredPrecision, "__array__", refuse)
        monkeypatch.setattr(SampleMoments, "covariance", property(lambda m: formed.append(m) or covariance(m)))
        monkeypatch.setattr(np.linalg, "eigh", lambda M: eigh_sizes.append(len(M)) or eigh(M))
        # 8 columns: folds of 20 rows and windows of 30 decompose the covariance; 40 columns:
        # every fold and window decomposes its Gram matrix and forms no p x p matrix at all
        for p in (8, 40):
            formed.clear()
            eigh_sizes.clear()
            R = 0.01 * rng.standard_normal((60, p)) + 0.01 * rng.standard_normal((60, 1))
            grid = TuningGrid.from_log10("rho", -3.0, 0.0, 7)
            report = cross_validate(R[:30], analytical_path_estimator, grid, scheme="kfold:3",
                                    score=_oos_square, divisor_policy="n-1")
            assert np.isfinite(report.fold_scores).all()
            result = rolling_backtest(R, lambda m: analytical_path_estimator(m, report.selected),
                                      BacktestConfig(window=30, stride=5))
            assert result.n_estimations == 6
            with pytest.raises(AssertionError, match="formed"):
                np.asarray(analytical_path_estimator(sample_moments(R[:30]), 0.1))
            assert len(eigh_sizes) == 3 + 6 + 1
            if p == 40:
                assert not formed and max(eigh_sizes) == 30
            else:
                assert len(formed) == 3 + 6 + 1 and set(eigh_sizes) == {8}


class TestGramPath:
    """Fewer rows than columns: the path estimator decomposes the n x n Gram matrix."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.integers(min_value=1, max_value=80),
        n_per_p=st.floats(min_value=0.0, max_value=1.0),
        log10_scale=st.integers(min_value=-8, max_value=8),
        log10_cond=st.floats(min_value=0.0, max_value=6.0),
        radii=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_covariance_path(self, seed, p, n_per_p, log10_scale, log10_cond, radii):
        # n from 1 to p; column variances spread by at most 1e6, so each spectrum keeps clear of
        # the 1e-12 rank cut: an eigenvalue near it can be cut on one path and kept on the other,
        # which moves X by far more than rounding.  Over 400 such draws the largest gap was 1.8e-10.
        n = 1 + int(n_per_p * (p - 1))
        rng = np.random.default_rng(seed)
        variances = 10.0 ** (log10_scale + rng.uniform(0.0, log10_cond, p))
        moments = sample_moments(np.sqrt(variances) * rng.standard_normal((n, p)), divisor=max(n - 1, 1))
        cov = moments.covariance
        radii = np.sqrt(np.trace(cov) + 10.0 ** log10_scale) * np.array(radii)
        for rho, estimate in zip(radii, analytical_path_estimator.path(moments, radii)):
            dense = wasserstein_shrinkage(cov, rho).precision
            X = np.asarray(estimate)
            assert np.array_equal(X, X.T)
            assert np.abs(X - dense).max() <= 1e-9 * np.abs(dense).max()
            w = min_variance_weights(dense)
            assert np.abs(min_variance_weights(estimate) - w).max() <= 1e-9 * np.abs(w).max()

    @pytest.mark.parametrize("data", [np.full((1, 6), 3.0), np.tile([1.0, -2.0, 5.0, 0.0, 7.0, 1e8], (4, 1))])
    def test_rank_zero_gives_scaled_identity(self, data):
        # one row, or constant rows: every sample eigenvalue is zero and maps to gamma = p / rho^2
        rho = 0.7
        estimate = analytical_path_estimator(sample_moments(data), rho)
        assert estimate.eigenvectors.shape == (6, 0) and estimate.complement == pytest.approx(6 / rho**2, rel=1e-15)
        X = np.asarray(estimate)
        assert_allclose(X, (6 / rho**2) * np.eye(6), rtol=1e-15, atol=0.0)
        assert_allclose(min_variance_weights(estimate), np.full(6, 1 / 6), rtol=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), p=st.integers(min_value=2, max_value=40),
           n_per_p=st.floats(min_value=0.0, max_value=1.0), k=st.integers(min_value=-8, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_scaling_and_rotation(self, seed, p, n_per_p, k):
        # data -> sqrt(c) data with rho -> sqrt(c) rho gives X -> X / c; data -> data Q^T gives Q X Q^T
        n = 1 + int(n_per_p * (p - 2))
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        rho, c = 0.3 * np.sqrt(np.sum(data**2) / n + 1.0), 10.0**k
        X = np.asarray(analytical_path_estimator(sample_moments(data), rho))
        scaled = np.asarray(analytical_path_estimator(sample_moments(np.sqrt(c) * data), np.sqrt(c) * rho))
        assert np.abs(c * scaled - X).max() <= 1e-9 * np.abs(X).max()
        Q = random_rotation(p, rng)
        rotated = np.asarray(analytical_path_estimator(sample_moments(data @ Q.T), rho))
        assert np.abs(rotated - Q @ X @ Q.T).max() <= 1e-9 * np.abs(X).max()

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5)])
    def test_products_that_overflow_raise(self, shape):
        # finite data whose squares overflow: the Gram path (5 x 8) and the covariance path (8 x 5)
        data = 1e200 * np.random.default_rng(0).standard_normal(shape)
        moments = sample_moments(data)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite|overflow"):
                analytical_path_estimator(moments, 1.0)
            with pytest.raises(ValueError, match="overflow"):
                moments.covariance


class TestBenchmark:
    def test_single_trial_single_point_matches_direct_loss(self):
        spec = SyntheticSpec(dim=4, density=0.5, n_samples=12, trials=1, seed=9)
        grid = TuningGrid("rho", [0.5])
        result = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        sigma0 = synthetic_sigma0(spec)
        data = sample_gaussian(sigma0, 12, spec.seed + 1)
        expected = stein_loss(analytical_estimator(sample_moments(data), 0.5), sigma0)
        assert_allclose(result.losses["w"][0, 0], expected, rtol=1e-12)

    def test_bit_identical_reruns(self):
        spec = SyntheticSpec(dim=4, density=0.5, n_samples=10, trials=3, seed=2)
        grid = TuningGrid("rho", np.geomspace(0.1, 1.0, 4))
        a = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        b = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        assert (a.losses["w"] == b.losses["w"]).all()

    def test_large_sample_small_radius_consistency(self):
        spec = SyntheticSpec(dim=5, density=0.5, n_samples=10_000, trials=1, seed=3)
        grid = TuningGrid("rho", [1e-3])
        result = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        assert result.losses["w"][0, 0] <= 0.1

    def test_summary_quantiles_recomputable(self):
        spec = SyntheticSpec(dim=3, density=0.5, n_samples=8, trials=10, seed=5)
        grid = TuningGrid("rho", np.geomspace(0.1, 1.0, 3))
        result = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        rows = list(result.long_rows())
        assert len(rows) == 10 * 3
        table = np.array([loss for *_, loss in rows]).reshape(10, 3)
        s = result.summary("w")
        assert_allclose(s["q20"], np.quantile(table, 0.2, axis=0), rtol=1e-12)
        assert_allclose(s["q80"], np.quantile(table, 0.8, axis=0), rtol=1e-12)
        assert_allclose(s["mean"], table.mean(axis=0), rtol=1e-12)

    def test_failed_cells_are_inf_and_the_rest_keep_their_losses(self):
        # a failed cell is counted with its first error, as a CV cell is; every other cell, and
        # the other estimator, keep their losses, and each estimator sees the cells in order
        spec = SyntheticSpec(dim=4, density=0.5, n_samples=12, trials=5, seed=9)
        grid = TuningGrid("rho", [0.1, 0.5, 2.0])
        calls = []

        def flaky(moments, rho):
            calls.append(rho)
            if rho == 2.0 and len(calls) != 3:  # trial 1 scores every radius
                raise ConvergenceError(f"trial {len(calls) // 3}")
            return analytical_estimator(moments, rho)

        result = synthetic_benchmark(spec, {"w": analytical_estimator, "f": flaky}, {"w": grid, "f": grid})
        assert calls == [0.1, 0.5, 2.0] * 5
        assert (result.losses["f"][:, :2] == result.losses["w"][:, :2]).all()
        assert result.losses["f"][0, 2] == result.losses["w"][0, 2]
        assert np.isinf(result.losses["f"][1:, 2]).all() and np.isfinite(result.losses["w"]).all()
        assert result.failed["f"].tolist() == [0, 0, 4] and result.failed["w"].tolist() == [0, 0, 0]
        assert result.first_errors["f"] == (None, None, "ConvergenceError: trial 2")
        # four of five trials failed: the mean and both quantiles are inf, with no RuntimeWarning
        s = result.summary("f")
        assert np.isinf([s["mean"][2], s["q20"][2], s["q80"][2]]).all()
        assert (s["q80"][:2] == result.summary("w")["q80"][:2]).all()

    def test_summary_ranks_failed_cells_last(self):
        # with one failure in five, the 20% quantile reads only finite losses and the 80% one
        # reaches the failed cell
        result = BenchmarkResult(spec=None, grids={"w": TuningGrid("rho", [1.0])},
                                 losses={"w": np.array([[3.0], [np.inf], [1.0], [4.0], [2.0]])},
                                 failed={"w": np.array([1])}, first_errors={"w": ("ValueError: x",)})
        s = result.summary("w")
        assert s["q20"][0] == np.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.2) and s["q80"][0] == np.inf

    def test_path_estimator_matches_per_value_losses(self, monkeypatch):
        spec = SyntheticSpec(dim=6, density=0.3, n_samples=5, trials=3, seed=4)  # n < p
        grid = TuningGrid("rho", np.geomspace(0.01, 10.0, 7))
        plain = synthetic_benchmark(spec, {"w": analytical_estimator}, {"w": grid})
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
        path = synthetic_benchmark(spec, {"w": analytical_path_estimator}, {"w": grid})
        assert_allclose(path.losses["w"], plain.losses["w"], rtol=1e-12)
        assert len(calls) == 2 * spec.trials  # sampling and one shrinkage path per trial


class TestSparseEstimator:
    def test_chained_solves_match_cold_ones(self, monkeypatch):
        # the closure starts each solve from its last estimate where that beats the analytical
        # start: the estimates reach the cold solves' robust objective in fewer Newton steps
        spec = SyntheticSpec(dim=20, density=0.05, n_samples=20, trials=1, seed=7)  # rank 19 of 20
        sigma0 = synthetic_sigma0(spec)
        pattern = known_zero_pattern(zero_pattern_of(np.linalg.inv(sigma0)), 0.5, spec.seed)
        moments = sample_moments(sample_gaussian(sigma0, spec.n_samples, spec.seed + 1))
        traces = []

        def counted(*args, **kwargs):
            solution, trace = sqa.sqa_solve(*args, **kwargs)
            traces.append(trace)
            return solution, trace

        monkeypatch.setattr(applications, "sqa_solve", counted)
        estimate = sparse_estimator(pattern)
        radii = np.geomspace(0.1, 10.0, 5)
        cold_iterations = 0
        for rho in np.concatenate((radii, radii[::-1])):
            X = estimate(moments, rho)
            cold, cold_trace = sqa.sqa_solve(moments.covariance, rho, pattern)
            cold_iterations += cold_trace.iterations
            robust = _multiplier_at(moments.covariance, *np.linalg.eigh(X), rho)[1]
            assert abs(robust - cold.objective) <= 1e-8 * abs(cold.objective)
            assert not np.any(X[pattern.mask()])
        assert all(trace.converged for trace in traces)
        assert traces[0].start == "analytical" and any(trace.start == "previous" for trace in traces)
        assert sum(trace.iterations for trace in traces) < cold_iterations

    def test_unconverged_solve_raises_and_still_starts_the_next(self, monkeypatch):
        # an estimate the solver did not converge to is never scored; it is still the next start
        moments = sample_moments(np.random.default_rng(2).normal(0.0, 1.0, (40, 8)))
        pattern = SparsityPattern(8, [(0, 1), (2, 4), (3, 7)])
        starts = []

        def recorded(*args, **kwargs):
            starts.append(kwargs["_start"])
            return sqa.sqa_solve(*args, **kwargs)

        monkeypatch.setattr(applications, "sqa_solve", recorded)
        estimate = sparse_estimator(pattern, SolverConfig(max_iters=1))
        with pytest.raises(ConvergenceError, match=r"^sqa_solve at rho=0\.01: iteration budget \(1\) exhausted$"):
            estimate(moments, 0.01)
        with pytest.raises(ConvergenceError, match=r"at rho=0\.1:"):
            estimate(moments, 0.1)
        assert starts[0] is None and starts[1] is not None
        assert wshrink.ConvergenceError is ConvergenceError and issubclass(ConvergenceError, EstimationError)
