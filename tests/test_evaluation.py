import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshrink import _kernels
from wshrink.applications import analytical_estimator, analytical_path_estimator
from wshrink.cli import _oos_square
from wshrink.errors import EstimationError, SingularMatrixError
from wshrink.evaluation import (
    CLASSIFICATION_RHO_GRID,
    TuningGrid,
    cross_validate,
    gaussian_validation_nll,
    linear_shrinkage,
    make_folds,
    sample_moments,
    stein_loss,
)

from conftest import random_rotation, random_spd


class TestSampleMoments:
    def test_two_point_example(self):
        m = sample_moments(np.array([[0.0], [2.0]]), divisor=2.0)
        assert_allclose(m.mean, [1.0])
        assert_allclose(m.covariance, [[1.0]])

    def test_identical_rows_give_zero_covariance(self):
        m = sample_moments(np.ones((5, 3)))
        assert_allclose(m.covariance, np.zeros((3, 3)))

    def test_divisor_scaling_exact(self, rng):
        X = rng.standard_normal((10, 3))
        biased = sample_moments(X)  # divisor n
        corrected = sample_moments(X, divisor=9.0)
        assert_allclose(biased.covariance * (10.0 / 9.0), corrected.covariance, rtol=1e-15)

    def test_covariance_formed_on_request_and_cached(self, rng):
        X = rng.standard_normal((6, 4))
        m = sample_moments(X, divisor=5.0)
        assert "covariance" not in vars(m)
        resid = X - X.mean(axis=0)
        assert np.array_equal(m.residuals, resid)
        assert np.array_equal(m.covariance, resid.T @ resid / 5.0)
        assert m.covariance is m.covariance

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            sample_moments(np.empty((0, 2)))
        with pytest.raises(ValueError, match="finite"):
            sample_moments(np.array([[np.inf, 0.0]]))

    def test_rejects_divisor_below_one(self):
        with pytest.raises(ValueError, match="divisor"):
            sample_moments(np.ones((2, 2)), divisor=0.5)

    @pytest.mark.parametrize("divisor", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_divisor(self, divisor):
        # an infinite divisor would give a zero covariance, and NaN would fail later as an overflow
        with pytest.raises(ValueError, match=re.escape(f"divisor must be finite and >= 1, got {divisor!r}")):
            sample_moments(np.ones((2, 2)), divisor=divisor)


class TestLinearShrinkage:
    def test_alpha_one_inverts_diagonal(self, rng):
        m = sample_moments(rng.standard_normal((10, 4)))
        out = linear_shrinkage(m, 1.0)
        assert_allclose(out, np.diag(1.0 / np.diag(m.covariance)), rtol=1e-12)

    def test_alpha_zero_inverts_covariance(self, rng):
        cov = random_spd(4, rng)
        out = linear_shrinkage(cov, 0.0)
        assert_allclose(out, np.linalg.inv(cov), rtol=1e-10)
        assert np.array_equal(out, out.T)  # W W^T is formed exactly symmetric, with no mirroring

    def test_diagonal_input_ignores_alpha(self):
        cov = np.diag([2.0, 5.0])
        for alpha in (0.0, 0.3, 1.0):
            assert_allclose(linear_shrinkage(cov, alpha), np.diag([0.5, 0.2]), rtol=1e-12)

    def test_singular_blend_raises(self, rng):
        data = rng.standard_normal((3, 5))  # n < p: covariance rank deficient
        m = sample_moments(data)
        with pytest.raises(SingularMatrixError):
            linear_shrinkage(m, 0.0)
        assert np.linalg.eigvalsh(linear_shrinkage(m, 0.5))[0] > 0.0

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            linear_shrinkage(np.eye(2), 1.5)


class TestSteinLoss:
    def test_zero_at_exact_inverse(self, rng):
        cov = random_spd(5, rng)
        assert stein_loss(np.linalg.inv(cov), cov) <= 1e-10

    def test_scalar_example(self):
        assert_allclose(stein_loss([[2.0]], [[1.0]]), -np.log(2.0) + 1.0, atol=1e-14)

    def test_positive_away_from_inverse(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 5))
            X = random_spd(p, rng, scale=float(rng.uniform(0.2, 3.0)))
            S = random_spd(p, rng, scale=float(rng.uniform(0.2, 3.0)))
            assert stein_loss(X, S) >= -1e-10

    def test_rotation_invariance(self, rng):
        X = random_spd(4, rng)
        S = random_spd(4, rng)
        base = stein_loss(X, S)
        for _ in range(5):
            R = random_rotation(4, rng)
            assert abs(stein_loss(R @ X @ R.T, R @ S @ R.T) - base) <= 1e-8 * max(1.0, abs(base))

    def test_rejects_singular(self, rng):
        with pytest.raises(SingularMatrixError):
            stein_loss(np.diag([1.0, 0.0]), np.eye(2))


class TestGaussianValidationNll:
    @pytest.mark.parametrize("precision", [-np.eye(2), np.diag([-1.0, -2.0, 3.0])], ids=["minus_I", "two_negative"])
    def test_rejects_indefinite_with_positive_determinant(self, precision, rng):
        # an even number of negative eigenvalues gives a positive determinant: its sign decides nothing
        p = precision.shape[0]
        moments = sample_moments(rng.standard_normal((6, p)))
        with pytest.raises(SingularMatrixError, match="precision is not positive definite"):
            gaussian_validation_nll(precision, moments, rng.standard_normal((3, p)))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=1, max_value=10),
        log10_scale=st.floats(min_value=-8.0, max_value=8.0),
        log10_precision_scale=st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_differs_from_stein_loss_by_a_constant_of_the_fold(self, seed, p, extra, log10_scale,
                                                               log10_precision_scale):
        # -log det X + <S_val, X> less Stein's loss against S_val is log det S_val + p, for any X
        rng = np.random.default_rng(seed)
        scale = 10.0**log10_scale
        X = random_spd(p, rng, scale=10.0**log10_precision_scale)
        train = sample_moments(scale * rng.standard_normal((p + 2, p)))
        rows = scale * rng.standard_normal((p + extra, p))
        resid = rows - train.mean
        S_val = resid.T @ resid / rows.shape[0]
        nll, stein = gaussian_validation_nll(X, train, rows), stein_loss(X, S_val)
        logdet_X, logdet_S = np.linalg.slogdet(X)[1], np.linalg.slogdet(S_val)[1]
        magnitude = abs(logdet_X) + abs(np.sum(S_val * X)) + abs(logdet_S) + p
        assert abs((nll - stein) - (logdet_S + p)) <= 1e-12 * magnitude


class TestTuningGrid:
    def test_paper_grids(self):
        j = np.arange(61)
        assert_allclose(CLASSIFICATION_RHO_GRID.values, 10.0 ** (j / 20.0 - 1.0), rtol=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TuningGrid("rho", [1.0, 1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            TuningGrid("rho", [0.0, 1.0])

    @pytest.mark.parametrize("points", [2.5, 2.0, True, "3"])
    def test_from_log10_rejects_non_integer_points(self, points):
        with pytest.raises(ValueError, match=re.escape(f"points must be an integer, got {points!r}")):
            TuningGrid.from_log10("rho", 0.0, 1.0, points)


class TestFolds:
    def test_pure_function_of_inputs(self):
        a = make_folds(10, "kfold:3", seed=7)
        b = make_folds(10, "kfold:3", seed=7)
        assert all((x == y).all() for x, y in zip(a, b))
        c = make_folds(10, "kfold:3", seed=8)
        assert any((x.size != y.size) or (x != y).any() for x, y in zip(a, c))

    def test_loo_gives_n_singletons(self):
        folds = make_folds(6, "loo")
        assert len(folds) == 6
        assert sorted(int(f[0]) for f in folds) == list(range(6))

    def test_partition_property(self):
        folds = make_folds(13, "kfold:4", seed=3)
        joined = np.sort(np.concatenate(folds))
        assert (joined == np.arange(13)).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_folds(1, "loo")
        with pytest.raises(ValueError):
            make_folds(3, "kfold:4")
        with pytest.raises(ValueError, match="scheme"):
            make_folds(5, "bootstrap")

    @pytest.mark.parametrize("n", [10.0, np.float64(10.0), True])
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            make_folds(n, "kfold:3")

    @pytest.mark.parametrize("seed", [1.5, 2.0, None])
    def test_rejects_non_integer_seed(self, seed):
        # a fold assignment is a pure function of its seed: None would draw a fresh one
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            make_folds(10, "kfold:3", seed)

    @pytest.mark.parametrize("scheme", ["kfold:x", "kfold:", "kfold:3.0", "kfold: 3"])
    def test_non_integer_fold_count_is_an_unknown_scheme(self, scheme):
        with pytest.raises(ValueError, match=re.escape(f"unknown scheme {scheme!r}")):
            make_folds(10, scheme)

    def test_accepts_numpy_integers(self):
        folds = make_folds(np.int64(10), "kfold:3", np.int32(7))
        assert all((a == b).all() for a, b in zip(folds, make_folds(10, "kfold:3", 7)))


class TestCrossValidate:
    @staticmethod
    def _inverse_estimator(moments, value):
        p = moments.covariance.shape[0]
        return np.linalg.inv(moments.covariance + value * np.eye(p))

    def test_single_point_selected(self, rng):
        data = rng.standard_normal((8, 3))
        report = cross_validate(data, self._inverse_estimator, TuningGrid("rho", [0.5]), scheme="kfold:2")
        assert report.selected == 0.5

    def test_sweep_matches_independent_recompute(self, rng):
        data = rng.standard_normal((40, 5))
        grid = TuningGrid("rho", np.geomspace(0.05, 5.0, 9))
        report = cross_validate(data, self._inverse_estimator, grid, scheme="kfold:4", seed=11)
        folds = make_folds(40, "kfold:4", seed=11)
        recomputed = np.zeros((4, 9))
        for k, fold in enumerate(folds):
            mask = np.ones(40, dtype=bool)
            mask[fold] = False
            m = sample_moments(data[mask])
            for g, value in enumerate(grid.values):
                prec = self._inverse_estimator(m, value)
                recomputed[k, g] = gaussian_validation_nll(prec, m, data[fold])
        assert_allclose(report.fold_scores, recomputed, rtol=1e-12)
        assert report.selected == grid.values[np.argmin(recomputed.mean(axis=0))]

    def test_estimator_failure_scored_infinite(self, rng):
        data = rng.standard_normal((10, 3))

        def flaky(moments, value):
            if value > 1.0:
                raise ValueError("boom")
            return self._inverse_estimator(moments, value)

        report = cross_validate(data, flaky, TuningGrid("rho", [0.5, 2.0]), scheme="kfold:2")
        assert np.isinf(report.fold_scores[:, 1]).all()
        assert report.selected == 0.5
        assert report.failed_folds.tolist() == [0, 2]
        assert report.first_errors == (None, "ValueError: boom")

    def test_no_selection_when_no_value_scored(self, rng):
        # each value fails on one fold: no mean score is finite, so none is selected
        calls = []

        def fails_per_value(moments, value):
            calls.append(value)
            if len(calls) in (1, 4):  # fold 0, first value; fold 1, second value
                raise EstimationError("no root")
            return self._inverse_estimator(moments, value)

        report = cross_validate(rng.standard_normal((10, 3)), fails_per_value, TuningGrid("rho", [0.5, 2.0]),
                                scheme="kfold:2")
        assert np.isinf(report.mean_scores).all() and np.isnan(report.selected)
        assert report.failed_folds.tolist() == [1, 1]
        assert report.first_errors == ("EstimationError: no root", "EstimationError: no root")

    def test_indefinite_estimate_fails_its_folds(self, rng):
        # negating the two largest eigenvalues keeps the determinant's sign and lowers the
        # held-out score: were the sign the test, rho = 1 would be selected with no failed fold
        data = rng.standard_normal((12, 4))

        def negates_two_at_one(moments, value):
            w, V = np.linalg.eigh(self._inverse_estimator(moments, value))
            if value == 1.0:
                w[-2:] *= -1.0
            return (V * w) @ V.T

        report = cross_validate(data, negates_two_at_one, TuningGrid("rho", [0.5, 1.0]), scheme="kfold:3")
        assert report.failed_folds.tolist() == [0, 3]
        assert report.first_errors[1].startswith("SingularMatrixError: precision is not positive definite")
        assert report.selected == 0.5

    def test_ties_break_to_smallest(self, rng):
        data = rng.standard_normal((6, 2))
        report = cross_validate(
            data, lambda m, v: np.eye(2), TuningGrid("x", [1.0, 2.0]),
            scheme="kfold:2", score=lambda prec, m, val: 42.0,
        )
        assert report.selected == 1.0

    def test_per_value_failure_fails_only_its_cell(self, rng):
        data = rng.standard_normal((10, 3))
        calls = []

        def fails_once(moments, value):
            calls.append(value)
            if len(calls) == 2:  # fold 0, second grid value
                raise np.linalg.LinAlgError("singular")
            return self._inverse_estimator(moments, value)

        grid = TuningGrid("rho", [0.5, 1.0, 2.0])
        report = cross_validate(data, fails_once, grid, scheme="kfold:2")
        reference = cross_validate(data, self._inverse_estimator, grid, scheme="kfold:2")
        failed = np.zeros((2, 3), dtype=bool)
        failed[0, 1] = True
        assert np.isinf(report.fold_scores[failed]).all()
        assert_allclose(report.fold_scores[~failed], reference.fold_scores[~failed], rtol=0)
        assert report.failed_folds.tolist() == [0, 1, 0]
        assert report.first_errors == (None, "LinAlgError: singular", None)

    def _path_estimator(self, path):
        def estimate(moments, value):
            raise AssertionError("the path must be used")

        estimate.path = path
        return estimate

    def test_path_that_raises_fails_the_rest_of_its_fold(self, rng):
        data = rng.standard_normal((10, 3))
        grid = TuningGrid("rho", [0.25, 0.5, 1.0, 2.0])
        folds_seen = []

        def path(moments, values):
            folds_seen.append(moments)
            for g, value in enumerate(values):
                if len(folds_seen) == 1 and g == 2:  # fold 0 stops after two values
                    raise ValueError("diverged")
                yield self._inverse_estimator(moments, value)

        report = cross_validate(data, self._path_estimator(path), grid, scheme="kfold:2")
        reference = cross_validate(data, self._inverse_estimator, grid, scheme="kfold:2")
        assert len(folds_seen) == 2
        assert np.isinf(report.fold_scores[0, 2:]).all()
        assert_allclose(report.fold_scores[0, :2], reference.fold_scores[0, :2], rtol=0)
        assert_allclose(report.fold_scores[1], reference.fold_scores[1], rtol=0)
        assert report.failed_folds.tolist() == [0, 0, 1, 1]
        assert report.first_errors == (None, None, "ValueError: diverged", "ValueError: diverged")

    def test_score_failure_on_a_path_fails_only_its_cell(self, rng):
        data = rng.standard_normal((10, 3))
        grid = TuningGrid("rho", [0.5, 1.0, 2.0])
        path = lambda m, values: (self._inverse_estimator(m, v) for v in values)  # noqa: E731

        def score(precision, moments, rows):
            if precision[0, 0] == self._inverse_estimator(moments, 1.0)[0, 0]:
                raise SingularMatrixError("score")
            return gaussian_validation_nll(precision, moments, rows)

        report = cross_validate(data, self._path_estimator(path), grid, scheme="kfold:2", score=score)
        assert np.isinf(report.fold_scores[:, 1]).all()
        assert np.isfinite(report.fold_scores[:, [0, 2]]).all()
        assert report.failed_folds.tolist() == [0, 2, 0]

    def test_short_path_fails_the_values_it_left_out(self, rng):
        data = rng.standard_normal((10, 3))
        grid = TuningGrid("rho", [0.5, 1.0, 2.0])
        path = lambda m, values: (self._inverse_estimator(m, v) for v in values[:2])  # noqa: E731
        report = cross_validate(data, self._path_estimator(path), grid, scheme="kfold:2")
        assert np.isfinite(report.fold_scores[:, :2]).all()
        assert report.failed_folds.tolist() == [0, 0, 2]
        assert report.first_errors[2].startswith("ValueError")

    def test_unconverged_multiplier_fails_its_cells(self, rng, monkeypatch):
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        grid = TuningGrid("rho", [0.5, 1.0])
        for estimator in (analytical_estimator, analytical_path_estimator):
            report = cross_validate(rng.standard_normal((10, 3)), estimator, grid, scheme="kfold:2")
            assert np.isinf(report.fold_scores).all()
            assert report.failed_folds.tolist() == [2, 2]
            assert all(e.startswith("EstimationError: multiplier root solve") for e in report.first_errors)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=5, max_value=12),
        p=st.integers(min_value=1, max_value=10),
        scheme=st.sampled_from(["loo", "kfold:5"]),
        log10_scale=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_estimator_matches_per_value_sweep(self, seed, n, p, scheme, log10_scale):
        # p >= n gives rank-deficient training covariances; kfold:5 scores the
        # portfolio's out-of-sample square, loo the held-out likelihood
        rng = np.random.default_rng(seed)
        data = 10.0**log10_scale * rng.standard_normal((n, p)) + rng.standard_normal(p)
        grid = TuningGrid.from_log10("rho", log10_scale - 2.0, log10_scale + 1.0, 9)
        score = _oos_square if scheme == "kfold:5" else None
        args = dict(scheme=scheme, score=score, seed=seed % 7, divisor_policy="n-1")
        plain = cross_validate(data, analytical_estimator, grid, **args)
        path = cross_validate(data, analytical_path_estimator, grid, **args)
        scale = np.abs(plain.fold_scores[np.isfinite(plain.fold_scores)]).max(initial=0.0)
        assert_allclose(path.fold_scores, plain.fold_scores, rtol=1e-10, atol=1e-10 * scale)
        assert path.selected == plain.selected
        assert (path.failed_folds == plain.failed_folds).all()
