"""Each correctness check passes on the package's output and fails on a perturbed one."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import wshrink  # noqa: E402
from wsbench import reference as ref  # noqa: E402
from wsbench.workloads import PortfolioCLI, SparseSynthetic, TuneCV  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_reference_shrinkage_matches_package(rng):
    cov = np.cov(rng.standard_normal((12, 6)), rowvar=False)
    precision, objective = ref.shrinkage(cov, 0.7)
    solution = wshrink.wasserstein_shrinkage(cov, 0.7)
    assert np.allclose(precision, solution.precision, rtol=1e-10, atol=0.0)
    assert objective == pytest.approx(solution.objective, rel=1e-10)
    assert ref.robust_objective(precision, cov, 0.7) == pytest.approx(objective, rel=1e-10)


def test_tune_cv_cell_check(rng):
    data = rng.standard_normal((8, 4))
    grid = wshrink.TuningGrid.from_log10("rho", -1.0, 1.0, 3)
    report = wshrink.cross_validate(data, wshrink.analytical_estimator, grid, scheme="loo")
    folds = wshrink.make_folds(8, "loo", 0)
    score = report.fold_scores[3, 1]
    assert TuneCV.check_cell(data, folds[3], grid.values[1], score, "cell").ok
    assert not TuneCV.check_cell(data, folds[3], grid.values[1], score * (1 + 1e-6), "cell").ok


def _sparse_case(rng):
    p = 5
    cov = np.cov(rng.standard_normal((20, p)), rowvar=False)
    sigma = np.cov(rng.standard_normal((200, p)), rowvar=False)
    pattern = wshrink.SparsityPattern(p, [(0, 1), (2, 4)])
    captured, losses, objectives = [], [], []
    for rho in (0.3, 1.0):
        solution, trace = wshrink.sqa_solve(cov, rho, pattern)
        captured.append((cov, rho, solution.precision))
        losses.append(wshrink.stein_loss(solution.precision, sigma))
        objectives.append(trace.objectives[-1])
    return pattern.mask(), sigma, np.array(losses), captured, objectives


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_sparse_checks_pass_on_solver_output(rng):
    assert _failed(SparseSynthetic.check_estimates(*_sparse_case(rng), "case")) == set()


def test_sparse_pattern_check_fails_on_nonzero_entry(rng):
    mask, sigma, losses, captured, objectives = _sparse_case(rng)
    X = captured[0][2].copy()
    X[0, 1] = X[1, 0] = 1e-12
    captured[0] = (captured[0][0], captured[0][1], X)
    failed = _failed(SparseSynthetic.check_estimates(mask, sigma, losses, captured, objectives, "case"))
    assert "sparse.pattern_zeros" in failed


def test_sparse_objective_check_fails_below_unconstrained_optimum(rng):
    mask, sigma, losses, captured, objectives = _sparse_case(rng)
    cov, rho, _ = captured[1]
    objectives[1] = ref.shrinkage(cov, rho)[1] * (1 - 1e-6)
    failed = _failed(SparseSynthetic.check_estimates(mask, sigma, losses, captured, objectives, "case"))
    assert failed == {"sparse.objective_above_unconstrained"}


def test_sparse_stein_check_fails_on_perturbed_loss(rng):
    mask, sigma, losses, captured, objectives = _sparse_case(rng)
    losses[0] *= 1 + 1e-6
    failed = _failed(SparseSynthetic.check_estimates(mask, sigma, losses, captured, objectives, "case"))
    assert failed == {"sparse.stein_loss"}


def test_empty_pattern_check(rng):
    cov = np.cov(rng.standard_normal((20, 5)), rowvar=False)
    solution, trace = wshrink.sqa_solve(cov, 0.5, wshrink.SparsityPattern.empty(5))
    optimum = wshrink.wasserstein_shrinkage(cov, 0.5).objective
    assert SparseSynthetic.check_empty_pattern(solution.precision, trace.converged, optimum, cov, 0.5).ok
    perturbed = 1.5 * solution.precision
    assert not SparseSynthetic.check_empty_pattern(perturbed, True, optimum, cov, 0.5).ok
    assert not SparseSynthetic.check_empty_pattern(solution.precision, False, optimum, cov, 0.5).ok


def _portfolio_report(returns, rho):
    config = wshrink.BacktestConfig(window=PortfolioCLI.WINDOW, stride=PortfolioCLI.STRIDE)
    result = wshrink.rolling_backtest(returns, lambda m: wshrink.analytical_estimator(m, rho), config)
    doc = {"schema": 1, "command": "portfolio", "window": PortfolioCLI.WINDOW,
           "stride": PortfolioCLI.STRIDE, "values": [rho], "mean_scores": [1.0], "selected": rho,
           "param": "rho", "scheme": "kfold:5", "mean": result.mean, "std": result.std,
           "n_estimations": result.n_estimations, "n_oos_returns": int(result.returns.size)}
    return doc, result.n_estimations, int(result.returns.size)


def test_portfolio_report_check():
    returns = np.random.default_rng(3).standard_normal((140, 6)) * 0.01
    doc, rebalances, rows = _portfolio_report(returns, 0.1)
    assert PortfolioCLI.check_report(json.dumps(doc), rebalances, rows, "r").ok
    assert not PortfolioCLI.check_report(json.dumps({**doc, "n_estimations": rebalances - 1}),
                                         rebalances, rows, "r").ok
    assert not PortfolioCLI.check_report(json.dumps(doc)[:-1], rebalances, rows, "r").ok
    assert not PortfolioCLI.check_report(json.dumps({**doc, "std": None}), rebalances, rows, "r").ok


def test_portfolio_backtest_check():
    returns = np.random.default_rng(4).standard_normal((140, 6)) * 0.01
    doc, _, _ = _portfolio_report(returns, 0.1)
    assert PortfolioCLI.check_backtest(returns, doc, "r").ok
    assert not PortfolioCLI.check_backtest(returns, {**doc, "std": doc["std"] * (1 + 1e-5)}, "r").ok


def test_portfolio_window_check():
    train = np.random.default_rng(5).standard_normal((20, 30)) * 0.01  # fewer rows than assets
    moments = wshrink.sample_moments(train, divisor=19.0)
    weights = wshrink.min_variance_weights(wshrink.analytical_estimator(moments, 0.05))
    assert PortfolioCLI.check_window(weights, train, 0.05, "w").ok
    perturbed = weights.copy()
    perturbed[:2] += [1e-4, -1e-4]
    assert not PortfolioCLI.check_window(perturbed, train, 0.05, "w").ok
