"""Command line front end.

Subcommands: estimate, tune, worstcase, synthetic, lda, portfolio.  Exit
codes: 0 success, 1 user error (bad arguments or input files), 2 solver
error.  Every command is deterministic given its arguments and ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import io
from .analytical import wasserstein_shrinkage
from .applications import (
    BacktestConfig,
    LabeledDataset,
    SyntheticSpec,
    analytical_estimator,
    known_zero_pattern,
    lda_classify,
    lda_fit,
    min_variance_weights,
    pooled_moments,
    rolling_backtest,
    sparse_estimator,
    synthetic_benchmark,
    synthetic_sigma0,
    zero_pattern_of,
)
from .errors import EstimationError
from .evaluation import TuningGrid, cross_validate, linear_shrinkage, make_folds, sample_moments
from .gaussian import as_symmetric
from .sqa import SolverConfig, SparsityPattern, sqa_gradient, sqa_solve
from .worst_case import extremal_for_optimal

EXIT_OK = 0
EXIT_USER = 1
EXIT_SOLVER = 2


class UserError(Exception):
    pass


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if args.tol is not None:
        kwargs["grad_tol"] = args.tol
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    return SolverConfig(**kwargs)


def _load_grid(spec: str) -> TuningGrid:
    """Grid from inline JSON or a JSON file:
    ``{"param": "rho", "log10_from": -1, "log10_to": 2, "points": 61}``."""
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UserError(f"cannot read grid file {spec!r}: {exc}") from None
    try:
        doc = json.loads(text)
        return TuningGrid.from_log10(doc["param"], float(doc["log10_from"]),
                                     float(doc["log10_to"]), int(doc["points"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UserError(f"invalid grid specification: {exc}") from None


def _moments_from_args(args):
    data = io.read_matrix_csv(args.input)
    if args.divisor == "pooled":
        if not args.labels:
            raise UserError("--divisor pooled requires --labels")
        labels = io.read_labels_csv(args.labels)
        return pooled_moments(LabeledDataset(data, labels)), data
    n = data.shape[0]
    divisor = float(n) if args.divisor == "n" else float(n - 1)
    if divisor < 1:
        raise UserError("need at least 2 observations for divisor n-1")
    return sample_moments(data, divisor=divisor), data


def _estimator_for(param: str, pattern: SparsityPattern | None, config: SolverConfig):
    if param == "alpha":
        if pattern is not None:
            raise UserError("--pattern cannot be combined with an alpha grid")
        return lambda moments, value: linear_shrinkage(moments, value)
    if pattern is None:
        return analytical_estimator
    return sparse_estimator(pattern, config)


def cmd_estimate(args) -> int:
    if args.rho is None:
        raise UserError("estimate requires --rho")
    moments, _ = _moments_from_args(args)
    pattern = io.read_pattern_json(args.pattern) if args.pattern else None
    config = _solver_config(args)
    start = time.perf_counter()
    if pattern is None:
        solution = wasserstein_shrinkage(moments.covariance, args.rho)
        try:
            g_mat, g_gamma = sqa_gradient(moments.covariance, solution.precision,
                                          solution.dual_multiplier, args.rho)
            grad_norm = float(np.sqrt(np.sum(g_mat**2) + g_gamma**2))
        except ValueError:
            grad_norm = None  # rank-deficient covariance: multiplier sits on the cone boundary
        iterations = solution.iterations
    else:
        solution, trace = sqa_solve(moments.covariance, args.rho, pattern, config)
        grad_norm = trace.grad_norms[-1] if trace.grad_norms else None
        iterations = trace.iterations
        if not trace.converged:
            print(f"warning: {trace.message}", file=sys.stderr)
    wall_ms = (time.perf_counter() - start) * 1e3
    io.write_matrix_csv(args.output, solution.precision)
    io.write_json(_diagnostics_path(args.output), {
        "command": "estimate",
        "rho": args.rho,
        "p": int(moments.covariance.shape[0]),
        "n": moments.sample_count,
        "divisor": moments.divisor,
        "gamma_star": solution.dual_multiplier,
        "objective": solution.objective,
        "iterations": iterations,
        "projected_grad_norm": grad_norm,
        "wall_ms": wall_ms,
    })
    return EXIT_OK


def _diagnostics_path(output: str) -> str:
    return output[: -len(".csv")] + ".json" if output.endswith(".csv") else output + ".json"


def cmd_tune(args) -> int:
    if args.grid is None:
        raise UserError("tune requires --grid")
    grid = _load_grid(args.grid)
    if args.divisor == "pooled":
        raise UserError("tune works on unlabeled data; use --divisor n or n-1")
    data = io.read_matrix_csv(args.input)
    pattern = io.read_pattern_json(args.pattern) if args.pattern else None
    config = _solver_config(args)
    estimator = _estimator_for(grid.name, pattern, config)
    report = cross_validate(
        data, estimator, grid, scheme=args.cv, seed=args.seed,
        divisor_policy="n-1" if args.divisor == "n-1" else "n",
    )
    io.write_json(args.output, {
        "command": "tune",
        "param": report.param_name,
        "values": report.values.tolist(),
        "mean_scores": report.mean_scores.tolist(),
        "fold_scores": report.fold_scores.tolist(),
        "selected": report.selected,
        "mode": report.mode,
        "scheme": report.scheme,
        "seed": report.seed,
    })
    print(f"selected {report.param_name} = {report.selected:.17g}")
    return EXIT_OK


def cmd_worstcase(args) -> int:
    if args.rho is None:
        raise UserError("worstcase requires --rho")
    cov = io.read_matrix_csv(args.input)
    try:
        cov = as_symmetric(cov, name="input covariance")
    except ValueError as exc:
        raise UserError(str(exc)) from None
    result = extremal_for_optimal(cov, args.rho)
    if abs(result.attained_distance - args.rho) > 1e-6:
        print(
            f"error: attained distance {result.attained_distance:.12g} deviates from rho={args.rho:g}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    io.write_matrix_csv(args.output, result.covariance)
    io.write_json(_diagnostics_path(args.output), {
        "command": "worstcase",
        "rho": args.rho,
        "multiplier": result.multiplier,
        "attained_distance": result.attained_distance,
        "attained_value": result.attained_value,
    })
    return EXIT_OK


def cmd_synthetic(args) -> int:
    spec = SyntheticSpec(dim=args.p, density=args.density, n_samples=args.n,
                         trials=args.trials, seed=args.seed)
    grid = _load_grid(args.grid) if args.grid else TuningGrid.from_log10("rho", -2.0, 1.0, args.grid_points)
    config = _solver_config(args)
    estimators = {"wasserstein": analytical_estimator}
    grids = {"wasserstein": grid}
    if args.known_zeros:
        truth = zero_pattern_of(np.linalg.inv(synthetic_sigma0(spec)))
        for frac in args.known_zeros:
            pattern = known_zero_pattern(truth, frac, spec.seed)
            name = f"wasserstein+zeros{int(round(frac * 100))}"
            estimators[name] = sparse_estimator(pattern, config)
            grids[name] = grid
    result = synthetic_benchmark(spec, estimators, grids)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,estimator,param,loss\n")
        for trial, name, value, loss in result.long_rows():
            fh.write(f"{trial},{name},{value:.17g},{loss:.17g}\n")
    summary_path = args.output[: -len(".csv")] + "_summary.csv" if args.output.endswith(".csv") \
        else args.output + "_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("estimator,param,mean,q20,q80\n")
        for name in estimators:
            s = result.summary(name)
            for g, value in enumerate(s["values"]):
                fh.write(f"{name},{value:.17g},{s['mean'][g]:.17g},{s['q20'][g]:.17g},{s['q80'][g]:.17g}\n")
    return EXIT_OK


def cmd_lda(args) -> int:
    data = io.read_matrix_csv(args.input)
    if not args.labels:
        raise UserError("lda requires --labels")
    labels = io.read_labels_csv(args.labels)
    dataset = LabeledDataset(data, labels)
    report_doc = {"command": "lda", "n": int(data.shape[0]), "p": int(data.shape[1])}
    if args.grid:
        grid = _load_grid(args.grid)
        if grid.name != "rho":
            raise UserError("lda tunes the rho grid")
        # classification CV scores whole folds against their labels, so it
        # runs its own sweep instead of going through cross_validate
        folds = make_folds(data.shape[0], args.cv, args.seed)
        scores = np.zeros((len(folds), grid.values.size))
        for k, fold in enumerate(folds):
            mask = np.ones(data.shape[0], dtype=bool)
            mask[fold] = False
            try:
                train = LabeledDataset(data[mask], labels[mask])
            except ValueError as exc:
                raise UserError(f"fold {k}: {exc}") from None
            for g, rho in enumerate(grid.values):
                model = lda_fit(train, lambda m, r=rho: analytical_estimator(m, r))
                predicted = lda_classify(model, data[fold])
                scores[k, g] = float(np.mean(predicted == labels[fold]))
        mean_acc = scores.mean(axis=0)
        best = int(np.argmax(mean_acc))
        rho = float(grid.values[best])
        report_doc.update({
            "values": grid.values.tolist(),
            "mean_accuracy": mean_acc.tolist(),
            "selected_rho": rho,
            "scheme": args.cv,
            "seed": args.seed,
        })
    elif args.rho is not None:
        rho = args.rho
        report_doc["selected_rho"] = rho
    else:
        raise UserError("lda requires --rho or --grid")

    model = lda_fit(dataset, lambda moments: analytical_estimator(moments, rho))
    train_acc = float(np.mean(lda_classify(model, data) == labels))
    report_doc["train_accuracy"] = train_acc
    if args.test_input:
        test = io.read_matrix_csv(args.test_input)
        predictions = lda_classify(model, test)
        stem = args.output[: -len(".json")] if args.output.endswith(".json") else args.output
        pred_path = stem + "_predictions.csv"
        with open(pred_path, "w", encoding="utf-8", newline="\n") as fh:
            for label in np.atleast_1d(predictions):
                fh.write(f"{label}\n")
        report_doc["predictions"] = pred_path
        if args.test_labels:
            test_labels = io.read_labels_csv(args.test_labels)
            report_doc["test_accuracy"] = float(np.mean(np.atleast_1d(predictions) == test_labels))
    io.write_json(args.output, report_doc)
    return EXIT_OK


def _oos_square(precision, train_moments, val_rows) -> float:
    """CV score: mean squared held-out return of the minimum-variance portfolio."""
    w = min_variance_weights(precision)
    r = np.atleast_2d(val_rows) @ w
    return float(np.mean(r * r))


def cmd_portfolio(args) -> int:
    returns = io.read_matrix_csv(args.input)
    config = BacktestConfig(window=args.window, stride=args.stride)
    report_doc = {"command": "portfolio", "window": args.window, "stride": args.stride}
    if args.grid:
        grid = _load_grid(args.grid)
        if returns.shape[0] <= args.window:
            raise UserError("not enough observations for the training window")
        train = returns[: args.window]
        estimator = _estimator_for(grid.name, None, _solver_config(args))
        report = cross_validate(train, estimator, grid, scheme=args.cv, score=_oos_square,
                                seed=args.seed, divisor_policy="n-1")
        value = report.selected
        report_doc.update({"values": report.values.tolist(),
                           "mean_scores": report.mean_scores.tolist(),
                           "selected": value, "param": grid.name, "scheme": args.cv})
        param_name = grid.name
    elif args.rho is not None:
        value, param_name = args.rho, "rho"
        report_doc.update({"selected": value, "param": "rho"})
    else:
        raise UserError("portfolio requires --rho or --grid")

    if param_name == "rho":
        estimator = lambda moments: analytical_estimator(moments, value)  # noqa: E731
    else:
        estimator = lambda moments: linear_shrinkage(moments, value)  # noqa: E731
    result = rolling_backtest(returns, estimator, config)
    report_doc.update({
        "mean": result.mean,
        "std": result.std,
        "sharpe": None if np.isnan(result.sharpe) else result.sharpe,
        "sharpe_undefined": bool(np.isnan(result.sharpe)),
        "n_estimations": result.n_estimations,
        "n_oos_returns": int(result.returns.size),
    })
    io.write_json(args.output, report_doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wshrink",
        description="Wasserstein-robust precision matrix estimation and evaluation pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_required=True):
        if input_required:
            p.add_argument("--input", required=True, help="input CSV (rows = observations)")
        p.add_argument("--labels", help="label CSV aligned with --input rows")
        p.add_argument("--rho", type=float, help="ambiguity radius (> 0)")
        p.add_argument("--grid", help="grid JSON file or inline JSON")
        p.add_argument("--pattern", help="sparsity pattern JSON file")
        p.add_argument("--divisor", choices=["n", "n-1", "pooled"], default="n",
                       help="covariance degrees-of-freedom divisor")
        p.add_argument("--cv", default="loo", help="cross-validation scheme: loo or kfold:K")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", required=True, help="output path")
        p.add_argument("--tol", type=float, help="solver gradient tolerance override")
        p.add_argument("--max-iters", type=int, dest="max_iters", help="solver iteration cap override")

    p_est = sub.add_parser("estimate", help="estimate a precision matrix at a fixed radius")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_tune = sub.add_parser("tune", help="cross-validate a tuning grid")
    common(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_wc = sub.add_parser("worstcase", help="extremal covariance at the optimal estimator")
    common(p_wc)
    p_wc.set_defaults(func=cmd_worstcase)

    p_syn = sub.add_parser("synthetic", help="synthetic Stein-loss benchmark")
    common(p_syn, input_required=False)
    p_syn.add_argument("--p", type=int, required=True, help="dimension")
    p_syn.add_argument("--density", type=float, required=True, help="ground-truth density in (0, 1]")
    p_syn.add_argument("--n", type=int, required=True, help="samples per trial")
    p_syn.add_argument("--trials", type=int, default=100)
    p_syn.add_argument("--grid-points", type=int, default=25, dest="grid_points")
    p_syn.add_argument("--known-zeros", type=float, nargs="*", dest="known_zeros",
                       help="fractions of true zeros supplied as constraints, e.g. 0.5 1.0")
    p_syn.set_defaults(func=cmd_synthetic)

    p_lda = sub.add_parser("lda", help="linear discriminant classification")
    common(p_lda)
    p_lda.add_argument("--test-input", dest="test_input", help="features to classify after fitting")
    p_lda.add_argument("--test-labels", dest="test_labels", help="labels for --test-input accuracy")
    p_lda.set_defaults(func=cmd_lda)

    p_pf = sub.add_parser("portfolio", help="rolling minimum-variance backtest")
    common(p_pf)
    p_pf.add_argument("--window", type=int, default=120)
    p_pf.add_argument("--stride", type=int, default=3)
    p_pf.set_defaults(func=cmd_portfolio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rho is not None and args.grid is not None:
        print("error: --rho and --grid are mutually exclusive", file=sys.stderr)
        return EXIT_USER
    try:
        return args.func(args)
    except (UserError, ValueError, FileNotFoundError) as exc:  # io.ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except EstimationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
