"""Command line front end.

Each subcommand takes only the flags it reads (``[a | b]``: at most one of
them, ``(a | b)``: exactly one)::

    estimate   --input --rho [--labels | --divisor] --pattern --tol --max-iters --output
    tune       --input --grid --pattern --tol --max-iters --divisor --cv --seed --output
    worstcase  --input --rho --output
    synthetic  --p --density --n --trials [--grid | --grid-points] --known-zeros
               --tol --max-iters --seed --output
    lda        --input --labels (--rho | --grid) --cv --seed --test-input --test-labels --output
    portfolio  --input (--rho | --grid) --cv --seed --window --stride --output

Some flags are read only with another, and are a usage error without it:
``--cv`` and ``--seed`` need ``--grid`` (``lda``, ``portfolio``); ``--tol``
and ``--max-iters`` need ``--pattern`` (``estimate``, ``tune``) or
``--known-zeros`` (``synthetic``); ``--test-labels`` needs ``--test-input``
(``lda``).  A ``--grid`` sweeps a parameter the command reads, else it is a
user error: ``rho`` or ``alpha`` (``tune``, ``portfolio``), ``rho``
(``synthetic``, ``lda``).

A ``--grid`` sweep of ``tune``, ``lda`` or ``portfolio`` writes the same CV
fields: ``param``, ``values``, ``mean_scores``, ``failed_folds``,
``first_errors``, ``selected`` and ``scheme``.  Scores are losses; ``lda``
scores the negated held-out accuracy and also writes ``mean_accuracy``, which
is ``-mean_scores``, and ``selected_rho``.  When no grid value scored on every
fold, ``selected`` is null, the report is still written, and the command stops
there (no final fit, backtest or predictions) with exit code 2.
``--known-zeros`` takes at least one fraction (given empty, it is a usage
error), and two fractions that round to one estimator label
(``wasserstein+zeros50`` for 0.5 and 0.501) are a user error.

Exit codes: 0 success; 1 user error (usage errors, bad arguments or input
files); 2 solver error.  Every command is deterministic given its arguments
and ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
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
    analytical_path_estimator,
    known_zero_pattern,
    lda_classify,
    lda_cross_validate,
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
from .evaluation import TuningGrid, cross_validate, linear_shrinkage, sample_moments
from .gaussian import as_symmetric
from .sqa import SolverConfig, SparsityPattern, sqa_gradient, sqa_solve
from .worst_case import extremal_for_optimal

EXIT_OK = 0
EXIT_USER = 1
EXIT_SOLVER = 2
EXIT_CODES = "exit codes: 0 success; 1 user error (usage, arguments or input files); 2 solver error"


class UserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``UserError`` on a usage error, so that it exits 1 like any other user error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UserError(message)


#: the most values a log-spaced grid may hold: a larger count is an input error, not a size to allocate
MAX_GRID_POINTS = 10_000


def _log10_grid(param: str, log10_from: float, log10_to: float, points: int) -> TuningGrid:
    if points > MAX_GRID_POINTS:
        raise UserError(f"a grid has at most {MAX_GRID_POINTS} points, got {points}")
    return TuningGrid.from_log10(param, log10_from, log10_to, points)


def _load_grid(spec: str, params) -> TuningGrid:
    """Grid from inline JSON or a JSON file:
    ``{"param": "rho", "log10_from": -1, "log10_to": 2, "points": 61}``;
    a ``param`` outside ``params``, the ones the command reads, or ``points``
    that is not integral or exceeds ``MAX_GRID_POINTS``, is a user error."""
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise UserError(f"cannot read grid file {spec!r}: {exc}") from None
    try:
        doc = json.loads(text)
        grid = _log10_grid(doc["param"], float(doc["log10_from"]), float(doc["log10_to"]), io.json_int(doc["points"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UserError(f"invalid grid specification: {exc}") from None
    if grid.name not in params:
        raise UserError(f"grid param {grid.name!r} is not one of {', '.join(params)}")
    return grid


def _derived_path(output: str, extension: str, tail: str) -> str:
    """``output`` less its ``extension``, if it has it, followed by ``tail``."""
    return (output[: -len(extension)] if output.endswith(extension) else output) + tail


def _estimator_for(param: str, pattern: SparsityPattern | None = None, config: SolverConfig | None = None):
    """The ``(moments, value)`` estimator of a grid parameter, for a sweep and for the final fit."""
    if param == "alpha":
        if pattern is not None:
            raise UserError("--pattern cannot be combined with an alpha grid")
        return linear_shrinkage
    if pattern is None:
        return analytical_path_estimator
    return sparse_estimator(pattern, config)


def cmd_estimate(args) -> int:
    data = io.read_matrix_csv(args.input)
    if args.labels:
        moments = pooled_moments(LabeledDataset(data, io.read_labels_csv(args.labels)))
    else:
        n = data.shape[0]
        moments = sample_moments(data, divisor=float(n - 1) if args.divisor == "n-1" else float(n))
    pattern = io.read_pattern_json(args.pattern) if args.pattern else None
    config = SolverConfig(grad_tol=args.tol, max_iters=args.max_iters)
    start = time.perf_counter()
    if pattern is None:
        solution = wasserstein_shrinkage(moments, args.rho)  # n < p: from the n x n Gram matrix
        grad_norm = None  # rank deficient: a zero eigenvalue maps to gamma, on the cone boundary
        if solution.shrunk_eigenvalues[0] < solution.dual_multiplier:
            # the certificate goes through the SQA workspace, so full-rank input loads SciPy
            with contextlib.suppress(ValueError):  # numerically on the boundary
                g_mat, g_gamma = sqa_gradient(moments.covariance, solution.precision,
                                              solution.dual_multiplier, args.rho)
                grad_norm = float(np.sqrt(np.sum(g_mat**2) + g_gamma**2))
        iterations = solution.iterations
        solver = {}
    else:
        solution, trace = sqa_solve(moments.covariance, args.rho, pattern, config)
        grad_norm = trace.grad_norms[-1] if trace.grad_norms else None
        iterations = trace.iterations
        solver = {"converged": trace.converged, "termination": trace.message}
        if not trace.converged:
            print(f"warning: {trace.message}", file=sys.stderr)
    wall_ms = (time.perf_counter() - start) * 1e3
    io.write_matrix_csv(args.output, solution.precision)
    io.write_json(_derived_path(args.output, ".csv", ".json"), {
        "command": "estimate",
        "rho": args.rho,
        "p": int(moments.mean.size),
        "n": moments.sample_count,
        "divisor": moments.divisor,
        "gamma_star": solution.dual_multiplier,
        "objective": solution.objective,
        "iterations": iterations,
        "projected_grad_norm": grad_norm,
        "wall_ms": wall_ms,
        **solver,
    })
    return EXIT_OK


def _cv_fields(report) -> dict:
    """The CV fields that ``tune``, ``lda`` and ``portfolio`` report; ``selected`` is null when no value scored."""
    return {
        "param": report.param_name,
        "values": report.values.tolist(),
        "mean_scores": report.mean_scores.tolist(),
        "failed_folds": report.failed_folds.tolist(),
        "first_errors": report.first_errors,
        "selected": report.selected if np.isfinite(report.selected) else None,
        "scheme": report.scheme,
    }


def _unselected(report) -> bool:
    """True, with the first error printed, when no grid value scored on every fold."""
    if np.isfinite(report.selected):
        return False
    first = next((e for e in report.first_errors if e), "no finite score")
    print(f"solver error: no {report.param_name} value scored on every fold; first error: {first}", file=sys.stderr)
    return True


def cmd_tune(args) -> int:
    grid = _load_grid(args.grid, ("rho", "alpha"))
    data = io.read_matrix_csv(args.input)
    pattern = io.read_pattern_json(args.pattern) if args.pattern else None
    estimator = _estimator_for(grid.name, pattern, SolverConfig(grad_tol=args.tol, max_iters=args.max_iters))
    report = cross_validate(
        data, estimator, grid, scheme=args.cv, seed=args.seed,
        divisor_policy="n-1" if args.divisor == "n-1" else "n",
    )
    io.write_json(args.output, {"command": "tune", **_cv_fields(report),
                                "fold_scores": report.fold_scores.tolist(), "seed": report.seed})
    if _unselected(report):
        return EXIT_SOLVER
    print(f"selected {report.param_name} = {report.selected:.17g}")
    return EXIT_OK


def cmd_worstcase(args) -> int:
    cov = as_symmetric(io.read_matrix_csv(args.input), name="input covariance")
    result = extremal_for_optimal(cov, args.rho)
    if abs(result.attained_distance - args.rho) > 1e-6 * args.rho:  # relative: scale free
        print(
            f"error: attained distance {result.attained_distance:.12g} deviates from rho={args.rho:g}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    io.write_matrix_csv(args.output, result.covariance)
    io.write_json(_derived_path(args.output, ".csv", ".json"), {
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
    if args.grid:
        grid = _load_grid(args.grid, ("rho",))
    else:
        grid = _log10_grid("rho", -2.0, 1.0, 25 if args.grid_points is None else args.grid_points)
    config = SolverConfig(grad_tol=args.tol, max_iters=args.max_iters)
    estimators = {"wasserstein": analytical_path_estimator}
    grids = {"wasserstein": grid}
    if args.known_zeros:
        truth = zero_pattern_of(np.linalg.inv(synthetic_sigma0(spec)))
        fractions = {}  # label -> the fraction that took it: two that round to one label would merge
        for frac in args.known_zeros:
            pattern = known_zero_pattern(truth, frac, spec.seed)
            name = f"wasserstein+zeros{int(round(frac * 100))}"
            if name in fractions:
                raise UserError(f"--known-zeros {fractions[name]} and {frac} both take the label {name}")
            fractions[name] = frac
            estimators[name] = sparse_estimator(pattern, config)
            grids[name] = grid
    result = synthetic_benchmark(spec, estimators, grids)  # a failed cell's loss is inf
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,estimator,param,loss\n")
        for trial, name, value, loss in result.long_rows():
            fh.write(f"{trial},{name},{value:.17g},{loss:.17g}\n")
    with open(_derived_path(args.output, ".csv", "_summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("estimator,param,mean,q20,q80\n")
        for name in estimators:
            s = result.summary(name)
            for g, value in enumerate(s["values"]):
                fh.write(f"{name},{value:.17g},{s['mean'][g]:.17g},{s['q20'][g]:.17g},{s['q80'][g]:.17g}\n")
    code = EXIT_OK
    for name in estimators:
        if result.failed[name].any():
            first = next(e for e in result.first_errors[name] if e)
            print(f"solver error: {name}: {result.failed[name].sum()} of {result.losses[name].size} cells failed;"
                  f" first error: {first}", file=sys.stderr)
            code = EXIT_SOLVER
    return code


def cmd_lda(args) -> int:
    data = io.read_matrix_csv(args.input)
    labels = io.read_labels_csv(args.labels)
    dataset = LabeledDataset(data, labels)
    test = io.read_matrix_csv(args.test_input) if args.test_input else None
    test_labels = io.read_labels_csv(args.test_labels) if args.test_labels else None
    if test_labels is not None and test_labels.shape[0] != test.shape[0]:
        raise UserError(f"--test-labels holds {test_labels.shape[0]} labels for {test.shape[0]} test rows")
    report_doc = {"command": "lda", "n": int(data.shape[0]), "p": int(data.shape[1])}
    rho = args.rho
    if args.grid:
        report = lda_cross_validate(dataset, analytical_path_estimator, _load_grid(args.grid, ("rho",)),
                                    args.cv, args.seed)
        report_doc.update(_cv_fields(report), mean_accuracy=(-report.mean_scores).tolist(), seed=report.seed)
        rho = report_doc["selected"]
    report_doc["selected_rho"] = rho
    if args.grid and _unselected(report):  # no final fit at a radius that no fold scored
        io.write_json(args.output, report_doc)
        return EXIT_SOLVER

    model = lda_fit(dataset, lambda moments: analytical_path_estimator(moments, rho))
    train_acc = float(np.mean(lda_classify(model, data) == labels))
    report_doc["train_accuracy"] = train_acc
    if test is not None:
        predictions = lda_classify(model, test)
        pred_path = _derived_path(args.output, ".json", "_predictions.csv")
        with open(pred_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{label}\n" for label in predictions)
        report_doc["predictions"] = pred_path
        if test_labels is not None:
            report_doc["test_accuracy"] = float(np.mean(predictions == test_labels))
    io.write_json(args.output, report_doc)
    return EXIT_OK


def _oos_square(precision, train_moments, val_rows) -> float:
    """CV score: mean squared held-out return of the minimum-variance portfolio;
    a factored precision is scored without forming its matrix."""
    w = min_variance_weights(precision)
    r = np.atleast_2d(val_rows) @ w
    return float(np.mean(r * r))


def cmd_portfolio(args) -> int:
    returns = io.read_matrix_csv(args.input)
    config = BacktestConfig(window=args.window, stride=args.stride)
    report_doc = {"command": "portfolio", "window": args.window, "stride": args.stride}
    if args.grid:
        grid = _load_grid(args.grid, ("rho", "alpha"))
        if returns.shape[0] <= args.window:
            raise UserError("not enough observations for the training window")
        estimator = _estimator_for(grid.name)
        report = cross_validate(returns[: args.window], estimator, grid, scheme=args.cv, score=_oos_square,
                                seed=args.seed, divisor_policy="n-1")
        value = report.selected
        report_doc.update(_cv_fields(report))
        if _unselected(report):  # no backtest at a radius that no fold scored
            io.write_json(args.output, report_doc)
            return EXIT_SOLVER
    else:
        estimator, value = _estimator_for("rho"), args.rho
        report_doc.update({"selected": value, "param": "rho"})

    result = rolling_backtest(returns, lambda moments: estimator(moments, value), config)
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


#: every flag's declaration; each subcommand adds the ones it reads.  A flag in an
#: exclusive group has no default: argparse lets a flag given its default value pass.
#: A flag that needs another is declared without a default too, so that a given one
#: shows; ``LATE_DEFAULTS`` fills it in once the dependencies are checked.
FLAGS = {
    "--input": dict(required=True, help="input CSV (rows = observations)"),
    "--output": dict(required=True, help="output path"),
    "--rho": dict(type=float, help="ambiguity radius (> 0)"),
    "--grid": dict(help="grid JSON file or inline JSON"),
    "--labels": dict(help="label CSV aligned with --input rows"),
    "--divisor": dict(choices=["n", "n-1"], help="covariance degrees-of-freedom divisor (default n)"),
    "--pattern": dict(help="sparsity pattern JSON file"),
    "--tol": dict(type=float, help=f"solver tolerance (default {SolverConfig.grad_tol:g})"),
    "--max-iters": dict(type=int, help=f"iteration cap (default {SolverConfig.max_iters:d})"),
    "--cv": dict(help="cross-validation scheme: loo or kfold:K (default loo)"),
    "--seed": dict(type=int, help="random seed (default 0)"),
    "--p": dict(type=int, required=True, help="dimension"),
    "--density": dict(type=float, required=True, help="ground-truth density in (0, 1]"),
    "--n": dict(type=int, required=True, help="samples per trial"),
    "--trials": dict(type=int, default=100),
    "--grid-points": dict(type=int, help="radii log-spaced over [1e-2, 1e1] (default 25)"),
    "--known-zeros": dict(type=float, nargs="+", help="fractions of true zeros imposed, e.g. 0.5 1.0"),
    "--test-input": dict(help="features to classify after fitting"),
    "--test-labels": dict(help="labels for --test-input accuracy"),
    "--window": dict(type=int, default=120),
    "--stride": dict(type=int, default=3),
}


LATE_DEFAULTS = {"tol": SolverConfig.grad_tol, "max_iters": SolverConfig.max_iters, "cv": "loo", "seed": 0}


def _add(target, *flags, **overrides):
    for flag in flags:
        target.add_argument(flag, **{**FLAGS[flag], **overrides})


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _resolve(args) -> None:
    """Reject a flag given without the flag it needs (it would be ignored), then
    fill in the defaults of ``LATE_DEFAULTS``; runs before any file is read."""
    for flag, needed in args.needs.items():
        if getattr(args, _dest(flag)) is not None and not getattr(args, _dest(needed)):
            args.parser.error(f"{flag} needs {needed}")
    for dest, value in LATE_DEFAULTS.items():
        if getattr(args, dest, value) is None:
            setattr(args, dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wshrink", epilog=EXIT_CODES,
                     description="Wasserstein-robust precision matrix estimation and evaluation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, needs=()):
        """A subcommand; ``needs`` lists the flags that are read only with another, as pairs."""
        p = sub.add_parser(name, help=summary, description=summary, epilog=EXIT_CODES)
        p.set_defaults(func=func, parser=p, needs=dict(needs))
        return p

    needs_grid = [("--cv", "--grid"), ("--seed", "--grid")]
    needs_pattern = [("--tol", "--pattern"), ("--max-iters", "--pattern")]

    p = command("estimate", cmd_estimate, "estimate a precision matrix at a fixed radius "
                "(with --labels, from the pooled within-class moments)", needs_pattern)
    _add(p, "--input")
    _add(p, "--rho", required=True)
    _add(p.add_mutually_exclusive_group(), "--labels", "--divisor")
    _add(p, "--pattern", "--tol", "--max-iters", "--output")

    p = command("tune", cmd_tune, "cross-validate a tuning grid", needs_pattern)
    _add(p, "--input")
    _add(p, "--grid", required=True)
    _add(p, "--pattern", "--tol", "--max-iters", "--divisor", "--cv", "--seed", "--output")

    p = command("worstcase", cmd_worstcase, "extremal covariance at the optimal estimator")
    _add(p, "--input")
    _add(p, "--rho", required=True)
    _add(p, "--output")

    p = command("synthetic", cmd_synthetic, "synthetic Stein-loss benchmark",
                [("--tol", "--known-zeros"), ("--max-iters", "--known-zeros")])
    _add(p, "--p", "--density", "--n", "--trials")
    _add(p.add_mutually_exclusive_group(), "--grid", "--grid-points")
    _add(p, "--known-zeros", "--tol", "--max-iters", "--seed", "--output")

    p = command("lda", cmd_lda, "linear discriminant classification",
                needs_grid + [("--test-labels", "--test-input")])
    _add(p, "--input")
    _add(p, "--labels", required=True)
    _add(p.add_mutually_exclusive_group(required=True), "--rho", "--grid")
    _add(p, "--cv", "--seed", "--test-input", "--test-labels", "--output")

    p = command("portfolio", cmd_portfolio, "rolling minimum-variance backtest", needs_grid)
    _add(p, "--input")
    _add(p.add_mutually_exclusive_group(required=True), "--rho", "--grid")
    _add(p, "--cv", "--seed", "--window", "--stride", "--output")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve(args)
        return args.func(args)
    except (UserError, ValueError, FileNotFoundError) as exc:  # io.ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except EstimationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RuntimeError as exc:  # a failed backtest window: the exit code of its cause
        if not isinstance(exc.__cause__, (ValueError, EstimationError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER if isinstance(exc.__cause__, EstimationError) else EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
