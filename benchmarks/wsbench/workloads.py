"""The three workloads: seeded inputs, one job, the quality read, and the checks.

A workload draws a pool of ``POOL`` inputs from its seed; job ``i`` runs pool
item ``i % POOL``, so every run covers the pool whatever its length and the
quality metric is the mean over the pool, a pure function of the seed.  The
package sees only the generated arrays and files (``sparse_synthetic`` passes
a ``SyntheticSpec``, because ``synthetic_benchmark`` draws its own trial).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference as ref

#: relative agreement required between the package and the reference math
RTOL = 1e-8


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _close(a: float, b: float, rtol: float = RTOL, floor: float = 1.0) -> bool:
    """Agreement relative to the larger magnitude, or to ``floor`` for values near zero."""
    return abs(a - b) <= rtol * max(floor, abs(a), abs(b))


class Workload:
    """``run_job`` returns ``(estimates attempted, estimates failed, record)``.

    ``tracer`` is the active tracer; its ``results`` hold the solver traces the
    job produced.  The record of the first successful job on each pool item
    feeds ``quality`` and ``checks``.
    """

    name = ""
    POOL = 1
    estimates_per_job = 1
    solver_watch = False  # read SolverTrace.converged of every sqa_solve

    def run_job(self, i: int, tracer) -> tuple[int, int, object]:
        raise NotImplementedError

    def quality(self, records: dict) -> float:
        raise NotImplementedError

    def checks(self, records: dict) -> list[Check]:
        raise NotImplementedError


def synthetic_truth(rng, p: int, density: float, ridge: float = 1e-3):
    """``(C'C + ridge I)^{-1}`` with ``floor(density p^2)`` entries of ``C`` set to +/-1."""
    k = int(density * p * p)
    C = np.zeros((p, p))
    C.flat[rng.choice(p * p, size=k, replace=False)] = rng.integers(0, 2, size=k) * 2.0 - 1.0
    return np.linalg.inv(C.T @ C + ridge * np.eye(p))


class TuneCV(Workload):
    """LOO cross-validation of the analytical estimator over the 61-point radius grid."""

    name = "tune_cv"
    POOL = 6
    N, P, DENSITY = 40, 30, 0.1
    TRUTH_SEED = 0  # one fixed ground truth; the seed draws the samples
    CELLS_PER_ITEM = 2

    def __init__(self, wshrink, seed: int, workdir: Path):
        self.ws = wshrink
        self.seed = seed
        sigma = synthetic_truth(np.random.default_rng(self.TRUTH_SEED), self.P, self.DENSITY)
        factor = np.linalg.cholesky(sigma)
        rng = np.random.default_rng(seed)
        self.pool = [rng.standard_normal((self.N, self.P)) @ factor.T for _ in range(self.POOL)]
        self.estimates_per_job = self.N * wshrink.CLASSIFICATION_RHO_GRID.values.size

    def run_job(self, i, tracer):
        ws = self.ws
        report = ws.cross_validate(self.pool[i % self.POOL], ws.analytical_estimator,
                                   ws.CLASSIFICATION_RHO_GRID, scheme="loo")
        return report.fold_scores.size, int(np.sum(~np.isfinite(report.fold_scores))), report

    def quality(self, records):
        return float(np.mean([r.mean_scores[r.values == r.selected][0] for r in records.values()]))

    def checks(self, records):
        rng = np.random.default_rng([self.seed, 1])
        out = []
        for item, report in sorted(records.items()):
            data = self.pool[item]
            folds = self.ws.make_folds(data.shape[0], "loo", 0)
            for _ in range(self.CELLS_PER_ITEM):
                k, g = int(rng.integers(len(folds))), int(rng.integers(report.values.size))
                out.append(self.check_cell(data, folds[k], report.values[g], report.fold_scores[k, g],
                                           f"item {item} fold {k} rho {report.values[g]:.4g}"))
        return out

    @staticmethod
    def check_cell(data, fold, rho, score, where) -> Check:
        """Recompute one CV cell with the reference estimator and score."""
        train = np.delete(data, fold, axis=0)
        mean, cov = ref.covariance(train, train.shape[0])
        precision, _ = ref.shrinkage(cov, rho)
        expected = ref.validation_nll(precision, mean, data[fold])
        return Check("tune_cv.cell_nll", _close(expected, score),
                     f"{where}: package {score:.12g} reference {expected:.12g}")


class SparseSynthetic(Workload):
    """One synthetic Stein-loss trial of the SQA estimator with half the true zeros known."""

    name = "sparse_synthetic"
    POOL = 16  # a 35 s run reaches every item, so none is run untimed
    P, DENSITY, N = 30, 0.05, 30
    KNOWN_FRACTION = 0.5
    solver_watch = True
    #: largest relative objective gap of the empty-pattern solve over the analytical optimum
    EMPTY_PATTERN_GAP = 1e-2

    def __init__(self, wshrink, seed: int, workdir: Path):
        self.ws = wshrink
        self.seed = seed
        self.grid = wshrink.TuningGrid.from_log10("rho", -1.0, 1.0, 5)
        self.estimates_per_job = self.grid.values.size
        self.pool = []
        for spec_seed in np.random.default_rng(seed).integers(0, 2**31, size=self.POOL):
            spec = wshrink.SyntheticSpec(dim=self.P, density=self.DENSITY, n_samples=self.N,
                                         trials=1, seed=int(spec_seed))
            sigma = wshrink.synthetic_sigma0(spec)
            truth = wshrink.zero_pattern_of(np.linalg.inv(sigma))
            pattern = wshrink.known_zero_pattern(truth, self.KNOWN_FRACTION, int(spec_seed))
            self.pool.append((spec, pattern, sigma))

    def run_job(self, i, tracer):
        ws = self.ws
        spec, pattern, _ = self.pool[i % self.POOL]
        estimate = ws.sparse_estimator(pattern)
        captured = []

        def recorded(moments, rho):
            precision = estimate(moments, rho)
            captured.append((moments.covariance, rho, precision))
            return precision

        solves = tracer.results["sqa.sqa_solve"]
        before = len(solves)
        result = ws.synthetic_benchmark(spec, {"sqa": recorded}, {"sqa": self.grid})
        traces = solves[before:]
        failed = sum(not t.converged for t in traces)
        return len(captured), failed, (result.losses["sqa"][0], captured, traces)

    def quality(self, records):
        return float(np.mean([record[0].mean() for record in records.values()]))

    def checks(self, records):
        out = []
        for item, (losses, captured, traces) in sorted(records.items()):
            _, pattern, sigma = self.pool[item]
            objectives = [t.objectives[-1] for t in traces]
            out.extend(self.check_estimates(pattern.mask(), sigma, losses, captured, objectives,
                                            f"item {item}"))
        cov, rho, _ = records[min(records)][1][0]
        ws = self.ws
        solution, trace = ws.sqa_solve(cov, rho, ws.SparsityPattern.empty(cov.shape[0]))
        out.append(self.check_empty_pattern(solution.precision, trace.converged,
                                            ws.wasserstein_shrinkage(cov, rho).objective, cov, rho))
        return out

    @staticmethod
    def check_estimates(mask, sigma, losses, captured, objectives, where) -> list[Check]:
        """Pattern entries exactly zero, the solver's final objective not below the
        unconstrained optimum, and every Stein loss recomputed."""
        zeros = all(not np.any(X[mask]) for _, _, X in captured)
        gaps = [(f - optimum) / max(1.0, abs(optimum))
                for (cov, rho, _), f in zip(captured, objectives)
                for optimum in [ref.shrinkage(cov, rho)[1]]]
        stein = [_close(ref.stein_loss(X, sigma), loss) for (_, _, X), loss in zip(captured, losses)]
        return [
            Check("sparse.pattern_zeros", zeros and len(captured) == len(losses),
                  f"{where}: {len(captured)} estimates"),
            Check("sparse.objective_above_unconstrained",
                  len(gaps) == len(captured) and min(gaps, default=0.0) >= -RTOL,
                  f"{where}: {len(gaps)} solver objectives, smallest relative gap {min(gaps, default=0.0):.3e}"),
            Check("sparse.stein_loss", all(stein), f"{where}: {sum(stein)}/{len(stein)} losses agree"),
        ]

    @classmethod
    def check_empty_pattern(cls, precision, converged, optimum, cov, rho) -> Check:
        """An empty-pattern ``sqa_solve`` reaches the ``wasserstein_shrinkage`` optimum.

        Measured by the reference worst-case objective of its estimate; on this
        rank-deficient input the solver's fixed ridge leaves a gap near 1e-3.
        """
        gap = (ref.robust_objective(precision, cov, rho) - optimum) / max(1.0, abs(optimum))
        return Check("sparse.empty_pattern_matches_analytical",
                     converged and -RTOL <= gap <= cls.EMPTY_PATTERN_GAP,
                     f"rho {rho:.4g}: relative objective gap {gap:.3e}, converged {converged}")


class PortfolioCLI(Workload):
    """``wshrink portfolio`` in-process: 5-fold CV over 21 radii, then a rolling backtest."""

    name = "portfolio_cli"
    POOL = 16
    P, T, FACTORS = 150, 300, 5
    WINDOW, STRIDE, FOLDS = 120, 3, 5
    GRID = {"param": "rho", "log10_from": -3, "log10_to": 0, "points": 21}
    REPORT_KEYS = {"schema": int, "command": str, "window": int, "stride": int, "values": list,
                   "mean_scores": list, "selected": float, "param": str, "scheme": str,
                   "mean": float, "std": float, "n_estimations": int, "n_oos_returns": int}

    def __init__(self, wshrink, seed: int, workdir: Path):
        self.ws = wshrink
        self.seed = seed
        self.rebalances = len(range(self.WINDOW, self.T, self.STRIDE))
        self.estimates_per_job = self.FOLDS * self.GRID["points"] + self.rebalances
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for j in range(self.POOL):
            returns, sigma = self.factor_panel(rng)
            path = workdir / f"returns-{j}.csv"
            np.savetxt(path, returns, fmt="%.17g", delimiter=",")
            oracle = ref.min_variance_weights(np.linalg.inv(sigma))
            oracle_var = float(np.var(returns[self.WINDOW:] @ oracle, ddof=1))
            self.pool.append((path, workdir / f"report-{j}.json", returns, oracle_var))

    @classmethod
    def factor_panel(cls, rng):
        """Daily-scale returns ``F B' + E`` of a 5-factor model and their true covariance."""
        B = rng.normal(0.0, 0.5, (cls.P, cls.FACTORS))
        B[:, 0] += 1.0  # market factor
        fvol = np.r_[0.01, np.full(cls.FACTORS - 1, 0.005)]
        evol = rng.uniform(0.01, 0.03, cls.P)
        F = rng.standard_normal((cls.T, cls.FACTORS)) * fvol
        E = rng.standard_normal((cls.T, cls.P)) * evol
        return F @ B.T + E, (B * fvol**2) @ B.T + np.diag(evol**2)

    def run_job(self, i, tracer):
        path, out, _, _ = self.pool[i % self.POOL]
        code = self.ws.cli.main(["portfolio", "--input", str(path), "--grid", json.dumps(self.GRID),
                                 "--cv", f"kfold:{self.FOLDS}", "--window", str(self.WINDOW),
                                 "--stride", str(self.STRIDE), "--output", str(out)])
        if code != 0:
            return self.estimates_per_job, self.estimates_per_job, None
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        return self.estimates_per_job, int(np.sum(~np.isfinite(report["mean_scores"]))), text

    def quality(self, records):
        return float(np.mean([json.loads(text)["std"] ** 2 / self.pool[item][3]
                              for item, text in records.items()]))

    def checks(self, records):
        out = [self.check_report(text, self.rebalances, self.T - self.WINDOW, f"item {item}")
               for item, text in sorted(records.items())]
        rng = np.random.default_rng([self.seed, 1])
        item = sorted(records)[int(rng.integers(len(records)))]
        report = json.loads(records[item])
        returns = self.pool[item][2]
        t0 = self.WINDOW + self.STRIDE * int(rng.integers(self.rebalances))
        train, rho = returns[t0 - self.WINDOW:t0], report["selected"]
        moments = self.ws.sample_moments(train, divisor=train.shape[0] - 1.0)
        weights = self.ws.min_variance_weights(self.ws.analytical_estimator(moments, rho))
        out.append(self.check_window(weights, train, rho, f"window ending at row {t0}"))
        out.append(self.check_backtest(returns, report, f"item {item}"))
        return out

    @classmethod
    def check_report(cls, text, rebalances, oos_rows, where) -> Check:
        """Well-formed report JSON with the expected counts."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return Check("portfolio.report_json", False, f"{where}: {exc}")
        bad = [k for k, kind in cls.REPORT_KEYS.items()
               if not isinstance(doc.get(k), kind) or isinstance(doc.get(k), bool)]
        ok = (not bad and doc["n_estimations"] == rebalances and doc["n_oos_returns"] == oos_rows
              and doc["command"] == "portfolio")
        return Check("portfolio.report_json", ok,
                     f"{where}: n_estimations {doc.get('n_estimations')}, bad keys {bad}")

    @staticmethod
    def check_window(weights, train, rho, where) -> Check:
        """One rebalance's weights from the package equal the reference estimator's."""
        _, cov = ref.covariance(train, train.shape[0] - 1)
        expected = ref.min_variance_weights(ref.shrinkage(cov, rho)[0])
        err = float(np.abs(weights - expected).max() / np.abs(expected).max())
        return Check("portfolio.window_weights", err <= 1e-6,
                     f"{where}, rho {rho:.4g}: relative error {err:.3e}")

    @classmethod
    def check_backtest(cls, returns, report, where) -> Check:
        """The report's out-of-sample std equals a reference backtest at its selected radius."""
        oos = []
        for t0 in range(cls.WINDOW, returns.shape[0], cls.STRIDE):
            train = returns[t0 - cls.WINDOW:t0]
            _, cov = ref.covariance(train, train.shape[0] - 1)
            w = ref.min_variance_weights(ref.shrinkage(cov, report["selected"])[0])
            oos.append(returns[t0:t0 + cls.STRIDE] @ w)
        std = float(np.std(np.concatenate(oos), ddof=1))
        return Check("portfolio.backtest_std", _close(std, report["std"], 1e-6, floor=0.0),
                     f"{where}: report {report['std']:.10g} reference {std:.10g}")


WORKLOADS = {w.name: w for w in (TuneCV, SparseSynthetic, PortfolioCLI)}
