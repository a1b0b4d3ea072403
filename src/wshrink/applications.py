"""Experiment pipelines: synthetic Stein-loss benchmark, linear discriminant
classification with a pooled covariance, and a rolling minimum-variance
portfolio backtest."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytical import FactoredPrecision, wasserstein_shrinkage, wasserstein_shrinkage_path
from .errors import ConvergenceError
from .evaluation import CVReport, SampleMoments, TuningGrid, _FailedCells, make_folds, sample_moments, stein_loss
from .gaussian import _check_int, as_symmetric, psd_spectrum, spectral_decompose
from .sqa import SolverConfig, SparsityPattern, sqa_solve

#: ridge of the synthetic ground truth ``(C^T C + SYNTHETIC_RIDGE I)^{-1}``
SYNTHETIC_RIDGE = 1e-3
#: ``zero_pattern_of`` counts entries below this fraction of the largest as zero
ZERO_RTOL = 1e-8


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generator settings for the synthetic benchmark.

    The true covariance is ``(C^T C + SYNTHETIC_RIDGE I)^{-1}`` where ``C`` has
    ``floor(density * p^2)`` entries set to +/-1 at uniformly drawn cells.
    ``dim``, ``n_samples``, ``trials`` and ``seed`` must be integers.
    """

    dim: int
    density: float
    n_samples: int
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "n_samples", "trials", "seed"):
            _check_int(getattr(self, name), name)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if int(self.density * self.dim**2) < 1:
            raise ValueError("density too small: floor(density * p^2) must be >= 1")
        if self.n_samples < 1 or self.trials < 1:
            raise ValueError("n_samples and trials must be >= 1")


def synthetic_sigma0(spec: SyntheticSpec, C=None) -> np.ndarray:
    """True covariance ``(C^T C + SYNTHETIC_RIDGE I)^{-1}``; always positive definite.

    ``C`` may be injected explicitly (tests force specific cases); otherwise
    it is drawn deterministically from ``spec.seed``.
    """
    p = spec.dim
    if C is None:
        rng = np.random.default_rng(spec.seed)
        k = int(spec.density * p * p)
        cells = rng.choice(p * p, size=k, replace=False)
        signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
        C = np.zeros((p, p))
        C.flat[cells] = signs
    else:
        C = np.asarray(C, dtype=np.float64)
        if C.shape != (p, p):
            raise ValueError(f"C must have shape ({p}, {p})")
    A = C.T @ C + SYNTHETIC_RIDGE * np.eye(p)
    sigma0 = np.linalg.solve(A, np.eye(p))
    return as_symmetric(sigma0, rtol=1.0)


def sample_gaussian(sigma0, n: int, seed) -> np.ndarray:
    """Draw ``n`` rows from a zero-mean normal with the given PSD covariance.

    Sampling goes through the spectral factor, with the spectrum cleaned by
    ``psd_spectrum``: an indefinite ``sigma0`` raises ``ValueError``, and eigenvalues
    below its rank cut are exact zeros, so the rows of a rank-deficient covariance
    lie in its range up to rounding.  ``seed`` may be an int or a Generator.
    """
    S = as_symmetric(sigma0, name="sigma0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dec = spectral_decompose(S)
    factor = dec.eigenvectors * np.sqrt(psd_spectrum(dec.eigenvalues, "sigma0"))
    return rng.standard_normal((_check_int(n, "n"), S.shape[0])) @ factor.T


def zero_pattern_of(precision) -> SparsityPattern:
    """Off-diagonal zero pattern of a precision matrix.

    Entries with ``|m_ij| <= ZERO_RTOL * max|m|`` count as zero.
    """
    M = as_symmetric(precision, name="precision")
    cut = ZERO_RTOL * float(np.abs(M).max())
    return SparsityPattern(M.shape[0], zip(*np.nonzero(np.triu(np.abs(M) <= cut, 1))))


def known_zero_pattern(full: SparsityPattern, fraction: float, seed: int) -> SparsityPattern:
    """Random symmetric subset holding ``fraction`` of a zero pattern's pairs; ``seed``
    must be an integer."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    seed = _check_int(seed, "seed")
    I, J = np.nonzero(np.triu(full.mask(), 1))  # the pairs i < j, sorted: seeded subsets index them
    k = int(round(fraction * I.size))
    if k == 0:
        return SparsityPattern.empty(full.dim)
    idx = np.sort(np.random.default_rng(seed).choice(I.size, size=k, replace=False))
    return SparsityPattern(full.dim, zip(I[idx], J[idx]))


# --- estimator factories (moments, value) -> precision -------------------------


def analytical_estimator(moments: SampleMoments, rho: float) -> np.ndarray:
    return wasserstein_shrinkage(moments.covariance, rho).precision


# apart from analytical_estimator while benchmarks/tests pins its eigh count per (fold, radius)
def analytical_path_estimator(moments: SampleMoments, rho: float) -> FactoredPrecision:
    """``analytical_estimator`` in factored form, with a radius path: one ``eigh`` per fold
    of a sweep (of the n x n Gram matrix when n < p); ``np.asarray`` forms the matrix."""
    return wasserstein_shrinkage(moments, rho).estimate


analytical_path_estimator.path = lambda moments, radii: (
    solution.estimate for solution in wasserstein_shrinkage_path(moments, radii))


def sparse_estimator(pattern: SparsityPattern, config: SolverConfig | None = None):
    """Bind a zero pattern (and solver config) into a ``(moments, rho)`` estimator.

    The estimator remembers the last estimate it returned and starts its next
    ``sqa_solve`` from it where that is a better start than the analytical one
    (see ``sqa_solve``), so a sweep over radii or folds chains its solves.  Results
    then depend on the call order at solver tolerance: on the seed-1 and seed-7
    ``sparse_synthetic`` pools (5 ascending radii, ``grad_tol = 1e-3``) the chained
    solves took 6.4 Newton iterations where cold ones took 9.2 and 9.5, with
    objectives equal to 1.5e-10 relative and estimates to 2.4e-5 of ``max|X|``.

    A solve that stops unconverged (``SolverTrace.converged`` False, as when the
    iteration budget runs out) raises ``ConvergenceError`` naming ``rho`` and the
    solver's message, so no caller scores it; its estimate is still the next start.
    """
    last = None

    def estimate(moments: SampleMoments, rho: float) -> np.ndarray:
        nonlocal last
        solution, trace = sqa_solve(moments.covariance, rho, pattern, config, _start=last)
        last = solution.precision
        if not trace.converged:
            raise ConvergenceError(f"sqa_solve at rho={rho:g}: {trace.message}")
        return last

    return estimate


def _quantile(table: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(table, q, axis=0)`` with a failed cell's ``inf`` ranked above every loss.

    An ``inf`` cell is replaced by its column's largest finite loss, which keeps the order
    and forms no ``inf - inf``; where the interpolation gives a failed cell positive weight,
    which the same quantile of the failure indicator tells, the quantile is ``inf``.
    """
    failed = np.isinf(table)
    top = np.max(table, axis=0, where=~failed, initial=0.0)
    out = np.quantile(np.where(failed, top, table), q, axis=0)
    return np.where(np.quantile(failed.astype(np.float64), q, axis=0) > 0.0, np.inf, out)


@dataclass
class BenchmarkResult:
    """Per-trial, per-grid-point Stein losses of the synthetic benchmark.

    A failed cell's loss is ``inf``; ``failed[name][g]`` counts the failed trials of grid
    value ``g`` and ``first_errors[name][g]`` is the first one's text (see
    ``cross_validate``'s ``failed_folds`` and ``first_errors``).
    """

    spec: SyntheticSpec
    grids: dict
    losses: dict  # name -> array of shape (trials, grid size)
    failed: dict  # name -> failed trials per grid value
    first_errors: dict  # name -> first error text per grid value, None where none failed

    def long_rows(self):
        """Iterate ``(trial, estimator, parameter, loss)`` rows (1-based trials)."""
        for name, table in self.losses.items():
            values = self.grids[name].values
            for t in range(table.shape[0]):
                for g, value in enumerate(values):
                    yield t + 1, name, float(value), float(table[t, g])

    def summary(self, name: str):
        """Mean and 20%/80% quantiles across trials for one estimator; a failed cell
        counts as an infinite loss."""
        table = self.losses[name]
        return {
            "values": self.grids[name].values,
            "mean": table.mean(axis=0),
            "q20": _quantile(table, 0.2),
            "q80": _quantile(table, 0.8),
        }


def synthetic_benchmark(spec: SyntheticSpec, estimators: dict, grids: dict) -> BenchmarkResult:
    """Run the synthetic Stein-loss protocol.

    ``estimators`` maps a label to ``(moments, value) -> precision`` and
    ``grids`` maps the same labels to their tuning grids.  Each trial draws
    fresh samples from the fixed ground truth (trial ``t`` uses generator
    seed ``spec.seed + t``, 1-based) and scores every estimator at every grid
    point against the true covariance, through its ``path`` when it has one.
    A cell whose estimate or loss fails as a ``cross_validate`` cell does has loss
    ``inf`` and is counted in ``failed`` and ``first_errors``; any other error propagates.
    """
    if set(estimators) != set(grids):
        raise ValueError("estimators and grids must share the same labels")
    sigma0 = synthetic_sigma0(spec)
    losses = {name: np.empty((spec.trials, grids[name].values.size)) for name in estimators}
    failures = {name: _FailedCells(grids[name].values.size) for name in estimators}
    for t in range(spec.trials):
        data = sample_gaussian(sigma0, spec.n_samples, spec.seed + t + 1)
        moments = sample_moments(data)
        for name, estimate in estimators.items():
            losses[name][t] = failures[name].losses(estimate, moments, grids[name].values,
                                                    lambda P: stein_loss(P, sigma0))
    return BenchmarkResult(spec=spec, grids=dict(grids), losses=losses,
                           failed={name: f.count for name, f in failures.items()},
                           first_errors={name: tuple(f.first) for name, f in failures.items()})


# --- linear discriminant analysis ----------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with class labels; every class needs at least 2 samples."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        y = np.asarray(self.labels)
        if X.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        classes, counts = np.unique(y, return_counts=True)
        if classes.size < 2:
            raise ValueError("need at least 2 classes")
        if counts.min() < 2:
            raise ValueError("every class needs at least 2 samples (pooled covariance uses residuals)")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)


@dataclass(frozen=True)
class LdaModel:
    classes: np.ndarray
    means: np.ndarray
    precision: np.ndarray


def pooled_moments(dataset: LabeledDataset) -> SampleMoments:
    """Within-class residual covariance with divisor ``n - n_classes``
    (unbiased for the shared class covariance)."""
    X, y = dataset.features, dataset.labels
    classes = np.unique(y)
    resid = np.empty_like(X)
    for cls in classes:
        idx = y == cls
        resid[idx] = X[idx] - X[idx].mean(axis=0)
    return SampleMoments(mean=np.zeros(X.shape[1]), residuals=resid,
                         sample_count=X.shape[0], divisor=float(X.shape[0] - classes.size))


def _class_means(dataset: LabeledDataset):
    """The sorted classes of ``dataset`` and their mean feature rows."""
    X, y = dataset.features, dataset.labels
    classes = np.unique(y)
    return classes, np.vstack([X[y == cls].mean(axis=0) for cls in classes])


def lda_fit(dataset: LabeledDataset, estimator) -> LdaModel:
    """Class means plus a shared precision from ``estimator(pooled_moments)``."""
    return LdaModel(*_class_means(dataset), np.asarray(estimator(pooled_moments(dataset)), dtype=np.float64))


def lda_cross_validate(dataset: LabeledDataset, estimator, grid: TuningGrid, scheme: str, seed: int) -> CVReport:
    """Sweep a radius grid with cross-validation of the classifier.

    On each training fold, ``estimator(pooled_moments, value)`` (through its ``path``
    when it has one, as in ``cross_validate``) gives the shared precision of the class
    means.  A cell's loss is the negated held-out accuracy, ``-mean(lda_classify == y)``:
    negation is exact, so ``-mean_scores`` is the mean accuracy bit for bit.  A cell
    fails, scores ``inf`` and is counted as a ``cross_validate`` cell does, and the
    value is selected by the selection rule of every sweep, ``_FailedCells.report``.
    A training fold that is not a valid ``LabeledDataset`` raises ``ValueError``
    naming the fold.
    """
    X, y = dataset.features, dataset.labels
    folds = make_folds(X.shape[0], scheme, seed)
    fold_scores = np.empty((len(folds), grid.values.size))
    failures = _FailedCells(grid.values.size)
    for k, fold in enumerate(folds):
        try:
            train = LabeledDataset(np.delete(X, fold, axis=0), np.delete(y, fold))
        except ValueError as exc:
            raise ValueError(f"fold {k}: {exc}") from None
        classes, means = _class_means(train)

        def loss(precision):
            model = LdaModel(classes, means, np.asarray(precision, dtype=np.float64))
            return -float(np.mean(lda_classify(model, X[fold]) == y[fold]))

        fold_scores[k] = failures.losses(estimator, pooled_moments(train), grid.values, loss)
    return failures.report(grid, fold_scores, scheme, seed)


def lda_classify(model: LdaModel, z):
    """Assign the class whose mean is nearest in the precision metric.

    Accepts a single feature vector or a matrix of rows; ties go to the
    smallest class index.
    """
    Z = np.asarray(z, dtype=np.float64)
    single = Z.ndim == 1
    Z = np.atleast_2d(Z)
    if Z.shape[1] != model.means.shape[1]:
        raise ValueError("feature dimension does not match the fitted model")
    scores = np.empty((Z.shape[0], model.classes.size))
    for c in range(model.classes.size):
        diff = Z - model.means[c]
        scores[:, c] = np.sum((diff @ model.precision) * diff, axis=1)
    labels = model.classes[np.argmin(scores, axis=1)]
    return labels[0] if single else labels


# --- minimum-variance portfolio -------------------------------------------------


def min_variance_weights(precision) -> np.ndarray:
    """Weights of the minimum-variance portfolio, ``X 1 / (1^T X 1)``.

    A ``FactoredPrecision`` gives ``X 1 = c 1 + V ((x - c) * V^T 1)`` in
    O(pr) without forming ``X``; any other precision is read as a dense
    symmetric matrix.
    """
    if isinstance(precision, FactoredPrecision):
        V, x, c = precision.eigenvectors, precision.eigenvalues, precision.complement
        p = V.shape[0]
        t = c + V @ ((x - c) * V.sum(axis=0))
        scale = p * (float(x.sum()) + c * (p - x.size))  # p tr X >= sum |X_ij| for PSD X
    else:
        X = as_symmetric(precision, name="precision")
        t = X.sum(axis=1)
        scale = float(np.abs(X).sum())
    denom = float(t.sum())
    if denom <= 1e-12 * scale:  # relative to the scale of X
        raise ValueError(f"1' X 1 = {denom:.3e} is too close to zero")
    w = t / denom
    return w / w.sum()


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling-horizon settings: estimation window and rebalance stride, both integers."""

    window: int = 120
    stride: int = 3

    def __post_init__(self):
        if _check_int(self.window, "window") < 2:
            raise ValueError("window must be >= 2")
        if _check_int(self.stride, "stride") < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class BacktestResult:
    mean: float
    std: float
    sharpe: float
    returns: np.ndarray
    n_estimations: int


def rolling_backtest(returns, estimator, config: BacktestConfig) -> BacktestResult:
    """Out-of-sample minimum-variance backtest with periodic re-estimation.

    Every ``stride`` periods the portfolio is recomputed from
    ``estimator(moments)`` on the trailing ``window`` observations (covariance
    divisor ``window - 1``) and held until the next rebalance.  The estimate
    goes to ``min_variance_weights`` as it comes: a ``FactoredPrecision``
    never forms its p x p matrix.  A failure of the estimator or of the
    weights raises ``RuntimeError`` naming the offending window start index,
    with the original error as its ``__cause__``.  A constant return series
    yields ``std = 0`` and ``sharpe = nan``.
    """
    R = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    T = R.shape[0]
    if T <= config.window:
        raise ValueError(f"need more than window={config.window} observations, got {T}")
    oos = []
    n_estimations = 0
    for t0 in range(config.window, T, config.stride):
        train = R[t0 - config.window : t0]
        try:
            # bound to a name, the estimate lives until the next window's replaces it; freed at
            # once, it lets malloc trim the heap top and fault it back in every window (3x the
            # page faults of a portfolio backtest at p = 150)
            precision = estimator(sample_moments(train, divisor=train.shape[0] - 1))
            w = min_variance_weights(precision)
        except Exception as exc:
            raise RuntimeError(f"rebalance failed on window starting at row {t0 - config.window}: {exc}") from exc
        oos.append(R[t0 : min(t0 + config.stride, T)] @ w)
        n_estimations += 1
    series = np.concatenate(oos)
    mean = float(series.mean())
    std = float(series.std(ddof=1)) if series.size > 1 else 0.0
    degenerate = std <= 1e-12 * abs(mean)  # relative, so the Sharpe ratio is scale free
    sharpe = float("nan") if degenerate else mean / std
    return BacktestResult(mean=mean, std=std, sharpe=sharpe, returns=series, n_estimations=n_estimations)
