"""Experiment pipelines: synthetic Stein-loss benchmark, linear discriminant
classification with a pooled covariance, and a rolling minimum-variance
portfolio backtest."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytical import wasserstein_shrinkage
from .evaluation import SampleMoments, sample_moments, stein_loss
from .gaussian import as_symmetric, spectral_decompose
from .sqa import SolverConfig, SparsityPattern, sqa_solve


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generator settings for the synthetic benchmark.

    The true covariance is ``(C^T C + ridge I)^{-1}`` where ``C`` has
    ``floor(density * p^2)`` entries set to +/-1 at uniformly drawn cells.
    """

    dim: int
    density: float
    n_samples: int
    trials: int = 100
    ridge: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if int(self.density * self.dim**2) < 1:
            raise ValueError("density too small: floor(density * p^2) must be >= 1")
        if self.n_samples < 1 or self.trials < 1:
            raise ValueError("n_samples and trials must be >= 1")
        if self.ridge <= 0.0:
            raise ValueError("ridge must be positive")


def synthetic_sigma0(spec: SyntheticSpec, C=None) -> np.ndarray:
    """True covariance ``(C^T C + ridge I)^{-1}``; always positive definite.

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
    A = C.T @ C + spec.ridge * np.eye(p)
    sigma0 = np.linalg.solve(A, np.eye(p))
    return as_symmetric(sigma0, rtol=1.0)


def sample_gaussian(sigma0, n: int, seed) -> np.ndarray:
    """Draw ``n`` rows from a zero-mean normal with the given PSD covariance.

    Sampling goes through the spectral factor, so rank-deficient covariances
    are handled uniformly.  ``seed`` may be an int or a Generator.
    """
    S = as_symmetric(sigma0, name="sigma0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dec = spectral_decompose(S)
    factor = dec.eigenvectors * np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    return rng.standard_normal((int(n), S.shape[0])) @ factor.T


def zero_pattern_of(precision, rel_tol: float = 1e-8) -> SparsityPattern:
    """Off-diagonal zero pattern of a precision matrix.

    Entries with ``|m_ij| <= rel_tol * max|m|`` count as zero.
    """
    M = as_symmetric(precision, name="precision")
    cut = rel_tol * float(np.abs(M).max())
    mask = np.abs(M) <= cut
    np.fill_diagonal(mask, False)
    iu, ju = np.triu_indices(M.shape[0], k=1)
    pairs = [(int(i), int(j)) for i, j in zip(iu, ju) if mask[i, j]]
    return SparsityPattern(M.shape[0], pairs)


def known_zero_pattern(full: SparsityPattern, fraction: float, seed: int) -> SparsityPattern:
    """Random symmetric subset holding ``fraction`` of a zero pattern's pairs."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    upper = sorted((i, j) for i, j in full.pairs if i < j)
    k = int(round(fraction * len(upper)))
    if k == 0:
        return SparsityPattern.empty(full.dim)
    idx = np.random.default_rng(seed).choice(len(upper), size=k, replace=False)
    return SparsityPattern(full.dim, [upper[i] for i in np.sort(idx)])


# --- estimator factories (moments, value) -> precision -------------------------


def analytical_estimator(moments: SampleMoments, rho: float) -> np.ndarray:
    return wasserstein_shrinkage(moments.covariance, rho).precision


def sparse_estimator(pattern: SparsityPattern, config: SolverConfig | None = None):
    """Bind a zero pattern (and solver config) into a ``(moments, rho)`` estimator."""

    def estimate(moments: SampleMoments, rho: float) -> np.ndarray:
        solution, _ = sqa_solve(moments.covariance, rho, pattern, config)
        return solution.precision

    return estimate


@dataclass
class BenchmarkResult:
    """Per-trial, per-grid-point Stein losses of the synthetic benchmark."""

    spec: SyntheticSpec
    grids: dict
    losses: dict  # name -> array of shape (trials, grid size)

    def long_rows(self):
        """Iterate ``(trial, estimator, parameter, loss)`` rows (1-based trials)."""
        for name, table in self.losses.items():
            values = self.grids[name].values
            for t in range(table.shape[0]):
                for g, value in enumerate(values):
                    yield t + 1, name, float(value), float(table[t, g])

    def summary(self, name: str):
        """Mean and 20%/80% quantiles across trials for one estimator."""
        table = self.losses[name]
        return {
            "values": self.grids[name].values,
            "mean": table.mean(axis=0),
            "q20": np.quantile(table, 0.2, axis=0),
            "q80": np.quantile(table, 0.8, axis=0),
        }


def synthetic_benchmark(spec: SyntheticSpec, estimators: dict, grids: dict) -> BenchmarkResult:
    """Run the synthetic Stein-loss protocol.

    ``estimators`` maps a label to ``(moments, value) -> precision`` and
    ``grids`` maps the same labels to their tuning grids.  Each trial draws
    fresh samples from the fixed ground truth (trial ``t`` uses generator
    seed ``spec.seed + t``, 1-based) and scores every estimator at every grid
    point against the true covariance.  Estimator errors propagate.
    """
    if set(estimators) != set(grids):
        raise ValueError("estimators and grids must share the same labels")
    sigma0 = synthetic_sigma0(spec)
    losses = {name: np.empty((spec.trials, grids[name].values.size)) for name in estimators}
    for t in range(spec.trials):
        data = sample_gaussian(sigma0, spec.n_samples, spec.seed + t + 1)
        moments = sample_moments(data)
        for name, estimate in estimators.items():
            for g, value in enumerate(grids[name].values):
                losses[name][t, g] = stein_loss(estimate(moments, float(value)), sigma0)
    return BenchmarkResult(spec=spec, grids=dict(grids), losses=losses)


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
    div = float(X.shape[0] - classes.size)
    cov = as_symmetric(resid.T @ resid / div, rtol=1.0)
    return SampleMoments(mean=np.zeros(X.shape[1]), covariance=cov,
                         sample_count=X.shape[0], divisor=div)


def lda_fit(dataset: LabeledDataset, estimator) -> LdaModel:
    """Class means plus a shared precision from ``estimator(pooled_moments)``."""
    X, y = dataset.features, dataset.labels
    classes = np.unique(y)
    means = np.vstack([X[y == cls].mean(axis=0) for cls in classes])
    precision = estimator(pooled_moments(dataset))
    return LdaModel(classes=classes, means=means, precision=np.asarray(precision, dtype=np.float64))


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
    """Weights of the minimum-variance portfolio, ``X 1 / (1^T X 1)``."""
    X = as_symmetric(precision, name="precision")
    t = X.sum(axis=1)
    denom = float(t.sum())
    if denom <= 1e-12 * float(np.abs(X).sum()):  # relative to the scale of X
        raise ValueError(f"1' X 1 = {denom:.3e} is too close to zero")
    w = t / denom
    return w / w.sum()


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling-horizon settings: estimation window, rebalance stride, and the
    degrees-of-freedom policy for the window covariance."""

    window: int = 120
    stride: int = 3
    divisor_policy: str = "n-1"

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.divisor_policy not in ("n", "n-1"):
            raise ValueError("divisor_policy must be 'n' or 'n-1'")


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
    ``estimator(moments)`` on the trailing ``window`` observations and held
    until the next rebalance.  Estimator failures abort with the offending
    window start index.  A constant return series yields ``std = 0`` and
    ``sharpe = nan``.
    """
    R = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    T = R.shape[0]
    if T <= config.window:
        raise ValueError(f"need more than window={config.window} observations, got {T}")
    oos = []
    n_estimations = 0
    for t0 in range(config.window, T, config.stride):
        train = R[t0 - config.window : t0]
        div = float(train.shape[0] - 1) if config.divisor_policy == "n-1" else None
        try:
            precision = estimator(sample_moments(train, divisor=div))
        except Exception as exc:
            raise RuntimeError(f"estimator failed on window starting at row {t0 - config.window}: {exc}") from exc
        w = min_variance_weights(precision)
        oos.append(R[t0 : min(t0 + config.stride, T)] @ w)
        n_estimations += 1
    series = np.concatenate(oos)
    mean = float(series.mean())
    std = float(series.std(ddof=1)) if series.size > 1 else 0.0
    degenerate = std <= 1e-12 * abs(mean)  # relative, so the Sharpe ratio is scale free
    sharpe = float("nan") if degenerate else mean / std
    return BacktestResult(mean=mean, std=std, sharpe=sharpe, returns=series, n_estimations=n_estimations)
