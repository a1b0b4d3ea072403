"""Sample moments, the linear shrinkage baseline, Stein's loss, and
cross-validation machinery for tuning the ambiguity radius or mixing weight."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationError, SingularMatrixError
from .gaussian import _check_int, as_symmetric, psd_spectrum


@dataclass(frozen=True)
class SampleMoments:
    """Sample mean and centred residuals with an explicit degrees-of-freedom divisor.

    The covariance ``residuals^T residuals / divisor`` is formed on first
    request and cached, exactly symmetric (a factor times its own transpose),
    so it is checked only for overflow; a consumer that decomposes it validates
    it once more.  With fewer rows than columns the analytical estimator never
    forms it: it decomposes the n x n Gram matrix of ``residuals / sqrt(divisor)``.

    The default divisor is ``n`` (the biased maximum-likelihood convention);
    pass ``n - 1`` for the Bessel-corrected version or ``n - n_classes`` for
    pooled within-class use.  Up to scaling, changing the divisor is
    equivalent to shrinking the ambiguity radius.
    """

    mean: np.ndarray
    residuals: np.ndarray
    sample_count: int
    divisor: float

    @cached_property
    def covariance(self) -> np.ndarray:
        cov = self.residuals.T @ self.residuals / self.divisor
        if not np.isfinite(cov).all():
            raise ValueError("covariance overflows: the data are too large to square")
        return cov


def sample_moments(data, divisor: float | None = None) -> SampleMoments:
    """Mean and centred residuals of rows of ``data`` (n observations x p variables)."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("data must be a nonempty 2-D array of observations")
    if not np.isfinite(X).all():
        raise ValueError("data contains non-finite entries")
    n = X.shape[0]
    div = float(n) if divisor is None else float(divisor)
    if not (np.isfinite(div) and div >= 1.0):
        raise ValueError(f"divisor must be finite and >= 1, got {divisor!r}")
    mean = X.mean(axis=0)
    return SampleMoments(mean=mean, residuals=X - mean, sample_count=n, divisor=div)


def _covariance_of(moments_or_matrix):
    """The covariance of ``SampleMoments``, else the input itself, for its consumer to validate."""
    if isinstance(moments_or_matrix, SampleMoments):
        return moments_or_matrix.covariance
    return moments_or_matrix


def linear_shrinkage(moments, alpha: float) -> np.ndarray:
    """Precision estimate from blending the covariance with its diagonal.

    Inverts ``(1 - alpha) cov + alpha diag(cov)`` from its one eigendecomposition
    ``V diag(w) V^T``, as ``W W^T`` with ``W = V diag(w^-1/2)``.  Raises
    ``SingularMatrixError`` when the blend is numerically singular (for
    example ``alpha = 0`` with a rank-deficient covariance).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    cov = as_symmetric(_covariance_of(moments), name="covariance")
    blend = (1.0 - alpha) * cov + alpha * np.diag(np.diag(cov))
    w, V = np.linalg.eigh(blend)
    lam = psd_spectrum(w, "blended covariance")
    if lam[0] == 0.0:
        raise SingularMatrixError(
            f"blended covariance is singular at alpha={alpha:g} (min eigenvalue {w[0]:.3e})"
        )
    W = V / np.sqrt(lam)
    return W @ W.T  # exactly symmetric (see ``gaussian``)


def _logdet(M: np.ndarray, name: str) -> float:
    """``log det M`` from the Cholesky factor ``L`` of an exactly symmetric ``M``, as
    ``2 sum log diag L``; raises ``SingularMatrixError`` naming ``M`` when it is not
    positive definite, whatever the sign of its determinant."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is not positive definite: {exc}") from exc
    return 2.0 * float(np.log(np.diag(L)).sum())


def stein_loss(precision, reference_cov) -> float:
    """Stein's loss ``-log det(X S) + <X, S> - p`` of a precision estimate
    against a reference covariance; zero only at the exact inverse.

    Both inputs must be symmetric (``as_symmetric``) and positive definite by their
    Cholesky factors (``_logdet``, shared with ``gaussian_validation_nll``), else
    ``ValueError`` or ``SingularMatrixError``."""
    X = as_symmetric(precision, name="precision")
    S = as_symmetric(reference_cov, name="reference covariance")
    if X.shape != S.shape:
        raise ValueError("dimension mismatch")
    logdet = _logdet(X, "precision") + _logdet(S, "reference covariance")
    return float(-logdet + np.sum(X * S) - X.shape[0])


@dataclass(frozen=True)
class TuningGrid:
    """Strictly increasing positive candidate values for one parameter."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size < 1:
            raise ValueError("grid must be nonempty")
        if not np.isfinite(vals).all() or (vals <= 0.0).any():
            raise ValueError("grid values must be positive finite reals")
        if (np.diff(vals) <= 0.0).any():
            raise ValueError("grid values must be strictly increasing (duplicates rejected)")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_log10(cls, name: str, log10_from: float, log10_to: float, points: int) -> "TuningGrid":
        if _check_int(points, "points") < 1:
            raise ValueError("points must be >= 1")
        return cls(name, np.logspace(log10_from, log10_to, points))


#: the paper's classification radius grid; no command reads it, kept because the benchmark's ``tune_cv`` does
CLASSIFICATION_RHO_GRID = TuningGrid.from_log10("rho", -1.0, 2.0, 61)


def make_folds(n: int, scheme: str, seed: int = 0):
    """Deterministic fold assignment; a pure function of ``(n, scheme, seed)``.

    ``scheme`` is ``"loo"`` or ``"kfold:K"``, with ``K`` written in decimal digits;
    ``n`` and ``seed`` must be integers.
    """
    n, seed = _check_int(n, "n"), _check_int(seed, "seed")
    if scheme == "loo":
        k = n
        if n < 2:
            raise ValueError("leave-one-out needs at least 2 observations")
    elif scheme.startswith("kfold:") and scheme[6:].isdecimal():
        k = int(scheme[6:])
        if k < 2:
            raise ValueError("kfold needs K >= 2")
        if n < k:
            raise ValueError(f"need at least K={k} observations, got {n}")
    else:
        raise ValueError(f"unknown scheme {scheme!r} (expected 'loo' or 'kfold:K')")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def gaussian_validation_nll(precision, train_moments: SampleMoments, validation_data) -> float:
    """Held-out Gaussian negative log-likelihood, up to constants.

    ``-log det X + <S_val, X>`` with the validation second moment ``S_val`` taken
    around the training mean.  Equals Stein's loss against ``S_val`` less
    ``log det S_val + p``, a constant of the fold, but stays finite when ``S_val``
    is rank deficient (e.g. single-row validation folds).  The precision must be
    symmetric (``as_symmetric``) and positive definite by its Cholesky factor, the
    log-determinant that ``stein_loss`` shares: an indefinite one raises
    ``SingularMatrixError`` even where its determinant is positive.
    """
    X = as_symmetric(precision, name="precision")
    V = np.atleast_2d(np.asarray(validation_data, dtype=np.float64))
    resid = V - train_moments.mean
    S_val = resid.T @ resid / V.shape[0]
    return float(-_logdet(X, "precision") + np.sum(S_val * X))


@dataclass(frozen=True)
class CVReport:
    """Cross-validation sweep results.

    Scores are losses.  ``fold_scores[k, g]`` is the score of grid value ``g``
    on fold ``k`` (``inf`` marks an estimator failure at that point), and
    ``selected`` is the value that ``_FailedCells.report``, the one selection
    rule of every sweep, picks from their means.  ``failed_folds[g]`` counts the
    failed folds of value ``g``, ``first_errors[g]`` the first one's text.
    """

    param_name: str
    values: np.ndarray
    fold_scores: np.ndarray
    mean_scores: np.ndarray
    selected: float
    scheme: str
    seed: int
    failed_folds: np.ndarray
    first_errors: tuple


#: the errors that fail one cell of a sweep, scored ``inf``, where any other propagates
_CELL_ERRORS = (ValueError, np.linalg.LinAlgError, EstimationError)


def _grid_scores(estimator, moments, values, score):
    """Per grid value, in order, ``score(precision)`` or the ``_CELL_ERRORS`` error that replaced it."""
    path = getattr(estimator, "path", None)
    chunks = [values] if path else [values[g : g + 1] for g in range(len(values))]
    path = path or (lambda m, chunk: (estimator(m, float(v)) for v in chunk))
    for chunk in chunks:
        done = 0
        try:  # strict: a path that runs short fails the values it left out
            for _, precision in zip(chunk, path(moments, chunk), strict=True):
                done += 1
                try:
                    yield score(precision)
                except _CELL_ERRORS as exc:
                    yield exc
        except _CELL_ERRORS as exc:  # the path stopped: this value and every later one fail
            yield from [exc] * (len(chunk) - done)


class _FailedCells:
    """The failed cells of a sweep: ``count[g]`` counts those of grid value ``g``, and
    ``first[g]`` is the first one's text, None where none failed."""

    def __init__(self, size: int):
        self.count = np.zeros(size, dtype=int)
        self.first = [None] * size

    def losses(self, estimator, moments, values, score) -> list:
        """The losses of ``_grid_scores(estimator, moments, values, score)``, one per grid
        value, each failed cell recorded and ``inf``."""
        row = []
        for g, cell in enumerate(_grid_scores(estimator, moments, values, score)):
            if isinstance(cell, Exception):
                self.count[g] += 1
                self.first[g] = self.first[g] or f"{type(cell).__name__}: {cell}"
                cell = np.inf
            row.append(cell)
        return row

    def report(self, grid: TuningGrid, fold_scores: np.ndarray, scheme: str, seed: int) -> CVReport:
        """The ``CVReport`` of a sweep's ``fold_scores`` (folds x grid values) with these failures.

        The selection rule of every sweep: the value of least mean score, ties resolved
        toward the smallest value, and ``nan`` when no mean score is finite, that is when
        no value scored on every fold.
        """
        mean_scores = fold_scores.mean(axis=0)
        scored = np.isfinite(mean_scores).any()
        return CVReport(
            param_name=grid.name,
            values=grid.values,
            fold_scores=fold_scores,
            mean_scores=mean_scores,
            selected=float(grid.values[np.argmin(mean_scores)]) if scored else np.nan,
            scheme=scheme,
            seed=seed,
            failed_folds=self.count,
            first_errors=tuple(self.first),
        )


def cross_validate(
    data,
    estimator,
    grid: TuningGrid,
    scheme: str = "loo",
    score=None,
    seed: int = 0,
    divisor_policy: str = "n",
) -> CVReport:
    """Sweep a tuning grid with cross-validation.

    ``estimator(moments, value) -> precision`` is fitted on each training
    fold; ``score(precision, train_moments, validation_data) -> float``
    defaults to the held-out Gaussian negative log-likelihood.  Scores are
    losses, and the value is selected from their means over the folds by
    ``_FailedCells.report``, the selection rule that ``lda_cross_validate``
    shares.
    An estimator with a path, ``estimator.path(moments, values)`` yielding
    the fold's estimates in grid order, is fitted through it instead.  An
    estimate reaches ``score`` as the estimator returns it: a dense matrix,
    or a ``FactoredPrecision`` that a score needing the matrix turns into one
    with ``np.asarray`` (the default score does), and that
    ``min_variance_weights`` reads without forming it.

    A ``ValueError``, ``LinAlgError`` or ``EstimationError`` scores ``inf``
    and is counted in the report.  An estimator call or a score that raises
    fails only its cell; a path that raises before yielding value ``g`` fails
    cells ``g`` onward of its fold.  When every value failed on some fold, no
    value is selected: ``selected`` is ``nan``.
    """
    if divisor_policy not in ("n", "n-1"):
        raise ValueError("divisor_policy must be 'n' or 'n-1'")
    X = np.atleast_2d(np.asarray(data, dtype=np.float64))
    folds = make_folds(X.shape[0], scheme, seed)
    score = gaussian_validation_nll if score is None else score

    fold_scores = np.empty((len(folds), grid.values.size))
    failures = _FailedCells(grid.values.size)
    for k, fold in enumerate(folds):
        train = np.delete(X, fold, axis=0)
        div = float(train.shape[0] - 1) if divisor_policy == "n-1" else None
        moments = sample_moments(train, divisor=div)
        fold_scores[k] = failures.losses(estimator, moments, grid.values, lambda P: score(P, moments, X[fold]))
    return failures.report(grid, fold_scores, scheme, seed)
