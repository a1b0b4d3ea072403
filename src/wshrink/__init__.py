"""Wasserstein-robust precision matrix estimation.

The estimator minimizes the worst-case Gaussian log-loss over all normal
reference distributions within a type-2 Wasserstein ball around the empirical
distribution.  Without structural constraints it reduces to a nonlinear
eigenvalue shrinkage with a scalar dual root solve; with conditional
independence (zero-pattern) constraints it is solved by a projected Newton
method; the attaining worst-case distribution is available in closed form.

The package exports the paper's objects (the analytical estimator and its
radius path, the reformulation objective, the SQA solver, the worst-case
distribution), cross-validation, and the three experiment pipelines.  The
SQA step internals (Newton direction, Armijo line search) stay in ``sqa``.

Importing the package loads NumPy only.  SciPy serves the Cholesky solves of
the SQA solver, its gradient, the reformulation objective and the worst case at
a given point (``extremal_covariance``), and loads at the first of them in a
process: the analytical estimator, cross-validation, the worst case at the
optimal estimator (``extremal_for_optimal``, the ``worstcase`` command), the
``estimate`` command without ``--pattern`` and the pipelines without known
zeros never load it.
"""

from ._kernels import USING_NUMBA
from .analytical import (
    FactoredPrecision,
    ShrinkageSolution,
    eigenvalue_map,
    wasserstein_shrinkage,
    wasserstein_shrinkage_path,
)
from .applications import (
    BacktestConfig,
    BacktestResult,
    BenchmarkResult,
    LabeledDataset,
    LdaModel,
    SyntheticSpec,
    analytical_estimator,
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
from .errors import ConvergenceError, EstimationError, LinearSolveError, LineSearchError, SingularMatrixError
from .evaluation import (
    CLASSIFICATION_RHO_GRID,
    CVReport,
    SampleMoments,
    TuningGrid,
    cross_validate,
    gaussian_validation_nll,
    linear_shrinkage,
    make_folds,
    sample_moments,
    stein_loss,
)
from .gaussian import (
    SpectralDecomposition,
    as_symmetric,
    induced_metric_V,
    spectral_decompose,
    sqrtm_psd,
)
from .sqa import (
    SolverConfig,
    SolverTrace,
    SparsityPattern,
    reformulation_objective,
    sqa_gradient,
    sqa_solve,
)
from .worst_case import (
    WorstCaseDistribution,
    extremal_covariance,
    extremal_for_optimal,
    extremal_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "USING_NUMBA",
    "FactoredPrecision",
    "ShrinkageSolution",
    "eigenvalue_map",
    "reformulation_objective",
    "wasserstein_shrinkage",
    "wasserstein_shrinkage_path",
    "BacktestConfig",
    "BacktestResult",
    "BenchmarkResult",
    "LabeledDataset",
    "LdaModel",
    "SyntheticSpec",
    "analytical_estimator",
    "known_zero_pattern",
    "lda_classify",
    "lda_fit",
    "min_variance_weights",
    "pooled_moments",
    "rolling_backtest",
    "sample_gaussian",
    "sparse_estimator",
    "synthetic_benchmark",
    "synthetic_sigma0",
    "zero_pattern_of",
    "ConvergenceError",
    "EstimationError",
    "LinearSolveError",
    "LineSearchError",
    "SingularMatrixError",
    "CLASSIFICATION_RHO_GRID",
    "CVReport",
    "SampleMoments",
    "TuningGrid",
    "cross_validate",
    "gaussian_validation_nll",
    "linear_shrinkage",
    "make_folds",
    "sample_moments",
    "stein_loss",
    "SpectralDecomposition",
    "as_symmetric",
    "induced_metric_V",
    "spectral_decompose",
    "sqrtm_psd",
    "SolverConfig",
    "SolverTrace",
    "SparsityPattern",
    "sqa_gradient",
    "sqa_solve",
    "WorstCaseDistribution",
    "extremal_covariance",
    "extremal_for_optimal",
    "extremal_gamma",
]
