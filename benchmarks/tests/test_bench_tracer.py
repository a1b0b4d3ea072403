"""The tracer restores what it wraps and its self times add up."""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import wshrink  # noqa: E402
import wshrink.cli  # noqa: E402,F401
from wsbench import tracer as tr  # noqa: E402


def _bindings():
    """Every (module, attribute) -> object that the tracer may replace."""
    owners = {n: m for n, m in sys.modules.items() if n == "wshrink" or n.startswith("wshrink.")}
    owners.update({"numpy.linalg": np.linalg, "scipy.linalg": scipy.linalg})
    return {(n, a): v for n, m in owners.items() for a, v in vars(m).items() if callable(v)}


def _small_cv():
    data = np.random.default_rng(0).standard_normal((6, 3))
    grid = wshrink.TuningGrid.from_log10("rho", -1.0, 1.0, 3)
    return wshrink.cross_validate(data, wshrink.analytical_estimator, grid, scheme="loo")


def test_wraps_inside_and_restores_after():
    before = _bindings()
    with tr.Tracer() as tracer:
        assert wshrink.cross_validate is not before[("wshrink", "cross_validate")]
        assert wshrink.evaluation.cross_validate is wshrink.cross_validate
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        _small_cv()
    assert _bindings() == before
    assert tracer.spans


def test_restores_when_a_job_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tr.Tracer() as tracer:
            wshrink.wasserstein_shrinkage(np.eye(3), -1.0)
    assert _bindings() == before
    errors = [s for s in tracer.spans if s.error]
    assert [s.name for s in errors] == ["analytical.wasserstein_shrinkage"]


def test_scoped_library_calls_are_attributed_to_their_layer():
    with tr.Tracer() as tracer:
        np.linalg.eigh(np.eye(2))  # outside any package span: not recorded
        _small_cv()
    eigh = [s for s in tracer.spans if s.name == "gaussian.linalg.eigh"]
    assert eigh and all(tracer.spans[s.parent].name == "gaussian.spectral_decompose" for s in eigh)
    metrics = tr.layer_metrics(tracer, jobs=1)
    assert metrics["gaussian.linalg.eigh.calls"] == 6 * 3
    assert metrics["analytical.wasserstein_shrinkage.calls"] == 6 * 3
    assert metrics["kernels.root_iters_per_call"] > 0


def test_self_times_nonnegative_and_bounded_by_parent():
    with tr.Tracer() as tracer:
        _small_cv()
        wshrink.sqa_solve(np.cov(np.random.default_rng(1).standard_normal((10, 4)), rowvar=False),
                          0.5, wshrink.SparsityPattern(4, [(0, 1)]))
    own = tr.self_times(tracer.spans)
    assert min(own) >= -1e-12
    subtree = list(own)
    for i in range(len(tracer.spans) - 1, -1, -1):  # children are recorded after their parent
        parent = tracer.spans[i].parent
        if parent >= 0:
            subtree[parent] += subtree[i]
    for span, total in zip(tracer.spans, subtree):
        assert total <= span.end - span.start + 1e-9
    metrics = tr.layer_metrics(tracer, jobs=1)
    assert metrics["sqa.iters_per_solve"] > 0
    assert metrics["sqa.cholesky_per_iter"] > 0
