"""In-memory span tracer that wraps functions at the attribute where callers look them up.

A package function is replaced on every ``wshrink`` module that holds it, so
calls through ``from .x import f`` bindings and through ``module.f`` are both
seen.  A library function (``np.linalg.eigh``, ``scipy.linalg.solve``,
``sqa.cg``) is replaced on its owning module but only records a span when the
innermost open span belongs to its ``scope`` layer, so it is counted "as seen
from" that layer.  Every replaced attribute is put back on exit, also when
the traced code raises.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: int = 0
    error: bool = False


@dataclass(frozen=True)
class Target:
    """``owner`` is a module name, ``attr`` the attribute on it."""

    owner: str
    attr: str
    name: str
    scope: str | None = None  # library function: record only under this layer


#: what the traced run wraps; the layer of a span is the text before its first dot
TARGETS = (
    Target("wshrink.analytical", "wasserstein_shrinkage", "analytical.wasserstein_shrinkage"),
    Target("wshrink.analytical", "gamma_bracket", "analytical.gamma_bracket"),
    Target("wshrink._kernels", "solve_gamma_bracketed", "kernels.solve_gamma_bracketed"),
    Target("wshrink._kernels", "shrink_eigenvalues", "kernels.shrink_eigenvalues"),
    Target("wshrink.gaussian", "as_symmetric", "gaussian.as_symmetric"),
    Target("wshrink.gaussian", "spectral_decompose", "gaussian.spectral_decompose"),
    Target("numpy.linalg", "eigh", "gaussian.linalg.eigh", scope="gaussian"),
    Target("wshrink.evaluation", "cross_validate", "evaluation.cross_validate"),
    Target("wshrink.evaluation", "sample_moments", "evaluation.sample_moments"),
    Target("wshrink.evaluation", "gaussian_validation_nll", "evaluation.gaussian_validation_nll"),
    Target("wshrink.evaluation", "stein_loss", "evaluation.stein_loss"),
    Target("wshrink.sqa", "sqa_solve", "sqa.sqa_solve"),
    Target("wshrink.sqa", "armijo_step", "sqa.armijo_step"),
    Target("scipy.linalg", "solve", "sqa.newton_solve", scope="sqa"),
    Target("wshrink.sqa", "cg", "sqa.newton_solve", scope="sqa"),
    Target("numpy.linalg", "cholesky", "sqa.cholesky", scope="sqa"),
    Target("wshrink.applications", "synthetic_benchmark", "applications.synthetic_benchmark"),
    Target("wshrink.applications", "rolling_backtest", "applications.rolling_backtest"),
    Target("wshrink.applications", "min_variance_weights", "applications.min_variance_weights"),
    Target("wshrink.io", "read_matrix_csv", "io.read_matrix_csv"),
    Target("wshrink.io", "write_json", "io.write_json"),
    Target("wshrink.cli", "main", "cli.main"),
)

#: span name -> the part of each return value the tracer keeps
KEPT_RESULTS = {
    "analytical.wasserstein_shrinkage": lambda solution: solution.iterations,
    "sqa.sqa_solve": lambda out: out[1],  # SolverTrace
}

#: what untraced runs wrap: only ``sqa_solve``, to read ``SolverTrace.converged``
SOLVER_WATCH = (Target("wshrink.sqa", "sqa_solve", "sqa.sqa_solve"),)

#: span names, one per reported layer function (``newton_solve`` merges solve and cg)
SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Context manager that installs the wrappers, records spans, and restores.

    ``results`` keeps selected return values: the ``iterations`` of every
    ``wasserstein_shrinkage`` solution and the ``SolverTrace`` of every
    ``sqa_solve`` call.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.results: dict[str, list] = {name: [] for name in KEPT_RESULTS}
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self, target: Target):
        original = getattr(sys.modules[target.owner], target.attr)
        wrapper = self._wrap(original, target)
        if target.scope is not None:
            owners = [sys.modules[target.owner]]
        else:
            owners = [m for n, m in list(sys.modules.items())
                      if (n == "wshrink" or n.startswith("wshrink.")) and m is not None]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _wrap(self, fn, target: Target):
        spans, stack, keep = self.spans, self._stack, self.results.get(target.name)
        name, scope, extract = target.name, target.scope, KEPT_RESULTS.get(target.name)

        def wrapper(*args, **kwargs):
            if scope is not None and (not stack or layer(spans[stack[-1]].name) != scope):
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1, job=self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep is not None:
                keep.append(extract(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job calls, self time and errors of every span name, plus solver counts."""
    own = self_times(tracer.spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0.0
    for span, t in zip(tracer.spans, own):
        out[f"{span.name}.calls"] += 1.0
        out[f"{span.name}.self_s"] += t
        out[f"{span.name}.errors"] += span.error
    for key in out:
        out[key] /= max(jobs, 1)

    root_iters = tracer.results["analytical.wasserstein_shrinkage"]
    out["kernels.root_iters_per_call"] = sum(root_iters) / len(root_iters) if root_iters else 0.0
    traces = tracer.results["sqa.sqa_solve"]
    iters = sum(t.iterations for t in traces)
    halvings = sum(round(-math.log2(a)) for t in traces for a in t.step_sizes)
    out["sqa.iters_per_solve"] = iters / len(traces) if traces else 0.0
    out["sqa.halvings_per_iter"] = halvings / iters if iters else 0.0
    out["sqa.cholesky_per_iter"] = out["sqa.cholesky.calls"] * max(jobs, 1) / iters if iters else 0.0
    return out
