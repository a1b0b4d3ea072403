import json
import math
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from wshrink import io, sqa
from wshrink.analytical import _eigenbasis_objective, wasserstein_shrinkage
from wshrink.applications import (SyntheticSpec, known_zero_pattern, sample_gaussian, synthetic_benchmark,
                                  synthetic_sigma0, zero_pattern_of)
from wshrink.evaluation import TuningGrid, sample_moments
from wshrink.errors import LinearSolveError, LineSearchError
from wshrink.gaussian import RANK_RTOL, psd_spectrum
from wshrink.sqa import (NewtonStep, SolverConfig, SparsityPattern, armijo_step, reformulation_objective, sqa_gradient,
                         sqa_solve)
from wshrink.worst_case import extremal_covariance, extremal_gamma

from conftest import covariances, random_psd_singular, random_rotation, random_spd, refuse_allocation, tracemalloc_peak

#: the public functions of a caller's point ``(cov, X, gamma)`` with a radius, whose one domain is
#: ``gaussian._cone_inputs``'s; ``extremal_gamma`` takes no multiplier and decides on ``(cov, X)`` alone
_POINT_FUNCTIONS = {
    "sqa_gradient": sqa_gradient,
    "reformulation_objective": reformulation_objective,
    "extremal_gamma": lambda cov, X, gamma, rho: extremal_gamma(cov, X, rho),
    "extremal_covariance": lambda cov, X, gamma, rho: extremal_covariance(cov, X, gamma),
}
#: log10 of a ratio drawn on either side of the rank cut, a factor 1.1 away from it: eigvalsh and eigh
#: round differently there
_LOG10_CUT, _LOG10_AWAY = math.log10(RANK_RTOL), math.log10(1.1)
_ratios_off_the_cut = st.one_of(st.floats(-16.0, _LOG10_CUT - _LOG10_AWAY), st.floats(_LOG10_CUT + _LOG10_AWAY, -8.0))


def feasible_point(p, rng, margin=1.6):
    X = random_spd(p, rng, scale=0.5)
    gamma = float(np.linalg.eigvalsh(X)[-1] * margin + 0.4)
    return X, gamma


def random_direction(p, rng):
    A = rng.standard_normal((p, p))
    return 0.5 * (A + A.T), float(rng.standard_normal())


def robust_objective(cov, X, rho):
    """Worst-case log-loss of ``X`` over the ball, the objective minimized over the
    multiplier alone: ``-log det X + min_g g (rho^2 - tr S) + g^2 <(g I - X)^-1, S>``,
    in the eigenbasis of ``X``.  The inner function is convex on ``(lambda_max(X), inf)``."""
    x, U = np.linalg.eigh(X)
    s = np.einsum("ij,ik,kj->j", U, cov, U)
    s = np.where(s < RANK_RTOL * s.max(), 0.0, s)  # cov is PSD: roundoff below the rank cut is zero
    base = rho * rho - s.sum()  # tr S of the cleaned diagonal: a term below the cut is zero here too

    def slope(g):
        return base + np.sum(s * g * (g - 2.0 * x) / (g - x) ** 2)

    g = x[-1] * (1.0 + 1e-12)
    if slope(g) < 0.0:
        hi = 2.0 * g
        while slope(hi) <= 0.0:
            hi *= 2.0
        g = brentq(slope, g, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return float(-np.log(x).sum() + g * base + g * g * np.sum(s / (g - x)))


def hessian_apply(cov, X, gamma, direction):
    """The quadratic-model Hessian applied to a ``(symmetric matrix, scalar)`` direction.

    Matrix-free, by the Kronecker identities ``(A (x) B) vec V = vec(A V B)``:
    the oracle that the assembled Newton step is checked against.
    """
    ws = sqa._Workspace(cov, X, gamma)
    V, w = direction
    mat = ws.Xinv @ V @ ws.Xinv
    mat += (2.0 / ws.gamma) * (ws.Ginv @ V @ ws.GinvSGinv)
    mat -= (w / ws.gamma**2) * ws.W
    mat = 0.5 * (mat + mat.T)
    scalar = -float(np.sum(ws.W * V)) / ws.gamma**2 + w * ws.h_gamma_gamma
    return mat, scalar


def assert_projected_newton_equation(cov, X, gamma, rho, pattern):
    """The step of ``sqa_solve`` solves ``P (H z + g) = 0`` to 1e-10 relative."""
    step = descent_direction(cov, X, gamma, rho, pattern)
    g_mat, g_gamma = sqa_gradient(cov, X, gamma, rho)
    M, s = hessian_apply(cov, X, gamma, (step.delta_X, step.delta_gamma))
    free = sqa._FreeCoordinates(X.shape[0], pattern)
    residual = free.contract(M + g_mat, s + g_gamma)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(free.contract(g_mat, g_gamma))


def descent_direction(cov, X, gamma, rho, pattern=None):
    """The Newton step that ``sqa_solve`` takes at ``(X, gamma)``."""
    ws = sqa._Workspace(cov, X, gamma)
    return sqa._descent_direction(ws, ws.gradient(rho), sqa._FreeCoordinates(X.shape[0], pattern))


def dense_kkt_oracle(cov, X, gamma, rho, pattern):
    """Brute-force projected Newton step: materialize the full (p^2+1) system
    with explicit Kronecker products (C-order vec) and solve over an explicit
    free-coordinate basis."""
    p = X.shape[0]
    eye = np.eye(p)
    Xinv = np.linalg.inv(X)
    Ginv = np.linalg.inv(eye - X / gamma)
    GinvSGinv = Ginv @ cov @ Ginv
    K = X @ Ginv @ cov
    W = Ginv @ (K + K.T) @ Ginv
    Hxx = np.kron(Xinv, Xinv) + (2.0 / gamma) * np.kron(Ginv, GinvSGinv)
    border = -(W / gamma**2).reshape(-1)
    hgg = (2.0 / gamma**3) * np.trace(Ginv @ X @ Ginv @ cov @ Ginv @ X)
    H = np.zeros((p * p + 1, p * p + 1))
    H[: p * p, : p * p] = Hxx
    H[: p * p, -1] = border
    H[-1, : p * p] = border
    H[-1, -1] = hgg
    g_gamma = rho**2 + np.trace(Ginv @ cov @ (eye - Ginv @ X / gamma)) - np.trace(cov)
    g = np.append((GinvSGinv - Xinv).reshape(-1), g_gamma)

    mask = pattern.mask() if pattern is not None else np.zeros((p, p), dtype=bool)
    cols = []
    for i in range(p):
        for j in range(i, p):
            if mask[i, j]:
                continue
            E = np.zeros((p, p))
            E[i, j] = 1.0
            E[j, i] = 1.0
            cols.append(np.append(E.reshape(-1), 0.0))
    cols.append(np.append(np.zeros(p * p), 1.0))
    T = np.column_stack(cols)
    u = np.linalg.solve(T.T @ H @ T, -T.T @ g)
    z = T @ u
    dX = z[: p * p].reshape(p, p)
    return dX, float(z[-1]), H, g


def projection_matrix(pattern, p):
    n = p * p + 1
    P = np.zeros((n, n))
    mask = pattern.mask() if pattern is not None else np.zeros((p, p), dtype=bool)
    for i in range(p):
        for j in range(p):
            k = i * p + j
            if mask[i, j]:
                continue
            P[k, k] += 0.5
            P[k, j * p + i] += 0.5
    P[-1, -1] = 1.0
    return P


#: integer types a pattern's indices may arrive as: Python ints, and NumPy's from index arrays
_INDEX_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64]


@st.composite
def _pair_lists(draw):
    """``(dim, pairs)``: dims 1-12 and valid off-diagonal pairs in either orientation, some
    repeated, each index of a drawn integer type."""
    dim = draw(st.integers(1, 12))
    index = st.integers(0, dim - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(lambda ij: ij[0] != ij[1]), max_size=40)) if dim > 1 else []
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    types = draw(st.lists(st.sampled_from(_INDEX_TYPES), min_size=2 * len(pairs), max_size=2 * len(pairs)))
    return dim, [(types[2 * k](i), types[2 * k + 1](j)) for k, (i, j) in enumerate(pairs)]


class TestSparsityPattern:
    def test_symmetric_closure(self):
        pat = SparsityPattern(4, [(0, 3)])
        assert (3, 0) in pat.pairs and (0, 3) in pat.pairs
        assert len(pat) == 2

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SparsityPattern(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparsityPattern(3, [(0, 3)])

    @pytest.mark.parametrize("dim", [3.7, 4.0, True, "4"])
    def test_rejects_non_integer_dimension(self, dim):
        with pytest.raises(ValueError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            SparsityPattern(dim, [(0, 1)])

    @pytest.mark.parametrize("pair", [(1.9, 3), ("1", 2), (0, True), (np.float64(1.0), 2)],
                             ids=["float", "str", "bool", "numpy-float"])
    def test_rejects_non_integer_index(self, pair):
        with pytest.raises(ValueError, match="index must be an integer, got"):
            SparsityPattern(4, [pair])

    def test_accepts_numpy_integers(self):
        pat = SparsityPattern(np.int64(4), [(np.int32(1), np.uint8(3))])
        assert pat.dim == 4 and type(pat.dim) is int
        assert pat.pairs == SparsityPattern(4, [(1, 3)]).pairs

    def test_reports_the_first_offending_pair(self):
        with pytest.raises(ValueError, match="out of range"):
            SparsityPattern(3, [(0, 5), (1, 1)])
        with pytest.raises(ValueError, match="diagonal"):
            SparsityPattern(3, [(1, 1), (0, 5)])

    @settings(max_examples=200, deadline=None)
    @given(case=_pair_lists())
    def test_mask_pairs_and_file_agree(self, case):
        dim, pairs = case
        pat = SparsityPattern(dim, pairs)
        M = pat.mask()
        assert M.dtype == bool and M.shape == (dim, dim)
        assert np.array_equal(M, M.T) and not M.diagonal().any()
        assert pat.pairs == {(int(i), int(j)) for i, j in zip(*np.nonzero(M))}
        assert pat.pairs == {(int(i), int(j)) for i, j in pairs} | {(int(j), int(i)) for i, j in pairs}
        assert len(pat) == np.count_nonzero(M)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pattern.json"
            path.write_text(json.dumps({"p": dim, "zeros": [[i + 1, j + 1] for i, j in sorted(pat.pairs)]}))
            read = io.read_pattern_json(path)
        assert read == pat and hash(read) == hash(pat)

    def test_writing_a_returned_mask_changes_nothing(self, rng):
        p = 6
        pattern = SparsityPattern(p, [(0, 3), (1, 4)])
        cov = random_spd(p, rng)
        before, _ = sqa_solve(cov, 0.5, pattern)
        M = pattern.mask()
        M[...] = ~M
        assert np.array_equal(pattern.mask(), ~M)
        after, _ = sqa_solve(cov, 0.5, pattern)
        assert np.array_equal(after.precision, before.precision)
        assert after.precision[0, 3] == after.precision[1, 4] == 0.0

    def test_free_coordinates_share_the_pattern_mask(self):
        # the mask is built once, by the pattern; every solve reads that one read-only array
        pattern = SparsityPattern(5, [(0, 2), (1, 4)])
        a, b = sqa._FreeCoordinates(5, pattern), sqa._FreeCoordinates(5, pattern)
        assert np.shares_memory(a.mask, b.mask) and not a.mask.flags.writeable
        assert a.I.size == 5 + 10 - 2
        assert not sqa._FreeCoordinates(5, None).mask.any()


class TestGradient:
    def test_matches_directional_finite_differences(self, rng):
        # reference point X = I/2, gamma = 2, cov = I, rho = 1
        X, gamma = np.eye(5) / 2.0, 2.0
        cov = np.eye(5)
        g_mat, g_gamma = sqa_gradient(cov, X, gamma, 1.0)
        h = 1e-6
        for _ in range(10):
            D, w = random_direction(5, rng)
            fp = reformulation_objective(cov, X + h * D, gamma + h * w, 1.0)
            fm = reformulation_objective(cov, X - h * D, gamma - h * w, 1.0)
            fd = (fp - fm) / (2.0 * h)
            an = float(np.sum(g_mat * D) + g_gamma * w)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_random_points_match_fd(self, rng):
        for _ in range(20):
            p = int(rng.integers(2, 6))
            cov = random_spd(p, rng)
            X, gamma = feasible_point(p, rng)
            rho = float(rng.uniform(0.2, 2.0))
            g_mat, g_gamma = sqa_gradient(cov, X, gamma, rho)
            D, w = random_direction(p, rng)
            scale = np.sqrt(np.sum(D * D) + w * w)
            D, w = D / scale, w / scale
            h = 1e-6 * max(1.0, gamma)
            fd = (
                reformulation_objective(cov, X + h * D, gamma + h * w, rho)
                - reformulation_objective(cov, X - h * D, gamma - h * w, rho)
            ) / (2.0 * h)
            an = float(np.sum(g_mat * D) + g_gamma * w)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_zero_covariance_special_case(self, rng):
        X, gamma = feasible_point(4, rng)
        g_mat, g_gamma = sqa_gradient(np.zeros((4, 4)), X, gamma, 0.8)
        assert_allclose(g_mat, -np.linalg.inv(X), atol=1e-10)
        assert_allclose(g_gamma, 0.64, atol=1e-12)

    def test_vanishes_at_analytical_solution(self, rng):
        cov = random_spd(6, rng)
        sol = wasserstein_shrinkage(cov, 0.7)
        g_mat, g_gamma = sqa_gradient(cov, sol.precision, sol.dual_multiplier, 0.7)
        scale = max(1.0, float(np.linalg.norm(1.0 / sol.shrunk_eigenvalues)))
        assert np.sqrt(np.sum(g_mat**2) + g_gamma**2) <= 1e-6 * scale

    def test_rejects_infeasible_point(self, rng):
        cov = random_spd(3, rng)
        with pytest.raises(ValueError, match="positive definite"):
            sqa_gradient(cov, np.eye(3), 0.5, 1.0)

    # the gradient and its siblings check the shapes before any product
    @pytest.mark.parametrize("fn", _POINT_FUNCTIONS.values(), ids=_POINT_FUNCTIONS)
    def test_rejects_mismatched_shapes(self, fn):
        with pytest.raises(ValueError, match="cov and X dimensions differ"):
            fn(np.eye(3), 0.5 * np.eye(4), 1.0, 1.0)

    # one domain for the four: X positive definite by the rank cut, cov PSD by psd_spectrum
    @pytest.mark.parametrize("fn", _POINT_FUNCTIONS.values(), ids=_POINT_FUNCTIONS)
    @pytest.mark.parametrize("cov, X, message", [
        (np.eye(2), np.diag([1e-14, 1.0]), "X must be positive definite"),
        (np.diag([1.0, -0.5]), 0.1 * np.eye(2), "cov is not PSD"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1 * np.eye(2), "cov is not PSD"),
    ], ids=["X_below_rank_cut", "cov_negative_diagonal", "cov_indefinite"])
    def test_rejects_points_outside_the_domain(self, fn, cov, X, message):
        with pytest.raises(ValueError, match=message):
            fn(cov, X, 2.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), log10_ratio=_ratios_off_the_cut,
           log10_margin=_ratios_off_the_cut, log10_c=st.floats(-8.0, 8.0))
    def test_four_functions_share_one_domain(self, data, p, seed, log10_ratio, log10_margin, log10_c):
        # X = Q diag(d) Q^T with lambda_min / lambda_max and gamma / lambda_max - 1 on either side of
        # RANK_RTOL: all four accept, or all raise one message, and scaling (cov, X, gamma) changes neither
        rng = np.random.default_rng(seed)
        d = np.concatenate(([10.0**log10_ratio], 10.0 ** rng.uniform(log10_ratio, 0.0, p - 2), [1.0]))
        Q = random_rotation(p, rng)
        X, cov, gamma = (Q * d) @ Q.T, data.draw(covariances(dim=p)), 1.0 + 10.0**log10_margin
        X = 0.5 * (X + X.T)
        for name, fn in _POINT_FUNCTIONS.items():
            if log10_ratio < _LOG10_CUT:
                expected = "X must be positive definite"
            elif log10_margin < _LOG10_CUT and name != "extremal_gamma":
                expected = "gamma I - X must be positive definite"
            else:
                expected = None
            for c in (1.0, 10.0**log10_c):
                args = (c * cov, c * X, c * gamma, np.sqrt(c))
                if expected is None:
                    fn(*args)
                else:
                    with pytest.raises(ValueError, match=f"^{expected}$"):
                        fn(*args)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_multiplier(self, gamma, rng):
        # at gamma = inf the cone test passes and the gradient comes out finite
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            sqa_gradient(random_spd(3, rng), 0.5 * np.eye(3), gamma, 1.0)

    # one domain for the three: gamma within RANK_RTOL of lambda_max(X) is on the cone's boundary,
    # although the Cholesky factor of gamma I - X still exists there
    @pytest.mark.parametrize("fn", [
        lambda cov, X, gamma: sqa_gradient(cov, X, gamma, 1.0),
        lambda cov, X, gamma: reformulation_objective(cov, X, gamma, 1.0),
        extremal_covariance,
    ], ids=["sqa_gradient", "reformulation_objective", "extremal_covariance"])
    def test_rejects_multiplier_within_rank_tolerance_of_boundary(self, fn, rng):
        cov, X = random_spd(3, rng), random_spd(3, rng)
        top = np.linalg.eigvalsh(X)[-1]
        fn(cov, X, top * (1.0 + 1e-6))  # inside the domain
        with pytest.raises(ValueError, match="gamma I - X must be positive definite"):
            fn(cov, X, top * (1.0 + 1e-13))


class TestObjectiveForms:
    @settings(max_examples=200, deadline=None)
    @given(cov=covariances(), seed=st.integers(0, 2**32 - 1), log10_c=st.floats(-8.0, 8.0),
           log10_margin=st.floats(-3.0, 3.0), r=st.floats(0.1, 10.0))
    def test_cholesky_form_matches_eigenbasis_form(self, cov, seed, log10_c, log10_margin, r):
        # the same objective from the factors of X and gamma I - X, and from eigh(X) with
        # m = diag(U^T S U): exact for any X, so they agree to rounding at every scale c
        p, c = cov.shape[0], 10.0**log10_c
        S, X = c * cov, random_spd(p, np.random.default_rng(seed)) / c
        d, U = np.linalg.eigh(X)
        gamma, rho = d[-1] * (1.0 + 10.0**log10_margin), np.sqrt(c) * r
        m = np.einsum("ij,ik,kj->j", U, S, U)
        eigen = _eigenbasis_objective(d, m, gamma, rho)
        # the magnitudes of the terms of the cancellation-free form both evaluate
        scale = np.abs(np.log(d)).sum() + gamma * (rho * rho + np.sum(np.abs(m) * d / (gamma - d)))
        assert abs(reformulation_objective(S, X, gamma, rho) - eigen) <= 1e-10 * scale


#: a diagonal X, eigenvalues below 1 so that every term of f is positive, and a diagonal S with a zero
_DIAG_X = np.array([0.2, 0.45, 0.7, 0.95])
_DIAG_S = np.array([0.3, 1.1, 0.0, 2.0])
#: multipliers far above lambda_max(X) = 0.95, where the paper's form cancels, and small to moderate radii
_EXACT_GRID = [(gamma, rho) for gamma in 10.0 ** np.arange(2, 9) for rho in (1e-3, 1e-2, 0.1, 1.0)]


def exact_diagonal(gamma, rho):
    """``(f, g_gamma)`` at ``X = diag(_DIAG_X)``, ``S = diag(_DIAG_S)``: rational arithmetic on the
    float inputs, ``f = -sum log x + gamma (rho^2 + sum s x / (gamma - x))`` and ``g_gamma = rho^2 -
    sum s x^2 / (gamma - x)^2``; only the sum of the logs is rounded, by less than an ulp of ``f``."""
    g, r2 = Fraction(gamma), Fraction(rho) ** 2
    xs, ss = [Fraction(x) for x in _DIAG_X], [Fraction(s) for s in _DIAG_S]
    rational = g * (r2 + sum(s * x / (g - x) for x, s in zip(xs, ss)))
    slope = r2 - sum(s * x * x / ((g - x) * (g - x)) for x, s in zip(xs, ss))
    return float(rational - Fraction(math.fsum(np.log(_DIAG_X)))), float(slope)


class TestExactReference:
    """The objective, its eigenbasis form and the multiplier gradient against exact rational
    values on diagonal input.  The paper's form ``gamma (rho^2 - tr S) + gamma^2 <A^-1, S>``
    cancels at large ``gamma``: at ``gamma = 1e8`` its rounding is about ``gamma tr S eps``."""

    @staticmethod
    def worst(errors):
        return max(errors, key=lambda e: e[0])

    def test_reformulation_objective(self):
        X, S = np.diag(_DIAG_X), np.diag(_DIAG_S)
        errors = []
        for gamma, rho in _EXACT_GRID:
            f = exact_diagonal(gamma, rho)[0]
            errors.append((abs(reformulation_objective(S, X, gamma, rho) - f) / abs(f), gamma, rho))
        assert self.worst(errors)[0] <= 1e-14, self.worst(errors)

    def test_eigenbasis_objective(self):
        errors = []
        for gamma, rho in _EXACT_GRID:
            f = exact_diagonal(gamma, rho)[0]
            errors.append((abs(_eigenbasis_objective(_DIAG_X, _DIAG_S, gamma, rho) - f) / abs(f), gamma, rho))
        assert self.worst(errors)[0] <= 1e-14, self.worst(errors)

    def test_multiplier_gradient(self):
        # relative to rho^2 where the gradient itself is smaller: its terms are rho^2 and one below it
        X, S = np.diag(_DIAG_X), np.diag(_DIAG_S)
        errors = []
        for gamma, rho in _EXACT_GRID:
            g = exact_diagonal(gamma, rho)[1]
            got = sqa_gradient(S, X, gamma, rho)[1]
            errors.append((abs(got - g) / max(abs(g), rho * rho), gamma, rho))
        assert self.worst(errors)[0] <= 1e-14, self.worst(errors)


class TestRayScaling:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 12), rank=st.integers(1, 12),
           log10_s=st.floats(-6.0, 6.0), log10_c=st.floats(-3.0, 3.0), log10_margin=st.floats(-3.0, 3.0),
           r=st.floats(0.1, 10.0))
    def test_objective_along_the_ray(self, seed, p, rank, log10_s, log10_c, log10_margin, r):
        # -log det X is the only term not homogeneous of degree 1 in (X, gamma), so
        # f(cX, c gamma) = f - p log c + (c - 1) K with K = f + log det X, least at c = p / K
        rng = np.random.default_rng(seed)
        s, c = 10.0**log10_s, 10.0**log10_c
        S, X = s * random_psd_singular(p, min(rank, p), rng), random_spd(p, rng) / s
        d, U = np.linalg.eigh(X)
        gamma, rho = d[-1] * (1.0 + 10.0**log10_margin), np.sqrt(s) * r
        f = reformulation_objective(S, X, gamma, rho)
        logdet = float(np.log(d).sum())
        K = f + logdet
        m = np.einsum("ij,ik,kj->j", U, S, U)
        # the terms' magnitudes at c = 1 and at c: the rounding of f, and of (c - 1) K, scales with them
        terms = gamma * (rho * rho + np.trace(S)) + gamma * gamma * np.sum(np.abs(m) / (gamma - d))
        scale = abs(logdet) + p * abs(np.log(c)) + max(1.0, c) * terms
        expected = f - p * np.log(c) + (c - 1.0) * K
        assert abs(reformulation_objective(S, c * X, c * gamma, rho) - expected) <= 1e-9 * scale
        c_star = p / K
        at_optimum = reformulation_objective(S, c_star * X, c_star * gamma, rho)
        assert at_optimum <= f + 1e-12 * (abs(logdet) + terms)


class TestHessianApply:
    def test_zero_direction_maps_to_zero(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        M, s = hessian_apply(cov, X, gamma, (np.zeros((4, 4)), 0.0))
        assert np.abs(M).max() == 0.0 and s == 0.0

    def test_linear_in_direction(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        D1, w1 = random_direction(4, rng)
        D2, w2 = random_direction(4, rng)
        a, b = 0.7, -1.3
        M12, s12 = hessian_apply(cov, X, gamma, (a * D1 + b * D2, a * w1 + b * w2))
        M1, s1 = hessian_apply(cov, X, gamma, (D1, w1))
        M2, s2 = hessian_apply(cov, X, gamma, (D2, w2))
        assert np.abs(M12 - a * M1 - b * M2).max() <= 1e-10
        assert abs(s12 - a * s1 - b * s2) <= 1e-10

    def test_symmetric_bilinear_form(self, rng):
        cov = random_spd(5, rng)
        X, gamma = feasible_point(5, rng)
        for _ in range(10):
            D1, w1 = random_direction(5, rng)
            D2, w2 = random_direction(5, rng)
            M1, s1 = hessian_apply(cov, X, gamma, (D1, w1))
            M2, s2 = hessian_apply(cov, X, gamma, (D2, w2))
            lhs = float(np.sum(M1 * D2) + s1 * w2)
            rhs = float(np.sum(D1 * M2) + w1 * s2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_positive_definite_form(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        for _ in range(10):
            D, w = random_direction(4, rng)
            M, s = hessian_apply(cov, X, gamma, (D, w))
            assert float(np.sum(M * D) + s * w) > 0.0

    def test_quadratic_form_matches_second_order_fd(self, rng):
        for _ in range(20):
            p = int(rng.integers(2, 5))
            cov = random_spd(p, rng)
            X, gamma = feasible_point(p, rng, margin=2.5)
            rho = 1.0
            D, w = random_direction(p, rng)
            scale = np.sqrt(np.sum(D * D) + w * w)
            D, w = D / scale, w / scale
            M, s = hessian_apply(cov, X, gamma, (D, w))
            quad = float(np.sum(M * D) + s * w)
            h = 1e-4 * max(1.0, gamma)
            f0 = reformulation_objective(cov, X, gamma, rho)
            fp = reformulation_objective(cov, X + h * D, gamma + h * w, rho)
            fm = reformulation_objective(cov, X - h * D, gamma - h * w, rho)
            fd = (fp - 2.0 * f0 + fm) / (h * h)
            assert abs(fd - quad) <= 1e-4 * max(1.0, abs(quad))

    def test_zero_covariance_reduces_to_logdet_block(self, rng):
        X, gamma = feasible_point(4, rng)
        D, w = random_direction(4, rng)
        M, s = hessian_apply(np.zeros((4, 4)), X, gamma, (D, w))
        Xinv = np.linalg.inv(X)
        assert_allclose(M, Xinv @ D @ Xinv, atol=1e-10)
        assert s == 0.0


class TestDescentDirection:
    def test_zero_step_at_unconstrained_optimum(self, rng):
        cov = random_spd(5, rng)
        sol = wasserstein_shrinkage(cov, 0.8)
        step = descent_direction(cov, sol.precision, sol.dual_multiplier, 0.8)
        assert np.abs(step.delta_X).max() <= 1e-6
        assert abs(step.delta_gamma) <= 1e-6

    @pytest.mark.parametrize("p, pairs", [
        pytest.param(4, [(0, 3)], id="pairs0"),
        pytest.param(4, [(0, 1), (2, 3)], id="pairs1"),
        pytest.param(4, [], id="pairs2"),
        # free dimension 22 >> p: the diagonal-pair scaling of many rows and columns
        pytest.param(7, [(0, 6), (1, 5), (2, 4), (0, 3), (3, 6), (1, 2)], id="p7_six_pairs"),
    ])
    def test_matches_dense_kron_oracle(self, p, pairs, rng):
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        rho = 0.9
        pattern = SparsityPattern(p, pairs) if pairs else None
        dX_ref, dg_ref, H, g = dense_kkt_oracle(cov, X, gamma, rho, pattern)
        step = descent_direction(cov, X, gamma, rho, pattern)
        assert np.abs(step.delta_X - dX_ref).max() <= 1e-8 * (1.0 + np.abs(dX_ref).max())
        assert abs(step.delta_gamma - dg_ref) <= 1e-8 * (1.0 + abs(dg_ref))
        z = np.append(step.delta_X.reshape(-1), step.delta_gamma)
        P = projection_matrix(pattern, p)
        kkt = P @ (H @ z + g)
        assert np.linalg.norm(kkt) <= 1e-8 * max(1.0, np.linalg.norm(P @ g))

    def test_row_blocks_match_dense_kron_oracle(self, rng):
        # p = 16 with 4 pattern pairs: 132 free pairs, so two full row blocks and a partial one
        p = 16
        pattern = SparsityPattern(p, [(0, 15), (3, 7), (5, 12), (9, 10)])
        assert sqa._FreeCoordinates(p, pattern).I.size == 132
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        dX_ref, dg_ref, _, _ = dense_kkt_oracle(cov, X, gamma, 0.9, pattern)
        step = descent_direction(cov, X, gamma, 0.9, pattern)
        assert np.linalg.norm(step.delta_X - dX_ref) <= 1e-10 * np.linalg.norm(dX_ref)
        assert abs(step.delta_gamma - dg_ref) <= 1e-10 * abs(dg_ref)

    def test_diagonal_pairs_span_row_blocks(self, rng):
        # p = 70 > _BLOCK_ROWS: the diagonal pairs fill the first row block and part of the second
        p = 70
        kept = {(0, 1), (5, 40), (33, 69)}
        pattern = SparsityPattern(p, [(i, j) for i in range(p) for j in range(i + 1, p) if (i, j) not in kept])
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        assert_projected_newton_equation(cov, X, gamma, 0.9, pattern)

    @given(p=st.integers(min_value=2, max_value=24), density=st.floats(min_value=0.0, max_value=0.9),
           seed=st.integers(min_value=0, max_value=2**32 - 1), block_rows=st.integers(min_value=1, max_value=40),
           panel_cols=st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_random_patterns_match_dense_kron_oracle(self, p, density, seed, block_rows, panel_cols):
        # up to 300 free pairs in row blocks and column panels of any size: blocks and panels
        # start inside the diagonal pairs or past them, and a block may cross a panel's first column
        rng = np.random.default_rng(seed)
        I, J = np.triu_indices(p, 1)
        zero = rng.random(I.size) < density
        pattern = SparsityPattern(p, zip(I[zero], J[zero]))
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        dX_ref, dg_ref, _, _ = dense_kkt_oracle(cov, X, gamma, 0.9, pattern)
        with mock.patch.multiple(sqa, _BLOCK_ROWS=block_rows, _PANEL_COLS=panel_cols):
            step = descent_direction(cov, X, gamma, 0.9, pattern)
        z, z_ref = np.append(step.delta_X, step.delta_gamma), np.append(dX_ref, dg_ref)
        assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)

    def test_large_free_dimension(self, rng):
        # p = 64 with one pattern pair: 2,079 free pairs, a 35 MB Newton matrix
        p = 64
        pattern = SparsityPattern(p, [(0, 63)])
        assert sqa._FreeCoordinates(p, pattern).I.size == 2079
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        assert_projected_newton_equation(cov, X, gamma, 0.9, pattern)

    def test_unallocatable_newton_matrix_raises(self, rng, monkeypatch):
        p = 6
        pattern = SparsityPattern(p, [(0, 5)])
        f = sqa._FreeCoordinates(p, pattern).I.size
        refuse_allocation(monkeypatch, (f, f))
        with pytest.raises(LinearSolveError, match=f"{f} x {f} Newton matrix"):
            sqa_solve(random_spd(p, rng), 0.5, pattern)

    def test_unallocatable_panel_raises(self, rng, monkeypatch):
        p = 6
        pattern = SparsityPattern(p, [(0, 5)])
        w = min(sqa._FreeCoordinates(p, pattern).I.size, sqa._PANEL_COLS)
        refuse_allocation(monkeypatch, (6, p, w))
        with pytest.raises(LinearSolveError, match=f"6 x {p} x {w} panel"):
            sqa_solve(random_spd(p, rng), 0.5, pattern)

    def test_nonpositive_schur_complement_raises(self, rng):
        p = 5
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        ws = sqa._Workspace(cov, X, gamma)
        free = sqa._FreeCoordinates(p, SparsityPattern(p, [(0, 4)]))
        b = -free.contract(*ws.gradient(0.9))
        free.solve_newton(ws, b)
        # the pair block stays positive definite; H does not, in the multiplier
        # coordinate (h_gamma_gamma) nor along the ray (X, gamma)
        ws.h_gamma_gamma = 0.0
        ws.X = np.zeros((p, p))
        with pytest.raises(LinearSolveError, match="Schur complement"):
            free.solve_newton(ws, b)

    def test_indefinite_pair_block_raises(self, rng):
        # LAPACK reports an indefinite pair block by its info code, not by raising
        p = 5
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        ws = sqa._Workspace(cov, X, gamma)
        free = sqa._FreeCoordinates(p, SparsityPattern(p, [(0, 4)]))
        b = -free.contract(*ws.gradient(0.9))
        ws.GinvSGinv = -1e6 * np.eye(p)
        with pytest.raises(LinearSolveError, match="not positive definite: .*leading minor"):
            free.solve_newton(ws, b)

    def test_ray_step_matches_dense_kron_oracle(self, rng):
        # h_gamma_gamma = 0 makes the multiplier's Schur complement negative, as
        # cancellation does near the cone boundary, so the ray (X, gamma) is eliminated instead
        p = 5
        pattern = SparsityPattern(p, [(0, 4), (1, 3)])
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        X[pattern.mask()] = 0.0  # the ray needs X zero on the pattern
        assert np.linalg.eigvalsh(X)[0] > 0.0
        dX_ref, dg_ref, _, _ = dense_kkt_oracle(cov, X, gamma, 0.9, pattern)
        ws = sqa._Workspace(cov, X, gamma)
        ws.h_gamma_gamma = 0.0
        free = sqa._FreeCoordinates(p, pattern)
        dX, dg = free.expand(free.solve_newton(ws, -free.contract(*ws.gradient(0.9))))
        assert np.linalg.norm(dX - dX_ref) <= 1e-10 * np.linalg.norm(dX_ref)
        assert abs(dg - dg_ref) <= 1e-10 * abs(dg_ref)

    def test_dense_step_memory(self, rng):
        # one dense Newton step holds one f x f buffer, plus row blocks and O(p^2) workspace
        p = 40
        upper = [(i, j) for i in range(p) for j in range(i + 1, p)]
        pairs = [upper[k] for k in rng.choice(len(upper), size=354, replace=False)]
        pattern = SparsityPattern(p, pairs)
        f = sqa._FreeCoordinates(p, pattern).I.size
        assert f == 466
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        tracemalloc.start()
        try:
            descent_direction(cov, X, gamma, 0.9, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * f * f

    def test_sparse_step_memory(self, rng):
        # p = 120 with 300 free off-diagonal pairs: the f x f buffer is smaller than the
        # panel of gathered columns, 6 p x min(f, _PANEL_COLS) doubles, which bounds the peak instead
        p = 120
        upper = [(i, j) for i in range(p) for j in range(i + 1, p)]
        free = set(rng.choice(len(upper), size=300, replace=False).tolist())
        pattern = SparsityPattern(p, [pair for k, pair in enumerate(upper) if k not in free])
        f = sqa._FreeCoordinates(p, pattern).I.size
        assert f == 420
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        peak = tracemalloc_peak(lambda: descent_direction(cov, X, gamma, 0.9, pattern))
        assert peak < 2.5 * (8 * f * f + 48 * p * min(f, sqa._PANEL_COLS))

    def test_predicted_decrease_negative_off_optimum(self, rng):
        cov = random_spd(4, rng)
        step = descent_direction(cov, np.eye(4), 2.0, 1.0)
        assert step.predicted_decrease < 0.0

    def test_pattern_zeros_respected(self, rng):
        cov = random_spd(5, rng)
        pat = SparsityPattern(5, [(0, 4), (1, 3)])
        step = descent_direction(cov, np.eye(5), 2.0, 1.0, pat)
        assert np.abs(step.delta_X[pat.mask()]).max() == 0.0


class TestArmijo:
    def test_full_step_near_optimum(self, rng):
        cov = random_spd(5, rng)
        sol, trace = sqa_solve(cov, 0.6, config=SolverConfig(grad_tol=1e-9))
        assert trace.step_sizes[-1] == 1.0

    def test_halves_step_outside_cone(self, rng):
        cov = random_spd(3, rng)
        X, gamma = np.eye(3) * 0.5, 2.0
        huge = -10.0 * np.eye(3)  # would leave the positive definite cone at alpha=1
        g_mat, g_gamma = sqa_gradient(cov, X, gamma, 1.0)
        delta = float(np.sum(g_mat * huge))
        assert delta < 0.0
        step = NewtonStep(delta_X=huge, delta_gamma=0.0, predicted_decrease=delta)
        f = reformulation_objective(cov, X, gamma, 1.0)
        alpha, point, full = armijo_step(sqa._Workspace(cov, X, gamma), 1.0, step)
        assert alpha < 1.0 and full is None
        assert np.linalg.eigvalsh(X + alpha * huge)[0] > 0.0
        f_new = point.objective(1.0)
        assert f_new == reformulation_objective(cov, X + alpha * huge, gamma, 1.0)
        assert f_new < f

    @pytest.mark.parametrize("seed", range(5))
    def test_expands_short_step_near_optimum(self, seed):
        # a quarter of the Newton step: doubling twice reaches the Newton point, a third overshoots
        cov = random_spd(5, np.random.default_rng(seed))
        sol, _ = sqa_solve(cov, 0.6, config=SolverConfig(grad_tol=1e-2))
        X, gamma = sol.precision, sol.dual_multiplier
        step = descent_direction(cov, X, gamma, 0.6)
        start = sqa._Workspace(cov, X, gamma)
        assert armijo_step(start, 0.6, step)[0] == 1.0
        quarter = NewtonStep(delta_X=0.25 * step.delta_X, delta_gamma=0.25 * step.delta_gamma,
                             predicted_decrease=0.25 * step.predicted_decrease)
        alpha, point, _ = armijo_step(start, 0.6, quarter)
        assert alpha == 4.0
        f_new = point.objective(0.6)

        def at(a):
            return reformulation_objective(cov, X + a * quarter.delta_X, gamma + a * quarter.delta_gamma, 0.6)

        assert f_new == at(4.0) < at(2.0)
        w = np.linalg.eigvalsh(X + 4.0 * quarter.delta_X)
        assert 0.0 < w[0] and w[-1] < gamma + 4.0 * quarter.delta_gamma

    def test_expansion_stops_at_cone_boundary(self):
        # X + step = 1.3 I passes, X + 2 step = 2.1 I lies outside the cone X < 2 I
        cov, X, gamma = 0.01 * np.eye(3), 0.5 * np.eye(3), 2.0
        direction = 0.8 * np.eye(3)
        g_mat, _ = sqa_gradient(cov, X, gamma, 1.0)
        step = NewtonStep(delta_X=direction, delta_gamma=0.0, predicted_decrease=float(np.sum(g_mat * direction)))
        f = reformulation_objective(cov, X, gamma, 1.0)
        alpha, point, full = armijo_step(sqa._Workspace(cov, X, gamma), 1.0, step)
        assert alpha == 1.0 and full is point
        f_new = point.objective(1.0)
        assert f_new == reformulation_objective(cov, X + direction, gamma, 1.0) < f
        # the objective still falls toward the boundary, so the cone ends the expansion
        assert reformulation_objective(cov, X + 1.75 * direction, gamma, 1.0) < f_new

    @pytest.mark.parametrize("margin, expected", [(0.5, 1.0), (2.0, 4.0)])
    def test_doubling_needs_a_decrease_beyond_rounding(self, margin, expected, monkeypatch):
        # along X = (0.5 + 0.2 alpha) I the objective falls until alpha is about 6, and alpha = 8
        # leaves the cone, so the step doubles to 4.  The point at alpha = 2 is made lower than the
        # full step's by margin times the sum of both rounding levels: a near tie (margin < 1)
        # ends the expansion
        cov, X, gamma, rho = 0.01 * np.eye(3), 0.5 * np.eye(3), 2.0, 1.0
        direction = 0.2 * np.eye(3)
        g_mat, _ = sqa_gradient(cov, X, gamma, rho)
        step = NewtonStep(delta_X=direction, delta_gamma=0.0, predicted_decrease=float(np.sum(g_mat * direction)))
        start = sqa._Workspace(cov, X, gamma)
        assert armijo_step(start, rho, step)[0] == 4.0
        moved, full = sqa._moved, sqa._moved(start, step, 1.0)

        def near_tie(point, step, alpha):
            q = moved(point, step, alpha)
            if alpha == 2.0:
                f = full.objective(rho) - margin * (full.rounding(rho) + q.rounding(rho))
                q.objective = lambda rho: f
            return q

        monkeypatch.setattr(sqa, "_moved", near_tie)
        assert armijo_step(start, rho, step)[0] == expected

    def test_rejects_nondescent_step(self, rng):
        cov = random_spd(3, rng)
        X = np.eye(3) * 0.5
        step = NewtonStep(delta_X=np.zeros((3, 3)), delta_gamma=0.0, predicted_decrease=0.0)
        with pytest.raises(ValueError, match="descent"):
            armijo_step(sqa._Workspace(cov, X, 2.0), 1.0, step)

    def test_failure_after_halving_budget(self, rng, monkeypatch):
        cov = random_spd(3, rng)
        X, gamma = np.eye(3) * 0.5, 2.0
        # a fake "descent" direction that cannot decrease the objective
        g_mat, _ = sqa_gradient(cov, X, gamma, 1.0)
        step = NewtonStep(delta_X=g_mat, delta_gamma=0.0, predicted_decrease=-1.0)
        monkeypatch.setattr(sqa, "MAX_HALVINGS", 8)
        with pytest.raises(LineSearchError, match="within 8 halvings"):
            armijo_step(sqa._Workspace(cov, X, gamma), 1.0, step)


class TestSolve:
    def test_matches_analytical_without_pattern(self, rng):
        for p in (5, 10):
            cov = random_spd(p, rng)
            for rho in (0.1, 1.0):
                sol, trace = sqa_solve(cov, rho, config=SolverConfig(grad_tol=1e-9))
                ref = wasserstein_shrinkage(cov, rho)
                assert np.abs(sol.precision - ref.precision).max() <= 1e-4
                assert trace.iterations <= 100

    def test_diagonal_pattern_matches_analytical_on_diagonal_cov(self):
        cov = np.diag([2.0, 0.5])
        pattern = SparsityPattern(2, [(0, 1)])
        sol, _ = sqa_solve(cov, 0.7, pattern, SolverConfig(grad_tol=1e-10))
        assert abs(sol.precision[0, 1]) == 0.0
        ref = wasserstein_shrinkage(cov, 0.7)
        assert np.abs(sol.precision - ref.precision).max() <= 1e-6

    def test_each_step_lowers_objective_or_gradient(self, rng):
        # the solver's contract: a step lowers the objective, or, where the objective
        # no longer ranks points at rounding level, it is a full Newton step that
        # lowers the projected gradient norm
        cov = random_spd(8, rng)
        _, trace = sqa_solve(cov, 0.5, config=SolverConfig(grad_tol=1e-10))
        f, g = trace.objectives, trace.grad_norms
        assert trace.converged and len(f) == len(g) == trace.iterations + 1
        for k, alpha in enumerate(trace.step_sizes):
            assert f[k + 1] < f[k] or (alpha == 1.0 and g[k + 1] < g[k]), k

    @staticmethod
    def iterates(cov, rho, pattern, config):
        """The solve's trace and every iterate ``(X, gamma)``, the warm start first.

        The solver is deterministic, so iterate k is the result of the same solve
        capped at k iterations; the last one is checked against the full solve.
        """
        solution, trace = sqa_solve(cov, rho, pattern, config)
        iterates = []
        for k in range(trace.iterations + 1):
            capped, _ = sqa_solve(cov, rho, pattern, SolverConfig(grad_tol=config.grad_tol, max_iters=k))
            iterates.append((capped.precision, capped.dual_multiplier))
        assert np.array_equal(iterates[-1][0], solution.precision)
        assert iterates[-1][1] == solution.dual_multiplier
        return trace, iterates

    @staticmethod
    def assert_iterates_strictly_feasible(trace, iterates, pattern):
        assert trace.converged
        assert len(iterates) == trace.iterations + 1  # the warm start comes first
        for X, gamma in iterates:
            w = np.linalg.eigvalsh(X)
            assert w[0] > 0.0
            assert w[-1] < gamma
            if pattern is not None:
                assert not np.any(X[pattern.mask()])

    def test_iterates_strictly_feasible(self, rng):
        cov = random_spd(6, rng)
        trace, iterates = self.iterates(cov, 0.4, None, SolverConfig(grad_tol=1e-9))
        self.assert_iterates_strictly_feasible(trace, iterates, None)

    @pytest.mark.parametrize("kind", ["rank_deficient", "scaled_1e-4"])
    def test_iterates_strictly_feasible_with_pattern(self, kind, rng):
        p, rho = 6, 0.4
        pattern = SparsityPattern(p, [(0, 5), (1, 4), (2, 3), (0, 2)])
        if kind == "rank_deficient":
            A = rng.standard_normal((3, p))
            cov = A.T @ A / 3.0  # n = 3 < p
        else:
            cov, rho = 1e-4 * random_spd(p, rng), 1e-2 * rho
        trace, iterates = self.iterates(cov, rho, pattern, SolverConfig(grad_tol=1e-9))
        self.assert_iterates_strictly_feasible(trace, iterates, pattern)

    def test_few_samples_with_pattern_converge(self, rng):
        # n = 3 < p = 8: the optimum hugs the cone boundary on the null space of
        # cov.  From a purely diagonal start these solves take up to 94 iterations;
        # the warm start keeps the structure of the analytical solution.
        pattern = SparsityPattern(8, [(0, 7), (1, 6), (2, 5), (3, 4)])
        for _ in range(10):
            A = rng.standard_normal((3, 8))
            sol, trace = sqa_solve(A.T @ A / 3.0, 0.4, pattern)
            assert trace.converged
            assert trace.iterations <= 60
            assert not np.any(sol.precision[pattern.mask()])

    def test_pattern_zeros_exact(self, rng):
        cov = random_spd(6, rng)
        pattern = SparsityPattern(6, [(0, 5), (1, 4), (2, 3)])
        sol, _ = sqa_solve(cov, 0.5, pattern)
        assert np.abs(sol.precision[pattern.mask()]).max() == 0.0
        assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

    def test_local_quadratic_convergence(self, rng):
        cov = random_spd(5, rng)
        _, iterates = self.iterates(cov, 0.5, None, SolverConfig(grad_tol=1e-12))
        Xf, gf = iterates[-1]
        errors = [np.linalg.norm(X - Xf) + abs(g - gf) for X, g in iterates[:-1]]
        tail = [(a, b) for a, b in zip(errors[-4:], errors[-3:]) if a > 0.0]
        assert len(tail) >= 3
        for e_t, e_next in tail:
            assert e_next <= 10.0 * e_t**2

    def test_rank_one_near_cone_boundary(self):
        # at this input the multiplier's Schur complement of the dense Newton step
        # cancels to a negative number (-84 against h_gamma_gamma = 1.9e14) at iteration 10
        a = np.array([1.397618, 1.204009, 1.302269, 0.622685, -1.44728, 1.601314, -0.943969])
        cov = np.outer(a, a)
        pattern = SparsityPattern(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                                      (1, 6), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)])
        rho = 0.8 * np.sqrt(np.trace(cov))
        sol, trace = sqa_solve(cov, rho, pattern, SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov)))
        assert trace.converged
        assert not np.any(sol.precision[pattern.mask()])
        assert sol.objective >= wasserstein_shrinkage(cov, rho).objective  # the unconstrained optimum

    def test_singular_covariance_regularized(self, rng):
        A = rng.standard_normal((3, 6))
        cov = A.T @ A / 3.0  # rank 3 of 6
        sol, trace = sqa_solve(cov, 0.8)
        assert trace.converged
        assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

    def test_decomposes_cov_once(self, rng, monkeypatch):
        # one eigh of cov serves the rank check, the ridge and the warm start; one eigh
        # of the returned X serves its eigenvalues and the caller's multiplier
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        A = rng.standard_normal((3, 6))
        sqa_solve(A.T @ A / 3.0, 0.8, SparsityPattern(6, [(0, 5), (1, 4)]))  # rank 3 of 6: ridged
        assert calls == {"eigh": 2, "eigvalsh": 0}

    @pytest.mark.parametrize("pairs", [[], [(0, 7), (1, 6), (2, 5)]], ids=["empty", "pattern"])
    def test_scale_equivariance_rank_deficient(self, pairs, rng):
        # n = 5 < p = 8, so the solve regularizes cov, and the ridge must scale with it:
        # (c cov, sqrt(c) rho) gives X / c
        A = rng.standard_normal((5, 8))
        cov, rho = A.T @ A / 5.0, 0.5
        pattern = SparsityPattern(8, pairs)
        ref, _ = sqa_solve(cov, rho, pattern, SolverConfig(grad_tol=1e-10))
        for c in (1e-8, 1e-4, 1e4):
            sol, trace = sqa_solve(c * cov, np.sqrt(c) * rho, pattern, SolverConfig(grad_tol=1e-10 * c))
            assert trace.converged
            gap = np.linalg.norm(c * sol.precision - ref.precision) / np.linalg.norm(ref.precision)
            assert gap <= 1e-6

    @given(cov=covariances(), radius=st.floats(min_value=1e-2, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, cov, radius, seed):
        # relabeling the variables of cov and of the pattern together relabels X;
        # the budget is raised because rank-1 input can take over 100 full Newton steps
        p = cov.shape[0]
        rng = np.random.default_rng(seed)
        I, J = np.triu_indices(p, 1)
        keep = rng.random(I.size) < 0.5
        perm = rng.permutation(p)
        new = np.argsort(perm)  # variable perm[k] becomes variable k
        rho = np.sqrt(np.trace(cov)) * radius
        config = SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov), max_iters=500)
        ref, ref_trace = sqa_solve(cov, rho, SparsityPattern(p, zip(I[keep], J[keep])), config)
        sol, trace = sqa_solve(cov[np.ix_(perm, perm)], rho,
                               SparsityPattern(p, zip(new[I[keep]], new[J[keep]])), config)
        assert ref_trace.converged and trace.converged
        expected = ref.precision[np.ix_(perm, perm)]
        assert np.linalg.norm(sol.precision - expected) <= 1e-5 * np.linalg.norm(expected)

    @given(cov=covariances(), radius=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=100, deadline=None)
    def test_empty_pattern_matches_analytical(self, cov, radius):
        # on singular cov the solver solves with the ridge cov + eps I; the gap that
        # leaves is bounded as in the benchmark's empty-pattern check
        rho = np.sqrt(np.trace(cov)) * radius
        sol, trace = sqa_solve(cov, rho, config=SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov), max_iters=500))
        ref = wasserstein_shrinkage(cov, rho)
        assert trace.converged
        gap = (robust_objective(cov, sol.precision, rho) - ref.objective) / max(1.0, abs(ref.objective))
        if ref.shrunk_eigenvalues[0] < ref.dual_multiplier:  # no zero sample eigenvalue maps to gamma
            assert abs(gap) <= 1e-9
            assert np.abs(sol.precision - ref.precision).max() <= 1e-5 * np.abs(ref.precision).max()
        else:
            assert -1e-9 <= gap <= 1e-2

    @given(cov=covariances(), radius=st.floats(min_value=1e-2, max_value=1e2),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_reports_the_callers_problem(self, cov, radius, seed):
        # singular cov is solved with a ridge, and the solution reports the caller's problem at
        # the returned X: the objective minimized over the multiplier.  A full-rank solve
        # reports its last iterate, as its trace does.
        p = cov.shape[0]
        I, J = np.triu_indices(p, 1)
        keep = np.random.default_rng(seed).random(I.size) < 0.5
        rho = np.sqrt(np.trace(cov)) * radius
        sol, trace = sqa_solve(cov, rho, SparsityPattern(p, zip(I[keep], J[keep])))
        assert sol.dual_multiplier >= sol.shrunk_eigenvalues[-1]
        if psd_spectrum(np.linalg.eigvalsh(cov))[0] == 0.0:
            expected = robust_objective(cov, sol.precision, rho)
            assert abs(sol.objective - expected) <= 1e-9 * abs(expected)
        else:
            assert sol.objective == trace.objectives[-1]

    @given(cov=covariances(), radii=st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_optimal_objective_nondecreasing_in_rho(self, cov, radii, seed):
        # each (X, gamma) is feasible for every radius and the objective grows with
        # rho at a fixed point, so the optimum cannot fall as rho grows
        p = cov.shape[0]
        I, J = np.triu_indices(p, 1)
        keep = np.random.default_rng(seed).random(I.size) < 0.5
        pattern = SparsityPattern(p, zip(I[keep], J[keep]))
        config = SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov), max_iters=500)
        objectives = []
        for rho in np.sqrt(np.trace(cov)) * np.sort(radii):
            sol, trace = sqa_solve(cov, rho, pattern, config)
            assert trace.converged
            objectives.append(sol.objective)
        for low, high in zip(objectives, objectives[1:]):
            assert high >= low - 1e-9 * max(1.0, abs(low))

    @given(data=st.data(), radii=st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=2),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_previous_solution_start(self, data, radii, seed):
        # the solution of another covariance and radius is a feasible start; taken only where it
        # beats the analytical one, it reaches the same optimum.  The second covariance is the
        # first (a radius sweep), a mix of it with another (a fold change), or another, whose
        # scale can differ by 1e16
        cov1 = data.draw(covariances())
        p = cov1.shape[0]
        t = data.draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
        cov2 = (1.0 - t) * cov1 + t * data.draw(covariances(dim=p))
        I, J = np.triu_indices(p, 1)
        keep = np.random.default_rng(seed).random(I.size) < 0.5
        pattern = SparsityPattern(p, zip(I[keep], J[keep]))
        rho1, rho2 = np.sqrt(np.trace(cov1)) * radii[0], np.sqrt(np.trace(cov2)) * radii[1]
        X1 = sqa_solve(cov1, rho1, pattern, SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov1), max_iters=500))
        config = SolverConfig(grad_tol=1e-9 * np.linalg.norm(cov2), max_iters=500)
        cold, cold_trace = sqa_solve(cov2, rho2, pattern, config)
        warm, trace = sqa_solve(cov2, rho2, pattern, config, _start=X1[0].precision)
        assert cold_trace.converged and trace.converged
        assert not np.any(warm.precision[pattern.mask()])
        assert trace.objectives[0] <= cold_trace.objectives[0]
        assert (trace.start == "previous") == (trace.objectives[0] < cold_trace.objectives[0])
        assert abs(trace.objectives[-1] - cold_trace.objectives[-1]) <= 1e-8 * abs(cold_trace.objectives[-1])

    @staticmethod
    def assert_ends_below_tolerance(trace, grad_tol):
        """Converged at the gradient test; the objective rises only by rounding,
        at a full step that lowered the projected gradient."""
        assert trace.converged
        assert trace.grad_norms[-1] <= grad_tol
        objs = trace.objectives
        for k, (before, after) in enumerate(zip(objs, objs[1:])):
            if not after < before:
                assert trace.step_sizes[k] == 1.0
                assert trace.grad_norms[k + 1] < trace.grad_norms[k]
                assert after - before <= 1e-10 * abs(before)

    @pytest.mark.parametrize("spec_seed", [119253154, 1763574599, 1636813174])
    def test_synthetic_items_end_below_tolerance(self, spec_seed):
        # the 15 cold solves of three synthetic-benchmark items, one per radius of the benchmark's
        # grid: each stops at the gradient test, below grad_tol, and a step that does not lower the
        # objective may only be a full Newton step that lowers the projected gradient (none of
        # these solves takes one: every accepted step lowers the objective)
        spec = SyntheticSpec(dim=30, density=0.05, n_samples=30, trials=1, seed=spec_seed)
        truth = zero_pattern_of(np.linalg.inv(synthetic_sigma0(spec)))
        pattern = known_zero_pattern(truth, 0.5, spec_seed)
        config = SolverConfig()
        traces = []

        def estimate(moments, rho):
            solution, trace = sqa_solve(moments.covariance, rho, pattern, config)
            traces.append(trace)
            return solution.precision

        synthetic_benchmark(spec, {"sqa": estimate}, {"sqa": TuningGrid.from_log10("rho", -1.0, 1.0, 5)})
        assert len(traces) == 5
        for trace in traces:
            self.assert_ends_below_tolerance(trace, config.grad_tol)

    def test_tight_tolerance_ends_below_tolerance(self):
        # small well-sampled problems solved to 1e-9, where the predicted decrease
        # and the objective's rounding both vanish before the gradient does
        rng = np.random.default_rng(2024)
        config = SolverConfig(grad_tol=1e-9)
        for k in range(40):
            p = 3 + k % 5
            A = rng.standard_normal((30, p)) @ rng.standard_normal((p, p))
            rho = float(10 ** rng.uniform(-2.0, 0.5))
            pattern = SparsityPattern(p, [(0, 1)]) if k % 2 else None
            _, trace = sqa_solve(A.T @ A / 30.0, rho, pattern, config)
            self.assert_ends_below_tolerance(trace, config.grad_tol)

    def test_restart_from_own_solution_stops_at_once(self, rng):
        A = rng.standard_normal((5, 8))  # rank 5 of 8: ridged
        cov, pattern = A.T @ A / 5.0, SparsityPattern(8, [(0, 7), (1, 6), (2, 5), (3, 4)])
        first, _ = sqa_solve(cov, 0.5, pattern)
        again, trace = sqa_solve(cov, 0.5, pattern, _start=first.precision)
        assert trace.start == "previous" and trace.converged and trace.iterations == 0
        assert (again.precision == first.precision).all()
        # the start is tested like any iterate: with no step allowed, it is still converged
        again, trace = sqa_solve(cov, 0.5, pattern, SolverConfig(max_iters=0), _start=first.precision)
        assert trace.converged and trace.grad_norms[0] <= SolverConfig().grad_tol and len(trace.grad_norms) == 1
        assert (again.precision == first.precision).all()

    def test_no_matrix_is_factored_twice(self, monkeypatch):
        # every visited point is factored once: the line search's accepted point is the next
        # iterate, and the rounding-level full step is the line search's own
        cholesky, factored = np.linalg.cholesky, []

        def recorded(a):
            factored.append(np.asarray(a).tobytes())
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        for spec_seed in (11, 12, 13):
            spec = SyntheticSpec(dim=30, density=0.05, n_samples=30, trials=1, seed=spec_seed)
            sigma = synthetic_sigma0(spec)
            pattern = known_zero_pattern(zero_pattern_of(np.linalg.inv(sigma)), 0.5, spec_seed)
            cov = sample_moments(sample_gaussian(sigma, 30, spec_seed + 1)).covariance
            previous = None
            for rho in (0.1, 1.0, 10.0):
                factored.clear()
                solution, trace = sqa_solve(cov, rho, pattern, _start=previous)
                previous = solution.precision
                assert trace.converged and len(factored) > 2 * trace.iterations > 0
                assert len(set(factored)) == len(factored)

    def test_rejects_start_of_another_dimension(self, rng):
        with pytest.raises(ValueError, match="_start dimension"):
            sqa_solve(random_spd(4, rng), 0.5, _start=np.eye(3))

    @pytest.mark.parametrize("rho", [0.01, 10.0])
    def test_last_allowed_step_is_tested(self, rho):
        # these solves meet the tolerance at their fifth iterate: a budget of 5 steps reaches it,
        # so the solve converged, with the gradient norm of the estimate it returns
        spec = SyntheticSpec(dim=3, density=0.5, n_samples=8, trials=1, seed=0)
        sigma = synthetic_sigma0(spec)
        pattern = known_zero_pattern(zero_pattern_of(np.linalg.inv(sigma)), 0.5, spec.seed)
        cov = sample_moments(sample_gaussian(sigma, spec.n_samples, spec.seed + 1)).covariance
        unbounded, unbounded_trace = sqa_solve(cov, rho, pattern)
        assert unbounded_trace.converged and unbounded_trace.iterations == 5
        budget, trace = sqa_solve(cov, rho, pattern, SolverConfig(max_iters=5))
        assert trace.converged and trace.message == unbounded_trace.message
        assert trace.grad_norms == unbounded_trace.grad_norms
        assert (budget.precision == unbounded.precision).all()

    def test_budget_exhaustion_flagged(self, rng):
        cov = random_spd(6, rng)
        for max_iters in (0, 2):
            sol, trace = sqa_solve(cov, 0.3, config=SolverConfig(max_iters=max_iters))
            assert not trace.converged
            assert "budget" in trace.message
            # every iterate is tested, the last one included
            assert trace.iterations == max_iters and len(trace.grad_norms) == max_iters + 1
            assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="PSD"):
            sqa_solve(np.diag([1.0, -0.5]), 1.0)

    @pytest.mark.parametrize("grad_tol", [np.inf, np.nan, 0.0, -1e-3])
    def test_config_rejects_nonfinite_or_nonpositive_tolerance(self, grad_tol):
        # an infinite tolerance would report the warm start as converged after 0 iterations
        with pytest.raises(ValueError, match="grad_tol must be finite and positive"):
            SolverConfig(grad_tol=grad_tol)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "3"])
    def test_config_rejects_non_integer_budget(self, max_iters):
        # a float budget would reach range() inside sqa_solve as a TypeError
        with pytest.raises(ValueError, match=re.escape(f"max_iters must be an integer, got {max_iters!r}")):
            SolverConfig(max_iters=max_iters)
