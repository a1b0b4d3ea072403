import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wshrink import sqa
from wshrink.analytical import reformulation_objective, wasserstein_shrinkage
from wshrink.errors import LinearSolveError, LineSearchError
from wshrink.sqa import (
    NewtonStep,
    SolverConfig,
    SparsityPattern,
    armijo_step,
    descent_direction,
    project_pattern,
    sqa_gradient,
    sqa_hessian_apply,
    sqa_solve,
)

from conftest import random_spd


def feasible_point(p, rng, margin=1.6):
    X = random_spd(p, rng, scale=0.5)
    gamma = float(np.linalg.eigvalsh(X)[-1] * margin + 0.4)
    return X, gamma


def random_direction(p, rng):
    A = rng.standard_normal((p, p))
    return 0.5 * (A + A.T), float(rng.standard_normal())


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

    def test_one_based_conversion(self):
        pat = SparsityPattern(4, [(1, 4)], one_based=True)
        assert pat.pairs == frozenset({(0, 3), (3, 0)})


class TestProjection:
    def test_noop_on_symmetric_without_pattern(self, rng):
        Z = random_spd(4, rng)
        out, gamma = project_pattern(Z, 1.5, None)
        assert_allclose(out, Z)
        assert gamma == 1.5

    def test_kills_pattern_entries(self):
        Z = np.zeros((3, 3))
        Z[0, 2] = 1.0
        out, _ = project_pattern(Z, 0.0, SparsityPattern(3, [(0, 2)]))
        assert_allclose(out, np.zeros((3, 3)))

    def test_symmetrizes_asymmetric_input(self, rng):
        Z = rng.standard_normal((4, 4))
        out, _ = project_pattern(Z, 0.0, None)
        assert_allclose(out, 0.5 * (Z + Z.T))

    def test_idempotent_and_self_adjoint(self, rng):
        pat = SparsityPattern(5, [(0, 4), (2, 3)])
        for _ in range(10):
            Z1 = rng.standard_normal((5, 5))
            Z2 = rng.standard_normal((5, 5))
            w1, w2 = rng.standard_normal(2)
            P1, q1 = project_pattern(Z1, w1, pat)
            PP1, qq1 = project_pattern(P1, q1, pat)
            assert np.abs(PP1 - P1).max() <= 1e-12
            assert qq1 == q1
            P2, q2 = project_pattern(Z2, w2, pat)
            lhs = np.sum(P1 * Z2) + q1 * w2
            rhs = np.sum(Z1 * P2) + w1 * q2
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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


class TestHessianApply:
    def test_zero_direction_maps_to_zero(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        M, s = sqa_hessian_apply(cov, X, gamma, (np.zeros((4, 4)), 0.0))
        assert np.abs(M).max() == 0.0 and s == 0.0

    def test_linear_in_direction(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        D1, w1 = random_direction(4, rng)
        D2, w2 = random_direction(4, rng)
        a, b = 0.7, -1.3
        M12, s12 = sqa_hessian_apply(cov, X, gamma, (a * D1 + b * D2, a * w1 + b * w2))
        M1, s1 = sqa_hessian_apply(cov, X, gamma, (D1, w1))
        M2, s2 = sqa_hessian_apply(cov, X, gamma, (D2, w2))
        assert np.abs(M12 - a * M1 - b * M2).max() <= 1e-10
        assert abs(s12 - a * s1 - b * s2) <= 1e-10

    def test_symmetric_bilinear_form(self, rng):
        cov = random_spd(5, rng)
        X, gamma = feasible_point(5, rng)
        for _ in range(10):
            D1, w1 = random_direction(5, rng)
            D2, w2 = random_direction(5, rng)
            M1, s1 = sqa_hessian_apply(cov, X, gamma, (D1, w1))
            M2, s2 = sqa_hessian_apply(cov, X, gamma, (D2, w2))
            lhs = float(np.sum(M1 * D2) + s1 * w2)
            rhs = float(np.sum(D1 * M2) + w1 * s2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_positive_definite_form(self, rng):
        cov = random_spd(4, rng)
        X, gamma = feasible_point(4, rng)
        for _ in range(10):
            D, w = random_direction(4, rng)
            M, s = sqa_hessian_apply(cov, X, gamma, (D, w))
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
            M, s = sqa_hessian_apply(cov, X, gamma, (D, w))
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
        M, s = sqa_hessian_apply(np.zeros((4, 4)), X, gamma, (D, w))
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
    def test_matches_dense_kron_oracle(self, p, pairs, rng, monkeypatch):
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        rho = 0.9
        pattern = SparsityPattern(p, pairs) if pairs else None
        dX_ref, dg_ref, H, g = dense_kkt_oracle(cov, X, gamma, rho, pattern)
        for threshold in (sqa.DENSE_THRESHOLD, 0):  # dense assembly, then conjugate gradients
            monkeypatch.setattr(sqa, "DENSE_THRESHOLD", threshold)
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
        step = descent_direction(cov, X, gamma, 0.9, pattern)
        g_mat, g_gamma = sqa_gradient(cov, X, gamma, 0.9)
        M, s = sqa_hessian_apply(cov, X, gamma, (step.delta_X, step.delta_gamma))
        free = sqa._FreeCoordinates(p, pattern)
        residual = free.contract(M + g_mat, s + g_gamma)  # projected Newton equation
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(free.contract(g_mat, g_gamma))

    def test_nonpositive_schur_complement_raises(self, rng):
        p = 5
        cov = random_spd(p, rng)
        X, gamma = feasible_point(p, rng)
        ws = sqa._Workspace(cov, X, gamma)
        free = sqa._FreeCoordinates(p, SparsityPattern(p, [(0, 4)]))
        b = -free.contract(*ws.gradient(0.9))
        free.solve_newton(ws, b)
        ws.h_gamma_gamma = 0.0  # the pair block stays positive definite; H does not
        with pytest.raises(LinearSolveError, match="Schur complement"):
            free.solve_newton(ws, b)

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
        alpha, f_new = armijo_step(cov, X, gamma, 1.0, step)
        assert alpha < 1.0
        assert np.linalg.eigvalsh(X + alpha * huge)[0] > 0.0
        assert f_new == reformulation_objective(cov, X + alpha * huge, gamma, 1.0)
        assert f_new < reformulation_objective(cov, X, gamma, 1.0)

    def test_rejects_nondescent_step(self, rng):
        cov = random_spd(3, rng)
        step = NewtonStep(delta_X=np.zeros((3, 3)), delta_gamma=0.0, predicted_decrease=0.0)
        with pytest.raises(ValueError, match="descent"):
            armijo_step(cov, np.eye(3) * 0.5, 2.0, 1.0, step)

    def test_failure_after_halving_budget(self, rng):
        cov = random_spd(3, rng)
        X, gamma = np.eye(3) * 0.5, 2.0
        # a fake "descent" direction that cannot decrease the objective
        g_mat, g_gamma = sqa_gradient(cov, X, gamma, 1.0)
        ascent = project_pattern(g_mat, 0.0, None)[0]
        step = NewtonStep(delta_X=ascent, delta_gamma=0.0, predicted_decrease=-1.0)
        with pytest.raises(LineSearchError):
            armijo_step(cov, X, gamma, 1.0, step, SolverConfig(max_halvings=8))


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

    def test_objective_strictly_decreasing(self, rng):
        cov = random_spd(8, rng)
        _, trace = sqa_solve(cov, 0.5, config=SolverConfig(grad_tol=1e-10))
        objs = np.array(trace.objectives)
        assert (np.diff(objs) < 0.0).all()

    @staticmethod
    def assert_iterates_strictly_feasible(trace, pattern):
        assert trace.converged
        assert len(trace.iterates) == trace.iterations + 1  # the warm start comes first
        for X, gamma in trace.iterates:
            w = np.linalg.eigvalsh(X)
            assert w[0] > 0.0
            assert w[-1] < gamma
            if pattern is not None:
                assert not np.any(X[pattern.mask()])

    def test_iterates_strictly_feasible(self, rng):
        cov = random_spd(6, rng)
        _, trace = sqa_solve(cov, 0.4, config=SolverConfig(keep_iterates=True, grad_tol=1e-9))
        self.assert_iterates_strictly_feasible(trace, None)

    @pytest.mark.parametrize("kind", ["rank_deficient", "scaled_1e-4"])
    def test_iterates_strictly_feasible_with_pattern(self, kind, rng):
        p, rho = 6, 0.4
        pattern = SparsityPattern(p, [(0, 5), (1, 4), (2, 3), (0, 2)])
        if kind == "rank_deficient":
            A = rng.standard_normal((3, p))
            cov = A.T @ A / 3.0  # n = 3 < p
        else:
            cov, rho = 1e-4 * random_spd(p, rng), 1e-2 * rho
        _, trace = sqa_solve(cov, rho, pattern, SolverConfig(keep_iterates=True, grad_tol=1e-9))
        self.assert_iterates_strictly_feasible(trace, pattern)

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
        _, trace = sqa_solve(cov, 0.5, config=SolverConfig(grad_tol=1e-12, keep_iterates=True))
        Xf, gf = trace.iterates[-1]
        errors = [np.linalg.norm(X - Xf) + abs(g - gf) for X, g in trace.iterates[:-1]]
        tail = [(a, b) for a, b in zip(errors[-4:], errors[-3:]) if a > 0.0]
        assert len(tail) >= 3
        for e_t, e_next in tail:
            assert e_next <= 10.0 * e_t**2

    def test_singular_covariance_regularized(self, rng):
        A = rng.standard_normal((3, 6))
        cov = A.T @ A / 3.0  # rank 3 of 6
        sol, trace = sqa_solve(cov, 0.8)
        assert trace.converged
        assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

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

    def test_budget_exhaustion_flagged(self, rng):
        cov = random_spd(6, rng)
        sol, trace = sqa_solve(cov, 0.3, config=SolverConfig(max_iters=2))
        assert not trace.converged
        assert "budget" in trace.message
        assert np.linalg.eigvalsh(sol.precision)[0] > 0.0

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="PSD"):
            sqa_solve(np.diag([1.0, -0.5]), 1.0)
