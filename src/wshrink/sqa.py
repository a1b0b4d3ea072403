"""Sequential quadratic approximation solver under precision zero constraints.

Minimizes the convex reformulation objective over matrices with a prescribed
symmetric zero pattern (conditional-independence structure).  It starts from
a strictly feasible point built from the analytical solution, and each
iteration solves a projected Newton system for a feasible descent direction and
backtracks with an Armijo rule that also enforces the cone constraints
``0 < X < gamma I``.  The Newton system is never materialized at full size:
it is solved over the free coordinates (upper-triangle entries off the
pattern, plus the multiplier).  Up to a free dimension of
``DENSE_THRESHOLD``, the pair block of the reduced matrix is assembled in row
blocks into one reused buffer and Cholesky-factorized in place, and the
multiplier is eliminated by its Schur complement.  Above it, the system is
solved by matrix-free conjugate gradients using Kronecker-product identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, cg

from .analytical import ShrinkageSolution, _check_rho, _objective_at, eigenvalue_map, wasserstein_shrinkage
from .errors import LinearSolveError, LineSearchError
from .gaussian import as_symmetric, psd_spectrum

#: the reduced Newton system is assembled and factorized up to this free dimension,
#: and solved matrix-free by conjugate gradients above it
DENSE_THRESHOLD = 2000
#: relative residual at which conjugate gradients stop
CG_TOL = 1e-8


@dataclass(frozen=True)
class SparsityPattern:
    """Symmetric set of off-diagonal index pairs constrained to zero.

    Pairs are stored 0-based with symmetric closure applied; diagonal pairs
    are rejected (the diagonal of a positive definite matrix cannot vanish,
    and the diagonal part of the warm start must stay feasible).
    """

    dim: int
    pairs: frozenset

    def __init__(self, dim: int, pairs, one_based: bool = False):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        closed = set()
        for i, j in pairs:
            i, j = int(i), int(j)
            if one_based:
                i, j = i - 1, j - 1
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"index pair ({i}, {j}) out of range for dim {dim}")
            if i == j:
                raise ValueError(f"diagonal entries cannot be constrained to zero (index {i})")
            closed.add((i, j))
            closed.add((j, i))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "pairs", frozenset(closed))

    @classmethod
    def empty(cls, dim: int) -> "SparsityPattern":
        return cls(dim, ())

    def mask(self) -> np.ndarray:
        """Boolean matrix, True on entries constrained to zero."""
        m = np.zeros((self.dim, self.dim), dtype=bool)
        for i, j in self.pairs:
            m[i, j] = True
        return m

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SolverConfig:
    """Line search and stopping parameters."""

    sigma: float = 1e-4
    grad_tol: float = 1e-3
    max_iters: int = 100
    max_halvings: int = 60
    keep_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.sigma < 0.5:
            raise ValueError("sigma must lie in (0, 0.5)")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        for name in ("max_iters", "max_halvings"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class NewtonStep:
    """Feasible descent direction and its predicted first-order decrease."""

    delta_X: np.ndarray
    delta_gamma: float
    predicted_decrease: float


@dataclass
class SolverTrace:
    """Per-iteration solver history.

    ``objectives`` starts with the initial point, so it has one more entry
    than the number of accepted steps; ``grad_norms`` holds the projected
    gradient norm at each visited iterate.
    """

    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    iterates: list | None = None
    converged: bool = False
    iterations: int = 0
    message: str = ""


def project_pattern(Z, gamma_component: float, pattern: SparsityPattern | None):
    """Orthogonal projection onto the constraint subspace.

    Symmetrizes the matrix component, zeroes the pattern entries, and passes
    the scalar component through unchanged.  Idempotent and self-adjoint for
    the Frobenius inner product.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("Z must be square")
    out = 0.5 * (Z + Z.T)
    if pattern is not None:
        if pattern.dim != Z.shape[0]:
            raise ValueError("pattern dimension does not match Z")
        out[pattern.mask()] = 0.0
    return out, float(gamma_component)


class _Workspace:
    """Factorizations and matrix products reused within one iteration.

    Requires a strictly feasible point ``0 < X < gamma I``; raises
    ``ValueError`` otherwise.
    """

    def __init__(self, cov: np.ndarray, X: np.ndarray, gamma: float):
        p = X.shape[0]
        try:
            LX = np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            raise ValueError("X must be positive definite") from None
        G = np.eye(p) - X / gamma
        try:
            LG = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise ValueError("gamma I - X must be positive definite") from None
        self.cov = cov
        self.X = X
        self.gamma = float(gamma)
        self.p = p
        eye = np.eye(p)
        self.Xinv = scipy.linalg.cho_solve((LX, True), eye)
        self.Ginv = scipy.linalg.cho_solve((LG, True), eye)
        self.GinvS = self.Ginv @ cov
        GinvSGinv = self.GinvS @ self.Ginv
        self.GinvSGinv = 0.5 * (GinvSGinv + GinvSGinv.T)
        K = X @ self.GinvS
        self.W = self.Ginv @ (K + K.T) @ self.Ginv
        self.W = 0.5 * (self.W + self.W.T)
        GX = self.Ginv @ X
        self.h_gamma_gamma = 2.0 / gamma**3 * float(np.sum(GX.T * (self.GinvS @ GX)))

    def gradient(self, rho: float):
        g_mat = self.GinvSGinv - self.Xinv
        g_mat = 0.5 * (g_mat + g_mat.T)
        inner = float(np.sum(self.GinvS.T * (self.Ginv @ self.X)))
        g_gamma = rho * rho + float(np.trace(self.GinvS)) - inner / self.gamma - float(np.trace(self.cov))
        return g_mat, g_gamma

    def hessian_apply(self, V: np.ndarray, w: float):
        mat = self.Xinv @ V @ self.Xinv
        mat += (2.0 / self.gamma) * (self.Ginv @ V @ self.GinvSGinv)
        mat -= (w / self.gamma**2) * self.W
        mat = 0.5 * (mat + mat.T)
        scalar = -float(np.sum(self.W * V)) / self.gamma**2 + w * self.h_gamma_gamma
        return mat, scalar


#: ``_take(A[R], C, out=buf)`` writes ``A[np.ix_(R, C)]`` into ``buf``; the indices are in range
_take = partial(np.take, axis=1, mode="clip")

#: rows of the reduced Newton matrix assembled per block by ``_FreeCoordinates.solve_newton``
_BLOCK_ROWS = 64


class _FreeCoordinates:
    """Free coordinates of a zero pattern: the upper-triangle pairs ``(I, J)`` off
    the pattern, the ``p`` diagonal pairs first, plus the multiplier.

    Also solves the reduced Newton system over them.  For symmetric ``A``, ``B``
    the map ``V -> A V B`` on the symmetric free basis has the entry
    ``A[I_k, I_l] B[J_k, J_l] + A[I_k, J_l] B[J_k, I_l] + A[J_k, I_l] B[I_k, J_l]
    + A[J_k, J_l] B[I_k, I_l]`` in row ``k`` and column ``l``, halved in each row
    and column of a diagonal pair.  Each term is the product of two row-gathered
    blocks, so the pair block is assembled in blocks of ``_BLOCK_ROWS`` rows into
    one f x f buffer, which is kept and factorized in place.
    """

    def __init__(self, p: int, pattern: SparsityPattern | None):
        self.mask = pattern.mask() if pattern is not None else np.zeros((p, p), dtype=bool)
        I, J = np.triu_indices(p, 1)
        keep = ~self.mask[I, J]
        diag = np.arange(p)
        self.I, self.J = np.concatenate((diag, I[keep])), np.concatenate((diag, J[keep]))
        self.T = None

    def expand(self, u: np.ndarray):
        """Free coordinates -> (symmetric matrix, scalar)."""
        V = np.zeros(self.mask.shape)
        V[self.I, self.J] = u[:-1]
        V[self.J, self.I] = u[:-1]
        return V, float(u[-1])

    def contract(self, M: np.ndarray, s: float) -> np.ndarray:
        """Adjoint of ``expand``: accumulate both mirror entries per free pair."""
        I, J = self.I, self.J
        return np.append(M[I, J] + np.where(I != J, M[J, I], 0.0), s)

    def solve_newton(self, ws: _Workspace, b: np.ndarray) -> np.ndarray:
        """Solve the reduced Newton system ``H u = b`` over the free coordinates.

        The pair block ``T`` of ``H`` is assembled (upper triangle only) and
        Cholesky-factorized in place; the multiplier is eliminated through its
        Schur complement ``h_gamma_gamma - c^T T^-1 c``, where ``c`` is the
        pair-multiplier border.  Raises ``LinearSolveError`` unless ``H`` is
        positive definite.
        """
        I, J, f, p = self.I, self.J, self.I.size, ws.p
        if self.T is None:
            self.T = np.empty((f, f))
        T = self.T
        # X^-1 (x) X^-1: its four terms are two equal pairs; sqrt(2) X^-1 carries the 2
        A = np.sqrt(2.0) * ws.Xinv
        G, B = (2.0 / ws.gamma) * ws.Ginv, ws.GinvSGinv
        bufs = np.empty((2, min(_BLOCK_ROWS, f) * f))
        for s in range(0, f, _BLOCK_ROWS):
            e = min(s + _BLOCK_ROWS, f)
            Ir, Jr, Ic, Jc = I[s:e], J[s:e], I[s:], J[s:]
            u, v = (buf[: (e - s) * Ic.size].reshape(e - s, Ic.size) for buf in bufs)
            Tr = T[s:e, s:]  # the upper triangle only: all that the factorization reads
            AI, AJ, GI, GJ, BI, BJ = A[Ir], A[Jr], G[Ir], G[Jr], B[Ir], B[Jr]
            np.multiply(_take(AI, Ic, out=u), _take(AJ, Jc, out=v), out=Tr)
            for left, right, cl, cr in ((AI, AJ, Jc, Ic), (GI, BJ, Ic, Jc), (GI, BJ, Jc, Ic),
                                        (GJ, BI, Ic, Jc), (GJ, BI, Jc, Ic)):
                Tr += np.multiply(_take(left, cl, out=u), _take(right, cr, out=v), out=u)
            if s < p:  # the basis matrix of a diagonal pair is E_ii, not E_ii + E_ii
                Tr[: p - s] *= 0.5
                Tr[:, : p - s] *= 0.5
        try:
            # T is C-ordered, so T.T is F-ordered with T's upper triangle as its lower one:
            # LAPACK factorizes the buffer in place
            L, _ = scipy.linalg.cho_factor(T.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"reduced Newton system is not positive definite: {exc}") from exc
        c = self.contract(-ws.W / ws.gamma**2, 0.0)[:-1]
        z = scipy.linalg.cho_solve((L, True), np.column_stack((b[:-1], c)), check_finite=False)
        schur = ws.h_gamma_gamma - float(c @ z[:, 1])
        if not schur > 0.0:
            raise LinearSolveError(
                f"reduced Newton system is not positive definite: Schur complement of the multiplier {schur:.3e}"
            )
        w = (b[-1] - float(c @ z[:, 0])) / schur
        return np.append(z[:, 0] - w * z[:, 1], w)


def _solve_direction(ws: _Workspace, g_mat, g_gamma, free: _FreeCoordinates):
    b = -free.contract(g_mat, g_gamma)
    n_free = b.size
    if n_free <= DENSE_THRESHOLD:
        return free.solve_newton(ws, b)
    if not np.any(b):
        return np.zeros_like(b)

    def matvec(u):
        M, s = ws.hessian_apply(*free.expand(u))
        return free.contract(M, s)

    op = LinearOperator((n_free, n_free), matvec=matvec, dtype=np.float64)
    maxiter = 10 * n_free
    u, info = cg(op, b, rtol=CG_TOL, atol=0.0, maxiter=maxiter)
    if info != 0:
        resid = float(np.linalg.norm(matvec(u) - b) / np.linalg.norm(b))
        raise LinearSolveError(
            f"conjugate gradients stopped after {maxiter} iterations with relative residual {resid:.3e} "
            f"(target {CG_TOL:.1e}, free dimension {n_free})"
        )
    return u


def sqa_gradient(cov, X, gamma: float, rho: float):
    """Gradient of the reformulation objective at a feasible point.

    Returns ``(matrix_part, scalar_part)``; the matrix part is symmetric.
    """
    _check_rho(rho)
    ws = _Workspace(as_symmetric(cov, name="cov"), as_symmetric(X, name="X"), gamma)
    return ws.gradient(rho)


def sqa_hessian_apply(cov, X, gamma: float, direction):
    """Apply the quadratic-model Hessian to a ``(symmetric matrix, scalar)``
    direction, matrix-free via Kronecker-product identities."""
    V, w = direction
    ws = _Workspace(as_symmetric(cov, name="cov"), as_symmetric(X, name="X"), gamma)
    return ws.hessian_apply(as_symmetric(V, name="direction"), float(w))


def descent_direction(
    cov,
    X,
    gamma: float,
    rho: float,
    pattern: SparsityPattern | None = None,
) -> NewtonStep:
    """Feasible descent direction from the projected Newton system.

    The predicted decrease is ``<g, step>`` and is negative unless the
    projected gradient vanishes.
    """
    _check_rho(rho)
    covs = as_symmetric(cov, name="cov")
    ws = _Workspace(covs, as_symmetric(X, name="X"), gamma)
    if pattern is not None and pattern.dim != ws.p:
        raise ValueError("pattern dimension does not match X")
    free = _FreeCoordinates(ws.p, pattern)
    g_mat, g_gamma = ws.gradient(rho)
    dX, dgamma = free.expand(_solve_direction(ws, g_mat, g_gamma, free))
    delta = float(np.sum(g_mat * dX) + g_gamma * dgamma)
    return NewtonStep(delta_X=dX, delta_gamma=dgamma, predicted_decrease=delta)


def armijo_step(cov, X, gamma, rho, step: NewtonStep, config: SolverConfig | None = None,
                f_current: float | None = None) -> tuple[float, float]:
    """Largest step size ``1/2^m`` keeping the iterate in the cone (C1) and
    achieving sufficient decrease (C2).

    Returns ``(alpha, f_new)``, where ``f_new`` is the objective at the accepted point.
    """
    config = config or SolverConfig()
    if not step.predicted_decrease < 0.0:
        raise ValueError("step is not a descent direction (predicted decrease must be negative)")
    cov = np.asarray(cov, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if f_current is None:
        f_current = _objective_at(cov, X, gamma, rho)
        if f_current is None:
            raise ValueError("current point is infeasible")
    alpha = 1.0
    for _ in range(config.max_halvings + 1):
        f_new = _objective_at(cov, X + alpha * step.delta_X, gamma + alpha * step.delta_gamma, rho)
        if f_new is not None and f_new <= f_current + config.sigma * alpha * step.predicted_decrease:
            return alpha, f_new
        alpha *= 0.5
    raise LineSearchError(
        f"no admissible step size within {config.max_halvings} halvings "
        f"(predicted decrease {step.predicted_decrease:.3e})"
    )


def sqa_solve(cov, rho: float, pattern: SparsityPattern | None = None,
              config: SolverConfig | None = None):
    """Solve the robust estimation problem under a zero pattern.

    Warm-starts at the multiplier ``gamma*`` of the analytical solution ``X*``.
    ``X`` starts halfway from ``D = diag(eigenvalue_map(diag(cov), gamma*))``, the
    best diagonal matrix for ``gamma*``, to ``X*`` with the pattern entries zeroed,
    and halves back toward ``D`` until it is strictly feasible and no worse than
    ``D``.  Iterates projected Newton steps with Armijo backtracking until the
    projected gradient norm drops below ``config.grad_tol`` or the iteration
    budget is exhausted (the result is still returned, flagged in the trace).
    A singular input covariance is replaced by ``cov + eps I`` with
    ``eps = 1e-8 * lambda_max``, or ``eps = 1e-8 * rho^2`` when ``cov = 0``;
    both scale with the data.

    Returns ``(ShrinkageSolution, SolverTrace)``.
    """
    config = config or SolverConfig()
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    p = S.shape[0]
    lam = psd_spectrum(np.linalg.eigvalsh(S), "cov")
    if lam[0] == 0.0:
        S = S + 1e-8 * (lam[-1] if lam[-1] > 0.0 else rho * rho) * np.eye(p)
    if pattern is not None and pattern.dim != p:
        raise ValueError("pattern dimension does not match cov")

    free = _FreeCoordinates(p, pattern)
    mask = free.mask
    warm = wasserstein_shrinkage(S, rho)
    gamma = warm.dual_multiplier
    D = np.diag(eigenvalue_map(np.diag(S), gamma))  # each S_ii > 0 maps into (0, gamma)
    X, f = D, _objective_at(S, D, gamma, rho)
    toward = np.where(mask, 0.0, warm.precision) - D
    # from t = 1/2, since t = 1 would start an empty-pattern solve at its answer
    for t in 0.5 ** np.arange(1, 12):
        f_t = _objective_at(S, D + t * toward, gamma, rho)
        if f_t is not None and f_t <= f:
            X, f = D + t * toward, f_t
            break
    trace = SolverTrace(objectives=[f], iterates=[(X.copy(), gamma)] if config.keep_iterates else None)
    start = time.perf_counter()

    for _ in range(config.max_iters):
        ws = _Workspace(S, X, gamma)
        g_mat, g_gamma = ws.gradient(rho)
        pg = np.where(mask, 0.0, g_mat)
        pg_norm = float(np.sqrt(np.sum(pg * pg) + g_gamma * g_gamma))
        trace.grad_norms.append(pg_norm)
        if pg_norm <= config.grad_tol:
            trace.converged = True
            trace.message = "projected gradient below tolerance"
            break
        dX, dgamma = free.expand(_solve_direction(ws, g_mat, g_gamma, free))
        delta = float(np.sum(g_mat * dX) + g_gamma * dgamma)
        if delta >= -1e-14:
            trace.converged = True
            trace.message = "predicted decrease numerically zero"
            break
        step = NewtonStep(delta_X=dX, delta_gamma=dgamma, predicted_decrease=delta)
        alpha, f_new = armijo_step(S, X, gamma, rho, step, config, f_current=f)
        if not f_new < f:
            trace.converged = True
            trace.message = "objective stagnated at floating-point resolution"
            break
        X = X + alpha * dX
        gamma = gamma + alpha * dgamma
        f = f_new
        trace.iterations += 1
        trace.objectives.append(f)
        trace.step_sizes.append(alpha)
        trace.wall_times.append(time.perf_counter() - start)
        if trace.iterates is not None:
            trace.iterates.append((X.copy(), gamma))
    else:
        trace.message = f"iteration budget ({config.max_iters}) exhausted"

    solution = ShrinkageSolution(
        precision=X,
        dual_multiplier=float(gamma),
        shrunk_eigenvalues=np.linalg.eigvalsh(X),
        objective=float(f),
        radius=float(rho),
        iterations=trace.iterations,
    )
    return solution, trace
