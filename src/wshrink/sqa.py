"""Sequential quadratic approximation solver under precision zero constraints.

Minimizes the convex reformulation objective over matrices with a prescribed
symmetric zero pattern (conditional-independence structure).  It starts from
a strictly feasible point built from the analytical solution, and each
iteration solves a projected Newton system for a feasible descent direction and
searches along it with an Armijo rule that also enforces the cone constraints
``0 < X < gamma I``.  The Newton system is never materialized at full size:
it is solved over the free coordinates (upper-triangle entries off the
pattern, plus the multiplier).  Its pair block is assembled in row blocks into
one f x f buffer, which is Cholesky-factorized in place, and the multiplier is
eliminated by its Schur complement.  The buffer is filled in panels of
``_PANEL_COLS`` columns; each panel's columns of the three matrices the Newton
matrix is built from are gathered once, and its row blocks read rows of them.
So a step takes ``8 f^2 + 48 p min(f, _PANEL_COLS)`` bytes.  When either buffer
cannot be allocated, the step raises ``LinearSolveError``.

SciPy serves only the Cholesky solves (``cho_factor``, ``cho_solve``) of this
solver and of the objective it evaluates (``analytical._objective_at``).  Each
function that runs one imports ``scipy.linalg`` itself, so importing ``wshrink``
loads NumPy only, and the first ``sqa_solve``, ``sqa_gradient`` or
``reformulation_objective`` of a process pays for loading SciPy.

The line search halves the step from 1 until the iterate stays in the cone and
the objective falls by at least ``ARMIJO_SIGMA`` times the predicted decrease;
it gives up with ``LineSearchError`` after ``MAX_HALVINGS`` halvings.  When the
full step passes, it expands instead: it doubles the step, at most
``MAX_HALVINGS`` times, while the doubled iterate stays in the cone and strictly
lowers the objective (the bracketing phase of Nocedal and Wright, *Numerical
Optimization*, Alg. 3.5).  Far from the optimum a full Newton step of this
objective often cuts the gradient only 2-3x, and the expansion saves those steps.

The feasible cone depends on neither the covariance nor the radius, so any
earlier solution is a feasible start for any other problem of its dimension.
A caller that passes one (``sparse_estimator``'s closure passes its previous
estimate) has it re-paired with the multiplier that minimizes the new objective
at it, and the solver starts there only when that point is strictly better than
the analytical start: a remembered start is never worse than a cold one.

Near the optimum the objective stops ranking points at floating-point
resolution before the gradient does.  So where the predicted decrease is
numerically zero, or the accepted step does not lower the objective, the solver
takes the full Newton step if it stays in the cone and lowers the projected
gradient norm, and stops only when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytical import (ShrinkageSolution, _check_int, _check_rho, _objective_at, _path, _spectrum,
                         _symmetric_pair, eigenvalue_map)
from .errors import LinearSolveError, LineSearchError
from .gaussian import as_symmetric
from .worst_case import _multiplier_at

#: no conjugate-gradient step exists; the name stays bound because the benchmark tracer wraps ``sqa.cg``
cg = None

#: Armijo sufficient-decrease fraction of the predicted decrease
ARMIJO_SIGMA = 1e-4
#: step halvings the line search tries before it gives up
MAX_HALVINGS = 60


@dataclass(frozen=True)
class SparsityPattern:
    """Symmetric set of off-diagonal index pairs constrained to zero.

    Pairs are stored 0-based with symmetric closure applied; diagonal pairs
    are rejected (the diagonal of a positive definite matrix cannot vanish,
    and the diagonal part of the warm start must stay feasible).  ``dim`` and
    the indices must be integers (see ``analytical._check_int``).
    """

    dim: int
    pairs: frozenset

    def __init__(self, dim: int, pairs, one_based: bool = False):
        dim = _check_int(dim, "dim")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        closed = set()
        for i, j in pairs:
            i, j = _check_int(i, "index"), _check_int(j, "index")
            if one_based:
                i, j = i - 1, j - 1
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"index pair ({i}, {j}) out of range for dim {dim}")
            if i == j:
                raise ValueError(f"diagonal entries cannot be constrained to zero (index {i})")
            closed.add((i, j))
            closed.add((j, i))
        object.__setattr__(self, "dim", dim)
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
    """Stopping parameters."""

    grad_tol: float = 1e-3
    max_iters: int = 100

    def __post_init__(self):
        if not np.isfinite(self.grad_tol) or self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


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
    than the number of accepted steps, of the problem solved (ridged on
    rank-deficient input); ``grad_norms`` holds the projected gradient norm at
    each visited iterate.  ``step_sizes`` holds the accepted step sizes, powers
    of two that exceed 1 where the line search expanded.  ``start`` names the
    starting point taken: ``"analytical"`` or ``"previous"`` (a caller's earlier
    solution; see ``sqa_solve``).
    """

    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    message: str = ""
    start: str = "analytical"


class _Workspace:
    """Factorizations and matrix products reused within one iteration.

    Requires a finite ``gamma`` and a strictly feasible point ``0 < X < gamma I``;
    raises ``ValueError`` otherwise.
    """

    def __init__(self, cov: np.ndarray, X: np.ndarray, gamma: float):
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
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
        import scipy.linalg  # loaded at the first factorization, not with the package

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


#: rows of the reduced Newton matrix assembled per block by ``_FreeCoordinates.solve_newton``
_BLOCK_ROWS = 64

#: columns of the reduced Newton matrix whose gathered factors ``_FreeCoordinates.solve_newton``
#: holds at once: ``48 p`` bytes each
_PANEL_COLS = 512


class _FreeCoordinates:
    """Free coordinates of a zero pattern: the upper-triangle pairs ``(I, J)`` off
    the pattern, the ``p`` diagonal pairs first, plus the multiplier.

    Also solves the reduced Newton system over them.  For symmetric ``A``, ``B``
    the map ``V -> A V B`` on the symmetric free basis has the entry
    ``A[I_k, I_l] B[J_k, J_l] + A[I_k, J_l] B[J_k, I_l] + A[J_k, I_l] B[I_k, J_l]
    + A[J_k, J_l] B[I_k, I_l]`` in row ``k`` and column ``l``, halved in each row
    and column of a diagonal pair.  Row ``k`` of each term multiplies a row of the
    column-gathered ``A[:, I]`` or ``A[:, J]`` by a row of ``B[:, J]`` or
    ``B[:, I]``.  So the pair block is assembled in panels of ``_PANEL_COLS``
    columns, whose columns of the factors are gathered once (``48 p`` bytes a
    column), and in blocks of ``_BLOCK_ROWS`` rows of a panel, into one f x f
    buffer, which is kept and factorized in place.
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

        This is the only Newton direction, at every free dimension ``f``.  The
        pair block ``T`` of ``H`` is assembled (upper triangle only) into one
        ``f x f`` buffer, which is kept for later iterations and
        Cholesky-factorized in place; the multiplier is eliminated through its
        Schur complement ``h_gamma_gamma - c^T T^-1 c``, where ``c`` is the
        pair-multiplier border.  Near the cone boundary both terms are huge and
        the computed difference can lose every digit; when it is not positive,
        the ray ``(X, gamma)`` takes the multiplier's place as the eliminated
        coordinate.  The objective is ``-log det X`` plus terms homogeneous of
        degree 1 in ``(X, gamma)``, so ``H (X, gamma) = (X^-1, 0)``: the ray's
        border is ``X^-1`` and its corner ``<X, X^-1> = p``, which stay
        moderate near the boundary (the ray form cancels instead at large
        ``gamma``, where the multiplier form serves).  This needs ``X`` zero on
        the pattern, as every ``sqa_solve`` iterate is.

        ``T[k, l]`` sums ``L[I_k, I_l] R[J_k, J_l] + L[I_k, J_l] R[J_k, I_l]`` over
        ``(L, R) = (A, A), (G, B), (B, G)``, with ``A = sqrt(2) X^-1``,
        ``G = (2 / gamma) ws.Ginv`` and ``B = ws.GinvSGinv``.  A panel's columns
        ``I_l`` and ``J_l`` of ``A``, ``G`` and ``B`` are gathered once into a buffer
        of ``48 p min(f, _PANEL_COLS)`` bytes, so a row block reads rows of them
        where it would gather columns.

        Raises ``LinearSolveError`` unless ``H`` is positive definite, and when
        the ``8 f^2``-byte buffer or the panel buffer cannot be allocated: no
        other method is tried.
        """
        import scipy.linalg

        I, J, f, p = self.I, self.J, self.I.size, ws.p
        w = min(f, _PANEL_COLS)
        try:
            if self.T is None:
                self.T = np.empty((f, f))
            C = np.empty((6, p, w))
        except MemoryError as exc:
            raise LinearSolveError(
                f"cannot allocate the {f} x {f} Newton matrix of the free pairs ({8 * f * f / 2**30:.1f} GiB)"
                f" and its 6 x {p} x {w} panel"
            ) from exc
        T = self.T
        # X^-1 (x) X^-1: its four terms are two equal pairs; sqrt(2) X^-1 carries the 2
        A = np.sqrt(2.0) * ws.Xinv
        G, B = (2.0 / ws.gamma) * ws.Ginv, ws.GinvSGinv
        # columns I of (A, G, B), then columns J of (G, B, A): C[k] and C[5 - k] are the
        # factors of one of the six terms, for the rows I_k and J_k of a block
        AGB, GBA = np.stack((A, G, B)), np.stack((G, B, A))
        for c in range(0, f, w):
            d = min(c + w, f)
            Cc = C[:, :, : d - c]
            np.take(AGB, I[c:d], axis=2, out=Cc[:3], mode="clip")  # clip: the indices are in range,
            np.take(GBA, J[c:d], axis=2, out=Cc[3:], mode="clip")  # so none is checked or buffered
            for s in range(0, d, _BLOCK_ROWS):
                e, lo = min(s + _BLOCK_ROWS, d), max(s, c)
                Ir, Jr, Cs = I[s:e], J[s:e], Cc[:, :, lo - c :]
                Tr = T[s:e, lo:d]  # the upper triangle only: all that the factorization reads
                np.multiply(Cs[0, Ir], Cs[5, Jr], out=Tr)
                # the terms A_J A_I, G_I B_J, G_J B_I, B_J G_I, B_I G_J, in a fixed order of rounding
                for k in (5, 1, 3, 4, 2):
                    u = Cs[k, Ir]
                    u *= Cs[5 - k, Jr]
                    Tr += u
                if s < p:  # the basis matrix of a diagonal pair is E_ii, not E_ii + E_ii
                    Tr[: p - s] *= 0.5
                if lo < p:
                    Tr[:, : p - lo] *= 0.5
        try:
            # T is C-ordered, so T.T is F-ordered with T's upper triangle as its lower one:
            # LAPACK factorizes the buffer in place
            L, _ = scipy.linalg.cho_factor(T.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"reduced Newton system is not positive definite: {exc}") from exc
        c = self.contract(-ws.W / ws.gamma**2, 0.0)[:-1]
        z = scipy.linalg.cho_solve((L, True), np.column_stack((b[:-1], c)), check_finite=False)
        schur = ws.h_gamma_gamma - float(c @ z[:, 1])
        if schur > 0.0:
            w = (b[-1] - float(c @ z[:, 0])) / schur
            return np.append(z[:, 0] - w * z[:, 1], w)
        x, c = ws.X[I, J], self.contract(ws.Xinv, 0.0)[:-1]
        y = scipy.linalg.cho_solve((L, True), c, check_finite=False)
        schur = float(x @ c) - float(c @ y)
        if not schur > 0.0:
            raise LinearSolveError(
                f"reduced Newton system is not positive definite: Schur complement of the multiplier {schur:.3e}"
            )
        t = (float(x @ b[:-1]) + ws.gamma * b[-1] - float(c @ z[:, 0])) / schur
        return np.append(z[:, 0] + t * (x - y), t * ws.gamma)


def sqa_gradient(cov, X, gamma: float, rho: float):
    """Gradient of the reformulation objective at a feasible point.

    Returns ``(matrix_part, scalar_part)``; the matrix part is symmetric.
    """
    _check_rho(rho)
    ws = _Workspace(*_symmetric_pair(cov, X), gamma)
    return ws.gradient(rho)


def _descent_direction(ws: _Workspace, gradient, free: _FreeCoordinates) -> NewtonStep:
    """Feasible descent direction at ``ws``'s point from the projected Newton system.

    ``gradient`` is ``ws.gradient(rho)``.  The predicted decrease is ``<g, step>``
    and is negative unless the projected gradient vanishes.
    """
    g_mat, g_gamma = gradient
    dX, dgamma = free.expand(free.solve_newton(ws, -free.contract(g_mat, g_gamma)))
    delta = float(np.sum(g_mat * dX) + g_gamma * dgamma)
    return NewtonStep(delta_X=dX, delta_gamma=dgamma, predicted_decrease=delta)


def armijo_step(cov, X, gamma, rho, step: NewtonStep, f_current: float) -> tuple[float, float]:
    """Step size ``2^m`` keeping the iterate in the cone (C1) and achieving
    sufficient decrease (C2) from the objective ``f_current`` at ``(X, gamma)``.

    Backtracks from ``alpha = 1`` by halving until both conditions hold.  When the
    full step passes, expands instead: doubles ``alpha``, at most ``MAX_HALVINGS``
    times, while the doubled iterate stays in the cone and its objective is
    strictly below the objective at ``alpha``; an expanded step thus lowers the
    objective at least as far as C2 asks of the full step.  Returns
    ``(alpha, f_new)``, where ``f_new`` is the objective at the accepted point.
    """
    if not step.predicted_decrease < 0.0:
        raise ValueError("step is not a descent direction (predicted decrease must be negative)")

    def objective(alpha):
        return _objective_at(cov, X + alpha * step.delta_X, gamma + alpha * step.delta_gamma, rho)

    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        f_new = objective(alpha)
        if f_new is not None and f_new <= f_current + ARMIJO_SIGMA * alpha * step.predicted_decrease:
            break
        alpha *= 0.5
    else:
        raise LineSearchError(
            f"no admissible step size within {MAX_HALVINGS} halvings "
            f"(predicted decrease {step.predicted_decrease:.3e})"
        )
    if alpha == 1.0:
        for _ in range(MAX_HALVINGS):
            f_next = objective(2.0 * alpha)
            if f_next is None or not f_next < f_new:
                break
            alpha, f_new = 2.0 * alpha, f_next
    return alpha, f_new


def _projected_gradient(ws: _Workspace, rho: float, mask: np.ndarray):
    """``(gradient, projected gradient norm)`` at ``ws``'s point; the norm is
    taken over the free coordinates and the multiplier."""
    g_mat, g_gamma = ws.gradient(rho)
    pg = np.where(mask, 0.0, g_mat)
    return (g_mat, g_gamma), float(np.sqrt(np.sum(pg * pg) + g_gamma * g_gamma))


def _gradient_checked_full_step(cov, X, gamma, rho, step: NewtonStep, mask, pg_norm: float):
    """Objective at the full Newton step from ``(X, gamma)`` if that point is in
    the cone and its projected gradient norm is below ``pg_norm``, else None.

    The acceptance test of the rounding-level exits of ``sqa_solve``: there the
    objective's rounding hides a decrease that the gradient still shows.
    """
    X_full, gamma_full = X + step.delta_X, gamma + step.delta_gamma
    f_full = _objective_at(cov, X_full, gamma_full, rho)
    if f_full is None:
        return None
    try:
        ws = _Workspace(cov, X_full, gamma_full)
    except ValueError:
        return None
    return f_full if _projected_gradient(ws, rho, mask)[1] < pg_norm else None


def sqa_solve(cov, rho: float, pattern: SparsityPattern | None = None,
              config: SolverConfig | None = None, *, _start=None):
    """Solve the robust estimation problem under a zero pattern.

    Warm-starts at the multiplier ``gamma*`` of the analytical solution ``X*``.
    ``X`` starts halfway from ``D = diag(eigenvalue_map(diag(cov), gamma*))``, the
    best diagonal matrix for ``gamma*``, to ``X*`` with the pattern entries zeroed,
    and halves back toward ``D`` until it is strictly feasible and no worse than
    ``D``.  A private ``_start``, an earlier solution of any problem of this
    dimension, is zeroed on the pattern and paired with ``gamma = argmin f(_start, .)``
    on the problem at hand (``worst_case._multiplier_at``, from its ``eigh``); the
    solver starts there instead when that point is in the cone and its objective is
    strictly below the analytical start's, and ``trace.start`` says which it took.
    Iterates projected Newton steps with the Armijo search (``armijo_step``)
    until the projected gradient norm drops below ``config.grad_tol`` or the
    iteration budget is exhausted (the result is still returned, flagged in the
    trace).  Where the objective stops falling at floating-point resolution, it
    takes the full Newton step while that lowers the projected gradient norm, and
    otherwise stops with ``converged`` set.
    A singular input covariance is replaced by ``cov + eps I`` with
    ``eps = 1e-8 * lambda_max``, or ``eps = 1e-8 * rho^2`` when ``cov = 0``;
    both scale with the data.  This ridge shifts the spectrum to ``lam + eps``
    and keeps the eigenvectors, so one decomposition of ``cov`` serves the rank
    check, the ridge and the warm start, which reads the analytical radius path.

    Returns ``(ShrinkageSolution, SolverTrace)``.  On ridged input the solution reports
    the caller's problem, ``gamma = argmin f(X, .)`` on ``cov`` and ``f`` there (by
    ``worst_case._multiplier_at``, from the ``eigh`` of ``X`` that also gives
    ``shrunk_eigenvalues``), and ``trace.objectives`` the ridged problem's.
    """
    config = config or SolverConfig()
    _check_rho(rho)
    S = as_symmetric(cov, name="cov")
    p = S.shape[0]
    if pattern is not None and pattern.dim != p:
        raise ValueError("pattern dimension does not match cov")
    lam, V = _spectrum(S)
    caller = S
    if lam[0] == 0.0:
        eps = 1e-8 * (lam[-1] if lam[-1] > 0.0 else rho * rho)
        S, lam = S + eps * np.eye(p), lam + eps

    free = _FreeCoordinates(p, pattern)
    mask = free.mask
    warm = next(_path(V, lam, [rho]))
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
    start = "analytical"
    if _start is not None:
        X_prev = as_symmetric(_start, name="_start")
        if X_prev.shape != S.shape:
            raise ValueError("_start dimension does not match cov")
        X_prev[mask] = 0.0
        d, U = np.linalg.eigh(X_prev)
        if d[0] > 0.0:
            gamma_prev = _multiplier_at(S, d, U, rho)[0]
            f_prev = _objective_at(S, X_prev, gamma_prev, rho)
            if f_prev is not None and f_prev < f:
                X, gamma, f, start = X_prev, gamma_prev, f_prev, "previous"
    trace = SolverTrace(objectives=[f], start=start)

    for _ in range(config.max_iters):
        ws = _Workspace(S, X, gamma)
        gradient, pg_norm = _projected_gradient(ws, rho, mask)
        trace.grad_norms.append(pg_norm)
        if pg_norm <= config.grad_tol:
            trace.converged = True
            trace.message = "projected gradient below tolerance"
            break
        step = _descent_direction(ws, gradient, free)
        if step.predicted_decrease >= -1e-14:
            f_new, reason = f, "predicted decrease numerically zero"
        else:
            alpha, f_new = armijo_step(S, X, gamma, rho, step, f)
            reason = "objective stagnated at floating-point resolution"
        if not f_new < f:
            # rounding level: the objective may rise here, by its rounding, on a full step
            f_new = _gradient_checked_full_step(S, X, gamma, rho, step, mask, pg_norm)
            if f_new is None:
                trace.converged = True
                trace.message = reason
                break
            alpha = 1.0
        X = X + alpha * step.delta_X
        gamma = gamma + alpha * step.delta_gamma
        f = f_new
        trace.iterations += 1
        trace.objectives.append(f)
        trace.step_sizes.append(alpha)
    else:
        trace.message = f"iteration budget ({config.max_iters}) exhausted"

    d, U = np.linalg.eigh(X)
    if S is not caller:
        gamma, f = _multiplier_at(caller, d, U, rho)
    solution = ShrinkageSolution(
        estimate=X,
        dual_multiplier=float(gamma),
        shrunk_eigenvalues=d,
        objective=float(f),
        radius=float(rho),
        iterations=trace.iterations,
    )
    return solution, trace
