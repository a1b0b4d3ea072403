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

Every point ``(X, gamma)`` the solver visits (a start candidate, a trial step of
the line search, an iterate) is one ``_Workspace``: the Cholesky factors of
``X`` and ``gamma I - X`` test that it lies in the cone and give its objective,
and the gradient and Newton terms come from the same factors on first use.  The
point the line search accepts is the next iterate, and a start moved along its
ray reuses its factors, scaled, so no matrix is factored twice in one solve.
A caller's point is validated once, by ``_cone_point`` on the domain that the
``gaussian`` module docstring states (``gaussian._cone_inputs``), and the same
factors give ``reformulation_objective``, ``sqa_gradient`` and the worst-case covariance
``gamma^2 (gamma I - X)^-1 cov (gamma I - X)^-1`` of ``worst_case.extremal_covariance``,
which is the gradient's first term (``GinvSGinv``), and its squared distance from ``cov``,
which the multiplier gradient subtracts from ``rho^2`` (``distance2``).  A caller's ``_start`` of
``sqa_solve`` must be positive definite by the same rule (``gaussian._positive_definite``).

SciPy serves only LAPACK: ``potrf`` factors the Newton matrix in place, and
``potrs`` gives ``A^-1 cov``, the inverses and the Newton solves from the
Cholesky factors, with none of ``scipy.linalg``'s argument checks.  The p x p
cone-test factors are NumPy's.  Each function that calls LAPACK imports
``scipy.linalg.lapack`` itself, so importing ``wshrink`` loads NumPy only, and the
first ``sqa_solve``, ``sqa_gradient``, ``reformulation_objective`` or
``extremal_covariance`` of a process pays for loading SciPy.  ``extremal_for_optimal``
(and so the ``worstcase`` command) never loads it.

The line search halves the step from 1 until the iterate stays in the cone and
the objective falls by at least ``ARMIJO_SIGMA`` times the predicted decrease;
it gives up with ``LineSearchError`` after ``MAX_HALVINGS`` halvings.  When the
full step passes, it expands instead: it doubles the step, at most
``MAX_HALVINGS`` times, while the doubled iterate stays in the cone and lowers
the objective by more than the rounding of both objectives (the bracketing
phase of Nocedal and Wright, *Numerical Optimization*, Alg. 3.5).  Far from the
optimum a full Newton step of this objective often cuts the gradient only 2-3x,
and the expansion saves those steps.

The paper's objective ``-log det X + gamma (rho^2 - tr cov) + gamma^2 <A^-1, cov>``,
``A = gamma I - X``, is evaluated in the equal form ``-log det X + gamma (rho^2 +
<X, A^-1 cov>)``, since ``gamma^2 A^-1 - gamma I = gamma A^-1 X``, and so is its
multiplier gradient (``_Workspace.gradient``).  Every term after ``-log det X`` is
nonnegative, so none cancels at large ``gamma`` (small ``rho``), and the rounding
level of ``f`` (``_Workspace.rounding``) is epsilon times the sum of those terms.

Every term of the objective but ``-log det X`` is homogeneous of degree 1 in
``(X, gamma)``, so the best point on the ray ``(cX, c gamma)`` of any start has a
closed form, and each start is moved there (``_ray_optimal``) before it is
compared; only a previous solution that already meets the stopping test stays
where it is.  The feasible cone depends on neither the covariance nor the radius,
so any earlier solution is a feasible start for any other problem of its
dimension.  A caller that passes one (``sparse_estimator``'s closure passes its
previous estimate) has it re-paired with the multiplier that minimizes the new
objective at it, and the solver starts there only when that point is strictly
better than the analytical start: a remembered start is never worse than a
cold one.

Near the optimum the objective stops ranking points at floating-point
resolution before the gradient does.  So where the predicted decrease is
numerically zero, or the accepted step does not lower the objective, the solver
takes the full Newton step if it stays in the cone and lowers the projected
gradient norm, and stops only when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import _EPS
from .analytical import ShrinkageSolution, _check_rho, _multiplier_at, _path, _spectrum, eigenvalue_map
from .errors import LinearSolveError, LineSearchError
from .gaussian import _check_int, _cone_inputs, _positive_definite, as_symmetric

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
    the indices must be integers (see ``gaussian._check_int``).  An invalid
    pair list reports its first offending pair, in input order.

    The boolean mask, True on the constrained entries, is built once at
    construction from the validated indices and kept read-only; ``mask()``
    returns a copy, and ``_FreeCoordinates`` reads the kept one.
    """

    dim: int
    pairs: frozenset

    def __init__(self, dim: int, pairs):
        dim = _check_int(dim, "dim")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        rows, cols = [], []
        for i, j in pairs:
            i, j = _check_int(i, "index"), _check_int(j, "index")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"index pair ({i}, {j}) out of range for dim {dim}")
            if i == j:
                raise ValueError(f"diagonal entries cannot be constrained to zero (index {i})")
            rows.append(i)
            cols.append(j)
        mask = np.zeros((dim, dim), dtype=bool)
        mask[rows, cols] = mask[cols, rows] = True
        mask.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pairs", frozenset(zip(rows + cols, cols + rows)))
        object.__setattr__(self, "_mask", mask)

    @classmethod
    def empty(cls, dim: int) -> "SparsityPattern":
        return cls(dim, ())

    def mask(self) -> np.ndarray:
        """Boolean matrix, True on entries constrained to zero: a writable copy of the kept mask."""
        return self._mask.copy()

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping parameters; ``max_iters`` must be an integer."""

    grad_tol: float = 1e-3
    max_iters: int = 100

    def __post_init__(self):
        if not np.isfinite(self.grad_tol) or self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")
        if _check_int(self.max_iters, "max_iters") < 0:
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
    each iterate, the last one included, so it has as many entries.  ``step_sizes``
    holds the accepted step sizes, powers of two that exceed 1 where the line search
    expanded.  ``start`` names the starting point taken: ``"analytical"`` or
    ``"previous"`` (a caller's earlier solution; see ``sqa_solve``).
    """

    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    message: str = ""
    start: str = "analytical"


def _potrs(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``(L L^T)^-1 B`` for a lower Cholesky factor ``L``, by LAPACK ``potrs``.

    ``L.T`` is the upper factor in Fortran order, which LAPACK reads without a copy.
    """
    import scipy.linalg.lapack  # loaded at the first factorization, not with the package

    return scipy.linalg.lapack.dpotrs(L.T, B)[0]


class _Workspace:
    """One point ``(X, gamma)`` of the cone ``0 < X < gamma I``, factored once.

    The Cholesky factors of ``X`` and ``A = gamma I - X`` are its cone test: a
    non-finite or nonpositive ``gamma``, or a point outside the cone, raises
    ``ValueError``.  They give the objective at once, and the gradient and Newton
    terms on first use: ``Xinv``, ``Ginv = (I - X / gamma)^-1 = gamma A^-1``,
    ``GinvS = Ginv cov``, ``GX = Ginv X``, ``GinvSGinv``, ``W``, ``h_gamma_gamma`` and
    ``distance2 = <GX, cov GX> / gamma^2``.  ``GinvSGinv`` is the worst-case covariance
    ``S* = T cov T`` with ``T = Ginv``, and ``distance2`` its squared Wasserstein distance
    ``||cov^(1/2) (T - I)||_F^2`` from ``cov``, since ``T - I = GX / gamma``.
    So a trial point that the line search rejects costs two factorizations and one solve.
    The point keeps ``log det X`` and ``<X, A^-1 cov>``, the terms of the objective's
    cancellation-free form (see the module docstring) that do not depend on ``rho``.
    """

    def __init__(self, cov: np.ndarray, X: np.ndarray, gamma: float):
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
        p = X.shape[0]
        try:
            self.LX = np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            raise ValueError("X must be positive definite") from None
        try:
            self.LA = np.linalg.cholesky(gamma * np.eye(p) - X)
        except np.linalg.LinAlgError:
            raise ValueError("gamma I - X must be positive definite") from None
        self.cov, self.X, self.gamma, self.p = cov, X, float(gamma), p
        self.AinvS = _potrs(self.LA, cov)
        # a solve reads the objective several times per point
        self._terms = 2.0 * float(np.log(np.diag(self.LX)).sum()), float(np.vdot(X, self.AinvS))

    def objective(self, rho: float) -> float:
        """``f(X, gamma) = -log det X + gamma (rho^2 + <X, A^-1 cov>)``."""
        logdet, inner = self._terms
        return -logdet + self.gamma * (rho * rho + inner)

    def scaled(self, c: float) -> "_Workspace":
        """The point ``(cX, c gamma)``, for ``c > 0``.  Its factors are this point's times
        ``sqrt(c)``, so nothing is factored: ``log det X`` gains ``p log c``, ``A^-1 cov`` is
        divided by ``c``, and ``<X, A^-1 cov>`` does not change."""
        point, root = object.__new__(_Workspace), np.sqrt(c)
        point.LX, point.LA, point.AinvS = root * self.LX, root * self.LA, self.AinvS / c
        point.cov, point.X, point.gamma, point.p = self.cov, c * self.X, c * self.gamma, self.p
        logdet, inner = self._terms
        point._terms = logdet + self.p * float(np.log(c)), inner
        return point

    def rounding(self, rho: float) -> float:
        """Rounding level of ``objective(rho)``: machine epsilon times the sum of its terms'
        magnitudes, ``eps (|log det X| + gamma (rho^2 + <X, A^-1 cov>))``."""
        logdet, inner = self._terms
        return _EPS * (abs(logdet) + self.gamma * (rho * rho + inner))

    @cached_property
    def Xinv(self) -> np.ndarray:
        return _potrs(self.LX, np.eye(self.p))

    @cached_property
    def Ginv(self) -> np.ndarray:
        return self.gamma * _potrs(self.LA, np.eye(self.p))

    @cached_property
    def GinvS(self) -> np.ndarray:
        return self.gamma * self.AinvS

    @cached_property
    def GX(self) -> np.ndarray:
        return self.Ginv @ self.X

    @cached_property
    def GinvSGinv(self) -> np.ndarray:
        M = self.GinvS @ self.Ginv
        return 0.5 * (M + M.T)

    @cached_property
    def W(self) -> np.ndarray:
        K = self.X @ self.GinvS
        W = self.Ginv @ (K + K.T) @ self.Ginv
        return 0.5 * (W + W.T)

    @cached_property
    def h_gamma_gamma(self) -> float:
        return 2.0 / self.gamma**3 * float(np.sum(self.GX.T * (self.GinvS @ self.GX)))

    @cached_property
    def distance2(self) -> float:
        return float(np.vdot(self.GX, self.cov @ self.GX)) / self.gamma**2

    def gradient(self, rho: float):
        """``(G, g_gamma)`` with ``G = Ginv cov Ginv - X^-1`` and ``g_gamma = rho^2 - distance2``,
        ``distance2 = <GX, cov GX> / gamma^2`` with ``GX / gamma = gamma A^-1 - I``: the paper's
        ``rho^2 - tr cov + 2 gamma <A^-1, cov> - gamma^2 <A^-2, cov>`` without its cancelling terms."""
        g_mat = self.GinvSGinv - self.Xinv
        g_mat = 0.5 * (g_mat + g_mat.T)
        return g_mat, rho * rho - self.distance2


def _point(cov: np.ndarray, X: np.ndarray, gamma: float) -> _Workspace | None:
    """``_Workspace(cov, X, gamma)``, or None outside the cone."""
    try:
        return _Workspace(cov, X, gamma)
    except ValueError:
        return None


def _moved(point: _Workspace, step: NewtonStep, alpha: float) -> _Workspace | None:
    """The point ``alpha`` times ``step`` away from ``point``, or None outside the cone."""
    return _point(point.cov, point.X + alpha * step.delta_X, point.gamma + alpha * step.delta_gamma)


def _ray_optimal(point: _Workspace, rho: float) -> _Workspace:
    """The best point ``(cX, c gamma)`` on the ray of ``point``.

    Every term of the objective but ``-log det X`` is homogeneous of degree 1 in
    ``(X, gamma)``, so ``f(cX, c gamma) = f - p log c + (c - 1) K`` with
    ``K = gamma (rho^2 + <X, A^-1 cov>) >= gamma rho^2 > 0``, least at ``c = p / K``,
    where ``f`` falls by ``p (K / p - 1 - log(K / p)) >= 0``.  The scaled point comes
    from ``point``'s own factors (``_Workspace.scaled``).
    """
    return point.scaled(point.p / (point.gamma * (rho * rho + point._terms[1])))


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
    buffer, which is kept and factorized in place.  It reads the pattern's kept,
    read-only mask (``pattern=None`` is ``SparsityPattern.empty(p)``).
    """

    def __init__(self, p: int, pattern: SparsityPattern | None):
        self.mask = (pattern if pattern is not None else SparsityPattern.empty(p))._mask
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
        import scipy.linalg.lapack

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
        lapack = scipy.linalg.lapack
        # T is C-ordered, so T.T is F-ordered with T's upper triangle as its lower one:
        # LAPACK factorizes the buffer in place
        L, info = lapack.dpotrf(T.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise LinearSolveError(f"reduced Newton system is not positive definite: leading minor {info}"
                                   " of the pair block")
        c = self.contract(-ws.W / ws.gamma**2, 0.0)[:-1]
        z = lapack.dpotrs(L, np.column_stack((b[:-1], c)), lower=1)[0]
        schur = ws.h_gamma_gamma - float(c @ z[:, 1])
        if schur > 0.0:
            w = (b[-1] - float(c @ z[:, 0])) / schur
            return np.append(z[:, 0] - w * z[:, 1], w)
        x, c = ws.X[I, J], self.contract(ws.Xinv, 0.0)[:-1]
        y = lapack.dpotrs(L, c, lower=1)[0]
        schur = float(x @ c) - float(c @ y)
        if not schur > 0.0:
            raise LinearSolveError(
                f"reduced Newton system is not positive definite: Schur complement of the multiplier {schur:.3e}"
            )
        t = (float(x @ b[:-1]) + ws.gamma * b[-1] - float(c @ z[:, 0])) / schur
        return np.append(z[:, 0] + t * (x - y), t * ws.gamma)


def _cone_point(cov, X, gamma: float) -> _Workspace:
    """The validated point ``(X, gamma)`` of the cone for a caller's ``cov`` and ``X``.

    The domain, and the order of its checks, are ``gaussian._cone_inputs``'s (see the
    ``gaussian`` module docstring); each raises ``ValueError``, as does a point whose
    Cholesky factors fail (``_Workspace``).  The one entry of ``reformulation_objective``,
    ``sqa_gradient`` and ``worst_case.extremal_covariance``.
    """
    S, Xs, _, _ = _cone_inputs(cov, X, gamma)
    return _Workspace(S, Xs, gamma)


def sqa_gradient(cov, X, gamma: float, rho: float):
    """Gradient of the reformulation objective at a point of its domain (see
    ``reformulation_objective`` and the ``gaussian`` module docstring).

    Returns ``(matrix_part, scalar_part)``; the matrix part ``S* - X^-1`` is symmetric,
    with ``S*`` the worst-case covariance ``worst_case.extremal_covariance`` returns.
    """
    _check_rho(rho)
    return _cone_point(cov, X, gamma).gradient(rho)


def reformulation_objective(cov, X, gamma: float, rho: float) -> float:
    """Objective of the convex reformulation at a feasible point.

    ``f(X, gamma) = -log det X + gamma (rho^2 - tr cov)
    + gamma^2 <(gamma I - X)^{-1}, cov>`` for ``0 < X < gamma I``, from the
    Cholesky factors of ``X`` and ``gamma I - X`` (see ``_Workspace``).  Since
    ``gamma^2 (gamma I - X)^{-1} - gamma I = gamma (gamma I - X)^{-1} X``, it is evaluated
    as ``-log det X + gamma (rho^2 + <X, (gamma I - X)^{-1} cov>)``, whose last terms
    are nonnegative and do not cancel at large ``gamma``.  Raises
    ``ValueError`` outside the domain that the ``gaussian`` module docstring states
    (``_cone_point``): there ``cov`` is PSD, and ``X`` and ``gamma I - X`` are positive
    definite by the rank cut ``RANK_RTOL``.
    """
    _check_rho(rho)
    return _cone_point(cov, X, gamma).objective(rho)


def _descent_direction(ws: _Workspace, gradient, free: _FreeCoordinates) -> NewtonStep:
    """Feasible descent direction at ``ws``'s point from the projected Newton system.

    ``gradient`` is ``ws.gradient(rho)``.  The predicted decrease is ``<g, step>``
    and is negative unless the projected gradient vanishes.
    """
    g_mat, g_gamma = gradient
    dX, dgamma = free.expand(free.solve_newton(ws, -free.contract(g_mat, g_gamma)))
    delta = float(np.sum(g_mat * dX) + g_gamma * dgamma)
    return NewtonStep(delta_X=dX, delta_gamma=dgamma, predicted_decrease=delta)


def armijo_step(point: _Workspace, rho: float, step: NewtonStep):
    """Step size ``2^m`` from ``point`` keeping the iterate in the cone (C1) and
    achieving sufficient decrease (C2) from ``point.objective(rho)``.

    Every trial point is a ``_Workspace``, whose factorization is the cone test.
    Backtracks from ``alpha = 1`` by halving until both conditions hold.  When the
    full step passes, expands instead: doubles ``alpha``, at most ``MAX_HALVINGS``
    times, while the doubled iterate stays in the cone and its objective is
    below the objective at ``alpha`` by more than the sum of their rounding levels
    (``_Workspace.rounding``), so no near tie is decided by rounding; an expanded
    step thus lowers the objective at least as far as C2 asks of the full step.  Returns
    ``(alpha, accepted, full)``: the accepted point, which ``sqa_solve`` carries
    into its next iteration, and the full step's point, None outside the cone,
    which the rounding-level test of ``sqa_solve`` reads.
    """
    if not step.predicted_decrease < 0.0:
        raise ValueError("step is not a descent direction (predicted decrease must be negative)")
    f_current = point.objective(rho)
    alpha = 1.0
    accepted = full = _moved(point, step, alpha)
    while accepted is None or not accepted.objective(rho) <= f_current + ARMIJO_SIGMA * alpha * step.predicted_decrease:
        if alpha == 0.5**MAX_HALVINGS:
            raise LineSearchError(
                f"no admissible step size within {MAX_HALVINGS} halvings "
                f"(predicted decrease {step.predicted_decrease:.3e})"
            )
        alpha *= 0.5
        accepted = _moved(point, step, alpha)
    if alpha == 1.0:
        for _ in range(MAX_HALVINGS):
            doubled = _moved(point, step, 2.0 * alpha)
            # lower beyond both objectives' rounding: a near tie would decide by rounding alone
            if doubled is None or not (doubled.objective(rho) + doubled.rounding(rho)
                                       < accepted.objective(rho) - accepted.rounding(rho)):
                break
            alpha, accepted = 2.0 * alpha, doubled
    return alpha, accepted, full


def _projected_gradient(ws: _Workspace, rho: float, mask: np.ndarray):
    """``(gradient, projected gradient norm)`` at ``ws``'s point; the norm is
    taken over the free coordinates and the multiplier."""
    g_mat, g_gamma = ws.gradient(rho)
    pg = np.where(mask, 0.0, g_mat)
    return (g_mat, g_gamma), float(np.sqrt(np.sum(pg * pg) + g_gamma * g_gamma))


def sqa_solve(cov, rho: float, pattern: SparsityPattern | None = None,
              config: SolverConfig | None = None, *, _start=None):
    """Solve the robust estimation problem under a zero pattern.

    Warm-starts at the multiplier ``gamma*`` of the analytical solution ``X*``.
    ``X`` starts halfway from ``D = diag(eigenvalue_map(diag(cov), gamma*))``, the
    best diagonal matrix for ``gamma*``, to ``X*`` with the pattern entries zeroed,
    and halves back toward ``D`` until it is strictly feasible and no worse than
    ``D``; that point then moves to the optimum of its ray ``(cX, c gamma)``
    (``_ray_optimal``).  A private ``_start``, an earlier solution of any problem
    of this dimension, is zeroed on the pattern and, when it is positive definite by
    the rule of the point's domain (``gaussian._positive_definite``), paired with
    ``gamma = argmin f(_start, .)`` on the problem at hand
    (``analytical._multiplier_at``, from its ``eigh``).  Where that point already
    meets the stopping test it is kept as it is, so a restart from the solver's own
    solution stops at once with the same answer; otherwise it moves to its ray
    optimum too.  The solver starts there instead when that point is in the cone
    and its objective is strictly below the analytical start's, and
    ``trace.start`` says which it took.
    Iterates projected Newton steps with the Armijo search (``armijo_step``)
    until the projected gradient norm drops below ``config.grad_tol`` or the
    iteration budget is exhausted (the result is still returned, flagged in the
    trace); the iterate that the last allowed step reaches is tested too.  Where
    the objective stops falling at floating-point resolution, it takes the full
    Newton step while that lowers the projected gradient norm, and otherwise stops
    with ``converged`` set.
    A singular input covariance is replaced by ``cov + eps I`` with
    ``eps = 1e-8 * lambda_max``, or ``eps = 1e-8 * rho^2`` when ``cov = 0``;
    both scale with the data.  This ridge shifts the spectrum to ``lam + eps``
    and keeps the eigenvectors, so one decomposition of ``cov`` serves the rank
    check, the ridge and the warm start, which reads the analytical radius path.

    Returns ``(ShrinkageSolution, SolverTrace)``.  On ridged input the solution reports
    the caller's problem, ``gamma = argmin f(X, .)`` on ``cov`` and ``f`` there (by
    ``analytical._multiplier_at``, from the ``eigh`` of ``X`` that also gives
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
    point = _Workspace(S, D, gamma)
    toward = np.where(mask, 0.0, warm.precision) - D
    # from t = 1/2, since t = 1 would start an empty-pattern solve at its answer
    for t in 0.5 ** np.arange(1, 12):
        trial = _point(S, D + t * toward, gamma)
        if trial is not None and trial.objective(rho) <= point.objective(rho):
            point = trial
            break
    point, start = _ray_optimal(point, rho), "analytical"
    if _start is not None:
        X_prev = as_symmetric(_start, name="_start")
        if X_prev.shape != S.shape:
            raise ValueError("_start dimension does not match cov")
        X_prev[mask] = 0.0
        d, U = np.linalg.eigh(X_prev)
        if _positive_definite(d):
            prev = _point(S, X_prev, _multiplier_at(S, d, U, rho)[0])
            if prev is not None and _projected_gradient(prev, rho, mask)[1] > config.grad_tol:
                prev = _ray_optimal(prev, rho)
            if prev is not None and prev.objective(rho) < point.objective(rho):
                point, start = prev, "previous"
    trace = SolverTrace(objectives=[point.objective(rho)], start=start)

    while True:  # every iterate is tested, the last one included
        gradient, pg_norm = _projected_gradient(point, rho, mask)
        trace.grad_norms.append(pg_norm)
        if pg_norm <= config.grad_tol:
            trace.converged = True
            trace.message = "projected gradient below tolerance"
            break
        if trace.iterations == config.max_iters:
            trace.message = f"iteration budget ({config.max_iters}) exhausted"
            break
        step = _descent_direction(point, gradient, free)
        if step.predicted_decrease >= -1e-14:
            accepted, full = point, _moved(point, step, 1.0)
            reason = "predicted decrease numerically zero"
        else:
            alpha, accepted, full = armijo_step(point, rho, step)
            reason = "objective stagnated at floating-point resolution"
        if not accepted.objective(rho) < point.objective(rho):
            # rounding level: the objective may rise here, by its rounding, on a full step that
            # still lowers the projected gradient norm
            if full is None or not _projected_gradient(full, rho, mask)[1] < pg_norm:
                trace.converged = True
                trace.message = reason
                break
            alpha, accepted = 1.0, full
        point = accepted
        trace.iterations += 1
        trace.objectives.append(point.objective(rho))
        trace.step_sizes.append(alpha)

    X, gamma, f = point.X, point.gamma, point.objective(rho)
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
