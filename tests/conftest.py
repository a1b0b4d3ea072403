import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st


def random_spd(p, rng, scale=1.0, cond=None):
    """Random symmetric positive definite matrix."""
    A = rng.standard_normal((p, p))
    M = A @ A.T / p + 0.1 * np.eye(p)
    if cond is not None:
        w, V = np.linalg.eigh(M)
        w = np.geomspace(1.0 / cond, 1.0, p)
        M = (V * w) @ V.T
    return scale * 0.5 * (M + M.T)


def random_psd_singular(p, rank, rng, scale=1.0):
    """Random PSD matrix of the given rank (sample-covariance style)."""
    A = rng.standard_normal((rank, p))
    M = A.T @ A / rank
    return scale * 0.5 * (M + M.T)


def random_rotation(p, rng):
    """Haar-ish rotation matrix (orthogonal with determinant +1)."""
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


@st.composite
def covariances(draw):
    """``c * cov`` for a random spectrum on random eigenvectors, or for the
    rank-deficient sample second moment of ``n < p`` rows."""
    p = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if p > 1 and draw(st.booleans()):
        A = rng.standard_normal((draw(st.integers(min_value=1, max_value=p - 1)), p))
        cov = A.T @ A / A.shape[0]
    else:
        exponents = st.floats(min_value=-3.0, max_value=3.0)
        lam = 10.0 ** np.array(draw(st.lists(exponents, min_size=p, max_size=p)))
        Q = random_rotation(p, rng)
        cov = (Q * lam) @ Q.T
    return 10.0 ** draw(st.integers(min_value=-8, max_value=8)) * 0.5 * (cov + cov.T)



def tracemalloc_peak(run) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refuse_allocation(monkeypatch, shape) -> None:
    """Make ``np.empty(shape)`` raise ``MemoryError``, as it does when the host lacks the memory."""
    empty = np.empty

    def empty_or_refuse(requested, *args, **kwargs):
        if requested == shape:
            raise MemoryError(f"Unable to allocate array with shape {shape}")
        return empty(requested, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty_or_refuse)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
