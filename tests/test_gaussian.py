import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshrink import gaussian
from wshrink.analytical import wasserstein_shrinkage
from wshrink.gaussian import (
    PSD_TOL,
    RANK_RTOL,
    GaussianModel,
    as_symmetric,
    induced_metric_V,
    kl_divergence,
    psd_spectrum,
    spectral_decompose,
    sqrtm_psd,
    wasserstein_gaussian,
)
from wshrink.sqa import sqa_solve
from wshrink.worst_case import extremal_for_optimal

from conftest import random_psd_singular, random_spd


@st.composite
def spectra(draw):
    """A top eigenvalue, then exact zeros and positive or negative eigenvalues
    at 1e-16 to 1 of it: roundoff, either side of the tolerances, and gross."""
    top = draw(st.floats(min_value=1e-6, max_value=1e6))
    magnitude = st.floats(min_value=-16.0, max_value=0.0).map(lambda e: 10.0**e)
    rest = draw(st.lists(st.one_of(st.just(0.0), magnitude, magnitude.map(lambda m: -m)), max_size=11))
    return top * np.array([1.0] + rest)


class TestPsdSpectrum:
    @given(w=spectra(), k=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=400, deadline=None)
    def test_policy_is_scale_free(self, w, k):
        c = 2.0**k  # a power of two scales every eigenvalue and both thresholds exactly
        top = w.max()
        if w.min() < -PSD_TOL * top:
            for spectrum in (w, c * w):
                with pytest.raises(ValueError, match="PSD"):
                    psd_spectrum(spectrum)
            return
        clean = psd_spectrum(w)
        assert np.array_equal(clean, np.where(w < RANK_RTOL * top, 0.0, w))
        scaled = psd_spectrum(c * w)
        assert scaled.tobytes() == (c * clean).tobytes()  # bit for bit

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="no eigenvalues"):
            psd_spectrum([])
        with pytest.raises(ValueError, match="non-finite"):
            psd_spectrum([1.0, np.nan])

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-10])
    @pytest.mark.parametrize("entry", [
        lambda S, rho: wasserstein_shrinkage(S, rho),
        lambda S, rho: sqa_solve(S, rho),
        lambda S, rho: GaussianModel(np.zeros(2), S),
        lambda S, rho: induced_metric_V(S, np.eye(2)),
        lambda S, rho: extremal_for_optimal(S, rho),
    ], ids=["wasserstein_shrinkage", "sqa_solve", "GaussianModel", "induced_metric_V", "extremal_for_optimal"])
    def test_small_indefinite_matrix_rejected(self, entry, scale):
        # indefinite at every scale; an absolute floor on the tolerance let it pass once small
        with pytest.raises(ValueError, match="PSD"):
            entry(scale * np.diag([1.0, -0.5]), np.sqrt(scale))


class TestSymmetrize:
    def test_upper_triangle_authoritative(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        S = as_symmetric(M)
        assert S[0, 1] == S[1, 0] == 2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            as_symmetric([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_symmetric(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            as_symmetric([[np.nan, 0.0], [0.0, 1.0]])


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(np.eye(3))
        assert_allclose(dec.eigenvalues, np.ones(3))
        assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        dec = spectral_decompose(np.diag([3.0, 1.0]))
        assert_allclose(dec.eigenvalues, [1.0, 3.0])
        assert_allclose(np.abs(dec.eigenvectors), np.eye(2)[:, [1, 0]], atol=1e-14)

    def test_random_reconstruction(self, rng):
        M = as_symmetric(rng.standard_normal((5, 5)) + rng.standard_normal((5, 5)).T, rtol=10)
        dec = spectral_decompose(M)
        err = np.linalg.norm(dec.reconstruct() - M) / max(1.0, np.linalg.norm(M))
        assert err <= 1e-10
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5)) <= 1e-10
        assert (np.diff(dec.eigenvalues) >= 0).all()

    def test_sign_convention_is_deterministic(self, rng):
        M = random_spd(4, rng)
        a = spectral_decompose(M)
        b = spectral_decompose(M.copy())
        assert_allclose(a.eigenvectors, b.eigenvectors)
        for col in a.eigenvectors.T:
            assert col[np.abs(col).argmax()] > 0


class TestSqrtm:
    def test_square_reconstructs(self, rng):
        for M in (random_spd(6, rng), random_psd_singular(6, 3, rng)):
            R = sqrtm_psd(M)
            err = np.linalg.norm(R @ R - M) / max(1.0, np.linalg.norm(M))
            assert err <= 1e-10


class TestWasserstein:
    def test_isotropic_scaling(self):
        p1 = GaussianModel(np.zeros(2), np.eye(2))
        p2 = GaussianModel(np.zeros(2), 4.0 * np.eye(2))
        assert_allclose(wasserstein_gaussian(p1, p2), np.sqrt(2.0), atol=1e-12)

    def test_mean_shift_only(self):
        p1 = GaussianModel(np.zeros(2), np.eye(2))
        p2 = GaussianModel(np.array([3.0, 0.0]), np.eye(2))
        assert_allclose(wasserstein_gaussian(p1, p2), 3.0, atol=1e-12)

    def test_commuting_diagonals(self):
        p1 = GaussianModel(np.zeros(2), np.diag([1.0, 4.0]))
        p2 = GaussianModel(np.zeros(2), np.diag([9.0, 16.0]))
        assert_allclose(wasserstein_gaussian(p1, p2), np.sqrt(8.0), atol=1e-12)

    def test_symmetry_and_identity(self, rng):
        p1 = GaussianModel(rng.standard_normal(4), random_spd(4, rng))
        p2 = GaussianModel(rng.standard_normal(4), random_psd_singular(4, 2, rng))
        assert abs(wasserstein_gaussian(p1, p2) - wasserstein_gaussian(p2, p1)) <= 1e-8
        assert wasserstein_gaussian(p1, p1) <= 1e-8

    def test_triangle_inequality_random_triples(self, rng):
        for _ in range(100):
            models = [
                GaussianModel(rng.standard_normal(3), random_spd(3, rng, scale=rng.uniform(0.1, 3.0)))
                for _ in range(3)
            ]
            d01 = wasserstein_gaussian(models[0], models[1])
            d12 = wasserstein_gaussian(models[1], models[2])
            d02 = wasserstein_gaussian(models[0], models[2])
            assert d02 <= d01 + d12 + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            wasserstein_gaussian(GaussianModel(np.zeros(2), np.eye(2)),
                                 GaussianModel(np.zeros(3), np.eye(3)))


class TestInducedMetric:
    def test_identity_of_indiscernibles(self, rng):
        # rank deficient: roundoff eigenvalues below the rank cut must not enter the roots
        for S in (random_spd(4, rng), random_psd_singular(8, 3, rng)):
            assert induced_metric_V(S, S) <= 1e-12

    def test_scalar_case(self):
        assert_allclose(induced_metric_V([[1.0]], [[4.0]]), 1.0, atol=1e-12)

    def test_commuting_equals_sqrt_frobenius(self, rng):
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        w1 = rng.uniform(0.1, 3.0, 5)
        w2 = rng.uniform(0.1, 3.0, 5)
        S1 = (V * w1) @ V.T
        S2 = (V * w2) @ V.T
        expected = np.linalg.norm(sqrtm_psd(S1) - sqrtm_psd(S2))
        assert abs(induced_metric_V(S1, S2) - expected) <= 1e-8

    def test_metric_axioms_on_triples(self, rng):
        for _ in range(20):
            A, B, C = (random_spd(3, rng, scale=s) for s in rng.uniform(0.2, 2.0, 3))
            assert abs(induced_metric_V(A, B) - induced_metric_V(B, A)) <= 1e-8
            assert induced_metric_V(A, C) <= induced_metric_V(A, B) + induced_metric_V(B, C) + 1e-8
            assert induced_metric_V(A, A) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            induced_metric_V(np.diag([1.0, -1e-3]), np.eye(2))


class TestKLDivergence:
    def test_zero_at_equal_models(self, rng):
        P = GaussianModel(rng.standard_normal(3), random_spd(3, rng))
        assert kl_divergence(P, P) <= 1e-12

    def test_singular_vs_nonsingular_is_infinite(self, rng):
        P1 = GaussianModel(np.zeros(3), random_psd_singular(3, 2, rng))
        P2 = GaussianModel(np.zeros(3), random_spd(3, rng))
        assert kl_divergence(P1, P2) == np.inf
        assert kl_divergence(P2, P1) == np.inf

    def test_scalar_mean_shift(self):
        P1 = GaussianModel([0.0], [[1.0]])
        P2 = GaussianModel([1.0], [[1.0]])
        assert_allclose(kl_divergence(P1, P2), 0.5, atol=1e-12)

    def test_closed_form_matches_direct(self, rng):
        S1, S2 = random_spd(4, rng), random_spd(4, rng)
        m1, m2 = rng.standard_normal(4), rng.standard_normal(4)
        dm = m2 - m1
        expected = 0.5 * (
            dm @ np.linalg.solve(S2, dm)
            + np.trace(np.linalg.solve(S2, S1))
            - 4
            - np.linalg.slogdet(S1)[1]
            + np.linalg.slogdet(S2)[1]
        )
        got = kl_divergence(GaussianModel(m1, S1), GaussianModel(m2, S2))
        assert_allclose(got, expected, rtol=1e-10)

    def test_same_degenerate_support_is_zero(self, rng):
        S = random_psd_singular(4, 2, rng)
        P = GaussianModel(np.zeros(4), S)
        assert kl_divergence(P, P) <= 1e-10

    def test_diverges_toward_singularity(self, rng):
        S1 = random_spd(3, rng)
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        values = []
        for eps in (1e-1, 1e-3, 1e-5, 1e-7):
            S2 = (V * np.array([1.0, 1.0, eps])) @ V.T
            values.append(kl_divergence(GaussianModel(np.zeros(3), S1),
                                        GaussianModel(np.zeros(3), S2)))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGaussianModel:
    def test_clamps_tiny_negative_eigenvalues(self):
        cov = np.diag([1.0, -5e-11])
        model = GaussianModel(np.zeros(2), cov)
        assert np.linalg.eigvalsh(model.covariance)[0] >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            GaussianModel(np.zeros(2), np.diag([1.0, -1e-3]))

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            GaussianModel(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("cov", [
        pytest.param(np.array([[2.0, 0.5], [0.5, 1.0]]), id="psd"),
        pytest.param(np.diag([1.0, -5e-11]), id="clamped"),
    ])
    def test_validates_once(self, cov, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return as_symmetric(*args, **kwargs)

        monkeypatch.setattr(gaussian, "as_symmetric", counting)
        GaussianModel(np.zeros(2), cov)
        assert len(calls) == 1
