import numpy as np
import pytest

from simloc.channel import covariance_from_matrix
from simloc.errors import ConfigurationError, EstimationError
from simloc.estimation import (
    ObservationModel,
    digital_baseline,
    draw_gaussian_channels,
    estimator_suite,
    mmse_full,
    mmse_post_sim,
    mmse_reduced,
    monte_carlo_mse,
    reduced_model,
    rsls_ideal,
    rsls_post_sim,
)


def random_rank_deficient_cov(k, rank, seed, scale=5.0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))
    d = np.sort(scale * rng.random(rank))[::-1] + 0.1
    r = u @ np.diag(d) @ u.conj().T
    return covariance_from_matrix(r)


def spectral_mmse_oracle(r, cov, sigma_z2):
    """Independent oracle: full-eigenbasis shrinkage form of the estimator."""
    vals, vecs = np.linalg.eigh(cov.r_h)
    shrink = vals / (vals + sigma_z2)
    return vecs @ (shrink[:, None] * (vecs.conj().T @ r.reshape(len(r), -1)))


class TestMmseForms:
    def test_identity_prior_scalar_shrinkage(self):
        cov = covariance_from_matrix(np.eye(6, dtype=complex))
        r = np.arange(1, 7).astype(complex)
        rep = mmse_full(r, cov, sigma_z2=1.0)
        np.testing.assert_allclose(rep.h_hat, r / 2.0, rtol=1e-12)
        assert rep.scalar_mse == pytest.approx(3.0, rel=1e-12)

    def test_noiseless_limit_recovers_observation(self):
        cov = random_rank_deficient_cov(8, 8, seed=0)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rep = mmse_full(r, cov, sigma_z2=1e-12)
        assert np.linalg.norm(rep.h_hat - r) <= 1e-6 * np.linalg.norm(r)

    def test_full_equals_spectral_oracle_rank_deficient(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(12, 5, seed=seed)
            rng = np.random.default_rng(100 + seed)
            r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            rep = mmse_full(r, cov, sigma_z2=0.3)
            oracle = spectral_mmse_oracle(r, cov, 0.3)[:, 0]
            assert np.linalg.norm(rep.h_hat - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_reduced_equals_full(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(16, 6, seed=seed)
            rng = np.random.default_rng(200 + seed)
            r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            full = mmse_full(r, cov, sigma_z2=0.5)
            reduced = mmse_reduced(cov.u.conj().T @ r, cov, sigma_z2=0.5)
            assert np.linalg.norm(full.h_hat - reduced.h_hat) <= 1e-10 * np.linalg.norm(
                full.h_hat
            )

    def test_high_snr_mode_passes_unshrunk(self):
        k = 4
        u = np.eye(k, dtype=complex)[:, :2]
        d = np.array([1e9, 1.0])
        cov = covariance_from_matrix(u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12)
        y = np.array([1.0 + 0j, 1.0 + 0j])
        rep = mmse_reduced(y, cov, sigma_z2=1.0)
        assert rep.h_hat[0] == pytest.approx(1.0, rel=1e-8)
        assert abs(rep.h_hat[1]) == pytest.approx(0.5, rel=1e-8)

    def test_zero_observation_zero_estimate(self):
        cov = random_rank_deficient_cov(8, 3, seed=2)
        rep = mmse_reduced(np.zeros(3, dtype=complex), cov, sigma_z2=0.2)
        np.testing.assert_allclose(rep.h_hat, 0.0)


class TestRslsIdeal:
    def test_in_subspace_noiseless_exact(self):
        cov = random_rank_deficient_cov(10, 4, seed=3)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = cov.u @ g
        rep = rsls_ideal(cov.u.conj().T @ h, cov.u, sigma_z2=0.1)
        np.testing.assert_allclose(rep.h_hat, h, rtol=1e-12)
        assert rep.scalar_mse == pytest.approx(0.1 * 4, rel=1e-12)

    def test_full_basis_identity(self):
        cov = random_rank_deficient_cov(6, 6, seed=5)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u = cov.eigenvectors
        rep = rsls_ideal(u.conj().T @ r, u)
        np.testing.assert_allclose(rep.h_hat, r, rtol=1e-10)

    def test_monte_carlo_mse_matches_sigma_l(self):
        cov = random_rank_deficient_cov(12, 5, seed=7)
        sigma_z2 = 0.4
        model = ObservationModel(
            mode="ideal-projection", cov=cov, noise_variance=sigma_z2
        )
        mse, stderr = monte_carlo_mse(
            model, lambda y: rsls_ideal(y, cov.u).h_hat, trials=10_000, rng_seed=8
        )
        expected = sigma_z2 * 5
        assert abs(mse - expected) <= max(3 * stderr, 0.03 * expected)


class TestPostSim:
    def test_ideal_projection_reduces_to_reduced(self):
        cov = random_rank_deficient_cov(12, 4, seed=9)
        rng = np.random.default_rng(10)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = cov.u.conj().T
        y = v @ r
        post = mmse_post_sim(y, v, cov, sigma_z2=0.3)
        reduced = mmse_reduced(y, cov, sigma_z2=0.3)
        np.testing.assert_allclose(post.h_hat, reduced.h_hat, rtol=1e-10)
        assert post.scalar_mse == pytest.approx(reduced.scalar_mse, rel=1e-10)

    def test_scale_invariance_of_estimate(self):
        cov = random_rank_deficient_cov(10, 3, seed=11)
        rng = np.random.default_rng(12)
        v = cov.u.conj().T + 0.05 * (
            rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        )
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rep1 = mmse_post_sim(v @ r, v, cov, sigma_z2=0.2)
        c = 2.7 - 0.3j
        rep2 = mmse_post_sim(c * v @ r, c * v, cov, sigma_z2=0.2)
        np.testing.assert_allclose(rep1.h_hat, rep2.h_hat, rtol=1e-10)

    def test_mmse_post_sim_monte_carlo_agreement(self):
        cov = random_rank_deficient_cov(12, 4, seed=13)
        rng = np.random.default_rng(14)
        v = cov.u.conj().T + 0.03 * (
            rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        )
        sigma_z2 = 0.5
        model = ObservationModel(
            mode="sim-projection", cov=cov, noise_variance=sigma_z2, v=v
        )
        rep = mmse_post_sim(np.zeros(4, dtype=complex), v, cov, sigma_z2)
        mse, stderr = monte_carlo_mse(
            model,
            lambda y: mmse_post_sim(y, v, cov, sigma_z2).h_hat,
            trials=10_000,
            rng_seed=15,
        )
        assert abs(mse - rep.scalar_mse) <= max(3 * stderr, 0.03 * rep.scalar_mse)

    def test_rsls_ideal_projection_identity_operator(self):
        cov = random_rank_deficient_cov(10, 4, seed=16)
        v = cov.u.conj().T
        rng = np.random.default_rng(17)
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rep = rsls_post_sim(v @ r, v, cov.u, sigma_z2=0.3)
        assert rep.scalar_mse == pytest.approx(0.3 * 4, rel=1e-10)

    def test_rsls_in_subspace_noiseless_unbiased(self):
        cov = random_rank_deficient_cov(10, 3, seed=18)
        rng = np.random.default_rng(19)
        v = cov.u.conj().T + 0.1 * (
            rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        )
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = cov.u @ g
        rep = rsls_post_sim(v @ h, v, cov.u, sigma_z2=0.2)
        np.testing.assert_allclose(rep.h_hat, h, rtol=1e-9)

    def test_rsls_degradation_within_bound_for_orthonormalized_v(self):
        # random mismatch with delta_U <= 0.1 after row orthonormalization
        cov = random_rank_deficient_cov(12, 4, seed=20)
        rng = np.random.default_rng(21)
        u = cov.u
        sigma_z2 = 0.7
        for trial in range(20):
            delta = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
            delta *= 0.1 / np.linalg.norm(delta @ u, 2)
            v = u.conj().T + delta
            # row-orthonormalize
            gram = v @ v.conj().T
            vals, vecs = np.linalg.eigh(gram)
            v_orth = (vecs * (vals**-0.5)[None, :]) @ vecs.conj().T @ v
            du = np.linalg.norm((v_orth - u.conj().T) @ u, 2)
            bound = 1.0 / (1.0 - (2 * du + du**2))
            rep = rsls_post_sim(np.zeros(4, dtype=complex), v_orth, u, sigma_z2)
            assert rep.scalar_mse <= bound * sigma_z2 * 4 + 1e-9

    def test_rank_deficient_operator_raises(self):
        cov = random_rank_deficient_cov(10, 3, seed=22)
        v = np.zeros((3, 10), dtype=complex)
        v[0] = cov.u[:, 0].conj()
        with pytest.raises(EstimationError):
            rsls_post_sim(np.zeros(3, dtype=complex), v, cov.u, sigma_z2=0.1)

    def test_zero_row_projection_raises(self):
        cov = random_rank_deficient_cov(10, 3, seed=23)
        v = cov.u.conj().T.copy()
        v[1] = 0.0
        with pytest.raises(EstimationError):
            mmse_post_sim(np.zeros(3, dtype=complex), v, cov, sigma_z2=0.1)


class TestOrderingAndBaseline:
    def test_digital_baseline_is_full_mmse(self):
        cov = random_rank_deficient_cov(12, 6, seed=24)
        rng = np.random.default_rng(25)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a = digital_baseline(r, cov, sigma_z2=0.4)
        b = mmse_full(r, cov, sigma_z2=0.4)
        np.testing.assert_array_equal(a.h_hat, b.h_hat)
        assert a.scalar_mse == b.scalar_mse
        assert a.estimator_tag == "digital-baseline"

    def test_mmse_dominates_rsls_analytic(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(12, 4, seed=seed)
            sigma_z2 = 0.3
            mmse = mmse_reduced(np.zeros(4, dtype=complex), cov, sigma_z2)
            rsls = rsls_ideal(np.zeros(4, dtype=complex), cov.u, sigma_z2)
            assert mmse.scalar_mse <= rsls.scalar_mse + 1e-9

    def test_baseline_beats_truncated_only_with_truncation(self):
        # rank 6 covariance truncated to L=4: baseline strictly better;
        # same rank kept in full: they coincide
        cov6 = random_rank_deficient_cov(12, 6, seed=26)
        sigma_z2 = 0.05
        baseline = mmse_full(np.zeros(12, dtype=complex), cov6, sigma_z2)
        truncated = covariance_from_matrix(
            cov6.u[:, :4] @ np.diag(cov6.d[:4]) @ cov6.u[:, :4].conj().T
        )
        reduced = mmse_reduced(np.zeros(4, dtype=complex), truncated, sigma_z2)
        reduced_total = reduced.scalar_mse + cov6.truncation_power(4)
        assert baseline.scalar_mse < reduced_total - 1e-6
        full_reduced = mmse_reduced(np.zeros(6, dtype=complex), cov6, sigma_z2)
        assert full_reduced.scalar_mse + cov6.truncation_power(6) == pytest.approx(
            baseline.scalar_mse, rel=1e-9
        )

    def test_empirical_mmse_below_rsls(self):
        cov = random_rank_deficient_cov(12, 4, seed=27)
        sigma_z2 = 0.5
        model = ObservationModel(mode="ideal-projection", cov=cov, noise_variance=sigma_z2)
        mse_mmse, _ = monte_carlo_mse(
            model, lambda y: mmse_reduced(y, cov, sigma_z2).h_hat, trials=4000, rng_seed=28
        )
        mse_rsls, _ = monte_carlo_mse(
            model, lambda y: rsls_ideal(y, cov.u).h_hat, trials=4000, rng_seed=28
        )
        assert mse_mmse <= mse_rsls


class TestMonteCarlo:
    def test_stderr_scales_inverse_sqrt(self):
        cov = random_rank_deficient_cov(8, 3, seed=29)
        model = ObservationModel(mode="ideal-projection", cov=cov, noise_variance=0.2)
        est = lambda y: rsls_ideal(y, cov.u).h_hat
        _, se_small = monte_carlo_mse(model, est, trials=100, rng_seed=30)
        _, se_big = monte_carlo_mse(model, est, trials=10_000, rng_seed=30)
        assert se_small / se_big == pytest.approx(10.0, rel=0.5)

    def test_requires_minimum_trials(self):
        cov = random_rank_deficient_cov(8, 3, seed=31)
        model = ObservationModel(mode="ideal-projection", cov=cov, noise_variance=0.2)
        with pytest.raises(ConfigurationError):
            monte_carlo_mse(model, lambda y: y, trials=10, rng_seed=0)

    def test_gaussian_draws_match_covariance(self):
        cov = random_rank_deficient_cov(8, 4, seed=32)
        rng = np.random.default_rng(33)
        h = draw_gaussian_channels(cov, 40_000, rng)
        emp = (h @ h.conj().T) / h.shape[1]
        assert np.linalg.norm(emp - cov.r_h) <= 0.05 * np.linalg.norm(cov.r_h)

    def test_analytic_matches_empirical_full_mmse(self):
        cov = random_rank_deficient_cov(10, 5, seed=34)
        sigma_z2 = 0.6
        rep = mmse_full(np.zeros(10, dtype=complex), cov, sigma_z2)
        model = ObservationModel(mode="full-array", cov=cov, noise_variance=sigma_z2)
        mse, stderr = monte_carlo_mse(
            model, lambda y: mmse_full(y, cov, sigma_z2).h_hat, trials=10_000, rng_seed=35
        )
        assert abs(mse - rep.scalar_mse) <= max(3 * stderr, 0.03 * rep.scalar_mse)


class TestEstimatorSuite:
    def setup_method(self):
        rng = np.random.default_rng(30)
        k, l = 12, 4
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        self.cov = covariance_from_matrix(q @ np.diag(0.5 ** np.arange(k)) @ q.conj().T)
        self.u, self.cov_l = reduced_model(self.cov, l)
        self.v = self.u.conj().T + 0.05 * (
            rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
        )
        self.rng = rng

    def test_matrices_equal_functional_estimators(self):
        cov, u, cov_l, v = self.cov, self.u, self.cov_l, self.v
        sigma_z2 = 0.3
        trunc = cov.truncation_power(u.shape[1])
        assert trunc > 0.0
        reference = {
            "mmse-ideal": (lambda y: mmse_reduced(y, cov_l, sigma_z2), trunc),
            "rsls-ideal": (lambda y: rsls_ideal(y, u, sigma_z2), trunc),
            "digital-baseline": (lambda y: digital_baseline(y, cov, sigma_z2), 0.0),
            "mmse-sim": (lambda y: mmse_post_sim(y, v, cov_l, sigma_z2), trunc),
            "rsls-sim": (lambda y: rsls_post_sim(y, v, u, sigma_z2), trunc),
        }
        suite = estimator_suite(cov, u, cov_l, sigma_z2, (v, u))
        assert list(suite) == list(reference)
        for tag, est in suite.items():
            fn, truncation = reference[tag]
            dim = est.model.projection().shape[0]
            y = self.rng.standard_normal((dim, 7)) + 1j * self.rng.standard_normal((dim, 7))
            rep = fn(y)
            got = est.estimate(y)
            assert np.linalg.norm(got - rep.h_hat) <= 1e-12 * np.linalg.norm(rep.h_hat), tag
            assert est.analytic_mse == rep.scalar_mse + truncation, tag
        # behind the ideal projection the rank-L model is exact for the full covariance
        for tag in ("mmse-ideal", "rsls-ideal"):
            assert suite[tag].exact_mse() == pytest.approx(suite[tag].analytic_mse, rel=1e-12)

    def test_without_surface_only_ideal_and_baseline(self):
        suite = estimator_suite(self.cov, self.u, self.cov_l, 0.3)
        assert list(suite) == ["mmse-ideal", "rsls-ideal", "digital-baseline"]
        np.testing.assert_array_equal(suite["mmse-ideal"].model.projection(), self.u.conj().T)
        np.testing.assert_array_equal(suite["digital-baseline"].model.projection(), np.eye(12))
