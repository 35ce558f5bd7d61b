import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.channel import covariance_from_matrix, reduce_subspace
from simloc.errors import ConfigurationError, EstimationError
from simloc.estimation import (
    LinearEstimator,
    digital_baseline,
    draw_gaussian_channels,
    estimator_suite,
    mmse_full,
    mmse_post_sim,
    mmse_reduced,
    monte_carlo_mse,
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


def estimator(w_mse, p, cov, sigma_z2):
    w, mse = w_mse
    return LinearEstimator(w, p, cov, sigma_z2, mse)


def reference_monte_carlo_mse(cov, proj, noise_variance, estimate, trials, rng_seed, batch=1000):
    """The Monte Carlo loop as written against an observation model and an
    estimator callable: y = P (h + z) block by block, h_hat = estimate(y)."""
    rng = np.random.default_rng(rng_seed)
    k = cov.dim
    sq_errors = np.empty(trials)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        h = draw_gaussian_channels(cov, b, rng)
        z = (rng.standard_normal((k, b)) + 1j * rng.standard_normal((k, b))) * np.sqrt(
            noise_variance / 2.0
        )
        h_hat = estimate(proj @ (h + z))
        sq_errors[done : done + b] = np.sum(np.abs(h - h_hat) ** 2, axis=0)
        done += b
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / np.sqrt(trials))


class TestMmseForms:
    def test_identity_prior_scalar_shrinkage(self):
        cov = covariance_from_matrix(np.eye(6, dtype=complex))
        r = np.arange(1, 7).astype(complex)
        w, mse = mmse_full(cov, sigma_z2=1.0)
        np.testing.assert_allclose(w @ r, r / 2.0, rtol=1e-12)
        assert mse == pytest.approx(3.0, rel=1e-12)

    def test_noiseless_limit_recovers_observation(self):
        cov = random_rank_deficient_cov(8, 8, seed=0)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w, _ = mmse_full(cov, sigma_z2=1e-12)
        assert np.linalg.norm(w @ r - r) <= 1e-6 * np.linalg.norm(r)

    def test_full_equals_spectral_oracle_rank_deficient(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(12, 5, seed=seed)
            rng = np.random.default_rng(100 + seed)
            r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            w, _ = mmse_full(cov, sigma_z2=0.3)
            oracle = spectral_mmse_oracle(r, cov, 0.3)[:, 0]
            assert np.linalg.norm(w @ r - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_reduced_equals_full(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(16, 6, seed=seed)
            rng = np.random.default_rng(200 + seed)
            r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            full = mmse_full(cov, sigma_z2=0.5)[0] @ r
            reduced = mmse_reduced(cov.u, cov.d, sigma_z2=0.5)[0] @ (cov.u.conj().T @ r)
            assert np.linalg.norm(full - reduced) <= 1e-10 * np.linalg.norm(full)

    def test_high_snr_mode_passes_unshrunk(self):
        k = 4
        u = np.eye(k, dtype=complex)[:, :2]
        d = np.array([1e9, 1.0])
        cov = covariance_from_matrix(u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12)
        y = np.array([1.0 + 0j, 1.0 + 0j])
        h_hat = mmse_reduced(cov.u, cov.d, sigma_z2=1.0)[0] @ y
        assert h_hat[0] == pytest.approx(1.0, rel=1e-8)
        assert abs(h_hat[1]) == pytest.approx(0.5, rel=1e-8)

    def test_zero_observation_zero_estimate(self):
        cov = random_rank_deficient_cov(8, 3, seed=2)
        w, _ = mmse_reduced(cov.u, cov.d, sigma_z2=0.2)
        np.testing.assert_allclose(w @ np.zeros(3, dtype=complex), 0.0)


class TestRslsIdeal:
    def test_in_subspace_noiseless_exact(self):
        cov = random_rank_deficient_cov(10, 4, seed=3)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = cov.u @ g
        w, mse = rsls_ideal(cov.u, sigma_z2=0.1)
        np.testing.assert_allclose(w @ (cov.u.conj().T @ h), h, rtol=1e-12)
        assert mse == pytest.approx(0.1 * 4, rel=1e-12)

    def test_full_basis_identity(self):
        cov = random_rank_deficient_cov(6, 6, seed=5)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u = cov.eigenvectors
        w, _ = rsls_ideal(u, sigma_z2=0.1)
        np.testing.assert_allclose(w @ (u.conj().T @ r), r, rtol=1e-10)

    def test_monte_carlo_mse_matches_sigma_l(self):
        cov = random_rank_deficient_cov(12, 5, seed=7)
        sigma_z2 = 0.4
        est = estimator(rsls_ideal(cov.u, sigma_z2), cov.u.conj().T, cov, sigma_z2)
        mse, stderr = monte_carlo_mse(est, trials=10_000, rng_seed=8)
        expected = sigma_z2 * 5
        assert abs(mse - expected) <= max(3 * stderr, 0.03 * expected)


class TestPostSim:
    def test_ideal_projection_reduces_to_reduced(self):
        cov = random_rank_deficient_cov(12, 4, seed=9)
        rng = np.random.default_rng(10)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = cov.u.conj().T
        y = v @ r
        w_post, mse_post = mmse_post_sim(v, cov.u, cov.d, sigma_z2=0.3)
        w_red, mse_red = mmse_reduced(cov.u, cov.d, sigma_z2=0.3)
        np.testing.assert_allclose(w_post @ y, w_red @ y, rtol=1e-10)
        assert mse_post == pytest.approx(mse_red, rel=1e-10)

    def test_scale_invariance_of_estimate(self):
        cov = random_rank_deficient_cov(10, 3, seed=11)
        rng = np.random.default_rng(12)
        v = cov.u.conj().T + 0.05 * (
            rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        )
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        h1 = mmse_post_sim(v, cov.u, cov.d, sigma_z2=0.2)[0] @ (v @ r)
        c = 2.7 - 0.3j
        h2 = mmse_post_sim(c * v, cov.u, cov.d, sigma_z2=0.2)[0] @ (c * v @ r)
        np.testing.assert_allclose(h1, h2, rtol=1e-10)

    def test_mmse_post_sim_monte_carlo_agreement(self):
        cov = random_rank_deficient_cov(12, 4, seed=13)
        rng = np.random.default_rng(14)
        v = cov.u.conj().T + 0.03 * (
            rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        )
        sigma_z2 = 0.5
        est = estimator(mmse_post_sim(v, cov.u, cov.d, sigma_z2), v, cov, sigma_z2)
        mse, stderr = monte_carlo_mse(est, trials=10_000, rng_seed=15)
        expected = est.analytic_mse
        assert abs(mse - expected) <= max(3 * stderr, 0.03 * expected)

    def test_rsls_ideal_projection_identity_operator(self):
        cov = random_rank_deficient_cov(10, 4, seed=16)
        v = cov.u.conj().T
        _, mse = rsls_post_sim(v, cov.u, sigma_z2=0.3)
        assert mse == pytest.approx(0.3 * 4, rel=1e-10)

    def test_rsls_in_subspace_noiseless_unbiased(self):
        cov = random_rank_deficient_cov(10, 3, seed=18)
        rng = np.random.default_rng(19)
        v = cov.u.conj().T + 0.1 * (
            rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        )
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = cov.u @ g
        w, _ = rsls_post_sim(v, cov.u, sigma_z2=0.2)
        np.testing.assert_allclose(w @ (v @ h), h, rtol=1e-9)

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
            _, mse = rsls_post_sim(v_orth, u, sigma_z2)
            assert mse <= bound * sigma_z2 * 4 + 1e-9

    def test_rank_deficient_operator_raises(self):
        cov = random_rank_deficient_cov(10, 3, seed=22)
        v = np.zeros((3, 10), dtype=complex)
        v[0] = cov.u[:, 0].conj()
        with pytest.raises(EstimationError):
            rsls_post_sim(v, cov.u, sigma_z2=0.1)

    def test_zero_row_projection_raises(self):
        cov = random_rank_deficient_cov(10, 3, seed=23)
        v = cov.u.conj().T.copy()
        v[1] = 0.0
        with pytest.raises(EstimationError):
            mmse_post_sim(v, cov.u, cov.d, sigma_z2=0.1)


class TestOrderingAndBaseline:
    def test_digital_baseline_is_full_mmse(self):
        cov = random_rank_deficient_cov(12, 6, seed=24)
        w_a, mse_a = digital_baseline(cov, sigma_z2=0.4)
        w_b, mse_b = mmse_full(cov, sigma_z2=0.4)
        np.testing.assert_array_equal(w_a, w_b)
        assert mse_a == mse_b

    def test_mmse_dominates_rsls_analytic(self):
        for seed in range(5):
            cov = random_rank_deficient_cov(12, 4, seed=seed)
            sigma_z2 = 0.3
            _, mmse = mmse_reduced(cov.u, cov.d, sigma_z2)
            _, rsls = rsls_ideal(cov.u, sigma_z2)
            assert mmse <= rsls + 1e-9

    def test_baseline_beats_truncated_only_with_truncation(self):
        # rank 6 covariance truncated to L=4: baseline strictly better;
        # same rank kept in full: they coincide
        cov6 = random_rank_deficient_cov(12, 6, seed=26)
        sigma_z2 = 0.05
        _, baseline = mmse_full(cov6, sigma_z2)
        truncated = covariance_from_matrix(
            cov6.u[:, :4] @ np.diag(cov6.d[:4]) @ cov6.u[:, :4].conj().T
        )
        _, reduced = mmse_reduced(truncated.u, truncated.d, sigma_z2)
        assert baseline < reduced + cov6.truncation_power(4) - 1e-6
        _, full_reduced = mmse_reduced(cov6.u, cov6.d, sigma_z2)
        assert full_reduced + cov6.truncation_power(6) == pytest.approx(baseline, rel=1e-9)

    def test_empirical_mmse_below_rsls(self):
        cov = random_rank_deficient_cov(12, 4, seed=27)
        sigma_z2 = 0.5
        u_h = cov.u.conj().T
        mmse = estimator(mmse_reduced(cov.u, cov.d, sigma_z2), u_h, cov, sigma_z2)
        rsls = estimator(rsls_ideal(cov.u, sigma_z2), u_h, cov, sigma_z2)
        mse_mmse, _ = monte_carlo_mse(mmse, trials=4000, rng_seed=28)
        mse_rsls, _ = monte_carlo_mse(rsls, trials=4000, rng_seed=28)
        assert mse_mmse <= mse_rsls


class TestMonteCarlo:
    def test_stderr_scales_inverse_sqrt(self):
        cov = random_rank_deficient_cov(8, 3, seed=29)
        est = estimator(rsls_ideal(cov.u, 0.2), cov.u.conj().T, cov, 0.2)
        _, se_small = monte_carlo_mse(est, trials=100, rng_seed=30)
        _, se_big = monte_carlo_mse(est, trials=10_000, rng_seed=30)
        assert se_small / se_big == pytest.approx(10.0, rel=0.5)

    def test_requires_minimum_trials(self):
        cov = random_rank_deficient_cov(8, 3, seed=31)
        est = estimator(rsls_ideal(cov.u, 0.2), cov.u.conj().T, cov, 0.2)
        with pytest.raises(ConfigurationError):
            monte_carlo_mse(est, trials=10, rng_seed=0)

    def test_gaussian_draws_match_covariance(self):
        cov = random_rank_deficient_cov(8, 4, seed=32)
        rng = np.random.default_rng(33)
        h = draw_gaussian_channels(cov, 40_000, rng)
        emp = (h @ h.conj().T) / h.shape[1]
        assert np.linalg.norm(emp - cov.r_h) <= 0.05 * np.linalg.norm(cov.r_h)

    def test_analytic_matches_empirical_full_mmse(self):
        cov = random_rank_deficient_cov(10, 5, seed=34)
        sigma_z2 = 0.6
        est = estimator(mmse_full(cov, sigma_z2), np.eye(10, dtype=complex), cov, sigma_z2)
        mse, stderr = monte_carlo_mse(est, trials=10_000, rng_seed=35)
        expected = est.analytic_mse
        assert abs(mse - expected) <= max(3 * stderr, 0.03 * expected)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(100, 2600),
        tag=st.sampled_from(["mmse-ideal", "rsls-ideal", "digital-baseline", "mmse-sim", "rsls-sim"]),
    )
    def test_matches_callable_reference_bit_for_bit(self, seed, trials, tag):
        # the estimator applied as a matrix draws and scores exactly as the
        # projection-then-callable loop did, block for block
        rng = np.random.default_rng(seed)
        k, l = 10, 3
        cov = random_rank_deficient_cov(k, 6, seed=seed)
        u, d = reduce_subspace(cov, l_fixed=l)
        v = u.conj().T + 0.05 * (rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k)))
        est = estimator_suite(cov, u, d, 0.3, (v, u))[tag]
        got = monte_carlo_mse(est, trials=trials, rng_seed=seed)
        want = reference_monte_carlo_mse(
            cov, est.p, 0.3, lambda y: est.w @ y, trials=trials, rng_seed=seed
        )
        assert got == want


class TestEstimatorSuite:
    def setup_method(self):
        rng = np.random.default_rng(30)
        k, l = 12, 4
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        self.cov = covariance_from_matrix(q @ np.diag(0.5 ** np.arange(k)) @ q.conj().T)
        self.u, self.d = reduce_subspace(self.cov, l_fixed=l)
        self.v = self.u.conj().T + 0.05 * (
            rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
        )
        self.rng = rng

    def test_matrices_equal_functional_estimators(self):
        cov, u, d, v = self.cov, self.u, self.d, self.v
        sigma_z2 = 0.3
        trunc = cov.truncation_power(u.shape[1])
        assert trunc > 0.0
        u_h = u.conj().T
        reference = {
            "mmse-ideal": (mmse_reduced(u, d, sigma_z2), u_h, trunc),
            "rsls-ideal": (rsls_ideal(u, sigma_z2), u_h, trunc),
            "digital-baseline": (digital_baseline(cov, sigma_z2), np.eye(12), 0.0),
            "mmse-sim": (mmse_post_sim(v, u, d, sigma_z2), v, trunc),
            "rsls-sim": (rsls_post_sim(v, u, sigma_z2), v, trunc),
        }
        suite = estimator_suite(cov, u, d, sigma_z2, (v, u))
        assert list(suite) == list(reference)
        for tag, est in suite.items():
            (w, mse), p, truncation = reference[tag]
            np.testing.assert_array_equal(est.w, w, err_msg=tag)
            np.testing.assert_array_equal(est.p, p, err_msg=tag)
            assert est.cov is cov and est.noise_variance == sigma_z2, tag
            assert est.analytic_mse == mse + truncation, tag

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 16),
        data=st.data(),
        sigma_z2=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_mse_equals_analytic_behind_ideal_projection(self, k, data, sigma_z2, seed):
        # behind U^H the rank-L model is exact for the full covariance, and
        # the baseline's MMSE is exact by construction
        rank = data.draw(st.integers(1, k), label="rank")
        l = data.draw(st.integers(1, rank), label="l")
        cov = random_rank_deficient_cov(k, rank, seed=seed)
        u, d = reduce_subspace(cov, l_fixed=l)
        suite = estimator_suite(cov, u, d, sigma_z2)
        for tag in ("mmse-ideal", "rsls-ideal", "digital-baseline"):
            assert suite[tag].exact_mse() == pytest.approx(suite[tag].analytic_mse, rel=1e-12), tag

    def test_without_surface_only_ideal_and_baseline(self):
        suite = estimator_suite(self.cov, self.u, self.d, 0.3)
        assert list(suite) == ["mmse-ideal", "rsls-ideal", "digital-baseline"]
        np.testing.assert_array_equal(suite["mmse-ideal"].p, self.u.conj().T)
        np.testing.assert_array_equal(suite["digital-baseline"].p, np.eye(12))
