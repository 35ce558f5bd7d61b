import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.bounds import (
    channel_jacobian,
    fim_peb,
    mismatch_metrics,
    mse_ratio_check,
    reduced_gram,
    relative_mismatch,
    subspace_mismatch,
)
from simloc.errors import ConfigurationError
from simloc.geometry import GeometryConfig, build_sim_geometry


def random_subspace(k, l, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
    return u


def random_delta(k, l, delta_u_target, u, rng):
    delta = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
    return delta * (delta_u_target / np.linalg.norm(delta @ u, 2))


def row_orthonormalize(v):
    gram = v @ v.conj().T
    vals, vecs = np.linalg.eigh(gram)
    return (vecs * (vals**-0.5)[None, :]) @ vecs.conj().T @ v


def line_geometry(k=8, lam=0.0107):
    cfg = GeometryConfig(k_y=k, k_z=1, layers=1, carrier_frequency_hz=299792458.0 / lam)
    sim, _ = build_sim_geometry(cfg)
    return sim


class TestMismatchMetrics:
    def test_perfect_projection_all_zero(self):
        u = random_subspace(10, 3, seed=0)
        m = mismatch_metrics(u.conj().T, u)
        assert m.delta_rel == pytest.approx(0.0, abs=1e-12)
        assert m.delta_u == pytest.approx(0.0, abs=1e-12)
        assert m.e_norm == pytest.approx(0.0, abs=1e-12)
        assert m.eig_box == pytest.approx((1.0, 1.0))
        assert m.mse_ratio_bound == pytest.approx(1.0)

    def test_box_arithmetic_at_delta_01(self):
        u = random_subspace(12, 4, seed=1)
        rng = np.random.default_rng(2)
        delta = random_delta(12, 4, 0.1, u, rng)
        m = mismatch_metrics(u.conj().T + delta, u)
        assert m.delta_u == pytest.approx(0.1, rel=1e-10)
        assert m.eig_box[0] == pytest.approx(0.79, rel=1e-10)
        assert m.eig_box[1] == pytest.approx(1.21, rel=1e-10)
        assert m.mse_ratio_bound == pytest.approx(1.0 / 0.79, rel=1e-10)

    def test_eigenvalues_of_gram_inside_box_1000_draws(self):
        u = random_subspace(16, 5, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            du = rng.uniform(0.0, 0.3)
            v = u.conj().T + random_delta(16, 5, du, u, rng)
            m = mismatch_metrics(v, u)
            eig = np.linalg.eigvalsh(reduced_gram(v, u))
            assert eig.min() >= m.eig_box[0] - 1e-9
            assert eig.max() <= m.eig_box[1] + 1e-9

    def test_e_norm_triangle_bound(self):
        u = random_subspace(12, 4, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(200):
            du = rng.uniform(0.0, 0.5)
            v = u.conj().T + random_delta(12, 4, du, u, rng)
            m = mismatch_metrics(v, u)
            assert m.e_norm <= 2 * m.delta_u + m.delta_u**2 + 1e-9

    def test_positive_definite_inside_domain(self):
        u = random_subspace(12, 4, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            du = rng.uniform(0.0, 0.4)  # 2*0.4 + 0.16 < 1
            v = u.conj().T + random_delta(12, 4, du, u, rng)
            eig = np.linalg.eigvalsh(reduced_gram(v, u))
            assert eig.min() > 0.0

    def test_delta_rel_definition(self):
        u = random_subspace(10, 2, seed=9)
        rng = np.random.default_rng(10)
        delta = random_delta(10, 2, 0.2, u, rng)
        m = mismatch_metrics(u.conj().T + delta, u)
        assert m.delta_rel == pytest.approx(np.linalg.norm(delta) / np.sqrt(2), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 24),
        l=st.integers(1, 8),
        log_scale=st.floats(-8.0, 2.0),
    )
    def test_residual_metrics_equal_the_former_formulas(self, seed, k, l, log_scale):
        # bit for bit the formulas the optimizer and mismatch_metrics each
        # held before the two were merged: an SVD's largest value, and
        # np.linalg.norm(., 2) for mismatch_metrics' delta_U
        l = min(l, k)
        u = random_subspace(k, l, seed)
        rng = np.random.default_rng(seed + 1)
        v = u.conj().T + 10.0**log_scale * (
            rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
        )
        delta = v - u.conj().T
        svd_delta_u = float(np.linalg.svd(delta @ u, compute_uv=False)[0])
        norm_delta_u = float(np.linalg.norm(delta @ u, 2))
        delta_rel = float(np.linalg.norm(delta, "fro") / np.sqrt(u.shape[1]))
        assert subspace_mismatch(delta @ u) == svd_delta_u
        assert relative_mismatch(delta, u) == delta_rel
        m = mismatch_metrics(v, u)
        assert m.delta_u == norm_delta_u
        assert m.delta_rel == delta_rel


class TestMseRatioCheck:
    def test_ideal_projection_unit_ratio(self):
        u = random_subspace(10, 3, seed=11)
        res = mse_ratio_check(u.conj().T, u)
        assert res.applicable and res.holds
        assert res.actual_ratio == pytest.approx(1.0, rel=1e-10)
        assert res.bound == pytest.approx(1.0, rel=1e-10)

    def test_bound_holds_on_500_orthonormalized_draws(self):
        u = random_subspace(14, 4, seed=12)
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(500):
            du = rng.uniform(0.0, 0.3)
            v = row_orthonormalize(u.conj().T + random_delta(14, 4, du, u, rng))
            res = mse_ratio_check(v, u)
            assert res.applicable
            assert res.holds
            checked += 1
        assert checked == 500

    def test_ratio_is_the_inverse_gram_trace(self):
        # where the check applies, its ratio (rho) is tr(G^{-1}) / L
        u = random_subspace(14, 4, seed=17)
        rng = np.random.default_rng(18)
        for _ in range(200):
            v = row_orthonormalize(u.conj().T + random_delta(14, 4, rng.uniform(0.0, 0.3), u, rng))
            res = mse_ratio_check(v, u)
            assert res.applicable
            expected = np.real(np.trace(np.linalg.inv(reduced_gram(v, u)))) / 4
            assert res.actual_ratio == pytest.approx(expected, rel=1e-12)

    def test_domain_edge_gives_infinite_bound(self):
        u = random_subspace(10, 3, seed=14)
        rng = np.random.default_rng(15)
        v = row_orthonormalize(u.conj().T + random_delta(10, 3, 0.9, u, rng))
        res = mse_ratio_check(v, u)
        m = mismatch_metrics(v, u)
        if 2 * m.delta_u + m.delta_u**2 >= 1.0:
            assert res.bound == np.inf
            assert res.holds

    def test_non_orthonormal_reported_inapplicable(self):
        u = random_subspace(10, 3, seed=16)
        res = mse_ratio_check(2.0 * u.conj().T, u)
        assert not res.applicable
        assert res.holds  # vacuously; bound not falsified


class TestChannelJacobian:
    def test_phase_column_exact(self):
        geom = line_geometry(8)
        eps = np.array([0.7, 0.2, 1.3, 0.4])
        jac = channel_jacobian(geom, eps)
        x, y, g, th = eps
        pos = geom.first_layer_positions
        d = np.linalg.norm(np.array([x, y, 0.0])[None, :] - pos, axis=1)
        h = g * np.exp(1j * th) * np.exp(-2j * np.pi * d / geom.wavelength)
        np.testing.assert_allclose(jac[:, 3], 1j * h, rtol=1e-12)
        np.testing.assert_allclose(jac[:, 2], h / g, rtol=1e-12)

    def test_all_columns_match_finite_differences(self):
        geom = line_geometry(6)
        eps = np.array([0.9, -0.3, 0.8, 2.1])

        def channel(e):
            x, y, g, th = e
            pos = geom.first_layer_positions
            d = np.linalg.norm(np.array([x, y, 0.0])[None, :] - pos, axis=1)
            return g * np.exp(1j * th) * np.exp(-2j * np.pi * d / geom.wavelength)

        jac = channel_jacobian(geom, eps)
        steps = [1e-6, 1e-6, 1e-8, 1e-8]
        for col, step in enumerate(steps):
            ep = eps.copy()
            em = eps.copy()
            ep[col] += step
            em[col] -= step
            fd = (channel(ep) - channel(em)) / (2 * step)
            assert np.abs(fd - jac[:, col]).max() <= 1e-6 * np.abs(jac[:, col]).max()

    def test_boresight_symmetry(self):
        geom = line_geometry(6)  # symmetric pairs across y = 0
        eps = np.array([1.2, 0.0, 1.0, 0.0])
        jac = channel_jacobian(geom, eps)
        dy = jac[:, 1]
        # mirrored elements carry opposite-sign y-derivatives with equal h
        np.testing.assert_allclose(dy, -dy[::-1], atol=1e-10 * np.abs(dy).max())

    def test_rejects_coincident_point(self):
        geom = line_geometry(4)
        p0 = geom.first_layer_positions[0]
        with pytest.raises(ConfigurationError):
            channel_jacobian(geom, np.array([p0[0], p0[1], 1.0, 0.0]))


class TestFimPeb:
    def test_theta_theta_entry_exact(self):
        geom = line_geometry(8)
        g = 1.7
        sigma_n2 = 0.3
        rep = fim_peb(geom, np.array([0.8, 0.1, g, 0.5]), sigma_n2)
        assert rep.fim[3, 3] == pytest.approx(8 * g**2 / sigma_n2, rel=1e-12)

    def test_peb_linear_in_sigma(self):
        geom = line_geometry(8)
        eps = np.array([0.8, 0.1, 1.0, 0.5])
        p1 = fim_peb(geom, eps, sigma_n2=0.1)
        p2 = fim_peb(geom, eps, sigma_n2=0.4)  # sigma doubled
        assert p2.peb / p1.peb == pytest.approx(2.0, rel=1e-8)

    def test_global_phase_invariance(self):
        geom = line_geometry(8)
        base = np.array([0.8, 0.1, 1.0, 0.3])
        shifted = base + np.array([0.0, 0.0, 0.0, 1.234])
        p1 = fim_peb(geom, base, sigma_n2=0.2)
        p2 = fim_peb(geom, shifted, sigma_n2=0.2)
        assert p2.peb == pytest.approx(p1.peb, rel=1e-10)

    def test_matches_brute_force_fim(self):
        geom = line_geometry(6)
        eps = np.array([0.9, -0.2, 1.1, 0.7])
        sigma_n2 = 0.25

        def channel(e):
            x, y, g, th = e
            pos = geom.first_layer_positions
            d = np.linalg.norm(np.array([x, y, 0.0])[None, :] - pos, axis=1)
            return g * np.exp(1j * th) * np.exp(-2j * np.pi * d / geom.wavelength)

        steps = [1e-6, 1e-6, 1e-8, 1e-8]
        jac_fd = np.empty((6, 4), dtype=complex)
        for col, step in enumerate(steps):
            ep = eps.copy()
            em = eps.copy()
            ep[col] += step
            em[col] -= step
            jac_fd[:, col] = (channel(ep) - channel(em)) / (2 * step)
        fim_fd = np.real(jac_fd.conj().T @ jac_fd) / sigma_n2
        rep = fim_peb(geom, eps, sigma_n2)
        assert np.abs(rep.fim - fim_fd).max() <= 1e-5 * np.abs(fim_fd).max()

    def test_peb_monotone_with_distance(self):
        spacing = 0.32 / float(np.hypot(63.0, 3.0))
        cfg = GeometryConfig(
            k_y=64, k_z=4, layers=7, carrier_frequency_hz=28e9, element_spacing_m=spacing
        )
        sim, _ = build_sim_geometry(cfg)
        pebs = []
        for dist in [2.0, 5.0, 9.0, 14.0, 20.0]:
            rep = fim_peb(sim, np.array([dist, 0.0, 1.0, 0.0]), sigma_n2=0.01)
            pebs.append(rep.peb)
        assert all(b > a for a, b in zip(pebs, pebs[1:]))
