import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.channel import (
    covariance_from_matrix,
    draw_channel,
    element_distances,
    estimate_covariance,
    reduce_subspace,
    steering_matrix,
    steering_vector,
)
from simloc.errors import ConfigurationError
from simloc.geometry import (
    ArrayGeometry,
    GainModel,
    GeometryConfig,
    UncertaintyRegion,
    build_sim_geometry,
    fraunhofer_distance,
)


def single_element_geometry(lam=0.01):
    return ArrayGeometry(
        positions=np.zeros((1, 3)),
        layers=1,
        elements_per_layer=1,
        spacing=lam / 2,
        layer_spacing=0.0,
        wavelength=lam,
        aperture=0.0,
    )


def line_geometry(k, lam=0.01):
    cfg = GeometryConfig(k_y=k, k_z=1, layers=1, carrier_frequency_hz=299792458.0 / lam)
    sim, _ = build_sim_geometry(cfg)
    return sim


class TestSteeringVector:
    def test_full_cycle_phase(self):
        geom = single_element_geometry(lam=0.01)
        sv = steering_vector(geom, np.array([0.01, 0.0]))
        assert sv.entries[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_half_cycle_phase(self):
        geom = single_element_geometry(lam=0.01)
        sv = steering_vector(geom, np.array([0.005, 0.0]))
        assert sv.entries[0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_elementwise_brute_force_oracle(self):
        geom = line_geometry(4)
        p = np.array([1.0, 0.0])
        sv = steering_vector(geom, p)
        for k in range(4):
            d = np.linalg.norm(np.array([p[0], p[1], 0.0]) - geom.positions[k])
            expected = np.exp(-2j * np.pi * d / geom.wavelength)
            assert sv.entries[k] == pytest.approx(expected, abs=1e-12)

    def test_unit_modulus(self):
        geom = line_geometry(16)
        pts = np.random.default_rng(0).uniform(0.1, 2.0, size=(20, 2))
        a = steering_matrix(geom, pts)
        np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-12)

    def test_coincident_point_is_defined(self):
        geom = single_element_geometry()
        sv = steering_vector(geom, np.array([0.0, 0.0]))
        assert sv.entries[0] == pytest.approx(1.0 + 0.0j)

    def test_far_field_phase_affine_in_element_index(self):
        geom = line_geometry(16)
        r = 100.0 * fraunhofer_distance(geom)
        p = r * np.array([np.cos(0.3), np.sin(0.3)])
        a = steering_vector(geom, p).entries
        phases = np.unwrap(np.angle(a))
        k = np.arange(16)
        coeffs = np.polyfit(k, phases, 1)
        resid = phases - np.polyval(coeffs, k)
        assert np.abs(resid).max() < 1e-2


class TestElementDistances:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 24),
        n=st.integers(1, 64),
        dim=st.sampled_from([2, 3]),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_equals_broadcast_formula(self, seed, k, n, dim, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        geom = ArrayGeometry(
            positions=rng.standard_normal((k, 3)) * scale,
            layers=1,
            elements_per_layer=k,
            spacing=0.005,
            layer_spacing=0.0,
            wavelength=0.01,
            aperture=0.0,
        )
        points = rng.standard_normal((n, dim)) * scale * rng.uniform(0.1, 10.0)
        pts = points if dim == 3 else np.column_stack([points, np.zeros(n)])
        # the (K, n, 3) broadcast the distances were once computed with
        diff = geom.first_layer_positions[:, None, :] - pts[None, :, :]
        expected = np.sqrt((diff**2).sum(axis=2))
        np.testing.assert_array_equal(element_distances(geom, points), expected)


class TestDrawChannel:
    def test_deterministic_gain_unit_modulus(self):
        geom = line_geometry(8)
        gm = GainModel(shadowing_std_db=0.0, mean_gain=1.0)
        real = draw_channel(geom, np.array([0.7, 0.1]), gm, rng_seed=0)
        np.testing.assert_allclose(np.abs(real.h), 1.0, rtol=1e-12)

    def test_channel_factorization_invariant(self):
        geom = line_geometry(8)
        gm = GainModel(shadowing_std_db=3.0)
        real = draw_channel(geom, np.array([0.5, -0.2]), gm, rng_seed=42)
        a = steering_vector(geom, real.position).entries
        np.testing.assert_allclose(
            real.h, real.gain * np.exp(1j * real.phase) * a, rtol=1e-12
        )

    def test_seed_determinism(self):
        geom = line_geometry(4)
        gm = GainModel(shadowing_std_db=3.0)
        a = draw_channel(geom, np.array([0.5, 0.0]), gm, rng_seed=5)
        b = draw_channel(geom, np.array([0.5, 0.0]), gm, rng_seed=5)
        np.testing.assert_array_equal(a.h, b.h)

    def test_shadowing_std_via_many_draws(self):
        geom = single_element_geometry()
        gm = GainModel(shadowing_std_db=3.0)
        gains = np.array(
            [draw_channel(geom, np.array([0.5, 0.0]), gm, rng_seed=s).gain for s in range(4000)]
        )
        assert np.std(20 * np.log10(gains)) == pytest.approx(3.0, rel=0.05)


class TestCovariance:
    def test_degenerate_region_rank_one(self):
        geom = line_geometry(8)
        region = UncertaintyRegion(center=(0.6, 0.0), diameter=0.0)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=64, rng_seed=0)
        a = steering_vector(geom, np.array(region.center)).entries
        np.testing.assert_allclose(cov.r_h, np.outer(a, a.conj()), atol=1e-12)
        assert cov.rank == 1
        assert cov.eigenvalues[0] == pytest.approx(8.0, rel=1e-12)

    def test_trace_exact(self):
        geom = line_geometry(12)
        region = UncertaintyRegion(center=(0.8, 0.1), diameter=0.3)
        for gm in [GainModel(0.0), GainModel(3.0)]:
            cov = estimate_covariance(geom, region, gm, n_samples=500, rng_seed=2)
            assert cov.trace == pytest.approx(gm.mean_square_gain * 12, rel=1e-12)

    def test_hermitian_psd_orthonormal_reconstruction(self):
        geom = line_geometry(16)
        region = UncertaintyRegion(center=(1.0, 0.2), diameter=0.4)
        cov = estimate_covariance(geom, region, GainModel(3.0), n_samples=3000, rng_seed=3)
        r = cov.r_h
        assert np.linalg.norm(r - r.conj().T) <= 1e-12 * np.linalg.norm(r)
        assert cov.eigenvalues.min() >= -1e-10 * cov.eigenvalues.max()
        u_t = cov.eigenvectors
        np.testing.assert_allclose(u_t.conj().T @ u_t, np.eye(16), atol=1e-10)
        recon = (u_t * cov.eigenvalues[None, :]) @ u_t.conj().T
        assert np.linalg.norm(recon - r) <= 1e-10 * np.linalg.norm(r)
        np.testing.assert_allclose(
            cov.u.conj().T @ cov.u, np.eye(cov.rank), atol=1e-10
        )

    def test_two_point_masses_match_gram_analysis(self):
        geom = line_geometry(8)
        p1 = np.array([0.5, -0.3])
        p2 = np.array([1.5, 0.4])

        def sampler(n, rng):
            return np.vstack([p1, p2])[np.arange(n) % 2]

        region = UncertaintyRegion(center=(1.0, 0.0), diameter=2.0, sampler=sampler)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=2, rng_seed=0)
        assert cov.rank == 2
        a1 = steering_vector(geom, p1).entries
        a2 = steering_vector(geom, p2).entries
        inner = np.vdot(a1, a2)
        expected = np.array([8.0 + abs(inner), 8.0 - abs(inner)]) / 2.0
        np.testing.assert_allclose(cov.eigenvalues[:2], np.sort(expected)[::-1], rtol=1e-10)
        np.testing.assert_allclose(cov.eigenvalues[2:], 0.0, atol=1e-10)

    def test_seed_determinism(self):
        geom = line_geometry(8)
        region = UncertaintyRegion(center=(0.7, 0.0), diameter=0.2)
        a = estimate_covariance(geom, region, GainModel(3.0), n_samples=256, rng_seed=9)
        b = estimate_covariance(geom, region, GainModel(3.0), n_samples=256, rng_seed=9)
        np.testing.assert_array_equal(a.r_h, b.r_h)
        np.testing.assert_array_equal(a.u, b.u)

    def test_rejects_bad_arguments(self):
        geom = line_geometry(4)
        region = UncertaintyRegion(center=(0.5, 0.0), diameter=0.1)
        with pytest.raises(ConfigurationError):
            estimate_covariance(geom, region, GainModel(0.0), n_samples=0)
        with pytest.raises(ConfigurationError):
            estimate_covariance(geom, region, GainModel(0.0), n_samples=10, rank_threshold=2.0)


class TestReduceSubspace:
    def test_rank_one_dominant_eigenvector(self):
        geom = line_geometry(8)
        region = UncertaintyRegion(center=(0.6, 0.0), diameter=0.0)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=16, rng_seed=0)
        u, d = reduce_subspace(cov, l_fixed=1)
        assert u.shape == (8, 1)
        assert np.linalg.norm(u[:, 0]) == pytest.approx(1.0, rel=1e-12)
        a = steering_vector(geom, np.array(region.center)).entries
        score = abs(np.vdot(u[:, 0], a)) / np.linalg.norm(a)
        assert score == pytest.approx(1.0, rel=1e-10)

    def test_full_basis_zero_residual(self):
        geom = line_geometry(6)
        region = UncertaintyRegion(center=(0.8, 0.1), diameter=0.3)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=600, rng_seed=4)
        u, d = reduce_subspace(cov, l_fixed=6)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)
        assert cov.captured_energy(6) == pytest.approx(1.0, rel=1e-12)
        assert cov.truncation_power(6) == pytest.approx(0.0, abs=1e-10)

    def test_truncation_reports_captured_energy(self):
        geom = line_geometry(16)
        region = UncertaintyRegion(center=(0.5, 0.0), diameter=0.3)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=2000, rng_seed=5)
        u, d = reduce_subspace(cov, l_fixed=4)
        assert u.shape == (16, 4)
        frac = cov.captured_energy(4)
        assert 0.0 < frac <= 1.0
        assert cov.truncation_power(4) == pytest.approx((1 - frac) * cov.trace, rel=1e-9)

    def test_rejects_oversized_subspace(self):
        geom = line_geometry(4)
        region = UncertaintyRegion(center=(0.5, 0.0), diameter=0.1)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=64, rng_seed=1)
        with pytest.raises(ConfigurationError):
            reduce_subspace(cov, l_fixed=5)

    def test_covariance_from_matrix_requires_hermitian(self):
        with pytest.raises(ConfigurationError):
            covariance_from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


class TestPaperScaleStatistics:
    def test_effective_rank_near_outputs_at_moderate_distance(self):
        from simloc.config import load_preset

        cfg = load_preset("paper-scale")
        sim, _ = build_sim_geometry(cfg.geometry)
        cov = estimate_covariance(
            sim, cfg.region.build(), cfg.gain,
            n_samples=8000, rng_seed=cfg.covariance.seed,
        )
        assert 5 <= cov.rank <= 8
        assert cov.captured_energy(6) >= 0.999

    def test_short_distance_exceeds_output_count(self):
        from simloc.config import load_preset
        from simloc.geometry import region_at

        cfg = load_preset("paper-scale")
        sim, _ = build_sim_geometry(cfg.geometry)
        cov = estimate_covariance(
            sim, region_at(2.0, 0.0, 0.6), cfg.gain, n_samples=8000, rng_seed=4
        )
        assert cov.rank > 6
        assert cov.captured_energy(6) < 0.9
