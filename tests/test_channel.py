import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.channel import (
    _COV_CHUNK,
    _canonical_eigh,
    covariance_from_matrix,
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
        a = steering_vector(geom, np.array([0.01, 0.0]))
        assert a[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_half_cycle_phase(self):
        geom = single_element_geometry(lam=0.01)
        a = steering_vector(geom, np.array([0.005, 0.0]))
        assert a[0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_elementwise_brute_force_oracle(self):
        geom = line_geometry(4)
        p = np.array([1.0, 0.0])
        a = steering_vector(geom, p)
        assert a.shape == (4,)
        for k in range(4):
            d = np.linalg.norm(np.array([p[0], p[1], 0.0]) - geom.positions[k])
            expected = np.exp(-2j * np.pi * d / geom.wavelength)
            assert a[k] == pytest.approx(expected, abs=1e-12)

    def test_unit_modulus(self):
        geom = line_geometry(16)
        pts = np.random.default_rng(0).uniform(0.1, 2.0, size=(20, 2))
        a = steering_matrix(geom, pts)
        np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-12)

    def test_coincident_point_is_defined(self):
        geom = single_element_geometry()
        a = steering_vector(geom, np.array([0.0, 0.0]))
        assert a[0] == pytest.approx(1.0 + 0.0j)

    def test_far_field_phase_affine_in_element_index(self):
        geom = line_geometry(16)
        r = 100.0 * fraunhofer_distance(geom)
        p = r * np.array([np.cos(0.3), np.sin(0.3)])
        a = steering_vector(geom, p)
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


class TestSteeringMatrix:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        log_range=st.floats(-2.0, 2.0),
    )
    def test_matches_complex_exponential(self, seed, n, log_range):
        # cos/sin of the real phase against the complex exponential; a
        # tolerance, not equality, so hosts whose SIMD sin/cos differ by an
        # ulp from their complex exp still pass
        sim, _ = build_sim_geometry(
            GeometryConfig(k_y=16, k_z=2, layers=1, carrier_frequency_hz=28e9)
        )
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, 2)) * 10.0**log_range
        d = element_distances(sim, points)
        expected = np.exp(-2j * np.pi * d / sim.wavelength)
        np.testing.assert_allclose(steering_matrix(sim, points), expected, rtol=0, atol=1e-15)


class TestCovariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 12),
        n_samples=st.integers(1, 9000),
        shadowing_db=st.floats(0.0, 6.0),
        log_threshold=st.floats(-12.0, -1.0),
    )
    def test_model_equals_inline_construction(
        self, seed, k, n_samples, shadowing_db, log_threshold
    ):
        # bit for bit the eigendecomposition, rank rule and model the
        # estimator once built itself, before it ended on covariance_from_matrix
        geom = line_geometry(k)
        region = UncertaintyRegion(center=(0.5, 0.1), diameter=0.3)
        gains = GainModel(shadowing_db)
        threshold = 10.0**log_threshold
        cov = estimate_covariance(
            geom, region, gains, n_samples=n_samples, rng_seed=seed, rank_threshold=threshold
        )

        points = region.sample(n_samples, np.random.default_rng(seed))
        acc = np.zeros((k, k), dtype=complex)
        for start in range(0, n_samples, _COV_CHUNK):
            a = steering_matrix(geom, points[start : start + _COV_CHUNK])
            acc += a @ a.conj().T
        r = gains.mean_square_gain * acc / n_samples
        r = 0.5 * (r + r.conj().T)
        vals, vecs = _canonical_eigh(r)
        rank = max(int(np.count_nonzero(vals > threshold * float(vals[0]))), 1)

        np.testing.assert_array_equal(cov.r_h, r)
        np.testing.assert_array_equal(cov.eigenvalues, vals)
        np.testing.assert_array_equal(cov.eigenvectors, vecs)
        assert cov.rank == rank
        np.testing.assert_array_equal(cov.u, vecs[:, :rank])
        np.testing.assert_array_equal(cov.d, vals[:rank])
        assert (cov.mc_samples, cov.rank_threshold) == (n_samples, threshold)

    def test_degenerate_region_rank_one(self):
        geom = line_geometry(8)
        region = UncertaintyRegion(center=(0.6, 0.0), diameter=0.0)
        cov = estimate_covariance(geom, region, GainModel(0.0), n_samples=64, rng_seed=0)
        a = steering_vector(geom, np.array(region.center))
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
        a1 = steering_vector(geom, p1)
        a2 = steering_vector(geom, p2)
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
        a = steering_vector(geom, np.array(region.center))
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
