import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.errors import ConfigurationError
from simloc.geometry import (
    GainModel,
    GeometryConfig,
    UncertaintyRegion,
    build_sim_geometry,
    fraunhofer_distance,
    pairwise_distances,
    region_at,
)


def brute_force_aperture(points):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, float(np.linalg.norm(points[i] - points[j])))
    return best


class TestPairwiseDistances:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 40),
        n_b=st.integers(1, 40),
        log_scale=st.floats(-4.0, 3.0),
    )
    def test_equals_broadcast_formula(self, seed, n_a, n_b, log_scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n_a, 3)) * 10.0**log_scale
        b = rng.standard_normal((n_b, 3)) * 10.0**log_scale + rng.standard_normal(3)
        diff = a[:, None, :] - b[None, :, :]
        expected = np.sqrt((diff**2).sum(axis=2))
        np.testing.assert_array_equal(pairwise_distances(a, b), expected)


class TestBuildGeometry:
    def test_paper_scale_element_count(self):
        cfg = GeometryConfig(k_y=64, k_z=4, layers=7, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        assert sim.total_elements == 1792

    def test_degenerate_single_element(self):
        cfg = GeometryConfig(k_y=1, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        assert sim.total_elements == 1
        np.testing.assert_allclose(sim.positions, [[0.0, 0.0, 0.0]])
        assert sim.aperture == 0.0

    def test_aperture_matches_brute_force_line(self):
        cfg = GeometryConfig(k_y=4, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        lam = sim.wavelength
        assert sim.aperture == pytest.approx(3 * lam / 2, rel=1e-12)
        assert sim.aperture == pytest.approx(
            brute_force_aperture(sim.first_layer_positions), rel=1e-12
        )

    def test_aperture_matches_brute_force_upa(self):
        cfg = GeometryConfig(k_y=6, k_z=3, layers=2, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        assert sim.aperture == pytest.approx(
            brute_force_aperture(sim.first_layer_positions), rel=1e-12
        )

    def test_first_layer_centered_and_layers_offset(self):
        cfg = GeometryConfig(k_y=8, k_z=2, layers=3, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        first = sim.first_layer_positions
        np.testing.assert_allclose(first[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(first.mean(axis=0), 0.0, atol=1e-12)
        k = sim.elements_per_layer
        for q in range(1, 3):
            layer = sim.positions[q * k : (q + 1) * k]
            np.testing.assert_allclose(layer[:, 0], q * sim.layer_spacing, rtol=1e-12)
            np.testing.assert_allclose(layer[:, 1:], first[:, 1:], atol=1e-15)

    def test_receiver_one_wavelength_past_last_layer(self):
        cfg = GeometryConfig(
            k_y=8, k_z=1, layers=3, carrier_frequency_hz=28e9, receiver_elements=4
        )
        sim, rx = build_sim_geometry(cfg)
        expected_x = 2 * sim.layer_spacing + sim.wavelength
        np.testing.assert_allclose(rx.positions[:, 0], expected_x, rtol=1e-12)
        assert rx.total_elements == 4

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigurationError):
            build_sim_geometry(GeometryConfig(k_y=0, k_z=1, layers=1, carrier_frequency_hz=28e9))
        with pytest.raises(ConfigurationError):
            build_sim_geometry(GeometryConfig(k_y=1, k_z=1, layers=1, carrier_frequency_hz=-1.0))
        with pytest.raises(ConfigurationError):
            build_sim_geometry(
                GeometryConfig(k_y=1, k_z=1, layers=1, carrier_frequency_hz=28e9, element_spacing_m=0.0)
            )


class TestFraunhofer:
    def test_identity_at_d_equal_lambda(self):
        cfg = GeometryConfig(k_y=2, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        lam = sim.wavelength
        geom = sim.__class__(
            positions=np.array([[0.0, 0.0, 0.0], [0.0, lam, 0.0]]),
            layers=1,
            elements_per_layer=2,
            layer_spacing=0.0,
            wavelength=lam,
            aperture=lam,
        )
        assert fraunhofer_distance(geom) == pytest.approx(2 * lam, rel=1e-12)

    def test_direct_formula_d016(self):
        # frozen from 2 * 0.16^2 / 0.01071
        geom_args = dict(
            positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.16, 0.0]]),
            layers=1,
            elements_per_layer=2,
            layer_spacing=0.0,
            wavelength=0.01071,
            aperture=0.16,
        )
        from simloc.geometry import ArrayGeometry

        assert fraunhofer_distance(ArrayGeometry(**geom_args)) == pytest.approx(
            4.780578898225957, rel=1e-12
        )

    def test_quadratic_in_aperture(self):
        from simloc.geometry import ArrayGeometry

        def geom(d):
            return ArrayGeometry(
                positions=np.array([[0.0, 0.0, 0.0], [0.0, d, 0.0]]),
                layers=1,
                elements_per_layer=2,
                layer_spacing=0.0,
                wavelength=0.01,
                aperture=d,
            )

        assert fraunhofer_distance(geom(0.2)) == pytest.approx(
            4 * fraunhofer_distance(geom(0.1)), rel=1e-12
        )

    def test_paper_preset_window(self):
        # paper-calibrated spacing reproduces the stated 0.32 m aperture
        spacing = 0.32 / float(np.hypot(63.0, 3.0))
        cfg = GeometryConfig(
            k_y=64, k_z=4, layers=7, carrier_frequency_hz=28e9, element_spacing_m=spacing
        )
        sim, _ = build_sim_geometry(cfg)
        assert sim.aperture == pytest.approx(0.32, rel=1e-12)
        assert 18.5 <= fraunhofer_distance(sim) <= 20.5

    def test_near_field_predicate_over_paper_distances(self):
        spacing = 0.32 / float(np.hypot(63.0, 3.0))
        cfg = GeometryConfig(
            k_y=64, k_z=4, layers=7, carrier_frequency_hz=28e9, element_spacing_m=spacing
        )
        sim, _ = build_sim_geometry(cfg)
        for dist in [2.0, 5.0, 10.0, 15.0, 18.0]:
            for bearing in [0.0, np.pi / 6, np.pi / 3]:
                p = dist * np.array([np.cos(bearing), np.sin(bearing)])
                assert np.linalg.norm(p) < fraunhofer_distance(sim)


class TestRegion:
    def test_samples_inside_disk(self):
        region = UncertaintyRegion(center=(5.0, 0.0), diameter=0.6)
        pts = region.sample(10_000, np.random.default_rng(1))
        dist = np.linalg.norm(pts - np.array([5.0, 0.0]), axis=1)
        assert dist.max() <= 0.3 + 1e-12

    def test_degenerate_disk_collapses_to_center(self):
        region = UncertaintyRegion(center=(2.0, 1.0), diameter=0.0)
        pts = region.sample(50, np.random.default_rng(3))
        np.testing.assert_allclose(pts, np.tile([2.0, 1.0], (50, 1)), atol=1e-15)

    def test_seed_determinism(self):
        region = UncertaintyRegion(center=(3.0, -1.0), diameter=0.4)
        a = region.sample(1000, np.random.default_rng(7))
        b = region.sample(1000, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        c = region.sample(1000, np.random.default_rng(8))
        assert not np.array_equal(a, c)

    def test_empirical_moments_match_uniform_disk(self):
        # mean -> center within 3 sigma; per-axis variance R^2 / 4
        region = UncertaintyRegion(center=(4.0, 2.0), diameter=1.0)
        n = 100_000
        pts = region.sample(n, np.random.default_rng(11))
        r = region.radius
        sigma_mean = np.sqrt(r**2 / 4 / n)
        assert abs(pts[:, 0].mean() - 4.0) < 3 * sigma_mean
        assert abs(pts[:, 1].mean() - 2.0) < 3 * sigma_mean
        assert np.var(pts[:, 0]) == pytest.approx(r**2 / 4, rel=0.05)
        assert np.var(pts[:, 1]) == pytest.approx(r**2 / 4, rel=0.05)

    def test_region_at_places_center_on_bearing(self):
        region = region_at(2.0, np.pi / 6, 0.5)
        np.testing.assert_allclose(
            region.center, (2.0 * np.cos(np.pi / 6), 2.0 * np.sin(np.pi / 6)), rtol=1e-12
        )

    def test_rejects_center_behind_array(self):
        with pytest.raises(ConfigurationError):
            UncertaintyRegion(center=(-1.0, 0.0), diameter=0.5)


def draw_gains(gm, n, rng):
    """n amplitudes of the log-normal law: 20 log10(G / mean_gain) is
    N(0, shadowing_std_db^2)."""
    x_db = rng.normal(0.0, gm.shadowing_std_db, size=n)
    return gm.mean_gain * 10.0 ** (x_db / 20.0)


class TestGainModel:
    def test_mean_square_gain_closed_form_vs_monte_carlo(self):
        gm = GainModel(shadowing_std_db=3.0)
        rng = np.random.default_rng(5)
        g = draw_gains(gm, 200_000, rng)
        emp = np.mean(g**2)
        assert emp == pytest.approx(gm.mean_square_gain, rel=0.02)

    def test_zero_shadowing_is_deterministic(self):
        gm = GainModel(shadowing_std_db=0.0, mean_gain=2.5)
        rng = np.random.default_rng(0)
        g = draw_gains(gm, 100, rng)
        np.testing.assert_allclose(g, 2.5, rtol=1e-15)
        assert gm.mean_square_gain == pytest.approx(6.25, rel=1e-12)

    def test_shadowing_std_in_db(self):
        gm = GainModel(shadowing_std_db=3.0)
        rng = np.random.default_rng(9)
        g = draw_gains(gm, 100_000, rng)
        db = 20 * np.log10(g)
        assert np.std(db) == pytest.approx(3.0, rel=0.02)
