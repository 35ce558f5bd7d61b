import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.channel import steering_vector
from simloc.errors import ConfigurationError, EstimationError
from simloc.geometry import ArrayGeometry, GeometryConfig, UncertaintyRegion, build_sim_geometry
from simloc.localizer import LocalizerConfig, correlation_scores, localize


def desk_geometry(k=16):
    cfg = GeometryConfig(k_y=k, k_z=1, layers=1, carrier_frequency_hz=28e9)
    sim, _ = build_sim_geometry(cfg)
    return sim


class TestLocalize:
    def test_noiseless_on_grid_recovery(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        cfg = LocalizerConfig(coarse_grid=33, refine_iters=0)
        xs = np.linspace(0.3, 0.5, 33)
        ys = np.linspace(-0.1, 0.1, 33)
        p_true = np.array([xs[20], ys[7]])  # exactly on the coarse grid
        h = 1.8 * np.exp(1j * 0.9) * steering_vector(geom, p_true).entries
        p_hat, score = localize(h, geom, region, cfg)
        np.testing.assert_allclose(p_hat, p_true, atol=1e-12)
        assert score == pytest.approx(1.0, rel=1e-12)

    def test_refinement_matches_exhaustive_fine_grid(self):
        # the refined point must score at least as well as an exhaustive
        # fine-grid search on every draw; on noiseless draws (exact global
        # maximum at the truth) it must also land on the truth. Positions of
        # noisy maxima are not comparable point-to-point because the score
        # surface carries near-tied range ridges.
        geom = desk_geometry(k=16)
        region = UncertaintyRegion(center=(0.35, 0.0), diameter=0.12)
        cfg = LocalizerConfig(coarse_grid=24, refine_iters=6, refine_shrink=0.5)
        rng = np.random.default_rng(0)
        n_fine = 192
        xs = np.linspace(0.29, 0.41, n_fine)
        ys = np.linspace(-0.06, 0.06, n_fine)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        fine_pts = np.column_stack([xx.ravel(), yy.ravel()])
        for trial in range(50):
            p_true = region.sample(1, rng)[0]
            h = steering_vector(geom, p_true).entries
            if trial % 2 == 1:
                h = h + 0.1 * (
                    rng.standard_normal(16) + 1j * rng.standard_normal(16)
                ) / np.sqrt(2)
            scores = correlation_scores(geom, fine_pts, h)
            p_hat, score_hat = localize(h, geom, region, cfg)
            assert score_hat >= scores.max() - 1e-6
            if trial % 2 == 0:
                assert np.linalg.norm(p_hat - p_true) <= 1e-3

    def test_score_invariant_to_complex_scaling(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        rng = np.random.default_rng(1)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        p1, s1 = localize(h, geom, region)
        p2, s2 = localize((2.3 - 1.1j) * h, geom, region)
        np.testing.assert_allclose(p1, p2, atol=1e-15)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_error_distribution_rotation_covariant(self):
        # rotating array, region, and truth together leaves errors unchanged
        geom = desk_geometry(k=16)
        phi = 0.37
        rot = np.array(
            [
                [np.cos(phi), -np.sin(phi), 0.0],
                [np.sin(phi), np.cos(phi), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        geom_rot = ArrayGeometry(
            positions=geom.positions @ rot.T,
            layers=geom.layers,
            elements_per_layer=geom.elements_per_layer,
            spacing=geom.spacing,
            layer_spacing=geom.layer_spacing,
            wavelength=geom.wavelength,
            aperture=geom.aperture,
        )
        rot2 = rot[:2, :2]
        center = np.array([0.3, 0.0])
        region = UncertaintyRegion(center=tuple(center), diameter=0.15)
        region_rot = UncertaintyRegion(center=tuple(rot2 @ center), diameter=0.15)
        cfg = LocalizerConfig(coarse_grid=64, refine_iters=6)
        rng = np.random.default_rng(2)
        errs, errs_rot = [], []
        for _ in range(30):
            p_true = region.sample(1, rng)[0]
            noise = 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
            h = steering_vector(geom, p_true).entries + noise
            h_rot = steering_vector(geom_rot, rot2 @ p_true).entries + noise
            p_hat, _ = localize(h, geom, region, cfg)
            p_hat_rot, _ = localize(h_rot, geom_rot, region_rot, cfg)
            errs.append(np.linalg.norm(p_hat - p_true))
            errs_rot.append(np.linalg.norm(p_hat_rot - rot2 @ p_true))
        rmse = np.sqrt(np.mean(np.square(errs)))
        rmse_rot = np.sqrt(np.mean(np.square(errs_rot)))
        assert rmse_rot == pytest.approx(rmse, rel=0.05)

    def test_rejects_zero_estimate(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        with pytest.raises(EstimationError):
            localize(np.zeros(16, dtype=complex), geom, region)
        batch = np.ones((3, 16), dtype=complex)
        batch[1] = 0.0
        with pytest.raises(EstimationError):
            localize(batch, geom, region)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_estimate(self, bad):
        # a NaN score never beats the initial best, so without the check the
        # search would return the region centre with score -1
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        h = steering_vector(geom, np.array([0.42, 0.03])).entries
        h[5] = bad
        with pytest.raises(EstimationError):
            localize(h, geom, region)
        batch = np.stack([steering_vector(geom, np.array([0.38, -0.02])).entries, h])
        with pytest.raises(EstimationError):
            localize(batch, geom, region)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        noise=st.floats(0.0, 1.0),
    )
    def test_batch_rows_equal_single_estimates(self, seed, n, noise):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.35, 0.05), diameter=0.15)
        cfg = LocalizerConfig(coarse_grid=12, refine_iters=3, refine_shrink=0.4)
        rng = np.random.default_rng(seed)
        batch = np.stack(
            [
                rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                * steering_vector(geom, p).entries
                + noise * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
                for p in region.sample(n, rng)
            ]
        )
        p_hats, scores = localize(batch, geom, region, cfg)
        assert p_hats.shape == (n, 2) and scores.shape == (n,)
        for r in range(n):
            p_hat, score = localize(batch[r], geom, region, cfg)
            assert isinstance(p_hat, np.ndarray) and p_hat.shape == (2,)
            assert type(score) is float
            np.testing.assert_array_equal(p_hats[r], p_hat)
            assert scores[r] == score

    def test_rejects_degenerate_region(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.0)
        with pytest.raises(ConfigurationError):
            localize(np.ones(16, dtype=complex), geom, region)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LocalizerConfig(coarse_grid=1)
        with pytest.raises(ConfigurationError):
            LocalizerConfig(refine_shrink=1.5)

    def test_scores_bounded_by_cauchy_schwarz(self):
        geom = desk_geometry()
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.2, 0.8, size=(50, 2))
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = correlation_scores(geom, pts, h)
        assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)
