import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simloc.localizer
from simloc.channel import steering_matrix, steering_vector
from simloc.config import load_preset
from simloc.errors import ConfigurationError, EstimationError
from simloc.geometry import (
    ArrayGeometry,
    GeometryConfig,
    UncertaintyRegion,
    build_sim_geometry,
    region_at,
)
from simloc.localizer import LocalizerConfig, localize


def correlation_scores(geometry, points, h):
    """Reference score |a(p)^H h|^2 / (K ||h||^2) of each candidate point."""
    a = steering_matrix(geometry, points)
    return np.abs(a.conj().T @ h) ** 2 / (len(h) * np.vdot(h, h).real)


def desk_geometry(k=16):
    cfg = GeometryConfig(k_y=k, k_z=1, layers=1, carrier_frequency_hz=28e9)
    sim, _ = build_sim_geometry(cfg)
    return sim


class TestLocalize:
    def test_noiseless_on_grid_recovery(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        cfg = LocalizerConfig(coarse_grid=33)
        xs = np.linspace(0.3, 0.5, 33)
        ys = np.linspace(-0.1, 0.1, 33)
        p_true = np.array([xs[20], ys[7]])  # exactly on the coarse grid
        h = 1.8 * np.exp(1j * 0.9) * steering_vector(geom, p_true)
        (p_hat,), (score,) = localize(h[None], geom, region, cfg)
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
        cfg = LocalizerConfig(coarse_grid=24)
        rng = np.random.default_rng(0)
        n_fine = 192
        xs = np.linspace(0.29, 0.41, n_fine)
        ys = np.linspace(-0.06, 0.06, n_fine)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        fine_pts = np.column_stack([xx.ravel(), yy.ravel()])
        for trial in range(50):
            p_true = region.sample(1, rng)[0]
            h = steering_vector(geom, p_true)
            if trial % 2 == 1:
                h = h + 0.1 * (
                    rng.standard_normal(16) + 1j * rng.standard_normal(16)
                ) / np.sqrt(2)
            scores = correlation_scores(geom, fine_pts, h)
            (p_hat,), (score_hat,) = localize(h[None], geom, region, cfg)
            assert score_hat >= scores.max() - 1e-6
            if trial % 2 == 0:
                assert np.linalg.norm(p_hat - p_true) <= 1e-3

    def test_score_invariant_to_complex_scaling(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        rng = np.random.default_rng(1)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        (p1,), (s1,) = localize(h[None], geom, region)
        (p2,), (s2,) = localize((2.3 - 1.1j) * h[None], geom, region)
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
            layer_spacing=geom.layer_spacing,
            wavelength=geom.wavelength,
            aperture=geom.aperture,
        )
        rot2 = rot[:2, :2]
        center = np.array([0.3, 0.0])
        region = UncertaintyRegion(center=tuple(center), diameter=0.15)
        region_rot = UncertaintyRegion(center=tuple(rot2 @ center), diameter=0.15)
        cfg = LocalizerConfig(coarse_grid=64)
        rng = np.random.default_rng(2)
        errs, errs_rot = [], []
        for _ in range(30):
            p_true = region.sample(1, rng)[0]
            noise = 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
            h = steering_vector(geom, p_true) + noise
            h_rot = steering_vector(geom_rot, rot2 @ p_true) + noise
            (p_hat,), _ = localize(h[None], geom, region, cfg)
            (p_hat_rot,), _ = localize(h_rot[None], geom_rot, region_rot, cfg)
            errs.append(np.linalg.norm(p_hat - p_true))
            errs_rot.append(np.linalg.norm(p_hat_rot - rot2 @ p_true))
        rmse = np.sqrt(np.mean(np.square(errs)))
        rmse_rot = np.sqrt(np.mean(np.square(errs_rot)))
        assert rmse_rot == pytest.approx(rmse, rel=0.05)

    def test_rejects_zero_estimate(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        with pytest.raises(EstimationError):
            localize(np.zeros((1, 16), dtype=complex), geom, region)
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
        h = steering_vector(geom, np.array([0.42, 0.03]))
        h[5] = bad
        with pytest.raises(EstimationError):
            localize(h[None], geom, region)
        batch = np.stack([steering_vector(geom, np.array([0.38, -0.02])), h])
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
        cfg = LocalizerConfig(coarse_grid=12)
        rng = np.random.default_rng(seed)
        batch = np.stack(
            [
                rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                * steering_vector(geom, p)
                + noise * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
                for p in region.sample(n, rng)
            ]
        )
        p_hats, scores = localize(batch, geom, region, cfg)
        assert p_hats.shape == (n, 2) and scores.shape == (n,)
        for r in range(n):
            p_hat, score = localize(batch[r : r + 1], geom, region, cfg)
            np.testing.assert_array_equal(p_hats[r : r + 1], p_hat)
            np.testing.assert_array_equal(scores[r : r + 1], score)

    def test_rejects_a_single_unbatched_estimate(self):
        # the batch (n, K) is the only form; one estimate is a batch of one
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.2)
        h = steering_vector(geom, np.array([0.42, 0.03]))
        with pytest.raises(EstimationError, match="batch"):
            localize(h, geom, region)

    def test_rejects_degenerate_region(self):
        geom = desk_geometry()
        region = UncertaintyRegion(center=(0.4, 0.0), diameter=0.0)
        with pytest.raises(ConfigurationError):
            localize(np.ones((1, 16), dtype=complex), geom, region)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LocalizerConfig(coarse_grid=1)

    def test_scores_bounded_by_cauchy_schwarz(self):
        geom = desk_geometry()
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.2, 0.8, size=(50, 2))
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = correlation_scores(geom, pts, h)
        assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)


def grid_refinement(h, geometry, region, coarse_grid=64, iters=6, shrink=0.5):
    """The six-stage halving grid search the Newton polish replaced: a
    coarse grid over the prior box, then grids of the same size around the
    running best point, each half as wide as the last."""
    x_lo, x_hi, y_lo, y_hi = region.bounding_box()
    center = ((x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0)
    half = ((x_hi - x_lo) / 2.0, (y_hi - y_lo) / 2.0)
    best_p, best_score = np.array(center), -1.0
    for stage in range(iters + 1):
        if stage:
            center = (float(best_p[0]), float(best_p[1]))
            half = (half[0] * shrink, half[1] * shrink)
        xs = np.linspace(center[0] - half[0], center[0] + half[0], coarse_grid)
        ys = np.linspace(center[1] - half[1], center[1] + half[1], coarse_grid)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        scores = correlation_scores(geometry, pts, h)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_p, best_score = pts[i], float(scores[i])
    return best_p, best_score


def desk_preset_geometry():
    sim, _ = build_sim_geometry(load_preset("desk-scale").geometry)
    return sim


class TestNewtonPolish:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        x=st.floats(0.05, 0.7),
        y=st.floats(-0.5, 0.5),
        noise=st.floats(0.0, 2.0),
    )
    def test_derivatives_match_central_differences(self, seed, x, y, noise):
        # central differences with step 1e-6 m err by about (kappa step)^2
        # ~ 3e-7 relative; the bound is 1e-5 of the natural scales kappa
        # (gradient) and kappa^2 (Hessian), since f lies in [0, 1]
        geom = desk_preset_geometry()
        kappa = 2.0 * np.pi / geom.wavelength
        rng = np.random.default_rng(seed)
        k = geom.elements_per_layer
        source = rng.uniform([0.1, -0.3], [0.6, 0.3])
        h = steering_vector(geom, source) + noise * (
            rng.standard_normal(k) + 1j * rng.standard_normal(k)
        )
        rows, power = h[None], np.array([np.vdot(h, h).real])
        p = np.array([[x, y]])
        f, grad, hess = simloc.localizer._score_derivatives(geom, rows, power, p)
        assert f[0] == pytest.approx(correlation_scores(geom, p, h)[0], abs=1e-12)
        step = 1e-6
        grad_fd, hess_fd = np.empty(2), np.empty((2, 2))
        for j in range(2):
            e = np.zeros((1, 2))
            e[0, j] = step
            f_hi, g_hi, _ = simloc.localizer._score_derivatives(geom, rows, power, p + e)
            f_lo, g_lo, _ = simloc.localizer._score_derivatives(geom, rows, power, p - e)
            grad_fd[j] = (f_hi[0] - f_lo[0]) / (2 * step)
            hess_fd[:, j] = (g_hi[0] - g_lo[0]) / (2 * step)
        assert np.linalg.norm(grad[0] - grad_fd) <= 1e-5 * kappa
        assert np.linalg.norm(hess[0] - hess_fd) <= 1e-5 * kappa**2
        np.testing.assert_array_equal(hess[0], hess[0].T)

    def test_scores_at_least_grid_refinement_on_desk_sweep_cell(self, monkeypatch):
        # the desk-sweep cell (d = 0.3 m, b = pi/6) at its own mse_exact / K
        # noise levels, 100 draws each: the polish must reach at least the
        # score of the search it replaced, and no row may stop on the cap
        iterations = []
        polish = simloc.localizer._polish

        def recording(*args):
            out = polish(*args)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(simloc.localizer, "_polish", recording)
        geom = desk_preset_geometry()
        region = region_at(0.3, np.pi / 6, 0.2)
        a = steering_vector(geom, np.array(region.center))
        k = geom.elements_per_layer
        rng = np.random.default_rng(11)
        for sigma_n2 in (0.046, 0.17, 0.31, 0.41):
            batch = np.stack(
                [
                    np.exp(2j * np.pi * rng.random()) * a
                    + np.sqrt(sigma_n2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
                    for _ in range(100)
                ]
            )
            _, scores = localize(batch, geom, region)
            reference = np.array([grid_refinement(h, geom, region)[1] for h in batch])
            assert np.all(scores >= reference - 1e-12)
        assert max(int(it.max()) for it in iterations) < simloc.localizer._MAX_NEWTON_ITERS

    def test_estimate_steered_at_an_element_is_finite(self):
        # at the desk 0.2 m, bearing-0 cell the search square reaches the
        # array plane x = 0, where d_k = 0 makes g_k = 0 / 0
        geom = desk_preset_geometry()
        region = region_at(0.2, 0.0, 0.2)
        x_lo = region.bounding_box()[0]
        assert region.center[0] - 2.0 * (region.center[0] - x_lo) <= 0.0
        elements = geom.first_layer_positions[:, :2]
        batch = steering_matrix(geom, elements).T
        p_hats, scores = localize(batch, geom, region)
        assert np.all(np.isfinite(p_hats)) and np.all(np.isfinite(scores))

        polish = simloc.localizer._polish
        power = np.full(len(batch), float(geom.elements_per_layer))
        # a start on an element has no finite derivatives: it stays put
        p, f, iterations = polish(geom, batch, power, elements, -0.2, 0.2, 3e-3)
        np.testing.assert_array_equal(p, elements)
        assert np.all(np.isfinite(f)) and np.all(iterations == 0)
        # each ascent climbs toward its element, which sits on the corner of
        # its search box, so overshooting steps are clipped onto it; such a
        # trial has non-finite derivatives and must be rejected. From 3 cm
        # some rows reach the array line beyond the last element, where
        # half-wavelength spacing makes the score exactly flat: a step that
        # does not raise it is rejected, so the row stops before the cap.
        for k, element in enumerate(elements):
            rows = batch[k : k + 1]
            for offset in (0.002, 0.03):
                start = element[None] + offset
                f0 = simloc.localizer._score_derivatives(geom, rows, power[:1], start)[0]
                p, f, iterations = polish(
                    geom, rows, power[:1], start, element, element + 0.2, 3e-3
                )
                _, grad, hess = simloc.localizer._score_derivatives(geom, rows, power[:1], p)
                assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
                assert f[0] >= f0[0]
                assert iterations[0] < simloc.localizer._MAX_NEWTON_ITERS
