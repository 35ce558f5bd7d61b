"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).

The slow shared ingredient, a desk-scale sweep with per-cell surface
optimization, is computed once per session and reused by the criteria that
inspect sweep cells.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from simloc.bounds import fim_peb, mismatch_metrics, mse_ratio_check, reduced_gram
from simloc.channel import (
    covariance_from_matrix,
    estimate_covariance,
    reduce_subspace,
    steering_vector,
)
from simloc.config import load_preset
from simloc.estimation import (
    LinearEstimator,
    mmse_full,
    mmse_reduced,
    monte_carlo_mse,
    rsls_ideal,
)
from simloc.geometry import build_sim_geometry, fraunhofer_distance
from simloc.localizer import LocalizerConfig, localize
from simloc.multiport import build_sim_network
from simloc.simopt import finite_difference_gradient, gradient, optimize
from simloc.sweep import run_sweep

MSE_RATIO_AT_TARGET = 1.0 / (1.0 - (2 * 0.1 + 0.1**2))  # degradation factor at 0.1

pytestmark = pytest.mark.acceptance


def _ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="session")
def desk_cfg():
    return load_preset("desk-scale")


@pytest.fixture(scope="session")
def desk_sweep(desk_cfg):
    """Desk-scale sweep with per-cell surface optimization (criteria 7, 9)."""
    cfg = replace(desk_cfg, sweep=replace(desk_cfg.sweep, trials=1000))
    records = run_sweep(cfg, with_localizer=False)
    by_cell = {}
    for rec in records:
        by_cell.setdefault(rec.scenario_id, {})[
            (rec.tag, rec.metric, None if np.isnan(rec.snr_db) else rec.snr_db)
        ] = rec.value
    return records, by_cell, cfg


class TestCriterion1Geometry:
    def test_paper_scalars(self):
        t0 = time.time()
        cfg = load_preset("paper-scale")
        sim, _ = build_sim_geometry(cfg.geometry)
        fraunhofer = fraunhofer_distance(sim)
        elapsed = time.time() - t0
        assert sim.total_elements == 1792
        assert 18.5 <= fraunhofer <= 20.5
        assert elapsed < 1.0
        _ok("1 (geometry scalars)",
            f"1792 cells, Fraunhofer {fraunhofer:.2f} m in [18.5, 20.5], {elapsed:.2f} s")


class TestCriterion2FormEquivalence:
    def test_mmse_forms_agree(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(8, 65))
            rank = int(rng.integers(2, max(3, k // 2)))
            q, _ = np.linalg.qr(
                rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
            )
            d = np.sort(rng.random(rank) * 5 + 0.05)[::-1]
            cov = covariance_from_matrix(q @ np.diag(d) @ q.conj().T, rank_threshold=1e-9)
            sigma_z2 = float(rng.random() + 0.05)
            r = rng.standard_normal(k) + 1j * rng.standard_normal(k)

            closed = mmse_full(cov, sigma_z2)[0] @ r
            # spectral form over the full eigenbasis
            vals, vecs = cov.eigenvalues, cov.eigenvectors
            spectral = vecs @ ((vals / (vals + sigma_z2))[:, None] * (vecs.conj().T @ r[:, None]))
            spectral = spectral[:, 0]
            reduced = mmse_reduced(cov, sigma_z2)[0] @ (cov.u.conj().T @ r)

            scale = np.linalg.norm(closed)
            worst = max(worst, np.linalg.norm(closed - spectral) / scale)
            worst = max(worst, np.linalg.norm(closed - reduced) / scale)
        assert worst <= 1e-10
        _ok("2 (estimator form equivalence)",
            f"closed/spectral/reduced forms agree, worst relative gap {worst:.2e}")


class TestCriterion3RslsMse:
    def test_empirical_matches_sigma_l(self):
        rng = np.random.default_rng(7)
        k, rank = 24, 6
        q, _ = np.linalg.qr(rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))
        d = np.sort(rng.random(rank) * 4 + 0.5)[::-1]
        cov = covariance_from_matrix(q @ np.diag(d) @ q.conj().T, rank_threshold=1e-9)
        sigma_z2 = 0.37
        w, analytic = rsls_ideal(cov.u, sigma_z2)
        est = LinearEstimator(w, cov.u.conj().T, cov, sigma_z2, analytic)
        mse, stderr = monte_carlo_mse(est, trials=10_000, rng_seed=123)
        expected = sigma_z2 * rank
        assert abs(mse - expected) <= 0.03 * expected
        _ok("3 (RS-LS ideal MSE)",
            f"empirical {mse:.4f} vs sigma^2*L {expected:.4f} "
            f"({100 * abs(mse - expected) / expected:.2f}% off, 10^4 trials)")


class TestCriterion4PerturbationBounds:
    def test_eigenvalue_box_and_mse_ratio(self):
        rng = np.random.default_rng(11)
        k, l = 20, 5
        q, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
        box_ok = ratio_ok = 0
        for _ in range(1000):
            du_target = rng.uniform(0.0, 0.3)
            delta = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
            delta *= du_target / max(np.linalg.norm(delta @ q, 2), 1e-300)
            v = q.conj().T + delta
            m = mismatch_metrics(v, q)
            eig = np.linalg.eigvalsh(reduced_gram(v, q))
            assert eig.min() >= m.eig_box[0] - 1e-9
            assert eig.max() <= m.eig_box[1] + 1e-9
            box_ok += 1
            # energy-preserving version for the MSE ratio bound
            gram = v @ v.conj().T
            vals, vecs = np.linalg.eigh(gram)
            v_orth = (vecs * (vals**-0.5)[None, :]) @ vecs.conj().T @ v
            check = mse_ratio_check(v_orth, q)
            assert check.applicable
            assert check.holds
            ratio_ok += 1
        assert box_ok == 1000 and ratio_ok == 1000
        _ok("4 (perturbation bounds)",
            "eigenvalue box and MSE ratio bound held on 1000/1000 draws")


class TestCriterion5Gradient:
    def test_analytic_gradient_every_coordinate(self, desk_cfg):
        sim, rx = build_sim_geometry(desk_cfg.geometry)
        cov = estimate_covariance(
            sim, desk_cfg.region.build(), desk_cfg.gain,
            n_samples=2000, rng_seed=desk_cfg.covariance.seed,
        )
        u, _ = reduce_subspace(cov, l_fixed=desk_cfg.outputs)
        target = u.conj().T
        net = build_sim_network(sim, rx, desk_cfg.impedance)
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(10):
            net.set_eta(rng.uniform(-3.0, 3.0, net.n_cells))
            g = gradient(net, target)
            fd = finite_difference_gradient(net, target, range(net.n_cells), step=1e-5)
            # the FD oracle itself carries roundoff noise ~ eps*E/(2*step);
            # coordinates below 1e-4 of the gradient scale are checked
            # absolutely against that floor
            ref = np.maximum(np.abs(fd), 1e-4 * np.abs(g).max())
            worst = max(worst, float((np.abs(g - fd) / ref).max()))
        assert worst <= 1e-5
        _ok("5 (gradient correctness)",
            f"10 random configurations, all {net.n_cells} coordinates, "
            f"worst relative FD gap {worst:.2e}")


class TestCriterion6OptimizationTarget:
    def test_three_of_five_seeds_converge(self, desk_cfg):
        sim, rx = build_sim_geometry(desk_cfg.geometry)
        cov = estimate_covariance(
            sim, desk_cfg.region.build(), desk_cfg.gain,
            n_samples=desk_cfg.covariance.samples, rng_seed=desk_cfg.covariance.seed,
        )
        u, _ = reduce_subspace(cov, l_fixed=desk_cfg.outputs)
        results = []
        t0 = time.time()
        for seed in range(5):
            net = build_sim_network(sim, rx, desk_cfg.impedance)
            trace = optimize(net, u.conj().T, replace(desk_cfg.optimizer, rng_seed=seed))
            results.append((trace.converged, trace.delta_u[-1]))
        elapsed = time.time() - t0
        converged = sum(1 for ok, _ in results if ok)
        assert converged >= 3
        assert elapsed < 15 * 60
        _ok("6 (optimization target)",
            f"{converged}/5 random initializations reached delta_U <= 0.1 "
            f"(values: {', '.join(f'{d:.3f}' for _, d in results)}; {elapsed:.0f} s)")


class TestCriterion7NearIndistinguishability:
    def test_sim_within_ratio_factor_at_every_cell(self, desk_sweep):
        records, by_cell, cfg = desk_sweep
        snrs = cfg.sweep.snr_db if cfg.sweep.snr_db is not None else cfg.snr_db
        checked = 0
        worst = 0.0
        for cell, vals in by_cell.items():
            if vals.get(("sim", "delta_u", None), np.inf) > 0.1:
                continue
            for snr in snrs:
                for pair in (("mmse-sim", "mmse-ideal"), ("rsls-sim", "rsls-ideal")):
                    sim_mse = vals[(pair[0], "mse_analytic", snr)]
                    ideal_mse = vals[(pair[1], "mse_analytic", snr)]
                    ratio = sim_mse / ideal_mse
                    worst = max(worst, ratio)
                    assert ratio <= MSE_RATIO_AT_TARGET + 1e-9, (cell, pair, snr, ratio)
                    checked += 1
        assert checked > 0
        _ok("7 (near-indistinguishability)",
            f"{checked} (cell, SNR, estimator) combinations, worst analytic "
            f"MSE ratio {worst:.4f} <= {MSE_RATIO_AT_TARGET:.4f}")


class TestCriterion8FimPeb:
    def test_jacobian_scaling_and_theta_entry(self, desk_cfg):
        sim, _ = build_sim_geometry(desk_cfg.geometry)
        eps = np.array([0.35, 0.1, 1.3, 0.7])
        from simloc.bounds import channel_jacobian

        jac = channel_jacobian(sim, eps)

        def channel(e):
            x, y, g, th = e
            pos = sim.first_layer_positions
            d = np.linalg.norm(np.array([x, y, 0.0])[None, :] - pos, axis=1)
            return g * np.exp(1j * th) * np.exp(-2j * np.pi * d / sim.wavelength)

        steps = [1e-6, 1e-6, 1e-8, 1e-8]
        worst = 0.0
        for col, step in enumerate(steps):
            ep, em = eps.copy(), eps.copy()
            ep[col] += step
            em[col] -= step
            fd = (channel(ep) - channel(em)) / (2 * step)
            worst = max(
                worst, float(np.abs(fd - jac[:, col]).max() / np.abs(jac[:, col]).max())
            )
        assert worst <= 1e-6

        k = sim.elements_per_layer
        g = float(eps[2])
        sigma_n2 = 0.21
        rep = fim_peb(sim, eps, sigma_n2)
        assert rep.fim[3, 3] == pytest.approx(k * g**2 / sigma_n2, rel=1e-12)

        rep2 = fim_peb(sim, eps, 4.0 * sigma_n2)
        assert rep2.peb / rep.peb == pytest.approx(2.0, rel=1e-8)
        _ok("8 (FIM/PEB correctness)",
            f"Jacobian FD gap {worst:.2e}, theta-theta entry exact, "
            f"PEB linear in sigma_n to {abs(rep2.peb / rep.peb - 2):.2e}")


class TestCriterion9Ordering:
    def test_mmse_dominates_and_baseline_crossover(self, desk_sweep):
        records, by_cell, cfg = desk_sweep
        snrs = cfg.sweep.snr_db if cfg.sweep.snr_db is not None else cfg.snr_db
        distances = sorted(cfg.sweep.distances_m)
        shortest, longest = distances[0], distances[-1]

        for cell, vals in by_cell.items():
            for snr in snrs:
                assert (
                    vals[("mmse-ideal", "mse_analytic", snr)]
                    <= vals[("rsls-ideal", "mse_analytic", snr)] + 1e-9
                ), (cell, snr)
                if ("mmse-sim", "mse_analytic", snr) in vals:
                    assert (
                        vals[("mmse-sim", "mse_analytic", snr)]
                        <= vals[("rsls-sim", "mse_analytic", snr)] + 1e-9
                    ), (cell, snr)

        # baseline advantage: large where the effective rank exceeds the
        # output count (short range), negligible at the far cells
        short_adv, long_adv = [], []
        for rec_distance, bucket in ((shortest, short_adv), (longest, long_adv)):
            for bearing in cfg.sweep.bearings_rad:
                cell = f"d{rec_distance:g}_b{bearing:g}"
                vals = by_cell[cell]
                for snr in snrs:
                    reduced = vals[("mmse-ideal", "mse_analytic", snr)]
                    baseline = vals[("digital-baseline", "mse_analytic", snr)]
                    assert baseline <= reduced + 1e-9  # never worse analytically
                    bucket.append((reduced - baseline) / reduced)
        rank_short = by_cell[f"d{shortest:g}_b0"][("covariance", "effective_rank", None)]
        assert rank_short > cfg.outputs
        assert min(short_adv) > 0.05
        assert max(long_adv) < 0.05
        assert min(short_adv) > max(long_adv)
        _ok("9 (ordering properties)",
            f"MMSE <= RS-LS at every cell; baseline advantage "
            f"{min(short_adv):.1%}..{max(short_adv):.1%} at {shortest} m (rank "
            f"{rank_short:.0f} > L={cfg.outputs}) vs {max(long_adv):.1%} max at {longest} m")


class TestCriterion10Localizer:
    def test_exact_recovery_and_bound_consistency(self, desk_cfg):
        sim, _ = build_sim_geometry(desk_cfg.geometry)
        region = desk_cfg.region.build()

        # noiseless on-grid recovery
        loc_cfg = LocalizerConfig(coarse_grid=33)
        xs = np.linspace(region.center[0] - region.radius, region.center[0] + region.radius, 33)
        ys = np.linspace(region.center[1] - region.radius, region.center[1] + region.radius, 33)
        p_true = np.array([xs[21], ys[9]])
        h = 1.4 * np.exp(0.3j) * steering_vector(sim, p_true)
        p_hat, score = localize(h, sim, region, loc_cfg)
        np.testing.assert_allclose(p_hat, p_true, atol=1e-12)
        assert score == pytest.approx(1.0, rel=1e-12)

        # RMSE >= PEB at matched noise, one-sided 99% test over 1000 trials.
        # sigma_n2 is the per-real-component variance, the convention under
        # which Re{J^H J}/sigma_n2 is the exact information matrix.
        sigma_n2 = 2e-4
        center = np.array(region.center)
        rep = fim_peb(sim, np.array([center[0], center[1], 1.0, 0.0]), sigma_n2)
        rng = np.random.default_rng(5)
        k = sim.elements_per_layer
        a = steering_vector(sim, center)
        sq = np.empty(1000)
        for t in range(1000):
            theta = rng.random() * 2 * np.pi
            noise = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(
                sigma_n2
            )
            p_hat, _ = localize(np.exp(1j * theta) * a + noise, sim, region, desk_cfg.localizer)
            sq[t] = float(np.sum((p_hat - center) ** 2))
        mean_sq = sq.mean()
        stderr = sq.std(ddof=1) / np.sqrt(len(sq))
        # fail only if the mean squared error is confidently below the bound
        assert mean_sq + 2.326 * stderr >= rep.peb**2
        _ok("10 (localizer consistency)",
            f"on-grid recovery exact; RMSE {np.sqrt(mean_sq):.2e} m >= "
            f"PEB {rep.peb:.2e} m (one-sided 99% over 1000 trials)")
