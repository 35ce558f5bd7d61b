"""Command-line front end.

Subcommands cover the pipeline stages: ``covariance`` (channel statistics
and subspace files), ``optimize-sim`` (surface configuration against a
saved subspace), ``estimate`` (single-scenario estimator reports),
``bounds`` (mismatch metrics and position error bound), ``sweep`` (the
full grid), and ``plot-data`` (per-figure tidy tables).

Exit codes: 0 success, 2 configuration error, 3 numerical conditioning
error, 4 optimizer non-convergence, 5 optimizer or estimator failure (a
non-finite objective, a failed gradient self-check, a target without
orthonormal rows, a rank-deficient estimator or an all-zero estimate).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import matio
from .bounds import fim_peb, mismatch_metrics, mse_ratio_check
from .channel import covariance_from_matrix, estimate_covariance, reduce_subspace
from .config import PRESETS, ScenarioConfig, load_config, load_preset
from .errors import ConditioningError, ConfigurationError, EstimationError, OptimizationError
from .estimation import (
    ObservationModel,
    digital_baseline,
    mmse_full,
    mmse_post_sim,
    mmse_reduced,
    monte_carlo_mse,
    rsls_ideal,
    rsls_post_sim,
)
from .geometry import build_sim_geometry, fraunhofer_distance
from .multiport import build_network, effective_projection_matrix, row_orthonormality_gap
from .simopt import calibrate_projection, optimize_multistart
from .sweep import load_records, plot_tables, run_sweep, save_records

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITIONING = 3
EXIT_NOCONVERGENCE = 4
EXIT_NUMERICAL = 5


def _load_scenario(args) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigurationError("give either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = load_preset(args.preset)
    else:
        raise ConfigurationError("one of --config or --preset is required")
    if args.seed is not None:
        cfg = replace(
            cfg,
            covariance=replace(cfg.covariance, seed=args.seed + 1),
            optimizer=replace(cfg.optimizer, rng_seed=args.seed + 2),
            sweep=replace(cfg.sweep, seed=args.seed),
        )
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_covariance(cfg: ScenarioConfig):
    sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
    cov = estimate_covariance(
        sim_geom,
        cfg.region.build(),
        cfg.gain,
        n_samples=cfg.covariance.samples,
        rng_seed=cfg.covariance.seed,
        rank_threshold=cfg.covariance.rank_threshold,
    )
    return sim_geom, rx_geom, cov


def cmd_covariance(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, _, cov = _build_covariance(cfg)
    u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
    matio.save_complex_matrix(out / "covariance.cmat", cov.r_h)
    matio.save_complex_matrix(out / "subspace_u.cmat", u)
    matio.save_real_vector(out / "eigenvalues.rvec", cov.eigenvalues)
    report = {
        "elements": cov.dim,
        "mc_samples": cov.mc_samples,
        "effective_rank": cov.rank,
        "outputs": cfg.outputs,
        "captured_energy_fraction": cov.captured_energy(cfg.outputs),
        "truncation_power": cov.truncation_power(cfg.outputs),
        "trace": cov.trace,
        "fraunhofer_distance_m": fraunhofer_distance(sim_geom),
        "eigenvalues_leading": [float(x) for x in cov.eigenvalues[: max(cfg.outputs * 2, 8)]],
    }
    (out / "rank_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"covariance written to {out} (effective rank {cov.rank}, "
          f"captured energy {report['captured_energy_fraction']:.4f})")
    return EXIT_OK


def cmd_optimize_sim(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, rx_geom, cov = _build_covariance(cfg)
    if args.subspace:
        u = matio.load_complex_matrix(args.subspace)
        if u.shape != (sim_geom.elements_per_layer, cfg.outputs):
            raise ConfigurationError(
                f"subspace file has shape {u.shape}, expected "
                f"({sim_geom.elements_per_layer}, {cfg.outputs})"
            )
    else:
        u, _ = reduce_subspace(cov, l_fixed=cfg.outputs)

    net = build_network(cfg, sim_geom, rx_geom)
    trace = optimize_multistart(net, u.conj().T, cfg.optimizer, restarts=cfg.optimizer_restarts)
    trace.to_csv(out / "trace.csv")
    matio.save_real_vector(out / "eta.rvec", trace.final_eta)
    v_s = trace.scale * effective_projection_matrix(net)
    matio.save_complex_matrix(out / "projection.cmat", v_s)
    u_rot = trace.rotated_basis(u)
    matio.save_complex_matrix(out / "subspace_matched.cmat", u_rot)
    m = mismatch_metrics(v_s, u_rot)
    report = {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "delta_u": m.delta_u,
        "delta_rel": m.delta_rel,
        "row_orthonormality_gap": row_orthonormality_gap(v_s),
        "target_delta_u": cfg.target_delta_u,
        "scale": [trace.scale.real, trace.scale.imag],
    }
    (out / "optimize_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"optimization {'converged' if trace.converged else 'DID NOT converge'}: "
        f"delta_u = {m.delta_u:.4f} (target {cfg.target_delta_u}), "
        f"outputs in {out}"
    )
    return EXIT_OK if trace.converged else EXIT_NOCONVERGENCE


def _surface_projection(args, cfg, sim_geom, rx_geom, u):
    """Resolve the post-surface projection from --eta / --projection flags.

    Returns ``(v_scaled, u_basis)`` calibrated with the ensemble-weighted
    gain and output rotation, the same convention the optimizer reports, or
    ``(None, u)`` when no surface input was given.
    """
    if args.projection and args.eta:
        raise ConfigurationError("give either --eta or --projection, not both")
    if args.projection:
        v = matio.load_complex_matrix(args.projection)
        if v.shape != (cfg.outputs, sim_geom.elements_per_layer):
            raise ConfigurationError(
                f"projection file has shape {v.shape}, expected "
                f"({cfg.outputs}, {sim_geom.elements_per_layer})"
            )
    elif args.eta:
        eta = matio.load_real_vector(args.eta)
        net = build_network(cfg, sim_geom, rx_geom, eta=eta)
        v = effective_projection_matrix(net)
    else:
        return None, u
    cal = calibrate_projection(v, u, w_perp=cfg.optimizer.complement_weights[-1])
    return cal.v_scaled, cal.u_basis


def cmd_estimate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, rx_geom, cov = _build_covariance(cfg)
    u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
    cov_l = covariance_from_matrix(u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12)
    trunc = cov.truncation_power(cfg.outputs)
    v, u_basis = _surface_projection(args, cfg, sim_geom, rx_geom, u)
    k, l = cov.dim, cfg.outputs

    results = []
    for snr in cfg.snr_db:
        sigma_z2 = cfg.noise_variance(snr)
        suite = {
            "mmse-ideal": (
                lambda y: mmse_reduced(y, cov_l, sigma_z2).h_hat,
                u.conj().T,
                mmse_reduced(np.zeros(l, dtype=complex), cov_l, sigma_z2).scalar_mse + trunc,
            ),
            "rsls-ideal": (
                lambda y: rsls_ideal(y, u).h_hat,
                u.conj().T,
                sigma_z2 * l + trunc,
            ),
            "digital-baseline": (
                lambda y: digital_baseline(y, cov, sigma_z2).h_hat,
                np.eye(k, dtype=complex),
                mmse_full(np.zeros(k, dtype=complex), cov, sigma_z2).scalar_mse,
            ),
        }
        if v is not None:
            suite["mmse-sim"] = (
                lambda y: mmse_post_sim(y, v, cov_l, sigma_z2).h_hat,
                v,
                mmse_post_sim(np.zeros(l, dtype=complex), v, cov_l, sigma_z2).scalar_mse + trunc,
            )
            suite["rsls-sim"] = (
                lambda y: rsls_post_sim(y, v, u_basis, sigma_z2).h_hat,
                v,
                rsls_post_sim(np.zeros(l, dtype=complex), v, u_basis, sigma_z2).scalar_mse
                + trunc,
            )
        for tag, (estimator, proj, analytic) in suite.items():
            mode = "full-array" if proj.shape[0] == k else "sim-projection"
            model = ObservationModel(
                mode=mode,
                cov=cov,
                noise_variance=sigma_z2,
                v=None if mode == "full-array" else proj,
            )
            mse, stderr = monte_carlo_mse(
                model, estimator, trials=cfg.sweep.trials, rng_seed=cfg.sweep.seed
            )
            results.append(
                {
                    "scenario_id": f"d{cfg.region.distance_m:g}_b{cfg.region.bearing_rad:g}",
                    "estimator": tag,
                    "snr_db": snr,
                    "analytic_mse": analytic,
                    "empirical_mse": mse,
                    "empirical_stderr": stderr,
                    "normalized_analytic_mse": analytic / cov.trace,
                }
            )
    (out / "estimate_report.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"estimation report for {len(cfg.snr_db)} SNR point(s) written to {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, rx_geom, cov = _build_covariance(cfg)
    u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
    cov_l = covariance_from_matrix(u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12)
    trunc = cov.truncation_power(cfg.outputs)
    v, u_basis = _surface_projection(args, cfg, sim_geom, rx_geom, u)
    center = cfg.region.build().center
    report = {"region_center": list(center), "outputs": cfg.outputs}

    if v is not None:
        m = mismatch_metrics(v, u_basis)
        check = mse_ratio_check(v, u_basis)
        report["mismatch"] = {
            "delta_u": m.delta_u,
            "delta_rel": m.delta_rel,
            "e_norm": m.e_norm,
            "eig_box": list(m.eig_box),
            "mse_ratio_bound": m.mse_ratio_bound,
            "row_orthonormality_gap": row_orthonormality_gap(v),
            "ratio_check": {
                "actual_ratio": check.actual_ratio,
                "bound": check.bound,
                "holds": check.holds,
                "applicable": check.applicable,
            },
        }

    peb_rows = []
    for snr in cfg.snr_db:
        sigma_z2 = cfg.noise_variance(snr)
        if v is not None:
            rep_est = mmse_post_sim(np.zeros(cfg.outputs, dtype=complex), v, cov_l, sigma_z2)
        else:
            rep_est = mmse_reduced(np.zeros(cfg.outputs, dtype=complex), cov_l, sigma_z2)
        sigma_n2 = (rep_est.scalar_mse + trunc) / cov.dim
        peb = fim_peb(
            sim_geom, np.array([center[0], center[1], cfg.gain.mean_gain, 0.0]), sigma_n2
        )
        peb_rows.append(
            {
                "snr_db": snr,
                "sigma_n2": sigma_n2,
                "peb_m": peb.peb,
                "condition_flag": peb.condition_flag,
            }
        )
    report["peb"] = peb_rows
    (out / "bounds_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"bounds report written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    eta = None
    if args.eta:
        eta = matio.load_real_vector(args.eta)
        cfg = replace(cfg, sweep=replace(cfg.sweep, sim="eta"))
    elif args.no_sim:
        cfg = replace(cfg, sweep=replace(cfg.sweep, sim="none"))
    if cfg.sweep.sim == "eta" and eta is None:
        raise ConfigurationError("sweep.sim = 'eta' requires --eta FILE")
    records = run_sweep(cfg, eta=eta, with_localizer=not args.no_localizer)
    save_records(out / "sweep.csv", records)
    print(f"{len(records)} records written to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    out = _out_dir(args)
    records = load_records(args.records)
    tables = plot_tables(records)
    for key, recs in sorted(tables.items()):
        save_records(out / f"{key}.csv", recs)
    if not tables:
        # keep the contract: emit headers even for an empty record set
        save_records(out / "mse_empty.csv", [])
        save_records(out / "loc_empty.csv", [])
    print(f"{len(tables)} figure tables written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simloc",
        description="Near-field channel estimation and localization with a "
        "multiport stacked-surface front end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_scenario=True):
        if needs_scenario:
            p.add_argument("--config", help="scenario config JSON")
            p.add_argument("--preset", choices=PRESETS, help="bundled scenario preset")
            p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out-dir", default="simloc-out", help="output directory")

    p = sub.add_parser("covariance", help="channel covariance and subspace files")
    add_common(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("optimize-sim", help="configure the surface phases")
    add_common(p)
    p.add_argument("--subspace", help="target subspace .cmat (default: from covariance)")
    p.set_defaults(func=cmd_optimize_sim)

    p = sub.add_parser("estimate", help="estimator reports at the configured scenario")
    add_common(p)
    p.add_argument("--eta", help="surface phase vector .rvec")
    p.add_argument("--projection", help="effective projection .cmat")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="mismatch metrics and position error bound")
    add_common(p)
    p.add_argument("--eta", help="surface phase vector .rvec")
    p.add_argument("--projection", help="effective projection .cmat")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="full (distance, angle, SNR) grid")
    add_common(p)
    p.add_argument("--eta", help="fixed surface phases .rvec (instead of per-cell optimization)")
    p.add_argument("--no-sim", action="store_true", help="ideal projection only")
    p.add_argument("--no-localizer", action="store_true", help="skip localizer RMSE records")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot-data", help="reshape sweep records into per-figure tables")
    p.add_argument("--records", required=True, help="sweep.csv from the sweep command")
    add_common(p, needs_scenario=False)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConditioningError as exc:
        print(f"numerical conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except (OptimizationError, EstimationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
