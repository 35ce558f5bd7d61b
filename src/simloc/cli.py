"""Command-line front end.

Subcommands cover the pipeline stages: ``covariance`` (channel statistics
and subspace files), ``optimize-sim`` (surface configuration against a
saved subspace), ``estimate`` (single-scenario estimator reports),
``bounds`` (mismatch metrics and position error bound), ``sweep`` (the
full grid), and ``plot-data`` (per-figure tidy tables).

Exit codes: 0 success, 2 configuration error (including a missing or
malformed input file), 3 numerical conditioning error, 4 optimizer
non-convergence, 5 optimizer or estimator failure (a non-finite objective,
a target without orthonormal rows, a rank-deficient or numerically singular
estimator, an estimator residual too small for a position bound, or an
all-zero or non-finite estimate).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import matio
from .bounds import mismatch_metrics, mse_ratio_check, noise_inflation
from .config import PRESETS, ScenarioConfig, load_config, load_preset
from .errors import ConditioningError, ConfigurationError, EstimationError, OptimizationError
from .estimation import estimator_suite, monte_carlo_mse
from .geometry import build_sim_geometry, fraunhofer_distance
from .multiport import build_network, row_orthonormality_gap
from .simopt import calibrate_projection, optimize_multistart
from .sweep import (
    calibrated_surface,
    load_records,
    plot_tables,
    point_model,
    position_bound,
    run_sweep,
    save_records,
)

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
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
        cfg = replace(
            cfg,
            covariance=replace(cfg.covariance, seed=args.seed + 1),
            optimizer=replace(cfg.optimizer, rng_seed=args.seed + 2),
            sweep=replace(cfg.sweep, seed=args.seed),
        )
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a parent that is one
        raise ConfigurationError(f"--out-dir {out}: not a usable directory ({exc})") from exc
    return out


def _point_model(cfg: ScenarioConfig):
    """The scenario's own point: its region and covariance seed."""
    return point_model(cfg, cfg.region.build(), cfg.covariance.seed)


def cmd_covariance(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, _, cov, u, _ = _point_model(cfg)
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
    if args.subspace:
        sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
        u = matio.load_complex_matrix(args.subspace)
        if u.shape != (sim_geom.elements_per_layer, cfg.outputs):
            raise ConfigurationError(
                f"subspace file has shape {u.shape}, expected "
                f"({sim_geom.elements_per_layer}, {cfg.outputs})"
            )
    else:
        sim_geom, rx_geom, _, u, _ = _point_model(cfg)

    net = build_network(cfg, sim_geom, rx_geom)
    trace = optimize_multistart(net, u.conj().T, cfg.optimizer)
    trace.to_csv(out / "trace.csv")
    matio.save_real_vector(out / "eta.rvec", trace.final_eta)
    cal = calibrated_surface(cfg, net, u)
    matio.save_complex_matrix(out / "projection.cmat", cal.v_scaled)
    matio.save_complex_matrix(out / "subspace_matched.cmat", cal.u_basis)
    m = mismatch_metrics(cal.v_scaled, cal.u_basis)
    report = {
        "converged": trace.converged,
        "stopped_on_target": trace.stopped_on_target,
        "iterations": trace.iterations,
        "delta_u": m.delta_u,
        "delta_rel": m.delta_rel,
        "row_orthonormality_gap": row_orthonormality_gap(cal.v_scaled),
        "noise_inflation": noise_inflation(cal.v_scaled, cal.u_basis),
        "target_delta_u": cfg.target_delta_u,
        "scale": [cal.scale.real, cal.scale.imag],
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
    gain and output rotation, as ``optimize-sim`` reports its surface, or
    None when no surface input was given.
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
        cal = calibrate_projection(v, u, w_perp=cfg.optimizer.complement_weights[-1])
    elif args.eta:
        eta = matio.load_real_vector(args.eta)
        cal = calibrated_surface(cfg, build_network(cfg, sim_geom, rx_geom, eta=eta), u)
    else:
        return None
    return cal.v_scaled, cal.u_basis


def cmd_estimate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, rx_geom, cov, u, d = _point_model(cfg)
    surface = _surface_projection(args, cfg, sim_geom, rx_geom, u)

    results = []
    for snr in cfg.snr_db:
        suite = estimator_suite(cov, u, d, cfg.noise_variance(snr), surface)
        for tag, est in suite.items():
            mse, stderr = monte_carlo_mse(est, trials=cfg.sweep.trials, rng_seed=cfg.sweep.seed)
            results.append(
                {
                    "scenario_id": f"d{cfg.region.distance_m:g}_b{cfg.region.bearing_rad:g}",
                    "estimator": tag,
                    "snr_db": snr,
                    "analytic_mse": est.analytic_mse,
                    "empirical_mse": mse,
                    "empirical_stderr": stderr,
                    "normalized_analytic_mse": est.analytic_mse / cov.trace,
                }
            )
    (out / "estimate_report.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"estimation report for {len(cfg.snr_db)} SNR point(s) written to {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    sim_geom, rx_geom, cov, u, d = _point_model(cfg)
    surface = _surface_projection(args, cfg, sim_geom, rx_geom, u)
    region = cfg.region.build()
    report = {"region_center": list(region.center), "outputs": cfg.outputs}

    if surface is not None:
        v, u_basis = surface
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
        suite = estimator_suite(cov, u, d, cfg.noise_variance(snr), surface)
        mmse = suite["mmse-ideal" if surface is None else "mmse-sim"]
        sigma_n2, peb = position_bound(sim_geom, region, cfg, mmse)
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
    if args.eta and args.no_sim:
        raise ConfigurationError("give either --eta or --no-sim, not both")
    if args.eta:
        eta = matio.load_real_vector(args.eta)
    elif args.no_sim:
        cfg = replace(cfg, sweep=replace(cfg.sweep, sim="none"))
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
