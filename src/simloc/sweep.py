"""Sweep execution: the end-to-end pipeline evaluated over a grid of
(distance, bearing, SNR) cells.

Each cell rebuilds the prior region and channel statistics, optionally
configures the surface against the cell's dominant eigenbasis, and emits
one record per estimator and metric. Cells are seeded independently from
the master seed, so any subset run in any order reproduces the same
numbers; workers > 1 evaluates cells in a thread pool.

Metrics per estimator tag:

* ``mse_analytic``: rank-L model error (in-subspace posterior or LS
  covariance trace) plus the truncated prior power.
* ``mse_exact``: exact Gaussian-model error of the implemented linear
  estimator under the full-rank covariance (includes subspace leakage).
* ``mse_empirical``: Monte Carlo over fresh channel and interference draws
  (matches ``mse_exact`` within sampling error).
* ``peb_m`` / ``rmse_m``: position error bound at the estimator's
  white-equivalent residual noise, and the grid localizer's RMSE under the
  same matched-noise observation model.

Mismatch diagnostics (``delta_u``, ``delta_rel``, ``row_gap``) are emitted
once per cell for the surface projection.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import fim_peb, mismatch_metrics
from .channel import (
    CovarianceModel,
    covariance_from_matrix,
    estimate_covariance,
    reduce_subspace,
    steering_vector,
)
from .config import ScenarioConfig
from .errors import ConfigurationError
from .estimation import (
    digital_baseline,
    mmse_full,
    mmse_post_sim,
    mmse_reduced,
    monte_carlo_mse,
    ObservationModel,
    rsls_ideal,
    rsls_post_sim,
)
from .geometry import build_sim_geometry, region_at
from .localizer import localize
from .matio import load_csv, save_csv
from .multiport import build_network, effective_projection_matrix, row_orthonormality_gap
from .simopt import calibrate_projection, optimize_multistart

RECORD_HEADER = [
    "scenario_id",
    "tag",
    "distance_m",
    "bearing_rad",
    "snr_db",
    "metric",
    "value",
    "stderr",
    "provenance",
]


@dataclass(frozen=True)
class ResultRecord:
    scenario_id: str
    tag: str
    distance_m: float
    bearing_rad: float
    snr_db: float
    metric: str
    value: float
    stderr: float
    provenance: str

    def row(self) -> List:
        return [
            self.scenario_id,
            self.tag,
            repr(self.distance_m),
            repr(self.bearing_rad),
            repr(self.snr_db),
            self.metric,
            repr(self.value),
            repr(self.stderr),
            self.provenance,
        ]


def record_from_row(row: Sequence[str]) -> ResultRecord:
    return ResultRecord(
        scenario_id=row[0],
        tag=row[1],
        distance_m=float(row[2]),
        bearing_rad=float(row[3]),
        snr_db=float(row[4]),
        metric=row[5],
        value=float(row[6]),
        stderr=float(row[7]),
        provenance=row[8],
    )


def save_records(path, records: Sequence[ResultRecord]) -> None:
    save_csv(path, RECORD_HEADER, [r.row() for r in records])


def load_records(path) -> List[ResultRecord]:
    header, rows = load_csv(path)
    if header and header != RECORD_HEADER:
        raise ConfigurationError(f"{path}: not a sweep record file")
    return [record_from_row(r) for r in rows]


def _estimator_matrix(estimator, in_dim: int) -> np.ndarray:
    """Materialize a linear estimator by applying it to the identity."""
    return estimator(np.eye(in_dim, dtype=complex))


def exact_linear_mse(
    est_matrix: np.ndarray, proj: np.ndarray, cov: CovarianceModel, sigma_z2: float
) -> float:
    """Exact Gaussian-model MSE of h_hat = M (P h + P z) under the full
    covariance, including any out-of-subspace leakage."""
    w = est_matrix @ proj
    k = cov.dim
    eye = np.eye(k)
    bias_cov = (eye - w) @ cov.r_h @ (eye - w).conj().T
    noise_cov = sigma_z2 * (w @ w.conj().T)
    return float(np.real(np.trace(bias_cov)) + np.real(np.trace(noise_cov)))


@dataclass(frozen=True)
class CellResult:
    records: List[ResultRecord]


def _cell_seed(master: int, *parts: int) -> int:
    return int(np.random.SeedSequence([master, *parts]).generate_state(1)[0])


def _localizer_rmse(
    geometry,
    region,
    cfg: ScenarioConfig,
    sigma_n2: float,
    trials: int,
    seed: int,
) -> Tuple[float, float]:
    """RMSE of the grid localizer under the matched-noise observation model
    h_hat = h(center) + n with per-real-component noise variance sigma_n2
    (the convention of the position-stage information matrix); returns
    (rmse, stderr_of_mse)."""
    rng = np.random.default_rng(seed)
    center = np.array(region.center)
    k = geometry.elements_per_layer
    a = steering_vector(geometry, center).entries
    sq = np.empty(trials)
    for t in range(trials):
        theta = rng.random() * 2.0 * np.pi
        h = cfg.gain.mean_gain * np.exp(1j * theta) * a
        noise = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(sigma_n2)
        p_hat, _ = localize(h + noise, geometry, region, cfg.localizer)
        sq[t] = float(np.sum((p_hat - center) ** 2))
    rmse = float(np.sqrt(sq.mean()))
    stderr = float(sq.std(ddof=1) / np.sqrt(trials))
    return rmse, stderr


def run_cell(
    cfg: ScenarioConfig,
    distance: float,
    bearing: float,
    cell_index: int,
    eta: Optional[np.ndarray] = None,
    with_localizer: bool = True,
) -> List[ResultRecord]:
    """Evaluate one (distance, bearing) cell across the configured SNRs."""
    sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
    region = region_at(distance, bearing, cfg.region.diameter_m)
    cov = estimate_covariance(
        sim_geom,
        region,
        cfg.gain,
        n_samples=cfg.covariance.samples,
        rng_seed=_cell_seed(cfg.covariance.seed, cell_index),
        rank_threshold=cfg.covariance.rank_threshold,
    )
    u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
    cov_l = covariance_from_matrix(
        u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12, mc_samples=cov.mc_samples
    )
    trunc = cov.truncation_power(cfg.outputs)
    k = cov.dim
    l = cfg.outputs

    records: List[ResultRecord] = []

    def emit(tag, snr, metric, value, stderr=0.0, provenance="analytic"):
        records.append(
            ResultRecord(
                scenario_id=f"d{distance:g}_b{bearing:g}",
                tag=tag,
                distance_m=distance,
                bearing_rad=bearing,
                snr_db=snr,
                metric=metric,
                value=float(value),
                stderr=float(stderr),
                provenance=provenance,
            )
        )

    emit("covariance", math.nan, "effective_rank", cov.rank)
    emit("covariance", math.nan, "captured_energy", cov.captured_energy(l))
    emit("covariance", math.nan, "truncation_power", trunc)

    # surface configuration for this cell
    v_s = None
    u_basis = u
    if cfg.sweep.sim == "optimize":
        net = build_network(cfg, sim_geom, rx_geom)
        ocfg = cfg.optimizer
        ocfg = replace(ocfg, rng_seed=_cell_seed(ocfg.rng_seed, cell_index, 1), trace_every=0)
        trace = optimize_multistart(net, u.conj().T, ocfg, restarts=cfg.optimizer_restarts)
        v_s = trace.scale * effective_projection_matrix(net)
        u_basis = trace.rotated_basis(u)
        m = mismatch_metrics(v_s, u_basis)
        emit("sim", math.nan, "delta_u", m.delta_u)
        emit("sim", math.nan, "delta_rel", m.delta_rel)
        emit("sim", math.nan, "row_gap", row_orthonormality_gap(v_s))
        emit("sim", math.nan, "converged", 1.0 if trace.converged else 0.0)
    elif cfg.sweep.sim == "eta":
        if eta is None:
            raise ConfigurationError("sweep.sim = 'eta' requires a phase vector")
        net = build_network(cfg, sim_geom, rx_geom, eta=eta)
        cal = calibrate_projection(
            effective_projection_matrix(net), u, w_perp=cfg.optimizer.complement_weights[-1]
        )
        v_s = cal.v_scaled
        u_basis = cal.u_basis
        emit("sim", math.nan, "delta_u", cal.delta_u)
        emit("sim", math.nan, "delta_rel", cal.delta_rel)
        emit("sim", math.nan, "row_gap", row_orthonormality_gap(v_s))

    snrs = cfg.sweep.snr_db if cfg.sweep.snr_db is not None else cfg.snr_db
    trials = cfg.sweep.trials
    for snr in snrs:
        sigma_z2 = cfg.noise_variance(snr)

        # estimator suite: tag -> (estimator over y, projection matrix,
        # analytic rank-L model MSE including truncation)
        suite = {}
        ident = np.eye(k, dtype=complex)
        u_h = u.conj().T

        mmse_ideal_rep = mmse_reduced(np.zeros(l, dtype=complex), cov_l, sigma_z2)
        suite["mmse-ideal"] = (
            lambda y: mmse_reduced(y, cov_l, sigma_z2).h_hat,
            u_h,
            mmse_ideal_rep.scalar_mse + trunc,
        )
        suite["rsls-ideal"] = (
            lambda y: rsls_ideal(y, u).h_hat,
            u_h,
            sigma_z2 * l + trunc,
        )
        base_rep = mmse_full(np.zeros(k, dtype=complex), cov, sigma_z2)
        suite["digital-baseline"] = (
            lambda y: digital_baseline(y, cov, sigma_z2).h_hat,
            ident,
            base_rep.scalar_mse,
        )
        if v_s is not None:
            mmse_sim_rep = mmse_post_sim(np.zeros(l, dtype=complex), v_s, cov_l, sigma_z2)
            suite["mmse-sim"] = (
                lambda y: mmse_post_sim(y, v_s, cov_l, sigma_z2).h_hat,
                v_s,
                mmse_sim_rep.scalar_mse + trunc,
            )
            rsls_sim_rep = rsls_post_sim(np.zeros(l, dtype=complex), v_s, u_basis, sigma_z2)
            suite["rsls-sim"] = (
                lambda y: rsls_post_sim(y, v_s, u_basis, sigma_z2).h_hat,
                v_s,
                rsls_sim_rep.scalar_mse + trunc,
            )

        peb_noise: Dict[str, float] = {}
        for idx, (tag, (estimator, proj, analytic_mse)) in enumerate(suite.items()):
            emit(tag, snr, "mse_analytic", analytic_mse)
            est_matrix = _estimator_matrix(estimator, proj.shape[0])
            exact = exact_linear_mse(est_matrix, proj, cov, sigma_z2)
            emit(tag, snr, "mse_exact", exact)
            mode = "full-array" if proj.shape[0] == k else "sim-projection"
            model = ObservationModel(
                mode=mode, cov=cov, noise_variance=sigma_z2, v=None if mode == "full-array" else proj
            )
            mse, stderr = monte_carlo_mse(
                model,
                estimator,
                trials=trials,
                rng_seed=_cell_seed(cfg.sweep.seed, cell_index, 2, idx, int(round(snr * 1000))),
            )
            emit(tag, snr, "mse_empirical", mse, stderr, "monte-carlo")
            peb_noise[tag] = exact / k

        # position bounds at the white-equivalent residual of the MMSE branch
        peb_tags = ["mmse-sim"] if "mmse-sim" in peb_noise else ["mmse-ideal"]
        peb_tags.append("digital-baseline")
        center = np.array(region.center)
        for tag in peb_tags:
            sigma_n2 = peb_noise[tag]
            rep = fim_peb(
                sim_geom,
                np.array([center[0], center[1], cfg.gain.mean_gain, 0.0]),
                sigma_n2,
            )
            emit(tag, snr, "peb_m", rep.peb)
            emit(tag, snr, "peb_condition_flag", 1.0 if rep.condition_flag else 0.0)
            if with_localizer:
                rmse, rmse_stderr = _localizer_rmse(
                    sim_geom,
                    region,
                    cfg,
                    sigma_n2,
                    trials=min(trials, 500),
                    seed=_cell_seed(cfg.sweep.seed, cell_index, 3, int(round(snr * 1000))),
                )
                emit(tag, snr, "rmse_m", rmse, rmse_stderr, "monte-carlo")

    return records


def run_sweep(
    cfg: ScenarioConfig,
    eta: Optional[np.ndarray] = None,
    with_localizer: bool = True,
) -> List[ResultRecord]:
    """Evaluate every (distance, bearing) cell of the configured grid."""
    cells = [
        (distance, bearing)
        for distance in cfg.sweep.distances_m
        for bearing in cfg.sweep.bearings_rad
    ]

    def work(item):
        index, (distance, bearing) = item
        return run_cell(cfg, distance, bearing, index, eta=eta, with_localizer=with_localizer)

    if cfg.sweep.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.sweep.workers) as pool:
            chunks = list(pool.map(work, enumerate(cells)))
    else:
        chunks = [work(item) for item in enumerate(cells)]
    return [rec for chunk in chunks for rec in chunk]


def plot_tables(records: Sequence[ResultRecord]) -> Dict[str, List[ResultRecord]]:
    """Group records into per-figure, per-bearing tidy tables.

    Figure "mse" collects the channel-error metrics, figure "loc" the
    position metrics; each bearing gets its own table, mirroring one
    subfigure per angle. Table keys look like ``mse_b0.5236``.
    """
    mse_metrics = {"mse_analytic", "mse_exact", "mse_empirical"}
    loc_metrics = {"peb_m", "rmse_m"}
    tables: Dict[str, List[ResultRecord]] = {}
    for rec in records:
        if rec.metric in mse_metrics:
            fig = "mse"
        elif rec.metric in loc_metrics:
            fig = "loc"
        else:
            fig = "diag"
        key = f"{fig}_b{rec.bearing_rad:g}"
        tables.setdefault(key, []).append(rec)
    return tables
