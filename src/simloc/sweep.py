"""Sweep execution: the end-to-end pipeline evaluated over a grid of
(distance, bearing, SNR) cells.

Each cell rebuilds the prior region and channel statistics, optionally
configures the surface against the cell's dominant eigenbasis, and emits
one record per estimator and metric. Cells are seeded independently from
the master seed, so any subset run in any order reproduces the same
numbers; workers > 1 evaluates cells in a thread pool. That measured no
faster than one worker on a 4-cell desk sweep: the process CPU time
equalled its wall time, so the cells serialize on the interpreter lock.

Metrics per estimator tag:

* ``mse_analytic``: rank-L model error (in-subspace posterior or LS
  covariance trace) plus the truncated prior power.
* ``mse_exact``: exact Gaussian-model error of the implemented linear
  estimator under the full-rank covariance (includes subspace leakage).
* ``mse_empirical``: Monte Carlo over fresh channel and interference draws
  (matches ``mse_exact`` within sampling error).
* ``peb_m`` / ``rmse_m``: position error bound at the estimator's
  white-equivalent residual noise, and the localizer's RMSE under the
  same matched-noise observation model. The localizer's estimate may leave
  the prior box (up to twice its half-widths from the centre, see
  ``localizer``), so ``rmse_m`` is not capped by the region size. Each
  (SNR, tag) batch is drawn from its own seed, and a cell localizes all of
  its batches in one ``localize`` call, so the coarse steering matrix is
  built once per cell; rows localize independently, so every RMSE equals
  that of a call per batch.

Mismatch diagnostics (``delta_u``, ``delta_rel``, ``row_gap``) are emitted
once per cell for the surface projection, an optimized one or one from given
phases alike: :func:`calibrated_surface` calibrates the network's
projection and ``bounds.mismatch_metrics`` measures it.

The per-point steps the CLI shares with the sweep live here too:
:func:`point_model` (geometry, covariance and its L dominant eigenpairs at
a region and seed), :func:`calibrated_surface` and :func:`position_bound`
(the PEB at the region centre for an estimator's white-equivalent
residual).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import fim_peb, mismatch_metrics
from .channel import estimate_covariance, reduce_subspace, steering_vector
from .config import ScenarioConfig
from .errors import ConfigurationError
from .estimation import estimator_suite, monte_carlo_mse
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
    try:
        return [record_from_row(r) for r in rows]
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"{path}: malformed record ({exc})") from exc


def _cell_seed(master: int, *parts: int) -> int:
    return int(np.random.SeedSequence([master, *parts]).generate_state(1)[0])


def point_model(cfg: ScenarioConfig, region, seed: int):
    """Surface and receiver geometry, the channel covariance over ``region``
    drawn from ``seed``, and its L dominant eigenpairs: ``(surface, receiver,
    cov, U, D)``."""
    sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
    cov = estimate_covariance(
        sim_geom,
        region,
        cfg.gain,
        n_samples=cfg.covariance.samples,
        rng_seed=seed,
        rank_threshold=cfg.covariance.rank_threshold,
    )
    u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
    return sim_geom, rx_geom, cov, u, d


def calibrated_surface(cfg: ScenarioConfig, net, u: np.ndarray):
    """The ``CalibratedProjection`` (c V, U Q) of a configured network: its
    column-solve projection calibrated under the optimizer's final
    complement weight."""
    return calibrate_projection(
        effective_projection_matrix(net), u, w_perp=cfg.optimizer.complement_weights[-1]
    )


def position_bound(geometry, region, cfg: ScenarioConfig, est):
    """The position error bound at the region centre for the white-equivalent
    residual of ``est``, its exact MSE over K: ``(sigma_n2, report)``."""
    sigma_n2 = est.exact_mse() / est.cov.dim
    x, y = region.center
    return sigma_n2, fim_peb(geometry, np.array([x, y, cfg.gain.mean_gain, 0.0]), sigma_n2)


def _localizer_draws(
    geometry,
    region,
    cfg: ScenarioConfig,
    sigma_n2: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Channel estimates (trials, K) of the matched-noise observation model
    h_hat = h(center) + n with per-real-component noise variance sigma_n2
    (the convention of the position-stage information matrix)."""
    rng = np.random.default_rng(seed)
    k = geometry.elements_per_layer
    a = steering_vector(geometry, np.array(region.center))
    h_hat = np.empty((trials, k), dtype=complex)
    for t in range(trials):
        theta = rng.random() * 2.0 * np.pi
        h = cfg.gain.mean_gain * np.exp(1j * theta) * a
        noise = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(sigma_n2)
        h_hat[t] = h + noise
    return h_hat


def _rmse(p_hats: np.ndarray, center: np.ndarray) -> Tuple[float, float]:
    """(RMSE, standard error of the mean squared error) of position
    estimates (trials, 2) around the true position."""
    sq = np.sum((p_hats - center) ** 2, axis=1)
    return float(np.sqrt(sq.mean())), float(sq.std(ddof=1) / np.sqrt(len(sq)))


def run_cell(
    cfg: ScenarioConfig,
    distance: float,
    bearing: float,
    cell_index: int,
    eta: Optional[np.ndarray] = None,
    with_localizer: bool = True,
) -> List[ResultRecord]:
    """Evaluate one (distance, bearing) cell across the configured SNRs.

    Given phases ``eta`` set the surface; without them ``sweep.sim``
    decides whether it is optimized for the cell or left out."""
    region = region_at(distance, bearing, cfg.region.diameter_m)
    sim_geom, rx_geom, cov, u, d = point_model(
        cfg, region, _cell_seed(cfg.covariance.seed, cell_index)
    )
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
    emit("covariance", math.nan, "truncation_power", cov.truncation_power(l))

    # surface configuration for this cell: the calibrated (c V, U Q), if any
    surface = None
    trace = None
    net = None
    if eta is not None:
        net = build_network(cfg, sim_geom, rx_geom, eta=eta)
    elif cfg.sweep.sim == "optimize":
        net = build_network(cfg, sim_geom, rx_geom)
        ocfg = cfg.optimizer
        ocfg = replace(ocfg, rng_seed=_cell_seed(ocfg.rng_seed, cell_index, 1), trace_every=0)
        trace = optimize_multistart(net, u.conj().T, ocfg)
    if net is not None:
        cal = calibrated_surface(cfg, net, u)
        m = mismatch_metrics(cal.v_scaled, cal.u_basis)
        emit("sim", math.nan, "delta_u", m.delta_u)
        emit("sim", math.nan, "delta_rel", m.delta_rel)
        emit("sim", math.nan, "row_gap", row_orthonormality_gap(cal.v_scaled))
        if trace is not None:
            emit("sim", math.nan, "converged", 1.0 if trace.converged else 0.0)
        surface = (cal.v_scaled, cal.u_basis)

    snrs = cfg.sweep.snr_db if cfg.sweep.snr_db is not None else cfg.snr_db
    trials = cfg.sweep.trials
    # localizer batches of equal size, one per (SNR, tag), and the record
    # slot of each batch's RMSE
    batches: List[np.ndarray] = []
    rmse_slots: List[int] = []
    for snr in snrs:
        sigma_z2 = cfg.noise_variance(snr)
        suite = estimator_suite(cov, u, d, sigma_z2, surface)
        for idx, (tag, est) in enumerate(suite.items()):
            emit(tag, snr, "mse_analytic", est.analytic_mse)
            emit(tag, snr, "mse_exact", est.exact_mse())
            seed = _cell_seed(cfg.sweep.seed, cell_index, 2, idx, int(round(snr * 1000)))
            mse, stderr = monte_carlo_mse(est, trials=trials, rng_seed=seed)
            emit(tag, snr, "mse_empirical", mse, stderr, "monte-carlo")

        # position bounds at the white-equivalent residual of the MMSE branch
        for tag in ("mmse-ideal" if surface is None else "mmse-sim", "digital-baseline"):
            sigma_n2, rep = position_bound(sim_geom, region, cfg, suite[tag])
            emit(tag, snr, "peb_m", rep.peb)
            emit(tag, snr, "peb_condition_flag", 1.0 if rep.condition_flag else 0.0)
            if with_localizer:
                batches.append(
                    _localizer_draws(
                        sim_geom,
                        region,
                        cfg,
                        sigma_n2,
                        trials=min(trials, 500),
                        seed=_cell_seed(cfg.sweep.seed, cell_index, 3, int(round(snr * 1000))),
                    )
                )
                rmse_slots.append(len(records))
                emit(tag, snr, "rmse_m", math.nan, math.nan, "monte-carlo")

    if batches:
        # one call for the whole cell: rows localize independently, so each
        # batch's estimates equal a call of their own
        p_hats, _ = localize(np.concatenate(batches), sim_geom, region, cfg.localizer)
        for slot, part in zip(rmse_slots, np.split(p_hats, len(batches))):
            rmse, stderr = _rmse(part, np.array(region.center))
            records[slot] = replace(records[slot], value=rmse, stderr=stderr)

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
