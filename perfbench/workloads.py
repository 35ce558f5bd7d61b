"""The benchmark's three workloads.

Each workload is built in its constructor (the set-up a user pays before
the first timed call), runs its timed phase in ``run``, and checks its
outputs in ``checks`` after the timed phase.  Every layer function is
called through its module attribute (``simloc.sweep.run_sweep``, not a name
imported from it), so the traced run's wrappers see the benchmark's own
calls too.

On the desk workloads the seed drives the Monte Carlo and localizer draws
(``sweep.seed``) while the problem instance, the covariance sample and the
optimizer's start, stays at the preset's seeds: the optimizer's work to
convergence varies about twofold between instances (one restart or two),
which would swamp any change a run is meant to detect.  ``paper-config``
caps the optimizer's iterations, so there the seed maps onto the scenario as
the CLI's ``--seed`` does.

Why these three:

* ``desk-pipeline`` is optimizer-bound with the L-BFGS trace on, writes and
  re-reads files, and never calls the localizer.
* ``desk-sweep`` is the paper's figure path: localizer-bound, with the
  optimizer trace off.
* ``paper-config`` is bound by the LU of a 3 584-port impedance matrix that
  is far larger than the caches; it bypasses the localizer and has a fixed
  evaluation count.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

import simloc.channel
import simloc.cli
import simloc.multiport
import simloc.simopt
import simloc.sweep
from simloc import matio
from simloc.config import ScenarioConfig, load_config, load_preset
from simloc.geometry import build_sim_geometry

# One cell of the desk grid, the cell the sweep profile was taken on.
SWEEP_CELL = (0.3, math.pi / 6)
SWEEP_TRIALS = 100
# L-BFGS iterations per annealing stage on paper-config: 8 LUs per restart.
PAPER_MAX_ITERS = 1

# Tolerances of the output checks.
MC_SIGMAS = 4.0  # |empirical - exact MSE| in Monte Carlo standard errors
PEB_SIGMAS = 4.0  # one-sided margin of the RMSE >= PEB check
RECIPROCITY_RTOL = 1e-10


def seeded(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Apply a master seed the way the CLI's ``--seed`` does."""
    return replace(
        cfg,
        covariance=replace(cfg.covariance, seed=seed + 1),
        optimizer=replace(cfg.optimizer, rng_seed=seed + 2),
        sweep=replace(cfg.sweep, seed=seed),
    )


def _check(name: str, test) -> dict:
    """Run one output check; a missing or malformed output fails it."""
    try:
        ok, detail = test()
    except (OSError, ValueError, KeyError, IndexError, simloc.SimlocError) as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return {"name": name, "ok": bool(ok), "detail": detail}


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class DeskPipeline:
    """``covariance`` -> ``optimize-sim --subspace`` -> ``estimate --eta`` ->
    ``bounds --eta`` through ``simloc.cli.main`` on the desk-scale preset."""

    def __init__(self, seed: int, work_dir: Path):
        doc = json.loads(resources.files("simloc.presets").joinpath("desk_scale.json").read_text())
        doc["sweep"]["seed"] = seed
        scenario = work_dir / "scenario.json"
        scenario.write_text(json.dumps(doc))
        self.cfg = load_config(scenario)
        self.out = work_dir
        common = ["--config", str(scenario), "--out-dir", str(work_dir)]
        eta = str(work_dir / "eta.rvec")
        self.argvs = [
            ["covariance", *common],
            ["optimize-sim", *common, "--subspace", str(work_dir / "subspace_u.cmat")],
            ["estimate", *common, "--eta", eta],
            ["bounds", *common, "--eta", eta],
        ]
        self.exit_codes = []

    def run(self) -> None:
        for argv in self.argvs:
            self.exit_codes.append(simloc.cli.main(argv))

    def checks(self):
        out = self.out
        geom, _ = build_sim_geometry(self.cfg.geometry)
        results = [
            _check(f"cli {argv[0]} exits 0", lambda code=code: (code == 0, f"exit {code}"))
            for argv, code in zip(self.argvs, self.exit_codes)
        ]

        def delta_u_met():
            report = json.loads((out / "optimize_report.json").read_text())
            return (report["delta_u"] <= self.cfg.target_delta_u,
                    f"delta_u {report['delta_u']:.4f}, target {self.cfg.target_delta_u}")

        def eta_shape():
            shape = matio.load_real_vector(out / "eta.rvec").shape
            return shape == (geom.total_elements,), f"eta.rvec shape {shape}"

        def projection_shape():
            shape = matio.load_complex_matrix(out / "projection.cmat").shape
            return shape == (self.cfg.outputs, geom.elements_per_layer), f"projection.cmat {shape}"

        def estimates_finite():
            rows = json.loads((out / "estimate_report.json").read_text())
            values = [v for row in rows for v in row.values() if isinstance(v, (int, float))]
            return len(rows) > 0 and _all_finite(values), f"{len(rows)} estimate rows"

        def peb_finite():
            report = json.loads((out / "bounds_report.json").read_text())
            pebs = [row["peb_m"] for row in report["peb"]]
            return len(pebs) > 0 and _all_finite(pebs), f"peb_m {pebs}"

        results += [
            _check("optimize-sim delta_u meets its target", delta_u_met),
            _check("eta.rvec reloads with one phase per cell", eta_shape),
            _check("projection.cmat reloads as outputs x elements", projection_shape),
            _check("every estimate value is finite", estimates_finite),
            _check("every position error bound is finite", peb_finite),
        ]
        return results


class DeskSweep:
    """``run_sweep`` over one desk-scale cell, surface optimized, localizer on."""

    def __init__(self, seed: int, work_dir: Path):
        base = load_preset("desk-scale")
        self.cfg = replace(
            base,
            sweep=replace(
                base.sweep,
                seed=seed,
                distances_m=(SWEEP_CELL[0],),
                bearings_rad=(SWEEP_CELL[1],),
                trials=SWEEP_TRIALS,
                sim="optimize",
                workers=1,
            ),
        )
        self.records = []

    def run(self) -> None:
        self.records = simloc.sweep.run_sweep(self.cfg, with_localizer=True)

    def checks(self):
        cfg = self.cfg
        snrs = cfg.sweep.snr_db if cfg.sweep.snr_db is not None else cfg.snr_db
        cells = len(cfg.sweep.distances_m) * len(cfg.sweep.bearings_rad)
        # per cell: 3 covariance + 4 surface records; per SNR, 5 estimators
        # x 3 MSE metrics and 2 position tags x (peb, flag, rmse)
        expected = cells * (3 + 4 + len(snrs) * (5 * 3 + 2 * 3))
        by_key = {(r.tag, r.snr_db, r.metric): r for r in self.records}
        results = [_check(
            "record count matches the grid",
            lambda: (len(self.records) == expected, f"{len(self.records)} of {expected}"),
        )]

        for (tag, snr, metric), rec in sorted(by_key.items(), key=str):
            if metric == "mse_empirical":
                exact = by_key[(tag, snr, "mse_exact")].value

                # Squared errors are skewed, so the sample stderr shrinks with
                # the sample mean; rescaled to the exact MSE it is the stderr
                # under the hypothesis tested, and the test is symmetric.
                def mc_agrees(rec=rec, exact=exact):
                    stderr = rec.stderr * exact / rec.value
                    return (abs(rec.value - exact) <= MC_SIGMAS * stderr,
                            f"|{rec.value:.5g} - {exact:.5g}| vs stderr {stderr:.3g}")

                results.append(_check(f"{tag} snr {snr:g}: empirical MSE matches exact", mc_agrees))
            elif metric == "rmse_m":
                peb = by_key[(tag, snr, "peb_m")].value

                # Criterion 10 in its squared form (the stderr is that of the
                # mean squared error), one-sided, with the stderr rescaled to
                # the hypothesis MSE = PEB^2 as above.
                def above_bound(rec=rec, peb=peb):
                    mse = rec.value**2
                    stderr = rec.stderr * peb**2 / mse if mse > 0 else 0.0
                    detail = f"rmse {rec.value:.4g} m, mse stderr {stderr:.3g}, peb {peb:.4g} m"
                    return mse + PEB_SIGMAS * stderr >= peb**2, detail

                results.append(_check(f"{tag} snr {snr:g}: RMSE respects the PEB", above_bound))

        def delta_u_met():
            du = [r.value for r in self.records if r.metric == "delta_u"]
            return (len(du) == cells and all(v <= cfg.target_delta_u for v in du),
                    f"delta_u {du}, target {cfg.target_delta_u}")

        results.append(_check("cell delta_u meets its target", delta_u_met))
        return results


class PaperConfig:
    """One ``optimize`` restart on ``paper-scale`` with a capped iteration count."""

    def __init__(self, seed: int, work_dir: Path):
        cfg = seeded(load_preset("paper-scale"), seed)
        sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
        cov = simloc.channel.estimate_covariance(
            sim_geom,
            cfg.region.build(),
            cfg.gain,
            n_samples=cfg.covariance.samples,
            rng_seed=cfg.covariance.seed,
            rank_threshold=cfg.covariance.rank_threshold,
        )
        u, _ = simloc.channel.reduce_subspace(cov, l_fixed=cfg.outputs)
        self.net = simloc.multiport.build_sim_network(sim_geom, rx_geom, cfg.impedance)
        self.target = u.conj().T
        self.ocfg = replace(cfg.optimizer, max_iters=PAPER_MAX_ITERS, trace_every=0)
        self.trace = None

    def run(self) -> None:
        self.trace = simloc.simopt.optimize(self.net, self.target, self.ocfg)

    def checks(self):
        def reciprocity():
            v_col = simloc.multiport.effective_projection_matrix(self.net)
            v_row = simloc.multiport.effective_projection_rowsolve(self.net)
            rel = float(np.linalg.norm(v_col - v_row) / np.linalg.norm(v_col))
            return rel <= RECIPROCITY_RTOL, f"relative difference {rel:.3e}"

        def phases_finite():
            eta = self.trace.final_eta
            return eta is not None and bool(np.isfinite(eta).all()), f"{eta.size} phases"

        return [
            _check("column-solve V equals row-solve V", reciprocity),
            _check("final phases are finite", phases_finite),
        ]


WORKLOADS = {
    "desk-pipeline": DeskPipeline,
    "desk-sweep": DeskSweep,
    "paper-config": PaperConfig,
}
