import json
from dataclasses import replace

import numpy as np
import pytest

from simloc.channel import estimate_covariance, reduce_subspace
from simloc.cli import EXIT_NUMERICAL, main
from simloc.config import parse_config
from simloc.geometry import build_sim_geometry, region_at
from simloc.matio import load_complex_matrix, load_csv, load_real_vector, save_complex_matrix
from simloc.multiport import build_impedance, build_sim_network, effective_projection_matrix
from simloc.simopt import calibrate_projection
from simloc.sweep import (
    RECORD_HEADER,
    _cell_seed,
    load_records,
    plot_tables,
    run_cell,
    run_sweep,
    save_records,
)


def tiny_scenario(**overrides):
    """A sweep scenario small enough for unit tests."""
    doc = {
        "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
        "region": {"distance_m": 0.25, "bearing_rad": 0.0, "diameter_m": 0.15},
        "reduction": {"outputs": 3},
        "noise": {"snr_db": [5.0]},
        "covariance": {"samples": 1500, "seed": 3},
        "optimizer": {"max_iters": 1200, "restarts": 2, "seed": 0},
        "sweep": {
            "distances_m": [0.25],
            "bearings_rad": [0.0],
            "trials": 400,
            "seed": 11,
            "sim": "none",
        },
    }
    for key, val in overrides.items():
        doc[key].update(val)
    return parse_config(doc)


class TestRunCell:
    def test_ideal_cell_records(self):
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        tags = {r.tag for r in records}
        assert {"covariance", "mmse-ideal", "rsls-ideal", "digital-baseline"} <= tags
        assert "mmse-sim" not in tags
        metrics = {(r.tag, r.metric) for r in records}
        assert ("mmse-ideal", "mse_analytic") in metrics
        assert ("mmse-ideal", "mse_exact") in metrics
        assert ("mmse-ideal", "mse_empirical") in metrics
        assert ("mmse-ideal", "peb_m") in metrics

    def test_analytic_matches_empirical_within_3_stderr(self):
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        by_key = {(r.tag, r.metric): r for r in records}
        for tag in ("mmse-ideal", "rsls-ideal", "digital-baseline"):
            exact = by_key[(tag, "mse_exact")].value
            emp = by_key[(tag, "mse_empirical")]
            assert abs(emp.value - exact) <= 3 * emp.stderr + 0.02 * exact

    def test_exact_equals_analytic_for_ideal_projection(self):
        # no leakage with the exact eigenbasis: the rank-L model total and the
        # exact Gaussian error coincide
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        by_key = {(r.tag, r.metric): r.value for r in records}
        for tag in ("mmse-ideal", "rsls-ideal", "digital-baseline"):
            assert by_key[(tag, "mse_exact")] == pytest.approx(
                by_key[(tag, "mse_analytic")], rel=1e-9
            )

    def test_mmse_dominates_rsls(self):
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        by_key = {(r.tag, r.metric): r.value for r in records}
        assert (
            by_key[("mmse-ideal", "mse_analytic")]
            <= by_key[("rsls-ideal", "mse_analytic")] + 1e-9
        )

    def test_determinism_and_order_independence(self):
        cfg = tiny_scenario()
        a = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        b = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        assert [r.row() for r in a] == [r.row() for r in b]

    def test_cells_independent_of_grid_shape(self):
        cfg = tiny_scenario()
        cfg2 = replace(
            cfg, sweep=replace(cfg.sweep, distances_m=(0.25, 0.35), bearings_rad=(0.0,))
        )
        full = run_sweep(cfg2, with_localizer=False)
        solo = run_cell(cfg2, 0.25, 0.0, 0, with_localizer=False)
        full_cell0 = [r for r in full if r.scenario_id == "d0.25_b0"]
        assert [r.row() for r in full_cell0] == [r.row() for r in solo]

    def test_workers_do_not_change_values(self):
        cfg = tiny_scenario()
        cfg2 = replace(
            cfg,
            sweep=replace(
                cfg.sweep, distances_m=(0.25, 0.35), bearings_rad=(0.0,), workers=2
            ),
        )
        seq = run_sweep(replace(cfg2, sweep=replace(cfg2.sweep, workers=1)),
                        with_localizer=False)
        par = run_sweep(cfg2, with_localizer=False)
        assert [r.row() for r in seq] == [r.row() for r in par]

    def test_eta_cell_uses_file_impedance(self, tmp_path):
        cfg = tiny_scenario(sweep={"sim": "eta"})
        sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
        rng = np.random.default_rng(7)
        z = build_impedance(sim_geom, cfg.impedance)
        bump = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        z_file = z + 2.0 * (bump + bump.T)
        z_path = tmp_path / "z.cmat"
        save_complex_matrix(z_path, z_file)
        cfg = replace(cfg, impedance_file=str(z_path))
        eta = rng.uniform(-np.pi, np.pi, sim_geom.total_elements)

        records = run_cell(cfg, 0.25, 0.0, 0, eta=eta, with_localizer=False)
        delta_u = next(r.value for r in records if (r.tag, r.metric) == ("sim", "delta_u"))

        # the cell's basis, and the mismatch of the phases on a given Z_ss
        cov = estimate_covariance(
            sim_geom,
            region_at(0.25, 0.0, cfg.region.diameter_m),
            cfg.gain,
            n_samples=cfg.covariance.samples,
            rng_seed=_cell_seed(cfg.covariance.seed, 0),
            rank_threshold=cfg.covariance.rank_threshold,
        )
        u, _ = reduce_subspace(cov, l_fixed=cfg.outputs)

        def mismatch(z_ss):
            net = build_sim_network(sim_geom, rx_geom, cfg.impedance, z_ss=z_ss, eta=eta)
            v = effective_projection_matrix(net)
            w_perp = cfg.optimizer.complement_weights[-1]
            return calibrate_projection(v, u, w_perp=w_perp).delta_u

        assert delta_u == mismatch(load_complex_matrix(z_path))
        assert delta_u != pytest.approx(mismatch(None), rel=1e-3)


class TestRecordsIo:
    def test_round_trip(self, tmp_path):
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        path = tmp_path / "records.csv"
        save_records(path, records)
        loaded = load_records(path)
        assert [r.row() for r in loaded] == [r.row() for r in records]

    def test_plot_tables_partition_and_round_trip(self, tmp_path):
        cfg = tiny_scenario()
        cfg = replace(
            cfg, sweep=replace(cfg.sweep, bearings_rad=(0.0, np.pi / 6, np.pi / 3))
        )
        records = run_sweep(cfg, with_localizer=False)
        tables = plot_tables(records)
        mse_tables = [k for k in tables if k.startswith("mse_")]
        assert len(mse_tables) == 3  # one per bearing
        # round trip: tables partition the records exactly
        rows_in = sorted(tuple(r.row()) for r in records)
        rows_out = sorted(tuple(r.row()) for recs in tables.values() for r in recs)
        assert rows_in == rows_out

    def test_empty_records_give_headers(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_records(path, [])
        header, rows = load_csv(path)
        assert header == RECORD_HEADER
        assert rows == []


class TestCli:
    def test_covariance_command_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3},
                    "covariance": {"samples": 800, "seed": 5},
                }
            )
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
        assert (out1 / "covariance.cmat").read_bytes() == (out2 / "covariance.cmat").read_bytes()
        assert (out1 / "subspace_u.cmat").read_bytes() == (out2 / "subspace_u.cmat").read_bytes()
        report = json.loads((out1 / "rank_report.json").read_text())
        assert report["elements"] == 8
        u = load_complex_matrix(out1 / "subspace_u.cmat")
        assert u.shape == (8, 3)

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"region": {}}))
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2

    def test_missing_scenario_is_config_error(self, tmp_path):
        assert main(["covariance", "--out-dir", str(tmp_path)]) == 2

    def test_optimize_sim_nonconvergence_exit_code(self, tmp_path):
        # an unreachable delta_U target must exit 4 but still write the trace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3, "target_delta_u": 1e-12},
                    "covariance": {"samples": 500, "seed": 5},
                    "optimizer": {"max_iters": 30, "restarts": 1, "seed": 0},
                }
            )
        )
        out = tmp_path / "opt"
        code = main(["optimize-sim", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 4
        assert (out / "trace.csv").exists()
        assert (out / "eta.rvec").exists()

    def test_optimizer_and_estimator_failures_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3},
                    "noise": {"snr_db": [5.0]},
                    "covariance": {"samples": 500, "seed": 5},
                    "optimizer": {"max_iters": 10, "restarts": 1, "seed": 0},
                    "sweep": {"trials": 100, "seed": 1},
                }
            )
        )
        # a subspace without orthonormal columns: OptimizationError
        sub_path = tmp_path / "u.cmat"
        save_complex_matrix(sub_path, 2.0 * np.eye(8, 3))
        code = main(["optimize-sim", "--config", str(cfg_path), "--subspace", str(sub_path),
                     "--out-dir", str(tmp_path / "opt")])
        assert code == EXIT_NUMERICAL == 5
        # an all-zero projection: EstimationError
        proj_path = tmp_path / "v.cmat"
        save_complex_matrix(proj_path, np.zeros((3, 8)))
        code = main(["estimate", "--config", str(cfg_path), "--projection", str(proj_path),
                     "--out-dir", str(tmp_path / "est")])
        assert code == EXIT_NUMERICAL

    def test_optimize_sim_immediate_with_infinite_target(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3, "target_delta_u": 1e9},
                    "covariance": {"samples": 500, "seed": 5},
                    "optimizer": {"max_iters": 50, "restarts": 1, "seed": 0},
                }
            )
        )
        out = tmp_path / "opt"
        assert main(["optimize-sim", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        header, rows = load_csv(out / "trace.csv")
        assert len(rows) == 1  # initial state only, zero iterations

    def test_plot_data_round_trip(self, tmp_path):
        cfg = tiny_scenario()
        records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
        rec_path = tmp_path / "sweep.csv"
        save_records(rec_path, records)
        out = tmp_path / "figs"
        assert main(["plot-data", "--records", str(rec_path), "--out-dir", str(out)]) == 0
        recovered = []
        for f in out.glob("*.csv"):
            recovered.extend(load_records(f))
        assert sorted(tuple(r.row()) for r in recovered) == sorted(
            tuple(r.row()) for r in records
        )

    def test_plot_data_empty_records(self, tmp_path):
        rec_path = tmp_path / "sweep.csv"
        save_records(rec_path, [])
        out = tmp_path / "figs"
        assert main(["plot-data", "--records", str(rec_path), "--out-dir", str(out)]) == 0
        files = list(out.glob("*.csv"))
        assert files
        for f in files:
            header, rows = load_csv(f)
            assert header == RECORD_HEADER
            assert rows == []

    def test_sweep_eta_mode_requires_eta(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = {
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            "covariance": {"samples": 500, "seed": 5},
            "sweep": {"distances_m": [0.3], "bearings_rad": [0.0], "trials": 200,
                      "seed": 1, "sim": "eta"},
        }
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2


class TestCliPipelines:
    def test_covariance_to_optimize_subspace_flow(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3, "target_delta_u": 1e9},
                    "covariance": {"samples": 800, "seed": 5},
                    "optimizer": {"max_iters": 40, "restarts": 1, "seed": 0},
                }
            )
        )
        cov_out = tmp_path / "cov"
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(cov_out)]) == 0
        opt_out = tmp_path / "opt"
        assert (
            main(
                [
                    "optimize-sim",
                    "--config",
                    str(cfg_path),
                    "--subspace",
                    str(cov_out / "subspace_u.cmat"),
                    "--out-dir",
                    str(opt_out),
                ]
            )
            == 0
        )
        eta = load_real_vector(opt_out / "eta.rvec")
        assert eta.shape == (16,)
        v = load_complex_matrix(opt_out / "projection.cmat")
        assert v.shape == (3, 8)

    def test_paper_preset_covariance_rank_report(self, tmp_path):
        out = tmp_path / "paper"
        assert main(["covariance", "--preset", "paper-scale", "--out-dir", str(out)]) == 0
        report = json.loads((out / "rank_report.json").read_text())
        assert report["elements"] == 256
        assert report["outputs"] == 6
        assert 5 <= report["effective_rank"] <= 8
        assert report["captured_energy_fraction"] > 0.999
        assert 18.5 <= report["fraunhofer_distance_m"] <= 20.5
        assert len(report["eigenvalues_leading"]) >= 8
