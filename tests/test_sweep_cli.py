import csv
import json
import math
import tempfile
from dataclasses import astuple, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.bounds import mismatch_metrics, mse_ratio_bound, noise_inflation
from simloc.channel import estimate_covariance, reduce_subspace, steering_vector
from simloc.cli import EXIT_NUMERICAL, main
from simloc import sweep
from simloc.config import load_config, parse_config
from simloc.estimation import estimator_suite
from simloc.geometry import build_sim_geometry, region_at
from simloc.localizer import LocalizerConfig, localize
from simloc.matio import (
    load_complex_matrix,
    load_csv,
    load_real_vector,
    save_complex_matrix,
    save_real_vector,
)
from simloc.multiport import (
    build_impedance,
    build_sim_network,
    effective_projection_matrix,
    row_orthonormality_gap,
)
from simloc.simopt import calibrate_projection
from simloc.sweep import (
    RECORD_HEADER,
    ResultRecord,
    _cell_seed,
    _localizer_draws,
    _rmse,
    load_records,
    plot_tables,
    run_cell,
    run_sweep,
    save_records,
)


# a scenario whose point model takes milliseconds, for the CLI's error paths
_SMALL_SCENARIO = {
    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
    "reduction": {"outputs": 3},
    "noise": {"snr_db": [5.0]},
    "covariance": {"samples": 500, "seed": 5},
    "optimizer": {"max_iters": 40, "restarts": 1, "seed": 0},
    "sweep": {"trials": 100, "seed": 1},
}


def desk_doc(**overrides):
    """The desk-scale preset document with some keys of its blocks replaced."""
    doc = json.loads(resources.files("simloc.presets").joinpath("desk_scale.json").read_text())
    for block, values in overrides.items():
        doc[block].update(values)
    return doc


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
        # 8 outputs on 8 elements: U^H is square, yet the ideal estimators
        # must still observe U^H r, not r
        for outputs in (3, 8):
            cfg = tiny_scenario(reduction={"outputs": outputs})
            records = run_cell(cfg, 0.25, 0.0, 0, with_localizer=False)
            by_key = {(r.tag, r.metric): r for r in records}
            for tag in ("mmse-ideal", "rsls-ideal", "digital-baseline"):
                exact = by_key[(tag, "mse_exact")].value
                emp = by_key[(tag, "mse_empirical")]
                assert abs(emp.value - exact) <= 3 * emp.stderr + 0.02 * exact, (outputs, tag)

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

    def test_negative_snr_leaves_the_other_snrs_unchanged(self):
        # SeedSequence takes no negative word, so a negative SNR once made
        # the sweep raise ValueError; its draws now seed from its magnitude
        # and a marker, and every other SNR keeps its seeds
        both = run_cell(
            tiny_scenario(noise={"snr_db": [-5.0, 5.0]}, sweep={"trials": 100}), 0.25, 0.0, 0
        )
        alone = run_cell(tiny_scenario(sweep={"trials": 100}), 0.25, 0.0, 0)
        assert [r.row() for r in both if r.snr_db != -5.0] == [r.row() for r in alone]
        negative = [r for r in both if r.snr_db == -5.0]
        assert {r.metric for r in negative} >= {"mse_empirical", "peb_m", "rmse_m"}
        assert all(np.isfinite(r.value) for r in negative)

    def test_eta_cell_uses_file_impedance(self, tmp_path):
        cfg = tiny_scenario()
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
            cal = calibrate_projection(v, u, w_perp=cfg.optimizer.complement_weights[-1])
            return mismatch_metrics(cal.v_scaled, cal.u_basis).delta_u

        assert delta_u == mismatch(load_complex_matrix(z_path))
        assert delta_u != pytest.approx(mismatch(None), rel=1e-3)


    def test_eta_cell_metrics_are_those_of_the_calibrated_projection(self):
        cfg = tiny_scenario()
        sim_geom, rx_geom = build_sim_geometry(cfg.geometry)
        eta = np.random.default_rng(21).uniform(-np.pi, np.pi, sim_geom.total_elements)
        records = run_cell(cfg, 0.25, 0.0, 0, eta=eta, with_localizer=False)
        got = {r.metric: r.value for r in records if r.tag == "sim"}

        cov = estimate_covariance(
            sim_geom,
            region_at(0.25, 0.0, cfg.region.diameter_m),
            cfg.gain,
            n_samples=cfg.covariance.samples,
            rng_seed=_cell_seed(cfg.covariance.seed, 0),
            rank_threshold=cfg.covariance.rank_threshold,
        )
        u, _ = reduce_subspace(cov, l_fixed=cfg.outputs)
        net = build_sim_network(sim_geom, rx_geom, cfg.impedance, eta=eta)
        cal = calibrate_projection(
            effective_projection_matrix(net), u, w_perp=cfg.optimizer.complement_weights[-1]
        )
        m = mismatch_metrics(cal.v_scaled, cal.u_basis)
        assert got == {
            "delta_u": m.delta_u,
            "delta_rel": m.delta_rel,
            "row_gap": row_orthonormality_gap(cal.v_scaled),
        }


class TestLocalizerRmse:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(2, 6),
        log_sigma=st.floats(-5.0, -1.0),
    )
    def test_equals_per_trial_loop(self, seed, trials, log_sigma):
        cfg = replace(tiny_scenario(), localizer=LocalizerConfig(coarse_grid=10))
        geom, _ = build_sim_geometry(cfg.geometry)
        region = region_at(0.25, 0.3, 0.15)
        sigma_n2 = 10.0**log_sigma
        # one localize call per trial, drawing theta then the noise
        rng = np.random.default_rng(seed)
        center = np.array(region.center)
        k = geom.elements_per_layer
        a = steering_vector(geom, center)
        sq = np.empty(trials)
        for t in range(trials):
            theta = rng.random() * 2.0 * np.pi
            h = cfg.gain.mean_gain * np.exp(1j * theta) * a
            noise = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(sigma_n2)
            (p_hat,), _ = localize((h + noise)[None], geom, region, cfg.localizer)
            sq[t] = float(np.sum((p_hat - center) ** 2))
        expected = (float(np.sqrt(sq.mean())), float(sq.std(ddof=1) / np.sqrt(trials)))
        h_hat = _localizer_draws(geom, region, cfg, sigma_n2, trials, seed)
        p_hats, _ = localize(h_hat, geom, region, cfg.localizer)
        assert _rmse(p_hats, center) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(2, 40),
        log_sigmas=st.lists(st.floats(-5.0, 0.0), min_size=4, max_size=4),
    )
    def test_one_cell_call_equals_per_batch_calls(self, seed, trials, log_sigmas):
        # run_cell localizes its (SNR, tag) batches in one call; each batch's
        # rows come out as they do from a call of their own
        cfg = tiny_scenario()
        geom, _ = build_sim_geometry(cfg.geometry)
        region = region_at(0.25, 0.3, 0.15)
        batches = [
            _localizer_draws(geom, region, cfg, 10.0**log_sigma, trials, seed + i)
            for i, log_sigma in enumerate(log_sigmas)
        ]
        p_all, s_all = localize(np.concatenate(batches), geom, region, cfg.localizer)
        for i, batch in enumerate(batches):
            p_one, s_one = localize(batch, geom, region, cfg.localizer)
            np.testing.assert_array_equal(p_all[i * trials : (i + 1) * trials], p_one)
            np.testing.assert_array_equal(s_all[i * trials : (i + 1) * trials], s_one)


# The record file's layout before its columns were declared on ResultRecord,
# kept as the reference the declared form must reproduce byte for byte.
_REFERENCE_HEADER = [
    "scenario_id", "tag", "distance_m", "bearing_rad", "snr_db", "metric", "value",
    "stderr", "provenance",
]


def _reference_row(r):
    return [
        r.scenario_id, r.tag, repr(r.distance_m), repr(r.bearing_rad), repr(r.snr_db),
        r.metric, repr(r.value), repr(r.stderr), r.provenance,
    ]


# Python 3.10's csv reader rejects NUL, and a lone surrogate has no UTF-8 form
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8
)
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_RECORDS = st.lists(
    st.builds(
        ResultRecord, scenario_id=_TEXT, tag=_TEXT, distance_m=_FLOAT, bearing_rad=_FLOAT,
        snr_db=_FLOAT, metric=_TEXT, value=_FLOAT, stderr=_FLOAT, provenance=_TEXT,
    ),
    max_size=6,
)


class TestRecordsIo:
    @settings(max_examples=100, deadline=None)
    @given(records=_RECORDS)
    def test_codec_round_trip_and_reference_bytes(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "records.csv", Path(tmp) / "reference.csv"
            save_records(path, records)
            with open(reference, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_REFERENCE_HEADER)
                writer.writerows(_reference_row(r) for r in records)
            assert path.read_bytes() == reference.read_bytes()
            loaded = load_records(path)
        assert [r.row() for r in loaded] == [r.row() for r in records]
        for got, want in zip(loaded, records):
            assert all(
                x == y or (x != x and y != y) for x, y in zip(astuple(got), astuple(want))
            )

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

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["is-a-file", "parent-is-a-file"])
    def test_out_dir_through_a_file_is_config_error(self, tmp_path, capsys, sub):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL_SCENARIO))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / sub if sub else taken
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"region": {}}))
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "optimizer",
        [
            {"complement_weights": []},
            {"max_iters": 0},
            {"complement_weights": [-0.1, 0.2]},
            {"complement_weights": [0.0, 1.5]},
        ],
        ids=["empty-weights", "zero-iters", "negative-weight", "weight-above-one"],
    )
    def test_out_of_range_optimizer_is_config_error(self, tmp_path, optimizer):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3},
                    "optimizer": optimizer,
                }
            )
        )
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("optimizer", "max_iters", "many"),
            ("sweep", "trials", [1]),
            ("impedance", "beta", None),
            ("covariance", "seed", -1),
            ("optimizer", "seed", -1),
            ("sweep", "seed", -1),
            ("covariance", "rank_threshold", 2.0),
            ("sweep", "distances_m", [0.3, -0.3]),
            ("sweep", "bearings_rad", [0.0, 2.0]),
            ("reduction", "outputs", 9),
            ("noise", "snr_db", [float("nan")]),
        ],
        ids=[
            "string-iters", "list-trials", "null-beta",
            "negative-covariance-seed", "negative-optimizer-seed", "negative-sweep-seed",
            "rank-threshold-above-one", "sweep-distance-negative", "sweep-bearing-behind-array",
            "outputs-above-elements", "nan-snr",
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, block, key, value):
        doc = {
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            block: {key: value},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("geometry", "receiver_elements", 7),
            ("sweep", "distances_m", []),
            ("sweep", "bearings_rad", []),
            ("sweep", "snr_db", []),
        ],
        ids=["receiver-elements", "no-distances", "no-bearings", "no-sweep-snrs"],
    )
    def test_ignored_or_empty_setting_is_config_error(self, tmp_path, capsys, block, key, value):
        # the receiver count is reduction.outputs; an empty sweep axis
        # would run an empty or partial sweep
        doc = {
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            "sweep": {"trials": 100},
        }
        doc[block][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["covariance", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key}" in err
        assert "Traceback" not in err

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        # --seed -1 maps to covariance.seed 0 and optimizer.seed 1, so only
        # sweep.seed would go negative: the error names the flag
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL_SCENARIO))
        code = main(["covariance", "--config", str(cfg_path), "--seed", "-1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "sweep.seed" not in err
        assert "Traceback" not in err

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
        assert json.loads((out / "optimize_report.json").read_text())["stopped_on_target"] is False

    def test_optimize_sim_reports_stop_rule(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3, "target_delta_u": 0.1},
                    "covariance": {"samples": 500, "seed": 5},
                    "optimizer": {"max_iters": 1000, "restarts": 2, "seed": 0},
                }
            )
        )
        out = tmp_path / "opt"
        assert main(["optimize-sim", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["stopped_on_target"] is True
        assert report["delta_u"] <= 0.1
        assert report["noise_inflation"] <= mse_ratio_bound(0.1)
        rho = noise_inflation(
            load_complex_matrix(out / "projection.cmat"),
            load_complex_matrix(out / "subspace_matched.cmat"),
        )
        assert report["noise_inflation"] == pytest.approx(rho, rel=1e-12)

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

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_singular_full_array_mmse_is_numerical_error(self, tmp_path, capsys, command):
        # K = 2, a point region, 200 dB and a gain of 1e8: sigma_z^2 ~ 1e-4
        # against lambda_1 ~ 2.5e16 makes R_h + sigma_z^2 I singular in floats
        doc = desk_doc(
            geometry={"k_y": 2, "layers": 2}, reduction={"outputs": 2},
            region={"diameter_m": 0.0}, noise={"snr_db": [200.0]}, gain={"mean_gain": 1e8},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert len(err.strip().splitlines()) == 1
        assert "digital-baseline" in err

    @pytest.mark.parametrize(
        "argv, snr_db",
        [(["bounds"], 140.0), (["sweep", "--no-sim", "--no-localizer"], 200.0)],
        ids=["bounds-140dB", "sweep-200dB"],
    )
    def test_exact_estimate_residual_is_numerical_error(self, tmp_path, capsys, argv, snr_db):
        # at a point region the exact MMSE residual over K rounds to <= 0:
        # a numerical outcome of a legal document, not a configuration error
        # (the sweep's PEB needs no localizer, which a point region refuses)
        doc = desk_doc(
            region={"diameter_m": 0.0}, noise={"snr_db": [snr_db]},
            sweep={"distances_m": [0.4], "bearings_rad": [0.0], "trials": 100},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main([*argv, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert len(err.strip().splitlines()) == 1
        assert "position error bound" in err

    def test_bounds_peb_noise_is_exact_mmse_residual(self, tmp_path):
        # bounds must map the same residual into the PEB as the sweep does:
        # the implemented MMSE estimator's exact MSE per element
        doc = {
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            "noise": {"snr_db": [0.0, 10.0]},
            "covariance": {"samples": 800, "seed": 5},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = load_config(cfg_path)
        sim_geom, _ = build_sim_geometry(cfg.geometry)
        cov = estimate_covariance(
            sim_geom, cfg.region.build(), cfg.gain, n_samples=800, rng_seed=5,
            rank_threshold=cfg.covariance.rank_threshold,
        )
        u, d = reduce_subspace(cov, l_fixed=cfg.outputs)
        # an imperfect surface, so that exact and analytic MSE differ
        rng = np.random.default_rng(4)
        v = u.conj().T + 0.2 * (rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
        proj_path = tmp_path / "v.cmat"
        save_complex_matrix(proj_path, v)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", str(cfg_path), "--projection", str(proj_path),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "bounds_report.json").read_text())
        cal = calibrate_projection(v, u, w_perp=cfg.optimizer.complement_weights[-1])
        for row, snr in zip(report["peb"], cfg.snr_db):
            suite = estimator_suite(
                cov, u, d, cfg.noise_variance(snr), (cal.v_scaled, cal.u_basis)
            )
            mmse = suite["mmse-sim"]
            assert mmse.analytic_mse != pytest.approx(mmse.exact_mse(), rel=1e-3)
            assert row["sigma_n2"] == mmse.exact_mse() / cov.dim

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

    def test_sweep_eta_mode_is_not_a_setting(self, tmp_path, capsys):
        # given phases set the surface; "eta" is no value of sweep.sim, even
        # alongside --eta
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            "noise": {"snr_db": [5.0]},
            "covariance": {"samples": 500, "seed": 5},
            "sweep": {"distances_m": [0.3], "bearings_rad": [0.0], "trials": 100,
                      "seed": 1, "sim": "eta"},
        }))
        eta_path = tmp_path / "eta.rvec"
        save_real_vector(eta_path, np.zeros(16))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--eta", str(eta_path),
                     "--no-localizer", "--out-dir", str(out)])
        assert code == 2
        assert "sweep.sim" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_sweep_rejects_eta_with_no_sim(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
            "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
            "reduction": {"outputs": 3},
            "noise": {"snr_db": [5.0]},
            "covariance": {"samples": 500, "seed": 5},
            "sweep": {"distances_m": [0.3], "bearings_rad": [0.0], "trials": 100, "seed": 1},
        }))
        eta_path = tmp_path / "eta.rvec"
        save_real_vector(eta_path, np.zeros(16))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--eta", str(eta_path), "--no-sim",
                     "--no-localizer", "--out-dir", str(out)])
        assert code == 2
        assert "give either --eta or --no-sim" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--eta", None),  # the file does not exist
            ("--eta", "# rvector 16\n0.1\n0.2\n"),  # truncated
            ("--eta", "# rvector 2\n0.1\nnorth\n"),  # non-numeric entry
            ("--projection", "# cmatrix x 2\n0 0 0 0\n"),  # malformed header
        ],
    )
    def test_malformed_input_file_is_config_error(self, tmp_path, capsys, flag, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL_SCENARIO))
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        code = main(["estimate", "--config", str(cfg_path), flag, str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            "d0.3_b0,sim,0.3,zero,nan,x,1,0,a",
            "d0.3_b0,sim,0.3,0.0,nan,x",
            "d0.3_b0,sim,0.3,0.0,nan,x,1,0,a,extra",
            pytest.param("x" * 200_000 + ",sim,0.3,0.0,nan,x,1,0,a", id="oversized-field"),
        ],
    )
    def test_malformed_records_are_config_error(self, tmp_path, capsys, row):
        rec_path = tmp_path / "sweep.csv"
        rec_path.write_text(",".join(RECORD_HEADER) + "\n" + row + "\n")
        code = main(["plot-data", "--records", str(rec_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert str(rec_path) in capsys.readouterr().err

    def test_degenerate_region_keeps_every_retained_mode(self, tmp_path):
        # a point region has lambda_2 / lambda_1 at roundoff, below any
        # rank cutoff; the rank-L model still keeps its L modes, so the
        # L-column estimators match their L-row projections
        cfg_path = tmp_path / "cfg.json"
        doc = json.loads(json.dumps(_SMALL_SCENARIO))
        doc["region"]["diameter_m"] = 0.0
        cfg_path.write_text(json.dumps(doc))
        for command in ("estimate", "bounds"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        report = json.loads((tmp_path / "estimate" / "estimate_report.json").read_text())
        assert {row["estimator"] for row in report} == {
            "mmse-ideal", "rsls-ideal", "digital-baseline"
        }

    def test_overflowing_monte_carlo_mse_is_numerical_error(self, tmp_path, capsys):
        # at a gain of 1e100 the squared errors reach 1e200 and their
        # variance overflows: exit 5, not a report holding Infinity
        doc = json.loads(resources.files("simloc.presets").joinpath("desk_scale.json").read_text())
        doc["gain"]["mean_gain"] = 1e100
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["estimate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "Monte Carlo MSE is not finite" in capsys.readouterr().err
        assert not (tmp_path / "estimate_report.json").exists()

    def test_point_region_localizer_fails_up_front_naming_the_key(
        self, tmp_path, capsys, monkeypatch
    ):
        # the localizer searches the prior region: a point region is refused
        # before the cell's covariance and Monte Carlo work, naming the key
        # and the flag that turns the localizer off
        doc = json.loads(resources.files("simloc.presets").joinpath("desk_scale.json").read_text())
        doc["region"]["diameter_m"] = 0.0
        doc["sweep"].update(distances_m=[0.3], bearings_rad=[0.0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return estimate_covariance(*args, **kwargs)

        monkeypatch.setattr(sweep, "estimate_covariance", counting)
        code = main(["sweep", "--no-sim", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "region.diameter_m" in err and "--no-localizer" in err
        assert calls["n"] == 0

    def test_optimize_sim_with_subspace_estimates_no_covariance(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL_SCENARIO))
        cfg = load_config(cfg_path)
        sim_geom, _ = build_sim_geometry(cfg.geometry)
        cov = estimate_covariance(sim_geom, cfg.region.build(), cfg.gain, n_samples=500)
        sub_path = tmp_path / "u.cmat"
        save_complex_matrix(sub_path, reduce_subspace(cov, l_fixed=cfg.outputs)[0])
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return estimate_covariance(*args, **kwargs)

        monkeypatch.setattr(sweep, "estimate_covariance", counting)
        code = main(["optimize-sim", "--config", str(cfg_path), "--subspace", str(sub_path),
                     "--out-dir", str(tmp_path / "opt")])
        assert code in (0, 4)
        assert (tmp_path / "opt" / "eta.rvec").exists()
        assert calls["n"] == 0


@settings(max_examples=150, deadline=None)
@given(
    k_y=st.integers(1, 4),
    layers=st.integers(1, 2),
    outputs=st.integers(1, 3),
    diameter=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    distance=st.floats(0.01, 5.0),
    bearing=st.floats(-1.5, 1.5),
    snr_db=st.lists(
        st.one_of(st.floats(-300.0, 400.0), st.sampled_from([-300.0, 140.0, 200.0, 300.0])),
        min_size=1, max_size=2,
    ),
    log_gain=st.one_of(st.floats(-150.0, 150.0), st.sampled_from([-100.0, 0.0, 8.0, 100.0])),
    shadowing_db=st.floats(0.0, 30.0),
    log_x0=st.floats(-12.0, 12.0),
    samples=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_tiny_scenarios_end_in_a_documented_exit(
    k_y, layers, outputs, diameter, distance, bearing, snr_db, log_gain, shadowing_db, log_x0,
    samples, seed,
):
    # every command on any tiny scenario ends in 0, 2, 3, 4 or 5; anything
    # else escapes main() and fails the test with its traceback
    doc = {
        "geometry": {"k_y": k_y, "k_z": 1, "layers": layers, "carrier_frequency_hz": 28e9},
        "region": {"distance_m": distance, "bearing_rad": bearing, "diameter_m": diameter},
        "gain": {"mean_gain": 10.0**log_gain, "shadowing_std_db": shadowing_db},
        "reduction": {"outputs": outputs},
        "noise": {"snr_db": snr_db},
        "covariance": {"samples": samples, "seed": seed},
        "impedance": {"x0": 10.0**log_x0},
        "sweep": {"bearings_rad": [bearing], "trials": 100, "seed": seed},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, eta_path = Path(tmp) / "cfg.json", Path(tmp) / "eta.rvec"
        cfg_path.write_text(json.dumps(doc))
        rng = np.random.default_rng(seed)
        save_real_vector(eta_path, rng.uniform(-np.pi, np.pi, k_y * layers))
        for i, argv in enumerate((
            ["covariance"], ["estimate"], ["bounds"], ["bounds", "--eta", str(eta_path)],
            ["sweep", "--no-sim", "--no-localizer"], ["sweep", "--no-sim"],
        )):
            out = Path(tmp) / f"out{i}"
            code = main([*argv, "--config", str(cfg_path), "--out-dir", str(out)])
            assert code in (0, 2, 3, 4, 5), argv
            if code == 0:  # a success writes only finite MSEs
                assert all(math.isfinite(x) for x in _written_mses(out)), argv


def _written_mses(out: Path) -> list:
    """Every MSE, and its standard error, in a command's estimate report or
    sweep records."""
    values = []
    if (out / "estimate_report.json").exists():
        for row in json.loads((out / "estimate_report.json").read_text()):
            values += [row["analytic_mse"], row["normalized_analytic_mse"],
                       row["empirical_mse"], row["empirical_stderr"]]
    if (out / "sweep.csv").exists():
        for rec in load_records(out / "sweep.csv"):
            if rec.metric.startswith("mse_"):
                values += [rec.value, rec.stderr]
    return values


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

    def test_optimize_report_mismatch_equals_bounds_eta(self, tmp_path):
        # optimize-sim reports its surface the way bounds --eta measures the
        # saved phases: one calibration, one set of metrics, bit for bit
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
                    "region": {"distance_m": 0.3, "bearing_rad": 0.0, "diameter_m": 0.15},
                    "reduction": {"outputs": 3, "target_delta_u": 0.1},
                    "covariance": {"samples": 500, "seed": 5},
                    "optimizer": {"max_iters": 1000, "restarts": 2, "seed": 0},
                }
            )
        )
        common = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main(["optimize-sim", *common]) == 0
        assert main(["bounds", *common, "--eta", str(tmp_path / "eta.rvec")]) == 0
        optimized = json.loads((tmp_path / "optimize_report.json").read_text())
        measured = json.loads((tmp_path / "bounds_report.json").read_text())["mismatch"]
        for key in ("delta_u", "delta_rel", "row_orthonormality_gap"):
            assert optimized[key] == measured[key], key

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
