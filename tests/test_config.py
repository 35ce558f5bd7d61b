import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from simloc.config import load_config, load_preset, parse_config
from simloc.errors import ConfigurationError
from simloc.geometry import build_sim_geometry


def minimal_doc():
    return {
        "geometry": {"k_y": 8, "k_z": 1, "layers": 2, "carrier_frequency_hz": 28e9},
        "region": {"distance_m": 0.5, "bearing_rad": 0.0, "diameter_m": 0.2},
        "reduction": {"outputs": 3},
    }


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(minimal_doc())
        assert cfg.outputs == 3
        assert cfg.target_delta_u == 0.1
        assert cfg.snr_db == (0.0, 10.0)
        assert cfg.gain.shadowing_std_db == 3.0
        assert cfg.sweep.bearings_rad == pytest.approx((0.0, np.pi / 6, np.pi / 3))
        assert cfg.geometry.receiver_elements == 3

    def test_unknown_key_named_in_error(self):
        for block, key in (
            ("geometry", "k_w"),
            ("optimizer", "method"),
            ("localizer", "refine_iters"),
        ):
            doc = minimal_doc()
            doc.setdefault(block, {})[key] = 4
            with pytest.raises(ConfigurationError, match=f"{block}.{key}"):
                parse_config(doc)

    def test_target_delta_u_has_one_source(self):
        # the scenario reads the optimizer's target, so replacing it there
        # leaves no stale copy behind
        cfg = parse_config(minimal_doc())
        cfg = replace(cfg, optimizer=replace(cfg.optimizer, target_delta_u=0.05))
        assert cfg.target_delta_u == 0.05
        with pytest.raises(TypeError):
            replace(cfg, target_delta_u=0.2)

    def test_underscore_keys_ignored(self):
        doc = minimal_doc()
        doc["_note"] = "hello"
        doc["geometry"]["_why"] = "because"
        parse_config(doc)

    def test_missing_required_key_named(self):
        doc = minimal_doc()
        del doc["region"]["distance_m"]
        with pytest.raises(ConfigurationError, match="region.distance_m"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("covariance", "samples", 1.5),
            ("geometry", "k_y", True),
            ("impedance", "x0", "50"),
            ("impedance", "z_self", ["73", 42.5]),
            ("noise", "snr_db", 5.0),
            ("sweep", "distances_m", [0.5, None]),
            ("optimizer", "complement_weights", [0.0, "0.2"]),
        ],
    )
    def test_mistyped_value_named_in_error(self, block, key, value):
        doc = minimal_doc()
        doc.setdefault(block, {})[key] = value
        with pytest.raises(ConfigurationError, match=f"{block}.{key}"):
            parse_config(doc)

    def test_integral_float_accepted_for_integer_key(self):
        doc = minimal_doc()
        doc["covariance"] = {"samples": 1500.0}
        assert parse_config(doc).covariance.samples == 1500

    def test_rejects_bad_sweep_mode(self):
        doc = minimal_doc()
        doc["sweep"] = {"distances_m": [0.5], "sim": "maybe"}
        with pytest.raises(ConfigurationError):
            parse_config(doc)

    def test_noise_variance_from_snr(self):
        cfg = parse_config(minimal_doc())
        s2_0 = cfg.noise_variance(0.0)
        s2_10 = cfg.noise_variance(10.0)
        assert s2_0 == pytest.approx(cfg.gain.mean_square_gain, rel=1e-12)
        assert s2_0 / s2_10 == pytest.approx(10.0, rel=1e-12)

    def test_complex_fields(self):
        doc = minimal_doc()
        doc["impedance"] = {"z_self": [50.0, 20.0], "gamma": 15.0}
        cfg = parse_config(doc)
        assert cfg.impedance.z_self == 50.0 + 20.0j
        assert cfg.impedance.gamma == 15.0 + 0j

    def test_file_provider_requires_path(self):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "file"}
        with pytest.raises(ConfigurationError, match="impedance.file"):
            parse_config(doc)

    def test_analytic_provider_rejects_file(self):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "analytic", "file": "z.cmat"}
        with pytest.raises(ConfigurationError, match="impedance.file"):
            parse_config(doc)
        del doc["impedance"]["provider"]  # analytic is the default
        with pytest.raises(ConfigurationError, match="impedance.file"):
            parse_config(doc)


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    parse_config(json.loads(blocks[0]))


class TestPresets:
    def test_desk_scale_loads(self):
        cfg = load_preset("desk-scale")
        assert cfg.outputs == 4
        sim, rx = build_sim_geometry(cfg.geometry)
        assert sim.total_elements == 48
        assert rx.total_elements == 4

    def test_paper_scale_matches_stated_scalars(self):
        cfg = load_preset("paper-scale")
        sim, rx = build_sim_geometry(cfg.geometry)
        assert sim.total_elements == 1792
        assert sim.aperture == pytest.approx(0.32, rel=1e-9)
        assert cfg.outputs == 6
        assert cfg.region.diameter_m == 0.6

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            load_preset("galactic-scale")


class TestLoadConfig:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_doc()))
        cfg = load_config(path)
        assert cfg.outputs == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(path)

    def test_missing_impedance_file(self, tmp_path):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "file", "file": "zss.cmat"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="zss.cmat"):
            load_config(path)

    def test_impedance_file_resolved_beside_config(self, tmp_path):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "file", "file": "zss.cmat"}
        (tmp_path / "zss.cmat").write_text("# cmatrix 0 0\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.impedance_file == str(tmp_path / "zss.cmat")
        doc["impedance"]["file"] = cfg.impedance_file
        assert cfg == parse_config(doc)
