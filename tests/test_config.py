import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc.cli import main
from simloc.config import (
    _BLOCKS,
    CovarianceConfig,
    ScenarioConfig,
    load_config,
    load_preset,
    parse_config,
)
from simloc.errors import ConfigurationError
from simloc.geometry import GainModel, build_sim_geometry
from simloc.localizer import LocalizerConfig
from simloc.multiport import ImpedanceParams
from simloc.simopt import OptimizerConfig


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

    def test_minimal_document_blocks_are_dataclass_defaults(self):
        # every default lives on the dataclass its block lands in
        cfg = parse_config(minimal_doc())
        assert cfg.gain == GainModel()
        assert cfg.covariance == CovarianceConfig()
        assert cfg.impedance == ImpedanceParams()
        assert cfg.optimizer == OptimizerConfig()
        assert cfg.localizer == LocalizerConfig()

    def test_restarts_held_by_optimizer_settings(self):
        doc = minimal_doc()
        doc["optimizer"] = {"restarts": 2, "seed": 4}
        cfg = parse_config(doc)
        assert (cfg.optimizer.restarts, cfg.optimizer.rng_seed) == (2, 4)
        for value in (0, -1):
            doc["optimizer"]["restarts"] = value
            with pytest.raises(ConfigurationError, match="optimizer.restarts"):
                parse_config(doc)

    def test_null_means_absent_only_for_lists_pairs_and_strings(self):
        doc = minimal_doc()
        doc["noise"] = {"snr_db": None}
        doc["impedance"] = {"provider": None, "z_self": None, "file": None}
        doc["sweep"] = {"distances_m": None, "sim": None}
        cfg = parse_config(doc)
        assert cfg.snr_db == (0.0, 10.0)
        assert cfg.impedance == ImpedanceParams() and cfg.impedance_file is None
        assert cfg.sweep.distances_m == (0.5,) and cfg.sweep.sim == "optimize"
        for block, key in (("covariance", "samples"), ("region", "bearing_rad")):
            doc = minimal_doc()
            doc.setdefault(block, {})[key] = None
            with pytest.raises(ConfigurationError, match=f"{block}.{key}"):
                parse_config(doc)

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
            pytest.param("gain", "mean_gain", 10**400, id="gain-mean_gain-10**400"),
            # out of range
            ("geometry", "carrier_frequency_hz", 0.0),
            ("geometry", "element_spacing_m", -1e-3),
            ("region", "distance_m", 0.0),
            ("region", "diameter_m", -0.1),
            ("gain", "shadowing_std_db", -1.0),
            ("gain", "mean_gain", 0.0),
            ("reduction", "outputs", 0),
            ("reduction", "target_delta_u", -0.1),
            ("noise", "snr_db", []),
            ("covariance", "samples", 0),
            ("impedance", "z_self", [-1.0, 5.0]),
            ("impedance", "x0", 0.0),
            ("localizer", "coarse_grid", 1),
            ("covariance", "seed", -1),
            ("optimizer", "seed", -1),
            ("sweep", "seed", -1),
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


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_KNOWN_KEYS = [(block, key) for block, kinds in _BLOCKS.items() for key in kinds]


@settings(max_examples=200, deadline=None)
@given(where=st.sampled_from(_KNOWN_KEYS), value=_JSON_VALUES)
def test_any_value_at_any_key_parses_or_names_the_key(where, value):
    block, key = where
    doc = minimal_doc()
    doc.setdefault(block, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = load_config(path)
        except ConfigurationError as exc:
            assert f"{block}.{key}" in str(exc)
        else:
            assert isinstance(cfg, ScenarioConfig)


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

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(path)

    def test_missing_impedance_file(self, tmp_path):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "file", "file": "zss.cmat"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="zss.cmat"):
            load_config(path)

    @pytest.mark.parametrize("value", [5, ["z.cmat"], True])
    def test_non_string_impedance_file_is_config_error(self, tmp_path, value):
        doc = minimal_doc()
        doc["impedance"] = {"provider": "file", "file": value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="impedance.file"):
            load_config(path)
        assert main(["covariance", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

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
