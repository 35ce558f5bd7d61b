"""Declarative scenario configuration.

Scenarios are JSON files with one object per block (geometry, region, gain,
reduction, noise, covariance, impedance, optimizer, localizer, sweep). Keys
starting with an underscore are ignored everywhere, so files can carry
comments. Validation is strict: unknown keys, mistyped values and
out-of-range values fail with the offending key named.

Two presets ship with the package: ``desk-scale`` (16x1 elements, 3 layers,
4 outputs), small enough for per-cell surface optimization in tests, and
``paper-scale`` (64x4, 7 layers, 6 outputs, 1792 tunable cells), runnable
but slow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .geometry import GainModel, GeometryConfig, UncertaintyRegion, region_at
from .localizer import LocalizerConfig
from .multiport import ImpedanceParams
from .simopt import OptimizerConfig

PRESETS = ("desk-scale", "paper-scale")

_DEFAULT_BEARINGS = (0.0, np.pi / 6, np.pi / 3)


@dataclass(frozen=True)
class RegionConfig:
    distance_m: float
    bearing_rad: float
    diameter_m: float

    def build(self) -> UncertaintyRegion:
        return region_at(self.distance_m, self.bearing_rad, self.diameter_m)


@dataclass(frozen=True)
class CovarianceConfig:
    samples: int = 20000
    rank_threshold: float = 1e-6
    seed: int = 1234


@dataclass(frozen=True)
class SweepConfig:
    distances_m: Tuple[float, ...]
    bearings_rad: Tuple[float, ...] = _DEFAULT_BEARINGS
    snr_db: Optional[Tuple[float, ...]] = None  # defaults to the noise block
    trials: int = 2000
    seed: int = 7
    workers: int = 1
    sim: str = "optimize"  # none | optimize | eta

    def __post_init__(self) -> None:
        for key in ("distances_m", "bearings_rad", "snr_db"):
            values = getattr(self, key)
            if values is not None and len(values) == 0:
                raise ConfigurationError(f"sweep.{key} must not be empty")
        if self.sim not in ("none", "optimize", "eta"):
            raise ConfigurationError("sweep.sim must be none, optimize, or eta")
        if self.trials < 100:
            raise ConfigurationError("sweep.trials must be at least 100")
        if self.workers < 1:
            raise ConfigurationError("sweep.workers must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: GeometryConfig
    region: RegionConfig
    gain: GainModel
    outputs: int
    snr_db: Tuple[float, ...]
    covariance: CovarianceConfig
    impedance: ImpedanceParams
    impedance_file: Optional[str]
    optimizer: OptimizerConfig
    optimizer_restarts: int
    localizer: LocalizerConfig
    sweep: SweepConfig

    @property
    def target_delta_u(self) -> float:
        """The subspace mismatch target, held by the optimizer settings."""
        return self.optimizer.target_delta_u

    def noise_variance(self, snr_db: float) -> float:
        """Interference power for a given SNR, defined against the average
        received signal energy per element (E|h_k|^2 = sigma_G^2)."""
        return self.gain.mean_square_gain * 10.0 ** (-snr_db / 10.0)


def _check_keys(block: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be an object")
    for key in block:
        if key.startswith("_"):
            continue
        if key not in allowed:
            raise ConfigurationError(f"unknown key {where}.{key}")


def _get(block: dict, key: str, default=None, required=False, where=""):
    if key in block and block[key] is not None:
        return block[key]
    if required:
        raise ConfigurationError(f"missing required key {where}.{key}")
    return default


def _number(value, kind: type, where: str):
    """``kind(value)``, kind int or float, for a JSON number. Anything else
    (null, a boolean, a string, a list, or a fraction where an integer is
    due) raises ConfigurationError naming the key."""
    if kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    else:
        ok = isinstance(value, (int, float))
    if isinstance(value, bool) or not ok:
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{where} must be {expected}, got {value!r}")
    return kind(value)


def _read(block: dict, key: str, kind: type, where: str, default=None, required=False):
    """``block[key]`` through :func:`_number`; an absent key gives ``default``."""
    if key not in block:
        if required:
            raise ConfigurationError(f"missing required key {where}.{key}")
        return default
    return _number(block[key], kind, f"{where}.{key}")


def _read_list(block: dict, key: str, kind: type, where: str, default) -> Optional[tuple]:
    """``block[key]`` as a tuple of numbers; an absent or null key gives
    ``default`` (None stays None)."""
    raw = _get(block, key, default=default)
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)):
        raise ConfigurationError(f"{where}.{key} must be a list of numbers, got {raw!r}")
    return tuple(_number(x, kind, f"{where}.{key}[{i}]") for i, x in enumerate(raw))


def _positive(value, where):
    if value is None:
        return None
    if value <= 0:
        raise ConfigurationError(f"{where} must be positive")
    return value


def _complex_field(raw, where) -> complex:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(_number(raw[0], float, where), _number(raw[1], float, where))
    raise ConfigurationError(f"{where} must be a number or [re, im] pair")


def parse_config(doc: dict) -> ScenarioConfig:
    _check_keys(
        doc,
        [
            "geometry",
            "region",
            "gain",
            "reduction",
            "noise",
            "covariance",
            "impedance",
            "optimizer",
            "localizer",
            "sweep",
        ],
        "config",
    )

    geo = _get(doc, "geometry", required=True, where="config")
    _check_keys(
        geo,
        [
            "k_y",
            "k_z",
            "layers",
            "carrier_frequency_hz",
            "element_spacing_m",
            "layer_spacing_m",
            "receiver_spacing_m",
            "receiver_offset_m",
        ],
        "geometry",
    )
    reduction = _get(doc, "reduction", default={}, where="config")
    _check_keys(reduction, ["outputs", "target_delta_u"], "reduction")
    outputs = _read(reduction, "outputs", int, "reduction", required=True)
    target_delta_u = _read(reduction, "target_delta_u", float, "reduction", default=0.1)
    if outputs < 1:
        raise ConfigurationError("reduction.outputs must be at least 1")
    if target_delta_u < 0:
        raise ConfigurationError("reduction.target_delta_u must be nonnegative")

    def length(key):
        return _positive(_read(geo, key, float, "geometry"), f"geometry.{key}")

    geometry = GeometryConfig(
        k_y=_read(geo, "k_y", int, "geometry", required=True),
        k_z=_read(geo, "k_z", int, "geometry", required=True),
        layers=_read(geo, "layers", int, "geometry", required=True),
        carrier_frequency_hz=_positive(
            _read(geo, "carrier_frequency_hz", float, "geometry", required=True),
            "geometry.carrier_frequency_hz",
        ),
        receiver_elements=outputs,
        element_spacing=length("element_spacing_m"),
        layer_spacing=length("layer_spacing_m"),
        receiver_spacing=length("receiver_spacing_m"),
        receiver_offset=length("receiver_offset_m"),
    )

    reg = _get(doc, "region", required=True, where="config")
    _check_keys(reg, ["distance_m", "bearing_rad", "diameter_m"], "region")
    region = RegionConfig(
        distance_m=_positive(
            _read(reg, "distance_m", float, "region", required=True), "region.distance_m"
        ),
        bearing_rad=_read(reg, "bearing_rad", float, "region", default=0.0),
        diameter_m=_read(reg, "diameter_m", float, "region", required=True),
    )
    if region.diameter_m < 0:
        raise ConfigurationError("region.diameter_m must be nonnegative")

    gain_block = _get(doc, "gain", default={}, where="config")
    _check_keys(gain_block, ["shadowing_std_db", "mean_gain"], "gain")
    gain = GainModel(
        shadowing_std_db=_read(gain_block, "shadowing_std_db", float, "gain", default=3.0),
        mean_gain=_read(gain_block, "mean_gain", float, "gain", default=1.0),
    )

    noise = _get(doc, "noise", default={}, where="config")
    _check_keys(noise, ["snr_db"], "noise")
    snr_db = _read_list(noise, "snr_db", float, "noise", default=[0.0, 10.0])
    if not snr_db:
        raise ConfigurationError("noise.snr_db must not be empty")

    cov_block = _get(doc, "covariance", default={}, where="config")
    _check_keys(cov_block, ["samples", "rank_threshold", "seed"], "covariance")
    covariance = CovarianceConfig(
        samples=_read(cov_block, "samples", int, "covariance", default=20000),
        rank_threshold=_read(cov_block, "rank_threshold", float, "covariance", default=1e-6),
        seed=_read(cov_block, "seed", int, "covariance", default=1234),
    )
    if covariance.samples < 1:
        raise ConfigurationError("covariance.samples must be positive")

    imp = _get(doc, "impedance", default={}, where="config")
    _check_keys(
        imp,
        ["provider", "z_self", "beta", "gamma", "x0", "port_offset_wavelengths", "file"],
        "impedance",
    )
    provider = _get(imp, "provider", default="analytic")
    if provider not in ("analytic", "file"):
        raise ConfigurationError("impedance.provider must be 'analytic' or 'file'")
    impedance_file = _get(imp, "file")
    if provider == "file" and not impedance_file:
        raise ConfigurationError("impedance.file is required for the file provider")
    if provider != "file" and impedance_file is not None:
        raise ConfigurationError("impedance.file is only read by the 'file' provider")
    impedance = ImpedanceParams(
        z_self=_complex_field(_get(imp, "z_self", default=[73.0, 42.5]), "impedance.z_self"),
        beta=_read(imp, "beta", float, "impedance", default=60.0),
        gamma=_complex_field(_get(imp, "gamma", default=[20.0, 0.0]), "impedance.gamma"),
        x0=_read(imp, "x0", float, "impedance", default=50.0),
        port_offset_wavelengths=_read(
            imp, "port_offset_wavelengths", float, "impedance", default=0.375
        ),
    )

    opt = _get(doc, "optimizer", default={}, where="config")
    _check_keys(opt, ["max_iters", "complement_weights", "restarts", "seed"], "optimizer")
    optimizer = OptimizerConfig(
        max_iters=_read(opt, "max_iters", int, "optimizer", default=4000),
        target_delta_u=target_delta_u,
        rng_seed=_read(opt, "seed", int, "optimizer", default=0),
        complement_weights=_read_list(
            opt, "complement_weights", float, "optimizer", default=[0.0, 0.1, 0.2]
        ),
    )
    optimizer_restarts = _read(opt, "restarts", int, "optimizer", default=5)
    if optimizer_restarts < 1:
        raise ConfigurationError("optimizer.restarts must be positive")

    loc = _get(doc, "localizer", default={}, where="config")
    _check_keys(loc, ["coarse_grid"], "localizer")
    localizer = LocalizerConfig(
        coarse_grid=_read(loc, "coarse_grid", int, "localizer", default=64)
    )

    sweep_block = _get(doc, "sweep", default={}, where="config")
    _check_keys(
        sweep_block,
        ["distances_m", "bearings_rad", "snr_db", "trials", "seed", "workers", "sim"],
        "sweep",
    )
    sweep = SweepConfig(
        distances_m=_read_list(
            sweep_block, "distances_m", float, "sweep", default=[region.distance_m]
        ),
        bearings_rad=_read_list(
            sweep_block, "bearings_rad", float, "sweep", default=list(_DEFAULT_BEARINGS)
        ),
        snr_db=_read_list(sweep_block, "snr_db", float, "sweep", default=None),
        trials=_read(sweep_block, "trials", int, "sweep", default=2000),
        seed=_read(sweep_block, "seed", int, "sweep", default=7),
        workers=_read(sweep_block, "workers", int, "sweep", default=1),
        sim=_get(sweep_block, "sim", default="optimize"),
    )

    return ScenarioConfig(
        geometry=geometry,
        region=region,
        gain=gain,
        outputs=outputs,
        snr_db=snr_db,
        covariance=covariance,
        impedance=impedance,
        impedance_file=impedance_file,
        optimizer=optimizer,
        optimizer_restarts=optimizer_restarts,
        localizer=localizer,
        sweep=sweep,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    cfg = parse_config(doc)
    if cfg.impedance_file is not None:
        file_path = Path(cfg.impedance_file)
        if not file_path.is_absolute():
            file_path = path.parent / file_path
        if not file_path.exists():
            raise ConfigurationError(f"impedance.file not found: {file_path}")
        cfg = replace(cfg, impedance_file=str(file_path))
    return cfg


def load_preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {PRESETS}")
    ref = resources.files("simloc.presets").joinpath(name.replace("-", "_") + ".json")
    return parse_config(json.loads(ref.read_text()))
