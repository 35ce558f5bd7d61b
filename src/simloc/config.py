"""Declarative scenario configuration.

Scenarios are JSON files with one object per block (geometry, region, gain,
reduction, noise, covariance, impedance, optimizer, localizer, sweep). Keys
starting with an underscore are ignored everywhere, so files can carry
comments. Validation is strict: unknown keys and out-of-range values fail
with the offending key named.

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
    target_delta_u: float
    snr_db: Tuple[float, ...]
    covariance: CovarianceConfig
    impedance: ImpedanceParams
    impedance_file: Optional[str]
    optimizer: OptimizerConfig
    optimizer_restarts: int
    localizer: LocalizerConfig
    sweep: SweepConfig

    def noise_variance(self, snr_db: float) -> float:
        """Interference power for a given SNR, defined against the average
        received signal energy per element (E|h_k|^2 = sigma_G^2)."""
        return self.gain.mean_square_gain * 10.0 ** (-snr_db / 10.0)


def _check_keys(block: dict, allowed: Sequence[str], where: str) -> None:
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


def _positive(value, where):
    if value is None:
        return None
    if value <= 0:
        raise ConfigurationError(f"{where} must be positive")
    return value


def _complex_field(raw, where) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(raw[0], raw[1])
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
            "receiver_elements",
            "element_spacing_m",
            "layer_spacing_m",
            "receiver_spacing_m",
            "receiver_offset_m",
        ],
        "geometry",
    )
    reduction = _get(doc, "reduction", default={}, where="config")
    _check_keys(reduction, ["outputs", "target_delta_u"], "reduction")
    outputs = int(_get(reduction, "outputs", required=True, where="reduction"))
    target_delta_u = float(_get(reduction, "target_delta_u", default=0.1, where="reduction"))
    if outputs < 1:
        raise ConfigurationError("reduction.outputs must be at least 1")
    if target_delta_u < 0:
        raise ConfigurationError("reduction.target_delta_u must be nonnegative")

    geometry = GeometryConfig(
        k_y=int(_get(geo, "k_y", required=True, where="geometry")),
        k_z=int(_get(geo, "k_z", required=True, where="geometry")),
        layers=int(_get(geo, "layers", required=True, where="geometry")),
        carrier_frequency_hz=float(
            _positive(_get(geo, "carrier_frequency_hz", required=True, where="geometry"),
                      "geometry.carrier_frequency_hz")
        ),
        receiver_elements=outputs,
        element_spacing=_positive(_get(geo, "element_spacing_m"), "geometry.element_spacing_m"),
        layer_spacing=_positive(_get(geo, "layer_spacing_m"), "geometry.layer_spacing_m"),
        receiver_spacing=_positive(
            _get(geo, "receiver_spacing_m"), "geometry.receiver_spacing_m"
        ),
        receiver_offset=_positive(_get(geo, "receiver_offset_m"), "geometry.receiver_offset_m"),
    )

    reg = _get(doc, "region", required=True, where="config")
    _check_keys(reg, ["distance_m", "bearing_rad", "diameter_m"], "region")
    region = RegionConfig(
        distance_m=float(_positive(_get(reg, "distance_m", required=True, where="region"),
                                   "region.distance_m")),
        bearing_rad=float(_get(reg, "bearing_rad", default=0.0, where="region")),
        diameter_m=float(_get(reg, "diameter_m", required=True, where="region")),
    )
    if region.diameter_m < 0:
        raise ConfigurationError("region.diameter_m must be nonnegative")

    gain_block = _get(doc, "gain", default={}, where="config")
    _check_keys(gain_block, ["shadowing_std_db", "mean_gain"], "gain")
    gain = GainModel(
        shadowing_std_db=float(_get(gain_block, "shadowing_std_db", default=3.0)),
        mean_gain=float(_get(gain_block, "mean_gain", default=1.0)),
    )

    noise = _get(doc, "noise", default={}, where="config")
    _check_keys(noise, ["snr_db"], "noise")
    snr_db = tuple(float(s) for s in _get(noise, "snr_db", default=[0.0, 10.0]))
    if not snr_db:
        raise ConfigurationError("noise.snr_db must not be empty")

    cov_block = _get(doc, "covariance", default={}, where="config")
    _check_keys(cov_block, ["samples", "rank_threshold", "seed"], "covariance")
    covariance = CovarianceConfig(
        samples=int(_get(cov_block, "samples", default=20000)),
        rank_threshold=float(_get(cov_block, "rank_threshold", default=1e-6)),
        seed=int(_get(cov_block, "seed", default=1234)),
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
        beta=float(_get(imp, "beta", default=60.0)),
        gamma=_complex_field(_get(imp, "gamma", default=[20.0, 0.0]), "impedance.gamma"),
        x0=float(_get(imp, "x0", default=50.0)),
        port_offset_wavelengths=float(_get(imp, "port_offset_wavelengths", default=0.375)),
    )

    opt = _get(doc, "optimizer", default={}, where="config")
    _check_keys(opt, ["max_iters", "complement_weights", "restarts", "seed"], "optimizer")
    optimizer = OptimizerConfig(
        max_iters=int(_get(opt, "max_iters", default=4000)),
        target_delta_u=target_delta_u,
        rng_seed=int(_get(opt, "seed", default=0)),
        complement_weights=tuple(
            float(w) for w in _get(opt, "complement_weights", default=[0.0, 0.1, 0.2])
        ),
    )
    optimizer_restarts = int(_get(opt, "restarts", default=5))
    if optimizer_restarts < 1:
        raise ConfigurationError("optimizer.restarts must be positive")

    loc = _get(doc, "localizer", default={}, where="config")
    _check_keys(loc, ["coarse_grid", "refine_iters", "refine_shrink"], "localizer")
    localizer = LocalizerConfig(
        coarse_grid=int(_get(loc, "coarse_grid", default=64)),
        refine_iters=int(_get(loc, "refine_iters", default=6)),
        refine_shrink=float(_get(loc, "refine_shrink", default=0.5)),
    )

    sweep_block = _get(doc, "sweep", default={}, where="config")
    _check_keys(
        sweep_block,
        ["distances_m", "bearings_rad", "snr_db", "trials", "seed", "workers", "sim"],
        "sweep",
    )
    raw_snr = _get(sweep_block, "snr_db")
    sweep = SweepConfig(
        distances_m=tuple(
            float(d) for d in _get(sweep_block, "distances_m", default=[region.distance_m])
        ),
        bearings_rad=tuple(
            float(b) for b in _get(sweep_block, "bearings_rad", default=list(_DEFAULT_BEARINGS))
        ),
        snr_db=None if raw_snr is None else tuple(float(s) for s in raw_snr),
        trials=int(_get(sweep_block, "trials", default=2000)),
        seed=int(_get(sweep_block, "seed", default=7)),
        workers=int(_get(sweep_block, "workers", default=1)),
        sim=_get(sweep_block, "sim", default="optimize"),
    )

    return ScenarioConfig(
        geometry=geometry,
        region=region,
        gain=gain,
        outputs=outputs,
        target_delta_u=target_delta_u,
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
