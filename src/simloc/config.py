"""Declarative scenario configuration.

Scenarios are JSON files with one object per block (geometry, region, gain,
reduction, noise, covariance, impedance, optimizer, localizer, sweep). Keys
starting with an underscore are ignored everywhere, so files can carry
comments.

One block reader checks a block's keys against the table ``_BLOCKS`` of key
-> kind and returns only the keys the file sets; the block then becomes its
dataclass (``GainModel(**block)``). So every default lives on that
dataclass and every range check in its ``__post_init__``; only
``noise.snr_db`` and ``sweep.distances_m`` (the region distance) default
here. ``impedance.file``, when set, selects the file provider. Unknown keys,
mistyped values (null where a number is due among them) and out-of-range
values fail with the key named; a null list, pair or string means the key
is absent.

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
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .geometry import GainModel, GeometryConfig, UncertaintyRegion, region_at
from .localizer import LocalizerConfig
from .multiport import ImpedanceParams
from .simopt import OptimizerConfig

PRESETS = ("desk-scale", "paper-scale")


@dataclass(frozen=True)
class RegionConfig:
    distance_m: float
    diameter_m: float
    bearing_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ConfigurationError("region.distance_m must be positive")
        if self.diameter_m < 0:
            raise ConfigurationError("region.diameter_m must be nonnegative")
        if np.cos(self.bearing_rad) <= 0:
            raise ConfigurationError("region.bearing_rad must have cos > 0")

    def build(self) -> UncertaintyRegion:
        return region_at(self.distance_m, self.bearing_rad, self.diameter_m)


@dataclass(frozen=True)
class CovarianceConfig:
    samples: int = 20000
    rank_threshold: float = 1e-6
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ConfigurationError("covariance.samples must be positive")
        if not 0.0 < self.rank_threshold < 1.0:
            raise ConfigurationError("covariance.rank_threshold must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("covariance.seed must be nonnegative")


@dataclass(frozen=True)
class SweepConfig:
    distances_m: Tuple[float, ...]
    bearings_rad: Tuple[float, ...] = (0.0, np.pi / 6, np.pi / 3)
    snr_db: Optional[Tuple[float, ...]] = None  # defaults to the noise block
    trials: int = 2000
    seed: int = 7
    workers: int = 1
    sim: str = "optimize"  # none | optimize; a given phase vector overrides it

    def __post_init__(self) -> None:
        for key in ("distances_m", "bearings_rad", "snr_db"):
            values = getattr(self, key)
            if values is not None and len(values) == 0:
                raise ConfigurationError(f"sweep.{key} must not be empty")
        for i, distance in enumerate(self.distances_m):
            if distance <= 0:
                raise ConfigurationError(f"sweep.distances_m[{i}] must be positive")
        for i, bearing in enumerate(self.bearings_rad):
            if np.cos(bearing) <= 0:
                raise ConfigurationError(f"sweep.bearings_rad[{i}] must have cos > 0")
        if self.sim not in ("none", "optimize"):
            raise ConfigurationError("sweep.sim must be none or optimize")
        if self.trials < 100:
            raise ConfigurationError("sweep.trials must be at least 100")
        if self.workers < 1:
            raise ConfigurationError("sweep.workers must be positive")
        if self.seed < 0:
            raise ConfigurationError("sweep.seed must be nonnegative")


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: GeometryConfig
    region: RegionConfig
    gain: GainModel
    snr_db: Tuple[float, ...]
    covariance: CovarianceConfig
    impedance: ImpedanceParams
    impedance_file: Optional[str]
    optimizer: OptimizerConfig
    localizer: LocalizerConfig
    sweep: SweepConfig

    def __post_init__(self) -> None:
        if self.impedance_file == "":
            raise ConfigurationError("impedance.file must not be empty")
        if self.outputs < 1:
            raise ConfigurationError("reduction.outputs must be at least 1")
        if self.outputs > self.geometry.k_y * self.geometry.k_z:
            raise ConfigurationError(
                "reduction.outputs must not exceed geometry.k_y * geometry.k_z"
            )
        if not self.snr_db:
            raise ConfigurationError("noise.snr_db must not be empty")

    @property
    def outputs(self) -> int:
        """L (``reduction.outputs``), held by the geometry settings: the
        receiver has one element per output."""
        return self.geometry.receiver_elements

    @property
    def target_delta_u(self) -> float:
        """The subspace mismatch target, held by the optimizer settings."""
        return self.optimizer.target_delta_u

    def noise_variance(self, snr_db: float) -> float:
        """Interference power for a given SNR, defined against the average
        received signal energy per element (E|h_k|^2 = sigma_G^2)."""
        return self.gain.mean_square_gain * 10.0 ** (-snr_db / 10.0)


def _number(value, kind: type, where: str):
    """``kind(value)``, kind int or float, for a finite JSON number. Anything
    else (null, a boolean, a string, a list, NaN or an infinity, a fraction
    where an integer is due, or an integer too large for a float) raises
    ConfigurationError naming the key."""
    if kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    else:
        ok = isinstance(value, int) or (isinstance(value, float) and np.isfinite(value))
    if isinstance(value, bool) or not ok:
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{where} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigurationError(f"{where} is out of range, got {value!r}") from None


def _value(value, kind: type, where: str):
    """``value`` read as ``kind``: int, float, complex (a number or an
    [re, im] pair), str, or tuple (a list of numbers). A null pair, string
    or list reads as None, an absent key."""
    if kind in (int, float):
        return _number(value, kind, where)
    if value is None or (kind is str and isinstance(value, str)):
        return value
    if kind is complex and isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], float, where), _number(value[1], float, where))
    if kind is complex and isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, float, where))
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(_number(x, float, f"{where}[{i}]") for i, x in enumerate(value))
    expected = {str: "a string", complex: "a number or [re, im] pair", tuple: "a list of numbers"}
    raise ConfigurationError(f"{where} must be {expected[kind]}, got {value!r}")


# key -> kind of every block
_BLOCKS = {
    "geometry": {
        "k_y": int, "k_z": int, "layers": int, "carrier_frequency_hz": float,
        "element_spacing_m": float, "layer_spacing_m": float,
        "receiver_spacing_m": float, "receiver_offset_m": float,
    },
    "region": {"distance_m": float, "bearing_rad": float, "diameter_m": float},
    "gain": {"shadowing_std_db": float, "mean_gain": float},
    "reduction": {"outputs": int, "target_delta_u": float},
    "noise": {"snr_db": tuple},
    "covariance": {"samples": int, "rank_threshold": float, "seed": int},
    "impedance": {
        "file": str, "z_self": complex, "beta": float, "gamma": complex,
        "x0": float, "port_offset_wavelengths": float,
    },
    "optimizer": {"max_iters": int, "complement_weights": tuple, "restarts": int, "seed": int},
    "localizer": {"coarse_grid": int},
    "sweep": {
        "distances_m": tuple, "bearings_rad": tuple, "snr_db": tuple, "trials": int,
        "seed": int, "workers": int, "sim": str,
    },
}


def _keys(block, allowed: Iterable[str], where: str) -> dict:
    """``block``'s items without the underscore keys; an unknown key, or a
    block that is not an object, raises ConfigurationError."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be an object")
    items = {key: value for key, value in block.items() if not key.startswith("_")}
    for key in items:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {where}.{key}")
    return items


def _block(doc: dict, name: str, required: Sequence[str] = ()) -> dict:
    """The keys block ``name`` sets, each read as its kind in ``_BLOCKS``.
    An absent or null block sets no key."""
    kinds = _BLOCKS[name]
    raw = doc.get(name)
    items = _keys({} if raw is None else raw, kinds, name)
    block = {}
    for key, value in items.items():
        value = _value(value, kinds[key], f"{name}.{key}")
        if value is not None:
            block[key] = value
    for key in required:
        if key not in block:
            raise ConfigurationError(f"missing required key {name}.{key}")
    return block


def parse_config(doc: dict) -> ScenarioConfig:
    _keys(doc, _BLOCKS, "config")
    geometry = _block(doc, "geometry", ("k_y", "k_z", "layers", "carrier_frequency_hz"))
    reduction = _block(doc, "reduction", ("outputs",))
    region = RegionConfig(**_block(doc, "region", ("distance_m", "diameter_m")))

    impedance = _block(doc, "impedance")
    impedance_file = impedance.pop("file", None)

    optimizer = _block(doc, "optimizer")
    if "seed" in optimizer:
        optimizer["rng_seed"] = optimizer.pop("seed")
    if "target_delta_u" in reduction:
        optimizer["target_delta_u"] = reduction["target_delta_u"]

    return ScenarioConfig(
        geometry=GeometryConfig(**geometry, receiver_elements=reduction["outputs"]),
        region=region,
        gain=GainModel(**_block(doc, "gain")),
        snr_db=_block(doc, "noise").get("snr_db", (0.0, 10.0)),
        covariance=CovarianceConfig(**_block(doc, "covariance")),
        impedance=ImpedanceParams(**impedance),
        impedance_file=impedance_file,
        optimizer=OptimizerConfig(**optimizer),
        localizer=LocalizerConfig(**_block(doc, "localizer")),
        sweep=SweepConfig(**{"distances_m": (region.distance_m,), **_block(doc, "sweep")}),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or not UTF-8
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
