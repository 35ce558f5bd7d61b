"""Spatial layout of the metasurface stack, the receiver array, and the
transmitter prior region.

Conventions: layers are stacked along +x, each layer is a uniform planar
array in the y-z plane, and the first (input) layer is centered at the
origin. The transmitter lives in the z=0 plane at x > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class GeometryConfig:
    """Dimensions and spacings of the layered receiver front end.

    ``element_spacing_m``, ``layer_spacing_m``, ``receiver_spacing_m`` and
    ``receiver_offset_m`` default to half a wavelength, half a wavelength,
    half a wavelength and one wavelength respectively when left ``None``.
    The element counts must be at least 1, and the carrier frequency and
    any length given must be positive.
    """

    k_y: int
    k_z: int
    layers: int
    carrier_frequency_hz: float
    receiver_elements: int = 1
    element_spacing_m: Optional[float] = None
    layer_spacing_m: Optional[float] = None
    receiver_spacing_m: Optional[float] = None
    receiver_offset_m: Optional[float] = None

    def __post_init__(self) -> None:
        for key in ("k_y", "k_z", "layers"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"geometry.{key} must be at least 1")
        for key in ("carrier_frequency_hz", "element_spacing_m", "layer_spacing_m",
                    "receiver_spacing_m", "receiver_offset_m"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigurationError(f"geometry.{key} must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """An array of radiating elements, possibly stacked in several layers.

    ``positions`` is (layers * elements_per_layer, 3) in meters, ordered
    layer-major: element k of layer q sits at row q * elements_per_layer + k.
    ``aperture`` is the maximum pairwise distance among first-layer elements.
    """

    positions: np.ndarray
    layers: int
    elements_per_layer: int
    layer_spacing: float
    wavelength: float
    aperture: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (self.layers * self.elements_per_layer, 3):
            raise ConfigurationError(
                f"expected {self.layers * self.elements_per_layer} positions, "
                f"got shape {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise ConfigurationError("element positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def total_elements(self) -> int:
        return self.layers * self.elements_per_layer

    @property
    def first_layer_positions(self) -> np.ndarray:
        """Positions of the input layer, the one that samples the incident field."""
        return self.positions[: self.elements_per_layer]


def _planar_layer(k_y: int, k_z: int, spacing: float, x: float) -> np.ndarray:
    """Element positions of one y-z layer centered on the x axis."""
    ys = (np.arange(k_y) - (k_y - 1) / 2.0) * spacing
    zs = (np.arange(k_z) - (k_z - 1) / 2.0) * spacing
    yy, zz = np.meshgrid(ys, zs, indexing="ij")
    out = np.column_stack([np.full(k_y * k_z, x), yy.ravel(), zz.ravel()])
    return out


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two sets of 3D points.

    The squares are summed x + y + z, left to right, as the broadcast
    ``sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2))`` sums them, but with
    no (len(a), len(b), 3) temporary.
    """
    d = (a[:, 0, None] - b[None, :, 0]) ** 2
    for j in (1, 2):
        d += (a[:, j, None] - b[None, :, j]) ** 2
    return np.sqrt(d, out=d)


def _max_pairwise_distance(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(pairwise_distances(points, points).max())


def build_sim_geometry(config: GeometryConfig) -> Tuple[ArrayGeometry, ArrayGeometry]:
    """Build the layered surface and the receiver array behind it.

    Returns ``(surface, receiver)``. The surface input layer is centered at
    the origin in the y-z plane; layer q sits at x = q * layer_spacing_m. The
    receiver is a uniform linear array along y placed ``receiver_offset_m``
    beyond the last layer.
    """
    if config.receiver_elements < 1:
        raise ConfigurationError("receiver_elements must be >= 1")

    lam = config.wavelength
    spacing = lam / 2.0 if config.element_spacing_m is None else config.element_spacing_m
    layer_spacing = lam / 2.0 if config.layer_spacing_m is None else config.layer_spacing_m
    rx_spacing = lam / 2.0 if config.receiver_spacing_m is None else config.receiver_spacing_m
    rx_offset = lam if config.receiver_offset_m is None else config.receiver_offset_m

    k = config.k_y * config.k_z
    layers = [
        _planar_layer(config.k_y, config.k_z, spacing, q * layer_spacing)
        for q in range(config.layers)
    ]
    positions = np.vstack(layers)
    surface = ArrayGeometry(
        positions=positions,
        layers=config.layers,
        elements_per_layer=k,
        layer_spacing=layer_spacing,
        wavelength=lam,
        aperture=_max_pairwise_distance(layers[0]),
    )

    rx_x = (config.layers - 1) * layer_spacing + rx_offset
    m = config.receiver_elements
    rx_y = (np.arange(m) - (m - 1) / 2.0) * rx_spacing
    rx_positions = np.column_stack([np.full(m, rx_x), rx_y, np.zeros(m)])
    receiver = ArrayGeometry(
        positions=rx_positions,
        layers=1,
        elements_per_layer=m,
        layer_spacing=0.0,
        wavelength=lam,
        aperture=_max_pairwise_distance(rx_positions),
    )
    return surface, receiver


def fraunhofer_distance(geometry: ArrayGeometry) -> float:
    """Radiative near-field boundary 2 D^2 / lambda of the input layer."""
    return 2.0 * geometry.aperture**2 / geometry.wavelength


@dataclass(frozen=True)
class UncertaintyRegion:
    """Prior region for the transmitter: a uniform disk in the z=0 plane."""

    center: Tuple[float, float]
    diameter: float

    def __post_init__(self) -> None:
        if self.diameter < 0:
            raise ConfigurationError("region diameter must be nonnegative")
        if self.center[0] <= 0:
            raise ConfigurationError("region center must have x > 0")

    @property
    def radius(self) -> float:
        return self.diameter / 2.0

    def bounding_box(self) -> Tuple[float, float, float, float]:
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # uniform over the disk: radius ~ R * sqrt(u)
        u = rng.random(n)
        phi = rng.random(n) * 2.0 * np.pi
        r = self.radius * np.sqrt(u)
        return np.column_stack(
            [self.center[0] + r * np.cos(phi), self.center[1] + r * np.sin(phi)]
        )


def region_at(distance: float, bearing: float, diameter: float) -> UncertaintyRegion:
    """Disk region whose center sits at ``distance`` meters along ``bearing``
    radians (measured from the array boresight, the +x axis)."""
    return UncertaintyRegion(
        center=(distance * np.cos(bearing), distance * np.sin(bearing)),
        diameter=diameter,
    )


@dataclass(frozen=True)
class GainModel:
    """Log-normal amplitude shadowing plus a uniformly random phase offset.

    ``20*log10(G / mean_gain)`` is zero-mean Gaussian with standard
    deviation ``shadowing_std_db``.
    """

    shadowing_std_db: float = 3.0
    mean_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.shadowing_std_db < 0:
            raise ConfigurationError("gain.shadowing_std_db must be nonnegative")
        if self.mean_gain <= 0:
            raise ConfigurationError("gain.mean_gain must be positive")

    @property
    def mean_square_gain(self) -> float:
        """E[G^2] in closed form for the log-normal amplitude law."""
        a = np.log(10.0) / 10.0  # G^2 = mean^2 * exp(a * X), X ~ N(0, std_db^2)
        return self.mean_gain**2 * float(np.exp(0.5 * (a * self.shadowing_std_db) ** 2))
