"""Near-field channel model: steering vectors, random realizations, and the
second-order statistics that drive dimensionality reduction.

The channel seen at the input layer is h = G * exp(j*theta) * a(p), with
a_k(p) = exp(-j * 2*pi * ||p - p_k|| / lambda). Its covariance over the prior
region is estimated by Monte Carlo and eigendecomposed once; estimators then
work in the dominant eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .geometry import ArrayGeometry, GainModel, UncertaintyRegion

_COV_CHUNK = 4096


def _embed_xy(points: np.ndarray) -> np.ndarray:
    """Lift (n, 2) transmitter points into 3D with z = 0."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 3:
        return pts
    return np.column_stack([pts, np.zeros(len(pts))])


def element_distances(geometry: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """(K, n) distances from each input-layer element to each point."""
    pts = _embed_xy(points)
    pos = geometry.first_layer_positions
    # squares summed x + y + z, left to right, with no (K, n, 3) temporary
    sq = (pos[:, 0, None] - pts[None, :, 0]) ** 2
    for j in (1, 2):
        sq += (pos[:, j, None] - pts[None, :, j]) ** 2
    return np.sqrt(sq)


def steering_matrix(geometry: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """(K, n) matrix whose columns are steering vectors for each point."""
    d = element_distances(geometry, points)
    return np.exp(-2j * np.pi * d / geometry.wavelength)


@dataclass(frozen=True)
class SteeringVector:
    """Unit-modulus response of the input layer to a point source at ``position``."""

    entries: np.ndarray
    position: np.ndarray


def steering_vector(geometry: ArrayGeometry, p: np.ndarray) -> SteeringVector:
    """Near-field steering vector a(p) over the input layer."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ConfigurationError("steering point must be finite")
    entries = steering_matrix(geometry, p[None, :])[:, 0]
    return SteeringVector(entries=entries, position=p)


@dataclass(frozen=True)
class ChannelRealization:
    h: np.ndarray
    gain: float
    phase: float
    position: np.ndarray


def draw_channel(
    geometry: ArrayGeometry,
    p: np.ndarray,
    gains: GainModel,
    rng_seed: int,
) -> ChannelRealization:
    """One random channel h = G e^{j theta} a(p), deterministic given the seed."""
    rng = np.random.default_rng(rng_seed)
    g = float(gains.draw_gains(1, rng)[0])
    theta = float(gains.draw_phases(1, rng)[0])
    a = steering_vector(geometry, p).entries
    return ChannelRealization(
        h=g * np.exp(1j * theta) * a, gain=g, phase=theta, position=np.asarray(p, float)
    )


@dataclass(frozen=True)
class CovarianceModel:
    """Channel covariance and its dominant eigenstructure.

    ``eigenvalues``/``eigenvectors`` hold the full decomposition in
    descending order; ``u`` and ``d`` are the leading ``rank`` columns and
    eigenvalues retained by the rank threshold.
    """

    r_h: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    u: np.ndarray
    d: np.ndarray
    mc_samples: int
    rank_threshold: float

    @property
    def dim(self) -> int:
        return self.r_h.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.r_h)))

    def captured_energy(self, l: int) -> float:
        """Fraction of channel power in the ``l`` dominant modes."""
        return float(self.eigenvalues[:l].sum() / self.eigenvalues.sum())

    def truncation_power(self, l: int) -> float:
        """Channel power left outside the ``l`` dominant modes."""
        return float(self.eigenvalues[l:].sum())


def _canonical_eigh(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Descending-order eigendecomposition with a deterministic convention.

    Eigenvectors are phase-normalized so their first significantly nonzero
    entry is real positive; runs of (numerically) equal eigenvalues are
    ordered by a lexicographic key on the normalized entries.
    """
    vals, vecs = np.linalg.eigh(r)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()

    # phase normalization
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-9 * np.abs(col).max())
        if len(idx):
            ph = col[idx[0]] / abs(col[idx[0]])
            vecs[:, j] = col / ph

    # stable tie-break inside runs of equal eigenvalues
    scale = max(abs(vals[0]), 1.0)
    j = 0
    while j < len(vals):
        k = j + 1
        while k < len(vals) and abs(vals[k] - vals[j]) <= 1e-12 * scale:
            k += 1
        if k - j > 1:
            block = vecs[:, j:k]
            keys = [
                tuple(np.round(np.concatenate([block[:, c].real, block[:, c].imag]), 9))
                for c in range(k - j)
            ]
            order = sorted(range(k - j), key=lambda c: keys[c])
            vecs[:, j:k] = block[:, order]
        j = k
    return vals, vecs


def estimate_covariance(
    geometry: ArrayGeometry,
    region: UncertaintyRegion,
    gains: GainModel,
    n_samples: int = 20000,
    rng_seed: int = 0,
    rank_threshold: float = 1e-6,
) -> CovarianceModel:
    """Monte Carlo estimate of R_h = sigma_G^2 * E_p[a(p) a(p)^H].

    The gain statistics enter through the closed-form mean square gain, so
    trace(R_h) = sigma_G^2 * K holds exactly for any sample count.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if not (0.0 < rank_threshold < 1.0):
        raise ConfigurationError("rank_threshold must lie in (0, 1)")

    k = geometry.elements_per_layer
    rng = np.random.default_rng(rng_seed)
    points = region.sample(n_samples, rng)

    acc = np.zeros((k, k), dtype=complex)
    for start in range(0, n_samples, _COV_CHUNK):
        a = steering_matrix(geometry, points[start : start + _COV_CHUNK])
        acc += a @ a.conj().T
    r = gains.mean_square_gain * acc / n_samples
    r = 0.5 * (r + r.conj().T)

    vals, vecs = _canonical_eigh(r)
    lmax = float(vals[0])
    rank = int(np.count_nonzero(vals > rank_threshold * lmax))
    rank = max(rank, 1)
    return CovarianceModel(
        r_h=r,
        eigenvalues=vals,
        eigenvectors=vecs,
        rank=rank,
        u=vecs[:, :rank].copy(),
        d=vals[:rank].copy(),
        mc_samples=n_samples,
        rank_threshold=rank_threshold,
    )


def covariance_from_matrix(
    r: np.ndarray, rank_threshold: float = 1e-6, mc_samples: int = 0
) -> CovarianceModel:
    """Wrap an explicitly given covariance matrix (tests, file import)."""
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ConfigurationError("covariance must be square")
    if np.linalg.norm(r - r.conj().T) > 1e-10 * max(np.linalg.norm(r), 1e-300):
        raise ConfigurationError("covariance must be Hermitian")
    r = 0.5 * (r + r.conj().T)
    vals, vecs = _canonical_eigh(r)
    rank = max(int(np.count_nonzero(vals > rank_threshold * float(vals[0]))), 1)
    return CovarianceModel(
        r_h=r,
        eigenvalues=vals,
        eigenvectors=vecs,
        rank=rank,
        u=vecs[:, :rank].copy(),
        d=vals[:rank].copy(),
        mc_samples=mc_samples,
        rank_threshold=rank_threshold,
    )


def reduce_subspace(
    cov: CovarianceModel, l_fixed: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Dominant-eigenpair basis (U, D); ``l_fixed`` forces the output count.

    Choosing ``l_fixed`` below the effective rank is an intentional
    truncation; the residual power is available via
    ``cov.truncation_power(l_fixed)``.
    """
    l = cov.rank if l_fixed is None else int(l_fixed)
    if not (1 <= l <= cov.dim):
        raise ConfigurationError(f"subspace size {l} outside [1, {cov.dim}]")
    return cov.eigenvectors[:, :l].copy(), cov.eigenvalues[:l].copy()
