"""Near-field channel model: steering vectors and the second-order
statistics that drive dimensionality reduction.

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
from .geometry import ArrayGeometry, GainModel, UncertaintyRegion, pairwise_distances

_COV_CHUNK = 4096


def _embed_xy(points: np.ndarray) -> np.ndarray:
    """Lift (n, 2) transmitter points into 3D with z = 0."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 3:
        return pts
    return np.column_stack([pts, np.zeros(len(pts))])


def element_distances(geometry: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """(K, n) distances from each input-layer element to each point."""
    return pairwise_distances(geometry.first_layer_positions, _embed_xy(points))


def steering_matrix(geometry: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """(K, n) matrix whose columns are steering vectors for each point.

    The phase is real, so cos and sin of it are written straight into the
    real and imaginary parts. theta is the imaginary part of the complex
    quotient -2j*pi*d / wavelength (numpy divides by a real divisor through
    its reciprocal, and the real part is zero), so the entries equal
    exp(-2j*pi*d / wavelength) without its complex temporaries.
    """
    d = element_distances(geometry, points)
    theta = (-2.0 * np.pi * d) * (1.0 / geometry.wavelength)
    a = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=a.real)
    np.sin(theta, out=a.imag)
    return a


def steering_vector(geometry: ArrayGeometry, p: np.ndarray) -> np.ndarray:
    """Near-field steering vector a(p), shape (K,), over the input layer."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ConfigurationError("steering point must be finite")
    return steering_matrix(geometry, p[None, :])[:, 0]


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
    return covariance_from_matrix(r, rank_threshold, mc_samples=n_samples)


def covariance_from_matrix(
    r: np.ndarray, rank_threshold: float = 1e-6, mc_samples: int = 0
) -> CovarianceModel:
    """The covariance model of a given Hermitian matrix: its Hermitian part,
    canonical eigendecomposition and the rank at ``rank_threshold`` times the
    largest eigenvalue (at least 1)."""
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
