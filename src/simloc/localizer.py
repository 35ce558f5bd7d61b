"""Position recovery from a channel estimate.

The gain/phase pair is a nuisance: for any candidate p the best-fitting
complex amplitude has a closed form, so the concentrated likelihood reduces
to the normalized correlation |a(p)^H h_hat|^2 / (K ||h_hat||^2). The search
runs a coarse grid over the prior region's bounding box followed by
shrinking grid refinements around the running best point.

The coarse grid depends only on the region, so ``localize`` builds its
steering matrix once per call and shares it across every estimate of a
batch; only the refinement grids are built per estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .channel import steering_matrix
from .errors import ConfigurationError, EstimationError
from .geometry import ArrayGeometry, UncertaintyRegion


@dataclass(frozen=True)
class LocalizerConfig:
    coarse_grid: int = 64
    refine_iters: int = 6
    refine_shrink: float = 0.5

    def __post_init__(self) -> None:
        if self.coarse_grid < 2:
            raise ConfigurationError("need at least 2 grid points per axis")
        if not (0.0 < self.refine_shrink < 1.0):
            raise ConfigurationError("refine_shrink must lie in (0, 1)")


def _grid(center: Tuple[float, float], half: Tuple[float, float], n: int) -> np.ndarray:
    xs = np.linspace(center[0] - half[0], center[0] + half[0], n)
    ys = np.linspace(center[1] - half[1], center[1] + half[1], n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _scores(a_conj: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Scores of ``h_hat`` against the conjugated steering columns (K, n)."""
    k = a_conj.shape[0]
    return np.abs(a_conj.T @ h_hat) ** 2 / (k * float(np.vdot(h_hat, h_hat).real))


def correlation_scores(
    geometry: ArrayGeometry, points: np.ndarray, h_hat: np.ndarray
) -> np.ndarray:
    """Concentrated-likelihood score of each candidate point, in [0, 1]."""
    return _scores(steering_matrix(geometry, points).conj(), h_hat)


def localize(
    h_hat: np.ndarray,
    geometry: ArrayGeometry,
    region: UncertaintyRegion,
    cfg: LocalizerConfig = LocalizerConfig(),
) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Maximum-correlation position estimate within the prior region.

    ``h_hat`` is one estimate (K,) or a batch (n, K). One estimate returns
    ``(p_hat (2,), score)``; a batch returns ``(p_hats (n, 2), scores (n,))``,
    each row equal to localizing that row alone. The score is invariant to
    any nonzero complex scaling of the channel estimate.
    """
    rows = np.asarray(h_hat, dtype=complex)
    if rows.ndim not in (1, 2):
        raise EstimationError("expected one channel estimate (K,) or a batch (n, K)")
    single = rows.ndim == 1
    rows = np.ascontiguousarray(np.atleast_2d(rows))
    # a NaN or infinite entry makes its row's power non-finite
    power = np.array([np.vdot(h, h).real for h in rows])
    if not np.all(np.isfinite(power)):
        raise EstimationError("cannot localize a non-finite channel estimate")
    if np.any(power == 0.0):
        raise EstimationError("cannot localize an all-zero channel estimate")
    if region.diameter <= 0.0:
        raise ConfigurationError("prior region is degenerate")

    x_lo, x_hi, y_lo, y_hi = region.bounding_box()
    center0 = ((x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0)
    half0 = ((x_hi - x_lo) / 2.0, (y_hi - y_lo) / 2.0)
    coarse_pts = _grid(center0, half0, cfg.coarse_grid)
    coarse = steering_matrix(geometry, coarse_pts).conj()

    p_hats = np.empty((len(rows), 2))
    best_scores = np.empty(len(rows))
    for r, h in enumerate(rows):
        pts, a_conj, half = coarse_pts, coarse, half0
        best_p = np.array(center0)
        best_score = -1.0
        for stage in range(cfg.refine_iters + 1):
            if stage:
                center = (float(best_p[0]), float(best_p[1]))
                half = (half[0] * cfg.refine_shrink, half[1] * cfg.refine_shrink)
                pts = _grid(center, half, cfg.coarse_grid)
                a_conj = steering_matrix(geometry, pts).conj()
            scores = _scores(a_conj, h)
            i = int(np.argmax(scores))
            if scores[i] > best_score:
                best_score = float(scores[i])
                best_p = pts[i]
        p_hats[r] = best_p
        best_scores[r] = best_score
    if single:
        return p_hats[0], float(best_scores[0])
    return p_hats, best_scores
