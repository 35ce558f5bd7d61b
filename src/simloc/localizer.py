"""Position recovery from a channel estimate.

The gain/phase pair is a nuisance: for any candidate p the best-fitting
complex amplitude has a closed form, so the concentrated likelihood reduces
to the normalized correlation f(p) = |a(p)^H h_hat|^2 / (K ||h_hat||^2).

The search runs a coarse grid over the prior region's bounding box, then
polishes each estimate's coarse maximum by a damped Newton ascent on f with
analytic derivatives: with d_k = ||p - p_k||, dd_k/dp = g_k = (p - p_k) / d_k
and d^2 d_k/dp^2 = (I - g_k g_k^T) / d_k. A Hessian that is not negative
definite is shifted until it is, a trust radius (one coarse spacing at the
start, doubled on an accepted step, quartered on a rejected one) bounds each
step, and a step is accepted only if f rises and every derivative at the
new point is finite. So the result scores at least as well as its coarse
start, a point on an element (d_k = 0) is never adopted, and a row on an
exactly flat stretch of f stops instead of wandering along it. A row stops
when its step is shorter than a fixed fraction of a coarse spacing.

The ascent is confined to the square centred on the region with twice the
bounding box's half-widths, as far as a six-stage halving grid refinement
around the coarse maximum reaches (1 + 1/2 + ... + 1/2^6 half-widths). It
is not clipped to the prior box: near the noise level the likelihood
maximum often lies outside it, and clipping there pulls the estimate toward
the region centre, which biases the RMSE below the position error bound.
Without any bound the ascent can climb the range ridge to metres.

The coarse grid depends only on the region, so ``localize`` builds its
steering matrix once per call and shares it across every estimate of a
batch; the polish then runs for every estimate at once. Every per-row
operation is elementwise or a reduction along that row, so a row's result
does not depend on the batch it came in. The sweep relies on that: it
localizes every estimate of a cell, all SNRs and estimators, in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .channel import steering_matrix
from .errors import ConfigurationError, EstimationError
from .geometry import ArrayGeometry, UncertaintyRegion

_SEARCH_HALF_WIDTHS = 2.0  # search square half-width, in prior-box half-widths
_STEP_TOL = 1e-7  # a row stops on a step shorter than this many coarse spacings
_MAX_NEWTON_ITERS = 200  # a safety cap: desk-scale rows stop within 75


@dataclass(frozen=True)
class LocalizerConfig:
    coarse_grid: int = 64

    def __post_init__(self) -> None:
        if self.coarse_grid < 2:
            raise ConfigurationError("need at least 2 grid points per axis")


def _grid(center: np.ndarray, half: np.ndarray, n: int) -> np.ndarray:
    xs = np.linspace(center[0] - half[0], center[0] + half[0], n)
    ys = np.linspace(center[1] - half[1], center[1] + half[1], n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _scores(a_conj: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Scores of ``h_hat`` against the conjugated steering columns (K, n)."""
    k = a_conj.shape[0]
    return np.abs(a_conj.T @ h_hat) ** 2 / (k * float(np.vdot(h_hat, h_hat).real))


# on an element (d_k = 0) the derivatives are not finite; callers check
@np.errstate(divide="ignore", invalid="ignore")
def _score_derivatives(
    geometry: ArrayGeometry, rows: np.ndarray, power: np.ndarray, p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score f of each row (n, K) at its point p (n, 2), with the gradient
    (n, 2) and Hessian (n, 2, 2) of f in p.

    With c_k = e^{j kappa d_k} h_k and s = sum_k c_k = a(p)^H h, f = |s|^2 /
    (K P) for P = ||h||^2, grad s = j kappa sum_k c_k g_k and
    hess s = sum_k c_k (-kappa^2 g_k g_k^T + j kappa (I - g_k g_k^T) / d_k).
    Arrays are (n, K) and reduced along K, so each row stands alone.
    """
    pos = geometry.first_layer_positions
    kappa = 2.0 * np.pi / geometry.wavelength
    dx = p[:, 0, None] - pos[None, :, 0]
    dy = p[:, 1, None] - pos[None, :, 1]
    d = np.sqrt(dx**2 + dy**2 + pos[None, :, 2] ** 2)
    c = np.exp(1j * kappa * d) * rows
    gx, gy = dx / d, dy / d
    w = 1j * kappa * c / d  # weight of the (I - g g^T) / d term
    s = c.sum(axis=-1)
    ds = 1j * kappa * np.stack([(c * gx).sum(axis=-1), (c * gy).sum(axis=-1)], axis=-1)
    cg = -(kappa**2) * c - w
    hs_xx = (cg * gx**2 + w).sum(axis=-1)
    hs_xy = (cg * gx * gy).sum(axis=-1)
    hs_yy = (cg * gy**2 + w).sum(axis=-1)
    hs = np.stack([np.stack([hs_xx, hs_xy], -1), np.stack([hs_xy, hs_yy], -1)], -2)

    scale = 2.0 / (rows.shape[1] * power)
    f = 0.5 * scale * (s.real**2 + s.imag**2)
    grad = scale[:, None] * (s.conj()[:, None] * ds).real
    outer = (ds[:, :, None] * ds.conj()[:, None, :]).real
    hess = scale[:, None, None] * ((s.conj()[:, None, None] * hs).real + outer)
    return f, grad, hess


def _newton_step(
    grad: np.ndarray, hess: np.ndarray, radius: np.ndarray, pinned: np.ndarray
) -> np.ndarray:
    """Ascent step (n, 2) of length at most ``radius`` from a shifted Newton
    model. A pinned coordinate gets a zero gradient, no coupling and a
    negative curvature, so its step is zero.
    """
    g = np.where(pinned, 0.0, grad)
    a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    a = np.where(pinned[:, 0], -1.0, a)
    c = np.where(pinned[:, 1], -1.0, c)
    b = np.where(pinned.any(axis=1), 0.0, b)
    gnorm = np.hypot(g[:, 0], g[:, 1])
    lam_max = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    # shifted by lam_max + |g| / radius, every eigenvalue is at most
    # -|g| / radius, so the step is no longer than the radius
    mu = np.where(lam_max < 0.0, 0.0, lam_max + gnorm / radius)
    a, c = a - mu, c - mu
    det = a * c - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.stack([b * g[:, 1] - c * g[:, 0], b * g[:, 0] - a * g[:, 1]], -1)
        step /= det[:, None]
        shrink = np.minimum(1.0, radius / np.hypot(step[:, 0], step[:, 1]))
    return np.where(gnorm[:, None] > 0.0, step * shrink[:, None], 0.0)


def _polish(
    geometry: ArrayGeometry,
    rows: np.ndarray,
    power: np.ndarray,
    p0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    spacing: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trust-region Newton ascent of every row's score from ``p0`` (n, 2)
    inside the box [lo, hi] that every row shares; returns the points, their
    scores and each row's iteration count."""
    p = p0.copy()
    f, grad, hess = _score_derivatives(geometry, rows, power, p)
    radius = np.full(len(p), spacing)
    iters = np.zeros(len(p), dtype=int)
    # a point whose derivatives are not finite (on an element) cannot move
    active = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    for _ in range(_MAX_NEWTON_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        pi, gi = p[idx], grad[idx]
        pinned = ((pi <= lo) & (gi < 0.0)) | ((pi >= hi) & (gi > 0.0))
        q = np.clip(pi + _newton_step(gi, hess[idx], radius[idx], pinned), lo, hi)
        moved = np.hypot(q[:, 0] - pi[:, 0], q[:, 1] - pi[:, 1]) >= _STEP_TOL * spacing
        active[idx[~moved]] = False
        idx, q = idx[moved], q[moved]
        iters[idx] += 1
        fq, gq, hq = _score_derivatives(geometry, rows[idx], power[idx], q)
        ok = (
            np.isfinite(fq)
            & np.isfinite(gq).all(axis=1)
            & np.isfinite(hq).all(axis=(1, 2))
            & (fq > f[idx])
        )
        acc = idx[ok]
        p[acc], f[acc], grad[acc], hess[acc] = q[ok], fq[ok], gq[ok], hq[ok]
        radius[idx] = np.where(ok, 2.0 * radius[idx], 0.25 * radius[idx])
    return p, f, iters


def localize(
    h_hat: np.ndarray,
    geometry: ArrayGeometry,
    region: UncertaintyRegion,
    cfg: LocalizerConfig = LocalizerConfig(),
) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Maximum-correlation position estimate near the prior region.

    The coarse grid spans the region's bounding box; the Newton polish may
    leave it, up to twice the box's half-widths from the region centre (see
    the module docstring for why the estimate is not clipped to the box).

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
    center = np.array([(x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0])
    half = np.array([(x_hi - x_lo) / 2.0, (y_hi - y_lo) / 2.0])
    coarse_pts = _grid(center, half, cfg.coarse_grid)
    coarse = steering_matrix(geometry, coarse_pts).conj()
    starts = np.array([coarse_pts[int(np.argmax(_scores(coarse, h)))] for h in rows])

    reach = _SEARCH_HALF_WIDTHS * half
    spacing = float(2.0 * half.max() / (cfg.coarse_grid - 1))
    p_hats, scores, _ = _polish(
        geometry, rows, power, starts, center - reach, center + reach, spacing
    )
    if single:
        return p_hats[0], float(scores[0])
    return p_hats, scores
