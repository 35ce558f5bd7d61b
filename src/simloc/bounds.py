"""Mismatch metrics, the perturbation analysis of the reduced observation
operator, and the Fisher-information position error bound.

The projection error Delta = V - U^H is summarized by the relative
Frobenius mismatch delta_rel = ||Delta||_F / sqrt(L) and the effective
subspace mismatch delta_U = ||Delta U||_2 (:func:`relative_mismatch` and
:func:`subspace_mismatch`, which the optimizer's trace and stop rule call
too). delta_U is taken from the L x L residual Delta U itself, which the
optimizer holds without forming Delta. The reduced operator Gram matrix
G(V) = (V U)^H (V U) = I + E has all eigenvalues inside
[1 - (2 delta_U + delta_U^2), 1 + (2 delta_U + delta_U^2)], which bounds the
least-squares MSE degradation of an energy-preserving projection by
1 / (1 - (2 delta_U + delta_U^2)).

Localization bounds treat the channel estimate as h(eps) + noise with
eps = [x, y, G, theta]; the position error bound comes from the position
block of the inverse Fisher information matrix. Throughout this stage,
sigma_n^2 is the noise variance per real component of the observation
(the convention under which I = Re{J^H J} / sigma_n^2 is the exact
information matrix, and the theta-theta entry equals K G^2 / sigma_n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigurationError
from .geometry import ArrayGeometry
from .multiport import row_orthonormality_gap

_ROW_ORTHO_TOL = 1e-6
_PINV_CONDITION = 1e12


@dataclass(frozen=True)
class MismatchMetrics:
    delta_rel: float
    delta_u: float
    e_norm: float
    eig_box: Tuple[float, float]
    mse_ratio_bound: float


def subspace_mismatch(delta_on_u: np.ndarray) -> float:
    """delta_U = ||Delta U||_2, the largest singular value of the L x L
    residual ``delta_on_u`` = Delta U."""
    return float(np.linalg.svd(delta_on_u, compute_uv=False)[0])


def relative_mismatch(delta: np.ndarray, u: np.ndarray) -> float:
    """delta_rel = ||Delta||_F / sqrt(L)."""
    return float(np.linalg.norm(delta, "fro") / np.sqrt(u.shape[1]))


def mismatch_metrics(v: np.ndarray, u: np.ndarray) -> MismatchMetrics:
    """Projection mismatch summary of V against the ideal U^H."""
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    l = u.shape[1]
    if v.shape != (l, u.shape[0]):
        raise ConfigurationError(
            f"projection shape {v.shape} incompatible with subspace {u.shape}"
        )
    delta = v - u.conj().T
    delta_u_mat = delta @ u
    delta_u = subspace_mismatch(delta_u_mat)
    e = delta_u_mat + delta_u_mat.conj().T + delta_u_mat.conj().T @ delta_u_mat
    e_norm = float(np.linalg.norm(e, 2))
    half = 2.0 * delta_u + delta_u**2
    return MismatchMetrics(
        delta_rel=relative_mismatch(delta, u),
        delta_u=delta_u,
        e_norm=e_norm,
        eig_box=(1.0 - half, 1.0 + half),
        mse_ratio_bound=mse_ratio_bound(delta_u),
    )


def mse_ratio_bound(delta_u: float) -> float:
    """1 / (1 - 2 delta_U - delta_U^2), the least-squares MSE degradation
    bound at subspace mismatch delta_U; infinite once the eigenvalue box
    reaches zero."""
    half = 2.0 * delta_u + delta_u**2
    return 1.0 / (1.0 - half) if half < 1.0 else np.inf


def noise_inflation(v: np.ndarray, u: np.ndarray) -> float:
    """rho(V) = ||(V U)^{-1} V||_F^2 / L, the RS-LS noise inflation.

    Least squares through the square reduced operator V U passes the
    projected noise through (V U)^{-1} V, so the analytic MSE that
    ``rsls_post_sim`` returns with its W is sigma_z^2 * L * rho(V), against
    ``rsls_ideal``'s sigma_z^2 * L. A complex gain on V and a unitary
    rotation of U cancel. For an energy-preserving V (V V^H = I) rho is the
    ratio tr(G^{-1}) / L that :func:`mse_ratio_check` bounds; otherwise the
    complement leakage of V enters too. Infinite when V U is singular.
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    try:
        x = np.linalg.solve(v @ u, v)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.linalg.norm(x, "fro") ** 2 / u.shape[1])


def reduced_gram(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """G(V) = (V U)^H (V U), the Gram matrix of the reduced operator."""
    a = np.asarray(v, dtype=complex) @ np.asarray(u, dtype=complex)
    return a.conj().T @ a


@dataclass(frozen=True)
class MseRatioCheck:
    actual_ratio: float
    bound: float
    holds: bool
    applicable: bool


def mse_ratio_check(v: np.ndarray, u: np.ndarray) -> MseRatioCheck:
    """Compare the actual least-squares MSE inflation against its bound.

    The bound assumes the projection preserves energy (V V^H = I), so when
    the row-orthonormality gap exceeds 1e-6 the check is reported as
    inapplicable rather than falsified. Where it applies, the ratio
    tr(G^{-1}) / L is the noise inflation rho(V) of :func:`noise_inflation`,
    which does not depend on the noise level.
    """
    metrics = mismatch_metrics(v, u)
    if row_orthonormality_gap(v) > _ROW_ORTHO_TOL:
        return MseRatioCheck(
            actual_ratio=np.nan, bound=metrics.mse_ratio_bound, holds=True, applicable=False
        )
    ratio = noise_inflation(v, u)
    holds = ratio <= metrics.mse_ratio_bound + 1e-9
    return MseRatioCheck(
        actual_ratio=ratio, bound=metrics.mse_ratio_bound, holds=holds, applicable=True
    )


# -- Fisher information and the position error bound -------------------------


def channel_jacobian(geometry: ArrayGeometry, eps: np.ndarray) -> np.ndarray:
    """K x 4 Jacobian of h(x, y, G, theta) over the input layer.

    Columns: d h/d x = -j (2 pi / lambda) (x - x_k)/d_k * h,
    d h/d y analogous, d h/d G = h / G, d h/d theta = j h.
    """
    x, y, g, theta = (float(t) for t in np.asarray(eps, dtype=float))
    if g <= 0:
        raise ConfigurationError("gain must be positive")
    pos = geometry.first_layer_positions
    p = np.array([x, y, 0.0])
    diff = p[None, :] - pos
    d = np.sqrt((diff**2).sum(axis=1))
    if np.any(d == 0.0):
        raise ConfigurationError("transmitter coincides with an array element")
    lam = geometry.wavelength
    h = g * np.exp(1j * theta) * np.exp(-2j * np.pi * d / lam)
    jac = np.empty((len(pos), 4), dtype=complex)
    jac[:, 0] = -2j * np.pi / lam * (diff[:, 0] / d) * h
    jac[:, 1] = -2j * np.pi / lam * (diff[:, 1] / d) * h
    jac[:, 2] = h / g
    jac[:, 3] = 1j * h
    return jac


@dataclass(frozen=True)
class PebReport:
    fim: np.ndarray
    crlb: np.ndarray
    peb: float
    condition_flag: bool
    eps: np.ndarray


def fim_peb(geometry: ArrayGeometry, eps: np.ndarray, sigma_n2: float) -> PebReport:
    """Fisher information over [x, y, G, theta] and the position error bound.

    The residual noise is white, so I = Re{J^H J} / sigma_n^2; callers pass
    an estimator's white-equivalent residual, its MSE / K. The inverse is
    evaluated through an SVD of the real-stacked Jacobian, whose condition number is the square root of
    the information matrix's, so geometries near the observability limit
    stay accurate; ``condition_flag`` marks information matrices with
    condition beyond 1e12, where truly vanishing directions are truncated
    pseudo-inverse style instead of being silently amplified.
    """
    if sigma_n2 <= 0:
        raise ConfigurationError("noise variance must be positive")
    x, y, g, _ = (float(t) for t in np.asarray(eps, dtype=float))
    # every Jacobian column carries the factor e^{j theta}, which cancels in
    # J^H J; evaluating at theta = 0 makes the invariance exact in floats
    jac = channel_jacobian(geometry, np.array([x, y, g, 0.0]))
    jw = jac / np.sqrt(sigma_n2)
    jr = np.vstack([jw.real, jw.imag])
    fim = jr.T @ jr
    fim = 0.5 * (fim + fim.T)

    _, s, vt = np.linalg.svd(jr, full_matrices=False)
    if s[0] == 0.0:
        return PebReport(
            fim=fim, crlb=np.full((4, 4), np.inf), peb=np.inf, condition_flag=True,
            eps=np.asarray(eps, dtype=float),
        )
    flag = bool(s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > _PINV_CONDITION)
    keep = s > s[0] * 1e-13
    inv_s2 = np.zeros_like(s)
    inv_s2[keep] = s[keep] ** -2.0
    crlb = (vt.T * inv_s2[None, :]) @ vt
    peb = float(np.sqrt(max(crlb[0, 0] + crlb[1, 1], 0.0)))
    return PebReport(
        fim=fim, crlb=crlb, peb=peb, condition_flag=flag, eps=np.asarray(eps, dtype=float)
    )

