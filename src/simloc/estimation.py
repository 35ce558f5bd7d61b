"""Channel estimators as linear maps and their analytic MSEs.

Every estimator is linear, h_hat = W y, and each estimator function returns
``(W, analytic_mse)``: the matrix W and the analytic error of the estimator
(not a sample statistic). W acts on the observation y = P r of the incident
field r = h + z, where P is U^H for the ideal projection, V for the surface
and the identity for the fully digital baseline.

Reduced estimators treat the channel model as confined to the retained
subspace: their MSEs follow the posterior / least-squares algebra on the
rank-L model U diag(D) U^H, and the prior power living outside those L
modes is added by :func:`estimator_suite`. Monte Carlo evaluation draws
from the full-rank model, so empirical figures include the truncation
penalty.

:func:`estimator_suite` is the compared set at one noise level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import CovarianceModel, covariance_from_matrix, reduce_subspace
from .errors import ConfigurationError, EstimationError

# Monte Carlo draws per block; fixes the order in which channels and
# interference are drawn from the generator.
_MC_BATCH = 1000


def _hermitize(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + c.conj().T)


def mmse_full(cov: CovarianceModel, sigma_z2: float) -> Tuple[np.ndarray, float]:
    """Linear MMSE from the full-array observation r = h + z."""
    rh = cov.r_h
    a = rh + sigma_z2 * np.eye(cov.dim)
    x = np.linalg.solve(a, rh)  # (R + s2 I)^{-1} R
    err = _hermitize(rh - rh @ x)
    return x.conj().T, float(np.real(np.trace(err)))


# The fully digital reference: one chain per element, full-array MMSE.
digital_baseline = mmse_full


def mmse_reduced(cov_l: CovarianceModel, sigma_z2: float) -> Tuple[np.ndarray, float]:
    """MMSE from the sufficient statistic y = U^H r of the rank-L model."""
    u, d = cov_l.u, cov_l.d
    shrink = d / (d + sigma_z2)
    return u * shrink, float(np.sum(d * sigma_z2 / (d + sigma_z2)))


def rsls_ideal(u: np.ndarray, sigma_z2: float) -> Tuple[np.ndarray, float]:
    """Reduced-subspace least squares from y = U^H r: W = U, MSE sigma_z^2 L."""
    return u, float(sigma_z2 * u.shape[1])


def mmse_post_sim(
    v: np.ndarray, cov_l: CovarianceModel, sigma_z2: float
) -> Tuple[np.ndarray, float]:
    """MMSE from the projected observation y = V r.

    Uses the rank-L channel model, so with V = U^H this reduces exactly to
    :func:`mmse_reduced`.
    """
    v = np.asarray(v, dtype=complex)
    rh = cov_l.u @ np.diag(cov_l.d) @ cov_l.u.conj().T
    rv = rh @ v.conj().T
    inner = v @ rv + sigma_z2 * (v @ v.conj().T)
    cond = np.linalg.cond(inner)
    if not np.isfinite(cond) or cond > 1e14:
        raise EstimationError(
            f"projected observation covariance is singular (cond {cond:.3e}); "
            "check the projection for zero rows"
        )
    gain = np.linalg.solve(inner, rv.conj().T).conj().T  # R V^H inv(inner)
    return gain, float(np.real(np.trace(_hermitize(rh - gain @ rv.conj().T))))


def rsls_post_sim(v: np.ndarray, u: np.ndarray, sigma_z2: float) -> Tuple[np.ndarray, float]:
    """Least squares through the reduced operator A = V U after the surface.

    W = U (A^H A)^{-1} A^H; the MSE is the trace of the covariance of
    g_hat = (A^H A)^{-1} A^H y under the projected noise sigma_z^2 V V^H.
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    a = v @ u
    gram = a.conj().T @ a
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise EstimationError(
            f"reduced operator A = V U is rank deficient (cond {cond:.3e}); "
            "the subspace mismatch is too large for least squares"
        )
    pinv = np.linalg.solve(gram, a.conj().T)  # (A^H A)^{-1} A^H
    c_g = _hermitize(pinv @ (sigma_z2 * (v @ v.conj().T)) @ pinv.conj().T)
    return u @ pinv, float(np.real(np.trace(c_g)))


# -- the compared suite ------------------------------------------------------


def reduced_model(cov: CovarianceModel, l: int) -> Tuple[np.ndarray, CovarianceModel]:
    """The L dominant eigenvectors U of ``cov`` and the rank-L model
    U diag(D) U^H that the reduced estimators assume."""
    u, d = reduce_subspace(cov, l_fixed=l)
    cov_l = covariance_from_matrix(
        u @ np.diag(d) @ u.conj().T, rank_threshold=1e-12, mc_samples=cov.mc_samples
    )
    return u, cov_l


@dataclass(frozen=True)
class LinearEstimator:
    """One estimator of the suite, h_hat = W P (h + z), with the full
    channel covariance ``cov`` and white interference of variance
    ``noise_variance``; ``analytic_mse`` is the rank-L model error plus the
    truncated prior power."""

    w: np.ndarray
    p: np.ndarray
    cov: CovarianceModel
    noise_variance: float
    analytic_mse: float

    def exact_mse(self) -> float:
        """Exact Gaussian-model MSE of h_hat = W P (h + z) under the full
        covariance, including any out-of-subspace leakage."""
        w = self.w @ self.p
        eye = np.eye(self.cov.dim)
        bias_cov = (eye - w) @ self.cov.r_h @ (eye - w).conj().T
        noise_cov = self.noise_variance * (w @ w.conj().T)
        return float(np.real(np.trace(bias_cov)) + np.real(np.trace(noise_cov)))


def estimator_suite(
    cov: CovarianceModel,
    u: np.ndarray,
    cov_l: CovarianceModel,
    sigma_z2: float,
    surface: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[str, LinearEstimator]:
    """The compared estimators at one noise level, keyed by tag.

    ``cov`` is the full covariance and ``(u, cov_l)`` its rank-L model from
    :func:`reduced_model`. The suite holds ``mmse-ideal`` and ``rsls-ideal``
    behind U^H and the ``digital-baseline``; a calibrated surface
    ``(v, u_basis)`` adds ``mmse-sim`` and ``rsls-sim`` behind V.
    """
    trunc = cov.truncation_power(u.shape[1])
    u_h = u.conj().T

    def entry(w_mse: Tuple[np.ndarray, float], p: np.ndarray, truncation: float):
        w, mse = w_mse
        return LinearEstimator(w, p, cov, sigma_z2, mse + truncation)

    suite = {
        "mmse-ideal": entry(mmse_reduced(cov_l, sigma_z2), u_h, trunc),
        "rsls-ideal": entry(rsls_ideal(u, sigma_z2), u_h, trunc),
        "digital-baseline": entry(
            digital_baseline(cov, sigma_z2), np.eye(cov.dim, dtype=complex), 0.0
        ),
    }
    if surface is not None:
        v, u_basis = surface
        suite["mmse-sim"] = entry(mmse_post_sim(v, cov_l, sigma_z2), v, trunc)
        suite["rsls-sim"] = entry(rsls_post_sim(v, u_basis, sigma_z2), v, trunc)
    return suite


# -- Monte Carlo -------------------------------------------------------------


def draw_gaussian_channels(
    cov: CovarianceModel, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(K, trials) draws from CN(0, R_h) through the full eigenbasis."""
    k = cov.dim
    vals = np.clip(cov.eigenvalues, 0.0, None)
    w = (rng.standard_normal((k, trials)) + 1j * rng.standard_normal((k, trials))) / np.sqrt(2.0)
    return cov.eigenvectors @ (np.sqrt(vals)[:, None] * w)


def monte_carlo_mse(est: LinearEstimator, *, trials: int, rng_seed: int) -> Tuple[float, float]:
    """Empirical MSE E||h - W P (h + z)||^2 and its standard error.

    Channels are drawn from the Gaussian model CN(0, R_h) with the full-rank
    covariance; interference is white complex Gaussian with the estimator's
    noise variance.
    """
    if trials < 100:
        raise ConfigurationError("need at least 100 trials")
    rng = np.random.default_rng(rng_seed)
    k = est.cov.dim
    sq_errors = np.empty(trials)
    for done in range(0, trials, _MC_BATCH):
        b = min(_MC_BATCH, trials - done)
        h = draw_gaussian_channels(est.cov, b, rng)
        z = (rng.standard_normal((k, b)) + 1j * rng.standard_normal((k, b))) * np.sqrt(
            est.noise_variance / 2.0
        )
        h_hat = est.w @ (est.p @ (h + z))
        sq_errors[done : done + b] = np.sum(np.abs(h - h_hat) ** 2, axis=0)
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / np.sqrt(trials))
    return mse, stderr
