"""Channel estimators and their analytic error covariances.

Every estimator is linear in the observation, accepts a single column or a
(dim, batch) block of columns, and returns a report carrying the analytic
error covariance of the estimator (not a sample statistic).

Reduced estimators treat the channel model as confined to the retained
subspace: their covariances follow the posterior / least-squares algebra on
the rank-L model U diag(D) U^H, and the prior power living outside those L
modes is reported separately as ``truncation_mse`` instead of being folded
into the covariance. Monte Carlo evaluation draws from the full-rank model,
so empirical figures include the truncation penalty.

:func:`estimator_suite` is the compared set at one noise level, each member
materialized once as its estimator matrix W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .channel import CovarianceModel, covariance_from_matrix, reduce_subspace
from .errors import ConfigurationError, EstimationError

EstimatorFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ObservationModel:
    """How the digital domain sees the incident field.

    mode 'full-array' / 'digital-baseline': y = r (one chain per element);
    mode 'ideal-projection': y = U^H r; mode 'sim-projection': y = V r.
    """

    mode: str
    cov: CovarianceModel
    noise_variance: float
    v: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.mode not in ("full-array", "ideal-projection", "sim-projection", "digital-baseline"):
            raise ConfigurationError(f"unknown observation mode {self.mode!r}")
        if self.noise_variance <= 0:
            raise ConfigurationError("noise variance must be positive")
        if self.mode == "sim-projection" and self.v is None:
            raise ConfigurationError("sim-projection mode requires a projection matrix")

    def projection(self) -> np.ndarray:
        if self.mode in ("full-array", "digital-baseline"):
            return np.eye(self.cov.dim, dtype=complex)
        if self.mode == "ideal-projection":
            return self.cov.u.conj().T
        return np.asarray(self.v, dtype=complex)


@dataclass(frozen=True)
class EstimationReport:
    """Estimate plus the analytic second-order error description."""

    estimator_tag: str
    h_hat: np.ndarray
    error_covariance: Optional[np.ndarray]
    scalar_mse: Optional[float]
    truncation_mse: float = 0.0


def _as_columns(y: np.ndarray) -> Tuple[np.ndarray, bool]:
    y = np.asarray(y, dtype=complex)
    if y.ndim == 1:
        return y[:, None], True
    return y, False


def _restore(h: np.ndarray, squeeze: bool) -> np.ndarray:
    return h[:, 0] if squeeze else h


def _hermitize(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + c.conj().T)


def mmse_full(r: np.ndarray, cov: CovarianceModel, sigma_z2: float) -> EstimationReport:
    """Linear MMSE from the full-array observation r = h + z."""
    y, squeeze = _as_columns(r)
    rh = cov.r_h
    k = cov.dim
    a = rh + sigma_z2 * np.eye(k)
    x = np.linalg.solve(a, rh)  # (R + s2 I)^{-1} R
    h_hat = x.conj().T @ y
    err = _hermitize(rh - rh @ x)
    return EstimationReport(
        estimator_tag="mmse-full",
        h_hat=_restore(h_hat, squeeze),
        error_covariance=err,
        scalar_mse=float(np.real(np.trace(err))),
    )


def mmse_reduced(y: np.ndarray, cov: CovarianceModel, sigma_z2: float) -> EstimationReport:
    """MMSE from the sufficient statistic y = U^H r of the rank-L model."""
    y2, squeeze = _as_columns(y)
    u, d = cov.u, cov.d
    if y2.shape[0] != u.shape[1]:
        raise ConfigurationError("reduced observation has wrong length")
    shrink = d / (d + sigma_z2)
    h_hat = u @ (shrink[:, None] * y2)
    err = _hermitize(u @ np.diag(d * sigma_z2 / (d + sigma_z2)) @ u.conj().T)
    return EstimationReport(
        estimator_tag="mmse-reduced",
        h_hat=_restore(h_hat, squeeze),
        error_covariance=err,
        scalar_mse=float(np.sum(d * sigma_z2 / (d + sigma_z2))),
        truncation_mse=cov.truncation_power(len(d)),
    )


def rsls_ideal(
    y: np.ndarray, u: np.ndarray, sigma_z2: Optional[float] = None
) -> EstimationReport:
    """Reduced-subspace least squares from y = U^H r; noise-variance-free.

    The error covariance (sigma_z^2 U U^H, scalar MSE sigma_z^2 * L) is
    attached only when the noise variance is supplied.
    """
    y2, squeeze = _as_columns(y)
    u = np.asarray(u, dtype=complex)
    h_hat = u @ y2
    err = None
    mse = None
    if sigma_z2 is not None:
        err = _hermitize(sigma_z2 * (u @ u.conj().T))
        mse = float(sigma_z2 * u.shape[1])
    return EstimationReport(
        estimator_tag="rsls-ideal",
        h_hat=_restore(h_hat, squeeze),
        error_covariance=err,
        scalar_mse=mse,
    )


def _reduced_prior(cov: CovarianceModel) -> np.ndarray:
    """Rank-L channel covariance U diag(D) U^H used by post-projection MMSE."""
    return cov.u @ np.diag(cov.d) @ cov.u.conj().T


def mmse_post_sim(
    y: np.ndarray, v: np.ndarray, cov: CovarianceModel, sigma_z2: float
) -> EstimationReport:
    """MMSE from the projected observation y = V r.

    Uses the rank-L channel model, so with V = U^H this reduces exactly to
    :func:`mmse_reduced`; the truncated prior power is reported separately.
    """
    y2, squeeze = _as_columns(y)
    v = np.asarray(v, dtype=complex)
    rh = _reduced_prior(cov)
    rv = rh @ v.conj().T
    inner = v @ rv + sigma_z2 * (v @ v.conj().T)
    cond = np.linalg.cond(inner)
    if not np.isfinite(cond) or cond > 1e14:
        raise EstimationError(
            f"projected observation covariance is singular (cond {cond:.3e}); "
            "check the projection for zero rows"
        )
    gain = np.linalg.solve(inner, rv.conj().T).conj().T  # R V^H inv(inner)
    h_hat = gain @ y2
    err = _hermitize(rh - gain @ rv.conj().T)
    return EstimationReport(
        estimator_tag="mmse-sim",
        h_hat=_restore(h_hat, squeeze),
        error_covariance=err,
        scalar_mse=float(np.real(np.trace(err))),
        truncation_mse=cov.truncation_power(cov.u.shape[1]),
    )


def rsls_post_sim(
    y: np.ndarray,
    v: np.ndarray,
    u: np.ndarray,
    sigma_z2: float,
    truncation_mse: float = 0.0,
) -> EstimationReport:
    """Least squares through the reduced operator A = V U after the surface.

    g_hat = (A^H A)^{-1} A^H y, h_hat = U g_hat; the error covariance of
    g_hat propagates the projected noise with covariance sigma_z^2 V V^H.
    """
    y2, squeeze = _as_columns(y)
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
    g_hat = pinv @ y2
    h_hat = u @ g_hat
    cz = sigma_z2 * (v @ v.conj().T)
    c_g = _hermitize(pinv @ cz @ pinv.conj().T)
    return EstimationReport(
        estimator_tag="rsls-sim",
        h_hat=_restore(h_hat, squeeze),
        error_covariance=_hermitize(u @ c_g @ u.conj().T),
        scalar_mse=float(np.real(np.trace(c_g))),
        truncation_mse=truncation_mse,
    )


def digital_baseline(r: np.ndarray, cov: CovarianceModel, sigma_z2: float) -> EstimationReport:
    """Fully digital reference: one chain per element, full-array MMSE."""
    rep = mmse_full(r, cov, sigma_z2)
    return EstimationReport(
        estimator_tag="digital-baseline",
        h_hat=rep.h_hat,
        error_covariance=rep.error_covariance,
        scalar_mse=rep.scalar_mse,
    )


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
    """One estimator of the suite, h_hat = W y, with y observed through
    ``model``; ``analytic_mse`` is the rank-L model error plus the truncated
    prior power."""

    w: np.ndarray
    model: ObservationModel
    analytic_mse: float

    def estimate(self, y: np.ndarray) -> np.ndarray:
        return self.w @ y

    def exact_mse(self) -> float:
        """Exact Gaussian-model MSE of h_hat = W P (h + z) under the full
        covariance, including any out-of-subspace leakage."""
        w = self.w @ self.model.projection()
        cov = self.model.cov
        eye = np.eye(cov.dim)
        bias_cov = (eye - w) @ cov.r_h @ (eye - w).conj().T
        noise_cov = self.model.noise_variance * (w @ w.conj().T)
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
    ``(v, u_basis)`` adds ``mmse-sim`` and ``rsls-sim`` behind V. Each W is
    the estimator function applied once to the identity.
    """
    trunc = cov.truncation_power(u.shape[1])
    eye_l = np.eye(u.shape[1], dtype=complex)
    u_h = u.conj().T

    def entry(rep: EstimationReport, v: Optional[np.ndarray], truncation: float):
        mode = "digital-baseline" if v is None else "sim-projection"
        model = ObservationModel(mode=mode, cov=cov, noise_variance=sigma_z2, v=v)
        return LinearEstimator(rep.h_hat, model, rep.scalar_mse + truncation)

    baseline = digital_baseline(np.eye(cov.dim, dtype=complex), cov, sigma_z2)
    suite = {
        "mmse-ideal": entry(mmse_reduced(eye_l, cov_l, sigma_z2), u_h, trunc),
        "rsls-ideal": entry(rsls_ideal(eye_l, u, sigma_z2), u_h, trunc),
        "digital-baseline": entry(baseline, None, 0.0),
    }
    if surface is not None:
        v, u_basis = surface
        suite["mmse-sim"] = entry(mmse_post_sim(eye_l, v, cov_l, sigma_z2), v, trunc)
        suite["rsls-sim"] = entry(rsls_post_sim(eye_l, v, u_basis, sigma_z2), v, trunc)
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


def monte_carlo_mse(
    model: ObservationModel,
    estimator: EstimatorFn,
    trials: int,
    rng_seed: int,
    batch: int = 1000,
) -> Tuple[float, float]:
    """Empirical MSE E||h - h_hat||^2 and its standard error.

    ``estimator`` maps a (dim, batch) observation block to a (K, batch)
    block of channel estimates. Channels are drawn from the Gaussian model
    CN(0, R_h) with the full-rank covariance; interference is white complex
    Gaussian with the model's noise variance.
    """
    if trials < 100:
        raise ConfigurationError("need at least 100 trials")
    rng = np.random.default_rng(rng_seed)
    proj = model.projection()
    k = model.cov.dim
    sq_errors = np.empty(trials)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        h = draw_gaussian_channels(model.cov, b, rng)
        z = (rng.standard_normal((k, b)) + 1j * rng.standard_normal((k, b))) * np.sqrt(
            model.noise_variance / 2.0
        )
        y = proj @ (h + z)
        h_hat = estimator(y)
        sq_errors[done : done + b] = np.sum(np.abs(h - h_hat) ** 2, axis=0)
        done += b
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / np.sqrt(trials))
    return mse, stderr
