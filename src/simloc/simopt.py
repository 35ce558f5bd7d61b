"""Gradient-based configuration of the surface phases.

The bare mismatch objective is E(eta) = ||c * V(eta) - Y||_F^2 between the
effective projection and a target operator Y = U^H, with the complex gain c
concentrated out in closed form (downstream estimators are invariant to a
global scale of the projection). :func:`objective` and :func:`gradient`
expose exactly this quantity and its analytic derivative.

:func:`optimize` solves the practical configuration problem with L-BFGS-B
over an annealing schedule of stages, on the same analytic gradient. It
differs from the bare objective in two documented ways:

* the match is weighted by the training ensemble. Input/target pairs
  (r, U^H r) with r drawn from the channel-plus-interference distribution
  weight the operator error by W^2 = w_perp*I + (1-w_perp)*U U^H: subspace
  directions carry the channel power, the complement only the interference
  floor. The complement weight is annealed over a short schedule so the
  subspace is matched first.
* alongside the gain c, a unitary recombination Q of the receiver outputs
  is concentrated out (closed-form polar factor). Which eigendirection
  lands on which receiver chain is immaterial to every downstream
  consumer, so mismatch is measured against the rotated basis U Q.

The delta metrics of the trace and the stop rule are the formulas of
:mod:`bounds`. A configured network is reported through
:func:`calibrate_projection` of its column-solve projection, which
concentrates c and Q again under the final-stage weighting; the optimizer's
own (c, Q) stay inside the descent.

A restart stops as soon as the surface is good enough for estimation, at
any objective evaluation of any stage (line-search points included). The
stop rule asks for both
  delta_U <= tau (``target_delta_u``), measured under the final-stage
  weighting as :func:`optimize` reports it, and
  rho(V) = ||(V U)^{-1} V||_F^2 / L <= 1 / (1 - 2 tau - tau^2),
where rho is the RS-LS noise inflation (:func:`bounds.noise_inflation`).
The bound on delta_U alone caps the MSE loss only for energy-preserving
projections; the rho condition caps it for the physical one, whose
complement leakage the later stages keep lowering. A restart that never
meets the rule runs every stage until L-BFGS-B ends it (iteration cap or
no further progress).

The gradient is analytic throughout: with T = inv(Z_ss + Z_s(eta)),
dT/deta_m = -T (dZ_s/deta_m) T, and dZ_s/deta_m touches only the two ports
of cell m, so one evaluation costs one factorization, made in place in the
network's work buffer, plus M adjoint and M forward solves, never forming
T. The forward right-hand side is the weighted residual scattered onto the
input ports. The stop rule reuses the evaluation's rotation and recomputes
only the gain under the final weighting, and the delta metrics of an
evaluation are computed only when the stop rule or a trace row reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from . import matio
from .bounds import mse_ratio_bound, noise_inflation, relative_mismatch, subspace_mismatch
from .errors import ConditioningError, ConfigurationError, OptimizationError
from .multiport import SimNetwork, load_reactance_slope


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`optimize`.

    ``complement_weights`` is the annealed schedule of the off-subspace
    weight, each entry in [0, 1]; ``(1.0,)`` reproduces the plain unweighted
    Frobenius objective. ``max_iters`` caps the L-BFGS iterations of each
    stage, ``target_delta_u`` is the convergence threshold on the final
    delta_U and sets the stop rule, ``rng_seed`` draws the starting phases
    and ``trace_every`` keeps every n-th iterate in the trace (0 turns it
    off). Out-of-range values raise :class:`ConfigurationError`.
    """

    max_iters: int = 4000
    target_delta_u: float = 0.1
    rng_seed: int = 0
    complement_weights: Tuple[float, ...] = (0.0, 0.1, 0.2)
    trace_every: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigurationError("optimizer.max_iters must be at least 1")
        if self.target_delta_u < 0:
            raise ConfigurationError("target_delta_u must be nonnegative")
        if not self.complement_weights:
            raise ConfigurationError("optimizer.complement_weights must not be empty")
        if not all(0.0 <= w <= 1.0 for w in self.complement_weights):
            raise ConfigurationError("optimizer.complement_weights must lie in [0, 1]")


@dataclass
class OptimizationTrace:
    """Per-iteration record of the descent; row 0 is the initial state.

    The objective column carries the weighted objective of the stage each
    row belongs to: it is non-increasing within a stage, but may jump where
    the annealing schedule switches weights. The delta metrics are measured
    against the rotated basis U Q under each row's concentrated (c, Q).
    ``stopped_on_target`` is set when the stop rule ended the run.
    """

    objective: List[float] = field(default_factory=list)
    delta_u: List[float] = field(default_factory=list)
    delta_rel: List[float] = field(default_factory=list)
    step: List[float] = field(default_factory=list)
    final_eta: Optional[np.ndarray] = None
    converged: bool = False
    stage_bounds: List[int] = field(default_factory=list)
    stopped_on_target: bool = False

    @property
    def iterations(self) -> int:
        return max(len(self.objective) - 1, 0)

    def append(self, objective: float, delta_u: float, delta_rel: float, step: float) -> None:
        self.objective.append(float(objective))
        self.delta_u.append(float(delta_u))
        self.delta_rel.append(float(delta_rel))
        self.step.append(float(step))

    def to_csv(self, path: str | Path) -> None:
        rows = [
            (i, self.objective[i], self.delta_u[i], self.delta_rel[i], self.step[i])
            for i in range(len(self.objective))
        ]
        matio.save_csv(path, ["iteration", "objective", "delta_u", "delta_rel", "step"], rows)


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class _EvalState:
    """Everything derivable from one factorization at the current eta.

    The delta metrics are computed from the residual on first read: within
    a stage before the last, only a trace row reads them."""

    objective: float
    v: np.ndarray
    scale: complex
    target_eff: np.ndarray  # (U Q)^H
    delta: np.ndarray  # c V - (U Q)^H
    u: np.ndarray
    b: np.ndarray  # T @ C_out^T, reused by the gradient's adjoint pass

    @cached_property
    def delta_u(self) -> float:
        return subspace_mismatch(self.delta, self.u)

    @cached_property
    def delta_rel(self) -> float:
        return relative_mismatch(self.delta, self.u)


def _weight_matrix(u: np.ndarray, w_perp: float) -> Optional[np.ndarray]:
    """W^2 for the ensemble weighting; None means the unweighted identity."""
    if w_perp >= 1.0:
        return None
    k = u.shape[0]
    return w_perp * np.eye(k) + (1.0 - w_perp) * (u @ u.conj().T)


def _gain(v: np.ndarray, y: np.ndarray, w2: Optional[np.ndarray]) -> complex:
    """The gain c minimizing the W^2-weighted ||c V - Y||."""
    if w2 is None:
        num, den = np.vdot(v, y), np.vdot(v, v).real
    else:
        w2_vh = w2 @ v.conj().T
        num, den = np.trace(w2_vh @ y), np.real(np.trace(w2_vh @ v))
    if den == 0.0:
        return 1.0 + 0.0j
    return complex(num / den)


def _concentrate(
    v: np.ndarray,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    with_scale: bool,
    with_rotation: bool,
) -> Tuple[complex, np.ndarray]:
    """Closed-form minimization over the unitary Q^H, then the gain c.

    Q^H is the polar factor P of V U = P H, whatever the weighting. Because
    U^H W^2 = U^H, the gain that follows is tr(H) / tr(W^2 V^H V), real and
    positive, so a further rotation step would return the same P: one round
    of the gain/rotation alternation is its fixed point.
    """
    y = u.conj().T
    if with_rotation:
        left, _, right = np.linalg.svd(v @ u)
        q_h = left @ right  # unitary closest to V U
        y = q_h @ y
    else:
        q_h = np.eye(u.shape[1], dtype=complex)
    if not with_scale:
        return 1.0 + 0.0j, q_h
    return _gain(v, y, w2), q_h


def _mismatch(
    v: np.ndarray,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    with_scale: bool,
    with_rotation: bool,
) -> Tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
    """Concentrate c and Q^H, then the residual Delta = c V - Q^H U^H:
    returns (c, Q^H, Q^H U^H, Delta)."""
    c, q_h = _concentrate(v, u, w2, with_scale, with_rotation)
    y = q_h @ u.conj().T
    delta = c * v - y
    if not np.isfinite(delta).all():
        raise OptimizationError("projection mismatch is not finite")
    return c, q_h, y, delta


def _evaluate(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    with_scale: bool,
    with_rotation: bool,
) -> _EvalState:
    b = net.solve(net.c_out.T)  # adjoint pass, M columns
    v = b[net.input_port_indices(), :].T
    c, _, y, delta = _mismatch(v, u, w2, with_scale, with_rotation)
    if w2 is None:
        obj = float(np.linalg.norm(delta, "fro") ** 2)
    else:
        obj = float(np.real(np.trace(w2 @ delta.conj().T @ delta)))
    if not np.isfinite(obj):
        raise OptimizationError("objective is not finite")
    return _EvalState(obj, v, c, y, delta, u, b)


def _gradient_from_state(
    net: SimNetwork, state: _EvalState, w2: Optional[np.ndarray]
) -> np.ndarray:
    residual = state.scale * state.v - state.target_eff
    if w2 is not None:
        residual = residual @ w2
    # forward pass, M columns: E_in R^H, R^H scattered onto the input ports
    rhs = np.zeros((net.n_ports, residual.shape[0]), dtype=complex, order="F")
    rhs[net.input_port_indices()] = residual.conj().T
    p = net.solve(rhs)
    w = (p * state.b).sum(axis=1)  # diag of (T E_in) R^H (C_out T)
    w_cell = w[0::2] + w[1::2]
    slope = load_reactance_slope(net.eta, net.x0)
    return -2.0 * slope * np.real(1j * state.scale * w_cell)


# -- spec surface: bare objective and gradient --------------------------------


def _check_target(net: SimNetwork, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (net.n_outputs, net.n_inputs):
        raise OptimizationError(
            f"target shape {target.shape} incompatible with projection "
            f"({net.n_outputs}, {net.n_inputs})"
        )
    return target


def objective(net: SimNetwork, target: np.ndarray, concentrate_scale: bool = True) -> float:
    """||c*V(eta) - target||_F^2 at the network's current phases."""
    target = _check_target(net, target)
    return _evaluate(net, target.conj().T, None, concentrate_scale, False).objective


def gradient(net: SimNetwork, target: np.ndarray, concentrate_scale: bool = True) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to every phase."""
    target = _check_target(net, target)
    state = _evaluate(net, target.conj().T, None, concentrate_scale, False)
    return _gradient_from_state(net, state, None)


def finite_difference_gradient(
    net: SimNetwork,
    target: np.ndarray,
    coords: Sequence[int],
    step: float = 1e-5,
    concentrate_scale: bool = True,
) -> np.ndarray:
    """Central finite differences of :func:`objective`, the test oracle."""
    target = _check_target(net, target)
    eta0 = net.eta
    out = np.empty(len(coords))
    for i, c in enumerate(coords):
        eta = eta0.copy()
        eta[c] = eta0[c] + step
        net.set_eta(eta)
        e_plus = objective(net, target, concentrate_scale)
        eta[c] = eta0[c] - step
        net.set_eta(eta)
        e_minus = objective(net, target, concentrate_scale)
        out[i] = (e_plus - e_minus) / (2.0 * step)
    net.set_eta(eta0)
    return out


# -- optimizer ----------------------------------------------------------------


def _require_orthonormal_rows(target: np.ndarray) -> np.ndarray:
    gram = target @ target.conj().T
    if np.linalg.norm(gram - np.eye(target.shape[0])) > 1e-8:
        raise OptimizationError(
            "optimize() expects a target with orthonormal rows (U^H)"
        )
    return target.conj().T


class _TargetMet(Exception):
    """Raised out of the L-BFGS objective at a point that meets the target."""

    def __init__(self, x: np.ndarray):
        super().__init__()
        self.x = x


def _final_delta_u(
    state: _EvalState,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    final_w2: Optional[np.ndarray],
) -> float:
    """delta_U of the state's V under the final-stage weighting. Q^H and
    Y = Q^H U^H do not depend on the weighting, so a state evaluated at an
    earlier stage's W^2 only needs the gain c again."""
    if w2 is final_w2:
        return state.delta_u
    c = _gain(state.v, state.target_eff, final_w2)
    return subspace_mismatch(c * state.v - state.target_eff, u)


def _meets_target(
    state: _EvalState,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    final_w2: Optional[np.ndarray],
    target_delta_u: float,
) -> bool:
    """The stop rule: delta_U under the final-stage weighting within the
    target, and the RS-LS noise inflation within the MSE ratio bound the
    target implies."""
    return (
        _final_delta_u(state, u, w2, final_w2) <= target_delta_u
        and noise_inflation(state.v, u) <= mse_ratio_bound(target_delta_u)
    )


def _lbfgs_stage(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    final_w2: Optional[np.ndarray],
    cfg: OptimizerConfig,
    eta: np.ndarray,
    trace: OptimizationTrace,
) -> Tuple[np.ndarray, bool]:
    """One L-BFGS-B run at weight W^2; returns its end point and whether it
    stopped there because the stop rule fired."""
    last = {"eta": eta}
    # the point fun evaluated last and its state: the callback's iterate is
    # normally that point, so the trace reuses it instead of factorizing again
    memo = {"x": None, "state": None}

    def fun(x: np.ndarray):
        net.set_eta(x)
        try:
            state = _evaluate(net, u, w2, True, True)
        except ConditioningError:
            memo["x"] = None
            return 1e9, np.zeros_like(x)
        if _meets_target(state, u, w2, final_w2, cfg.target_delta_u):
            raise _TargetMet(x.copy())
        memo["x"], memo["state"] = x.copy(), state
        return state.objective, _gradient_from_state(net, state, w2)

    count = {"n": 0}

    def record(x: np.ndarray):
        count["n"] += 1
        if (count["n"] - 1) % max(cfg.trace_every, 1) != 0:
            return
        if memo["x"] is not None and np.array_equal(x, memo["x"]):
            state = memo["state"]
        else:
            try:
                net.set_eta(x)
                state = _evaluate(net, u, w2, True, True)
            except ConditioningError:
                return
        move = float(np.linalg.norm(x - last["eta"]))
        last["eta"] = x.copy()
        trace.append(state.objective, state.delta_u, state.delta_rel, move)

    try:
        res = minimize(
            fun,
            eta,
            jac=True,
            method="L-BFGS-B",
            callback=record if cfg.trace_every > 0 else None,
            options=dict(maxiter=cfg.max_iters, ftol=1e-16, gtol=1e-14),
        )
    except _TargetMet as met:
        return met.x, True
    return np.asarray(res.x), False


def optimize(net: SimNetwork, target: np.ndarray, cfg: OptimizerConfig) -> OptimizationTrace:
    """Configure the surface against the target projection U^H.

    Phases start uniform in (-pi, pi] from ``cfg.rng_seed`` and descend the
    ensemble-weighted mismatch through the annealing schedule, one L-BFGS-B
    run of up to ``cfg.max_iters`` iterations per stage. The first evaluated
    point that meets the stop rule (module docstring) ends the restart there
    and skips the remaining stages; ``stopped_on_target`` records it.
    Convergence means the final effective subspace mismatch (measured on the
    scaled, rotated match under the final stage weighting) is at or below
    ``cfg.target_delta_u``. The final eta is left installed in the network.
    Non-convergence is reported through the flag, not an exception.
    """
    target = _check_target(net, target)
    u = _require_orthonormal_rows(target)
    eta = np.random.default_rng(cfg.rng_seed).uniform(-np.pi, np.pi, size=net.n_cells)
    net.set_eta(eta)
    eta = net.eta

    trace = OptimizationTrace()
    stage_w2 = [_weight_matrix(u, w_perp) for w_perp in cfg.complement_weights]
    final_w2 = stage_w2[-1]
    state = _evaluate(net, u, final_w2, True, True)
    trace.append(state.objective, state.delta_u, state.delta_rel, 0.0)

    if state.delta_u > cfg.target_delta_u:
        for w2 in stage_w2:
            trace.stage_bounds.append(len(trace.objective))
            eta, stopped = _lbfgs_stage(net, u, w2, final_w2, cfg, eta, trace)
            if stopped:
                trace.stopped_on_target = True
                break
        net.set_eta(eta)
        state = _evaluate(net, u, final_w2, True, True)
        trace.append(state.objective, state.delta_u, state.delta_rel, 0.0)

    trace.converged = state.delta_u <= cfg.target_delta_u
    trace.final_eta = net.eta
    return trace


@dataclass(frozen=True)
class CalibratedProjection:
    """A physical projection paired with its calibration against a subspace.

    ``v_scaled`` = c * V and ``u_basis`` = U Q, where the gain c and unitary
    rotation Q concentrate the ensemble-weighted mismatch; its metrics are
    ``bounds.mismatch_metrics(v_scaled, u_basis)``.
    """

    v_scaled: np.ndarray
    u_basis: np.ndarray
    scale: complex


def calibrate_projection(
    v: np.ndarray,
    u: np.ndarray,
    w_perp: float = 0.2,
    with_scale: bool = True,
    with_rotation: bool = True,
) -> CalibratedProjection:
    """Concentrate the gain and output rotation of a raw projection.

    ``w_perp`` is the complement weight of the training ensemble; a
    configured network is calibrated at the last entry of the optimizer's
    annealing schedule, the weighting its stop rule measures under."""
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    c, q_h, _, _ = _mismatch(v, u, _weight_matrix(u, w_perp), with_scale, with_rotation)
    return CalibratedProjection(v_scaled=c * v, u_basis=u @ q_h.conj().T, scale=c)


def optimize_multistart(
    net: SimNetwork,
    target: np.ndarray,
    cfg: OptimizerConfig,
    restarts: int = 5,
) -> OptimizationTrace:
    """Run :func:`optimize` from successive seeds, keep the best mismatch.

    Stops early at the first converged restart; otherwise returns the
    attempt with the smallest final delta_U (its eta left in the network).
    """
    best: Optional[OptimizationTrace] = None
    best_eta = None
    for r in range(max(restarts, 1)):
        trace = optimize(net, target, replace(cfg, rng_seed=cfg.rng_seed + r))
        if best is None or trace.delta_u[-1] < best.delta_u[-1]:
            best = trace
            best_eta = net.eta
        if trace.converged:
            break
    net.set_eta(best_eta)
    best.final_eta = net.eta
    return best
