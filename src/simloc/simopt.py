"""Gradient-based configuration of the surface phases.

The bare mismatch objective is E(eta) = ||c * V(eta) - Y||_F^2 between the
effective projection and a target operator Y = U^H, with the complex gain c
concentrated out in closed form (downstream estimators are invariant to a
global scale of the projection). :func:`objective` and :func:`gradient`
expose exactly this quantity and its analytic derivative.

:func:`optimize` solves the practical configuration problem, which differs
from the bare objective in two documented ways:

* the match is weighted by the training ensemble. Input/target pairs
  (r, U^H r) with r drawn from the channel-plus-interference distribution
  weight the operator error by W^2 = w_perp*I + (1-w_perp)*U U^H: subspace
  directions carry the channel power, the complement only the interference
  floor. The complement weight is annealed over a short schedule so the
  subspace is matched first.
* alongside the gain c, a unitary recombination Q of the receiver outputs
  is concentrated out (closed-form polar factor). Which eigendirection
  lands on which receiver chain is immaterial to every downstream
  consumer, so mismatch is measured against the rotated basis U Q, which
  the trace reports.

The gradient is analytic throughout: with T = inv(Z_ss + Z_s(eta)),
dT/deta_m = -T (dZ_s/deta_m) T, and dZ_s/deta_m touches only the two ports
of cell m, so one evaluation costs a factorization plus K forward and M
adjoint solves, never forming T.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from . import matio
from .errors import ConditioningError, OptimizationError
from .multiport import (
    SimNetwork,
    input_embedding,
    load_reactance_slope,
)

_ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`optimize`.

    ``complement_weights`` is the annealed weight schedule for the
    off-subspace directions; ``(1.0,)`` reproduces the plain unweighted
    Frobenius objective. ``method`` is "lbfgs" (default) or "gd" (steepest
    descent with backtracking: step doubled after acceptance, halved up to
    ``max_halvings`` on rejection). ``max_iters`` caps each annealing
    stage.
    """

    max_iters: int = 4000
    step_size: float = 1e-2
    backtrack_factor: float = 0.5
    max_halvings: int = 20
    step_growth: float = 2.0
    target_delta_u: float = 0.1
    gradient_check_period: int = 0
    rng_seed: int = 0
    concentrate_scale: bool = True
    concentrate_rotation: bool = True
    complement_weights: Tuple[float, ...] = (0.0, 0.1, 0.2)
    method: str = "lbfgs"
    trace_every: int = 1

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.target_delta_u < 0:
            raise ValueError("target_delta_u must be nonnegative")
        if not (0 < self.backtrack_factor < 1):
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.method not in ("lbfgs", "gd"):
            raise ValueError("method must be 'lbfgs' or 'gd'")
        if not self.complement_weights:
            raise ValueError("complement_weights must not be empty")


@dataclass
class OptimizationTrace:
    """Per-iteration record of the descent; row 0 is the initial state.

    The objective column carries the weighted objective of the stage each
    row belongs to: it is non-increasing within a stage, but may jump where
    the annealing schedule switches weights. ``rotation`` is the
    concentrated unitary Q (identity when rotation concentration is off);
    the delta metrics are measured against the rotated basis U Q, available
    through :meth:`rotated_basis`.
    """

    objective: List[float] = field(default_factory=list)
    delta_u: List[float] = field(default_factory=list)
    delta_rel: List[float] = field(default_factory=list)
    step: List[float] = field(default_factory=list)
    final_eta: Optional[np.ndarray] = None
    converged: bool = False
    scale: complex = 1.0 + 0.0j
    rotation: Optional[np.ndarray] = None
    stage_bounds: List[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return max(len(self.objective) - 1, 0)

    def append(self, objective: float, delta_u: float, delta_rel: float, step: float) -> None:
        self.objective.append(float(objective))
        self.delta_u.append(float(delta_u))
        self.delta_rel.append(float(delta_rel))
        self.step.append(float(step))

    def rotated_basis(self, u: np.ndarray) -> np.ndarray:
        """The basis U Q the surface was matched against."""
        if self.rotation is None:
            return np.asarray(u)
        return np.asarray(u) @ self.rotation

    def to_csv(self, path: str | Path) -> None:
        rows = [
            (i, self.objective[i], self.delta_u[i], self.delta_rel[i], self.step[i])
            for i in range(len(self.objective))
        ]
        matio.save_csv(path, ["iteration", "objective", "delta_u", "delta_rel", "step"], rows)


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class _EvalState:
    """Everything derivable from one factorization at the current eta."""

    objective: float
    v: np.ndarray
    scale: complex
    rotation_h: np.ndarray  # Q^H, identity when rotation is off
    target_eff: np.ndarray  # (U Q)^H
    delta_u: float
    delta_rel: float
    b: np.ndarray  # T @ C_out^T, reused by the gradient's adjoint pass


def _weight_matrix(u: np.ndarray, w_perp: float) -> Optional[np.ndarray]:
    """W^2 for the ensemble weighting; None means the unweighted identity."""
    if w_perp >= 1.0:
        return None
    k = u.shape[0]
    return w_perp * np.eye(k) + (1.0 - w_perp) * (u @ u.conj().T)


def _concentrate(
    v: np.ndarray,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    with_scale: bool,
    with_rotation: bool,
) -> Tuple[complex, np.ndarray]:
    """Alternating closed-form minimization over the gain c and unitary Q^H."""
    l = u.shape[1]
    q_h = np.eye(l, dtype=complex)
    c = 1.0 + 0.0j
    u_h = u.conj().T
    y = u_h
    # loop invariants; `@` associates left, so w2_vh @ y is w2 @ v^H @ y
    if with_rotation:
        vu = v @ u
    if with_scale:
        if w2 is None:
            den = np.vdot(v, v).real
        else:
            w2_vh = w2 @ v.conj().T
            den = np.real(np.trace(w2_vh @ v))
    rounds = 8 if (with_scale and with_rotation) else 1
    for _ in range(rounds):
        if with_rotation:
            a = c * vu
            left, _, right = np.linalg.svd(a)
            q_h = left @ right  # unitary closest to c*A
            y = q_h @ u_h
        if with_scale:
            if w2 is None:
                num = np.vdot(v, y)
            else:
                num = np.trace(w2_vh @ y)
            if den == 0.0:
                c = 1.0 + 0.0j
                break
            c = complex(num / den)
        if not with_rotation:
            break
    return c, q_h


def _evaluate(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    with_scale: bool,
    with_rotation: bool,
) -> _EvalState:
    b = net.solve(net.c_out.T)  # adjoint pass, M columns
    v = b[net.input_port_indices(), :].T
    c, q_h = _concentrate(v, u, w2, with_scale, with_rotation)
    y = q_h @ u.conj().T
    delta = c * v - y
    if w2 is None:
        obj = float(np.linalg.norm(delta, "fro") ** 2)
    else:
        obj = float(np.real(np.trace(w2 @ delta.conj().T @ delta)))
    if not np.isfinite(obj):
        raise OptimizationError("objective is not finite")
    l = u.shape[1]
    delta_rel = float(np.linalg.norm(delta, "fro") / np.sqrt(l))
    delta_u = float(np.linalg.norm(delta @ u, 2))
    return _EvalState(obj, v, c, q_h, y, delta_u, delta_rel, b)


def _gradient_from_state(
    net: SimNetwork, state: _EvalState, w2: Optional[np.ndarray], weight: float
) -> np.ndarray:
    residual = state.scale * state.v - state.target_eff
    if w2 is not None:
        residual = residual @ w2
    f = net.solve(input_embedding(net))  # forward pass, K columns
    p = f @ residual.conj().T  # (2QK, M)
    w = (p * state.b).sum(axis=1)  # diag of (T E_in) R^H (C_out T)
    w_cell = w[0::2] + w[1::2]
    slope = load_reactance_slope(net.eta, net.x0)
    return -2.0 * weight * slope * np.real(1j * state.scale * w_cell)


# -- spec surface: bare objective and gradient --------------------------------


def _check_target(net: SimNetwork, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (net.n_outputs, net.n_inputs):
        raise OptimizationError(
            f"target shape {target.shape} incompatible with projection "
            f"({net.n_outputs}, {net.n_inputs})"
        )
    return target


def objective(
    net: SimNetwork,
    target: np.ndarray,
    weight: float = 1.0,
    concentrate_scale: bool = True,
) -> float:
    """weight * ||c*V(eta) - target||_F^2 at the network's current phases."""
    target = _check_target(net, target)
    state = _evaluate(net, target.conj().T, None, concentrate_scale, False)
    return weight * state.objective


def gradient(
    net: SimNetwork,
    target: np.ndarray,
    weight: float = 1.0,
    concentrate_scale: bool = True,
) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to every phase."""
    target = _check_target(net, target)
    state = _evaluate(net, target.conj().T, None, concentrate_scale, False)
    return _gradient_from_state(net, state, None, weight)


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
        e_plus = objective(net, target, 1.0, concentrate_scale)
        eta[c] = eta0[c] - step
        net.set_eta(eta)
        e_minus = objective(net, target, 1.0, concentrate_scale)
        out[i] = (e_plus - e_minus) / (2.0 * step)
    net.set_eta(eta0)
    return out


def _gradient_self_check(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    cfg: OptimizerConfig,
    g: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Spot-check two coordinates of the stage gradient against central FD."""
    coords = rng.choice(net.n_cells, size=min(2, net.n_cells), replace=False)
    eta0 = net.eta
    fd = np.empty(len(coords))
    for i, c in enumerate(coords):
        eta = eta0.copy()
        eta[c] = eta0[c] + 1e-5
        net.set_eta(eta)
        e_plus = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation).objective
        eta[c] = eta0[c] - 1e-5
        net.set_eta(eta)
        e_minus = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation).objective
        fd[i] = (e_plus - e_minus) / 2e-5
    net.set_eta(eta0)
    ref = max(float(np.abs(g).max()), 1e-12)
    if np.abs(fd - g[coords]).max() > 1e-3 * ref:
        raise OptimizationError("analytic gradient failed its self-check")


# -- optimizer ----------------------------------------------------------------


def _require_orthonormal_rows(target: np.ndarray) -> np.ndarray:
    gram = target @ target.conj().T
    if np.linalg.norm(gram - np.eye(target.shape[0])) > 1e-8:
        raise OptimizationError(
            "optimize() expects a target with orthonormal rows (U^H)"
        )
    return target.conj().T


def _gd_stage(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    cfg: OptimizerConfig,
    eta: np.ndarray,
    trace: OptimizationTrace,
    rng: np.random.Generator,
    last_stage: bool,
) -> np.ndarray:
    state = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation)
    step = cfg.step_size
    for it in range(cfg.max_iters):
        if last_stage and state.delta_u <= cfg.target_delta_u:
            break
        g = _gradient_from_state(net, state, w2, 1.0)
        if cfg.gradient_check_period and it % cfg.gradient_check_period == 0:
            _gradient_self_check(net, u, w2, cfg, g, rng)
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            break
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            try:
                net.set_eta(eta - step * g)
                trial = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation)
            except ConditioningError:
                step *= cfg.backtrack_factor
                continue
            if trial.objective <= state.objective - _ARMIJO_C1 * step * gnorm2:
                accepted = True
                break
            step *= cfg.backtrack_factor
        if not accepted:
            net.set_eta(eta)
            break
        eta = eta - step * g
        state = trial
        if cfg.trace_every > 0 and it % cfg.trace_every == 0:
            trace.append(state.objective, state.delta_u, state.delta_rel, step)
        step *= cfg.step_growth
    return eta


def _lbfgs_stage(
    net: SimNetwork,
    u: np.ndarray,
    w2: Optional[np.ndarray],
    cfg: OptimizerConfig,
    eta: np.ndarray,
    trace: OptimizationTrace,
) -> np.ndarray:
    last = {"eta": eta}
    # the point fun evaluated last and its state: the callback's iterate is
    # normally that point, so the trace reuses it instead of factorizing again
    memo = {"x": None, "state": None}

    def fun(x: np.ndarray):
        net.set_eta(x)
        try:
            state = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation)
        except ConditioningError:
            memo["x"] = None
            return 1e9, np.zeros_like(x)
        memo["x"], memo["state"] = x.copy(), state
        return state.objective, _gradient_from_state(net, state, w2, 1.0)

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
                state = _evaluate(net, u, w2, cfg.concentrate_scale, cfg.concentrate_rotation)
            except ConditioningError:
                return
        move = float(np.linalg.norm(x - last["eta"]))
        last["eta"] = x.copy()
        trace.append(state.objective, state.delta_u, state.delta_rel, move)

    res = minimize(
        fun,
        eta,
        jac=True,
        method="L-BFGS-B",
        callback=record if cfg.trace_every > 0 else None,
        options=dict(maxiter=cfg.max_iters, ftol=1e-16, gtol=1e-14),
    )
    return np.asarray(res.x)


def optimize(net: SimNetwork, target: np.ndarray, cfg: OptimizerConfig) -> OptimizationTrace:
    """Configure the surface against the target projection U^H.

    Phases start uniform in (-pi, pi] from ``cfg.rng_seed`` and descend the
    ensemble-weighted mismatch through the annealing schedule; convergence
    means the final effective subspace mismatch (measured on the scaled,
    rotated match under the final stage weighting) is at or below
    ``cfg.target_delta_u``. The final eta is left installed in the network.
    Non-convergence is reported through the flag, not an exception.
    """
    target = _check_target(net, target)
    u = _require_orthonormal_rows(target)
    rng = np.random.default_rng(cfg.rng_seed)
    eta = rng.uniform(-np.pi, np.pi, size=net.n_cells)
    net.set_eta(eta)
    eta = net.eta

    trace = OptimizationTrace()
    final_w2 = _weight_matrix(u, cfg.complement_weights[-1])
    state = _evaluate(net, u, final_w2, cfg.concentrate_scale, cfg.concentrate_rotation)
    trace.append(state.objective, state.delta_u, state.delta_rel, 0.0)

    if state.delta_u > cfg.target_delta_u:
        n_stages = len(cfg.complement_weights)
        for i, w_perp in enumerate(cfg.complement_weights):
            w2 = _weight_matrix(u, w_perp)
            trace.stage_bounds.append(len(trace.objective))
            if cfg.method == "gd":
                eta = _gd_stage(net, u, w2, cfg, eta, trace, rng, i == n_stages - 1)
            else:
                eta = _lbfgs_stage(net, u, w2, cfg, eta, trace)
        net.set_eta(eta)
        state = _evaluate(net, u, final_w2, cfg.concentrate_scale, cfg.concentrate_rotation)
        trace.append(state.objective, state.delta_u, state.delta_rel, 0.0)

    trace.converged = state.delta_u <= cfg.target_delta_u
    trace.scale = state.scale
    trace.rotation = state.rotation_h.conj().T
    trace.final_eta = net.eta
    return trace


@dataclass(frozen=True)
class CalibratedProjection:
    """A physical projection paired with its calibration against a subspace.

    ``v_scaled`` = c * V and ``u_basis`` = U Q, where the gain c and unitary
    rotation Q concentrate the ensemble-weighted mismatch; the delta metrics
    are measured between the two (the same convention the optimizer reports).
    """

    v_scaled: np.ndarray
    u_basis: np.ndarray
    scale: complex
    rotation: np.ndarray
    delta_u: float
    delta_rel: float


def calibrate_projection(
    v: np.ndarray,
    u: np.ndarray,
    w_perp: float = 0.2,
    with_scale: bool = True,
    with_rotation: bool = True,
) -> CalibratedProjection:
    """Concentrate the gain and output rotation of a raw projection.

    ``w_perp`` is the complement weight of the training ensemble (use the
    last entry of the optimizer's annealing schedule for consistency with
    reported traces)."""
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    w2 = _weight_matrix(u, w_perp)
    c, q_h = _concentrate(v, u, w2, with_scale, with_rotation)
    y = q_h @ u.conj().T
    delta = c * v - y
    l = u.shape[1]
    return CalibratedProjection(
        v_scaled=c * v,
        u_basis=u @ q_h.conj().T,
        scale=c,
        rotation=q_h.conj().T,
        delta_u=float(np.linalg.norm(delta @ u, 2)),
        delta_rel=float(np.linalg.norm(delta, "fro") / np.sqrt(l)),
    )


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
