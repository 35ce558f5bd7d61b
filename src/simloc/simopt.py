"""Gradient-based configuration of the surface phases.

The bare mismatch objective is E(eta) = ||c * V(eta) - Y||_F^2 between the
effective projection and a target operator Y = U^H, with the complex gain c
concentrated out in closed form (downstream estimators are invariant to a
global scale of the projection). :func:`objective` and :func:`gradient`
expose exactly this quantity and its analytic derivative.

:func:`optimize` solves the practical configuration problem with L-BFGS
(:func:`minimize`) over an annealing schedule of stages, on the same
analytic gradient. It differs from the bare objective in two documented
ways:

* alongside the gain c, a unitary recombination Q of the receiver outputs
  is concentrated out (closed-form polar factor). Which eigendirection
  lands on which receiver chain is immaterial to every downstream
  consumer, so mismatch is measured against the rotated basis U Q.
* the match is weighted by the training ensemble. Input/target pairs
  (r, U^H r) with r drawn from the channel-plus-interference distribution
  weight the operator error by W^2 = w I + (1 - w) U U^H: subspace
  directions carry the channel power, the complement only the interference
  floor. As U^H U = I, the complement weight w is all the weighting needs:
  with Y = Q^H U^H, Delta = c V - Y and Delta U = c V U - Q^H,
    gain       c = (w <V, Y> + (1 - w) <V U, Q^H>) / (w ||V||^2 + (1 - w) ||V U||^2)
    objective  w ||Delta||^2 + (1 - w) ||Delta U||^2
    residual   Delta W^2 = w Delta + (1 - w) (Delta U) U^H
  and no K x K matrix is formed. w is annealed over a short schedule so
  the subspace is matched first.

The delta metrics of the trace and the stop rule are the formulas of
:mod:`bounds`, delta_U taken on the L x L residual Delta U. A configured
network is reported through :func:`calibrate_projection` of its
column-solve projection, which concentrates c and Q again under the
final-stage weight; the optimizer's own (c, Q) stay inside the descent.

A restart stops as soon as the surface is good enough for estimation, at
its random start or at any objective evaluation of any stage (line-search
points included). The stop rule asks for both
  delta_U <= tau (``target_delta_u``), measured under the final-stage
  weight as :func:`optimize` reports it, and
  rho(V) = ||(V U)^{-1} V||_F^2 / L <= 1 / (1 - 2 tau - tau^2),
where rho is the RS-LS noise inflation (:func:`bounds.noise_inflation`).
The bound on delta_U alone caps the MSE loss only for energy-preserving
projections; the rho condition caps it for the physical one, whose
complement leakage the later stages keep lowering. A restart that never
meets the rule runs every stage until L-BFGS ends it (step or evaluation
cap, or no further progress). Q^H and Y do not depend on the weighting,
so a state of any stage needs only the gain c_f at the final weight: the
rule's delta_U is that of the L x L residual c_f V U - Q^H.

The gradient is analytic throughout: with T = inv(Z_ss + Z_s(eta)),
dT/deta_m = -T (dZ_s/deta_m) T, and dZ_s/deta_m touches only the two ports
of cell m, so one evaluation costs one factorization, made in place in the
network's work buffer, plus M adjoint and M forward solves, never forming
T. The forward right-hand side is the weighted residual scattered onto the
input ports. The delta metrics of an evaluation are computed only when the
stop rule or a trace row reads them.

Every optimizer evaluation and every calibration takes one path: Q, then
c, concentrated at a complement weight (W^2 = I at w = 1). The bare
objective is the one caller without the rotation, so it forms its own
residuals at Q = I; it shares the gain (at w = 1) and the gradient.

:func:`minimize` is an unconstrained L-BFGS (Liu & Nocedal 1989): the
two-loop recursion over the last 10 (s, y) pairs, its initial matrix
scaled by s^T y / y^T y of the newest pair, and a weak-Wolfe
bisection/doubling line search (Lewis & Overton 2013). Phases are angles,
so no bound applies. A trial point whose impedance matrix is too badly
conditioned to factorize counts as a failed sufficient-decrease test: the
step shrinks and the point is never accepted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import matio
from .bounds import mse_ratio_bound, noise_inflation, relative_mismatch, subspace_mismatch
from .errors import ConditioningError, ConfigurationError, OptimizationError
from .multiport import SimNetwork


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`optimize`.

    ``complement_weights`` is the annealed schedule of the off-subspace
    weight, each entry in [0, 1]; ``(1.0,)`` weights every direction alike
    (W^2 = I, gain and rotation still concentrated). ``max_iters`` caps the
    accepted L-BFGS steps of each stage (a stage also ends after 15 000
    objective evaluations), ``target_delta_u`` is the convergence
    threshold on the final delta_U and sets the stop rule, ``rng_seed``
    draws the starting phases, ``restarts`` is the number of seeds
    :func:`optimize_multistart` tries, and ``trace_every`` keeps every n-th
    iterate in the trace (0 turns it off). Out-of-range values raise
    :class:`ConfigurationError` naming the scenario key (the target is
    ``reduction.target_delta_u``).
    """

    max_iters: int = 4000
    target_delta_u: float = 0.1
    rng_seed: int = 0
    complement_weights: Tuple[float, ...] = (0.0, 0.1, 0.2)
    restarts: int = 5
    trace_every: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigurationError("optimizer.max_iters must be at least 1")
        if self.target_delta_u < 0:
            raise ConfigurationError("reduction.target_delta_u must be nonnegative")
        if self.restarts < 1:
            raise ConfigurationError("optimizer.restarts must be at least 1")
        if self.rng_seed < 0:
            raise ConfigurationError("optimizer.seed must be nonnegative")
        if self.trace_every < 0:
            raise ConfigurationError("optimizer.trace_every must be nonnegative")
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

    The delta metrics are computed from the residuals on first read: within
    a stage before the last, only a trace row reads them."""

    objective: float
    v: np.ndarray
    scale: complex
    target_eff: np.ndarray  # Y = (U Q)^H
    delta: np.ndarray  # c V - Y
    u: np.ndarray
    b: Optional[np.ndarray]  # T @ C_out^T, reused by the gradient's adjoint pass
    vu: np.ndarray
    q_h: np.ndarray
    delta_on_u: np.ndarray  # Delta U = c V U - Q^H

    @cached_property
    def delta_u(self) -> float:
        return subspace_mismatch(self.delta_on_u)

    @cached_property
    def delta_rel(self) -> float:
        return relative_mismatch(self.delta, self.u)


def _gain(
    v: np.ndarray, y: np.ndarray, vu: np.ndarray, q_h: np.ndarray, w_perp: float
) -> complex:
    """The gain c minimizing the weighted ||c V - Y||^2 at complement weight
    ``w_perp`` (module docstring)."""
    den = w_perp * np.vdot(v, v).real + (1.0 - w_perp) * np.vdot(vu, vu).real
    if den == 0.0:
        return 1.0 + 0.0j
    return complex((w_perp * np.vdot(v, y) + (1.0 - w_perp) * np.vdot(vu, q_h)) / den)


def _concentrate(
    v: np.ndarray, u: np.ndarray, w_perp: float, b: Optional[np.ndarray] = None
) -> _EvalState:
    """Concentrate the unitary Q^H, then the gain c, at complement weight
    ``w_perp``; the state holds the residuals Delta = c V - Q^H U^H and
    Delta U and the weighted objective.

    Q^H is the polar factor P of V U = P H, whatever the weighting. Because
    Y U = Q^H, the gain that follows is
    tr(H) / (w ||V||^2 + (1 - w) ||V U||^2), real and positive, so a further
    rotation step would return the same P: one round of the gain/rotation
    alternation is its fixed point.
    """
    vu = v @ u
    left, _, right = np.linalg.svd(vu)
    q_h = left @ right  # unitary closest to V U
    y = q_h @ u.conj().T
    c = _gain(v, y, vu, q_h, w_perp)
    delta = c * v - y
    delta_on_u = c * vu - q_h
    obj = float(
        w_perp * np.vdot(delta, delta).real
        + (1.0 - w_perp) * np.vdot(delta_on_u, delta_on_u).real
    )
    if not np.isfinite(obj):
        raise OptimizationError("projection mismatch is not finite")
    return _EvalState(obj, v, c, y, delta, u, b, vu, q_h, delta_on_u)


def _residual(state: _EvalState, w_perp: float) -> np.ndarray:
    """Delta W^2 = w Delta + (1 - w) (Delta U) U^H, the gradient's residual
    at complement weight ``w_perp``: Delta itself at w = 1."""
    return w_perp * state.delta + (1.0 - w_perp) * (state.delta_on_u @ state.u.conj().T)


def _evaluate(net: SimNetwork, u: np.ndarray, w_perp: float) -> _EvalState:
    b = net.solve(net.c_out.T)  # adjoint pass, M columns
    return _concentrate(b[net.input_port_indices(), :].T, u, w_perp, b)


def _gradient_from_state(net: SimNetwork, state: _EvalState, residual: np.ndarray) -> np.ndarray:
    # forward pass, M columns: E_in R^H, R^H scattered onto the input ports
    rhs = np.zeros((net.n_ports, residual.shape[0]), dtype=complex, order="F")
    rhs[net.input_port_indices()] = residual.conj().T
    p = net.solve(rhs)
    w = (p * state.b).sum(axis=1)  # diag of (T E_in) R^H (C_out T)
    w_cell = w[0::2] + w[1::2]
    return -2.0 * net.reactance_slope() * np.real(1j * state.scale * w_cell)


# -- spec surface: bare objective and gradient --------------------------------


def _check_target(net: SimNetwork, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (net.n_outputs, net.n_inputs):
        raise OptimizationError(
            f"target shape {target.shape} incompatible with projection "
            f"({net.n_outputs}, {net.n_inputs})"
        )
    return target


def _bare_state(net: SimNetwork, target: np.ndarray) -> _EvalState:
    """The state of ||c V - target||_F^2 with only the gain c concentrated:
    no rotation, no weighting."""
    y = np.ascontiguousarray(_check_target(net, target))  # the norm sums in memory order
    b = net.solve(net.c_out.T)
    v = b[net.input_port_indices(), :].T
    u = y.conj().T
    vu, q_h = v @ u, np.eye(len(y))
    c = _gain(v, y, vu, q_h, 1.0)  # unrotated (Q = I), unweighted (w = 1)
    delta = c * v - y
    obj = float(np.linalg.norm(delta, "fro") ** 2)
    if not np.isfinite(obj):
        raise OptimizationError("objective is not finite")
    return _EvalState(obj, v, c, y, delta, u, b, vu, q_h, c * vu - q_h)


def objective(net: SimNetwork, target: np.ndarray) -> float:
    """||c*V(eta) - target||_F^2 at the network's current phases."""
    return _bare_state(net, target).objective


def gradient(net: SimNetwork, target: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to every phase."""
    state = _bare_state(net, target)
    return _gradient_from_state(net, state, state.delta)


def finite_difference_gradient(
    net: SimNetwork, target: np.ndarray, coords: Sequence[int], step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of :func:`objective`, the test oracle."""
    target = _check_target(net, target)
    eta0 = net.eta
    out = np.empty(len(coords))
    for i, c in enumerate(coords):
        eta = eta0.copy()
        eta[c] = eta0[c] + step
        net.set_eta(eta)
        e_plus = objective(net, target)
        eta[c] = eta0[c] - step
        net.set_eta(eta)
        e_minus = objective(net, target)
        out[i] = (e_plus - e_minus) / (2.0 * step)
    net.set_eta(eta0)
    return out


# -- L-BFGS -------------------------------------------------------------------

_MEMORY = 10  # (s, y) pairs kept
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9  # sufficient decrease, curvature
_MAX_TRIALS = 20  # line-search evaluations per step
_GTOL = 1e-14  # on ||g||_inf
_FTOL = 1e-16  # on the relative decrease of one step
_MAX_EVALS = 15000
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MinimizeResult:
    """End of a :func:`minimize` run: the point ``x``, the ``nit`` steps
    accepted before it, and whether ``fun`` ended the run there."""

    x: np.ndarray
    nit: int
    stopped: bool


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS direction -H g over the stored (s, y, 1 / s^T y) pairs,
    oldest first, with H_0 = (s^T y / y^T y) I from the newest pair."""
    d = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d = d - alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        d = d / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d = d + (alpha - rho * (y @ d)) * s
    return d


def minimize(
    fun: Callable[[np.ndarray], Optional[tuple]],
    x0: np.ndarray,
    max_iters: int,
    callback: Optional[Callable[[int, np.ndarray, object], None]] = None,
) -> MinimizeResult:
    """Minimize ``fun`` from ``x0`` by L-BFGS (module docstring).

    ``fun(x)`` returns ``(f, g, aux)``, or None to end the run at ``x``
    (``stopped``); a trial point where it raises
    :class:`ConditioningError` is rejected and the step shrinks.
    ``callback(nit, x, aux)`` sees each accepted iterate. The first step
    along a direction without memory is 1 / ||d||, every other starts at 1,
    and a step is accepted at the first trial meeting both weak Wolfe
    conditions. A search that finds none drops the memory and retries
    along -g; without memory to drop, it ends the run. The run also ends
    after ``max_iters`` accepted steps, at ||g||_inf <= 1e-14, at a relative
    decrease of at most 1e-16, or after 15 000 evaluations.
    """
    x = np.asarray(x0, dtype=float)
    out = fun(x)
    if out is None:
        return MinimizeResult(x, 0, True)
    f, g, _ = out
    pairs = deque(maxlen=_MEMORY)
    nit, nfev = 0, 1
    while nit < max_iters and nfev < _MAX_EVALS and np.abs(g).max() > _GTOL:
        d = _two_loop(g, pairs)
        slope = g @ d
        t = 1.0 if pairs else 1.0 / np.linalg.norm(d)
        lo, hi = 0.0, np.inf
        # rounding can leave -H g uphill; that counts as a failed search
        for _ in range(_MAX_TRIALS if slope < 0 else 0):
            x_new = x + t * d
            nfev += 1
            try:
                out = fun(x_new)
            except ConditioningError:
                hi = t
            else:
                if out is None:
                    return MinimizeResult(x_new, nit, True)
                if out[0] > f + _WOLFE_C1 * t * slope:
                    hi = t
                elif out[1] @ d < _WOLFE_C2 * slope:
                    lo = t
                else:
                    break
            t = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo
        else:
            if not pairs:
                break
            pairs.clear()
            continue
        f_new, g_new, aux = out
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > _EPS * -slope * t:
            pairs.append((s, y, 1.0 / sy))
        small = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        nit += 1
        if callback is not None:
            callback(nit, x, aux)
        if small:
            break
    return MinimizeResult(x, nit, False)


# -- optimizer ----------------------------------------------------------------


def _require_orthonormal_rows(target: np.ndarray) -> np.ndarray:
    gram = target @ target.conj().T
    if np.linalg.norm(gram - np.eye(target.shape[0])) > 1e-8:
        raise OptimizationError(
            "optimize() expects a target with orthonormal rows (U^H)"
        )
    return target.conj().T


def _meets_target(state: _EvalState, cfg: OptimizerConfig) -> bool:
    """The stop rule: delta_U under the final-stage weight within the
    target, and the RS-LS noise inflation within the MSE ratio bound the
    target implies. A state of any stage needs only the gain at the final
    weight."""
    tau = cfg.target_delta_u
    c = _gain(state.v, state.target_eff, state.vu, state.q_h, cfg.complement_weights[-1])
    return (
        subspace_mismatch(c * state.vu - state.q_h) <= tau
        and noise_inflation(state.v, state.u) <= mse_ratio_bound(tau)
    )


def _lbfgs_stage(
    net: SimNetwork,
    u: np.ndarray,
    w_perp: float,
    cfg: OptimizerConfig,
    eta: np.ndarray,
    trace: OptimizationTrace,
) -> Tuple[np.ndarray, bool]:
    """One L-BFGS run at complement weight ``w_perp``; returns its end
    point and whether it stopped there because the stop rule fired."""

    def fun(x: np.ndarray):
        net.set_eta(x)
        state = _evaluate(net, u, w_perp)
        if _meets_target(state, cfg):
            return None
        return state.objective, _gradient_from_state(net, state, _residual(state, w_perp)), state

    last = eta  # the phases of the previous trace row

    def record(nit: int, x: np.ndarray, state: _EvalState) -> None:
        nonlocal last
        if (nit - 1) % cfg.trace_every == 0:
            trace.append(state.objective, state.delta_u, state.delta_rel, np.linalg.norm(x - last))
            last = x

    # looked up at call time, so a wrapped minimize sees every stage
    res = minimize(fun, eta, cfg.max_iters, record if cfg.trace_every > 0 else None)
    return res.x, res.stopped


def optimize(net: SimNetwork, target: np.ndarray, cfg: OptimizerConfig) -> OptimizationTrace:
    """Configure the surface against the target projection U^H.

    Phases start uniform in (-pi, pi] from ``cfg.rng_seed`` and descend the
    ensemble-weighted mismatch through the annealing schedule, one L-BFGS
    run of up to ``cfg.max_iters`` accepted steps per stage. The first point,
    the random start included, that meets the stop rule (module docstring)
    ends the restart there and skips the remaining stages;
    ``stopped_on_target`` records it. Convergence means the final effective
    subspace mismatch (measured on the scaled, rotated match under the final
    stage weight) is at or below ``cfg.target_delta_u``. The final eta is
    left installed in the network. Non-convergence is reported through the
    flag, not an exception.
    """
    target = _check_target(net, target)
    u = _require_orthonormal_rows(target)
    eta = np.random.default_rng(cfg.rng_seed).uniform(-np.pi, np.pi, size=net.n_cells)
    net.set_eta(eta)
    eta = net.eta

    trace = OptimizationTrace()
    final_w = cfg.complement_weights[-1]
    state = _evaluate(net, u, final_w)
    trace.append(state.objective, state.delta_u, state.delta_rel, 0.0)
    trace.stopped_on_target = _meets_target(state, cfg)

    if not trace.stopped_on_target:
        for w_perp in cfg.complement_weights:
            trace.stage_bounds.append(len(trace.objective))
            eta, trace.stopped_on_target = _lbfgs_stage(net, u, w_perp, cfg, eta, trace)
            if trace.stopped_on_target:
                break
        net.set_eta(eta)
        state = _evaluate(net, u, final_w)
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


def calibrate_projection(v: np.ndarray, u: np.ndarray, w_perp: float) -> CalibratedProjection:
    """Concentrate the gain and output rotation of a raw projection.

    ``w_perp`` is the complement weight of the training ensemble; a
    configured network is calibrated at the last entry of the optimizer's
    annealing schedule, the weighting its stop rule measures under."""
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    s = _concentrate(v, u, w_perp)
    return CalibratedProjection(v_scaled=s.scale * v, u_basis=u @ s.q_h.conj().T, scale=s.scale)


def optimize_multistart(
    net: SimNetwork,
    target: np.ndarray,
    cfg: OptimizerConfig,
) -> OptimizationTrace:
    """Run :func:`optimize` from ``cfg.restarts`` successive seeds, keep the
    best mismatch.

    Stops early at the first converged restart; otherwise returns the
    attempt with the smallest final delta_U (its eta left in the network).
    """
    best: Optional[OptimizationTrace] = None
    best_eta = None
    for r in range(cfg.restarts):
        trace = optimize(net, target, replace(cfg, rng_seed=cfg.rng_seed + r))
        if best is None or trace.delta_u[-1] < best.delta_u[-1]:
            best = trace
            best_eta = net.eta
        if trace.converged:
            break
    net.set_eta(best_eta)
    best.final_eta = net.eta
    return best
