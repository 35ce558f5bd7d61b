from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc import multiport, simopt
from simloc.bounds import mismatch_metrics, mse_ratio_bound, noise_inflation, subspace_mismatch
from simloc.channel import estimate_covariance, reduce_subspace
from simloc.errors import ConditioningError, ConfigurationError
from simloc.estimation import rsls_post_sim
from simloc.geometry import GainModel, GeometryConfig, build_sim_geometry, region_at
from simloc.multiport import build_sim_network, effective_projection_matrix
from simloc.simopt import (
    OptimizerConfig,
    _concentrate,
    _evaluate,
    _gain,
    _meets_target,
    _residual,
    calibrate_projection,
    finite_difference_gradient,
    gradient,
    minimize,
    objective,
    optimize,
    optimize_multistart,
)


def desk_setup(k_y=16, layers=3, m=4, l_fixed=4, distance=0.4, diameter=0.2):
    cfg = GeometryConfig(
        k_y=k_y, k_z=1, layers=layers, carrier_frequency_hz=28e9, receiver_elements=m
    )
    sim, rx = build_sim_geometry(cfg)
    region = region_at(distance, 0.0, diameter)
    cov = estimate_covariance(sim, region, GainModel(3.0), n_samples=2000, rng_seed=0)
    u, d = reduce_subspace(cov, l_fixed=l_fixed)
    net = build_sim_network(sim, rx)
    return net, u


@lru_cache(maxsize=1)
def _cached_desk_setup():
    return desk_setup()


def input_embedding(net):
    """E_in: unit columns selecting the first-layer input ports 0, 2, ..."""
    e = np.zeros((net.n_ports, net.n_inputs), dtype=complex)
    e[2 * np.arange(net.n_inputs), np.arange(net.n_inputs)] = 1.0
    return e


class TestObjective:
    def test_zero_at_exact_match(self):
        net, _ = desk_setup(k_y=4, layers=2, m=2, l_fixed=2)
        net.set_eta(np.random.default_rng(0).uniform(-3, 3, net.n_cells))
        target = effective_projection_matrix(net)
        assert objective(net, target) == pytest.approx(0.0, abs=1e-20)

    def test_matches_elementwise_sum_oracle(self):
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        net.set_eta(np.random.default_rng(1).uniform(-3, 3, net.n_cells))
        target = u.conj().T
        v = effective_projection_matrix(net)
        c = np.vdot(v, target) / np.vdot(v, v).real
        oracle = sum(
            abs(c * v[i, j] - target[i, j]) ** 2
            for i in range(v.shape[0])
            for j in range(v.shape[1])
        )
        assert objective(net, target) == pytest.approx(oracle, rel=1e-12)


def _gain_only_reference(net, target):
    """The bare objective and gradient as the shared evaluation path once
    formed them: gain by np.vdot, residual norm in C order, gradient from
    the unweighted residual."""
    target = np.asarray(target, dtype=complex)
    inputs = 2 * np.arange(net.n_inputs)  # first-layer input ports
    b = net.solve(net.c_out.T)
    v = b[inputs, :].T
    y = np.eye(target.shape[0], dtype=complex) @ target
    num, den = np.vdot(v, y), np.vdot(v, v).real
    c = 1.0 + 0.0j if den == 0.0 else complex(num / den)
    delta = c * v - y
    obj = float(np.linalg.norm(delta, "fro") ** 2)
    rhs = np.zeros((net.n_ports, delta.shape[0]), dtype=complex, order="F")
    rhs[inputs] = delta.conj().T
    p = net.solve(rhs)
    w = (p * b).sum(axis=1)
    slope = net.reactance_slope()
    return obj, -2.0 * slope * np.real(1j * c * (w[0::2] + w[1::2]))


class TestBareObjective:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fortran_target=st.booleans())
    def test_bit_equal_to_gain_only_formula(self, seed, fortran_target):
        # the bare objective keeps its own residual (gain only, no rotation,
        # no weighting) and reaches the shared gradient at W^2 = I exactly
        net, u = _cached_desk_setup()
        net.set_eta(np.random.default_rng(seed).uniform(-3.0, 3.0, net.n_cells))
        target = u.conj().T if fortran_target else np.ascontiguousarray(u.conj().T)
        obj_ref, grad_ref = _gain_only_reference(net, target)
        assert objective(net, target) == obj_ref
        np.testing.assert_array_equal(gradient(net, target), grad_ref)


class TestGradient:
    def test_zero_at_stationary_point(self):
        net, _ = desk_setup(k_y=4, layers=2, m=2, l_fixed=2)
        net.set_eta(np.random.default_rng(3).uniform(-3, 3, net.n_cells))
        target = effective_projection_matrix(net)
        g = gradient(net, target)
        assert np.abs(g).max() <= 1e-8

    def test_matches_central_finite_differences(self):
        net, u = desk_setup()
        target = u.conj().T
        rng = np.random.default_rng(4)
        for _ in range(3):
            net.set_eta(rng.uniform(-3, 3, net.n_cells))
            g = gradient(net, target)
            coords = rng.choice(net.n_cells, size=6, replace=False)
            fd = finite_difference_gradient(net, target, coords)
            scale = np.abs(fd) + 1e-9 * np.abs(g).max()
            assert (np.abs(fd - g[coords]) / scale).max() < 1e-5

    @pytest.mark.parametrize("w_perp", [0.0, 0.1, 0.2, 1.0])
    def test_stage_gradient_matches_central_differences(self, w_perp):
        # the gradient L-BFGS follows: weighted, gain and rotation concentrated
        net, u = desk_setup()
        rng = np.random.default_rng(7)
        for _ in range(3):
            eta0 = rng.uniform(-3.0, 3.0, net.n_cells)
            net.set_eta(eta0)
            state = _evaluate(net, u, w_perp)
            g = net.phase_gradient(state.b, _residual(state, w_perp), state.scale)
            fd = np.empty(net.n_cells)
            for c in range(net.n_cells):
                sides = []
                for step in (1e-5, -1e-5):
                    eta = eta0.copy()
                    eta[c] += step
                    net.set_eta(eta)
                    sides.append(_evaluate(net, u, w_perp).objective)
                fd[c] = (sides[0] - sides[1]) / 2e-5
            # criterion 5's bound, with its 1e-4 floor for the FD roundoff
            ref = np.maximum(np.abs(fd), 1e-4 * np.abs(g).max())
            assert (np.abs(g - fd) / ref).max() <= 1e-5

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w_perp=st.sampled_from([0.0, 0.1, 0.2, 1.0]),
    )
    def test_m_column_forward_pass_equals_k_column_formula(self, seed, w_perp):
        # the forward pass solves for E_in R^H (M columns); the reference
        # solves for E_in (K columns) and applies R^H afterwards
        net, u = _cached_desk_setup()
        net.set_eta(np.random.default_rng(seed).uniform(-3.0, 3.0, net.n_cells))
        state = _evaluate(net, u, w_perp)
        residual = _residual(state, w_perp)
        p = net.solve(input_embedding(net)) @ residual.conj().T
        w = (p * state.b).sum(axis=1)
        slope = net.reactance_slope()
        ref = -2.0 * slope * np.real(1j * state.scale * (w[0::2] + w[1::2]))
        g = net.phase_gradient(state.b, residual, state.scale)
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w_perp=st.sampled_from([0.0, 0.1, 0.2, 1.0]),
    )
    def test_scattered_forward_rhs_equals_embedding_product(self, seed, w_perp):
        # R^H scattered onto the input ports is E_in @ R^H exactly, so the
        # gradient is bit for bit the one the dense embedding gave
        net, u = _cached_desk_setup()
        net.set_eta(np.random.default_rng(seed).uniform(-3.0, 3.0, net.n_cells))
        state = _evaluate(net, u, w_perp)
        residual = _residual(state, w_perp)
        p = net.solve(input_embedding(net) @ residual.conj().T)
        w = (p * state.b).sum(axis=1)
        slope = net.reactance_slope()
        ref = -2.0 * slope * np.real(1j * state.scale * (w[0::2] + w[1::2]))
        np.testing.assert_array_equal(net.phase_gradient(state.b, residual, state.scale), ref)


class TestOptimize:
    def test_desk_scale_reaches_target(self):
        net, u = desk_setup()
        trace = optimize(net, u.conj().T, OptimizerConfig(rng_seed=0))
        assert trace.converged
        assert trace.delta_u[-1] <= 0.1
        # the restart ended on the stop rule, so both of its bounds hold
        assert trace.stopped_on_target
        assert noise_inflation(effective_projection_matrix(net), u) <= mse_ratio_bound(0.1)

    def test_immediate_return_when_already_converged(self):
        net, u = desk_setup(k_y=4, layers=2, m=2, l_fixed=2)
        cfg = OptimizerConfig(rng_seed=0, target_delta_u=np.inf)
        trace = optimize(net, u.conj().T, cfg)
        assert trace.converged
        assert trace.iterations == 0

    def test_stop_rule_applies_at_the_start(self, monkeypatch):
        # the random start meets delta_U <= tau = 10 but not the rho
        # condition (mse_ratio_bound(10) is infinite, so it is pinned to 1):
        # the stages run, as they would from any other evaluated point
        net, u = desk_setup(k_y=4, layers=2, m=2, l_fixed=2)
        monkeypatch.setattr(simopt, "noise_inflation", lambda v, u: np.inf)
        monkeypatch.setattr(simopt, "mse_ratio_bound", lambda tau: 1.0)
        cfg = OptimizerConfig(rng_seed=0, target_delta_u=10.0, max_iters=5)
        trace = optimize(net, u.conj().T, cfg)
        assert trace.delta_u[0] <= 10.0
        assert trace.stage_bounds
        assert not trace.stopped_on_target

    def test_determinism(self):
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        cfg = OptimizerConfig(rng_seed=3, max_iters=200)
        t1 = optimize(net, u.conj().T, cfg)
        t2 = optimize(net, u.conj().T, cfg)
        assert t1.objective == t2.objective
        np.testing.assert_array_equal(t1.final_eta, t2.final_eta)

    def test_trace_reuses_the_evaluated_state(self, monkeypatch):
        # the traced run factorizes exactly as often as the untraced one and
        # ends on the same phases, bit for bit
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        lu_calls = {"n": 0}
        lu_factor = multiport.sla.lu_factor

        def counting_lu_factor(*args, **kwargs):
            lu_calls["n"] += 1
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(multiport.sla, "lu_factor", counting_lu_factor)
        runs = []
        for trace_every in (1, 0):
            lu_calls["n"] = 0
            cfg = OptimizerConfig(
                rng_seed=3, max_iters=40, target_delta_u=0.0, trace_every=trace_every
            )
            trace = optimize(net, u.conj().T, cfg)
            runs.append((trace, lu_calls["n"]))
        (traced, traced_lu), (untraced, untraced_lu) = runs
        assert traced.iterations > len(OptimizerConfig().complement_weights)
        np.testing.assert_array_equal(traced.final_eta, untraced.final_eta)
        assert traced.objective[-1] == untraced.objective[-1]
        assert traced_lu > 0  # the factorization still goes through sla.lu_factor
        assert traced_lu == untraced_lu

    @pytest.mark.parametrize(
        "field, value, key",
        [("trace_every", -1, "trace_every"), ("restarts", 0, "restarts"), ("rng_seed", -1, "seed")],
        ids=["trace_every--1", "restarts-0", "rng_seed--1"],
    )
    def test_out_of_range_setting_rejected(self, field, value, key):
        with pytest.raises(ConfigurationError, match=f"optimizer.{key}"):
            OptimizerConfig(**{field: value})

    def test_trace_csv_round_trip(self, tmp_path):
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        trace = optimize(net, u.conj().T, OptimizerConfig(rng_seed=0, max_iters=50))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        from simloc.matio import load_csv

        header, rows = load_csv(path)
        assert header == ["iteration", "objective", "delta_u", "delta_rel", "step"]
        assert len(rows) == len(trace.objective)
        assert float(rows[-1][1]) == pytest.approx(trace.objective[-1], rel=1e-15)

    def test_multistart_returns_best(self):
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        cfg = OptimizerConfig(rng_seed=0, max_iters=120, target_delta_u=1e-9)
        trace = optimize_multistart(net, u.conj().T, replace(cfg, restarts=2))
        assert trace.final_eta is not None
        # network left at the reported eta
        np.testing.assert_array_equal(net.eta, trace.final_eta)

    def test_rotated_basis_consistency(self):
        net, u = desk_setup()
        cfg = OptimizerConfig(rng_seed=0)
        trace = optimize(net, u.conj().T, cfg)
        cal = calibrate_projection(
            effective_projection_matrix(net), u, w_perp=cfg.complement_weights[-1]
        )
        u_rot = cal.u_basis
        # rotated basis stays orthonormal and spans the same subspace
        np.testing.assert_allclose(u_rot.conj().T @ u_rot, np.eye(u.shape[1]), atol=1e-10)
        proj = u @ u.conj().T
        np.testing.assert_allclose(proj @ u_rot, u_rot, atol=1e-10)
        # the scaled projection matches the rotated target at the reported mismatch
        v = cal.v_scaled
        delta_u = np.linalg.norm((v - u_rot.conj().T) @ u_rot, 2)
        assert delta_u == pytest.approx(trace.delta_u[-1], rel=1e-6, abs=1e-9)


class TestTraceInvariants:
    def test_lbfgs_objective_monotone_within_each_stage(self):
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        cfg = OptimizerConfig(rng_seed=2, max_iters=300, target_delta_u=0.0)
        trace = optimize(net, u.conj().T, cfg)
        bounds = trace.stage_bounds + [len(trace.objective) - 1]
        # a zero target never fires the stop rule, so every stage runs
        assert not trace.stopped_on_target
        assert len(trace.stage_bounds) == len(cfg.complement_weights)
        for start, end in zip(bounds, bounds[1:]):
            obj = np.array(trace.objective[start:end])
            if len(obj) > 1:
                assert np.all(np.diff(obj) <= 1e-12)

    def test_projection_metrics_equal_bounds_definitions(self):
        # the metrics of the calibrated pair (c V, U Q) are those of the
        # optimizer's residual Delta = c V - Q^H U^H in the unrotated basis
        net, u = desk_setup(k_y=8, layers=2, m=3, l_fixed=3)
        net.set_eta(np.random.default_rng(8).uniform(-3, 3, net.n_cells))
        v = effective_projection_matrix(net)
        for w_perp in (1.0, 0.2):
            cal = calibrate_projection(v, u, w_perp)
            m = mismatch_metrics(cal.v_scaled, cal.u_basis)
            q_h = cal.u_basis.conj().T @ u
            delta = cal.v_scaled - q_h @ u.conj().T
            assert m.delta_u == pytest.approx(np.linalg.norm(delta @ u, 2), rel=1e-12)
            assert m.delta_rel == pytest.approx(np.linalg.norm(delta) / np.sqrt(3), rel=1e-12)


def _weight_matrix(u, w_perp):
    """W^2 = w I + (1 - w) U U^H as a K x K matrix: the reference the scalar
    weighting is checked against."""
    k = u.shape[0]
    return w_perp * np.eye(k) + (1.0 - w_perp) * (u @ u.conj().T)


def _w2_gain(v, y, w2):
    """The gain minimizing tr(W^2 (c V - Y)^H (c V - Y)), through W^2."""
    w2_vh = w2 @ v.conj().T
    den = np.real(np.trace(w2_vh @ v))
    return 1.0 + 0.0j if den == 0.0 else complex(np.trace(w2_vh @ y) / den)


def _random_subspace_and_v(seed, k, l):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
    # V comes out of the network as the transpose of a row slice
    b = rng.standard_normal((k + 3, l)) + 1j * rng.standard_normal((k + 3, l))
    return u, b[:k, :].T


class TestScalarWeighting:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 24),
        l=st.integers(1, 6),
        w_perp=st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]),
        zero_v=st.booleans(),
    )
    def test_equals_w2_matrix_reference(self, seed, k, l, w_perp, zero_v):
        # gain, objective and gradient residual in the scalar w equal the
        # same quantities formed through the K x K matrix W^2
        l = min(l, k)
        u, v = _random_subspace_and_v(seed, k, l)
        if zero_v:
            v = np.zeros_like(v)
        state = _concentrate(v, u, w_perp)
        w2 = _weight_matrix(u, w_perp)
        c_ref = _w2_gain(v, state.target_eff, w2)
        delta = c_ref * v - state.target_eff
        obj_ref = np.real(np.trace(w2 @ delta.conj().T @ delta))
        residual_ref = delta @ w2
        # relative to the value plus the scale ||Y||_F^2 = L of the objective
        # at c = 0: at w = 0 and L = 1 the optimum is zero up to rounding
        l = min(l, k)
        assert abs(state.scale - c_ref) <= 1e-12 * abs(c_ref)
        assert abs(state.objective - obj_ref) <= 1e-12 * (obj_ref + l)
        residual = _residual(state, w_perp)
        assert np.linalg.norm(residual - residual_ref) <= 1e-12 * (
            np.linalg.norm(residual_ref) + np.sqrt(l)
        )


def _concentrate_eight_rounds(v, u, w2):
    """The gain/rotation alternation run for eight rounds through the W^2
    matrix; its later rounds are fixed-point steps, so the single round
    equals it up to rounding."""
    l = u.shape[1]
    q_h = np.eye(l, dtype=complex)
    c = 1.0 + 0.0j
    for _ in range(8):
        a = c * (v @ u)
        left, _, right = np.linalg.svd(a)
        q_h = left @ right
        c = _w2_gain(v, q_h @ u.conj().T, w2)
    return c, q_h


class TestConcentrate:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 24),
        l=st.integers(1, 6),
        w_perp=st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]),
        zero_v=st.booleans(),
    )
    def test_equals_eight_round_reference(self, seed, k, l, w_perp, zero_v):
        u, v = _random_subspace_and_v(seed, k, min(l, k))
        if zero_v:
            v = np.zeros_like(v)
        state = _concentrate(v, u, w_perp)
        c, q_h = state.scale, state.q_h
        c_ref, q_h_ref = _concentrate_eight_rounds(v, u, _weight_matrix(u, w_perp))
        assert abs(c - c_ref) <= 1e-12 * abs(c_ref)
        assert np.linalg.norm(q_h - q_h_ref) <= 1e-12 * np.linalg.norm(q_h_ref)
        np.testing.assert_array_equal(state.target_eff, q_h @ u.conj().T)
        np.testing.assert_array_equal(state.delta, c * v - state.target_eff)
        np.testing.assert_array_equal(state.vu, v @ u)
        np.testing.assert_array_equal(state.delta_on_u, c * state.vu - q_h)


class TestNoiseInflation:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 24),
        l=st.integers(1, 6),
        sigma_z2=st.floats(0.01, 10.0),
    )
    def test_equals_rsls_post_sim_ratio(self, seed, k, l, sigma_z2):
        # rho(V) is rsls-sim's MSE over rsls-ideal's sigma^2 L, whatever the
        # gain c and output rotation Q the calibration attaches
        l = min(l, k)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
        q, _ = np.linalg.qr(rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
        v = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
        c = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        _, mse = rsls_post_sim(c * v, u @ q, sigma_z2)
        expected = mse / (sigma_z2 * l)
        assert noise_inflation(v, u) == pytest.approx(expected, rel=1e-9)


def _final_delta_u(state, w_final):
    """delta_U of the state's V under the final weight, as the stop rule
    measures it: only the gain is recomputed."""
    c = _gain(state.v, state.target_eff, state.vu, state.q_h, w_final)
    return subspace_mismatch(c * state.vu - state.q_h)


def _near_subspace_v(seed, k, l, log_eps):
    """A scaled, rotated U^H plus a perturbation of size eps."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
    q, _ = np.linalg.qr(rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
    gain = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    noise = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
    return u, gain * (q @ u.conj().T + 10.0**log_eps * noise / np.linalg.norm(noise))


_TAU_FACTORS = st.one_of(
    st.sampled_from([1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6]),
    st.floats(0.0, 2.0),
)


class TestStopRule:
    def test_complement_leakage_blocks_the_stop(self):
        # V = U^H plus rows in the complement of U: V U = I, so under the
        # final weight (w_perp = 0.2) the gain is 1/1.1 and delta_U =
        # 1 - 1/1.1 meets the target, yet the leakage inflates the RS-LS
        # noise by 1.5
        rng = np.random.default_rng(0)
        k, l, tau = 16, 4, 0.1
        u, _ = np.linalg.qr(rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
        comp = (np.eye(k) - u @ u.conj().T) @ (
            rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
        )
        leak = comp.conj().T * (np.sqrt(0.5 * l) / np.linalg.norm(comp))
        v = u.conj().T + leak
        cal = calibrate_projection(v, u, w_perp=0.2)
        c_ref = _w2_gain(v, cal.u_basis.conj().T, _weight_matrix(u, 0.2))
        assert cal.scale == pytest.approx(c_ref, rel=1e-12)
        assert cal.scale == pytest.approx(1.0 / 1.1, rel=1e-12)
        delta_u = mismatch_metrics(cal.v_scaled, cal.u_basis).delta_u
        assert delta_u == pytest.approx(1.0 - 1.0 / 1.1, rel=1e-12)
        assert delta_u <= tau
        assert noise_inflation(v, u) == pytest.approx(1.5, rel=1e-12)
        # states held at an unweighted stage, re-measured under the final one
        cfg = OptimizerConfig(target_delta_u=tau, complement_weights=(1.0, 0.2))
        assert not _meets_target(_concentrate(v, u, 1.0), cfg)
        assert _meets_target(_concentrate(u.conj().T, u, 1.0), cfg)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 24),
        l=st.integers(1, 6),
        schedule=st.sampled_from([(0.0, 0.1, 0.2), (0.0, 0.5, 1.0)]),
        log_eps=st.floats(-4.0, 1.0),
        tau_factor=_TAU_FACTORS,
    )
    def test_stop_decision_equals_final_weight_decision(
        self, seed, k, l, schedule, log_eps, tau_factor
    ):
        # a state held at any stage weight reaches the stop decision (and the
        # delta_U) of the state concentrated at the final weight, and that
        # delta_U is the one the W^2 matrix gives
        u, v = _near_subspace_v(seed, k, min(l, k), log_eps)
        final = _concentrate(v, u, schedule[-1])
        c_ref = _w2_gain(v, final.target_eff, _weight_matrix(u, schedule[-1]))
        delta_u_ref = subspace_mismatch((c_ref * v - final.target_eff) @ u)
        assert final.delta_u == pytest.approx(delta_u_ref, rel=1e-9, abs=1e-12)
        cfg = OptimizerConfig(
            target_delta_u=final.delta_u * tau_factor, complement_weights=schedule
        )
        for w_perp in schedule:
            state = _concentrate(v, u, w_perp)
            assert _final_delta_u(state, schedule[-1]) == final.delta_u
            assert _meets_target(state, cfg) == _meets_target(final, cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 24),
        l=st.integers(1, 6),
        schedule=st.sampled_from([(0.0, 0.1, 0.2), (0.0, 0.5, 1.0), (0.3,), (1.0, 0.0)]),
        log_eps=st.floats(-4.0, 1.0),
        tau_factor=_TAU_FACTORS,
    )
    def test_stop_decision_equals_the_reference_rule(
        self, seed, k, l, schedule, log_eps, tau_factor
    ):
        # the reference rule: the gain through the K x K W^2 matrix at the
        # final weight, delta_U = ||(c V - Y) U||_2 by SVD, and rho. V is a
        # scaled, rotated U^H plus a perturbation of size eps; tau sits at a
        # multiple of delta_U, just above or below it too. The two delta_U
        # formulas round differently: Delta U is the difference of c V U and
        # the unitary Q^H, so their gap is absolute (2e-16 at delta_U 4e-5),
        # and rounding decides within 1e-12 of delta_U, relative above 1
        l = min(l, k)
        u, v = _near_subspace_v(seed, k, l, log_eps)
        final = _concentrate(v, u, schedule[-1])
        y = final.target_eff
        c_ref = _w2_gain(v, y, _weight_matrix(u, schedule[-1]))
        delta_u_ref = float(np.linalg.svd((c_ref * v - y) @ u, compute_uv=False)[0])
        rho = np.linalg.norm(np.linalg.solve(v @ u, v), "fro") ** 2 / l
        tau = delta_u_ref * tau_factor
        cfg = OptimizerConfig(target_delta_u=tau, complement_weights=schedule)
        if abs(tau - delta_u_ref) > 1e-12 * max(delta_u_ref, 1.0):
            reference = delta_u_ref <= tau and rho <= mse_ratio_bound(tau)
            for w_perp in schedule:
                assert _meets_target(_concentrate(v, u, w_perp), cfg) == reference

        # at tau = delta_U exactly, the delta_U condition holds at every stage
        # weight and rho alone decides
        tau = final.delta_u
        cfg = OptimizerConfig(target_delta_u=tau, complement_weights=schedule)
        for w_perp in schedule:
            assert _meets_target(_concentrate(v, u, w_perp), cfg) == (
                rho <= mse_ratio_bound(tau)
            )


def _quadratic(a, center):
    """f = (x - center)^T A (x - center) / 2 in the (f, g, aux) form minimize
    reads; aux is the gradient."""

    def fun(x):
        g = a @ (x - center)
        return 0.5 * (x - center) @ g, g, g

    return fun


def _rosenbrock(x):
    f = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g, g


class TestMinimize:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), log_cond=st.floats(0.0, 6.0))
    def test_accepted_steps_meet_weak_wolfe(self, seed, n, log_cond):
        # each accepted step along its direction s: f_new <= f + c1 g^T s and
        # g_new^T s >= c2 g^T s, so the objective never rises
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.logspace(0.0, log_cond, n)) @ q.T
        fun = _quadratic(a, rng.standard_normal(n))
        x0 = rng.standard_normal(n)
        steps = [(x0, *fun(x0)[:2])]

        def callback(nit, x, g):
            assert nit == len(steps)
            steps.append((x, fun(x)[0], g))

        res = minimize(fun, x0, 200, callback)
        assert res.nit == len(steps) - 1 and not res.stopped
        for (x, f, g), (x_new, f_new, g_new) in zip(steps, steps[1:]):
            s = x_new - x
            assert f_new <= f + simopt._WOLFE_C1 * (g @ s)
            assert g_new @ s >= simopt._WOLFE_C2 * (g @ s)
            assert f_new <= f

    def test_quadratic_reaches_the_gradient_test(self):
        # on an isotropic quadratic the first pair scales H_0 to the exact
        # inverse Hessian, so the second step lands on the minimum
        fun = _quadratic(2.0 * np.eye(5), np.arange(5.0))
        res = minimize(fun, np.full(5, -1.0), 100)
        assert res.nit == 2
        assert np.abs(fun(res.x)[1]).max() <= simopt._GTOL

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_rosenbrock_converges(self, n):
        x0 = np.tile([-1.2, 1.0], n)[:n]
        res = minimize(_rosenbrock, x0, 5000)
        assert res.nit < 5000
        np.testing.assert_allclose(res.x, np.ones(n), atol=1e-6)

    def test_stop_request_ends_the_run_at_that_point(self):
        # fun returning None ends the run there; nit counts the steps
        # accepted before it
        fun = _quadratic(np.eye(3), np.ones(3))
        accepted = []

        def stop_near_optimum(x):
            return None if np.linalg.norm(x - 1.0) < 1e-3 else fun(x)

        res = minimize(stop_near_optimum, np.zeros(3), 100, lambda nit, x, g: accepted.append(x))
        assert res.stopped
        assert np.linalg.norm(res.x - 1.0) < 1e-3
        assert res.nit == len(accepted)

    def test_ill_conditioned_trial_is_rejected_and_shrinks_the_step(self):
        # the first trial raises: it is never accepted, and the next trial
        # is half as far along the same direction
        fun = _quadratic(np.eye(2), np.zeros(2))
        x0 = np.array([3.0, 4.0])
        trials = []

        def gated(x):
            trials.append(x)
            if len(trials) == 2:
                raise ConditioningError("singular")
            return fun(x)

        accepted = []
        res = minimize(gated, x0, 100, lambda nit, x, g: accepted.append(x))
        rejected = trials[1]
        np.testing.assert_allclose(trials[2] - x0, 0.5 * (rejected - x0), rtol=1e-15)
        assert not any(np.array_equal(x, rejected) for x in accepted)
        assert np.abs(res.x).max() <= 1e-12

    def test_failed_search_drops_the_memory_once(self):
        # after three accepted steps every trial raises: the search with
        # memory fails, a second along -g from the same point fails too, and
        # the run ends at the last accepted point
        a = np.diag([1.0, 3.0, 10.0])
        fun = _quadratic(a, np.ones(3))
        trials = []
        accepted = [np.array([2.0, -1.0, 0.5])]

        def gated(x):
            trials.append(x)
            if len(accepted) > 3:
                raise ConditioningError("singular")
            return fun(x)

        res = minimize(gated, accepted[0], 100, lambda nit, x, g: accepted.append(x))
        assert res.nit == 3 and not res.stopped
        np.testing.assert_array_equal(res.x, accepted[-1])
        after = trials[len(trials) - 2 * simopt._MAX_TRIALS :]
        assert not any(np.array_equal(t, accepted[-1]) for t in after)
        # the retry starts along -g at 1 / ||g||, its first trial a unit step
        g = fun(res.x)[1]
        retry = after[simopt._MAX_TRIALS]
        np.testing.assert_allclose(retry - res.x, -g / np.linalg.norm(g), rtol=1e-12)
        with_memory = after[0] - res.x
        assert abs(with_memory @ g) / (np.linalg.norm(with_memory) * np.linalg.norm(g)) < 1 - 1e-6
