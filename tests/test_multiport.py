from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simloc import multiport
from simloc.bounds import mismatch_metrics
from simloc.errors import ConditioningError, ConfigurationError
from simloc.geometry import GeometryConfig, build_sim_geometry
from simloc.multiport import (
    ImpedanceParams,
    SimNetwork,
    build_impedance,
    build_output_coupling,
    build_sim_network,
    effective_projection_matrix,
    effective_projection_rowsolve,
    mutual_coupling,
    port_positions,
    row_orthonormality_gap,
    wrap_phase,
)
from simloc.simopt import calibrate_projection


def desk_network(k_y=16, layers=3, m=4, params=None, seed=None):
    cfg = GeometryConfig(
        k_y=k_y, k_z=1, layers=layers, carrier_frequency_hz=28e9, receiver_elements=m
    )
    sim, rx = build_sim_geometry(cfg)
    net = build_sim_network(sim, rx, params)
    if seed is not None:
        rng = np.random.default_rng(seed)
        net.set_eta(rng.uniform(-3, 3, net.n_cells))
    return net


@lru_cache(maxsize=1)
def _cached_network():
    return desk_network(k_y=8, layers=3, m=3)


def total_impedance(net):
    """The dense reference Z_ss + Z_s(eta) the LU factorizes."""
    return net.z_ss + np.diag(net.load_diagonal())


def diagonal_network(z0, n_cells=4, m=2, x0=50.0):
    """Fully decoupled cells: Z_ss = z0*I, simple output pickup."""
    n_ports = 2 * n_cells
    z = z0 * np.eye(n_ports, dtype=complex)
    c_out = np.zeros((m, n_ports), dtype=complex)
    for i in range(m):
        c_out[i, 2 * i + 1] = 1.0
    return SimNetwork(z, c_out, n_cells, n_cells, x0=x0)


class TestBuildImpedance:
    def test_single_cell_no_mutual(self):
        cfg = GeometryConfig(k_y=1, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        params = ImpedanceParams(beta=0.0, gamma=11.0 + 0j)
        z = build_impedance(sim, params)
        assert z.shape == (2, 2)
        np.testing.assert_allclose(np.diag(z), params.z_self)
        assert z[0, 1] == pytest.approx(11.0 + 0j)
        assert z[1, 0] == pytest.approx(11.0 + 0j)

    def test_reciprocity(self):
        cfg = GeometryConfig(k_y=2, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        z = build_impedance(sim, ImpedanceParams())
        np.testing.assert_allclose(z, z.T, rtol=1e-12)

    def test_desk_scale_reciprocity(self):
        cfg = GeometryConfig(k_y=4, k_z=1, layers=3, carrier_frequency_hz=28e9)
        sim, _ = build_sim_geometry(cfg)
        z = build_impedance(sim, ImpedanceParams())
        np.testing.assert_allclose(z, z.T, rtol=1e-12)
        assert np.all(np.real(np.diag(z)) > 0)

    @settings(max_examples=30, deadline=None)
    @given(
        k_y=st.integers(1, 9),
        k_z=st.integers(1, 3),
        layers=st.integers(1, 4),
        m=st.integers(1, 5),
        offset=st.floats(0.05, 0.45),
        freq_ghz=st.floats(1.0, 100.0),
    )
    def test_equals_broadcast_assembly(self, k_y, k_z, layers, m, offset, freq_ghz):
        # bit for bit the (n, n, 3) broadcast and per-cell loop Z_ss and
        # C_out were once assembled with
        cfg = GeometryConfig(
            k_y=k_y, k_z=k_z, layers=layers, carrier_frequency_hz=freq_ghz * 1e9,
            receiver_elements=m,
        )
        sim, rx = build_sim_geometry(cfg)
        params = ImpedanceParams(port_offset_wavelengths=offset, gamma=7.0 - 2.0j)
        ppos = port_positions(sim, params)
        diff = ppos[:, None, :] - ppos[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(d, 1.0)
        expected = mutual_coupling(d, params.beta, sim.wavelength)
        for c in range(len(ppos) // 2):
            i, o = 2 * c, 2 * c + 1
            expected[i, i] = expected[o, o] = params.z_self
            expected[i, o] = expected[o, i] = params.gamma
        np.testing.assert_array_equal(build_impedance(sim, params), expected)

        k = sim.elements_per_layer
        out_ports = [2 * ((layers - 1) * k + e) + 1 for e in range(k)]  # last layer's outputs
        diff = rx.positions[:, None, :] - ppos[None, out_ports, :]
        coupling = mutual_coupling(np.sqrt((diff**2).sum(axis=2)), params.beta, sim.wavelength)
        c_out = build_output_coupling(rx, sim, params)
        np.testing.assert_array_equal(c_out[:, out_ports], coupling)

    def test_mutual_decay_halves_at_double_distance(self):
        lam = 0.0107
        d = np.array([20 * lam, 40 * lam])
        m = mutual_coupling(d, 40.0, lam)
        assert abs(m[1]) == pytest.approx(abs(m[0]) / 2, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(7,), (5, 9), (3, 4, 2)]),
        beta=st.floats(1.0, 200.0),
        wavelength=st.floats(1e-3, 1.0),
    )
    def test_in_place_evaluation_equals_the_formula(self, seed, shape, beta, wavelength):
        # the in-place evaluation keeps the formula's operations and their
        # order, so it is bit for bit the one-line expression, and it leaves
        # the caller's distances untouched
        d = np.random.default_rng(seed).uniform(1e-3, 2.0, shape)
        before = d.copy()
        kd = 2.0 * np.pi * d / wavelength
        expected = beta * np.exp(-1j * kd) / kd
        np.testing.assert_array_equal(mutual_coupling(d, beta, wavelength), expected)
        np.testing.assert_array_equal(d, before)

    def test_file_matrix_validation(self):
        cfg = GeometryConfig(k_y=2, k_z=1, layers=1, carrier_frequency_hz=28e9)
        sim, rx = build_sim_geometry(cfg)
        bad_dim = np.eye(3, dtype=complex)
        with pytest.raises(ConfigurationError):
            build_sim_network(sim, rx, z_ss=bad_dim)
        asym = np.eye(4, dtype=complex) * (50 + 0j)
        asym[0, 1] = 5.0
        with pytest.raises(ConfigurationError):
            build_sim_network(sim, rx, z_ss=asym)


class TestTransferMatrix:
    def test_decoupled_diagonal_inverse(self):
        z0 = 30.0 + 12.0j
        net = diagonal_network(z0, n_cells=3, m=1, x0=50.0)
        eta = np.array([0.5, -1.2, 2.0])
        net.set_eta(eta)
        x = 50.0 * np.tan(eta / 2.0)
        t = net.solve(np.eye(net.n_ports))
        expected = np.diag(1.0 / (z0 + 1j * np.repeat(x, 2)))
        np.testing.assert_allclose(t, expected, rtol=1e-12)

    def test_solve_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        z = a + a.T + 40 * np.eye(8)  # symmetric, well conditioned
        c_out = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        net = SimNetwork(z, c_out, 4, 4)
        rhs = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        direct = np.linalg.inv(total_impedance(net)) @ rhs
        got = net.solve(rhs)
        assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_constructed_singularity_raises(self):
        z = np.diag([1e-18 + 0j, 50.0, 50.0, 50.0])
        z = 0.5 * (z + z.T)
        net = SimNetwork(z, np.ones((1, 4), dtype=complex), 2, 2)
        net.set_eta(np.zeros(2))  # loads vanish at eta = 0
        with pytest.raises(ConditioningError):
            net.solve(np.ones(4, dtype=complex))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_exact_zero_pivot_raises(self):
        # getrf meets an exact zero pivot: lu_factor only warns, and the
        # zero reciprocal condition from gecon raises
        z = np.diag([0j, 50.0, 50.0, 50.0])
        net = SimNetwork(z, np.ones((1, 4), dtype=complex), 2, 2)
        net.set_eta(np.zeros(2))
        with pytest.raises(ConditioningError):
            net.solve(np.ones(4, dtype=complex))

    def test_factorizes_again_after_a_conditioning_error(self):
        z = np.diag([1e-18 + 0j, 50.0, 50.0, 50.0])
        net = SimNetwork(z, np.ones((1, 4), dtype=complex), 2, 2)
        net.set_eta(np.zeros(2))
        with pytest.raises(ConditioningError):
            net.solve(np.ones(4, dtype=complex))
        eta = np.array([0.7, -1.1])
        net.set_eta(eta)
        fresh = SimNetwork(z, np.ones((1, 4), dtype=complex), 2, 2, eta=eta)
        np.testing.assert_array_equal(net.solve(np.eye(4)), fresh.solve(np.eye(4)))
        expected = 1.0 / (np.diag(z) + 1j * 50.0 * np.tan(np.repeat(eta, 2) / 2.0))
        np.testing.assert_allclose(np.diag(net.solve(np.eye(4))), expected, rtol=1e-12)

    def test_solve_raises_on_getrs_error(self):
        net = desk_network(k_y=4, layers=1, m=2, seed=0)
        net._getrs = lambda lu, piv, b: (b, -3)
        with pytest.raises(ValueError, match="3th argument"):
            net.solve(net.c_out.T)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reused_buffer_solves_like_a_fresh_network(self, seed):
        # set_eta(a), (b), (a) refill the one work buffer: the last solve
        # equals a fresh network's at a bit for bit
        net = _cached_network()
        rng = np.random.default_rng(seed)
        eta_a, eta_b = rng.uniform(-3.0, 3.0, (2, net.n_cells))
        rhs = rng.standard_normal((net.n_ports, 3)) + 1j * rng.standard_normal((net.n_ports, 3))
        for eta in (eta_a, eta_b, eta_a):
            net.set_eta(eta)
            got = net.solve(rhs)
        fresh = SimNetwork(net.z_ss, net.c_out, net.n_cells, net.elements_per_layer, eta=eta_a)
        np.testing.assert_array_equal(got, fresh.solve(rhs))
        direct = np.linalg.solve(total_impedance(net), rhs)
        assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cached_one_norm_equals_dense_norm(self, seed):
        net = _cached_network()
        net.set_eta(np.random.default_rng(seed).uniform(-np.pi, np.pi, net.n_cells))
        z = total_impedance(net)
        expected = np.linalg.norm(z, 1)
        assert abs(net._one_norm(np.diag(z)) - expected) <= 1e-13 * expected

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_unchanged_phases_keep_the_factorization(self, monkeypatch):
        calls = {"n": 0}
        lu_factor = multiport.sla.lu_factor

        def counting_lu_factor(*args, **kwargs):
            calls["n"] += 1
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(multiport.sla, "lu_factor", counting_lu_factor)
        net = desk_network(k_y=4, layers=2, m=2)
        eta = np.random.default_rng(4).uniform(-3.0, 3.0, net.n_cells)
        rhs = np.eye(net.n_ports)
        net.set_eta(eta)
        first = net.solve(rhs)
        net.set_eta(eta.copy())
        net.set_eta(net.eta)
        np.testing.assert_array_equal(net.solve(rhs), first)
        assert calls["n"] == 1
        eta[0] = np.nextafter(eta[0], 4.0)
        net.set_eta(eta)
        net.solve(rhs)
        assert calls["n"] == 2
        # a failed factorization leaves nothing cached: the same phases
        # factorize, and fail, again
        z = np.diag([0j, 50.0, 50.0, 50.0])
        singular = SimNetwork(z, np.ones((1, 4), dtype=complex), 2, 2)
        for expected_calls in (3, 4):
            singular.set_eta(np.zeros(2))
            with pytest.raises(ConditioningError):
                singular.solve(np.ones(4, dtype=complex))
            assert calls["n"] == expected_calls

    def test_reciprocity_of_t(self):
        net = desk_network(k_y=4, layers=2, m=2, seed=1)
        t = net.solve(np.eye(net.n_ports))
        np.testing.assert_allclose(t, t.T, atol=1e-12 * np.abs(t).max())

    def test_loads_purely_imaginary(self):
        net = desk_network(k_y=4, layers=2, m=2, seed=2)
        d = net.load_diagonal()
        assert np.all(d.real == 0.0)


class TestEffectiveProjection:
    def test_fully_decoupled_ports_give_zero_projection(self):
        z0 = 40.0 + 5.0j
        net = diagonal_network(z0, n_cells=4, m=2, x0=50.0)
        net.set_eta(np.array([0.3, -0.7, 1.1, 0.0]))
        v = effective_projection_matrix(net)
        # output pickup reads the out-port of cells 0 and 1; with diagonal T
        # and input injection on in-ports, cross terms vanish
        np.testing.assert_allclose(v, np.zeros((2, 4)), atol=1e-15)

    def test_decoupled_cells_closed_form_through_gain(self):
        # single layer, no inter-cell coupling: each cell is a 2x2 block
        # [[z_c, gamma], [gamma, z_c]] whose through term is -gamma/(z_c^2 - gamma^2)
        z0, gamma, x0 = 45.0 + 10.0j, 17.0, 50.0
        n_cells = 3
        z = np.zeros((2 * n_cells, 2 * n_cells), dtype=complex)
        for c in range(n_cells):
            z[2 * c, 2 * c] = z0
            z[2 * c + 1, 2 * c + 1] = z0
            z[2 * c, 2 * c + 1] = gamma
            z[2 * c + 1, 2 * c] = gamma
        c_out = np.zeros((n_cells, 2 * n_cells), dtype=complex)
        for c in range(n_cells):
            c_out[c, 2 * c + 1] = 1.0  # read each cell's output port
        net = SimNetwork(z, c_out, n_cells, n_cells, x0=x0)
        eta = np.array([0.4, -1.0, 2.2])
        net.set_eta(eta)
        v = effective_projection_matrix(net)
        z_c = z0 + 1j * x0 * np.tan(eta / 2.0)
        expected = np.diag(-gamma / (z_c**2 - gamma**2))
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_matches_dense_inverse_oracle_desk(self):
        net = desk_network(k_y=16, layers=3, m=4, seed=3)
        t = np.linalg.inv(total_impedance(net))
        e_in = np.zeros((net.n_ports, net.n_inputs), dtype=complex)
        e_in[2 * np.arange(net.n_inputs), np.arange(net.n_inputs)] = 1.0
        oracle = net.c_out @ t @ e_in
        got = effective_projection_matrix(net)
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_solve_equals_column_solve(self, seed):
        net = _cached_network()
        net.set_eta(np.random.default_rng(seed).uniform(-3.0, 3.0, net.n_cells))
        a = effective_projection_matrix(net)
        b = effective_projection_rowsolve(net)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)

    def test_impedance_scaling_inverts_projection(self):
        net = desk_network(k_y=4, layers=2, m=2, seed=5)
        v1 = effective_projection_matrix(net)
        scaled = SimNetwork(
            3.0 * net.z_ss, net.c_out, net.n_cells, net.elements_per_layer, x0=3.0 * net.x0
        )
        scaled.set_eta(net.eta)
        v2 = effective_projection_matrix(scaled)
        np.testing.assert_allclose(v2, v1 / 3.0, rtol=1e-10)

    def test_projection_metrics_against_target(self):
        net = desk_network(k_y=8, layers=2, m=2, seed=6)
        v = effective_projection_matrix(net)
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        cal = calibrate_projection(v, u, w_perp=1.0)
        m = mismatch_metrics(cal.v_scaled, cal.u_basis)
        delta = cal.scale * v - cal.u_basis.conj().T
        assert m.delta_rel == pytest.approx(np.linalg.norm(delta) / np.sqrt(2), rel=1e-12)
        assert m.delta_u == pytest.approx(np.linalg.norm(delta @ cal.u_basis, 2), rel=1e-12)

    def test_concentrated_scale_minimizes(self):
        # c minimizes the weighted ||c V - (U Q)^H|| at the calibrated Q
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        u, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        for w_perp in (1.0, 0.2):
            cal = calibrate_projection(v, u, w_perp)
            y = cal.u_basis.conj().T
            w2 = w_perp * np.eye(6) + (1.0 - w_perp) * (u @ u.conj().T)

            def weighted(scale):
                delta = scale * v - y
                return np.real(np.trace(w2 @ delta.conj().T @ delta))

            base = weighted(cal.scale)
            for dc in [0.01, -0.01, 0.01j, -0.01j]:
                assert weighted(cal.scale + dc) >= base


class TestRowOrthonormalityGap:
    def test_zero_for_orthonormal_rows(self):
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        assert row_orthonormality_gap(u.conj().T) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_by_two_gives_three(self):
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        assert row_orthonormality_gap(2.0 * u.conj().T) == pytest.approx(3.0, rel=1e-12)

    def test_reported_for_optimized_projection(self):
        net = desk_network(k_y=8, layers=2, m=2, seed=8)
        v = effective_projection_matrix(net)
        gap = row_orthonormality_gap(v)
        assert np.isfinite(gap) and gap >= 0.0


class TestPortMap:
    def test_port_index_layout(self):
        # cell c, counted layer-major, has ports 2c (in) and 2c + 1 (out):
        # the field drives the first layer's inputs, the receiver reads the
        # last layer's outputs
        net = desk_network(k_y=4, layers=3, m=2)
        np.testing.assert_array_equal(net.input_ports, [0, 2, 4, 6])
        assert np.flatnonzero(np.abs(net.c_out).sum(axis=0)).tolist() == [17, 19, 21, 23]

    def test_wrap_phase_range(self):
        eta = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi])
        w = wrap_phase(eta)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * eta), atol=1e-12)

    def test_port_offset_must_fit_between_layers(self):
        cfg = GeometryConfig(k_y=2, k_z=1, layers=2, carrier_frequency_hz=28e9)
        sim, rx = build_sim_geometry(cfg)
        with pytest.raises(ConfigurationError):
            build_sim_network(sim, rx, ImpedanceParams(port_offset_wavelengths=0.6))


class TestFileProvider:
    def test_saved_impedance_reproduces_projection(self, tmp_path):
        from simloc.matio import load_complex_matrix, save_complex_matrix
        from simloc.multiport import build_impedance

        cfg = GeometryConfig(
            k_y=6, k_z=1, layers=2, carrier_frequency_hz=28e9, receiver_elements=2
        )
        sim, rx = build_sim_geometry(cfg)
        params = ImpedanceParams()
        z = build_impedance(sim, params)
        path = tmp_path / "zss.cmat"
        save_complex_matrix(path, z)
        net_a = build_sim_network(sim, rx, params)
        net_b = build_sim_network(sim, rx, params, z_ss=load_complex_matrix(path))
        eta = np.random.default_rng(0).uniform(-3, 3, net_a.n_cells)
        net_a.set_eta(eta)
        net_b.set_eta(eta)
        np.testing.assert_array_equal(
            effective_projection_matrix(net_a), effective_projection_matrix(net_b)
        )
