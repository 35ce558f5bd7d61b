"""Multiport impedance model of the stacked surface.

Each unit cell of each layer is an antenna pair (input/output port) loaded
with a tunable reactance, so a Q-layer surface with K cells per layer is a
2QK-port network. A static complex-symmetric impedance matrix Z_ss carries
mutual coupling between all ports (including the non-unilateral layer-to-
layer interactions); the tunable phases eta enter through a diagonal,
purely reactive load matrix Z_s(eta). The input/output behavior is governed
by T(eta) = inv(Z_ss + Z_s(eta)), which is never materialized: all products
with T go through a cached LU factorization, which each network makes in
place, in one Fortran-ordered work buffer it allocates once.

A factorization costs the LU plus O(n) besides. tan(eta/2) is taken once per
phase update and serves both the load diagonal and the gradient's reactance
slope. The 1-norm that ``gecon`` needs is the off-diagonal column sums of
|Z_ss|, cached at construction, plus the magnitudes of the new diagonal.
Its rounding differs from a sum over the assembled matrix, but the
reciprocal condition number it yields is only compared against
``1 / COND_THRESHOLD``. Setting phases bit-equal to the installed ones
keeps the factorization.

Ports sit on the two faces of their layer: the input port of a cell at
x - port_offset/2, the output port at x + port_offset/2. Mutual coupling
decays with the true port separation, which gives adjacent layers a strong
forward (output-face to input-face) path.

Signal path: the incident field drives the first-layer input ports (columns
of E_in); the receiver observes the open-circuit voltages that the port
currents induce on its antennas (rows of C_out), giving the effective
K -> M projection V(eta) = C_out @ T(eta) @ E_in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.linalg as sla

from . import matio
from .errors import ConditioningError, ConfigurationError
from .geometry import ArrayGeometry, pairwise_distances

if TYPE_CHECKING:
    from .config import ScenarioConfig

DEFAULT_Z_SELF = 73.0 + 42.5j  # half-wave-dipole-style self impedance, ohms
DEFAULT_BETA = 60.0  # mutual coupling amplitude, ohms
DEFAULT_GAMMA = 20.0 + 0j  # intra-cell input/output coupling, ohms
DEFAULT_X0 = 50.0  # load reactance scale, ohms
DEFAULT_PORT_OFFSET = 0.375  # input/output face separation, wavelengths
COND_THRESHOLD = 1e12  # largest accepted condition number of Z_ss + Z_s(eta)


@dataclass(frozen=True)
class ImpedanceParams:
    """Parameters of the analytic impedance provider."""

    z_self: complex = DEFAULT_Z_SELF
    beta: float = DEFAULT_BETA
    gamma: complex = DEFAULT_GAMMA
    x0: float = DEFAULT_X0
    port_offset_wavelengths: float = DEFAULT_PORT_OFFSET

    def __post_init__(self) -> None:
        if complex(self.z_self).real <= 0:
            raise ConfigurationError("impedance.z_self must have a positive real part")
        if self.x0 <= 0:
            raise ConfigurationError("impedance.x0 must be positive")
        if self.port_offset_wavelengths < 0:
            raise ConfigurationError("impedance.port_offset_wavelengths must be nonnegative")


def port_index(layer: int, element: int, side: str, elements_per_layer: int) -> int:
    """Flat port index for (layer, element, side), side in {'in', 'out'}."""
    base = 2 * (layer * elements_per_layer + element)
    if side == "in":
        return base
    if side == "out":
        return base + 1
    raise ConfigurationError(f"unknown port side {side!r}")


def port_positions(geometry: ArrayGeometry, params: ImpedanceParams) -> np.ndarray:
    """(2QK, 3) port coordinates: input faces interleaved with output faces."""
    off = params.port_offset_wavelengths * geometry.wavelength
    if geometry.layers > 1 and off >= geometry.layer_spacing:
        raise ConfigurationError(
            "port offset must be smaller than the layer spacing"
        )
    pos = geometry.positions
    out = np.empty((2 * len(pos), 3))
    out[0::2] = pos - np.array([off / 2.0, 0.0, 0.0])
    out[1::2] = pos + np.array([off / 2.0, 0.0, 0.0])
    return out


def mutual_coupling(distance: np.ndarray, beta: float, wavelength: float) -> np.ndarray:
    """Radiative mutual impedance beta * exp(-j*2*pi*d/lam) / (2*pi*d/lam).

    Evaluated in place, one float and one complex array of the input's shape,
    with the operations of the formula in its order."""
    kd = 2.0 * np.pi * np.asarray(distance, dtype=float)  # a new array
    kd /= wavelength
    z = -1j * kd
    np.exp(z, out=z)
    z *= beta
    z /= kd
    return z


def build_impedance(geometry: ArrayGeometry, params: ImpedanceParams) -> np.ndarray:
    """Static impedance matrix of the stacked surface (analytic provider).

    Diagonal entries are the self impedance, the two ports of one cell
    couple through gamma, and every other port pair couples through the
    distance-decaying mutual term.
    """
    ppos = port_positions(geometry, params)
    d = pairwise_distances(ppos, ppos)
    np.fill_diagonal(d, 1.0)  # placeholder, intra-cell entries overwritten below
    z = mutual_coupling(d, params.beta, geometry.wavelength)
    i = np.arange(0, len(ppos), 2)  # input port of each cell, its output port is i + 1
    o = i + 1
    z[i, i] = params.z_self
    z[o, o] = params.z_self
    z[i, o] = params.gamma
    z[o, i] = params.gamma
    return z


def validate_static_impedance(z: np.ndarray, n_ports: int) -> np.ndarray:
    """Checks applied to a file-loaded static impedance matrix."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (n_ports, n_ports):
        raise ConfigurationError(
            f"static impedance must be {n_ports}x{n_ports}, got {z.shape}"
        )
    scale = max(float(np.abs(z).max()), 1e-300)
    if float(np.abs(z - z.T).max()) > 1e-9 * scale:
        raise ConfigurationError("static impedance matrix must be symmetric")
    return z


def build_output_coupling(
    receiver: ArrayGeometry, geometry: ArrayGeometry, params: ImpedanceParams
) -> np.ndarray:
    """Receiver observation matrix: mutual terms from last-layer output ports
    to each receiver element, zero on all other ports (Thevenin pickup,
    receiver back-action neglected)."""
    ppos = port_positions(geometry, params)
    k = geometry.elements_per_layer
    last = geometry.layers - 1
    out_ports = np.array([port_index(last, e, "out", k) for e in range(k)])
    d = pairwise_distances(receiver.positions, ppos[out_ports])
    m = mutual_coupling(d, params.beta, geometry.wavelength)
    c_out = np.zeros((len(receiver.positions), 2 * geometry.total_elements), dtype=complex)
    c_out[:, out_ports] = m
    return c_out


def wrap_phase(eta: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi, pi]."""
    w = (np.asarray(eta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi
    w[w == -np.pi] = np.pi
    return w


class SimNetwork:
    """Stacked-surface network with a cached factorization of Z_ss + Z_s(eta).

    Immutable except for phase updates through :meth:`set_eta`, which
    invalidate the factorization unless the wrapped phases are bit-equal to
    the installed ones. The next solve refills the network's one work buffer
    with Z_ss + Z_s(eta) and factorizes it in place. Solves at a fixed eta,
    once it is factorized, only read the buffer. Sharing a
    network across threads that call :meth:`set_eta` was never safe.
    """

    def __init__(
        self,
        z_ss: np.ndarray,
        c_out: np.ndarray,
        n_cells: int,
        elements_per_layer: int,
        eta: Optional[np.ndarray] = None,
        x0: float = DEFAULT_X0,
    ):
        n_ports = 2 * n_cells
        self.z_ss = np.asfortranarray(validate_static_impedance(z_ss, n_ports))
        c_out = np.asarray(c_out, dtype=complex)
        if c_out.shape[1] != n_ports:
            raise ConfigurationError("output coupling has wrong port count")
        self.c_out = c_out
        self.n_cells = n_cells
        self.elements_per_layer = elements_per_layer
        self.x0 = float(x0)
        self._eta = np.zeros(n_cells) if eta is None else wrap_phase(np.asarray(eta, float))
        if self._eta.shape != (n_cells,):
            raise ConfigurationError("eta must have one entry per cell")
        self._tan_half = np.tan(self._eta / 2.0)
        self._fact = None
        self._work = np.empty_like(self.z_ss)  # Fortran order, LU in place
        self._work_diag = self._work.reshape(-1, order="F")[:: n_ports + 1]  # a view
        mag = np.abs(self.z_ss)
        np.fill_diagonal(mag, 0.0)
        self._offdiag_colsum = mag.sum(axis=0)  # the 1-norm's static part
        self._gecon, self._getrs = sla.get_lapack_funcs(("gecon", "getrs"), (self._work,))
        self._input_ports = np.array(
            [port_index(0, e, "in", elements_per_layer) for e in range(elements_per_layer)]
        )

    # -- configuration ----------------------------------------------------

    @property
    def n_ports(self) -> int:
        return 2 * self.n_cells

    @property
    def n_inputs(self) -> int:
        return self.elements_per_layer

    @property
    def n_outputs(self) -> int:
        return self.c_out.shape[0]

    @property
    def eta(self) -> np.ndarray:
        return self._eta.copy()

    def set_eta(self, eta: np.ndarray) -> None:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (self.n_cells,):
            raise ConfigurationError("eta must have one entry per cell")
        eta = wrap_phase(eta)
        if self._fact is not None and (eta == self._eta).all():
            return  # keeps the factorization
        self._eta = eta
        self._tan_half = np.tan(eta / 2.0)
        self._fact = None

    def input_port_indices(self) -> np.ndarray:
        """Ports driven by the incident field: first-layer input ports."""
        return self._input_ports.copy()

    def load_diagonal(self) -> np.ndarray:
        """Diagonal of Z_s(eta): both ports of cell c carry
        j*X(eta_c) = j*x0*tan(eta_c / 2)."""
        return 1j * np.repeat(self.x0 * self._tan_half, 2)

    def reactance_slope(self) -> np.ndarray:
        """Per-cell d X / d eta = x0/2 * (1 + tan^2(eta/2))."""
        return 0.5 * self.x0 * (1.0 + self._tan_half**2)

    def _one_norm(self, diag: np.ndarray) -> float:
        """||Z_ss + Z_s(eta)||_1 in O(n) from its diagonal ``diag``: the
        cached off-diagonal column sums of |Z_ss| plus |diag|."""
        return float((self._offdiag_colsum + np.abs(diag)).max())

    def total_impedance(self) -> np.ndarray:
        z = self.z_ss.copy()
        z[np.diag_indices_from(z)] += self.load_diagonal()
        return z

    # -- solves ------------------------------------------------------------

    def _factorization(self):
        if self._fact is None:
            z = self._work
            z[...] = self.z_ss
            self._work_diag += self.load_diagonal()
            anorm = self._one_norm(self._work_diag)
            # looked up at call time, so a wrapped sla.lu_factor sees every LU
            lu, piv = sla.lu_factor(z, overwrite_a=True, check_finite=False)
            rcond, info = self._gecon(lu, anorm, norm="1")
            if info != 0:
                rcond = 0.0
            if not np.isfinite(rcond) or rcond < 1.0 / COND_THRESHOLD:
                raise ConditioningError(
                    "total impedance matrix is numerically singular "
                    f"(reciprocal condition {rcond:.3e}, max |eta| = "
                    f"{np.abs(self._eta).max():.6f})"
                )
            self._fact = (lu, piv)
        return self._fact

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """T(eta) @ rhs through the cached factorization."""
        lu, piv = self._factorization()
        x, info = self._getrs(lu, piv, rhs)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of getrs")
        return x


def build_sim_network(
    geometry: ArrayGeometry,
    receiver: ArrayGeometry,
    params: Optional[ImpedanceParams] = None,
    z_ss: Optional[np.ndarray] = None,
    eta: Optional[np.ndarray] = None,
) -> SimNetwork:
    """Assemble the network from geometry, analytically or from a given Z_ss."""
    params = params or ImpedanceParams()
    if z_ss is None:
        z_ss = build_impedance(geometry, params)
    c_out = build_output_coupling(receiver, geometry, params)
    return SimNetwork(
        z_ss=z_ss,
        c_out=c_out,
        n_cells=geometry.total_elements,
        elements_per_layer=geometry.elements_per_layer,
        eta=eta,
        x0=params.x0,
    )


def build_network(
    cfg: "ScenarioConfig",
    geometry: ArrayGeometry,
    receiver: ArrayGeometry,
    eta: Optional[np.ndarray] = None,
) -> SimNetwork:
    """The scenario's network: Z_ss from ``cfg.impedance_file`` when one is
    set, otherwise from the analytic provider."""
    z_ss = None
    if cfg.impedance_file:
        z_ss = matio.load_complex_matrix(cfg.impedance_file)
    return build_sim_network(geometry, receiver, cfg.impedance, z_ss=z_ss, eta=eta)


# -- effective projection ---------------------------------------------------


def input_embedding(net: SimNetwork) -> np.ndarray:
    """E_in: canonical unit columns selecting first-layer input ports."""
    e = np.zeros((net.n_ports, net.n_inputs), dtype=complex)
    e[net.input_port_indices(), np.arange(net.n_inputs)] = 1.0
    return e


def effective_projection_matrix(net: SimNetwork) -> np.ndarray:
    """V(eta) = C_out @ T(eta) @ E_in via one solve per input column."""
    t_cols = net.solve(input_embedding(net))
    return net.c_out @ t_cols


def effective_projection_rowsolve(net: SimNetwork) -> np.ndarray:
    """Same matrix computed through network reciprocity.

    Z total is symmetric, so T is too, and V^T = E_in^T @ T @ C_out^T;
    this costs one solve per receiver chain instead of per input element.
    """
    b = net.solve(net.c_out.T)  # T @ C_out^T, plain transpose
    return b[net.input_port_indices(), :].T


def row_orthonormality_gap(v: np.ndarray) -> float:
    """Spectral-norm distance of V V^H from the identity."""
    v = np.asarray(v, dtype=complex)
    gram = v @ v.conj().T
    return float(np.linalg.norm(gram - np.eye(v.shape[0]), 2))
