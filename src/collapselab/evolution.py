"""Nonlocal-in-time Schrodinger dynamics in the equal-time formalism.

The dynamical equation couples the state to itself across a strip of width
ell_min in time,

    i d/dt psi(t) = h0 psi(t) + integral V(t, t') psi(t') dt',

which is solved as a fixed point of the Duhamel form: free propagation plus
the interaction integral, iterated until the update is below tolerance. The
state is extended by free evolution outside the grid, so kernels reaching
past the boundary see a consistent continuation; runs whose field does not
vanish near the boundary get a warning, since there the continuation is an
approximation rather than an identity.

The interval [t0, t1] maps to nodes 0..n-1. All propagator bookkeeping is
relative to the initial node: X_j sends psi(t0) to psi(t_j), and two-time
maps are X_q X_i^{-1}. The fixed-point sweep marches forward using already
updated nodes for the past (Gauss-Seidel), so only the genuinely noncausal
strip of width ell_min carries the previous iterate and the residual decays
geometrically at a rate set by the coupling, not by the interval length.

A sweep updates each node with one real GEMM, the real weights c[a, q]
against the float64 view of the window of maps or states, giving the next
node's stacked channel mixes, and one complex GEMM of a step operator built
once per solve (free step, channel operators side by side, trapezoid
weights) against the current node and both nodes' mixes; the next node's
mixes are then refreshed in place. Outside the sweep every channel sum
costs two BLAS calls. The solve keeps its padded half-step field table on
the record, so node loops of surface corrections cost linear time.

On top of the solved record this module builds the equal-time objects: the
one-time interaction operator, the surface correction that makes the
two-time inner product conserved, the related direct strip-sum form of that
product, and the similarity transformation to the picture in which the
dynamics is generated by a single (nearly Hermitian) operator.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import InteractionChannel, NoiseRealization
from .errors import NoConvergence, OutOfGrid
from .grids import TimeGrid
from .lattice import FreePropagator, StateVector, _as_matrix, _as_vector, inv_sqrtmh, sqrtmh

log = logging.getLogger(__name__)

COUPLING_WARN = 0.2
COUPLING_ERROR = 0.5

# finite-difference stencils for d/dt at the center node, by accuracy order
_FD_STENCILS = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)),
}


@dataclass
class EvolutionRecord:
    """Converged solve on one grid for one field realization.

    ``states`` holds psi(t_j) when an initial state was given; ``props``
    holds the maps X_j from t0 to t_j (with free-extension pads of width
    ``reach`` on both sides) when the solve tracked propagators. The
    interaction term g_j = W(t_j) psi(t_j) comes out of the solve for free.
    """

    grid: TimeGrid
    channels: tuple[InteractionChannel, ...]
    noise: NoiseRealization
    h0: np.ndarray
    spacing: float
    reach: int
    residuals: list[float]
    states: np.ndarray | None = None
    interaction_terms: np.ndarray | None = None
    props: np.ndarray | None = None  # padded: index j + reach
    _free: FreePropagator | None = field(default=None, repr=False)
    _coeffs: np.ndarray | None = field(default=None, repr=False)
    _field_pad: np.ndarray | None = field(default=None, repr=False)
    _quadrant: tuple | None = field(default=None, repr=False)
    _local: tuple | None = field(default=None, repr=False)

    @property
    def free(self) -> FreePropagator:
        if self._free is None:
            self._free = FreePropagator(self.h0)
        return self._free

    def state(self, i: int) -> np.ndarray:
        if self.states is None:
            raise OutOfGrid("record has no state trajectory")
        return self.states[i]

    def propagator(self, j: int) -> np.ndarray:
        """X_j for j in [-reach, n-1+reach], free-extended past the ends."""
        if self.props is None:
            raise OutOfGrid("record was solved without propagators")
        return self.props[j + self.reach]

    def trajectory(self, psi0: np.ndarray) -> np.ndarray:
        """States X_j psi0 on the interior nodes for an arbitrary start."""
        if self.props is None:
            raise OutOfGrid("record was solved without propagators")
        interior = self.props[self.reach : self.reach + self.grid.n_nodes]
        return np.einsum("jab,b->ja", interior, _as_vector(psi0))

    def local_propagators(self, i: int) -> np.ndarray:
        """Relative maps Y_q = X_q X_i^{-1} for q = i-reach .. i+reach; the
        last window is kept, read-only, so S_t and W of a node share it."""
        if self.props is None:
            raise OutOfGrid("record was solved without propagators")
        if not (0 <= i < self.grid.n_nodes):
            raise OutOfGrid(f"node {i} outside the grid")
        if self._local is not None and self._local[0] == i:
            return self._local[1]
        xi = self.props[i + self.reach]
        window = self.props[i : i + 2 * self.reach + 1]
        # Y_q = X_q X_i^{-1}  <=>  Y_q^T = solve(X_i^T, X_q^T)
        y = np.linalg.solve(xi.T[None], window.transpose(0, 2, 1)).transpose(0, 2, 1)
        y.flags.writeable = False
        self._local = (i, y)
        return y


def _side_by_side(channels) -> np.ndarray:
    """The channel operators laid side by side, shape (D, A*D)."""
    return np.concatenate([ch.spatial_op for ch in channels], axis=1)


def _channel_sum(ops_row: np.ndarray, weights: np.ndarray,
                 window: np.ndarray) -> np.ndarray:
    """sum_a O_a sum_q weights[a, (m,) q] window[q] in two BLAS calls.

    ``weights`` is real, (A, W) or (A, M, W); ``window`` is complex,
    (W, D, ...), and is contracted as one real GEMM on its float64 view.
    The result is the node shape of ``window``, behind M if given.
    """
    n_q = weights.shape[-1]
    flat = np.ascontiguousarray(window).reshape(n_q, -1)
    # rows ordered (middle index, channel), so each middle index's mixes
    # stack into one (A*D, ...) block for the side-by-side operators
    mix = (weights.swapaxes(0, -2).reshape(-1, n_q) @ flat.view(np.float64)).view(complex)
    out = ops_row @ mix.reshape(-1, ops_row.shape[1], flat.shape[1] // ops_row.shape[0])
    return out.reshape(weights.shape[1:-1] + window.shape[1:])


def _coefficient_table(channels, noise: NoiseRealization, grid: TimeGrid,
                       reach: int) -> tuple[np.ndarray, np.ndarray]:
    """c[a, j, d] = amplitude_a * L_a(d dt) * field_a(midpoint(j, j+d)) * dt,
    and the half-step field table it reads, zero-padded by ``reach``.

    Midpoints (t_j + t_{j+d})/2 sit on the half-step grid at index 2j + d;
    indices beyond the simulated interval contribute zero.
    """
    n = grid.n_nodes
    dt = grid.dt
    half = noise.table(grid.t0, 0.5 * dt, 2 * (n - 1) + 1)
    pad = np.zeros((half.shape[0], half.shape[1] + 2 * reach))
    pad[:, reach : reach + half.shape[1]] = half
    d = np.arange(-reach, reach + 1)
    gather = 2 * np.arange(n)[:, None] + d[None, :] + reach
    coeffs = np.empty((len(channels), n, 2 * reach + 1))
    for a, ch in enumerate(channels):
        lz = ch.profile.value(d * dt)
        coeffs[a] = dt * ch.amplitude * lz[None, :] * pad[a][gather]
    return coeffs, pad


def _check_regime(channels, noise: NoiseRealization, grid: TimeGrid) -> None:
    strength = max(ch.amplitude * ch.profile.ell_min for ch in channels)
    if strength > COUPLING_ERROR:
        raise NoConvergence(
            f"coupling strength lambda*ell = {strength:.3f} beyond the "
            f"fixed-point regime (> {COUPLING_ERROR})"
        )
    if strength > COUPLING_WARN:
        warnings.warn(
            f"coupling strength lambda*ell = {strength:.3f} above "
            f"{COUPLING_WARN}; convergence will be slow", stacklevel=3)
    ell = max(ch.profile.ell_min for ch in channels)
    strip = noise.table(grid.t0, grid.dt, grid.n_nodes)
    k = max(int(round(ell / grid.dt)), 1)
    edge = max(np.abs(strip[:, : k + 1]).max(), np.abs(strip[:, -k - 1 :]).max())
    if edge > 1e-12:
        warnings.warn(
            "field is active within one kernel range of the grid boundary; "
            "the free continuation beyond the grid is approximate there",
            stacklevel=3)


def solve_nonlocal(psi0, grid: TimeGrid, channels: list[InteractionChannel],
                   noise: NoiseRealization, h0, spacing: float,
                   tol: float = 1e-10, max_iter: int = 50,
                   propagators: bool = False) -> EvolutionRecord:
    """Fixed-point solve of the nonlocal equation on the grid.

    Returns a record with the state trajectory (and the propagator stack
    when ``propagators`` is set; pass ``psi0=None`` with propagators to
    solve for the maps alone). Raises NoConvergence if the update never
    drops below ``tol`` within ``max_iter`` sweeps.
    """
    channels = list(channels)
    h0m = _as_matrix(h0)
    dim = h0m.shape[0]
    _check_regime(channels, noise, grid)

    dt = grid.dt
    n = grid.n_nodes
    n_ch = len(channels)
    ell = max(ch.profile.ell_min for ch in channels)
    reach = int(round(ell / dt))
    win = 2 * reach + 1
    coeffs, field_pad = _coefficient_table(channels, noise, grid, reach)
    # weight of each node's own term in its channel mixes, for the refresh
    self_weight = coeffs[:, :, reach].T[:, :, None, None].copy()

    free = FreePropagator(h0m)
    e_dt = free.matrix(dt)
    shifts = np.arange(1, reach + 1) * dt
    right_pad = free.matrix(shifts)  # e^{-i m dt h0}, m = 1..reach

    matrix_mode = propagators or psi0 is None
    tail = dim if matrix_mode else 1
    if matrix_mode:
        x0 = np.eye(dim, dtype=complex)
    else:
        x0 = np.asarray(_as_vector(psi0), dtype=complex).reshape(dim, 1)

    total = n + 2 * reach
    x = np.empty((total, dim, tail), dtype=complex)
    # left pad: exact free evolution backwards from the initial node
    x[:reach] = free.matrix(-shifts[::-1]) @ x0
    x[reach] = x0
    # first iterate: free evolution forward
    for j in range(1, n + reach):
        np.matmul(e_dt, x[reach + j - 1], out=x[reach + j])
    x_real = x.reshape(total, -1).view(np.float64)

    # x_{j+1} = E x_j - (i dt/2) (E O m_j + O m_{j+1}) with O the operators
    # side by side and m_j the stacked channel mixes of node j, as one GEMM
    # of a step operator against buf = [x_j; mixes]. The two mix slots swap
    # roles every node, so there is one step operator per slot order.
    ops_row = _side_by_side(channels)
    half = -0.5j * dt
    e_ops = half * (e_dt @ ops_row)
    step = (np.concatenate([e_dt, e_ops, half * ops_row], axis=1),
            np.concatenate([e_dt, half * ops_row, e_ops], axis=1))
    buf = np.empty(((1 + 2 * n_ch) * dim, tail), dtype=complex)
    mixes = buf[dim:].reshape(2, n_ch, dim, tail)
    mixes_real = mixes.reshape(2, n_ch, -1).view(np.float64)

    residuals: list[float] = []
    for _ in range(max_iter):
        x_old = x.copy()
        np.matmul(coeffs[:, 0], x_real[:win], out=mixes_real[0])
        buf[:dim] = x[reach]
        for j in range(n - 1):
            here = j & 1
            # node j+1 still holds the old iterate
            np.matmul(coeffs[:, j + 1], x_real[j + 1 : j + 1 + win],
                      out=mixes_real[1 - here])
            new = x[reach + j + 1]
            np.matmul(step[here], buf, out=new)
            # refresh the diagonal term of node j+1's mixes with the update
            mixes[1 - here] += self_weight[j + 1] * (new - x_old[reach + j + 1])
            buf[:dim] = new
        np.matmul(right_pad, x[reach + n - 1], out=x[reach + n :])
        resid = float(np.abs(x - x_old).max())
        residuals.append(resid)
        if resid <= tol:
            break
    else:
        raise NoConvergence(
            f"fixed point not reached: residual {residuals[-1]:.3e} "
            f"after {max_iter} sweeps (tol {tol:.0e})"
        )

    record = EvolutionRecord(
        grid=grid, channels=tuple(channels), noise=noise, h0=h0m,
        spacing=spacing, reach=reach, residuals=residuals,
        _free=free, _coeffs=coeffs, _field_pad=field_pad,
    )
    if matrix_mode:
        record.props = x
    if psi0 is not None:
        if matrix_mode:
            traj = np.einsum("jab,b->ja", x, np.asarray(_as_vector(psi0), dtype=complex))
        else:
            traj = x.reshape(total, dim)
        record.states = traj[reach : reach + n]
        # interaction term on the converged trajectory, per node
        record.interaction_terms = np.stack([
            _channel_sum(ops_row, coeffs[:, j], traj[j : j + win])
            for j in range(n)])
    return record


def equal_time_hamiltonian(record: EvolutionRecord, i: int) -> np.ndarray:
    """The one-time interaction operator at node i:

        W(t_i) = integral V(t_i, t') U^{t'}_{t_i} dt'.

    Generally non-Hermitian; its anti-Hermitian part is what the surface
    correction compensates.
    """
    coeffs = record._coeffs
    if coeffs is None:
        raise OutOfGrid("record is missing its coefficient table")
    return _channel_sum(_side_by_side(record.channels), coeffs[:, i],
                        record.local_propagators(i))


def _quadrant_coeffs(record: EvolutionRecord, i: int) -> np.ndarray:
    """c[a, p, q] over the past x future quadrant around node i.

    p runs over i-reach..i, q over i..i+reach (both inclusive); trapezoid
    weights give the shared corner p = q = i a quarter weight. The kernel
    vanishes on the outer edges so only the inner boundary needs halving.
    The field values come from the padded half-step table the solve kept
    on the record; the kernel weights are built on the first call and kept
    there too.
    """
    reach = record.reach
    if record._quadrant is None:
        dt = record.grid.dt
        off = np.arange(reach + 1)
        wp = np.full(reach + 1, dt)
        wp[-1] = 0.5 * dt
        wq = wp[::-1]
        diff = (off[:, None] - off[None, :] - reach) * dt  # t_p - t_q
        kern = np.stack([
            ch.amplitude * ch.profile.value(diff) * wp[:, None] * wq[None, :]
            for ch in record.channels])
        record._quadrant = (kern, off[:, None] + off[None, :])
    kern, off_sum = record._quadrant
    # the midpoint of (t_p, t_q) sits at half-grid index p + q, which is
    # 2i - reach + off_sum; the pad shifts it by reach
    return kern * record._field_pad[:, 2 * i + off_sum]


def surface_correction(record: EvolutionRecord, i: int) -> np.ndarray:
    """The Hermitian operator S_t whose addition to the identity makes the
    two-time product conserved along the flow.

    Assembled as i(Q - Q^dag) with Q the past-future quadrant integral of
    (U^tau_t)^dag V(tau, tau') U^tau'_t; hermiticity is exact by
    construction. Vanishes when the field is off throughout the strip
    [t - ell, t + ell].
    """
    reach = record.reach
    y = record.local_propagators(i)
    dim = y.shape[1]
    # O Y_q summed over the future and the channels, one (D, D) per past node
    mixed = _channel_sum(_side_by_side(record.channels),
                         _quadrant_coeffs(record, i), y[reach:])
    q = y[: reach + 1].reshape(-1, dim).conj().T @ mixed.reshape(-1, dim)
    return 1j * (q - q.conj().T)


def conserved_inner(record: EvolutionRecord, i: int, phi, psi) -> complex:
    """The conserved product <phi|psi>_t = (phi, (1 + S_t) psi) at node i."""
    s = surface_correction(record, i)
    a = _as_vector(phi)
    b = _as_vector(psi)
    return complex(record.spacing * np.vdot(a, b + s @ b))


def conserved_inner_layer_sum(record: EvolutionRecord, i: int,
                              phi_traj: np.ndarray, psi_traj: np.ndarray) -> complex:
    """Same product assembled directly from the two trajectories:

    equal-time L2 term plus i times the past-future strip double sums of
    (phi(tau), V(tau, tau') psi(tau')). Trajectories must cover the interior
    nodes; the strip reach past the grid ends uses the free continuation.
    """
    reach = record.reach
    n = record.grid.n_nodes
    shifts = record.grid.dt * np.arange(1, reach + 1)

    def padded(traj: np.ndarray) -> np.ndarray:
        return np.concatenate([record.free.matrix(-shifts[::-1]) @ traj[0], traj[:n],
                               record.free.matrix(shifts) @ traj[n - 1]])

    phi, psi = padded(phi_traj), padded(psi_traj)
    past, future = slice(i, i + reach + 1), slice(i + reach, i + 2 * reach + 1)
    c = _quadrant_coeffs(record, i)
    ops_row = _side_by_side(record.channels)
    past_future = np.vdot(phi[past], _channel_sum(ops_row, c, psi[future]))
    future_past = np.vdot(phi[future], _channel_sum(ops_row, c.transpose(0, 2, 1), psi[past]))
    total = np.vdot(phi[i + reach], psi[i + reach]) + 1j * (past_future - future_past)
    return complex(record.spacing * total)


def transform_state(psi, surface: np.ndarray, picture: str = "psi_tilde"):
    """Map psi to the transformed picture: psi_tilde = sqrt(1 + S_t) psi."""
    root = sqrtmh(np.eye(surface.shape[0]) + surface)
    v = root @ _as_vector(psi)
    if isinstance(psi, StateVector):
        return StateVector(v, picture=picture)
    return v


def _expansion_interaction(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(W + W^dag)/2 - (1/8) [W - W^dag, S]: the second-order transformed
    interaction from W(t) and the surface correction S_t of one node."""
    anti = w - w.conj().T
    return 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)


def transformed_interaction(record: EvolutionRecord, i: int, mode: str = "exact",
                            fd_order: int = 2) -> np.ndarray:
    """The generator correction in the transformed picture at node i.

    'exact' conjugates h0 + W with sqrt(1 + S_t) and adds the derivative
    term of the root, with d/dt taken by a central difference of the chosen
    accuracy order (2 or 4). 'expansion' is the second-order form

        (W + W^dag)/2 - (1/8) [W - W^dag, S_t],

    Hermitian by construction; the difference from 'exact' is third order
    in the coupling once the finite-difference error is subdominant.
    """
    if mode == "expansion":
        return _expansion_interaction(equal_time_hamiltonian(record, i),
                                     surface_correction(record, i))
    if mode != "exact":
        raise ValueError(f"unknown transformed-interaction mode {mode!r}")
    offsets, weights = _FD_STENCILS[fd_order]
    n = record.grid.n_nodes
    if i + min(offsets) < 0 or i + max(offsets) > n - 1:
        raise OutOfGrid(f"node {i} too close to the ends for the {fd_order}-point stencil")
    dim = record.h0.shape[0]
    eye = np.eye(dim)
    s_here = surface_correction(record, i)
    root = sqrtmh(eye + s_here)
    inv_root = inv_sqrtmh(eye + s_here)
    d_inv_root = np.zeros_like(root)
    for off, wgt in zip(offsets, weights):
        s_off = surface_correction(record, i + off)
        d_inv_root = d_inv_root + (wgt / record.grid.dt) * inv_sqrtmh(eye + s_off)
    w = equal_time_hamiltonian(record, i)
    full = root @ (record.h0 + w) @ inv_root - 1j * (root @ d_inv_root)
    return full - record.h0

