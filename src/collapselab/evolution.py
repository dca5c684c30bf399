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
maps are X_q X_i^{-1}. The fixed-point sweep marches forward in blocks of
``_BLOCK`` nodes, each using the already updated nodes before it for the
past (block Gauss-Seidel), so only the strip of width ell_min ahead of a
block and the block itself carry the previous iterate, and the residual
decays geometrically at a rate set by the coupling, not by the interval
length. A block records the largest change of the nodes it writes, so the
stop rule needs no copy of the maps.

A block works in the eigenbasis U of h0, with eigenvalues E, where the free
step is the phase e^{-i dt E}, and in the interaction picture
z_k = e^{i k dt E} U^dag X_{s+k} relative to its first node s. There the
trapezoid step of the Duhamel form sums V_k = e^{i k dt E} U^dag O m_{s+k},
with O the channel operators side by side and m the stacked channel mixes
sum_q c[a, q] X_q. Each weight is a kernel value times a field value (a
Nystrom rule), so a block forms its weights on a band from the kernel rows
and a strided view of the padded half-step field table, and one real GEMM
of the band against the float64 view of the maps gives the mixes of every
node in the block; one batched product applies O, U^dag and the phases,
one real GEMM of the trapezoid weights sums them, and one batched product
maps the block back into the maps. Outside the sweep every channel sum
costs two BLAS calls. The record keeps the kernel rows and the field table.

A solve may start from the record of the same problem on the grid with
twice the step (nested iteration): its maps fill the even nodes, and each
odd node is the midpoint of its neighbours in the interaction picture. The
first iterate is then as close to the fixed point as the coarse grid's
discretization error, not as the coupling, and the solve takes fewer
sweeps to the same fixed point.

On top of the solved record this module builds the equal-time objects: the
one-time interaction operator, the surface correction that makes the
two-time inner product conserved, the related direct strip-sum form of that
product, and the generator correction in the transformed picture
psi_tilde = sqrt(1 + S_t) psi, where the dynamics is generated by a single
(nearly Hermitian) operator. The inverse X_i^{-1} of the two-time maps
factors out of their channel sums, so W and S_t of a node cost one and two
(D, D) linear solves.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import InteractionChannel, NoiseRealization
from .errors import NoConvergence, OutOfGrid
from .grids import TimeGrid
from .lattice import FreePropagator, sqrtmh

log = logging.getLogger(__name__)

COUPLING_WARN = 0.2
COUPLING_ERROR = 0.5
_TOL = 1e-12  # largest entry change of the maps that ends the fixed point
_MAX_SWEEPS = 50
_BLOCK = 32  # nodes a sweep steps from one set of channel mixes

# central-difference stencil for d/dt at the center node, fourth order
_FD_OFFSETS = (-2, -1, 1, 2)
_FD_WEIGHTS = (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)


@dataclass
class EvolutionRecord:
    """Converged solve on one grid for one field realization.

    ``props`` holds the maps X_j from t0 to t_j, with free-extension pads of
    width ``reach`` on both sides; ``states`` holds psi(t_j) = X_j psi0 when
    an initial state was given.
    """

    grid: TimeGrid
    channels: tuple[InteractionChannel, ...]
    h0: np.ndarray
    spacing: float
    reach: int
    residuals: list[float]
    props: np.ndarray  # padded: index j + reach
    _kernel: np.ndarray = field(repr=False)  # (A, 2 reach + 1) kernel rows
    _field_pad: np.ndarray = field(repr=False)
    _right_free: np.ndarray = field(repr=False)  # e^{-i m dt h0}, m = 1..reach
    states: np.ndarray | None = None
    _quadrant: tuple | None = field(default=None, repr=False)

    def state(self, i: int) -> np.ndarray:
        if self.states is None:
            raise OutOfGrid("record has no state trajectory")
        return self.states[i]

    def trajectory(self, psi0: np.ndarray) -> np.ndarray:
        """States X_j psi0 on the interior nodes for an arbitrary start."""
        interior = self.props[self.reach : self.reach + self.grid.n_nodes]
        return np.einsum("jab,b->ja", interior, psi0)


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
    """The factors of c[a, j, d] = dt amplitude_a L_a(d dt) field_a(midpoint
    of t_j, t_{j+d}): kernel rows over d = -reach..reach, and the half-step
    field table, zero-padded by ``reach``, in which node j's field row is
    pad[:, 2j : 2j + 2 reach + 1]; midpoints past the interval read zero.
    """
    n = grid.n_nodes
    dt = grid.dt
    half = noise.table(grid.t0, 0.5 * dt, 2 * (n - 1) + 1)
    pad = np.zeros((half.shape[0], half.shape[1] + 2 * reach))
    pad[:, reach : reach + half.shape[1]] = half
    d = np.arange(-reach, reach + 1)
    kern = np.stack([dt * ch.amplitude * ch.profile.value(d * dt) for ch in channels])
    return kern, pad


def _check_coupling(channels) -> None:
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


def _check_boundary(field_pad: np.ndarray, reach: int) -> None:
    # the node values are the even half-step entries: (dt/2)*2k rounds as dt*k
    strip = field_pad[:, reach : field_pad.shape[1] - reach : 2]
    k = max(reach, 1)
    edge = max(np.abs(strip[:, : k + 1]).max(), np.abs(strip[:, -k - 1 :]).max())
    if edge > 1e-12:
        warnings.warn(
            "field is active within one kernel range of the grid boundary; "
            "the free continuation beyond the grid is approximate there",
            stacklevel=3)


def solve_nonlocal(psi0: np.ndarray | None, grid: TimeGrid,
                   channels: list[InteractionChannel],
                   noise: NoiseRealization, h0: np.ndarray,
                   spacing: float, *,
                   start: EvolutionRecord | None = None) -> EvolutionRecord:
    """Fixed-point solve of the nonlocal equation on the grid for the maps.

    Returns a record with the map stack, and the state trajectory when
    ``psi0`` is given (``psi0=None`` solves for the maps alone). Raises
    NoConvergence if the largest entry change of the maps never drops to
    ``_TOL`` within ``_MAX_SWEEPS`` sweeps, or at the first sweep whose
    change is not finite.

    ``start``, if given, is a record on the same interval with twice this
    step (``start.grid.refined(2) == grid``), whose interior maps give the
    first iterate in place of free evolution; any other record raises
    ValueError. Only its interior nodes are read, so its reach may differ
    from half this one where ell/dt is not a whole number.
    """
    channels = list(channels)
    dim = h0.shape[0]
    _check_coupling(channels)

    dt = grid.dt
    n = grid.n_nodes
    n_ch = len(channels)
    ell = max(ch.profile.ell_min for ch in channels)
    reach = int(round(ell / dt))
    win = 2 * reach + 1
    if start is not None and start.grid.refined(2) != grid:
        raise ValueError(
            f"start record on {start.grid} is not the half-resolution solve "
            f"of {grid}")
    kern, field_pad = _coefficient_table(channels, noise, grid, reach)
    _check_boundary(field_pad, reach)
    # node j's field row as a read-only view rows[j, a, q] = field_pad[a, 2j + q]
    rows = np.lib.stride_tricks.sliding_window_view(
        field_pad, win, axis=1)[:, ::2].transpose(1, 0, 2)

    free = FreePropagator(h0)
    u = free.evecs
    u_dag = u.conj().T
    shifts = np.arange(1, reach + 1) * dt
    right_pad = free.matrix(shifts)  # e^{-i m dt h0}, m = 1..reach

    total = n + 2 * reach
    x = np.empty((total, dim, dim), dtype=complex)
    # left pad: exact free evolution backwards from the initial node
    x[:reach] = free.matrix(-shifts[::-1])
    if start is None:
        # first iterate: free evolution forward, U e^{-i t E} U^dag, formed
        # _BLOCK nodes at a time in place (free.matrix over all nodes would
        # hold two temporaries the size of the maps)
        phases = np.exp(-1j * np.multiply.outer(np.arange(n + reach) * dt, free.evals))
        for lo in range(0, n + reach, _BLOCK):
            np.matmul(u * phases[lo : lo + _BLOCK, None, :], u_dag,
                      out=x[reach + lo : reach + lo + _BLOCK])
    else:
        # first iterate: the coarse maps on the even nodes, and on each odd
        # node the midpoint (z_{j-1} + z_{j+1}) / 2 of its neighbours in the
        # interaction picture z_j = e^{i t_j E} U^dag X_j, which maps back
        # to (e^{-i dt h0} X_{j-1} + e^{i dt h0} X_{j+1}) / 2
        even = start.props[start.reach : start.reach + start.grid.n_nodes]
        x[reach : reach + n : 2] = even
        x[reach + 1 : reach + n : 2] = 0.5 * (free.matrix(dt) @ even[:-1]
                                              + free.matrix(-dt) @ even[1:])
        np.matmul(right_pad, x[reach + n - 1], out=x[reach + n :])
    x[reach] = np.eye(dim)
    x_real = x.reshape(total, -1).view(np.float64)
    assert np.shares_memory(x_real, x)

    # with E the eigenvalues of h0, a block of nodes s..e steps
    # z_k = e^{i k dt E} U^dag x_{s+k} by the trapezoid rule
    # z_{k+1} = z_k - (i dt/2)(V_k + V_{k+1}), V_k = e^{i k dt E} U^dag O m_{s+k};
    # to_z[k] @ m_{s+k} is -(i dt/2) V_k, trap[k-1] sums those into z_k - z_0
    # (weight 1 on V_0 and V_k, 2 between) and from_z[k-1] @ z_k is x_{s+k}
    k_dt = np.arange(_BLOCK + 1)[:, None] * dt
    to_z = np.exp(1j * k_dt * free.evals)[:, :, None] * (
        -0.5j * dt * (u_dag @ _side_by_side(channels)))
    from_z = u * np.exp(-1j * k_dt[1:] * free.evals)[:, None, :]
    trap = np.tri(_BLOCK, _BLOCK + 1) + np.tri(_BLOCK, _BLOCK + 1, 1)
    trap[:, 0] = 1.0
    # band[k, a, k + q] = c[a, s + k, q] = kern[a, q] rows[s + k, a, q], so the
    # block's mixes are one GEMM against the map rows s .. e + 2 reach (padded)
    band = np.zeros((_BLOCK + 1, n_ch, _BLOCK + win))
    st = band.strides
    band_diag = np.lib.stride_tricks.as_strided(
        band, shape=(_BLOCK + 1, n_ch, win), strides=(st[0] + st[2], st[1], st[2]))
    mix_real = np.empty(((_BLOCK + 1) * n_ch, 2 * dim * dim))

    residuals: list[float] = []
    for sweep in range(1, _MAX_SWEEPS + 1):
        resid = 0.0  # np.maximum below keeps a NaN where max() would drop it
        for s in range(0, n - 1, _BLOCK):
            e = min(s + _BLOCK, n - 1)
            nb = e - s
            # node s holds this sweep's value, later nodes the last sweep's
            np.multiply(kern, rows[s : e + 1], out=band_diag[: nb + 1])
            mix = np.matmul(band[: nb + 1, :, : nb + win].reshape(-1, nb + win),
                            x_real[s : e + win], out=mix_real[: (nb + 1) * n_ch])
            v = np.matmul(to_z[: nb + 1],
                          mix.view(complex).reshape(nb + 1, n_ch * dim, dim))
            z = (trap[:nb, : nb + 1] @ v.reshape(nb + 1, -1).view(np.float64)
                 ).view(complex).reshape(nb, dim, dim)
            z += u_dag @ x[reach + s]
            new = from_z[:nb] @ z
            block = x[reach + s + 1 : reach + e + 1]
            resid = np.maximum(resid, np.abs(new - block).max())
            block[...] = new
        pad = right_pad @ x[reach + n - 1]
        resid = float(np.maximum(resid, np.abs(pad - x[reach + n :]).max()))
        x[reach + n :] = pad
        residuals.append(resid)
        if resid <= _TOL:
            break
        if not math.isfinite(resid):
            raise NoConvergence(
                f"fixed point lost: residual {resid} at sweep {sweep}")
    else:
        raise NoConvergence(
            f"fixed point not reached: residual {residuals[-1]:.3e} "
            f"after {_MAX_SWEEPS} sweeps (tol {_TOL:.0e})"
        )

    record = EvolutionRecord(
        grid=grid, channels=tuple(channels), h0=h0,
        spacing=spacing, reach=reach, residuals=residuals, props=x,
        _kernel=kern, _field_pad=field_pad, _right_free=right_pad,
    )
    if psi0 is not None:
        record.states = np.einsum("jab,b->ja", x, psi0)[reach : reach + n]
    return record


def _node_maps(record: EvolutionRecord, i: int) -> tuple[np.ndarray, np.ndarray]:
    """X_i and the window X_{i-reach} .. X_{i+reach} of node i."""
    if not (0 <= i < record.grid.n_nodes):
        raise OutOfGrid(f"node {i} outside the grid")
    return record.props[i + record.reach], record.props[i : i + 2 * record.reach + 1]


def equal_time_hamiltonian(record: EvolutionRecord, i: int) -> np.ndarray:
    """The one-time interaction operator at node i:

        W(t_i) = integral V(t_i, t') U^{t'}_{t_i} dt'.

    Generally non-Hermitian; its anti-Hermitian part is what the surface
    correction compensates.
    """
    xi, window = _node_maps(record, i)
    c = record._kernel * record._field_pad[:, 2 * i : 2 * i + window.shape[0]]
    # sum_q c O (X_q X_i^{-1}) = (sum_q c O X_q) X_i^{-1}, solved transposed
    m = _channel_sum(_side_by_side(record.channels), c, window)
    return np.linalg.solve(xi.T, m.T).T


def _quadrant_coeffs(record: EvolutionRecord, i: int) -> np.ndarray:
    """c[a, p, q] over the past x future quadrant around node i.

    p runs over i-reach..i, q over i..i+reach (both inclusive); trapezoid
    weights give the shared corner p = q = i a quarter weight. The kernel
    vanishes on the outer edges so only the inner boundary needs halving.
    The field values are a strided view of the padded half-step table the
    solve kept on the record; the kernel weights and that view are built
    on the first call and kept there too.
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
        # the midpoint of (t_p, t_q) sits at half-grid index p + q, padded
        # 2i + (p - i + reach) + (q - i); sums[a, m, k] = field_pad[a, m + k]
        record._quadrant = (kern, np.lib.stride_tricks.sliding_window_view(
            record._field_pad, reach + 1, axis=1))
    kern, sums = record._quadrant
    return kern * sums[:, 2 * i : 2 * i + reach + 1]


def surface_correction(record: EvolutionRecord, i: int) -> np.ndarray:
    """The Hermitian operator S_t whose addition to the identity makes the
    two-time product conserved along the flow.

    Assembled as i(Q - Q^dag) with Q the past-future quadrant integral of
    (U^tau_t)^dag V(tau, tau') U^tau'_t; hermiticity is exact by
    construction. Vanishes when the field is off throughout the strip
    [t - ell, t + ell].
    """
    xi, window = _node_maps(record, i)
    reach = record.reach
    dim = xi.shape[0]
    # O X_q summed over the future and the channels, one (D, D) per past node
    mixed = _channel_sum(_side_by_side(record.channels),
                         _quadrant_coeffs(record, i), window[reach:])
    m = window[: reach + 1].reshape(-1, dim).conj().T @ mixed.reshape(-1, dim)
    # with Y_p = X_p X_i^{-1}: Q = sum_pq c Y_p^dag O Y_q = X_i^{-dag} m X_i^{-1}
    q = np.linalg.solve(xi.conj().T, np.linalg.solve(xi.T, m.T).T)
    return 1j * (q - q.conj().T)


def conserved_inner(record: EvolutionRecord, i: int, phi: np.ndarray,
                    psi: np.ndarray) -> complex:
    """The conserved product <phi|psi>_t = (phi, (1 + S_t) psi) at node i."""
    s = surface_correction(record, i)
    return complex(record.spacing * np.vdot(phi, psi + s @ psi))


def conserved_inner_layer_sum(record: EvolutionRecord, i: int,
                              phi_traj: np.ndarray, psi_traj: np.ndarray) -> complex:
    """Same product assembled directly from the two trajectories:

    equal-time L2 term plus i times the past-future strip double sums of
    (phi(tau), V(tau, tau') psi(tau')). Trajectories must cover the interior
    nodes; the strip reach past the grid ends uses the free continuation.
    """
    reach = record.reach
    n = record.grid.n_nodes

    # the left pad of the maps is the free evolution back from node 0
    def padded(traj: np.ndarray) -> np.ndarray:
        return np.concatenate([record.props[:reach] @ traj[0], traj[:n],
                               record._right_free @ traj[n - 1]])

    phi, psi = padded(phi_traj), padded(psi_traj)
    past, future = slice(i, i + reach + 1), slice(i + reach, i + 2 * reach + 1)
    c = _quadrant_coeffs(record, i)
    ops_row = _side_by_side(record.channels)
    past_future = np.vdot(phi[past], _channel_sum(ops_row, c, psi[future]))
    future_past = np.vdot(phi[future], _channel_sum(ops_row, c.transpose(0, 2, 1), psi[past]))
    total = np.vdot(phi[i + reach], psi[i + reach]) + 1j * (past_future - future_past)
    return complex(record.spacing * total)


def _expansion_interaction(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(W + W^dag)/2 - (1/8) [W - W^dag, S]: the second-order transformed
    interaction from W(t) and the surface correction S_t of one node."""
    anti = w - w.conj().T
    return 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)


def transformed_interaction(record: EvolutionRecord, i: int,
                            mode: str = "exact") -> np.ndarray:
    """The generator correction in the transformed picture at node i.

    'exact' conjugates h0 + W with sqrt(1 + S_t) and adds the derivative
    term of the root, with d/dt taken by the fourth-order central
    difference over nodes i-2 .. i+2. 'expansion' is the second-order form

        (W + W^dag)/2 - (1/8) [W - W^dag, S_t],

    Hermitian by construction; the difference from 'exact' is third order
    in the coupling once the finite-difference error is subdominant.
    """
    if mode == "expansion":
        return _expansion_interaction(equal_time_hamiltonian(record, i),
                                     surface_correction(record, i))
    if mode != "exact":
        raise ValueError(f"unknown transformed-interaction mode {mode!r}")
    n = record.grid.n_nodes
    if i + _FD_OFFSETS[0] < 0 or i + _FD_OFFSETS[-1] > n - 1:
        raise OutOfGrid(f"node {i} too close to the ends for the "
                        f"{len(_FD_OFFSETS)}-point stencil")
    dim = record.h0.shape[0]
    eye = np.eye(dim)
    s_here = surface_correction(record, i)
    root = sqrtmh(eye + s_here)
    inv_root = sqrtmh(eye + s_here, inverse=True)
    d_inv_root = np.zeros_like(root)
    for off, wgt in zip(_FD_OFFSETS, _FD_WEIGHTS):
        s_off = surface_correction(record, i + off)
        inv_off = sqrtmh(eye + s_off, inverse=True)
        d_inv_root = d_inv_root + (wgt / record.grid.dt) * inv_off
    w = equal_time_hamiltonian(record, i)
    full = root @ (record.h0 + w) @ inv_root - 1j * (root @ d_inv_root)
    return full - record.h0
