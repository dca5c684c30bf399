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
maps the block back into the maps. A block whose weights are all zero only
free-propagates its first node. Outside the sweep every channel sum costs
two BLAS calls. The record keeps the kernel rows and the field table.

A solve may start from the records of the same problem on up to three
coarser grids, with steps 2h, 4h and 8h (nested iteration). The finest
record, and each coarser one's difference from the record before it, is
carried to every node in the interaction picture z_j = e^{i t_j E} U^dag X_j
by the 8-point Lagrange rule, whose stencil is centred on the node and
shifted inward at the grid ends. The carried terms are summed with the
Richardson weights (1), (5/4, -1/4) or (21/16, -21/64, 1/64) of the
records, which cancel the leading dt^2 and dt^4 terms of the
trapezoid/Nystrom rule's error. The first iterate is then as close to the fixed point as the error those
weights leave, not as the coupling, and the solve takes a few sweeps to
the same fixed point.

On top of the solved record this module builds the equal-time objects: the
one-time interaction operator, the surface correction that makes the
two-time inner product conserved, the related direct strip-sum form of that
product, and the generator correction in the transformed picture
psi_tilde = sqrt(1 + S_t) psi, where the dynamics is generated by a single
(nearly Hermitian) operator. The inverse X_i^{-1} of the two-time maps
factors out of their channel sums, so W and S_t of a node cost one and two
(D, D) linear solves, and one pass gives the generator correction both
exact and in its second-order expansion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import InteractionChannel
from .errors import DimensionMismatch, NoConvergence, OutOfGrid
from .grids import TimeGrid
from .lattice import EigenSystem, sqrtmh

COUPLING_WARN = 0.2
COUPLING_ERROR = 0.5
_TOL = 1e-12  # largest entry change of the maps that ends the fixed point
_MAX_SWEEPS = 50
_BLOCK = 32  # nodes a sweep steps from one set of channel mixes
_STENCIL = 8  # nodes of the rule that carries a coarser record to a node
# _RICHARDSON[k] weighs k coarser records X_2h, X_4h, X_8h in difference
# form: X_2h, then X_2h - X_4h, then X_4h - X_8h. Two match the step-h fixed
# point through its dt^2 error term, three through dt^4 too; they are the
# weights (5/4, -1/4) and (21/16, -21/64, 1/64) of the records themselves
_RICHARDSON = ((), (1.0,), (1.0, 1 / 4), (1.0, 5 / 16, -1 / 64))

# central-difference stencil for d/dt at the center node, fourth order
_FD_OFFSETS = (-2, -1, 1, 2)
_FD_WEIGHTS = (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)


@dataclass
class EvolutionRecord:
    """Converged solve on one grid for one field realization.

    ``props`` holds the maps X_j from t0 to t_j, with free-extension pads of
    width ``reach`` on both sides; ``trajectory(psi0)`` gives the states
    psi(t_j) = X_j psi0 of any initial state.
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
    _quadrant: tuple | None = field(default=None, repr=False)

    def trajectory(self, psi0: np.ndarray) -> np.ndarray:
        """States X_j psi0 on the interior nodes."""
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


def _coefficient_table(channels, field: np.ndarray, grid: TimeGrid,
                       reach: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors of c[a, j, d] = dt amplitude_a L_a(d dt) field_a(midpoint
    of t_j, t_{j+d}): kernel rows over d = -reach..reach, and the half-step
    field table, zero-padded by ``reach``, in which node j's field row is
    pad[:, 2j : 2j + 2 reach + 1]; midpoints past the interval read zero.
    """
    dt = grid.dt
    shape = (len(channels), 2 * grid.steps + 1)
    if np.shape(field) != shape:
        raise DimensionMismatch(
            f"field table has shape {np.shape(field)}, not {shape}: one row per "
            f"channel over the {shape[1]} half-step nodes of {grid}")
    pad = np.zeros((shape[0], shape[1] + 2 * reach))
    pad[:, reach : reach + shape[1]] = field
    d = np.arange(-reach, reach + 1)
    kern = np.stack([dt * ch.amplitude * ch.profile.value(d * dt) for ch in channels])
    return kern, pad


def coupling_strength(channels) -> float:
    """Dimensionless coupling: largest amplitude times kernel range."""
    return max(ch.amplitude * ch.profile.ell_min for ch in channels)


def _check_coupling(channels) -> None:
    strength = coupling_strength(channels)
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


def _lagrange(x: np.ndarray, width: int) -> np.ndarray:
    """Weights (len(x), width) of the Lagrange rule through the points
    0 .. width-1, at the points x; at x = l they are exactly one-hot."""
    points = np.arange(width)
    own = np.eye(width, dtype=bool)
    # row l of the last axis holds the factors x - m and l - m for m != l
    num = np.where(own, 1.0, (x[:, None] - points)[:, None, :]).prod(axis=2)
    return num / np.where(own, 1, points[:, None] - points).prod(axis=1)


def _first_iterate(maps: np.ndarray, esys: EigenSystem, dt: float, n: int,
                   records: tuple[EvolutionRecord, ...]) -> None:
    """Write the first iterate of a solve into ``maps``: its nodes 0 .. n-1
    and then the right pad, in the interaction picture
    z_j = e^{i t_j E} U^dag X_j, so X_j = U e^{-i t_j E} z_j.

    With no records z_j = U^dag, free evolution. Otherwise the finest
    record (step 2h) and each further record's difference from the one
    before it, taken on its own nodes (X_2h - X_4h on the 4h nodes, X_4h -
    X_8h on the 8h nodes), are carried to every node by the Lagrange rule
    through _STENCIL consecutive nodes, centred on the node and shifted
    inward at the ends (through all nodes when a record has fewer), which
    copies a node it shares. They are summed with the Richardson weights
    _RICHARDSON[len(records)]. A difference is of the size of the step's
    error, so carrying it adds little error of its own. Past node n-1, z
    stays z_{n-1}: the free continuation. Written in place, _BLOCK nodes at
    a time.
    """
    u = esys.vectors
    u_dag = u.conj().T
    dim = u.shape[0]
    total = maps.shape[0]
    nodes = np.minimum(np.arange(total), n - 1)
    carried = []
    finer = None  # the interior maps of the record before
    for weight, rec in zip(_RICHARDSON[len(records)], records):
        ratio = round(rec.grid.dt / dt)
        n_c = rec.grid.n_nodes
        width = min(_STENCIL, n_c)
        first = np.clip(nodes // ratio - (_STENCIL // 2 - 1), 0, n_c - width)
        # node j sits at k / ratio on its stencil, k = j - ratio * first[j];
        # rules[k] is the weighted rule there
        rules = weight * _lagrange(np.arange(ratio * (width - 1) + 1) / ratio, width)
        phase = np.exp(1j * np.multiply.outer(np.arange(n_c) * ratio * dt, esys.values))
        own = rec.props[rec.reach : rec.reach + n_c]
        carried.append((first, nodes - ratio * first, rules, phase, own, finer))
        finer = own
    rows = np.arange(_BLOCK)[:, None]
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        # e^{-i t E} at the block's nodes
        phases = np.exp(-1j * np.multiply.outer(np.arange(lo, hi) * dt, esys.values))
        if not carried:
            np.matmul(u * phases[:, None, :], u_dag, out=maps[lo:hi])
            continue
        # the records' nodes that the block reads, side by side as (row,
        # node, column): one GEMM takes them to the eigenbasis, where their
        # phases e^{i t E} scale the rows, and one sums them by the rules
        picked, picked_phases, bands = [], [], []
        for first, k, rules, phase, coarse, finer in carried:
            a, b = first[lo], first[hi - 1] + rules.shape[1]
            data = coarse[a:b] if finer is None else finer[2 * a : 2 * b : 2] - coarse[a:b]
            band = np.zeros((hi - lo, b - a))
            cols = first[lo:hi, None] - a + np.arange(rules.shape[1])
            band[rows[: hi - lo], cols] = rules[k[lo:hi]]
            bands.append(band)
            picked.append(data.transpose(1, 0, 2))
            picked_phases.append(phase[a:b])
        z = (u_dag @ np.concatenate(picked, axis=1).reshape(dim, -1)).reshape(dim, -1, dim)
        z *= np.concatenate(picked_phases).T[:, :, None]
        z = np.matmul(np.hstack(bands), z.view(np.float64)).view(complex)
        z *= phases.T[:, :, None]
        x = u @ z.reshape(dim, -1)
        maps[lo:hi] = x.reshape(dim, hi - lo, dim).transpose(1, 0, 2)


def solve_nonlocal(grid: TimeGrid, channels: list[InteractionChannel],
                   field: np.ndarray, h0: np.ndarray, spacing: float, *,
                   start: tuple[EvolutionRecord, ...] = ()) -> EvolutionRecord:
    """Fixed-point solve of the nonlocal equation on the grid for the maps.

    ``field`` is the half-step field table, shape (n_channels,
    2 * grid.steps + 1): row a holds channel a's field at t0 + k dt/2, as
    ``sample_fourier_probe`` returns it and as a white realization's
    ``samples`` hold it; any other shape raises DimensionMismatch. Returns
    the record of the map stack; ``record.trajectory(psi0)`` gives the
    states. Raises NoConvergence if the largest entry change of the maps
    never drops to ``_TOL`` within ``_MAX_SWEEPS`` sweeps, or at the first
    sweep whose change is not finite.

    ``start`` holds zero to three records, finest first, each the solve of
    the same problem with twice the step of the grid before it
    (``start[0].grid.refined(2) == grid``); they give the first iterate in
    place of free evolution (see ``_first_iterate``). Records whose grids
    are not nested this way, or more than three, raise ValueError. Only
    their interior nodes are read, so their reach may differ from half this
    one where ell/dt is not a whole number.
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
    if len(start) >= len(_RICHARDSON):
        raise ValueError(f"start takes zero to three records, got {len(start)}")
    finer = grid
    for rec in start:
        if rec.grid.refined(2) != finer:
            raise ValueError(
                f"start record on {rec.grid} is not the half-resolution solve "
                f"of {finer}")
        finer = rec.grid
    kern, field_pad = _coefficient_table(channels, field, grid, reach)
    _check_boundary(field_pad, reach)
    # node j's field row as a read-only view rows[j, a, q] = field_pad[a, 2j + q]
    rows = np.lib.stride_tricks.sliding_window_view(
        field_pad, win, axis=1)[:, ::2].transpose(1, 0, 2)

    esys = EigenSystem.of(h0, spacing)
    u = esys.vectors
    u_dag = u.conj().T
    shifts = np.arange(1, reach + 1) * dt
    right_pad = esys.matrix(shifts)  # e^{-i m dt h0}, m = 1..reach

    total = n + 2 * reach
    x = np.empty((total, dim, dim), dtype=complex)
    # left pad: exact free evolution backwards from the initial node
    x[:reach] = esys.matrix(-shifts[::-1])
    _first_iterate(x[reach:], esys, dt, n, start)
    x[reach] = np.eye(dim)
    x_real = x.reshape(total, -1).view(np.float64)
    assert np.shares_memory(x_real, x)

    # with E the eigenvalues of h0, a block of nodes s..e steps
    # z_k = e^{i k dt E} U^dag x_{s+k} by the trapezoid rule
    # z_{k+1} = z_k - (i dt/2)(V_k + V_{k+1}), V_k = e^{i k dt E} U^dag O m_{s+k};
    # to_z[k] @ m_{s+k} is -(i dt/2) V_k, trap[k-1] sums those into z_k - z_0
    # (weight 1 on V_0 and V_k, 2 between) and from_z[k-1] @ z_k is x_{s+k}
    k_dt = np.arange(_BLOCK + 1)[:, None] * dt
    to_z = np.exp(1j * k_dt * esys.values)[:, :, None] * (
        -0.5j * dt * (u_dag @ _side_by_side(channels)))
    from_z = u * np.exp(-1j * k_dt[1:] * esys.values)[:, None, :]
    trap = np.tri(_BLOCK, _BLOCK + 1) + np.tri(_BLOCK, _BLOCK + 1, 1)
    trap[:, 0] = 1.0
    # band[k, a, k + q] = c[a, s + k, q] = kern[a, q] rows[s + k, a, q], so the
    # block's mixes are one GEMM against the map rows s .. e + 2 reach (padded)
    band = np.zeros((_BLOCK + 1, n_ch, _BLOCK + win))
    st = band.strides
    band_diag = np.lib.stride_tricks.as_strided(
        band, shape=(_BLOCK + 1, n_ch, win), strides=(st[0] + st[2], st[1], st[2]))
    mix_real = np.empty(((_BLOCK + 1) * n_ch, 2 * dim * dim))

    # a block whose weights are all zero (a NaN weight is not) has zero
    # mixes, so its nodes only free-propagate node s
    blocks = [(s, min(s + _BLOCK, n - 1)) for s in range(0, n - 1, _BLOCK)]
    idle = [not np.any(kern * rows[s : e + 1]) for s, e in blocks]

    residuals: list[float] = []
    for sweep in range(1, _MAX_SWEEPS + 1):
        resid = 0.0  # np.maximum below keeps a NaN where max() would drop it
        for (s, e), quiet in zip(blocks, idle):
            nb = e - s
            if quiet:
                new = from_z[:nb] @ (u_dag @ x[reach + s])
            else:
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

    return EvolutionRecord(
        grid=grid, channels=tuple(channels), h0=h0,
        spacing=spacing, reach=reach, residuals=residuals, props=x,
        _kernel=kern, _field_pad=field_pad,
    )


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
                    psi: np.ndarray, *, surface: np.ndarray | None = None) -> complex:
    """The conserved product <phi|psi>_t = (phi, (1 + S_t) psi) at node i.

    ``surface`` is S_t at node i when the caller has already formed it.
    """
    s = surface_correction(record, i) if surface is None else surface
    return complex(record.spacing * np.vdot(phi, psi + s @ psi))


def conserved_inner_layer_sum(record: EvolutionRecord, i: int,
                              phi0: np.ndarray, psi0: np.ndarray) -> complex:
    """Same product assembled directly from the trajectories of the initial
    states phi0 and psi0:

    equal-time L2 term plus i times the past-future strip double sums of
    (phi(tau), V(tau, tau') psi(tau')). The strip reads the record's padded
    maps, so past the grid ends it uses their free continuation.
    """
    reach = record.reach
    _, window = _node_maps(record, i)
    phi, psi = (np.einsum("jab,b->ja", window, s0) for s0 in (phi0, psi0))
    past, future = slice(0, reach + 1), slice(reach, 2 * reach + 1)
    c = _quadrant_coeffs(record, i)
    ops_row = _side_by_side(record.channels)
    past_future = np.vdot(phi[past], _channel_sum(ops_row, c, psi[future]))
    future_past = np.vdot(phi[future], _channel_sum(ops_row, c.transpose(0, 2, 1), psi[past]))
    total = np.vdot(phi[reach], psi[reach]) + 1j * (past_future - future_past)
    return complex(record.spacing * total)


def transformed_interaction(record: EvolutionRecord, i: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The generator correction in the transformed picture at node i, as
    the pair (exact, expansion), from one W(t_i) and one S_t per node of
    the stencil i-2 .. i+2: 11 (D, D) solves and 5 ``eigh``.

    The exact form conjugates h0 + W with sqrt(1 + S_t) and adds the
    derivative term of the root, d/dt by the fourth-order central
    difference over the stencil. The expansion is the second-order form

        (W + W^dag)/2 - (1/8) [W - W^dag, S_t],

    Hermitian by construction; the difference is third order in the
    coupling once the finite-difference error is subdominant.
    """
    n = record.grid.n_nodes
    if i + _FD_OFFSETS[0] < 0 or i + _FD_OFFSETS[-1] > n - 1:
        raise OutOfGrid(f"node {i} too close to the ends for the "
                        f"{len(_FD_OFFSETS)}-point stencil")
    eye = np.eye(record.h0.shape[0])
    s = surface_correction(record, i)
    root, inv_root = sqrtmh(eye + s)
    d_inv_root = np.zeros_like(root)
    for off, wgt in zip(_FD_OFFSETS, _FD_WEIGHTS):
        _, inv_off = sqrtmh(eye + surface_correction(record, i + off))
        d_inv_root = d_inv_root + (wgt / record.grid.dt) * inv_off
    w = equal_time_hamiltonian(record, i)
    exact = (root @ (record.h0 + w) @ inv_root - 1j * (root @ d_inv_root)
             - record.h0)
    anti = w - w.conj().T
    return exact, 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)
