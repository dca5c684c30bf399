import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from collapselab import evolution
from collapselab.channels import (
    KernelProfile,
    NoiseRealization,
    make_channel,
    sample_fourier_probe,
    sample_noise,
)
from collapselab.errors import NoConvergence, OutOfGrid
from collapselab.evolution import (
    conserved_inner,
    conserved_inner_layer_sum,
    equal_time_hamiltonian,
    solve_nonlocal,
    surface_correction,
    transformed_interaction,
)
from collapselab.grids import TimeGrid, Window
from collapselab.lattice import (
    EigenSystem,
    FreePropagator,
    LatticeConfig,
    build_dirac_h0,
    l2_inner,
    l2_norm,
    sqrtmh,
)

from conftest import ELL, random_state, two_channels

# field support [0.7, 1.3] leaves one kernel range clear of both grid ends
WIN = Window(t_on=0.7, t_off=1.3, ramp=0.2)
OFF = Window(t_on=5.0, t_off=7.0, ramp=0.5)


# ---------------------------------------------------------------------------
# per-channel oracles: one contraction per channel and node, the plain form
# of what evolution.py fuses into a few BLAS calls per block of nodes


def oracle_coeffs(grid, channels, noise, reach):
    """c[a, j, d + reach] = dt amplitude_a L_a(d dt) times the field at the
    midpoint of t_j and t_{j+d}, entry by entry from a fresh half-step
    table of the field; midpoints past either grid end weigh zero. The
    product is taken in the solver's order, so the weights agree to the bit."""
    dt, n = grid.dt, grid.n_nodes
    half = noise.table(grid.t0, 0.5 * dt, 2 * (n - 1) + 1)
    offsets = np.arange(-reach, reach + 1)
    out = np.zeros((len(channels), n, offsets.size))
    for a, ch in enumerate(channels):
        kern = dt * ch.amplitude * ch.profile.value(offsets * dt)
        for j in range(n):
            for k, d in enumerate(offsets):
                if 0 <= 2 * j + d < half.shape[1]:
                    out[a, j, k] = kern[k] * half[a, 2 * j + d]
    return out


def oracle_solve(grid, channels, noise, h0, tol, block):
    """Block Gauss-Seidel sweeps of solve_nonlocal, channel by channel: a
    block of nodes s..s+block takes every node's interaction from the maps
    as they stand at the block's start (node s already updated), then steps
    the trapezoid rule node by node; block=1 is node-by-node Gauss-Seidel.
    Returns the padded maps and the residual history."""
    dt, n = grid.dt, grid.n_nodes
    reach = int(round(max(ch.profile.ell_min for ch in channels) / dt))
    coeffs = oracle_coeffs(grid, channels, noise, reach)
    ops = [ch.spatial_op for ch in channels]
    free = FreePropagator(h0)
    e_dt = free.matrix(dt)
    x0 = np.eye(h0.shape[0], dtype=complex)
    x = np.empty((n + 2 * reach,) + x0.shape, dtype=complex)
    for m in range(1, reach + 1):
        x[reach - m] = free.matrix(-m * dt) @ x0
    x[reach] = x0
    for j in range(1, n + reach):
        x[reach + j] = e_dt @ x[reach + j - 1]

    def interaction_at(j):
        window = x[j : j + 2 * reach + 1]
        return sum(ops[a] @ np.tensordot(coeffs[a, j], window, axes=(0, 0))
                   for a in range(len(ops)))

    residuals = []
    while not residuals or residuals[-1] > tol:
        x_old = x.copy()
        for s in range(0, n - 1, block):
            e = min(s + block, n - 1)
            g = [interaction_at(j) for j in range(s, e + 1)]
            for j in range(s, e):
                x[reach + j + 1] = (e_dt @ x[reach + j]
                                    - 0.5j * dt * (e_dt @ g[j - s] + g[j + 1 - s]))
        for m in range(1, reach + 1):
            x[reach + n - 1 + m] = free.matrix(m * dt) @ x[reach + n - 1]
        residuals.append(float(np.abs(x - x_old).max()))
    return x, residuals


def oracle_quadrant_coeffs(record, noise, i):
    """c[a, p, q] rebuilt from a fresh half-step table of the solve's field."""
    reach, dt, n = record.reach, record.grid.dt, record.grid.n_nodes
    p = np.arange(i - reach, i + 1)
    q = np.arange(i, i + reach + 1)
    half = noise.table(record.grid.t0, 0.5 * dt, 2 * (n - 1) + 1)
    sidx = p[:, None] + q[None, :]
    valid = (sidx >= 0) & (sidx < half.shape[1])
    wp = np.full(p.size, dt)
    wp[-1] = 0.5 * dt
    wq = np.full(q.size, dt)
    wq[0] = 0.5 * dt
    diff = (p[:, None] - q[None, :]) * dt
    out = np.empty((len(record.channels), p.size, q.size))
    for a, ch in enumerate(record.channels):
        w = np.where(valid, half[a][np.clip(sidx, 0, half.shape[1] - 1)], 0.0)
        out[a] = ch.amplitude * ch.profile.value(diff) * w * wp[:, None] * wq[None, :]
    return out


def oracle_relative_maps(record, i):
    """Y_q = X_q X_i^{-1} for q = i-reach .. i+reach, one inverse per node."""
    xi_inv = np.linalg.inv(record.props[i + record.reach])
    return np.stack([xq @ xi_inv for xq in record.props[i : i + 2 * record.reach + 1]])


def oracle_equal_time_hamiltonian(record, noise, i):
    y = oracle_relative_maps(record, i)
    c = oracle_coeffs(record.grid, record.channels, noise, record.reach)[:, i]
    return sum(ch.spatial_op @ np.tensordot(c[a], y, axes=(0, 0))
               for a, ch in enumerate(record.channels))


def oracle_surface_correction(record, noise, i):
    y = oracle_relative_maps(record, i)
    past, future = y[: record.reach + 1], y[record.reach :]
    c = oracle_quadrant_coeffs(record, noise, i)
    q = sum(np.einsum("pq,pba,bc,qcd->ad", c[a], past.conj(), ch.spatial_op, future)
            for a, ch in enumerate(record.channels))
    return 1j * (q - q.conj().T)


def equal_time_hamiltonian_first_order(record, noise, i):
    """W(t_i) contracted with free two-time maps; differs at second order."""
    dt, reach = record.grid.dt, record.reach
    free = FreePropagator(record.h0)
    y = np.stack([free.matrix(d * dt) for d in range(-reach, reach + 1)])
    c = oracle_coeffs(record.grid, record.channels, noise, reach)[:, i]
    return sum(ch.spatial_op @ np.tensordot(c[a], y, axes=(0, 0))
               for a, ch in enumerate(record.channels))


def local_energy(record, i):
    """Energy <psi|(h0 + W)psi>_t at node i as (real part, imag part); the
    imaginary part measures the failure of h0 + W to be symmetric under the
    conserved product at fixed t."""
    psi = record.state(i)
    hpsi = record.h0 @ psi + equal_time_hamiltonian(record, i) @ psi
    s = surface_correction(record, i)
    val = record.spacing * np.vdot(psi, hpsi + s @ hpsi)
    return float(val.real), float(val.imag)


def step_transformed(psi_tilde, h0, wtilde, dt):
    """One midpoint-exponential step exp(-i dt (h0 + wtilde)) psi_tilde,
    by the Hermitian eigendecomposition when the generator is Hermitian to
    working precision, otherwise by scipy's expm."""
    gen = h0 + wtilde
    dev = np.linalg.norm(gen - gen.conj().T, np.inf)
    if dev <= 1e-12 * max(np.linalg.norm(gen, np.inf), 1.0):
        vals, vecs = np.linalg.eigh(0.5 * (gen + gen.conj().T))
        return vecs @ (np.exp(-1j * dt * vals) * (vecs.conj().T @ psi_tilde))
    return expm(-1j * dt * gen) @ psi_tilde


def transform_state(psi, surface):
    """Map psi to the transformed picture: psi_tilde = sqrt(1 + S_t) psi."""
    return sqrtmh(np.eye(surface.shape[0]) + surface) @ psi


def probe(channels, grid, amplitude=2.0):
    return sample_fourier_probe(channels, grid, seed=9, window=WIN,
                                amplitude=amplitude)


def test_zero_field_gives_free_evolution(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)
    assert len(rec.residuals) == 1
    free = FreePropagator(h0_4)
    err = max(
        np.abs(rec.state(i) - free.matrix(i * grid16.dt) @ psi0).max()
        for i in range(grid16.n_nodes)
    )
    assert err < 1e-12


def test_fixed_point_contracts_geometrically(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.02)  # lambda*ell = 0.01
    noise = sample_noise(ch, grid16, seed=5, window=WIN)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)
    assert len(rec.residuals) <= 8
    r = rec.residuals
    assert all(r[k + 1] / r[k] < 0.1 for k in range(len(r) - 1))


def test_coupling_beyond_fixed_point_regime(lat4, h0_4, grid16):
    ch = two_channels(lat4, 1.2)
    noise = sample_noise(ch, grid16, seed=5, window=WIN)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    with pytest.raises(NoConvergence):
        solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)


def test_iteration_budget_exhausted(lat4, h0_4, grid16, monkeypatch):
    ch = two_channels(lat4, 0.1)
    noise = sample_noise(ch, grid16, seed=5, window=WIN)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    monkeypatch.setattr(evolution, "_MAX_SWEEPS", 2)
    with pytest.raises(NoConvergence, match="after 2 sweeps"):
        solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_field_stops_at_first_sweep(lat4, h0_4, grid16, where):
    ch = two_channels(lat4, 0.02)
    noise = sample_noise(ch, grid16, seed=5, window=WIN)
    m = noise.samples.shape[1]
    # grid16 sweeps two blocks; the last sample reaches only the second
    # block and the right pad
    noise.samples[0, {"first": 0, "middle": m // 2, "last": m - 1}[where]] = np.nan
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    with pytest.raises(NoConvergence, match=r"at sweep 1$"):
        solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)


def test_strong_coupling_warns(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.5)  # lambda*ell = 0.25
    noise = sample_noise(ch, grid16, seed=5, window=WIN)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    with pytest.warns(UserWarning, match="convergence will be slow"):
        solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)


def test_active_boundary_warns(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.02)
    noise = sample_noise(ch, grid16, seed=5)  # flat window reaches the ends
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    with pytest.warns(UserWarning, match="boundary"):
        solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)


# ell/dt = 12.5 on the second coarse grid rounds to reach 12, and the fine
# reach is 25, not twice that
@pytest.mark.parametrize("dt, reaches", [(ELL / 16.0, (16, 32)), (0.04, (12, 25))])
def test_warm_start_reaches_the_cold_fixed_point(lat4, h0_4, dt, reaches):
    ch = two_channels(lat4, 0.08)
    grid = TimeGrid(0.0, 2.0, dt)
    fine = grid.refined(2)
    coarse = solve_nonlocal(None, grid, ch, probe(ch, grid), h0_4, lat4.spacing)
    cold = solve_nonlocal(None, fine, ch, probe(ch, fine), h0_4, lat4.spacing)
    warm = solve_nonlocal(None, fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                          start=coarse)
    assert (coarse.reach, warm.reach) == reaches
    assert np.abs(warm.props - cold.props).max() < 1e-11
    assert warm.residuals[0] <= 1e-3 < cold.residuals[0]
    assert len(warm.residuals) < len(cold.residuals)
    reach = warm.reach
    assert np.array_equal(warm.props[reach], np.eye(lat4.dim))
    assert np.array_equal(warm.props[:reach], cold.props[:reach])


def test_refined_solves_hold_little_beyond_their_maps(lat4, h0_4):
    # expansion's ladder: a cold solve at reach 32, then warm solves at
    # reach 64 and 128 (449 and 897 nodes); the weights are formed per
    # block, so no (A, n, 2 reach + 1) table or gather index is allocated,
    # and the cold solve forms its free first iterate in place
    ch = two_channels(lat4, 0.04)
    grid = TimeGrid(0.0, 3.5, ELL / 32.0)
    window = Window(t_on=0.7, t_off=2.8, ramp=0.2)
    rec = None
    for g in (grid, grid.refined(2), grid.refined(4)):
        noise = sample_fourier_probe(ch, g, seed=9, window=window, amplitude=2.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rec = solve_nonlocal(None, g, ch, noise, h0_4, lat4.spacing, start=rec)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rec.props.nbytes


def test_warm_start_rejects_other_grids(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    fine = grid16.refined(2)
    others = (fine, TimeGrid(0.0, 2.0, 2 * grid16.dt),
              TimeGrid(0.0, 2.5, grid16.dt), TimeGrid(-0.5, 2.0, grid16.dt))
    for other in others:
        start = solve_nonlocal(None, other, ch, probe(ch, other), h0_4, lat4.spacing)
        with pytest.raises(ValueError, match="not the half-resolution solve"):
            solve_nonlocal(None, fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                           start=start)


def _solved(lat, h0, grid, amplitude, psi0=None):
    ch = two_channels(lat, amplitude)
    return solve_nonlocal(psi0, grid, ch, probe(ch, grid), h0, lat.spacing)


def test_record_accessors(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    ch = two_channels(lat4, 0.04)
    noise = probe(ch, grid16)
    rec = solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)
    assert np.abs(rec.props[rec.reach] - np.eye(lat4.dim)).max() == 0.0
    traj = rec.trajectory(psi0)
    assert np.abs(traj - rec.states).max() < 1e-12
    for i in (-1, grid16.n_nodes):
        with pytest.raises(OutOfGrid):
            equal_time_hamiltonian(rec, i)
        with pytest.raises(OutOfGrid):
            surface_correction(rec, i)

    maps_only = _solved(lat4, h0_4, grid16, 0.04, psi0=None)
    with pytest.raises(OutOfGrid):
        maps_only.state(0)


def test_surface_correction_shape(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.04)
    s_mid = surface_correction(rec, grid16.n_nodes // 2)
    assert np.array_equal(s_mid, s_mid.conj().T)
    assert np.abs(s_mid).max() > 1e-4
    # field support plus one kernel range stays inside the grid, so the
    # correction vanishes identically at both ends
    assert np.abs(surface_correction(rec, 0)).max() == 0.0
    assert np.abs(surface_correction(rec, grid16.n_nodes - 1)).max() == 0.0


def test_adjoint_metric_round_trip(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04, psi0=psi0)
    n1 = grid16.n_nodes - 1
    d = lat4.dim
    m0 = lat4.spacing * (np.eye(d) + surface_correction(rec, 0))
    m1 = lat4.spacing * (np.eye(d) + surface_correction(rec, n1))
    x = rec.props[rec.reach + n1]
    back = np.linalg.solve(m0, x.conj().T @ (m1 @ rec.state(n1)))
    assert np.abs(back - psi0).max() < 1e-10


def test_conserved_inner_free_limit(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)
    i = grid16.n_nodes // 2
    phi = random_state(lat4.dim, lat4.spacing, 2)
    got = conserved_inner(rec, i, phi, rec.state(i))
    want = l2_inner(phi, rec.state(i), lat4.spacing)
    assert abs(got - want) < 1e-13


def test_conserved_inner_dual_formula(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04, psi0=psi0)
    psit = rec.trajectory(psi0)
    for seed in (2, 3, 4):
        phit = rec.trajectory(random_state(lat4.dim, lat4.spacing, seed))
        for i in (0, grid16.n_nodes // 2, grid16.n_nodes - 1):
            a = conserved_inner(rec, i, phit[i], psit[i])
            b = conserved_inner_layer_sum(rec, i, phit, psit)
            assert abs(a - b) < 1e-12


def test_conservation_drift_is_quadratic_in_dt(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)

    def drift(grid):
        rec = _solved(lat4, h0_4, grid, 0.04, psi0=psi0)
        step = max(1, grid.steps // 32)
        vals = [conserved_inner(rec, i, rec.state(i), rec.state(i))
                for i in range(0, grid.n_nodes, step)]
        return max(abs(v - vals[0]) for v in vals)

    d1 = drift(grid16)
    d2 = drift(grid16.refined(2))
    assert d1 > 1e-8  # the check must see an actual discretization error
    assert 3.2 < d1 / d2 < 4.8


def test_equal_time_hamiltonian_orders(lat4, h0_4, grid16):
    i = grid16.n_nodes // 2

    def diff(amplitude):
        ch = two_channels(lat4, amplitude)
        noise = probe(ch, grid16)
        rec = solve_nonlocal(None, grid16, ch, noise, h0_4, lat4.spacing)
        w = equal_time_hamiltonian(rec, i)
        w1 = equal_time_hamiltonian_first_order(rec, noise, i)
        return np.abs(w - w1).max(), w

    d1, w = diff(0.08)
    d2, _ = diff(0.04)
    # the full contraction differs from the free-map one at second order
    assert 3.0 < d1 / d2 < 5.3
    assert np.abs(w - w.conj().T).max() > 1e-3

    ch = two_channels(lat4, 0.08)
    noise = sample_noise(ch, grid16, seed=5, window=OFF)
    rec0 = solve_nonlocal(None, grid16, ch, noise, h0_4, lat4.spacing)
    assert np.abs(equal_time_hamiltonian(rec0, i)).max() == 0.0


def test_transform_state_identities(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04, psi0=psi0)
    i = grid16.n_nodes // 2
    s = surface_correction(rec, i)
    psi = rec.state(i)
    tilde = transform_state(psi, np.zeros_like(s))
    assert np.abs(tilde - psi).max() < 1e-14
    tilde = transform_state(psi, s)
    assert abs(l2_norm(tilde, lat4.spacing) ** 2
               - conserved_inner(rec, i, psi, psi).real) < 1e-10
    assert np.abs(tilde - psi).max() <= np.abs(s).max() * np.abs(psi).max() * 2.0


def test_transformed_interaction_zero_field(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.08)
    noise = sample_noise(ch, grid16, seed=5, window=OFF)
    rec = solve_nonlocal(None, grid16, ch, noise, h0_4, lat4.spacing)
    i = grid16.n_nodes // 2
    assert np.abs(transformed_interaction(rec, i, "expansion")).max() == 0.0
    assert np.abs(transformed_interaction(rec, i, "exact")).max() < 1e-14


def test_transformed_interaction_expansion_algebra(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.08)
    i = grid16.n_nodes // 2
    w = equal_time_hamiltonian(rec, i)
    s = surface_correction(rec, i)
    anti = w - w.conj().T
    want = 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)
    got = transformed_interaction(rec, i, "expansion")
    assert np.abs(got - want).max() < 1e-14
    assert np.abs(got - got.conj().T).max() < 1e-14


def test_exact_mode_hermiticity_defect_shrinks_with_dt(lat4, h0_4, grid16):
    def defect(grid):
        rec = _solved(lat4, h0_4, grid, 0.08)
        wt = transformed_interaction(rec, grid.node_index(1.0), "exact")
        return np.abs(wt - wt.conj().T).max()

    h1 = defect(grid16)
    h2 = defect(grid16.refined(2))
    assert h1 > 1e-6
    assert 3.0 < h1 / h2 < 5.0


def test_expansion_remainder_is_third_order(lat4, h0_4, grid16):
    def remainder(amplitude):
        # two-level extrapolation removes the quadrature error, which decays
        # only quadratically in dt and would mask the coupling order
        ds = []
        for grid in (grid16, grid16.refined(2), grid16.refined(4)):
            rec = _solved(lat4, h0_4, grid, amplitude)
            i = grid.node_index(1.0)
            wex = transformed_interaction(rec, i, "exact")
            wxp = transformed_interaction(rec, i, "expansion")
            ds.append(np.abs(wex - wxp).max())
        d1, d2, d4 = ds
        return (16.0 * (4.0 * d4 - d2) / 3.0 - (4.0 * d2 - d1) / 3.0) / 15.0

    r1 = remainder(0.08)
    r2 = remainder(0.04)
    assert r2 > 1e-9
    assert 5.0 < r1 / r2 < 11.0


def test_node_objects_take_d_by_d_solves(lat4, h0_4, grid16, monkeypatch):
    rec = _solved(lat4, h0_4, grid16, 0.08)
    i = grid16.n_nodes // 2
    d = lat4.dim
    rhs_shapes, formed = [], []
    solve, quadrant = np.linalg.solve, evolution._quadrant_coeffs

    def counted_solve(a, b):
        rhs_shapes.append(b.shape)
        return solve(a, b)

    def counted_quadrant(record, j):
        formed.append(j)
        return quadrant(record, j)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(evolution, "_quadrant_coeffs", counted_quadrant)
    exact = transformed_interaction(rec, i, "exact")
    # the exact mode forms S_t of i - 2 .. i + 2 once each, two solves
    # apiece, and W of node i in one solve
    assert sorted(formed) == list(range(i - 2, i + 3))
    assert rhs_shapes == [(d, d)] * (2 * 5 + 1)
    series = transformed_interaction(rec, i, "expansion")
    assert formed[5:] == [i]
    assert rhs_shapes == [(d, d)] * (2 * 6 + 2)
    # forming them again gives the same bits
    assert np.array_equal(transformed_interaction(rec, i, "exact"), exact)
    assert np.array_equal(transformed_interaction(rec, i, "expansion"), series)


def test_transformed_interaction_rejects_bad_input(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.04)
    with pytest.raises(ValueError):
        transformed_interaction(rec, 5, "cubic")
    n = grid16.n_nodes
    # the fourth-order stencil reads two nodes on each side
    for i in (0, 1, n - 2, n - 1):
        with pytest.raises(OutOfGrid):
            transformed_interaction(rec, i, "exact")
    for i in (2, n - 3):
        assert np.isfinite(transformed_interaction(rec, i, "exact")).all()


def test_step_transformed_paths(lat4, h0_4, grid16):
    d = lat4.dim
    v = random_state(d, lat4.spacing, 3)
    free = FreePropagator(h0_4)
    assert np.abs(step_transformed(v, h0_4, np.zeros((d, d)), 0.1)
                  - free.matrix(0.1) @ v).max() < 1e-14

    rec = _solved(lat4, h0_4, grid16, 0.04)
    s = surface_correction(rec, grid16.n_nodes // 2)
    out = step_transformed(v, h0_4, s, 0.1)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12

    nonherm = s + 0.1j * np.eye(d)
    out = step_transformed(v, h0_4, nonherm, 0.1)
    want = expm(-0.1j * (h0_4 + nonherm)) @ v
    assert np.abs(out - want).max() < 1e-12


def test_one_step_picture_equivalence(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04, psi0=psi0)
    i = grid16.node_index(1.0)
    wt = transformed_interaction(rec, i, "exact")
    tilde_i = transform_state(rec.state(i), surface_correction(rec, i))
    tilde_n = transform_state(rec.state(i + 1), surface_correction(rec, i + 1))
    stepped = step_transformed(tilde_i, h0_4, wt, grid16.dt)
    assert np.abs(stepped - tilde_n).max() < grid16.dt ** 2


def test_local_energy_free_eigenstate(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF)
    esys = EigenSystem.of(h0_4, lat4.spacing)
    e0, psi0 = esys.ground_state("positive")
    rec = solve_nonlocal(psi0, grid16, ch, noise, h0_4, lat4.spacing)
    for i in (0, grid16.n_nodes // 2):
        val, imag = local_energy(rec, i)
        assert abs(val - e0) < 1e-10
        assert abs(imag) < 1e-12


@st.composite
def reach_and_nodes(draw):
    """Kernel reach in steps, 1..16, and a grid of 2 nodes up to a few
    nodes beyond one full window of 2*reach + 1."""
    reach = draw(st.integers(1, 16))
    return reach, draw(st.integers(2, 2 * reach + 5))


@pytest.mark.filterwarnings("ignore:field is active")
@settings(max_examples=20, deadline=None)
@given(sites=st.sampled_from([2, 4]), n_channels=st.integers(1, 3),
       seed=st.integers(0, 2**16), amplitude=st.floats(0.01, 0.08),
       shape=reach_and_nodes())
# at block 1 the solver's eighth residual is 9.9986e-13 and the oracle's,
# rounded differently, 1.0001e-12
@example(sites=4, n_channels=1, seed=7, amplitude=0.06383900404512938,
         shape=(1, 7))
def test_fused_contractions_match_per_channel_oracles(sites, n_channels, seed,
                                                      amplitude, shape):
    reach, nodes = shape
    lat = LatticeConfig(sites=sites, spacing=1.0, mass=1.0)
    h0 = build_dirac_h0(lat)
    dt = ELL / reach
    grid = TimeGrid(0.0, (nodes - 1) * dt, dt)
    rng = np.random.default_rng(seed)
    d = 2 * sites
    channels = []
    for a in range(n_channels):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m + m.conj().T
        channels.append(make_channel(f"c{a}", m / np.linalg.norm(m, 2),
                                     KernelProfile(ell_min=ELL), amplitude))
    # a field active up to both ends, so the free-extension pads matter
    noise = sample_fourier_probe(channels, grid, seed=seed)
    psi0 = random_state(d, lat.spacing, seed)
    # the shipped block, node-by-node Gauss-Seidel, and a block that leaves
    # a short last block on most grids
    for block in (evolution._BLOCK, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_BLOCK", block)
            rec = solve_nonlocal(psi0, grid, channels, noise, h0, lat.spacing)
        # the solver stops at its first residual at or below 1e-12; the
        # oracle's maps round differently, so it stops midway (in log)
        # between the solver's last two residuals, where rounding cannot
        # put the two on different sides of its tolerance
        r = rec.residuals
        assert r[-1] <= 1e-12 < min(r[:-1])
        x, residuals = oracle_solve(grid, channels, noise, h0,
                                    math.sqrt(r[-2] * r[-1]), block)
        assert rec.reach == reach
        assert len(rec.residuals) == len(residuals)
        # the sweep history is fixed by the block order, not only the limit
        big = np.array(residuals) > 1e-9
        assert np.allclose(np.array(rec.residuals)[big],
                           np.array(residuals)[big], rtol=1e-6, atol=0.0)
        assert np.abs(rec.props - x).max() < 1e-10
        interior = x[rec.reach : rec.reach + grid.n_nodes]
        assert np.abs(rec.states - interior @ psi0).max() < 1e-10
        # the first and last nodes' windows reach into the zero pad
        for i in sorted({*range(0, grid.n_nodes, 4), grid.n_nodes - 1}):
            s = surface_correction(rec, i)
            assert np.array_equal(s, s.conj().T)
            assert np.abs(s - oracle_surface_correction(rec, noise, i)
                          ).max() < 1e-10
            assert np.abs(equal_time_hamiltonian(rec, i)
                          - oracle_equal_time_hamiltonian(rec, noise, i)).max() < 1e-10
        # the layer sum continues the trajectories freely past both ends;
        # three state pairs drawn from the example's seed
        for k in range(3):
            phit = rec.trajectory(random_state(d, lat.spacing, [seed, k, 0]))
            psit = rec.trajectory(random_state(d, lat.spacing, [seed, k, 1]))
            for i in (0, grid.n_nodes // 2, grid.n_nodes - 1):
                assert abs(conserved_inner(rec, i, phit[i], psit[i])
                           - conserved_inner_layer_sum(rec, i, phit, psit)) < 1e-12


def test_node_loop_builds_one_noise_table(lat4, h0_4, grid16, monkeypatch):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    calls = []
    table = NoiseRealization.table

    def counted(self, *args):
        calls.append(args)
        return table(self, *args)

    monkeypatch.setattr(NoiseRealization, "table", counted)
    rec = _solved(lat4, h0_4, grid16, 0.04, psi0=psi0)
    # one half-step table serves the coefficients and the boundary check
    assert len(calls) == 1
    traj = rec.trajectory(psi0)
    for i in range(grid16.n_nodes):
        surface_correction(rec, i)
        conserved_inner(rec, i, traj[i], traj[i])
        conserved_inner_layer_sum(rec, i, traj, traj)
    # the node loop reads the table the solve kept
    assert len(calls) == 1
