import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from collapselab import evolution, presets
from collapselab.channels import (
    KernelProfile,
    make_channel,
    sample_fourier_probe,
    sample_noise,
)
from collapselab.config import ExperimentConfig
from collapselab.errors import DimensionMismatch, NoConvergence, OutOfGrid
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
    LatticeConfig,
    build_dirac_h0,
    l2_inner,
    l2_norm,
    sqrtmh,
)
from collapselab.presets import _EXPANSION_PROBE_AMPLITUDE, PRESETS, _romberg

from conftest import ELL, random_state, two_channels

# field support [0.7, 1.3] leaves one kernel range clear of both grid ends
WIN = Window(t_on=0.7, t_off=1.3, ramp=0.2)
OFF = Window(t_on=5.0, t_off=7.0, ramp=0.5)


# ---------------------------------------------------------------------------
# per-channel oracles: one contraction per channel and node, the plain form
# of what evolution.py fuses into a few BLAS calls per block of nodes


def oracle_coeffs(grid, channels, half, reach):
    """c[a, j, d + reach] = dt amplitude_a L_a(d dt) times the field at the
    midpoint of t_j and t_{j+d}, entry by entry from the half-step table of
    the field; midpoints past either grid end weigh zero. The product is
    taken in the solver's order, so the weights agree to the bit."""
    dt, n = grid.dt, grid.n_nodes
    offsets = np.arange(-reach, reach + 1)
    out = np.zeros((len(channels), n, offsets.size))
    for a, ch in enumerate(channels):
        kern = dt * ch.amplitude * ch.profile.value(offsets * dt)
        for j in range(n):
            for k, d in enumerate(offsets):
                if 0 <= 2 * j + d < half.shape[1]:
                    out[a, j, k] = kern[k] * half[a, 2 * j + d]
    return out


def oracle_solve(grid, channels, half, h0, tol, block):
    """Block Gauss-Seidel sweeps of solve_nonlocal, channel by channel: a
    block of nodes s..s+block takes every node's interaction from the maps
    as they stand at the block's start (node s already updated), then steps
    the trapezoid rule node by node; block=1 is node-by-node Gauss-Seidel.
    Returns the padded maps and the residual history."""
    dt, n = grid.dt, grid.n_nodes
    reach = int(round(max(ch.profile.ell_min for ch in channels) / dt))
    coeffs = oracle_coeffs(grid, channels, half, reach)
    ops = [ch.spatial_op for ch in channels]
    free = EigenSystem.of(h0, 1.0)  # matrix() reads no spacing
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


def oracle_quadrant_coeffs(record, half, i):
    """c[a, p, q] rebuilt from the half-step table of the solve's field."""
    reach, dt = record.reach, record.grid.dt
    p = np.arange(i - reach, i + 1)
    q = np.arange(i, i + reach + 1)
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


def oracle_equal_time_hamiltonian(record, half, i):
    y = oracle_relative_maps(record, i)
    c = oracle_coeffs(record.grid, record.channels, half, record.reach)[:, i]
    return sum(ch.spatial_op @ np.tensordot(c[a], y, axes=(0, 0))
               for a, ch in enumerate(record.channels))


def oracle_surface_correction(record, half, i):
    y = oracle_relative_maps(record, i)
    past, future = y[: record.reach + 1], y[record.reach :]
    c = oracle_quadrant_coeffs(record, half, i)
    q = sum(np.einsum("pq,pba,bc,qcd->ad", c[a], past.conj(), ch.spatial_op, future)
            for a, ch in enumerate(record.channels))
    return 1j * (q - q.conj().T)


def equal_time_hamiltonian_first_order(record, half, i):
    """W(t_i) contracted with free two-time maps; differs at second order."""
    dt, reach = record.grid.dt, record.reach
    free = EigenSystem.of(record.h0, record.spacing)
    y = np.stack([free.matrix(d * dt) for d in range(-reach, reach + 1)])
    c = oracle_coeffs(record.grid, record.channels, half, reach)[:, i]
    return sum(ch.spatial_op @ np.tensordot(c[a], y, axes=(0, 0))
               for a, ch in enumerate(record.channels))


def local_energy(record, psi, i):
    """Energy <psi|(h0 + W)psi>_t of the state psi at node i as (real part,
    imag part); the imaginary part measures the failure of h0 + W to be
    symmetric under the conserved product at fixed t."""
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
    root, _ = sqrtmh(np.eye(surface.shape[0]) + surface)
    return root @ psi


def probe(channels, grid, amplitude=2.0):
    return sample_fourier_probe(channels, grid, seed=9, window=WIN,
                                amplitude=amplitude)


def test_zero_field_gives_free_evolution(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF).samples
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    assert len(rec.residuals) == 1
    free = EigenSystem.of(h0_4, lat4.spacing)
    traj = rec.trajectory(psi0)
    err = max(
        np.abs(traj[i] - free.matrix(i * grid16.dt) @ psi0).max()
        for i in range(grid16.n_nodes)
    )
    assert err < 1e-12


def test_fixed_point_contracts_geometrically(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.02)  # lambda*ell = 0.01
    noise = sample_noise(ch, grid16, seed=5, window=WIN).samples
    rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    assert len(rec.residuals) <= 8
    r = rec.residuals
    assert all(r[k + 1] / r[k] < 0.1 for k in range(len(r) - 1))


def test_coupling_beyond_fixed_point_regime(lat4, h0_4, grid16):
    ch = two_channels(lat4, 1.2)
    noise = sample_noise(ch, grid16, seed=5, window=WIN).samples
    with pytest.raises(NoConvergence):
        solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)


def test_iteration_budget_exhausted(lat4, h0_4, grid16, monkeypatch):
    ch = two_channels(lat4, 0.1)
    noise = sample_noise(ch, grid16, seed=5, window=WIN).samples
    monkeypatch.setattr(evolution, "_MAX_SWEEPS", 2)
    with pytest.raises(NoConvergence, match="after 2 sweeps"):
        solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_field_stops_at_first_sweep(lat4, h0_4, grid16, where):
    ch = two_channels(lat4, 0.02)
    noise = sample_noise(ch, grid16, seed=5, window=WIN).samples
    m = noise.shape[1]
    # grid16 sweeps two blocks; the last sample reaches only the second
    # block and the right pad
    noise[0, {"first": 0, "middle": m // 2, "last": m - 1}[where]] = np.nan
    with pytest.raises(NoConvergence, match=r"at sweep 1$"):
        solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)


def test_strong_coupling_warns(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.5)  # lambda*ell = 0.25
    noise = sample_noise(ch, grid16, seed=5, window=WIN).samples
    with pytest.warns(UserWarning, match="convergence will be slow"):
        solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)


def test_active_boundary_warns(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.02)
    # the flat window reaches the ends
    noise = sample_noise(ch, grid16, seed=5).samples
    with pytest.warns(UserWarning, match="boundary"):
        solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)


# ell/dt = 12.5 on the second coarse grid rounds to reach 12, and the fine
# reach is 25, not twice that
@pytest.mark.parametrize("dt, reaches", [(ELL / 16.0, (16, 32)), (0.04, (12, 25))])
def test_warm_start_reaches_the_cold_fixed_point(lat4, h0_4, dt, reaches):
    ch = two_channels(lat4, 0.08)
    grid = TimeGrid(0.0, 2.0, dt)
    fine = grid.refined(2)
    coarse = solve_nonlocal(grid, ch, probe(ch, grid), h0_4, lat4.spacing)
    cold = solve_nonlocal(fine, ch, probe(ch, fine), h0_4, lat4.spacing)
    warm = solve_nonlocal(fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                          start=(coarse,))
    assert (coarse.reach, warm.reach) == reaches
    assert np.abs(warm.props - cold.props).max() < 1e-11
    assert warm.residuals[0] <= 1e-3 < cold.residuals[0]
    assert len(warm.residuals) < len(cold.residuals)
    reach = warm.reach
    assert np.array_equal(warm.props[reach], np.eye(lat4.dim))
    assert np.array_equal(warm.props[:reach], cold.props[:reach])


def test_refined_solves_hold_little_beyond_their_maps(lat4, h0_4, monkeypatch):
    # expansion's chain: cold at reach 8 (57 nodes), then warm solves at
    # reach 16, 32, 64 and 128 (897 nodes), each from up to three coarser
    # records; the weights are formed per block, so no (A, n, 2 reach + 1)
    # table or gather index is allocated, and every first iterate is formed
    # in place
    ch = two_channels(lat4, 0.04)
    grid = TimeGrid(0.0, 3.5, ELL / 32.0)
    window = Window(t_on=0.7, t_off=2.8, ramp=0.2)
    solve = presets.solve_nonlocal
    seen = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rec = solve(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        seen.append((rec.grid.n_nodes, len(kwargs["start"]), peak,
                     rec.props.nbytes))
        return rec

    monkeypatch.setattr(presets, "solve_nonlocal", traced)
    finest = [rec.props.nbytes for rec in presets._refinement_solves(
        grid, 3, ch, h0_4, lat4.spacing,
        lambda g: sample_fourier_probe(ch, g, seed=9, window=window,
                                       amplitude=2.0))]
    assert [entry[:2] for entry in seen] == [
        (57, 0), (113, 1), (225, 2), (449, 3), (897, 3)]
    # no solve of the chain holds more than three of its finest maps
    assert max(peak for _, _, peak, _ in seen) <= 3 * finest[-1]
    # and each of the three grids expansion's result is computed on holds
    # at most three of its own
    assert all(peak <= 3 * nbytes for _, _, peak, nbytes in seen[2:])


def expansion_ladder():
    """Expansion's chain at its first coupling, 0.04, from its coarsest
    grid (4 dt, 57 nodes) to its finest (dt/4, 897 nodes): the grids, with
    the channels, h0 and probe fields it solves them with."""
    cfg = ExperimentConfig.from_dict(PRESETS["expansion"].defaults)
    lattice = cfg.lattice()
    channels = cfg.channels(lattice)
    assert max(ch.amplitude * ch.profile.ell_min for ch in channels) == 0.04
    window = Window(**cfg.window_params())
    coarsest = cfg.grid()
    coarsest = TimeGrid(coarsest.t0, coarsest.t1, 4 * coarsest.dt)
    grids = [coarsest.refined(2**k) for k in range(5)]
    probes = [sample_fourier_probe(channels, g, cfg.seed(), window=window,
                                   amplitude=_EXPANSION_PROBE_AMPLITUDE)
              for g in grids]
    return grids, channels, cfg.build_h0(lattice), lattice.spacing, probes


def test_extrapolated_start_saves_sweeps_on_expansions_ladder():
    grids, ch, h0, spacing, probes = expansion_ladder()
    ladder = ()
    for g, field in zip(grids[:-1], probes):
        rec = solve_nonlocal(g, ch, field, h0, spacing, start=ladder)
        ladder = (rec,) + ladder[:2]
    assert [rec.grid.n_nodes for rec in ladder] == [449, 225, 113]
    one, two, three = (solve_nonlocal(grids[-1], ch, probes[-1], h0, spacing,
                                      start=ladder[:k]) for k in (1, 2, 3))
    assert (three.grid.n_nodes, three.reach) == (897, 128)
    # each further record removes the next term of the first iterate's
    # error, dt^2 and then dt^4 (start residuals 1.2e-5, 3.5e-9 and 2.7e-11;
    # 14, 8 and 3 sweeps), and every start reaches the same fixed point
    for fewer, more in ((one, two), (two, three)):
        assert more.residuals[0] < 1e-2 * fewer.residuals[0]
        assert len(more.residuals) < len(fewer.residuals)
        assert np.abs(more.props - fewer.props).max() < 1e-10


def _free_records(lat, h0, grid, count):
    """Zero-coupling records on grid/2**k for k = count .. 1, finest first."""
    ch = two_channels(lat, 0.0)
    return tuple(solve_nonlocal(g, ch, probe(ch, g), h0, lat.spacing)
                 for g in (TimeGrid(grid.t0, grid.t1, grid.dt * 2**k)
                           for k in range(1, count + 1)))


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_start_at_zero_coupling_is_free_evolution(lat4, h0_4, count):
    grid = TimeGrid(0.0, 2.0, ELL / 64.0)
    records = _free_records(lat4, h0_4, grid, count)
    esys = EigenSystem.of(h0_4, lat4.spacing)
    maps = np.empty((grid.n_nodes + 32, lat4.dim, lat4.dim), dtype=complex)
    evolution._first_iterate(maps, esys, grid.dt, grid.n_nodes, records)
    free = esys.matrix(np.arange(maps.shape[0]) * grid.dt)
    assert np.abs(maps - free).max() <= 1e-13


def _polynomial_records(esys, grid, degree, coarse_steps):
    """Records on the grids of ``coarse_steps`` steps over ``grid``'s
    interval whose interaction-picture maps e^{i t E} U^dag X are one
    random matrix polynomial of ``degree`` in t, and that polynomial."""
    rng = np.random.default_rng(degree)
    dim = esys.values.size
    coef = (rng.standard_normal((degree + 1, dim, dim))
            + 1j * rng.standard_normal((degree + 1, dim, dim)))
    span = grid.t1 - grid.t0

    def maps(t):
        z = sum(c * ((t - grid.t0) / span)[:, None, None] ** p
                for p, c in enumerate(coef))
        phases = np.exp(-1j * np.multiply.outer(t - grid.t0, esys.values))
        return esys.vectors @ (phases[:, :, None] * z)

    records = []
    for steps in coarse_steps:
        g = TimeGrid(grid.t0, grid.t1, span / steps)
        padded = np.pad(maps(g.times), ((2, 2), (0, 0), (0, 0)))
        records.append(SimpleNamespace(grid=g, reach=2, props=padded))
    return tuple(records), maps


@pytest.mark.parametrize("degree, coarse_steps", [
    (7, (40,)), (7, (40, 20)), (7, (40, 20, 10)),
    # a record of 5 nodes carries through all of them
    (4, (8, 4))])
def test_start_carries_polynomials_exactly(lat4, h0_4, degree, coarse_steps):
    grid = TimeGrid(0.5, 2.5, 2.0 / (2 * coarse_steps[0]))
    esys = EigenSystem.of(h0_4, lat4.spacing)
    records, exact = _polynomial_records(esys, grid, degree, coarse_steps)
    n = grid.n_nodes
    maps = np.empty((n + 5, lat4.dim, lat4.dim), dtype=complex)
    evolution._first_iterate(maps, esys, grid.dt, n, records)
    assert np.abs(maps[:n] - exact(grid.times)).max() <= 1e-12
    # past the last node the maps continue freely from it
    pad = esys.matrix(np.arange(1, 6) * grid.dt) @ exact(grid.times[-1:])[0]
    assert np.abs(maps[n:] - pad).max() <= 1e-12


def test_extrapolated_start_rejects_non_nested_ladders(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    fine = grid16.refined(2)
    solved = {}
    for g in (grid16, TimeGrid(0.0, 2.0, 2 * grid16.dt),
              TimeGrid(0.0, 2.0, 4 * grid16.dt), TimeGrid(0.0, 2.5, 2 * grid16.dt)):
        solved[g.dt, g.t1] = solve_nonlocal(g, ch, probe(ch, g), h0_4,
                                            lat4.spacing)
    middle = solved[grid16.dt, 2.0]
    coarse = solved[2 * grid16.dt, 2.0]
    for ladder in ((middle, solved[4 * grid16.dt, 2.0]),
                   (middle, solved[2 * grid16.dt, 2.5]),
                   (middle, middle),
                   (coarse, middle),
                   (middle, coarse, coarse),
                   (middle, coarse, middle),
                   (middle, solved[2 * grid16.dt, 2.5], coarse)):
        with pytest.raises(ValueError, match="not the half-resolution solve"):
            solve_nonlocal(fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                           start=ladder)
    with pytest.raises(ValueError, match="zero to three records"):
        solve_nonlocal(fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                       start=(middle, coarse, middle, coarse))


def test_warm_start_rejects_other_grids(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    fine = grid16.refined(2)
    others = (fine, TimeGrid(0.0, 2.0, 2 * grid16.dt),
              TimeGrid(0.0, 2.5, grid16.dt), TimeGrid(-0.5, 2.0, grid16.dt))
    for other in others:
        start = solve_nonlocal(other, ch, probe(ch, other), h0_4, lat4.spacing)
        with pytest.raises(ValueError, match="not the half-resolution solve"):
            solve_nonlocal(fine, ch, probe(ch, fine), h0_4, lat4.spacing,
                           start=(start,))


def _solved(lat, h0, grid, amplitude):
    ch = two_channels(lat, amplitude)
    return solve_nonlocal(grid, ch, probe(ch, grid), h0, lat.spacing)


def test_record_accessors(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.04)
    assert np.abs(rec.props[rec.reach] - np.eye(lat4.dim)).max() == 0.0
    for i in (-1, grid16.n_nodes):
        with pytest.raises(OutOfGrid):
            equal_time_hamiltonian(rec, i)
        with pytest.raises(OutOfGrid):
            surface_correction(rec, i)


def test_field_table_of_another_shape_is_rejected(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    table = probe(ch, grid16)
    for wrong in (table[:1],  # one channel's row for two channels
                  probe(ch, grid16.refined(2)),  # the table of another grid
                  probe(ch, TimeGrid(0.0, 2.5, grid16.dt)),
                  table[:, :-1], table[None]):
        with pytest.raises(DimensionMismatch, match="field table has shape"):
            solve_nonlocal(grid16, ch, wrong, h0_4, lat4.spacing)
    # a white realization's samples are the half-step table of its grid
    white = sample_noise(ch, grid16.refined(2), seed=5, window=WIN).samples
    with pytest.raises(DimensionMismatch):
        solve_nonlocal(grid16, ch, white, h0_4, lat4.spacing)
    rec = solve_nonlocal(grid16.refined(2), ch, white, h0_4, lat4.spacing)
    assert rec.grid == grid16.refined(2)


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
    rec = _solved(lat4, h0_4, grid16, 0.04)
    n1 = grid16.n_nodes - 1
    d = lat4.dim
    m0 = lat4.spacing * (np.eye(d) + surface_correction(rec, 0))
    m1 = lat4.spacing * (np.eye(d) + surface_correction(rec, n1))
    x = rec.props[rec.reach + n1]
    back = np.linalg.solve(m0, x.conj().T @ (m1 @ rec.trajectory(psi0)[n1]))
    assert np.abs(back - psi0).max() < 1e-10


def test_conserved_inner_free_limit(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF).samples
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    i = grid16.n_nodes // 2
    phi = random_state(lat4.dim, lat4.spacing, 2)
    psi = rec.trajectory(psi0)[i]
    got = conserved_inner(rec, i, phi, psi)
    want = l2_inner(phi, psi, lat4.spacing)
    assert abs(got - want) < 1e-13


def test_conserved_inner_dual_formula(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04)
    psit = rec.trajectory(psi0)
    for seed in (2, 3, 4):
        phi0 = random_state(lat4.dim, lat4.spacing, seed)
        phit = rec.trajectory(phi0)
        for i in (0, grid16.n_nodes // 2, grid16.n_nodes - 1):
            a = conserved_inner(rec, i, phit[i], psit[i])
            b = conserved_inner_layer_sum(rec, i, phi0, psi0)
            assert abs(a - b) < 1e-12


def test_conservation_drift_is_quadratic_in_dt(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)

    def drift(grid):
        rec = _solved(lat4, h0_4, grid, 0.04)
        traj = rec.trajectory(psi0)
        step = max(1, grid.steps // 32)
        vals = [conserved_inner(rec, i, traj[i], traj[i])
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
        rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
        w = equal_time_hamiltonian(rec, i)
        w1 = equal_time_hamiltonian_first_order(rec, noise, i)
        return np.abs(w - w1).max(), w

    d1, w = diff(0.08)
    d2, _ = diff(0.04)
    # the full contraction differs from the free-map one at second order
    assert 3.0 < d1 / d2 < 5.3
    assert np.abs(w - w.conj().T).max() > 1e-3

    ch = two_channels(lat4, 0.08)
    noise = sample_noise(ch, grid16, seed=5, window=OFF).samples
    rec0 = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    assert np.abs(equal_time_hamiltonian(rec0, i)).max() == 0.0


def test_transform_state_identities(lat4, h0_4, grid16):
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    rec = _solved(lat4, h0_4, grid16, 0.04)
    i = grid16.n_nodes // 2
    s = surface_correction(rec, i)
    psi = rec.trajectory(psi0)[i]
    tilde = transform_state(psi, np.zeros_like(s))
    assert np.abs(tilde - psi).max() < 1e-14
    tilde = transform_state(psi, s)
    assert abs(l2_norm(tilde, lat4.spacing) ** 2
               - conserved_inner(rec, i, psi, psi).real) < 1e-10
    assert np.abs(tilde - psi).max() <= np.abs(s).max() * np.abs(psi).max() * 2.0


def test_transformed_interaction_zero_field(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.08)
    noise = sample_noise(ch, grid16, seed=5, window=OFF).samples
    rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    i = grid16.n_nodes // 2
    exact, series = transformed_interaction(rec, i)
    assert np.abs(series).max() == 0.0
    assert np.abs(exact).max() < 1e-14


def test_transformed_interaction_expansion_algebra(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.08)
    i = grid16.n_nodes // 2
    w = equal_time_hamiltonian(rec, i)
    s = surface_correction(rec, i)
    anti = w - w.conj().T
    want = 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)
    _, got = transformed_interaction(rec, i)
    assert np.abs(got - want).max() < 1e-14
    assert np.abs(got - got.conj().T).max() < 1e-14


def oracle_sqrtmh(m, inverse=False):
    """The root or the inverse root of m, each from its own eigh."""
    vals, vecs = np.linalg.eigh(m)
    root = np.sqrt(vals)
    return (vecs / root if inverse else vecs * root) @ vecs.conj().T


def oracle_transformed_interaction(record, i, mode):
    """One form per call, as two calls: the exact form from S_t of the
    stencil nodes and W, or the expansion from W and S_t afresh."""
    w = equal_time_hamiltonian(record, i)
    if mode == "expansion":
        s = surface_correction(record, i)
        anti = w - w.conj().T
        return 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)
    eye = np.eye(record.h0.shape[0])
    s_here = surface_correction(record, i)
    root = oracle_sqrtmh(eye + s_here)
    inv_root = oracle_sqrtmh(eye + s_here, inverse=True)
    d_inv_root = np.zeros_like(root)
    for off, wgt in zip(evolution._FD_OFFSETS, evolution._FD_WEIGHTS):
        inv_off = oracle_sqrtmh(eye + surface_correction(record, i + off),
                                inverse=True)
        d_inv_root = d_inv_root + (wgt / record.grid.dt) * inv_off
    full = root @ (record.h0 + w) @ inv_root - 1j * (root @ d_inv_root)
    return full - record.h0


@pytest.mark.parametrize("amplitude", [0.04, 0.08])
def test_transformed_interaction_pair_matches_two_calls(lat4, h0_4, grid16,
                                                         amplitude):
    rec = _solved(lat4, h0_4, grid16, amplitude)
    # nodes on both sides of the field's peak, inside its strip
    for i in (20, 29, 32, 42):
        exact, series = transformed_interaction(rec, i)
        assert np.abs(series).max() > 0.0
        assert np.array_equal(exact, oracle_transformed_interaction(rec, i, "exact"))
        assert np.array_equal(series,
                              oracle_transformed_interaction(rec, i, "expansion"))


def test_exact_mode_hermiticity_defect_shrinks_with_dt(lat4, h0_4, grid16):
    def defect(grid):
        rec = _solved(lat4, h0_4, grid, 0.08)
        wt, _ = transformed_interaction(rec, grid.node_index(1.0))
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
            wex, wxp = transformed_interaction(rec, i)
            ds.append(np.abs(wex - wxp).max())
        return _romberg(*ds)

    r1 = remainder(0.08)
    r2 = remainder(0.04)
    assert r2 > 1e-9
    assert 5.0 < r1 / r2 < 11.0


def test_node_objects_take_d_by_d_solves(lat4, h0_4, grid16, monkeypatch):
    rec = _solved(lat4, h0_4, grid16, 0.08)
    i = grid16.n_nodes // 2
    d = lat4.dim
    rhs_shapes, formed, eighs = [], [], []
    solve, quadrant, eigh = np.linalg.solve, evolution._quadrant_coeffs, np.linalg.eigh

    def counted_solve(a, b):
        rhs_shapes.append(b.shape)
        return solve(a, b)

    def counted_eigh(a):
        eighs.append(a.shape)
        return eigh(a)

    def counted_quadrant(record, j):
        formed.append(j)
        return quadrant(record, j)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(evolution, "_quadrant_coeffs", counted_quadrant)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    exact, series = transformed_interaction(rec, i)
    # one call forms S_t of i - 2 .. i + 2 once each, two solves apiece, W
    # of node i in one solve, and one eigh per S_t for both roots
    assert sorted(formed) == list(range(i - 2, i + 3))
    assert rhs_shapes == [(d, d)] * (2 * 5 + 1)
    assert eighs == [(d, d)] * 5
    # forming them again gives the same bits
    again = transformed_interaction(rec, i)
    assert np.array_equal(again[0], exact)
    assert np.array_equal(again[1], series)


def test_transformed_interaction_rejects_bad_input(lat4, h0_4, grid16):
    rec = _solved(lat4, h0_4, grid16, 0.04)
    n = grid16.n_nodes
    # the fourth-order stencil reads two nodes on each side
    for i in (0, 1, n - 2, n - 1):
        with pytest.raises(OutOfGrid):
            transformed_interaction(rec, i)
    for i in (2, n - 3):
        assert np.isfinite(transformed_interaction(rec, i)[0]).all()


def test_step_transformed_paths(lat4, h0_4, grid16):
    d = lat4.dim
    v = random_state(d, lat4.spacing, 3)
    free = EigenSystem.of(h0_4, lat4.spacing)
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
    rec = _solved(lat4, h0_4, grid16, 0.04)
    traj = rec.trajectory(psi0)
    i = grid16.node_index(1.0)
    wt, _ = transformed_interaction(rec, i)
    tilde_i = transform_state(traj[i], surface_correction(rec, i))
    tilde_n = transform_state(traj[i + 1], surface_correction(rec, i + 1))
    stepped = step_transformed(tilde_i, h0_4, wt, grid16.dt)
    assert np.abs(stepped - tilde_n).max() < grid16.dt ** 2


def test_local_energy_free_eigenstate(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    noise = sample_noise(ch, grid16, seed=5, window=OFF).samples
    esys = EigenSystem.of(h0_4, lat4.spacing)
    e0, psi0 = esys.ground_state("positive")
    rec = solve_nonlocal(grid16, ch, noise, h0_4, lat4.spacing)
    traj = rec.trajectory(psi0)
    for i in (0, grid16.n_nodes // 2):
        val, imag = local_energy(rec, traj[i], i)
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
            rec = solve_nonlocal(grid, channels, noise, h0, lat.spacing)
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
        assert np.abs(rec.trajectory(psi0) - interior @ psi0).max() < 1e-10
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
            phi_k = random_state(d, lat.spacing, [seed, k, 0])
            psi_k = random_state(d, lat.spacing, [seed, k, 1])
            phit, psit = rec.trajectory(phi_k), rec.trajectory(psi_k)
            for i in (0, grid.n_nodes // 2, grid.n_nodes - 1):
                assert abs(conserved_inner(rec, i, phit[i], psit[i])
                           - conserved_inner_layer_sum(rec, i, phi_k, psi_k)) < 1e-12


@pytest.mark.parametrize("block", [evolution._BLOCK, 4])
def test_idle_blocks_match_the_oracle(lat4, h0_4, monkeypatch, block):
    # the field is off outside [0.7, 1.3], so on [0, 4] the blocks whose
    # weights all vanish (before it at block 4, after it at both sizes)
    # only free-propagate their first node
    ch = two_channels(lat4, 0.06)
    grid = TimeGrid(0.0, 4.0, ELL / 8.0)
    noise = probe(ch, grid)
    n, reach = grid.n_nodes, 8
    weights = oracle_coeffs(grid, ch, noise, reach)
    idle = [not weights[:, s : min(s + block, n - 1) + 1].any()
            for s in range(0, n - 1, block)]
    assert any(idle) and not all(idle)
    monkeypatch.setattr(evolution, "_BLOCK", block)
    rec = solve_nonlocal(grid, ch, noise, h0_4, lat4.spacing)
    r = rec.residuals
    assert r[-1] <= 1e-12 < min(r[:-1])
    x, residuals = oracle_solve(grid, ch, noise, h0_4, math.sqrt(r[-2] * r[-1]),
                                block)
    assert len(r) == len(residuals)
    big = np.array(residuals) > 1e-9
    assert np.allclose(np.array(r)[big], np.array(residuals)[big],
                       rtol=1e-6, atol=0.0)
    assert np.abs(rec.props - x).max() < 1e-10


def test_node_objects_read_the_table_the_solve_kept(lat4, h0_4, grid16):
    ch = two_channels(lat4, 0.04)
    table = probe(ch, grid16)
    rec = solve_nonlocal(grid16, ch, table, h0_4, lat4.spacing)
    psi0 = random_state(lat4.dim, lat4.spacing, 1)
    traj = rec.trajectory(psi0)

    def node_objects():
        return [(surface_correction(rec, i), equal_time_hamiltonian(rec, i),
                 conserved_inner(rec, i, traj[i], traj[i]),
                 conserved_inner_layer_sum(rec, i, psi0, psi0))
                for i in range(grid16.n_nodes)]

    before = node_objects()
    # the record keeps its own padded copy of the caller's table, and the
    # node loop reads that copy: a later change to the caller's array is
    # not seen
    table[...] = np.nan
    after = node_objects()
    assert all(np.array_equal(a, b) for old, new in zip(before, after)
               for a, b in zip(old, new))
    assert np.shares_memory(rec._quadrant[1], rec._field_pad)
