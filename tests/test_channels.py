import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from collapselab.channels import (
    InteractionChannel,
    KernelProfile,
    build_channel_operators,
    diagonalize_covariance,
    eigenmode_coupling,
    eigenmode_difference,
    make_channel,
    momentum_function,
    position_gaussian,
    sample_fourier_probe,
    sample_noise,
    site_projector,
)
from collapselab.errors import ConfigError, DimensionMismatch, GridTooCoarse, NotPSD
from collapselab.grids import TimeGrid, Window
from collapselab.lattice import SPINOR_DIM, EigenSystem, LatticeConfig, momenta

from conftest import ELL, raw_channel_stack, stack_asymmetry, two_channels


def field_value(noise, channel, t):
    """Field value(s) of one channel of a white realization at arbitrary
    times: the nearest noise node, zero beyond the drawn nodes."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    qi = np.rint((t - noise.t0) / noise.h).astype(int)
    ok = (qi >= 0) & (qi < noise.samples.shape[1])
    out = np.zeros_like(t)
    out[ok] = noise.samples[channel, qi[ok]]
    return out if out.shape != (1,) else out[0]


def half_step_times(grid):
    """t0 + k dt/2, the times of a half-step field table's columns."""
    return grid.t0 + 0.5 * grid.dt * np.arange(2 * grid.steps + 1)


def interaction_kernel(t, s, channels, noise):
    """The two-time interaction operator V(t, s) for one realization.

    Hermitian for every pair and symmetric under (t, s) exchange because the
    field enters at the midpoint and the kernel is even. Zero whenever
    |t - s| exceeds every channel's kernel range or the midpoint lies
    outside the simulated field interval.
    """
    d = channels[0].dim
    v = np.zeros((d, d), dtype=complex)
    mid = 0.5 * (t + s)
    for a, ch in enumerate(channels):
        lz = float(ch.profile.value(t - s))
        if lz == 0.0:
            continue
        w = float(field_value(noise, a, mid))
        if w == 0.0:
            continue
        v += ch.amplitude * w * lz * ch.spatial_op
    return v


@pytest.mark.parametrize("shape", ["raised_cosine", "gaussian_truncated"])
def test_kernel_even_compact_unit_integral(shape):
    prof = KernelProfile(ell_min=0.7, shape=shape)
    z = np.linspace(-0.69, 0.69, 31)
    assert np.allclose(prof.value(z), prof.value(-z), atol=1e-15)
    assert np.all(prof.value(np.array([-0.71, 0.71, 5.0])) == 0.0)
    total, err = quad(lambda x: float(prof.value(x)), -0.7, 0.7, limit=200)
    assert abs(total - 1.0) < 1e-9


def test_kernel_vanishes_at_support_edge():
    for shape in ("raised_cosine", "gaussian_truncated"):
        prof = KernelProfile(ell_min=0.5, shape=shape)
        assert abs(prof.value(0.5)) < 1e-12
        assert prof.value(0.0) > 0.0


def test_kernel_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        KernelProfile(ell_min=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            KernelProfile(ell_min=bad)
    with pytest.raises(ConfigError):
        KernelProfile(ell_min=0.5, shape="triangle")


def test_site_projector(lat4):
    p = site_projector(lat4, 1)
    assert np.allclose(p @ p, p)
    assert abs(np.trace(p) - 2.0) < 1e-14
    with pytest.raises(ConfigError):
        site_projector(lat4, 4)


def test_position_gaussian(lat4):
    a = position_gaussian(lat4, center=1.0, width=0.8)
    assert np.allclose(a, a.conj().T)
    assert abs(np.linalg.norm(a, 2) - 1.0) < 1e-12
    assert np.all(np.diag(a).real > 0.0)
    for width in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            position_gaussian(lat4, center=1.0, width=width)


def test_momentum_function_commutes_and_variants(lat4, h0_4):
    h = h0_4
    k = momenta(lat4)
    values = np.cos(k) + 0.5
    a = momentum_function(lat4, list(values))
    assert np.abs(a @ h - h @ a).max() < 1e-12
    assert np.abs(a - a.conj().T).max() < 1e-14
    assert np.array_equal(a, momentum_function(lat4, values))
    # a plane wave on either spinor component is an eigenvector with its value
    x = lat4.spacing * np.arange(lat4.sites)
    for kk, v in zip(k, values):
        for spin in np.eye(SPINOR_DIM):
            wave = np.kron(np.exp(1j * kk * x), spin)
            assert np.abs(a @ wave - v * wave).max() < 1e-13
    for bad in ([1.0, 2.0], np.column_stack([k, values])):
        with pytest.raises(ConfigError):
            momentum_function(lat4, bad)


def test_eigenmode_operators(lat4):
    a = eigenmode_coupling(lat4, 0, 1)
    assert np.allclose(a, a.conj().T)
    vals = np.sort(np.linalg.eigvalsh(a))
    # hop between two modes: one +1, one -1, zeros elsewhere
    assert abs(vals[0] + 1.0) < 1e-12 and abs(vals[-1] - 1.0) < 1e-12
    assert np.abs(vals[1:-1]).max() < 1e-12

    d = eigenmode_difference(lat4, 0, 1)
    vals = np.sort(np.linalg.eigvalsh(d))
    assert abs(vals[0] + 1.0) < 1e-12 and abs(vals[-1] - 1.0) < 1e-12
    assert np.abs(vals[1:-1]).max() < 1e-12

    for fn in (eigenmode_coupling, eigenmode_difference):
        with pytest.raises(ConfigError):
            fn(lat4, 2, 2)
        with pytest.raises(ConfigError):
            fn(lat4, 0, 4)


def test_channel_validation(lat4):
    prof = KernelProfile(ell_min=ELL)
    p = site_projector(lat4, 0)
    with pytest.raises(DimensionMismatch):
        InteractionChannel("bad", np.zeros((2, 3)), prof, 1.0)
    nonherm = p.copy()
    nonherm[0, 1] = 0.5
    with pytest.raises(ConfigError):
        InteractionChannel("bad", nonherm, prof, 1.0)
    with pytest.raises(ConfigError):
        InteractionChannel("bad", 2.0 * p, prof, 1.0)
    for amplitude in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="'bad'"):
            InteractionChannel("bad", p, prof, amplitude)
    nan_op = p.copy()
    nan_op[1, 1] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        InteractionChannel("bad", nan_op, prof, 1.0)


def test_make_channel_absorbs_norm(lat4):
    prof = KernelProfile(ell_min=ELL)
    ch = make_channel("scaled", 3.0 * site_projector(lat4, 0), prof, 0.2)
    assert abs(np.linalg.norm(ch.spatial_op, 2) - 1.0) < 1e-12
    assert abs(ch.amplitude - 0.6) < 1e-12
    with pytest.raises(ConfigError):
        make_channel("zero", np.zeros((8, 8)), prof, 1.0)
    nan_op = site_projector(lat4, 0)
    nan_op[0, 0] = np.nan
    with pytest.raises(ConfigError, match="'nan'.*non-finite"):
        make_channel("nan", nan_op, prof, 1.0)


def _three_site_channels(lat):
    prof = KernelProfile(ell_min=ELL)
    return [make_channel(f"s{i}", site_projector(lat, i), prof, 1.0)
            for i in range(3)]


def field_weights(rotated, channels):
    """Each rotated field's real weights on the input channels, shape
    (fields, channels), by least squares of its amplitude * spatial_op
    against theirs."""
    size = channels[0].dim ** 2

    def couplings(chs):  # (D^2, len(chs)), also for no rotated fields
        return np.array([ch.amplitude * ch.spatial_op for ch in chs],
                        dtype=complex).reshape(len(chs), size).T

    weights = np.linalg.lstsq(couplings(channels), couplings(rotated),
                              rcond=None)[0]
    return weights.real.T


def test_covariance_validation(lat4):
    chans = _three_site_channels(lat4)[:2]
    with pytest.raises(DimensionMismatch):
        diagonalize_covariance(np.zeros((2, 3)), chans)
    with pytest.raises(ConfigError):
        diagonalize_covariance(np.array([[1.0, 0.2], [0.4, 1.0]]), chans)


def test_identity_covariance_keeps_channels(lat4):
    chans = _three_site_channels(lat4)
    out = diagonalize_covariance(np.eye(3), chans)
    assert len(out) == 3
    for before, after in zip(chans, out):
        assert np.abs(after.amplitude * after.spatial_op
                      - before.amplitude * before.spatial_op).max() < 1e-12


def test_rank_one_covariance_collapses_to_one_field(lat4):
    u = np.array([1.0, 2.0, 2.0])
    chans = _three_site_channels(lat4)
    out = diagonalize_covariance(np.outer(u, u), chans)
    assert len(out) == 1
    # site projectors are orthogonal, so the combined norm is max|u_a|
    assert abs(out[0].amplitude - 2.0) < 1e-12
    (weights,) = field_weights(out, chans)
    # the one field carries u, up to the eigenvector's sign
    assert np.abs(np.abs(weights) - u).max() < 1e-12
    combo = sum(w * ch.amplitude * ch.spatial_op
                for w, ch in zip(weights, chans))
    assert np.abs(out[0].amplitude * out[0].spatial_op - combo).max() < 1e-12


@st.composite
def psd_covariances(draw):
    """Symmetric PSD covariances B B^T over 2-3 fields, B of rank 1..n."""
    n = draw(st.integers(2, 3))
    rank = draw(st.integers(1, n))
    b = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * rank,
                               max_size=n * rank))).reshape(n, rank)
    return b @ b.T


@settings(max_examples=60, deadline=None)
@given(c=psd_covariances())
def test_covariance_rotation_preserves_second_moments(c):
    lat = LatticeConfig(sites=4, spacing=1.0, mass=1.0)
    chans = _three_site_channels(lat)[: c.shape[0]]
    out = diagonalize_covariance(c, chans)
    recon = sum((np.outer(w, w) for w in field_weights(out, chans)),
                np.zeros_like(c))
    assert np.abs(recon - c).max() <= 1e-10 * max(1.0, np.abs(c).max())


def test_covariance_rejects_negative_eigenvalue(lat4):
    chans = _three_site_channels(lat4)[:2]
    with pytest.raises(NotPSD):
        diagonalize_covariance(np.array([[1.0, 0.0], [0.0, -0.1]]), chans)
    with pytest.raises(DimensionMismatch):
        diagonalize_covariance(np.eye(3), chans)


def test_rotated_fields_reproduce_covariance_by_sampling(lat4, grid16):
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    chans = _three_site_channels(lat4)[:2]
    rot = diagonalize_covariance(c, chans)
    mix = field_weights(rot, chans)  # (fields, channels)
    acc = []
    for seed in range(5):
        noise = sample_noise(rot, grid16, seed=seed)
        g = mix.T @ noise.samples  # effective per-channel fields
        acc.append(g)
    g = np.concatenate(acc, axis=1)
    n = g.shape[1]
    est = noise.h * (g @ g.T) / n
    sigma = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c ** 2) / n)
    assert np.all(np.abs(est - c) <= 4.0 * sigma)


def test_white_noise_moments(lat4, grid16):
    chans = two_channels(lat4, 0.5)
    noise = sample_noise(chans, grid16, seed=3)
    s = noise.samples.ravel()
    n = s.size
    assert abs(s.mean()) <= 4.0 / np.sqrt(n * noise.h)
    assert abs(noise.h * s.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)
    again = sample_noise(chans, grid16, seed=3)
    assert np.array_equal(noise.samples, again.samples)
    other = sample_noise(chans, grid16, seed=4)
    assert not np.array_equal(noise.samples, other.samples)


def test_noise_rejects_coarse_grid(lat4):
    chans = two_channels(lat4, 0.5)
    with pytest.raises(GridTooCoarse):
        sample_noise(chans, TimeGrid(0.0, 2.0, 0.25), seed=0)


def test_window_zeroes_the_field(lat4, grid16):
    chans = two_channels(lat4, 0.5)
    off = Window(t_on=5.0, t_off=7.0, ramp=0.5)  # support outside the grid
    noise = sample_noise(chans, grid16, seed=3, window=off)
    assert np.all(noise.samples == 0.0)
    assert field_value(noise, 0, 1.0) == 0.0


def test_noise_table_alignment(lat4, grid16):
    chans = two_channels(lat4, 0.5)
    noise = sample_noise(chans, grid16, seed=3)
    tab = noise.table(grid16.t0, grid16.dt, grid16.n_nodes)
    assert np.array_equal(tab[:, 0], noise.samples[:, 0])
    with pytest.raises(ConfigError):
        noise.table(grid16.t0 + 0.3 * noise.h, grid16.dt, 4)
    # zero outside the simulated interval
    before = noise.table(grid16.t0 - 4.0, grid16.dt, 3)
    assert np.all(before == 0.0)


@pytest.mark.parametrize("probe", [sample_fourier_probe])
def test_probe_fields_are_grid_independent(lat4, grid16, probe):
    chans = two_channels(lat4, 0.5)
    p1 = probe(chans, grid16, seed=9)
    p2 = probe(chans, grid16.refined(2), seed=9)
    assert p1.shape == (2, 2 * grid16.steps + 1)
    assert p2.shape == (2, 4 * grid16.steps + 1)
    # the finer table holds the coarser one on every second half-step node
    assert np.abs(p1 - p2[:, ::2]).max() == 0.0
    # each row is sqrt(2 / modes) times a sum of random-phase cosines with
    # wavelengths of 2 to 8 kernel ranges, drawn from the seed alone
    rng = np.random.default_rng(9)
    omegas = rng.uniform(0.25 * np.pi / ELL, np.pi / ELL, (2, 4))
    phases = rng.uniform(0.0, 2.0 * np.pi, (2, 4))
    t = half_step_times(grid16)
    paths = np.sqrt(0.5) * np.cos(t[None, :, None] * omegas[:, None, :]
                                  + phases[:, None, :]).sum(axis=-1)
    assert np.abs(p1 - paths).max() < 1e-12
    # amplitude zero is the zero field on every grid, as conservation's
    # zero-noise run needs
    for g in (grid16, grid16.refined(2)):
        zero = probe(chans, g, seed=9, amplitude=0.0)
        assert zero.shape == (2, 2 * g.steps + 1)
        assert np.all(zero == 0.0)


def test_probe_respects_window(lat4, grid16):
    chans = two_channels(lat4, 0.5)
    w = Window(t_on=0.5, t_off=1.5, ramp=0.2)
    p = sample_fourier_probe(chans, grid16, seed=9, window=w)
    t = half_step_times(grid16)
    assert np.abs(p[:, (t < 0.5) | (t > 1.5)]).max() == 0.0
    assert np.abs(p[:, t == 1.0]).min() > 0.0
    flat = sample_fourier_probe(chans, grid16, seed=9)
    assert np.array_equal(p, flat * w(t))


def test_interaction_kernel_symmetries(lat4, grid16):
    chans = two_channels(lat4, 0.3)
    noise = sample_noise(chans, grid16, seed=5)
    t, s = 0.71875, 0.53125
    v_ts = interaction_kernel(t, s, chans, noise)
    v_st = interaction_kernel(s, t, chans, noise)
    assert np.array_equal(v_ts.conj().T, v_st)
    assert np.array_equal(v_ts.conj().T, v_ts)
    far = interaction_kernel(1.8, 0.2, chans, noise)
    assert np.all(far == 0.0)


def test_interaction_kernel_zero_field(lat4, grid16):
    chans = two_channels(lat4, 0.3)
    off = Window(t_on=5.0, t_off=7.0, ramp=0.5)
    noise = sample_noise(chans, grid16, seed=5, window=off)
    assert np.all(interaction_kernel(1.0, 0.9, chans, noise) == 0.0)


def test_channel_operator_stacks(lat4, h0_4, grid16):
    chans = two_channels(lat4, 0.3)
    ops = build_channel_operators(chans, h0_4, grid16.dt)
    k = ops.half_width
    assert abs(ops.zeta[k]) == 0.0
    prof = chans[0].profile
    m0 = chans[0].amplitude * float(prof.value(0.0)) * chans[0].spatial_op
    raw = raw_channel_stack(chans, h0_4, grid16.dt)
    assert np.abs(raw[0, k] - m0).max() < 1e-12
    # the set holds the even part of the raw stack
    assert np.abs(ops.sym - 0.5 * (raw + raw[:, ::-1])).max() < 1e-12
    # symmetrized stack is hermitian and even in z by construction
    n = ops.zeta.size
    for a in range(2):
        for i in range(n):
            assert np.array_equal(ops.sym[a, i], ops.sym[a, n - 1 - i])
            assert np.abs(ops.sym[a, i] - ops.sym[a, i].conj().T).max() == 0.0
    assert np.all(stack_asymmetry(raw) > 1e-3)  # neither operator commutes with h0
    with pytest.raises(GridTooCoarse):
        build_channel_operators(chans, h0_4, 0.25)


def test_commuting_channel_has_even_raw_stack(lat4, h0_4, grid16):
    prof = KernelProfile(ell_min=ELL)
    a = momentum_function(lat4, np.cos(momenta(lat4)) + 0.5)
    chans = [make_channel("mom", a, prof, 0.3)]
    ops = build_channel_operators(chans, h0_4, grid16.dt)
    raw = raw_channel_stack(chans, h0_4, grid16.dt)
    assert stack_asymmetry(raw).max() < 1e-12
    # so symmetrizing it changes nothing
    assert np.abs(ops.sym - raw).max() < 1e-12


def linearized_interaction(opset, stack, noise, t):
    """The transformed interaction at leading order, directly from a stack
    of the set: sum_a integral dz M_a(z) w_a(t - z/2)."""
    mids = t - 0.5 * opset.zeta
    out = np.zeros(stack.shape[-2:], dtype=complex)
    for a in range(stack.shape[0]):
        w = np.asarray(field_value(noise, a, mids), dtype=float)
        out += opset.dt * np.tensordot(w, stack[a], axes=(0, 0))
    return out


def test_linearized_interaction_matches_direct_sum(lat4, h0_4, grid16):
    chans = two_channels(lat4, 0.3)
    noise = sample_noise(chans, grid16, seed=5)
    ops = build_channel_operators(chans, h0_4, grid16.dt)
    free = EigenSystem.of(h0_4, lat4.spacing)
    t = 1.0
    direct = np.zeros((lat4.dim, lat4.dim), dtype=complex)
    for z in ops.zeta:
        v = interaction_kernel(t, t - z, chans, noise)
        direct += ops.dt * 0.5 * (v @ free.matrix(-z) + free.matrix(z) @ v)
    lin = linearized_interaction(ops, raw_channel_stack(chans, h0_4, grid16.dt), noise, t)
    assert np.abs(lin - direct).max() < 1e-12
    sym = linearized_interaction(ops, ops.sym, noise, t)
    assert np.abs(sym - sym.conj().T).max() < 1e-12
