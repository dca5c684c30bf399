from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cosm

from collapselab.channels import (
    KernelProfile,
    build_channel_operators,
    make_channel,
    momentum_function,
    site_projector,
)
from collapselab.config import ExperimentConfig
from collapselab.errors import ConfigError, NotEigenstate, StepRejected
from collapselab.grids import TimeGrid
from collapselab.lattice import (
    SPINOR_DIM,
    EigenSystem,
    LatticeConfig,
    build_dirac_h0,
    momenta,
)
from collapselab.master import (
    LindbladSpec,
    _pair_stacks,
    cfs_rhs,
    compute_A,
    compute_B,
    csl_jump_operators,
    gksl_rhs,
    heating_rate_cfs,
    heating_rate_standard,
    integrate,
    master_rhs,
    pure_density,
)
from collapselab.presets import PRESETS

from conftest import ELL, random_state, raw_channel_stack, two_channels


@pytest.fixture
def opset(lat4, h0_4, grid16):
    return build_channel_operators(two_channels(lat4, 0.1), h0_4, grid16.dt)


@pytest.fixture
def sigma0(lat4, h0_4):
    esys = EigenSystem.of(h0_4, lat4.spacing)
    _, psi0 = esys.ground_state("positive")
    return pure_density(psi0, lat4.spacing)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s = m @ m.conj().T
    return s / np.trace(s).real


def check_invariants(stack):
    """Assert a channel stack fed to the cfs variant is Hermitian and even."""
    scale = max(np.abs(stack).max(), 1e-300)
    herm = np.abs(stack - stack.conj().transpose(0, 1, 3, 2)).max()
    even = np.abs(stack - stack[:, ::-1]).max()
    if herm > 1e-12 * scale:
        raise ConfigError(f"channel stack not Hermitian: deviation {herm:.3e}")
    if even > 1e-12 * scale:
        raise ConfigError(f"channel stack not even in the time difference: "
                          f"deviation {even:.3e}")


def cfs_rhs_oracle(sigma, spec):
    """cfs_rhs with the pair sum contracted by einsum on every call."""
    out = -1j * (spec.h0 @ sigma - sigma @ spec.h0)
    a_op = -spec.drift
    out += a_op @ sigma + sigma @ a_op.conj().T
    left, right, _ = _pair_stacks(spec.opset, spec.nu_step)
    cross = np.einsum("pab,bc,pcd->ad", left, sigma, right, optimize=True)
    out += cross + cross.conj().T
    return out


def loop_pair_stacks(opset, nu_step):
    """The pair stacks by the triple loop over channel, z and v."""
    stack, k, dt = opset.sym, opset.half_width, opset.dt
    lefts, rights = [], []
    for a in range(stack.shape[0]):
        for d in range(-k, k + 1):
            for f in range(0, k + 1, nu_step):
                if d - 2 * f < -k:
                    break
                w_nu = dt * nu_step if f == 0 else 2.0 * dt * nu_step
                lefts.append((dt * w_nu) * stack[a, d + k])
                rights.append(stack[a, d - 2 * f + k])
    left, right = np.stack(lefts), np.stack(rights)
    return left, right, np.einsum("pab,pbc->ac", left, right)


@pytest.mark.parametrize("preset", ["lindblad-vs-mc", "collapse-scenario", None])
@pytest.mark.parametrize("nu_step", [1, 2, 3])
def test_pair_stacks_match_the_loop(lat4, h0_4, grid16, preset, nu_step):
    if preset is None:
        # two kernel ranges and shapes: the shorter kernel is zero at the
        # outer z of the longer one's grid
        chans = [two_channels(lat4, 0.3)[0], make_channel(
            "g", site_projector(lat4, 2),
            KernelProfile(ell_min=0.75 * ELL, shape="gaussian_truncated"), 0.2)]
        opset = build_channel_operators(chans, h0_4, grid16.dt)
    else:
        cfg = ExperimentConfig.from_dict(PRESETS[preset].defaults)
        lat = cfg.lattice()
        h0 = cfg.build_h0(lat)
        opset = build_channel_operators(cfg.channels(lat), h0, cfg.grid().dt)
    got = _pair_stacks(opset, nu_step)
    want = loop_pair_stacks(opset, nu_step)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_spec_validation(lat4, h0_4, grid16, opset):
    with pytest.raises(ConfigError):
        LindbladSpec(h0_4, "unknown_kind")
    with pytest.raises(ConfigError):
        LindbladSpec.gksl(h0_4, [np.eye(3)])
    # the cfs variant reads the symmetrized stack, which passes; the raw
    # stack of non-commuting channels is not even
    check_invariants(opset.sym)
    with pytest.raises(ConfigError):
        check_invariants(raw_channel_stack(two_channels(lat4, 0.1), h0_4, grid16.dt))


@pytest.mark.parametrize("kind", ["cfs", "gksl"])
def test_spec_rejects_non_finite_h0(h0_4, opset, kind):
    bad = h0_4.copy()
    bad[2, 3] = np.inf
    with pytest.raises(ConfigError, match="h0 has non-finite"):
        if kind == "cfs":
            LindbladSpec.cfs(bad, opset)
        else:
            LindbladSpec.gksl(bad, [])


def test_spec_rejects_non_finite_jump(h0_4):
    jumps = [np.eye(8, dtype=complex), np.eye(8, dtype=complex)]
    jumps[1][0, 1] = np.nan
    with pytest.raises(ConfigError, match="jump operator has non-finite"):
        LindbladSpec.gksl(h0_4, jumps)


def test_spec_rejects_non_finite_channel_stack(h0_4, opset):
    sym = opset.sym.copy()
    sym[1, 0, 4, 4] = np.nan
    with pytest.raises(ConfigError, match="channel operator stack"):
        LindbladSpec.cfs(h0_4, replace(opset, sym=sym))


@pytest.mark.parametrize("nu_step", [1, 2])
def test_cfs_rhs_bitwise_equals_einsum_on_shipped_spec(nu_step):
    cfg = ExperimentConfig.from_dict(PRESETS["lindblad-vs-mc"].defaults)
    lattice = cfg.lattice()
    h0 = cfg.build_h0(lattice)
    opset = build_channel_operators(list(cfg.channels(lattice)), h0,
                                    cfg.grid().dt)
    spec = LindbladSpec.cfs(h0, opset, nu_step=nu_step)
    for seed in range(3):
        s = random_density(lattice.dim, seed)
        got = cfs_rhs(s, spec)
        assert np.array_equal(got.view(np.float64),
                              cfs_rhs_oracle(s, spec).view(np.float64))


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 16), n_channels=st.integers(1, 2),
       nu_step=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_cfs_rhs_matches_einsum_on_generated_specs(dim, n_channels, nu_step,
                                                   seed):
    rng = np.random.default_rng(seed)

    def hermitian():
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (m + m.conj().T)

    h0 = hermitian()
    channels = [make_channel(f"c{a}", hermitian(), KernelProfile(ell_min=ELL),
                             rng.uniform(0.05, 0.5))
                for a in range(n_channels)]
    opset = build_channel_operators(channels, h0, ELL / 8)
    spec = LindbladSpec.cfs(h0, opset, nu_step=nu_step)
    s = random_density(dim, seed)
    out = cfs_rhs(s, spec)
    want = cfs_rhs_oracle(s, spec)
    scale = np.abs(want).max()
    assert np.abs(out - want).max() <= 1e-13 * scale
    assert abs(np.trace(out)) < 1e-12 * max(scale, 1.0)
    assert np.abs(out - out.conj().T).max() < 1e-12 * max(scale, 1.0)


def test_rhs_free_limit(lat4, h0_4):
    s = random_density(lat4.dim, 1)
    want = -1j * (h0_4 @ s - s @ h0_4)
    free_gksl = gksl_rhs(s, LindbladSpec.gksl(h0_4, []))
    assert np.abs(free_gksl - want).max() < 1e-14


@settings(max_examples=12, deadline=None)
@given(sites=st.sampled_from([2, 4]), n_channels=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_rhs_preserves_trace_and_hermiticity(sites, n_channels, seed):
    lat = LatticeConfig(sites=sites, spacing=1.0, mass=1.0)
    h0 = build_dirac_h0(lat)
    rng = np.random.default_rng(seed)
    channels = []
    for a in range(n_channels):
        m = rng.standard_normal((lat.dim, lat.dim)) + 1j * rng.standard_normal(
            (lat.dim, lat.dim))
        channels.append(make_channel(f"c{a}", m, KernelProfile(ell_min=ELL),
                                     rng.uniform(0.05, 0.5)))
    opset = build_channel_operators(channels, h0, ELL / 16)
    s = random_density(lat.dim, seed)
    spec = LindbladSpec.cfs(h0, opset)
    out = cfs_rhs(s, spec)
    scale = np.abs(out).max()
    assert abs(np.trace(out)) < 1e-12 * max(scale, 1.0)
    assert np.abs(out - out.conj().T).max() < 1e-12 * max(scale, 1.0)

    jumps = csl_jump_operators(channels)
    gout = gksl_rhs(s, LindbladSpec.gksl(h0, jumps))
    gscale = np.abs(gout).max()
    assert abs(np.trace(gout)) < 1e-12 * max(gscale, 1.0)
    assert np.abs(gout - gout.conj().T).max() < 1e-12 * max(gscale, 1.0)


def test_mean_drift_herm_part_is_field_integral_square(h0_4, opset):
    a = compute_A(opset)
    total = np.zeros_like(a)
    for c in range(opset.sym.shape[0]):
        m_int = opset.dt * opset.sym[c].sum(axis=0)
        total += m_int @ m_int
    # past-future half-plane sum plus its adjoint rebuilds the full square
    assert np.abs((a + a.conj().T) + total).max() < 1e-10
    assert np.linalg.eigvalsh(0.5 * (a + a.conj().T)).max() < 1e-14


def test_mean_drift_commuting_closed_form(lat4, h0_4, grid16):
    prof = KernelProfile(ell_min=ELL)
    am = momentum_function(lat4, np.cos(momenta(lat4)) + 0.5)
    ch = make_channel("mom", am, prof, 0.1)
    ops = build_channel_operators([ch], h0_4, grid16.dt)
    got = compute_A(ops)

    # independent route: M(z) = lambda L(z) A cos(z h0) for commuting A
    k = ops.half_width
    dt = ops.dt
    m = [ch.amplitude * float(prof.value(z)) * (ch.spatial_op @ cosm(z * h0_4))
         for z in ops.zeta]
    g = np.zeros_like(got)
    for d in range(-k, k + 1):
        for f in range(0, k + 1):
            if d - 2 * f < -k:
                break
            w = dt * (dt if f == 0 else 2.0 * dt)
            g += w * (m[d + k] @ m[d - 2 * f + k])
    assert np.abs(got + g).max() < 1e-13


def test_mean_drift_translation_invariance(lat4, h0_4, grid16):
    prof = KernelProfile(ell_min=ELL)
    shift = np.zeros((lat4.sites, lat4.sites))
    for j in range(lat4.sites):
        shift[(j + 1) % lat4.sites, j] = 1.0
    t = np.kron(shift, np.eye(SPINOR_DIM))

    def drift_at(site):
        ch = make_channel(f"s{site}", site_projector(lat4, site), prof, 0.1)
        return compute_A(build_channel_operators([ch], h0_4, grid16.dt))

    a1 = drift_at(1)
    a2 = drift_at(2)
    assert np.abs(a2 - t @ a1 @ t.conj().T).max() < 1e-10


def test_mean_drift_from_spec_and_empty(h0_4, opset):
    spec = LindbladSpec.cfs(h0_4, opset)
    assert np.abs(-spec.drift - compute_A(opset)).max() == 0.0
    # free flow is the GKSL spec with no jump operators
    empty = LindbladSpec.gksl(h0_4, [])
    s = random_density(h0_4.shape[0], 2)
    assert np.array_equal(master_rhs(s, empty), -1j * (h0_4 @ s - s @ h0_4))


def test_field_energy_pairing_antihermitian(opset):
    b = compute_B(opset)
    assert np.abs(b).max() > 1e-3
    assert np.abs(b + b.conj().T).max() == 0.0
    # equal-midpoint contraction of the symmetrized stack, term by term
    sq = sum(m @ m for stack in opset.sym for m in stack)
    assert np.abs(b - 2j * opset.dt * sq).max() <= 1e-13 * np.abs(b).max()


def test_integrate_keeps_stationary_state(h0_4, sigma0):
    traj = integrate(sigma0, LindbladSpec.gksl(h0_4, []),
                     TimeGrid(0.0, 1.0, ELL / 16))
    assert np.abs(traj.sigmas[-1] - sigma0).max() < 1e-12


def test_integrate_fourth_order_accuracy(h0_4, opset, sigma0):
    spec = LindbladSpec.cfs(h0_4, opset)

    def final(dt_div):
        return integrate(sigma0, spec, TimeGrid(0.0, 0.5, ELL / dt_div)).sigmas[-1]

    ref = final(128)
    e1 = np.abs(final(16) - ref).max()
    e2 = np.abs(final(32) - ref).max()
    assert e1 > 1e-11
    assert 10.0 < e1 / e2 < 24.0


def stagewise_rk4(sigma, spec, dt):
    """One classical RK4 step from four master_rhs calls."""
    k1 = master_rhs(sigma, spec)
    k2 = master_rhs(sigma + 0.5 * dt * k1, spec)
    k3 = master_rhs(sigma + 0.5 * dt * k2, spec)
    k4 = master_rhs(sigma + dt * k3, spec)
    return sigma + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cfs", "gksl", "free"]), seed=st.integers(0, 2**32 - 1),
       rank=st.integers(1, 8))
def test_propagator_step_matches_stagewise_rk4(kind, seed, rank):
    # integrate's one mat-vec per step against the four right-hand sides it
    # replaces, at lindblad-vs-mc's step on generated Hermitian densities;
    # measured up to 5.4e-16 of the density's Frobenius norm
    lat = LatticeConfig(sites=4, spacing=1.0, mass=1.0)
    h0 = build_dirac_h0(lat)
    grid = TimeGrid(0.0, 0.0625, ELL / 16)
    channels = two_channels(lat, 0.3)
    spec = {"cfs": lambda: LindbladSpec.cfs(
                h0, build_channel_operators(channels, h0, grid.dt)),
            "gksl": lambda: LindbladSpec.gksl(h0, csl_jump_operators(channels)),
            "free": lambda: LindbladSpec.gksl(h0, [])}[kind]()
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    sigma = m @ m.conj().T
    sigma /= np.trace(sigma).real
    got = integrate(sigma, spec, grid).sigmas[1]
    want = stagewise_rk4(sigma, spec, grid.dt)
    assert np.abs(got - 0.5 * (want + want.conj().T)).max() <= 1e-15 * np.linalg.norm(sigma)


def test_integrate_health_monitors(h0_4, opset, sigma0):
    spec = LindbladSpec.cfs(h0_4, opset)
    traj = integrate(sigma0, spec, TimeGrid(0.0, 1.0, ELL / 16))
    assert traj.max_trace_drift < 1e-10
    assert traj.min_eigenvalue.min() > -1e-8
    assert traj.times.size == traj.sigmas.shape[0] == traj.min_eigenvalue.size
    with pytest.raises(ConfigError):
        integrate(2.0 * sigma0, spec, TimeGrid(0.0, 1.0, ELL / 16))


def test_integrate_rejects_unresolved_step(h0_4, sigma0):
    rng = np.random.default_rng(0)
    j = 10.0 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spec = LindbladSpec.gksl(h0_4, [j])
    with pytest.raises(StepRejected):
        integrate(sigma0, spec, TimeGrid(0.0, 10.0, 1.0))


def test_integrate_rejects_non_finite_density(h0_4, sigma0):
    # a NaN compares false against the hermiticity limit, so only a guard
    # written as "not dev <= limit" stops it
    spec = LindbladSpec.gksl(h0_4, [np.zeros((8, 8), dtype=complex)])
    spec.jumps[0][0, 1] = np.nan  # past the spec's own finite check
    with pytest.raises(StepRejected, match="step 1 "):
        integrate(sigma0, spec, TimeGrid(0.0, 1.0, ELL / 16))


def test_pure_density_normalization(lat4, h0_4):
    psi = random_state(lat4.dim, lat4.spacing, 3)
    rho = pure_density(psi, lat4.spacing)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho @ rho - rho).max() < 1e-12


def test_standard_heating_rate(lat4, h0_4, opset):
    esys = EigenSystem.of(h0_4, lat4.spacing)
    e0, psi0 = esys.ground_state("positive")
    proj = esys.positive_projector()
    jumps = csl_jump_operators(two_channels(lat4, 0.1), projector=proj)
    spec = LindbladSpec.gksl(h0_4, jumps)
    rate = heating_rate_standard(psi0, spec, lat4.spacing)
    # bottom of the projected spectrum: every term is nonnegative
    assert rate > 1e-8

    # dual route: trace of h0 against the full right-hand side
    sig = pure_density(psi0, lat4.spacing)
    trace_rate = float(np.trace(h0_4 @ gksl_rhs(sig, spec)).real)
    assert abs(rate - trace_rate) < 1e-10

    assert heating_rate_standard(psi0, LindbladSpec.gksl(h0_4, []),
                                 lat4.spacing) == 0.0
    with pytest.raises(NotEigenstate):
        heating_rate_standard(random_state(lat4.dim, lat4.spacing, 4), spec,
                              lat4.spacing)
    with pytest.raises(ConfigError):
        heating_rate_standard(psi0, LindbladSpec.cfs(h0_4, opset), lat4.spacing)


def test_cfs_heating_rate(h0_4, opset, sigma0):
    spec = LindbladSpec.cfs(h0_4, opset)
    rate, sens = heating_rate_cfs(sigma0, spec)
    assert np.isfinite(rate) and sens >= 0.0
    with pytest.raises(ConfigError):
        heating_rate_cfs(sigma0, LindbladSpec.gksl(h0_4, []))


def test_csl_jump_scaling(lat4):
    chans = two_channels(lat4, 0.1)
    jumps = csl_jump_operators(chans)
    for j, ch in zip(jumps, chans):
        assert np.abs(j - 0.5 * ch.amplitude * ch.spatial_op).max() == 0.0
    p = site_projector(lat4, 1)
    sandwiched = csl_jump_operators(chans, projector=p)
    for j, ch in zip(sandwiched, chans):
        want = p @ (0.5 * ch.amplitude * ch.spatial_op) @ p
        assert np.abs(j - want).max() == 0.0
