import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from collapselab.errors import NotEigenstate, NotPositive
from collapselab.lattice import (
    SPINOR_DIM,
    EigenSystem,
    LatticeConfig,
    build_dirac_h0,
    l2_inner,
    l2_norm,
    momenta,
    normalized,
    require_eigenstate,
    sqrtmh,
)

from conftest import random_state


def translation_operator(cfg):
    """Cyclic shift by one site, acting trivially on the spinor index."""
    shift = np.roll(np.eye(cfg.sites), 1, axis=0)
    return np.kron(shift, np.eye(SPINOR_DIM)).astype(complex)


def dirac_spectrum(cfg):
    """Exact eigenvalues {+-sqrt(k_n^2 + m^2)}, ascending."""
    k = momenta(cfg)
    e = np.sqrt(k**2 + cfg.mass**2)
    return np.sort(np.concatenate([-e, e]))


def test_massless_two_site_spectrum():
    cfg = LatticeConfig(sites=2, spacing=1.0, mass=0.0)
    vals = np.sort(np.linalg.eigvalsh(build_dirac_h0(cfg)))
    expected = np.sort([0.0, 0.0, math.pi, -math.pi])
    assert np.allclose(vals, expected, atol=1e-12)


def test_mass_gap_is_m():
    for sites in (2, 6, 8):
        cfg = LatticeConfig(sites=sites, spacing=1.0, mass=1.0)
        vals = np.linalg.eigvalsh(build_dirac_h0(cfg))
        assert abs(np.min(np.abs(vals)) - 1.0) < 1e-12


def test_spectrum_matches_per_momentum_eigensolve():
    cfg = LatticeConfig(sites=8, spacing=1.0, mass=1.0)
    vals = np.sort(np.linalg.eigvalsh(build_dirac_h0(cfg)))
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    direct = np.sort(np.concatenate([
        np.linalg.eigvalsh(k * sigma1 + cfg.mass * sigma3) for k in momenta(cfg)
    ]))
    assert np.max(np.abs(vals - direct)) < 1e-12
    assert np.allclose(np.sort(dirac_spectrum(cfg)), direct, atol=1e-12)


def test_h0_hermitian_and_translation_invariant(lat4, h0_4):
    h = h0_4
    assert not h.flags.writeable
    assert np.linalg.norm(h - h.conj().T, np.inf) < 1e-12
    t = translation_operator(lat4)
    assert np.linalg.norm(h @ t - t @ h, np.inf) < 1e-10


def test_matrix_function_trivia(lat4):
    eye = np.eye(lat4.dim)
    root, inv_root = sqrtmh(eye)
    assert np.allclose(root, eye, atol=1e-14)
    assert np.allclose(inv_root, eye, atol=1e-14)


def test_sqrt_squares_back():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = m @ m.conj().T + 0.5 * np.eye(16)
    r, r_inv = sqrtmh(m)
    assert np.linalg.norm(r @ r - m, 2) < 1e-10 * np.linalg.norm(m, 2)
    assert np.linalg.norm(r_inv @ r - np.eye(16), 2) < 1e-10


def test_sqrt_rejects_non_positive():
    with pytest.raises(NotPositive, match="^sqrt"):
        sqrtmh(np.diag([1.0, 1e-9]))
    with pytest.raises(NotPositive, match="^sqrt"):
        sqrtmh(np.diag([1.0, -0.2]))


def test_l2_inner_basics():
    spacing = 0.7
    psi = random_state(8, spacing, 1)
    phi = random_state(8, spacing, 2)
    assert abs(l2_inner(psi, psi, spacing) - 1.0) < 1e-12
    assert abs(l2_inner(phi, psi, spacing)
               - np.conj(l2_inner(psi, phi, spacing))) < 1e-14
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0 / math.sqrt(spacing)
    e1 = np.zeros(8, dtype=complex)
    e1[1] = 1.0 / math.sqrt(spacing)
    assert abs(l2_inner(e0, e0, spacing) - 1.0) < 1e-14
    assert abs(l2_inner(e0, e1, spacing)) < 1e-14


def test_l2_norm_and_normalized():
    v = np.array([3.0, 4.0], dtype=complex)
    assert abs(l2_norm(normalized(v, 2.0), 2.0) - 1.0) < 1e-14


def test_ground_state_conventions(h0_4):
    sys = EigenSystem.of(h0_4, 1.0)
    e_pos, psi_pos = sys.ground_state("positive")
    assert e_pos > 0.0
    assert abs(e_pos - sys.values[sys.values > 0].min()) < 1e-14
    assert abs(l2_norm(psi_pos, 1.0) - 1.0) < 1e-12
    e_def, psi_def = sys.ground_state()
    assert e_def == e_pos and np.array_equal(psi_def, psi_pos)
    for other in ("lowest", "global"):
        with pytest.raises(ValueError):
            sys.ground_state(other)


def test_positive_projector(h0_4):
    sys = EigenSystem.of(h0_4, 1.0)
    p = sys.positive_projector()
    assert np.linalg.norm(p - p.conj().T, 2) < 1e-12
    assert np.linalg.norm(p @ p - p, 2) < 1e-12
    _, psi = sys.ground_state("positive")
    assert np.linalg.norm(p @ psi - psi) < 1e-10
    bottom = sys.state(int(np.argmin(sys.values)))
    assert np.linalg.norm(p @ bottom) < 1e-10


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(-4.0, 4.0))
def test_eigensystem_matrix_is_the_exponential(dim, seed, tau):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / (2.0 * math.sqrt(dim))
    sys = EigenSystem.of(h, 1.0)
    assert np.abs(sys.matrix(tau) - expm(-1j * tau * h)).max() < 1e-12
    taus = np.array([tau, -tau, 0.5 * tau, 0.0])
    stack = sys.matrix(taus)
    assert stack.shape == (taus.size, dim, dim)
    for t, u in zip(taus, stack):
        assert np.abs(u - expm(-1j * t * h)).max() < 1e-12


def test_eigensystem_states_and_branch_at_half_spacing():
    lat = LatticeConfig(sites=4, spacing=0.5, mass=1.0)
    sys = EigenSystem.of(build_dirac_h0(lat), lat.spacing)
    for i in range(lat.dim):
        assert abs(l2_norm(sys.state(i), lat.spacing) - 1.0) < 1e-12
    p = sys.positive_projector()
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-12
    # the massive spectrum is +-sqrt(k^2 + m^2): its upper half is positive
    assert np.array_equal(sys.positive, np.arange(lat.dim // 2, lat.dim))
    assert np.all(sys.values[sys.positive] > 0.0)
    assert np.all(sys.values[: lat.dim // 2] < 0.0)


def test_require_eigenstate(h0_4):
    sys = EigenSystem.of(h0_4, 1.0)
    e, psi = sys.ground_state("positive")
    assert abs(require_eigenstate(h0_4, psi, 1.0) - e) < 1e-10
    with pytest.raises(NotEigenstate):
        require_eigenstate(h0_4, random_state(8, 1.0, 5), 1.0)


def test_lattice_config_rejects_bad_values():
    with pytest.raises(ValueError):
        LatticeConfig(sites=0, spacing=1.0, mass=1.0)
    with pytest.raises(ValueError):
        LatticeConfig(sites=3, spacing=1.0, mass=1.0)
    with pytest.raises(ValueError):
        LatticeConfig(sites=4, spacing=-1.0, mass=1.0)
    for spacing in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LatticeConfig(sites=4, spacing=spacing, mass=1.0)
    for mass in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LatticeConfig(sites=4, spacing=1.0, mass=mass)
