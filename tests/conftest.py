"""Shared builders for the test suite.

Everything here is desk scale: D <= 16, grids of a few hundred nodes, so
each module's tests stay in the second range.
"""

from __future__ import annotations

import numpy as np
import pytest

from collapselab.channels import KernelProfile, make_channel, site_projector
from collapselab.grids import TimeGrid, Window
from collapselab.lattice import LatticeConfig, build_dirac_h0, normalized


ELL = 0.5


@pytest.fixture
def lat4() -> LatticeConfig:
    return LatticeConfig(sites=4, spacing=1.0, mass=1.0)


@pytest.fixture
def h0_4(lat4):
    return build_dirac_h0(lat4)


@pytest.fixture
def grid16() -> TimeGrid:
    return TimeGrid(0.0, 2.0, ELL / 16.0)


@pytest.fixture
def window_mid() -> Window:
    return Window(t_on=0.4, t_off=1.6, ramp=0.3)


def two_channels(lat: LatticeConfig, amplitude: float):
    """A localized projector and a dense random operator, the generic
    non-commuting pair. The dense operator is pre-normalized so that
    ``amplitude`` is the coupling for both channels."""
    prof = KernelProfile(ell_min=ELL)
    rng = np.random.default_rng(11)
    d = 2 * lat.sites
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m + m.conj().T
    m = m / np.linalg.norm(m, 2)
    return [
        make_channel("site", site_projector(lat, 1), prof, amplitude),
        make_channel("dense", m, prof, amplitude),
    ]


def random_state(dim: int, spacing: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalized(v, spacing)


def raw_channel_stack(channels, h0: np.ndarray, dt: float) -> np.ndarray:
    """The unsymmetrized stacks M_a(z) = (amplitude_a L_a(z) / 2)
    (A_a e^{i z h0} + e^{-i z h0} A_a) on the difference grid of step dt
    out to the longest kernel range, shape (n_channels, n_zeta, D, D), from
    scipy's expm."""
    from scipy.linalg import expm  # only this oracle needs scipy

    k = int(round(max(ch.profile.ell_min for ch in channels) / dt))
    zeta = dt * np.arange(-k, k + 1)
    out = np.zeros((len(channels), zeta.size) + h0.shape, dtype=complex)
    for a, ch in enumerate(channels):
        for i, z in enumerate(zeta):
            ep = expm(1j * z * h0)
            out[a, i] = 0.5 * ch.amplitude * float(ch.profile.value(z)) * (
                ch.spatial_op @ ep + ep.conj().T @ ch.spatial_op)
    return out


def stack_asymmetry(stack: np.ndarray) -> np.ndarray:
    """max_z |M_a(z) - M_a(-z)| / 2 per channel."""
    return 0.5 * np.abs(stack - stack[:, ::-1]).reshape(stack.shape[0], -1).max(axis=1)


def containers(obj):
    """Every dict and list reachable from obj, obj included."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from containers(value)
    elif isinstance(obj, list):
        yield obj
        for value in obj:
            yield from containers(value)
