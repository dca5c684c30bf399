"""Nonlocal-in-time interaction channels and their stochastic fields.

A channel couples a Hermitian spatial operator A to a scalar field through a
compactly supported, even, normalized kernel L in the time difference:

    V(t, t') = sum_a  lambda_a * w_a((t+t')/2) * L_a(t-t') * A_a.

Evaluating the field at the midpoint and the kernel at the difference makes
V(t,t')^dag = V(t',t) hold exactly for real fields. The white-noise field is
sampled on a grid of half the evolution step, so midpoints of evolution
nodes are themselves noise nodes and no rounding enters the pairing
structure. An analytic probe field, a few random-phase sinusoids per
channel, serves the per-realization operator checks, where finite
differences and grid-refinement ratios need a path with bounded
derivatives; it comes as the same half-step table, a plain array of
shape (n_channels, 2 * steps + 1), which is what the fixed-point solver
takes.

Channel operators condense a channel into a stack over the time difference,

    M_a(z) = (1/2) * lambda_a * L_a(z) * (A_a e^{i z h0} + e^{-i z h0} A_a),

which is Hermitian for every z but even in z only when [A_a, h0] = 0. The
set holds only the symmetrized stack 0.5*(M(z) + M(-z)); how far that
moves each channel's stack is logged (at info level, above 1e-13) when
the set is built, not stored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, GridTooCoarse, NotPSD
from .grids import TimeGrid, Window
from .lattice import (
    SPINOR_DIM,
    EigenSystem,
    LatticeConfig,
    _plane_wave_matrix,
    build_dirac_h0,
)

log = logging.getLogger(__name__)

KERNEL_SHAPES = ("raised_cosine", "gaussian_truncated")
_RANK_TOL = 1e-12  # relative covariance eigenvalue below which a field drops
_PROBE_MODES = 4  # sinusoids per channel of the analytic probe field


@dataclass(frozen=True)
class KernelProfile:
    """Even, compactly supported, unit-integral kernel in the time difference.

    'raised_cosine' is cos^2(pi z / (2 l)) / l on [-l, l]; its continuum
    integral is exactly one and it vanishes with its first derivative at the
    support edge. 'gaussian_truncated' is a Gaussian of width l/3 shifted to
    vanish continuously at the edge and renormalized in closed form.
    """

    ell_min: float
    shape: str = "raised_cosine"

    def __post_init__(self) -> None:
        if not (0.0 < self.ell_min < math.inf):  # NaN fails too
            raise ConfigError(
                f"kernel range ell_min {self.ell_min} must be finite and positive")
        if self.shape not in KERNEL_SHAPES:
            raise ConfigError(f"unknown kernel shape {self.shape!r}")

    def value(self, zeta) -> np.ndarray:
        z = np.asarray(zeta, dtype=float)
        out = np.zeros_like(z)
        inside = np.abs(z) <= self.ell_min
        if self.shape == "raised_cosine":
            out[inside] = (
                np.cos(0.5 * np.pi * z[inside] / self.ell_min) ** 2 / self.ell_min
            )
        else:
            s = self.ell_min / 3.0
            edge = math.exp(-0.5 * (self.ell_min / s) ** 2)
            norm = s * math.sqrt(2.0 * math.pi) * math.erf(
                self.ell_min / (s * math.sqrt(2.0))
            ) - 2.0 * self.ell_min * edge
            out[inside] = (np.exp(-0.5 * (z[inside] / s) ** 2) - edge) / norm
        return out


def site_projector(cfg: LatticeConfig, site: int) -> np.ndarray:
    """Projector onto one lattice site (both spinor components)."""
    if not (0 <= site < cfg.sites):
        raise ConfigError(f"site {site} outside lattice of {cfg.sites}")
    d = np.zeros(cfg.sites)
    d[site] = 1.0
    return np.kron(np.diag(d), np.eye(SPINOR_DIM)).astype(complex)


def position_gaussian(cfg: LatticeConfig, center: float, width: float) -> np.ndarray:
    """Diagonal multiplication operator with a periodized Gaussian site profile."""
    if not (0.0 < width < math.inf):
        raise ConfigError(f"width {width} must be finite and positive")
    x = cfg.spacing * np.arange(cfg.sites)
    span = cfg.spacing * cfg.sites
    # periodic distance on the ring
    d = np.minimum(np.abs(x - center) % span, span - np.abs(x - center) % span)
    prof = np.exp(-0.5 * (d / width) ** 2)
    prof = prof / prof.max()
    return np.kron(np.diag(prof), np.eye(SPINOR_DIM)).astype(complex)


def momentum_function(cfg: LatticeConfig, values) -> np.ndarray:
    """Operator diagonal in the momentum basis, scalar on the spinor index.

    ``values`` holds one value per lattice momentum, in ``momenta`` order.
    Such operators commute with the free Hamiltonian.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (cfg.sites,):
        raise ConfigError(
            f"momentum function needs {cfg.sites} values, got shape {v.shape}")
    f = _plane_wave_matrix(cfg)
    a = np.einsum("jn,n,ln->jl", f, v.astype(complex), f.conj(), optimize=True)
    return np.kron(a, np.eye(SPINOR_DIM))


def _mode_pair(cfg: LatticeConfig, first: int, second: int,
               what: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit states of two distinct positive-branch modes."""
    if first == second:
        raise ConfigError(f"{what} needs two distinct modes")
    sys = EigenSystem.of(build_dirac_h0(cfg), cfg.spacing)
    pos = sys.positive
    for idx in (first, second):
        if not (0 <= idx < pos.size):
            raise ConfigError(
                f"eigenmode index {idx} outside the {pos.size} positive modes")
    return sys.state(pos[first]), sys.state(pos[second])


def eigenmode_coupling(cfg: LatticeConfig, first: int, second: int) -> np.ndarray:
    """Hermitian hop between two positive-branch free modes.

    Modes are indexed by energy order within the positive part of the
    spectrum. The operator vanishes outside the two-mode subspace, so a
    state prepared there stays there under the free motion and under any
    channel built from this operator.
    """
    v1, v2 = _mode_pair(cfg, first, second, "eigenmode coupling")
    return cfg.spacing * (np.outer(v1, v2.conj()) + np.outer(v2, v1.conj()))


def eigenmode_difference(cfg: LatticeConfig, first: int, second: int) -> np.ndarray:
    """Projector difference P_first - P_second of two positive-branch modes.

    Eigenvalues are +1 on the first mode, -1 on the second, 0 elsewhere,
    which makes it the natural two-branch pointer observable.
    """
    v1, v2 = _mode_pair(cfg, first, second, "eigenmode difference")
    return cfg.spacing * (np.outer(v1, v1.conj()) - np.outer(v2, v2.conj()))


def _require_finite(what: str, op: np.ndarray) -> None:
    if not np.isfinite(op).all():
        raise ConfigError(f"{what} has non-finite entries")


@dataclass(frozen=True)
class InteractionChannel:
    """One interaction channel: spatial operator, kernel, amplitude."""

    label: str
    spatial_op: np.ndarray
    profile: KernelProfile
    amplitude: float

    def __post_init__(self) -> None:
        a = np.asarray(self.spatial_op, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"spatial operator has shape {a.shape}")
        _require_finite(f"channel {self.label!r}: spatial operator", a)
        dev = np.linalg.norm(a - a.conj().T, np.inf)
        if dev > 1e-12 * max(np.linalg.norm(a, np.inf), 1.0):
            raise ConfigError(f"channel {self.label!r}: spatial operator not hermitian")
        nrm = np.linalg.norm(a, 2)
        if abs(nrm - 1.0) > 1e-10:
            raise ConfigError(
                f"channel {self.label!r}: spatial operator norm {nrm:.6f} != 1; "
                "absorb the scale into the amplitude"
            )
        if not (0.0 <= self.amplitude < math.inf):
            raise ConfigError(
                f"channel {self.label!r}: amplitude {self.amplitude} must be "
                "finite and nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "spatial_op", a)

    @property
    def dim(self) -> int:
        return self.spatial_op.shape[0]


def make_channel(label: str, spatial_op: np.ndarray, profile: KernelProfile,
                 amplitude: float) -> InteractionChannel:
    """Build a channel, absorbing the operator's spectral norm into the amplitude."""
    a = np.asarray(spatial_op, dtype=complex)
    _require_finite(f"channel {label!r}: spatial operator", a)
    a = 0.5 * (a + a.conj().T)
    nrm = np.linalg.norm(a, 2)
    if nrm == 0.0:
        raise ConfigError(f"channel {label!r}: zero spatial operator")
    return InteractionChannel(label, a / nrm, profile, amplitude * nrm)


def diagonalize_covariance(matrix: np.ndarray, channels: list[InteractionChannel]
                           ) -> list[InteractionChannel]:
    """Rotate channel fields coupled by the real symmetric positive
    semi-definite ``matrix`` to independent unit-variance fields.

    Eigenvectors of the covariance mix the spatial operators (all channels
    must share one kernel profile); sqrt-eigenvalues are absorbed into the
    amplitudes. Channels on eigenvalues below ``_RANK_TOL`` (relative) are
    dropped. Raises DimensionMismatch on a non-square matrix, ConfigError on
    a non-finite or asymmetric one, and NotPSD on a negative eigenvalue
    beyond tolerance.
    """
    c = np.asarray(matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"covariance has shape {c.shape}")
    _require_finite("covariance", c)
    if np.linalg.norm(c - c.T, np.inf) > 1e-12 * max(np.linalg.norm(c, np.inf), 1.0):
        raise ConfigError("covariance must be symmetric")
    n = len(channels)
    if c.shape[0] != n:
        raise DimensionMismatch(f"covariance rank {c.shape[0]} vs {n} channels")
    prof = channels[0].profile
    if any(ch.profile != prof for ch in channels):
        raise ConfigError("covariance coupling requires a shared kernel profile")
    vals, vecs = np.linalg.eigh(c)
    scale = max(abs(vals).max(), 1.0)
    if vals.min() < -1e-10 * scale:
        raise NotPSD(f"covariance eigenvalue {vals.min():.3e} below zero")
    # descending so the dominant field comes first
    order = np.argsort(vals)[::-1]
    if np.allclose(c, np.eye(n), atol=1e-14):
        order = np.arange(n)  # identity: keep the caller's channel order
    out: list[InteractionChannel] = []
    for k in order:
        mu = max(float(vals[k]), 0.0)
        if mu <= _RANK_TOL * scale:
            continue
        weights = np.sqrt(mu) * vecs[:, k]
        raw = sum(
            w * ch.amplitude * ch.spatial_op for w, ch in zip(weights, channels)
        )
        nrm = np.linalg.norm(raw, 2)
        if nrm <= _RANK_TOL:
            continue
        label = "+".join(ch.label for ch in channels) + f"#{len(out)}"
        out.append(
            InteractionChannel(
                label=label,
                spatial_op=raw / nrm,
                profile=prof,
                amplitude=nrm,
            )
        )
    return out


@dataclass
class NoiseRealization:
    """One white-noise realization of the channel fields.

    ``samples`` holds windowed samples of variance 1/h per node (h the
    noise-grid spacing, half the evolution step): the half-step field table
    of the grid it was drawn for, shape (n_channels, 2 * steps + 1).
    """

    t0: float
    h: float
    samples: np.ndarray

    def table(self, t0: float, h: float, n: int) -> np.ndarray:
        """Field values on an external uniform grid that subsamples the
        noise grid exactly; zero outside the drawn nodes."""
        times = t0 + h * np.arange(n)
        out = np.zeros((self.samples.shape[0], n))
        q = (times - self.t0) / self.h
        qi = np.rint(q).astype(int)
        if np.abs(q - qi).max() > 1e-6:
            raise ConfigError("external grid is not aligned with the noise grid")
        ok = (qi >= 0) & (qi < self.samples.shape[1])
        out[:, ok] = self.samples[:, qi[ok]]
        return out


def max_step(channels: list[InteractionChannel]) -> float:
    """The largest evolution step that resolves the shortest kernel range,
    ell_min/8, with 1e-12 of slack for rounding in dt."""
    return min(ch.profile.ell_min for ch in channels) / 8.0 + 1e-12


def white_tables(count: int, grid: TimeGrid, window: Window, seeds: list,
                 pad: int = 0) -> np.ndarray:
    """White-noise field tables of ``count`` channels, realization
    innermost: shape (count, M + 2 pad, len(seeds)), M = 2 steps + 1 nodes
    at spacing h = dt/2 (so every node midpoint is a noise node), zero-padded
    by ``pad`` at both ends.

    Column i is the draw of ``default_rng(seeds[i])``; the whole table is
    then scaled to variance 1/h and by the window, evaluated once.
    """
    m = 2 * grid.steps + 1
    h = grid.dt / 2
    out = np.zeros((count, m + 2 * pad, len(seeds)))
    body = out[:, pad : pad + m]
    for i, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        body[:, :, i] = rng.standard_normal(body.shape[:2])
    body /= math.sqrt(h)
    body *= np.asarray(window(grid.t0 + h * np.arange(m)), dtype=float)[:, None]
    return out


def sample_noise(channels: list[InteractionChannel], grid: TimeGrid,
                 seed: int | list[int], window: Window | None = None
                 ) -> NoiseRealization:
    """Draw one white-noise realization for every channel: the one column
    of ``white_tables`` for ``seed``.

    The evolution step must resolve the shortest kernel: dt <= ell_min/8,
    else GridTooCoarse.
    """
    if grid.dt > max_step(channels):
        ell = min(ch.profile.ell_min for ch in channels)
        raise GridTooCoarse(f"dt={grid.dt} exceeds ell_min/8={ell / 8.0}")
    if window is None:
        window = Window.flat()
    table = white_tables(len(channels), grid, window, [seed])
    return NoiseRealization(t0=grid.t0, h=grid.dt / 2, samples=table[:, :, 0])


def sample_fourier_probe(channels: list[InteractionChannel], grid: TimeGrid,
                         seed: int, window: Window | None = None,
                         amplitude: float = 1.0) -> np.ndarray:
    """Analytic probe field: four random-phase sinusoids per channel.

    Returns its half-step table on ``grid``, shape (n_channels,
    2 * steps + 1): the windowed paths at t0 + k dt/2, zero outside
    [t0, t1]. Wavelengths stay at or above twice the shortest kernel range,
    so the field varies on the physical scale while remaining infinitely
    smooth between window joins, as checks that extrapolate in the step
    size need. The paths depend on (seed, channel count, kernel range)
    alone, never on the grid, so the tables of nested grids agree on their
    shared times; ``amplitude=0`` gives the zero field.
    """
    if window is None:
        window = Window.flat()
    ell = min(ch.profile.ell_min for ch in channels)
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.25 * math.pi / ell, math.pi / ell,
                         (len(channels), _PROBE_MODES))
    phases = rng.uniform(0.0, 2.0 * math.pi, (len(channels), _PROBE_MODES))
    amp = amplitude * math.sqrt(2.0 / _PROBE_MODES)
    h = grid.dt / 2
    times = grid.t0 + h * np.arange(2 * grid.steps + 1)
    out = np.zeros((len(channels), times.size))
    ok = (times >= grid.t0 - 1e-12) & (times <= grid.t1 + 1e-12)
    w = np.asarray(window(times[ok]), dtype=float)
    for a in range(len(channels)):
        out[a, ok] = amp * np.cos(np.multiply.outer(
            times[ok], omegas[a]) + phases[a]).sum(axis=-1) * w
    return out


@dataclass(frozen=True)
class ChannelOperatorSet:
    """Stacks M_a(z) on the difference grid, symmetrized to be even in z,
    shape (n_channels, n_zeta, D, D)."""

    zeta: np.ndarray
    dt: float
    sym: np.ndarray

    @property
    def half_width(self) -> int:
        return (self.zeta.size - 1) // 2


def build_channel_operators(channels: list[InteractionChannel], h0: np.ndarray,
                            dt: float) -> ChannelOperatorSet:
    """Evaluate the channel-operator stacks on the difference grid of step dt."""
    ell = max(ch.profile.ell_min for ch in channels)
    if dt > max_step(channels):
        raise GridTooCoarse(f"dt={dt} exceeds ell_min/8")
    k = int(round(ell / dt))
    zeta = dt * np.arange(-k, k + 1)
    esys = EigenSystem.of(h0, 1.0)  # matrix() reads no spacing
    d = channels[0].dim
    raw = np.zeros((len(channels), zeta.size, d, d), dtype=complex)
    for a, ch in enumerate(channels):
        lz = ch.profile.value(zeta)
        for i, z in enumerate(zeta):
            if lz[i] == 0.0:
                continue
            ep = esys.matrix(-z)  # e^{+i z h0}
            raw[a, i] = 0.5 * ch.amplitude * lz[i] * (
                ch.spatial_op @ ep + ep.conj().T @ ch.spatial_op
            )
    sym = 0.5 * (raw + raw[:, ::-1])
    # max_z |M_a(z) - M_a(-z)| / 2, the cost of evenness when [A_a, h0] != 0
    asym = np.max(
        np.abs(raw - sym).reshape(len(channels), -1), axis=1
    )
    for a, ch in enumerate(channels):
        if asym[a] > 1e-13:
            log.info("channel %s: evenness symmetrization changes M by %.3e",
                     ch.label, asym[a])
    return ChannelOperatorSet(zeta=zeta, dt=dt, sym=sym)
