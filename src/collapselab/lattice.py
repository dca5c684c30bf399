"""Finite lattice Hilbert space for a 1+1d two-component Dirac model.

The model space is a periodic chain of N sites with two spinor components
per site, total dimension D = 2N. The free Hamiltonian is assembled exactly
in momentum space,

    h0(k) = k*sigma1 + m*sigma3,    k_n = 2*pi*n / (N*a),

and rotated to the position basis with the unitary discrete Fourier
transform. Building h0 spectrally instead of by finite differences keeps the
dispersion exact: the spectrum is {+-sqrt(k_n^2 + m^2)} with no doubling
artifacts.

``EigenSystem`` is the one holder of h0's spectral data, found with
``eigh``: e^{-i tau h0} in closed form for any tau, the positive branch and
its projector, and eigenstates normalized for the lattice weight below.

States are complex vectors indexed site-major (spinor component fastest).
The discrete L2 product carries the lattice weight a, so a unit-normalized
state has sum_j a*|psi_j|^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotEigenstate, NotPositive

SPINOR_DIM = 2

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SQRT_FLOOR = 1e-6
EIGENSTATE_TOL = 1e-8  # largest relative residual |h0 psi - E psi| / |psi|


@dataclass(frozen=True)
class LatticeConfig:
    """Geometry and mass of the spatial lattice."""

    sites: int
    spacing: float
    mass: float

    def __post_init__(self) -> None:
        if self.sites < 2:
            raise ValueError("need at least 2 lattice sites")
        if self.sites % 2 != 0:
            raise ValueError("site count must be even for a symmetric momentum grid")
        if not (0.0 < self.spacing < math.inf):  # NaN fails too
            raise ValueError(
                f"lattice spacing {self.spacing} must be finite and positive")
        if not (0.0 <= self.mass < math.inf):
            raise ValueError(f"mass {self.mass} must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return SPINOR_DIM * self.sites


def momenta(cfg: LatticeConfig) -> np.ndarray:
    """Lattice momenta k_n = 2*pi*n/(N*a), n = -N/2 .. N/2-1, ascending."""
    n = np.arange(-cfg.sites // 2, cfg.sites // 2)
    return 2.0 * np.pi * n / (cfg.sites * cfg.spacing)


def _plane_wave_matrix(cfg: LatticeConfig) -> np.ndarray:
    """Unitary N x N matrix of normalized plane waves, columns by momentum."""
    x = cfg.spacing * np.arange(cfg.sites)
    k = momenta(cfg)
    return np.exp(1j * np.outer(x, k)) / np.sqrt(cfg.sites)


def build_dirac_h0(cfg: LatticeConfig) -> np.ndarray:
    """Free Dirac Hamiltonian in the position basis, exact in momentum space;
    Hermitian by construction and read-only."""
    k = momenta(cfg)
    blocks = k[:, None, None] * SIGMA1[None] + cfg.mass * SIGMA3[None]
    f = _plane_wave_matrix(cfg)
    # H0 = (F (x) 1_2) blockdiag(h0(k_n)) (F (x) 1_2)^dag, contracted directly.
    h = np.einsum("jn,nab,ln->jalb", f, blocks, f.conj(), optimize=True)
    h = h.reshape(cfg.dim, cfg.dim)
    h = 0.5 * (h + h.conj().T)
    h.setflags(write=False)
    return h


def l2_inner(phi, psi, spacing: float) -> complex:
    """Discrete L2 product: lattice-weighted sum over sites and spinors."""
    if phi.shape != psi.shape:
        raise DimensionMismatch(f"state shapes {phi.shape} vs {psi.shape}")
    return complex(spacing * np.vdot(phi, psi))


def l2_norm(psi, spacing: float) -> float:
    return float(np.sqrt(l2_inner(psi, psi, spacing).real))


def normalized(psi, spacing: float) -> np.ndarray:
    return psi / l2_norm(psi, spacing)


def sqrtmh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian square root of an ndarray and its inverse, from one
    ``eigh``. The spectrum must lie above ``SQRT_FLOOR``; NotPositive
    otherwise."""
    vals, vecs = np.linalg.eigh(m)
    if vals.min() <= SQRT_FLOOR:
        raise NotPositive(f"sqrt: smallest eigenvalue {vals.min():.3e}")
    root, vecs_dag = np.sqrt(vals), vecs.conj().T
    return (vecs * root) @ vecs_dag, (vecs / root) @ vecs_dag


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of h0: ascending energies, orthonormal columns,
    and the lattice spacing that weights the states handed out."""

    values: np.ndarray
    vectors: np.ndarray  # columns, unit in the plain product
    spacing: float

    @classmethod
    def of(cls, h0: np.ndarray, spacing: float) -> "EigenSystem":
        vals, vecs = np.linalg.eigh(h0)
        return cls(values=vals, vectors=vecs, spacing=spacing)

    @property
    def positive(self) -> np.ndarray:
        """Indices of the positive branch, ascending in energy."""
        return np.flatnonzero(self.values > 0.0)

    def matrix(self, tau) -> np.ndarray:
        """e^{-i tau h0}; an array of tau gives the stack of maps."""
        phases = np.exp(-1j * np.multiply.outer(tau, self.values))
        return (self.vectors * phases[..., None, :]) @ self.vectors.conj().T

    def state(self, index: int) -> np.ndarray:
        """Eigenstate ``index``, unit in the weighted product."""
        return self.vectors[:, index] / np.sqrt(self.spacing)

    def ground_state(self, convention: str = "positive") -> tuple[float, np.ndarray]:
        """Lowest-energy state under the chosen spectrum convention.

        'positive', the only one, takes the smallest strictly positive
        eigenvalue (the bottom of the positive branch).
        """
        if convention != "positive":
            raise ValueError(f"unknown spectrum convention {convention!r}")
        pos = self.positive
        if pos.size == 0:
            raise NotPositive("spectrum has no positive part")
        i = int(pos[0])
        return float(self.values[i]), self.state(i)

    def positive_projector(self) -> np.ndarray:
        v = self.vectors[:, self.positive]
        return v @ v.conj().T


def require_eigenstate(h0: np.ndarray, psi: np.ndarray, spacing: float) -> float:
    """Return the energy of psi, raising NotEigenstate beyond tolerance."""
    nrm = l2_norm(psi, spacing)
    if nrm == 0.0:
        raise NotEigenstate("zero vector")
    hpsi = h0 @ psi
    e = (l2_inner(psi, hpsi, spacing) / nrm**2).real
    resid = np.sqrt(l2_inner(hpsi - e * psi, hpsi - e * psi, spacing).real) / nrm
    if resid > EIGENSTATE_TOL:
        raise NotEigenstate(f"residual {resid:.3e} exceeds {EIGENSTATE_TOL:.0e}")
    return float(e)
