"""Finite lattice Hilbert space for a 1+1d two-component Dirac model.

The model space is a periodic chain of N sites with two spinor components
per site, total dimension D = 2N. The free Hamiltonian is assembled exactly
in momentum space,

    h0(k) = k*sigma1 + m*sigma3,    k_n = 2*pi*n / (N*a),

and rotated to the position basis with the unitary discrete Fourier
transform. Building h0 spectrally instead of by finite differences keeps the
dispersion exact: the spectrum is {+-sqrt(k_n^2 + m^2)} with no doubling
artifacts, and e^{-i tau h0} is available in closed form for any tau.

States are complex vectors indexed site-major (spinor component fastest).
The discrete L2 product carries the lattice weight a, so a unit-normalized
state has sum_j a*|psi_j|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotEigenstate, NotPositive

SPINOR_DIM = 2

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITIAN_RTOL = 1e-12
DENSITY_HERMITIAN_RTOL = 1e-10
SQRT_FLOOR = 1e-6


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
        if self.spacing <= 0.0:
            raise ValueError("lattice spacing must be positive")
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")

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


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, Operator) else np.asarray(op)


def _as_vector(psi) -> np.ndarray:
    return psi.entries if isinstance(psi, StateVector) else np.asarray(psi)


@dataclass(frozen=True)
class Operator:
    """Dense operator with an optional hermiticity promise.

    When ``hermitian_hint`` is set the constructor checks the promise to
    relative tolerance 1e-12 in the operator infinity norm; matrix functions
    then go through the Hermitian eigendecomposition.
    """

    matrix: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"operator matrix has shape {m.shape}")
        if self.hermitian_hint:
            scale = np.linalg.norm(m, np.inf)
            dev = np.linalg.norm(m - m.conj().T, np.inf)
            if dev > HERMITIAN_RTOL * max(scale, 1.0):
                raise ValueError(
                    f"hermitian_hint set but |M - M^dag| = {dev:.3e} "
                    f"exceeds {HERMITIAN_RTOL:.0e} * {scale:.3e}"
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateVector:
    """State with a picture tag: 'psi' (untransformed) or 'psi_tilde'."""

    entries: np.ndarray
    picture: str = "psi"

    def __post_init__(self) -> None:
        v = np.asarray(self.entries, dtype=complex)
        if v.ndim != 1:
            raise DimensionMismatch(f"state entries have shape {v.shape}")
        if self.picture not in ("psi", "psi_tilde"):
            raise ValueError(f"unknown picture {self.picture!r}")
        v.setflags(write=False)
        object.__setattr__(self, "entries", v)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian density matrix; hermiticity checked to 1e-10 relative."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix has shape {m.shape}")
        scale = max(np.linalg.norm(m, np.inf), 1e-300)
        dev = np.linalg.norm(m - m.conj().T, np.inf)
        if dev > DENSITY_HERMITIAN_RTOL * scale:
            raise ValueError(
                f"density matrix not hermitian: relative deviation {dev / scale:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_dirac_h0(cfg: LatticeConfig) -> Operator:
    """Free Dirac Hamiltonian in the position basis, exact in momentum space."""
    k = momenta(cfg)
    blocks = k[:, None, None] * SIGMA1[None] + cfg.mass * SIGMA3[None]
    f = _plane_wave_matrix(cfg)
    # H0 = (F (x) 1_2) blockdiag(h0(k_n)) (F (x) 1_2)^dag, contracted directly.
    h = np.einsum("jn,nab,ln->jalb", f, blocks, f.conj(), optimize=True)
    h = h.reshape(cfg.dim, cfg.dim)
    h = 0.5 * (h + h.conj().T)
    return Operator(h, hermitian_hint=True)


def translation_operator(cfg: LatticeConfig) -> Operator:
    """Cyclic shift by one site, acting trivially on the spinor index."""
    shift = np.roll(np.eye(cfg.sites), 1, axis=0)
    return Operator(np.kron(shift, np.eye(SPINOR_DIM)).astype(complex))


def dirac_spectrum(cfg: LatticeConfig) -> np.ndarray:
    """Exact eigenvalues {+-sqrt(k_n^2 + m^2)}, ascending."""
    k = momenta(cfg)
    e = np.sqrt(k**2 + cfg.mass**2)
    return np.sort(np.concatenate([-e, e]))


def l2_inner(phi, psi, spacing: float) -> complex:
    """Discrete L2 product: lattice-weighted sum over sites and spinors."""
    a = _as_vector(phi)
    b = _as_vector(psi)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes {a.shape} vs {b.shape}")
    return complex(spacing * np.vdot(a, b))


def l2_norm(psi, spacing: float) -> float:
    return float(np.sqrt(l2_inner(psi, psi, spacing).real))


def normalized(psi, spacing: float) -> np.ndarray:
    v = _as_vector(psi)
    return v / l2_norm(v, spacing)


class FreePropagator:
    """Cached spectral data of h0; e^{-i tau h0} in closed form for any tau."""

    def __init__(self, h0) -> None:
        m = _as_matrix(h0)
        self.h0 = m
        self.evals, self.evecs = np.linalg.eigh(m)

    def matrix(self, tau) -> np.ndarray:
        """e^{-i tau h0}; an array of tau gives the stack of maps."""
        phases = np.exp(-1j * np.multiply.outer(tau, self.evals))
        return (self.evecs * phases[..., None, :]) @ self.evecs.conj().T


def matrix_function(op, kind: str, theta: float | None = None,
                    floor: float = SQRT_FLOOR) -> Operator:
    """sqrt, inv_sqrt, or exp_scaled of an operator.

    ``exp_scaled`` returns e^{i*theta*op}. Square roots require a Hermitian
    operator with spectrum above ``floor`` and raise NotPositive otherwise.
    Hermitian inputs go through the eigendecomposition; exp_scaled of a
    non-Hermitian operator falls back to scipy's expm.
    """
    m = _as_matrix(op)
    hermitian = op.hermitian_hint if isinstance(op, Operator) else (
        np.linalg.norm(m - m.conj().T, np.inf)
        <= HERMITIAN_RTOL * max(np.linalg.norm(m, np.inf), 1.0)
    )
    if kind == "exp_scaled":
        if theta is None:
            raise ValueError("exp_scaled needs theta")
        if hermitian:
            vals, vecs = np.linalg.eigh(m)
            out = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
        else:
            from scipy.linalg import expm

            out = expm(1j * theta * m)
        return Operator(out)
    if kind in ("sqrt", "inv_sqrt"):
        if not hermitian:
            raise NotPositive(f"{kind} of a non-hermitian operator")
        vals, vecs = np.linalg.eigh(m)
        if vals.min() <= floor:
            raise NotPositive(
                f"{kind}: smallest eigenvalue {vals.min():.3e} at floor {floor:.0e}"
            )
        f = np.sqrt(vals) if kind == "sqrt" else 1.0 / np.sqrt(vals)
        return Operator((vecs * f) @ vecs.conj().T, hermitian_hint=True)
    raise ValueError(f"unknown matrix function {kind!r}")


def sqrtmh(m: np.ndarray, floor: float = SQRT_FLOOR) -> np.ndarray:
    """Hermitian square root of an ndarray, same floor contract as above."""
    vals, vecs = np.linalg.eigh(m)
    if vals.min() <= floor:
        raise NotPositive(f"sqrt: smallest eigenvalue {vals.min():.3e}")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def inv_sqrtmh(m: np.ndarray, floor: float = SQRT_FLOOR) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() <= floor:
        raise NotPositive(f"inv_sqrt: smallest eigenvalue {vals.min():.3e}")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of h0 with energy-ordered access helpers."""

    values: np.ndarray
    vectors: np.ndarray  # columns
    spacing: float

    @classmethod
    def of(cls, h0, spacing: float) -> "EigenSystem":
        vals, vecs = np.linalg.eigh(_as_matrix(h0))
        # normalize in the weighted product so eigenstates are unit states
        vecs = vecs / np.sqrt(spacing)
        return cls(values=vals, vectors=vecs, spacing=spacing)

    def state(self, index: int) -> np.ndarray:
        return self.vectors[:, index].copy()

    def ground_state(self, convention: str = "global") -> tuple[float, np.ndarray]:
        """Lowest-energy state under the chosen spectrum convention.

        'global' takes the minimum of the full spectrum; 'positive' takes
        the smallest strictly positive eigenvalue (the bottom of the
        positive branch).
        """
        if convention == "global":
            i = int(np.argmin(self.values))
        elif convention == "positive":
            pos = np.where(self.values > 0.0)[0]
            if pos.size == 0:
                raise NotPositive("spectrum has no positive part")
            i = int(pos[np.argmin(self.values[pos])])
        else:
            raise ValueError(f"unknown spectrum convention {convention!r}")
        return float(self.values[i]), self.state(i)

    def positive_projector(self) -> np.ndarray:
        sel = self.values > 0.0
        v = self.vectors[:, sel] * np.sqrt(self.spacing)
        return v @ v.conj().T


def require_eigenstate(h0, psi, spacing: float, tol: float = 1e-8) -> float:
    """Return the energy of psi, raising NotEigenstate beyond tolerance."""
    m = _as_matrix(h0)
    v = _as_vector(psi)
    nrm = l2_norm(v, spacing)
    if nrm == 0.0:
        raise NotEigenstate("zero vector")
    e = (l2_inner(v, m @ v, spacing) / nrm**2).real
    resid = np.sqrt(l2_inner(m @ v - e * v, m @ v - e * v, spacing).real) / nrm
    if resid > tol:
        raise NotEigenstate(f"residual {resid:.3e} exceeds {tol:.0e}")
    return float(e)
