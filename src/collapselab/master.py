"""Deterministic mean dynamics: double-commutator and GKSL master equations.

Pairing the stochastic fields of the linearized transformed dynamics gives a
closed equation for the mean density,

    d sigma/dt = -i [h0, sigma]
                 - sum_a int dz int_0^inf dv [M_a(z), [M_a(z - v), sigma]],

whose discretization here is matched to the half-step field grid: z runs
over the difference grid with weight dt, v over the doubled grid 0, 2dt,
4dt, ... with weight 2dt and half weight at v = 0. With that choice the
equation is the exact expectation of the Monte Carlo stepping, not merely a
continuum limit of it. The standard GKSL equation with explicit jump
operators is implemented alongside for the heating contrast.

The mean-drift operator A (minus the single-pair sum M(z) M(z - v)) and the
field-energy pairing B (which comes out exactly anti-Hermitian) are the two
operators whose structure carries the no-heating argument.

Both equations are linear and time independent, so ``integrate`` takes the
right-hand side once as a (D^2, D^2) Liouvillian on the flattened density
and steps RK4 as one precomputed propagator; ``cfs_rhs`` and ``gksl_rhs``
remain the stagewise reference.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelOperatorSet, _require_finite
from .errors import ConfigError, StepRejected
from .grids import TimeGrid
from .lattice import require_eigenstate

HERM_CORRECTION_LIMIT = 1e-6

CFS_KIND = "cfs_double_commutator"
GKSL_KIND = "standard_gksl"


def _pair_stacks(opset: ChannelOperatorSet, nu_step: int):
    """Concatenated (weighted left factor, right factor) stacks of the
    symmetrized channel operators over all channels and all (z, v)
    quadrature pairs, plus the summed drift G = sum w M(z) M(z - v) so that
    A = -G."""
    stack = opset.sym
    k = opset.half_width
    dt = opset.dt
    # pairs (z, z - v) with z = d dt and v = 2 f dt, f = 0, nu_step, ... while
    # z - v stays on the grid, ordered by channel, then d, then f
    d, f = np.meshgrid(np.arange(-k, k + 1), np.arange(0, k + 1, nu_step),
                       indexing="ij")
    keep = d - 2 * f >= -k
    d, f = d[keep], f[keep]
    w_nu = np.where(f == 0, dt * nu_step, 2.0 * dt * nu_step)
    dim = stack.shape[-1]
    left = ((dt * w_nu)[:, None, None] * stack[:, d + k]).reshape(-1, dim, dim)
    right = stack[:, d - 2 * f + k].reshape(-1, dim, dim)
    return left, right, np.einsum("pab,pbc->ac", left, right)


def _cross_superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The sigma-independent part of sum_p L_p sigma R_p as a (D^2, D^2)
    matrix acting on sigma flattened row-major.

    Built with the same GEMM and copies that numpy's optimized
    ``einsum("pab,bc,pcd->ad")`` runs for the pair counts of the presets,
    so applying it reproduces that einsum bit for bit.
    """
    p, dim = left.shape[:2]
    sup = right.reshape(p, dim * dim).T @ left.reshape(p, dim * dim)
    # sup[(c, d), (a, b)] -> cross[(a, d), (b, c)]
    return sup.reshape(dim, dim, dim, dim).transpose(2, 1, 3, 0).reshape(
        dim * dim, dim * dim)


class LindbladSpec:
    """One master-equation right-hand side, fully precomputed.

    Build with :meth:`cfs` (double-commutator variant over the symmetrized
    stack of a channel operator set) or :meth:`gksl` (explicit jump
    operators).
    """

    def __init__(self, h0: np.ndarray, kind, *, opset=None, nu_step=1,
                 jumps=()):
        self.h0 = h0
        self.kind = kind
        self.opset = opset
        self.nu_step = nu_step
        self.jumps = tuple(np.asarray(j, dtype=complex) for j in jumps)
        _require_finite("master equation h0", self.h0)
        if kind == CFS_KIND:
            _require_finite("master equation channel operator stack", opset.sym)
            left, right, self.drift = _pair_stacks(opset, nu_step)
            self._cross = _cross_superoperator(left, right)
        elif kind == GKSL_KIND:
            for j in self.jumps:
                if j.shape != self.h0.shape:
                    raise ConfigError("jump operator shape differs from h0")
                _require_finite("master equation jump operator", j)
            self._kappa = sum(
                (j.conj().T @ j for j in self.jumps),
                np.zeros_like(self.h0),
            )
        else:
            raise ConfigError(f"unknown master-equation kind {kind!r}")

    @classmethod
    def cfs(cls, h0: np.ndarray, opset: ChannelOperatorSet, *,
            nu_step=1) -> "LindbladSpec":
        return cls(h0, CFS_KIND, opset=opset, nu_step=nu_step)

    @classmethod
    def gksl(cls, h0: np.ndarray, jumps) -> "LindbladSpec":
        return cls(h0, GKSL_KIND, jumps=jumps)


def compute_A(opset: ChannelOperatorSet) -> np.ndarray:
    """The mean-drift operator

        A = - sum_a int dz int_0^inf dv M_a(z) M_a(z - v)

    on the matched quadrature. Time independent by construction (the
    stacks carry no absolute time), so there is no t argument to pass.
    """
    _, _, drift = _pair_stacks(opset, 1)
    return -drift


def compute_B(opset: ChannelOperatorSet) -> np.ndarray:
    """The field-energy pairing operator

        B = 2i int dz M(z)^2  (per channel, summed),

    the equal-midpoint contraction of the two field integrals in the energy
    drift. Exactly i times a Hermitian operator, hence B + B^dag = 0 up to
    roundoff; that vanishing is the no-heating mechanism.
    """
    sq = np.einsum("pqab,pqbc->ac", opset.sym, opset.sym)
    return 2j * opset.dt * sq


def cfs_rhs(sigma: np.ndarray, spec: LindbladSpec) -> np.ndarray:
    """Right-hand side of the double-commutator equation at sigma.

    Traceless and Hermitian exactly (up to roundoff) for Hermitian sigma;
    positivity of sigma is not protected and is only monitored during
    integration.
    """
    out = -1j * (spec.h0 @ sigma - sigma @ spec.h0)
    a_op = -spec.drift
    out += a_op @ sigma + sigma @ a_op.conj().T
    dim = sigma.shape[0]
    cross = (spec._cross @ sigma.reshape(dim * dim, 1)).reshape(dim, dim)
    out += cross + cross.conj().T
    return out


def gksl_rhs(sigma: np.ndarray, spec: LindbladSpec) -> np.ndarray:
    """Right-hand side of the standard GKSL equation,

        -i[h0, sigma] - sum_k (L^dag L sigma - 2 L sigma L^dag + sigma L^dag L),

    in the trace-preserving operator ordering (the coefficient convention
    keeps the factor 2 on the sandwich term)."""
    out = -1j * (spec.h0 @ sigma - sigma @ spec.h0)
    out -= spec._kappa @ sigma + sigma @ spec._kappa
    for j in spec.jumps:
        out += 2.0 * (j @ sigma @ j.conj().T)
    return out


def master_rhs(sigma, spec: LindbladSpec) -> np.ndarray:
    if spec.kind == CFS_KIND:
        return cfs_rhs(sigma, spec)
    return gksl_rhs(sigma, spec)


def _liouvillian(spec: LindbladSpec) -> np.ndarray:
    """The right-hand side of ``master_rhs`` as a (D^2, D^2) matrix L on
    sigma flattened row-major, exact for Hermitian sigma.

    Row-major, vec(A sigma B) = (A kron B^T) vec(sigma). The adjoint term
    (X sigma)^dag of the cfs variant is antilinear in sigma; on Hermitian
    sigma it is the linear Pi conj(X) Pi, Pi the transposition of the
    flattened indices, so L maps Hermitian densities to Hermitian ones.
    """
    dim = spec.h0.shape[0]
    eye = np.eye(dim)
    if spec.kind == CFS_KIND:
        left = -spec.drift  # sigma -> A sigma + sigma A^dag, A = -G
        right = left.conj().T
        out = spec._cross + spec._cross.conj().reshape(dim, dim, dim, dim).transpose(
            1, 0, 3, 2).reshape(dim * dim, dim * dim)
    else:
        left = right = -spec._kappa
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        for j in spec.jumps:
            out += 2.0 * np.kron(j, j.conj())
    free = -1j * spec.h0
    out += np.kron(free + left, eye) + np.kron(eye, (right - free).T)
    return out


class MasterTrajectory:
    """Integrated density trajectory with its per-step health diagnostics."""

    def __init__(self, times, sigmas, trace_drift, herm_correction,
                 min_eigenvalue):
        self.times = times
        self.sigmas = sigmas
        self.trace_drift = trace_drift
        self.herm_correction = herm_correction
        self.min_eigenvalue = min_eigenvalue

    @property
    def max_trace_drift(self) -> float:
        return float(np.max(self.trace_drift))


def integrate(sigma0: np.ndarray, spec: LindbladSpec,
              grid: TimeGrid) -> MasterTrajectory:
    """Classical RK4 integration of the chosen master equation on the grid.

    The equation is linear and time independent, so one RK4 step is the
    fixed polynomial P = I + hL(I + hL/2(I + hL/3(I + hL/4))) of its
    Liouvillian L (``_liouvillian``), built once; each step is the one
    mat-vec P vec(sigma). Each step re-symmetrizes the density and records
    the size of that correction; a correction beyond 1e-6 raises
    StepRejected since it means the step size no longer resolves the flow,
    and so does a non-finite one.
    The minimum eigenvalue of every step is recorded; for the
    double-commutator variant a negative value is expected behavior, not an
    error.
    """
    s = sigma0
    tr = complex(np.trace(s))
    if abs(tr - 1.0) > 1e-10:
        raise ConfigError(f"initial density has trace {tr:.3e}, expected 1")
    n = grid.n_nodes
    dim = s.shape[0]
    sigmas = np.empty((n, dim, dim), dtype=complex)
    trace_drift = np.empty(n)
    herm_corr = np.empty(n)
    min_eig = np.empty(n)
    sigmas[0] = s
    trace_drift[0] = abs(np.trace(s) - 1.0)
    herm_corr[0] = 0.0
    min_eig[0] = float(np.linalg.eigvalsh(s)[0])
    step = grid.dt * _liouvillian(spec)
    one = np.eye(dim * dim)
    prop = one + step / 4.0
    for k in (3.0, 2.0, 1.0):
        prop = one + (step / k) @ prop
    for i in range(1, n):
        s = (prop @ s.reshape(dim * dim)).reshape(dim, dim)
        dev = float(np.abs(s - s.conj().T).max())
        if not dev <= HERM_CORRECTION_LIMIT:  # NaN fails too
            raise StepRejected(
                f"hermiticity correction {dev:.3e} at step {i} exceeds "
                f"{HERM_CORRECTION_LIMIT}")
        s = 0.5 * (s + s.conj().T)
        sigmas[i] = s
        herm_corr[i] = dev
        trace_drift[i] = abs(np.trace(s) - 1.0)
        min_eig[i] = float(np.linalg.eigvalsh(s)[0])
    return MasterTrajectory(grid.times, sigmas, trace_drift, herm_corr, min_eig)


def pure_density(psi: np.ndarray, spacing: float) -> np.ndarray:
    """Rank-one density from a state normalized in the weighted product."""
    return spacing * np.outer(psi, psi.conj())


def heating_rate_standard(psi: np.ndarray, spec: LindbladSpec,
                          spacing: float) -> float:
    """Energy drift rate d/dt <H0> for an H0-eigenstate under the GKSL flow:

        2 sum_k <L psi | (H0 - E) L psi>.

    Nonnegative whenever E is the bottom of the spectrum of H0 restricted
    to the subspace the jumps act within.
    """
    if spec.kind != GKSL_KIND:
        raise ConfigError("heating_rate_standard needs a standard_gksl spec")
    energy = require_eigenstate(spec.h0, psi, spacing)
    rate = 0.0
    for j in spec.jumps:
        jv = j @ psi
        rate += 2.0 * spacing * float(
            (np.vdot(jv, spec.h0 @ jv) - energy * np.vdot(jv, jv)).real)
    return rate


def heating_rate_cfs(sigma: np.ndarray, spec: LindbladSpec) -> tuple[float, float]:
    """Instantaneous d/dt Tr(H0 sigma) under the double-commutator flow.

    Returns the rate and a quadrature sensitivity estimate obtained by
    coarsening the v grid by a factor two; the free part contributes
    nothing by cyclicity.
    """
    if spec.kind != CFS_KIND:
        raise ConfigError("heating_rate_cfs needs a cfs_double_commutator spec")
    rate = float(np.trace(spec.h0 @ cfs_rhs(sigma, spec)).real)
    coarse = LindbladSpec.cfs(spec.h0, spec.opset, nu_step=2 * spec.nu_step)
    rate_coarse = float(np.trace(spec.h0 @ cfs_rhs(sigma, coarse)).real)
    return rate, abs(rate - rate_coarse)


def csl_jump_operators(channels, projector: np.ndarray | None = None,
                       ) -> list[np.ndarray]:
    """Jump operators for the CSL-style comparison at matched coupling.

    Unit-integral kernels pair to 1/2 over the half plane, so lambda/2
    times the spatial operator reproduces the channel's diffusion strength
    at leading order in the kernel width.

    The textbook heating argument needs a Hamiltonian bounded from below,
    which the Dirac operator is not. Passing the positive-spectrum
    projector sandwiches each jump operator so the comparison dynamics
    never couples to the negative branch; that is the usual convention of
    discarding the negative-energy states. Left unprojected, the energy
    pumped into the positive branch is compensated by transfer out of the
    negative one and the net rate on a one-particle eigenstate cancels.
    """
    ops = [0.5 * ch.amplitude * ch.spatial_op for ch in channels]
    if projector is not None:
        ops = [projector @ op @ projector for op in ops]
    return ops
