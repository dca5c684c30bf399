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
operators is the heating contrast.

Both equations take one form,

    d sigma/dt = -i [h0, sigma] + K sigma + sigma K^dag + X(sigma) + X(sigma)^dag,

with K = A and X the pair sum over (z, v) for the double-commutator
equation, and K = -sum L^dag L and X(sigma) = sum L sigma L^dag for GKSL.
The mean-drift operator A (minus the single-pair sum M(z) M(z - v)) and the
field-energy pairing B (which comes out exactly anti-Hermitian) are the two
operators whose structure carries the no-heating argument.

Both equations are linear and time independent, so a ``LindbladSpec`` is
its right-hand side as one (D^2, D^2) Liouvillian on the flattened density,
and ``integrate`` steps RK4 with it as one precomputed propagator.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelOperatorSet, _require_finite
from .errors import ConfigError, StepRejected
from .grids import TimeGrid
from .lattice import require_eigenstate

HERM_CORRECTION_LIMIT = 1e-6

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
    """One master equation of the module's form, held as its Liouvillian.

    ``liouvillian`` is the whole right-hand side for the drift K and the
    cross term X (a (D^2, D^2) matrix on sigma flattened row-major); build
    with :meth:`cfs` or :meth:`gksl`. Row-major, vec(A sigma B) =
    (A kron B^T) vec(sigma). The adjoint term X(sigma)^dag is antilinear in
    sigma; on Hermitian sigma it is the linear Pi conj(X) Pi, Pi the
    transposition of the flattened indices, so L maps Hermitian densities
    to Hermitian ones.
    """

    def __init__(self, h0: np.ndarray, drift: np.ndarray, cross: np.ndarray):
        _require_finite("master equation h0", h0)
        dim = h0.shape[0]
        eye = np.eye(dim)
        free = -1j * h0
        out = cross + cross.conj().reshape(dim, dim, dim, dim).transpose(
            1, 0, 3, 2).reshape(dim * dim, dim * dim)
        out += np.kron(free + drift, eye) + np.kron(eye, (drift.conj().T - free).T)
        self.liouvillian = out

    @classmethod
    def cfs(cls, h0: np.ndarray, opset: ChannelOperatorSet, *,
            nu_step=1) -> "LindbladSpec":
        """K = A = -G and X = sum_p L_p sigma R_p over the quadrature pairs."""
        _require_finite("master equation channel operator stack", opset.sym)
        left, right, drift = _pair_stacks(opset, nu_step)
        return cls(h0, -drift, _cross_superoperator(left, right))

    @classmethod
    def gksl(cls, h0: np.ndarray, jumps) -> "LindbladSpec":
        """K = -sum_k L_k^dag L_k and X = sum_k L_k sigma L_k^dag."""
        jumps = [np.asarray(j, dtype=complex) for j in jumps]
        for j in jumps:
            if j.shape != h0.shape:
                raise ConfigError("jump operator shape differs from h0")
            _require_finite("master equation jump operator", j)
        dim = h0.shape[0]
        kappa = sum((j.conj().T @ j for j in jumps), np.zeros_like(h0))
        cross = sum((np.kron(j, j.conj()) for j in jumps),
                    np.zeros((dim * dim, dim * dim), dtype=complex))
        return cls(h0, -kappa, cross)

    def rhs(self, sigma: np.ndarray) -> np.ndarray:
        """The right-hand side at a Hermitian sigma, as one mat-vec."""
        dim = sigma.shape[0]
        return (self.liouvillian @ sigma.reshape(dim * dim)).reshape(dim, dim)


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
    Liouvillian L (``spec.liouvillian``), built once; each step is the one
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
    if not abs(tr - 1.0) <= 1e-10:  # NaN fails too
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
    step = grid.dt * spec.liouvillian
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


def heating_rate_standard(psi: np.ndarray, h0: np.ndarray, jumps,
                          spacing: float) -> float:
    """Energy drift rate d/dt <H0> for an H0-eigenstate under the GKSL flow:

        2 sum_k <L psi | (H0 - E) L psi>.

    Nonnegative whenever E is the bottom of the spectrum of H0 restricted
    to the subspace the jumps act within.
    """
    energy = require_eigenstate(h0, psi, spacing)
    rate = 0.0
    for j in jumps:
        jv = j @ psi
        rate += 2.0 * spacing * float(
            (np.vdot(jv, h0 @ jv) - energy * np.vdot(jv, jv)).real)
    return rate


def heating_rate_cfs(sigma: np.ndarray, h0: np.ndarray,
                     opset: ChannelOperatorSet) -> tuple[float, float]:
    """Instantaneous d/dt Tr(H0 sigma) under the double-commutator flow.

    Returns the rate and a quadrature sensitivity estimate obtained by
    coarsening the v grid by a factor two; the free part contributes
    nothing by cyclicity.
    """
    rate, rate_coarse = (
        float(np.trace(h0 @ LindbladSpec.cfs(h0, opset, nu_step=nu).rhs(sigma)).real)
        for nu in (1, 2))
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
