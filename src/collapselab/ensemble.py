"""Monte Carlo ensembles over field realizations and their statistics.

Two routes produce per-realization trajectories. The transformed route
steps psi_tilde with the midpoint exponential of h0 plus the linearized
transformed interaction; the field lives on the half-step grid, so the
interaction at step midpoints is supported exactly and the ensemble mean
follows the matched double-commutator equation by construction. The
exponential is applied to the state as a truncated Taylor series of batched
mat-vecs (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), never formed:
each realization takes its own degree from its own bound theta = dt times
the 1-norm of its generator, keeping terms until theta^(m+1)/(m+1)! <= 2^-53,
and splits steps with theta > 0.5 into ceil(theta / 0.5) sub-steps. A
non-finite generator raises StepRejected naming the realization and step.
The untransformed route solves the nonlocal equation per realization and
evaluates surface corrections node by node; it is far slower and is meant
for small ensembles that compare the two pictures on the same field path.

Reproducibility contract: realization r draws its field from the seed
sequence [master seed, r] (NumPy SeedSequence, NEP 19), so distinct master
seeds give independent ensembles; realizations are processed in fixed
blocks of 256, each block's partial sums are computed sequentially inside
one task, and block partials are combined in block order. Results are
therefore bit-identical for a given seed no matter how many workers run
(COLLAPSELAB_WORKERS, default 1).
A failed realization aborts the whole ensemble with its index attached;
resampling would condition the ensemble on solver success and bias means.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ChannelOperatorSet,
    InteractionChannel,
    build_channel_operators,
    sample_noise,
)
from .errors import (
    CollapseLabError,
    ConfigError,
    PictureNotRecorded,
    ScenarioViolation,
    StepRejected,
)
from .evolution import (
    _expansion_interaction,
    equal_time_hamiltonian,
    solve_nonlocal,
    surface_correction,
)
from .grids import TimeGrid, Window
from .lattice import _as_matrix, _as_vector, sqrtmh

BLOCK = 256
_TAYLOR_TOL = 2.0**-53  # truncation bound theta^(m+1)/(m+1)! of one sub-step
_SUBSTEP_THETA = 0.5  # largest theta stepped without splitting
WORKER_ENV = "COLLAPSELAB_WORKERS"

PICTURES = ("transformed", "untransformed", "both")


def worker_count() -> int:
    raw = os.environ.get(WORKER_ENV, "1")
    try:
        count = int(raw)
    except ValueError as err:
        raise ConfigError(f"{WORKER_ENV}={raw!r} is not an integer") from err
    if count < 1:
        raise ConfigError(f"{WORKER_ENV} must be >= 1, got {count}")
    return count


@dataclass
class ModelSetup:
    """Shared physical configuration for every realization of a run."""

    grid: TimeGrid
    h0: np.ndarray
    spacing: float
    channels: tuple[InteractionChannel, ...]
    which: str = "sym"

    def __post_init__(self):
        self.h0 = _as_matrix(self.h0)
        self.channels = tuple(self.channels)
        self._opset: ChannelOperatorSet | None = None

    @property
    def opset(self) -> ChannelOperatorSet:
        if self._opset is None:
            self._opset = build_channel_operators(
                list(self.channels), self.h0, self.grid.dt)
        return self._opset

    @property
    def ell_min(self) -> float:
        return min(ch.profile.ell_min for ch in self.channels)


@dataclass(frozen=True)
class EnsembleConfig:
    """Run parameters: size, seeding, picture, and what to record."""

    realizations: int
    seed: int
    picture: str = "transformed"
    observables: tuple[tuple[str, np.ndarray], ...] = ()
    t_on: float | None = None
    t_off: float | None = None
    ramp: float = 0.0
    checkpoints: int = 9
    branch_states: tuple | None = None

    def __post_init__(self):
        if self.realizations < 2:
            raise ConfigError("an ensemble needs at least 2 realizations")
        if self.picture not in PICTURES:
            raise ConfigError(f"unknown picture {self.picture!r}")

    def window(self, grid: TimeGrid) -> Window:
        if self.t_on is None and self.t_off is None:
            return Window.flat()
        t_on = grid.t0 if self.t_on is None else self.t_on
        t_off = grid.t1 if self.t_off is None else self.t_off
        return Window(t_on=t_on, t_off=t_off, ramp=self.ramp)


class EnsembleStats:
    """Recorded series and reductions of one ensemble run.

    Per-observable raw series are kept per realization so that variance
    diagnostics and resampling checks can be done after the fact without
    rerunning. Mean densities are accumulated only on checkpoint nodes.
    """

    def __init__(self, times, picture, checkpoint_nodes):
        self.times = times
        self.picture = picture
        self.checkpoint_nodes = checkpoint_nodes
        self.observables: dict[str, dict[str, np.ndarray]] = {}
        self.energy: dict[str, np.ndarray] = {}
        self.norm: dict[str, np.ndarray] = {}
        self.sigma_mean: np.ndarray | None = None
        self.sigma_stderr: np.ndarray | None = None
        self.branch_weights: np.ndarray | None = None
        self.meta: dict = {}

    @property
    def realizations(self) -> int:
        for series in self.energy.values():
            return series.shape[0]
        raise CollapseLabError("empty stats object")

    def digest(self) -> str:
        """Order-stable content hash used by the determinism checks."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.times).tobytes())
        for label in sorted(self.observables):
            for key in sorted(self.observables[label]):
                h.update(label.encode())
                h.update(key.encode())
                h.update(np.ascontiguousarray(self.observables[label][key]).tobytes())
        for key in sorted(self.energy):
            h.update(np.ascontiguousarray(self.energy[key]).tobytes())
        for key in sorted(self.norm):
            h.update(np.ascontiguousarray(self.norm[key]).tobytes())
        for arr in (self.sigma_mean, self.sigma_stderr, self.branch_weights):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _blocks(total: int) -> list[range]:
    return [range(lo, min(lo + BLOCK, total)) for lo in range(0, total, BLOCK)]


def _checkpoint_nodes(n: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, max(2, min(count, n))).round().astype(int))


def _run_blocks(task, count: int) -> None:
    """Call task(i) for every block index, serially or on worker threads."""
    workers = worker_count()
    if workers == 1:
        for i in range(count):
            task(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, range(count)))


def _noise_tables(model: ModelSetup, window: Window, seed: int, rows: range,
                  pad: int) -> np.ndarray:
    """Half-grid field tables of the given realizations, one row set each,
    zero-padded by `pad` half-steps at both ends."""
    grid = model.grid
    m = 2 * (grid.n_nodes - 1) + 1
    out = np.zeros((len(rows), len(model.channels), m + 2 * pad))
    for i, r in enumerate(rows):
        noise = sample_noise(list(model.channels), grid, [seed, r], window=window)
        out[i, :, pad : pad + m] = noise.table(grid.t0, 0.5 * grid.dt, m)
    return out


def _expm_action(gen: np.ndarray, psi: np.ndarray, dt: float, rows: range,
                 step: int) -> np.ndarray:
    """exp(-i dt gen_r) psi_r for every row r of a batch of Hermitian gen.

    Row r bounds its exponent by theta_r = dt ||gen_r||_1, takes
    s_r = ceil(theta_r / _SUBSTEP_THETA) sub-steps and sums each one's
    Taylor series up to the first degree m with
    (theta_r / s_r)^(m+1) / (m+1)! <= _TAYLOR_TOL. Terms and sub-steps past
    a row's own count are masked out, so its bits never depend on the other
    rows of the batch. `rows` and `step` only name a failing realization in
    the StepRejected raised for a non-finite bound.
    """
    theta = dt * np.abs(gen).sum(axis=1).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        r = bad[0]
        raise StepRejected(f"realization {rows[r]}, step {step}: "
                           f"non-finite step bound theta = {theta[r]}")
    subs = np.maximum(np.ceil(theta / _SUBSTEP_THETA), 1.0)
    theta_sub = theta / subs
    degree = np.zeros(theta.size, dtype=int)
    tail = theta_sub.copy()  # theta_sub^(m+1) / (m+1)! at order m
    m = 0
    while (tail > _TAYLOR_TOL).any():
        degree += tail > _TAYLOR_TOL
        m += 1
        tail = tail * theta_sub / (m + 1)
    coef = (-1j * dt / subs)[:, None]
    for i in range(int(subs.max())):
        live = (subs > i)[:, None]
        term = psi
        acc = psi.copy()
        for k in range(1, degree.max() + 1):
            term = (gen @ term[:, :, None])[:, :, 0] * (coef / k)
            np.add(acc, term, out=acc, where=live & (degree >= k)[:, None])
        psi = acc
    return psi


class _TransformedRun:
    """Batched stepping of the linearized transformed dynamics."""

    def __init__(self, model: ModelSetup, cfg: EnsembleConfig, psi0):
        self.model = model
        self.cfg = cfg
        self.psi0 = np.asarray(_as_vector(psi0), dtype=complex)
        self.window = cfg.window(model.grid)
        opset = model.opset
        self.k = opset.half_width
        stack = opset.stack(model.which)
        # the dt-scaled stack as a real (A*(2K+1), 2*D*D) matrix: W is one GEMM
        self.wflat = (model.grid.dt * stack).reshape(
            stack.shape[0] * stack.shape[1], -1).view(np.float64)
        n = model.grid.n_nodes
        d_off = np.arange(-self.k, self.k + 1)
        self.pad = self.k + 1
        # half-grid indices of (t_j + t_{j+1})/2 - zeta/2 and t_j - zeta/2
        self.mid_idx = (2 * np.arange(n - 1)[:, None] + 1 - d_off[None, :]) + self.pad
        self.node_idx = (2 * np.arange(n)[:, None] - d_off[None, :]) + self.pad
        self.obs = [(label, _as_matrix(op)) for label, op in cfg.observables]
        self.obs_sq = [(label, op @ op) for label, op in self.obs]
        self.branches = None
        if cfg.branch_states is not None:
            self.branches = np.stack([
                np.asarray(_as_vector(b), dtype=complex) for b in cfg.branch_states])

    def _interaction(self, tables_pad, idx_row) -> np.ndarray:
        w = tables_pad[:, :, idx_row]  # (B, A, 2K+1)
        flat = w.reshape(w.shape[0], -1) @ self.wflat
        return flat.view(complex).reshape((-1,) + self.model.h0.shape)

    def block(self, rows: range, stats: EnsembleStats, partials: dict) -> None:
        model = self.model
        grid = model.grid
        n = grid.n_nodes
        dt = grid.dt
        spacing = model.spacing
        pads = _noise_tables(model, self.window, self.cfg.seed, rows, self.pad)
        psi = np.broadcast_to(self.psi0, (len(rows), self.psi0.size)).copy()
        sel = slice(rows.start, rows.stop)
        cp_nodes = stats.checkpoint_nodes
        cp_pos = {int(node): c for c, node in enumerate(cp_nodes)}
        sig_sum = partials["sigma_sum"]
        sig_sq = partials["sigma_sq"]
        for j in range(n):
            w_node = self._interaction(pads, self.node_idx[j])
            h_psi = np.einsum("ab,rb->ra", model.h0, psi) + np.einsum(
                "rab,rb->ra", w_node, psi)
            stats.energy["transformed"][sel, j] = spacing * np.einsum(
                "rb,rb->r", psi.conj(), h_psi).real
            stats.norm["transformed"][sel, j] = spacing * np.einsum(
                "rb,rb->r", psi.conj(), psi).real
            for (label, op), (_, op2) in zip(self.obs, self.obs_sq):
                rec = stats.observables[label]
                o_psi = np.einsum("ab,rb->ra", op, psi)
                rec["transformed"][sel, j] = spacing * np.einsum(
                    "rb,rb->r", psi.conj(), o_psi).real
                rec["square"][sel, j] = spacing * np.einsum(
                    "rb,rb->r", psi.conj(), np.einsum("ab,rb->ra", op2, psi)).real
                w_o = np.einsum("rab,rb->ra", w_node, o_psi)
                o_w = np.einsum("ab,rb->ra", op,
                                np.einsum("rab,rb->ra", w_node, psi))
                comm = spacing * np.einsum("rb,rb->r", psi.conj(), w_o - o_w)
                rec["c12"][sel, j] = np.abs(comm) ** 2
            if self.branches is not None:
                amp = spacing * np.einsum("kb,rb->rk", self.branches.conj(), psi)
                stats.branch_weights[sel, j] = np.abs(amp) ** 2
            if j in cp_pos:
                c = cp_pos[j]
                outer = spacing * np.einsum("rb,rc->rbc", psi, psi.conj())
                sig_sum[c] += outer.sum(axis=0)
                sig_sq[c] += (outer.real**2 + 1j * outer.imag**2).sum(axis=0)
            if j < n - 1:
                gen = self._interaction(pads, self.mid_idx[j]) + model.h0[None]
                psi = _expm_action(gen, psi, dt, rows, j)


def _solver_block(model: ModelSetup, cfg: EnsembleConfig, psi0, rows: range,
                  stats: EnsembleStats, partials: dict, window: Window,
                  record_transformed: bool) -> None:
    grid = model.grid
    n = grid.n_nodes
    spacing = model.spacing
    eye = np.eye(model.h0.shape[0])
    obs = [(label, _as_matrix(op)) for label, op in cfg.observables]
    cp_pos = {int(node): c for c, node in enumerate(stats.checkpoint_nodes)}
    branches = None
    if cfg.branch_states is not None:
        branches = np.stack([
            np.asarray(_as_vector(b), dtype=complex) for b in cfg.branch_states])
    for r in rows:
        noise = sample_noise(list(model.channels), grid, [cfg.seed, r], window=window)
        try:
            record = solve_nonlocal(psi0, grid, list(model.channels), noise,
                                    model.h0, spacing, propagators=True)
        except CollapseLabError as err:
            raise type(err)(f"realization {r}: {err}") from err
        for j in range(n):
            psi = record.states[j]
            surf = surface_correction(record, j)
            w_op = equal_time_hamiltonian(record, j)
            g = record.interaction_terms[j]
            h_psi = model.h0 @ psi + g
            metric = eye + surf
            stats.energy["untransformed"][r, j] = (
                spacing * np.vdot(psi, metric @ h_psi)).real
            stats.norm["untransformed"][r, j] = (
                spacing * np.vdot(psi, metric @ psi)).real
            psi_t = sqrtmh(metric) @ psi
            if record_transformed:
                wt = _expansion_interaction(w_op, surf)
                stats.energy["transformed"][r, j] = (
                    spacing * np.vdot(psi_t, (model.h0 + wt) @ psi_t)).real
                stats.norm["transformed"][r, j] = (
                    spacing * np.vdot(psi_t, psi_t)).real
            w_plus = w_op + w_op.conj().T
            w_minus = w_op - w_op.conj().T
            for label, op in obs:
                rec = stats.observables[label]
                rec["transformed"][r, j] = (
                    spacing * np.vdot(psi_t, op @ psi_t)).real
                rec["square"][r, j] = (
                    spacing * np.vdot(psi_t, op @ (op @ psi_t))).real
                rec["conserved"][r, j] = (
                    spacing * np.vdot(psi, metric @ (op @ psi))).real
                comm = w_plus @ op - op @ w_plus
                anti = w_minus @ op + op @ w_minus
                u = spacing * np.vdot(psi, metric @ (comm @ psi))
                v = spacing * np.vdot(psi, metric @ (anti @ psi))
                rec["c22"][r, j] = 0.25 * np.abs(u - v) ** 2
                if record_transformed:
                    wt_comm = wt @ op - op @ wt
                    val = spacing * np.vdot(psi_t, wt_comm @ psi_t)
                    rec["c12"][r, j] = np.abs(val) ** 2
            if branches is not None:
                amp = spacing * (branches.conj() @ psi_t)
                stats.branch_weights[r, j] = np.abs(amp) ** 2
            if j in cp_pos:
                c = cp_pos[j]
                outer = spacing * np.outer(psi_t, psi_t.conj())
                partials["sigma_sum"][c] += outer
                partials["sigma_sq"][c] += outer.real**2 + 1j * outer.imag**2


def run_ensemble(psi0, cfg: EnsembleConfig, model: ModelSetup) -> EnsembleStats:
    """Run the configured ensemble and collect statistics.

    Deterministic for fixed (seed, config, model); see the module docstring
    for the reproducibility contract.
    """
    grid = model.grid
    n = grid.n_nodes
    nr = cfg.realizations
    dim = model.h0.shape[0]
    cp_nodes = _checkpoint_nodes(n, cfg.checkpoints)
    stats = EnsembleStats(grid.times, cfg.picture, cp_nodes)
    pictures = {
        "transformed": ("transformed",),
        "untransformed": ("untransformed",),
        "both": ("untransformed", "transformed"),
    }[cfg.picture]
    for pic in pictures:
        stats.energy[pic] = np.empty((nr, n))
        stats.norm[pic] = np.empty((nr, n))
    obs_keys = {
        "transformed": ("transformed", "square", "c12"),
        "untransformed": ("transformed", "square", "conserved", "c22"),
        "both": ("transformed", "square", "conserved", "c12", "c22"),
    }[cfg.picture]
    for label, _ in cfg.observables:
        stats.observables[label] = {k: np.empty((nr, n)) for k in obs_keys}
    if cfg.branch_states is not None:
        stats.branch_weights = np.empty((nr, n, len(cfg.branch_states)))

    blocks = _blocks(nr)
    partials = [
        {
            "sigma_sum": np.zeros((cp_nodes.size, dim, dim), dtype=complex),
            "sigma_sq": np.zeros((cp_nodes.size, dim, dim), dtype=complex),
        }
        for _ in blocks
    ]

    if cfg.picture == "transformed":
        runner = _TransformedRun(model, cfg, psi0)

        def task(i):
            runner.block(blocks[i], stats, partials[i])
    else:
        window = cfg.window(grid)
        record_transformed = cfg.picture == "both"

        def task(i):
            _solver_block(model, cfg, psi0, blocks[i], stats, partials[i],
                          window, record_transformed)

    _run_blocks(task, len(blocks))

    sig_sum = np.sum([p["sigma_sum"] for p in partials], axis=0)
    sig_sq = np.sum([p["sigma_sq"] for p in partials], axis=0)
    stats.sigma_mean = sig_sum / nr
    var_re = sig_sq.real / nr - stats.sigma_mean.real**2
    var_im = sig_sq.imag / nr - stats.sigma_mean.imag**2
    stats.sigma_stderr = np.sqrt(
        np.clip(var_re + var_im, 0.0, None) / max(nr - 1, 1))
    stats.meta = {
        "realizations": nr,
        "seed": cfg.seed,
        "picture": cfg.picture,
        "checkpoint_nodes": cp_nodes.tolist(),
        "workers": worker_count(),
    }
    return stats


def mean_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of a per-realization series."""
    nr = series.shape[0]
    mean = series.mean(axis=0)
    stderr = series.std(axis=0, ddof=1) / np.sqrt(nr)
    return mean, stderr


def energy_trajectory(stats: EnsembleStats, picture: str = "transformed") -> dict:
    """E(t) with standard error; picture='both' adds the per-time difference."""
    if picture == "both":
        for pic in ("transformed", "untransformed"):
            if pic not in stats.energy:
                raise PictureNotRecorded(f"{pic} energies were not recorded")
        m_t, s_t = mean_series(stats.energy["transformed"])
        m_u, s_u = mean_series(stats.energy["untransformed"])
        diff = stats.energy["transformed"] - stats.energy["untransformed"]
        m_d, s_d = mean_series(diff)
        return {
            "times": stats.times,
            "transformed": (m_t, s_t),
            "untransformed": (m_u, s_u),
            "difference": (m_d, s_d),
        }
    if picture not in stats.energy:
        raise PictureNotRecorded(f"{picture} energies were not recorded")
    mean, stderr = mean_series(stats.energy[picture])
    return {"times": stats.times, picture: (mean, stderr)}


def _variance_with_error(values: np.ndarray) -> tuple[float, float]:
    """Sample variance across realizations and its asymptotic standard error."""
    nr = values.size
    var = float(values.var(ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered**4))
    se = np.sqrt(max(m4 - var**2 * (nr - 3) / (nr - 1), 0.0) / nr)
    return var, float(se)


def variance_diagnostics(stats: EnsembleStats, label: str,
                         window: Window | None = None,
                         grid: TimeGrid | None = None,
                         ell_min: float | None = None) -> dict:
    """Collapse diagnostics for one recorded observable.

    Returns the endpoint difference of the ensemble variance of <O> (the
    'adjusted' convention that freezes the <O^2> fluctuation term, next to
    the raw difference that keeps it), and the per-time derivative
    estimators: the transformed-picture commutator estimator (pointwise
    <= 0 by construction) and the untransformed split into commutator and
    anticommutator parts where recorded.
    """
    if label not in stats.observables:
        raise PictureNotRecorded(f"observable {label!r} was not recorded")
    rec = stats.observables[label]
    if window is not None and grid is not None and ell_min is not None:
        if not window.vanishes_near_ends(grid, margin=ell_min):
            raise ScenarioViolation(
                "field window does not vanish near the grid endpoints; "
                "endpoint expectation values are picture dependent")
    exp = rec["transformed"]
    var0, se0 = _variance_with_error(exp[:, 0])
    var1, se1 = _variance_with_error(exp[:, -1])
    mean_sq = rec["square"].mean(axis=0)
    raw0 = float(mean_sq[0] - np.mean(exp[:, 0] ** 2))
    raw1 = float(mean_sq[-1] - np.mean(exp[:, -1] ** 2))
    report = {
        "label": label,
        "variance_start": (var0, se0),
        "variance_end": (var1, se1),
        "adjusted_difference": (var1 - var0, float(np.hypot(se0, se1))),
        "raw_difference": raw1 - raw0,
    }
    if "c12" in rec:
        mean, stderr = mean_series(rec["c12"])
        report["c12_series"] = (-mean, stderr)
    if "c22" in rec:
        mean, stderr = mean_series(rec["c22"])
        report["c22_series"] = (-mean, stderr)
    return report


def split_branches(observable, psi0, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a state into its two components along eigenspaces of the
    observable; raises ScenarioViolation unless exactly two eigenvalues
    carry weight."""
    op = _as_matrix(observable)
    v0 = _as_vector(psi0)
    vals, vecs = np.linalg.eigh(op)
    keys = np.round(vals, 9)
    comps = []
    for value in np.unique(keys):
        basis = vecs[:, keys == value]
        part = basis @ (basis.conj().T @ v0)
        weight = spacing * float(np.vdot(part, part).real)
        if weight > 1e-12:
            comps.append(part / np.sqrt(spacing * np.vdot(part, part).real))
    if len(comps) != 2:
        raise ScenarioViolation(
            f"initial state splits into {len(comps)} eigenspace components, "
            "expected exactly 2")
    return comps[0], comps[1]


def scenario_collapse(psi0, cfg: EnsembleConfig, model: ModelSetup) -> dict:
    """Run the switched-window collapse scenario end to end.

    The config must name exactly one observable; its eigenspaces define the
    two branches. Reports the branch-weight statistics (martingale mean,
    across-realization variance growth, endpoint histogram) next to the
    variance diagnostics of the observable.
    """
    if len(cfg.observables) != 1:
        raise ConfigError("the collapse scenario needs exactly one observable")
    if cfg.t_on is None or cfg.t_off is None:
        raise ScenarioViolation("the collapse scenario needs a switched window")
    if cfg.ramp < 2.0 * model.ell_min:
        raise ScenarioViolation(
            f"window ramp {cfg.ramp} shorter than twice the nonlocality "
            f"scale {model.ell_min}")
    window = cfg.window(model.grid)
    if not window.vanishes_near_ends(model.grid, margin=model.ell_min):
        raise ScenarioViolation("window must be off near both grid ends")
    label, op = cfg.observables[0]
    phi1, phi2 = split_branches(op, psi0, model.spacing)
    run_cfg = replace(cfg, branch_states=(phi1, phi2))
    stats = run_ensemble(psi0, run_cfg, model)
    weights = stats.branch_weights[:, :, 0]
    mean_w, se_w = mean_series(weights)
    var_series = weights.var(axis=0, ddof=1)
    var_se = np.array([_variance_with_error(weights[:, j])[1]
                       for j in range(weights.shape[1])])
    hist, edges = np.histogram(weights[:, -1], bins=20, range=(0.0, 1.0))
    mean_obs, se_obs = mean_series(stats.observables[label]["transformed"])
    report = {
        "stats": stats,
        "branch_mean": (mean_w, se_w),
        "branch_variance": (var_series, var_se),
        "final_histogram": (hist, edges),
        "observable_mean": (mean_obs, se_obs),
        "diagnostics": variance_diagnostics(
            stats, label, window=window, grid=model.grid,
            ell_min=model.ell_min),
    }
    return report


def mc_mean_drift(model: ModelSetup, realizations: int, seed: int,
                  node: int, window: Window | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo pairing estimate of the mean-drift operator:

        mean over realizations of (-i W(t)) (-i integral_{t0}^t W(tau) dtau)

    with W the linearized transformed interaction and the trapezoid rule on
    the inner integral. Converges to the quadrature operator A as the
    ensemble grows. Returns the entrywise mean and standard error.
    """
    if window is None:
        window = Window.flat()
    grid = model.grid
    n = grid.n_nodes
    if not (0 < node < n):
        raise ConfigError(f"evaluation node {node} outside the grid interior")
    opset = model.opset
    k = opset.half_width
    stack = opset.stack(model.which)
    wstack = grid.dt * stack
    pad = k + 1
    d_off = np.arange(-k, k + 1)
    node_idx = (2 * np.arange(n)[:, None] - d_off[None, :]) + pad
    dim = model.h0.shape[0]
    blocks = _blocks(realizations)
    sums = np.zeros((len(blocks), dim, dim), dtype=complex)
    sq_re = np.zeros((len(blocks), dim, dim))
    sq_im = np.zeros((len(blocks), dim, dim))

    def task(i):
        pads = _noise_tables(model, window, seed, blocks[i], pad)
        w_all = np.einsum("rajd,adxy->rjxy", pads[:, :, node_idx[: node + 1]],
                          wstack, optimize=True)
        trap = np.full(node + 1, grid.dt)
        trap[0] = trap[-1] = 0.5 * grid.dt
        integral = np.einsum("j,rjxy->rxy", trap, w_all)
        est = -np.einsum("rxy,ryz->rxz", w_all[:, node], integral)
        sums[i] = est.sum(axis=0)
        sq_re[i] = (est.real**2).sum(axis=0)
        sq_im[i] = (est.imag**2).sum(axis=0)

    _run_blocks(task, len(blocks))
    total = sums.sum(axis=0)
    mean = total / realizations
    var = (sq_re.sum(axis=0) / realizations - mean.real**2) + (
        sq_im.sum(axis=0) / realizations - mean.imag**2)
    stderr = np.sqrt(np.clip(var, 0.0, None) / max(realizations - 1, 1))
    return mean, stderr
