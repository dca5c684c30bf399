"""Monte Carlo ensembles over field realizations and their statistics.

Every realization is stepped in the transformed picture: psi_tilde advances
by the midpoint exponential of h0 plus the linearized transformed
interaction W. The field lives on the half-step grid, so the interaction at
step midpoints is supported exactly and the ensemble mean follows the
matched double-commutator equation by construction. The step works in the
eigenbasis of h0, where W = sum_a O'_a diag(p_a) + diag(conj p_a) O'_a with
weights p_a from one narrow GEMM of the field. The GEMM's tables are even in
the time difference z, so they keep the rows z >= 0 and take the folded
field f(z) + f(-z). The block's field table is laid out realization
innermost (channel, half-grid index, realization), so a fold is one add of
two contiguous slabs, and the GEMMs read it transposed. The step's GEMM
gives the generator diag(lam) + W' whole: a constant 1 below the fold meets
a table row that holds lam. The exponential acts on the state, never
formed, in one of two ways chosen by the number of kept modes (below). On
two modes it is exact: the Hermitian part of the generator is a I + B with
B traceless, so B^2 = |b|^2 I and
exp(-i dt (a I + B)) = e^{-i dt a} (cos(dt |b|) I - i dt sinc(dt |b| / pi) B),
a dozen elementwise operations per step. On any other count it is a
truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011):
each realization bounds theta = dt ||h0 + W||_2 from max|lambda| and
max|p_a|, takes ceil(theta / 0.5) sub-steps and the first degree m with
(theta/s)^(m+1)/(m+1)! <= 2^-53. Realizations that share s go through one
Horner pass from their top degree down, each entering at its own degree.
Either way a realization's bits do not depend on its block mates. The
closed form takes no bound: a row with a non-finite generator entry raises
StepRejected naming the realization and step there, as a non-finite theta
does on the Taylor path. The untransformed picture (a fixed-point solve per
realization plus surface corrections, see evolution.py) agrees at third
order in the coupling; the tests compare the two on one field path.

A run steps only the eigenmodes its initial state can reach: the smallest
set that holds the rotated initial state's support and is closed under
every rotated channel operator U^dag O_a U. h0 is diagonal there and an
entry of W vanishes wherever the same entry of every O'_a does, so no other
mode ever gains amplitude. An entry at or below _MODE_TOL = 1e-13 counts as
zero (operator entries against the unit 2-norm of O_a, state entries
against the state's norm): entries that small are the rounding of the
rotation, a few 1e-16 where a channel vanishes off the set. Every per-run
table is built on the kept modes; observables still map them onto all D
modes, and sigma rotates back onto all of them. collapse-scenario's hop
channel keeps its state in one degenerate pair, so it steps 2 of its 16
modes in closed form; lindblad-vs-mc, no-heating and csl-contrast keep 8
of 8 and take the Taylor series.

Reproducibility contract: realization r draws its field from the seed
sequence [master seed, r] (NumPy SeedSequence, NEP 19), so distinct master
seeds give independent ensembles; a block draws its rows one realization at
a time and scales them together. Realizations are processed in fixed
blocks of 256, each block sums sequentially into its own slot of a per-block
table, and the slots are combined in block order. Results are therefore
bit-identical for a given seed no matter how many processes run them
(COLLAPSELAB_WORKERS, default 1): with w workers the caller and w - 1
forked children each take every w-th block. The recorded series and tables
live in anonymous shared mappings made before any child forks: a block
writes its rows and sums in place, and a child sends back only a pickled
report through a pipe. A failed realization aborts the ensemble with its
index, from the lowest failing block; resampling would condition it on
solver success and bias means. A child that ends without a report (killed
by a signal, say) raises WorkerLost; no child outlives the call.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

# sample_noise is not called here (_noise_tables draws the same rows per
# block); it stays importable from this module, where perfbench's tracer
# wraps it
from .channels import (  # noqa: F401
    ChannelOperatorSet,
    InteractionChannel,
    build_channel_operators,
    sample_noise,
)
from .errors import ConfigError, ScenarioViolation, StepRejected, WorkerLost
from .grids import TimeGrid, Window
from .lattice import EigenSystem

BLOCK = 256
CHECKPOINTS = 9  # nodes, both grid ends included, that accumulate sigma
_TAYLOR_TOL = 2.0**-53  # truncation bound theta^(m+1)/(m+1)! of one sub-step
_SUBSTEP_THETA = 0.5  # largest theta stepped without splitting
# entries of the rotated channel operators (unit 2-norm), and of the rotated
# initial state against its norm, at or below this are rounding and count as
# zero when a run picks the modes it steps
_MODE_TOL = 1e-13
# degree m serves a sub-step while theta <= _TAYLOR_THETA[m], the theta whose
# theta^(m+1)/(m+1)! is _TAYLOR_TOL
_TAYLOR_THETA = np.exp([(math.log(_TAYLOR_TOL) + math.lgamma(m + 2)) / (m + 1)
                        for m in range(32)])
WORKER_ENV = "COLLAPSELAB_WORKERS"
RECORDS = frozenset({"energy", "sigma"})  # energy includes the norm


def worker_count() -> int:
    raw = os.environ.get(WORKER_ENV, "1")
    try:
        count = int(raw)
    except ValueError as err:
        raise ConfigError(f"{WORKER_ENV}={raw!r} is not an integer") from err
    if count < 1:
        raise ConfigError(f"{WORKER_ENV} must be >= 1, got {count}")
    if count > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(f"{WORKER_ENV}={count} needs fork, which this platform lacks")
    return count


@dataclass
class ModelSetup:
    """Shared physical configuration for every realization of a run."""

    grid: TimeGrid
    h0: np.ndarray
    spacing: float
    channels: tuple[InteractionChannel, ...]

    def __post_init__(self):
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
    """Run parameters: size, seeding, and what to record."""

    realizations: int
    seed: int
    observables: tuple[tuple[str, np.ndarray], ...] = ()
    t_on: float | None = None
    t_off: float | None = None
    ramp: float = 0.0
    branch_states: tuple | None = None
    records: frozenset = RECORDS

    def __post_init__(self):
        if self.realizations < 2:
            raise ConfigError("an ensemble needs at least 2 realizations")
        if not RECORDS.issuperset(self.records):
            raise ConfigError(f"unknown ensemble records in {sorted(self.records)}")

    def window(self, grid: TimeGrid) -> Window:
        if self.t_on is None and self.t_off is None:
            return Window.flat()
        t_on = grid.t0 if self.t_on is None else self.t_on
        t_off = grid.t1 if self.t_off is None else self.t_off
        return Window(t_on=t_on, t_off=t_off, ramp=self.ramp)


def _shared(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """Zeros in an anonymous shared mapping, which forked workers write in place."""
    size, dtype = math.prod(shape), np.dtype(dtype)
    buf = mmap.mmap(-1, max(size * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count=size).reshape(shape)


class EnsembleStats:
    """Recorded series and reductions of one ensemble run.

    A series the config's records do not name is None. Energy and norm,
    observables and branch weights are kept per realization, for variance
    diagnostics after the fact; sigma is summed only on checkpoint nodes.
    Every per-realization series lives in a shared mapping, allocated here
    before any worker forks, and each block writes its own rows in place.
    """

    def __init__(self, times: np.ndarray, cfg: EnsembleConfig):
        self.times = times
        self.checkpoint_nodes = _checkpoint_nodes(times.size, CHECKPOINTS)
        shape = (cfg.realizations, times.size)
        energy = "energy" in cfg.records
        self.energy = _shared(shape) if energy else None
        self.norm = _shared(shape) if energy else None
        self.observables = {label: {k: _shared(shape)
                                    for k in ("transformed", "square", "c12")}
                            for label, _ in cfg.observables}
        self.branch_weights = None if cfg.branch_states is None else _shared(
            (*shape, len(cfg.branch_states)))
        self.sigma_mean = self.sigma_stderr = None  # sigma's moments, if recorded


def _blocks(total: int) -> list[range]:
    return [range(lo, min(lo + BLOCK, total)) for lo in range(0, total, BLOCK)]


def _checkpoint_nodes(n: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, max(2, min(count, n))).round().astype(int))


def _run_share(task, first: int, workers: int, count: int):
    """Run task(i) for blocks first, first + workers, ... in order; return
    (block, exception) for the first that raises, else None."""
    for i in range(first, count, workers):
        try:
            task(i)
        except Exception as err:
            return i, err
    return None


def _child(task, first: int, workers: int, count: int, fd: int) -> None:
    """Body of a forked worker: run its share, send one pickled report (None,
    or its first failure as (block, exception)) through fd, and leave with
    os._exit, never returning into the caller's code."""
    try:
        report = _run_share(task, first, workers, count)
        try:
            data = pickle.dumps(report)
            pickle.loads(data)
        except Exception:  # an exception that does not survive pickling
            block, err = report
            data = pickle.dumps((block, RuntimeError(f"{type(err).__name__}: {err}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _reap(pid: int, fd: int, blocks: range):
    """Read a child's report to the end of its pipe, wait for the child, and
    return its failure as (block, exception), or None."""
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if data:
        return pickle.loads(data)
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return blocks[0], WorkerLost(
        f"worker process for blocks {list(blocks)} ended without a report ({how})")


def _run_blocks(task, count: int) -> None:
    """Run task(i) for every block index i; tasks write their results in place.

    With w workers, w - 1 forked children and the caller each run every w-th
    block (process k, the caller being k = 0, runs blocks k, k + w, ...) in
    order and stop at their first failure. A child reports through a pipe;
    the caller runs its own share, then reads every pipe and waits for every
    child, on every path. The failure of the lowest block is raised, so the
    same realization is named at any worker count: every block below it ran
    and passed. A child that ends without a report raises WorkerLost.
    """
    workers = min(worker_count(), count)
    children = []
    failures = []
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(task, k, workers, count, write)
            os.close(write)
            children.append((pid, read, range(k, count, workers)))
        failures.append(_run_share(task, 0, workers, count))
    finally:
        failures.extend(_reap(*child) for child in children)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


class _Partials:
    """Per-block sums of complex values and of their squared real and
    imaginary parts, one slot per block along the first axis of shared
    tables. `_moments` combines the slots in block order."""

    def __init__(self, blocks: int, shape: tuple[int, ...]):
        self.sums = _shared((blocks, *shape), complex)
        self.sq_re = _shared((blocks, *shape))
        self.sq_im = _shared((blocks, *shape))

    def add(self, block: int, index, values: np.ndarray) -> None:
        """Add values, summed over their leading row axis, at [block, index]."""
        self.sums[block, index] += values.sum(axis=0)
        self.sq_re[block, index] += (values.real**2).sum(axis=0)
        self.sq_im[block, index] += (values.imag**2).sum(axis=0)


def _moments(parts: _Partials, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise mean and standard error over ``count`` >= 2 realizations."""
    sums, sq_re, sq_im = (t.sum(axis=0) for t in (parts.sums, parts.sq_re, parts.sq_im))
    mean = sums / count
    var = (sq_re / count - mean.real**2) + (sq_im / count - mean.imag**2)
    return mean, np.sqrt(np.clip(var, 0.0, None) / (count - 1))


def _noise_tables(model: ModelSetup, window: Window, seed: int, rows: range,
                  pad: int) -> np.ndarray:
    """Half-grid field tables of the given realizations, realization
    innermost: shape (A, M, B) for A channels, M half-grid indices zero-padded
    by `pad` at both ends and B = len(rows).

    Column i holds realization r = rows[i]: white samples from the seed
    sequence [seed, r], of variance 1/h at the noise spacing h = dt/2 (2
    steps + 1 nodes, so every node midpoint is a noise node), times the
    window. The same floats as ``sample_noise(channels, grid, [seed, r],
    window=window).samples``, drawn and scaled in the same order, with the
    window evaluated once per block. The step's GridTooCoarse check is
    made once per run, by ``model.opset``.
    """
    grid = model.grid
    m = 2 * grid.steps + 1
    h = grid.dt / 2
    out = np.zeros((len(model.channels), m + 2 * pad, len(rows)))
    body = out[:, pad : pad + m]
    for i, r in enumerate(rows):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        body[:, :, i] = rng.standard_normal(body.shape[:2])
    body /= math.sqrt(h)
    body *= np.asarray(window(grid.t0 + h * np.arange(m)), dtype=float)[:, None]
    return out


def _kept_modes(ops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Ascending indices of the smallest mode set that holds psi's support
    and is closed under every operator of the (A, D, D) stack ops.

    An entry of ops at or below _MODE_TOL, or of psi at or below _MODE_TOL
    times its norm, counts as zero.
    """
    links = (np.abs(ops) > _MODE_TOL).any(axis=0)
    keep = np.abs(psi) > _MODE_TOL * np.linalg.norm(psi)
    while True:
        grown = keep | links[:, keep].any(axis=1)
        if (grown == keep).all():
            return np.flatnonzero(keep)
        keep = grown


def _pair_action(gen: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H_r) psi_r in closed form, H_r the Hermitian part of the
    2 x 2 gen_r.

    H = a I + B with B = [[z, x], [conj x, -z]] traceless and Hermitian, so
    B^2 = |b|^2 I with |b|^2 = z^2 + |x|^2, and the exponential series sums
    to e^{-i dt a} (cos(dt |b|) I - i dt sinc(dt |b| / pi) B). np.sinc is 1
    at 0, so a degenerate row (B = 0) takes the phase alone. Every operation
    is elementwise.
    """
    g = gen.reshape(-1, 4)  # entries 00, 01, 10, 11
    a = 0.5 * (g[:, 0].real + g[:, 3].real)
    z = 0.5 * (g[:, 0].real - g[:, 3].real)
    x = 0.5 * (g[:, 1] + g[:, 2].conj())
    b = np.sqrt(z * z + (x.real * x.real + x.imag * x.imag))
    phase = np.exp(-1j * dt * a)
    cos = phase * np.cos(dt * b)
    sin = (-1j * dt) * phase * np.sinc(dt / np.pi * b)
    p0, p1 = psi[:, 0], psi[:, 1]
    out = np.empty_like(psi)
    out[:, 0] = cos * p0 + sin * (z * p0 + x * p1)
    out[:, 1] = cos * p1 + sin * (x.conj() * p0 - z * p1)
    return out


def _expm_action(gen: np.ndarray, psi: np.ndarray, dt: float,
                 theta: np.ndarray | None, rows: range, step: int) -> np.ndarray:
    """exp(-i dt gen_r) psi_r for every row r of a batch of Hermitian gen.

    A batch on two modes (psi.shape[1] == 2) is stepped exactly by
    `_pair_action`, from the Hermitian part of gen, and takes no theta; a
    row whose gen holds a non-finite entry raises StepRejected naming
    realization rows[r] at `step`, before any row is stepped. Any other
    batch takes the Taylor series, and theta_r must bound dt ||gen_r||_2; a
    non-finite theta_r raises StepRejected in the same way. Row r takes
    s_r = ceil(theta_r / _SUBSTEP_THETA) sub-steps, each the Taylor
    polynomial of the first degree m_r with (theta_r / s_r)^(m_r+1) / (m_r+1)!
    <= _TAYLOR_TOL, evaluated by Horner's rule. Rows that share s_r are
    stepped together in one Horner pass from the group's top degree down;
    after term k a row with m_r < k is reset to its sub-step's start, so it
    enters its own top term k = m_r from there, and no row is masked inside
    a matmul: a row's bits never depend on the other rows of the batch.
    """
    if psi.shape[1] == 2:
        if not np.isfinite(gen).all():
            r = np.flatnonzero(~np.isfinite(gen).all(axis=(1, 2)))[0]
            raise StepRejected(f"realization {rows[r]}, step {step}: "
                               "non-finite generator")
        return _pair_action(gen, psi, dt)
    if not np.isfinite(theta).all():
        r = np.flatnonzero(~np.isfinite(theta))[0]
        raise StepRejected(f"realization {rows[r]}, step {step}: "
                           f"non-finite step bound theta = {theta[r]}")
    subs = np.maximum(np.ceil(theta / _SUBSTEP_THETA), 1.0).astype(int)
    degree = np.searchsorted(_TAYLOR_THETA, theta / subs)
    out = np.empty_like(psi)
    counts = subs[:1] if subs.min() == subs.max() else np.unique(subs)
    for s in counts:
        part = slice(None) if counts.size == 1 else np.flatnonzero(subs == s)
        x, mat, deg, coef = psi[part], gen[part], degree[part], -1j * dt / s
        top, low = deg.max(), deg.min()
        for _ in range(s):
            acc = x
            for k in range(top, 0, -1):
                acc = np.matmul(mat, acc[:, :, None])[:, :, 0]
                acc *= coef / k
                acc += x
                if k > low:
                    np.copyto(acc, x, where=(deg < k)[:, None])
            x = acc
        out[part] = x
    return out


class _TransformedRun:
    """Batched stepping of the linearized transformed dynamics in the
    eigenbasis of h0, on the modes the initial state reaches (`_kept_modes`),
    whose energies are ``lam`` and eigenvectors the columns of ``vecs``. The
    initial state, observables and branch states are rotated once per run,
    states back only where sigma is accumulated."""

    def __init__(self, model: ModelSetup, cfg: EnsembleConfig, psi0):
        self.model = model
        self.cfg = cfg
        self.window = cfg.window(model.grid)
        dt, opset = model.grid.dt, model.opset
        esys = EigenSystem.of(model.h0, model.spacing)
        full = esys.vectors
        ops = full.conj().T @ np.stack([ch.spatial_op for ch in model.channels]) @ full
        psi0 = full.conj().T @ psi0
        modes = _kept_modes(ops, psi0)
        # the stepped modes, then the rest: observables map the kept modes
        # onto all of them. C order, as eigh returns its columns: an F-ordered
        # copy takes another BLAS path and moves every record by rounding
        rest = np.setdiff1d(np.arange(full.shape[1]), modes)
        full = np.ascontiguousarray(full[:, np.concatenate([modes, rest])])
        self.lam, self.vecs = esys.values[modes], full[:, : modes.size]
        ops = ops[:, modes[:, None], modes]
        psi0 = psi0[modes]
        vh = self.vecs.conj().T
        # W' = sum_a O'_a diag(p_a) + diag(conj p_a) O'_a, p_a the field against
        # the even part of dt amp_a L_a(z) e^{i z lam} / 2, as in the sym stack
        lz = np.stack([0.5 * dt * ch.amplitude * ch.profile.value(opset.zeta)
                       for ch in model.channels])
        q = lz[:, :, None] * np.exp(1j * np.multiply.outer(opset.zeta, self.lam))
        q = 0.5 * (q + q[:, ::-1])
        # both tables are even in z: keep the rows z >= 0, which the folded
        # field f(z) + f(-z) multiplies, and halve the row z = 0, which it
        # meets twice
        k = opset.half_width
        q = q[:, k:]
        q[:, 0] *= 0.5
        na, nz, d = q.shape
        table = np.zeros((na, nz, na, d), dtype=complex)
        table[np.arange(na), :, np.arange(na)] = q
        self.table = table.reshape(na * nz, na * d).view(np.float64)
        # one real GEMM takes the folded field, and a constant 1 below it, to
        # the generator diag(lam) + W' and to p: the constant's row holds lam
        stack = vh @ (dt * opset.sym[:, k:]) @ self.vecs
        stack[:, 0] *= 0.5
        lam_row = np.diag(self.lam).astype(complex).reshape(1, -1)
        self.mid_table = np.block(
            [[stack.reshape(na * nz, -1).view(np.float64), self.table],
             [lam_row.view(np.float64), np.zeros((1, self.table.shape[1]))]])
        self.ocat = ops.transpose(2, 0, 1).reshape(d, na * d)  # y -> (O'_a y)_a
        self.op_norm = 2.0 * np.linalg.norm(ops, 2, axis=(1, 2))
        self.lam_max = float(np.abs(self.lam).max())
        self.lam_one = np.stack([self.lam, np.ones(d)], axis=1)
        self.half_width = k
        self.pad = k + 1
        self.psi0 = psi0
        self.labels = [label for label, _ in cfg.observables]
        # psi @ obs_t gives O' psi for every observable side by side, on all
        # modes, the kept ones first
        self.obs_t = np.concatenate([(full.conj().T @ op @ self.vecs).T
                                     for _, op in cfg.observables]
                                    or [np.zeros((d, 0))], axis=1)
        self.branches_h = None if cfg.branch_states is None else (
            vh @ np.stack(cfg.branch_states, axis=1)).conj()

    def _weights(self, fold: np.ndarray) -> np.ndarray:
        """The (B, A, D) weights p of W' from the (A (K+1), B) folded field
        samples f(z) + f(-z), z >= 0, realization innermost."""
        flat = fold.T @ self.table
        return flat.view(complex).reshape(fold.shape[1], -1, self.lam.size)

    def _w_dots(self, p: np.ndarray, psi: np.ndarray, y: np.ndarray) -> np.ndarray:
        """<psi_r, W'_r y_rj> for the (B, J, D) stack y whose first entry is psi:
        sum_a <O'_a psi, p_a y> + <p_a psi, O'_a y>, O'_a Hermitian."""
        b, j, d = y.shape
        oy = (y.reshape(b * j, d) @ self.ocat).reshape(b, j, -1, d)
        return (np.einsum("rad,rjd->rj", oy[:, 0].conj() * p, y)
                + np.einsum("rad,rjad->rj", (p * psi[:, None]).conj(), oy))

    def block(self, b: int, rows: range, stats: EnsembleStats,
              sigma: _Partials | None) -> None:
        """Step the realizations ``rows`` of block ``b``, write their series
        into ``stats`` and, unless it is None, sigma's sums into slot ``b``
        of ``sigma``."""
        grid, spacing = self.model.grid, self.model.spacing
        n, nb, (dim, nd) = grid.n_nodes, len(rows), self.vecs.shape
        k = self.half_width
        table = _noise_tables(self.model, self.window, self.cfg.seed, rows, self.pad)
        psi = np.broadcast_to(self.psi0, (nb, nd)).copy()
        sel = slice(rows.start, rows.stop)
        cp_pos = {int(node): c for c, node in enumerate(stats.checkpoint_nodes)}
        # one buffer for every step's folded field and GEMM product: fresh
        # ones churn the heap. Its last row is the constant 1 that takes lam
        # into the generator
        fold = np.empty((table.shape[0] * (k + 1) + 1, nb))
        fold[-1] = 1.0
        field = fold[:-1].reshape(table.shape[0], k + 1, nb)
        flat = np.empty((nb, self.mid_table.shape[1]))

        def fold_at(c: int) -> None:
            """Row a (K + 1) + z of fold := f(c + z) + f(c - z), z = 0..K, for
            channel a around half-grid index c."""
            np.add(table[:, c : c + k + 1], table[:, c - k : c + 1][:, ::-1],
                   out=field)

        for j in range(n):
            if stats.energy is not None or self.labels:
                o_all = (psi @ self.obs_t).reshape(nb, -1, dim)
                # psi and W' psi live on the kept modes, so O' psi's
                # products with them need only its kept rows
                o_psi = o_all[:, :, :nd]
                y = np.concatenate([psi[:, None], o_psi], axis=1)
                fold_at(2 * j + self.pad)  # node t_j
                w_dots = self._w_dots(self._weights(fold[:-1]), psi, y)
            if stats.energy is not None:
                free, norm = ((psi.conj() * psi).real @ self.lam_one).T
                stats.energy[sel, j] = spacing * (free + w_dots[:, 0].real)
                stats.norm[sel, j] = spacing * norm
            if self.labels:
                o_dots = np.einsum("rb,rkb->rk", psi.conj(), o_psi)
                o_sq = np.einsum("rkb,rkb->rk", o_all.conj(), o_all)
            for i, label in enumerate(self.labels):
                rec = stats.observables[label]
                rec["transformed"][sel, j] = spacing * o_dots[:, i].real
                rec["square"][sel, j] = spacing * o_sq[:, i].real
                # <psi, [W, O] psi> = 2i Im <psi, W O psi>
                rec["c12"][sel, j] = (2.0 * spacing * w_dots[:, 1 + i].imag) ** 2
            if self.branches_h is not None:
                stats.branch_weights[sel, j] = np.abs(
                    spacing * (psi @ self.branches_h)) ** 2
            if sigma is not None and j in cp_pos:
                back = psi @ self.vecs.T
                outer = spacing * np.einsum("rb,rc->rbc", back, back.conj())
                sigma.add(b, cp_pos[j], outer)
            if j < n - 1:
                fold_at(2 * j + 1 + self.pad)  # midpoint (t_j + t_{j+1}) / 2
                np.matmul(fold.T, self.mid_table, out=flat)
                gen = flat[:, : 2 * nd * nd].view(complex).reshape(nb, nd, nd)
                theta = None  # the closed form on two modes needs no bound
                if nd != 2:
                    p = flat[:, 2 * nd * nd :].view(complex).reshape(nb, -1, nd)
                    # max_n |p_an| over the outer axis of a copy: numpy
                    # reduces a short inner axis row by row
                    mag = np.abs(p).transpose(2, 0, 1).copy().max(axis=0)
                    theta = grid.dt * (self.lam_max + mag @ self.op_norm)
                psi = _expm_action(gen, psi, grid.dt, theta, rows, j)


def run_ensemble(psi0, cfg: EnsembleConfig, model: ModelSetup) -> EnsembleStats:
    """Run the configured ensemble and collect statistics.

    Deterministic for fixed (seed, config, model); see the module docstring
    for the reproducibility contract.
    """
    stats = EnsembleStats(model.grid.times, cfg)
    blocks = _blocks(cfg.realizations)
    runner = _TransformedRun(model, cfg, psi0)
    d = model.h0.shape[0]
    sigma = (_Partials(len(blocks), (stats.checkpoint_nodes.size, d, d))
             if "sigma" in cfg.records else None)
    _run_blocks(lambda i: runner.block(i, blocks[i], stats, sigma), len(blocks))
    if sigma is not None:
        stats.sigma_mean, stats.sigma_stderr = _moments(sigma, cfg.realizations)
    return stats


def mean_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of a per-realization series."""
    nr = series.shape[0]
    mean = series.mean(axis=0)
    stderr = series.std(axis=0, ddof=1) / np.sqrt(nr)
    return mean, stderr


def _variances(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample variance of each column of the (R, n) values across its R >= 2
    rows, and the variance's asymptotic standard error
    sqrt((m4 - var^2 (R - 3) / (R - 1)) / R), m4 the fourth central moment.

    Columns go in chunks, each copied to contiguous rows, so a column is
    reduced as a 1-D array is and its variance is its ``var(ddof=1)`` bit
    for bit; m4 is the mean of the squared squared deviations.
    """
    nr, n = values.shape
    var, se = np.empty(n), np.empty(n)
    chunk = 32  # columns per copy: 1 MiB at 4000 realizations
    for lo in range(0, n, chunk):
        cols = values[:, lo : lo + chunk].T.copy()
        dev = cols - cols.mean(axis=1, keepdims=True)
        dev *= dev
        v = dev.sum(axis=1) / (nr - 1)
        dev *= dev
        m4 = dev.sum(axis=1) / nr
        var[lo : lo + chunk] = v
        se[lo : lo + chunk] = np.sqrt(
            np.maximum(m4 - v**2 * (nr - 3) / (nr - 1), 0.0) / nr)
    return var, se


def variance_diagnostics(stats: EnsembleStats, label: str) -> dict:
    """Collapse diagnostics for one recorded observable.

    Returns the endpoint difference of the ensemble variance of <O> (the
    'adjusted' convention that freezes the <O^2> fluctuation term, next to
    the raw difference that keeps it), and the per-time derivative
    estimator: the commutator series c12 (pointwise <= 0 by construction).
    """
    rec = stats.observables[label]
    exp = rec["transformed"]
    (var0, var1), (se0, se1) = _variances(exp[:, [0, -1]])
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
    mean, stderr = mean_series(rec["c12"])
    report["c12_series"] = (-mean, stderr)
    return report


def split_branches(observable: np.ndarray, psi0: np.ndarray,
                   spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a state into its two components along eigenspaces of the
    observable; raises ScenarioViolation unless exactly two eigenvalues
    carry weight."""
    vals, vecs = np.linalg.eigh(observable)
    keys = np.round(vals, 9)
    comps = []
    for value in np.unique(keys):
        basis = vecs[:, keys == value]
        part = basis @ (basis.conj().T @ psi0)
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
    # the axis-0 reduction, not _variances' per-column one, keeps the
    # shipped variance bytes
    var_series = weights.var(axis=0, ddof=1)
    var_se = _variances(weights)[1]
    hist, edges = np.histogram(weights[:, -1], bins=20, range=(0.0, 1.0))
    mean_obs, se_obs = mean_series(stats.observables[label]["transformed"])
    report = {
        "stats": stats,
        "branch_mean": (mean_w, se_w),
        "branch_variance": (var_series, var_se),
        "final_histogram": (hist, edges),
        "observable_mean": (mean_obs, se_obs),
        "diagnostics": variance_diagnostics(stats, label),
    }
    return report


def mc_mean_drift(model: ModelSetup, realizations: int, seed: int,
                  node: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo pairing estimate of the mean-drift operator:

        mean over realizations of (-i W(t)) (-i integral_{t0}^t W(tau) dtau)

    with W the linearized transformed interaction and the trapezoid rule on
    the inner integral. Converges to the quadrature operator A as the
    ensemble grows. The field is on throughout the grid (flat window).
    Returns the entrywise mean and standard error.
    """
    grid = model.grid
    n = grid.n_nodes
    if realizations < 2:
        raise ConfigError("an ensemble needs at least 2 realizations")
    if not (0 < node < n):
        raise ConfigError(f"evaluation node {node} outside the grid interior")
    opset = model.opset
    k = opset.half_width
    pad = k + 1
    d = model.h0.shape[0]
    # W(t_j) is the field at half-grid indices 2 j + pad - z, z = -K..K,
    # against the dt-scaled stack; the trapezoid integral is linear in the
    # field, so tmap takes a padded column straight to its coefficients
    wflat = (grid.dt * opset.sym).reshape(-1, d * d).view(np.float64)
    z = np.arange(-k, k + 1)
    node_idx = 2 * np.arange(node + 1)[:, None] - z + pad
    trap = np.full(node + 1, grid.dt)
    trap[0] = trap[-1] = 0.5 * grid.dt
    tmap = np.zeros((z.size, 2 * grid.steps + 1 + 2 * pad))
    # each (z, index) pair belongs to one node j, so assigning loses no sum
    tmap[np.arange(z.size), node_idx] = trap[:, None]
    blocks = _blocks(realizations)
    partials = _Partials(len(blocks), (d, d))

    def task(i):
        pads = _noise_tables(model, Window.flat(), seed, blocks[i], pad)
        nb = pads.shape[2]
        w_node = pads[:, node_idx[node]].reshape(-1, nb).T @ wflat
        integral = (tmap @ pads).reshape(-1, nb).T @ wflat
        partials.add(i, ..., -np.matmul(w_node.view(complex).reshape(nb, d, d),
                                        integral.view(complex).reshape(nb, d, d)))

    _run_blocks(task, len(blocks))
    return _moments(partials, realizations)
