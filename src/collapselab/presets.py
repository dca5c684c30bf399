"""Packaged experiments with explicit pass/fail checks and file outputs.

Every preset bundles a default configuration, a fixed numerical procedure,
and the inequalities it asserts. Its runner only computes; ``run_preset``
checks the CSV tables it returns and ``summary.json`` (the full config
echo, every check with its observed value and bound, the fitted quantities)
before it writes any, so a failed run writes nothing. Results are a deterministic
function of the config (including the seed) and do not depend on the worker
count, so a summary is enough to reproduce a run byte for byte.

The seven presets cover: conservation of the surface-layer product under
grid refinement, the cubic remainder of the second-order operator expansion,
the quadrature-versus-sampling identity for the mean drift operator, flat
ensemble energy for an initial eigenstate, the heating contrast against the
jump-operator model, agreement of the ensemble mean density with the
double-commutator master equation, and the two-branch collapse scenario.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .channels import max_step, sample_fourier_probe
from .config import ExperimentConfig, merged
from .ensemble import (
    EnsembleConfig,
    ModelSetup,
    mc_mean_drift,
    mean_series,
    run_ensemble,
    scenario_collapse,
    variances,
)
from .errors import ConfigError
from .evolution import (
    conserved_inner,
    conserved_inner_layer_sum,
    coupling_strength,
    solve_nonlocal,
    surface_correction,
    transformed_interaction,
)
from .grids import TimeGrid, Window
from .lattice import EigenSystem, normalized
from .master import (
    LindbladSpec,
    compute_A,
    compute_B,
    csl_jump_operators,
    heating_rate_cfs,
    heating_rate_standard,
    integrate,
    pure_density,
)
from .reporting import (_jsonable, check_csv, operator_table, write_csv,
                        write_summary)


@dataclass(frozen=True)
class Check:
    """One asserted inequality: observed value against its bound."""

    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""


@dataclass
class PresetResult:
    name: str
    out_dir: Path
    checks: list[Check]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _leq(name: str, observed: float, bound: float, detail: str = "") -> Check:
    return Check(name, bool(observed <= bound), float(observed), float(bound),
                 detail)


def _geq(name: str, observed: float, bound: float, detail: str = "") -> Check:
    return Check(name, bool(observed >= bound), float(observed), float(bound),
                 detail)


def _in_range(name: str, observed: float, lo: float, hi: float,
              detail: str = "") -> Check:
    note = f"expected within [{lo}, {hi}]"
    if detail:
        note = f"{note}; {detail}"
    return Check(name, bool(lo <= observed <= hi), float(observed), float(hi),
                 detail=note)


def _fit_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def _scaled_channels(channels, factor: float) -> list:
    return [replace(ch, amplitude=ch.amplitude * factor) for ch in channels]


def _random_state(rng: np.random.Generator, dim: int, spacing: float) -> np.ndarray:
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim), spacing)


def _model(cfg: ExperimentConfig) -> ModelSetup:
    return ModelSetup(cfg.grid(), cfg.build_h0(), cfg.lattice().spacing,
                      cfg.channels())


def _ensemble_config(cfg: ExperimentConfig, records: set[str]) -> EnsembleConfig:
    # the window's t_on, t_off and ramp are EnsembleConfig fields by name
    return EnsembleConfig(
        realizations=cfg.realizations,
        seed=cfg.seed(),
        observables=cfg.observables(),
        records=frozenset(records),
        **(cfg.window_params() or {}),
    )


def _energy_table(stats) -> tuple[list[str], list]:
    mean, stderr = mean_series(stats.energy)
    trace, _ = mean_series(stats.norm)
    return (["t", "E_mean", "E_stderr", "trace_mean"],
            [stats.times, mean, stderr, trace])


def _paired_drift(energies: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the per-realization endpoint energy change."""
    delta = energies[:, -1] - energies[:, 0]
    return float(delta.mean()), float(delta.std(ddof=1) / np.sqrt(delta.size))


def _cubic_budget(points: list[tuple[float, float, float]], g_target: float
                  ) -> tuple[float, float, float]:
    """Extrapolated cubic systematic bound from weaker-coupling runs.

    ``points`` holds (coupling, mean drift, stderr) rows; the fit
    c = sum(g^3 d) / sum(g^6) is the least-squares coefficient of a pure
    cubic through them. Returns (c, stderr of c, budget at g_target) where
    the budget adds three propagated standard errors so that a noisy fit
    widens rather than tightens the bound.
    """
    g = np.array([p[0] for p in points])
    d = np.array([p[1] for p in points])
    se = np.array([p[2] for p in points])
    den = float(np.sum(g**6))
    c = float(np.sum(g**3 * d) / den)
    c_se = float(np.sqrt(np.sum(g**6 * se**2)) / den)
    budget = (max(c, 0.0) + 3.0 * c_se) * g_target**3
    return c, c_se, budget


def _energy_flatness(psi0, model: ModelSetup, ecfg: EnsembleConfig,
                     factors: tuple[float, ...], weak_ecfg: EnsembleConfig):
    """Paired endpoint energy drift at the model's coupling and, run with
    ``weak_ecfg``, at each weaker coupling ``factor * g0``.

    Returns the full-coupling stats, the (coupling, mean drift, stderr) rows
    with the full coupling first, and the ``_cubic_budget`` fit through the
    weaker rows.
    """
    g0 = coupling_strength(model.channels)
    stats = run_ensemble(psi0, ecfg, model)
    rows = [(g0, *_paired_drift(stats.energy))]
    for factor in factors:
        weak = replace(model, channels=_scaled_channels(model.channels, factor))
        rows.append((g0 * factor,
                     *_paired_drift(run_ensemble(psi0, weak_ecfg, weak).energy)))
    return stats, rows, _cubic_budget(rows[1:], g0)


def _probe_sections(amplitude: float) -> dict:
    """Lattice and kernel sections of the four-site probe presets: a raised
    cosine kernel on a site projector and a Gaussian bump, both at
    ``amplitude``. Fresh dicts on every call, so no two presets share one."""
    return {
        "lattice": {"sites": 4, "spacing": 1.0, "mass": 1.0},
        "kernel": {
            "ell_min": 0.5,
            "profile": "raised_cosine",
            "channels": [
                {"label": "site", "amplitude": amplitude,
                 "operator": {"type": "site_projector", "site": 1}},
                {"label": "bump", "amplitude": amplitude,
                 "operator": {"type": "position_gaussian", "center": 2.0,
                              "width": 1.2}},
            ],
        },
    }


# ---------------------------------------------------------------------------
# conservation

_CONSERVATION_DEFAULTS = {
    **_probe_sections(0.04),
    "time": {"t0": 0.0, "t1": 2.0, "dt": 0.03125},
    "noise": {"seed": 1105,
              "window": {"t_on": 0.5, "t_off": 1.5, "ramp": 0.25}},
    "run": {
        "preset": "conservation",
        "tolerances": {"drift": 1.0e-6, "ratio_low": 3.0, "ratio_high": 5.3,
                       "dual": 1.0e-8, "zero_noise": 1.0e-12},
    },
}


def _run_conservation(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Norm drift under the conserved product, on the base and halved grid.

    Uses the analytic probe field at its default amplitude, so the drift
    is a smooth function of the step and the refinement ratio is
    meaningful; white noise has no per-realization convergence order to
    measure. The zero-noise run reads the same probe at amplitude zero.
    """
    model = _model(cfg)
    grid, h0, spacing, channels = model.grid, model.h0, model.spacing, model.channels
    window = Window(**(cfg.window_params() or
                       {"t_on": grid.t0, "t_off": grid.t1, "ramp": 0.0}))
    rng = np.random.default_rng(cfg.seed())
    psi0 = _random_state(rng, h0.shape[0], spacing)

    def norm_series(record, g):
        lo, hi = record.reach, g.n_nodes - record.reach
        traj = record.trajectory(psi0)
        norms = np.array([
            conserved_inner(record, i, traj[i], traj[i]).real
            for i in range(lo, hi)
        ])
        return g.times[lo:hi], norms, np.abs(norms - norms[0])

    header = ["t", "conserved_norm", "drift"]
    files = {}
    drifts = {}
    rec = None
    for tag, g in (("dt", grid), ("dt_half", grid.refined(2))):
        probe = sample_fourier_probe(channels, g, cfg.seed(), window=window)
        record = solve_nonlocal(g, channels, probe, h0, spacing)
        times, norms, drift = norm_series(record, g)
        drifts[tag] = float(drift.max())
        files[f"conservation_{tag}.csv"] = (header, [times, norms, drift])
        if tag == "dt":
            rec = record

    probe0 = sample_fourier_probe(channels, grid, cfg.seed(), window=window,
                                  amplitude=0.0)
    record0 = solve_nonlocal(grid, channels, probe0, h0, spacing)
    times0, norms0, drift0 = norm_series(record0, grid)
    files["conservation_zero_noise.csv"] = (header, [times0, norms0, drift0])

    # dual formulas on the base-grid propagator record, fresh state pairs
    i_mid = grid.n_nodes // 2
    s_mid = surface_correction(rec, i_mid)
    diffs = np.empty(100)
    for p in range(diffs.size):
        phi_start = _random_state(rng, h0.shape[0], spacing)
        psi_start = _random_state(rng, h0.shape[0], spacing)
        equal_time = conserved_inner(rec, i_mid, rec.trajectory(phi_start)[i_mid],
                                     rec.trajectory(psi_start)[i_mid], surface=s_mid)
        layer_sum = conserved_inner_layer_sum(rec, i_mid, phi_start, psi_start)
        diffs[p] = abs(equal_time - layer_sum)
    files["conservation_dual.csv"] = (["pair", "difference"],
                                      [np.arange(diffs.size), diffs])

    ratio = drifts["dt"] / max(drifts["dt_half"], 1e-300)
    checks = [
        _leq("drift_at_dt", drifts["dt"], cfg.tolerance("drift")),
        _in_range("refinement_ratio", ratio, cfg.tolerance("ratio_low"),
                  cfg.tolerance("ratio_high")),
        _leq("zero_noise_drift", float(drift0.max()),
             cfg.tolerance("zero_noise")),
        _leq("dual_formula", float(diffs.max()), cfg.tolerance("dual"),
             detail="equal-time vs layer-sum product, 100 state pairs"),
    ]
    extras = {"drift": drifts, "refinement_ratio": ratio}
    return checks, extras, files


# ---------------------------------------------------------------------------
# expansion

_EXPANSION_DEFAULTS = {
    **_probe_sections(0.08),
    "time": {"t0": 0.0, "t1": 3.5, "dt": 0.015625},
    "noise": {"seed": 1509,
              "window": {"t_on": 0.5, "t_off": 3.0, "ramp": 0.5}},
    "run": {
        "preset": "expansion",
        "tolerances": {"slope_low": 2.5, "slope_high": 3.5},
    },
}

_EXPANSION_COUPLINGS = (0.04, 0.02, 0.01)
_EXPANSION_PROBE_AMPLITUDE = 8.0


def _romberg(d1, d2, d4):
    """Two Richardson levels in the step: values on grids with steps dt,
    dt/2 and dt/4 combined so the dt^2 and dt^4 terms cancel."""
    return (16.0 * (4.0 * d4 - d2) / 3.0 - (4.0 * d2 - d1) / 3.0) / 15.0


def _refinement_solves(grid: TimeGrid, levels: int, channels, h0: np.ndarray,
                       spacing: float, field: Callable[[TimeGrid], np.ndarray]):
    """Yield the fixed-point records on grid, grid/2, ..., grid/2^(levels-1)
    in that order, each grid g solved for the half-step field table
    ``field(g)``.

    Each solve starts from the records of the (up to) three solves before
    it, finest first. The chain begins on the coarser grids 2dt, 4dt, ...
    for as long as the step count stays whole and the step stays within
    ``max_step``, ell_min/8, the coarsest step that resolves the kernels.
    Only the three finest records are kept.
    """
    grids = [grid.refined(2**k) for k in range(levels)]
    while grids[0].steps % 2 == 0 and 2 * grids[0].dt <= max_step(channels):
        grids.insert(0, TimeGrid(grid.t0, grid.t1, 2 * grids[0].dt))
    coarse = len(grids) - levels
    ladder: tuple = ()  # finest first
    for k, g in enumerate(grids):
        rec = solve_nonlocal(g, channels, field(g), h0, spacing, start=ladder)
        ladder = (rec,) + ladder[:2]
        if k >= coarse:
            yield rec


def _run_expansion(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Coupling scaling of the expansion remainder and of the asymmetry.

    Solves each coupling on three nested grids (after the coarser ones of
    ``_refinement_solves``, which only start them) and extrapolates the
    operator difference in the step size twice. The raw single-grid
    difference is dominated by a quadrature mismatch that grows linearly
    with the coupling; two halvings remove the leading and subleading
    step-size bias, leaving the genuine remainder, which should scale
    cubically. The probe must be analytic between window joins for the
    extrapolation to hold, hence the sinusoid field and the requirement
    that the strips around the sampled nodes stay inside the window
    plateau. The anti-Hermitian part is extrapolated the same way; the
    conserved norm makes the exact operator Hermitian in the continuum,
    so the measured values sit at the extrapolation floor rather than on
    a cubic trend, and this check records that outcome honestly.
    """
    model = _model(cfg)
    grid, h0, spacing, base = model.grid, model.h0, model.spacing, model.channels
    g0 = coupling_strength(base)
    params = cfg.window_params()
    if params is None:
        raise ConfigError("the expansion preset needs noise.window so the "
                          "probe is smooth and off near the grid ends")
    window = Window(**params)

    mid = grid.times[grid.n_nodes // 2]
    spread = 12 * grid.dt
    t_eval = (mid - spread, mid, mid + spread)
    lo_need = window.t_on + window.ramp
    hi_need = window.t_off - window.ramp
    margin = model.ell_min + 2 * grid.dt
    if t_eval[0] - margin < lo_need or t_eval[-1] + margin > hi_need:
        raise ConfigError("window plateau too narrow for the sampled nodes; "
                          "widen [t_on, t_off] or shrink ramp")

    remainders, asymmetries = [], []
    for target in _EXPANSION_COUPLINGS:
        channels = _scaled_channels(base, target / g0)
        diffs, antis = [], []
        for rec in _refinement_solves(
                grid, 3, channels, h0, spacing,
                lambda g: sample_fourier_probe(
                    channels, g, cfg.seed(), window=window,
                    amplitude=_EXPANSION_PROBE_AMPLITUDE)):
            pairs = [transformed_interaction(rec, rec.grid.node_index(t))
                     for t in t_eval]
            diffs.append([exact - series for exact, series in pairs])
            antis.append([exact - exact.conj().T for exact, _ in pairs])
        remainders.append(max(float(np.linalg.norm(_romberg(*d), 2))
                              for d in zip(*diffs)))
        asymmetries.append(max(float(np.linalg.norm(_romberg(*a), 2))
                               for a in zip(*antis)))

    slope_rem = _fit_slope(_EXPANSION_COUPLINGS, remainders)
    slope_asym = _fit_slope(_EXPANSION_COUPLINGS, asymmetries)
    lo = cfg.tolerance("slope_low")
    hi = cfg.tolerance("slope_high")
    checks = [
        _in_range("remainder_slope", slope_rem, lo, hi),
        _in_range("asymmetry_slope", slope_asym, lo, hi,
                  detail="anti-Hermitian part sits at the extrapolation "
                         "floor (norms %.1e..%.1e); the exact operator is "
                         "Hermitian in the continuum, so no cubic exponent "
                         "is measurable"
                         % (max(asymmetries), min(asymmetries))),
    ]
    extras = {"remainder_slope": slope_rem, "asymmetry_slope": slope_asym,
              "remainder_norms": remainders, "asymmetry_norms": asymmetries}
    files = {"expansion.csv": (
        ["coupling", "remainder_norm", "asymmetry_norm"],
        [np.array(_EXPANSION_COUPLINGS), np.array(remainders),
         np.array(asymmetries)])}
    return checks, extras, files


# ---------------------------------------------------------------------------
# a-operator

_A_OPERATOR_DEFAULTS = {
    **_probe_sections(0.1),
    "time": {"t0": 0.0, "t1": 2.0, "dt": 0.03125},
    "noise": {"seed": 2741},
    "ensemble": {"realizations": 10000},
    "run": {
        "preset": "a-operator",
        "tolerances": {"sigma": 3.0, "translation": 1.0e-10},
    },
}


def _run_a_operator(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    model = _model(cfg)
    grid = model.grid

    quad = compute_A(model.opset)
    # same channels on a grid shifted by five steps; the drift operator
    # must not see absolute time
    shift = 5 * grid.dt
    shifted = replace(model, grid=TimeGrid(grid.t0 + shift, grid.t1 + shift,
                                           grid.dt))
    translation = float(np.abs(quad - compute_A(shifted.opset)).max())

    # sampling estimate at a node whose pairing support lies inside the grid
    node = grid.node_index(grid.t0 + 2.5 * model.ell_min)
    mc, stderr = mc_mean_drift(model, cfg.realizations, cfg.seed(), node)
    diff = mc - quad
    z_fro = float(np.linalg.norm(diff) / np.sqrt(np.sum(stderr**2)))
    z_max = float(np.max(np.abs(diff) / stderr))

    checks = [
        _leq("mc_agreement", z_fro, cfg.tolerance("sigma"),
             detail="Frobenius distance in combined stderr units"),
        _leq("translation_invariance", translation,
             cfg.tolerance("translation")),
    ]
    extras = {"z_frobenius": z_fro, "z_max_entry": z_max,
              "evaluation_node": int(node)}
    files = {"a_operator.csv": operator_table(
        [("quadrature", quad), ("mc_mean", mc),
         ("mc_stderr", stderr.astype(complex))])}
    return checks, extras, files


# ---------------------------------------------------------------------------
# no-heating

_NO_HEATING_DEFAULTS = {
    **_probe_sections(0.1),
    "time": {"t0": 0.0, "t1": 4.0, "dt": 0.03125},
    "noise": {"seed": 905,
              "window": {"t_on": 0.75, "t_off": 3.25, "ramp": 1.0}},
    "ensemble": {"realizations": 10000},
    "run": {
        "preset": "no-heating",
        "tolerances": {"b_ratio": 1.0e-8},
    },
}


def _run_no_heating(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Ensemble energy of an eigenstate stays flat within noise plus a
    cubic budget extrapolated from two weaker couplings, each run on a
    quarter of the realizations."""
    model = _model(cfg)
    e0, psi0 = EigenSystem.of(model.h0, model.spacing).ground_state("positive")

    ecfg = _ensemble_config(cfg, {"energy"})
    sweep = replace(ecfg, realizations=max(2, ecfg.realizations // 4))
    stats, rows, (c_fit, c_se, budget) = _energy_flatness(
        psi0, model, ecfg, (0.5, 0.25), sweep)
    _, d_mean, d_se = rows[0]
    files = {"energy.csv": _energy_table(stats),
             "coupling_sweep.csv": (
                 ["coupling", "delta_E_mean", "delta_E_stderr"],
                 list(np.array(rows).T))}

    b_op = compute_B(model.opset)
    b_ratio = float(np.linalg.norm(b_op + b_op.conj().T, 2)
                    / max(np.linalg.norm(b_op, 2),
                          max(ch.amplitude for ch in model.channels) ** 2))

    checks = [
        _leq("energy_drift", abs(d_mean), 3.0 * d_se + budget,
             detail=f"paired endpoint change, budget {budget:.3e}"),
        _leq("b_antihermitian", b_ratio, cfg.tolerance("b_ratio")),
    ]
    extras = {"initial_energy": e0, "delta_e": (d_mean, d_se),
              "cubic_coefficient": (c_fit, c_se), "budget": budget,
              "sweep_realizations": sweep.realizations}
    return checks, extras, files


# ---------------------------------------------------------------------------
# csl-contrast

_CSL_DEFAULTS = {
    **_probe_sections(0.1),
    "time": {"t0": 0.0, "t1": 3.0, "dt": 0.03125},
    "noise": {"seed": 417,
              "window": {"t_on": 0.5, "t_off": 2.5, "ramp": 0.5}},
    "ensemble": {"realizations": 2000},
    "run": {
        "preset": "csl-contrast",
        "tolerances": {"rate_floor": -1.0e-10, "identity": 1.0e-10},
    },
}


def _run_csl_contrast(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Jump-operator model heats the positive-branch ground state; the
    double-commutator model run at matched coupling does not."""
    model = _model(cfg)
    h0, spacing, channels = model.h0, model.spacing, model.channels
    esys = EigenSystem.of(h0, spacing)
    e0, psi0 = esys.ground_state("positive")

    # positive-spectrum convention: e0 is the bottom of the subspace the
    # jumps act on, so the textbook rate is a sum of nonnegative terms
    jumps = csl_jump_operators(channels, projector=esys.positive_projector())
    gspec = LindbladSpec.gksl(h0, jumps)
    total_rate = heating_rate_standard(psi0, h0, jumps, spacing)
    sea_rate = heating_rate_standard(psi0, h0, csl_jump_operators(channels),
                                     spacing)

    labels, comm_norms, rates = [], [], []
    for ch, jump in zip(channels, jumps):
        labels.append(ch.label)
        comm_norms.append(float(np.linalg.norm(jump @ h0 - h0 @ jump, 2)))
        rates.append(heating_rate_standard(psi0, h0, [jump], spacing))
    noncommuting = [r for r, c in zip(rates, comm_norms) if c > 1e-10]
    if not noncommuting:
        raise ConfigError("csl-contrast needs a channel that does not "
                          "commute with the free Hamiltonian")

    # independent route to the same number through the generator itself
    sigma = pure_density(psi0, spacing)
    direct = float(np.trace(h0 @ gspec.rhs(sigma)).real)
    identity_err = abs(total_rate - direct) / max(abs(total_rate), 1.0)

    # matched double-commutator run: eigenstate energy stays flat
    ecfg = _ensemble_config(cfg, {"energy"})
    stats, rows, (_, _, budget) = _energy_flatness(psi0, model, ecfg, (0.5,),
                                                   ecfg)
    _, d_mean, d_se = rows[0]

    cfs_rate, cfs_rate_err = heating_rate_cfs(sigma, h0, model.opset)

    checks = [
        _geq("gksl_rate_floor", total_rate, cfg.tolerance("rate_floor")),
        Check("gksl_rate_positive", bool(max(noncommuting) > 0.0),
              float(max(noncommuting)), 0.0,
              detail="strict heating for a non-commuting jump operator"),
        _leq("gksl_rate_identity", identity_err, cfg.tolerance("identity"),
             detail="state formula vs generator trace"),
        _leq("cfs_energy_flat", abs(d_mean), 3.0 * d_se + budget),
    ]
    extras = {"initial_energy": e0, "gksl_total_rate": total_rate,
              "unprojected_rate": sea_rate,
              "cfs_instantaneous_rate": (cfs_rate, cfs_rate_err),
              "delta_e": (d_mean, d_se), "budget": budget,
              "contrast": total_rate / max(abs(d_mean), d_se)}
    files = {"heating_rates.csv": (
                 ["channel", "commutator_norm", "heating_rate"],
                 [np.array(labels), np.array(comm_norms), np.array(rates)]),
             "cfs_energy.csv": _energy_table(stats)}
    return checks, extras, files


# ---------------------------------------------------------------------------
# lindblad-vs-mc

_LINDBLAD_DEFAULTS = {
    **_probe_sections(0.2),
    "time": {"t0": 0.0, "t1": 3.0, "dt": 0.03125},
    "noise": {"seed": 1913},
    "ensemble": {"realizations": 10000},
    "run": {
        "preset": "lindblad-vs-mc",
        # the measured excess stays below 0.2 up to three times this
        # coupling; 1.0 leaves margin yet keeps the bound under the
        # distance at which free evolution is rejected
        "tolerances": {"excess_coefficient": 1.0, "trace": 1.0e-8},
    },
}


def _run_lindblad_vs_mc(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Ensemble mean density against the master-equation solution.

    The comparison starts at the first checkpoint past twice the kernel
    range, where the pairing has its full stationary support; the master
    equation is integrated from the sampled density there, so the check is
    initial-value against initial-value with no free constant.
    """
    model = _model(cfg)
    grid, h0, spacing = model.grid, model.h0, model.spacing

    sys = EigenSystem.of(h0, spacing)
    modes = sys.positive
    psi0 = normalized(sys.state(modes[0]) + sys.state(modes[1]), spacing)

    ecfg = _ensemble_config(cfg, {"sigma"})
    stats = run_ensemble(psi0, ecfg, model)
    cps = stats.checkpoint_nodes
    start = int(np.argmax(cps >= 2 * model.opset.half_width))
    if cps[start] < 2 * model.opset.half_width or start >= len(cps) - 1:
        raise ConfigError("grid too short: no checkpoint interval past "
                          "twice the kernel range")

    sub = TimeGrid(float(stats.times[cps[start]]), grid.t1, grid.dt)
    spec = LindbladSpec.cfs(h0, model.opset)
    traj = integrate(stats.sigma_mean[start], spec, sub)
    # free flow from the same start; its miss distance shows the noise
    # term is resolved above the statistical band
    free = integrate(stats.sigma_mean[start], LindbladSpec.gksl(h0, []), sub)

    g0 = coupling_strength(model.channels)
    se_start = float(np.abs(stats.sigma_stderr[start]).max())
    rows = []
    worst_excess = -np.inf
    free_ratio = 0.0
    agree = True
    c_bound = cfg.tolerance("excess_coefficient")
    for i in range(start + 1, len(cps)):
        node = int(cps[i] - cps[start])
        diff = float(np.abs(stats.sigma_mean[i] - traj.sigmas[node]).max())
        miss = float(np.abs(stats.sigma_mean[i] - free.sigmas[node]).max())
        se = float(np.abs(stats.sigma_stderr[i]).max()) + se_start
        elapsed = float(stats.times[cps[i]] - sub.t0)
        bound = 3.0 * se + c_bound * g0**3 * elapsed
        agree &= diff <= bound
        worst_excess = max(worst_excess, (diff - 3.0 * se) / (g0**3 * elapsed))
        free_ratio = max(free_ratio, miss / bound)
        rows.append((float(stats.times[cps[i]]), diff, se, bound))
    files = {
        "sigma_distance.csv": (
            ["t", "max_entry_distance", "stderr_sum", "bound"],
            list(np.array(rows).T)),
        "sigma_final.csv": operator_table(
            [("mc_mean", stats.sigma_mean[-1]),
             ("mc_stderr", stats.sigma_stderr[-1].astype(complex)),
             ("lindblad", traj.sigmas[int(cps[-1] - cps[start])])]),
    }

    checks = [
        Check("sigma_agreement", bool(agree), worst_excess, c_bound,
              detail="fitted excess coefficient against its frozen bound"),
        _leq("trace_preserved", traj.max_trace_drift, cfg.tolerance("trace")),
    ]
    extras = {"excess_coefficient": worst_excess,
              "free_flow_miss_over_bound": free_ratio,
              "start_time": sub.t0,
              "min_eigenvalue": float(np.min(traj.min_eigenvalue))}
    return checks, extras, files


# ---------------------------------------------------------------------------
# collapse-scenario

_COLLAPSE_DEFAULTS = {
    "lattice": {"sites": 8, "spacing": 1.0, "mass": 1.0},
    "kernel": {
        "ell_min": 0.5,
        "profile": "raised_cosine",
        "channels": [
            {"label": "branch_hop", "amplitude": 0.2,
             "operator": {"type": "eigenmode_coupling", "first": 1,
                          "second": 2}},
        ],
    },
    "time": {"t0": 0.0, "t1": 6.0, "dt": 0.03125},
    "noise": {"seed": 627,
              "window": {"t_on": 0.5, "t_off": 5.5, "ramp": 1.0}},
    "ensemble": {
        "realizations": 4000,
        "observables": [
            {"label": "branch", "operator": {"type": "eigenmode_difference",
                                             "first": 1, "second": 2}},
        ],
    },
    "run": {"preset": "collapse-scenario", "tolerances": {}},
}


def _run_collapse(cfg: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """Two-branch superposition under a switched field.

    The two branches are a degenerate pair of free modes and the channel
    hops between them, so the per-realization motion stays inside the pair
    and the branch weight is an exact martingale. Checks: the commutator
    estimator is nonpositive everywhere and strictly active mid-window, the
    mean of the observable stays put, the weight variance grows, and it
    grows monotonically through the checkpoints.
    """
    model = _model(cfg)
    grid = model.grid

    sys = EigenSystem.of(model.h0, model.spacing)
    modes = sys.positive
    # equal weights with a quarter-wave relative phase, so the hop channel
    # moves weight between the branches instead of only turning the phase
    psi0 = normalized(sys.state(modes[1]) + 1j * sys.state(modes[2]),
                      model.spacing)

    # the observable's series and the branch weights are all it reads
    ecfg = _ensemble_config(cfg, set())
    stats = scenario_collapse(psi0, ecfg, model)
    rec = stats.observables[ecfg.observables[0][0]]
    cps = stats.checkpoint_nodes

    series = rec["transformed"]
    obs_mean, obs_se = mean_series(series)
    paired = series[:, cps] - series[:, [0]]
    pair_mean, pair_se = mean_series(paired)
    mean_steady = float(np.max(np.abs(pair_mean[1:]) - 3.0 * pair_se[1:]))
    # the observable's variance across realizations at both ends: the
    # 'adjusted' difference freezes the <O^2> fluctuation term, the raw one
    # keeps it
    (var0, var1), (se0, se1) = variances(series[:, [0, -1]])
    mean_sq = rec["square"].mean(axis=0)
    raw0 = float(mean_sq[0] - np.mean(series[:, 0] ** 2))
    raw1 = float(mean_sq[-1] - np.mean(series[:, -1] ** 2))

    # the record holds |<[W, O]>|^2, so the commutator estimator c12 is its
    # negative, pointwise <= 0 by construction
    c12_sq, c12_se = mean_series(rec["c12"])
    c12_mean = -c12_sq
    mid = grid.n_nodes // 2

    weights = stats.branch_weights[:, :, 0]
    w_mean, w_se = mean_series(weights)
    # the axis-0 reduction, not variances' per-column one, keeps the
    # shipped variance bytes
    var_series, var_se = weights.var(axis=0, ddof=1), variances(weights)[1]
    hist, edges = np.histogram(weights[:, -1], bins=20, range=(0.0, 1.0))
    v_cp, v_se_cp = var_series[cps], var_se[cps]
    increments = np.diff(v_cp)
    slack = 3.0 * (v_se_cp[1:] + v_se_cp[:-1])
    growth = float(v_cp[-1] - v_cp[0])
    growth_se = float(np.hypot(v_se_cp[0], v_se_cp[-1]))

    files = {
        "observable.csv": (
            ["t", "O_mean", "O_stderr", "c12_mean", "c12_stderr"],
            [stats.times, obs_mean, obs_se, c12_mean, c12_se]),
        "branch_weight.csv": (
            ["t", "weight_mean", "weight_stderr", "weight_variance",
             "variance_stderr"],
            [stats.times, w_mean, w_se, var_series, var_se]),
        "weight_histogram.csv": (
            ["bin_low", "bin_high", "count"], [edges[:-1], edges[1:], hist]),
    }

    checks = [
        _leq("c12_nonpositive", float(c12_mean.max()), 0.0),
        _leq("c12_active_midwindow", float(c12_mean[mid] + 3.0 * c12_se[mid]),
             0.0, detail="strictly negative at the window center"),
        _leq("observable_mean_steady", mean_steady, 0.0,
             detail="paired change within three stderr at every checkpoint"),
        _leq("branch_mean_martingale",
             float(abs(w_mean[-1] - 0.5)), 3.0 * float(w_se[-1])),
        _geq("variance_monotone", float((increments + slack).min()), 0.0,
             detail="checkpoint increments above minus three stderr"),
        _geq("variance_growth", growth, 3.0 * growth_se),
    ]
    extras = {
        "variance_endpoints": (float(v_cp[0]), float(v_cp[-1])),
        "adjusted_difference": (var1 - var0, float(np.hypot(se0, se1))),
        "raw_difference": raw1 - raw0,
    }
    return checks, extras, files


# ---------------------------------------------------------------------------
# registry and driver

@dataclass(frozen=True)
class Preset:
    name: str
    claim: str
    defaults: dict
    # -> checks, summary extras, {file name: (header, columns)} in write order
    runner: Callable[[ExperimentConfig], tuple[list[Check], dict, dict]]


PRESETS: dict[str, Preset] = {
    p.name: p for p in (
        Preset("conservation",
               "surface-layer norm is conserved; drift falls as dt^2",
               _CONSERVATION_DEFAULTS, _run_conservation),
        Preset("expansion",
               "transformed interaction matches its expansion to cubic order",
               _EXPANSION_DEFAULTS, _run_expansion),
        Preset("a-operator",
               "drift-operator quadrature equals the sampling mean",
               _A_OPERATOR_DEFAULTS, _run_a_operator),
        Preset("no-heating",
               "eigenstate ensemble energy stays flat; B is anti-hermitian",
               _NO_HEATING_DEFAULTS, _run_no_heating),
        Preset("csl-contrast",
               "jump-operator model heats, double-commutator model does not",
               _CSL_DEFAULTS, _run_csl_contrast),
        Preset("lindblad-vs-mc",
               "ensemble mean density follows the master equation",
               _LINDBLAD_DEFAULTS, _run_lindblad_vs_mc),
        Preset("collapse-scenario",
               "two-branch weights spread as a martingale under the noise",
               _COLLAPSE_DEFAULTS, _run_collapse),
    )
}


def checked_config(raw: dict, name: str | None = None) -> ExperimentConfig:
    """Parse ``raw`` and check it against the preset its ``run.preset`` names.

    ``run`` passes the preset it runs as ``name``, and a config naming
    another is refused; ``validate`` passes none. Each runner reads exactly
    the tolerance names of its defaults, so a ``run.tolerances`` key outside
    them would be echoed into the summary without bounding anything, and is
    refused too.
    """
    cfg = ExperimentConfig.from_dict(raw)
    if name is not None and cfg.preset != name:
        raise ConfigError(
            f"run.preset {cfg.preset!r} does not match the preset run, "
            f"{name!r}")
    if cfg.preset is None:
        return cfg
    if cfg.preset not in PRESETS:
        raise ConfigError(
            f"run.preset {cfg.preset!r} unknown; valid names: "
            f"{', '.join(PRESETS)}")
    known = PRESETS[cfg.preset].defaults["run"]["tolerances"]
    unknown = sorted(set(cfg.tolerances) - set(known))
    if unknown:
        raise ConfigError(
            f"run.tolerances.{unknown[0]} is not a tolerance of preset "
            f"{cfg.preset!r}; it reads: {', '.join(sorted(known)) or 'none'}")
    return cfg


def run_preset(name: str, config: dict | None = None, *,
               out: str | Path | None = None, seed: int | None = None,
               realizations: int | None = None) -> PresetResult:
    """Run one preset, check all its output, then write it, ``summary.json`` last.

    ``config`` overrides the preset defaults (recursively, section by
    section); ``seed``, ``realizations``, and ``out`` override single keys
    on top of that. Raises ConfigError for an unknown name or bad config.
    """
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESETS)}")
    preset = PRESETS[name]
    raw = preset.defaults
    if config is not None:
        raw = merged(raw, config)
    overrides: dict = {}
    if seed is not None:
        overrides.setdefault("noise", {})["seed"] = int(seed)
    if realizations is not None:
        overrides.setdefault("ensemble", {})["realizations"] = int(realizations)
    if out is not None:
        overrides.setdefault("run", {})["out"] = str(out)
    if overrides:
        raw = merged(raw, overrides)
    cfg = checked_config(raw, name)
    out_dir = Path(cfg.out or Path("results") / name)
    checks, extras, files = preset.runner(cfg)
    summary = {
        "preset": name,
        "passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
        "config": cfg.echo(),
        **extras,
        "files": list(files),
    }
    # all checked before the first write, so a refused value leaves no file
    for file_name, table in files.items():
        check_csv(out_dir / file_name, *table)
    _jsonable(summary, out_dir / "summary.json")
    for file_name, table in files.items():
        write_csv(out_dir / file_name, *table)
    write_summary(out_dir / "summary.json", summary)
    return PresetResult(name, out_dir, checks, summary)
