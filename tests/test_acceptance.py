"""End-to-end checks of every shipped preset at its default settings.

Each test runs one preset (cached across tests, so the conservation run
backs two criteria), prints a one-line verdict, and re-asserts the
shipped tolerances as literal numbers so that a change to the defaults
cannot quietly relax an acceptance bound. Wall time is asserted per run
and in total.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

from collapselab.channels import sample_fourier_probe
from collapselab.config import ExperimentConfig
from collapselab.evolution import coupling_strength, transformed_interaction
from collapselab.grids import Window
from collapselab.presets import (
    _EXPANSION_COUPLINGS,
    _EXPANSION_PROBE_AMPLITUDE,
    PRESETS,
    _fit_slope,
    _refinement_solves,
    _romberg,
    _scaled_channels,
    run_preset,
)


class _Runner:
    """Runs each preset once and keeps the result and its wall time."""

    def __init__(self, factory):
        self._factory = factory
        self._results = {}
        self.seconds = {}

    def __call__(self, name):
        if name not in self._results:
            out = self._factory.mktemp(name)
            start = time.perf_counter()
            self._results[name] = run_preset(name, out=out)
            self.seconds[name] = time.perf_counter() - start
        return self._results[name], self.seconds[name]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _Runner(tmp_path_factory)


def _check(result, name):
    return next(c for c in result.checks if c.name == name)


def _verdict(number, label, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {state} [{detail}]")


def test_criterion_1_conservation(runs):
    result, secs = runs("conservation")
    drift = _check(result, "drift_at_dt")
    ratio = _check(result, "refinement_ratio")
    zero = _check(result, "zero_noise_drift")
    cfg = result.summary["config"]
    scale_ok = (cfg["lattice"]["sites"] == 4
                and cfg["time"]["dt"] == 0.03125
                and cfg["kernel"]["ell_min"] == 0.5
                and all(ch["amplitude"] * 0.5 == 0.02
                        for ch in cfg["kernel"]["channels"]))
    ok = (scale_ok and drift.observed <= 1.0e-6
          and 3.0 <= ratio.observed <= 5.3 and zero.passed and secs < 60.0)
    _verdict(1, "conservation", ok,
             f"drift {drift.observed:.3e} <= 1e-06 at dt = ell_min/16, "
             f"halving ratio {ratio.observed:.3f} in [3.0, 5.3], "
             f"{secs:.1f} s")
    assert scale_ok
    assert drift.bound == 1.0e-6
    assert drift.observed <= 1.0e-6
    assert 3.0 <= ratio.observed <= 5.3
    assert zero.passed
    assert secs < 60.0


def test_criterion_2_dual_formulas(runs):
    result, secs = runs("conservation")
    dual = _check(result, "dual_formula")
    ok = dual.observed <= 1.0e-8 and "100 state pairs" in dual.detail
    _verdict(2, "dual formulas", ok,
             f"max equal-time vs layer-sum difference {dual.observed:.3e} "
             f"<= 1e-08 on 100 state pairs, shared run")
    assert "100 state pairs" in dual.detail
    assert dual.bound == 1.0e-8
    assert dual.observed <= 1.0e-8


def test_criterion_3_expansion_orders(runs):
    result, secs = runs("expansion")
    remainder = _check(result, "remainder_slope")
    asymmetry = _check(result, "asymmetry_slope")
    ladder = np.loadtxt(result.out_dir / "expansion.csv", delimiter=",",
                        skiprows=1, usecols=0)
    ladder_ok = np.array_equal(ladder, [0.04, 0.02, 0.01])
    ok = (ladder_ok and 2.5 <= remainder.observed <= 3.5
          and 2.5 <= asymmetry.observed <= 3.5 and secs < 60.0)
    _verdict(3, "expansion orders", ok,
             f"remainder slope {remainder.observed:.3f}, asymmetry slope "
             f"{asymmetry.observed:.3f}, target [2.5, 3.5], {secs:.1f} s")
    assert ladder_ok
    assert secs < 60.0
    assert 2.5 <= remainder.observed <= 3.5
    # the conserved norm makes the exact operator Hermitian already, so
    # the asymmetry sits at the extrapolation floor instead of on a cubic
    # trend and no exponent is measurable; the assertion is kept anyway
    # and the failure is the recorded outcome (see the check detail in
    # summary.json for the measured norms)
    assert 2.5 <= asymmetry.observed <= 3.5


def test_criterion_3_third_extrapolation_level(runs):
    # expansion's chain of solves at the shipped seed, extended by a fourth
    # grid, dt/8, started from the dt/4, dt/2 and dt solves, and a third
    # extrapolation level (factor 64): the asymmetry is a floor near 3e-12 with no trend
    # in the coupling, and the remainder slope does not move, so the
    # two-level asymmetry slope is an O(dt^6) term two levels leave
    result, _ = runs("expansion")
    cfg = ExperimentConfig.from_dict(PRESETS["expansion"].defaults)
    lattice = cfg.lattice()
    base, h0, grid = cfg.channels(lattice), cfg.build_h0(lattice), cfg.grid()
    window = Window(**cfg.window_params())
    mid = grid.times[grid.n_nodes // 2]
    t_eval = (mid - 12 * grid.dt, mid, mid + 12 * grid.dt)
    norms = {(level, kind): [] for level in (2, 3)
             for kind in ("remainder", "asymmetry")}
    for target in _EXPANSION_COUPLINGS:
        channels = _scaled_channels(base, target / coupling_strength(base))
        diffs, antis = [], []
        for rec in _refinement_solves(
                grid, 4, channels, h0, lattice.spacing,
                lambda g: sample_fourier_probe(
                    channels, g, cfg.seed(), window=window,
                    amplitude=_EXPANSION_PROBE_AMPLITUDE)):
            pairs = [transformed_interaction(rec, rec.grid.node_index(t))
                     for t in t_eval]
            diffs.append([e - x for e, x in pairs])
            antis.append([e - e.conj().T for e, _ in pairs])
        for kind, stack in (("remainder", diffs), ("asymmetry", antis)):
            two = [_romberg(*(stack[f][k] for f in range(3))) for k in range(3)]
            three = [(64.0 * _romberg(*(stack[f][k] for f in range(1, 4)))
                      - two[k]) / 63.0 for k in range(3)]
            norms[2, kind].append(max(float(np.linalg.norm(d, 2)) for d in two))
            norms[3, kind].append(max(float(np.linalg.norm(d, 2)) for d in three))
    # the first three grids are the preset's own solves
    assert norms[2, "remainder"] == result.summary["remainder_norms"]
    assert norms[2, "asymmetry"] == result.summary["asymmetry_norms"]
    slopes = {key: _fit_slope(_EXPANSION_COUPLINGS, y) for key, y in norms.items()}
    print("three-level asymmetry norms "
          + ", ".join(f"{v:.2e}" for v in norms[3, "asymmetry"])
          + f", slope {slopes[3, 'asymmetry']:.3f}; remainder slope "
          f"{slopes[2, 'remainder']:.7f} -> {slopes[3, 'remainder']:.7f}")
    assert max(norms[3, "asymmetry"]) <= 1e-11
    assert abs(slopes[3, "remainder"] - slopes[2, "remainder"]) <= 1e-3


# Observed values at shipped defaults, each with its relative tolerance: 10x
# the largest spread of that value across OpenBLAS kernels
# (OPENBLAS_CORETYPE Haswell, Sandybridge, Nehalem, Core2, Prescott and the
# default) and one or two BLAS threads, at least 1e-9. The fixed-point solve
# stops within 1e-12 of its limit, and the kernel moves where. A tolerance
# of None marks a check at the rounding floor, which pins only its scale:
# observed <= 10x the pinned value.
PINNED = {
    "conservation": {
        "drift_at_dt": (7.113869138208884e-08, 7e-7),
        "refinement_ratio": (3.9949736780852234, 7e-6),
        "zero_noise_drift": (4.440892098500626e-16, None),
        "dual_formula": (1.6653345369377348e-16, None),
    },
    "expansion": {
        "remainder_slope": (3.390495724523713, 3.4e-7),
        "asymmetry_slope": (2.242038494648462, 0.7),
    },
}


@pytest.mark.parametrize("preset, name", [
    (preset, name) for preset, table in PINNED.items() for name in table])
def test_pinned_value(runs, preset, name):
    result, _ = runs(preset)
    observed = _check(result, name).observed
    pinned, rtol = PINNED[preset][name]
    if rtol is None:
        assert observed <= 10.0 * pinned
    else:
        assert abs(observed - pinned) <= rtol * abs(pinned)


def test_criterion_4_drift_operator(runs):
    result, secs = runs("a-operator")
    agreement = _check(result, "mc_agreement")
    translation = _check(result, "translation_invariance")
    cfg = result.summary["config"]
    scale_ok = cfg["ensemble"]["realizations"] == 10000
    ok = (scale_ok and agreement.observed <= 3.0
          and translation.observed <= 1.0e-10 and secs < 120.0)
    _verdict(4, "drift operator", ok,
             f"quadrature vs sampling {agreement.observed:.3f} sigma <= 3, "
             f"grid-shift change {translation.observed:.3e} <= 1e-10, "
             f"R = 10000, {secs:.1f} s")
    assert scale_ok
    assert agreement.bound == 3.0
    assert agreement.observed <= 3.0
    assert translation.bound == 1.0e-10
    assert translation.observed <= 1.0e-10
    assert secs < 120.0


def test_criterion_5_no_heating(runs):
    result, secs = runs("no-heating")
    drift = _check(result, "energy_drift")
    anti = _check(result, "b_antihermitian")
    cfg = result.summary["config"]
    coupling = max(ch["amplitude"] for ch in cfg["kernel"]["channels"]) * 0.5
    scale_ok = (coupling == 0.05 and cfg["kernel"]["ell_min"] == 0.5
                and cfg["ensemble"]["realizations"] == 10000)
    ok = scale_ok and drift.passed and anti.observed <= 1.0e-8 and secs < 180.0
    _verdict(5, "no heating", ok,
             f"|dE| {drift.observed:.3e} <= 3 stderr + cubic budget "
             f"{drift.bound:.3e}, B anti-Hermitian defect "
             f"{anti.observed:.3e} <= 1e-08, R = 10000, {secs:.1f} s")
    assert scale_ok
    assert drift.passed
    assert anti.bound == 1.0e-8
    assert anti.observed <= 1.0e-8
    assert secs < 180.0


def test_criterion_6_heating_contrast(runs):
    result, secs = runs("csl-contrast")
    floor = _check(result, "gksl_rate_floor")
    positive = _check(result, "gksl_rate_positive")
    identity = _check(result, "gksl_rate_identity")
    flat = _check(result, "cfs_energy_flat")
    ok = (floor.observed >= -1.0e-10 and positive.passed
          and positive.observed > 0.0 and identity.passed and flat.passed
          and secs < 60.0)
    _verdict(6, "heating contrast", ok,
             f"jump-model rate {floor.observed:.3e} >= -1e-10 and strictly "
             f"positive for a non-commuting channel "
             f"({positive.observed:.3e}), double-commutator drift flat "
             f"({flat.observed:.3e} <= {flat.bound:.3e}), {secs:.1f} s")
    assert floor.bound == -1.0e-10
    assert floor.observed >= -1.0e-10
    assert positive.passed and positive.observed > 0.0
    assert identity.bound == 1.0e-10
    assert identity.passed
    assert flat.passed
    assert secs < 60.0


def test_criterion_7_master_equation_vs_sampling(runs):
    result, secs = runs("lindblad-vs-mc")
    agreement = _check(result, "sigma_agreement")
    trace = _check(result, "trace_preserved")
    cfg = result.summary["config"]
    scale_ok = (cfg["lattice"]["sites"] == 4
                and cfg["ensemble"]["realizations"] == 10000)
    ok = scale_ok and agreement.passed and trace.observed <= 1.0e-8 and secs < 180.0
    _verdict(7, "master equation vs sampling", ok,
             f"mean density within 3 stderr + cubic secular bound at every "
             f"checkpoint (excess coefficient {agreement.observed:.3f} <= "
             f"{agreement.bound:.1f}), trace drift {trace.observed:.3e} "
             f"<= 1e-08, R = 10000, {secs:.1f} s")
    assert scale_ok
    assert agreement.passed
    assert trace.bound == 1.0e-8
    assert trace.observed <= 1.0e-8
    assert secs < 180.0


def test_criterion_8_collapse_diagnostics(runs):
    result, secs = runs("collapse-scenario")
    c12 = _check(result, "c12_nonpositive")
    steady = _check(result, "observable_mean_steady")
    monotone = _check(result, "variance_monotone")
    growth = _check(result, "variance_growth")
    ok = all(c.passed for c in result.checks) and secs < 120.0
    _verdict(8, "collapse diagnostics", ok,
             f"c12 pointwise max {c12.observed:.3e} <= 0, observable mean "
             f"steady within 3 stderr ({steady.observed:.3e} <= 0), branch "
             f"variance monotone and grown by {growth.observed:.3e} "
             f">= {growth.bound:.3e}, {secs:.1f} s")
    assert c12.observed <= 0.0
    assert steady.passed
    assert monotone.passed
    assert growth.passed
    assert all(c.passed for c in result.checks)
    assert secs < 120.0


def test_criterion_9_determinism(runs, tmp_path, monkeypatch):
    start = time.perf_counter()
    outs = []
    for workers, sub in (("1", "serial"), ("5", "parallel")):
        monkeypatch.setenv("COLLAPSELAB_WORKERS", workers)
        run_preset("a-operator", out=tmp_path / sub, realizations=400)
        outs.append(tmp_path / sub)
    secs = time.perf_counter() - start
    runs.seconds["determinism"] = secs
    names = sorted(p.name for p in outs[0].iterdir())
    same_names = names == sorted(p.name for p in outs[1].iterdir())
    same_bytes = same_names and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names)
    ok = same_bytes and secs < 60.0
    _verdict(9, "determinism", ok,
             f"rerun with 1 vs 5 workers byte-identical across "
             f"{len(names)} output files, {secs:.1f} s")
    assert same_names
    assert same_bytes
    assert secs < 60.0


@pytest.mark.parametrize("preset", list(PRESETS))
def test_files_are_the_summary_list(runs, preset):
    result, _ = runs(preset)
    names = sorted(p.name for p in result.out_dir.iterdir())
    assert names == sorted([*result.summary["files"], "summary.json"])


def test_total_runtime(runs):
    total = sum(runs.seconds.values())
    ok = total < 600.0
    print(f"ACCEPTANCE total: {'PASS' if ok else 'FAIL'} "
          f"[{total:.1f} s across {len(runs.seconds)} runs, budget 600 s]")
    assert total < 600.0
