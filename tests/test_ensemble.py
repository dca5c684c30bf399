import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab import cli, ensemble
from collapselab.channels import (
    KernelProfile,
    eigenmode_coupling,
    eigenmode_difference,
    make_channel,
    sample_noise,
    site_projector,
)
from collapselab.ensemble import (
    EnsembleConfig,
    ModelSetup,
    mc_mean_drift,
    mean_series,
    run_ensemble,
    scenario_collapse,
    split_branches,
    variances,
    worker_count,
    _expm_action,
)
from collapselab.errors import ConfigError, ScenarioViolation, StepRejected
from collapselab.evolution import (
    COUPLING_WARN,
    equal_time_hamiltonian,
    solve_nonlocal,
    surface_correction,
)
from collapselab.grids import TimeGrid, Window
from collapselab.lattice import (
    EigenSystem,
    LatticeConfig,
    build_dirac_h0,
    normalized,
    sqrtmh,
)
from collapselab.master import compute_A
from collapselab.presets import run_preset

from conftest import ELL, random_state, two_channels


@pytest.fixture
def ground(lat4, h0_4):
    esys = EigenSystem.of(h0_4, lat4.spacing)
    e0, psi0 = esys.ground_state("positive")
    return esys, e0, psi0


def make_model(lat4, h0_4, grid, amplitude):
    return ModelSetup(grid=grid, h0=h0_4, spacing=lat4.spacing,
                      channels=two_channels(lat4, amplitude))


def test_worker_count_env(monkeypatch, tmp_path):
    monkeypatch.delenv("COLLAPSELAB_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "two")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count()
    # workers are forked processes: without fork, more than one is a config
    # error at the CLI boundary, not a fallback
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "2")
    with pytest.raises(ConfigError, match="fork"):
        worker_count()
    out = tmp_path / "res"
    assert cli.main(["run", "lindblad-vs-mc", "--realizations", "16",
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(realizations=1, seed=0)
    cfg = EnsembleConfig(realizations=4, seed=0)
    assert cfg.window(TimeGrid(0.0, 2.0, 0.5))(np.array([0.0, 2.0])).min() == 1.0
    assert cfg.records == {"energy", "sigma"}
    # a bare string is a set of letters, not a record name
    for records in ({"energy", "rho"}, "sigma"):
        with pytest.raises(ConfigError, match="unknown ensemble records"):
            EnsembleConfig(realizations=4, seed=0, records=records)


def test_zero_coupling_ensemble_is_deterministic(lat4, h0_4, grid16, ground):
    esys, e0, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=8, seed=7,
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.0))
    assert np.abs(stats.energy - e0).max() < 1e-10
    mean, stderr = mean_series(stats.energy)
    assert stderr.max() < 1e-12
    assert stats.energy.shape[0] == 8


def test_transformed_route_conserves_norm_and_trace(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=64, seed=7,
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    assert np.abs(stats.norm - 1.0).max() < 1e-10
    for c in range(stats.checkpoint_nodes.size):
        sig = stats.sigma_mean[c]
        assert np.abs(sig - sig.conj().T).max() < 1e-14
        assert abs(np.trace(sig) - 1.0) < 1e-10
    assert np.all(stats.sigma_stderr >= 0.0)


@settings(max_examples=20, deadline=None)
@given(sites=st.sampled_from([2, 4, 6, 8]), spacing=st.floats(0.25, 2.0),
       mass=st.floats(0.0, 2.0), strength=st.floats(0.0, COUPLING_WARN),
       window=st.one_of(st.none(), st.tuples(st.floats(0.0, 0.5),
                                             st.floats(0.0, 0.25),
                                             st.floats(0.0, 0.5))),
       seed=st.integers(0, 2**32 - 1))
def test_generated_transformed_runs_conserve_norm(sites, spacing, mass, strength,
                                                  window, seed):
    # the bound of test_transformed_route_conserves_norm_and_trace, over
    # generated lattices, couplings lambda * ell up to the warn limit, flat
    # or switched windows (t_on, ramp, plateau) and seeds
    lat = LatticeConfig(sites=sites, spacing=spacing, mass=mass)
    h0 = build_dirac_h0(lat)
    grid = TimeGrid(0.0, 1.0, ELL / 8.0)
    model = ModelSetup(grid, h0, spacing, two_channels(lat, strength / ELL))
    switch = {}
    if window is not None:
        t_on, ramp, plateau = window
        switch = dict(t_on=t_on, t_off=t_on + 2.0 * ramp + plateau, ramp=ramp)
    cfg = EnsembleConfig(realizations=8, seed=seed, **switch)
    stats = run_ensemble(random_state(lat.dim, spacing, seed), cfg, model)
    assert stats.norm.shape == (8, grid.n_nodes)
    assert np.abs(stats.norm - 1.0).max() <= 1e-10


def test_stderr_shrinks_with_ensemble_size(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground

    def final_stderr(realizations):
        cfg = EnsembleConfig(realizations=realizations, seed=7)
        stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
        _, stderr = mean_series(stats.energy)
        return stderr[-1]

    ratio = final_stderr(400) / final_stderr(800)
    assert 1.2 < ratio < 1.7


def test_block_combination_is_worker_independent(lat4, h0_4, grid16, ground,
                                                 monkeypatch):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=600, seed=7,
                         observables=(("pointer", obs),))
    model = make_model(lat4, h0_4, grid16, 0.1)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "1")
    serial = run_ensemble(psi0, cfg, model)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "3")
    forked = run_ensemble(psi0, cfg, model)
    assert stats_bits(serial) == stats_bits(forked)


def stats_bits(stats):
    """Shape and bytes of every array of an ensemble run by name, None for a
    series the run did not record."""
    arrays = {name: getattr(stats, name) for name in (
        "times", "checkpoint_nodes", "energy", "norm", "sigma_mean",
        "sigma_stderr", "branch_weights")}
    arrays.update({(label, key): a for label, series in stats.observables.items()
                   for key, a in series.items()})
    return {k: None if a is None else (a.shape, a.tobytes())
            for k, a in arrays.items()}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("extras", [False, True])
def test_records_keep_the_bits_of_the_full_record(lat4, h0_4, grid16, ground,
                                                  extras, workers, monkeypatch):
    # 300 realizations are two blocks, so at 2 workers a forked process
    # runs one of them and writes only the requested series in place
    esys, _, _ = ground
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    model = make_model(lat4, h0_4, grid16, 0.1)
    kw = dict(realizations=300, seed=7)
    if extras:
        kw.update(observables=(("pointer", obs),),
                  branch_states=split_branches(obs, sup, lat4.spacing))
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "1")
    full = stats_bits(run_ensemble(sup, EnsembleConfig(**kw), model))
    monkeypatch.setenv("COLLAPSELAB_WORKERS", workers)
    series_of = {"energy": ("energy", "norm"), "sigma": ("sigma_mean", "sigma_stderr")}
    for records in (set(), {"energy"}, {"sigma"}, {"energy", "sigma"}):
        stats = run_ensemble(sup, EnsembleConfig(records=frozenset(records), **kw),
                             model)
        unrequested = {key for name, keys in series_of.items()
                       if name not in records for key in keys}
        bits = stats_bits(stats)
        assert bits.keys() == full.keys()
        for key, value in bits.items():
            assert value == (None if key in unrequested else full[key]), (records, key)


@settings(max_examples=15, deadline=None)
@given(realizations=st.integers(2, 40), block=st.sampled_from([3, 5, 8]),
       workers=st.sampled_from([2, 3]))
def test_generated_blocks_are_worker_independent(realizations, block, workers):
    lat = LatticeConfig(sites=4, spacing=1.0, mass=1.0)
    h0 = build_dirac_h0(lat)
    grid = TimeGrid(0.0, 1.0, ELL / 16.0)
    model = ModelSetup(grid, h0, lat.spacing, two_channels(lat, 0.1))
    psi0 = EigenSystem.of(h0, lat.spacing).ground_state("positive")[1]
    cfg = EnsembleConfig(
        realizations=realizations, seed=7,
        observables=(("pointer", eigenmode_difference(lat, 0, 1)),),
        branch_states=(random_state(8, 1.0, 1), random_state(8, 1.0, 2)))
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "BLOCK", block)
        for count in (1, workers):
            mp.setenv("COLLAPSELAB_WORKERS", str(count))
            drift = mc_mean_drift(model, realizations, seed=7,
                                  node=grid.n_nodes // 2)
            runs.append((stats_bits(run_ensemble(psi0, cfg, model)),
                         [m.tobytes() for m in drift]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_step_rejected_in_a_worker_process(lat4, h0_4, grid16, ground, workers,
                                           tmp_path, capsys, monkeypatch):
    # 20 realizations in blocks of 8: realization 5 sits in block 0 and 17 in
    # block 2. One NaN field sample in a table makes that row's step bound
    # NaN, read near the last step for 5 and at the first step for 17. So at
    # 3 workers block 2 fails first, and only waiting for the blocks in order
    # names realization 5
    tables = ensemble.white_tables

    def poisoned(count, grid, window, seeds, pad=0):
        out = tables(count, grid, window, seeds, pad)
        rows = [r for _, r in seeds]
        for r, col in ((5, out.shape[1] - pad - 2), (17, pad + 1)):
            if r in rows:
                out[0, col, rows.index(r)] = np.nan
        return out

    monkeypatch.setattr(ensemble, "BLOCK", 8)
    monkeypatch.setattr(ensemble, "white_tables", poisoned)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", workers)
    _, _, psi0 = ground
    with pytest.raises(StepRejected, match=r"realization 5, step \d+"):
        run_ensemble(psi0, EnsembleConfig(realizations=20, seed=7),
                     make_model(lat4, h0_4, grid16, 0.1))
    out = tmp_path / "res"
    assert cli.main(["run", "lindblad-vs-mc", "--realizations", "20",
                     "--out", str(out)]) == 3
    assert "realization 5, step" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


# Run in a fresh interpreter under a timeout: a lost worker must fail the
# run, not hang the test. Blocks of 8 over 20 realizations are blocks 0, 1,
# 2. The arguments are the output directory, then "kill" (block 1 kills its
# process) or the realizations whose field gets a NaN sample.
_FAULTY_RUN = """
import os, signal, sys
import numpy as np
from collapselab import cli, ensemble

ensemble.BLOCK = 8
tables = ensemble.white_tables
faults = sys.argv[2:]

def faulty(count, grid, window, seeds, pad=0):
    rows = [r for _, r in seeds]
    if faults == ["kill"] and rows[0] == 8:
        os.kill(os.getpid(), signal.SIGKILL)
    out = tables(count, grid, window, seeds, pad)
    for r in map(int, faults if faults != ["kill"] else []):
        if r in rows:
            out[0, pad + 1, rows.index(r)] = np.nan
    return out

ensemble.white_tables = faulty
print("exit", cli.main(["run", "lindblad-vs-mc", "--realizations", "20",
                        "--out", sys.argv[1]]))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def run_faulty(workers, *args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "COLLAPSELAB_WORKERS": str(workers),
           "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", _FAULTY_RUN, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_killed_worker_fails_the_run(tmp_path):
    proc = run_faulty(2, tmp_path / "res", "kill")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["exit 3", "no child left"]
    assert ("solver error: worker process for blocks [1] ended without a "
            "report (killed by signal 9)") in proc.stderr
    assert not (tmp_path / "res" / "summary.json").exists()


@pytest.mark.parametrize("rows", [[5, 17], [12, 17]])
def test_rejected_step_in_workers_leaves_no_child(tmp_path, rows):
    # at 3 workers the caller runs block 0 (realization 5), the children
    # blocks 1 (12) and 2 (17); the lowest failing block names the run
    proc = run_faulty(3, tmp_path / "res", *rows)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["exit 3", "no child left"]
    assert f"solver error: realization {rows[0]}, step" in proc.stderr


def test_child_failures_keep_their_type(monkeypatch):
    # a child's exception crosses the pipe pickled; one that does not
    # survive pickling arrives as a RuntimeError naming its type
    class Unpicklable(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} {b}")

    def task(i):
        if i == 1:
            raise StepRejected("block 1")
        if i == 2:
            raise Unpicklable("block", 2)

    monkeypatch.setenv("COLLAPSELAB_WORKERS", "3")
    with pytest.raises(StepRejected, match="block 1"):
        ensemble._run_blocks(task, 3)
    with pytest.raises(RuntimeError, match="Unpicklable: block 2"):
        ensemble._run_blocks(lambda i: task(2) if i == 2 else None, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def untransformed_oracle(model, cfg, psi0):
    """Per realization, on the ensemble's field path [seed, r]: the energy
    and norm in the untransformed picture, from the fixed-point solve and
    the surface correction, and the energy of the transformed state
    sqrt(1 + S) psi under h0 plus the expansion-form interaction."""
    grid, spacing = model.grid, model.spacing
    eye = np.eye(model.h0.shape[0])
    out = {key: np.empty((cfg.realizations, grid.n_nodes))
           for key in ("energy", "norm", "transformed_energy")}
    for r in range(cfg.realizations):
        noise = sample_noise(list(model.channels), grid, [cfg.seed, r],
                             window=cfg.window(grid))
        rec = solve_nonlocal(grid, list(model.channels), noise.samples, model.h0,
                             spacing)
        traj = rec.trajectory(psi0)
        for j in range(grid.n_nodes):
            psi = traj[j]
            s = surface_correction(rec, j)
            w = equal_time_hamiltonian(rec, j)
            metric = eye + s
            h_psi = (model.h0 + w) @ psi
            out["energy"][r, j] = (spacing * np.vdot(psi, metric @ h_psi)).real
            out["norm"][r, j] = (spacing * np.vdot(psi, metric @ psi)).real
            psi_t = sqrtmh(metric)[0] @ psi
            # the expansion form of transformed_interaction, which forms
            # the exact form too and so needs two nodes on each side
            anti = w - w.conj().T
            wt = 0.5 * (w + w.conj().T) - 0.125 * (anti @ s - s @ anti)
            out["transformed_energy"][r, j] = (
                spacing * np.vdot(psi_t, (model.h0 + wt) @ psi_t)).real
    return out


def test_both_pictures_agree_on_energy(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    cfg = EnsembleConfig(realizations=2, seed=2, t_on=0.7, t_off=1.3, ramp=0.2)
    ref = untransformed_oracle(make_model(lat4, h0_4, grid16, 0.04), cfg, psi0)
    # two energy formulas on one untransformed solve; on no-heating's model
    # the untransformed picture's endpoint energy differs from the
    # transformed ensemble's at second order in the coupling (ROADMAP item
    # 18), and no test compares run_ensemble's stepper with the
    # untransformed solve
    diff, _ = mean_series(ref["transformed_energy"] - ref["energy"])
    assert np.abs(diff).max() < 1e-4
    assert np.abs(ref["norm"] - 1.0).max() < 1e-4


def test_variance_diagnostics_identity_observable(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    eye = np.eye(lat4.dim, dtype=complex)
    cfg = EnsembleConfig(realizations=16, seed=5,
                         observables=(("unit", eye),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    rec = stats.observables["unit"]
    # the adjusted difference of the observable's variance between the ends
    (var0, var1), _ = variances(rec["transformed"][:, [0, -1]])
    assert abs(var1 - var0) < 1e-12
    c12, _ = mean_series(rec["c12"])
    assert np.abs(c12).max() < 1e-20


def test_variance_diagnostics_sign_and_guards(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=16, seed=5,
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    # the record holds |<[W, O]>|^2, so the estimator c12 is its negative
    c12 = -mean_series(stats.observables["pointer"]["c12"])[0]
    assert np.all(c12 <= 0.0)


def test_split_branches(lat4, h0_4, ground):
    esys, _, _ = ground
    obs = eigenmode_difference(lat4, 0, 1)
    v0, v1 = esys.state(4), esys.state(5)  # bottom two positive modes
    sup = v0 + v1
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    phi1, phi2 = split_branches(obs, sup, lat4.spacing)
    for phi in (phi1, phi2):
        assert abs(lat4.spacing * np.vdot(phi, phi).real - 1.0) < 1e-12
    with pytest.raises(ScenarioViolation):
        split_branches(obs, v0, lat4.spacing)
    three = v0 + v1 + esys.state(6)
    with pytest.raises(ScenarioViolation):
        split_branches(obs, three, lat4.spacing)


def test_collapse_scenario_guards(lat4, h0_4, grid16, ground):
    esys, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    model = make_model(lat4, h0_4, grid16, 0.1)
    with pytest.raises(ConfigError):
        scenario_collapse(psi0, EnsembleConfig(
            realizations=4, seed=1, observables=()), model)
    with pytest.raises(ScenarioViolation):
        scenario_collapse(psi0, EnsembleConfig(
            realizations=4, seed=1, observables=(("pointer", obs),)), model)
    with pytest.raises(ScenarioViolation):
        scenario_collapse(psi0, EnsembleConfig(
            realizations=4, seed=1, observables=(("pointer", obs),),
            t_on=0.7, t_off=1.3, ramp=0.2), model)
    # ramp long enough, but the window is on within ell_min of the start
    long_model = make_model(lat4, h0_4, TimeGrid(0.0, 4.0, ELL / 16.0), 0.1)
    with pytest.raises(ScenarioViolation, match="off near both grid ends"):
        scenario_collapse(psi0, EnsembleConfig(
            realizations=4, seed=1, observables=(("pointer", obs),),
            t_on=0.25, t_off=3.5, ramp=2.0 * ELL), long_model)


def test_collapse_scenario_zero_coupling_is_a_martingale_nullcase(
        lat4, h0_4, ground):
    esys, _, _ = ground
    grid = TimeGrid(0.0, 4.0, ELL / 16.0)
    model = make_model(lat4, h0_4, grid, 0.0)
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    cfg = EnsembleConfig(realizations=16, seed=3,
                         observables=(("pointer", obs),),
                         t_on=1.0, t_off=3.2, ramp=1.0)
    weights = scenario_collapse(sup, cfg, model).branch_weights[:, :, 0]
    mean_w, _ = mean_series(weights)
    assert np.abs(mean_w - 0.5).max() < 1e-12
    assert weights.var(axis=0, ddof=1).max() < 1e-24
    hist, _ = np.histogram(weights[:, -1], bins=20, range=(0.0, 1.0))
    assert hist.sum() == 16


def variance_with_error(values):
    """The per-column formula `variances` replaced: a 1-D column's
    var(ddof=1), and its fourth central moment through centered**4."""
    nr = values.size
    var = float(values.var(ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered**4))
    se = np.sqrt(max(m4 - var**2 * (nr - 3) / (nr - 1), 0.0) / nr)
    return var, float(se)


@settings(max_examples=60, deadline=None)
@given(nr=st.integers(2, 600), cols=st.integers(1, 70),
       power=st.floats(0.25, 4.0), seed=st.integers(0, 2**32 - 1))
def test_variances_match_the_per_column_formula(nr, cols, power, seed):
    # skewed weights in [0, 1], one column constant (every branch weight
    # starts equal), over more than one chunk of columns
    rng = np.random.default_rng(seed)
    values = rng.random((nr, cols)) ** power
    values[:, rng.integers(cols)] = rng.random()
    var, se = variances(values)
    for j in range(cols):
        want_var, want_se = variance_with_error(values[:, j])
        assert var[j] == want_var
        assert abs(se[j] - want_se) <= 1e-15 * want_se


def test_mc_mean_drift_matches_quadrature(lat4, h0_4, grid16):
    model = make_model(lat4, h0_4, grid16, 0.1)
    a = compute_A(model.opset)
    mean, stderr = mc_mean_drift(model, 2000, seed=11,
                                 node=grid16.node_index(1.5))
    z = np.abs(mean - a) / (stderr + 1e-12)
    assert z.max() < 4.0
    with pytest.raises(ConfigError):
        mc_mean_drift(model, 100, seed=11, node=0)
    with pytest.raises(ConfigError):
        mc_mean_drift(model, 100, seed=11, node=grid16.n_nodes)
    for count in (0, 1):
        with pytest.raises(ConfigError, match="at least 2 realizations"):
            mc_mean_drift(model, count, seed=11, node=grid16.node_index(1.5))


def eigh_step(gen, psi, dt):
    """Reference step exp(-i dt gen_r) psi_r through a batched eigh."""
    vals, vecs = np.linalg.eigh(gen)
    coef = np.einsum("rba,rb->ra", vecs.conj(), psi) * np.exp(-1j * dt * vals)
    return np.einsum("rab,rb->ra", vecs, coef)


def norm2_bound(gen, dt):
    """dt ||gen_r||_2 of Hermitian generators, from their eigenvalues."""
    return dt * np.abs(np.linalg.eigvalsh(gen)).max(axis=1)


def norm1_bound(gen, dt):
    """dt ||gen_r||_1, a valid 2-norm bound that stays defined on non-finite
    entries."""
    return dt * np.abs(gen).sum(axis=1).max(axis=1)


def hermitian_batch(rng, rows, dim, thetas, dt):
    """Random Hermitian generators scaled to dt * ||gen_r||_1 = thetas[r],
    with unit states."""
    gen = rng.standard_normal((rows, dim, dim)) + 1j * rng.standard_normal(
        (rows, dim, dim))
    gen = gen + gen.conj().transpose(0, 2, 1)
    norm1 = np.abs(gen).sum(axis=1).max(axis=1)
    gen *= (np.asarray(thetas) / (dt * norm1))[:, None, None]
    psi = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    return gen, psi


@pytest.mark.parametrize("dim", [2, 8, 16])
def test_expm_action_matches_eigh(dim):
    # two modes take the closed form, more the Taylor series
    rng = np.random.default_rng(dim)
    dt = 0.03
    thetas = np.geomspace(0.05, 5.0, 24)  # above 0.5 the step is split
    gen, psi = hermitian_batch(rng, thetas.size, dim, thetas, dt)
    # two more rows, a multiple of the identity (traceless part B = 0) and a
    # row just off it, |B| about 1e-9, pin the limit of sin(dt |b|) / |b| at
    # b = 0
    near, near_psi = hermitian_batch(rng, 2, dim, thetas[:2], dt)
    near = np.eye(dim) * (thetas[:2] / dt)[:, None, None] + np.array(
        [0.0, 1e-9 / np.abs(near[1]).max()])[:, None, None] * near
    gen, psi = np.concatenate([near, gen]), np.concatenate([near_psi, psi])
    thetas = np.concatenate([thetas[:2], thetas])
    out = _expm_action(gen, psi, dt, norm2_bound(gen, dt), range(thetas.size), 0)
    dev = np.abs(out - eigh_step(gen, psi, dt)).max(axis=1)
    assert np.all(dev <= 1e-13 * np.maximum(1.0, thetas))


def test_expm_action_rows_keep_their_own_degree():
    # A path-graph generator reaches the last site of e_0 only at order
    # D - 1, so that entry's bits record every term its row adds.
    rng = np.random.default_rng(5)
    dim, dt = 8, 0.03
    thetas = np.geomspace(0.05, 5.0, 12)
    hop = rng.standard_normal((thetas.size, dim - 1)) + 1j * rng.standard_normal(
        (thetas.size, dim - 1))
    gen = np.zeros((thetas.size, dim, dim), dtype=complex)
    gen[:, np.arange(dim - 1), np.arange(1, dim)] = hop
    gen += gen.conj().transpose(0, 2, 1)
    gen *= (thetas / (dt * np.abs(gen).sum(axis=1).max(axis=1)))[:, None, None]
    psi = np.zeros((thetas.size, dim), dtype=complex)
    psi[:, 0] = 1.0
    out = _expm_action(gen, psi, dt, norm2_bound(gen, dt), range(thetas.size), 0)
    assert np.all(out[:, -1] != 0.0)
    for r in range(thetas.size):
        alone = _expm_action(gen[r : r + 1], psi[r : r + 1], dt,
                             norm2_bound(gen[r : r + 1], dt), range(1), 0)
        assert alone.tobytes() == out[r : r + 1].tobytes()


def test_pair_action_takes_the_hermitian_part():
    # a product of Hermitian matrices by GEMM is Hermitian only to rounding:
    # an anti-Hermitian part about 1e-9 changes no output bit beyond it
    rng = np.random.default_rng(9)
    dt = 0.03
    thetas = np.geomspace(0.05, 5.0, 12)
    gen, psi = hermitian_batch(rng, thetas.size, 2, thetas, dt)
    skew = rng.standard_normal(gen.shape) + 1j * rng.standard_normal(gen.shape)
    skew = 1e-9 * np.abs(gen).max() * (skew - skew.conj().transpose(0, 2, 1))
    out = ensemble._pair_action(gen + skew, psi, dt)
    assert np.abs(out - ensemble._pair_action(gen, psi, dt)).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 8, 16]), theta=st.floats(0.0, 5.0),
       spacing=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_expm_action_preserves_weighted_norm(dim, theta, spacing, seed):
    rng = np.random.default_rng(seed)
    dt = 0.05
    gen, psi = hermitian_batch(rng, 4, dim, [theta] * 4, dt)
    psi /= np.sqrt(spacing)
    out = _expm_action(gen, psi, dt, norm2_bound(gen, dt), range(4), 0)
    before = spacing * np.einsum("rb,rb->r", psi.conj(), psi).real
    after = spacing * np.einsum("rb,rb->r", out.conj(), out).real
    assert np.abs(after - before).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_action_rejects_non_finite_row(bad):
    # on the closed form (2 modes), which takes no bound and checks the
    # generator, and on the Taylor series (8), which checks its bound
    rng = np.random.default_rng(3)
    dt = 0.03
    for dim in (2, 8):
        def bound(g):
            return None if dim == 2 else norm1_bound(g, dt)

        gen, psi = hermitian_batch(rng, 6, dim, np.full(6, 0.3), dt)
        clean = _expm_action(gen, psi, dt, bound(gen), range(40, 46), 7)
        poisoned = gen.copy()
        poisoned[2, 1, dim // 2] = bad
        psi_in = psi.copy()
        with pytest.raises(StepRejected, match=r"realization 42, step 7"):
            _expm_action(poisoned, psi, dt, bound(poisoned), range(40, 46), 7)
        assert psi.tobytes() == psi_in.tobytes()
        keep = [0, 1, 3, 4, 5]
        rest = _expm_action(gen[keep], psi[keep], dt, bound(gen[keep]), range(5), 7)
        assert rest.tobytes() == clean[keep].tobytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_two_mode_run_rejects_a_non_finite_sample(workers, tmp_path, monkeypatch):
    # collapse-scenario steps two modes in closed form, with no step bound;
    # one NaN field sample of realization 5 (block 0 of blocks of 8) makes
    # its generator non-finite, and the run stops before writing anything
    tables = ensemble.white_tables

    def poisoned(count, grid, window, seeds, pad=0):
        out = tables(count, grid, window, seeds, pad)
        rows = [r for _, r in seeds]
        if 5 in rows:
            out[0, out.shape[1] // 2, rows.index(5)] = np.nan
        return out

    monkeypatch.setattr(ensemble, "BLOCK", 8)
    monkeypatch.setattr(ensemble, "white_tables", poisoned)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", workers)
    out = tmp_path / "res"
    with pytest.raises(StepRejected,
                       match=r"realization 5, step \d+: non-finite generator"):
        run_preset("collapse-scenario", out=out, realizations=20)
    assert not out.exists() or not any(out.iterdir())


def test_presets_take_the_step_of_their_mode_count(tmp_path, monkeypatch):
    # collapse-scenario keeps one degenerate pair and steps it in closed
    # form; lindblad-vs-mc keeps 8 modes and takes the Taylor series
    expm, pair = ensemble._expm_action, ensemble._pair_action
    calls = []  # [path, kept modes] per step

    def spy_expm(gen, psi, *args):
        calls.append(["taylor", psi.shape[1]])
        return expm(gen, psi, *args)

    def spy_pair(*args):
        calls[-1][0] = "closed form"
        return pair(*args)

    monkeypatch.setattr(ensemble, "_expm_action", spy_expm)
    monkeypatch.setattr(ensemble, "_pair_action", spy_pair)
    for name, kind in (("collapse-scenario", ["closed form", 2]),
                       ("lindblad-vs-mc", ["taylor", 8])):
        calls.clear()
        run_preset(name, out=tmp_path / name, realizations=2)
        assert calls and all(call == kind for call in calls), (name, calls[:3])


# the thetas per sub-step where the Taylor degree steps up (degrees 3-13),
# and the largest theta stepped without splitting
_STEP_EDGES = [float(t) for t in ensemble._TAYLOR_THETA[3:14]] + [0.5]


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 8, 16]),
       edges=st.lists(st.tuples(st.sampled_from(_STEP_EDGES),
                                st.integers(1, 3),
                                st.floats(-1e-6, 1e-6)),
                      min_size=1, max_size=64),
       spacing=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_expm_action_batch_splits_keep_row_bits(dim, edges, spacing, seed):
    # thetas just below and above the degree and sub-step thresholds, in
    # shuffled order, so one batch mixes degrees and sub-step counts
    rng = np.random.default_rng(seed)
    dt = 0.05
    thetas = np.array([s * edge * (1.0 + rel) for edge, s, rel in edges])
    rng.shuffle(thetas)
    gen, psi = hermitian_batch(rng, thetas.size, dim, thetas, dt)
    psi /= np.sqrt(spacing)
    out = _expm_action(gen, psi, dt, thetas, range(thetas.size), 0)
    for r in range(thetas.size):
        alone = _expm_action(gen[r : r + 1], psi[r : r + 1], dt,
                             thetas[r : r + 1], range(1), 0)
        assert np.array_equal(alone[0].view(np.float64), out[r].view(np.float64))
    before = spacing * np.einsum("rb,rb->r", psi.conj(), psi).real
    after = spacing * np.einsum("rb,rb->r", out.conj(), out).real
    assert np.abs(after - before).max() <= 1e-12


def test_noise_tables_copy_the_drawn_samples(lat4, h0_4, grid16, window_mid):
    model = make_model(lat4, h0_4, grid16, 0.3)
    channels, seed, pad = list(model.channels), 17, 4
    m = 2 * grid16.steps + 1
    h = 0.5 * grid16.dt
    seeds = [[seed, r] for r in range(3, 8)]
    flat = ensemble.white_tables(2, grid16, Window.flat(), seeds, pad)
    tables = ensemble.white_tables(2, grid16, window_mid, seeds, pad)
    # realization innermost: channel, half-grid index, realization
    assert tables.shape == (2, m + 2 * pad, 5)
    window = window_mid(grid16.t0 + h * np.arange(m))
    for i, r in enumerate(range(3, 8)):
        # each column is default_rng([seed, r])'s draw, scaled to variance
        # 1/h and by the window, bit for bit
        draw = np.random.default_rng([seed, r]).standard_normal((2, m))
        assert flat[:, pad : pad + m, i].tobytes() == (draw / np.sqrt(h)).tobytes()
        noise = sample_noise(channels, grid16, [seed, r])
        assert flat[:, pad : pad + m, i].tobytes() == noise.samples.tobytes()
        middle = tables[:, pad : pad + m, i]
        assert middle.tobytes() == (draw / np.sqrt(h) * window).tobytes()
        # sample_noise is the one-column view
        noise = sample_noise(channels, grid16, [seed, r], window=window_mid)
        assert middle.tobytes() == noise.samples.tobytes()
        assert middle.tobytes() == noise.table(
            grid16.t0, 0.5 * grid16.dt, m).tobytes()
    assert not tables[:, :pad].any() and not tables[:, pad + m :].any()
    # the switched window is off at the grid ends and on in the middle
    assert not tables[:, [pad, pad + m - 1]].any()
    assert tables[:, pad + m // 2].all()


def hop_model(lat, grid, amplitude):
    """A hop between positive modes 0 and 1 and their projector difference:
    both channels vanish off that pair, so a state there stays there."""
    prof = KernelProfile(ell_min=ELL)
    return ModelSetup(grid=grid, h0=build_dirac_h0(lat), spacing=lat.spacing,
                      channels=[make_channel("hop", eigenmode_coupling(lat, 0, 1),
                                             prof, amplitude),
                                make_channel("pointer", eigenmode_difference(lat, 0, 1),
                                             prof, amplitude)])


def hop_state(lat, esys):
    """Positive modes 0 and 1 at equal weight, a quarter wave apart."""
    pos = esys.positive
    return normalized(esys.state(pos[0]) + 1j * esys.state(pos[1]), lat.spacing)


def test_rows_do_not_depend_on_block_mates(lat4, h0_4, grid16, ground):
    esys, _, _ = ground
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    # strong enough that some steps need more terms or sub-steps in one
    # row than in another; the hop model steps two of the eight modes
    cases = [(make_model(lat4, h0_4, grid16, 1.5), sup, obs),
             (hop_model(lat4, grid16, 1.5), hop_state(lat4, esys),
              site_projector(lat4, 1))]
    for model, psi0, op in cases:
        phi1, phi2 = split_branches(op, psi0, lat4.spacing)

        def run(realizations):
            cfg = EnsembleConfig(realizations=realizations, seed=7,
                                 observables=(("pointer", op),),
                                 branch_states=(phi1, phi2))
            return run_ensemble(psi0, cfg, model)

        small, large = run(8), run(300)
        series = {"energy": (small.energy, large.energy),
                  "norm": (small.norm, large.norm),
                  "branches": (small.branch_weights, large.branch_weights)}
        for label in small.observables:
            for key in small.observables[label]:
                series[label, key] = (small.observables[label][key],
                                      large.observables[label][key])
        for key, (few, many) in series.items():
            assert few.tobytes() == many[:8].tobytes(), key


def random_model(rng, dim, count):
    """A random Hermitian h0 with one degenerate pair and `count` channels
    with random Hermitian operators and two kernel shapes and ranges."""
    vals = rng.uniform(-3.0, 3.0, dim)
    vals[1] = vals[0]
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
    h0 = (basis * vals) @ basis.conj().T
    h0 = 0.5 * (h0 + h0.conj().T)
    profiles = [KernelProfile(ell_min=ELL), KernelProfile(
        ell_min=0.75 * ELL, shape="gaussian_truncated")]
    channels = []
    for a in range(count):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        channels.append(make_channel(f"c{a}", op, profiles[a],
                                     rng.uniform(0.1, 2.0)))
    return ModelSetup(grid=TimeGrid(0.0, 1.0, ELL / 16), h0=h0, spacing=1.0,
                      channels=channels)


# the ensemble steps with the symmetrized stack; the raw one has no table
@pytest.mark.parametrize("name", ["sym"])
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("dim", [4, 8, 16])
def test_kernel_table_matches_rotated_stack(dim, count, name):
    rng = np.random.default_rng(100 * dim + 10 * count + len(name))
    model = random_model(rng, dim, count)
    cfg = EnsembleConfig(realizations=2, seed=1)
    run = ensemble._TransformedRun(model, cfg, random_state(dim, 1.0, 3))
    opset = model.opset
    stack = model.grid.dt * getattr(opset, name)
    w = rng.standard_normal((5, count, opset.zeta.size))
    vecs = run.vecs
    assert np.allclose(vecs @ np.diag(run.lam) @ vecs.conj().T, model.h0,
                       atol=1e-13)
    oracle = vecs.conj().T @ np.einsum("raz,azxy->rxy", w, stack) @ vecs
    scale = np.abs(oracle).max()
    # the tables are even in z and keep the rows z >= 0; they take the
    # folded samples f(z) + f(-z)
    k = opset.half_width
    folded = w[:, :, k:] + w[:, :, k::-1]
    # the step's fold: realization innermost, then the constant 1 row
    fold = np.concatenate([folded.transpose(1, 2, 0).reshape(-1, 5),
                           np.ones((1, 5))])
    # W' = sum_a O'_a diag(p_a) + diag(conj p_a) O'_a
    p = run._weights(fold[:-1])
    ops = vecs.conj().T @ np.stack([ch.spatial_op for ch in model.channels]) @ vecs
    p_form = np.einsum("axy,ray->rxy", ops, p) + np.einsum(
        "rax,axy->rxy", p.conj(), ops)
    assert np.abs(p_form - oracle).max() <= 1e-13 * scale
    # the step's generator diag(lam) + W' comes from the rotated stack and
    # lam in one GEMM, which reads the fold transposed
    flat = fold.T @ run.mid_table
    gen = np.ascontiguousarray(flat[:, : 2 * dim * dim]).view(complex)
    gen = gen.reshape(5, dim, dim)
    want = np.diag(run.lam) + oracle
    assert np.abs(gen - want).max() <= 1e-13 * np.abs(want).max()
    p_step = np.ascontiguousarray(flat[:, 2 * dim * dim :]).view(complex)
    assert np.abs(p_step.reshape(p.shape) - p).max() <= 1e-13 * np.abs(p).max()
    # the records' inner products <psi, W' y> from p alone
    psi = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
    y = np.stack([psi, rng.standard_normal((5, dim)) + 0j], axis=1)
    dots = np.einsum("rb,rxb,rjx->rj", psi.conj(), oracle.transpose(0, 2, 1), y)
    assert np.abs(run._w_dots(p, psi, y) - dots).max() <= 1e-12 * scale * np.abs(
        y).max() * np.abs(psi).max()


def test_kept_modes_close_over_the_channels():
    # h0 with a degenerate pair (modes 0 and 1) and well separated levels, in
    # a random basis; the channels hop along two chains of its eigenmodes,
    # 1 - 3 - 6 and 2 - 4 - 5 - 7, so closing 0 and 1 takes two rounds
    dim = 8
    rng = np.random.default_rng(5)
    vals = 0.5 * np.arange(dim) - 2.0
    vals[1] = vals[0]
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
    h0 = (basis * vals) @ basis.conj().T
    vecs = EigenSystem.of(0.5 * (h0 + h0.conj().T), 1.0).vectors
    psi = vecs.conj().T @ basis[:, [0, 1]].sum(axis=1) / np.sqrt(2.0)

    def hops(*pairs, size=1.0):
        m = np.zeros((dim, dim), dtype=complex)
        for i, j in pairs:
            m[i, j] = m[j, i] = size
        return m

    def kept(*eigen_ops):
        # unit-norm channel operators, rotated with the eigh basis, which
        # picks its own pair basis and rounds every other entry
        ops = [make_channel("c", basis @ op @ basis.conj().T,
                            KernelProfile(ell_min=ELL), 1.0).spatial_op
               for op in eigen_ops]
        return ensemble._kept_modes(vecs.conj().T @ np.stack(ops) @ vecs,
                                    psi).tolist()

    chains = [hops((1, 3), (2, 4), (5, 7)), hops((3, 6), (4, 5))]
    assert kept(*chains) == [0, 1, 3, 6]
    # a genuine coupling far above rounding joins the chains
    assert kept(chains[0], chains[1] + hops((6, 2), size=1e-9)) == list(range(dim))
    # random_model's dense channels reach every mode from one
    model = random_model(rng, dim, 2)
    vecs = EigenSystem.of(model.h0, 1.0).vectors
    ops = vecs.conj().T @ np.stack([ch.spatial_op for ch in model.channels]) @ vecs
    assert ensemble._kept_modes(ops, np.eye(dim)[2]).tolist() == list(range(dim))


def oracle_records(model, cfg, psi0):
    """The transformed route's records in the original basis: W from the
    dt-scaled stack, a batched eigh per step, the einsum bookkeeping."""
    grid, n, s = model.grid, model.grid.n_nodes, model.spacing
    opset = model.opset
    k = opset.half_width
    stack = grid.dt * opset.sym
    d_off = np.arange(-k, k + 1)
    node_idx = 2 * np.arange(n)[:, None] - d_off + k + 1
    mid_idx = 2 * np.arange(n - 1)[:, None] + 1 - d_off + k + 1
    nr = cfg.realizations
    tables = ensemble.white_tables(len(model.channels), grid, cfg.window(grid),
                                   [[cfg.seed, r] for r in range(nr)], k + 1)

    def interaction(idx):
        return np.einsum("azr,azxy->rxy", tables[:, idx], stack)

    (_, op), = cfg.observables
    branches = np.stack(cfg.branch_states)
    psi = np.tile(np.asarray(psi0, dtype=complex), (nr, 1))
    out = {key: np.empty((nr, n)) for key in
           ("energy", "norm", "transformed", "square", "c12")}
    out["branches"] = np.empty((nr, n, len(branches)))
    cp = {int(node): c for c, node in
          enumerate(ensemble._checkpoint_nodes(n, ensemble.CHECKPOINTS))}
    out["sigma"] = np.zeros((len(cp),) + model.h0.shape, dtype=complex)
    for j in range(n):
        w = interaction(node_idx[j])
        w_psi = np.einsum("rab,rb->ra", w, psi)
        o_psi = psi @ op.T
        out["energy"][:, j] = s * np.einsum("rb,rb->r", psi.conj(),
                                            psi @ model.h0.T + w_psi).real
        out["norm"][:, j] = s * np.einsum("rb,rb->r", psi.conj(), psi).real
        out["transformed"][:, j] = s * np.einsum("rb,rb->r", psi.conj(), o_psi).real
        out["square"][:, j] = s * np.einsum("rb,rb->r", psi.conj(),
                                            o_psi @ op.T).real
        comm = np.einsum("rab,rb->ra", w, o_psi) - w_psi @ op.T
        out["c12"][:, j] = np.abs(s * np.einsum("rb,rb->r", psi.conj(), comm)) ** 2
        out["branches"][:, j] = np.abs(s * psi @ branches.conj().T) ** 2
        if j in cp:
            out["sigma"][cp[j]] = s * np.einsum("rb,rc->bc", psi, psi.conj()) / nr
        if j < n - 1:
            psi = eigh_step(model.h0 + interaction(mid_idx[j]), psi, grid.dt)
    return out


def assert_records_match_oracle(model, cfg, psi0):
    stats = run_ensemble(psi0, cfg, model)
    ref = oracle_records(model, cfg, psi0)
    rec = stats.observables["pointer"]
    pairs = [(stats.energy, ref["energy"]),
             (stats.norm, ref["norm"]),
             (rec["transformed"], ref["transformed"]),
             (rec["square"], ref["square"]),
             (stats.branch_weights, ref["branches"]),
             (stats.sigma_mean, ref["sigma"])]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # c12 is a squared commutator that passes through zero
    assert rec["c12"].max() > 1e-3
    assert np.abs(rec["c12"] - ref["c12"]).max() <= 1e-11 * rec["c12"].max()


def test_records_match_original_basis_oracle(lat4, h0_4, grid16, ground):
    esys, _, _ = ground
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    model = make_model(lat4, h0_4, grid16, 1.5)
    cfg = EnsembleConfig(realizations=6, seed=21, observables=(("pointer", obs),),
                         branch_states=split_branches(obs, sup, lat4.spacing),
                         t_on=0.4, t_off=1.6, ramp=0.3)
    assert_records_match_oracle(model, cfg, sup)


def test_reduced_records_match_original_basis_oracle(lat4, grid16, ground):
    # the run steps the hop's two modes; the site projector maps them onto
    # all eight, so its square, c12, the branch states and sigma reach past
    # the stepped modes
    esys, _, _ = ground
    model = hop_model(lat4, grid16, 1.5)
    sup = hop_state(lat4, esys)
    obs = site_projector(lat4, 1)
    cfg = EnsembleConfig(realizations=6, seed=21, observables=(("pointer", obs),),
                         branch_states=split_branches(obs, sup, lat4.spacing),
                         t_on=0.4, t_off=1.6, ramp=0.3)
    assert ensemble._TransformedRun(model, cfg, sup).lam.size == 2
    assert_records_match_oracle(model, cfg, sup)


def test_adjacent_seeds_give_distinct_ensembles(tmp_path):
    # master seeds that differ only in low bits must not share noise paths
    z = {run_preset("a-operator", out=tmp_path / str(seed), seed=seed,
                    realizations=400).summary["z_frobenius"]
         for seed in (904, 905, 906)}
    assert len(z) == 3


@pytest.mark.parametrize("name", ["no-heating", "csl-contrast", "lindblad-vs-mc",
                                  "collapse-scenario"])
def test_preset_tree_independent_of_workers(name, tmp_path, monkeypatch):
    # 20 realizations in blocks of 8: three blocks, the last one short;
    # no-heating's weak-coupling sweeps run a quarter of its realizations,
    # so it takes 36 for a sweep of 9, again over two blocks
    monkeypatch.setattr(ensemble, "BLOCK", 8)
    realizations = 36 if name == "no-heating" else 20
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("COLLAPSELAB_WORKERS", workers)
        out = tmp_path / workers
        run_preset(name, out=out, realizations=realizations)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for file in names:
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file
