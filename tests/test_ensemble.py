import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab import ensemble, evolution
from collapselab.channels import eigenmode_difference, sample_noise
from collapselab.ensemble import (
    EnsembleConfig,
    ModelSetup,
    energy_trajectory,
    mc_mean_drift,
    mean_series,
    run_ensemble,
    scenario_collapse,
    split_branches,
    variance_diagnostics,
    worker_count,
    _expm_action,
)
from collapselab.errors import (
    ConfigError,
    PictureNotRecorded,
    ScenarioViolation,
    StepRejected,
)
from collapselab.evolution import (
    solve_nonlocal,
    surface_correction,
    transformed_interaction,
)
from collapselab.grids import TimeGrid, Window
from collapselab.lattice import EigenSystem, sqrtmh
from collapselab.master import compute_A
from collapselab.presets import run_preset

from conftest import ELL, two_channels


@pytest.fixture
def ground(lat4, h0_4):
    esys = EigenSystem.of(h0_4, lat4.spacing)
    e0, psi0 = esys.ground_state("positive")
    return esys, e0, psi0


def make_model(lat4, h0_4, grid, amplitude):
    return ModelSetup(grid=grid, h0=h0_4, spacing=lat4.spacing,
                      channels=two_channels(lat4, amplitude))


def test_worker_count_env(monkeypatch):
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


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(realizations=1, seed=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(realizations=4, seed=0, picture="sideways")
    cfg = EnsembleConfig(realizations=4, seed=0)
    assert cfg.window(TimeGrid(0.0, 2.0, 0.5))(np.array([0.0, 2.0])).min() == 1.0


def test_zero_coupling_ensemble_is_deterministic(lat4, h0_4, grid16, ground):
    esys, e0, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=8, seed=7, picture="transformed",
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.0))
    assert np.abs(stats.energy["transformed"] - e0).max() < 1e-10
    mean, stderr = mean_series(stats.energy["transformed"])
    assert stderr.max() < 1e-12
    assert stats.realizations == 8


def test_transformed_route_conserves_norm_and_trace(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=64, seed=7, picture="transformed",
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    assert np.abs(stats.norm["transformed"] - 1.0).max() < 1e-10
    for c in range(stats.checkpoint_nodes.size):
        sig = stats.sigma_mean[c]
        assert np.abs(sig - sig.conj().T).max() < 1e-14
        assert abs(np.trace(sig) - 1.0) < 1e-10
    assert np.all(stats.sigma_stderr >= 0.0)


def test_stderr_shrinks_with_ensemble_size(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground

    def final_stderr(realizations):
        cfg = EnsembleConfig(realizations=realizations, seed=7,
                             picture="transformed")
        stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
        _, stderr = mean_series(stats.energy["transformed"])
        return stderr[-1]

    ratio = final_stderr(400) / final_stderr(800)
    assert 1.2 < ratio < 1.7


def test_block_combination_is_worker_independent(lat4, h0_4, grid16, ground,
                                                 monkeypatch):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=600, seed=7, picture="transformed",
                         observables=(("pointer", obs),))
    model = make_model(lat4, h0_4, grid16, 0.1)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "1")
    serial = run_ensemble(psi0, cfg, model)
    monkeypatch.setenv("COLLAPSELAB_WORKERS", "3")
    threaded = run_ensemble(psi0, cfg, model)
    assert serial.digest() == threaded.digest()
    assert threaded.meta["workers"] == 3


def test_energy_trajectory_pictures(lat4, h0_4, grid16, ground):
    _, e0, psi0 = ground
    cfg = EnsembleConfig(realizations=4, seed=2, picture="transformed")
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.0))
    out = energy_trajectory(stats, "transformed")
    assert np.abs(out["transformed"][0] - e0).max() < 1e-10
    with pytest.raises(PictureNotRecorded):
        energy_trajectory(stats, "untransformed")
    with pytest.raises(PictureNotRecorded):
        energy_trajectory(stats, "both")


def test_both_pictures_agree_on_energy(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=2, seed=2, picture="both",
                         observables=(("pointer", obs),),
                         t_on=0.7, t_off=1.3, ramp=0.2)
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.04))
    out = energy_trajectory(stats, "both")
    # the pictures differ at third order in the coupling
    assert np.abs(out["difference"][0]).max() < 1e-4
    assert np.abs(stats.norm["untransformed"] - 1.0).max() < 1e-4
    assert "c22" in stats.observables["pointer"]


def test_solver_route_builds_each_node_once(lat4, h0_4, grid16, ground, monkeypatch):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=2, seed=2, picture="both",
                         observables=(("pointer", obs),),
                         t_on=0.7, t_off=1.3, ramp=0.2)
    model = make_model(lat4, h0_4, grid16, 0.04)
    calls = {"surface_correction": 0, "equal_time_hamiltonian": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(evolution, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(evolution, name, counted)
        monkeypatch.setattr(ensemble, name, counted)
    stats = run_ensemble(psi0, cfg, model)
    visits = cfg.realizations * grid16.n_nodes
    assert calls == {"surface_correction": visits, "equal_time_hamiltonian": visits}

    # the same series as built from transformed_interaction node by node
    monkeypatch.undo()
    spacing = lat4.spacing
    energy = np.empty_like(stats.energy["transformed"])
    c12 = np.empty_like(energy)
    for r in range(cfg.realizations):
        noise = sample_noise(list(model.channels), grid16, [cfg.seed, r],
                             window=cfg.window(grid16))
        rec = solve_nonlocal(psi0, grid16, list(model.channels), noise, model.h0,
                             spacing, propagators=True)
        for j in range(grid16.n_nodes):
            metric = np.eye(h0_4.dim) + surface_correction(rec, j)
            psi_t = sqrtmh(metric) @ rec.states[j]
            wt = transformed_interaction(rec, j, mode="expansion")
            energy[r, j] = (spacing * np.vdot(psi_t, (model.h0 + wt) @ psi_t)).real
            c12[r, j] = np.abs(spacing * np.vdot(psi_t, (wt @ obs - obs @ wt) @ psi_t)) ** 2
    assert np.array_equal(stats.energy["transformed"], energy)
    assert np.array_equal(stats.observables["pointer"]["c12"], c12)


def test_variance_diagnostics_identity_observable(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    eye = np.eye(h0_4.dim, dtype=complex)
    cfg = EnsembleConfig(realizations=16, seed=5, picture="transformed",
                         observables=(("unit", eye),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    report = variance_diagnostics(stats, "unit")
    assert abs(report["adjusted_difference"][0]) < 1e-12
    c12, _ = report["c12_series"]
    assert np.abs(c12).max() < 1e-20


def test_variance_diagnostics_sign_and_guards(lat4, h0_4, grid16, ground):
    _, _, psi0 = ground
    obs = eigenmode_difference(lat4, 0, 1)
    cfg = EnsembleConfig(realizations=16, seed=5, picture="transformed",
                         observables=(("pointer", obs),))
    stats = run_ensemble(psi0, cfg, make_model(lat4, h0_4, grid16, 0.1))
    report = variance_diagnostics(stats, "pointer")
    c12, _ = report["c12_series"]
    assert np.all(c12 <= 0.0)
    with pytest.raises(PictureNotRecorded):
        variance_diagnostics(stats, "missing")
    with pytest.raises(ScenarioViolation):
        variance_diagnostics(stats, "pointer", window=Window.flat(),
                             grid=grid16, ell_min=ELL)


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


def test_collapse_scenario_zero_coupling_is_a_martingale_nullcase(
        lat4, h0_4, ground):
    esys, _, _ = ground
    grid = TimeGrid(0.0, 4.0, ELL / 16.0)
    model = make_model(lat4, h0_4, grid, 0.0)
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    cfg = EnsembleConfig(realizations=16, seed=3, picture="transformed",
                         observables=(("pointer", obs),),
                         t_on=1.0, t_off=3.2, ramp=1.0)
    report = scenario_collapse(sup, cfg, model)
    mean_w, _ = report["branch_mean"]
    assert np.abs(mean_w - 0.5).max() < 1e-12
    var_series, _ = report["branch_variance"]
    assert var_series.max() < 1e-24
    hist, edges = report["final_histogram"]
    assert hist.sum() == 16


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


def eigh_step(gen, psi, dt):
    """Reference step exp(-i dt gen_r) psi_r through a batched eigh."""
    vals, vecs = np.linalg.eigh(gen)
    coef = np.einsum("rba,rb->ra", vecs.conj(), psi) * np.exp(-1j * dt * vals)
    return np.einsum("rab,rb->ra", vecs, coef)


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


@pytest.mark.parametrize("dim", [8, 16])
def test_expm_action_matches_eigh(dim):
    rng = np.random.default_rng(dim)
    dt = 0.03
    thetas = np.geomspace(0.05, 5.0, 24)  # above 0.5 the step is split
    gen, psi = hermitian_batch(rng, thetas.size, dim, thetas, dt)
    out = _expm_action(gen, psi, dt, range(thetas.size), 0)
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
    out = _expm_action(gen, psi, dt, range(thetas.size), 0)
    assert np.all(out[:, -1] != 0.0)
    for r in range(thetas.size):
        alone = _expm_action(gen[r : r + 1], psi[r : r + 1], dt, range(1), 0)
        assert alone.tobytes() == out[r : r + 1].tobytes()


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([8, 16]), theta=st.floats(0.0, 5.0),
       spacing=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_expm_action_preserves_weighted_norm(dim, theta, spacing, seed):
    rng = np.random.default_rng(seed)
    dt = 0.05
    gen, psi = hermitian_batch(rng, 4, dim, [theta] * 4, dt)
    psi /= np.sqrt(spacing)
    out = _expm_action(gen, psi, dt, range(4), 0)
    before = spacing * np.einsum("rb,rb->r", psi.conj(), psi).real
    after = spacing * np.einsum("rb,rb->r", out.conj(), out).real
    assert np.abs(after - before).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_action_rejects_non_finite_row(bad):
    rng = np.random.default_rng(3)
    dt = 0.03
    gen, psi = hermitian_batch(rng, 6, 8, np.full(6, 0.3), dt)
    clean = _expm_action(gen, psi, dt, range(40, 46), 7)
    poisoned = gen.copy()
    poisoned[2, 1, 4] = bad
    psi_in = psi.copy()
    with pytest.raises(StepRejected, match=r"realization 42, step 7"):
        _expm_action(poisoned, psi, dt, range(40, 46), 7)
    assert psi.tobytes() == psi_in.tobytes()
    keep = [0, 1, 3, 4, 5]
    rest = _expm_action(gen[keep], psi[keep], dt, range(5), 7)
    assert rest.tobytes() == clean[keep].tobytes()


def test_rows_do_not_depend_on_block_mates(lat4, h0_4, grid16, ground):
    esys, _, _ = ground
    obs = eigenmode_difference(lat4, 0, 1)
    sup = esys.state(4) + esys.state(5)
    sup = sup / np.sqrt(lat4.spacing * np.vdot(sup, sup).real)
    # strong enough that some steps need more terms or sub-steps in one
    # row than in another
    model = make_model(lat4, h0_4, grid16, 1.5)
    phi1, phi2 = split_branches(obs, sup, lat4.spacing)

    def run(realizations):
        cfg = EnsembleConfig(realizations=realizations, seed=7,
                             picture="transformed",
                             observables=(("pointer", obs),),
                             branch_states=(phi1, phi2))
        return run_ensemble(sup, cfg, model)

    small, large = run(8), run(300)
    series = [(small.energy, large.energy), (small.norm, large.norm)]
    series += [(small.observables[k], large.observables[k])
               for k in small.observables]
    for few, many in series:
        for key in few:
            assert few[key].tobytes() == many[key][:8].tobytes(), key
    assert small.branch_weights.tobytes() == large.branch_weights[:8].tobytes()


def test_adjacent_seeds_give_distinct_ensembles(tmp_path):
    # master seeds that differ only in low bits must not share noise paths
    z = {run_preset("a-operator", out=tmp_path / str(seed), seed=seed,
                    realizations=400).summary["z_frobenius"]
         for seed in (904, 905, 906)}
    assert len(z) == 3
