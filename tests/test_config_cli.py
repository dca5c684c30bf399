import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab import cli
from collapselab.config import ExperimentConfig, load_raw, merged
from collapselab.errors import ConfigError, IOFailure
from collapselab.master import LindbladSpec
from collapselab.presets import PRESETS, check_tolerances, run_preset
from collapselab.reporting import (
    format_number,
    operator_csv,
    write_csv,
    write_summary,
)


def base_config():
    return {
        "lattice": {"sites": 4, "spacing": 1.0, "mass": 1.0},
        "kernel": {"ell_min": 0.5, "channels": [
            {"operator": {"type": "site_projector", "site": 1},
             "amplitude": 0.1}]},
        "time": {"t0": 0.0, "t1": 2.0, "dt": 0.03125},
        "noise": {"seed": 3,
                  "window": {"t_on": 0.7, "t_off": 1.3, "ramp": 0.2}},
    }


# --- schema ---------------------------------------------------------------

def test_valid_config_builds_objects():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.grid().n_nodes == 65
    assert len(cfg.channels()) == 1
    assert cfg.seed() == 3
    assert cfg.realizations() == 2  # default when no ensemble section
    assert cfg.build_h0().shape == (8, 8)


def test_missing_section_rejected():
    raw = base_config()
    del raw["lattice"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_unknown_keys_rejected():
    raw = base_config()
    raw["lattcie"] = {}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    raw = base_config()
    raw["time"]["step"] = 0.1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    raw = base_config()
    raw["kernel"]["channels"][0]["strength"] = 1.0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_operator_spec_rejections():
    raw = base_config()
    raw["kernel"]["channels"][0]["operator"] = {"type": "spin_flip"}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    raw = base_config()
    raw["kernel"]["channels"][0]["operator"] = {
        "type": "site_projector", "site": 1, "width": 2.0}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    raw = base_config()
    raw["kernel"]["channels"][0]["operator"] = {
        "type": "momentum_function", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_type_checks():
    raw = base_config()
    raw["lattice"]["sites"] = "four"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    raw = base_config()
    raw["run"] = {"tolerances": {"drift": "tight"}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_cross_field_resolution_check():
    raw = base_config()
    raw["time"]["dt"] = 0.25  # divides t1 - t0 but cannot resolve the kernel
    with pytest.raises(ConfigError, match="resolve"):
        ExperimentConfig.from_dict(raw)


def test_bad_window_rejected_at_load():
    raw = base_config()
    raw["noise"]["window"] = {"t_on": 0.9, "t_off": 1.1, "ramp": 0.5}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("picture", ["diagonal", "both", "untransformed"])
def test_bad_picture_rejected(picture):
    raw = base_config()
    raw["ensemble"] = {"realizations": 4, "picture": picture}
    with pytest.raises(ConfigError, match="picture"):
        ExperimentConfig.from_dict(raw)


def test_covariance_rotates_channels():
    raw = base_config()
    raw["kernel"]["channels"] = [
        {"operator": {"type": "site_projector", "site": 1}, "amplitude": 1.0},
        {"operator": {"type": "site_projector", "site": 2}, "amplitude": 1.0},
    ]
    raw["kernel"]["covariance"] = [[1.0, 1.0], [1.0, 1.0]]  # rank one
    cfg = ExperimentConfig.from_dict(raw)
    assert len(cfg.channels()) == 1


def test_every_preset_default_is_schema_valid():
    for name, preset in PRESETS.items():
        cfg = ExperimentConfig.from_dict(preset.defaults)
        assert cfg.data["run"]["preset"] == name


def test_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "b": [1, 2], "c": 5}
    out = merged(base, {"a": {"y": 7}, "b": [9], "d": 1})
    assert out == {"a": {"x": 1, "y": 7}, "b": [9], "c": 5, "d": 1}
    assert base["a"]["y"] == 2  # the base mapping is never mutated


_KEYS = st.sampled_from("abcd")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False), st.text(max_size=2))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=10)
_MAPPINGS = st.dictionaries(_KEYS, _VALUES, max_size=4)


def _containers(obj):
    """Every dict and list reachable from obj, obj included."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from _containers(value)
    elif isinstance(obj, list):
        yield obj
        for value in obj:
            yield from _containers(value)


def _assert_merged(base, over, out):
    assert set(out) == set(base) | set(over)
    for key, value in out.items():
        if key not in over:
            assert value == base[key]
        elif isinstance(base.get(key), dict) and isinstance(over[key], dict):
            _assert_merged(base[key], over[key], value)
        else:
            assert value == over[key]


@settings(max_examples=200, deadline=None)
@given(base=_MAPPINGS, over=_MAPPINGS)
def test_merged_properties(base, over):
    before = copy.deepcopy((base, over))
    out = merged(base, over)
    _assert_merged(base, over, out)
    assert (base, over) == before
    inputs = {id(c) for c in _containers(base)} | {id(c) for c in _containers(over)}
    assert not inputs & {id(c) for c in _containers(out)}


def test_preset_defaults_share_no_containers(tmp_path):
    seen: dict[int, str] = {}
    for name, preset in PRESETS.items():
        for container in _containers(preset.defaults):
            assert seen.setdefault(id(container), name) == name
    before = copy.deepcopy(PRESETS["conservation"].defaults)
    run_preset("conservation", out=tmp_path)
    assert PRESETS["conservation"].defaults == before


def test_expansion_runs_where_ell_over_dt_is_not_whole(tmp_path):
    # ell_min/dt = 12.5: the grids' reaches are 12, 25 and 50, so each
    # refinement warm-starts from a record whose reach is not half its own
    result = run_preset("expansion",
                        {"time": {"t0": 0.0, "t1": 5.0, "dt": 0.04},
                         "noise": {"window": {"t_on": 0.5, "t_off": 4.5,
                                              "ramp": 0.5}}},
                        out=tmp_path)
    assert [c.name for c in result.checks] == ["remainder_slope",
                                               "asymmetry_slope"]


def test_echo_drops_output_directory():
    raw = base_config()
    raw["run"] = {"preset": "conservation", "out": "/tmp/somewhere"}
    cfg = ExperimentConfig.from_dict(raw)
    echo = cfg.echo()
    assert "out" not in echo["run"]
    assert cfg.data["run"]["out"] == "/tmp/somewhere"
    echo["lattice"]["sites"] = 99
    assert cfg.data["lattice"]["sites"] == 4


def test_load_raw_failures(tmp_path):
    with pytest.raises(ConfigError):
        load_raw(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unterminated")
    with pytest.raises(ConfigError):
        load_raw(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_raw(empty)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_raw(listy)


def test_tolerance_lookup():
    raw = base_config()
    raw["run"] = {"tolerances": {"drift": 0.5}}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.tolerance("drift") == 0.5
    with pytest.raises(ConfigError, match=r"run\.tolerances\.other"):
        cfg.tolerance("other")


def test_unknown_tolerance_name_rejected(tmp_path):
    for name, preset in PRESETS.items():
        check_tolerances(name, ExperimentConfig.from_dict(preset.defaults))
    out = tmp_path / "res"
    with pytest.raises(ConfigError, match=r"run\.tolerances\.drfit"):
        run_preset("conservation", {"run": {"tolerances": {"drfit": 1e-30}}},
                   out=out)
    assert not out.exists()
    # a name another preset reads is still unknown to this one
    with pytest.raises(ConfigError, match=r"run\.tolerances\.trace"):
        run_preset("conservation", {"run": {"tolerances": {"trace": 1.0}}},
                   out=out)
    assert not out.exists()


def test_cli_unknown_tolerance_name_exits_two(tmp_path, capsys):
    override = tmp_path / "typo.yaml"
    override.write_text("run:\n  tolerances:\n    drfit: 1.0e-30\n")
    out = tmp_path / "res"
    assert cli.main(["run", "conservation", "--config", str(override),
                     "--out", str(out)]) == 2
    assert "run.tolerances.drfit" in capsys.readouterr().err
    assert not out.exists()

    raw = base_config()
    raw["run"] = {"preset": "conservation", "tolerances": {"drift": 1e-6}}
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(good)]) == 0
    raw["run"]["tolerances"]["drfit"] = 1e-6
    typo = tmp_path / "typo_full.yaml"
    typo.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert cli.main(["validate", "--config", str(typo)]) == 2
    assert "run.tolerances.drfit" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 0, -3])
def test_cli_too_few_realizations_exits_two(tmp_path, capsys, count):
    out = tmp_path / "res"
    assert cli.main(["run", "a-operator", "--realizations", str(count),
                     "--out", str(out)]) == 2
    assert "ensemble.realizations" in capsys.readouterr().err
    assert not out.exists()

    raw = base_config()
    raw["ensemble"] = {"realizations": count}
    path = tmp_path / "few.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "ensemble.realizations" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cli_non_finite_tolerance_exits_two(tmp_path, capsys, bad):
    override = tmp_path / "tol.yaml"
    override.write_text(yaml.safe_dump({"run": {"tolerances": {"drift": bad}}}))
    out = tmp_path / "res"
    assert cli.main(["run", "conservation", "--config", str(override),
                     "--out", str(out)]) == 2
    assert "run.tolerances.drift" in capsys.readouterr().err
    assert not out.exists()

    raw = base_config()
    raw["run"] = {"preset": "conservation", "tolerances": {"drift": bad}}
    path = tmp_path / "tol_full.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "run.tolerances.drift" in capsys.readouterr().err


# --- reporting ------------------------------------------------------------

def test_format_number_round_trips():
    for value in (math.pi, 1.0 / 3.0, 1.2345678901234567e-17, -7.25e300):
        assert float(format_number(value)) == value
    assert format_number(7) == "7"
    assert format_number(np.int64(-3)) == "-3"
    assert format_number(True) == "1"
    assert format_number("label") == "label"


def test_write_csv(tmp_path):
    path = write_csv(tmp_path / "x.csv", ["t", "v"],
                     [np.array([0.0, 0.5]), np.array([1.0, 1.0 / 3.0])])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v"
    assert lines[2].split(",")[1] == "%.17g" % (1.0 / 3.0)
    with pytest.raises(IOFailure):
        write_csv(tmp_path / "y.csv", ["a"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(IOFailure):
        write_csv(tmp_path / "z.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_write_csv_refuses_non_finite_values(tmp_path, bad):
    col = np.array([0.0, 1.0, 2.0], dtype=type(bad))
    col[1] = bad
    path = tmp_path / "sub" / "x.csv"
    with pytest.raises(IOFailure, match=r"x\.csv: column 'v' holds a non-finite"):
        write_csv(path, ["t", "v"], [np.arange(3.0), col])
    assert not path.exists() and not path.parent.exists()


@pytest.mark.parametrize("bad", [float("nan"), -np.inf, complex(1.0, np.inf)])
def test_write_summary_refuses_non_finite_values(tmp_path, bad):
    payload = {"checks": [{"name": "a", "observed": 1.0},
                          {"name": "b", "observed": bad}], "z": 0.5}
    path = tmp_path / "sub" / "s.json"
    with pytest.raises(IOFailure, match=r"s\.json: key 'checks\[1\]\.observed"):
        write_summary(path, payload)
    assert not path.exists() and not path.parent.exists()


def test_operator_csv(tmp_path):
    op = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
    path = operator_csv(tmp_path / "op.csv", [("A", op)])
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,A_re,A_im"
    assert len(lines) == 5
    with pytest.raises(IOFailure):
        operator_csv(tmp_path / "none.csv", [])
    with pytest.raises(IOFailure):
        operator_csv(tmp_path / "bad.csv", [("A", op), ("B", np.zeros((3, 3)))])


def test_write_summary_round_trip(tmp_path):
    payload = {"z": np.float64(0.5), "arr": np.arange(3), "c": 1 + 2j,
               "flag": np.bool_(True)}
    path = write_summary(tmp_path / "s.json", payload)
    data = json.loads(path.read_text())
    assert data == {"z": 0.5, "arr": [0, 1, 2], "c": {"re": 1.0, "im": 2.0},
                    "flag": True}
    assert path.read_text().index('"arr"') < path.read_text().index('"z"')


# --- command line ---------------------------------------------------------

def test_cli_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("conservation", "expansion", "a-operator", "no-heating",
                 "csl-contrast", "lindblad-vs-mc", "collapse-scenario"):
        assert name in out


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(base_config()))
    assert cli.main(["validate", "--config", str(good)]) == 0
    assert "valid" in capsys.readouterr().out

    partial = tmp_path / "partial.yaml"
    partial.write_text("lattice: {sites: 4, spacing: 1.0, mass: 1.0}\n")
    assert cli.main(["validate", "--config", str(partial)]) == 2

    raw = base_config()
    raw["run"] = {"preset": "no-such-thing"}
    bad_preset = tmp_path / "bad_preset.yaml"
    bad_preset.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(bad_preset)]) == 2

    raw = base_config()
    raw["ensemble"] = {"realizations": 4, "picture": "both"}
    both = tmp_path / "both.yaml"
    both.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert cli.main(["validate", "--config", str(both)]) == 2
    assert "ensemble.picture" in capsys.readouterr().err

    assert cli.main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_cli_run_rejects_untransformed_picture(tmp_path, capsys):
    override = tmp_path / "both.yaml"
    override.write_text("ensemble: {picture: both}\n")
    out = tmp_path / "res"
    code = cli.main(["run", "csl-contrast", "--config", str(override),
                     "--out", str(out)])
    assert code == 2
    assert "ensemble.picture" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("channel", [
    {"label": "bump", "amplitude": 0.04,
     "operator": {"type": "position_gaussian", "center": math.nan, "width": 1.2}},
    {"label": "bump", "amplitude": math.nan,
     "operator": {"type": "position_gaussian", "center": 2.0, "width": 1.2}},
])
def test_cli_run_non_finite_channel_exits_two(tmp_path, capsys, channel):
    override = tmp_path / "nan.yaml"
    override.write_text(yaml.safe_dump({"kernel": {"channels": [channel]}}))
    out = tmp_path / "res"
    code = cli.main(["run", "conservation", "--config", str(override),
                     "--out", str(out)])
    assert code == 2
    assert "channel 'bump'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"lattice": {"mass": -1.0}},
    {"lattice": {"mass": math.nan}},
    {"lattice": {"mass": math.inf}},
    {"lattice": {"spacing": math.nan}},
    {"lattice": {"spacing": math.inf}},
    {"noise": {"window": {"t_on": 0.5, "t_off": 1.5, "ramp": math.nan}}},
    {"noise": {"window": {"t_on": math.nan, "t_off": 1.5, "ramp": 0.2}}},
    {"noise": {"window": {"t_on": 0.5, "t_off": math.inf, "ramp": 0.2}}},
    {"time": {"t1": math.inf}},
    {"time": {"dt": math.inf}},
    {"kernel": {"ell_min": math.inf}},
    {"kernel": {"ell_min": math.nan}},
    {"kernel": {"channels": [{"amplitude": 0.04, "operator": {
        "type": "position_gaussian", "center": 2.0, "width": math.inf}}]}},
    {"noise": {"seed": -1}},
])
def test_cli_run_non_finite_or_out_of_range_exits_two(tmp_path, capsys, override):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(override))
    out = tmp_path / "res"
    code = cli.main(["run", "conservation", "--config", str(path),
                     "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_preset(capsys):
    assert cli.main(["run", "definitely-not-a-preset"]) == 2
    err = capsys.readouterr().err
    assert "conservation" in err  # the message lists the valid names


def test_cli_run_pass_and_outputs(tmp_path, capsys):
    out = tmp_path / "res"
    code = cli.main(["run", "a-operator", "--realizations", "400",
                     "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text and "a-operator passed" in text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert "out" not in summary["config"].get("run", {})
    assert (out / "a_operator.csv").exists()


def test_cli_run_check_failure_exits_one(tmp_path):
    override = tmp_path / "impossible.yaml"
    override.write_text("run:\n  tolerances:\n    drift: 1.0e-30\n")
    out = tmp_path / "res"
    code = cli.main(["run", "conservation", "--config", str(override),
                     "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_cli_run_solver_failure_exits_three(tmp_path, capsys):
    override = tmp_path / "strong.yaml"
    override.write_text(yaml.safe_dump({"kernel": {"channels": [
        {"operator": {"type": "site_projector", "site": 1},
         "amplitude": 1.2}]}}))
    code = cli.main(["run", "conservation", "--config", str(override),
                     "--out", str(tmp_path / "res")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_cli_run_non_finite_density_exits_three(tmp_path, capsys, monkeypatch):
    # the free-flow reference of lindblad-vs-mc integrates a GKSL spec; one
    # NaN jump operator, set after the spec's own finite check, makes its
    # density non-finite at the first step
    gksl = LindbladSpec.gksl

    def poisoned(h0, jumps):
        spec = gksl(h0, [*jumps, np.zeros(h0.shape, dtype=complex)])
        spec.jumps[-1][0, 1] = np.nan
        return spec

    monkeypatch.setattr(LindbladSpec, "gksl", staticmethod(poisoned))
    out = tmp_path / "res"
    code = cli.main(["run", "lindblad-vs-mc", "--realizations", "16",
                     "--out", str(out)])
    assert code == 3
    assert "hermiticity correction nan" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_conservation_runs_without_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded for the oracles
    code = (
        "import json, sys\n"
        "import collapselab\n"
        "from collapselab.presets import run_preset\n"
        "run_preset('conservation', out=sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cons")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "cons" / "summary.json").exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_energy_csv_schema(tmp_path):
    result = run_preset("csl-contrast", out=tmp_path / "res",
                        realizations=200)
    header = (tmp_path / "res" / "cfs_energy.csv").read_text().splitlines()[0]
    assert header == "t,E_mean,E_stderr,trace_mean"


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        code = cli.main(["run", "a-operator", "--realizations", "400",
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in ("summary.json", "a_operator.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b


def test_config_echo_reproduces_run(tmp_path):
    first = run_preset("a-operator", out=tmp_path / "a", realizations=400)
    echo = first.summary["config"]
    second = run_preset("a-operator", config=echo, out=tmp_path / "b")
    assert ((tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())


@pytest.mark.parametrize("env, warned", [
    ({"COLLAPSELAB_WORKERS": "2"}, True),
    ({"COLLAPSELAB_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"}, False),
    ({"COLLAPSELAB_WORKERS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"COLLAPSELAB_WORKERS": "2", "MKL_NUM_THREADS": "1"}, False),
    ({"COLLAPSELAB_WORKERS": "1"}, False),
    ({}, False),
])
def test_cli_warns_once_on_workers_without_a_blas_limit(tmp_path, capsys,
                                                        monkeypatch, env, warned):
    for name in ("COLLAPSELAB_WORKERS", *cli.BLAS_THREAD_ENVS):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # a config error: the warning comes first and the exit code is unchanged
    out = tmp_path / "few"
    assert cli.main(["run", "a-operator", "--realizations", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("without a BLAS thread limit") == int(warned)
    assert "config error" in err
    assert not out.exists()


def test_presets_import_without_yaml():
    # a fresh interpreter: this one imported yaml for the override files
    code = ("import sys\n"
            "import collapselab.presets, collapselab.cli\n"
            "print('yaml' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
