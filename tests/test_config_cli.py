import copy
import json
import math
import os
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from collapselab import cli, config, presets
from collapselab.config import ExperimentConfig, load_raw, merged
from collapselab.errors import ConfigError, IOFailure, NoConvergence
from collapselab.master import LindbladSpec
from collapselab.presets import PRESETS, checked_config, run_preset
from collapselab.reporting import (
    format_number,
    operator_csv,
    write_csv,
    write_summary,
)

from conftest import containers


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
    assert cfg.realizations == 2  # default when no ensemble section
    assert cfg.build_h0().shape == (8, 8)


def test_sections_are_parsed_once():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.lattice() is cfg.lattice()
    assert cfg.channels() is cfg.channels(cfg.lattice())


def _counting(calls: list, name: str, build):
    def counted(*args, **kwargs):
        calls.append(name)
        return build(*args, **kwargs)
    return counted


def test_each_configured_operator_is_built_once(monkeypatch):
    # from_dict builds the channel and the observable; the runners' model
    # and ensemble config read them
    calls = []
    for name in ("site_projector", "position_gaussian"):
        monkeypatch.setattr(config, name,
                            _counting(calls, name, getattr(config, name)))
    raw = base_config()
    raw["ensemble"] = {"realizations": 4, "observables": [
        {"operator": {"type": "position_gaussian", "center": 2.0,
                      "width": 1.2}}]}
    cfg = ExperimentConfig.from_dict(raw)
    presets._model(cfg)
    presets._ensemble_config(cfg, set())
    assert sorted(calls) == ["position_gaussian", "site_projector"]


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


def test_preset_defaults_share_no_containers(tmp_path):
    seen: dict[int, str] = {}
    for name, preset in PRESETS.items():
        for container in containers(preset.defaults):
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
        checked_config(preset.defaults, name)
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


def test_write_csv_formats_every_value_as_format_number(tmp_path):
    # write_csv formats an array's tolist() and a list as given: the bytes
    # are those of format_number on each value, NumPy scalar or list entry
    rng = np.random.default_rng(4)
    scales = 10.0 ** rng.integers(-300, 300, 6)
    floats = np.concatenate([rng.standard_normal(6) * scales,
                             [0.0, -0.0, 1.0 / 3.0, 5e-324, 2.0**53 + 2.0]])
    n = floats.size
    ints = rng.integers(-2**62, 2**62, n)
    flags = rng.random(n) < 0.5
    mixed = [i if i % 2 else float(x) for i, x in enumerate(floats)]
    columns = [floats, ints, flags, mixed]
    assert (ints.dtype, flags.dtype) == (np.int64, np.bool_)
    path = write_csv(tmp_path / "x.csv", ["f", "i", "b", "m"], columns)
    want = "f,i,b,m\n" + "".join(
        ",".join(format_number(col[i]) for col in columns) + "\n" for i in range(n))
    assert path.read_bytes() == want.encode()


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


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, for
    a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cons")],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=300)
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --- the CLI's failure contract -------------------------------------------
# Exit 2 is a config problem and 3 a solver or runtime failure, and neither
# writes anything. _REFUSED holds the configs `run` and `validate` both
# refuse, _FAILED the faults only a run meets and _INVALID the files only
# `validate` reads; each body runs in an empty working directory. Each key
# names one test, parametrized by a dict's ids or running a tuple's rows in
# turn.


@dataclass(frozen=True)
class Refused:
    """``run preset`` exits 2 with ``message`` on stderr, given ``config`` as
    its override file or ``flags`` in its place; ``validate`` passes ``base``
    under run.preset ``preset`` and refuses it merged with ``config``."""

    preset: str
    config: dict
    message: str
    flags: tuple = ()
    base: dict = field(default_factory=base_config)


@dataclass(frozen=True)
class Failed:
    """``run preset`` with ``flags`` and ``config`` as its override file, after
    ``inject`` has patched the package, exits ``code`` with ``message`` on
    stderr; with ``process`` it runs as ``python -m collapselab.cli``."""

    preset: str
    code: int
    message: str
    config: dict | None = None
    flags: tuple = ()
    inject: Callable | None = None
    process: bool = False


@dataclass(frozen=True)
class Invalid:
    """``validate`` passes ``base_config()`` and exits 2 with ``message`` on
    stderr given ``config`` as its file, or a path with no file behind it
    when ``config`` is None."""

    config: dict | None
    message: str


def _yaml(path: Path, data: dict) -> str:
    path.write_text(yaml.safe_dump(data))
    return str(path)


def _cli(args: list, capsys, process: bool = False) -> tuple[int, str]:
    """The exit code and stderr of ``collapselab args``."""
    if process:
        proc = subprocess.run([sys.executable, "-m", "collapselab.cli", *args],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        return proc.returncode, proc.stderr
    capsys.readouterr()
    code = cli.main(args)
    return code, capsys.readouterr().err


def _valid(path: str, capsys):
    """``validate`` passes the file at ``path`` and says so on stdout."""
    capsys.readouterr()
    assert cli.main(["validate", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert out == f"{path}: valid\n" and err == "", (out, err)


def _in_empty_dir(tmp_path: Path, monkeypatch) -> Path:
    cwd = tmp_path / "cwd"
    cwd.mkdir(exist_ok=True)
    monkeypatch.chdir(cwd)
    return cwd


def _refused(row: Refused, tmp_path, capsys, monkeypatch):
    cwd = _in_empty_dir(tmp_path, monkeypatch)
    args = list(row.flags) or ["--config",
                               _yaml(tmp_path / "override.yaml", row.config)]
    code, err = _cli(["run", row.preset, *args], capsys)
    assert code == 2 and "config error: " in err and row.message in err, err
    assert not any(cwd.iterdir())

    full = merged(row.base, {"run": {"preset": row.preset}})
    _valid(_yaml(tmp_path / "full.yaml", full), capsys)
    bad = _yaml(tmp_path / "bad.yaml", merged(full, row.config))
    code, err = _cli(["validate", "--config", bad], capsys)
    assert code == 2 and "config error: " in err and row.message in err, err


def _failed(row: Failed, tmp_path, capsys, monkeypatch):
    cwd = _in_empty_dir(tmp_path, monkeypatch)
    args = ["run", row.preset, *row.flags]
    if row.config is not None:
        args += ["--config", _yaml(tmp_path / "override.yaml", row.config)]
    if row.inject is not None:
        row.inject(monkeypatch)
    code, err = _cli(args, capsys, row.process)
    assert code == row.code and row.message in err, err
    assert not any(cwd.iterdir())


def _invalid(row: Invalid, tmp_path, capsys, monkeypatch):
    cwd = _in_empty_dir(tmp_path, monkeypatch)
    _valid(_yaml(tmp_path / "good.yaml", base_config()), capsys)
    path = str(tmp_path / "missing.yaml") if row.config is None else _yaml(
        tmp_path / "bad.yaml", row.config)
    code, err = _cli(["validate", "--config", path], capsys)
    assert code == 2 and "config error: " in err and row.message in err, err
    assert not any(cwd.iterdir())


def _test(body, rows):
    """A test that runs ``body`` on one row, on each of a dict of rows as its
    own case, or on each of a tuple of rows in turn."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
        def test(row, tmp_path, capsys, monkeypatch):
            body(row, tmp_path, capsys, monkeypatch)
    else:
        def test(tmp_path, capsys, monkeypatch, rows=rows):
            for row in rows if isinstance(rows, tuple) else (rows,):
                body(row, tmp_path, capsys, monkeypatch)
    return test


def _tolerance_of(preset: str, name: str, value) -> Refused:
    return Refused(preset, {"run": {"tolerances": {name: value}}},
                   f"run.tolerances.{name}")


def _bump(center=2.0, amplitude=0.04) -> dict:
    return {"label": "bump", "amplitude": amplitude, "operator": {
        "type": "position_gaussian", "center": center, "width": 1.2}}


def _momentum_channel(values, amplitude=0.04) -> dict:
    return {"amplitude": amplitude,
            "operator": {"type": "momentum_function", "values": values}}


_PICTURE = "unknown keys in ensemble: ['picture']"
_FOUR_REALIZATIONS = merged(base_config(), {"ensemble": {"realizations": 4}})


def _covariance(covariance, message) -> Refused:
    # a non-finite covariance entry is a config error, not a LAPACK failure
    return Refused("conservation", {"kernel": {"covariance": covariance}},
                   message, base=PRESETS["conservation"].defaults)


_SHAPE = "kernel.covariance must be 2 rows of 2 numbers, one per channel"
_NON_FINITE_COVARIANCE = "covariance has non-finite entries"
_OUT_OF_RANGE = [
    ({"lattice": {"mass": -1.0}}, "mass -1.0 must be finite"),
    ({"lattice": {"mass": math.nan}}, "mass nan must be finite"),
    ({"lattice": {"mass": math.inf}}, "mass inf must be finite"),
    ({"lattice": {"spacing": math.nan}}, "spacing nan must be finite"),
    ({"lattice": {"spacing": math.inf}}, "spacing inf must be finite"),
    ({"noise": {"window": {"t_on": 0.5, "t_off": 1.5, "ramp": math.nan}}},
     "non-finite window t_on=0.5, t_off=1.5, ramp=nan"),
    ({"noise": {"window": {"t_on": math.nan, "t_off": 1.5, "ramp": 0.2}}},
     "non-finite window t_on=nan, t_off=1.5, ramp=0.2"),
    ({"noise": {"window": {"t_on": 0.5, "t_off": math.inf, "ramp": 0.2}}},
     "non-finite window t_on=0.5, t_off=inf, ramp=0.2"),
    ({"time": {"t1": math.inf}}, "time grid t0=0.0, t1=inf, dt=0.03125"),
    ({"time": {"dt": math.inf}}, "time grid t0=0.0, t1=2.0, dt=inf"),
    ({"kernel": {"ell_min": math.inf}}, "ell_min inf must be finite"),
    ({"kernel": {"ell_min": math.nan}}, "ell_min nan must be finite"),
    ({"kernel": {"channels": [{"amplitude": 0.04, "operator": {
        "type": "position_gaussian", "center": 2.0, "width": math.inf}}]}},
     "width inf must be finite and positive"),
    ({"noise": {"seed": -1}}, "noise.seed -1 must be nonnegative"),
    # no window is spelled by leaving it out
    ({"noise": {"window": "flat"}}, "noise.window must be a mapping, got str"),
    ({"noise": {"window": None}}, "window must be a mapping, got NoneType"),
    ({"ensemble": {"realizations": 4, "observables": 5}},
     "ensemble.observables must be list, got int"),
    ({"ensemble": {"realizations": 4, "observables": None}},
     "ensemble.observables must be list, got NoneType"),
    ({"run": {"preset": [1]}}, "run.preset must be str, got list"),
    ({"kernel": {"channels": [_momentum_channel(["a", "b", "c", "d"])]}},
     "kernel.channels[0].operator.values entries must be numbers"),
    ({"kernel": {"channels": [_momentum_channel([True, 1.0, 2.0, 3.0])]}},
     "kernel.channels[0].operator.values entries must be numbers"),
]

_REFUSED = {
    "test_cli_unknown_tolerance_name_exits_two":
        _tolerance_of("conservation", "drfit", 1e-30),
    "test_cli_too_few_realizations_exits_two": {
        str(count): Refused("a-operator", {"ensemble": {"realizations": count}},
                            "ensemble.realizations",
                            flags=("--realizations", str(count)))
        for count in (1, 0, -3)},
    "test_cli_non_finite_tolerance_exits_two": {
        str(bad): _tolerance_of("conservation", "drift", bad)
        for bad in (math.nan, math.inf)},
    # the probe's mode count is fixed; a config that sets one is refused
    "test_cli_bad_probe_modes_exits_two": {
        str(modes): _tolerance_of("expansion", "probe_modes", modes)
        for modes in (0, -1, 2.5)},
    # settings with one value in use are constants, and no-heating's sweep
    # size is a quarter of its realizations: a config that still sets one,
    # even to its old value, is refused rather than silently ignored
    "test_cli_retired_key_exits_two": {
        "picture": Refused(
            "lindblad-vs-mc", {"ensemble": {"picture": "transformed"}},
            _PICTURE, base=_FOUR_REALIZATIONS),
        "probe_amplitude": Refused(
            "expansion", {"run": {"tolerances": {"probe_amplitude": 8.0}}},
            "run.tolerances.probe_amplitude is not a tolerance of preset "
            "'expansion'; it reads: slope_high, slope_low",
            base=_FOUR_REALIZATIONS),
        "probe_modes": Refused(
            "expansion", {"run": {"tolerances": {"probe_modes": 4}}},
            "run.tolerances.probe_modes is not a tolerance of preset "
            "'expansion'; it reads: slope_high, slope_low",
            base=_FOUR_REALIZATIONS),
        "sweep_realizations": Refused(
            "no-heating", {"run": {"tolerances": {"sweep_realizations": 2500}}},
            "run.tolerances.sweep_realizations is not a tolerance of preset "
            "'no-heating'; it reads: b_ratio", base=_FOUR_REALIZATIONS),
    },
    # the interaction picture is the only one; any picture key is refused
    "test_bad_picture_rejected": {
        picture: Refused("lindblad-vs-mc", {"ensemble": {
            "realizations": 4, "picture": picture}}, _PICTURE)
        for picture in ("diagonal", "both", "untransformed")},
    "test_cli_run_rejects_untransformed_picture":
        Refused("csl-contrast", {"ensemble": {"picture": "both"}}, _PICTURE),
    "test_cli_run_non_finite_channel_exits_two": {
        "channel0": Refused(
            "conservation",
            {"kernel": {"channels": [_bump(center=math.nan)]}},
            "channel 'bump': spatial operator has non-finite entries"),
        "channel1": Refused(
            "conservation",
            {"kernel": {"channels": [_bump(amplitude=math.nan)]}},
            "channel 'bump': amplitude nan must be finite and nonnegative"),
    },
    "test_cli_run_non_finite_or_out_of_range_exits_two": {
        f"override{i}": Refused("conservation", config, message)
        for i, (config, message) in enumerate(_OUT_OF_RANGE)},
    # --out would override run.out, so the run goes to the working directory
    "test_cli_run_out_must_be_a_string":
        Refused("conservation", {"run": {"out": 5}}, "run.out must be str"),
    "test_cli_malformed_covariance_exits_two": {
        "nan": _covariance([[1.0, math.nan], [math.nan, 1.0]],
                           _NON_FINITE_COVARIANCE),
        # one channel, in collapse-scenario's run and in validate's base
        "nan_one_channel": Refused(
            "collapse-scenario", {"kernel": {"covariance": [[math.nan]]}},
            _NON_FINITE_COVARIANCE),
        "inf": _covariance([[math.inf, 0.0], [0.0, 1.0]],
                           _NON_FINITE_COVARIANCE),
        "string": _covariance([[1.0, "a"], [0.0, 1.0]],
                              "kernel.covariance entries must be numbers"),
        "ragged": _covariance([[1.0, 0.0], [0.0]], _SHAPE),
        "size": _covariance([[1.0]], _SHAPE),  # one row for two channels
        "flat": _covariance([1.0, 0.0], _SHAPE),
        "scalar": _covariance(1.0, _SHAPE),
        "negative": _covariance([[1.0, 2.0], [2.0, 1.0]],
                                "covariance eigenvalue -1.000e+00 below zero"),
        "asymmetric": _covariance([[1.0, 0.5], [0.0, 1.0]],
                                  "covariance must be symmetric"),
        "zero": _covariance([[0.0, 0.0], [0.0, 0.0]],
                            "kernel.covariance leaves no channel"),
    },
}


def _nan_liouvillian(monkeypatch):
    # the free-flow reference of lindblad-vs-mc integrates a GKSL spec; one
    # NaN Liouvillian entry, set after the spec's own finite checks, makes
    # its density non-finite at the first step
    gksl = LindbladSpec.gksl

    def poisoned(h0, jumps):
        spec = gksl(h0, jumps)
        spec.liouvillian[0, 1] = np.nan
        return spec

    monkeypatch.setattr(LindbladSpec, "gksl", staticmethod(poisoned))


def _second_solve_fails(monkeypatch):
    # conservation solves on the base grid, then on the halved one; the
    # base grid's table is complete when the second solve fails
    solve = presets.solve_nonlocal
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NoConvergence("injected at the dt/2 solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(presets, "solve_nonlocal", second_fails)


def _poisoned_runner(name, poison):
    """An injection that lets ``poison`` edit preset ``name``'s extras and
    tables before its runner returns them."""
    def inject(monkeypatch):
        preset = PRESETS[name]

        def runner(cfg):
            checks, extras, files = preset.runner(cfg)
            poison(extras, files)
            return checks, extras, files

        monkeypatch.setitem(PRESETS, name, replace(preset, runner=runner))
    return inject


def _nan_extra(extras, files):
    # a-operator's one table is finite; a value bound for summary.json only
    # is refused before that table is written
    extras["z_max_entry"] = math.nan


def _nan_energy_column(extras, files):
    # csl-contrast writes heating_rates.csv, then cfs_energy.csv
    header, columns = files["cfs_energy.csv"]
    columns[1] = np.full_like(columns[1], np.nan)


_FAILED = {
    "test_cli_run_refuses_a_config_for_another_preset": Failed(
        "conservation", 2, "run.preset 'expansion'",
        config={"run": {"preset": "expansion"}}),
    # the message lists the valid names
    "test_cli_unknown_preset": Failed("definitely-not-a-preset", 2,
                                      "conservation"),
    # the heating table is computed before the check that rejects it
    "test_cli_run_commuting_csl_channel_exits_two": Failed(
        "csl-contrast", 2, "does not commute",
        config={"kernel": {"channels": [
            _momentum_channel([1.0, 2.0, 3.0, 4.0], amplitude=0.1)]}}),
    "test_cli_run_solver_failure_exits_three": Failed(
        "conservation", 3, "solver error",
        config={"kernel": {"channels": [
            {"operator": {"type": "site_projector", "site": 1},
             "amplitude": 1.2}]}}),
    "test_cli_run_non_finite_density_exits_three": Failed(
        "lindblad-vs-mc", 3, "hermiticity correction nan",
        flags=("--realizations", "16"), inject=_nan_liouvillian),
    "test_cli_run_failed_second_solve_exits_three": Failed(
        "conservation", 3, "injected at the dt/2 solve",
        inject=_second_solve_fails),
    "test_cli_run_non_finite_extra_writes_nothing": Failed(
        "a-operator", 3, "'z_max_entry' holds a non-finite value",
        flags=("--realizations", "256"),
        inject=_poisoned_runner("a-operator", _nan_extra)),
    "test_cli_run_non_finite_second_table_writes_nothing": Failed(
        "csl-contrast", 3,
        "cfs_energy.csv: column 'E_mean' holds a non-finite value",
        flags=("--realizations", "256"),
        inject=_poisoned_runner("csl-contrast", _nan_energy_column)),
    # the exit status of a real process, as a shell sees it
    "test_cli_process_exits_two_and_writes_nothing": Failed(
        "a-operator", 2, "ensemble.realizations",
        flags=("--realizations", "1", "--out", "res"), process=True),
}

# validate's ensemble.picture case is test_bad_picture_rejected[both]
_INVALID = {
    "test_cli_validate": (
        Invalid({"lattice": {"sites": 4, "spacing": 1.0, "mass": 1.0}},
                "missing section 'kernel'"),
        Invalid(merged(base_config(), {"run": {"preset": "no-such-thing"}}),
                "run.preset 'no-such-thing' unknown; valid names: "
                "conservation, expansion"),
        Invalid(None, "cannot read config"),
    ),
}

for _body, _table in ((_refused, _REFUSED), (_failed, _FAILED),
                      (_invalid, _INVALID)):
    for _name, _rows in _table.items():
        globals()[_name] = _test(_body, _rows)
