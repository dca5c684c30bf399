"""Experiment configuration: schema, validation, and object construction.

A run is described by one nested mapping (read from YAML) with sections
lattice, kernel, time, noise, ensemble, and run. ``ExperimentConfig.from_dict``
parses it once: it checks each section and builds the lattice, time grid,
channels and observables as it goes, and the instance keeps them, so a
config that constructs is valid and nothing is parsed again. Validation is
strict: unknown keys anywhere are rejected, so a typo cannot silently fall
back to a default. The parser checks shape and types; cross-field physics
constraints (kernel resolution, coupling regime, window placement) are
enforced by the objects it constructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    InteractionChannel,
    KernelProfile,
    diagonalize_covariance,
    eigenmode_coupling,
    eigenmode_difference,
    make_channel,
    max_step,
    momentum_function,
    position_gaussian,
    site_projector,
)
from .errors import ConfigError, NotPSD
from .grids import TimeGrid, Window
from .lattice import LatticeConfig, build_dirac_h0

_OPERATOR_KEYS = {
    "site_projector": {"site"},
    "position_gaussian": {"center", "width"},
    "momentum_function": {"values"},
    "eigenmode_coupling": {"first", "second"},
    "eigenmode_difference": {"first", "second"},
}

_SECTION_KEYS = {
    "lattice": {"sites", "spacing", "mass"},
    "kernel": {"ell_min", "profile", "channels", "covariance"},
    "time": {"t0", "t1", "dt"},
    "noise": {"seed", "window"},
    "ensemble": {"realizations", "observables"},
    "run": {"preset", "out", "tolerances"},
}

_CHANNEL_KEYS = {"label", "amplitude", "operator", "ell_min", "profile"}
_OBSERVABLE_KEYS = {"label", "operator"}
_WINDOW_KEYS = {"t_on", "t_off", "ramp"}


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _get(mapping: dict, key: str, where: str, kind, default=None, required=True):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"{where}.{key} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _covariance_matrix(raw, n: int) -> np.ndarray:
    """kernel.covariance as an n x n matrix, one row and column per channel."""
    if not (isinstance(raw, list) and len(raw) == n
            and all(isinstance(row, list) and len(row) == n for row in raw)):
        raise ConfigError(
            f"kernel.covariance must be {n} rows of {n} numbers, one per channel")
    if not all(_is_number(v) for row in raw for v in row):
        raise ConfigError("kernel.covariance entries must be numbers")
    return np.array(raw, dtype=float)


def _operator(lattice: LatticeConfig, spec, where: str) -> np.ndarray:
    spec = _require_mapping(spec, where)
    if "type" not in spec:
        raise ConfigError(f"missing key 'type' in {where}")
    kind = spec["type"]
    if kind not in _OPERATOR_KEYS:
        raise ConfigError(
            f"{where}.type {kind!r} unknown; choose from "
            f"{sorted(_OPERATOR_KEYS)}")
    _reject_unknown(spec, _OPERATOR_KEYS[kind] | {"type"}, where)
    if kind == "site_projector":
        return site_projector(lattice, _get(spec, "site", where, int))
    if kind == "position_gaussian":
        return position_gaussian(
            lattice,
            center=_get(spec, "center", where, float),
            width=_get(spec, "width", where, float),
        )
    if kind in ("eigenmode_coupling", "eigenmode_difference"):
        build = (eigenmode_coupling if kind == "eigenmode_coupling"
                 else eigenmode_difference)
        return build(
            lattice,
            first=_get(spec, "first", where, int),
            second=_get(spec, "second", where, int),
        )
    values = _get(spec, "values", where, list)
    if not all(_is_number(v) for v in values):
        raise ConfigError(f"{where}.values entries must be numbers")
    return momentum_function(lattice, values)


def _channels(sec: dict, lattice: LatticeConfig
              ) -> tuple[InteractionChannel, ...]:
    ell = _get(sec, "ell_min", "kernel", float)
    profile_name = _get(sec, "profile", "kernel", str,
                        default="raised_cosine", required=False)
    raw_channels = _get(sec, "channels", "kernel", list)
    if not raw_channels:
        raise ConfigError("kernel.channels must not be empty")
    channels = []
    for idx, item in enumerate(raw_channels):
        where = f"kernel.channels[{idx}]"
        item = _require_mapping(item, where)
        _reject_unknown(item, _CHANNEL_KEYS, where)
        profile = KernelProfile(
            ell_min=_get(item, "ell_min", where, float, default=ell,
                         required=False),
            shape=_get(item, "profile", where, str, default=profile_name,
                       required=False),
        )
        channels.append(make_channel(
            label=_get(item, "label", where, str, default=f"channel{idx}",
                       required=False),
            spatial_op=_operator(lattice, item.get("operator"),
                                 where + ".operator"),
            profile=profile,
            amplitude=_get(item, "amplitude", where, float),
        ))
    cov = sec.get("covariance")
    if cov is not None:
        matrix = _covariance_matrix(cov, len(channels))
        try:
            channels = diagonalize_covariance(matrix, channels)
        except NotPSD as err:
            raise ConfigError(f"kernel.covariance: {err}") from err
        if not channels:
            raise ConfigError("kernel.covariance leaves no channel")
    return tuple(channels)


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked run description and the physics objects it describes.

    ``from_dict`` is the one parse: it checks every section and builds each
    object once, so an instance is valid by construction. ``data`` is the
    raw mapping, kept for ``echo``.
    """

    data: dict
    _lattice: LatticeConfig
    _grid: TimeGrid
    _channels: tuple[InteractionChannel, ...]
    _window: dict | None
    _observables: tuple[tuple[str, np.ndarray], ...]
    _seed: int
    realizations: int
    tolerances: dict[str, float]
    out: str | None
    preset: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check ``raw`` and build what it describes, section by section, so
        a config with several faults reports the first in this order."""
        raw = _require_mapping(raw, "config")
        _reject_unknown(raw, set(_SECTION_KEYS), "config")
        for section in ("lattice", "kernel", "time", "noise"):
            if section not in raw:
                raise ConfigError(f"missing section {section!r}")
        for section, keys in _SECTION_KEYS.items():
            if section in raw:
                _reject_unknown(_require_mapping(raw[section], section), keys,
                                section)
        sec = raw["lattice"]
        try:
            lattice = LatticeConfig(
                sites=_get(sec, "sites", "lattice", int),
                spacing=_get(sec, "spacing", "lattice", float),
                mass=_get(sec, "mass", "lattice", float),
            )
        except ValueError as err:
            raise ConfigError(f"lattice: {err}") from err
        sec = raw["time"]
        grid = TimeGrid(t0=_get(sec, "t0", "time", float),
                        t1=_get(sec, "t1", "time", float),
                        dt=_get(sec, "dt", "time", float))
        channels = _channels(raw["kernel"], lattice)
        if grid.dt > max_step(channels):
            ell = min(ch.profile.ell_min for ch in channels)
            raise ConfigError(
                f"time.dt={grid.dt} does not resolve kernel.ell_min={ell}; "
                "need dt <= ell_min/8")
        noise, window = raw["noise"], None
        if "window" in noise:
            sec = _require_mapping(noise["window"], "noise.window")
            _reject_unknown(sec, _WINDOW_KEYS, "noise.window")
            window = {
                "t_on": _get(sec, "t_on", "noise.window", float),
                "t_off": _get(sec, "t_off", "noise.window", float),
                "ramp": _get(sec, "ramp", "noise.window", float, default=0.0,
                             required=False),
            }
            Window(**window)
        ens = raw.get("ensemble")
        observables = []
        items = _get(ens or {}, "observables", "ensemble", list, default=[],
                     required=False)
        for idx, item in enumerate(items):
            where = f"ensemble.observables[{idx}]"
            item = _require_mapping(item, where)
            _reject_unknown(item, _OBSERVABLE_KEYS, where)
            observables.append((
                _get(item, "label", where, str, default=f"obs{idx}",
                     required=False),
                _operator(lattice, item.get("operator"), where + ".operator"),
            ))
        seed = _get(noise, "seed", "noise", int, default=0, required=False)
        if seed < 0:
            raise ConfigError(f"noise.seed {seed} must be nonnegative")
        realizations = 2
        if ens is not None:
            realizations = _get(ens, "realizations", "ensemble", int)
            if realizations < 2:
                raise ConfigError(
                    f"ensemble.realizations {realizations} must be at least 2")
        run = raw.get("run", {})
        preset = _get(run, "preset", "run", str, required=False)
        out = _get(run, "out", "run", str, required=False)
        tols = _get(run, "tolerances", "run", dict, default={}, required=False)
        for key, value in tols.items():
            if not _is_number(value):
                raise ConfigError(f"run.tolerances.{key} must be a number")
            if not math.isfinite(value):
                raise ConfigError(
                    f"run.tolerances.{key} must be finite, got {value}")
        tolerances = {key: float(value) for key, value in tols.items()}
        return cls(raw, lattice, grid, channels, window, tuple(observables),
                   seed, realizations, tolerances, out, preset)

    # the call forms perfbench/setup_probe.py and perfbench/layers.py use;
    # ``lattice`` is accepted for them and unused
    def lattice(self) -> LatticeConfig:
        return self._lattice
    def grid(self) -> TimeGrid:
        return self._grid
    def channels(self, lattice=None) -> tuple[InteractionChannel, ...]:
        return self._channels
    def window_params(self) -> dict | None:
        return self._window
    def observables(self, lattice=None) -> tuple[tuple[str, np.ndarray], ...]:
        return self._observables
    def seed(self) -> int:
        return self._seed
    def build_h0(self, lattice=None) -> np.ndarray:
        return build_dirac_h0(self._lattice)

    def tolerance(self, name: str) -> float:
        if name not in self.tolerances:
            raise ConfigError(f"missing run.tolerances.{name}")
        return self.tolerances[name]

    def echo(self) -> dict:
        """Plain data copy for embedding in result summaries.

        The output directory is dropped so summaries written to different
        places stay byte-identical.
        """
        data = _deep_copy_plain(self.data)
        data.get("run", {}).pop("out", None)
        return data


def load_raw(path) -> dict:
    """Parse a config file into a plain mapping without schema validation.

    Used where the file is a partial override merged onto preset defaults;
    the merged result is then parsed by ``ExperimentConfig.from_dict``.
    """
    import yaml  # here, not at module level: only YAML text needs it

    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"config {path} is not valid YAML: {err}") from err
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return _require_mapping(raw, "config")


def _deep_copy_plain(obj):
    if isinstance(obj, dict):
        return {k: _deep_copy_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_deep_copy_plain(v) for v in obj]
    return obj


def merged(base: dict, overrides: dict) -> dict:
    """Recursive dict merge; override scalars/lists, descend into mappings."""
    out = _deep_copy_plain(base)
    for key, value in overrides.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = _deep_copy_plain(value)
    return out
