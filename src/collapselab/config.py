"""Experiment configuration: schema, validation, and object construction.

A run is described by one nested mapping (read from YAML) with sections
lattice, kernel, time, noise, ensemble, and run. Validation is strict:
unknown keys anywhere are rejected, so a typo cannot silently fall back to
a default. The loader only checks shape and types; cross-field physics
constraints (kernel resolution, coupling regime, window placement) are
enforced by the objects this module constructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    Covariance,
    InteractionChannel,
    KernelProfile,
    diagonalize_covariance,
    eigenmode_coupling,
    eigenmode_difference,
    make_channel,
    momentum_function,
    position_gaussian,
    site_projector,
)
from .errors import ConfigError
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
    "ensemble": {"realizations", "observables", "picture"},
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; builds the physics objects on demand."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _require_mapping(raw, "config")
        _reject_unknown(raw, set(_SECTION_KEYS), "config")
        for section in ("lattice", "kernel", "time", "noise"):
            if section not in raw:
                raise ConfigError(f"missing section {section!r}")
        for section, keys in _SECTION_KEYS.items():
            if section in raw:
                _reject_unknown(_require_mapping(raw[section], section), keys,
                                section)
        cfg = cls(data=raw)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_raw(path))

    def validate(self) -> None:
        """Construct every object the config describes, discarding results."""
        lattice = self.lattice()
        grid = self.grid()
        channels = self.channels(lattice)
        ell = min(ch.profile.ell_min for ch in channels)
        if grid.dt > ell / 8.0 + 1e-12:
            raise ConfigError(
                f"time.dt={grid.dt} does not resolve kernel.ell_min={ell}; "
                "need dt <= ell_min/8")
        params = self.window_params()
        if params is not None:
            Window(**params)
        self.observables(lattice)
        self.seed()
        ens = self.data.get("ensemble")
        if ens is not None:
            realizations = _get(ens, "realizations", "ensemble", int)
            if realizations < 2:
                raise ConfigError(
                    f"ensemble.realizations {realizations} must be at least 2")
            # kept in the schema for the config echo; one picture is stepped
            picture = _get(ens, "picture", "ensemble", str, default="transformed",
                           required=False)
            if picture != "transformed":
                raise ConfigError(
                    f"ensemble.picture {picture!r} unknown; the only picture "
                    "is 'transformed'")
        run = self.data.get("run")
        if run is not None:
            tols = _get(run, "tolerances", "run", dict, default={}, required=False)
            for key, value in tols.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"run.tolerances.{key} must be a number")
                if not math.isfinite(value):
                    raise ConfigError(
                        f"run.tolerances.{key} must be finite, got {value}")

    # section accessors -------------------------------------------------

    def lattice(self) -> LatticeConfig:
        sec = self.data["lattice"]
        try:
            return LatticeConfig(
                sites=_get(sec, "sites", "lattice", int),
                spacing=_get(sec, "spacing", "lattice", float),
                mass=_get(sec, "mass", "lattice", float),
            )
        except ValueError as err:
            raise ConfigError(f"lattice: {err}") from err

    def grid(self) -> TimeGrid:
        sec = self.data["time"]
        return TimeGrid(
            t0=_get(sec, "t0", "time", float),
            t1=_get(sec, "t1", "time", float),
            dt=_get(sec, "dt", "time", float),
        )

    def _operator(self, lattice: LatticeConfig, spec, where: str) -> np.ndarray:
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
        return momentum_function(lattice, _get(spec, "values", where, list))

    def channels(self, lattice: LatticeConfig | None = None
                 ) -> list[InteractionChannel]:
        lattice = lattice or self.lattice()
        sec = self.data["kernel"]
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
                spatial_op=self._operator(lattice, item.get("operator"),
                                          where + ".operator"),
                profile=profile,
                amplitude=_get(item, "amplitude", where, float),
            ))
        cov = sec.get("covariance")
        if cov is not None:
            matrix = np.asarray(cov, dtype=float)
            channels = diagonalize_covariance(Covariance(matrix), channels)
        return channels

    def window_params(self) -> dict | None:
        sec = self.data["noise"]
        window = sec.get("window", "flat")
        if window == "flat" or window is None:
            return None
        window = _require_mapping(window, "noise.window")
        _reject_unknown(window, _WINDOW_KEYS, "noise.window")
        return {
            "t_on": _get(window, "t_on", "noise.window", float),
            "t_off": _get(window, "t_off", "noise.window", float),
            "ramp": _get(window, "ramp", "noise.window", float, default=0.0,
                         required=False),
        }

    def observables(self, lattice: LatticeConfig | None = None
                    ) -> tuple[tuple[str, np.ndarray], ...]:
        ens = self.data.get("ensemble")
        if ens is None:
            return ()
        lattice = lattice or self.lattice()
        out = []
        for idx, item in enumerate(ens.get("observables", []) or []):
            where = f"ensemble.observables[{idx}]"
            item = _require_mapping(item, where)
            _reject_unknown(item, _OBSERVABLE_KEYS, where)
            out.append((
                _get(item, "label", where, str, default=f"obs{idx}",
                     required=False),
                self._operator(lattice, item.get("operator"),
                               where + ".operator"),
            ))
        return tuple(out)

    def seed(self) -> int:
        seed = _get(self.data["noise"], "seed", "noise", int, default=0,
                    required=False)
        if seed < 0:
            raise ConfigError(f"noise.seed {seed} must be nonnegative")
        return seed

    def realizations(self) -> int:
        ens = self.data.get("ensemble") or {}
        return _get(ens, "realizations", "ensemble", int, default=2,
                    required=False)

    def tolerance(self, name: str) -> float:
        run = self.data.get("run") or {}
        tols = run.get("tolerances") or {}
        if name not in tols:
            raise ConfigError(f"missing run.tolerances.{name}")
        return float(tols[name])

    def out_dir(self) -> str | None:
        run = self.data.get("run") or {}
        return run.get("out")

    def build_h0(self, lattice: LatticeConfig | None = None) -> np.ndarray:
        return build_dirac_h0(lattice or self.lattice())

    def echo(self) -> dict:
        """Plain data copy for embedding in result summaries.

        The output directory is dropped so summaries written to different
        places stay byte-identical.
        """
        data = _deep_copy_plain(self.data)
        if isinstance(data.get("run"), dict):
            data["run"].pop("out", None)
        return data


def load_raw(path) -> dict:
    """Parse a config file into a plain mapping without schema validation.

    Used where the file is a partial override merged onto preset defaults;
    the merged result still goes through the full validation.
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
