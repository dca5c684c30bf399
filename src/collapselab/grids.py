"""Uniform time grids and noise windows.

All double time integrals in the package are trapezoid sums on one uniform
grid, so the grid object is deliberately minimal: endpoints, step, and the
derived node array. Windows are smooth on/off envelopes used to switch the
stochastic field off near the grid boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+dt, ..., t1 with (t1-t0)/dt integral."""

    t0: float
    t1: float
    dt: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.t0, self.t1, self.dt,
                                       self.t1 - self.t0))):
            raise ConfigError(
                f"non-finite time grid t0={self.t0}, t1={self.t1}, dt={self.dt}")
        if not (self.t1 > self.t0):
            raise ConfigError(f"empty time interval [{self.t0}, {self.t1}]")
        if not (self.dt > 0.0):
            raise ConfigError(f"non-positive step {self.dt}")
        steps = (self.t1 - self.t0) / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(
                f"step {self.dt} does not divide [{self.t0}, {self.t1}] "
                f"(fractional remainder {steps - round(steps):.3e})"
            )

    @property
    def steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_nodes)

    def node_index(self, t: float) -> int:
        """Index of the node within 1e-9 steps of t, or raise if t is
        off-grid."""
        x = (t - self.t0) / self.dt
        i = int(round(x))
        if abs(x - i) > 1e-9 or i < 0 or i >= self.n_nodes:
            from .errors import OutOfGrid

            raise OutOfGrid(f"t={t} is not a node of {self}")
        return i

    def refined(self, factor: int) -> "TimeGrid":
        """Same interval with dt divided by an integer factor."""
        if factor < 1:
            raise ConfigError("refinement factor must be >= 1")
        return TimeGrid(self.t0, self.t1, self.dt / factor)


@dataclass(frozen=True)
class Window:
    """Smooth on/off envelope for the stochastic field.

    The envelope is zero outside [t_on, t_off], one on
    [t_on + ramp, t_off - ramp], and rises/falls with a cos^2 ramp.
    ``flat()`` gives the always-on window.
    """

    t_on: float
    t_off: float
    ramp: float
    always_on: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.always_on:
            return
        if not all(map(math.isfinite, (self.t_on, self.t_off, self.ramp))):
            raise ConfigError(f"non-finite window t_on={self.t_on}, "
                              f"t_off={self.t_off}, ramp={self.ramp}")
        if self.t_off - self.t_on < 2.0 * self.ramp - 1e-12:
            raise ConfigError("window shorter than its two ramps")
        if self.ramp < 0.0:
            raise ConfigError("negative ramp length")

    @classmethod
    def flat(cls) -> "Window":
        return cls(t_on=0.0, t_off=0.0, ramp=0.0, always_on=True)

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        if self.always_on:
            return np.ones_like(np.asarray(t, dtype=float))
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t >= self.t_on) & (t <= self.t_off)
        out[inside] = 1.0
        if self.ramp > 0.0:
            up = inside & (t < self.t_on + self.ramp)
            out[up] = np.sin(0.5 * np.pi * (t[up] - self.t_on) / self.ramp) ** 2
            down = inside & (t > self.t_off - self.ramp)
            out[down] = np.sin(0.5 * np.pi * (self.t_off - t[down]) / self.ramp) ** 2
        return out

    def vanishes_near_ends(self, grid: TimeGrid, margin: float) -> bool:
        """True if the envelope is zero within ``margin`` of both grid ends."""
        if self.always_on:
            return False
        return (self.t_on >= grid.t0 + margin - 1e-12) and (
            self.t_off <= grid.t1 - margin + 1e-12
        )
