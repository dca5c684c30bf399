"""Error taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic programming errors keep raising the builtin types.
"""

from __future__ import annotations


class CollapseLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CollapseLabError):
    """Operands live on different Hilbert spaces or grids."""


class NotPositive(CollapseLabError):
    """A matrix square root or inverse root hit a non-positive spectrum."""


class NotPSD(CollapseLabError):
    """A covariance matrix has a negative eigenvalue beyond tolerance."""


class GridTooCoarse(CollapseLabError):
    """The time step does not resolve the interaction kernel."""


class OutOfGrid(CollapseLabError):
    """A time outside the simulated grid was requested."""


class NoConvergence(CollapseLabError):
    """The fixed-point solver did not reach tolerance."""


class StepRejected(CollapseLabError):
    """An integrator step violated a structural bound (hermiticity) or met a
    non-finite generator."""


class NotEigenstate(CollapseLabError):
    """A state required to be an eigenstate is not one."""


class ScenarioViolation(CollapseLabError):
    """A diagnostic was requested outside its validity scenario."""


class ConfigError(CollapseLabError):
    """A run configuration is malformed or inconsistent."""


class IOFailure(CollapseLabError):
    """Writing or reading a result file failed."""
