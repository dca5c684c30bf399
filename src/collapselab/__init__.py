"""Desk-scale laboratory for nonlocal-in-time stochastic Dirac dynamics.

The package builds small periodic Dirac lattices, couples them to white
noise through compactly supported interaction kernels, and checks the
claimed structure of the resulting dynamics: a conserved surface-layer
product, second-order operator expansions, a double-commutator master
equation for the ensemble mean, absence of heating for eigenstates, and
collapse-like spreading of branch weights. ``presets.run_preset`` packages
each check with pass/fail bounds; the ``collapselab`` command exposes them.
"""

from .channels import (
    InteractionChannel,
    KernelProfile,
    build_channel_operators,
    make_channel,
    sample_fourier_probe,
    sample_noise,
)
from .config import ExperimentConfig
from .ensemble import (
    EnsembleConfig,
    ModelSetup,
    mc_mean_drift,
    run_ensemble,
    scenario_collapse,
)
from .errors import CollapseLabError
from .evolution import (
    conserved_inner,
    solve_nonlocal,
    surface_correction,
    transformed_interaction,
)
from .grids import TimeGrid, Window
from .lattice import EigenSystem, LatticeConfig, build_dirac_h0
from .master import LindbladSpec, compute_A, compute_B, integrate
from .presets import PRESETS, run_preset

__version__ = "0.1.0"

__all__ = [
    "CollapseLabError",
    "EigenSystem",
    "EnsembleConfig",
    "ExperimentConfig",
    "InteractionChannel",
    "KernelProfile",
    "LatticeConfig",
    "LindbladSpec",
    "ModelSetup",
    "PRESETS",
    "TimeGrid",
    "Window",
    "build_channel_operators",
    "build_dirac_h0",
    "compute_A",
    "compute_B",
    "conserved_inner",
    "integrate",
    "make_channel",
    "mc_mean_drift",
    "run_ensemble",
    "run_preset",
    "sample_fourier_probe",
    "sample_noise",
    "scenario_collapse",
    "solve_nonlocal",
    "surface_correction",
    "transformed_interaction",
    "__version__",
]
