"""The benchmark's workloads and the correctness gate on their results.

A workload is a list of collapselab presets run back to back through
``run_preset`` at a fixed worker count. Ensemble sizes are shortened from
the shipped defaults to fit a run; D, the grid, the channels and the
shipped seeds are kept, and at the shipped seeds every preset still gives
its shipped verdict set.

Seeds. The workload seed passes through ``run_preset(seed=...)`` to the
ensemble presets, whose cost (realizations times steps) does not depend on
the noise drawn. The fixed-point presets of ``solver-d8`` run at their
shipped seeds: their sweep count, and with it their wall time, depends on
the probe field drawn from the seed (104 to 172 sweeps, 3.5 to 5.9 s, over
seeds 1 to 24 on a 2-core x86 VM), a spread across seeds that no bound on
``wall_s`` could absorb.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

WORKER_ENV = "COLLAPSELAB_WORKERS"


@dataclass(frozen=True)
class PresetRun:
    preset: str
    realizations: int | None  # None keeps the shipped size
    checks: tuple[str, ...]  # shipped check names, in order
    red: frozenset = frozenset()  # checks that fail by design when shipped
    ensemble: bool = False  # Monte Carlo preset: seeded, has channel operators


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[PresetRun, ...]
    workers: int
    # worker count of a second shipped-seed run whose files must match
    cross_workers: int | None = None


_COLLAPSE = PresetRun(
    "collapse-scenario", 256,
    ("c12_nonpositive", "c12_active_midwindow", "observable_mean_steady",
     "branch_mean_martingale", "variance_monotone", "variance_growth"),
    ensemble=True)
_LINDBLAD = PresetRun(
    "lindblad-vs-mc", 1024, ("sigma_agreement", "trace_preserved"),
    ensemble=True)
_EXPANSION = PresetRun(
    "expansion", None, ("remainder_slope", "asymmetry_slope"),
    red=frozenset({"asymmetry_slope"}))
_CONSERVATION = PresetRun(
    "conservation", None,
    ("drift_at_dt", "refinement_ratio", "zero_noise_drift", "dual_formula"))

WORKLOADS = {w.name: w for w in (
    Workload("collapse-d16", (_COLLAPSE,), workers=1),
    Workload("lindblad-d8-w2", (_LINDBLAD,), workers=2, cross_workers=1),
    Workload("solver-d8", (_EXPANSION, _CONSERVATION), workers=1),
)}


@dataclass
class Outcome:
    """One preset run: whether it passed the gate, and why not."""

    preset: str
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _gate(run: PresetRun, result, shipped: bool) -> list[str]:
    failures = []
    for check in result.checks:
        if not (math.isfinite(check.observed) and math.isfinite(check.bound)):
            failures.append(f"{check.name}: non-finite value "
                            f"{check.observed!r} (bound {check.bound!r})")
    if shipped:
        got = {c.name: c.passed for c in result.checks}
        want = {name: name not in run.red for name in run.checks}
        if got != want:
            failures.append(f"verdicts {got} differ from shipped {want}")
    return failures


def run_workload(workload: Workload, seed: int | None, out_root: Path,
                 workers: int | None = None) -> list[Outcome]:
    """Run every preset of the workload once; never raises for a preset.

    ``seed`` None runs the shipped seeds and compares the verdict sets.
    Result files go to ``out_root/<preset>``, replacing the last run's.
    """
    from collapselab import presets

    os.environ[WORKER_ENV] = str(workers or workload.workers)
    outcomes = []
    for run in workload.runs:
        out = out_root / run.preset
        shutil.rmtree(out, ignore_errors=True)
        outcome = Outcome(run.preset)
        try:
            result = presets.run_preset(
                run.preset, out=out, realizations=run.realizations,
                seed=seed if run.ensemble else None)
        except Exception as err:  # a raising preset is a failed run
            traceback.print_exc(file=sys.stderr)
            outcome.failures.append(f"raised {type(err).__name__}: {err}")
        else:
            outcome.failures = _gate(run, result,
                                     shipped=seed is None or not run.ensemble)
            outcome.digest = tree_digest(out)
        outcomes.append(outcome)
    return outcomes
