"""Per-layer metrics: from the spans of one traced workload run, and from
fixed-size probes of the ensemble step.

Span times are wall-clock seconds. ``<layer>.<fn>_s`` sums the durations of
that function's spans; a layer's self time is its span time minus the part
of it covered by child spans; busy time is the union of the layer's
spans. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from tracer import Span, Tracer
from workloads import WORKER_ENV

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "ensemble.busy_s": "s",
    "ensemble.self_s": "s",
    "ensemble.realization_steps": "count",
    "ensemble.self_us_per_realization_step": "us",
    "ensemble.step_ms.b256-d16": "ms",
    "ensemble.step_ms.b256-d8": "ms",
    "ensemble.speedup_w2": "ratio",
    "channels.sample_noise_s": "s",
    "channels.noise_us_per_realization": "us",
    "channels.noise_bytes": "bytes_computed",
    "channels.build_operators_s": "s",
    "channels.build_operators_calls": "count",
    "channels.table_calls": "count",
    "evolution.solve_s": "s",
    "evolution.solves": "count",
    "evolution.sweeps": "count",
    "evolution.us_per_node_sweep": "us",
    "evolution.max_final_residual": "norm",
    "evolution.surface_correction_s": "s",
    "evolution.surface_corrections": "count",
    "evolution.us_per_surface_correction": "us",
    "evolution.tables_per_surface_correction": "ratio",
    "evolution.transformed_interaction_s": "s",
    "evolution.transformed_interaction_calls": "count",
    "evolution.equal_time_hamiltonian_s": "s",
    "evolution.equal_time_hamiltonian_calls": "count",
    "evolution.conserved_inner_s": "s",
    "evolution.conserved_inner_calls": "count",
    "master.integrate_s": "s",
    "master.rk4_steps": "count",
    "master.us_per_rk4_step": "us",
    "master.spec_build_s": "s",
    "master.max_trace_drift": "norm",
    "master.max_herm_correction": "norm",
    "presets.self_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes_written": "bytes",
    "config.build_s": "s",
    "lattice.build_s": "s",
    "trace.overhead_frac": "ratio",
}


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanTree:
    """Span sums, counts and self times over one recorded run."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children = defaultdict(list)
        for i, span in enumerate(spans):
            if span.parent is not None:
                self.children[span.parent].append(i)

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.named(*names))

    def info(self, key: str, *names: str) -> list:
        return [s.info[key] for s in self.named(*names)]

    def self_time(self, i: int) -> float:
        span = self.spans[i]
        covered = _union((max(self.spans[c].start, span.start),
                          min(self.spans[c].end, span.end))
                         for c in self.children[i])
        return span.duration - covered

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if s.layer == layer)

    def name_self(self, name: str) -> float:
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if s.name == name)

    def busy(self, layer: str) -> float:
        return _union((s.start, s.end) for s in self.spans if s.layer == layer)

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        count = 0
        for s in self.named(name):
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            count += p is not None
        return count


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric that comes from the spans of one run."""
    t = SpanTree(spans)
    ens_self = t.layer_self("ensemble")
    steps = sum(t.info("realization_steps", "run_ensemble"))
    noise_s = t.total("sample_noise")
    noise_calls = len(t.named("sample_noise"))
    solve_s = t.total("solve_nonlocal")
    surf_s = t.total("surface_correction")
    surfs = len(t.named("surface_correction"))
    rk4 = sum(t.info("rk4_steps", "integrate"))
    integrate_s = t.total("integrate")
    # operator_csv calls write_csv: count the bytes of the outer call only
    outer_writes = [s for s in t.named("write_csv", "operator_csv",
                                       "write_summary")
                    if s.parent is None or t.spans[s.parent].layer != "reporting"]
    return {
        "ensemble.busy_s": t.busy("ensemble"),
        "ensemble.self_s": ens_self,
        "ensemble.realization_steps": steps,
        "ensemble.self_us_per_realization_step": 1e6 * _ratio(ens_self, steps),
        "channels.sample_noise_s": noise_s,
        "channels.noise_us_per_realization": 1e6 * _ratio(noise_s, noise_calls),
        "channels.noise_bytes": sum(t.info("bytes", "sample_noise",
                                           "NoiseRealization.table")),
        "channels.build_operators_s": t.total("build_channel_operators"),
        "channels.build_operators_calls": len(t.named("build_channel_operators")),
        "channels.table_calls": len(t.named("NoiseRealization.table")),
        "evolution.solve_s": solve_s,
        "evolution.solves": len(t.named("solve_nonlocal")),
        "evolution.sweeps": sum(t.info("sweeps", "solve_nonlocal")),
        "evolution.us_per_node_sweep": 1e6 * _ratio(
            solve_s, sum(t.info("node_sweeps", "solve_nonlocal"))),
        "evolution.max_final_residual": max(
            t.info("final_residual", "solve_nonlocal"), default=0.0),
        "evolution.surface_correction_s": surf_s,
        "evolution.surface_corrections": surfs,
        "evolution.us_per_surface_correction": 1e6 * _ratio(surf_s, surfs),
        "evolution.tables_per_surface_correction": _ratio(
            t.under("NoiseRealization.table", "surface_correction"), surfs),
        "evolution.transformed_interaction_s": t.name_self(
            "transformed_interaction"),
        "evolution.transformed_interaction_calls": len(
            t.named("transformed_interaction")),
        "evolution.equal_time_hamiltonian_s": t.total("equal_time_hamiltonian"),
        "evolution.equal_time_hamiltonian_calls": len(
            t.named("equal_time_hamiltonian")),
        "evolution.conserved_inner_s": t.total(
            "conserved_inner", "conserved_inner_layer_sum"),
        "evolution.conserved_inner_calls": len(
            t.named("conserved_inner", "conserved_inner_layer_sum")),
        "master.integrate_s": integrate_s,
        "master.rk4_steps": rk4,
        "master.us_per_rk4_step": 1e6 * _ratio(integrate_s, rk4),
        "master.spec_build_s": t.total("LindbladSpec.cfs"),
        "master.max_trace_drift": max(t.info("max_trace_drift", "integrate"),
                                      default=0.0),
        "master.max_herm_correction": max(
            t.info("max_herm_correction", "integrate"), default=0.0),
        "presets.self_s": t.layer_self("presets"),
        "reporting.write_s": t.busy("reporting"),
        "reporting.bytes_written": sum(s.info["bytes"] for s in outer_writes),
        "config.build_s": t.total("ExperimentConfig.from_dict"),
        "lattice.build_s": t.total("build_dirac_h0"),
    }


def _ensemble_case(preset: str, realizations: int, seed: int | None):
    """Model, config and state of ``preset``'s grid and channels."""
    from collapselab import (EigenSystem, EnsembleConfig, ExperimentConfig,
                             ModelSetup, PRESETS)

    cfg = ExperimentConfig.from_dict(PRESETS[preset].defaults)
    lattice = cfg.lattice()
    h0 = cfg.build_h0(lattice)
    model = ModelSetup(cfg.grid(), h0, lattice.spacing, cfg.channels(lattice))
    model.opset  # built here, outside the timed call
    window = cfg.window_params() or {}
    ecfg = EnsembleConfig(
        realizations=realizations, seed=cfg.seed() if seed is None else seed,
        observables=cfg.observables(lattice), t_on=window.get("t_on"),
        t_off=window.get("t_off"), ramp=window.get("ramp", 0.0))
    psi0 = EigenSystem.of(h0, lattice.spacing).ground_state("positive")[1]
    return psi0, ecfg, model


def _timed_ensemble(case, workers: int) -> tuple[float, Tracer]:
    from collapselab import ensemble

    saved = os.environ.get(WORKER_ENV)
    os.environ[WORKER_ENV] = str(workers)
    try:
        with Tracer() as tracer:
            start = time.perf_counter()
            ensemble.run_ensemble(*case)
            wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop(WORKER_ENV, None)
        else:
            os.environ[WORKER_ENV] = saved
    return wall, tracer


def step_ms(preset: str, seed: int | None) -> float:
    """One 256-realization block on ``preset``'s grid, less its noise time,
    in milliseconds per batched step."""
    case = _ensemble_case(preset, 256, seed)
    wall, tracer = _timed_ensemble(case, workers=1)
    noise = SpanTree(tracer.spans).total("sample_noise", "NoiseRealization.table")
    return 1e3 * (wall - noise) / (case[2].grid.n_nodes - 1)


def speedup_w2(preset: str, seed: int | None) -> float:
    """Wall time of two 256-realization blocks at 1 worker over 2 workers."""
    case = _ensemble_case(preset, 512, seed)
    one, _ = _timed_ensemble(case, workers=1)
    two, _ = _timed_ensemble(case, workers=2)
    return one / two


def probe_metrics(seed: int | None) -> dict[str, float]:
    return {
        "ensemble.step_ms.b256-d16": step_ms("collapse-scenario", seed),
        "ensemble.step_ms.b256-d8": step_ms("lindblad-vs-mc", seed),
        "ensemble.speedup_w2": speedup_w2("lindblad-vs-mc", seed),
    }
