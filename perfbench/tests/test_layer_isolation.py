"""Self-tests of the traced run: the layers each workload is meant to stress
carry its time, and the layers it is meant to bypass record no spans.

    python3 -m pytest perfbench/tests
"""

import json
import time
from pathlib import Path

import pytest

from layers import PER_LAYER, SpanTree
from tracer import Tracer
from workloads import WORKLOADS, run_workload

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _traced(name: str, out: Path) -> tuple[SpanTree, float]:
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        outcomes = run_workload(WORKLOADS[name], None, out)
    wall = time.perf_counter() - start
    assert [o.failures for o in outcomes] == [[] for _ in outcomes]
    return SpanTree(tracer.spans), wall


def test_collapse_d16_is_ensemble_bound(tmp_path):
    tree, wall = _traced("collapse-d16", tmp_path)
    assert tree.layer_self("ensemble") >= 0.8 * wall
    assert not [s for s in tree.spans if s.layer == "evolution"]


def test_solver_d8_is_evolution_bound(tmp_path):
    tree, wall = _traced("solver-d8", tmp_path)
    assert tree.busy("evolution") >= 0.8 * wall
    assert not [s for s in tree.spans if s.layer == "ensemble"]


def test_tracer_restores_every_function():
    import collapselab
    from collapselab import channels, ensemble, presets

    before = (presets.run_ensemble, ensemble.sample_noise,
              collapselab.solve_nonlocal, channels.NoiseRealization.table)
    with Tracer():
        assert presets.run_ensemble is not before[0]
        assert ensemble.sample_noise is not before[1]
    after = (presets.run_ensemble, ensemble.sample_noise,
             collapselab.solve_nonlocal, channels.NoiseRealization.table)
    assert after == before


@pytest.mark.skipif(not BENCHMARK.exists(), reason="no BENCHMARK.json")
def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
