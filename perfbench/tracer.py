"""In-memory spans around the public functions of each collapselab module.

The tracer replaces a fixed list of public functions with wrappers that
record a span per call: name, layer, start, end, parent span and thread.
A wrapper is installed in the module that defines the function and in every
collapselab module that imported the name, so calls made through
``from .evolution import solve_nonlocal`` are seen too; ``uninstall``
restores the originals. Nothing is written while spans are recorded.

Worker threads of an ensemble start with an empty span stack; their spans
take as parent the innermost span open on the main thread at that moment,
which is the ``run_ensemble`` call that started them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (defining module, attribute, layer); the attribute may be "Class.method"
# for methods and classmethods, which are replaced on the class.
TARGETS = (
    ("collapselab.presets", "run_preset", "presets"),
    ("collapselab.config", "ExperimentConfig.from_dict", "config"),
    ("collapselab.lattice", "build_dirac_h0", "lattice"),
    ("collapselab.ensemble", "run_ensemble", "ensemble"),
    ("collapselab.ensemble", "scenario_collapse", "ensemble"),
    ("collapselab.ensemble", "mc_mean_drift", "ensemble"),
    ("collapselab.channels", "sample_noise", "channels"),
    ("collapselab.channels", "NoiseRealization.table", "channels"),
    ("collapselab.channels", "build_channel_operators", "channels"),
    ("collapselab.evolution", "solve_nonlocal", "evolution"),
    ("collapselab.evolution", "surface_correction", "evolution"),
    ("collapselab.evolution", "equal_time_hamiltonian", "evolution"),
    ("collapselab.evolution", "transformed_interaction", "evolution"),
    ("collapselab.evolution", "conserved_inner", "evolution"),
    ("collapselab.evolution", "conserved_inner_layer_sum", "evolution"),
    ("collapselab.master", "integrate", "master"),
    ("collapselab.master", "LindbladSpec.cfs", "master"),
    ("collapselab.reporting", "write_csv", "reporting"),
    ("collapselab.reporting", "operator_csv", "reporting"),
    ("collapselab.reporting", "write_summary", "reporting"),
)


def _annotate(name: str, args, result) -> dict:
    """Counts taken at the call boundary from arguments and results."""
    if name == "run_ensemble":
        cfg, model = args[1], args[2]
        return {"realization_steps": cfg.realizations * (model.grid.n_nodes - 1)}
    if name == "sample_noise":
        return {"bytes": int(result.samples.nbytes)}
    if name == "NoiseRealization.table":
        return {"bytes": int(result.nbytes)}
    if name == "solve_nonlocal":
        return {"sweeps": len(result.residuals),
                "node_sweeps": len(result.residuals) * result.grid.n_nodes,
                "final_residual": float(result.residuals[-1])}
    if name == "integrate":
        return {"rk4_steps": int(result.sigmas.shape[0] - 1),
                "max_trace_drift": float(max(result.trace_drift)),
                "max_herm_correction": float(max(result.herm_correction))}
    if name in ("write_csv", "operator_csv", "write_summary"):
        return {"bytes": os.path.getsize(result)}
    return {}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``spans`` keeps them in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, layer, 0.0, parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _annotate(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        homes = {name: importlib.import_module(name) for name, _, _ in TARGETS}
        modules = [m for key, m in sys.modules.items()
                   if key == "collapselab" or key.startswith("collapselab.")]
        for module_name, attr, layer in TARGETS:
            home = homes[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, attr, layer))
                else:
                    wrapped = self._wrap(original, attr, layer)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, attr, layer)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self, origin: float) -> list[dict]:
        """Spans as plain records, times in seconds from ``origin``."""
        return [{"name": s.name, "layer": s.layer, "parent": s.parent,
                 "start": s.start - origin, "end": s.end - origin,
                 "thread": s.thread, **({"info": s.info} if s.info else {})}
                for s in self.spans]
