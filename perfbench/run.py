"""collapselab benchmark: one client running presets back to back.

    python3 perfbench/run.py --workload collapse-d16 [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; collapselab is imported from
``src/``. The run measures set-up in fresh interpreters, runs the workload
once at its shipped seeds as an untimed warm-up that also gates the verdict
set, then repeats the workload for ``--seconds``. With ``--trace 1`` it
alternates untraced and traced repetitions and reports per-layer metrics
instead. Results and spans go to ``perfbench/out/<workload>/``. The last
line of standard output is one JSON object; the exit code is 1 when a
preset run failed the correctness gate.
"""

import os

# one BLAS thread in this process and its children, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, run_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the ensemble presets (default: shipped)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_revision():
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = {p.name: p.read_text().count("\n")
             for p in sorted((SRC / "collapselab").glob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def setup_seconds(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           workload], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed "
                           f"(exit {child.returncode})")
    return ready


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """Preset outcomes and timings of one benchmark invocation."""

    def __init__(self, workload, seed, out):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.outcomes = []

    def once(self, tag, seed, workers=None):
        outcomes = run_workload(self.workload, seed, self.out / tag, workers)
        self.outcomes.extend(outcomes)
        return outcomes

    def warm_up(self) -> float:
        """Shipped-seed run (untimed) that gates the verdict set, plus the
        cross-worker byte comparison where the workload asks for it."""
        start = time.perf_counter()
        shipped = self.once("shipped", None)
        cold = time.perf_counter() - start
        if self.workload.cross_workers is not None:
            other = self.once("cross", None, self.workload.cross_workers)
            for a, b in zip(shipped, other):
                if a.ok and b.ok and a.digest != b.digest:
                    b.failures.append(
                        f"files differ between {self.workload.workers} and "
                        f"{self.workload.cross_workers} workers")
        return cold

    def timed(self, tag, tracer=None) -> tuple[float, list]:
        start = time.perf_counter()
        if tracer is None:
            outcomes = self.once(tag, self.seed)
        else:
            with tracer:
                outcomes = self.once(tag, self.seed)
        return time.perf_counter() - start, outcomes

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def failures(self) -> list[str]:
        return [f"{o.preset}: {f}" for o in self.outcomes for f in o.failures]


def measure(run: Run, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, _ = run.timed("timed")
        walls.append(wall)
    return {"wall_s": walls}


def measure_traced(run: Run, seconds: float) -> tuple[dict, list]:
    from layers import span_metrics
    from tracer import Tracer

    plain, traced, samples, traces = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, reference = run.timed("untraced")
        plain.append(wall)
        tracer = Tracer()
        origin = time.perf_counter()
        wall, outcomes = run.timed("traced", tracer)
        traced.append(wall)
        for ref, got in zip(reference, outcomes):
            if ref.ok and got.ok and ref.digest != got.digest:
                got.failures.append("traced run wrote other bytes than untraced")
        samples.append(span_metrics(tracer.spans))
        traces.append({"wall_s": wall, "spans": tracer.to_json(origin)})
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in samples[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return {"wall_s": plain, "traced_wall_s": traced, **metrics}, traces


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "collapselab" / "__init__.py").is_file():
        print(f"no collapselab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    out = HERE / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = machine_record()

    setups = ([] if args.trace else
              [setup_seconds(workload.name) for _ in range(SETUP_REPEATS)])
    run = Run(workload, args.seed, out / "results")
    cold = run.warm_up()
    if args.trace:
        from layers import PER_LAYER, probe_metrics

        samples, traces = measure_traced(run, args.seconds)
        samples.update(probe_metrics(args.seed))
        metrics = {name: (samples[name], unit)
                   for name, unit in PER_LAYER.items()}
        (out / "trace.json").write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "runs": traces}))
    else:
        samples = measure(run, args.seconds)
        samples["setup_s"] = setups
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(samples["wall_s"]), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss, "MiB")}

    walls = samples["wall_s"]
    lo, hi = _quartiles(walls)
    attempted, failed = len(run.outcomes), run.failed
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} untraced runs, wall median {statistics.median(walls):.4f} s "
          f"(quartiles {lo:.4f}..{hi:.4f})")
    print(f"  cold warm-up run {cold:.4f} s at the shipped seeds "
          f"(untimed; {cold - statistics.median(walls):+.4f} s over the median)")
    for name, (value, unit) in metrics.items():
        note = f"  (median of {len(samples[name])})" if name in (
            "wall_s", "setup_s") else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} preset runs)")
    for line in run.failures():
        print(f"  FAILED {line}")
    (out / "result.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine, "cold_run_s": cold,
        "samples": samples, "failures": run.failures()}, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
