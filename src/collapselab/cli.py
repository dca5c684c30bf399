"""Command-line front end.

Three subcommands: ``run`` executes one preset (optionally under a config
override file), ``list-presets`` prints the registry, ``validate`` checks a
full config file without running anything. Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration problem, 3 solver or runtime
failure. The number of ensemble worker processes (fork) comes from the
COLLAPSELAB_WORKERS environment variable; the results do not depend on it.
With more than one worker and no BLAS thread limit in the environment,
``run`` warns once on stderr: each process's BLAS would start a thread per
CPU, and the workers would oversubscribe the CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, load_raw
from .ensemble import WORKER_ENV, worker_count
from .errors import CollapseLabError, ConfigError, ScenarioViolation
from .presets import PRESETS, check_tolerances, run_preset

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

BLAS_THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapselab",
        description="Desk-scale checks of the nonlocal collapse dynamics.",
        epilog=f"Set {WORKER_ENV} to parallelize ensembles over processes "
               "(fork).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one preset and write its results")
    run_p.add_argument("preset", help="preset name, see list-presets")
    run_p.add_argument("--config", help="YAML overrides merged onto the "
                       "preset defaults")
    run_p.add_argument("--seed", type=int, help="override noise.seed")
    run_p.add_argument("--realizations", type=int,
                       help="override ensemble.realizations")
    run_p.add_argument("--out", help="override the output directory")

    sub.add_parser("list-presets", help="print preset names and claims")

    val_p = sub.add_parser("validate", help="validate a full config file")
    val_p.add_argument("--config", required=True)
    return parser


def _warn_unbounded_blas() -> None:
    try:
        workers = worker_count()
    except ConfigError:
        return  # reported by the ensemble, if the preset runs one
    if workers > 1 and not any(name in os.environ for name in BLAS_THREAD_ENVS):
        print(f"warning: {WORKER_ENV}={workers} without a BLAS thread limit; "
              "each worker's BLAS may start a thread per CPU. Set "
              "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS / MKL_NUM_THREADS).",
              file=sys.stderr)


def _cmd_run(args) -> int:
    _warn_unbounded_blas()
    overrides = load_raw(args.config) if args.config else None
    result = run_preset(args.preset, overrides, out=args.out, seed=args.seed,
                        realizations=args.realizations)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {check.name}: {check.observed:.6g}"
        line += f" (bound {check.bound:.6g})"
        if check.detail:
            line += f"  [{check.detail}]"
        print(line)
    verdict = "passed" if result.passed else "FAILED"
    print(f"{result.name} {verdict}; results in {result.out_dir}")
    return EXIT_PASS if result.passed else EXIT_FAIL


def _cmd_validate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    preset = (cfg.data.get("run") or {}).get("preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(
            f"run.preset {preset!r} unknown; valid names: "
            f"{', '.join(PRESETS)}")
    if preset is not None:
        check_tolerances(preset, cfg)
    print(f"{args.config}: valid")
    return EXIT_PASS


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            width = max(len(name) for name in PRESETS)
            for preset in PRESETS.values():
                print(f"{preset.name:<{width}}  {preset.claim}")
            return EXIT_PASS
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except (ConfigError, ScenarioViolation) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CollapseLabError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
