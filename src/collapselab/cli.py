"""Command-line front end.

Three subcommands: ``run`` executes one preset (optionally under a config
override file), ``list-presets`` prints the registry, ``validate`` checks a
full config file without running anything. Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration problem, 3 solver or runtime
failure. The number of ensemble worker processes (fork) comes from the
COLLAPSELAB_WORKERS environment variable; the results do not depend on it.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, load_raw
from .ensemble import WORKER_ENV
from .errors import CollapseLabError, ConfigError, ScenarioViolation
from .presets import PRESETS, check_tolerances, run_preset

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


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


def _cmd_run(args) -> int:
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
