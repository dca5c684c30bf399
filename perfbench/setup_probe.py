"""Set-up of one workload in a fresh interpreter; prints ``ready`` when done.

Set-up is what every CLI invocation pays before its first step: importing
collapselab, merging each preset's config and validating it, and building
h0 and, for the ensemble presets, the channel operators. The parent process
times this script from spawn to the ``ready`` line.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import collapselab  # noqa: E402,F401
from collapselab.channels import build_channel_operators  # noqa: E402
from collapselab.config import ExperimentConfig, merged  # noqa: E402
from collapselab.presets import PRESETS  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(name: str) -> None:
    for run in WORKLOADS[name].runs:
        overrides = ({"ensemble": {"realizations": run.realizations}}
                     if run.realizations else {})
        cfg = ExperimentConfig.from_dict(
            merged(PRESETS[run.preset].defaults, overrides))
        lattice = cfg.lattice()
        h0 = cfg.build_h0(lattice)
        channels = cfg.channels(lattice)
        if run.ensemble:
            build_channel_operators(channels, h0, cfg.grid().dt)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
