#!/usr/bin/env python3
"""Run every figure-reproduction experiment into an output directory.

Usage:
    python scripts/run_figures.py [--out OUT_DIR] [--seed SEED] [--config FILE]

Produces one CSV plus a run manifest per figure (fig16 .. fig21), using the
published parameter-table defaults unless a config file overrides them.
The output directory is ``out`` unless ``--out`` names another; ``--seed``
and ``--config`` are passed on to ``hybridnet experiment`` only when given.
"""

import argparse
import sys

from hybridnet import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed")
    parser.add_argument("--config")
    args = parser.parse_args()
    flags = [item for flag, value in vars(args).items() if value is not None for item in (f"--{flag}", value)]

    for name in cli.EXPERIMENTS:
        code = cli.main(["experiment", name, *flags])
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
