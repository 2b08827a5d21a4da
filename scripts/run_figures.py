#!/usr/bin/env python3
"""Run every figure-reproduction experiment into an output directory.

Usage:
    python scripts/run_figures.py [--out OUT_DIR] [--seed SEED] [--config FILE]

Produces one CSV plus a run manifest per figure (fig16 .. fig21), using the
published parameter-table defaults unless a config file overrides them.
Only the flags given here are passed on, so ``HYBRIDNET_SEED``,
``HYBRIDNET_OUT`` and ``HYBRIDNET_CONFIG`` apply as they do to
``hybridnet experiment``. With neither ``--out`` nor ``HYBRIDNET_OUT``, the
output directory is ``out``.
"""

import argparse
import os
import sys

from hybridnet import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out")
    parser.add_argument("--seed")
    parser.add_argument("--config")
    args = parser.parse_args()
    if args.out is None and "HYBRIDNET_OUT" not in os.environ:
        args.out = "out"
    flags = [item for flag, value in vars(args).items() if value is not None for item in (f"--{flag}", value)]

    for name in cli.EXPERIMENTS:
        code = cli.main(["experiment", name, *flags])
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
