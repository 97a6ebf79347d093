#!/usr/bin/env python3
"""Seed-sweep demonstration.

Runs one configuration file across several seeds, one after another, and
prints the final recorded optimality-gap composite for each seed.  One diagnostics
CSV per seed is written to the output directory.

Usage: python3 scripts/sweep_demo.py configs/omf_iid.cfg --seeds 0 1 2 3
"""

import argparse
import sys

from sbmm import parse_config, run_sweep
from sbmm.bench import ConfigError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    try:
        results = run_sweep(parse_config(args.config), args.seeds, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'seed':>6} {'final n':>8} {'min composite gap':>18}")
    for seed in args.seeds:
        last = results[seed].records[-1]
        print(f"{seed:>6} {last.n:>8} {last.min_comp_emp:>18.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
