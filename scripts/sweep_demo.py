#!/usr/bin/env python3
"""Seed-sweep demonstration.

Runs one configuration file across several seeds with run_sweep (an OMF
config runs them as one stack in lockstep, a CPDL config one after another)
and prints the final recorded optimality-gap composite for each seed, then
the sweep's wall time in microseconds per seed-step: the sweep's wall time
over (seeds x engine.n_iters).  Changing --seeds gives seed-steps per second
against the number of seeds.  One diagnostics CSV per seed is written to
the output directory.

Usage: python3 scripts/sweep_demo.py configs/omf_iid.cfg --seeds 0 1 2 3
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's sbmm, ahead of any other on the path
import sbmm  # noqa: E402

if Path(sbmm.__file__).resolve().parent != ROOT / "src" / "sbmm":
    raise SystemExit(f"sbmm was imported from {sbmm.__file__}, not from {ROOT / 'src'}")

from sbmm import parse_config, run_sweep  # noqa: E402
from sbmm.bench import ConfigError  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    try:
        cfg = parse_config(args.config)
        t0 = time.perf_counter()
        results = run_sweep(cfg, args.seeds, out_dir=args.out_dir)
        wall = time.perf_counter() - t0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'seed':>6} {'final n':>8} {'min composite gap':>18}")
    for seed in args.seeds:
        last = results[seed].records[-1]
        print(f"{seed:>6} {last.n:>8} {last.min_comp_emp:>18.6e}")
    seed_steps = len(args.seeds) * cfg["engine.n_iters"]
    print(f"wall us per seed-step: {wall / seed_steps * 1e6:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
