#!/usr/bin/env python3
"""cProfile function calls per outer step, a count the machine's speed does
not change.

For each config, runs ``run_experiment`` under cProfile once per engine seed
(0 by default), writing the CSVs to a temporary directory, and prints the
function calls per outer step: pstats' total count (primitive and recursive
calls alike) over the seeds' steps, ``engine.n_iters`` each.  It then prints
the 10 functions that make the most calls, summed over the seeds: the calls
each makes per step, the calls it receives per step, and its name.  The
count covers the whole run (its setup and its CSV too), and this checkout's
``src``.

Usage (from the repo root, since configs name their inputs relative to it):
    python3 scripts/call_counts.py configs/cpdl.cfg configs/omf_markov.cfg --seeds 0
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's sbmm, ahead of any other on the path
import sbmm  # noqa: E402

if Path(sbmm.__file__).resolve().parent != ROOT / "src" / "sbmm":
    raise SystemExit(f"sbmm was imported from {sbmm.__file__}, not from {ROOT / 'src'}")

from sbmm import parse_config, run_experiment  # noqa: E402

TOP = 10


def profile(config: str, seeds: list[int]) -> tuple[float, list[tuple[float, float, str]]]:
    """(calls per step, the TOP functions by calls made as (made per step,
    received per step, name)) of config's runs at the given seeds."""
    cfg = parse_config(config)
    prof = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            prof.runcall(run_experiment, cfg, seed=seed, out_path=str(Path(tmp) / f"{seed}.csv"))
    stats = pstats.Stats(prof).stats
    steps = cfg["engine.n_iters"] * len(seeds)
    made = Counter()
    for _, nc, _, _, callers in stats.values():
        for caller, (calls, *_) in callers.items():
            made[caller] += calls
    top = [(n / steps, stats[f][1] / steps, pstats.func_std_string(f))
           for f, n in made.most_common(TOP)]
    return sum(s[1] for s in stats.values()) / steps, top


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    for config in args.configs:
        per_step, top = profile(config, args.seeds)
        print(f"{config}: {per_step:.1f} calls per step (seeds {args.seeds})")
        print(f"  {'made/step':>10} {'called/step':>12}  function")
        for made, called, name in top:
            print(f"  {made:>10.1f} {called:>12.1f}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
