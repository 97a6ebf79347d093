#!/usr/bin/env python3
"""cProfile function calls per outer step, a count the machine's speed does
not change.

For each config, runs ``run_experiment`` under cProfile once per engine seed
(0 by default), writing the CSVs to a temporary directory, and prints the
function calls per outer step: pstats' total count (primitive and recursive
calls alike) over the seeds' steps, ``engine.n_iters`` each.  With ``--sweep
K`` the seeds run as ``run_sweep`` stacks of K consecutive seeds (the number
of seeds a multiple of K), and the count is per seed-step.  ``--set
key=value`` (repeatable) overrides a config key as a line appended to a copy
of the config would, checked as the config's own lines are.  It then prints
the 10 functions that make the most calls, summed over the seeds: the calls
each makes per step, the calls it receives per step, and its name.  The
count covers the whole run (its setup and its CSV too), and this checkout's
``src``.

Usage (from the repo root, since configs name their inputs relative to it):
    python3 scripts/call_counts.py configs/cpdl.cfg configs/omf_markov.cfg --seeds 0
    python3 scripts/call_counts.py configs/omf_sub.cfg --set engine.mode=c1 \
        --sweep 2 --seeds 0 1 2 3 4 5
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

from sbmm import parse_config, run_experiment, run_sweep  # noqa: E402
from sbmm.bench import ConfigError  # noqa: E402

TOP = 10


def profile(config: str, seeds: list[int], sweep: int = 0,
            overrides: tuple = ()) -> tuple[float, list[tuple[float, float, str]]]:
    """(calls per seed-step, the TOP functions by calls made as (made per
    seed-step, received per seed-step, name)) of config's runs at the given
    seeds, one by one, or as run_sweep stacks of sweep seeds if sweep > 0,
    with the overrides (key=value lines) appended to the config."""
    prof = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        path = config
        if overrides:
            path = Path(tmp) / Path(config).name
            text = Path(config).read_text(encoding="utf-8")
            path.write_text(text + "\n" + "\n".join(overrides) + "\n", encoding="utf-8")
        cfg = parse_config(path)
        if sweep:
            for i in range(0, len(seeds), sweep):
                prof.runcall(run_sweep, cfg, seeds[i:i + sweep], out_dir=str(Path(tmp) / str(i)))
        else:
            for seed in seeds:
                prof.runcall(run_experiment, cfg, seed=seed,
                             out_path=str(Path(tmp) / f"{seed}.csv"))
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
    ap.add_argument("--sweep", type=int, default=0, metavar="K",
                    help="run the seeds as run_sweep stacks of K (0: one run per seed)")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config key (repeatable)")
    args = ap.parse_args()
    if args.sweep < 0 or (args.sweep and len(args.seeds) % args.sweep):
        ap.error(f"--sweep {args.sweep} must be >= 0 and divide the {len(args.seeds)} seeds")
    for item in args.set:
        if "=" not in item:
            ap.error(f"--set {item!r}: expected key=value")
    for config in args.configs:
        try:
            per_step, top = profile(config, args.seeds, args.sweep, tuple(args.set))
        except ConfigError as exc:
            raise SystemExit(f"call_counts: {exc}") from None
        unit = f"seed-step (sweeps of {args.sweep})" if args.sweep else "step"
        print(f"{config}: {per_step:.1f} calls per {unit} (seeds {args.seeds})")
        print(f"  {'made/step':>10} {'called/step':>12}  function")
        for made, called, name in top:
            print(f"  {made:>10.1f} {called:>12.1f}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
