#!/usr/bin/env python3
"""Before/after pairs of the benchmark, written to BENCH_<workload>.json.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` in two
checkouts, PARENT_DIR (before) and CHANGE_DIR (after), as N pairs on seeds
K, K+1, ...; the side that runs first alternates from pair to pair, so a
drift of the machine's speed falls on both sides alike.  Each run's last
output line is the benchmark's JSON.  For every end-to-end metric of
CHANGE_DIR's BENCHMARK.json the file holds each pair's values, each side's
median and quartiles, the pairs the change wins, and the benchmark's rule:

- within bound: the change's median is worse than the parent's by no more
  than the metric's bound (a fraction of the parent's median);
- gain shown: the change is better in at least nine of every ten pairs,
  and its median is better than the parent's by more than the distance
  between the parent's quartiles.

Quartiles are those of ``statistics.quantiles`` (the exclusive method).
Every run must also be correct with no failed operation.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload omf_rank5 \\
        --pairs 10 --seconds 20 --seed0 100
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the checkout's benchmark: its final JSON line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(run, pairs: int, seed0: int) -> list[dict]:
    """pairs pairs of run(side, seed), side "parent" or "change", the
    first side alternating; each pair is {seed, first, parent, change}."""
    out = []
    for i in range(pairs):
        seed = seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(side, seed)
        out.append(pair)
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(records: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric, the pairs' values, each side's median and quartiles, the
    change's wins and the benchmark rule's verdict."""
    n = len(records)
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in records]
        change = [r["change"]["metrics"][name]["value"] for r in records]
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        p, c = _spread(parent), _spread(change)
        gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
        wins = sum(better(b, a) for a, b in zip(parent, change))
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "pairs": [[a, b] for a, b in zip(parent, change)],
            "parent": p, "change": c,
            "relative_change": (c["median"] - p["median"]) / p["median"],
            "change_wins": wins,
            "within_bound": -gain <= spec["bound"] * abs(p["median"]),
            "gain_shown": wins >= math.ceil(0.9 * n) and gain > p["q3"] - p["q1"],
        }
    runs = [r[side] for r in records for side in ("parent", "change")]
    return {
        "pairs": n,
        "seeds": [r["seed"] for r in records],
        "first": [r["first"] for r in records],
        "all_correct": all(run["correct"] for run in runs),
        "failed": {side: sum(r[side]["failed"] for r in records) for side in ("parent", "change")},
        "attempted": {side: sum(r[side]["attempted"] for r in records)
                      for side in ("parent", "change")},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs per side)")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"--workload must name one workload of {dirs['change'] / 'BENCHMARK.json'}")

    def run(side, seed):
        result = run_benchmark(dirs[side], args.workload, seed, args.seconds)
        value = result["metrics"].get("ref_us_per_step", {}).get("value")
        print(f"seed {seed} {side}: ref_us_per_step {value}", file=sys.stderr)
        return result

    records = run_pairs(run, args.pairs, args.seed0)
    summary = {"workload": args.workload, "seconds": args.seconds,
               "python": sys.version.split()[0], "cpus": os.cpu_count()}
    summary.update(summarize(records, spec["end_to_end"]))
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} -> change {m['change']['median']:.4g} "
              f"({100 * m['relative_change']:+.1f}%), change better in {m['change_wins']} of "
              f"{summary['pairs']}, within bound {m['within_bound']}, gain shown "
              f"{m['gain_shown']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
