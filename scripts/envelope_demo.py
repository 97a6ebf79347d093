#!/usr/bin/env python3
"""Convergence-rate demonstration.

Runs online matrix factorization under the n^(-1/2) log^(-3/2) weight
schedule on both an iid stream and a slowly mixing Markov stream, then
prints the running-minimum optimality-gap envelope: at each checkpoint n,
the product (running min of gap + grad-gap^2) * (sum of weights so far)
should stay bounded, which is the advertised O(1 / sum w_k) rate.

Usage: python3 scripts/envelope_demo.py [--steps 5000]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's sbmm, ahead of any other on the path
import sbmm  # noqa: E402

if Path(sbmm.__file__).resolve().parent != ROOT / "src" / "sbmm":
    raise SystemExit(f"sbmm was imported from {sbmm.__file__}, not from {ROOT / 'src'}")

from sbmm import (  # noqa: E402
    BoxSet,
    MarkovSource,
    WeightSchedule,
    make_iid,
    mixing_rate,
    run_omf_diagnostics,
)

Q, R, D = 3, 2, 2


def make_sources(seed):
    rng = np.random.default_rng(seed)
    emissions = [rng.random(size=(Q, D)) for _ in range(2)]
    iid = make_iid(np.array([0.5, 0.5]), emissions, seed=seed)
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    markov = MarkovSource(P=P, emissions=[e.copy() for e in emissions], seed=seed)
    return iid, markov


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sched = WeightSchedule.polylog(0.5, 1.5)
    dict_box = BoxSet.nonneg(Q * R, upper=1.0)
    code_set = BoxSet.nonneg(R, upper=5.0)
    W0 = np.random.default_rng(args.seed).random(size=(Q, R))

    iid, markov = make_sources(args.seed)
    print(f"chain mixing rate: {mixing_rate(markov):.4f}")
    print(f"{'n':>7} {'w_n':>10} {'iid product':>13} {'markov product':>15}")
    results = {}
    for name, src in (("iid", iid), ("markov", markov)):
        results[name] = run_omf_diagnostics(
            src, sched, W0, 0.05, dict_box, code_set, mode="c2",
            c_prime=1.0, n_iters=args.steps, diag_interval=100)
    recs = zip(results["iid"].records, results["markov"].records)
    for ri, rm in recs:
        pi = ri.min_comp_emp * ri.cum_weight
        pm = rm.min_comp_emp * rm.cum_weight
        print(f"{ri.n:>7} {ri.w_n:>10.4e} {pi:>13.4e} {pm:>15.4e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
