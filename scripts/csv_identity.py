#!/usr/bin/env python3
"""Byte-identity of the diagnostics CSVs of two checkouts.

Runs, in each checkout and with that checkout's own ``src`` (and its
``perfbench/run.py`` for the rank-5 inputs), the same set of runs, and
writes their CSVs under ``<checkout>/.csv_identity/out``:

- the four shipped configs (``configs/*.cfg``) at seeds 0-2;
- ``omf_markov`` and ``omf_sub`` with ``engine.mode = c1``, at seeds 0-2;
- ``omf_markov`` on the box [-1, 1] (``constraint.lower = -1``), at seeds
  0-2: a box that straddles zero, where the code solves' l1 term keeps its
  sign bookkeeping;
- ``omf_markov`` at rank 3 (``app.rank = 3``), at seed 0: rank-2 runs take
  the closed form, and this one runs the active-set method on a small
  rank;
- a 4-seed ``run_sweep`` of ``configs/omf_markov.cfg``;
- a 16-seed ``run_sweep`` of ``configs/omf_markov.cfg``, under ``sweep16``:
  a large stack, whose code solves (32 member rows) and block solves (48)
  run the rank-2 closed form member by member;
- a 4-seed ``run_sweep`` of ``configs/omf_sub.cfg`` with ``app.row_sample =
  0.5``, whose members draw different row counts, so that the stacked step
  solves one group of members per row count;
- a 2-seed ``run_sweep`` of ``configs/cpdl.cfg``, whose members run one
  after another;
- ``configs/cpdl.cfg`` on 3-mode samples (``write_cpdl3``'s inputs, shape
  2,3,2,3), at seeds 0-1;
- rank-5 runs on ``write_rank5``'s inputs: input and engine seeds 0-2, and
  input seed 2 at engine seed 1, whose run reaches a Hessian that fails the
  solver's definiteness certificate;
- a 3-seed ``run_sweep`` of input seed 0's rank-5 config, whose members
  run their active-set solves and ball searches one by one;
- input seed 0's rank-5 config on the box [-1, 1], at engine seed 0: the
  active-set code solves on a box that straddles zero.

It then prints one line per CSV, ``identical`` or ``differs`` (``missing``
when only one checkout wrote it), and exits 1 on any difference.  For each
CSV that differs, stderr gets the size of the difference: the largest
|change| / (1 + |parent|) over its entries, and the column it is in.
``--steps N`` caps every run's ``engine.n_iters`` at N, for a quick check.

The work of ``omf_markov`` and ``cpdl`` at seed 0, of the 4- and 16-seed
``omf_markov`` sweeps, of each rank-5 run and of the rank-5 sweep, which a
machine's speed does not change, goes to stderr: its ball-search
evaluations (the box solves of every ``ball_multiplier_search``, each one
call of the ``solve(mu)`` that it takes as its first argument), the rank-2
candidates whose objective the closed form's enumeration evaluates (one per
``_pair_objective`` call; a row whose start's pattern verifies evaluates
none), and its ``np.linalg.cholesky``,
``np.linalg.eigh``, ``np.linalg.solve`` and ``np.linalg.inv`` calls (solve
makes the Newton steps and least-squares starts of certified Hessians; no
solver inverts a matrix, so inv reads 0, a guard against one that does) in
each checkout, counted by wrapping ``sbmm.subsolver.ball_multiplier_search``,
``sbmm.subsolver._pair_objective`` and the four numpy functions in the
interpreter that runs that checkout.  A last line sums each count but inv
over the four rank-5 runs, in the parent and in the change.

Usage:
    python3 scripts/csv_identity.py PARENT_DIR CHANGE_DIR [--steps N]
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

SHIPPED = ("omf_iid", "omf_markov", "omf_sub", "cpdl")
C1 = ("omf_markov", "omf_sub")
COUNTED = ("omf_markov", "cpdl")  # shipped configs whose seed-0 run's work is counted
SEEDS = (0, 1, 2)
SWEEP_SEEDS = (0, 1, 2, 3)
STACK16_SEEDS = tuple(range(16))  # a large stack: 32 member rows per code solve
CPDL3_SHAPE = (2, 3, 2, 3)  # three modes and the batch
CPDL3_SEED = 3
WORK = ".csv_identity"
COUNTS = "counts.json"  # the counted runs' work, under each checkout's WORK
# the rank-5 runs as (name, input seed, engine seed)
RANK5_RUNS = (tuple((f"omf_rank5_seed{s}", s, s) for s in SEEDS)
              + (("omf_rank5_in2_seed1", 2, 1),))
WORK_COUNTS = ("ball_evals", "pair_candidates", "cholesky", "eigh", "solve", "inv")
STRADDLE = "constraint.lower = -1\n"  # a box across zero, [-1, 1]


def write_cpdl3(out: Path) -> str:
    """A 3-state chain with Dirichlet(1) rows and uniform [0, 1] emissions of
    shape CPDL3_SHAPE, both drawn from CPDL3_SEED, written under out; returns
    the config keys that point configs/cpdl.cfg at them."""
    import numpy as np

    rng = np.random.default_rng(CPDL3_SEED)
    P = rng.dirichlet(np.ones(3), size=3)
    P /= P.sum(axis=1, keepdims=True)
    E = rng.uniform(0.0, 1.0, size=(3, math.prod(CPDL3_SHAPE)))
    np.savetxt(out / "cpdl3_transition.csv", P, delimiter=",", fmt="%.17g")
    np.savetxt(out / "cpdl3_emissions.csv", E, delimiter=",", fmt="%.17g")
    return (f"stream.transition = {out / 'cpdl3_transition.csv'}\n"
            f"stream.emissions = {out / 'cpdl3_emissions.csv'}\n"
            f"app.tensor_shape = {','.join(map(str, CPDL3_SHAPE))}\n")


def count_work(run) -> dict:
    """run() with its work counted: the evaluations of every ball search
    (the calls of the solve(mu) that sbmm.subsolver.ball_multiplier_search
    takes first, one per box solve), the rank-2 candidates that
    sbmm.subsolver._pair_objective evaluates (one per entry of its result)
    and the calls of np.linalg.cholesky, np.linalg.eigh, np.linalg.solve and
    np.linalg.inv."""
    import numpy as np
    from sbmm import subsolver

    counts = dict.fromkeys(WORK_COUNTS, 0)
    linalg = {name: getattr(np.linalg, name) for name in WORK_COUNTS[2:]}
    search, objective = subsolver.ball_multiplier_search, subsolver._pair_objective

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def counted_search(solve, *args, **kwargs):
        return search(counted("ball_evals", solve), *args, **kwargs)

    def counted_objective(*args):
        obj = objective(*args)
        counts["pair_candidates"] += np.size(obj)  # an older checkout's arrays: one per entry
        return obj
    for name, fn in linalg.items():
        setattr(np.linalg, name, counted(name, fn))
    subsolver.ball_multiplier_search = counted_search
    subsolver._pair_objective = counted_objective
    try:
        run()
    finally:
        for name, fn in linalg.items():
            setattr(np.linalg, name, fn)
        subsolver.ball_multiplier_search = search
        subsolver._pair_objective = objective
    return counts


def write_set(out: Path, steps: int | None) -> None:
    """Every run of the set, with the sbmm on the path, from the current
    directory (a checkout's root); CSVs go to out/out, configs and inputs
    to out/inputs."""
    import sbmm
    from sbmm import parse_config, run_experiment, run_sweep

    root = Path.cwd().resolve()
    if root / "src" not in Path(sbmm.__file__).resolve().parents:
        raise SystemExit(f"sbmm was imported from {sbmm.__file__}, not from {root / 'src'}")
    inputs, csvs = out / "inputs", out / "out"
    inputs.mkdir(parents=True)
    csvs.mkdir()

    def config(src: Path, name: str, extra: str = "") -> object:
        # later keys override earlier ones
        if steps is not None:
            extra += f"engine.n_iters = {steps}\n"
        path = inputs / f"{name}.cfg"
        path.write_text(src.read_text(encoding="utf-8") + "\n" + extra, encoding="utf-8")
        return parse_config(path)

    work = {}
    for name in SHIPPED:
        cfg = config(root / "configs" / f"{name}.cfg", name)
        for seed in SEEDS:
            run = functools.partial(run_experiment, cfg, seed=seed,
                                    out_path=str(csvs / f"{name}_seed{seed}.csv"))
            if seed == 0 and name in COUNTED:
                work[f"{name}_seed0"] = count_work(run)
            else:
                run()
    for name in C1:
        cfg = config(root / "configs" / f"{name}.cfg", f"{name}_c1", "engine.mode = c1\n")
        for seed in SEEDS:
            run_experiment(cfg, seed=seed, out_path=str(csvs / f"{name}_c1_seed{seed}.csv"))
    cfg = config(root / "configs" / "omf_markov.cfg", "omf_markov_straddle", STRADDLE)
    for seed in SEEDS:
        run_experiment(cfg, seed=seed, out_path=str(csvs / f"omf_markov_straddle_seed{seed}.csv"))
    cfg = config(root / "configs" / "omf_markov.cfg", "omf_markov_rank3", "app.rank = 3\n")
    run_experiment(cfg, seed=0, out_path=str(csvs / "omf_markov_rank3_seed0.csv"))
    work["omf_markov_sweep"] = count_work(functools.partial(
        run_sweep, config(root / "configs" / "omf_markov.cfg", "omf_markov_sweep"), SWEEP_SEEDS,
        out_dir=csvs / "sweep"))
    work["omf_markov_sweep16"] = count_work(functools.partial(
        run_sweep, config(root / "configs" / "omf_markov.cfg", "omf_markov_sweep16"),
        STACK16_SEEDS, out_dir=csvs / "sweep16"))
    run_sweep(config(root / "configs" / "omf_sub.cfg", "omf_sub_sweep", "app.row_sample = 0.5\n"),
              SWEEP_SEEDS, out_dir=csvs / "sweep")
    run_sweep(config(root / "configs" / "cpdl.cfg", "cpdl_sweep"), SWEEP_SEEDS[:2],
              out_dir=csvs / "sweep")
    cfg = config(root / "configs" / "cpdl.cfg", "cpdl3", write_cpdl3(inputs))
    for seed in SEEDS[:2]:
        run_experiment(cfg, seed=seed, out_path=str(csvs / f"cpdl3_seed{seed}.csv"))
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rank5 = {}
    for seed in SEEDS:
        (inputs / f"rank5_seed{seed}").mkdir()
        rank5[seed] = bench.write_rank5(seed, inputs / f"rank5_seed{seed}")
    for name, input_seed, seed in RANK5_RUNS:
        cfg = config(rank5[input_seed], name)
        work[name] = count_work(functools.partial(run_experiment, cfg, seed=seed,
                                                  out_path=str(csvs / f"{name}.csv")))
    cfg = config(rank5[0], "omf_rank5_sweep")
    work["omf_rank5_sweep"] = count_work(functools.partial(run_sweep, cfg, SEEDS,
                                                           out_dir=csvs / "sweep"))
    cfg = config(rank5[0], "omf_rank5_straddle", STRADDLE)
    run_experiment(cfg, seed=0, out_path=str(csvs / "omf_rank5_straddle_seed0.csv"))
    (out / COUNTS).write_text(json.dumps(work, indent=1) + "\n", encoding="utf-8")


def run_checkout(checkout: Path, steps: int | None) -> Path:
    """write_set in a fresh interpreter that imports the checkout's sbmm;
    returns the directory of its CSVs."""
    out = checkout / WORK
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--write", str(out)]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    subprocess.run(cmd, cwd=checkout, env=env, check=True)
    return out / "out"


def compare(parent: Path, change: Path) -> list[tuple[str, str]]:
    """(relative path, identical / differs / missing) for every CSV of
    either directory, in name order."""
    names = sorted({str(p.relative_to(d)) for d in (parent, change) for p in d.rglob("*.csv")})
    verdicts = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            verdicts.append((name, "missing"))
        else:
            verdicts.append((name, "identical" if a.read_bytes() == b.read_bytes() else "differs"))
    return verdicts


def largest_change(parent: Path, change: Path) -> str:
    """The size of the difference between two CSVs: the largest |y - x| /
    (1 + |x|) over their entries, x the parent's and y the change's, and its
    column; inf where an entry is not finite in one of them only, and a note
    instead when the header or the shape differs."""
    with parent.open(encoding="utf-8") as fa, change.open(encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "header or shape differs"
    worst, column = 0.0, rows_a[0][0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(rows_a[0], row_a, row_b):
            if a != b:
                x, y = float(a), float(b)
                size = abs(y - x) / (1.0 + abs(x))
                if not size <= worst:  # nan (inf against inf, or nan) counts as inf
                    worst, column = math.inf if math.isnan(size) else size, name
    return f"largest |change| / (1 + |parent|) {worst:.3g} in column {column}"


def work_lines(parent: Path, change: Path) -> list[str]:
    """One line per counted run and sweep: its work counts in the parent and
    in the change, from the two checkouts' COUNTS files; then one line of
    each count but inv summed over the rank-5 runs (RANK5_RUNS)."""
    before, after = (json.loads(p.read_text(encoding="utf-8")) for p in (parent, change))
    lines = [f"{name} work (parent -> change): "
             + ", ".join(f"{key} {before[name][key]} -> {after[name][key]}" for key in WORK_COUNTS)
             for name in sorted(before.keys() & after.keys())]
    rank5 = [name for name, _, _ in RANK5_RUNS if name in before.keys() & after.keys()]
    total = lambda counts, key: sum(counts[name][key] for name in rank5)
    lines.append(f"total over the {len(rank5)} rank-5 runs, parent -> change: "
                 + ", ".join(f"{key} {total(before, key)} -> {total(after, key)}"
                             for key in WORK_COUNTS[:-1]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="*", metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    ap.add_argument("--steps", type=int, default=None, help="cap on every run's engine.n_iters")
    ap.add_argument("--write", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.steps is not None and args.steps < 1:
        ap.error("--steps must be >= 1")
    if args.write:
        write_set(Path(args.write), args.steps)
        return 0
    if len(args.dirs) != 2:
        ap.error("expected PARENT_DIR CHANGE_DIR")
    parent, change = (run_checkout(Path(d).resolve(), args.steps) for d in args.dirs)
    for line in work_lines(parent.parent / COUNTS, change.parent / COUNTS):
        print(line, file=sys.stderr)
    verdicts = compare(parent, change)
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
        if verdict == "differs":
            print(f"{name}: {largest_change(parent / name, change / name)}", file=sys.stderr)
    bad = sum(verdict != "identical" for _, verdict in verdicts)
    print(f"{len(verdicts) - bad} of {len(verdicts)} identical")
    return 1 if bad or not verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
