"""Benchmark of sbmm: microseconds per outer step on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload omf_markov --seed 0 --seconds 20 --trace 0

One operation is one run (one config, one seed) through sbmm's public entry
points: ``parse_config`` with ``run_experiment``, as ``sbmm run`` does, or
``run_sweep``.  Operations repeat until ``--seconds`` have passed (at least
MIN_OPS of them); every run's output is then checked (checks.py).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones (layers.py), taken on
every other operation so the same process also measures the untraced cost.
After each operation a fresh interpreter imports sbmm and parses the
config, which gives set-up time (at least SETUP_REPEATS probes).
``--workload all`` runs the four workloads one after another in this
process.  Generated configs and CSVs go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

WORKLOADS = ("omf_markov", "cpdl", "omf_rank5", "sweep_sub_c1")
MIN_OPS = 3
SETUP_REPEATS = 7
SWEEP_SEEDS = 2
RANK5 = dict(states=16, q=8, d=6, rank=5, n_iters=120)
# ref_us_per_step = us_per_step * REF_LOOP_S / (reference loop time measured
# next to the operation): the step time at a fixed machine speed, that at
# which the loop takes REF_LOOP_S (about its time on a 2-core 2.0 GHz Xeon)
REF_LOOP_S = 0.05
REF_LOOP_ITERS = 3000


# ---------------------------------------------------------------------------
# inputs


def write_rank5(seed: int, out: Path) -> Path:
    """A 16-state chain with Dirichlet(1) rows and uniform [0, 1] emissions
    of shape 8x6, both drawn from the seed, and the config that runs them."""
    import numpy as np

    rng = np.random.default_rng(seed)
    S, q, d = RANK5["states"], RANK5["q"], RANK5["d"]
    P = rng.dirichlet(np.ones(S), size=S)
    P /= P.sum(axis=1, keepdims=True)
    E = rng.uniform(0.0, 1.0, size=(S, q * d))
    np.savetxt(out / "transition.csv", P, delimiter=",", fmt="%.17g")
    np.savetxt(out / "emissions.csv", E, delimiter=",", fmt="%.17g")
    cfg = out / "omf_rank5.cfg"
    cfg.write_text(
        "label = omf_rank5\n"
        "schedule.kind = polylog\nschedule.beta = 0.5\nschedule.delta = 1.5\n"
        "constraint.lower = 0.0\nconstraint.upper = 1.0\n"
        "stream.kind = markov\n"
        f"stream.transition = {out / 'transition.csv'}\n"
        f"stream.emissions = {out / 'emissions.csv'}\n"
        f"stream.seed = {seed}\n"
        "engine.mode = c2\nengine.c_prime = 1.0\n"
        f"engine.n_iters = {RANK5['n_iters']}\nengine.diag_interval = 10\n"
        f"app.kind = omf\napp.rank = {RANK5['rank']}\napp.lambda = 0.05\n"
        f"app.tensor_shape = {q},{d}\n",
        encoding="utf-8")
    return cfg


def config_for(workload: str, seed: int, out: Path) -> Path:
    if workload in ("omf_markov", "cpdl"):
        return ROOT / "configs" / f"{workload}.cfg"
    if workload == "omf_rank5":
        return write_rank5(seed, out)
    # later keys override earlier ones
    text = (ROOT / "configs" / "omf_sub.cfg").read_text(encoding="utf-8")
    cfg = out / "omf_sub_c1.cfg"
    cfg.write_text(text + "\nengine.mode = c1\n", encoding="utf-8")
    return cfg


# ---------------------------------------------------------------------------
# set-up time


def probe_setup(cfg_path: Path) -> tuple[float, float, float]:
    """One fresh interpreter: seconds from spawn until the config is parsed,
    and the probe's own split of that into import and parse time."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), str(SRC), str(cfg_path)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        total = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    split = json.loads(line)
    return total, split["import_s"], split["parse_s"]


def reference_loop() -> float:
    """Seconds taken by a fixed loop of tiny numpy calls and Python
    arithmetic, the kind of work an sbmm step does.  Timed next to every
    operation, it follows the machine's speed, which drifts by tens of
    percent from second to second on a shared host."""
    import numpy as np

    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.5, 0.2])
    x = np.zeros(2)
    t0 = time.perf_counter()
    for _ in range(REF_LOOP_ITERS):
        x = np.clip(np.linalg.solve(A, b + 1e-3 * x), 0.0, 1.0)
        float(x @ x) + sum([j * 0.5 for j in range(8)])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# operations


class Workload:
    """Runs the operations of one workload and keeps what the checks need."""

    def __init__(self, name: str, seed: int, sbmm):
        self.name, self.seed, self.sbmm = name, seed, sbmm
        self.out = WORK / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.cfg_path = config_for(name, seed, self.out)
        self.cfg = sbmm.parse_config(self.cfg_path)
        self.runs = []      # (csv path, final state) of every run that returned
        self.sweeps = []    # (seed, csv path) to compare with a serial run
        self.attempted = 0
        self.failed = 0

    def op(self, k: int):
        """One measured operation; returns (seconds, outer steps) or None."""
        bench = self.sbmm.bench
        steps = self.cfg["engine.n_iters"]
        if self.name != "sweep_sub_c1":
            seed = self.seed * 1000 + k
            path = self.out / f"op{k}.csv"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = bench.run_experiment(self.cfg, seed=seed, out_path=str(path))
            except Exception as exc:  # a run that raises is a failed run
                print(f"{self.name} seed {seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                return None
            dt = time.perf_counter() - t0
            self.runs.append((path, res.final))
            return dt, steps
        seeds = [self.seed * 1000 + SWEEP_SEEDS * k + j for j in range(SWEEP_SEEDS)]
        out = self.out / f"sweep{k}"
        self.attempted += len(seeds)
        t0 = time.perf_counter()
        try:
            results = bench.run_sweep(self.cfg, seeds, out_dir=str(out))
        except Exception as exc:
            print(f"{self.name} seeds {seeds}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += len(seeds)
            return None
        dt = time.perf_counter() - t0
        label = self.cfg["label"]
        for s in seeds:
            self.runs.append((out / f"{label}_seed{s}.csv", results[s].final))
        ref = seeds[k % SWEEP_SEEDS]
        self.sweeps.append((ref, out / f"{label}_seed{ref}.csv"))
        return dt, steps * len(seeds)

    def check(self) -> bool:
        """Check every run; a run whose checks fail counts as failed.
        Returns whether every run that did not raise passed."""
        import checks

        prob = checks.problem_from_config(self.cfg.values)
        bad = set()
        for path, final in self.runs:
            fails = checks.check_run(prob, checks.read_diagnostics(path), final)
            for msg in fails:
                print(f"{self.name} {path.name}: {msg}", file=sys.stderr)
            if fails:
                bad.add(path)
        for seed, path in self.sweeps:
            serial = self.out / f"serial_seed{seed}.csv"
            self.sbmm.bench.run_experiment(self.cfg, seed=seed, out_path=str(serial))
            if serial.read_bytes() != path.read_bytes():
                print(f"{self.name}: seed {seed} CSV from run_sweep differs from a "
                      f"serial run_experiment", file=sys.stderr)
                bad.add(path)
        self.failed += len(bad)
        return not bad


def import_sbmm():
    """sbmm from this checkout's src/, never from an installed copy."""
    if not (SRC / "sbmm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sbmm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbmm
    import sbmm.bench

    if Path(sbmm.__file__).resolve().parent != SRC / "sbmm":
        raise SystemExit(f"perfbench: imported sbmm from {sbmm.__file__}, not {SRC}")
    return sbmm


def run_workload(name: str, seed: int, seconds: float, trace: bool, sbmm) -> tuple:
    """(correct, attempted, failed, metrics) of one workload."""
    import layers

    wl = Workload(name, seed, sbmm)
    tracer = layers.Tracer()
    # every op and set-up probe is timed between two runs of the reference
    # loop: loop, op, loop, probe, loop, op, ...
    timed, untimed = [], []   # (seconds, steps, loop seconds) of traced / untraced ops
    probes = []               # (seconds, import s, parse s, loop seconds)
    loop = reference_loop()
    t_start = time.perf_counter()
    k = 0
    while k < MIN_OPS * (2 if trace else 1) or time.perf_counter() - t_start < seconds:
        traced = trace and k % 2 == 0
        if traced:
            tracer.install()
        try:
            got = wl.op(k)
        finally:
            tracer.remove()
        before, loop = loop, reference_loop()
        if got is not None:
            (timed if traced else untimed).append(got + (0.5 * (before + loop),))
        probe = probe_setup(wl.cfg_path)
        before, loop = loop, reference_loop()
        probes.append(probe + (0.5 * (before + loop),))
        k += 1
    while len(probes) < SETUP_REPEATS:
        probe = probe_setup(wl.cfg_path)
        before, loop = loop, reference_loop()
        probes.append(probe + (0.5 * (before + loop),))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = wl.check()

    median = lambda values: statistics.median(values) if values else math.nan
    wall_us = lambda ops: median([dt / n * 1e6 for dt, n, _ in ops])
    if not trace:
        metrics = {
            "ref_us_per_step": (median([dt / n * 1e6 * REF_LOOP_S / t_loop
                                        for dt, n, t_loop in untimed]), "us"),
            "setup_s": (median([p[0] * REF_LOOP_S / p[3] for p in probes]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        steps = sum(op[1] for op in timed)
        metrics = tracer.per_step(steps)
        metrics.update({
            "setup.import_s": (median([p[1] for p in probes]), "s"),
            "setup.parse_s": (median([p[2] for p in probes]), "s"),
            "bench.wall.setup_s": (median([p[0] for p in probes]), "s"),
            "bench.wall.us_per_step": (wall_us(untimed), "us"),
            "bench.trace.us_per_step": (wall_us(timed), "us"),
            "bench.trace.overhead_us": (wall_us(timed) - wall_us(untimed), "us"),
            # runs in progress at once: the layer times add up to this many
            # times the traced us_per_step (1 unless run_sweep overlaps runs)
            "bench.sweep.overlap": (tracer.run_us() / (sum(op[0] for op in timed) * 1e6),
                                    "ratio"),
        })
        if tracer.absent:
            print(f"{name}: absent layers (no function to wrap): "
                  f"{', '.join(tracer.absent)}", file=sys.stderr)
    return correct, wl.attempted, wl.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # config paths are relative to the repository root
    sbmm = import_sbmm()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, met = run_workload(name, args.seed, args.seconds, bool(args.trace), sbmm)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in met.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        if len(names) > 1:
            print(name, json.dumps({k: v for k, v in metrics.items() if k.startswith(prefix)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
