"""scripts/mutants.py and scripts/call_counts.py, on small inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_kills_a_known_mutant_and_a_no_op_survives():
    # the rank-2 value without its constant fails the value_pair test; an
    # edit that changes nothing passes it
    mutants = _load("mutants")
    edit = next(m for m in mutants.MUTANTS if m[2] == "values.append(v)")
    tests = ["tests/test_quadform.py::test_value_pair_gives_the_bytes_of_the_stacked_value"]
    assert mutants.killed(edit, tests)
    assert not mutants.killed((edit[0], edit[1], edit[1]), tests)


def test_mutants_of_the_stacked_step_are_killed():
    # a stack's per-state codes written in reversed member order, and every
    # member's rows drawn from member 0's rng: each is caught by a test that
    # compares a stack's members with their single runs
    mutants = _load("mutants")
    for new, test in (
            ("table[at if one else at[::-1]] = res.H",
             "test_checkpoint_code_solves_start_from_each_states_last_code"),
            ("else [draw_rows(rngs[0]) for g in rngs]",
             "test_run_sweep_stack_matches_run_experiment[sub_c1]")):
        edit = next(m for m in mutants.MUTANTS if m[2] == new)
        assert mutants.killed(edit, [f"tests/test_bench.py::{test}"])


def test_mutants_of_the_rank2_ball_shortcut_and_float_contains_are_killed():
    # a rank-2 block solve that keeps its point at mu = 0 outside the ball,
    # and BoxSet.contains in floats without its upper bound: each is caught
    # by the test that compares it with the path it replaces
    mutants = _load("mutants")
    for new, test in (
            ("if _distance(X, center) <= 2.0 * radius:",
             "tests/test_subsolver.py::test_rank2_ball_solve_makes_the_searchs_opening_itself"),
            ("if not lo <= v:",
             "tests/test_geometry.py::test_contains_in_floats_agrees_with_the_array_form")):
        edit = next(m for m in mutants.MUTANTS if m[2] == new)
        assert mutants.killed(edit, [test])


def test_call_counts_prints_calls_per_step(tmp_path):
    # a 20-step omf_markov run: calls per step, a header, then the 10 callers
    cfg = tmp_path / "omf20.cfg"
    cfg.write_text((ROOT / "configs" / "omf_markov.cfg").read_text(encoding="utf-8")
                   .replace("configs/", f"{ROOT / 'configs'}/") + "\nengine.n_iters = 20\n",
                   encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "call_counts.py"), str(cfg)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"{cfg}: ") and lines[0].endswith(" calls per step (seeds [0])")
    assert float(lines[0].split()[1]) > 0.0
    assert len(lines) == 12 and "bench.py" in proc.stdout


def test_call_counts_counts_a_sweep_with_overrides(tmp_path):
    # --set appends config lines and --sweep K runs the seeds as stacks of K:
    # a 2-seed C1 sweep of omf_sub, 20 steps, counted per seed-step; a key
    # the config does not know fails as a config line would, and a sweep
    # size that does not divide the seeds is refused
    cfg = tmp_path / "omf_sub.cfg"
    cfg.write_text((ROOT / "configs" / "omf_sub.cfg").read_text(encoding="utf-8")
                   .replace("configs/", f"{ROOT / 'configs'}/"), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def call_counts(*args):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "call_counts.py"),
                               str(cfg), *args], capture_output=True, text=True, env=env,
                              cwd=tmp_path)
    proc = call_counts("--set", "engine.mode=c1", "--set", "engine.n_iters=20", "--sweep", "2",
                       "--seeds", "0", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"{cfg}: ")
    assert lines[0].endswith(" calls per seed-step (sweeps of 2) (seeds [0, 1])")
    assert float(lines[0].split()[1]) > 0.0
    assert len(lines) == 12 and "bench.py" in proc.stdout
    bad_key = call_counts("--set", "engine.colour=red")
    assert bad_key.returncode == 1 and "unknown key 'engine.colour'" in bad_key.stderr
    uneven = call_counts("--sweep", "2", "--seeds", "0", "1", "2")
    assert uneven.returncode == 2 and "--sweep 2 must be >= 0 and divide" in uneven.stderr
