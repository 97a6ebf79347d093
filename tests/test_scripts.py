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
