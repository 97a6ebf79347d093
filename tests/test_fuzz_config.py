"""scripts/fuzz_config.py: edge values of the config keys, on a fixed sample."""

import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("fuzz_config", ROOT / "scripts" / "fuzz_config.py")
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)


def test_config_edge_values_run_clean_or_fail_on_a_line(tmp_path, monkeypatch):
    # every edge value of the keys the box QPs read (the box's bounds, the
    # l1 weight and the rank: boxes of subnormal, huge or empty width reach
    # the code and block solves) on every shipped config, and a seeded draw
    # of the other cases: each runs 25 steps to a finite CSV, or exits 1 with
    # one error line naming the config's file:line, with no traceback and no
    # warning
    monkeypatch.chdir(ROOT)
    everything = fuzz.cases()
    solver = [c for c in everything if c[1].startswith("constraint.")
              or c[1] in ("app.lambda", "app.rank")]
    rest = [c for c in everything if c not in solver]
    sample = solver + random.Random(0).sample(rest, 150)
    faults = [(case, fuzz.run_case(*case, tmp_path)) for case in sample]
    assert [f for f in faults if f[1] is not None] == []
