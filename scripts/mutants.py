#!/usr/bin/env python3
"""A mutation gate: one-line edits that a fast test subset must catch.

Each mutant is a (file, old text, new text) triple, the old text found
exactly once in the file.  For each, the script copies this checkout's
``src`` and ``tests`` to a temporary directory, applies the edit there, runs
``pytest -x`` on TESTS against the copy's ``src``, and prints the mutant as
``killed`` (some test failed) or ``survived``; then the killed/total count.
A survivor is a check the tests are missing.  Exits 1 if any survives.

Usage:
    python3 scripts/mutants.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # FactorQuad's exact symmetry test always passes
    ("src/sbmm/quadform.py", "if (M.tolist() == Mt.tolist()) if M.ndim == 2 else (M == Mt).all():",
     "if True:"),
    # the block solve's two values at the anchor and the result swapped
    ("src/sbmm/quadform.py", "(self.A, self.B, self.C, (P.tolist(), W.tolist()))",
     "(self.A, self.B, self.C, (W.tolist(), P.tolist()))"),
    # the rank-2 value in floats without its constant
    ("src/sbmm/quadform.py", "values.append(v + C)", "values.append(v)"),
    # CPDL's runner hands the next step the flat dictionary one step stale
    ("src/sbmm/bench.py", "D = out_product(res.U).reshape(quad.anchor.shape)",
     "D = quad.anchor"),
    # the certified gap without its rounding allowance
    ("src/sbmm/subsolver.py",
     "return max(0.0, total) + _EPS * (weight * float(reach.sum()) + gaps.size * abs_total)",
     "return max(0.0, total)"),
    # the rank-2 closed form's l1 shift with the wrong sign
    ("src/sbmm/subsolver.py", "h0, h1 = c0 - s0, c1 - s1", "h0, h1 = c0 + s0, c1 + s1"),
    # the active-set method's release step never releases
    ("src/sbmm/subsolver.py", "fixed = fixed ^ release  # a released entry is a fixed one",
     "fixed = fixed"),
]

TESTS = [
    "tests/test_quadform.py",
    "tests/test_bench.py::test_cpdl_run_hands_its_flat_dictionary_to_the_next_step",
    "tests/test_subsolver.py::test_checks_still_fail_loudly",
    "tests/test_subsolver.py::test_certified_gap_allowance_covers_rounding",
    "tests/test_subsolver.py::test_enumeration_alone_is_exact_with_l1",
]

TIMEOUT_S = 300  # a mutant that makes the tests hang counts as killed


def killed(edit: tuple[str, str, str], tests: list[str]) -> bool:
    """Whether tests fail on a copy of src and tests with edit applied."""
    path, old, new = edit
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"mutants: {path} holds {text.count(old)} copies of {old!r}, not 1")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                   "no:cacheprovider", *tests], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True
        if proc.returncode not in (0, 1):  # 1: a test failed; anything else is an error
            raise SystemExit(f"mutants: pytest exited {proc.returncode}\n{proc.stdout}")
        return proc.returncode == 1


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    n_killed = 0
    for path, old, new in MUTANTS:
        k = killed((path, old, new), TESTS)
        n_killed += k
        print(f"{'killed' if k else 'survived':>8}  {path}: {old!r} -> {new!r}", flush=True)
    print(f"{n_killed}/{len(MUTANTS)} killed")
    return 0 if n_killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
