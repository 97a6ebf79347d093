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
    ("src/sbmm/quadform.py", "if M.tolist() == Mt.tolist():", "if True:"),
    # the block solve's two values at the anchor and the result swapped
    ("src/sbmm/quadform.py", "self.B.tolist(), self.C, (P.tolist(), W.tolist()))",
     "self.B.tolist(), self.C, (W.tolist(), P.tolist()))"),
    # a small stack's value pairs handed back in the reverse member order
    ("src/sbmm/quadform.py", "return [p for p, _ in pairs], [w for _, w in pairs]",
     "return [p for p, _ in pairs[::-1]], [w for _, w in pairs[::-1]]"),
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
    # C1's Rayleigh bound on rho halved, so it settles checks rho would fail
    ("src/sbmm/bench.py", "rho_up = (2.0 * min(", "rho_up = (1.0 * min("),
    # C1's projection skipped whenever the gradient norm is at most twice
    # the running maximum, which the measure may still exceed
    ("src/sbmm/bench.py", "if not grad_norms[j] * (1.0 + 1e-12) <= result.c1_stat_max:",
     "if not grad_norms[j] <= 2.0 * result.c1_stat_max:"),
    # the paper's recursions: the trust-region radius c' w_n doubled
    ("src/sbmm/bench.py", 'radius = math.inf if mode == "c1" else c_prime * w_n',
     'radius = math.inf if mode == "c1" else 2.0 * c_prime * w_n'),
    # the statistics A, B and C each left without its update
    ("src/sbmm/factorize.py", "A = (1.0 - w_n) * A_prev + w_n * (H @ Ht)", "A = 1.0 * A_prev"),
    ("src/sbmm/factorize.py", "B = (1.0 - w_n) * B_prev + w_n * (X @ Ht).swapaxes(-1, -2)",
     "B = 1.0 * B_prev"),
    ("src/sbmm/factorize.py", "if X.ndim == 2:\n        C = (1.0 - w_n) * C_prev + w_n * (",
     "if X.ndim == 2:\n        C = C_prev + 0.0 * ("),
    # a start's nan entries left unfilled at every rank but 2
    ("src/sbmm/subsolver.py",
     "return np.where(nan, _least_squares(G, C, certified), X0) if nan.any() else X0",
     "return X0"),
    # the OMF runner never writes a step's code back into its per-state codes
    ("src/sbmm/bench.py", "table[at] = res.H", "table[at] = table[at]"),
    # a stack's step writes each member's codes into the per-state codes of
    # the members in reversed order
    ("src/sbmm/bench.py", "table[at] = res.H",
     "table[at if one else at[::-1]] = res.H"),
    # every member of a stack draws its rows from member 0's rng
    ("src/sbmm/bench.py", "else [draw_rows(g) for g in rngs]",
     "else [draw_rows(rngs[0]) for g in rngs]"),
    # the tangent cone's lower face zeroing the inward components
    ("src/sbmm/geometry.py", "out[at_lower & (out < 0)] = 0.0", "out[at_lower & (out > 0)] = 0.0"),
]

TESTS = [
    "tests/test_quadform.py",
    "tests/test_geometry.py",
    "tests/test_factorize.py::test_omf_statistics_match_direct_weighted_sum",
    "tests/test_bench.py::test_c1_audit_counts_what_the_eager_audit_counts",
    "tests/test_bench.py::test_runner_audits_count_a_faulty_step",
    "tests/test_bench.py::test_cpdl_run_hands_its_flat_dictionary_to_the_next_step",
    "tests/test_bench.py::test_checkpoint_code_solves_start_from_each_states_last_code",
    "tests/test_bench.py::test_run_sweep_stack_matches_run_experiment[sub_c1]",
    "tests/test_subsolver.py::test_nan_start_entries_take_the_default_start",
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
