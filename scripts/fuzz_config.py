#!/usr/bin/env python3
"""Config fuzzer: edge values of every config key on every shipped config.

For each shipped config (``configs/*.cfg``), each key of ``sbmm.bench._KEYS``
and each edge value of ``EDGES`` (0, -0.0, -1, nan, +-inf, 1e308, 1e-320,
1e20, an empty value, a directory and a missing file), appends ``key =
value`` to a copy of the config and calls ``sbmm validate`` on it, then, if
that passes, ``sbmm run`` capped at 25 steps (``engine.n_iters = 25`` comes
before the appended line, so that a fuzzed ``engine.n_iters`` overrides it).
Both go through ``cli_main`` in this interpreter, from the repository root,
where the shipped configs' relative paths resolve.  A case passes when it
meets one of two properties:

- exit 0, and a diagnostics CSV whose every field is finite;
- exit 1, with one stderr line, ``error: ...`` naming ``<config>:<line>``,
  no traceback and no warning (numpy's RuntimeWarnings included).

Prints one line per failing case and a count, and exits 1 on any failure.
``--sample N`` runs N cases drawn with ``--seed``, all by default.

Usage:
    python3 scripts/fuzz_config.py [--sample N] [--seed S]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's sbmm, ahead of any other on the path
import sbmm  # noqa: E402

if Path(sbmm.__file__).resolve().parent != ROOT / "src" / "sbmm":
    raise SystemExit(f"sbmm was imported from {sbmm.__file__}, not from {ROOT / 'src'}")

STEPS = 25
# (label, value); a directory and a missing file are filled in per work dir
EDGES = (("0", "0"), ("-0.0", "-0.0"), ("-1", "-1"), ("nan", "nan"), ("inf", "inf"),
         ("-inf", "-inf"), ("1e308", "1e308"), ("1e-320", "1e-320"), ("1e20", "1e20"),
         ("empty", ""), ("directory", None), ("missing file", None))


def cases() -> list[tuple[str, str, str]]:
    """Every (shipped config name, key, edge label), in a fixed order."""
    from sbmm.bench import _KEYS

    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
    return [(name, key, label) for name in configs for key in _KEYS for label, _ in EDGES]


def run_case(name: str, key: str, label: str, work: Path) -> str | None:
    """None if the case meets one of the two properties, else what it did."""
    from sbmm.bench import cli_main

    value = dict(EDGES)[label]
    if label == "directory":
        value = str(work)
    elif label == "missing file":
        value = str(work / "missing.csv")
    path, out = work / "case.cfg", work / "case.csv"
    text = (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    path.write_text(f"{text}\nengine.n_iters = {STEPS}\n{key} = {value}\n", encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli_main(["validate", str(path)])
            if code == 0:
                code = cli_main(["run", str(path), "--out", str(out)])
        except Exception as exc:  # what would reach the user as a traceback
            return f"traceback: {type(exc).__name__}: {exc}"
    if caught:
        return f"warning: {caught[0].category.__name__}: {caught[0].message}"
    lines = err.getvalue().splitlines()
    if code == 0:
        if lines:
            return f"exit 0 with stderr {lines[0]!r}"
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        bad = sum(not math.isfinite(float(v)) for row in rows for v in row)
        return f"exit 0 with {bad} non-finite CSV fields" if bad or not rows else None
    if code != 1 or len(lines) != 1:
        return f"exit {code} with {len(lines)} stderr lines: {lines[:2]}"
    if not re.match(rf"error: {re.escape(str(path))}:\d+: ", lines[0]):
        return f"exit 1 without {path.name}:<line>: {lines[0]!r}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sample", type=int, default=None, help="cases to draw (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the drawn sample")
    args = ap.parse_args(argv)
    todo = cases()
    if args.sample is not None:
        todo = random.Random(args.seed).sample(todo, min(args.sample, len(todo)))
    os.chdir(ROOT)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, key, label in todo:
            fault = run_case(name, key, label, Path(tmp))
            if fault is not None:
                failed += 1
                print(f"{name}: {key} = {label}: {fault}")
    print(f"{len(todo) - failed} of {len(todo)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
