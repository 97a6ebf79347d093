"""Per-layer spans and counts, taken by wrapping sbmm's functions from outside.

Each layer is entered through module-level names that sbmm looks up at call
time (``sbmm.bench.omf_step``, ``sbmm.factorize.solve_code_lasso``, ...), so
replacing those names puts a span around every call without touching the
program.  A span's self time is its duration minus that of the spans it
contains.  Spans are kept per thread, since ``run_sweep`` runs on several.
A layer whose functions are all gone is reported as absent, with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

ROOT_SPAN = "bench.audit"

# layer -> the (module, name) pairs it is entered through
LAYERS = {
    ROOT_SPAN: [("sbmm.bench", "run_experiment")],
    "stream.sample": [("sbmm.bench", "next_sample")],
    "factorize.step": [("sbmm.bench", "omf_step"), ("sbmm.bench", "subsampled_omf_step"),
                       ("sbmm.bench", "cpdl_step")],
    "subsolver.code_solve": [("sbmm.factorize", "solve_code_lasso")],
    "subsolver.block_solve": [("sbmm.factorize", "solve_block_quadratic")],
    "geometry.ball_search": [("sbmm.subsolver", "ball_multiplier_search")],
    "bench.diag": [("sbmm.bench", "factor_loss"), ("sbmm.bench", "cpdl_loss")],
}


class _ThreadLog:
    """One thread's open spans and totals; only that thread writes to it."""

    def __init__(self):
        self.stack = []                    # [name, time covered by children]
        self.self_us = defaultdict(float)
        self.counts = defaultdict(int)
        self.seen = set()                  # code problems this run has solved


class Tracer:
    """Self time (µs) and counts per layer, summed over every traced call."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self.absent = []
        self._saved = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _span(self, log, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        log.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            log.stack.pop()
            if log.stack:
                log.stack[-1][1] += dur
            log.self_us[name] += (dur - frame[1]) * 1e6
            log.counts[name] += 1

    # wrappers by layer -------------------------------------------------------

    def _wrap(self, layer, fn):
        if layer == ROOT_SPAN:
            def wrapped(*args, **kwargs):
                log = self._log()
                log.seen = set()
                wall, cpu = time.perf_counter(), time.thread_time()
                try:
                    return self._span(log, layer, fn, *args, **kwargs)
                finally:
                    wall = time.perf_counter() - wall
                    log.self_us["bench.run"] += wall * 1e6
                    log.self_us["bench.sweep.wait"] += (wall - (time.thread_time() - cpu)) * 1e6
        elif layer == "subsolver.code_solve":
            def wrapped(X, W, *args, **kwargs):
                log = self._log()
                key = hash((X.shape, X.tobytes(), W.tobytes()))
                if log.stack and log.stack[-1][0] == "bench.diag":
                    # part of the diagnostics' time; a repeat solves again a
                    # code problem this run has already solved
                    log.counts["bench.diag.code_repeats"] += key in log.seen
                    log.seen.add(key)
                    return fn(X, W, *args, **kwargs)
                log.seen.add(key)
                log.counts[layer + ".cols"] += X.shape[1]
                return self._span(log, layer, fn, X, W, *args, **kwargs)
        elif layer == "geometry.ball_search":
            def wrapped(solve, *args, **kwargs):
                log = self._log()

                def counted(mu):
                    log.counts[layer + ".evals"] += 1
                    return solve(mu)
                return self._span(log, layer, fn, counted, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return self._span(self._log(), layer, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapped)

    def _wrap_eig(self, fn):
        def wrapped(*args, **kwargs):
            log = self._log()
            log.counts[(log.stack[-1][0] if log.stack else "none") + ".eig_calls"] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapped)

    # install / remove --------------------------------------------------------

    def install(self):
        """Replace every layer's entry names; absent ones are recorded."""
        self.absent = []
        for layer, targets in LAYERS.items():
            found = False
            for mod_name, attr in targets:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                found = True
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))
            if not found:
                self.absent.append(layer)
        linalg = importlib.import_module("numpy.linalg")
        self._saved.append((linalg, "eigvalsh", linalg.eigvalsh))
        linalg.eigvalsh = self._wrap_eig(linalg.eigvalsh)

    def remove(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # report -----------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        self_us, counts = defaultdict(float), defaultdict(int)
        with self._lock:
            for log in self._logs:
                for k, v in log.self_us.items():
                    self_us[k] += v
                for k, v in log.counts.items():
                    counts[k] += v
        return self_us, counts

    def per_step(self, steps: int) -> dict:
        """Every layer metric per outer step: name -> (value, unit)."""
        self_us, counts = self.totals()
        us = lambda key: (self_us[key] / steps, "us")
        per = lambda key: (counts[key] / steps, "count")
        return {
            "stream.sample.calls": per("stream.sample"),
            "stream.sample.self_us": us("stream.sample"),
            "factorize.step.calls": per("factorize.step"),
            "factorize.step.self_us": us("factorize.step"),
            "factorize.step.eig_calls": per("factorize.step.eig_calls"),
            "subsolver.code_solve.calls": per("subsolver.code_solve"),
            "subsolver.code_solve.cols": per("subsolver.code_solve.cols"),
            "subsolver.code_solve.self_us": us("subsolver.code_solve"),
            "subsolver.block_solve.calls": per("subsolver.block_solve"),
            "subsolver.block_solve.self_us": us("subsolver.block_solve"),
            "geometry.ball_search.calls": per("geometry.ball_search"),
            "geometry.ball_search.evals": per("geometry.ball_search.evals"),
            "geometry.ball_search.self_us": us("geometry.ball_search"),
            "bench.audit.self_us": us(ROOT_SPAN),
            "bench.audit.eig_calls": per(ROOT_SPAN + ".eig_calls"),
            "bench.diag.us": us("bench.diag"),
            "bench.diag.loss_calls": per("bench.diag"),
            "bench.diag.code_repeats": per("bench.diag.code_repeats"),
            "bench.sweep.wait_us": us("bench.sweep.wait"),
            # every layer's self time together: the runs' own wall time
            "bench.trace.layer_sum_us": (sum(self_us[k] for k in LAYERS) / steps, "us"),
        }

    def run_us(self) -> float:
        """Wall time inside run_experiment, summed over runs (and threads)."""
        return self.totals()[0]["bench.run"]
