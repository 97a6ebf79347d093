"""Diagnostics, the experiment runner, config parsing, CSV emission, and CLI.

One loop (``_run``) drives every application: sample from the stream, take
one step, audit it, and record diagnostics at the checkpoints.
``run_omf_diagnostics`` (matrix factorization, plain or with
``omf_step(rows=...)`` row subsampling) and ``run_cpdl_diagnostics``
(CP-dictionary learning) each build a small adapter (``_App``) that supplies
the step, the averaged surrogate's value and gradient, the stacked
per-sample loss, the stationarity measure and the step norm, then call the
loop.

The diagnostics compare three objects along a run: the averaged surrogate
gbar_n, the weighted empirical loss fbar_n, and the exact expected loss f
under the stream's stationary distribution.  The empirical loss is evaluated
by regrouping the weighted sum per emission state (the per-state cumulative
weights follow the same recursion as the loss itself), so its cost is the
number of states rather than the number of steps.  Expected quantities are
exact, not Monte Carlo, which keeps the rate envelopes noise-free.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .factorize import (
    CpdlState,
    OmfState,
    code_loss,
    cpdl_loss,
    cpdl_step,
    factor_loss,
    factor_loss_lipschitz_bound,
    omf_step,
    out_product,
    subsampled_omf_step,  # not called here: the benchmark's layer tracer wraps this name
    _contract_except,
)
from .geometry import BOUNDARY_TOL, BoxSet, stationarity_measure, tangent_cone_project
from .quadform import FactorQuad
from .schedule import WeightSchedule, validate_schedule
from .stream import MarkovSource, make_iid, mixing_rate, next_sample, stationary_distribution, tv_decay

__all__ = [
    "DiagnosticsRecord",
    "RunConfig",
    "RunResult",
    "eval_empirical",
    "eval_expected",
    "iteration_complexity_estimate",
    "emit_csv",
    "read_csv",
    "parse_config",
    "run_experiment",
    "run_sweep",
    "run_omf_diagnostics",
    "run_cpdl_diagnostics",
    "cli_main",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-iteration diagnostics.  Field order is the CSV column order."""

    n: int
    w_n: float
    cum_weight: float
    loss_new: float
    fbar: float
    f_exp: float
    gbar_val: float
    gap_emp: float
    gap_exp: float
    ggap_emp: float
    ggap_exp: float
    stat_surr: float
    stat_emp: float
    stat_exp: float
    step_norm: float
    eps_bar: float
    comp_emp: float
    comp_exp: float
    min_comp_emp: float
    min_comp_exp: float
    min_stat_surr: float
    min_stat_emp: float
    min_stat_exp: float


CSV_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]


@dataclass
class RunResult:
    """A diagnostics run plus its invariant audit tallies."""

    records: list
    prop_margins: list          # (n, lhs - rhs, scale) of the one-step inequality
    monotonicity_violations: int = 0
    step_bound_violations: int = 0
    c1_bound_violations: int = 0
    c1_stat_max: float = 0.0
    trajectory: list = field(default_factory=list)
    final: object = None


# ---------------------------------------------------------------------------
# per-sample losses by recipe


def sample_loss(recipe, x, theta):
    """(value, gradient) of the per-sample loss ell(x, theta) for an engine
    recipe, penalties included; factorization losses use the optimal-code
    envelope gradient."""
    theta = np.asarray(theta, dtype=float)
    if recipe.kind == "lipschitz":
        return float(recipe.loss(x, theta)), np.asarray(recipe.loss_grad(x, theta), float)
    if recipe.kind == "prox":
        v = float(recipe.loss(x, theta)) + recipe.lam * float(np.abs(theta).sum())
        g = np.asarray(recipe.loss_grad(x, theta), float) + recipe.lam * np.sign(theta)
        return v, g
    if recipe.kind == "dc":
        curv, lin, const = recipe.convex_part(x)
        lin = np.asarray(lin, float)
        if isinstance(curv, np.ndarray):
            qv = 0.5 * float(theta @ (curv @ theta))
            qg = curv @ theta
        else:
            qv = 0.5 * float(curv) * float(theta @ theta)
            qg = float(curv) * theta
        v = qv + float(lin @ theta) + const + float(recipe.concave_value(x, theta))
        g = qg + lin + np.asarray(recipe.concave_grad(x, theta), float)
        return v, g
    # factor
    q, d = recipe.shape
    W = theta.reshape(q, recipe.rank)
    v, g, _ = factor_loss(np.asarray(x, float).reshape(q, d), W, recipe.lam,
                          recipe.code_set, tol=recipe.solver_tol)
    return v, g.ravel()


def eval_empirical(theta, sample_log, schedule, n, recipe):
    """Closed-form weighted empirical loss and gradient at theta:
    sum_k w^n_k * ell(x_k, theta)."""
    if len(sample_log) < n:
        raise ValueError("sample log shorter than n")
    value = 0.0
    grad = None
    for k in range(1, n + 1):
        wk = schedule.cumulative_weight(k, n)
        v, g = sample_loss(recipe, sample_log[k - 1], theta)
        value += wk * v
        grad = wk * g if grad is None else grad + wk * g
    return value, grad


def eval_expected(theta, source: MarkovSource, recipe):
    """Exact expected loss and gradient under the stationary distribution."""
    pi = stationary_distribution(source)
    value = 0.0
    grad = None
    for y in range(source.S):
        v, g = sample_loss(recipe, source.emissions[y], theta)
        value += pi[y] * v
        grad = pi[y] * g if grad is None else grad + pi[y] * g
    return value, grad


def iteration_complexity_estimate(records, eps: float, target: str = "surr"):
    """Smallest recorded n whose squared stationarity measure is <= eps for
    the chosen target; 'not reached' when none qualifies."""
    key = {"surr": "stat_surr", "emp": "stat_emp", "exp": "stat_exp"}[target]
    for rec in records:
        if getattr(rec, key) ** 2 <= eps:
            return rec.n
    return "not reached"


# ---------------------------------------------------------------------------
# the runner: one SBMM loop over a per-application adapter


@dataclass
class _App:
    """One application as the shared loop sees it.  Each function keeps its
    application's own float operations, so each app's diagnostics are the
    ones written for it."""

    state: object            # OmfState or CpdlState; step moves its iterate
    lam: float
    step: Callable           # (x, w_n, radius) -> step result (A, B, C, H, eps)
    iterate: Callable        # () -> W, or the list U of loading matrices
    surrogate: Callable      # prev -> value(theta), grads(theta) as a block list
    losses: Callable         # (X, theta) -> values (S,), per-block gradient stacks
    dictionary: Callable     # theta -> the flat (p, r) dictionary
    move: Callable           # (prev, theta) -> step norm, largest block move
    stationarity: Callable   # (block gradients, theta) -> stationarity measure
    lipschitz_bound: Callable = None  # () -> the C1 audit's gradient bound


def run_omf_diagnostics(
    source: MarkovSource,
    schedule: WeightSchedule,
    W0: np.ndarray,
    lam: float,
    dict_box: BoxSet,
    code_set: BoxSet,
    mode: str = "c2",
    c_prime: float = 1.0,
    rho0: float = 0.0,
    n_iters: int = 1000,
    diag_interval: int = 10,
    solver_tol: float = 1e-8,
    row_sampler=None,
    rng: np.random.Generator | None = None,
    keep_trajectory: bool = False,
) -> RunResult:
    """Drive online matrix factorization with full diagnostics and invariant
    audits.  row_sampler, when given, is a callable rng -> row index array and
    restricts each dictionary update to the rows it draws."""
    mode = mode.lower()
    if mode not in ("c1", "c2"):
        raise ValueError("mode must be c1 or c2")
    if mode == "c1" and rho0 <= 0:
        raise ValueError("mode c1 requires rho0 > 0")
    rng = rng or np.random.default_rng(0)
    st = OmfState.initial(W0, rho0)

    def step(x, w_n, radius):
        rows = None
        if row_sampler is not None:
            rows = np.asarray(row_sampler(rng), dtype=int)
            while rows.size == 0:
                rows = np.asarray(row_sampler(rng), dtype=int)
        res = omf_step(x, st.W, st.A, st.B, w_n, lam, dict_box, code_set,
                       C_prev=st.C, radius=radius, tol=solver_tol, rows=rows)
        st.W = res.W
        return res

    def surrogate(prev):
        gbar = FactorQuad(A=st.A, B=st.B, C=st.C, anchor=prev, L=1.0, rho=0.0)
        return gbar.value, lambda W: [gbar.grad(W)]

    def losses(X, W):
        values, grads, _ = factor_loss(X, W, lam, code_set, tol=solver_tol)
        return values, [grads]

    def move(prev, W):
        step = float(np.linalg.norm(W - prev))
        return step, step

    app = _App(
        state=st, lam=lam, step=step, iterate=lambda: st.W, surrogate=surrogate,
        losses=losses, dictionary=lambda W: W, move=move,
        stationarity=lambda grads, W: stationarity_measure(grads[0].ravel(), W.ravel(), dict_box),
        lipschitz_bound=lambda: factor_loss_lipschitz_bound(source.emissions, dict_box,
                                                            code_set, st.W.shape[1]))
    return _run(app, source, schedule, mode, c_prime, n_iters, diag_interval, keep_trajectory)


def run_cpdl_diagnostics(
    source: MarkovSource,
    schedule: WeightSchedule,
    U0: list,
    lam: float,
    factor_boxes: list,
    code_set: BoxSet,
    c_prime: float = 1.0,
    rho0: float = 0.0,
    n_iters: int = 1000,
    diag_interval: int = 10,
    solver_tol: float = 1e-8,
    keep_trajectory: bool = False,
) -> RunResult:
    """Online CP-dictionary learning with diagnostics and invariant audits.
    The per-factor trust region has radius c_prime * w_n each step."""
    st = CpdlState.initial(U0, rho0)
    dictionary = lambda U: out_product(U).reshape(-1, U[0].shape[1])

    def step(x, w_n, radius):
        res = cpdl_step(x, st.U, st.A, st.B, w_n, lam, factor_boxes, code_set,
                        C_prev=st.C, radius=radius, tol=solver_tol)
        st.U = res.U
        return res

    def surrogate(prev):
        A, B, C = st.A, st.B, st.C

        def value(U):
            D = dictionary(U)
            return float(np.sum((D @ A) * D)) - 2.0 * float(np.sum(out_product(U) * B)) + C

        def grads(U):
            grams = [Ui.T @ Ui for Ui in U]
            out = []
            for i in range(len(U)):
                gamma = A.copy()
                for k in range(len(U)):
                    if k != i:
                        gamma = gamma * grams[k]
                out.append(2.0 * (U[i] @ gamma - _contract_except(B, U, i)))
            return out
        return value, grads

    def losses(X, U):
        values, grads, _ = cpdl_loss(X, U, lam, code_set, tol=solver_tol)
        return values, grads

    def move(prev, U):
        moves = [float(np.linalg.norm(Ui - Pi)) for Ui, Pi in zip(U, prev)]
        return math.sqrt(sum(mv * mv for mv in moves)), max(moves)

    def stationarity(grads, U):
        total = 0.0
        for g, Ui, box in zip(grads, U, factor_boxes):
            proj = tangent_cone_project(-np.asarray(g, float).ravel(), Ui.ravel(), box)
            total += float(proj @ proj)
        return math.sqrt(total)

    app = _App(state=st, lam=lam, step=step, iterate=lambda: st.U, surrogate=surrogate,
               losses=losses, dictionary=dictionary, move=move, stationarity=stationarity)
    return _run(app, source, schedule, "c2", c_prime, n_iters, diag_interval, keep_trajectory)


def _run(app: _App, source: MarkovSource, schedule: WeightSchedule, mode: str,
         c_prime: float, n_iters: int, diag_interval: int,
         keep_trajectory: bool) -> RunResult:
    """Drive n_iters SBMM steps with invariant audits on every step and full
    diagnostics at every diag_interval-th step and the last one."""
    st = app.state
    pi = stationary_distribution(source)
    S = source.S
    w_hat = np.zeros(S)
    cum_w = 0.0
    eps_bar = 0.0
    mins = {}
    result = RunResult(records=[], prop_margins=[])
    if keep_trajectory:
        result.trajectory.append(copy.deepcopy(app.iterate()))
    R_bound = app.lipschitz_bound() if mode == "c1" else None
    emissions = np.stack(source.emissions)
    pending = None   # (gbar value, fbar, w_n) at the last checkpoint

    for i in range(1, n_iters + 1):
        x, y = next_sample(source)
        w_n = schedule.weight_at(i)
        radius = math.inf if mode == "c1" else c_prime * w_n
        prev = app.iterate()
        res = app.step(x, w_n, radius)
        theta = app.iterate()
        st.A, st.B, st.C = res.A, res.B, res.C
        st.eps_sum += res.eps
        st.n = i
        eps_bar = (1.0 - w_n) * eps_bar + w_n * res.eps
        w_hat *= 1.0 - w_n
        w_hat[y] += w_n
        cum_w += w_n
        if keep_trajectory:
            result.trajectory.append(copy.deepcopy(theta))

        value, grads = app.surrogate(prev)
        g_prev = value(prev)
        g_new = value(theta)
        scale = 1.0 + abs(g_prev)
        if g_new > g_prev + 1e-9 * scale:
            result.monotonicity_violations += 1
        step, largest = app.move(prev, theta)
        if mode == "c2" and largest > c_prime * w_n + 1e-9:
            result.step_bound_violations += 1
        if mode == "c1":
            rho_n = 2.0 * max(float(np.linalg.eigvalsh(st.A)[0]), 0.0)
            if 0.5 * rho_n * step * step > w_n * R_bound * step + 1e-7 * scale:
                result.c1_bound_violations += 1
            result.c1_stat_max = max(result.c1_stat_max,
                                     app.stationarity(grads(theta), theta))

        checkpoint = i % diag_interval == 0 or i == n_iters
        if pending is not None or checkpoint:
            # the new sample's loss at the previous iterate, from the code
            # the step has just solved there
            D_prev = app.dictionary(prev)
            l_new = float(code_loss(x.reshape(1, D_prev.shape[0], -1), D_prev,
                                    res.H[None], app.lam)[0][0])
        if pending is not None:
            gbar_val, fbar, w_prev = pending
            lhs = g_new - gbar_val
            rhs = w_n * (l_new - fbar) + w_prev ** 2 * st.eps_sum
            result.prop_margins.append((i, lhs - rhs, 1.0 + abs(rhs)))
            pending = None

        if checkpoint:
            values, loss_grads = app.losses(emissions, theta)
            fbar = sum(w_hat[s] * values[s] for s in range(S))
            f_exp = sum(pi[s] * values[s] for s in range(S))
            blocks = (grads(theta),
                      [sum(w_hat[s] * G[s] for s in range(S)) for G in loss_grads],
                      [sum(pi[s] * G[s] for s in range(S)) for G in loss_grads])
            g_surr, g_emp, g_exp = (np.concatenate([g.ravel() for g in b]) for b in blocks)
            stat_surr, stat_emp, stat_exp = (app.stationarity(b, theta) for b in blocks)
            gap_emp, gap_exp = abs(g_new - fbar), abs(g_new - f_exp)
            ggap_emp = float(np.linalg.norm(g_surr - g_emp))
            ggap_exp = float(np.linalg.norm(g_surr - g_exp))
            comp_emp = gap_emp + ggap_emp ** 2
            comp_exp = gap_exp + ggap_exp ** 2
            for k, v in (("min_comp_emp", comp_emp), ("min_comp_exp", comp_exp),
                         ("min_stat_surr", stat_surr), ("min_stat_emp", stat_emp),
                         ("min_stat_exp", stat_exp)):
                mins[k] = min(mins.get(k, math.inf), v)
            result.records.append(DiagnosticsRecord(
                n=i, w_n=w_n, cum_weight=cum_w, loss_new=l_new, fbar=fbar,
                f_exp=f_exp, gbar_val=g_new, gap_emp=gap_emp, gap_exp=gap_exp,
                ggap_emp=ggap_emp, ggap_exp=ggap_exp, stat_surr=stat_surr,
                stat_emp=stat_emp, stat_exp=stat_exp, step_norm=step,
                eps_bar=eps_bar, comp_emp=comp_emp, comp_exp=comp_exp, **mins))
            pending = (g_new, fbar, w_n)
    result.final = st
    return result


# ---------------------------------------------------------------------------
# CSV


def emit_csv(records, path):
    """Write records with the declared field order, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for rec in records:
            cells = []
            for name in CSV_FIELDS:
                v = getattr(rec, name)
                if name == "n":
                    cells.append(str(int(v)))
                else:
                    cells.append(format(float(v), ".17g"))
            fh.write(",".join(cells) + "\n")


def read_csv(path):
    """Read an emitted diagnostics CSV back into column arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader if row]
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# config


_SCHEMA = {
    "schedule.kind": str,
    "schedule.beta": float,
    "schedule.delta": float,
    "schedule.alpha": float,
    "schedule.values": str,
    "constraint.lower": float,
    "constraint.upper": float,
    "constraint.nonneg": bool,
    "solver.tol": float,
    "stream.kind": str,
    "stream.transition": str,
    "stream.emissions": str,
    "stream.seed": int,
    "engine.mode": str,
    "engine.c_prime": float,
    "engine.n_iters": int,
    "engine.theta0": str,
    "engine.diag_interval": int,
    "engine.seed": int,
    "app.kind": str,
    "app.rank": int,
    "app.lambda": float,
    "app.row_sample": float,
    "app.tensor_shape": str,
    "output": str,
    "label": str,
}

_DEFAULTS = {
    "schedule.kind": "balanced",
    "schedule.beta": 0.5,
    "schedule.delta": 1.5,
    "schedule.alpha": 0.1,
    "constraint.lower": -1.0,
    "constraint.upper": 1.0,
    "constraint.nonneg": False,
    "solver.tol": 1e-8,
    "stream.kind": "iid",
    "stream.seed": 0,
    "engine.mode": "c2",
    "engine.c_prime": 1.0,
    "engine.theta0": "random",
    "engine.diag_interval": 10,
    "engine.seed": 0,
    "app.kind": "omf",
    "app.lambda": 0.0,
    "app.row_sample": 0.0,
    "output": "run.csv",
    "label": "run",
}

_REQUIRED = ["engine.n_iters", "app.rank", "app.tensor_shape",
             "stream.transition", "stream.emissions"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated key=value configuration plus its source path and the line
    each key was set on."""

    values: dict
    path: str = ""
    lines: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def where(self, key) -> str:
        """'path:line' of the key, or the path for a default."""
        return f"{self.path}:{self.lines[key]}" if key in self.lines else self.path


def parse_config(path) -> RunConfig:
    """Parse a line-oriented key=value UTF-8 file with '#' comments.
    Unknown keys, malformed lines, missing required keys and out-of-range
    values are errors."""
    values = dict(_DEFAULTS)
    line_of = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            typ = _SCHEMA[key]
            try:
                if typ is bool:
                    if val.lower() not in ("true", "false", "1", "0"):
                        raise ValueError
                    values[key] = val.lower() in ("true", "1")
                else:
                    values[key] = typ(val)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: cannot parse {val!r} as {typ.__name__} for {key}"
                ) from None
            line_of[key] = lineno
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    cfg = RunConfig(values=values, path=str(path), lines=line_of)
    try:
        shape = [int(v) for v in values["app.tensor_shape"].split(",")]
    except ValueError:
        raise ConfigError(f"{cfg.where('app.tensor_shape')}: app.tensor_shape = "
                          f"{values['app.tensor_shape']} must be comma-separated integers") from None
    kind, mode = values["app.kind"], values["engine.mode"]
    sub, row_sample = kind == "omf_sub", values["app.row_sample"]
    for key, bad, need in (
            ("engine.n_iters", values["engine.n_iters"] < 1, "must be >= 1"),
            ("engine.diag_interval", values["engine.diag_interval"] < 1, "must be >= 1"),
            ("app.kind", kind not in ("omf", "omf_sub", "cpdl"), "must be omf, omf_sub or cpdl"),
            ("engine.mode", mode not in ("c1", "c2"), "must be c1 or c2"),
            # keys the chosen app does not read
            ("engine.mode", kind == "cpdl" and mode == "c1", "is not available: app.kind = cpdl "
                                                             "runs in mode c2 only"),
            ("engine.theta0", kind == "cpdl" and "engine.theta0" in line_of,
             "is not read: app.kind = cpdl starts from a random point"),
            ("app.row_sample", not sub and "app.row_sample" in line_of,
             f"is not read: app.kind = {kind} updates every row"),
            ("app.row_sample", sub and row_sample <= 0, "must be > 0 when app.kind = omf_sub"),
            ("app.row_sample", sub and row_sample >= 1 and not (row_sample.is_integer()
                                                                  and row_sample <= shape[0]),
             f"must be a fraction < 1 or a whole number of rows <= {shape[0]} (app.tensor_shape)")):
        if bad:
            raise ConfigError(f"{cfg.where(key)}: {key} = {values[key]} {need}")
    if kind != "cpdl" and values["engine.theta0"] != "random":
        _load_start(cfg, (shape[0], values["app.rank"]))
    _build_schedule(cfg)  # validates schedule parameters early
    return cfg


def _bounds(cfg: RunConfig) -> tuple[float, float]:
    lo, up = cfg["constraint.lower"], cfg["constraint.upper"]
    return (0.0 if cfg["constraint.nonneg"] else lo), up


def _load_start(cfg: RunConfig, shape: tuple) -> np.ndarray:
    """The OMF start dictionary named by engine.theta0: a CSV file holding a
    matrix of the given (q, r) shape inside the constraint box."""
    path, where = cfg["engine.theta0"], cfg.where("engine.theta0")
    try:
        W0 = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: engine.theta0 = {path} is not a CSV matrix ({exc})") from None
    lo, up = _bounds(cfg)
    if W0.shape != shape:
        raise ConfigError(f"{where}: engine.theta0 = {path} is {W0.shape[0]}x{W0.shape[1]}, need "
                          f"{shape[0]}x{shape[1]} (app.tensor_shape rows x app.rank)")
    if (W0 < lo - BOUNDARY_TOL).any() or (W0 > up + BOUNDARY_TOL).any():
        raise ConfigError(f"{where}: engine.theta0 = {path} leaves the box [{lo}, {up}]")
    return W0


def _build_schedule(cfg: RunConfig) -> WeightSchedule:
    kind = cfg["schedule.kind"]
    if kind == "balanced":
        return WeightSchedule.balanced()
    if kind == "polylog":
        return WeightSchedule.polylog(cfg["schedule.beta"], cfg["schedule.delta"])
    if kind == "constant":
        return WeightSchedule.constant(cfg["schedule.alpha"])
    if kind == "custom":
        vals = [float(v) for v in cfg["schedule.values"].split(",")]
        return WeightSchedule.custom(vals)
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _parse_matrix(text_or_path: str) -> np.ndarray:
    # inline matrices use ';' between rows and whitespace between entries;
    # anything else is a CSV path
    if ";" in text_or_path or " " in text_or_path.strip():
        rows = [[float(c) for c in row.split()]
                for row in text_or_path.split(";") if row.strip()]
        return np.asarray(rows, dtype=float)
    return np.loadtxt(text_or_path, delimiter=",", ndmin=2)


def _build_source(cfg: RunConfig) -> MarkovSource:
    shape = tuple(int(s) for s in cfg["app.tensor_shape"].split(","))
    bank = np.loadtxt(cfg["stream.emissions"], delimiter=",", ndmin=2)
    emissions = [row.reshape(shape) for row in bank]
    trans = _parse_matrix(cfg["stream.transition"])
    if cfg["stream.kind"] == "iid":
        weights = trans.ravel()
        return make_iid(weights, emissions, seed=cfg["stream.seed"])
    if cfg["stream.kind"] != "markov":
        raise ConfigError(f"unknown stream kind {cfg['stream.kind']!r}")
    return MarkovSource(P=trans, emissions=emissions, seed=cfg["stream.seed"])


def run_experiment(cfg: RunConfig, seed: int | None = None,
                   out_path: str | None = None) -> RunResult:
    """Build every component from the config and execute the run, writing
    the diagnostics CSV."""
    schedule = _build_schedule(cfg)
    source = _build_source(cfg)
    seed = cfg["engine.seed"] if seed is None else seed
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in cfg["app.tensor_shape"].split(","))
    r = cfg["app.rank"]
    lo, up = _bounds(cfg)
    kind = cfg["app.kind"]
    tol = cfg["solver.tol"]
    common = dict(
        lam=cfg["app.lambda"], c_prime=cfg["engine.c_prime"],
        n_iters=cfg["engine.n_iters"], diag_interval=cfg["engine.diag_interval"],
        solver_tol=tol,
    )
    if kind in ("omf", "omf_sub"):
        q, d = shape
        dict_box = BoxSet.uniform(q * r, lo, up)
        code_set = BoxSet.uniform(r, lo, up)
        if cfg["engine.theta0"] == "random":
            W0 = rng.uniform(lo, up, size=(q, r))
        else:
            W0 = _load_start(cfg, (q, r))
        sampler = None
        if kind == "omf_sub":
            p_or_k = cfg["app.row_sample"]
            if p_or_k >= 1:
                k = int(p_or_k)
                sampler = lambda g: g.choice(q, size=k, replace=False)
            else:
                sampler = lambda g: np.flatnonzero(g.random(q) < p_or_k)
        result = run_omf_diagnostics(
            source, schedule, W0, dict_box=dict_box, code_set=code_set,
            mode=cfg["engine.mode"], rho0=(1.0 if cfg["engine.mode"] == "c1" else 0.0),
            row_sampler=sampler, rng=rng, **common)
    elif kind == "cpdl":
        dims, b = shape[:-1], shape[-1]
        factor_boxes = [BoxSet.uniform(I * r, lo, up) for I in dims]
        code_set = BoxSet.uniform(r, lo, up)
        U0 = [rng.uniform(lo, up, size=(I, r)) for I in dims]
        result = run_cpdl_diagnostics(
            source, schedule, U0, factor_boxes=factor_boxes, code_set=code_set,
            **common)
    else:
        raise ConfigError(f"unknown app kind {kind!r}")
    emit_csv(result.records, out_path or cfg["output"])
    return result


def run_sweep(cfg: RunConfig, seeds, out_dir=".") -> dict:
    """Execute one configuration across several seeds.

    Runs share nothing: each builds its own source and state from the config.
    The SBMM_THREADS environment variable sets the number of worker threads
    (default 1).  A step is many small numpy calls that hold the interpreter
    lock, so more threads mostly wait for it.  Returns a dict mapping seed to
    its RunResult; each run's CSV lands in out_dir as <label>_seed<seed>.csv.
    """
    import concurrent.futures
    import os

    cap = os.environ.get("SBMM_THREADS", "").strip()
    try:
        workers = int(cap) if cap else 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"SBMM_THREADS must be an integer >= 1, got {cap!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = cfg["label"]

    def one(seed):
        return seed, run_experiment(
            cfg, seed=seed, out_path=str(out_dir / f"{label}_seed{seed}.csv"))

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
        return dict(ex.map(one, seeds))


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    run_experiment(cfg, seed=args.seed, out_path=args.out)
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    schedule = _build_schedule(cfg)
    report = validate_schedule(schedule)
    source = _build_source(cfg)
    print(f"config: {cfg.path}")
    print(f"schedule: kind={cfg['schedule.kind']} a4_prime_valid={report.a4_prime_valid} "
          f"square_summable={report.square_summable} "
          f"optional_condition={report.optional_condition}")
    if not report.a4_prime_valid and cfg["schedule.kind"] != "custom":
        print("warning: schedule is outside the theory-valid families; "
              "run is allowed but rate guarantees do not apply")
    print(f"stream: states={source.S} mixing_rate={mixing_rate(source):.6f}")
    print("ok")
    return 0


def _cmd_mixing_report(args) -> int:
    cfg = parse_config(args.config)
    source = _build_source(cfg)
    pi = stationary_distribution(source)
    lam = mixing_rate(source)
    print("stationary distribution:")
    print("  " + " ".join(format(p, ".10g") for p in pi))
    print(f"mixing rate: {lam:.10g}")
    tv = tv_decay(source, horizon=50)
    print(" m   worst-start TV    bound lambda^m")
    for m_, d in enumerate(tv[:20], start=1):
        print(f"{m_:3d}   {d: .6e}    {lam ** m_: .6e}")
    return 0


def _cmd_rate_check(args) -> int:
    cols = read_csv(args.csv)
    if args.column not in cols:
        print(f"error: column {args.column!r} not in {args.csv}", file=sys.stderr)
        return 1
    y = cols[args.column]
    x = cols["cum_weight"]
    mask = (y > 0) & (x > 0)
    if mask.sum() < 2:
        print("error: not enough positive rows for a fit", file=sys.stderr)
        return 1
    slope, _ = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
    print(f"log-log slope of {args.column} vs cumulative weight: {slope:.4f}")
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbmm",
        description="stochastic block majorization-minimization experiments",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute a run and write its diagnostics CSV")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("validate", help="check a config without running it")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("mixing-report", help="print stationary distribution and TV decay")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_mixing_report)

    p = sub.add_parser("rate-check", help="fit the running-minimum decay slope")
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.set_defaults(fn=_cmd_rate_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

