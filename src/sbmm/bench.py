"""Diagnostics, the experiment runner, config parsing, CSV emission, and CLI.

One loop (``_run``) drives every application: sample from the stream, take
one step, audit it, and record diagnostics at the checkpoints.
``run_omf_diagnostics`` (matrix factorization, plain or with
``omf_step(rows=...)`` row subsampling) and ``run_cpdl_diagnostics``
(CP-dictionary learning) each build a small adapter (``_App``) that supplies
the step, the averaged surrogate's value and gradient, the stacked
per-sample loss, the stationarity measure and the step norm, then call the
loop.  Both steps return their averaged surrogate, an exact quadratic in
the flat dictionary anchored at the previous one (``FactorQuad``); the
loop reads the previous dictionary and, in mode C1, the strong convexity
from it.  The OMF audits also read the block solve's certificate (that
surrogate's value at the previous dictionary).  The loop
runs a stack of K members in lockstep: each samples from its own source
and keeps its own audits and records, while an OMF stack takes one batched
step (``run_sweep``).  A single run is the stack of one.

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
from typing import Callable, NamedTuple

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
from .geometry import BoxSet, GeometryError, stationarity_measure, tangent_cone_project
from .schedule import _VALIDATION_HORIZON, WeightSchedule, validate_schedule
from .stream import (MarkovSource, StreamError, make_iid, mixing_rate, next_sample,
                     stationary_distribution, tv_decay)
from .subsolver import SubsolverError

__all__ = [
    "DiagnosticsRecord",
    "RunConfig",
    "RunResult",
    "eps_bar_update",
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
# the averaged tolerance


def eps_bar_update(eps_bar_prev: float, eps_n: float, w_n: float) -> float:
    """(1 - w_n) * eps_bar_prev + w_n * eps_n (both inputs nonnegative)."""
    if eps_bar_prev < 0 or eps_n < 0:
        raise ValueError("tolerances must be >= 0")
    return (1.0 - w_n) * eps_bar_prev + w_n * eps_n


# ---------------------------------------------------------------------------
# the runner: one SBMM loop over a per-application adapter


@dataclass
class _App:
    """One application as the shared loop sees it: a stack of K runs in
    lockstep (OMF), or a single run (CPDL, and any run given alone).  Stack
    quantities carry a leading member axis; member(a, j) takes member j's
    part of one.  A number per member comes as a list of K Python floats.
    Each function keeps its application's own float operations, so each
    app's diagnostics are the ones written for it."""

    state: object            # OmfState or CpdlState; step moves its iterate
    lam: float
    step: Callable           # (samples, their chain states, w_n, radius) -> step result
                             # (A, B, C, H, eps)
    iterate: Callable        # () -> W, or the list U of loading matrices
    member: Callable         # (stack quantity, j) -> member j's part
    floats: Callable         # an array of one number per member -> a list of K floats
    final: Callable          # j -> member j's final state
    surrogate: Callable      # step result -> the averaged surrogate's values at the
                             # previous and new iterates, grads(theta) as block lists
    losses: Callable         # theta -> per member: values (S,) over the source's
                             # emissions, per-block gradient stacks
    move: Callable           # (prev, theta) -> step norms, largest block moves
    stationarity: Callable   # (block gradients, theta) -> stationarity measure
    lipschitz_bound: Callable = None  # () -> the C1 audit's gradient bounds
    norms: Callable = None   # stack quantity -> each member's norm, for the C1 audit


def _norms(D: np.ndarray):
    """np.linalg.norm of one member's (q, r) array, or the list of each
    member's of a stack (K, q, r): the square root of the same dot product
    norm takes."""
    if D.ndim == 2:
        d = D.ravel()
        return math.sqrt(d.dot(d))
    return [math.sqrt(d.dot(d)) for d in D.reshape(len(D), -1)]


def run_omf_diagnostics(
    source,
    schedule: WeightSchedule,
    W0: np.ndarray,
    lam: float,
    dict_box: BoxSet,
    code_set: BoxSet,
    mode: str = "c2",
    c_prime: float = 1.0,
    n_iters: int = 1000,
    diag_interval: int = 10,
    solver_tol: float = 1e-8,
    row_sampler=None,
    rng=None,
    keep_trajectory: bool = False,
):
    """Drive online matrix factorization with full diagnostics and invariant
    audits.  row_sampler, when given, is a callable rng -> row index array and
    restricts each dictionary update to the rows it draws.  Mode c1 (no
    trust region) seeds the average with (1/2)||W - W0||^2, mode c2 with 0.

    One run takes a MarkovSource, W0 (q, r) and one rng, and returns its
    RunResult: a stack of one, whose arrays carry no member axis.  A stack
    of K runs in lockstep takes a list of K sources, W0 (K, q, r) and a list
    of K rngs (each member samples, and draws its rows, from its own) and
    returns the list of K RunResults, each equal to the one its run alone
    gives; the members share everything else.
    """
    mode = mode.lower()
    if mode not in ("c1", "c2"):
        raise ValueError("mode must be c1 or c2")
    one = isinstance(source, MarkovSource)
    sources = [source] if one else list(source)
    K = len(sources)
    W0 = np.asarray(W0, dtype=float)
    if one:
        rng = [rng or np.random.default_rng(0)]
    rngs = [np.random.default_rng(0) for _ in sources] if rng is None else list(rng)
    if (not one and len(W0) != K) or len(rngs) != K:
        raise ValueError("a stack needs one W0 and one rng per source")
    S = sources[0].S
    if any(src.S != S for src in sources):
        raise ValueError("a stack's sources must have the same number of states")
    st = OmfState.initial(W0, 1.0 if mode == "c1" else 0.0)
    # a code solve starts from the code its member last solved for the chain
    # state it draws (nan, the default start, for a state it has not drawn
    # yet): per member and state, (K, S, r, d); a stack's step reads and
    # writes them as rows offsets + y = j S + y of the flat table (K S, r, d)
    codes = np.full((K, S, W0.shape[-1], np.shape(sources[0].emissions[0])[-1]), np.nan)
    table = codes if one else codes.reshape((K * S,) + codes.shape[2:])
    offsets = np.arange(0, K * S, S)
    emissions = np.array([src.emissions for src in sources])  # (K, S, q, d)

    def draw_rows(g):
        rows = np.asarray(row_sampler(g), dtype=int)
        while rows.size == 0:
            rows = np.asarray(row_sampler(g), dtype=int)
        return rows

    def step(xs, ys, w_n, radius):
        rows = None
        if row_sampler is not None:
            rows = draw_rows(rngs[0]) if one else [draw_rows(g) for g in rngs]
        at = (0, ys[0]) if one else offsets + ys
        res = omf_step(xs[0] if one else np.array(xs), st.W, st.A, st.B, w_n, lam, dict_box,
                       code_set, C_prev=st.C, radius=radius, tol=solver_tol, rows=rows,
                       H0=table[at] if one else table.take(at, axis=0))
        table[at] = res.H
        # the audits read res.quad, so it must hold the statistics the run carries on
        if not (res.quad.A is res.A and res.quad.B is res.B and res.quad.C is res.C):
            raise RuntimeError("omf_step's surrogate does not hold the step's statistics")
        st.W = res.W
        return res

    def surrogate(res):
        # the quadratic the step minimized, its certificate (its value at
        # the anchor) and its value at the iterate the run carries, the
        # step's own unless that is not the step's result; a member's
        # gradient is a list of one block, (1, q, r)
        g_prev, g_new = res.g_prev, res.value_at(res.W)
        grads = lambda W: res.quad.grad(W)[..., None, :, :]
        return ([g_prev], [g_new], grads) if one else (g_prev, g_new, grads)

    def losses(W):
        # every member's every state in one stacked factor_loss call; each
        # state's code solve starts from the code its member last solved for
        # that state, as a step's does
        values, grads, _ = factor_loss(emissions[0] if one else emissions, W, lam, code_set,
                                       tol=solver_tol, H0=codes[0] if one else codes)
        return [(values, [grads])] if one else [(v, [g]) for v, g in zip(values, grads)]

    norms = (lambda D: [_norms(D)]) if one else _norms

    def move(prev, W):
        step = norms(W - prev)
        return step, step

    def stationarity(grads, W):
        # one member's gradient blocks and W (q, r), or the stack's: one each
        if W.ndim == 2:
            return stationarity_measure(grads[0].ravel(), W.ravel(), dict_box)
        proj = tangent_cone_project(-grads.reshape(K, -1), W.reshape(K, -1), dict_box)
        return np.array(_norms(proj.reshape(W.shape)))

    def final(j):
        if one:
            return st
        return OmfState(W=st.W[j], A=st.A[j], B=st.B[j], C=float(st.C[j]),
                        eps_sum=float(st.eps_sum[j]), n=st.n)

    r = W0.shape[-1]
    app = _App(
        state=st, lam=lam, step=step, iterate=lambda: st.W,
        member=(lambda a, j: a) if one else (lambda a, j: a[j]),
        floats=(lambda a: [a]) if one else (lambda a: a.tolist()), norms=norms,
        final=final, surrogate=surrogate, losses=losses, move=move, stationarity=stationarity,
        lipschitz_bound=lambda: [factor_loss_lipschitz_bound(src.emissions, dict_box,
                                                             code_set, r) for src in sources])
    results = _run(app, sources, schedule, mode, c_prime, n_iters, diag_interval,
                   keep_trajectory)
    return results[0] if one else results


def run_cpdl_diagnostics(
    source: MarkovSource,
    schedule: WeightSchedule,
    U0: list,
    lam: float,
    factor_boxes: list,
    code_set: BoxSet,
    c_prime: float = 1.0,
    n_iters: int = 1000,
    diag_interval: int = 10,
    solver_tol: float = 1e-8,
    keep_trajectory: bool = False,
) -> RunResult:
    """Online CP-dictionary learning with diagnostics and invariant audits.
    The per-factor trust region has radius c_prime * w_n each step.  A run
    is never stacked: its per-sample gradients contract one sample at a
    time (see cpdl_loss).  The surrogate's values are taken at the flat
    dictionary of the U the run carries, and that dictionary goes to the
    next step as its D_prev."""
    st = CpdlState.initial(U0)
    D = None  # the flat dictionary of st.U, once surrogate has built it
    emissions = np.stack(source.emissions)
    # a code solve starts from the code last solved for the chain state it
    # draws (nan, the default start, for a state not drawn yet), as OMF's do
    codes = np.full((source.S, st.A.shape[0], emissions.shape[-1]), np.nan)

    def step(xs, ys, w_n, radius):
        res = cpdl_step(xs[0], st.U, st.A, st.B, w_n, lam, factor_boxes, code_set,
                        C_prev=st.C, radius=radius, tol=solver_tol, D_prev=D, H0=codes[ys[0]])
        codes[ys[0]] = res.H
        st.U = res.U
        return res

    def surrogate(res):
        # the values at the previous dictionary and at res.U's, the iterate
        # the run carries; that flat dictionary is the next step's D_prev.
        # The block solves' certificates are those of the per-mode quadratics
        nonlocal D
        quad, A, B = res.quad, res.A, res.B
        D = out_product(res.U).reshape(quad.anchor.shape)
        g_prev, g_new = quad.value_pair(quad.anchor, D)

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
        return [g_prev], [g_new], grads

    def losses(U):
        values, grads, _ = cpdl_loss(emissions, U, lam, code_set, tol=solver_tol)
        return [(values, grads)]

    def move(prev, U):
        moves = [_norms(Ui - Pi) for Ui, Pi in zip(U, prev)]
        return [math.sqrt(sum(mv * mv for mv in moves))], [max(moves)]

    def stationarity(grads, U):
        total = 0.0
        for g, Ui, box in zip(grads, U, factor_boxes):
            proj = tangent_cone_project(-np.asarray(g, float).ravel(), Ui.ravel(), box)
            total += float(proj @ proj)
        return math.sqrt(total)

    app = _App(state=st, lam=lam, step=step, iterate=lambda: st.U, member=lambda a, j: a,
               floats=lambda a: [a],
               final=lambda j: st, surrogate=surrogate, losses=losses, move=move,
               stationarity=stationarity)
    return _run(app, [source], schedule, "c2", c_prime, n_iters, diag_interval,
                keep_trajectory)[0]


def _refuse_non_finite(values: list, i: int, what: str) -> None:
    """Raise SubsolverError naming step i, the member and the certificate
    when a member's certificate (one float per member) is not finite: a nan
    passes every audit's comparison, and certifies nothing."""
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise SubsolverError(f"step {i}, member {j}: the {what} is {v}, not finite")


def _audit_c1(app: _App, results: list, quad, G, theta, step: list, w_n: float,
              R_bound: list, g_prev: list) -> None:
    """Mode C1's audits of one step of each member: the step bound (1/2)
    rho s^2 <= w_n R s + 1e-7 (1 + |g_prev|) of the surrogate's strong
    convexity rho = quad.rho, and the running maximum of the stationarity
    measure at theta of the surrogate's gradient G.  Each member's check is
    tried first on an upper bound in floats: rho <= 2 min_i A_ii + 1e-12
    max |A| (the Rayleigh bound lambda_min(A) <= A_ii, with a margin far
    above eigvalsh's rounding), and the measure <= |G| (1 + 1e-12), since
    the tangent-cone projection only zeroes entries of -G.  quad.rho (one
    eigvalsh for the stack) and the projection are computed only when a
    member's bound does not settle its check, so every count and maximum
    is the one the eager audit gives; a nan settles nothing."""
    rho = stat = None
    grad_norms = app.norms(G.reshape(theta.shape))
    A = quad.A.tolist()
    for j, (a, result) in enumerate(zip([A] if quad.A.ndim == 2 else A, results)):
        s = step[j]
        bound = w_n * R_bound[j] * s + 1e-7 * (1.0 + abs(g_prev[j]))
        rho_up = (2.0 * min(row[i] for i, row in enumerate(a))
                  + 1e-12 * max(abs(v) for row in a for v in row))
        if not 0.5 * rho_up * s * s <= bound:
            rho = app.floats(quad.rho) if rho is None else rho
            if 0.5 * rho[j] * s * s > bound:
                result.c1_bound_violations += 1
        if not grad_norms[j] * (1.0 + 1e-12) <= result.c1_stat_max:
            stat = app.floats(app.stationarity(G, theta)) if stat is None else stat
            result.c1_stat_max = max(result.c1_stat_max, stat[j])


def _run(app: _App, sources: list, schedule: WeightSchedule, mode: str,
         c_prime: float, n_iters: int, diag_interval: int,
         keep_trajectory: bool) -> list:
    """Drive n_iters SBMM steps of each member (one per source) with
    invariant audits on every step and full diagnostics at every
    diag_interval-th step and the last one; one RunResult per member.
    Every tally, margin and record is the member's own.  The audits are
    monotonicity, the C2 step bound and, in mode C1, _audit_c1's step
    bound and stationarity maximum, which read rho and the tangent-cone
    projection only on the steps their cheap bounds leave undecided.  A
    stack's work that is not a member's own arithmetic is one call for the
    stack: the step, the new samples' losses and the checkpoint's losses.
    A SubsolverError or GeometryError of step i is raised again, of its
    type and chained, with "step i: " in front."""
    st = app.state
    K, S = len(sources), sources[0].S
    pis = [stationary_distribution(src) for src in sources]
    w_hat = np.zeros((K, S))
    cum_w = 0.0
    eps_bar = [0.0] * K
    mins = [{} for _ in sources]
    results = [RunResult(records=[], prop_margins=[]) for _ in sources]
    if keep_trajectory:
        for j, result in enumerate(results):
            result.trajectory.append(copy.deepcopy(app.member(app.iterate(), j)))
    R_bound = app.lipschitz_bound() if mode == "c1" else None
    pending = None   # per member: (gbar value, fbar, w_n) at the last checkpoint

    for i in range(1, n_iters + 1):
        xs, ys = zip(*[next_sample(src) for src in sources])
        w_n = schedule.weight_at(i)
        radius = math.inf if mode == "c1" else c_prime * w_n
        prev = app.iterate()
        try:
            res = app.step(xs, ys, w_n, radius)
        except (SubsolverError, GeometryError) as e:
            raise type(e)(f"step {i}: {e}") from e
        theta = app.iterate()
        st.A, st.B, st.C = res.A, res.B, res.C
        st.eps_sum += res.eps
        st.n = i
        # the audits' scalars, one per member, as the floats a single run has
        eps = app.floats(res.eps)
        _refuse_non_finite(eps, i, "code solve's certified gap")
        eps_bar = [eps_bar_update(e, e_n, w_n) for e, e_n in zip(eps_bar, eps)]
        w_hat *= 1.0 - w_n
        for j, y in enumerate(ys):
            w_hat[j, y] += w_n
        cum_w += w_n
        if keep_trajectory:
            for j, result in enumerate(results):
                result.trajectory.append(copy.deepcopy(app.member(theta, j)))

        g_prev, g_new, grads = app.surrogate(res)
        _refuse_non_finite(g_prev, i, "surrogate's value at the previous iterate")
        _refuse_non_finite(g_new, i, "surrogate's value at the new iterate")
        step, largest = app.move(prev, theta)
        for j, result in enumerate(results):
            if g_new[j] > g_prev[j] + 1e-9 * (1.0 + abs(g_prev[j])):
                result.monotonicity_violations += 1
            if mode == "c2" and largest[j] > c_prime * w_n + 1e-9:
                result.step_bound_violations += 1
        if mode == "c1":
            _audit_c1(app, results, res.quad, grads(theta), theta, step, w_n, R_bound, g_prev)

        checkpoint = i % diag_interval == 0 or i == n_iters
        if pending is None and not checkpoint:
            continue
        # the new samples' losses at the previous iterate, from the codes the
        # step has just solved there: one code_loss call for the stack
        D_prev = res.quad.anchor
        if D_prev.ndim == 2:
            X, H = xs[0].reshape(1, D_prev.shape[0], -1), res.H[None]
        else:
            X, H = np.array(xs)[:, None], res.H[:, None]
        l_new = code_loss(X, D_prev, H, app.lam)[0].ravel().tolist()
        last = pending
        pending = [] if checkpoint else None
        if checkpoint:
            surr_grads = grads(theta)
            losses = app.losses(theta)
        for j, result in enumerate(results):
            g_new_j = g_new[j]
            if last is not None:
                gbar_val, fbar, w_prev = last[j]
                lhs = g_new_j - gbar_val
                rhs = w_n * (l_new[j] - fbar) + w_prev ** 2 * app.member(st.eps_sum, j)
                result.prop_margins.append((i, lhs - rhs, 1.0 + abs(rhs)))
            if not checkpoint:
                continue
            theta_j = app.member(theta, j)
            values, loss_grads = losses[j]
            fbar = sum(w_hat[j, s] * values[s] for s in range(S))
            f_exp = sum(pis[j][s] * values[s] for s in range(S))
            blocks = (app.member(surr_grads, j),
                      [sum(w_hat[j, s] * G[s] for s in range(S)) for G in loss_grads],
                      [sum(pis[j][s] * G[s] for s in range(S)) for G in loss_grads])
            g_surr, g_emp, g_exp = (np.concatenate([g.ravel() for g in b]) for b in blocks)
            stat_surr, stat_emp, stat_exp = (app.stationarity(b, theta_j) for b in blocks)
            gap_emp, gap_exp = abs(g_new_j - fbar), abs(g_new_j - f_exp)
            ggap_emp = float(np.linalg.norm(g_surr - g_emp))
            ggap_exp = float(np.linalg.norm(g_surr - g_exp))
            comp_emp = gap_emp + ggap_emp ** 2
            comp_exp = gap_exp + ggap_exp ** 2
            for k, v in (("min_comp_emp", comp_emp), ("min_comp_exp", comp_exp),
                         ("min_stat_surr", stat_surr), ("min_stat_emp", stat_emp),
                         ("min_stat_exp", stat_exp)):
                mins[j][k] = min(mins[j].get(k, math.inf), v)
            result.records.append(DiagnosticsRecord(
                n=i, w_n=w_n, cum_weight=cum_w, loss_new=l_new[j], fbar=fbar,
                f_exp=f_exp, gbar_val=g_new_j, gap_emp=gap_emp, gap_exp=gap_exp,
                ggap_emp=ggap_emp, ggap_exp=ggap_exp, stat_surr=stat_surr,
                stat_emp=stat_emp, stat_exp=stat_exp, step_norm=step[j],
                eps_bar=eps_bar[j], comp_emp=comp_emp, comp_exp=comp_exp, **mins[j]))
            pending.append((g_new_j, fbar, w_n))
    for j, result in enumerate(results):
        result.final = app.final(j)
    return results


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
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty: no header row")
        rows = [row for row in reader if row]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: every row must have {len(header)} cells, as the header does")
    try:
        data = np.array([[float(c) for c in row] for row in rows]).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# config


_MUST_SET = object()  # the default of a key that every config file sets


def _one_of(*words):
    """The range test of a key that takes one of the given words."""
    *head, last = words
    return lambda v: v in words, f"must be {', '.join(head)} or {last}"


# each range test says what is inside, so that NaN, which fails every
# comparison, is rejected
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
_FINITE_AT_LEAST_0 = (lambda v: 0 <= v < math.inf, "must be a finite number >= 0")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be a finite number > 0")
_FINITE = (math.isfinite, "must be finite")


def _sizes(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


class _Key(NamedTuple):
    """One config key.  default is _MUST_SET when every file must set the
    key, and None when the key stays unset unless the file sets it.
    read_when, when given, is the (key, values) under which the run reads
    the key; a file that sets it otherwise is refused.  check is the key's
    own range test and the text a value it fails gets."""

    type: type
    default: object
    read_when: tuple | None = None
    check: tuple | None = None


_KEYS = {
    "engine.mode": _Key(str, "c2", check=_one_of("c1", "c2")),
    "engine.c_prime": _Key(float, 1.0, check=_POSITIVE),
    "engine.n_iters": _Key(int, _MUST_SET, check=_AT_LEAST_1),
    "engine.theta0": _Key(str, "random", read_when=("app.kind", ("omf", "omf_sub"))),
    "engine.diag_interval": _Key(int, 10, check=_AT_LEAST_1),
    "engine.seed": _Key(int, 0, check=_AT_LEAST_0),
    "app.kind": _Key(str, "omf", check=_one_of("omf", "omf_sub", "cpdl")),
    "app.rank": _Key(int, _MUST_SET, check=_AT_LEAST_1),
    "app.lambda": _Key(float, 0.0, check=_FINITE_AT_LEAST_0),
    "app.row_sample": _Key(float, 0.0, read_when=("app.kind", ("omf_sub",))),
    "app.tensor_shape": _Key(str, _MUST_SET, check=(lambda v: min(_sizes(v)) >= 1,
                                                    "must be sizes >= 1")),
    "constraint.lower": _Key(float, -1.0, read_when=("constraint.nonneg", (False,)),
                             check=_FINITE),
    "constraint.upper": _Key(float, 1.0, check=_FINITE),
    "constraint.nonneg": _Key(bool, False),
    "stream.kind": _Key(str, "iid", check=_one_of("iid", "markov")),
    "stream.transition": _Key(str, _MUST_SET),
    "stream.emissions": _Key(str, _MUST_SET),
    "stream.seed": _Key(int, 0, check=_AT_LEAST_0),
    "schedule.kind": _Key(str, "balanced",
                          check=_one_of("balanced", "polylog", "constant", "custom")),
    "schedule.beta": _Key(float, 0.5, read_when=("schedule.kind", ("polylog",)),
                          check=_FINITE_AT_LEAST_0),
    "schedule.delta": _Key(float, 1.5, read_when=("schedule.kind", ("polylog",)),
                           check=_FINITE_AT_LEAST_0),
    "schedule.alpha": _Key(float, 0.1, read_when=("schedule.kind", ("constant",))),
    "schedule.values": _Key(str, None, read_when=("schedule.kind", ("custom",))),
    "solver.tol": _Key(float, 1e-8, check=_POSITIVE),
    "output": _Key(str, "run.csv"),
    "label": _Key(str, "run"),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated key=value configuration plus its source path, the line
    each key was set on and the parsed app.tensor_shape."""

    values: dict
    path: str = ""
    lines: dict = field(default_factory=dict)
    tensor_shape: tuple = ()

    def __getitem__(self, key):
        return self.values[key]

    def where(self, key) -> str:
        """'path:line' of the key, or the path for a default."""
        return f"{self.path}:{self.lines[key]}" if key in self.lines else self.path


def parse_config(path) -> RunConfig:
    """Parse a line-oriented key=value UTF-8 file with '#' comments.
    Unknown keys, malformed lines, missing required keys and out-of-range
    values are errors."""
    values = {key: k.default for key, k in _KEYS.items() if k.default not in (None, _MUST_SET)}
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
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            typ = _KEYS[key].type
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
    missing = [key for key, k in _KEYS.items() if k.default is _MUST_SET and key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    cfg = RunConfig(values=values, path=str(path), lines=line_of)
    try:
        shape = _sizes(values["app.tensor_shape"])
    except ValueError:
        raise ConfigError(f"{cfg.where('app.tensor_shape')}: app.tensor_shape = "
                          f"{values['app.tensor_shape']} must be comma-separated integers") from None
    cfg.tensor_shape = shape
    for key, k in _KEYS.items():
        if k.check and not k.check[0](values[key]):
            raise ConfigError(f"{cfg.where(key)}: {key} = {values[key]} {k.check[1]}")
    kind, mode = values["app.kind"], values["engine.mode"]
    sub, row_sample, rows = kind == "omf_sub", values["app.row_sample"], shape[0]
    lo, up = _bounds(cfg)
    # an empty box is the fault of whichever bound was set last
    bound_key = max(("constraint.upper",
                     "constraint.nonneg" if values["constraint.nonneg"] else "constraint.lower"),
                    key=lambda k: line_of.get(k, 0))
    # the largest products a run forms: a code solve evaluates h'Gh, G = D'D
    # the code Hessian (W'W; for CPDL the Hadamard product of the loading
    # matrices' Grams), at codes on the box's bounds.  With every entry of
    # the m-mode dictionary D (m = 1 for OMF) and of the codes up to b =
    # max(|lower|, |upper|), a sample's reconstructions D h have squares
    # that sum to at most prod(app.tensor_shape) r^2 b^(2m + 2), which must
    # be a finite float; and G, r x r, must fit in an array
    rank, dims, b = values["app.rank"], math.prod(shape), max(abs(lo), abs(up))
    power = 2 * len(shape)  # 2m + 2, the batch axis being the last of the m + 1
    overflow = b > 0.0 and (math.log(dims) + 2.0 * math.log(rank) + power * math.log(b)
                            > math.log(sys.float_info.max))
    size_key = max((bound_key, "app.rank", "app.tensor_shape"), key=lambda k: line_of.get(k, 0))
    # a code solve's certified gap sums lam times the larger of b and the
    # box width over the rank x batch entries of the code, with a rounding
    # weight 2 (rank + 4); that sum must be a finite float too
    lam, reach = values["app.lambda"], max(b, up - lo)
    l1_overflow = lam > 0.0 and reach > 0.0 and (
        math.log(lam) + math.log(reach) + math.log(2 * rank * (rank + 4) * shape[-1])
        > math.log(sys.float_info.max))
    l1_key = max((size_key, "app.lambda"), key=lambda k: line_of.get(k, 0))
    # the checks that read more than one key
    for key, bad, need in (
            ("app.tensor_shape", kind != "cpdl" and len(shape) != 2,
             f"must be rows,columns for app.kind = {kind}"),
            ("app.tensor_shape", kind == "cpdl" and len(shape) < 2,
             "must be I_1,...,I_m,batch for app.kind = cpdl"),
            (bound_key, not lo < up, f"leaves an empty box: need lower {lo} < upper {up}"),
            (bound_key, not math.isfinite(up - lo), f"makes the box width {up} - {lo} overflow"),
            ("schedule.kind", values["schedule.kind"] == "custom" and "schedule.values" not in values,
             "needs schedule.values"),
            ("engine.mode", kind == "cpdl" and mode == "c1", "is not available: app.kind = cpdl "
                                                             "runs in mode c2 only"),
            ("app.row_sample", sub and not row_sample > 0, "must be > 0 when app.kind = omf_sub"),
            ("app.row_sample", sub and row_sample >= 1 and not (row_sample.is_integer()
                                                                  and row_sample <= rows),
             f"must be a fraction < 1 or a whole number of rows <= {rows} (app.tensor_shape)"),
            ("app.row_sample", sub and 0 < row_sample < 1 and (1 - row_sample) ** rows >= 0.5,
             f"leaves all {rows} rows (app.tensor_shape) out of a draw at least half the time: "
             f"need (1 - p)^{rows} < 1/2"),
            ("app.rank", rank * rank > np.iinfo(np.intp).max // np.dtype(float).itemsize,
             f"makes the {rank} x {rank} code Hessian W'W too large for an array"),
            (size_key, overflow,
             f"makes the code solves overflow: with dictionary and code entries up to {b:g} "
             f"(the box), a sample's ||D h||^2 reaches {dims} * {rank}^2 * {b:g}^{power} "
             f"(app.tensor_shape, app.rank), beyond the largest float"),
            (l1_key, l1_overflow,
             f"makes the code solves' l1 term overflow: their certified gap sums app.lambda "
             f"times max(|bound|, width) = {reach:g} (the box) over {rank} x {shape[-1]} code "
             f"entries (app.rank, app.tensor_shape), beyond the largest float")):
        if bad:
            raise ConfigError(f"{cfg.where(key)}: {key} = {values[key]} {need}")
    for key, k in _KEYS.items():
        if k.read_when and key in line_of and values[k.read_when[0]] not in k.read_when[1]:
            dep = k.read_when[0]
            setting = str(values[dep]).lower()  # a bool as the file spells it
            raise ConfigError(f"{cfg.where(key)}: {key} = {values[key]} is not read when "
                              f"{dep} = {setting}")
    if kind != "cpdl" and values["engine.theta0"] != "random":
        _load_start(cfg, (shape[0], values["app.rank"]))
    try:
        schedule = _build_schedule(cfg)
        n_values, n_iters = len(schedule.custom_values), values["engine.n_iters"]
        if schedule.kind == "custom" and n_values < n_iters:
            raise ValueError(f"has {n_values} values, fewer than engine.n_iters = {n_iters}")
        # polylog weights fall with n: the last one a run or `sbmm validate`
        # weighs must not underflow to 0
        last = max(n_iters, _VALIDATION_HORIZON)
        if schedule.kind == "polylog" and not schedule.weight_at(last) > 0.0:
            raise ValueError(f"makes w_n underflow to 0 within n <= {last}")
    except ValueError as exc:
        # a bad schedule parameter: of those the kind reads, the one set last
        reads = ("schedule.kind", (values["schedule.kind"],))
        params = [key for key, k in _KEYS.items() if k.read_when == reads]
        key = max(params or ["schedule.kind"], key=lambda k: line_of.get(k, 0))
        raise ConfigError(f"{cfg.where(key)}: {key} = {values[key]}: {exc}") from None
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
    if not BoxSet.uniform(W0.size, lo, up).contains(W0.ravel()):
        raise ConfigError(f"{where}: engine.theta0 = {path} leaves the box [{lo}, {up}]")
    return W0


def _build_schedule(cfg: RunConfig) -> WeightSchedule:
    kind = cfg["schedule.kind"]
    if kind == "polylog":
        return WeightSchedule.polylog(cfg["schedule.beta"], cfg["schedule.delta"])
    if kind == "constant":
        return WeightSchedule.constant(cfg["schedule.alpha"])
    if kind == "custom":
        return WeightSchedule.custom([float(v) for v in cfg["schedule.values"].split(",")])
    return WeightSchedule.balanced()


def _parse_matrix(text_or_path: str) -> np.ndarray:
    # inline matrices use ';' between rows and whitespace between entries;
    # anything else is a CSV path
    if ";" in text_or_path or " " in text_or_path.strip():
        rows = [[float(c) for c in row.split()]
                for row in text_or_path.split(";") if row.strip()]
        return np.asarray(rows, dtype=float)
    return np.loadtxt(text_or_path, delimiter=",", ndmin=2)


def _build_source(cfg: RunConfig) -> MarkovSource:
    """The data source the config names; a bad emission bank names the
    stream.emissions line, a bad transition (or a stream the two do not make
    up) the stream.transition line."""
    shape = cfg.tensor_shape
    path = cfg["stream.emissions"]
    try:
        bank = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{cfg.where('stream.emissions')}: stream.emissions = {path} "
                          f"is not a CSV matrix ({exc})") from None
    if not np.isfinite(bank).all():
        raise ConfigError(f"{cfg.where('stream.emissions')}: stream.emissions = {path} "
                          f"has entries that are not finite numbers")
    if bank.shape[1] != math.prod(shape):
        raise ConfigError(f"{cfg.where('app.tensor_shape')}: app.tensor_shape = "
                          f"{cfg['app.tensor_shape']} needs {math.prod(shape)} entries per "
                          f"emission, {path} has {bank.shape[1]}")
    emissions = [row.reshape(shape) for row in bank]
    try:
        trans = _parse_matrix(cfg["stream.transition"])
        if cfg["stream.kind"] == "iid":
            return make_iid(trans.ravel(), emissions, seed=cfg["stream.seed"])
        return MarkovSource(P=trans, emissions=emissions, seed=cfg["stream.seed"])
    except (OSError, ValueError, StreamError) as exc:
        raise ConfigError(f"{cfg.where('stream.transition')}: stream.transition = "
                          f"{cfg['stream.transition']}: {exc}") from None


def run_experiment(cfg: RunConfig, seed: int | None = None,
                   out_path: str | None = None) -> RunResult:
    """Build every component from the config and execute the run, writing
    the diagnostics CSV: a stack of one."""
    named_by = out_path or f"{cfg.where('output')}: output = {cfg['output']}"
    return _run_stack(cfg, [seed], [out_path or cfg["output"]], named_by)[0]


def _choose_rows(g: np.random.Generator, q: int, k: int) -> list:
    """k of the rows 0..q-1 without replacement: the rows, in order, that
    g.choice(q, size=k, replace=False) draws, from the same words of g's
    stream, without choice's per-call array work.  For q <= 10000 choice
    runs Floyd's algorithm (j = q - k, ..., q - 1 draws v in [0, j] and
    keeps v, or j if v is taken) and then shuffles, swapping i = k - 1,
    ..., 1 with a draw in [0, i]; each draw in [0, n - 1] is Lemire's
    method on the bit generator's 32-bit words, and n = 1 draws none.
    Larger q is left to choice itself."""
    if q > 10000:
        return g.choice(q, size=k, replace=False)
    bits = g.bit_generator.ctypes
    word, state = bits.next_uint32, bits.state

    def below(n):
        m = word(state) * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = word(state) * n
        return m >> 32
    rows = []
    for j in range(q - k, q):
        v = below(j + 1) if j else 0
        rows.append(j if v in rows else v)
    for i in range(k - 1, 0, -1):
        t = below(i + 1)
        rows[i], rows[t] = rows[t], rows[i]
    return rows


def _run_stack(cfg: RunConfig, seeds: list, out_paths: list, named_by: str) -> list:
    """Runs of the config at the given engine seeds (None: engine.seed), as
    one OMF stack in lockstep, or CPDL runs one after another; each member
    builds its own source, rng and start from the config and writes its own
    CSV.  Every seed and every CSV path (in a directory, not one) is checked
    before the first step; named_by says where a bad path came from."""
    seeds = [cfg["engine.seed"] if seed is None else seed for seed in seeds]
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"seed {seed} is negative: a run's seed must be >= 0")
    for path in map(Path, out_paths):
        if not path.parent.is_dir():
            raise ConfigError(f"{named_by}: directory {path.parent} does not exist")
        if path.is_dir():
            raise ConfigError(f"{named_by}: {path} is a directory")
    schedule = _build_schedule(cfg)
    source = _build_source(cfg)
    # every member's source starts from the same fresh state and draws alone
    sources = [source] + [copy.deepcopy(source) for _ in seeds[1:]]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    shape = cfg.tensor_shape
    r = cfg["app.rank"]
    lo, up = _bounds(cfg)
    kind = cfg["app.kind"]
    code_set = BoxSet.uniform(r, lo, up)
    common = dict(
        lam=cfg["app.lambda"], c_prime=cfg["engine.c_prime"],
        n_iters=cfg["engine.n_iters"], diag_interval=cfg["engine.diag_interval"],
        solver_tol=cfg["solver.tol"],
    )
    if kind in ("omf", "omf_sub"):
        q, d = shape
        dict_box = BoxSet.uniform(q * r, lo, up)
        if cfg["engine.theta0"] == "random":
            W0 = [rng.uniform(lo, up, size=(q, r)) for rng in rngs]
        else:
            W0 = [_load_start(cfg, (q, r))] * len(seeds)
        sampler = None
        if kind == "omf_sub":
            p_or_k = cfg["app.row_sample"]
            if p_or_k >= 1:
                k = int(p_or_k)
                sampler = lambda g: _choose_rows(g, q, k)
            else:
                sampler = lambda g: np.flatnonzero(g.random(q) < p_or_k)
        # one run is a stack of one, whose arrays carry no member axis
        one = len(seeds) == 1
        results = run_omf_diagnostics(
            source if one else sources, schedule, W0[0] if one else np.stack(W0),
            dict_box=dict_box, code_set=code_set, mode=cfg["engine.mode"], row_sampler=sampler,
            rng=rngs[0] if one else rngs, **common)
        if one:
            results = [results]
    else:  # cpdl: never a stack, so the members run one after another
        dims = shape[:-1]
        factor_boxes = [BoxSet.uniform(I * r, lo, up) for I in dims]
        results = []
        for src, rng in zip(sources, rngs):
            U0 = [rng.uniform(lo, up, size=(I, r)) for I in dims]
            results.append(run_cpdl_diagnostics(src, schedule, U0, factor_boxes=factor_boxes,
                                                code_set=code_set, **common))
    for result, path in zip(results, out_paths):
        emit_csv(result.records, path)
    return results


def run_sweep(cfg: RunConfig, seeds, out_dir=".") -> dict:
    """Execute one configuration across several seeds.

    An OMF config (omf, omf_sub) runs all its seeds as one stack of K
    members in lockstep: each member keeps its own source, rng, row draws,
    audits, records and CSV, while the code solve, statistics update and
    dictionary solve are batched calls over the stack (shape (K, ...)), as
    is the C1 audit's eigvalsh when it is needed (see _audit_c1).  A CPDL
    config runs its seeds one after another.  Either way each run's CSV is
    the one run_experiment writes at that seed.
    Returns a dict mapping seed to its RunResult; each run's CSV lands in
    out_dir as <label>_seed<seed>.csv.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = cfg["label"]
    seeds = list(seeds)
    if not seeds:
        return {}
    paths = [str(out_dir / f"{label}_seed{seed}.csv") for seed in seeds]
    return dict(zip(seeds, _run_stack(cfg, seeds, paths,
                                      f"{cfg.where('label')}: label = {label}")))


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
    for name in (args.column, "cum_weight"):
        if name not in cols:
            print(f"error: column {name!r} not in {args.csv}", file=sys.stderr)
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

