"""Output checks that do not reuse sbmm's own solvers.

Each check takes plain values (the diagnostics CSV columns, the final
iterate, the problem that produced them) and returns a list of failure
messages, empty when the output passes.  The reference values come from
closed forms and from scipy: the stationary distribution from a linear
solve of pi P = pi, the optimal codes from an exact bounded least-squares
solve (BVLS).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# rounding allowance relative to the size of a compared quantity; the
# solver tolerance is added on top wherever sbmm's own solves enter
REL = 1e-12


@dataclass
class Problem:
    """What a run was asked to do, read from its config and input files."""

    kind: str                 # omf, omf_sub or cpdl
    P: np.ndarray             # (S, S) transition matrix
    emissions: np.ndarray     # (S, *tensor_shape)
    lam: float
    lo: float
    up: float
    mode: str                 # c1 or c2
    c_prime: float
    schedule: tuple           # ("polylog", beta, delta) or ("balanced",)
    tol: float
    n_iters: int
    diag_interval: int

    @property
    def blocks_per_step(self) -> int:
        return self.emissions.ndim - 2 if self.kind == "cpdl" else 1


def read_matrix(text_or_path: str) -> np.ndarray:
    """An inline matrix ('a b; c d') or a comma-separated file."""
    if ";" in text_or_path or " " in text_or_path.strip():
        return np.array([[float(c) for c in row.split()]
                         for row in text_or_path.split(";") if row.strip()])
    with open(text_or_path, encoding="utf-8") as fh:
        return np.array([[float(c) for c in row] for row in csv.reader(fh) if row])


def problem_from_config(values: dict) -> Problem:
    """Rebuild the problem from the config's key=value pairs and input files."""
    shape = tuple(int(s) for s in values["app.tensor_shape"].split(","))
    bank = read_matrix(values["stream.emissions"])
    emissions = bank.reshape((bank.shape[0],) + shape)
    trans = read_matrix(values["stream.transition"])
    if values["stream.kind"] == "iid":
        trans = np.tile(trans.ravel(), (trans.size, 1))
    kind = values["schedule.kind"]
    if kind == "polylog":
        schedule = ("polylog", values["schedule.beta"], values["schedule.delta"])
    elif kind == "balanced":
        schedule = ("balanced",)
    else:
        raise ValueError(f"no closed form for schedule {kind!r}")
    lo = 0.0 if values["constraint.nonneg"] else values["constraint.lower"]
    return Problem(kind=values["app.kind"], P=trans, emissions=emissions,
                   lam=values["app.lambda"], lo=lo,
                   up=values["constraint.upper"], mode=values["engine.mode"].lower(),
                   c_prime=values["engine.c_prime"], schedule=schedule,
                   tol=values["solver.tol"], n_iters=values["engine.n_iters"],
                   diag_interval=values["engine.diag_interval"])


def read_diagnostics(path) -> dict:
    """Columns of a diagnostics CSV as float arrays."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:] if row])
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def weight(schedule: tuple, n: int) -> float:
    if schedule[0] == "balanced":
        return 1.0 / n
    _, beta, delta = schedule
    return min(1.0, n ** (-beta) * math.log(n + 1) ** (-delta))


def stationary(P: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1, from one linear solve."""
    S = P.shape[0]
    M = P.T - np.eye(S)
    M[-1, :] = 1.0
    rhs = np.zeros(S)
    rhs[-1] = 1.0
    return np.linalg.solve(M, rhs)


# weight of the extra least-squares row that carries the l1 term
L1_ROW = 1e-6


def code_loss(X: np.ndarray, D: np.ndarray, lam: float, lo: float, up: float) -> float:
    """min over lo <= H <= up of ||X - D H||_F^2 + lam ||H||_1, for lo >= 0.

    On a nonnegative box lam ||H||_1 = lam 1'H is linear.  One extra row
    a 1'h - b with b = -lam / (2 a) adds exactly lam 1'h to each column's
    least-squares objective, plus a^2 (1'h)^2 and a constant; so BVLS, an
    exact active-set method that needs no rank condition on D, solves a
    problem within a^2 (1'h)^2 <= a^2 (k up)^2 of the true one.  The true
    objective is then evaluated at the solution, so the result is at least
    the minimum and exceeds it by at most that much per column.
    """
    from scipy.optimize import lsq_linear

    if lo < 0:
        raise ValueError("the reference code solve needs a nonnegative box")
    A = np.vstack([D, np.full((1, D.shape[1]), L1_ROW)])
    total = 0.0
    for x in X.T:
        # the extra row's constant b^2 dominates the cost, so BVLS's relative
        # stopping rule would stop early: run until the cost stops falling
        h = lsq_linear(A, np.append(x, -lam / (2 * L1_ROW)), bounds=(lo, up),
                       method="bvls", tol=1e-300, max_iter=100).x
        r = x - D @ h
        total += float(r @ r) + lam * float(np.abs(h).sum())
    return total


def dictionary(kind: str, final) -> np.ndarray:
    """The (features, rank) dictionary of a final OMF or CPDL state."""
    if kind != "cpdl":
        return np.asarray(final.W, dtype=float)
    U = [np.asarray(Ui, dtype=float) for Ui in final.U]
    D = U[0]
    for Uk in U[1:]:
        D = np.einsum("ar,br->abr", D, Uk).reshape(-1, D.shape[1])
    return D


def expected_loss(prob: Problem, D: np.ndarray) -> float:
    pi = stationary(prob.P)
    batch = prob.emissions.shape[-1]
    return sum(p * code_loss(x.reshape(-1, batch), D, prob.lam, prob.lo, prob.up)
               for p, x in zip(pi, prob.emissions))


def final_iterate(kind: str, final) -> np.ndarray:
    if kind == "cpdl":
        return np.concatenate([np.ravel(Ui) for Ui in final.U])
    return np.ravel(final.W)


def check_run(prob: Problem, cols: dict, final) -> list[str]:
    """Every check of one run; returns the failures."""
    fails = []
    n = cols["n"]
    want_n = sorted(set(range(prob.diag_interval, prob.n_iters + 1, prob.diag_interval))
                    | {prob.n_iters})
    if n.tolist() != want_n:
        return [f"checkpoints {n.tolist()[:5]}... are not {want_n[:5]}..."]

    w = np.array([weight(prob.schedule, k) for k in range(1, prob.n_iters + 1)])
    w_at = w[n.astype(int) - 1]
    cum_at = np.cumsum(w)[n.astype(int) - 1]
    bad = np.flatnonzero(np.abs(cols["w_n"] - w_at) > REL * w_at)
    if bad.size:
        fails.append(f"w_n at n={int(n[bad[0]])} is {cols['w_n'][bad[0]]!r}, "
                     f"the schedule gives {w_at[bad[0]]!r}")
    bad = np.flatnonzero(np.abs(cols["cum_weight"] - cum_at) > REL * cum_at)
    if bad.size:
        fails.append(f"cum_weight at n={int(n[bad[0]])} is {cols['cum_weight'][bad[0]]!r}, "
                     f"the running sum is {cum_at[bad[0]]!r}")

    fbar, gbar = cols["fbar"], cols["gbar_val"]
    bad = np.flatnonzero(gbar < fbar - prob.tol - REL * (1.0 + np.abs(fbar)))
    if bad.size:
        fails.append(f"gbar_val {gbar[bad[0]]!r} < fbar {fbar[bad[0]]!r} "
                     f"at n={int(n[bad[0]])}: the surrogate does not majorize")

    if prob.mode == "c2":
        bound = math.sqrt(prob.blocks_per_step) * prob.c_prime * cols["w_n"]
        bad = np.flatnonzero(cols["step_norm"] > bound * (1.0 + 1e-9))
        if bad.size:
            fails.append(f"step_norm {cols['step_norm'][bad[0]]!r} > {bound[bad[0]]!r} "
                         f"at n={int(n[bad[0]])}: the trust region is broken")

    bad = np.flatnonzero(cols["eps_bar"] > prob.tol)
    if bad.size:
        fails.append(f"eps_bar {cols['eps_bar'][bad[0]]!r} > solver.tol at n={int(n[bad[0]])}")

    theta = final_iterate(prob.kind, final)
    if not (np.all(theta >= prob.lo) and np.all(theta <= prob.up)):
        fails.append(f"final iterate leaves the box [{prob.lo}, {prob.up}]: "
                     f"range [{theta.min()!r}, {theta.max()!r}]")

    D = dictionary(prob.kind, final)
    ref = expected_loss(prob, D)
    f_exp = float(cols["f_exp"][-1])
    slack = 1e-9 * (1.0 + abs(ref))
    # code_loss may exceed the minimum by (L1_ROW * k * up)^2 per column
    over = prob.emissions.shape[-1] * (L1_ROW * D.shape[1] * prob.up) ** 2
    if not (ref - over - slack <= f_exp <= ref + prob.tol + slack):
        fails.append(f"final f_exp {f_exp!r} is not the expected loss {ref!r} "
                     f"recomputed at the final iterate")
    return fails
