"""Online matrix and tensor factorization built on the averaged-surrogate
machinery.

Two concrete algorithms: online matrix factorization (OMF), whose
dictionary update may be restricted to a subset of rows, and online
CP-dictionary learning (CPDL).  Both keep the same sufficient statistics

    A_n = (1 - w_n) A_{n-1} + w_n H_n H_n^T
    B_n = (1 - w_n) B_{n-1} + w_n (contraction of X_n against H_n)
    C_n = (1 - w_n) C_{n-1} + w_n (||X_n||_F^2 + lam ||H_n||_1)

so the averaged surrogate of the dictionary is an exact quadratic.  For CPDL
the dictionary is a list of per-mode loading matrices and each mode's update
reduces to the same quadratic form through Hadamard products of the other
modes' Gram matrices.  A CPDL step takes the flat dictionary of its previous
loading matrices from the runner when it has one (D_prev), and names the
mode whose block solve raised.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BoxSet, GeometryError
from .quadform import FactorQuad
from .subsolver import SubsolverError, _start_array, solve_code_lasso, solve_block_quadratic

__all__ = [
    "out_product",
    "omf_step",
    "cpdl_step",
    "OmfState",
    "CpdlState",
    "OmfStepResult",
    "CpdlStepResult",
    "factor_loss_lipschitz_bound",
]


def out_product(U: list[np.ndarray]) -> np.ndarray:
    """Rank-1 dictionary tensor: slice j along the last axis is the outer
    product of the j-th columns of the loading matrices."""
    r = U[0].shape[1]
    for Uk in U[1:]:
        if Uk.shape[1] != r:
            raise ValueError("loading matrices must share the column count")
    D = np.asarray(U[0], dtype=float)
    for Uk in U[1:]:
        D = D[..., None, :] * np.asarray(Uk, dtype=float)
    return D


def _contract_except(T: np.ndarray, U: list[np.ndarray], i: int) -> np.ndarray:
    """Contract all modes but i of T(..., j) with the j-th columns of the
    other loading matrices; returns an (I_i, r) matrix."""
    m = len(U)
    if m == 1:
        return T
    return np.einsum(_contraction(m, i), T, *U[:i], *U[i + 1:])


@lru_cache(maxsize=None)
def _contraction(m: int, i: int) -> str:
    """_contract_except's einsum subscripts for m modes, keeping mode i."""
    letters = string.ascii_lowercase
    others = ",".join(letters[k] + "j" for k in range(m) if k != i)
    return f"{letters[:m]}j,{others}->{letters[i]}j"


# ---------------------------------------------------------------------------
# OMF


@dataclass
class OmfStepResult:
    """The step's code, statistics, dictionary and certified code gap, with
    the averaged surrogate it minimized (anchored at W_prev), its value
    g_prev at W_prev, the block solve's descent certificate, and its value
    g_new at W.  A stacked step's fields carry the member axis: H (K, r, d),
    A (K, r, r), B (K, r, q), C and eps (K,), W (K, q, r) and a stacked
    quad; g_prev and g_new are lists of K floats."""

    H: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    W: np.ndarray
    eps: float
    quad: FactorQuad
    g_prev: float
    g_new: float

    def __post_init__(self):
        self._valued = self.W.tobytes()  # the W that g_new is the value at

    def value_at(self, W: np.ndarray):
        """The surrogate's value at W in g_new's form (a float, or a list per
        member): g_new when W holds the bytes of the step's own result, else
        evaluated here."""
        if W.tobytes() == self._valued:
            return self.g_new
        value = self.quad.value(W)
        return value if W.ndim == 2 else value.tolist()


def omf_step(
    X: np.ndarray,
    W_prev: np.ndarray,
    A_prev: np.ndarray,
    B_prev: np.ndarray,
    w_n: float,
    lam: float,
    dict_box: BoxSet,
    code_set: BoxSet,
    C_prev: float = 0.0,
    radius: float = math.inf,
    tol: float = 1e-8,
    rows: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> OmfStepResult:
    """One online matrix factorization step: the code H of X at W_prev
    (solve_code_lasso, its certified gap the result's eps), the statistics
    A, B and C averaged with weight w_n, then the dictionary solve of their
    FactorQuad over dict_box (solve_block_quadratic, within the ball of the
    given radius; given rows, only those rows move), whose descent
    certificate is the result's (g_prev, g_new).  H0 is an array of H's
    shape, nan where there is no start (None: nan everywhere).  One sample X
    (q, d) takes W_prev (q, r), A_prev (r, r), B_prev (r, q) and a float
    C_prev; a stack of K leads each of these with a member axis, rows then
    holds one row array per member (a (K, m) array when all draw m), the
    certificate is two lists of K floats, and each member gets its own
    step's bytes (see the README's Invariants).
    """
    X = np.asarray(X, dtype=float)
    W_prev = np.asarray(W_prev, dtype=float)
    H, gap = solve_code_lasso(X, W_prev, lam, code_set, tol=tol, H0=H0)
    Ht = H.swapaxes(-1, -2)
    A = (1.0 - w_n) * A_prev + w_n * (H @ Ht)
    B = (1.0 - w_n) * B_prev + w_n * (X @ Ht).swapaxes(-1, -2)
    if X.ndim == 2:
        C = (1.0 - w_n) * C_prev + w_n * (float((X * X).sum()) + lam * float(np.abs(H).sum()))
    else:  # each member's C in the Python floats of a single step's
        C = np.array([(1.0 - w_n) * c + w_n * (x + lam * h) for c, x, h in zip(
            np.asarray(C_prev).tolist(), np.add.reduce(X * X, axis=(1, 2)).tolist(),
            np.add.reduce(np.abs(H), axis=(1, 2)).tolist())])
    quad = FactorQuad(A, B, C, W_prev)
    # the dictionary problem on the step's rows, inside box-and-ball; a
    # stack solves one batch per row count
    if rows is None or X.ndim == 2:
        if rows is not None:
            rows = np.asarray(rows, dtype=int)
            if rows.size == 0:
                raise ValueError("empty row subset")
        W, g_prev, g_new = solve_block_quadratic(quad, dict_box, radius, rows, tol=tol)
    else:
        sizes = [len(rj) for rj in rows]
        if min(sizes) == 0:
            raise ValueError("empty row subset")
        if len(set(sizes)) == 1:
            W, g_prev, g_new = solve_block_quadratic(quad, dict_box, radius,
                                                     np.asarray(rows, dtype=int), tol=tol)
        else:
            W = np.empty(W_prev.shape)
            g_prev, g_new = [0.0] * len(rows), [0.0] * len(rows)
            for size in sorted(set(sizes)):
                group = [j for j, n in enumerate(sizes) if n == size]
                W[group], values, new = solve_block_quadratic(
                    quad.members(group), dict_box, radius,
                    np.array([rows[j] for j in group], dtype=int), tol=tol)
                for j, v, n in zip(group, values, new):
                    g_prev[j], g_new[j] = v, n
    return OmfStepResult(H=H, A=A, B=B, C=C, W=W, eps=gap, quad=quad, g_prev=g_prev,
                         g_new=g_new)


def subsampled_omf_step(X, W_prev, A_prev, B_prev, w_n, lam, dict_box, code_set,
                        rows, **kwargs) -> OmfStepResult:
    """omf_step with the dictionary update frozen outside the given rows;
    kept because the benchmark's layer tracer (perfbench/layers.py) wraps
    this name."""
    return omf_step(X, W_prev, A_prev, B_prev, w_n, lam, dict_box, code_set, rows=rows, **kwargs)


@dataclass
class OmfState:
    """Driver state for a plain or subsampled OMF run, or for a stack of
    runs (every field with a leading member axis)."""

    W: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    eps_sum: float = 0.0
    n: int = 0

    @classmethod
    def initial(cls, W0: np.ndarray, rho0: float = 0.0) -> "OmfState":
        """From W0 (q, r), or a stack's start dictionaries (K, q, r)."""
        W0 = np.asarray(W0, dtype=float)
        lead, r = W0.shape[:-2], W0.shape[-1]
        # rho0 > 0 seeds the average with (rho0/2)||W - W0||^2, the strongly
        # convex warm start the no-trust-region mode needs; a single run's C
        # and eps_sum are Python floats
        C0 = 0.5 * rho0 * (W0 * W0).sum(axis=(-2, -1))
        return cls(W=W0.copy(), A=0.5 * rho0 * np.broadcast_to(np.eye(r), lead + (r, r)),
                   B=0.5 * rho0 * W0.swapaxes(-1, -2), C=C0 if lead else float(C0),
                   eps_sum=np.zeros(lead) if lead else 0.0)


# ---------------------------------------------------------------------------
# CPDL


@dataclass
class CpdlStepResult:
    """The step's code, statistics, loading matrices and certified code gap,
    and its averaged surrogate, a quadratic in the flat dictionary (p, r)
    anchored at the previous one."""

    H: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    U: list[np.ndarray]
    eps: float
    quad: FactorQuad


def cpdl_step(
    X: np.ndarray,
    U_prev: list[np.ndarray],
    A_prev: np.ndarray,
    B_prev: np.ndarray,
    w_n: float,
    lam: float,
    factor_boxes: list[BoxSet],
    code_set: BoxSet,
    C_prev: float = 0.0,
    radius: float = math.inf,
    tol: float = 1e-8,
    D_prev: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> CpdlStepResult:
    """One online CP-dictionary learning step on a minibatch X (I_1, ...,
    I_m, b): the code at the previous loading matrices (solve_code_lasso
    from H0, an array of the code's shape (r, b), nan where there is no
    start; None: nan everywhere), the statistics averaged with weight w_n,
    then each loading matrix once, cyclically, within its own ball of the
    given radius, the other factors at their latest values.  A mode's
    curvature is A times the other modes' Grams, symmetrized unless it equals
    its transpose exactly.  The averaged surrogate is a FactorQuad in the
    flat dictionary anchored at out_product(U_prev) flattened: D_prev when
    given, else built here.  A block solve's SubsolverError or GeometryError
    is raised again, of its type and chained, with "mode i: " in front.
    """
    X = np.asarray(X, dtype=float)
    m = len(U_prev)
    r = U_prev[0].shape[1]
    b = X.shape[-1]

    D_mat = (out_product(U_prev) if D_prev is None else D_prev).reshape(-1, r)
    X_mat = X.reshape(-1, b)
    H, gap = solve_code_lasso(X_mat, D_mat, lam, code_set, tol=tol, H0=H0)

    A = (1.0 - w_n) * A_prev + w_n * (H @ H.T)
    B_upd = (X_mat @ H.T).reshape(X.shape[:-1] + (r,))
    B = (1.0 - w_n) * B_prev + w_n * B_upd
    C = (1.0 - w_n) * C_prev + w_n * (float((X * X).sum()) + lam * float(np.abs(H).sum()))

    U = [np.asarray(Ui, dtype=float) for Ui in U_prev]  # each is replaced, never written
    # mode 0's Gram is not read before mode 0's solve replaces it
    grams = [None] + [Ui.T @ Ui for Ui in U[1:]]
    for i in range(m):
        others = _hadamard_except(grams, i)
        gamma = A if others is None else A * others
        # A and the Grams, X @ X.T forms, are exactly symmetric, and so is their product
        if m > 1 and gamma.tolist() != gamma.T.tolist():
            gamma = 0.5 * (gamma + gamma.T)
        quad = FactorQuad(gamma, _contract_except(B, U, i).T, 0.0, U[i])
        try:
            U[i] = solve_block_quadratic(quad, factor_boxes[i], radius, tol=tol)[0]
        except (SubsolverError, GeometryError) as e:
            raise type(e)(f"mode {i}: {e}") from e
        if i < m - 1:  # the last mode's Gram is not read again
            grams[i] = U[i].T @ U[i]
    return CpdlStepResult(H=H, A=A, B=B, C=C, U=U, eps=gap,
                          quad=FactorQuad(A, B.reshape(-1, r).T, C, D_mat))


def _hadamard_except(grams: list[np.ndarray], i: int):
    """The entrywise product, in mode order, of every Gram matrix but the
    i-th; None when there is no other."""
    out = None
    for k, G in enumerate(grams):
        if k != i:
            out = G if out is None else out * G
    return out


@dataclass
class CpdlState:
    """Driver state for a CPDL run."""

    U: list[np.ndarray]
    A: np.ndarray
    B: np.ndarray
    C: float
    eps_sum: float = 0.0
    n: int = 0

    @classmethod
    def initial(cls, U0: list[np.ndarray]) -> "CpdlState":
        """Empty statistics at the loading matrices U0."""
        U0 = [np.asarray(Ui, dtype=float).copy() for Ui in U0]
        r = U0[0].shape[1]
        return cls(U=U0, A=np.zeros((r, r)), B=np.zeros(tuple(len(Ui) for Ui in U0) + (r,)),
                   C=0.0)


# ---------------------------------------------------------------------------
# loss helpers


def code_loss(X: np.ndarray, D: np.ndarray, H: np.ndarray, lam: float):
    """Per-sample values ||X_s - D H_s||_F^2 + lam ||H_s||_1 at the given codes,
    and the residuals X - D H, for a stack X (S, p, b) of flattened samples
    with codes H (S, r, b) against the flat dictionary D (p, r), or for K
    members' stacks, (K, S, p, b) and (K, S, r, b), each against its own D
    (K, p, r)."""
    R = X - D[..., None, :, :] @ H
    return (R * R).sum(axis=(-2, -1)) + lam * np.abs(H).sum(axis=(-2, -1)), R


def _stacked_codes(X: np.ndarray, D: np.ndarray, lam: float, code_set: BoxSet,
                   tol: float, H0: np.ndarray | None = None) -> np.ndarray:
    """Optimal codes (S, r, b) of a stack X (S, p, b) against D (p, r), or
    (K, S, r, b) of K members' stacks against their own D (K, p, r), in one
    solve_code_lasso call: every code column of a member shares the Hessian
    D'D, so its samples' columns are laid side by side, sample after sample,
    and so are those of H0, an array of the codes' shape, nan where there is
    no start (None: nan everywhere; another shape raises ValueError)."""
    *lead, S, p, b = X.shape
    r = D.shape[-1]
    if H0 is not None:
        H0 = _start_array(H0, (*lead, S, r, b)).swapaxes(-3, -2).reshape(*lead, r, S * b)
    H, _ = solve_code_lasso(X.swapaxes(-3, -2).reshape(*lead, p, S * b), D, lam,
                            code_set, tol=tol, H0=H0)
    return H.swapaxes(-1, -2).reshape(*lead, S, b, r).swapaxes(-1, -2)


def factor_loss(X: np.ndarray, W: np.ndarray, lam: float, code_set: BoxSet,
                tol: float = 1e-8, H0: np.ndarray | None = None):
    """Matrix factorization loss min_H ||X - W H||_F^2 + lam ||H||_1 over the
    code box, its gradient in W by the optimal-code envelope rule, and H.

    One (q, d) sample gives (value, gradient (q, r), H (r, d)); a stack
    (S, q, d) gives values (S,), gradients (S, q, r) and codes (S, r, d),
    all from one code solve (_stacked_codes), stopped at its certified gap
    <= tol; K members' stacks (K, S, q, d) against their own W (K, q, r)
    give each of these with a leading member axis, each member's the bytes
    of its own call.  H0 is an array of H's shape, nan where there is no
    start (None: nan everywhere).
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    one = X.ndim == 2
    Xs = X[None] if one else X
    if one and H0 is not None:
        H0 = np.asarray(H0, dtype=float)[None]
    H = _stacked_codes(Xs, W, lam, code_set, tol, H0)
    values, R = code_loss(Xs, W, H, lam)
    grads = -2.0 * R @ H.swapaxes(-1, -2)
    return (float(values[0]), grads[0], H[0]) if one else (values, grads, H)


def cpdl_loss(X: np.ndarray, U: list[np.ndarray], lam: float, code_set: BoxSet,
              tol: float = 1e-8):
    """CP reconstruction loss with optimal code.

    One (I_1, ..., I_m, b) sample gives (value, per-factor gradient list, H
    (r, b)); a stack (S, I_1, ..., I_m, b) gives values (S,), per-factor
    gradients of shape (S, I_k, r) and codes (S, r, b), all from one code
    solve.
    """
    X = np.asarray(X, dtype=float)
    r = U[0].shape[1]
    one = X.ndim == len(U) + 1
    Xs = X[None] if one else X
    S, b = Xs.shape[0], Xs.shape[-1]
    X_mat = Xs.reshape(S, -1, b)
    D_mat = out_product(U).reshape(-1, r)
    H = _stacked_codes(X_mat, D_mat, lam, code_set, tol)
    values, R = code_loss(X_mat, D_mat, H, lam)
    T = (R @ H.transpose(0, 2, 1)).reshape(Xs.shape[:-1] + (r,))
    # one contraction per sample: a stacked einsum may sum in another order,
    # and a sample's gradient would then depend on the stack it came in
    grads = [np.stack([-2.0 * _contract_except(Ts, U, i) for Ts in T])
             for i in range(len(U))]
    if one:
        return float(values[0]), [g[0] for g in grads], H[0]
    return values, grads, H


def factor_loss_lipschitz_bound(emissions: list, dict_box: BoxSet,
                                code_set: BoxSet, r: int) -> float:
    """Safe upper bound on sup over the box of the dictionary-gradient norm
    of the factorization loss: ||grad|| = 2 ||(X - W H) H^T|| with H confined
    to the code box."""
    d = int(np.asarray(emissions[0]).shape[-1])
    x_max = max(float(np.linalg.norm(np.asarray(e, float))) for e in emissions)
    w_max = float(np.linalg.norm(np.maximum(np.abs(dict_box.lower), np.abs(dict_box.upper))))
    h_entry = float(np.max(np.maximum(np.abs(code_set.lower), np.abs(code_set.upper))))
    h_max = h_entry * math.sqrt(r * max(d, 1))
    return 2.0 * (x_max + w_max * h_max) * h_max
