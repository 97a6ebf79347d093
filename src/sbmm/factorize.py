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
modes' Gram matrices.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoxSet, restricted_block_set
from .quadform import FactorQuad
from .subsolver import solve_code_lasso, solve_block_quadratic

__all__ = [
    "out_product",
    "unfold",
    "fold",
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


def unfold(T: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k matricization; columns run lexicographically over the remaining
    indices in their original order."""
    T = np.asarray(T)
    if not (0 <= mode < T.ndim):
        raise ValueError("invalid mode")
    return np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)


def fold(M: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of unfold for the given full tensor shape."""
    if not (0 <= mode < len(shape)):
        raise ValueError("invalid mode")
    rest = tuple(s for i, s in enumerate(shape) if i != mode)
    return np.moveaxis(M.reshape((shape[mode],) + rest), 0, mode)


def _contract_except(T: np.ndarray, U: list[np.ndarray], i: int) -> np.ndarray:
    """Contract all modes but i of T(..., j) with the j-th columns of the
    other loading matrices; returns an (I_i, r) matrix."""
    m = len(U)
    if m == 1:
        return T
    letters = string.ascii_lowercase
    t_sub = letters[:m] + "j"
    operands = [T]
    subs = [t_sub]
    for k in range(m):
        if k == i:
            continue
        operands.append(U[k])
        subs.append(letters[k] + "j")
    return np.einsum(",".join(subs) + "->" + letters[i] + "j", *operands)


# ---------------------------------------------------------------------------
# OMF


@dataclass
class OmfStepResult:
    H: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    W: np.ndarray
    eps: float


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
) -> OmfStepResult:
    """One online matrix factorization step: code solve at the previous
    dictionary, statistics update, then the dictionary quadratic solve
    (within the trust region when a finite radius is given).  Given rows,
    the dictionary update is frozen outside them."""
    X = np.asarray(X, dtype=float)
    W_prev = np.asarray(W_prev, dtype=float)
    q, r = W_prev.shape
    if rows is None:
        J_flat = np.arange(q * r)
    else:
        rows = np.asarray(rows, dtype=int)
        if rows.size == 0:
            raise ValueError("empty row subset")
        J_flat = (rows[:, None] * r + np.arange(r)[None, :]).ravel()
    H, gap = solve_code_lasso(X, W_prev, lam, code_set, tol=tol)
    A = (1.0 - w_n) * A_prev + w_n * (H @ H.T)
    B = (1.0 - w_n) * B_prev + w_n * (X @ H.T).T
    C = (1.0 - w_n) * C_prev + w_n * (float(np.sum(X * X)) + lam * float(np.abs(H).sum()))
    # the dictionary problem on the coordinates J_flat, inside box-and-ball
    w_flat = W_prev.ravel()
    feas = restricted_block_set(dict_box, w_flat, J_flat, radius)
    W = solve_block_quadratic(FactorQuad.from_stats(A, B, C, W_prev), feas, w_flat,
                              tol=tol).reshape(q, r)
    return OmfStepResult(H=H, A=A, B=B, C=C, W=W, eps=gap)


def subsampled_omf_step(X, W_prev, A_prev, B_prev, w_n, lam, dict_box, code_set,
                        rows, **kwargs) -> OmfStepResult:
    """omf_step with the dictionary update frozen outside the given rows;
    kept because the benchmark's layer tracer (perfbench/layers.py) wraps
    this name."""
    return omf_step(X, W_prev, A_prev, B_prev, w_n, lam, dict_box, code_set, rows=rows, **kwargs)


@dataclass
class OmfState:
    """Driver state for a plain or subsampled OMF run."""

    W: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    eps_sum: float = 0.0
    n: int = 0

    @classmethod
    def initial(cls, W0: np.ndarray, rho0: float = 0.0) -> "OmfState":
        W0 = np.asarray(W0, dtype=float)
        r = W0.shape[1]
        # rho0 > 0 seeds the average with (rho0/2)||W - W0||^2, the strongly
        # convex warm start the no-trust-region mode needs
        A0 = 0.5 * rho0 * np.eye(r)
        B0 = 0.5 * rho0 * W0.T
        C0 = 0.5 * rho0 * float(np.sum(W0 * W0))
        return cls(W=W0.copy(), A=A0, B=B0, C=C0)


# ---------------------------------------------------------------------------
# CPDL


@dataclass
class CpdlStepResult:
    H: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float
    U: list[np.ndarray]
    eps: float


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
) -> CpdlStepResult:
    """One online CP-dictionary learning step.

    The minibatch tensor X has shape (I_1, ..., I_m, b).  The code is solved
    at the previous loading matrices, the statistics are averaged, and then
    each loading matrix is updated once, cyclically, within its own ball of
    the given radius, holding the other factors at their latest values.
    """
    X = np.asarray(X, dtype=float)
    m = len(U_prev)
    r = U_prev[0].shape[1]
    b = X.shape[-1]

    D = out_product(U_prev)
    D_mat = D.reshape(-1, r)
    X_mat = X.reshape(-1, b)
    H, gap = solve_code_lasso(X_mat, D_mat, lam, code_set, tol=tol)

    A = (1.0 - w_n) * A_prev + w_n * (H @ H.T)
    B_upd = (X_mat @ H.T).reshape(X.shape[:-1] + (r,))
    B = (1.0 - w_n) * B_prev + w_n * B_upd
    C = (1.0 - w_n) * C_prev + w_n * (float(np.sum(X * X)) + lam * float(np.abs(H).sum()))

    U = [np.asarray(Ui, dtype=float).copy() for Ui in U_prev]
    grams = [Ui.T @ Ui for Ui in U]
    for i in range(m):
        gamma = A * _hadamard_except(grams, i, r)
        lin = _contract_except(B, U, i)
        quad = FactorQuad.from_stats(0.5 * (gamma + gamma.T) if m > 1 else gamma,
                                     lin.T, 0.0, U[i])
        u_flat = U[i].ravel()
        feas = restricted_block_set(factor_boxes[i], u_flat,
                                    np.arange(u_flat.size), radius)
        U[i] = solve_block_quadratic(quad, feas, u_flat, tol=tol).reshape(U[i].shape)
        grams[i] = U[i].T @ U[i]
    return CpdlStepResult(H=H, A=A, B=B, C=C, U=U, eps=gap)


def _hadamard_except(grams: list[np.ndarray], i: int, r: int) -> np.ndarray:
    out = np.ones((r, r))
    for k, G in enumerate(grams):
        if k != i:
            out = out * G
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
    def initial(cls, U0: list[np.ndarray], rho0: float = 0.0) -> "CpdlState":
        U0 = [np.asarray(Ui, dtype=float).copy() for Ui in U0]
        r = U0[0].shape[1]
        A0 = 0.5 * rho0 * np.eye(r)
        D0 = out_product(U0)
        B0 = 0.5 * rho0 * D0
        C0 = 0.5 * rho0 * float(np.sum(D0 * D0))
        return cls(U=U0, A=A0, B=B0, C=C0)


# ---------------------------------------------------------------------------
# loss helpers


def code_loss(X: np.ndarray, D: np.ndarray, H: np.ndarray, lam: float):
    """Per-sample values ||X_s - D H_s||_F^2 + lam ||H_s||_1 at the given codes,
    and the residuals X - D H, for a stack X (S, p, b) of flattened samples
    with codes H (S, r, b) against the flat dictionary D (p, r)."""
    R = X - D @ H
    return (R * R).sum(axis=(1, 2)) + lam * np.abs(H).sum(axis=(1, 2)), R


def _stacked_codes(X: np.ndarray, D: np.ndarray, lam: float, code_set: BoxSet,
                   tol: float) -> np.ndarray:
    """Optimal codes (S, r, b) of a stack X (S, p, b) against D (p, r).

    Every code column shares the Hessian D'D, so the whole stack is one
    solve_code_lasso call; a per-entry code box (dim r*b) is tiled over the
    stack.
    """
    S, p, b = X.shape
    r = D.shape[1]
    if S > 1 and code_set.dim == r * b:
        code_set = BoxSet(np.tile(code_set.lower.reshape(r, b), S).ravel(),
                          np.tile(code_set.upper.reshape(r, b), S).ravel())
    H, _ = solve_code_lasso(X.transpose(1, 0, 2).reshape(p, S * b), D, lam,
                            code_set, tol=tol)
    return H.T.reshape(S, b, r).transpose(0, 2, 1)


def factor_loss(X: np.ndarray, W: np.ndarray, lam: float, code_set: BoxSet,
                tol: float = 1e-8):
    """Matrix factorization loss min_H ||X - W H||_F^2 + lam ||H||_1 over the
    code box, its gradient in W by the optimal-code envelope rule, and H.

    One (q, d) sample gives (value, gradient (q, r), H (r, d)); a stack
    (S, q, d) gives values (S,), gradients (S, q, r) and codes (S, r, d),
    all from one code solve.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    one = X.ndim == 2
    Xs = X[None] if one else X
    H = _stacked_codes(Xs, W, lam, code_set, tol)
    values, R = code_loss(Xs, W, H, lam)
    grads = -2.0 * R @ H.transpose(0, 2, 1)
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
    if code_set.dim == r:
        h_max = h_entry * math.sqrt(r * max(d, 1))
    else:
        h_max = float(np.linalg.norm(np.maximum(np.abs(code_set.lower),
                                                np.abs(code_set.upper))))
    return 2.0 * (x_max + w_max * h_max) * h_max
