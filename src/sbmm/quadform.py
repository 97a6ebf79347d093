"""Closed-form quadratic surrogates, their factories, and recursive averaging.

Every surrogate in scope is quadratic in the parameter, optionally carrying a
symbolic l1 penalty tag.  That keeps the running average

    gbar_n = (1 - w_n) gbar_{n-1} + w_n g_n

exactly representable by a small parameter state (curvature, linear term,
constant), which both makes block minimization exact and bounds the state the
convergence theory tracks.

Two representations are used.  ``QuadSurrogate`` stores an explicit quadratic
over a flat vector; the factories (Lipschitz, proximal, difference of convex)
build it and ``average_surrogate`` folds it into the running average.
``FactorQuad`` stores the sufficient-statistics form

    g(W) = tr(W A W^T) - 2 tr(W B) + C,      W of shape (q, r),

which is the natural shape for dictionary updates in matrix and tensor
factorization; there the average is the statistics recursion of the step
(``factorize.omf_step``), and a ``FactorQuad`` wraps its result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "QuadSurrogate",
    "FactorQuad",
    "make_lipschitz_surrogate",
    "make_prox_surrogate",
    "make_dc_surrogate",
    "average_surrogate",
    "check_majorization",
]

_PSD_TOL = 1e-8


def _is_symmetric(M: np.ndarray) -> bool:
    """np.allclose(M, M.T, atol=1e-10) without its per-call overhead; a
    stack (K, r, r) is symmetric when each member is."""
    Mt = M.swapaxes(-1, -2)
    return bool((np.abs(M - Mt) <= 1e-10 + 1e-5 * np.abs(Mt)).all())


@dataclass(frozen=True)
class QuadSurrogate:
    """Explicit quadratic g(theta) = 0.5 theta' Q theta + b' theta + c.

    curvature is either a full symmetric matrix or a scalar, the scalar
    meaning Q = curvature * I.  An optional l1 tag adds l1_lambda*||theta||_1
    symbolically; block minimization handles it by soft thresholding.
    """

    curvature: Union[np.ndarray, float]
    linear: np.ndarray
    constant: float
    anchor: np.ndarray
    L: float
    rho: float
    eps: float = 0.0
    l1_lambda: float = 0.0

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        anchor = np.asarray(self.anchor, dtype=float)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "anchor", anchor)
        if isinstance(self.curvature, np.ndarray):
            Q = np.asarray(self.curvature, dtype=float)
            if Q.shape != (linear.size, linear.size):
                raise ValueError("curvature shape mismatch")
            if not _is_symmetric(Q):
                raise ValueError("curvature must be symmetric")
            object.__setattr__(self, "curvature", Q)
        if self.eps < 0 or self.rho < 0 or self.l1_lambda < 0:
            raise ValueError("eps, rho, l1_lambda must be nonnegative")

    @property
    def dim(self) -> int:
        return self.linear.size

    def curvature_matrix(self) -> np.ndarray:
        if isinstance(self.curvature, np.ndarray):
            return self.curvature
        return float(self.curvature) * np.eye(self.dim)

    def smooth_value(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.curvature, np.ndarray):
            quad = 0.5 * float(theta @ (self.curvature @ theta))
        else:
            quad = 0.5 * float(self.curvature) * float(theta @ theta)
        return quad + float(self.linear @ theta) + self.constant

    def value(self, theta: np.ndarray) -> float:
        v = self.smooth_value(theta)
        if self.l1_lambda > 0:
            v += self.l1_lambda * float(np.abs(theta).sum())
        return v

    def smooth_grad(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.curvature, np.ndarray):
            return self.curvature @ theta + self.linear
        return float(self.curvature) * theta + self.linear

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Gradient, with subgradient convention sign(0) = 0 for the l1 tag."""
        g = self.smooth_grad(theta)
        if self.l1_lambda > 0:
            g = g + self.l1_lambda * np.sign(theta)
        return g


@dataclass(frozen=True)
class FactorQuad:
    """Sufficient-statistics quadratic over a (q, r) matrix variable.

    eval(W) = tr(W A W^T) - 2 tr(W B) + C.  The anchor is the matrix at which
    the underlying surrogate is tight (up to eps).

    A stack of K such quadratics has a leading member axis on every field:
    A (K, r, r), B (K, r, q), C (K,), anchor (K, q, r), and so rho (K,).
    Its value at W (K, q, r) is one float per member, each computed as the
    member's own value would be.
    """

    A: np.ndarray
    B: np.ndarray
    C: float
    anchor: np.ndarray
    eps: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        anchor = np.asarray(self.anchor, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "anchor", anchor)
        r = A.shape[-1]
        lead = A.shape[:-2]
        if A.shape != lead + (r, r):
            raise ValueError("A must be square")
        if not _is_symmetric(A):
            raise ValueError("A must be symmetric")
        if B.shape[:-1] != lead + (r,):
            raise ValueError("B row count must match A")
        if anchor.shape != lead + (B.shape[-1], r):
            raise ValueError("anchor must be (q, r)")

    @cached_property
    def rho(self):
        """The strong convexity 2 lambda_min(A), floored at 0 (the Hessian in
        W is 2 A on every row), computed on first read; a stack's come from
        one batched eigvalsh."""
        ev = np.linalg.eigvalsh(self.A)
        if ev.ndim == 2:
            return np.array([2.0 * max(e[0], 0.0) for e in ev.tolist()])
        return 2.0 * max(float(ev[0]), 0.0)

    def members(self, idx) -> "FactorQuad":
        """The members idx (a list of indices) of a stack, as a stack."""
        return FactorQuad(A=self.A[idx], B=self.B[idx], C=self.C[idx], anchor=self.anchor[idx],
                          eps=self.eps)

    @property
    def r(self) -> int:
        return self.A.shape[-1]

    @property
    def q(self) -> int:
        return self.B.shape[-1]

    @property
    def dim(self) -> int:
        return self.q * self.r

    def value(self, W: np.ndarray):
        W = self._as_matrix(W)
        WA = W @ self.A
        if W.ndim == 2:
            return float((WA * W).sum()) - 2.0 * float((W * self.B.T).sum()) + self.C
        return ((WA * W).sum(axis=(1, 2)) - 2.0 * (W * self.B.swapaxes(1, 2)).sum(axis=(1, 2))
                + self.C)

    def grad(self, W: np.ndarray) -> np.ndarray:
        W = self._as_matrix(W)
        return 2.0 * (W @ self.A - self.B.swapaxes(-1, -2))

    def _as_matrix(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        lead = self.A.shape[:-2]
        if W.ndim == len(lead) + 1:
            return W.reshape(lead + (self.q, self.r))
        if W.shape != lead + (self.q, self.r):
            raise ValueError(f"expected shape {lead + (self.q, self.r)}, got {W.shape}")
        return W


# ---------------------------------------------------------------------------
# factories


def make_lipschitz_surrogate(
    f_value: float, grad: np.ndarray, theta_star: np.ndarray, L: float
) -> QuadSurrogate:
    """Upper bound for an L-smooth function, tight at the anchor:

        g(theta) = f* + <grad, theta - theta*> + (L/2) ||theta - theta*||^2.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    grad = np.asarray(grad, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    linear = grad - L * theta_star
    constant = f_value - float(grad @ theta_star) + 0.5 * L * float(theta_star @ theta_star)
    return QuadSurrogate(curvature=float(L), linear=linear, constant=constant,
                         anchor=theta_star, L=L, rho=L, eps=0.0)


def make_prox_surrogate(
    f1_value: float,
    f1_grad: np.ndarray,
    l1_lambda: float,
    theta_star: np.ndarray,
    L: float,
) -> QuadSurrogate:
    """Smooth-part Lipschitz surrogate plus a symbolic l1 penalty.

    Minimizing the result over a box performs a proximal gradient step
    (soft threshold, then clip).  Only the l1 penalty is supported.
    """
    if l1_lambda < 0:
        raise ValueError("l1 penalty weight must be >= 0")
    base = make_lipschitz_surrogate(f1_value, f1_grad, theta_star, L)
    if l1_lambda == 0:
        return base
    return replace(base, l1_lambda=float(l1_lambda))


def make_dc_surrogate(
    f1_curvature: Union[np.ndarray, float],
    f1_linear: np.ndarray,
    f1_constant: float,
    f2_value: float,
    f2_grad: np.ndarray,
    theta_star: np.ndarray,
    rho: float = 0.0,
) -> QuadSurrogate:
    """Surrogate for f = f1 + f2 with f1 convex quadratic and f2 concave:
    the concave part is linearized at the anchor, which majorizes it.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    f1_linear = np.asarray(f1_linear, dtype=float)
    f2_grad = np.asarray(f2_grad, dtype=float)
    if isinstance(f1_curvature, np.ndarray):
        ev_min = float(np.linalg.eigvalsh(np.asarray(f1_curvature, float))[0])
    else:
        ev_min = float(f1_curvature)
    if ev_min < -_PSD_TOL:
        raise ValueError("convex part curvature must be PSD")
    linear = f1_linear + f2_grad
    constant = f1_constant + f2_value - float(f2_grad @ theta_star)
    # L of the error gradient: the error is f2's linearization gap, whose
    # gradient Lipschitz constant the caller knows better than we do; use the
    # convex part's curvature bound as a conservative stand-in.
    if isinstance(f1_curvature, np.ndarray):
        L_err = float(np.linalg.eigvalsh(np.asarray(f1_curvature, float))[-1])
    else:
        L_err = float(f1_curvature)
    return QuadSurrogate(curvature=f1_curvature, linear=linear, constant=constant,
                         anchor=theta_star, L=max(L_err, 1e-12), rho=max(rho, 0.0))


# ---------------------------------------------------------------------------
# averaging


def average_surrogate(prev: QuadSurrogate, g_n: QuadSurrogate, w_n: float) -> QuadSurrogate:
    """gbar_n = (1 - w_n) gbar_{n-1} + w_n g_n, all components convex-combined."""
    if not (0.0 < w_n <= 1.0):
        raise ValueError("w_n must be in (0, 1]")
    a, b = 1.0 - w_n, w_n
    if (prev.l1_lambda > 0 or g_n.l1_lambda > 0) and not np.isclose(prev.l1_lambda, g_n.l1_lambda):
        raise ValueError("cannot average surrogates with different l1 penalties")
    if isinstance(prev.curvature, np.ndarray) or isinstance(g_n.curvature, np.ndarray):
        curv = a * prev.curvature_matrix() + b * g_n.curvature_matrix()
    else:
        curv = a * float(prev.curvature) + b * float(g_n.curvature)
    return QuadSurrogate(
        curvature=curv,
        linear=a * prev.linear + b * g_n.linear,
        constant=a * prev.constant + b * g_n.constant,
        anchor=g_n.anchor,
        L=a * prev.L + b * g_n.L,
        rho=a * prev.rho + b * g_n.rho,
        eps=g_n.eps,
        l1_lambda=g_n.l1_lambda,
    )


def check_majorization(
    g,
    f_evaluator: Callable[[np.ndarray], float],
    sample_points: Sequence[np.ndarray],
    eps: float = 0.0,
) -> float:
    """Max over samples of f(theta) - g(theta) - eps; nonpositive means the
    surrogate eps-majorizes f on the sample."""
    worst = -np.inf
    for theta in sample_points:
        worst = max(worst, f_evaluator(theta) - g.value(theta) - eps)
    return float(worst)
