"""Closed-form quadratic surrogates, their factories, and recursive averaging.

Every surrogate in scope is quadratic in the parameter, optionally carrying a
symbolic l1 penalty tag.  That keeps the running average

    gbar_n = (1 - w_n) gbar_{n-1} + w_n g_n

exactly representable by a small parameter state (curvature, linear term,
constant), which both makes block minimization exact and bounds the state the
convergence theory tracks.

Two representations are used.  ``QuadSurrogate`` stores an explicit quadratic
over a flat vector.  ``FactorQuad`` stores the sufficient-statistics form

    g(W) = tr(W A W^T) - 2 tr(W B) + C,      W of shape (q, r),

which is the natural shape for dictionary updates in matrix and tensor
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

import numpy as np

from .geometry import BoxSet

__all__ = [
    "QuadSurrogate",
    "FactorQuad",
    "AveragedSurrogate",
    "make_lipschitz_surrogate",
    "make_prox_surrogate",
    "make_dc_surrogate",
    "make_factor_surrogate",
    "average_surrogate",
    "check_majorization",
]

_PSD_TOL = 1e-8


def _is_symmetric(M: np.ndarray) -> bool:
    """np.allclose(M, M.T, atol=1e-10) without its per-call overhead."""
    return bool((np.abs(M - M.T) <= 1e-10 + 1e-5 * np.abs(M.T)).all())


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
    """

    A: np.ndarray
    B: np.ndarray
    C: float
    anchor: np.ndarray
    L: float
    rho: float
    eps: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        anchor = np.asarray(self.anchor, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "anchor", anchor)
        r = A.shape[0]
        if A.shape != (r, r):
            raise ValueError("A must be square")
        if not _is_symmetric(A):
            raise ValueError("A must be symmetric")
        if B.shape[0] != r:
            raise ValueError("B row count must match A")
        if anchor.shape != (B.shape[1], r):
            raise ValueError("anchor must be (q, r)")

    @classmethod
    def from_stats(cls, A, B, C, anchor, eps: float = 0.0) -> "FactorQuad":
        """Build from sufficient statistics, with L and rho from one
        eigendecomposition of A (the Hessian in W is 2 A on every row)."""
        ev = np.linalg.eigvalsh(A)
        return cls(A=A, B=B, C=C, anchor=anchor, L=2.0 * max(float(ev[-1]), 1e-12),
                   rho=2.0 * max(float(ev[0]), 0.0), eps=eps)

    @property
    def r(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[1]

    @property
    def dim(self) -> int:
        return self.q * self.r

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.A)[0])

    def value(self, W: np.ndarray) -> float:
        W = self._as_matrix(W)
        WA = W @ self.A
        return float(np.sum(WA * W)) - 2.0 * float(np.sum(W * self.B.T)) + self.C

    def grad(self, W: np.ndarray) -> np.ndarray:
        W = self._as_matrix(W)
        return 2.0 * (W @ self.A - self.B.T)

    def _as_matrix(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        if W.ndim == 1:
            return W.reshape(self.q, self.r)
        if W.shape != (self.q, self.r):
            raise ValueError(f"expected shape {(self.q, self.r)}, got {W.shape}")
        return W


Surrogate = Union[QuadSurrogate, FactorQuad]


@dataclass(frozen=True)
class AveragedSurrogate:
    """Running average of surrogates together with its tolerance average.

    eps_bar follows eps_bar_n = (1 - w_n) eps_bar_{n-1} + w_n eps_n starting
    from zero, mirroring the surrogate recursion exactly.
    """

    core: Surrogate
    eps_bar: float = 0.0

    def value(self, theta: np.ndarray) -> float:
        return self.core.value(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.core.grad(theta)

    @property
    def dim(self) -> int:
        return self.core.dim


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


def make_factor_surrogate(
    X: np.ndarray,
    W_prev: np.ndarray,
    lam: float,
    code_set: BoxSet,
    tol: float = 1e-8,
) -> tuple[np.ndarray, FactorQuad]:
    """Variational surrogate for the factorization loss at W_prev.

    Solves the code problem H = argmin ||X - W_prev H||_F^2 + lam ||H||_1
    over the code box and freezes H, giving the quadratic-in-W surrogate

        g(W) = ||X - W H||_F^2 + lam ||H||_1
             = tr(W (H H^T) W^T) - 2 tr(W (H X^T)) + tr(X X^T) + lam ||H||_1.

    The constant keeps the penalty term so g is tight at W_prev up to the
    code solver's certified gap, which becomes this surrogate's eps.
    """
    from .subsolver import solve_code_lasso

    X = np.asarray(X, dtype=float)
    W_prev = np.asarray(W_prev, dtype=float)
    H, gap = solve_code_lasso(X, W_prev, lam, code_set, tol=tol)
    A = H @ H.T
    A = 0.5 * (A + A.T)
    B = (X @ H.T).T  # H X^T, computed through the same product the tensor path uses
    C = float(np.sum(X * X)) + lam * float(np.abs(H).sum())
    return H, FactorQuad.from_stats(A, B, C, W_prev, eps=float(gap))


# ---------------------------------------------------------------------------
# averaging


def average_surrogate(prev: AveragedSurrogate, g_n: Surrogate, w_n: float) -> AveragedSurrogate:
    """gbar_n = (1 - w_n) gbar_{n-1} + w_n g_n, all components convex-combined."""
    if not (0.0 < w_n <= 1.0):
        raise ValueError("w_n must be in (0, 1]")
    a, b = 1.0 - w_n, w_n
    core = prev.core
    if isinstance(core, FactorQuad) and isinstance(g_n, FactorQuad):
        new = FactorQuad(
            A=a * core.A + b * g_n.A,
            B=a * core.B + b * g_n.B,
            C=a * core.C + b * g_n.C,
            anchor=g_n.anchor,
            L=a * core.L + b * g_n.L,
            rho=a * core.rho + b * g_n.rho,
            eps=g_n.eps,
        )
    elif isinstance(core, QuadSurrogate) and isinstance(g_n, QuadSurrogate):
        if (core.l1_lambda > 0 or g_n.l1_lambda > 0) and not np.isclose(
            core.l1_lambda, g_n.l1_lambda
        ):
            raise ValueError("cannot average surrogates with different l1 penalties")
        if isinstance(core.curvature, np.ndarray) or isinstance(g_n.curvature, np.ndarray):
            curv = a * core.curvature_matrix() + b * g_n.curvature_matrix()
        else:
            curv = a * float(core.curvature) + b * float(g_n.curvature)
        new = QuadSurrogate(
            curvature=curv,
            linear=a * core.linear + b * g_n.linear,
            constant=a * core.constant + b * g_n.constant,
            anchor=g_n.anchor,
            L=a * core.L + b * g_n.L,
            rho=a * core.rho + b * g_n.rho,
            eps=g_n.eps,
            l1_lambda=g_n.l1_lambda,
        )
    else:
        raise TypeError("representation mismatch: cannot average factor and explicit forms")
    eps_bar = a * prev.eps_bar + b * g_n.eps
    return AveragedSurrogate(core=new, eps_bar=eps_bar)


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
