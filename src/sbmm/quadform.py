"""Closed-form quadratic surrogates.

Every surrogate in scope is quadratic in the parameter.  That keeps the
running average

    gbar_n = (1 - w_n) gbar_{n-1} + w_n g_n

exactly representable by a small parameter state (curvature, linear term,
constant), which both makes block minimization exact and bounds the state the
convergence theory tracks.

``FactorQuad`` stores the sufficient-statistics form

    g(W) = tr(W A W^T) - 2 tr(W B) + C,      W of shape (q, r),

which is the natural shape for dictionary updates in matrix and tensor
factorization; there the average is the statistics recursion of the step
(``factorize.omf_step``), and a ``FactorQuad`` wraps its result.  Every
block solve minimizes whole rows of one (``subsolver.solve_block_quadratic``).

Construction checks the fields once: A square and symmetric (exactly, or
within a tolerance), B and the anchor of matching shapes.  ``value`` checks
its point; ``value_pair`` takes two points that need no check, the anchor
and a solve's result, and at r = 2 reads them straight into the Python-float
sum (``_pair_values``) that ``value`` also takes for a few points, member by
member for a small stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["FactorQuad"]


def _is_symmetric(M: np.ndarray) -> bool:
    """np.allclose(M, M.T, atol=1e-10) without its per-call overhead; a
    stack (K, r, r) is symmetric when each member is.  An M equal to its
    transpose, as the statistics updates make it, passes at once: one
    comparison of Python floats for one (r, r) M (nan and +-0 compare as
    == compares them), one of arrays for a stack."""
    Mt = M.swapaxes(-1, -2)
    if (M.tolist() == Mt.tolist()) if M.ndim == 2 else (M == Mt).all():
        return True
    return bool((np.abs(M - Mt) <= 1e-10 + 1e-5 * np.abs(Mt)).all())


# FactorQuad.value at r = 2 sums the points of a single quad in Python
# floats while they have at most this many rows in all, every other W (a
# stack's included) as arrays.  Timed per call (numpy 2.4, one core, best
# of 7 runs of 2000): the floats cost about 2.5 us plus 0.35 us per row,
# the arrays 9 to 12 us; they break even near 26 rows
_VALUE_LOOP_ROWS = 24


def _pair_values(A, B, C, points):
    """FactorQuad.value at r = 2 of one quad, A and B as nested lists, at
    each point, a (q, 2) nested list of Python floats: C plus the sum of the
    point's entry terms w_j ((w A)_j - 2 B[j, i]) over its rows w = (w0,
    w1), i = 0, 1, ..., taken entry after entry in row order.  The terms are
    written out, not called: a call per entry would cost more than its
    arithmetic."""
    (a00, a01), (a10, a11) = A
    b0, b1 = B
    values = []
    for P in points:
        v = -0.0  # -0.0 + t is t for every t: the sum is cumsum's
        for (w0, w1), b0_i, b1_i in zip(P, b0, b1):
            v = (v + (w0 * a00 + w1 * a10 - 2.0 * b0_i) * w0
                 + (w0 * a01 + w1 * a11 - 2.0 * b1_i) * w1)
        values.append(v + C)
    return values


def _pair_value(A, B, C, W):
    """FactorQuad.value at r = 2, W of shape (..., q, 2) with the quad's
    member axis, if any, last before (q, 2): per point and member, the sum
    _pair_values takes, in its floats for the points of a single quad with
    at most _VALUE_LOOP_ROWS rows in all, else as the same operations on
    arrays (a cumsum over each point's entries)."""
    if A.ndim == 2 and W.ndim <= 3 and W.size <= 2 * _VALUE_LOOP_ROWS:
        values = _pair_values(A.tolist(), B.tolist(), C,
                              W.tolist() if W.ndim == 3 else (W.tolist(),))
        return values[0] if W.ndim == 2 else np.array(values)
    w0, w1 = W[..., :1], W[..., 1:]
    T = (w0 * A[..., None, 0, :] + w1 * A[..., None, 1, :] - 2.0 * B.swapaxes(-1, -2)) * W
    return np.cumsum(T.reshape(W.shape[:-2] + (-1,)), axis=-1)[..., -1] + C


@dataclass(frozen=True)
class FactorQuad:
    """Sufficient-statistics quadratic over a (q, r) matrix variable.

    eval(W) = tr(W A W^T) - 2 tr(W B) + C.  The anchor is the matrix at which
    the underlying surrogate is tight (up to the code solve's gap); a block
    solve freezes the rows outside its block there and centres its ball on
    it.

    A stack of K such quadratics has a leading member axis on every field:
    A (K, r, r), B (K, r, q), C (K,), anchor (K, q, r), and so rho (K,).
    Its value at W (K, q, r) is one float per member, each computed as the
    member's own value would be.  W may carry further leading axes (a pair
    of points, say): value then gives one value per point, each the one
    its own call gives.
    """

    A: np.ndarray
    B: np.ndarray
    C: float
    anchor: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        anchor = np.asarray(self.anchor, dtype=float)
        self.__dict__.update(A=A, B=B, anchor=anchor)  # frozen: no __setattr__
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
        return 2.0 * np.maximum(np.linalg.eigvalsh(self.A)[..., 0], 0.0)

    def members(self, idx) -> "FactorQuad":
        """The members idx (a list of indices) of a stack, as a stack.  Its
        fields are slices of fields that passed this stack's checks, so it
        is built without running them again."""
        sub = object.__new__(FactorQuad)
        sub.__dict__.update(A=self.A[idx], B=self.B[idx], C=self.C[idx], anchor=self.anchor[idx])
        return sub

    @property
    def r(self) -> int:
        return self.A.shape[-1]

    @property
    def q(self) -> int:
        return self.B.shape[-1]

    def value(self, W: np.ndarray):
        """tr(W A W^T) - 2 tr(W B) + C at W, checked for shape: a float, or
        for a stack or a W with further leading axes one per member and
        point.  At r = 2 the entries' terms are summed in row order
        (_pair_value), in Python floats for a few points of a single quad,
        else as the same float operations on arrays, so each value is the
        bytes of its own call either way."""
        W = self._as_matrix(W)
        if self.r == 2:
            return _pair_value(self.A, self.B, self.C, W)
        return ((W @ self.A * W).sum(axis=(-2, -1))
                - 2.0 * (W * self.B.swapaxes(-1, -2)).sum(axis=(-2, -1)) + self.C)

    def value_pair(self, P: np.ndarray, W: np.ndarray):
        """The values at two float arrays P and W of the anchor's shape,
        which are not checked (the anchor and a solve's result, say): the
        bytes of value(np.array((P, W))), as two Python floats for a single
        quad and two arrays (K,) for a stack.  At r = 2, while the pair has
        at most _VALUE_LOOP_ROWS rows in all, they are _pair_values' floats,
        member by member for a stack, so each member's are the bytes of its
        own single quad's call."""
        A = self.A
        if A.shape[-1] == 2 and P.size <= _VALUE_LOOP_ROWS:
            if A.ndim == 2:
                return _pair_values(A.tolist(), self.B.tolist(), self.C, (P.tolist(), W.tolist()))
            values = [_pair_values(a, b, c, pair) for a, b, c, *pair in
                      zip(A.tolist(), self.B.tolist(), np.asarray(self.C).tolist(), P.tolist(),
                          W.tolist())]
            return np.array(list(zip(*values)))
        values = self.value(np.array((P, W)))
        return values.tolist() if A.ndim == 2 else values

    def grad(self, W: np.ndarray) -> np.ndarray:
        W = self._as_matrix(W)
        return 2.0 * (W @ self.A - self.B.swapaxes(-1, -2))

    def _as_matrix(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        lead = self.A.shape[:-2]
        shape = lead + (self.q, self.r)
        if W.ndim == len(lead) + 1:
            return W.reshape(shape)
        if W.ndim < len(shape) or W.shape[W.ndim - len(shape):] != shape:
            raise ValueError(f"expected shape {shape}, got {W.shape}")
        return W
