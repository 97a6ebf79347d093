"""Box constraint sets, the ball search, and stationarity.

The constraint family is restricted to boxes (including the nonnegativity
shorthand): every application in this package optimizes matrices or loading
factors over per-entry bounds, and boxes admit an exact tangent-cone
projection.  Every block solve minimizes a convex quadratic over
box-intersect-ball, the ball being the trust region of radius c'*w_n
around the previous iterate.  Dualizing the ball with a multiplier mu
leaves a box problem for every mu, and the distance to the ball center
falls as mu grows.  On a fixed set of entries at their bounds that
distance is an explicit rational function of mu, the secular equation of
a trust-region step, so ``ball_multiplier_search`` jumps to its root, kept
inside a bisection bracket; the block subsolver
(``subsolver._box_qp_ball``) supplies the box solves and their distance
models.  A block of the active-set method (every rank but 2) first takes
the root of the model of its anchor's own working set
(``subsolver._anchor_prediction``), from one eigendecomposition and no box
solve; entries that its point carries across a bound join that working set
at the bound, and the model of the grown set, whose constant is their
squared distance to the center, gives the next root.  The point is kept
only through the search's exits; ``_onto_ball`` scales either result onto
the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "BoxSet",
    "tangent_cone_project",
    "stationarity_measure",
]

BOUNDARY_TOL = 1e-9
BALL_RTOL = 1e-12
BALL_MAX_ITERS = 200
_EPS = float(np.finfo(float).eps)


class GeometryError(RuntimeError):
    """Contract violation in a geometric primitive."""


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper}, strict bounds, all finite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("need lower < upper strictly in every coordinate")

    @classmethod
    def uniform(cls, p: int, lower: float, upper: float) -> "BoxSet":
        return cls(np.full(p, float(lower)), np.full(p, float(upper)))

    @classmethod
    def nonneg(cls, p: int, upper: float = 1.0) -> "BoxSet":
        """Shorthand for [0, upper]^p."""
        return cls.uniform(p, 0.0, upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @cached_property
    def _loose(self) -> tuple[np.ndarray, np.ndarray]:
        """The bounds shifted out by BOUNDARY_TOL."""
        return self.lower - BOUNDARY_TOL, self.upper + BOUNDARY_TOL

    @cached_property
    def derived(self) -> dict:
        """Facts derived once from the box (``subsolver``'s box families)."""
        return {}

    def contains(self, x: np.ndarray) -> bool:
        """Whether every entry of x lies within BOUNDARY_TOL of the box; a
        NaN entry does not."""
        lo, up = self._loose
        x = np.asarray(x, dtype=float)
        return bool(((x >= lo) & (x <= up)).all())


def _secular_root(model, radius: float, lo: float, hi: float) -> float:
    """The root in (lo, hi) of const + sum_j a_j / (w_j + nu)^2 = radius^2,
    for model = (const, a, w) with a, w >= 0, or nan if there is none.

    The left side falls as nu grows.  Newton steps on its inverse square
    root minus 1/radius, which is concave and increasing in nu (Moré &
    Sorensen, 1983), approach the root from the left without overshoot;
    bisection steps guard against rounding.
    """
    const, a, w = model
    keep = a > 0.0
    a, w = a[keep], w[keep]
    target = radius * radius
    if a.size == 0 or const + float(np.sum(a / (w + hi) ** 2)) >= target:
        return math.nan
    if lo + float(w.min()) > 0.0:  # else lo is a pole, where the model is infinite
        if const + float(np.sum(a / (w + lo) ** 2)) <= target:
            return math.nan
        nu = lo
    else:
        nu = 0.5 * (lo + hi)
    for _ in range(BALL_MAX_ITERS):
        t = w + nu
        s = a / (t * t)  # the bytes of (w + nu) ** 2, which numpy computes as a square
        dist2 = const + float(s.sum())
        if dist2 > target:
            lo = nu
        else:
            hi = nu
        slope = float((s / t).sum())  # -1/2 times that of dist2
        step = dist2 * (math.sqrt(dist2) / radius - 1.0) / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * _EPS * nu or hi - lo <= 4.0 * _EPS * hi:
            break
        nu += step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return nu


def _distance(x: np.ndarray, center: np.ndarray) -> float:
    """||x - center||_F, the float np.linalg.norm gives (the square root of
    the same dot product) without its per-call overhead."""
    u = (x - center).ravel()
    return math.sqrt(u.dot(u))


def ball_multiplier_search(solve, center: np.ndarray, radius: float,
                           mu_hi: Callable[[], float]) -> np.ndarray:
    """Minimizer over box-intersect-ball(center, radius) of a convex problem
    whose ball constraint has been dualized.

    solve(mu) returns (x, model): the box-constrained minimizer x(mu) of the
    problem plus mu * ||x - center||^2, and a function that returns the
    distance model (const, a, w) of x(mu)'s working set, on which
    ||x(nu) - center||^2 = const + sum_j a_j / (w_j + nu)^2 (the secular
    equation of a trust-region step).  That distance falls as mu grows, and
    mu_hi() must return a multiplier large enough that ||x(mu_hi()) -
    center|| <= radius; it is called only when x(0) leaves the ball.  If
    x(0) lies in the ball it is the answer.  Otherwise the complementary
    multiplier solves ||x(mu) - center|| = radius: each step jumps to the
    root of the last model when it lies inside the bisection bracket, and
    bisects otherwise, so a search whose working set does not change ends
    after two solves.  The result is scaled onto the ball, which keeps it
    in the box because center is.
    """
    x, model = solve(0.0)
    nrm = _distance(x, center)
    if nrm <= radius:
        return x
    if _ball_is_center(center, radius):
        return center.copy()
    lo, hi = 0.0, mu_hi()
    for _ in range(BALL_MAX_ITERS):
        mu = _secular_root(model(), radius, lo, hi)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
        x, model = solve(mu)
        nrm = _distance(x, center)
        if abs(nrm - radius) <= BALL_RTOL * radius:
            break
        if nrm > radius:
            lo = mu
        else:
            hi = mu
        if hi - lo <= BALL_RTOL * hi:
            break
    return _onto_ball(x, center, radius, nrm)


def _ball_is_center(center, radius) -> bool:
    """Whether radius is numerically zero at center: the ball is its center."""
    return radius <= BALL_RTOL * (1.0 + float(np.linalg.norm(center)))


def _onto_ball(x, center, radius, nrm):
    """x, or x scaled onto the ball when its distance nrm to center exceeds
    radius; the scaled point stays in a box that holds x and center."""
    if nrm <= radius:
        return x
    return center + (x - center) * (radius / nrm)


def tangent_cone_project(g: np.ndarray, theta: np.ndarray, box: BoxSet) -> np.ndarray:
    """Project g onto the tangent cone of the box at theta.

    Component i is zeroed when theta_i sits at the lower bound (within
    BOUNDARY_TOL) and g_i points below it, or at the upper bound and g_i
    points above it.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if not box.contains(theta):
        raise GeometryError("theta must lie in the box")
    out = g.copy()
    at_lower = theta <= box.lower + BOUNDARY_TOL
    at_upper = theta >= box.upper - BOUNDARY_TOL
    out[at_lower & (out < 0)] = 0.0
    out[at_upper & (out > 0)] = 0.0
    return out


def stationarity_measure(grad: np.ndarray, theta: np.ndarray, box: BoxSet) -> float:
    """First-order stationarity of theta: norm of -grad projected on the
    tangent cone.  Equals the gradient norm at interior points; zero iff
    theta is first-order stationary."""
    return float(np.linalg.norm(tangent_cone_project(-np.asarray(grad, float), theta, box)))
