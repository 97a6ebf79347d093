"""Box constraint sets, coordinate blocks, projections, and stationarity.

The constraint family is restricted to boxes (including the nonnegativity
shorthand): every application in this package optimizes matrices or loading
factors over per-entry bounds, and boxes admit an exact tangent-cone
projection.  The trust-region step of the outer loop needs Euclidean
projection onto box-intersect-ball.  Dualizing the ball with a multiplier mu
leaves a box problem with a closed-form solution for every mu, and the
distance to the ball center falls as mu grows.  On a fixed set of entries
at their bounds that distance is an explicit rational function of mu, the
secular equation of a trust-region step, so ``ball_multiplier_search``
jumps to its root, kept inside a bisection bracket, and finds the exact
projection; the block subsolver reuses the same search for its
trust-region slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BoxSet",
    "BlockSpec",
    "BlockFeasibleSet",
    "project_box",
    "project_box_ball",
    "restricted_block_set",
    "tangent_cone_project",
    "stationarity_measure",
    "select_blocks",
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

    def contains(self, x: np.ndarray, tol: float = BOUNDARY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lower - tol).all() and (x <= self.upper + tol).all())

    def restrict(self, J: np.ndarray) -> "BoxSet":
        return BoxSet(self.lower[J], self.upper[J])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


def project_box(x: np.ndarray, box: BoxSet) -> np.ndarray:
    """Coordinatewise clamp onto the box."""
    x = np.asarray(x, dtype=float)
    if x.shape != box.lower.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs box {box.lower.shape}")
    return np.clip(x, box.lower, box.upper)


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
        s = a / (w + nu) ** 2
        dist2 = const + float(s.sum())
        if dist2 > target:
            lo = nu
        else:
            hi = nu
        slope = float(np.sum(s / (w + nu)))  # -1/2 times that of dist2
        step = dist2 * (math.sqrt(dist2) / radius - 1.0) / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * _EPS * nu or hi - lo <= 4.0 * _EPS * hi:
            break
        nu += step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return nu


def ball_multiplier_search(solve, center: np.ndarray, radius: float,
                           mu_hi: float) -> np.ndarray:
    """Minimizer over box-intersect-ball(center, radius) of a convex problem
    whose ball constraint has been dualized.

    solve(mu) returns (x, model): the box-constrained minimizer x(mu) of the
    problem plus mu * ||x - center||^2, and a function that returns the
    distance model (const, a, w) of x(mu)'s working set, on which
    ||x(nu) - center||^2 = const + sum_j a_j / (w_j + nu)^2 (the secular
    equation of a trust-region step).  That distance falls as mu grows, and
    mu_hi must be large enough that ||x(mu_hi) - center|| <= radius.  If
    x(0) lies in the ball it is the answer.  Otherwise the complementary
    multiplier solves ||x(mu) - center|| = radius: each step jumps to the
    root of the last model when it lies inside the bisection bracket, and
    bisects otherwise, so a search whose working set does not change ends
    after two solves.  The result is scaled onto the ball, which keeps it
    in the box because center is.
    """
    x, model = solve(0.0)
    nrm = float(np.linalg.norm(x - center))
    if nrm <= radius:
        return x
    if radius <= BALL_RTOL * (1.0 + float(np.linalg.norm(center))):
        return center.copy()  # radius numerically zero
    lo, hi = 0.0, mu_hi
    for _ in range(BALL_MAX_ITERS):
        mu = _secular_root(model(), radius, lo, hi)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
        x, model = solve(mu)
        nrm = float(np.linalg.norm(x - center))
        if abs(nrm - radius) <= BALL_RTOL * radius:
            break
        if nrm > radius:
            lo = mu
        else:
            hi = mu
        if hi - lo <= BALL_RTOL * hi:
            break
    if nrm <= radius:
        return x
    return center + (x - center) * (radius / nrm)


def project_box_ball(
    x: np.ndarray,
    box: BoxSet,
    center: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Euclidean projection onto box intersect ball(center, radius).

    Requires center inside the box, so the intersection is nonempty.  For a
    ball multiplier mu the box-constrained minimizer of ||y - x||^2 +
    mu ||y - center||^2 is y(mu) = clip((x + mu center) / (1 + mu)).  Where
    y(mu) is strictly inside the box, y(nu) - center = (x - center) / (1 + nu),
    which gives ball_multiplier_search its distance model with every w = 1.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    if radius < 0:
        raise GeometryError("radius must be >= 0")
    if not box.contains(center):
        raise GeometryError("ball center must lie inside the box")
    if radius == 0.0:
        return center.copy()
    if math.isinf(radius):
        return project_box(x, box)

    def solve(mu):
        z = (x + mu * center) / (1.0 + mu)
        y = np.clip(z, box.lower, box.upper)
        free = (z > box.lower) & (z < box.upper)

        def model():
            u = (y - center)[~free]
            a = (x - center)[free] ** 2
            return float(u @ u), a, np.ones(a.size)
        return y, model

    # ||y(mu) - center|| <= ||x - center|| / (1 + mu)
    mu_hi = float(np.linalg.norm(x - center)) / radius
    return ball_multiplier_search(solve, center, radius, mu_hi)


@dataclass(frozen=True)
class BlockSpec:
    """Coordinate blocks with m sub-iterations per outer step.

    Blocks must cover every coordinate, and every coordinate must appear in
    the same number of blocks so cyclic and uniform-random selection both
    touch coordinates with iteration-independent, uniform frequency.
    """

    blocks: tuple[np.ndarray, ...]
    m: int
    selection: str = "cyclic"
    p: int = 0

    def __post_init__(self):
        blocks = tuple(np.asarray(sorted(set(int(i) for i in b)), dtype=int) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("need at least one block")
        if self.selection not in ("cyclic", "uniform_random"):
            raise ValueError(f"unknown selection {self.selection!r}")
        covered = np.concatenate(blocks)
        p = self.p or int(covered.max()) + 1
        object.__setattr__(self, "p", p)
        counts = np.zeros(p, dtype=int)
        for b in blocks:
            if (b < 0).any() or (b >= p).any():
                raise ValueError("block index out of range")
            counts[b] += 1
        if (counts == 0).any():
            raise ValueError("blocks must cover every coordinate")
        if not (counts == counts[0]).all():
            raise ValueError(
                "every coordinate must appear in the same number of blocks "
                "(uniform coverage requirement)"
            )
        if self.selection == "cyclic" and self.m != len(blocks):
            raise ValueError("cyclic selection requires m == number of blocks")
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @classmethod
    def single(cls, p: int) -> "BlockSpec":
        return cls(blocks=(np.arange(p),), m=1, p=p)

    @classmethod
    def partition(cls, pieces: Sequence[Iterable[int]], selection: str = "cyclic",
                  m: int | None = None) -> "BlockSpec":
        blocks = tuple(np.asarray(list(b), dtype=int) for b in pieces)
        if m is None:
            m = len(blocks)
        return cls(blocks=blocks, m=m, selection=selection)


def select_blocks(spec: BlockSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Ordered list of the m blocks used in one outer step."""
    if spec.selection == "cyclic":
        return list(spec.blocks)
    idx = rng.integers(0, len(spec.blocks), size=spec.m)
    return [spec.blocks[i] for i in idx]


@dataclass(frozen=True)
class BlockFeasibleSet:
    """Feasible set of one block sub-step.

    Coordinates outside J are frozen at theta_prev; the J-subvector ranges
    over the box slice intersected with a ball of the given radius around
    theta_prev's J-subvector.  radius = inf means no trust region.
    """

    box: BoxSet
    theta_prev: np.ndarray
    J: np.ndarray
    radius: float
    sub_box: BoxSet = field(init=False)

    def __post_init__(self):
        theta_prev = np.asarray(self.theta_prev, dtype=float)
        object.__setattr__(self, "theta_prev", theta_prev)
        if not self.box.contains(theta_prev):
            raise GeometryError("theta_prev must be feasible")
        object.__setattr__(self, "sub_box", self.box.restrict(self.J))

    @property
    def center_sub(self) -> np.ndarray:
        return self.theta_prev[self.J]

    def contains(self, theta: np.ndarray, tol: float = BOUNDARY_TOL) -> bool:
        theta = np.asarray(theta, dtype=float)
        mask = np.ones(theta.size, dtype=bool)
        mask[self.J] = False
        if np.max(np.abs(theta[mask] - self.theta_prev[mask]), initial=0.0) > tol:
            return False
        sub = theta[self.J]
        if not self.sub_box.contains(sub, tol):
            return False
        if math.isinf(self.radius):
            return True
        return float(np.linalg.norm(sub - self.center_sub)) <= self.radius + tol

    def project_sub(self, z: np.ndarray) -> np.ndarray:
        """Project a candidate J-subvector onto the feasible slice."""
        if math.isinf(self.radius):
            return project_box(z, self.sub_box)
        return project_box_ball(z, self.sub_box, self.center_sub, self.radius)

    def embed(self, sub: np.ndarray) -> np.ndarray:
        theta = self.theta_prev.copy()
        theta[self.J] = sub
        return theta


def restricted_block_set(
    box: BoxSet, theta_prev: np.ndarray, J: np.ndarray, radius: float
) -> BlockFeasibleSet:
    return BlockFeasibleSet(box=box, theta_prev=theta_prev, J=np.asarray(J, dtype=int),
                            radius=float(radius))


def tangent_cone_project(g: np.ndarray, theta: np.ndarray, box: BoxSet,
                         tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Project g onto the tangent cone of the box at theta.

    Component i is zeroed when theta_i sits at the lower bound and g_i points
    below it, or at the upper bound and g_i points above it.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if not box.contains(theta):
        raise GeometryError("theta must lie in the box")
    out = g.copy()
    at_lower = theta <= box.lower + tol
    at_upper = theta >= box.upper - tol
    out[at_lower & (out < 0)] = 0.0
    out[at_upper & (out > 0)] = 0.0
    return out


def stationarity_measure(grad: np.ndarray, theta: np.ndarray, box: BoxSet) -> float:
    """First-order stationarity of theta: norm of -grad projected on the
    tangent cone.  Equals the gradient norm at interior points; zero iff
    theta is first-order stationary."""
    return float(np.linalg.norm(tangent_cone_project(-np.asarray(grad, float), theta, box)))
