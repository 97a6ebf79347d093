"""Box constraint sets, their tangent cone, and stationarity.

The constraint family is restricted to boxes (including the nonnegativity
shorthand): every application in this package optimizes matrices or loading
factors over per-entry bounds, and boxes admit an exact tangent-cone
projection.  The trust-region ball that a block solve adds to its box is
``subsolver``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BoxSet",
    "tangent_cone_project",
    "stationarity_measure",
]

BOUNDARY_TOL = 1e-9


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
