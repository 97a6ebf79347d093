"""The stochastic block majorization-minimization outer loop.

Each step: build a surrogate of the newly observed loss anchored at the
current iterate, fold it into the running average, then take one pass of
block minimization where every block solve is confined to a ball of radius
c'*w_n/m around the previous iterate (no radius in the strongly convex
mode).  The loop never re-solves history; everything it needs is carried by
the averaged quadratic state, an explicit ``QuadSurrogate``.

A ``SurrogateRecipe`` turns a sample into that quadratic: a Lipschitz
majorizer of a smooth loss, the same with a symbolic l1 penalty (a proximal
step), or a difference of convex functions with the concave part
linearized.  Each is exact at the anchor, so the averaged tolerance stays
zero.  Matrix and tensor factorization are SBMM instances with their own
steps over sufficient statistics (``factorize.omf_step``, ``cpdl_step``).

Two modes:
  C1  strongly convex averaged surrogates, no trust region (c' infinite);
  C2  block multi-convex surrogates with the diminishing radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import BoxSet, BlockSpec, restricted_block_set, select_blocks
from .quadform import (
    QuadSurrogate,
    average_surrogate,
    make_dc_surrogate,
    make_lipschitz_surrogate,
    make_prox_surrogate,
)
from .stream import MarkovSource, next_sample
from .subsolver import solve_block_quadratic

__all__ = [
    "SurrogateRecipe",
    "SbmmState",
    "init_state",
    "block_minimize",
    "sbmm_step",
    "run",
    "eps_bar_update",
    "EngineError",
]


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class SurrogateRecipe:
    """How to turn an incoming sample into a surrogate at the current iterate.

    kind "lipschitz": needs loss(x, theta) -> value, loss_grad(x, theta), L.
    kind "prox": same plus an l1 penalty weight lam (the loss callables give
        the smooth part only; the penalty is carried symbolically).
    kind "dc": needs convex_part(x) -> (curvature, linear, constant) and
        concave_value/concave_grad(x, theta) for the linearized part.
    """

    kind: str
    L: float = 0.0
    lam: float = 0.0
    loss: Optional[Callable] = None
    loss_grad: Optional[Callable] = None
    convex_part: Optional[Callable] = None
    concave_value: Optional[Callable] = None
    concave_grad: Optional[Callable] = None
    solver_tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("lipschitz", "prox", "dc"):
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        if self.kind in ("lipschitz", "prox"):
            if self.L <= 0 or self.loss is None or self.loss_grad is None:
                raise ValueError("smooth recipes need loss, loss_grad and L > 0")
        if self.kind == "prox" and self.lam < 0:
            raise ValueError("penalty weight must be >= 0")
        if self.kind == "dc" and (self.convex_part is None or self.concave_value is None
                                  or self.concave_grad is None):
            raise ValueError("dc recipe needs convex_part, concave_value, concave_grad")


@dataclass
class SbmmState:
    """Everything one SBMM run carries between steps."""

    n: int
    theta: np.ndarray
    theta_prev: np.ndarray
    gbar: QuadSurrogate
    schedule: object
    blocks: BlockSpec
    box: BoxSet
    c_prime: float
    recipe: SurrogateRecipe
    rng: np.random.Generator
    state_log: list = field(default_factory=list)


def _initial_average(recipe: SurrogateRecipe, theta0: np.ndarray,
                     rho0: float) -> QuadSurrogate:
    """gbar_0(theta) = (rho0/2) ||theta - theta0||^2."""
    # a prox recipe's per-sample surrogates all carry the same symbolic l1
    # penalty; the initial average carries it too so every convex
    # combination stays exactly representable
    return QuadSurrogate(
        curvature=float(rho0),
        linear=-rho0 * theta0,
        constant=0.5 * rho0 * float(theta0 @ theta0),
        anchor=theta0,
        L=rho0,
        rho=rho0,
        eps=0.0,
        l1_lambda=recipe.lam if recipe.kind == "prox" else 0.0,
    )


def init_state(
    recipe: SurrogateRecipe,
    box: BoxSet,
    blocks: BlockSpec,
    schedule,
    mode: str = "c2",
    c_prime: float = 1.0,
    theta0: np.ndarray | str = "random",
    rho0: float = 0.0,
    seed: int = 0,
) -> SbmmState:
    mode = mode.lower()
    if mode not in ("c1", "c2"):
        raise EngineError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    if isinstance(theta0, str):
        if theta0 != "random":
            raise EngineError("theta0 must be an array or the string 'random'")
        theta0 = box.sample(rng)
    theta0 = np.asarray(theta0, dtype=float).ravel()
    if theta0.size != box.dim or not box.contains(theta0):
        raise EngineError("theta0 must lie in the box")
    if mode == "c1":
        if rho0 <= 0:
            raise EngineError("mode c1 requires rho0 > 0 (strong convexity)")
        c_prime = math.inf
    else:
        if not (c_prime > 0) or math.isinf(c_prime):
            raise EngineError("mode c2 requires finite c_prime > 0")
    gbar0 = _initial_average(recipe, theta0, rho0)
    return SbmmState(
        n=0, theta=theta0.copy(), theta_prev=theta0.copy(), gbar=gbar0,
        schedule=schedule, blocks=blocks, box=box, c_prime=c_prime,
        recipe=recipe, rng=rng,
    )


def eps_bar_update(eps_bar_prev: float, eps_n: float, w_n: float) -> float:
    """(1 - w_n) * eps_bar_prev + w_n * eps_n (both inputs nonnegative)."""
    if eps_bar_prev < 0 or eps_n < 0:
        raise ValueError("tolerances must be >= 0")
    return (1.0 - w_n) * eps_bar_prev + w_n * eps_n


def _build_surrogate(recipe: SurrogateRecipe, x, theta_prev: np.ndarray) -> QuadSurrogate:
    """The sample's exact surrogate anchored at theta_prev."""
    if recipe.kind == "lipschitz":
        return make_lipschitz_surrogate(
            recipe.loss(x, theta_prev), recipe.loss_grad(x, theta_prev),
            theta_prev, recipe.L)
    if recipe.kind == "prox":
        return make_prox_surrogate(
            recipe.loss(x, theta_prev), recipe.loss_grad(x, theta_prev),
            recipe.lam, theta_prev, recipe.L)
    curv, lin, const = recipe.convex_part(x)
    return make_dc_surrogate(curv, lin, const, recipe.concave_value(x, theta_prev),
                             recipe.concave_grad(x, theta_prev), theta_prev)


def block_minimize(state: SbmmState, g_next: QuadSurrogate, w_n: float) -> np.ndarray:
    """One pass of block minimization: m sub-solves, each within radius
    c'*w_n/m of the running point (no radius in mode C1)."""
    order = select_blocks(state.blocks, state.rng)
    if math.isinf(state.c_prime):
        radius = math.inf
    else:
        radius = state.c_prime * w_n / state.blocks.m
    theta = state.theta.copy()
    for J in order:
        feas = restricted_block_set(state.box, theta, J, radius)
        theta, _ = solve_block_quadratic(g_next, feas, theta, tol=state.recipe.solver_tol)
    return theta


def sbmm_step(state: SbmmState, x_n) -> SbmmState:
    """One full SBMM step on the incoming sample; mutates and returns state."""
    n = state.n + 1
    w_n = state.schedule.weight_at(n)
    g_n = _build_surrogate(state.recipe, x_n, state.theta)
    gbar = average_surrogate(state.gbar, g_n, w_n)
    state.gbar = gbar
    state.theta_prev = state.theta
    state.theta = block_minimize(state, gbar, w_n)
    state.n = n
    return state


def run(
    state: SbmmState,
    source: MarkovSource,
    n_iters: int,
    diag_interval: int = 10,
    diag_fn: Optional[Callable] = None,
    keep_trajectory: bool = True,
):
    """Drive n_iters steps from a data source.

    diag_fn(state, info) is called after each step with info a dict holding
    the step's weight, the emitted chain state, and the per-step loss pieces
    the caller would otherwise have to recompute; it is invoked on every
    step whose index is a multiple of diag_interval (and on the last step).
    Returns (trajectory, diagnostics list as returned by diag_fn).
    """
    trajectory = [state.theta.copy()] if keep_trajectory else []
    records = []
    for i in range(1, n_iters + 1):
        x, y = next_sample(source)
        state.state_log.append(y)
        sbmm_step(state, x)
        if keep_trajectory:
            trajectory.append(state.theta.copy())
        if diag_fn is not None and (i % diag_interval == 0 or i == n_iters):
            rec = diag_fn(state, {"w_n": state.schedule.weight_at(i), "chain_state": y,
                                  "sample": x})
            if rec is not None:
                records.append(rec)
    return trajectory, records
