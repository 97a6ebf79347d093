"""Finite-state Markov data sources.

A source is a row-stochastic transition matrix over a finite state space
together with an emission table mapping each state to a fixed-shape data
sample.  Keeping the state space finite makes the stationary distribution
and the mixing rate exactly computable, which the diagnostics rely on for
noise-free expected-loss evaluation.  The i.i.d. case is the special source
whose rows all equal the sampling distribution (mixing rate zero).

Each source builds its per-state cumulative distributions once, the way
numpy's ``Generator.choice`` builds one per call (``cumsum``, then a divide
by the last entry), and keeps each row as a list of Python floats;
``next_sample`` draws the next state with ``bisect.bisect_right`` of
``rng.random()`` in the current state's row, the index that
``searchsorted(u, side="right")`` gives.  That is the same state from the
same rng stream as ``rng.choice(S, p=row)``, without rebuilding and
revalidating the row, or calling into numpy, on every draw.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MarkovSource",
    "stationary_distribution",
    "mixing_rate",
    "tv_decay",
    "next_sample",
    "make_iid",
]

_ROW_SUM_TOL = 1e-12
_PI_TOL = 1e-12
_PI_MAX_ITERS = 100_000
_MIXING_HORIZON = 200
# TV values below this are numerically indistinguishable from the pi
# accuracy limit (pi is resolved to ~1e-12 in l1) and are skipped when
# extracting the decay rate
_TV_NOISE_FLOOR = 5e-12


class StreamError(RuntimeError):
    pass


@dataclass
class MarkovSource:
    """Finite-state chain with per-state emissions and an owned rng.

    The chain must be irreducible and aperiodic (some power of P is entrywise
    positive); deterministic periodic chains are rejected unless the
    test-only ``allow_periodic`` flag is set.  The sampler's CDFs are built
    from P here, so P must not change afterwards.
    """

    P: np.ndarray
    emissions: list
    state: int = 0
    seed: int = 0
    allow_periodic: bool = False
    rng: np.random.Generator = field(init=False, repr=False)
    cdf: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        self.P = P
        S = P.shape[0]
        if P.ndim != 2 or P.shape != (S, S):
            raise StreamError("P must be square")
        if not np.isfinite(P).all() or (P < 0).any():
            raise StreamError("P entries must be finite and nonnegative")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise StreamError("rows of P must sum to 1")
        if len(self.emissions) != S:
            raise StreamError("need one emission per state")
        shapes = {np.asarray(e).shape for e in self.emissions}
        if len(shapes) != 1:
            raise StreamError("all emissions must share one shape")
        self.emissions = [np.asarray(e, dtype=float) for e in self.emissions]
        if not (0 <= self.state < S):
            raise StreamError("initial state out of range")
        if not self.allow_periodic and not _is_primitive(P):
            raise StreamError(
                "chain must be irreducible and aperiodic "
                "(no power of P up to S^2 is entrywise positive)"
            )
        self.rng = np.random.default_rng(self.seed)
        # row s is the CDF rng.choice(S, p=P[s]) builds for itself
        cdf = P.cumsum(axis=1)
        self.cdf = (cdf / cdf[:, -1:]).tolist()

    @property
    def S(self) -> int:
        return self.P.shape[0]

    def clone(self, seed: int, state: int | None = None) -> "MarkovSource":
        return MarkovSource(P=self.P.copy(), emissions=[e.copy() for e in self.emissions],
                            state=self.state if state is None else state, seed=seed,
                            allow_periodic=self.allow_periodic)


def _is_primitive(P: np.ndarray) -> bool:
    """True when some power P^k, k <= S^2, is entrywise positive."""
    S = P.shape[0]
    M = (P > 0)
    acc = M.copy()
    for _ in range(S * S - 1):
        if acc.all():
            return True
        acc = (acc.astype(np.int64) @ M.astype(np.int64)) > 0
    return bool(acc.all())


def stationary_distribution(src: MarkovSource) -> np.ndarray:
    """The unique pi with pi P = pi, by power iteration on P transpose."""
    P = src.P
    S = src.S
    pi = np.full(S, 1.0 / S)
    for _ in range(_PI_MAX_ITERS):
        nxt = pi @ P
        nxt /= nxt.sum()
        done = float(np.abs(nxt - pi).sum()) <= _PI_TOL
        pi = nxt
        if done:
            break
    else:
        raise StreamError("stationary distribution power iteration did not converge")
    if float(np.abs(pi @ P - pi).sum()) > _PI_TOL * 10:
        raise StreamError("stationary distribution residual too large")
    return pi


def tv_decay(src: MarkovSource, horizon: int = _MIXING_HORIZON) -> np.ndarray:
    """Worst-start total variation distance to pi after m = 1..horizon steps."""
    pi = stationary_distribution(src)
    out = np.empty(horizon)
    Pm = src.P.copy()
    for m in range(horizon):
        out[m] = 0.5 * float(np.abs(Pm - pi[None, :]).sum(axis=1).max())
        if m + 1 < horizon:
            Pm = Pm @ src.P
    return out


def mixing_rate(src: MarkovSource, horizon: int = _MIXING_HORIZON) -> float:
    """Smallest lambda with worst-start TV(m) <= lambda^m for m = 1..horizon,
    computed from exact powers of P.  TV values at the floating-point noise
    floor are skipped: once P^m is numerically stationary the residual
    ~1e-16 entries would otherwise dominate the m-th root."""
    tv = tv_decay(src, horizon)
    lam = 0.0
    for m, d in enumerate(tv, start=1):
        if d > _TV_NOISE_FLOOR:
            lam = max(lam, d ** (1.0 / m))
    return lam


def next_sample(src: MarkovSource):
    """Advance the chain one step, drawing from src.rng; returns (emission of
    new state, new state)."""
    new_state = bisect.bisect_right(src.cdf[src.state], src.rng.random())
    src.state = new_state
    return src.emissions[new_state], new_state


def make_iid(weights: np.ndarray, emissions: list, seed: int = 0, state: int = 0) -> MarkovSource:
    """Source drawing each sample independently from ``weights``."""
    weights = np.asarray(weights, dtype=float)
    if (weights.ndim != 1 or not np.isfinite(weights).all() or (weights < 0).any()
            or abs(weights.sum() - 1.0) > _ROW_SUM_TOL):
        raise StreamError("weights must be a probability vector")
    S = weights.size
    P = np.tile(weights, (S, 1))
    # a point mass makes P reducible in the primitivity sense; it is still a
    # valid constant stream, so bypass the check
    return MarkovSource(P=P, emissions=emissions, state=state, seed=seed,
                        allow_periodic=bool((weights == 0).any()))
