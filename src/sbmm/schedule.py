"""Weight sequences (w_n) and the induced averaging coefficients w^n_k.

The online losses and averaged surrogates in this package are all driven by a
sequence of weights w_n in (0,1].  A fixed n induces the coefficients

    w^n_k = w_k * prod_{i=k+1}^{n} (1 - w_i),

which express the recursively averaged loss as an explicit weighted sum over
the history.  This module generates the supported weight families and
classifies them against the step-size conditions the convergence theory needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "WeightSchedule",
    "ScheduleReport",
    "weight_at",
    "cumulative_weight",
    "validate_schedule",
]

# switch to log-space products above this horizon to avoid underflow
_LOG_PRODUCT_THRESHOLD = 1000

# horizon used for numeric checks of the ratio / monotonicity conditions
_VALIDATION_HORIZON = 10_000


@dataclass(frozen=True)
class WeightSchedule:
    """One of the supported weight families.

    kind
        "balanced"  -> w_n = 1/n
        "polylog"   -> w_n = min(1, n^-beta * log(n+1)^-delta)
        "constant"  -> w_n = alpha
        "custom"    -> explicit finite sequence in (0,1]
    """

    kind: str
    beta: float = 0.0
    delta: float = 0.0
    alpha: float = 0.0
    custom_values: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("balanced", "polylog", "constant", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant" and not (0.0 < self.alpha <= 1.0):
            raise ValueError("constant schedule requires alpha in (0, 1]")
        if self.kind == "custom":
            if not self.custom_values:
                raise ValueError("custom schedule requires at least one value")
            if any(not (0.0 < v <= 1.0) for v in self.custom_values):
                raise ValueError("custom weights must lie in (0, 1]")
        if self.kind == "polylog":
            if not (0 <= self.beta < math.inf and 0 <= self.delta < math.inf):
                raise ValueError("polylog exponents must be finite and nonnegative")

    # convenience constructors --------------------------------------------

    @classmethod
    def balanced(cls) -> "WeightSchedule":
        return cls(kind="balanced")

    @classmethod
    def polylog(cls, beta: float, delta: float) -> "WeightSchedule":
        return cls(kind="polylog", beta=beta, delta=delta)

    @classmethod
    def constant(cls, alpha: float) -> "WeightSchedule":
        return cls(kind="constant", alpha=alpha)

    @classmethod
    def custom(cls, values: Sequence[float]) -> "WeightSchedule":
        return cls(kind="custom", custom_values=tuple(float(v) for v in values))

    # core API -------------------------------------------------------------

    def weight_at(self, n: int) -> float:
        return weight_at(self, n)

    def cumulative_weight(self, k: int, n: int) -> float:
        return cumulative_weight(self, k, n)

    def validate(self, horizon: int | None = None) -> "ScheduleReport":
        return validate_schedule(self, horizon=horizon)


@dataclass(frozen=True)
class ScheduleReport:
    """Validity classification of a schedule over a numeric horizon.

    Invalid schedules are reported, not rejected: constant weights are legal
    for trending-feature runs but carry ``square_summable=False`` and
    ``a4_prime_valid=False``.
    """

    non_increasing: bool
    ratio_condition: bool
    ratio_onset: int | None
    square_summable: bool
    a4_prime_valid: bool
    optional_condition: bool


def weight_at(s: WeightSchedule, n: int) -> float:
    """Return w_n for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s.kind == "balanced":
        return 1.0 / n
    if s.kind == "constant":
        return s.alpha
    if s.kind == "custom":
        if n > len(s.custom_values):
            raise ValueError(
                f"custom schedule has {len(s.custom_values)} values, asked for n={n}"
            )
        return s.custom_values[n - 1]
    # polylog; log(n+1) keeps w_1 finite without changing the asymptotics
    return min(1.0, n ** (-s.beta) * math.log(n + 1) ** (-s.delta))


def cumulative_weight(s: WeightSchedule, k: int, n: int) -> float:
    """Return w^n_k = w_k * prod_{i=k+1}^{n} (1 - w_i)."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    wk = weight_at(s, k)
    if k == n:
        return wk
    if n - k <= _LOG_PRODUCT_THRESHOLD:
        prod = 1.0
        for i in range(k + 1, n + 1):
            prod *= 1.0 - weight_at(s, i)
        return wk * prod
    log_prod = 0.0
    for i in range(k + 1, n + 1):
        one_minus = 1.0 - weight_at(s, i)
        if one_minus <= 0.0:
            return 0.0
        log_prod += math.log(one_minus)
    return wk * math.exp(log_prod)


def validate_schedule(s: WeightSchedule, horizon: int | None = None) -> ScheduleReport:
    """Classify a schedule against the step-size conditions.

    The monotonicity and ratio conditions are checked numerically over the
    configured horizon (custom schedules have no closed form); square
    summability and the validity flags use the closed-form test per kind.
    """
    if horizon is None:
        horizon = len(s.custom_values) if s.kind == "custom" else _VALIDATION_HORIZON
    horizon = max(2, horizon)

    ws = [weight_at(s, n) for n in range(1, horizon + 1)]

    non_increasing = all(ws[i + 1] <= ws[i] + 1e-15 for i in range(len(ws) - 1))

    # w_n^-1 - w_{n-1}^-1 <= 1 must hold from some onset to the end of the
    # horizon; record the first index after which it never fails.
    ratio_ok = [1.0 / ws[i] - 1.0 / ws[i - 1] <= 1.0 + 1e-12 for i in range(1, len(ws))]
    ratio_onset: int | None = None
    last_fail = -1
    for i, ok in enumerate(ratio_ok):
        if not ok:
            last_fail = i
    if last_fail < len(ratio_ok) - 1:
        # ratio_ok[i] tests weight index n = i + 2; the onset is the first n
        # from which the condition holds through the horizon
        ratio_onset = 2 if last_fail < 0 else last_fail + 3
    ratio_condition = ratio_onset is not None

    if s.kind == "balanced":
        square_summable = True
    elif s.kind == "constant":
        square_summable = False
    elif s.kind == "custom":
        square_summable = True  # finite sum
    else:  # polylog: sum n^-2b log^-2d converges iff 2b > 1, or 2b = 1 and 2d > 1
        square_summable = 2 * s.beta > 1 or (2 * s.beta == 1 and 2 * s.delta > 1)

    if s.kind == "balanced":
        a4_prime_valid = True
        optional_condition = True  # sum w_n^2 sqrt(n) = sum n^{-3/2} < inf
    elif s.kind == "polylog":
        a4_prime_valid = 0.5 <= s.beta < 1.0 and s.delta > 1.0
        optional_condition = a4_prime_valid and 0.75 <= s.beta < 1.0
    else:
        a4_prime_valid = False
        optional_condition = False

    return ScheduleReport(
        non_increasing=non_increasing,
        ratio_condition=ratio_condition,
        ratio_onset=ratio_onset,
        square_summable=square_summable,
        a4_prime_valid=a4_prime_valid,
        optional_condition=optional_condition,
    )
