import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.schedule import (
    WeightSchedule,
    cumulative_weight,
    validate_schedule,
    weight_at,
)


# ---------------------------------------------------------------------------
# oracles


def cumulative_weight_oracle(s, k, n):
    """Direct product definition, no shortcuts."""
    prod = 1.0
    for i in range(k + 1, n + 1):
        prod *= 1.0 - weight_at(s, i)
    return weight_at(s, k) * prod


# ---------------------------------------------------------------------------
# weight_at


def test_balanced_value():
    assert weight_at(WeightSchedule.balanced(), 3) == pytest.approx(1.0 / 3)


def test_constant_value():
    assert weight_at(WeightSchedule.constant(0.2), 100) == 0.2


def test_polylog_value_direct():
    # independent evaluation: 4^{-0.5} * (log 5)^{-1.5}
    expected = 4.0 ** -0.5 * math.log(5.0) ** -1.5
    got = weight_at(WeightSchedule.polylog(0.5, 1.5), 4)
    assert got == pytest.approx(expected, rel=1e-15)


def test_polylog_capped_at_one():
    s = WeightSchedule.polylog(0.0, 0.0)
    assert weight_at(s, 1) == 1.0


def test_weight_domain_errors():
    with pytest.raises(ValueError):
        weight_at(WeightSchedule.balanced(), 0)
    with pytest.raises(ValueError):
        weight_at(WeightSchedule.custom([0.5, 0.5]), 3)


@pytest.mark.parametrize("beta, delta", [(-0.5, 1.5), (0.5, -1.0), (math.nan, 1.5),
                                         (0.5, math.nan), (math.inf, 1.5), (0.5, math.inf)])
def test_polylog_refuses_negative_or_nonfinite_exponents(beta, delta):
    # min(1, nan) is 1 and an infinite exponent gives w_n = 0 from n = 2 on
    with pytest.raises(ValueError, match="polylog exponents"):
        WeightSchedule.polylog(beta, delta)


def test_custom_validation():
    with pytest.raises(ValueError):
        WeightSchedule.custom([0.5, 1.5])
    with pytest.raises(ValueError):
        WeightSchedule.custom([])
    with pytest.raises(ValueError):
        WeightSchedule.constant(0.0)


# ---------------------------------------------------------------------------
# cumulative_weight


def test_balanced_cumulative_is_uniform():
    s = WeightSchedule.balanced()
    assert cumulative_weight(s, 2, 5) == pytest.approx(1.0 / 5)
    for k in range(1, 6):
        assert cumulative_weight(s, k, 5) == pytest.approx(0.2)


def test_constant_cumulative_geometric():
    alpha = 0.3
    s = WeightSchedule.constant(alpha)
    for k, n in [(1, 1), (2, 6), (4, 9)]:
        assert cumulative_weight(s, k, n) == pytest.approx(alpha * (1 - alpha) ** (n - k))


def test_w1_equals_one_prefix():
    s = WeightSchedule.custom([1.0, 0.5])
    assert cumulative_weight(s, 1, 1) == 1.0


def test_cumulative_weight_argument_error():
    with pytest.raises(ValueError):
        cumulative_weight(WeightSchedule.balanced(), 5, 3)


@given(st.sampled_from(["balanced", "poly", "const"]),
       st.integers(1, 60), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_cumulative_matches_oracle(kind, k, extra):
    n = k + extra
    s = {"balanced": WeightSchedule.balanced(),
         "poly": WeightSchedule.polylog(0.5, 1.5),
         "const": WeightSchedule.constant(0.35)}[kind]
    assert cumulative_weight(s, k, n) == pytest.approx(
        cumulative_weight_oracle(s, k, n), rel=1e-12, abs=1e-300)


def test_log_space_branch_matches_direct():
    s = WeightSchedule.polylog(0.5, 1.5)
    # n - k above the direct-product threshold
    k, n = 3, 1500
    assert cumulative_weight(s, k, n) == pytest.approx(
        cumulative_weight_oracle(s, k, n), rel=1e-10, abs=1e-300)


def test_diagonal_is_weight():
    for s in (WeightSchedule.balanced(), WeightSchedule.polylog(0.6, 1.2),
              WeightSchedule.constant(0.4)):
        for n in (1, 7, 23):
            assert cumulative_weight(s, n, n) == weight_at(s, n)


def test_cumulative_recursion():
    # w^n_k = w^{n-1}_k * (1 - w_n)
    s = WeightSchedule.polylog(0.5, 1.5)
    for n in range(2, 40):
        for k in range(1, n):
            lhs = cumulative_weight(s, k, n)
            rhs = cumulative_weight(s, k, n - 1) * (1.0 - weight_at(s, n))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


def test_fixed_n_sum_identity():
    # sum over k of w^n_k = 1 - prod (1 - w_i)
    s = WeightSchedule.constant(0.25)
    n = 30
    total = sum(cumulative_weight(s, k, n) for k in range(1, n + 1))
    assert total == pytest.approx(1.0 - 0.75 ** n, rel=1e-12)


def test_monotone_in_k_past_onset():
    for s in (WeightSchedule.balanced(), WeightSchedule.polylog(0.5, 1.5)):
        onset = validate_schedule(s, horizon=500).ratio_onset
        assert onset is not None
        for n in (50, 200, 500):
            vals = [cumulative_weight(s, k, n) for k in range(max(onset, 1), n + 1)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# validate_schedule


def test_validate_polylog_valid():
    rep = validate_schedule(WeightSchedule.polylog(0.5, 1.5), horizon=2000)
    assert rep.a4_prime_valid
    assert not rep.optional_condition
    assert rep.non_increasing
    assert rep.ratio_condition
    assert rep.square_summable


def test_validate_polylog_delta_too_small():
    rep = validate_schedule(WeightSchedule.polylog(0.5, 0.5), horizon=500)
    assert not rep.a4_prime_valid


def test_validate_polylog_optional_regime():
    rep = validate_schedule(WeightSchedule.polylog(0.8, 1.5), horizon=500)
    assert rep.a4_prime_valid
    assert rep.optional_condition


def test_validate_constant_not_square_summable():
    rep = validate_schedule(WeightSchedule.constant(0.3), horizon=500)
    assert not rep.square_summable
    assert not rep.a4_prime_valid
    assert rep.non_increasing


def test_validate_balanced():
    rep = validate_schedule(WeightSchedule.balanced(), horizon=2000)
    assert rep.a4_prime_valid and rep.square_summable and rep.ratio_condition
    # 1/w_n - 1/w_{n-1} = 1 exactly, so the onset is immediate
    assert rep.ratio_onset == 2


def test_validate_custom_increasing_flags():
    rep = validate_schedule(WeightSchedule.custom([0.1, 0.9, 0.5]))
    assert not rep.non_increasing


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30))
@settings(max_examples=40, deadline=None)
def test_generated_weights_in_unit_interval(values):
    s = WeightSchedule.custom(values)
    for n in range(1, len(values) + 1):
        assert 0.0 < weight_at(s, n) <= 1.0
        assert 0.0 <= cumulative_weight(s, 1, n) <= 1.0
