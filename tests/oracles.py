"""Loss oracles that the tests check the runner's diagnostics against."""


def eval_empirical(theta, sample_log, schedule, n, loss):
    """Closed-form weighted empirical loss and gradient at theta:
    sum_k w^n_k * ell(x_k, theta), with loss(x, theta) -> (value, gradient)."""
    if len(sample_log) < n:
        raise ValueError("sample log shorter than n")
    value = 0.0
    grad = None
    for k in range(1, n + 1):
        wk = schedule.cumulative_weight(k, n)
        v, g = loss(sample_log[k - 1], theta)
        value += wk * v
        grad = wk * g if grad is None else grad + wk * g
    return value, grad
