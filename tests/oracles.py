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


def eager_audit_c1(app, results, quad, G, theta, step, w_n, R_bound, g_prev):
    """Mode C1's audits of one step as the runner's _audit_c1 is called, each
    member's checks made eagerly: quad.rho (an eigvalsh) and the
    stationarity measure (a tangent-cone projection) on every step, then the
    step bound (1/2) rho s^2 <= w_n R s + 1e-7 (1 + |g_prev|) and the
    running maximum of the measure."""
    rho = app.floats(quad.rho)
    stat = app.floats(app.stationarity(G, theta))
    for j, result in enumerate(results):
        scale = 1.0 + abs(g_prev[j])
        if 0.5 * rho[j] * step[j] * step[j] > w_n * R_bound[j] * step[j] + 1e-7 * scale:
            result.c1_bound_violations += 1
        result.c1_stat_max = max(result.c1_stat_max, stat[j])
