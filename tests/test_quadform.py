import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.geometry import BoxSet
from sbmm.quadform import (
    AveragedSurrogate,
    FactorQuad,
    QuadSurrogate,
    average_surrogate,
    check_majorization,
    make_dc_surrogate,
    make_factor_surrogate,
    make_lipschitz_surrogate,
    make_prox_surrogate,
)
from sbmm.subsolver import solve_code_lasso


# ---------------------------------------------------------------------------
# oracles


def fd_grad(fn, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


def factor_value_oracle(A, B, C, W):
    """tr(W A W^T) - 2 tr(W B) + C by explicit index loops."""
    q, r = W.shape
    total = 0.0
    for i in range(q):
        for j in range(r):
            for k in range(r):
                total += W[i, j] * A[j, k] * W[i, k]
    for j in range(r):
        for i in range(q):
            total -= 2.0 * W[i, j] * B[j, i]
    return total + C


# ---------------------------------------------------------------------------
# QuadSurrogate basics


def test_quad_value_and_grad_scalar_curvature():
    g = QuadSurrogate(curvature=2.0, linear=np.array([1.0, -1.0]), constant=3.0,
                      anchor=np.zeros(2), L=2.0, rho=2.0)
    theta = np.array([0.5, 2.0])
    # 0.5*2*(0.25+4) + (0.5 - 2) + 3
    assert g.value(theta) == pytest.approx(4.25 - 1.5 + 3.0)
    np.testing.assert_allclose(g.grad(theta), 2.0 * theta + np.array([1.0, -1.0]))


def test_quad_matrix_curvature_matches_fd():
    rng = np.random.default_rng(0)
    Q = rng.normal(size=(4, 4))
    Q = Q + Q.T
    g = QuadSurrogate(curvature=Q, linear=rng.normal(size=4), constant=-1.2,
                      anchor=np.zeros(4), L=10.0, rho=0.0)
    theta = rng.normal(size=4)
    np.testing.assert_allclose(g.grad(theta), fd_grad(g.value, theta), atol=1e-6)


def test_quad_l1_value_and_sign_zero_convention():
    g = QuadSurrogate(curvature=1.0, linear=np.zeros(3), constant=0.0,
                      anchor=np.zeros(3), L=1.0, rho=1.0, l1_lambda=0.5)
    theta = np.array([1.0, -2.0, 0.0])
    assert g.value(theta) == pytest.approx(0.5 * 5.0 + 0.5 * 3.0)
    # subgradient convention at zero: contribute nothing
    np.testing.assert_allclose(g.grad(theta), theta + 0.5 * np.array([1.0, -1.0, 0.0]))


def test_quad_validation_errors():
    with pytest.raises(ValueError):
        QuadSurrogate(curvature=np.array([[1.0, 2.0], [0.0, 1.0]]),
                      linear=np.zeros(2), constant=0.0, anchor=np.zeros(2),
                      L=1.0, rho=0.0)
    with pytest.raises(ValueError):
        QuadSurrogate(curvature=1.0, linear=np.zeros(2), constant=0.0,
                      anchor=np.zeros(2), L=1.0, rho=0.0, eps=-1.0)
    with pytest.raises(ValueError):
        QuadSurrogate(curvature=np.eye(3), linear=np.zeros(2), constant=0.0,
                      anchor=np.zeros(2), L=1.0, rho=0.0)


# ---------------------------------------------------------------------------
# FactorQuad


def test_factor_value_matches_loop_oracle():
    rng = np.random.default_rng(1)
    r, q = 3, 5
    A = rng.normal(size=(r, r))
    A = A @ A.T
    B = rng.normal(size=(r, q))
    C = 2.5
    g = FactorQuad(A=A, B=B, C=C, anchor=np.zeros((q, r)), L=1.0, rho=0.0)
    for _ in range(5):
        W = rng.normal(size=(q, r))
        assert g.value(W) == pytest.approx(factor_value_oracle(A, B, C, W), rel=1e-12)


def test_factor_grad_matches_fd():
    rng = np.random.default_rng(2)
    r, q = 2, 4
    A = rng.normal(size=(r, r))
    A = A @ A.T
    B = rng.normal(size=(r, q))
    g = FactorQuad(A=A, B=B, C=0.0, anchor=np.zeros((q, r)), L=1.0, rho=0.0)
    W = rng.normal(size=(q, r))
    got = g.grad(W).ravel()
    want = fd_grad(lambda v: g.value(v.reshape(q, r)), W.ravel())
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_factor_flat_input_equivalent():
    rng = np.random.default_rng(3)
    A = np.eye(2)
    B = rng.normal(size=(2, 3))
    g = FactorQuad(A=A, B=B, C=1.0, anchor=np.zeros((3, 2)), L=2.0, rho=2.0)
    W = rng.normal(size=(3, 2))
    assert g.value(W.ravel()) == g.value(W)
    np.testing.assert_array_equal(g.grad(W.ravel()), g.grad(W))


def test_factor_min_eig():
    A = np.diag([3.0, 0.5])
    g = FactorQuad(A=A, B=np.zeros((2, 2)), C=0.0, anchor=np.zeros((2, 2)),
                   L=6.0, rho=1.0)
    assert g.min_eig() == pytest.approx(0.5)


def test_factor_validation_errors():
    with pytest.raises(ValueError):
        FactorQuad(A=np.array([[1.0, 2.0], [0.0, 1.0]]), B=np.zeros((2, 2)),
                   C=0.0, anchor=np.zeros((2, 2)), L=1.0, rho=0.0)
    with pytest.raises(ValueError):
        FactorQuad(A=np.eye(2), B=np.zeros((3, 2)), C=0.0,
                   anchor=np.zeros((2, 2)), L=1.0, rho=0.0)
    with pytest.raises(ValueError):
        FactorQuad(A=np.eye(2), B=np.zeros((2, 4)), C=0.0,
                   anchor=np.zeros((3, 2)), L=1.0, rho=0.0)


# ---------------------------------------------------------------------------
# Lipschitz upper-bound factory


def test_lipschitz_tight_at_anchor():
    rng = np.random.default_rng(4)
    theta_star = rng.normal(size=3)
    grad = rng.normal(size=3)
    g = make_lipschitz_surrogate(1.7, grad, theta_star, L=4.0)
    assert g.value(theta_star) == pytest.approx(1.7, rel=1e-12)
    np.testing.assert_allclose(g.grad(theta_star), grad, atol=1e-12)
    assert g.L == 4.0 and g.rho == 4.0


def test_lipschitz_majorizes_smooth_function():
    # f(theta) = sum cos(theta_i) has gradient Lipschitz constant 1
    rng = np.random.default_rng(5)
    f = lambda t: float(np.cos(t).sum())
    theta_star = rng.normal(size=4)
    g = make_lipschitz_surrogate(f(theta_star), -np.sin(theta_star), theta_star, L=1.0)
    samples = [rng.normal(scale=3.0, size=4) for _ in range(200)]
    assert check_majorization(g, f, samples) <= 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_lipschitz_majorizes_quadratic_property(seed):
    # for f(t) = 0.5 t'Qt, the L = lambda_max(Q) surrogate dominates f
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    M = rng.normal(size=(n, n))
    Q = M @ M.T
    L = float(np.linalg.eigvalsh(Q)[-1])
    f = lambda t: 0.5 * float(t @ (Q @ t))
    anchor = rng.normal(size=n)
    g = make_lipschitz_surrogate(f(anchor), Q @ anchor, anchor, L=max(L, 1e-9))
    samples = [rng.normal(scale=2.0, size=n) for _ in range(30)]
    assert check_majorization(g, f, samples) <= 1e-9


def test_lipschitz_requires_positive_L():
    with pytest.raises(ValueError):
        make_lipschitz_surrogate(0.0, np.zeros(2), np.zeros(2), L=0.0)


# ---------------------------------------------------------------------------
# prox factory


def test_prox_surrogate_carries_l1_tag():
    g = make_prox_surrogate(1.0, np.array([0.5]), 0.3, np.array([2.0]), L=2.0)
    assert g.l1_lambda == 0.3
    # value includes the penalty evaluated at theta, tight at anchor for the
    # smooth part: g(anchor) = f1* + lambda*|anchor|
    assert g.value(np.array([2.0])) == pytest.approx(1.0 + 0.3 * 2.0)


def test_prox_zero_penalty_is_plain_lipschitz():
    g = make_prox_surrogate(1.0, np.array([0.5]), 0.0, np.array([2.0]), L=2.0)
    assert g.l1_lambda == 0.0


# ---------------------------------------------------------------------------
# difference-of-convex factory


def test_dc_majorizes_quartic_example():
    # f(t) = t^2 - t^4 with convex part t^2 and concave part -t^4
    f = lambda t: float(t[0] ** 2 - t[0] ** 4)
    anchor = np.array([0.5])
    g = make_dc_surrogate(
        f1_curvature=2.0, f1_linear=np.zeros(1), f1_constant=0.0,
        f2_value=-anchor[0] ** 4, f2_grad=np.array([-4 * anchor[0] ** 3]),
        theta_star=anchor)
    assert g.value(anchor) == pytest.approx(f(anchor), rel=1e-12)
    ts = np.linspace(-2.0, 2.0, 401)
    assert check_majorization(g, f, [np.array([t]) for t in ts]) <= 1e-12


def test_dc_rejects_indefinite_convex_part():
    with pytest.raises(ValueError):
        make_dc_surrogate(np.diag([1.0, -1.0]), np.zeros(2), 0.0,
                          0.0, np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# factorization surrogate factory


def _factor_loss_oracle(X, W, lam, code_set):
    H, _ = solve_code_lasso(X, W, lam, code_set, tol=1e-10)
    return float(np.sum((X - W @ H) ** 2)) + lam * float(np.abs(H).sum())


def test_factor_surrogate_tight_at_anchor():
    rng = np.random.default_rng(6)
    q, r, d = 5, 3, 4
    X = rng.random(size=(q, d))
    W = rng.random(size=(q, r))
    code_set = BoxSet.uniform(r, 0.0, 2.0)
    lam = 0.1
    H, g = make_factor_surrogate(X, W, lam, code_set, tol=1e-10)
    loss = float(np.sum((X - W @ H) ** 2)) + lam * float(np.abs(H).sum())
    assert g.value(W) == pytest.approx(loss, rel=1e-10)
    # tight up to the certified code gap
    assert g.value(W) - _factor_loss_oracle(X, W, lam, code_set) <= g.eps + 1e-9


def test_factor_surrogate_majorizes_loss():
    rng = np.random.default_rng(7)
    q, r, d = 4, 2, 6
    X = rng.random(size=(q, d))
    W0 = rng.random(size=(q, r))
    code_set = BoxSet.uniform(r, 0.0, 3.0)
    lam = 0.05
    _, g = make_factor_surrogate(X, W0, lam, code_set, tol=1e-10)
    for _ in range(20):
        W = rng.random(size=(q, r))
        assert g.value(W) >= _factor_loss_oracle(X, W, lam, code_set) - 1e-9


def test_factor_surrogate_curvature_constants():
    rng = np.random.default_rng(8)
    X = rng.random(size=(3, 5))
    W = rng.random(size=(3, 2))
    code_set = BoxSet.uniform(2, 0.0, 1.0)
    H, g = make_factor_surrogate(X, W, 0.0, code_set)
    ev = np.linalg.eigvalsh(H @ H.T)
    assert g.L == pytest.approx(2.0 * max(ev[-1], 1e-12))
    assert g.rho == pytest.approx(2.0 * max(ev[0], 0.0))


# ---------------------------------------------------------------------------
# averaging


def test_average_values_are_convex_combinations():
    rng = np.random.default_rng(9)
    n = 3
    g1 = make_lipschitz_surrogate(1.0, rng.normal(size=n), rng.normal(size=n), 2.0)
    g2 = make_lipschitz_surrogate(-0.5, rng.normal(size=n), rng.normal(size=n), 5.0)
    w = 0.3
    avg = average_surrogate(AveragedSurrogate(core=g1), g2, w)
    for _ in range(10):
        theta = rng.normal(size=n)
        expect = (1 - w) * g1.value(theta) + w * g2.value(theta)
        assert avg.value(theta) == pytest.approx(expect, rel=1e-12)
        np.testing.assert_allclose(
            avg.grad(theta), (1 - w) * g1.grad(theta) + w * g2.grad(theta),
            rtol=1e-12, atol=1e-12)


def test_average_factor_form_exact():
    rng = np.random.default_rng(10)
    r, q = 2, 4

    def rand_fq(eps):
        M = rng.normal(size=(r, r))
        return FactorQuad(A=M @ M.T, B=rng.normal(size=(r, q)),
                          C=float(rng.normal()), anchor=rng.normal(size=(q, r)),
                          L=float(rng.uniform(1, 3)), rho=float(rng.uniform(0, 1)),
                          eps=eps)

    g1, g2 = rand_fq(0.02), rand_fq(0.05)
    w = 0.4
    avg = average_surrogate(AveragedSurrogate(core=g1, eps_bar=0.01), g2, w)
    W = rng.normal(size=(q, r))
    assert avg.value(W) == pytest.approx(
        (1 - w) * g1.value(W) + w * g2.value(W), rel=1e-12)
    assert avg.eps_bar == pytest.approx((1 - w) * 0.01 + w * 0.05, rel=1e-12)
    # averaging PSD curvature blocks stays PSD
    assert np.linalg.eigvalsh(avg.core.A)[0] >= -1e-12


def test_average_eps_bar_recursion_chain():
    rng = np.random.default_rng(11)
    g = make_lipschitz_surrogate(0.0, np.zeros(2), np.zeros(2), 1.0)
    avg = AveragedSurrogate(core=g, eps_bar=0.0)
    eps_bar_ref = 0.0
    for n in range(1, 15):
        eps_n = float(rng.uniform(0, 0.1))
        w_n = 1.0 / n
        g_n = QuadSurrogate(curvature=1.0, linear=rng.normal(size=2),
                            constant=0.0, anchor=np.zeros(2), L=1.0, rho=1.0,
                            eps=eps_n)
        avg = average_surrogate(avg, g_n, w_n)
        eps_bar_ref = (1 - w_n) * eps_bar_ref + w_n * eps_n
        assert avg.eps_bar == pytest.approx(eps_bar_ref, rel=1e-12)
    # the averaged tolerance never exceeds the running sum of tolerances
    assert avg.eps_bar <= eps_bar_ref + 1e-15


def test_average_l1_mismatch_rejected():
    a = make_prox_surrogate(0.0, np.zeros(2), 0.1, np.zeros(2), 1.0)
    b = make_prox_surrogate(0.0, np.zeros(2), 0.2, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        average_surrogate(AveragedSurrogate(core=a), b, 0.5)


def test_average_representation_mismatch_rejected():
    quad = make_lipschitz_surrogate(0.0, np.zeros(4), np.zeros(4), 1.0)
    fq = FactorQuad(A=np.eye(2), B=np.zeros((2, 2)), C=0.0,
                    anchor=np.zeros((2, 2)), L=2.0, rho=2.0)
    with pytest.raises(TypeError):
        average_surrogate(AveragedSurrogate(core=quad), fq, 0.5)


def test_average_weight_domain():
    g = make_lipschitz_surrogate(0.0, np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        average_surrogate(AveragedSurrogate(core=g), g, 0.0)
    with pytest.raises(ValueError):
        average_surrogate(AveragedSurrogate(core=g), g, 1.5)


def test_block_strong_convexity_preserved():
    # averaging keeps the curvature lower bound: min-eig of the average is at
    # least the convex combination of the blocks' min-eigs
    rng = np.random.default_rng(12)
    for _ in range(10):
        M1 = rng.normal(size=(3, 3))
        M2 = rng.normal(size=(3, 3))
        A1, A2 = M1 @ M1.T, M2 @ M2.T
        w = float(rng.uniform(0.05, 0.95))
        mixed = (1 - w) * A1 + w * A2
        lo = (1 - w) * np.linalg.eigvalsh(A1)[0] + w * np.linalg.eigvalsh(A2)[0]
        assert np.linalg.eigvalsh(mixed)[0] >= lo - 1e-10


# ---------------------------------------------------------------------------
# helpers


def test_check_majorization_reports_violation():
    g = make_lipschitz_surrogate(0.0, np.zeros(1), np.zeros(1), 1.0)
    f = lambda t: float(t[0] ** 2)  # needs L = 2; L = 1 surrogate fails
    worst = check_majorization(g, f, [np.array([3.0])])
    assert worst == pytest.approx(9.0 - 4.5)
